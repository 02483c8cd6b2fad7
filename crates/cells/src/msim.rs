//! Simulation of mapped netlists.
//!
//! Technology mapping is structure-preserving by construction, but
//! "by construction" deserves a checker: this module evaluates the mapped
//! cell list directly — including the absorbed NAND/NOR/XNOR patterns and
//! the multi-output full-adder/half-adder macros — so mapping can be
//! verified against the pre-mapping netlist bit for bit.

use crate::library::CellKind;
use crate::map::MappedNetlist;
use pd_anf::Var;
use pd_netlist::{Gate, Netlist, NodeId};
use std::collections::HashMap;

/// Evaluates a mapped netlist on 64 packed assignments.
///
/// `stimulus` maps the primary-input *variables* (from the original
/// netlist) to their 64 lanes. Returns the value of each named output.
///
/// # Panics
///
/// Panics if a primary input is missing from `stimulus`.
pub fn simulate_mapped64(
    original: &Netlist,
    mapped: &MappedNetlist,
    stimulus: &HashMap<Var, u64>,
) -> Vec<(String, u64)> {
    let mut values: HashMap<NodeId, u64> = HashMap::new();
    for &input in &mapped.inputs {
        let var = match original.gate(input) {
            Gate::Input(v) => v,
            other => panic!("mapped input list points at non-input gate {other:?}"),
        };
        let v = *stimulus
            .get(&var)
            .unwrap_or_else(|| panic!("missing stimulus for {var}"));
        values.insert(input, v);
    }
    for cell in &mapped.cells {
        let get = |i: usize| -> u64 {
            values
                .get(&cell.fanins[i])
                .copied()
                .unwrap_or_else(|| panic!("cell reads undriven node {}", cell.fanins[i]))
        };
        let v = match cell.kind {
            CellKind::Tie => match original.gate(cell.drives) {
                Gate::Const(true) => u64::MAX,
                _ => 0,
            },
            CellKind::Inv => !get(0),
            CellKind::Nand2 => !(get(0) & get(1)),
            CellKind::Nor2 => !(get(0) | get(1)),
            CellKind::And2 | CellKind::HaCarry => get(0) & get(1),
            CellKind::Or2 => get(0) | get(1),
            CellKind::Xor2 | CellKind::HaSum => get(0) ^ get(1),
            CellKind::Xnor2 => !(get(0) ^ get(1)),
            CellKind::Mux2 => {
                let s = get(0);
                (!s & get(1)) | (s & get(2))
            }
            CellKind::Maj3 | CellKind::FaCarry => {
                let (a, b, c) = (get(0), get(1), get(2));
                (a & b) | (b & c) | (c & a)
            }
            CellKind::FaSum => get(0) ^ get(1) ^ get(2),
        };
        values.insert(cell.drives, v);
    }
    mapped
        .outputs
        .iter()
        .map(|(name, node)| {
            (
                name.clone(),
                values
                    .get(node)
                    .copied()
                    .unwrap_or_else(|| panic!("output {name} undriven")),
            )
        })
        .collect()
}

/// Checks that mapping preserved the function: simulates the original and
/// the mapped netlist on `rounds` batches of 64 random vectors (plus the
/// all-zero/all-one patterns) and compares all outputs.
///
/// Returns the name of the first differing output, if any.
pub fn check_mapping(
    original: &Netlist,
    mapped: &MappedNetlist,
    rounds: usize,
    seed: u64,
) -> Option<String> {
    let inputs: Vec<Var> = original.inputs().iter().map(|&(v, _)| v).collect();
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut batches: Vec<HashMap<Var, u64>> = vec![
        inputs.iter().map(|&v| (v, 0u64)).collect(),
        inputs.iter().map(|&v| (v, u64::MAX)).collect(),
    ];
    for _ in 0..rounds {
        batches.push(inputs.iter().map(|&v| (v, next())).collect());
    }
    for stimulus in &batches {
        let reference = pd_netlist::sim::simulate64(original, stimulus);
        let got = simulate_mapped64(original, mapped, stimulus);
        for (name, value) in got {
            let want_node = original
                .outputs()
                .iter()
                .find(|(n, _)| *n == name)
                .expect("same outputs")
                .1;
            if reference[want_node.index()] != value {
                return Some(name);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::map;
    use pd_anf::{Anf, VarPool};
    use pd_netlist::synthesize_outputs;

    fn check_expr(src: &str) {
        let mut pool = VarPool::new();
        let expr = Anf::parse(src, &mut pool).unwrap();
        let nl = synthesize_outputs(&[("y".into(), expr)]).sweep();
        let mapped = map(&nl);
        assert_eq!(check_mapping(&nl, &mapped, 16, 0xAB), None, "{src}");
    }

    #[test]
    fn mapping_preserves_simple_functions() {
        for src in [
            "a*b ^ c",
            "1 ^ a*b",
            "1 ^ a ^ b",
            "a*b ^ b*c ^ c*a",
            "a ^ b ^ c ^ d ^ e",
            "(a^b)*(c^d) ^ a*d ^ 1",
        ] {
            check_expr(src);
        }
    }

    #[test]
    fn mapping_preserves_full_adder_macros() {
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..3).map(|i| pool.input(&format!("x{i}"), 0, i)).collect();
        let mut nl = pd_netlist::Netlist::new();
        let n: Vec<_> = vars.iter().map(|&v| nl.input(v)).collect();
        let (s, co) = nl.full_adder(n[0], n[1], n[2]);
        nl.set_output("s", s);
        nl.set_output("co", co);
        let mapped = map(&nl);
        assert_eq!(check_mapping(&nl, &mapped, 8, 3), None);
    }

    #[test]
    fn mapping_preserves_ripple_adder() {
        let adder = pd_arith_free::rca(6);
        let mapped = map(&adder);
        assert_eq!(check_mapping(&adder, &mapped, 32, 5), None);
    }

    /// Tiny local RCA builder (pd-cells cannot depend on pd-arith).
    mod pd_arith_free {
        use pd_anf::VarPool;
        use pd_netlist::Netlist;

        pub fn rca(w: usize) -> Netlist {
            let mut pool = VarPool::new();
            let a = pool.input_word("a", 0, w);
            let b = pool.input_word("b", 1, w);
            let mut nl = Netlist::new();
            let mut carry = nl.constant(false);
            for i in 0..w {
                let (x, y) = (nl.input(a[i]), nl.input(b[i]));
                let (s, co) = nl.full_adder(x, y, carry);
                nl.set_output(&format!("s{i}"), s);
                carry = co;
            }
            nl.set_output(&format!("s{w}"), carry);
            nl
        }
    }
}
