//! Bit-parallel simulation and equivalence checking.
//!
//! Simulation packs 64 input assignments into one `u64` per signal, so a
//! full pass over the netlist evaluates 64 test vectors. Equivalence of a
//! netlist against its ANF specification is checked exhaustively for up to
//! [`EXHAUSTIVE_LIMIT`] inputs, and with randomised plus structured
//! (walking-ones/zeros) vectors above that.

use crate::gate::Gate;
use crate::netlist::Netlist;
use pd_anf::{Anf, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Largest input count for which [`check_equiv_anf`] is exhaustive.
pub const EXHAUSTIVE_LIMIT: usize = 20;

/// Default number of random 64-vector rounds used beyond the exhaustive
/// limit.
pub const DEFAULT_RANDOM_ROUNDS: usize = 2048;

/// Simulates one 64-lane pattern; `stimulus` maps each primary-input
/// variable to its 64 lane bits.
///
/// Returns the 64-lane value of every node.
///
/// # Panics
///
/// Panics if a primary input is missing from `stimulus`.
pub fn simulate64(netlist: &Netlist, stimulus: &HashMap<Var, u64>) -> Vec<u64> {
    let mut values = vec![0u64; netlist.len()];
    for (id, gate) in netlist.iter() {
        let v = match gate {
            Gate::Const(false) => 0,
            Gate::Const(true) => u64::MAX,
            Gate::Input(var) => *stimulus
                .get(&var)
                .unwrap_or_else(|| panic!("missing stimulus for input {var}")),
            Gate::Not(a) => !values[a.index()],
            Gate::And(a, b) => values[a.index()] & values[b.index()],
            Gate::Or(a, b) => values[a.index()] | values[b.index()],
            Gate::Xor(a, b) => values[a.index()] ^ values[b.index()],
            Gate::Mux { sel, lo, hi } => {
                let s = values[sel.index()];
                (s & values[hi.index()]) | (!s & values[lo.index()])
            }
            Gate::Maj(a, b, c) => {
                let (x, y, z) = (values[a.index()], values[b.index()], values[c.index()]);
                (x & y) | (y & z) | (z & x)
            }
        };
        values[id.index()] = v;
    }
    values
}

/// Evaluates the named outputs for a single scalar assignment.
pub fn evaluate(netlist: &Netlist, assignment: &HashMap<Var, bool>) -> HashMap<String, bool> {
    let stimulus: HashMap<Var, u64> = assignment
        .iter()
        .map(|(&v, &b)| (v, if b { u64::MAX } else { 0 }))
        .collect();
    let values = simulate64(netlist, &stimulus);
    netlist
        .outputs()
        .iter()
        .map(|(name, n)| (name.clone(), values[n.index()] & 1 == 1))
        .collect()
}

/// A mismatch found by equivalence checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Name of the differing output.
    pub output: String,
    /// The input assignment exhibiting the difference.
    pub assignment: Vec<(Var, bool)>,
    /// Value computed by the netlist.
    pub netlist_value: bool,
    /// Value computed by the specification.
    pub spec_value: bool,
}

/// Exhaustive or randomised check that each named output of `netlist`
/// equals the corresponding specification expression.
///
/// `spec` pairs output names with ANF expressions over the netlist's input
/// variables. With at most [`EXHAUSTIVE_LIMIT`] inputs the check covers all
/// assignments; beyond that it uses `random_rounds` batches of 64 random
/// vectors plus walking-ones and walking-zeros patterns.
///
/// Returns the first mismatch found, or `None` when equivalent (to the
/// extent checked).
pub fn check_equiv_anf(
    netlist: &Netlist,
    spec: &[(String, Anf)],
    random_rounds: usize,
    seed: u64,
) -> Option<Mismatch> {
    let inputs: Vec<Var> = netlist.inputs().iter().map(|&(v, _)| v).collect();
    // Variables the spec mentions but the netlist never reads still need
    // stimulus values for spec evaluation.
    let mut all_vars = inputs.clone();
    for (_, e) in spec {
        for v in e.support().iter() {
            if !all_vars.contains(&v) {
                all_vars.push(v);
            }
        }
    }
    if all_vars.len() <= EXHAUSTIVE_LIMIT {
        exhaustive_check(netlist, spec, &all_vars)
    } else {
        sampled_check(netlist, spec, &all_vars, random_rounds, seed)
    }
}

fn run_batch(
    netlist: &Netlist,
    spec: &[(String, Anf)],
    vars: &[Var],
    stimulus: &HashMap<Var, u64>,
    lanes: usize,
) -> Option<Mismatch> {
    let values = simulate64(netlist, stimulus);
    for (name, expr) in spec {
        let want = expr.eval64(|v| stimulus.get(&v).copied().unwrap_or(0));
        let node = netlist
            .outputs()
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("netlist has no output named {name:?}"))
            .1;
        let got = values[node.index()];
        let diff = (want ^ got) & lane_mask(lanes);
        if diff != 0 {
            let lane = diff.trailing_zeros();
            let assignment: Vec<(Var, bool)> = vars
                .iter()
                .map(|&v| (v, stimulus.get(&v).copied().unwrap_or(0) >> lane & 1 == 1))
                .collect();
            return Some(Mismatch {
                output: name.clone(),
                assignment,
                netlist_value: got >> lane & 1 == 1,
                spec_value: want >> lane & 1 == 1,
            });
        }
    }
    None
}

fn lane_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

fn exhaustive_check(netlist: &Netlist, spec: &[(String, Anf)], vars: &[Var]) -> Option<Mismatch> {
    let n = vars.len();
    let total = 1usize << n;
    let batches = total.div_ceil(64);
    for batch in 0..batches {
        let mut stimulus = HashMap::with_capacity(n);
        for (j, &v) in vars.iter().enumerate() {
            let word = if j < 6 {
                // Lane i assigns bit (i >> j) & 1.
                let mut w = 0u64;
                for lane in 0..64u64 {
                    if lane >> j & 1 == 1 {
                        w |= 1 << lane;
                    }
                }
                w
            } else if (batch >> (j - 6)) & 1 == 1 {
                u64::MAX
            } else {
                0
            };
            stimulus.insert(v, word);
        }
        let lanes = (total - batch * 64).min(64);
        if let Some(m) = run_batch(netlist, spec, vars, &stimulus, lanes) {
            return Some(m);
        }
    }
    None
}

fn sampled_check(
    netlist: &Netlist,
    spec: &[(String, Anf)],
    vars: &[Var],
    random_rounds: usize,
    seed: u64,
) -> Option<Mismatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Structured patterns: all-zeros, all-ones, walking ones, walking zeros
    // across the variable list, packed 64 lanes at a time.
    let n = vars.len();
    let mut structured: Vec<Vec<bool>> = vec![vec![false; n], vec![true; n]];
    for i in 0..n {
        let mut one = vec![false; n];
        one[i] = true;
        structured.push(one);
        let mut zero = vec![true; n];
        zero[i] = false;
        structured.push(zero);
    }
    for chunk in structured.chunks(64) {
        let mut stimulus: HashMap<Var, u64> = HashMap::with_capacity(n);
        for (j, &v) in vars.iter().enumerate() {
            let mut w = 0u64;
            for (lane, pattern) in chunk.iter().enumerate() {
                if pattern[j] {
                    w |= 1 << lane;
                }
            }
            stimulus.insert(v, w);
        }
        if let Some(m) = run_batch(netlist, spec, vars, &stimulus, chunk.len()) {
            return Some(m);
        }
    }
    for _ in 0..random_rounds {
        let stimulus: HashMap<Var, u64> = vars.iter().map(|&v| (v, rng.gen())).collect();
        if let Some(m) = run_batch(netlist, spec, vars, &stimulus, 64) {
            return Some(m);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::VarPool;

    #[test]
    fn xor_netlist_matches_spec() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut nl = Netlist::new();
        let (na, nb) = (nl.input(a), nl.input(b));
        let x = nl.xor(na, nb);
        nl.set_output("y", x);
        let spec = vec![("y".to_owned(), Anf::var(a).xor(&Anf::var(b)))];
        assert_eq!(check_equiv_anf(&nl, &spec, 8, 1), None);
    }

    #[test]
    fn detects_mismatch() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut nl = Netlist::new();
        let (na, nb) = (nl.input(a), nl.input(b));
        let x = nl.and(na, nb); // wrong gate
        nl.set_output("y", x);
        let spec = vec![("y".to_owned(), Anf::var(a).xor(&Anf::var(b)))];
        let m = check_equiv_anf(&nl, &spec, 8, 1).expect("must differ");
        assert_eq!(m.output, "y");
        assert_ne!(m.netlist_value, m.spec_value);
    }

    #[test]
    fn maj_and_mux_simulate_correctly() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let c = pool.input("c", 0, 2);
        let mut nl = Netlist::new();
        let (na, nb, nc) = (nl.input(a), nl.input(b), nl.input(c));
        let m = nl.maj(na, nb, nc);
        let x = nl.mux(na, nb, nc);
        nl.set_output("maj", m);
        nl.set_output("mux", x);
        let maj_spec = Anf::parse("a*b ^ b*c ^ c*a", &mut pool).unwrap();
        let mux_spec = Anf::parse("b ^ a*b ^ a*c", &mut pool).unwrap();
        let spec = vec![("maj".to_owned(), maj_spec), ("mux".to_owned(), mux_spec)];
        assert_eq!(check_equiv_anf(&nl, &spec, 8, 7), None);
    }

    #[test]
    fn spec_only_vars_get_stimulus() {
        // The netlist ignores `b`, but the (wrong) spec mentions it.
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut nl = Netlist::new();
        let na = nl.input(a);
        nl.set_output("y", na);
        let spec = vec![("y".to_owned(), Anf::var(a).xor(&Anf::var(b)))];
        assert!(check_equiv_anf(&nl, &spec, 8, 3).is_some());
    }
}
