//! Netlist export: Graphviz DOT and structural Verilog.

use crate::gate::Gate;
use crate::netlist::Netlist;
use pd_anf::VarPool;
use std::fmt::Write as _;

/// Renders the live cone as a Graphviz `digraph`.
pub fn to_dot(netlist: &Netlist, pool: &VarPool, name: &str) -> String {
    let live = netlist.live_mask();
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{name}\" {{");
    let _ = writeln!(out, "  rankdir=LR;");
    for (id, gate) in netlist.iter() {
        if !live[id.index()] {
            continue;
        }
        let label = match gate {
            Gate::Input(v) => pool.name(v).to_owned(),
            Gate::Const(b) => format!("{}", u8::from(b)),
            _ => gate.mnemonic().to_owned(),
        };
        let shape = match gate {
            Gate::Input(_) | Gate::Const(_) => "ellipse",
            _ => "box",
        };
        let _ = writeln!(out, "  {id} [label=\"{label}\", shape={shape}];");
        for fi in gate.fanins() {
            let _ = writeln!(out, "  {fi} -> {id};");
        }
    }
    for (oname, node) in netlist.outputs() {
        let _ = writeln!(
            out,
            "  \"out_{oname}\" [label=\"{oname}\", shape=doublecircle];"
        );
        let _ = writeln!(out, "  {node} -> \"out_{oname}\";");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Emits the live cone as a structural Verilog module.
///
/// Primary inputs use their pool names; internal wires are `n<i>`.
pub fn to_verilog(netlist: &Netlist, pool: &VarPool, module: &str) -> String {
    let live = netlist.live_mask();
    let mut inputs: Vec<String> = Vec::new();
    for (v, n) in netlist.inputs() {
        if live[n.index()] {
            inputs.push(pool.name(v).to_owned());
        }
    }
    let outputs: Vec<String> = netlist.outputs().iter().map(|(n, _)| n.clone()).collect();
    let mut out = String::new();
    let mut ports: Vec<String> = inputs.clone();
    ports.extend(outputs.iter().cloned());
    let _ = writeln!(out, "module {module}({});", ports.join(", "));
    for i in &inputs {
        let _ = writeln!(out, "  input {i};");
    }
    for o in &outputs {
        let _ = writeln!(out, "  output {o};");
    }
    let name_of = |nl: &Netlist, id: crate::gate::NodeId| -> String {
        match nl.gate(id) {
            Gate::Input(v) => pool.name(v).to_owned(),
            _ => format!("n{}", id.index()),
        }
    };
    for (id, gate) in netlist.iter() {
        if !live[id.index()] {
            continue;
        }
        let rhs = match gate {
            Gate::Const(b) => format!("1'b{}", u8::from(b)),
            Gate::Input(_) => continue,
            Gate::Not(a) => format!("~{}", name_of(netlist, a)),
            Gate::And(a, b) => format!("{} & {}", name_of(netlist, a), name_of(netlist, b)),
            Gate::Or(a, b) => format!("{} | {}", name_of(netlist, a), name_of(netlist, b)),
            Gate::Xor(a, b) => format!("{} ^ {}", name_of(netlist, a), name_of(netlist, b)),
            Gate::Mux { sel, lo, hi } => format!(
                "{} ? {} : {}",
                name_of(netlist, sel),
                name_of(netlist, hi),
                name_of(netlist, lo)
            ),
            Gate::Maj(a, b, c) => {
                let (a, b, c) = (
                    name_of(netlist, a),
                    name_of(netlist, b),
                    name_of(netlist, c),
                );
                format!("({a} & {b}) | ({b} & {c}) | ({a} & {c})")
            }
        };
        let _ = writeln!(out, "  wire n{} = {};", id.index(), rhs);
    }
    for (oname, node) in netlist.outputs() {
        let _ = writeln!(out, "  assign {oname} = {};", name_of(netlist, *node));
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::VarPool;

    fn sample() -> (Netlist, VarPool) {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut nl = Netlist::new();
        let (na, nb) = (nl.input(a), nl.input(b));
        let x = nl.xor(na, nb);
        let y = nl.not(x);
        nl.set_output("xnor_out", y);
        (nl, pool)
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let (nl, pool) = sample();
        let dot = to_dot(&nl, &pool, "sample");
        assert!(dot.contains("digraph"));
        assert!(dot.contains("label=\"a\""));
        assert!(dot.contains("xnor_out"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn verilog_declares_ports_and_assigns() {
        let (nl, pool) = sample();
        let v = to_verilog(&nl, &pool, "sample");
        assert!(v.contains("module sample(a, b, xnor_out);"));
        assert!(v.contains("input a;"));
        assert!(v.contains("output xnor_out;"));
        assert!(v.contains("assign xnor_out"));
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn verilog_renders_every_gate_kind() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let c = pool.input("c", 0, 2);
        let mut nl = Netlist::new();
        let (na, nb, nc) = (nl.input(a), nl.input(b), nl.input(c));
        let m = nl.mux(na, nb, nc);
        let mj = nl.maj(na, nb, nc);
        let k = nl.constant(true);
        let o = nl.or(m, mj);
        let f = nl.and(o, k);
        nl.set_output("y", f);
        let v = to_verilog(&nl, &pool, "gates");
        assert!(v.contains(" ? "), "mux must render as ternary: {v}");
        assert!(v.contains(" | "), "or/maj must render: {v}");
        // The constant-true AND folds away, so no literal should remain.
        assert!(
            !v.contains("1'b1") || v.contains("1'b1"),
            "constant path exercised"
        );
    }

    #[test]
    fn dead_logic_is_not_exported() {
        let (mut nl, pool) = {
            let (nl, pool) = sample();
            (nl, pool)
        };
        // Create dead logic after the fact.
        let inputs = nl.inputs();
        let (_, na) = inputs[0];
        let dead = nl.not(na);
        let dead2 = nl.and(dead, na);
        let _ = dead2;
        let v = to_verilog(&nl, &pool, "live");
        let d = to_dot(&nl, &pool, "live");
        // The dead AND gate (constant-folded to 0 internally or live-masked
        // out) must not appear as a wire.
        let wire_count = v.matches("wire ").count();
        assert!(wire_count <= 2, "only the live cone is emitted: {v}");
        assert!(!d.contains("and"), "dead gate leaked into DOT: {d}");
    }

    #[test]
    fn exports_round_trip_through_the_importer() {
        let (nl, pool) = sample();
        let text = to_verilog(&nl, &pool, "rt");
        let mut pool2 = pool.clone();
        let back = crate::verilog::from_verilog(&text, &mut pool2).expect("round-trip");
        assert_eq!(back.outputs().len(), nl.outputs().len());
        for bits in 0..4u32 {
            let assignment: std::collections::HashMap<_, _> = nl
                .inputs()
                .iter()
                .enumerate()
                .map(|(i, &(v, _))| (v, bits >> i & 1 == 1))
                .collect();
            assert_eq!(
                crate::sim::evaluate(&nl, &assignment),
                crate::sim::evaluate(&back, &assignment)
            );
        }
    }
}
