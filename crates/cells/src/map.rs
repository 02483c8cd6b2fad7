//! Technology mapping.
//!
//! Maps a technology-independent [`Netlist`] onto library cells with the
//! kind of *local* pattern absorption a conventional synthesis flow
//! performs well (the paper's observation: "once the input description
//! belongs to the right architecture, logic synthesis does an excellent
//! job in optimising the circuit locally"):
//!
//! * `¬(a·b) → NAND2`, `¬(a+b) → NOR2`, `¬(a⊕b) → XNOR2` when the inner
//!   gate has no other reader,
//! * `MAJ(a,b,c)` together with the XOR3 over the same operands →
//!   a full-adder macro (`FA.S`/`FA.CO`),
//! * `a⊕b` together with `a·b` → a half-adder macro,
//! * everything else 1:1.
//!
//! Mapping never restructures logic, so functional equivalence is
//! preserved by construction.

use crate::library::{Cell, CellKind, CellLibrary};
use pd_netlist::{Gate, Netlist, NodeId};
use std::collections::HashMap;

/// One mapped cell instance.
#[derive(Clone, Debug, PartialEq)]
pub struct MappedCell {
    /// The library cell implementing this node.
    pub kind: CellKind,
    /// Signal sources: netlist nodes whose mapped outputs feed this cell.
    pub fanins: Vec<NodeId>,
    /// The netlist node this cell drives.
    pub drives: NodeId,
}

/// Result of technology mapping: a cell list in topological order plus the
/// mapping from netlist nodes to the cells driving them.
#[derive(Clone, Debug, Default)]
pub struct MappedNetlist {
    /// Cell instances in topological order.
    pub cells: Vec<MappedCell>,
    /// For each netlist node that carries a mapped signal, the index of
    /// the driving cell in `cells` (absent for primary inputs).
    pub driver: HashMap<NodeId, usize>,
    /// Primary-input nodes (signal sources with no cell).
    pub inputs: Vec<NodeId>,
    /// Named outputs: `(name, netlist node)`.
    pub outputs: Vec<(String, NodeId)>,
}

impl MappedNetlist {
    /// Total cell area under `lib`.
    pub fn area_um2(&self, lib: &CellLibrary) -> f64 {
        self.cells.iter().map(|c| lib.cell(c.kind).area_um2).sum()
    }

    /// Cell count by kind.
    pub fn histogram(&self) -> std::collections::BTreeMap<CellKind, usize> {
        let mut h = std::collections::BTreeMap::new();
        for c in &self.cells {
            *h.entry(c.kind).or_insert(0) += 1;
        }
        h
    }
}

/// Maps the live cone of `netlist` onto cells.
///
/// The mapping is deterministic; dead logic is ignored.
pub fn map(netlist: &Netlist) -> MappedNetlist {
    let live = netlist.live_mask();
    // Fan-out counts over live logic, to decide absorption legality.
    let mut fanout = vec![0u32; netlist.len()];
    for (id, gate) in netlist.iter() {
        if live[id.index()] {
            for fi in gate.fanins() {
                fanout[fi.index()] += 1;
            }
        }
    }
    for (_, n) in netlist.outputs() {
        fanout[n.index()] += 1;
    }

    // Pass 1: find full-adder pairs. For each MAJ(a,b,c), search for an
    // XOR3 over the same triple whose inner XOR is not otherwise read.
    // xor_by_pair: (x, y) sorted -> node computing x⊕y.
    let mut xor_of: HashMap<NodeId, (NodeId, NodeId)> = HashMap::new();
    for (id, gate) in netlist.iter() {
        if live[id.index()] {
            if let Gate::Xor(a, b) = gate {
                xor_of.insert(id, (a, b));
            }
        }
    }
    // For each outer xor(x, c) with x = xor(a, b): candidate sum over {a,b,c}.
    // triple (sorted) -> (sum node, inner xor node)
    let mut sum3: HashMap<[NodeId; 3], (NodeId, NodeId)> = HashMap::new();
    for (&outer, &(x, y)) in &xor_of {
        for (inner, third) in [(x, y), (y, x)] {
            if let Some(&(a, b)) = xor_of.get(&inner) {
                if fanout[inner.index()] == 1 {
                    let mut key = [a, b, third];
                    key.sort();
                    sum3.entry(key).or_insert((outer, inner));
                }
            }
        }
    }
    // Absorptions: node -> replacement plan.
    #[derive(Clone, Copy)]
    enum Plan {
        /// Map as the given cell kind with explicit fanins.
        Cell(CellKind),
        /// This node is absorbed into another cell; emit nothing.
        Absorbed,
    }
    let mut plan: HashMap<NodeId, Plan> = HashMap::new();
    let mut fa_operands: HashMap<NodeId, [NodeId; 3]> = HashMap::new();
    for (id, gate) in netlist.iter() {
        if !live[id.index()] {
            continue;
        }
        if let Gate::Maj(a, b, c) = gate {
            let mut key = [a, b, c];
            key.sort();
            if let Some(&(sum_node, inner)) = sum3.get(&key) {
                if !matches!(plan.get(&sum_node), Some(Plan::Cell(CellKind::FaSum))) {
                    plan.insert(id, Plan::Cell(CellKind::FaCarry));
                    plan.insert(sum_node, Plan::Cell(CellKind::FaSum));
                    plan.insert(inner, Plan::Absorbed);
                    fa_operands.insert(id, key);
                    fa_operands.insert(sum_node, key);
                }
            }
        }
    }
    // Half-adder pairs: xor(a,b) + and(a,b) both live.
    let mut and_by_pair: HashMap<(NodeId, NodeId), NodeId> = HashMap::new();
    for (id, gate) in netlist.iter() {
        if live[id.index()] {
            if let Gate::And(a, b) = gate {
                and_by_pair.insert((a, b), id);
            }
        }
    }
    for (&xor_node, &(a, b)) in &xor_of {
        if plan.contains_key(&xor_node) {
            continue;
        }
        if let Some(&and_node) = and_by_pair.get(&(a, b)) {
            if !plan.contains_key(&and_node) {
                plan.insert(xor_node, Plan::Cell(CellKind::HaSum));
                plan.insert(and_node, Plan::Cell(CellKind::HaCarry));
            }
        }
    }
    // NAND/NOR/XNOR absorption: ¬g where g has fan-out 1 and no other plan.
    for (id, gate) in netlist.iter() {
        if !live[id.index()] || plan.contains_key(&id) {
            continue;
        }
        if let Gate::Not(inner) = gate {
            if fanout[inner.index()] == 1 && !plan.contains_key(&inner) {
                let absorbed = match netlist.gate(inner) {
                    Gate::And(..) => Some(CellKind::Nand2),
                    Gate::Or(..) => Some(CellKind::Nor2),
                    Gate::Xor(..) => Some(CellKind::Xnor2),
                    _ => None,
                };
                if let Some(kind) = absorbed {
                    plan.insert(id, Plan::Cell(kind));
                    plan.insert(inner, Plan::Absorbed);
                }
            }
        }
    }

    // Pass 2: emit cells in topological (node) order.
    let mut out = MappedNetlist {
        outputs: netlist.outputs().to_vec(),
        ..Default::default()
    };
    for (id, gate) in netlist.iter() {
        if !live[id.index()] {
            continue;
        }
        match plan.get(&id) {
            Some(Plan::Absorbed) => continue,
            Some(Plan::Cell(kind)) => {
                let fanins: Vec<NodeId> = match (kind, gate) {
                    (CellKind::FaCarry | CellKind::FaSum, _) => fa_operands[&id].to_vec(),
                    // NAND/NOR/XNOR: operands of the absorbed inner gate.
                    (CellKind::Nand2 | CellKind::Nor2 | CellKind::Xnor2, Gate::Not(inner)) => {
                        netlist.gate(inner).fanins().collect()
                    }
                    // Half-adder outputs keep their own operands.
                    _ => gate.fanins().collect(),
                };
                push_cell(&mut out, *kind, fanins, id);
            }
            None => match gate {
                Gate::Input(_) => out.inputs.push(id),
                Gate::Const(_) => push_cell(&mut out, CellKind::Tie, Vec::new(), id),
                Gate::Not(a) => push_cell(&mut out, CellKind::Inv, vec![a], id),
                Gate::And(a, b) => push_cell(&mut out, CellKind::And2, vec![a, b], id),
                Gate::Or(a, b) => push_cell(&mut out, CellKind::Or2, vec![a, b], id),
                Gate::Xor(a, b) => push_cell(&mut out, CellKind::Xor2, vec![a, b], id),
                Gate::Mux { sel, lo, hi } => {
                    push_cell(&mut out, CellKind::Mux2, vec![sel, lo, hi], id)
                }
                Gate::Maj(a, b, c) => push_cell(&mut out, CellKind::Maj3, vec![a, b, c], id),
            },
        }
    }
    out
}

/// Maps the live cone of `netlist` onto cells **1:1**, with no pattern
/// absorption: every gate becomes exactly the cell of its own kind
/// (`Not → Inv`, `And → And2`, …, `Maj → Maj3`).
///
/// This is the flow's technology-mapping fallback: it shares none of
/// [`map`]'s planning machinery (full-adder pairing, inverter
/// absorption), so it cannot misplan — at the cost of larger area. The
/// result round-trips through [`unmap`] like any mapped netlist, so the
/// BDD oracle verifies it the same way.
pub fn map_greedy(netlist: &Netlist) -> MappedNetlist {
    let live = netlist.live_mask();
    let mut out = MappedNetlist {
        outputs: netlist.outputs().to_vec(),
        ..Default::default()
    };
    for (id, gate) in netlist.iter() {
        if !live[id.index()] {
            continue;
        }
        match gate {
            Gate::Input(_) => out.inputs.push(id),
            Gate::Const(_) => push_cell(&mut out, CellKind::Tie, Vec::new(), id),
            Gate::Not(a) => push_cell(&mut out, CellKind::Inv, vec![a], id),
            Gate::And(a, b) => push_cell(&mut out, CellKind::And2, vec![a, b], id),
            Gate::Or(a, b) => push_cell(&mut out, CellKind::Or2, vec![a, b], id),
            Gate::Xor(a, b) => push_cell(&mut out, CellKind::Xor2, vec![a, b], id),
            Gate::Mux { sel, lo, hi } => push_cell(&mut out, CellKind::Mux2, vec![sel, lo, hi], id),
            Gate::Maj(a, b, c) => push_cell(&mut out, CellKind::Maj3, vec![a, b, c], id),
        }
    }
    out
}

fn push_cell(out: &mut MappedNetlist, kind: CellKind, fanins: Vec<NodeId>, drives: NodeId) {
    let idx = out.cells.len();
    out.cells.push(MappedCell {
        kind,
        fanins,
        drives,
    });
    out.driver.insert(drives, idx);
}

/// Convenience: the [`Cell`] record backing a mapped instance.
pub fn cell_of(lib: &CellLibrary, mc: &MappedCell) -> Cell {
    lib.cell(mc.kind)
}

/// Reconstructs a technology-independent [`Netlist`] from a mapped one.
///
/// Each cell re-emits its Boolean function over the reconstructed fanins
/// (`FA.S → a⊕b⊕c`, `FA.CO → MAJ`, `NAND2 → ¬(a·b)`, …). `source` must be
/// the netlist `mapped` was produced from: it supplies the input
/// variables and tie-cell constants, which the cell list alone does not
/// carry.
///
/// Mapping never restructures logic, so the reconstruction is functionally
/// identical to `source` — which is what lets the flow's BDD oracle verify
/// the technology-mapping stage like any other netlist-to-netlist step.
///
/// # Panics
///
/// Panics if `mapped` and `source` disagree (a node id out of range or a
/// non-input node where an input is expected), which cannot happen for a
/// `(source, map(source))` pair.
pub fn unmap(mapped: &MappedNetlist, source: &Netlist) -> Netlist {
    let mut out = Netlist::new();
    // Node of `source` -> node of `out`.
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    for &i in &mapped.inputs {
        let Gate::Input(v) = source.gate(i) else {
            panic!("mapped input list points at a non-input node");
        };
        let n = out.input(v);
        remap.insert(i, n);
    }
    for c in &mapped.cells {
        let f: Vec<NodeId> = c.fanins.iter().map(|n| remap[n]).collect();
        let n = match c.kind {
            CellKind::Inv => out.not(f[0]),
            CellKind::Nand2 => {
                let a = out.and(f[0], f[1]);
                out.not(a)
            }
            CellKind::Nor2 => {
                let o = out.or(f[0], f[1]);
                out.not(o)
            }
            CellKind::And2 | CellKind::HaCarry => out.and(f[0], f[1]),
            CellKind::Or2 => out.or(f[0], f[1]),
            CellKind::Xor2 | CellKind::HaSum => out.xor(f[0], f[1]),
            CellKind::Xnor2 => out.xnor(f[0], f[1]),
            CellKind::Mux2 => out.mux(f[0], f[1], f[2]),
            CellKind::Maj3 | CellKind::FaCarry => out.maj(f[0], f[1], f[2]),
            CellKind::FaSum => out.xor3(f[0], f[1], f[2]),
            CellKind::Tie => {
                let Gate::Const(b) = source.gate(c.drives) else {
                    panic!("tie cell drives a non-constant node");
                };
                out.constant(b)
            }
        };
        remap.insert(c.drives, n);
    }
    for (name, n) in &mapped.outputs {
        out.set_output(name, remap[n]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::VarPool;

    fn inputs(n: usize) -> (Netlist, Vec<NodeId>) {
        let mut pool = VarPool::new();
        let mut nl = Netlist::new();
        let nodes = (0..n)
            .map(|i| {
                let v = pool.input(&format!("x{i}"), 0, i);
                nl.input(v)
            })
            .collect();
        (nl, nodes)
    }

    #[test]
    fn nand_absorption() {
        let (mut nl, v) = inputs(2);
        let a = nl.and(v[0], v[1]);
        let y = nl.not(a);
        nl.set_output("y", y);
        let mapped = map(&nl);
        let hist = mapped.histogram();
        assert_eq!(hist.get(&CellKind::Nand2), Some(&1));
        assert_eq!(mapped.cells.len(), 1);
    }

    #[test]
    fn no_absorption_when_inner_shared() {
        let (mut nl, v) = inputs(3);
        let a = nl.and(v[0], v[1]);
        let y1 = nl.not(a);
        let y2 = nl.or(a, v[2]); // `a` has another reader
        nl.set_output("y1", y1);
        nl.set_output("y2", y2);
        let mapped = map(&nl);
        let hist = mapped.histogram();
        assert_eq!(hist.get(&CellKind::Nand2), None);
        assert_eq!(hist.get(&CellKind::And2), Some(&1));
        assert_eq!(hist.get(&CellKind::Inv), Some(&1));
        assert_eq!(hist.get(&CellKind::Or2), Some(&1));
    }

    #[test]
    fn full_adder_macro_detection() {
        let (mut nl, v) = inputs(3);
        let (s, co) = nl.full_adder(v[0], v[1], v[2]);
        nl.set_output("s", s);
        nl.set_output("co", co);
        let mapped = map(&nl);
        let hist = mapped.histogram();
        assert_eq!(hist.get(&CellKind::FaSum), Some(&1));
        assert_eq!(hist.get(&CellKind::FaCarry), Some(&1));
        assert_eq!(mapped.cells.len(), 2, "inner xor absorbed");
        // Both macro outputs see the three primary operands.
        for c in &mapped.cells {
            assert_eq!(c.fanins.len(), 3);
        }
    }

    #[test]
    fn half_adder_macro_detection() {
        let (mut nl, v) = inputs(2);
        let (s, co) = nl.half_adder(v[0], v[1]);
        nl.set_output("s", s);
        nl.set_output("co", co);
        let mapped = map(&nl);
        let hist = mapped.histogram();
        assert_eq!(hist.get(&CellKind::HaSum), Some(&1));
        assert_eq!(hist.get(&CellKind::HaCarry), Some(&1));
    }

    #[test]
    fn shared_sum_xor_blocks_fa() {
        // If the inner xor(a,b) is read elsewhere, the FA macro cannot
        // absorb it; MAJ3 + XOR2s must be used.
        let (mut nl, v) = inputs(3);
        let inner = nl.xor(v[0], v[1]);
        let s = nl.xor(inner, v[2]);
        let co = nl.maj(v[0], v[1], v[2]);
        nl.set_output("s", s);
        nl.set_output("co", co);
        nl.set_output("p", inner); // extra reader
        let mapped = map(&nl);
        let hist = mapped.histogram();
        assert_eq!(hist.get(&CellKind::FaSum), None);
        assert_eq!(hist.get(&CellKind::Maj3), Some(&1));
    }

    #[test]
    fn unmap_restores_an_equivalent_netlist() {
        // Exercise every absorption path: FA macro, HA macro, NAND, and
        // plain gates, then check unmap(map(nl)) ≡ nl by simulation.
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..5).map(|i| pool.input(&format!("x{i}"), 0, i)).collect();
        let mut nl = Netlist::new();
        let n: Vec<_> = vars.iter().map(|&v| nl.input(v)).collect();
        let (s, co) = nl.full_adder(n[0], n[1], n[2]);
        let (hs, hc) = nl.half_adder(n[3], n[4]);
        let nand_in = nl.and(s, hs);
        let nand = nl.not(nand_in);
        let m = nl.mux(co, hc, nand);
        let t = nl.constant(true);
        nl.set_output("s", s);
        nl.set_output("m", m);
        nl.set_output("t", t);
        let mapped = map(&nl);
        assert!(mapped.histogram().contains_key(&CellKind::FaSum));
        assert!(mapped.histogram().contains_key(&CellKind::Tie));
        let back = unmap(&mapped, &nl);
        for (name, _) in nl.outputs() {
            assert!(back.outputs().iter().any(|(n2, _)| n2 == name));
        }
        let spec = pd_netlist::extract::extract_anf(&nl, 1 << 16).expect("small cones");
        assert_eq!(pd_netlist::sim::check_equiv_anf(&back, &spec, 32, 17), None);
    }

    #[test]
    fn greedy_mapping_skips_all_absorption_yet_unmaps_equivalent() {
        // The same design the planner absorbs into FA/HA/NAND macros maps
        // 1:1 under the greedy fallback — more cells, no macros — and
        // still reconstructs an equivalent netlist.
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..5).map(|i| pool.input(&format!("x{i}"), 0, i)).collect();
        let mut nl = Netlist::new();
        let n: Vec<_> = vars.iter().map(|&v| nl.input(v)).collect();
        let (s, co) = nl.full_adder(n[0], n[1], n[2]);
        let (hs, hc) = nl.half_adder(n[3], n[4]);
        let nand_in = nl.and(s, hs);
        let nand = nl.not(nand_in);
        let m = nl.mux(co, hc, nand);
        nl.set_output("s", s);
        nl.set_output("m", m);
        let greedy = map_greedy(&nl);
        let planned = map(&nl);
        let hist = greedy.histogram();
        for macro_kind in [
            CellKind::FaSum,
            CellKind::FaCarry,
            CellKind::HaSum,
            CellKind::HaCarry,
            CellKind::Nand2,
        ] {
            assert_eq!(hist.get(&macro_kind), None, "{macro_kind:?}");
        }
        assert!(greedy.cells.len() > planned.cells.len());
        let back = unmap(&greedy, &nl);
        let spec = pd_netlist::extract::extract_anf(&nl, 1 << 16).expect("small cones");
        assert_eq!(pd_netlist::sim::check_equiv_anf(&back, &spec, 32, 23), None);
    }

    #[test]
    fn plain_gates_map_one_to_one() {
        let (mut nl, v) = inputs(3);
        let m = nl.mux(v[0], v[1], v[2]);
        nl.set_output("m", m);
        let mapped = map(&nl);
        assert_eq!(mapped.histogram().get(&CellKind::Mux2), Some(&1));
        assert_eq!(mapped.inputs.len(), 3);
    }
}
