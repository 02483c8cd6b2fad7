//! The hash-consed gate network.
//!
//! [`Netlist`] is an append-only DAG with structural hashing and local
//! constant/identity folding. It plays the role of the circuit description
//! handed to the downstream synthesis flow: builders in `pd-arith` write
//! baseline architectures into it directly, and `pd-core` emits the
//! hierarchical implementation produced by Progressive Decomposition.

use crate::gate::{Gate, NodeId};
use pd_anf::Var;
use std::collections::HashMap;
use std::fmt;

/// A fan-in reference that does not precede its gate.
///
/// Returned by [`Netlist::inline`] when the source netlist is not
/// topologically ordered (every fan-in id must be lower than its gate's
/// id); see there for why the assumption is checked rather than assumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopologyError {
    /// The gate whose fan-in is out of order.
    pub node: NodeId,
    /// The offending fan-in (its id is not lower than `node`'s).
    pub fanin: NodeId,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist is not topologically ordered: node {} references fan-in {}",
            self.node.index(),
            self.fanin.index()
        )
    }
}

impl std::error::Error for TopologyError {}

/// A combinational gate-level netlist with named outputs.
///
/// Nodes are hash-consed: building the same gate over the same fan-ins
/// twice returns the same [`NodeId`], so logically shared structure is
/// physically shared. Constant and identity folds (`x⊕x = 0`,
/// `x·x = x`, `¬¬x = x`, …) are applied on construction.
///
/// # Examples
///
/// ```
/// use pd_netlist::Netlist;
/// use pd_anf::{Var, VarPool};
/// let mut pool = VarPool::new();
/// let a = pool.input("a", 0, 0);
/// let b = pool.input("b", 0, 1);
/// let mut nl = Netlist::new();
/// let (na, nb) = (nl.input(a), nl.input(b));
/// let s = nl.xor(na, nb);
/// let s2 = nl.xor(na, nb);
/// assert_eq!(s, s2); // structural hashing
/// nl.set_output("sum", s);
/// assert_eq!(nl.len(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    nodes: Vec<Gate>,
    dedup: HashMap<Gate, NodeId>,
    input_nodes: HashMap<Var, NodeId>,
    outputs: Vec<(String, NodeId)>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (including inputs and constants).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The gate at `id`.
    pub fn gate(&self, id: NodeId) -> Gate {
        self.nodes[id.index()]
    }

    /// Iterates over `(id, gate)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Gate)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &g)| (NodeId(i as u32), g))
    }

    /// The primary inputs as `(variable, node)` pairs, in insertion order.
    pub fn inputs(&self) -> Vec<(Var, NodeId)> {
        let mut v: Vec<(Var, NodeId)> = self.input_nodes.iter().map(|(&k, &n)| (k, n)).collect();
        v.sort_by_key(|&(_, n)| n);
        v
    }

    /// The named outputs, in declaration order.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Declares (or redeclares) a named output.
    pub fn set_output(&mut self, name: &str, node: NodeId) {
        if let Some(slot) = self.outputs.iter_mut().find(|(n, _)| n == name) {
            slot.1 = node;
        } else {
            self.outputs.push((name.to_owned(), node));
        }
    }

    /// Rebuilds a netlist verbatim from its node table and outputs, as
    /// walked by [`Netlist::iter`]/[`Netlist::outputs`]. Unlike building
    /// through the gate constructors, no hash-consing or folding is
    /// re-applied — node ids are preserved positionally — so a snapshot
    /// written by the flow's stage cache rehydrates bit-identically even
    /// though its gates were originally produced through folds that a
    /// replay could simplify away.
    ///
    /// # Panics
    ///
    /// Panics if a gate references a fan-in at or above its own index
    /// (the table is not topologically ordered) or an output names a
    /// node outside the table.
    pub fn from_parts(nodes: Vec<Gate>, outputs: Vec<(String, NodeId)>) -> Self {
        let mut dedup = HashMap::new();
        let mut input_nodes = HashMap::new();
        for (i, &gate) in nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            for fanin in gate.fanins() {
                assert!(
                    fanin.index() < i,
                    "netlist snapshot not topological: node {i} references {fanin}"
                );
            }
            // First occurrence wins, matching what `push` built: later
            // structural duplicates (possible if the source was edited
            // in place) stay in the table but out of the index.
            dedup.entry(gate).or_insert(id);
            if let Gate::Input(v) = gate {
                input_nodes.entry(v).or_insert(id);
            }
        }
        for (name, node) in &outputs {
            assert!(
                node.index() < nodes.len(),
                "netlist snapshot output {name:?} references missing node {node}"
            );
        }
        Self {
            nodes,
            dedup,
            input_nodes,
            outputs,
        }
    }

    fn push(&mut self, gate: Gate) -> NodeId {
        if let Some(&id) = self.dedup.get(&gate) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(gate);
        self.dedup.insert(gate, id);
        id
    }

    /// The constant node for `value`.
    pub fn constant(&mut self, value: bool) -> NodeId {
        self.push(Gate::Const(value))
    }

    /// The primary-input node for `v` (created on first use).
    pub fn input(&mut self, v: Var) -> NodeId {
        if let Some(&id) = self.input_nodes.get(&v) {
            return id;
        }
        let id = self.push(Gate::Input(v));
        self.input_nodes.insert(v, id);
        id
    }

    fn const_value(&self, id: NodeId) -> Option<bool> {
        match self.gate(id) {
            Gate::Const(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the node `b` with `a = ¬b`, if `a` is an inverter.
    fn inv_of(&self, id: NodeId) -> Option<NodeId> {
        match self.gate(id) {
            Gate::Not(x) => Some(x),
            _ => None,
        }
    }

    fn is_complement_pair(&self, a: NodeId, b: NodeId) -> bool {
        self.inv_of(a) == Some(b) || self.inv_of(b) == Some(a)
    }

    /// Inverter with folding (`¬¬x = x`, constants).
    pub fn not(&mut self, a: NodeId) -> NodeId {
        if let Some(v) = self.const_value(a) {
            return self.constant(!v);
        }
        if let Some(x) = self.inv_of(a) {
            return x;
        }
        self.push(Gate::Not(a))
    }

    /// AND with folding and commutative canonicalisation.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) | (_, Some(false)) => return self.constant(false),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if self.is_complement_pair(a, b) {
            return self.constant(false);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(Gate::And(a, b))
    }

    /// OR with folding and commutative canonicalisation.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) | (_, Some(true)) => return self.constant(true),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if self.is_complement_pair(a, b) {
            return self.constant(true);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(Gate::Or(a, b))
    }

    /// XOR with folding and commutative canonicalisation.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.constant(false);
        }
        if self.is_complement_pair(a, b) {
            return self.constant(true);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(Gate::Xor(a, b))
    }

    /// XNOR (`¬(a⊕b)`).
    pub fn xnor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// 2:1 mux with folding.
    pub fn mux(&mut self, sel: NodeId, lo: NodeId, hi: NodeId) -> NodeId {
        if let Some(s) = self.const_value(sel) {
            return if s { hi } else { lo };
        }
        if lo == hi {
            return lo;
        }
        match (self.const_value(lo), self.const_value(hi)) {
            (Some(false), Some(true)) => return sel,
            (Some(true), Some(false)) => return self.not(sel),
            (Some(false), None) => return self.and(sel, hi),
            (None, Some(true)) => return self.or(sel, lo),
            (Some(true), None) => {
                let ns = self.not(sel);
                return self.or(ns, hi);
            }
            (None, Some(false)) => {
                let ns = self.not(sel);
                return self.and(ns, lo);
            }
            _ => {}
        }
        if sel == hi {
            // mux(s, lo, s) = s ? 1·… : lo with hi=s ⇒ or(and(s,s), and(!s,lo)) = s | lo… careful:
            // sel=1 ⇒ hi=1; sel=0 ⇒ lo. That is or(sel, lo)? No: sel=1 gives hi=sel=1. Yes.
            return self.or(sel, lo);
        }
        if sel == lo {
            // sel=0 ⇒ lo=0; sel=1 ⇒ hi. That is and(sel, hi).
            return self.and(sel, hi);
        }
        self.push(Gate::Mux { sel, lo, hi })
    }

    /// 3-input majority with folding and input sorting.
    pub fn maj(&mut self, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
        let mut v = [a, b, c];
        v.sort();
        let [a, b, c] = v;
        if a == b {
            return a;
        }
        if b == c {
            return b;
        }
        if let Some(x) = self.const_value(a) {
            // a is the smallest id; constants are created early but inputs
            // may be earlier — handle every position anyway below.
            return if x { self.or(b, c) } else { self.and(b, c) };
        }
        if let Some(x) = self.const_value(b) {
            return if x { self.or(a, c) } else { self.and(a, c) };
        }
        if let Some(x) = self.const_value(c) {
            return if x { self.or(a, b) } else { self.and(a, b) };
        }
        self.push(Gate::Maj(a, b, c))
    }

    /// 3-input XOR as a two-level tree.
    pub fn xor3(&mut self, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
        let ab = self.xor(a, b);
        self.xor(ab, c)
    }

    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: NodeId, b: NodeId, cin: NodeId) -> (NodeId, NodeId) {
        (self.xor3(a, b, cin), self.maj(a, b, cin))
    }

    /// Half adder: returns `(sum, carry)`.
    pub fn half_adder(&mut self, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        (self.xor(a, b), self.and(a, b))
    }

    /// Unit-delay depth of each node (inputs/constants at level 0).
    pub fn levels(&self) -> Vec<u32> {
        let mut lv = vec![0u32; self.nodes.len()];
        for (i, g) in self.nodes.iter().enumerate() {
            lv[i] = g.fanins().map(|f| lv[f.index()] + 1).max().unwrap_or(0);
        }
        lv
    }

    fn reduce_tree(
        &mut self,
        nodes: &[NodeId],
        empty: bool,
        op: impl Fn(&mut Self, NodeId, NodeId) -> NodeId,
    ) -> NodeId {
        match nodes.len() {
            0 => return self.constant(empty),
            1 => return nodes[0],
            _ => {}
        }
        // Delay-aware (Huffman-style) reduction: always combine the two
        // shallowest operands so the result tree is balanced even when the
        // operands arrive at different logic depths.
        let levels = self.levels();
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, NodeId)>> = nodes
            .iter()
            .map(|&n| std::cmp::Reverse((levels[n.index()], n)))
            .collect();
        while heap.len() > 1 {
            let std::cmp::Reverse((la, a)) = heap.pop().expect("len>1");
            let std::cmp::Reverse((lb, b)) = heap.pop().expect("len>1");
            let r = op(self, a, b);
            heap.push(std::cmp::Reverse((la.max(lb) + 1, r)));
        }
        heap.pop().expect("nonempty").0 .1
    }

    /// Balanced, arrival-aware XOR of many nodes (`0` when empty).
    pub fn xor_many(&mut self, nodes: &[NodeId]) -> NodeId {
        self.reduce_tree(nodes, false, Self::xor)
    }

    /// Balanced, arrival-aware AND of many nodes (`1` when empty).
    pub fn and_many(&mut self, nodes: &[NodeId]) -> NodeId {
        self.reduce_tree(nodes, true, Self::and)
    }

    /// Balanced, arrival-aware OR of many nodes (`0` when empty).
    pub fn or_many(&mut self, nodes: &[NodeId]) -> NodeId {
        self.reduce_tree(nodes, false, Self::or)
    }

    /// Fan-out count of every node, counting output pins once each.
    pub fn fanouts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.nodes.len()];
        for g in &self.nodes {
            for f in g.fanins() {
                fo[f.index()] += 1;
            }
        }
        for (_, n) in &self.outputs {
            fo[n.index()] += 1;
        }
        fo
    }

    /// Nodes reachable from the outputs (live logic), as a boolean mask.
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|&(_, n)| n).collect();
        while let Some(n) = stack.pop() {
            if live[n.index()] {
                continue;
            }
            live[n.index()] = true;
            stack.extend(self.gate(n).fanins());
        }
        live
    }

    /// Copies every node of `other` into this netlist, substituting the
    /// nodes of `bind` for `other`'s primary inputs (an input variable
    /// absent from `bind` becomes/reuses this netlist's own input node).
    ///
    /// Returns the node map: index `i` holds the node in `self`
    /// corresponding to `other`'s node `i`. Gate construction goes through
    /// the folding builders, so hash-consing and constant folds apply
    /// across the inlined logic — this is how the flow stitches per-block
    /// factored netlists into one implementation, wiring each block's
    /// leader variables to the nodes computing them.
    ///
    /// `other`'s output declarations are *not* copied; the caller decides
    /// which mapped nodes become outputs (or bindings for later blocks).
    ///
    /// # Errors
    ///
    /// The single pass requires `other` to be topologically ordered —
    /// every fan-in id lower than its gate's id, which the appending
    /// builders guarantee but externally assembled netlists may not.
    /// A forward (or self) reference returns [`TopologyError`] instead
    /// of panicking or silently wiring a stale node.
    pub fn inline(
        &mut self,
        other: &Netlist,
        bind: &HashMap<Var, NodeId>,
    ) -> Result<Vec<NodeId>, TopologyError> {
        let mut remap: Vec<NodeId> = Vec::with_capacity(other.len());
        for (id, gate) in other.iter() {
            for f in gate.fanins() {
                if f.index() >= remap.len() {
                    return Err(TopologyError { node: id, fanin: f });
                }
            }
            let new = match gate {
                Gate::Const(b) => self.constant(b),
                Gate::Input(v) => match bind.get(&v) {
                    Some(&n) => n,
                    None => self.input(v),
                },
                Gate::Not(a) => {
                    let a = remap[a.index()];
                    self.not(a)
                }
                Gate::And(a, b) => {
                    let (a, b) = (remap[a.index()], remap[b.index()]);
                    self.and(a, b)
                }
                Gate::Or(a, b) => {
                    let (a, b) = (remap[a.index()], remap[b.index()]);
                    self.or(a, b)
                }
                Gate::Xor(a, b) => {
                    let (a, b) = (remap[a.index()], remap[b.index()]);
                    self.xor(a, b)
                }
                Gate::Mux { sel, lo, hi } => {
                    let (s, l, h) = (remap[sel.index()], remap[lo.index()], remap[hi.index()]);
                    self.mux(s, l, h)
                }
                Gate::Maj(a, b, c) => {
                    let (a, b, c) = (remap[a.index()], remap[b.index()], remap[c.index()]);
                    self.maj(a, b, c)
                }
            };
            remap.push(new);
        }
        Ok(remap)
    }

    /// Returns a copy with dead nodes removed (outputs preserved).
    pub fn sweep(&self) -> Netlist {
        let live = self.live_mask();
        let mut out = Netlist::new();
        let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
        for (id, gate) in self.iter() {
            if !live[id.index()] {
                continue;
            }
            let new = match gate {
                Gate::Const(b) => out.constant(b),
                Gate::Input(v) => out.input(v),
                Gate::Not(a) => {
                    let a = remap[&a];
                    out.not(a)
                }
                Gate::And(a, b) => {
                    let (a, b) = (remap[&a], remap[&b]);
                    out.and(a, b)
                }
                Gate::Or(a, b) => {
                    let (a, b) = (remap[&a], remap[&b]);
                    out.or(a, b)
                }
                Gate::Xor(a, b) => {
                    let (a, b) = (remap[&a], remap[&b]);
                    out.xor(a, b)
                }
                Gate::Mux { sel, lo, hi } => {
                    let (s, l, h) = (remap[&sel], remap[&lo], remap[&hi]);
                    out.mux(s, l, h)
                }
                Gate::Maj(a, b, c) => {
                    let (a, b, c) = (remap[&a], remap[&b], remap[&c]);
                    out.maj(a, b, c)
                }
            };
            remap.insert(id, new);
        }
        for (name, n) in &self.outputs {
            out.set_output(name, remap[n]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::VarPool;

    fn two_inputs() -> (Netlist, NodeId, NodeId) {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut nl = Netlist::new();
        let na = nl.input(a);
        let nb = nl.input(b);
        (nl, na, nb)
    }

    #[test]
    fn folding_rules() {
        let (mut nl, a, b) = two_inputs();
        let zero = nl.constant(false);
        let one = nl.constant(true);
        assert_eq!(nl.and(a, zero), zero);
        assert_eq!(nl.and(a, one), a);
        assert_eq!(nl.or(a, one), one);
        assert_eq!(nl.xor(a, zero), a);
        assert_eq!(nl.xor(a, a), zero);
        assert_eq!(nl.and(a, a), a);
        let na = nl.not(a);
        assert_eq!(nl.not(na), a);
        assert_eq!(nl.and(a, na), zero);
        assert_eq!(nl.or(a, na), one);
        assert_eq!(nl.xor(a, na), one);
        let _ = b;
    }

    #[test]
    fn structural_hashing_is_commutative() {
        let (mut nl, a, b) = two_inputs();
        assert_eq!(nl.and(a, b), nl.and(b, a));
        assert_eq!(nl.xor(a, b), nl.xor(b, a));
        let n1 = nl.len();
        nl.or(a, b);
        nl.or(b, a);
        assert_eq!(nl.len(), n1 + 1);
    }

    #[test]
    fn mux_folds() {
        let (mut nl, a, b) = two_inputs();
        let zero = nl.constant(false);
        let one = nl.constant(true);
        assert_eq!(nl.mux(a, zero, one), a);
        let m = nl.mux(a, one, zero);
        assert_eq!(nl.gate(m), Gate::Not(a));
        assert_eq!(nl.mux(one, a, b), b);
        assert_eq!(nl.mux(zero, a, b), a);
        assert_eq!(nl.mux(a, b, b), b);
        let and_ab = nl.and(a, b);
        assert_eq!(nl.mux(a, zero, b), and_ab);
    }

    #[test]
    fn maj_folds() {
        let (mut nl, a, b) = two_inputs();
        let zero = nl.constant(false);
        let one = nl.constant(true);
        let and_ab = nl.and(a, b);
        let or_ab = nl.or(a, b);
        assert_eq!(nl.maj(a, b, zero), and_ab);
        assert_eq!(nl.maj(a, b, one), or_ab);
        assert_eq!(nl.maj(a, a, b), a);
    }

    #[test]
    fn xor_many_is_balanced() {
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..8).map(|i| pool.input(&format!("x{i}"), 0, i)).collect();
        let mut nl = Netlist::new();
        let nodes: Vec<NodeId> = vars.iter().map(|&v| nl.input(v)).collect();
        let r = nl.xor_many(&nodes);
        let levels = nl.levels();
        assert_eq!(levels[r.index()], 3, "8 inputs reduce in 3 XOR levels");
    }

    #[test]
    fn sweep_removes_dead_logic() {
        let (mut nl, a, b) = two_inputs();
        let keep = nl.xor(a, b);
        let _dead = nl.and(a, b);
        nl.set_output("y", keep);
        let swept = nl.sweep();
        assert_eq!(swept.len(), 3);
        assert_eq!(swept.outputs().len(), 1);
    }

    #[test]
    fn inline_binds_inputs_and_shares_structure() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let x = pool.derived("x", 1);
        // Inner block: y = x ⊕ b (x to be bound to a·b in the outer netlist).
        let mut inner = Netlist::new();
        let (nx, nb) = (inner.input(x), inner.input(b));
        let y = inner.xor(nx, nb);
        inner.set_output("y", y);
        // Outer netlist computes a·b, then inlines the block with x ↦ a·b.
        let mut outer = Netlist::new();
        let (na, nb2) = (outer.input(a), outer.input(b));
        let ab = outer.and(na, nb2);
        let bind: HashMap<Var, NodeId> = [(x, ab)].into_iter().collect();
        let map = outer
            .inline(&inner, &bind)
            .expect("builder netlists are ordered");
        outer.set_output("y", map[y.index()]);
        // x never became an input; b was shared, not duplicated.
        assert!(outer.inputs().iter().all(|&(v, _)| v != x));
        assert_eq!(outer.inputs().len(), 2);
        let spec = vec![(
            "y".to_owned(),
            pd_anf::Anf::parse("a*b ^ b", &mut pool).unwrap(),
        )];
        assert_eq!(crate::sim::check_equiv_anf(&outer, &spec, 16, 3), None);
    }

    #[test]
    fn inline_rejects_out_of_order_netlists() {
        // The public builders can only append in topological order, so
        // hand-assemble a netlist whose AND gate precedes its operands
        // (the shape a deserialiser or foreign importer could produce).
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut bad = Netlist::new();
        bad.nodes.push(Gate::And(NodeId(1), NodeId(2)));
        bad.nodes.push(Gate::Input(a));
        bad.nodes.push(Gate::Input(b));
        bad.input_nodes.insert(a, NodeId(1));
        bad.input_nodes.insert(b, NodeId(2));
        bad.outputs.push(("y".to_owned(), NodeId(0)));
        let mut target = Netlist::new();
        let err = target
            .inline(&bad, &HashMap::new())
            .expect_err("forward reference must be rejected");
        assert_eq!(err.node, NodeId(0));
        assert_eq!(err.fanin, NodeId(1));
        assert!(err.to_string().contains("topologically ordered"), "{err}");
        // A self-reference is equally out of order.
        let mut cyclic = Netlist::new();
        cyclic.nodes.push(Gate::Not(NodeId(0)));
        let err = Netlist::new()
            .inline(&cyclic, &HashMap::new())
            .expect_err("self reference must be rejected");
        assert_eq!((err.node, err.fanin), (NodeId(0), NodeId(0)));
    }

    #[test]
    fn full_adder_has_sum_and_carry() {
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..3).map(|i| pool.input(&format!("x{i}"), 0, i)).collect();
        let mut nl = Netlist::new();
        let nodes: Vec<NodeId> = vars.iter().map(|&v| nl.input(v)).collect();
        let (s, co) = nl.full_adder(nodes[0], nodes[1], nodes[2]);
        assert_ne!(s, co);
        assert!(matches!(nl.gate(co), Gate::Maj(..)));
    }

    #[test]
    fn levels_track_depth() {
        let (mut nl, a, b) = two_inputs();
        let x = nl.xor(a, b);
        let y = nl.and(x, a);
        let lv = nl.levels();
        assert_eq!(lv[a.index()], 0);
        assert_eq!(lv[x.index()], 1);
        assert_eq!(lv[y.index()], 2);
    }
}
