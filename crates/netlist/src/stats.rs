//! Structural statistics: the quantitative counterpart of the paper's
//! Fig. 1 vs Fig. 2 comparison.
//!
//! The motivation section argues that the flat LZD has a "huge number of
//! interconnections" and high fan-in/fan-out dependencies, while the
//! hierarchical design is "regular, structured, and low fan-in". These
//! metrics make that claim measurable: wire (edge) counts, logic depth,
//! fan-out distribution, and the fan-out load on primary inputs.

use crate::gate::Gate;
use crate::netlist::Netlist;
use std::collections::BTreeMap;
use std::fmt;

/// Structural metrics of a netlist (live logic only).
#[derive(Clone, Debug, PartialEq)]
pub struct NetlistStats {
    /// Total live nodes, including inputs and constants.
    pub nodes: usize,
    /// Live logic gates (excluding inputs and constants).
    pub gates: usize,
    /// Total fan-in edges of live gates — the "interconnection" count.
    pub edges: usize,
    /// Longest input-to-output path in gate levels.
    pub depth: u32,
    /// Largest fan-out of any node.
    pub max_fanout: u32,
    /// Mean fan-out over driving nodes.
    pub avg_fanout: f64,
    /// Largest fan-out among primary inputs (the paper's "high fan-out
    /// load on primary inputs").
    pub input_max_fanout: u32,
    /// Mean fan-out over primary inputs.
    pub input_avg_fanout: f64,
    /// Gate counts by mnemonic.
    pub gate_counts: BTreeMap<&'static str, usize>,
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates, {} wires, depth {}, max fanout {} (inputs: {}), avg fanout {:.2}",
            self.gates,
            self.edges,
            self.depth,
            self.max_fanout,
            self.input_max_fanout,
            self.avg_fanout
        )
    }
}

/// Computes [`NetlistStats`] over the live cone of the outputs.
pub fn stats(netlist: &Netlist) -> NetlistStats {
    let live = netlist.live_mask();
    let levels = netlist.levels();
    let mut fanout = vec![0u32; netlist.len()];
    let mut gates = 0usize;
    let mut edges = 0usize;
    let mut gate_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (id, gate) in netlist.iter() {
        if !live[id.index()] {
            continue;
        }
        match gate {
            Gate::Const(_) | Gate::Input(_) => {}
            _ => {
                gates += 1;
                edges += gate.arity();
                *gate_counts.entry(gate.mnemonic()).or_default() += 1;
            }
        }
        for fi in gate.fanins() {
            fanout[fi.index()] += 1;
        }
    }
    let depth = netlist
        .outputs()
        .iter()
        .map(|&(_, n)| levels[n.index()])
        .max()
        .unwrap_or(0);
    let mut max_fanout = 0u32;
    let mut driving = 0usize;
    let mut total_fanout = 0u64;
    let mut input_max = 0u32;
    let mut input_total = 0u64;
    let mut input_count = 0usize;
    for (id, gate) in netlist.iter() {
        if !live[id.index()] {
            continue;
        }
        let fo = fanout[id.index()];
        if fo > 0 {
            driving += 1;
            total_fanout += u64::from(fo);
            max_fanout = max_fanout.max(fo);
        }
        if matches!(gate, Gate::Input(_)) {
            input_count += 1;
            input_total += u64::from(fo);
            input_max = input_max.max(fo);
        }
    }
    NetlistStats {
        nodes: live.iter().filter(|&&l| l).count(),
        gates,
        edges,
        depth,
        max_fanout,
        avg_fanout: if driving == 0 {
            0.0
        } else {
            total_fanout as f64 / driving as f64
        },
        input_max_fanout: input_max,
        input_avg_fanout: if input_count == 0 {
            0.0
        } else {
            input_total as f64 / input_count as f64
        },
        gate_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::VarPool;

    #[test]
    fn counts_simple_netlist() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut nl = Netlist::new();
        let (na, nb) = (nl.input(a), nl.input(b));
        let x = nl.xor(na, nb);
        let y = nl.and(x, na);
        nl.set_output("y", y);
        let s = stats(&nl);
        assert_eq!(s.gates, 2);
        assert_eq!(s.edges, 4);
        assert_eq!(s.depth, 2);
        assert_eq!(s.input_max_fanout, 2); // `a` feeds xor and and
        assert_eq!(s.gate_counts.get("xor"), Some(&1));
        assert_eq!(s.gate_counts.get("and"), Some(&1));
    }

    #[test]
    fn dead_logic_is_ignored() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut nl = Netlist::new();
        let (na, nb) = (nl.input(a), nl.input(b));
        let live = nl.xor(na, nb);
        let _dead = nl.and(na, nb);
        nl.set_output("y", live);
        let s = stats(&nl);
        assert_eq!(s.gates, 1);
    }

    #[test]
    fn fanout_of_shared_node() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let c = pool.input("c", 0, 2);
        let mut nl = Netlist::new();
        let (na, nb, nc) = (nl.input(a), nl.input(b), nl.input(c));
        let shared = nl.xor(na, nb);
        let u = nl.and(shared, nc);
        let v = nl.or(shared, nc);
        nl.set_output("u", u);
        nl.set_output("v", v);
        let s = stats(&nl);
        assert_eq!(s.max_fanout, 2);
        assert_eq!(s.gates, 3);
    }
}
