//! Variable-group-size carry-lookahead adder (the paper's reference \[7\],
//! Lee & Oklobdzija's improved CLA).
//!
//! Generates a CLA whose carry network uses caller-chosen group sizes per
//! level: within each group, carries are produced by two-level
//! lookahead over `(g, p)` pairs; group-level `(G, P)` pairs feed the next
//! level. With group size 1 this degenerates to a ripple adder; with a
//! single group of size `w` it is full two-level lookahead.

use crate::words::word;
use pd_anf::{Anf, Var, VarPool};
use pd_netlist::{Netlist, NodeId};

/// Carry-lookahead adder benchmark with configurable group sizes.
#[derive(Clone, Debug)]
pub struct Cla {
    /// Operand width.
    pub width: usize,
    /// Variable pool.
    pub pool: VarPool,
    /// Operand A bits, LSB first.
    pub a: Vec<Var>,
    /// Operand B bits, LSB first.
    pub b: Vec<Var>,
}

/// One level of `(generate, propagate)` signals.
struct GpLevel {
    /// `(g, p)` per position, plus the carry into each position.
    g: Vec<NodeId>,
    p: Vec<NodeId>,
}

impl Cla {
    /// Creates the benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0);
        let mut pool = VarPool::new();
        let a = word(&mut pool, "a", 0, width);
        let b = word(&mut pool, "b", 1, width);
        Cla { width, pool, a, b }
    }

    /// The Reed–Muller specification (identical to [`crate::Adder`]'s).
    pub fn spec(&self) -> Vec<(String, Anf)> {
        let mut out = Vec::with_capacity(self.width + 1);
        let mut carry = Anf::zero();
        for i in 0..self.width {
            let ai = Anf::var(self.a[i]);
            let bi = Anf::var(self.b[i]);
            let p = ai.xor(&bi);
            out.push((format!("s{i}"), p.xor(&carry)));
            carry = ai.and(&bi).xor(&p.and(&carry));
        }
        out.push((format!("s{}", self.width), carry));
        out
    }

    /// Builds the CLA netlist with the given carry-group size (uniform
    /// across positions and levels).
    ///
    /// # Panics
    ///
    /// Panics if `group == 0`.
    pub fn netlist(&self, group: usize) -> Netlist {
        assert!(group > 0, "group size must be positive");
        let mut nl = Netlist::new();
        let a: Vec<NodeId> = self.a.iter().map(|&v| nl.input(v)).collect();
        let b: Vec<NodeId> = self.b.iter().map(|&v| nl.input(v)).collect();
        let w = self.width;
        let g: Vec<NodeId> = (0..w).map(|i| nl.and(a[i], b[i])).collect();
        let p: Vec<NodeId> = (0..w).map(|i| nl.xor(a[i], b[i])).collect();
        // Recursively: compute carries into every position.
        let zero = nl.constant(false);
        let carries = self.carry_network(
            &mut nl,
            &GpLevel {
                g: g.clone(),
                p: p.clone(),
            },
            zero,
            group,
        );
        for i in 0..w {
            let s = nl.xor(p[i], carries[i]);
            nl.set_output(&format!("s{i}"), s);
        }
        nl.set_output(&format!("s{w}"), carries[w]);
        nl
    }

    /// Computes the carry into every position of the level (plus the
    /// carry out as the last element), using lookahead within groups of
    /// `group` and recursing on group-level `(G, P)`.
    fn carry_network(
        &self,
        nl: &mut Netlist,
        level: &GpLevel,
        cin: NodeId,
        group: usize,
    ) -> Vec<NodeId> {
        let n = level.g.len();
        if n == 0 {
            return vec![cin];
        }
        if group == 1 {
            // Degenerate case: plain ripple (no recursion possible since
            // groups would not shrink the level).
            let mut carries = Vec::with_capacity(n + 1);
            let mut c = cin;
            for j in 0..n {
                carries.push(c);
                let t = nl.and(level.p[j], c);
                c = nl.or(level.g[j], t);
            }
            carries.push(c);
            return carries;
        }
        // Group-level (G, P).
        let mut group_g = Vec::new();
        let mut group_p = Vec::new();
        let mut bounds = Vec::new(); // start index of each group
        let mut i = 0;
        while i < n {
            let end = (i + group).min(n);
            bounds.push(i);
            // G = g_{end-1} ∨ p_{end-1}·g_{end-2} ∨ … ; P = Π p.
            let mut gg = level.g[i];
            let mut pp = level.p[i];
            for j in i + 1..end {
                let t = nl.and(level.p[j], gg);
                gg = nl.or(level.g[j], t);
                pp = nl.and(pp, level.p[j]);
            }
            group_g.push(gg);
            group_p.push(pp);
            i = end;
        }
        // Carries into each group: recurse (or ripple if single level).
        let group_cins = if group_g.len() == 1 {
            vec![cin]
        } else {
            let inner = GpLevel {
                g: group_g.clone(),
                p: group_p.clone(),
            };
            let mut c = self.carry_network(nl, &inner, cin, group);
            c.pop(); // drop the carry-out duplicate; recomputed below
            c
        };
        // Within each group: two-level lookahead from the group's cin.
        let mut carries = Vec::with_capacity(n + 1);
        for (gi, &start) in bounds.iter().enumerate() {
            let end = (start + group).min(n);
            let mut c = group_cins[gi];
            for j in start..end {
                carries.push(c);
                let t = nl.and(level.p[j], c);
                c = nl.or(level.g[j], t);
            }
            if gi + 1 == bounds.len() {
                carries.push(c); // overall carry out
            }
        }
        carries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::{random_operands, run_ints};
    use pd_netlist::sim::check_equiv_anf;

    #[test]
    fn cla_is_correct_for_all_group_sizes() {
        for group in [1usize, 2, 3, 4, 8] {
            let cla = Cla::new(12);
            let nl = cla.netlist(group);
            let av = random_operands(40 + group as u64, 12, 64);
            let bv = random_operands(50 + group as u64, 12, 64);
            let got = run_ints(&nl, &[&cla.a, &cla.b], &[av.clone(), bv.clone()], "s", 13);
            for lane in 0..64 {
                assert_eq!(got[lane], av[lane] + bv[lane], "group={group} lane={lane}");
            }
        }
    }

    #[test]
    fn cla_matches_spec_exhaustively_at_8() {
        let cla = Cla::new(8);
        let spec = cla.spec();
        for group in [2usize, 4] {
            assert_eq!(check_equiv_anf(&cla.netlist(group), &spec, 64, 3), None);
        }
    }

    #[test]
    fn larger_groups_are_shallower() {
        let cla = Cla::new(16);
        let depth = |nl: &Netlist| {
            let lv = nl.levels();
            nl.outputs()
                .iter()
                .map(|&(_, n)| lv[n.index()])
                .max()
                .unwrap()
        };
        let d1 = depth(&cla.netlist(1));
        let d4 = depth(&cla.netlist(4));
        assert!(d4 < d1, "lookahead must beat ripple: {d4} vs {d1}");
    }
}
