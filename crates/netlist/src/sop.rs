//! Sum-of-products descriptions.
//!
//! The paper's "Unoptimised (SOP)" baselines are circuits *described* in
//! two-level sum-of-products form (Fig. 1) and handed to the synthesis flow
//! as-is. [`Sop`] captures such a description and synthesises it literally:
//! an AND tree per cube and a balanced OR tree across cubes, with only the
//! local sharing a conventional flow would find (structural hashing).

use crate::gate::NodeId;
use crate::netlist::Netlist;
use pd_anf::{Anf, Var};

/// A product term with literal polarities: `(v, true)` is `v`, `(v, false)`
/// is `¬v`. The empty cube is the constant 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cube(pub Vec<(Var, bool)>);

impl Cube {
    /// The cube's ANF: the product of `v` or `1⊕v` factors.
    pub fn to_anf(&self) -> Anf {
        let mut acc = Anf::one();
        for &(v, pol) in &self.0 {
            let lit = if pol { Anf::var(v) } else { Anf::var(v).not() };
            acc = acc.and(&lit);
        }
        acc
    }
}

/// A sum (OR) of cubes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Sop(pub Vec<Cube>);

impl Sop {
    /// An always-false SOP.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Total number of literals (the conventional SOP size measure).
    pub fn literal_count(&self) -> usize {
        self.0.iter().map(|c| c.0.len()).sum()
    }

    /// Builds the OR-of-ANDs netlist for this description.
    ///
    /// AND/OR trees are balanced and arrival-aware; inverters are shared
    /// via structural hashing. No restructuring beyond that is performed —
    /// this is deliberately the "direct synthesis" baseline.
    pub fn synthesize(&self, nl: &mut Netlist) -> NodeId {
        let mut cube_nodes = Vec::with_capacity(self.0.len());
        for cube in &self.0 {
            let mut lits = Vec::with_capacity(cube.0.len());
            for &(v, pol) in &cube.0 {
                let n = nl.input(v);
                lits.push(if pol { n } else { nl.not(n) });
            }
            cube_nodes.push(nl.and_many(&lits));
        }
        nl.or_many(&cube_nodes)
    }

    /// Exact ANF of the OR of all cubes.
    ///
    /// ORs are expanded as `a ⊕ b ⊕ ab`, which can grow exponentially for
    /// heavily overlapping cubes; `term_cap` aborts the conversion when an
    /// intermediate result exceeds the cap.
    pub fn to_anf(&self, term_cap: usize) -> Option<Anf> {
        let mut acc = Anf::zero();
        for cube in &self.0 {
            acc = acc.or(&cube.to_anf());
            if acc.term_count() > term_cap {
                return None;
            }
        }
        Some(acc)
    }

    /// Exact ANF assuming the cubes are pairwise disjoint (no two cubes can
    /// be true simultaneously), in which case OR coincides with XOR. This is
    /// the situation in the LZD/LOD descriptions of the paper's Fig. 1.
    pub fn to_anf_disjoint(&self) -> Anf {
        Anf::xor_all(self.0.iter().map(Cube::to_anf).collect::<Vec<_>>().iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::check_equiv_anf;
    use pd_anf::VarPool;

    fn vars(pool: &mut VarPool, names: &[&str]) -> Vec<Var> {
        names.iter().map(|n| pool.var_or_input(n)).collect()
    }

    #[test]
    fn cube_anf_expands_complements() {
        let mut pool = VarPool::new();
        let v = vars(&mut pool, &["a", "b"]);
        let cube = Cube(vec![(v[0], true), (v[1], false)]);
        // a·(1⊕b) = a ⊕ ab
        assert_eq!(cube.to_anf(), Anf::parse("a ^ a*b", &mut pool).unwrap());
    }

    #[test]
    fn synthesis_matches_anf() {
        let mut pool = VarPool::new();
        let v = vars(&mut pool, &["a", "b", "c"]);
        let sop = Sop(vec![
            Cube(vec![(v[0], true), (v[1], true)]),
            Cube(vec![(v[1], false), (v[2], true)]),
            Cube(vec![(v[0], false)]),
        ]);
        let spec = sop.to_anf(1 << 16).unwrap();
        let mut nl = Netlist::new();
        let y = sop.synthesize(&mut nl);
        nl.set_output("y", y);
        assert_eq!(check_equiv_anf(&nl, &[("y".to_owned(), spec)], 8, 11), None);
    }

    #[test]
    fn disjoint_matches_general_when_disjoint() {
        let mut pool = VarPool::new();
        let v = vars(&mut pool, &["a", "b"]);
        // a·b and ¬a are disjoint.
        let sop = Sop(vec![
            Cube(vec![(v[0], true), (v[1], true)]),
            Cube(vec![(v[0], false)]),
        ]);
        assert_eq!(sop.to_anf(64).unwrap(), sop.to_anf_disjoint());
    }

    #[test]
    fn to_anf_caps() {
        let mut pool = VarPool::new();
        // Overlapping cubes grow; a tiny cap must trigger.
        let v = vars(&mut pool, &["a", "b", "c", "d", "e", "f", "g", "h"]);
        let cubes: Vec<Cube> = v.iter().map(|&x| Cube(vec![(x, true)])).collect();
        let sop = Sop(cubes);
        assert!(sop.to_anf(4).is_none());
        assert!(sop.to_anf(1 << 10).is_some());
    }

    #[test]
    fn empty_sop_is_zero() {
        let sop = Sop::zero();
        let mut nl = Netlist::new();
        let y = sop.synthesize(&mut nl);
        nl.set_output("y", y);
        assert!(matches!(nl.gate(y), crate::gate::Gate::Const(false)));
        assert_eq!(sop.to_anf(16), Some(Anf::zero()));
    }
}
