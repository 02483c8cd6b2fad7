//! n-bit parity — the archetypal XOR-dominated circuit.
//!
//! Parity is where the paper's §2 argument is sharpest: the Reed–Muller
//! form is `a₀ ⊕ a₁ ⊕ … ⊕ aₙ₋₁` (n literals), while the two-level SOP
//! description needs all `2ⁿ⁻¹` odd-weight minterms — and algebraic
//! division finds *nothing* to extract from disjoint minterms, so
//! kernel-based multi-level synthesis is stuck with the exponential
//! form. Progressive Decomposition, working on the ring form, reduces
//! each k-group to a single leader.

use crate::words::word;
use pd_anf::{Anf, Monomial, Var, VarPool};
use pd_netlist::{Cube, Netlist, Sop};

/// Parity benchmark over `n` single-bit inputs.
#[derive(Clone, Debug)]
pub struct Parity {
    /// Number of inputs.
    pub n: usize,
    /// Variable pool.
    pub pool: VarPool,
    /// The input bits.
    pub bits: Vec<Var>,
}

impl Parity {
    /// Creates the benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "parity needs at least one input");
        let mut pool = VarPool::new();
        let bits = word(&mut pool, "a", 0, n);
        Parity { n, pool, bits }
    }

    /// The Reed–Muller form: the XOR of all input bits (n terms).
    pub fn spec(&self) -> Vec<(String, Anf)> {
        let terms: Vec<Monomial> = self.bits.iter().map(|&v| Monomial::var(v)).collect();
        vec![("p".to_owned(), Anf::from_terms(terms))]
    }

    /// Number of cubes the minterm SOP description needs (`2ⁿ⁻¹`).
    pub fn sop_cube_count(&self) -> usize {
        1usize << (self.n - 1)
    }

    /// The two-level SOP description: one full cube per odd-weight
    /// assignment. Exponential in `n`; keep `n` small.
    ///
    /// # Panics
    ///
    /// Panics for `n > 24` (the description would not fit in memory).
    pub fn sop(&self) -> Sop {
        assert!(
            self.n <= 24,
            "minterm SOP of parity-{} is infeasible",
            self.n
        );
        let cubes = (0..1u64 << self.n)
            .filter(|m| m.count_ones() % 2 == 1)
            .map(|m| {
                Cube(
                    self.bits
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (v, m >> i & 1 == 1))
                        .collect(),
                )
            })
            .collect();
        Sop(cubes)
    }

    /// The flat minterm-SOP baseline netlist.
    pub fn sop_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let node = self.sop().synthesize(&mut nl);
        nl.set_output("p", node);
        nl
    }

    /// A linear XOR chain (the naive serial description, depth n−1).
    pub fn chain_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let mut acc = nl.constant(false);
        for &b in &self.bits {
            let nb = nl.input(b);
            acc = nl.xor(acc, nb);
        }
        nl.set_output("p", acc);
        nl
    }

    /// A balanced XOR tree (the manual design, depth ⌈log₂ n⌉).
    pub fn tree_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let nodes: Vec<_> = self.bits.iter().map(|&b| nl.input(b)).collect();
        let root = nl.xor_many(&nodes);
        nl.set_output("p", root);
        nl
    }

    /// Reference model.
    pub fn reference(&self, value: u64) -> bool {
        (value & ((1u64 << self.n) - 1)).count_ones() % 2 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_netlist::sim::check_equiv_anf;

    #[test]
    fn spec_matches_reference() {
        let p = Parity::new(6);
        let (_, expr) = &p.spec()[0];
        for value in 0..64u64 {
            let got = expr.eval(|v| {
                let idx = p.bits.iter().position(|&q| q == v).unwrap();
                value >> idx & 1 == 1
            });
            assert_eq!(got, p.reference(value), "value {value:#08b}");
        }
    }

    #[test]
    fn rm_form_is_linear_but_sop_is_exponential() {
        let p = Parity::new(12);
        assert_eq!(p.spec()[0].1.term_count(), 12);
        assert_eq!(p.spec()[0].1.literal_count(), 12);
        assert_eq!(p.sop_cube_count(), 2048);
        assert_eq!(p.sop().0.len(), 2048);
        // Every SOP cube is a full minterm: n literals each.
        assert_eq!(p.sop().literal_count(), 2048 * 12);
    }

    #[test]
    fn all_netlists_match_spec() {
        let p = Parity::new(8);
        for nl in [p.sop_netlist(), p.chain_netlist(), p.tree_netlist()] {
            assert_eq!(check_equiv_anf(&nl, &p.spec(), 64, 5), None);
        }
    }

    #[test]
    fn tree_is_logarithmic_chain_is_linear() {
        let p = Parity::new(16);
        let chain = p.chain_netlist();
        let tree = p.tree_netlist();
        let depth = |nl: &Netlist| {
            let lv = nl.levels();
            nl.outputs()
                .iter()
                .map(|&(_, n)| lv[n.index()])
                .max()
                .unwrap()
        };
        assert_eq!(depth(&tree), 4);
        assert_eq!(depth(&chain), 15);
    }

    #[test]
    fn single_input_parity_is_identity() {
        let p = Parity::new(1);
        assert_eq!(p.spec()[0].1, Anf::var(p.bits[0]));
        let nl = p.tree_netlist();
        assert_eq!(check_equiv_anf(&nl, &p.spec(), 8, 1), None);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn oversized_sop_refuses() {
        let _ = Parity::new(30).sop();
    }
}
