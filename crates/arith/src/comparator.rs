//! The n-bit comparator `A > B` (Table 1 row 6).
//!
//! The "progressive comparator" description compares from the most
//! significant bit down: if the bits differ the answer is known, otherwise
//! the next bit decides (a mux chain). The paper's §6 notes Progressive
//! Decomposition instead recognises the function as the sign of a
//! subtraction computable in carry-lookahead fashion; the manual
//! "carry out of subtracter" baseline builds that borrow chain directly.
//!
//! The Reed–Muller form of the comparator grows roughly as `3^n` (each
//! stage multiplies by the three-term equality `1⊕a⊕b`), so wide
//! comparator specs are memory-hungry — see [`Comparator::spec_capped`].

use crate::words::word;
use pd_anf::{Anf, Var, VarPool};
use pd_netlist::Netlist;

/// Comparator benchmark: output `gt = 1` iff `A > B` (unsigned).
#[derive(Clone, Debug)]
pub struct Comparator {
    /// Operand width.
    pub width: usize,
    /// Variable pool.
    pub pool: VarPool,
    /// Operand A bits, LSB first.
    pub a: Vec<Var>,
    /// Operand B bits, LSB first.
    pub b: Vec<Var>,
}

impl Comparator {
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
        Comparator { width, pool, a, b }
    }

    /// Reed–Muller specification (exact, exponential in width).
    pub fn spec(&self) -> Vec<(String, Anf)> {
        vec![("gt".to_owned(), self.gt_anf(self.width))]
    }

    /// Like [`Comparator::spec`] but aborts (returning `None`) if the
    /// intermediate polynomial exceeds `term_cap` XOR terms.
    pub fn spec_capped(&self, term_cap: usize) -> Option<Vec<(String, Anf)>> {
        let mut gt = Anf::zero();
        for i in 0..self.width {
            let ai = Anf::var(self.a[i]);
            let bi = Anf::var(self.b[i]);
            let win = ai.and(&bi.not());
            let eq = ai.xor(&bi).not();
            gt = win.xor(&eq.and(&gt));
            if gt.term_count() > term_cap {
                return None;
            }
        }
        Some(vec![("gt".to_owned(), gt)])
    }

    fn gt_anf(&self, upto: usize) -> Anf {
        let mut gt = Anf::zero();
        for i in 0..upto {
            let ai = Anf::var(self.a[i]);
            let bi = Anf::var(self.b[i]);
            let win = ai.and(&bi.not());
            let eq = ai.xor(&bi).not();
            gt = win.xor(&eq.and(&gt));
        }
        gt
    }

    /// The "progressive comparator" description: an MSB-priority mux
    /// chain (built LSB→MSB so the most significant difference wins).
    pub fn progressive_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let mut acc = nl.constant(false);
        for i in 0..self.width {
            let ai = nl.input(self.a[i]);
            let bi = nl.input(self.b[i]);
            let diff = nl.xor(ai, bi);
            let nb = nl.not(bi);
            let win = nl.and(ai, nb);
            acc = nl.mux(diff, acc, win);
        }
        nl.set_output("gt", acc);
        nl
    }

    /// The manual baseline: carry-out of `A + ¬B` (a subtracter). The
    /// carry out equals 1 iff `A > B`.
    pub fn subtracter_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let mut carry = nl.constant(false);
        for i in 0..self.width {
            let ai = nl.input(self.a[i]);
            let bi = nl.input(self.b[i]);
            let nb = nl.not(bi);
            carry = nl.maj(ai, nb, carry);
        }
        nl.set_output("gt", carry);
        nl
    }

    /// Reference model.
    pub fn reference(&self, a: u64, b: u64) -> bool {
        a > b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::{random_operands, stimulus_from_ints};
    use pd_netlist::sim::{check_equiv_anf, simulate64};

    fn check_netlist(nl: &Netlist, cmp: &Comparator, seed: u64) {
        let av = random_operands(seed, cmp.width, 64);
        let bv = random_operands(seed + 7, cmp.width, 64);
        let stim = stimulus_from_ints(&[&cmp.a, &cmp.b], &[av.clone(), bv.clone()]);
        let values = simulate64(nl, &stim);
        let out = nl.outputs()[0].1;
        for lane in 0..64 {
            let got = values[out.index()] >> lane & 1 == 1;
            assert_eq!(got, av[lane] > bv[lane], "lane {lane}");
        }
    }

    #[test]
    fn progressive_is_correct() {
        let cmp = Comparator::new(15);
        check_netlist(&cmp.progressive_netlist(), &cmp, 3);
    }

    #[test]
    fn subtracter_is_correct() {
        let cmp = Comparator::new(15);
        check_netlist(&cmp.subtracter_netlist(), &cmp, 5);
    }

    #[test]
    fn spec_matches_netlists_exhaustively_at_6() {
        let cmp = Comparator::new(6);
        let spec = cmp.spec();
        assert_eq!(
            check_equiv_anf(&cmp.progressive_netlist(), &spec, 64, 3),
            None
        );
        assert_eq!(
            check_equiv_anf(&cmp.subtracter_netlist(), &spec, 64, 5),
            None
        );
    }

    #[test]
    fn spec_growth_is_cubic_per_bit() {
        let c4 = Comparator::new(4).spec()[0].1.term_count();
        let c6 = Comparator::new(6).spec()[0].1.term_count();
        assert!(c6 > 8 * c4, "roughly ×3 per bit: {c4} -> {c6}");
    }

    #[test]
    fn spec_capped_aborts() {
        let cmp = Comparator::new(12);
        assert!(cmp.spec_capped(100).is_none());
        assert!(cmp.spec_capped(10_000_000).is_some());
    }
}
