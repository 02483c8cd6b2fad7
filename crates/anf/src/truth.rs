//! Bit-packed truth tables over an explicit variable ordering.
//!
//! Truth tables are the workhorse of identity discovery (paper §5.5): basis
//! expressions live over at most `k` group variables, so their behaviour is
//! enumerated exhaustively over `2^k` assignments (optionally *restricted*
//! to assignments satisfying previously discovered identities) and relations
//! between them are found by GF(2) elimination on the resulting bit vectors.

use crate::expr::Anf;
use crate::monomial::Monomial;
use crate::var::Var;

/// A truth table of a function over `n` ordered variables.
///
/// Assignment index `i` assigns variable `vars[j]` the bit `i >> j & 1`
/// (variable 0 toggles fastest).
///
/// # Examples
///
/// ```
/// use pd_anf::{Anf, TruthTable, VarPool};
/// let mut pool = VarPool::new();
/// let x = Anf::parse("a ^ b", &mut pool).unwrap();
/// let vars = [pool.find("a").unwrap(), pool.find("b").unwrap()];
/// let tt = TruthTable::from_anf(&x, &vars);
/// assert_eq!(tt.get(0), false); // a=0,b=0
/// assert_eq!(tt.get(1), true);  // a=1,b=0
/// assert_eq!(tt.to_anf(&vars), x);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TruthTable {
    n_vars: usize,
    /// `ceil(2^n / 64)` words; assignment `i` is bit `i % 64` of word `i/64`.
    bits: Vec<u64>,
}

impl TruthTable {
    /// Number of 64-bit words needed for `n` variables.
    fn words(n_vars: usize) -> usize {
        if n_vars >= 6 {
            1 << (n_vars - 6)
        } else {
            1
        }
    }

    /// Mask selecting the valid bits of the last word.
    fn tail_mask(n_vars: usize) -> u64 {
        if n_vars >= 6 {
            u64::MAX
        } else {
            (1u64 << (1 << n_vars)) - 1
        }
    }

    /// The constant-false table over `n_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > 24` (tables become impractically large).
    pub fn zero(n_vars: usize) -> Self {
        assert!(
            n_vars <= 24,
            "truth table over {n_vars} variables is too large"
        );
        TruthTable {
            n_vars,
            bits: vec![0; Self::words(n_vars)],
        }
    }

    /// The constant-true table over `n_vars` variables.
    pub fn ones(n_vars: usize) -> Self {
        let mut t = Self::zero(n_vars);
        for w in &mut t.bits {
            *w = u64::MAX;
        }
        let last = t.bits.len() - 1;
        t.bits[last] &= Self::tail_mask(n_vars);
        t
    }

    /// Table of the projection onto variable `j` (the `j`-th input).
    pub fn projection(n_vars: usize, j: usize) -> Self {
        assert!(j < n_vars);
        let mut t = Self::zero(n_vars);
        if j < 6 {
            // Pattern like 0b…11001100 with runs of length 2^j.
            let mut pattern = 0u64;
            for i in 0..64 {
                if (i >> j) & 1 == 1 {
                    pattern |= 1u64 << i;
                }
            }
            for w in &mut t.bits {
                *w = pattern;
            }
        } else {
            for (wi, w) in t.bits.iter_mut().enumerate() {
                if (wi >> (j - 6)) & 1 == 1 {
                    *w = u64::MAX;
                }
            }
        }
        let last = t.bits.len() - 1;
        t.bits[last] &= Self::tail_mask(n_vars);
        t
    }

    /// Builds the table of `expr` with inputs ordered as `vars`.
    ///
    /// Runs in `O(|terms| · deg + 2ⁿ·n/64)` by setting one coefficient
    /// bit per ANF term and applying the word-level zeta transform
    /// ([`TruthTable::zeta_in_place`]) — instead of materialising one
    /// `2ⁿ`-bit cube per term. Tables of [`TruthTable::PAR_WORDS`] words
    /// or more run the transform's independent block updates on the
    /// `pd-par` worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `expr` mentions a variable not in `vars`.
    pub fn from_anf(expr: &Anf, vars: &[Var]) -> Self {
        let mut t = Self::zero(vars.len());
        let by_var: std::collections::HashMap<Var, usize> =
            vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for term in expr.terms() {
            let mut idx = 0usize;
            for v in term.vars() {
                let pos = by_var
                    .get(&v)
                    .unwrap_or_else(|| panic!("variable {v} not in truth-table ordering"));
                idx |= 1 << pos;
            }
            t.bits[idx >> 6] ^= 1 << (idx & 63);
        }
        t.zeta_in_place();
        t
    }

    /// Word count at which the zeta transform goes parallel (2¹⁴ words =
    /// a 20-variable table; below that thread start-up dominates).
    pub const PAR_WORDS: usize = 1 << 14;

    /// In-place XOR zeta transform over the subset lattice:
    /// `f[S ∪ {j}] ^= f[S]` for every variable `j`.
    ///
    /// Maps ANF coefficients to truth-table values (the value at
    /// assignment `S` is the XOR of the coefficients of all `T ⊆ S`) and,
    /// being an involution over GF(2), equally maps values back to
    /// coefficients — [`TruthTable::from_anf`] and [`TruthTable::to_anf`]
    /// are the same butterfly. Variables 0–5 are in-word mask shifts;
    /// higher variables XOR whole word blocks, which is what
    /// parallelises.
    fn zeta_in_place(&mut self) {
        const IN_WORD_MASKS: [u64; 6] = [
            0x5555_5555_5555_5555,
            0x3333_3333_3333_3333,
            0x0f0f_0f0f_0f0f_0f0f,
            0x00ff_00ff_00ff_00ff,
            0x0000_ffff_0000_ffff,
            0x0000_0000_ffff_ffff,
        ];
        let n = self.n_vars;
        let parallel = self.bits.len() >= Self::PAR_WORDS && pd_par::max_threads() > 1;
        for (j, &mask) in IN_WORD_MASKS.iter().enumerate().take(n.min(6)) {
            let shift = 1u32 << j;
            let apply = |words: &mut [u64]| {
                for w in words {
                    *w ^= (*w & mask) << shift;
                }
            };
            if parallel {
                pd_par::par_apply_mut(&mut self.bits, 1, |_, chunk| apply(chunk));
            } else {
                apply(&mut self.bits);
            }
        }
        for j in 6..n {
            let d = 1usize << (j - 6);
            let apply = |words: &mut [u64]| {
                for block in words.chunks_mut(2 * d) {
                    let (lo, hi) = block.split_at_mut(d);
                    for (h, l) in hi.iter_mut().zip(lo) {
                        *h ^= *l;
                    }
                }
            };
            if parallel {
                pd_par::par_apply_mut(&mut self.bits, 2 * d, |_, chunk| apply(chunk));
            } else {
                apply(&mut self.bits);
            }
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of assignments (`2^n`).
    pub fn len(&self) -> usize {
        1usize << self.n_vars
    }

    /// Returns `true` if the function is constant 0 — never true.
    pub fn is_zero(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Returns `true` if there are no assignments — impossible, so `false`;
    /// present for API completeness with `len`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Value at assignment index `i`.
    pub fn get(&self, i: usize) -> bool {
        self.bits[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Sets the value at assignment index `i`.
    pub fn set(&mut self, i: usize, value: bool) {
        if value {
            self.bits[i >> 6] |= 1 << (i & 63);
        } else {
            self.bits[i >> 6] &= !(1 << (i & 63));
        }
    }

    /// In-place XOR with another table of the same arity.
    pub fn xor_assign(&mut self, other: &TruthTable) {
        assert_eq!(self.n_vars, other.n_vars);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a ^= b;
        }
    }

    /// In-place AND with another table of the same arity.
    pub fn and_assign(&mut self, other: &TruthTable) {
        assert_eq!(self.n_vars, other.n_vars);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// XOR, returning a new table.
    pub fn xor(&self, other: &TruthTable) -> TruthTable {
        let mut t = self.clone();
        t.xor_assign(other);
        t
    }

    /// AND, returning a new table.
    pub fn and(&self, other: &TruthTable) -> TruthTable {
        let mut t = self.clone();
        t.and_assign(other);
        t
    }

    /// Complement.
    pub fn not(&self) -> TruthTable {
        let mut t = self.clone();
        for w in &mut t.bits {
            *w = !*w;
        }
        let last = t.bits.len() - 1;
        t.bits[last] &= Self::tail_mask(self.n_vars);
        t
    }

    /// Number of satisfying assignments.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Converts back to canonical ANF via the Möbius transform.
    ///
    /// Over GF(2) the Möbius transform *is* the zeta transform
    /// (an involution), so this runs the same word-level butterfly as
    /// [`TruthTable::from_anf`] — `O(2ⁿ·n/64)` words instead of a
    /// bit-at-a-time `Vec<bool>` pass — then reads the surviving
    /// coefficient bits off as monomials.
    ///
    /// `vars` supplies the variable for each input position and must have
    /// length [`TruthTable::n_vars`].
    pub fn to_anf(&self, vars: &[Var]) -> Anf {
        assert_eq!(vars.len(), self.n_vars);
        let mut coeffs = self.clone();
        coeffs.zeta_in_place();
        let mut terms = Vec::new();
        for (wi, &word) in coeffs.bits.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let s = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                terms.push(Monomial::from_vars(
                    (0..self.n_vars)
                        .filter(|j| s >> j & 1 == 1)
                        .map(|j| vars[j]),
                ));
            }
        }
        Anf::from_terms(terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarPool;

    #[test]
    fn projection_matches_definition() {
        for n in 1..=8usize {
            for j in 0..n {
                let t = TruthTable::projection(n, j);
                for i in 0..1usize << n {
                    assert_eq!(t.get(i), i >> j & 1 == 1, "n={n} j={j} i={i}");
                }
            }
        }
    }

    #[test]
    fn anf_round_trip() {
        let mut pool = VarPool::new();
        let exprs = [
            "0",
            "1",
            "a",
            "a ^ b",
            "a*b ^ c",
            "a*b*c ^ a ^ b ^ 1",
            "(a^b)*(c^d) ^ a*d",
        ];
        for src in exprs {
            let x = Anf::parse(src, &mut pool).unwrap();
            let vars: Vec<Var> = ["a", "b", "c", "d"]
                .iter()
                .map(|n| pool.var_or_input(n))
                .collect();
            let tt = TruthTable::from_anf(&x, &vars);
            assert_eq!(tt.to_anf(&vars), x, "round-trip of {src}");
        }
    }

    #[test]
    fn eval_agreement() {
        let mut pool = VarPool::new();
        let x = Anf::parse("a*b ^ b*c ^ c*a", &mut pool).unwrap(); // maj3
        let vars: Vec<Var> = ["a", "b", "c"]
            .iter()
            .map(|n| pool.find(n).unwrap())
            .collect();
        let tt = TruthTable::from_anf(&x, &vars);
        for i in 0..8usize {
            let direct = x.eval(|v| {
                let j = vars.iter().position(|&q| q == v).unwrap();
                i >> j & 1 == 1
            });
            assert_eq!(tt.get(i), direct);
        }
        assert_eq!(tt.count_ones(), 4);
    }

    #[test]
    fn large_var_count_uses_multiple_words() {
        let t = TruthTable::projection(8, 7);
        assert_eq!(t.len(), 256);
        assert_eq!(t.count_ones(), 128);
        let o = TruthTable::ones(8);
        assert_eq!(o.count_ones(), 256);
        assert_eq!(o.not().count_ones(), 0);
    }

    #[test]
    fn tail_mask_keeps_small_tables_clean() {
        let t = TruthTable::ones(2);
        assert_eq!(t.count_ones(), 4);
        let n = t.not();
        assert_eq!(n.count_ones(), 0);
    }
}
