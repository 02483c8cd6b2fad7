//! GF(2) linear algebra with combination tracking.
//!
//! The paper exploits linearity of the Boolean ring in two places:
//! minimising a basis whose first or second pair components are linearly
//! dependent (§5.3), and discovering identities as linear dependencies
//! among truth tables of products of basis elements (§5.5). Both reduce to
//! incremental Gaussian elimination over GF(2) where, for every dependent
//! vector, the *combination* of previously inserted vectors that produces
//! it must be recovered.

use crate::expr::Anf;
use crate::monomial::Monomial;
use std::collections::HashMap;

/// Outcome of inserting a vector into a [`Gf2Matrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Insert {
    /// The vector was independent of all previously inserted vectors and
    /// has been added to the span.
    Independent,
    /// The vector equals the XOR of the given previously inserted vectors
    /// (indices in insertion order). It was *not* added.
    Dependent {
        /// Insertion indices whose XOR equals the inserted vector.
        combination: Vec<usize>,
    },
}

/// An incremental GF(2) row space (row-echelon basis) over dense bit
/// vectors, tracking for every pivot row the combination of *inserted*
/// vectors it was built from.
///
/// Pivot rows are only ever built from independent insertions, so a
/// row's combination is kept over those alone — at most one bit per
/// column — and mapped back to insertion indices when a dependency is
/// reported. A dependent vector's combination over the independent ones
/// is unique, so the reported indices do not depend on this encoding.
///
/// # Examples
///
/// ```
/// use pd_anf::gf2::{Gf2Matrix, Insert};
/// let mut m = Gf2Matrix::new(8);
/// assert_eq!(m.insert_bits(&[0b0011]), Insert::Independent);
/// assert_eq!(m.insert_bits(&[0b0101]), Insert::Independent);
/// // 0b0110 = row0 ^ row1:
/// assert_eq!(
///     m.insert_bits(&[0b0110]),
///     Insert::Dependent { combination: vec![0, 1] }
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gf2Matrix {
    /// Words per vector, and per combination (rank ≤ column count).
    n_words: usize,
    /// Pivot bit of each row, in insertion order.
    pivots: Vec<usize>,
    /// Row bits, `n_words` per row. A dependent insertion leaves its
    /// reduced vector in one slot past the last row; the next insertion
    /// overwrites it.
    bits: Vec<u64>,
    /// Row combinations over independent insertions (bit `r` is the
    /// insertion that created row `r`), `n_words` per row, with the same
    /// trailing slot as `bits`.
    combos: Vec<u64>,
    /// Insertion index of each row's own vector.
    independent: Vec<usize>,
    n_inserted: usize,
}

impl Gf2Matrix {
    /// Creates a matrix for vectors of `n_cols` bits.
    pub fn new(n_cols: usize) -> Self {
        Gf2Matrix {
            n_words: n_cols.div_ceil(64).max(1),
            ..Self::default()
        }
    }

    /// Number of linearly independent vectors inserted so far.
    pub fn rank(&self) -> usize {
        self.pivots.len()
    }

    /// Number of vectors inserted so far (independent or not).
    pub fn n_inserted(&self) -> usize {
        self.n_inserted
    }

    /// Inserts a bit vector (low word first; missing words are zero).
    ///
    /// The vector is reduced in place in the row storage's next slot, so
    /// an insertion allocates nothing once the storage has grown.
    pub fn insert_bits(&mut self, bits: &[u64]) -> Insert {
        let (n, r) = (self.n_words, self.pivots.len());
        self.bits.truncate(r * n);
        self.bits.resize((r + 1) * n, 0);
        let len = bits.len().min(n);
        self.bits[r * n..r * n + len].copy_from_slice(&bits[..len]);
        self.combos.truncate(r * n);
        self.combos.resize((r + 1) * n, 0);
        let (rows, vec) = self.bits.split_at_mut(r * n);
        let (row_combos, combo) = self.combos.split_at_mut(r * n);
        reduce(&self.pivots, rows, row_combos, vec, combo);
        let idx = self.n_inserted;
        self.n_inserted += 1;
        match first_set_bit(vec) {
            None => Insert::Dependent {
                combination: combination(&self.independent, combo),
            },
            Some(pivot) => {
                combo[r / 64] |= 1 << (r % 64);
                self.pivots.push(pivot);
                self.independent.push(idx);
                Insert::Independent
            }
        }
    }

    /// Tests membership of a bit vector in the current span without
    /// modifying the matrix.
    pub fn contains_bits(&self, bits: &[u64]) -> bool {
        self.express_bits(bits).is_some()
    }

    /// Expresses a bit vector as a combination of inserted vectors, if it
    /// lies in the span. Does not modify the matrix.
    pub fn express_bits(&self, bits: &[u64]) -> Option<Vec<usize>> {
        let n = self.n_words;
        let rows = self.pivots.len() * n;
        let mut vec = vec![0u64; n];
        let len = bits.len().min(n);
        vec[..len].copy_from_slice(&bits[..len]);
        let mut combo = vec![0u64; n];
        reduce(
            &self.pivots,
            &self.bits[..rows],
            &self.combos[..rows],
            &mut vec,
            &mut combo,
        );
        match first_set_bit(&vec) {
            None => Some(combination(&self.independent, &combo)),
            Some(_) => None,
        }
    }
}

/// Reduces `vec` by every pivot row (`rows`/`row_combos` hold
/// `vec.len()` words per row), accumulating the rows used into `combo`.
fn reduce(pivots: &[usize], rows: &[u64], row_combos: &[u64], vec: &mut [u64], combo: &mut [u64]) {
    let n = vec.len();
    for (r, &pivot) in pivots.iter().enumerate() {
        if vec[pivot / 64] >> (pivot % 64) & 1 == 1 {
            // A row is zero below its pivot: start at the pivot's word.
            let from = pivot / 64;
            for (a, b) in vec[from..].iter_mut().zip(&rows[r * n + from..(r + 1) * n]) {
                *a ^= b;
            }
            for (a, b) in combo.iter_mut().zip(&row_combos[r * n..(r + 1) * n]) {
                *a ^= b;
            }
        }
    }
}

fn first_set_bit(vec: &[u64]) -> Option<usize> {
    vec.iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
}

/// Maps the rows set in `combo` to the insertion indices that created
/// them (`independent[r]` for row `r`), ascending.
fn combination(independent: &[usize], combo: &[u64]) -> Vec<usize> {
    let mut out = Vec::new();
    for (wi, &w) in combo.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            out.push(independent[wi * 64 + w.trailing_zeros() as usize]);
            w &= w - 1;
        }
    }
    out
}

fn combo_to_indices(combo: &[u64], exclude: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for (wi, &w) in combo.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let b = wi * 64 + w.trailing_zeros() as usize;
            w &= w - 1;
            if b != exclude {
                out.push(b);
            }
        }
    }
    out
}

/// Maps monomials to dense column indices so that [`Anf`]s can be used as
/// GF(2) vectors.
#[derive(Debug, Default)]
pub struct MonomialInterner {
    by_mono: HashMap<Monomial, usize>,
}

impl MonomialInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the column index for `m`, allocating one if new.
    pub fn intern(&mut self, m: &Monomial) -> usize {
        let next = self.by_mono.len();
        *self.by_mono.entry(m.clone()).or_insert(next)
    }

    /// Returns the column index for `m` if already allocated.
    pub fn get(&self, m: &Monomial) -> Option<usize> {
        self.by_mono.get(m).copied()
    }

    /// Number of distinct monomials seen.
    pub fn len(&self) -> usize {
        self.by_mono.len()
    }

    /// Returns `true` if no monomial has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_mono.is_empty()
    }

    /// Converts an expression to a dense bit vector of `width` columns.
    /// Columns for unseen monomials must have been interned beforehand.
    pub fn to_bits(&self, expr: &Anf, width: usize) -> Option<Vec<u64>> {
        let mut bits = vec![0u64; width.div_ceil(64).max(1)];
        for t in expr.terms() {
            let col = self.get(t)?;
            bits[col / 64] ^= 1 << (col % 64);
        }
        Some(bits)
    }
}

/// An incremental span of [`Anf`] expressions (monomials interned on the
/// fly), with combination tracking.
///
/// # Examples
///
/// ```
/// use pd_anf::{Anf, VarPool};
/// use pd_anf::gf2::{AnfSpan, Insert};
/// let mut pool = VarPool::new();
/// let mut span = AnfSpan::new();
/// span.insert(&Anf::parse("a ^ b", &mut pool).unwrap());
/// span.insert(&Anf::parse("b ^ c", &mut pool).unwrap());
/// let dep = span.insert(&Anf::parse("a ^ c", &mut pool).unwrap());
/// assert_eq!(dep, Insert::Dependent { combination: vec![0, 1] });
/// ```
#[derive(Debug, Default)]
pub struct AnfSpan {
    interner: MonomialInterner,
    /// Sparse pivot rows as (pivot column, expression, combination indices).
    rows: Vec<(usize, Anf, Vec<u64>)>,
    n_inserted: usize,
}

impl AnfSpan {
    /// Creates an empty span.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of independent expressions retained.
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    fn leading_col(&mut self, expr: &Anf) -> Option<usize> {
        expr.terms().map(|t| self.interner.intern(t)).max()
    }

    fn reduce(&mut self, expr: &Anf, combo: &mut Vec<u64>) -> Anf {
        let mut cur = expr.clone();
        loop {
            let Some(lead) = self.leading_col(&cur) else {
                return cur; // zero
            };
            // Use the row with the same leading column, if any.
            let row = self
                .rows
                .iter()
                .position(|(pivot, _, _)| *pivot == lead);
            match row {
                None => return cur,
                Some(i) => {
                    let (_, row_expr, row_combo) = &self.rows[i];
                    let row_expr = row_expr.clone();
                    let row_combo = row_combo.clone();
                    cur = cur.xor(&row_expr);
                    if combo.len() < row_combo.len() {
                        combo.resize(row_combo.len(), 0);
                    }
                    for (a, b) in combo.iter_mut().zip(&row_combo) {
                        *a ^= b;
                    }
                }
            }
        }
    }

    /// Inserts an expression, reporting dependence on previous insertions.
    pub fn insert(&mut self, expr: &Anf) -> Insert {
        let idx = self.n_inserted;
        self.n_inserted += 1;
        let mut combo = vec![0u64; (idx + 1).div_ceil(64)];
        combo[idx / 64] |= 1 << (idx % 64);
        let reduced = self.reduce(expr, &mut combo);
        if reduced.is_zero() {
            Insert::Dependent {
                combination: combo_to_indices(&combo, idx),
            }
        } else {
            let lead = self.leading_col(&reduced).expect("nonzero");
            self.rows.push((lead, reduced, combo));
            Insert::Independent
        }
    }

    /// Expresses `expr` over inserted expressions without inserting.
    pub fn express(&mut self, expr: &Anf) -> Option<Vec<usize>> {
        let mut combo = vec![0u64; self.n_inserted.div_ceil(64).max(1)];
        let reduced = self.reduce(expr, &mut combo);
        if reduced.is_zero() {
            Some(combo_to_indices(&combo, usize::MAX))
        } else {
            None
        }
    }
}

/// Finds, for a list of expressions, all linear dependencies in insertion
/// order: returns `(i, combination)` pairs meaning
/// `exprs[i] = XOR of exprs[combination]` with all combination indices `< i`.
pub fn linear_dependencies(exprs: &[Anf]) -> Vec<(usize, Vec<usize>)> {
    linear_dependencies_of(exprs)
}

/// [`linear_dependencies`] over borrowed expressions — callers holding
/// expressions inside larger structures (e.g. the decomposer's pair list)
/// run one elimination pass without cloning a `Vec<Anf>` first.
///
/// Every combination references only *independent* insertion indices:
/// pivot rows are created exclusively from independent inserts, so the
/// reported dependencies remain simultaneously valid — removing all
/// dependent indices and applying every combination in one batch is
/// sound (this is what `pd_core::lindep` relies on).
pub fn linear_dependencies_of<'a>(
    exprs: impl IntoIterator<Item = &'a Anf>,
) -> Vec<(usize, Vec<usize>)> {
    let mut span = AnfSpan::new();
    let mut out = Vec::new();
    for (i, e) in exprs.into_iter().enumerate() {
        if let Insert::Dependent { combination } = span.insert(e) {
            out.push((i, combination));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarPool;

    #[test]
    fn bit_matrix_dependencies() {
        let mut m = Gf2Matrix::new(4);
        assert_eq!(m.insert_bits(&[0b0001]), Insert::Independent);
        assert_eq!(m.insert_bits(&[0b0010]), Insert::Independent);
        assert_eq!(
            m.insert_bits(&[0b0011]),
            Insert::Dependent {
                combination: vec![0, 1]
            }
        );
        assert_eq!(m.rank(), 2);
        assert!(m.contains_bits(&[0b0011]));
        assert!(!m.contains_bits(&[0b0100]));
        assert_eq!(m.express_bits(&[0b0010]), Some(vec![1]));
        assert_eq!(m.express_bits(&[0b0100]), None);
    }

    #[test]
    fn zero_vector_is_dependent_on_nothing() {
        let mut m = Gf2Matrix::new(4);
        assert_eq!(
            m.insert_bits(&[0]),
            Insert::Dependent {
                combination: vec![]
            }
        );
    }

    #[test]
    fn wide_vectors() {
        let mut m = Gf2Matrix::new(130);
        let mut a = vec![0u64; 3];
        a[2] = 0b1; // bit 128
        assert_eq!(m.insert_bits(&a), Insert::Independent);
        assert!(m.contains_bits(&a));
        assert_eq!(
            m.insert_bits(&a),
            Insert::Dependent {
                combination: vec![0]
            }
        );
    }

    #[test]
    fn dependent_combinations_xor_to_their_vector() {
        // Random low-rank vectors over one- and multi-word widths: every
        // reported combination names earlier independent insertions whose
        // XOR is the inserted vector, and express_bits agrees with it.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n_cols in [5usize, 64, 100, 256] {
            let words = n_cols.div_ceil(64);
            let tail = if n_cols.is_multiple_of(64) {
                u64::MAX
            } else {
                (1 << (n_cols % 64)) - 1
            };
            let seeds: Vec<Vec<u64>> = (0..6)
                .map(|_| {
                    let mut v: Vec<u64> = (0..words).map(|_| next()).collect();
                    v[words - 1] &= tail;
                    v
                })
                .collect();
            let mut m = Gf2Matrix::new(n_cols);
            let mut inserted: Vec<Vec<u64>> = Vec::new();
            let mut independent = Vec::new();
            for _ in 0..20 {
                let pick = next();
                let mut v = vec![0u64; words];
                for (i, s) in seeds.iter().enumerate() {
                    if pick >> i & 1 == 1 {
                        for (a, b) in v.iter_mut().zip(s) {
                            *a ^= b;
                        }
                    }
                }
                let expressed = m.express_bits(&v);
                match m.insert_bits(&v) {
                    Insert::Independent => {
                        assert_eq!(expressed, None);
                        independent.push(inserted.len());
                    }
                    Insert::Dependent { combination } => {
                        assert_eq!(expressed.as_ref(), Some(&combination));
                        let mut acc = vec![0u64; words];
                        for &i in &combination {
                            assert!(independent.contains(&i), "{i} is not independent");
                            for (a, b) in acc.iter_mut().zip(&inserted[i]) {
                                *a ^= b;
                            }
                        }
                        assert_eq!(acc, v, "combination {combination:?} at {n_cols} columns");
                    }
                }
                inserted.push(v);
            }
            assert_eq!(m.rank(), independent.len());
            assert_eq!(m.n_inserted(), 20);
        }
    }

    #[test]
    fn anf_span_tracks_combinations() {
        let mut pool = VarPool::new();
        let exprs: Vec<Anf> = ["a ^ b", "b ^ c", "c ^ d", "a ^ d"]
            .iter()
            .map(|s| Anf::parse(s, &mut pool).unwrap())
            .collect();
        let deps = linear_dependencies(&exprs);
        assert_eq!(deps.len(), 1);
        let (i, combo) = &deps[0];
        assert_eq!(*i, 3);
        // a^d = (a^b) ^ (b^c) ^ (c^d)
        assert_eq!(combo, &vec![0, 1, 2]);
        let xor = combo
            .iter()
            .fold(Anf::zero(), |acc, &j| acc.xor(&exprs[j]));
        assert_eq!(xor, exprs[3]);
    }

    #[test]
    fn anf_span_express() {
        let mut pool = VarPool::new();
        let a = Anf::parse("a*b ^ c", &mut pool).unwrap();
        let b = Anf::parse("c ^ d", &mut pool).unwrap();
        let mut span = AnfSpan::new();
        span.insert(&a);
        span.insert(&b);
        let target = Anf::parse("a*b ^ d", &mut pool).unwrap();
        assert_eq!(span.express(&target), Some(vec![0, 1]));
        let absent = Anf::parse("a", &mut pool).unwrap();
        assert_eq!(span.express(&absent), None);
    }

    #[test]
    fn paper_lzd_basis_reduction_shape() {
        // §5.3: {V0, P00, P01, V0^P00, V0^P01} has rank 3.
        let mut pool = VarPool::new();
        let v0 = Anf::parse("a0 ^ a1 ^ a2 ^ a3 ^ a0*a1 ^ a0*a2", &mut pool).unwrap();
        let p00 = Anf::parse("a2 ^ a3*a2 ^ a0 ^ a0*a1", &mut pool).unwrap();
        let p01 = Anf::parse("a1 ^ a0 ^ a1*a2 ^ a0*a2", &mut pool).unwrap();
        let exprs = vec![
            v0.clone(),
            p00.clone(),
            p01.clone(),
            v0.xor(&p00),
            v0.xor(&p01),
        ];
        let deps = linear_dependencies(&exprs);
        assert_eq!(deps.len(), 2);
        assert_eq!(deps[0].0, 3);
        assert_eq!(deps[1].0, 4);
    }
}
