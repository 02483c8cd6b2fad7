//! GF(2) linear algebra with combination tracking.
//!
//! The paper exploits linearity of the Boolean ring in two places:
//! minimising a basis whose first or second pair components are linearly
//! dependent (§5.3), and discovering identities as linear dependencies
//! among truth tables of products of basis elements (§5.5). Both reduce to
//! incremental Gaussian elimination over GF(2) where, for every dependent
//! vector, the *combination* of previously inserted vectors that produces
//! it must be recovered.
//!
//! This module serves §5.3, over sparse [`Anf`] rows ([`AnfSpan`]). The
//! §5.5 truth columns are dense bit vectors, one word per 64 assignments,
//! and their eliminator lives with the identity search that drives it
//! (`pd_core::identities`).

use crate::expr::Anf;
use crate::monomial::Monomial;
use std::collections::HashMap;

/// Outcome of inserting an expression into an [`AnfSpan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Insert {
    /// The expression was independent of all previously inserted ones and
    /// has been added to the span.
    Independent,
    /// The expression equals the XOR of the given previously inserted
    /// ones (indices in insertion order). It was *not* added.
    Dependent {
        /// Insertion indices whose XOR equals the inserted expression.
        combination: Vec<usize>,
    },
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
