//! Positive-Davio construction of decision diagrams from explicit ANF,
//! shared by [`crate::Bdd::from_anf`] and [`crate::Zdd::from_anf`].
//!
//! A Reed–Muller polynomial splits on its topmost variable `x` as
//! `f = f₀ ⊕ x·f₂`, where `f₀` holds the terms without `x` and `f₂` the
//! terms with `x`, `x` removed. The two halves are disjoint term families
//! over strictly lower levels, so building them bottom-up needs no term-set
//! memo: every term is touched once per level it sits under, O(terms ×
//! support) in all. Only the per-level combination differs between
//! diagram kinds.

use pd_anf::{Anf, Var};

/// A decision-diagram manager that can be built by positive-Davio
/// expansion.
pub(crate) trait DavioBuild {
    /// The manager's function handle.
    type Ref: Copy;
    /// What a node construction can fail with.
    type Error;
    /// The empty term family (constant 0).
    const ZERO: Self::Ref;
    /// The family holding only the empty monomial (constant 1).
    const ONE: Self::Ref;

    /// The level of `v`, registering it below the current order on first
    /// use.
    fn register(&mut self, v: Var) -> u32;

    /// The function `f₀ ⊕ x·f₂` for the variable at `level`, given the
    /// built halves (both depend only on levels below `level`).
    fn davio_node(
        &mut self,
        level: u32,
        f0: Self::Ref,
        f2: Self::Ref,
    ) -> Result<Self::Ref, Self::Error>;
}

/// Builds `expr` in `dd`. Unregistered variables are registered in term
/// order, exactly as a term-by-term fold would register them, so the
/// resulting variable order — and hence the canonical handle — is the
/// same.
pub(crate) fn from_anf<D: DavioBuild>(dd: &mut D, expr: &Anf) -> Result<D::Ref, D::Error> {
    // Every term's levels, ascending (topmost first).
    let levels: Vec<Vec<u32>> = expr
        .terms()
        .map(|term| {
            let mut l: Vec<u32> = term.vars().map(|v| dd.register(v)).collect();
            l.sort_unstable();
            l
        })
        .collect();
    let mut terms: Vec<&[u32]> = levels.iter().map(Vec::as_slice).collect();
    build(dd, &mut terms)
}

/// The Davio recursion over a term family given as ascending level lists.
/// Reorders `terms` in place and narrows the slices it strips.
fn build<D: DavioBuild>(dd: &mut D, terms: &mut [&[u32]]) -> Result<D::Ref, D::Error> {
    // An ANF's terms are distinct, and stripping `x` from the terms that
    // contain it keeps them distinct — so a lone empty term is the only
    // way to reach the constant 1.
    let top = match terms {
        [] => return Ok(D::ZERO),
        [[]] => return Ok(D::ONE),
        _ => terms
            .iter()
            .filter_map(|t| t.first().copied())
            .min()
            .expect("a family of distinct terms has a non-empty one"),
    };
    let mut split = 0;
    for i in 0..terms.len() {
        if terms[i].first() != Some(&top) {
            terms.swap(i, split);
            split += 1;
        }
    }
    let (without, with) = terms.split_at_mut(split);
    for t in with.iter_mut() {
        *t = &t[1..];
    }
    let f0 = build(dd, without)?;
    let f2 = build(dd, with)?;
    dd.davio_node(top, f0, f2)
}
