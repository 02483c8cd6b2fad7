//! The rewrite's selector split as it was before bucketing raw terms: a
//! test-only reference that [`bucket_by_selector`](super::bucket_by_selector)
//! must match output for output.
//!
//! It normalises the whole of `X'` first, then moves each canonical term
//! to the bucket of the first selector it contains, found by a positional
//! scan of the selector list.

use pd_anf::{Anf, Monomial, Var};

/// Normalise `X'`, then split it by selector.
pub(super) fn bucket_by_selector(terms: &[Monomial], selectors: &[Var]) -> Vec<Anf> {
    let x_new = Anf::from_terms(terms.to_vec());
    let mut buckets: Vec<Vec<Monomial>> = vec![Vec::new(); selectors.len()];
    for t in x_new.terms() {
        let sel = selectors
            .iter()
            .position(|&k| t.contains(k))
            .expect("every term carries exactly one selector");
        buckets[sel].push(t.without(selectors[sel]));
    }
    buckets.into_iter().map(Anf::from_terms).collect()
}
