//! Local size reduction as it was before merge-count pricing: a test-only
//! reference that the fast [`improve`](super::improve) must match rewrite
//! for rewrite.
//!
//! Every candidate rewrite that passes the cheap screens materialises both
//! result pairs, null-space product included, before it is priced.

use super::{outers_plausibly_overlap, PREFILTER_TERMS};
use crate::pairs::{Pair, PairList};

/// The greedy loop of [`super::improve`] over [`try_rewrite`].
pub(super) fn improve(pl: &mut PairList) -> (usize, usize) {
    let before = pl.literal_count();
    let mut changed = true;
    let mut guard = 0usize;
    while changed && guard < 10_000 {
        changed = false;
        'scan: for i in 0..pl.pairs.len() {
            for j in 0..pl.pairs.len() {
                if i == j {
                    continue;
                }
                if let Some((pi, pj)) = try_rewrite(&pl.pairs[i], &pl.pairs[j]) {
                    pl.pairs[i] = pi;
                    pl.pairs[j] = pj;
                    pl.pairs
                        .retain(|p| !p.inner.is_zero() && !p.outer.is_zero());
                    pl.merge_fixpoint();
                    changed = true;
                    guard += 1;
                    break 'scan;
                }
            }
        }
    }
    (before, pl.literal_count())
}

/// `(X₁,Y₁),(X₂,Y₂) → (X₁⊕X₂, Y₁), (X₂, Y₁⊕Y₂)`, built first and kept
/// when it has fewer literals.
fn try_rewrite(p1: &Pair, p2: &Pair) -> Option<(Pair, Pair)> {
    let cost = |p: &Pair| p.inner.literal_count() + p.outer.literal_count();
    let old = cost(p1) + cost(p2);
    let term_gap = p1
        .outer
        .term_count()
        .abs_diff(p2.outer.term_count())
        .saturating_sub(1);
    if term_gap >= p1.inner.literal_count() + p2.outer.literal_count() {
        return None;
    }
    if p1.outer.term_count().max(p2.outer.term_count()) > PREFILTER_TERMS
        && !outers_plausibly_overlap(&p1.outer, &p2.outer)
    {
        return None;
    }
    let a = Pair {
        inner: p1.inner.xor(&p2.inner),
        outer: p1.outer.clone(),
        nullspace: p1.nullspace.product(&p2.nullspace),
    };
    let b = Pair {
        inner: p2.inner.clone(),
        outer: p1.outer.xor(&p2.outer),
        nullspace: p2.nullspace.clone(),
    };
    (cost(&a) + cost(&b) < old).then_some((a, b))
}
