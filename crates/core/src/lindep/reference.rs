//! Linear-dependence elimination as it was before batching: a test-only
//! reference for the batched [`minimize`](super::minimize).
//!
//! Each round clones one side's expressions out of the pair list, runs a
//! Gaussian elimination over them, and applies only the first dependency
//! it reports before re-merging and starting over.
//!
//! The two can reach different exact fixpoints: a rule 1/2 merge between
//! two single steps can reshape the list the next dependency is found
//! in. So the reference also records the pair lists a real run
//! minimises, on which the two must agree pair for pair.

use crate::pairs::PairList;
use pd_anf::gf2::linear_dependencies;
use pd_anf::Anf;
use std::cell::RefCell;

/// One dependency per round; returns the number of pairs eliminated.
pub(super) fn minimize(pl: &mut PairList, outer_term_cap: usize) -> usize {
    let mut eliminated = 0;
    loop {
        if apply_first_inner_dependency(pl) {
            eliminated += 1;
            pl.merge_fixpoint();
            continue;
        }
        let outer_total: usize = pl.pairs.iter().map(|p| p.outer.term_count()).sum();
        if outer_total <= outer_term_cap && apply_first_outer_dependency(pl) {
            eliminated += 1;
            pl.merge_fixpoint();
            continue;
        }
        break;
    }
    eliminated
}

/// `X_dep = ⊕ X_combo` ⇒ drop pair `dep`, XOR `Y_dep` into each combo
/// member's outer.
fn apply_first_inner_dependency(pl: &mut PairList) -> bool {
    let inners: Vec<Anf> = pl.pairs.iter().map(|p| p.inner.clone()).collect();
    let Some((dep, combo)) = linear_dependencies(&inners).into_iter().next() else {
        return false;
    };
    let dep_pair = pl.pairs.remove(dep);
    for i in combo {
        pl.pairs[i].outer = pl.pairs[i].outer.xor(&dep_pair.outer);
    }
    pl.pairs
        .retain(|p| !p.outer.is_zero() && !p.inner.is_zero());
    true
}

/// `Y_dep = ⊕ Y_combo` ⇒ drop pair `dep`, XOR `X_dep` into each combo
/// member's inner and multiply its null-space by `N(X_dep)`.
fn apply_first_outer_dependency(pl: &mut PairList) -> bool {
    let outers: Vec<Anf> = pl.pairs.iter().map(|p| p.outer.clone()).collect();
    let Some((dep, combo)) = linear_dependencies(&outers).into_iter().next() else {
        return false;
    };
    let dep_pair = pl.pairs.remove(dep);
    for i in combo {
        let p = &mut pl.pairs[i];
        p.inner = p.inner.xor(&dep_pair.inner);
        p.nullspace = p.nullspace.product(&dep_pair.nullspace);
    }
    pl.pairs
        .retain(|p| !p.outer.is_zero() && !p.inner.is_zero());
    true
}

thread_local! {
    /// The pair lists [`super::minimize`] was called on, with their outer
    /// caps, while [`recording`] runs on this thread.
    static RECORDED: RefCell<Option<Vec<(PairList, usize)>>> = const { RefCell::new(None) };
}

/// Notes one call of [`super::minimize`] when this thread is recording.
pub(super) fn record(pl: &PairList, outer_term_cap: usize) {
    RECORDED.with(|r| {
        if let Some(calls) = r.borrow_mut().as_mut() {
            calls.push((pl.clone(), outer_term_cap));
        }
    });
}

/// Runs `f` and returns every pair list [`super::minimize`] saw on this
/// thread meanwhile. `pd-par` runs nested parallel calls serially on the
/// calling worker, so `f` run as one `par_map` item sees all its calls.
pub(super) fn recording(f: impl FnOnce()) -> Vec<(PairList, usize)> {
    RECORDED.with(|r| *r.borrow_mut() = Some(Vec::new()));
    f();
    RECORDED.with(|r| r.borrow_mut().take().expect("recording was started"))
}
