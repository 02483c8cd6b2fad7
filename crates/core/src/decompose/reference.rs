//! Test-only references for the iteration body.
//!
//! * [`bucket_by_selector`]: the rewrite's selector split as it was
//!   before bucketing raw terms. It normalises the whole of `X'` first,
//!   then moves each canonical term to the bucket of the first selector
//!   it contains, found by a positional scan of the selector list.
//! * [`score`]: the §5.1 counts read off the full rewrite, as every
//!   group-search trial computed them before trials counted them.
//!   [`recording`] checks [`FoundBasis::score`] against it on every trial
//!   of a real run.

use super::FoundBasis;
use crate::identities::IdentityStore;
use pd_anf::{Anf, Monomial, Var};
use std::cell::RefCell;

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

/// `(Σ lit(L′ᵢ), basis literals)` of the fully rewritten list and the
/// recorded basis. (A trial's identities are incomplete, so it reads the
/// two parts of [`FoundBasis::rewrite`] that do not touch them.)
pub(super) fn score(found: &FoundBasis, selectors: &[Var]) -> (usize, usize) {
    let rewritten = found
        .rewritten_list(selectors)
        .iter()
        .map(Anf::literal_count)
        .sum();
    let basis = found.basis().map(|(_, e)| e.literal_count()).sum();
    (rewritten, basis)
}

/// One group-search trial checked while [`recording`].
#[derive(Clone, Debug)]
pub(super) struct ScoreCheck {
    /// [`FoundBasis::score`].
    pub got: (usize, usize),
    /// [`score`].
    pub want: (usize, usize),
    /// The identity store was non-empty.
    pub identities_known: bool,
    /// Some leader was substituted.
    pub substituted: bool,
    /// `X` had terms past the mask class (a variable id of 128 or more).
    pub large: bool,
}

thread_local! {
    /// Trials checked while [`recording`] runs on this thread.
    static CHECKS: RefCell<Option<Vec<ScoreCheck>>> = const { RefCell::new(None) };
}

/// Checks one trial's score against [`score`] when this thread is
/// recording.
pub(super) fn check_score(
    found: &FoundBasis,
    selectors: &[Var],
    got: (usize, usize),
    identities: &IdentityStore,
) {
    CHECKS.with(|c| {
        if let Some(checks) = c.borrow_mut().as_mut() {
            checks.push(ScoreCheck {
                got,
                want: score(found, selectors),
                identities_known: !identities.is_empty(),
                substituted: !found.substitutions.is_empty(),
                large: selectors.iter().any(|k| k.0 >= 128),
            });
        }
    });
}

/// Runs `f` and returns every trial checked on this thread meanwhile.
/// `pd-par` runs nested parallel calls serially on the calling worker,
/// so `f` run as one `par_map` item sees all its trials.
pub(super) fn recording(f: impl FnOnce()) -> Vec<ScoreCheck> {
    CHECKS.with(|c| *c.borrow_mut() = Some(Vec::new()));
    f();
    CHECKS.with(|c| c.borrow_mut().take().expect("recording was started"))
}
