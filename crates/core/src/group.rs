//! Group selection (paper §5.1).
//!
//! While primary-input bits are still visible, the group takes the `k/r`
//! least significant *available* bits of each of the `r` input words —
//! matching the paper's observation that arithmetic building blocks sit on
//! contiguous bits (and naturally discovering, e.g., the 3:2 counter when
//! three operands contribute one bit each). Once primary inputs are
//! exhausted, all `k`-subsets of the remaining variables are tried and the
//! one minimising the rewritten expression size wins; a co-occurrence
//! heuristic takes over if the subset count exceeds the configured limit.

use crate::config::PdConfig;
use pd_anf::{Anf, Var, VarKind, VarPool, VarSet};
use pd_par::EffortMeter;
use std::collections::HashMap;

/// The variables eligible for grouping: union of supports of `exprs`,
/// minus selectors and `excluded`.
pub fn live_vars(exprs: &[Anf], pool: &VarPool, excluded: &VarSet) -> VarSet {
    let mut live = VarSet::new();
    for e in exprs {
        for v in e.support().iter() {
            if matches!(pool.kind(v), VarKind::Selector) || excluded.contains(v) {
                continue;
            }
            live.insert(v);
        }
    }
    live
}

/// Picks the next group.
///
/// `objective` evaluates a candidate group by running a trial iteration
/// and returning the rewritten list's literal count (only used in the
/// exhaustive phase). Candidate evaluations are independent, so the
/// exhaustive phase scores them on the `pd-par` worker pool — `objective`
/// must therefore be `Fn + Sync` (trial iterations are pure). The winner
/// is the first minimum in subset-enumeration order, identical to the
/// sequential scan. Returns `None` when no variable is live.
pub fn find_group(
    exprs: &[Anf],
    pool: &VarPool,
    excluded: &VarSet,
    cfg: &PdConfig,
    objective: impl Fn(&VarSet) -> usize + Sync,
) -> Option<VarSet> {
    find_group_metered(
        exprs,
        pool,
        excluded,
        cfg,
        &mut EffortMeter::unlimited(),
        objective,
    )
}

/// [`find_group`] with an explicit [`EffortMeter`].
///
/// The exhaustive phase charges one unit per scored candidate *before*
/// scoring the batch (so a budget crossing still completes the batch and
/// the stopping point is deterministic); the heuristic phases charge one
/// unit. Callers check [`EffortMeter::exhausted`] between iterations.
pub fn find_group_metered(
    exprs: &[Anf],
    pool: &VarPool,
    excluded: &VarSet,
    cfg: &PdConfig,
    meter: &mut EffortMeter,
    objective: impl Fn(&VarSet) -> usize + Sync,
) -> Option<VarSet> {
    let live = live_vars(exprs, pool, excluded);
    if live.is_empty() {
        return None;
    }
    let k = cfg.group_size;
    // Phase 1: primary inputs remain — contiguous LSB slices per word.
    let live_primary: Vec<Var> = live
        .iter()
        .filter(|&v| matches!(pool.kind(v), VarKind::Input { .. }))
        .collect();
    if !live_primary.is_empty() {
        let mut by_word: HashMap<usize, Vec<(usize, Var)>> = HashMap::new();
        for &v in &live_primary {
            if let VarKind::Input { word, bit } = pool.kind(v) {
                by_word.entry(word).or_default().push((bit, v));
            }
        }
        let r = by_word.len();
        let per = (k / r).max(1);
        let mut words: Vec<(usize, Vec<(usize, Var)>)> = by_word.into_iter().collect();
        words.sort_by_key(|&(w, _)| w);
        let mut group = VarSet::new();
        for (_, mut bits) in words {
            bits.sort_by_key(|&(bit, _)| bit);
            for &(_, v) in bits.iter().take(per) {
                if group.len() >= k {
                    break;
                }
                group.insert(v);
            }
        }
        return Some(group);
    }
    // Phase 2: only derived variables remain.
    let vars: Vec<Var> = live.iter().collect();
    if vars.len() <= k {
        meter.charge(1);
        return Some(vars.into_iter().collect());
    }
    let n_subsets = binomial(vars.len(), k);
    if n_subsets <= cfg.exhaustive_group_limit {
        let candidates: Vec<VarSet> = k_subsets(&vars, k)
            .map(|combo| combo.into_iter().collect())
            .collect();
        meter.charge(candidates.len() as u64);
        let scores = pd_par::par_map(&candidates, &objective);
        let best = scores
            .iter()
            .enumerate()
            .min_by_key(|&(i, s)| (s, i))
            .map(|(i, _)| i)?;
        candidates.into_iter().nth(best)
    } else {
        meter.charge(1);
        Some(cooccurrence_group(exprs, &vars, k))
    }
}

/// Greedy fallback: seed with the most frequent variable and grow the
/// group with variables that co-occur with it most often in monomials.
fn cooccurrence_group(exprs: &[Anf], vars: &[Var], k: usize) -> VarSet {
    let mut freq: HashMap<Var, usize> = HashMap::new();
    for e in exprs {
        for t in e.terms() {
            for v in t.vars() {
                if vars.contains(&v) {
                    *freq.entry(v).or_default() += 1;
                }
            }
        }
    }
    let seed = *freq
        .iter()
        .max_by_key(|&(v, c)| (*c, std::cmp::Reverse(*v)))
        .expect("live vars nonempty")
        .0;
    let mut group = VarSet::singleton(seed);
    while group.len() < k {
        let mut score: HashMap<Var, usize> = HashMap::new();
        for e in exprs {
            for t in e.terms() {
                let touches = t.vars().any(|v| group.contains(v));
                if touches {
                    for v in t.vars() {
                        if vars.contains(&v) && !group.contains(v) {
                            *score.entry(v).or_default() += 1;
                        }
                    }
                }
            }
        }
        let next = score
            .into_iter()
            .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
            .map(|(v, _)| v)
            .or_else(|| vars.iter().copied().find(|v| !group.contains(*v)));
        match next {
            Some(v) => {
                group.insert(v);
            }
            None => break,
        }
    }
    group
}

fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let mut acc = 1usize;
    for i in 0..k.min(n - k) {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

/// Iterator over all `k`-subsets of `vars`, in lexicographic order.
fn k_subsets(vars: &[Var], k: usize) -> impl Iterator<Item = Vec<Var>> + '_ {
    let n = vars.len();
    let mut idx: Vec<usize> = (0..k).collect();
    let mut done = k > n;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let out: Vec<Var> = idx.iter().map(|&i| vars[i]).collect();
        // Advance.
        let mut i = k;
        loop {
            if i == 0 {
                done = true;
                break;
            }
            i -= 1;
            if idx[i] != i + n - k {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
        Some(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_word_takes_k_lsbs() {
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, 8);
        let expr = Anf::xor_all(a.iter().map(|&v| Anf::var(v)).collect::<Vec<_>>().iter());
        let cfg = PdConfig::default();
        let g = find_group(&[expr], &pool, &VarSet::new(), &cfg, |_| 0).unwrap();
        let want: VarSet = a[..4].iter().copied().collect();
        assert_eq!(g, want, "4 LSBs of the single word");
    }

    #[test]
    fn two_words_take_two_lsbs_each() {
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, 4);
        let b = pool.input_word("b", 1, 4);
        let expr = Anf::var(a[0])
            .and(&Anf::var(b[0]))
            .xor(&Anf::var(a[1]).and(&Anf::var(b[1])))
            .xor(&Anf::var(a[2]).and(&Anf::var(b[2])))
            .xor(&Anf::var(a[3]).and(&Anf::var(b[3])));
        let cfg = PdConfig::default();
        let g = find_group(&[expr], &pool, &VarSet::new(), &cfg, |_| 0).unwrap();
        let want: VarSet = [a[0], a[1], b[0], b[1]].into_iter().collect();
        assert_eq!(g, want);
    }

    #[test]
    fn three_words_take_one_lsb_each() {
        // k/r = 4/3 = 1: the group is {a0, b0, c0} of size 3 < k — the CSA
        // discovery situation.
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, 2);
        let b = pool.input_word("b", 1, 2);
        let c = pool.input_word("c", 2, 2);
        let expr = Anf::xor_all([a[0], b[0], c[0], a[1], b[1], c[1]].map(Anf::var).iter());
        let cfg = PdConfig::default();
        let g = find_group(&[expr], &pool, &VarSet::new(), &cfg, |_| 0).unwrap();
        let want: VarSet = [a[0], b[0], c[0]].into_iter().collect();
        assert_eq!(g, want);
    }

    #[test]
    fn consumed_bits_are_skipped() {
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, 8);
        // Only a4..a7 appear in the expression.
        let expr = Anf::xor_all(
            a[4..]
                .iter()
                .map(|&v| Anf::var(v))
                .collect::<Vec<_>>()
                .iter(),
        );
        let cfg = PdConfig::default();
        let g = find_group(&[expr], &pool, &VarSet::new(), &cfg, |_| 0).unwrap();
        let want: VarSet = a[4..].iter().copied().collect();
        assert_eq!(g, want, "next four available LSBs");
    }

    #[test]
    fn derived_phase_uses_objective() {
        let mut pool = VarPool::new();
        let s: Vec<Var> = (0..5).map(|i| pool.derived(&format!("s{i}"), 1)).collect();
        let expr = Anf::xor_all(s.iter().map(|&v| Anf::var(v)).collect::<Vec<_>>().iter());
        let cfg = PdConfig::default().with_group_size(2);
        // Objective prefers the group {s3, s4}.
        let special: VarSet = [s[3], s[4]].into_iter().collect();
        let g = find_group(&[expr], &pool, &VarSet::new(), &cfg, |g| {
            if *g == special {
                0
            } else {
                10
            }
        })
        .unwrap();
        assert_eq!(g, special);
    }

    #[test]
    fn small_remainder_returns_all() {
        let mut pool = VarPool::new();
        let s: Vec<Var> = (0..3).map(|i| pool.derived(&format!("s{i}"), 1)).collect();
        let expr = Anf::xor_all(s.iter().map(|&v| Anf::var(v)).collect::<Vec<_>>().iter());
        let cfg = PdConfig::default();
        let g = find_group(&[expr], &pool, &VarSet::new(), &cfg, |_| 0).unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn excluded_and_selectors_are_ignored() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let k = pool.fresh_selector();
        let expr = Anf::var(a).xor(&Anf::var(b)).xor(&Anf::var(k));
        let excluded: VarSet = [a].into_iter().collect();
        let live = live_vars(&[expr], &pool, &excluded);
        assert_eq!(live, [b].into_iter().collect());
    }

    #[test]
    fn k_subsets_enumerates_binomially() {
        let vars: Vec<Var> = (0..5).map(Var).collect();
        let subs: Vec<_> = k_subsets(&vars, 3).collect();
        assert_eq!(subs.len(), 10);
        assert_eq!(binomial(5, 3), 10);
        // All distinct.
        let mut sorted = subs.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }
}
