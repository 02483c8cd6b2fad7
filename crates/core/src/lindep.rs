//! Basis minimisation using linear dependencies (paper §5.3).
//!
//! If the inner expressions `{X₁,…,Xₘ}` of the pair list are linearly
//! dependent over GF(2) — say `X₁ = X₂ ⊕ … ⊕ Xₙ` — the pair `(X₁,Y₁)` can
//! be dissolved into the others: `A = {(X₂,Y₁⊕Y₂), …, (Xₙ,Y₁⊕Yₙ), …}`,
//! shrinking the basis by one. Symmetrically for the outer side, where a
//! dependency `Y₁ = Y₂ ⊕ … ⊕ Yₙ` folds `X₁` into the other inners.
//!
//! The paper's LZD example: the raw basis `{V₀, P₀₀, P₀₁, V₀⊕P₀₀, V₀⊕P₀₁}`
//! reduces to `{V₀, P₀₀, P₀₁}` exactly this way.

use crate::pairs::PairList;
use pd_anf::gf2::linear_dependencies_of;

/// Applies inner- and outer-side linear minimisation until the basis is
/// independent on both sides. Returns the number of pairs eliminated.
///
/// Each round runs *one* Gaussian elimination per side and applies every
/// dependency it reports in a single batch. This is sound because the
/// combinations reference only independent (kept) pairs — see
/// [`linear_dependencies_of`] — and because applying an inner dependency
/// only touches *outers* (resp. outer dependencies only touch inners), so
/// the vectors being eliminated never change mid-batch. The old
/// one-dependency-per-round scheme recloned all `n` inner expressions and
/// re-eliminated from scratch after every single removal — `O(deps · n²)`
/// expression work; batching makes a round `O(n²)` with no cloning
/// (expressions are borrowed straight out of the pair list).
///
/// The outer-side search performs exact Gaussian elimination over the
/// outer polynomials; on the multi-million-term expressions of wide
/// comparators that is both hopeless (the outers are wildly independent)
/// and expensive, so it is skipped once the total outer size exceeds
/// `outer_term_cap` (inner expressions are always tiny — at most `2^k`
/// monomials — so the inner side always runs).
pub fn minimize(pl: &mut PairList, outer_term_cap: usize) -> usize {
    #[cfg(test)]
    reference::record(pl, outer_term_cap);
    let mut eliminated = 0;
    loop {
        let inner_removed = apply_inner_dependencies(pl);
        if inner_removed > 0 {
            eliminated += inner_removed;
            pl.merge_fixpoint();
            continue;
        }
        let outer_total: usize = pl.pairs.iter().map(|p| p.outer.term_count()).sum();
        if outer_total <= outer_term_cap {
            let outer_removed = apply_outer_dependencies(pl);
            if outer_removed > 0 {
                eliminated += outer_removed;
                pl.merge_fixpoint();
                continue;
            }
        }
        break;
    }
    eliminated
}

/// Removes the pairs indexed by `deps` (ascending indices) in one sweep.
fn drop_pairs(pl: &mut PairList, deps: &[(usize, Vec<usize>)]) {
    let mut keep = vec![true; pl.pairs.len()];
    for (dep_idx, _) in deps {
        keep[*dep_idx] = false;
    }
    let mut keep_iter = keep.into_iter();
    pl.pairs
        .retain(|_| keep_iter.next().expect("mask covers pairs"));
}

/// Applies every inner-side dependency found by one elimination pass.
/// Returns the number of pairs eliminated.
fn apply_inner_dependencies(pl: &mut PairList) -> usize {
    let deps = linear_dependencies_of(pl.pairs.iter().map(|p| &p.inner));
    if deps.is_empty() {
        return 0;
    }
    // X_dep = ⊕_{i∈combo} X_i  ⇒  remove pair dep, add Y_dep to each
    // combo member's outer.
    for (dep_idx, combo) in &deps {
        let dep_outer = pl.pairs[*dep_idx].outer.clone();
        for &i in combo {
            debug_assert!(i < *dep_idx, "dependencies refer to earlier pairs");
            pl.pairs[i].outer.xor_assign(&dep_outer);
        }
    }
    let removed = deps.len();
    drop_pairs(pl, &deps);
    pl.pairs
        .retain(|p| !p.outer.is_zero() && !p.inner.is_zero());
    removed
}

/// Applies every outer-side dependency found by one elimination pass,
/// symmetrically to [`apply_inner_dependencies`].
fn apply_outer_dependencies(pl: &mut PairList) -> usize {
    let deps = linear_dependencies_of(pl.pairs.iter().map(|p| &p.outer));
    if deps.is_empty() {
        return 0;
    }
    for (dep_idx, combo) in &deps {
        let dep_inner = pl.pairs[*dep_idx].inner.clone();
        let dep_ns = pl.pairs[*dep_idx].nullspace.clone();
        for &i in combo {
            debug_assert!(i < *dep_idx);
            let p = &mut pl.pairs[i];
            p.inner.xor_assign(&dep_inner);
            p.nullspace = p.nullspace.product(&dep_ns);
        }
    }
    let removed = deps.len();
    drop_pairs(pl, &deps);
    pl.pairs
        .retain(|p| !p.outer.is_zero() && !p.inner.is_zero());
    removed
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::fixtures::{random_pair_list, snapshot};
    use pd_anf::{Anf, VarPool, VarSet};
    use std::collections::HashMap;

    fn pairlist(pool: &mut VarPool, src: &str, group: &[&str]) -> (PairList, Anf) {
        let x = Anf::parse(src, pool).unwrap();
        let g: VarSet = group.iter().map(|n| pool.find(n).unwrap()).collect();
        let mut pl = PairList::split(&x, &g, &HashMap::new());
        pl.merge_fixpoint();
        (pl, x)
    }

    #[test]
    fn merge_rules_already_collapse_shared_outers() {
        // X = a·p ⊕ b·q ⊕ (a⊕b)·r: rule 2 groups by inner into
        // (a, p⊕r), (b, q⊕r); inners are independent, so minimisation is a
        // no-op and the expression is preserved.
        let mut pool = VarPool::new();
        let (mut pl, x) = pairlist(&mut pool, "a*p ^ b*q ^ a*r ^ b*r", &["a", "b"]);
        assert_eq!(pl.pairs.len(), 2);
        assert_eq!(minimize(&mut pl, 100_000), 0);
        assert_eq!(pl.to_expr(), x, "minimisation must preserve the expression");
    }

    #[test]
    fn paper_lzd_style_dependency() {
        // The paper's §5.3 situation: inners {A, B, A⊕B} with distinct
        // outers (this arises after rule-1 merges across selector classes,
        // e.g. LZD's {V0, P00, P01, V0⊕P00, V0⊕P01}). Construct the pair
        // list directly.
        let mut pool = VarPool::new();
        let a = Anf::parse("a", &mut pool).unwrap();
        let b = Anf::parse("b", &mut pool).unwrap();
        let (p, q, r) = (
            Anf::parse("p", &mut pool).unwrap(),
            Anf::parse("q", &mut pool).unwrap(),
            Anf::parse("r", &mut pool).unwrap(),
        );
        let mut pl = PairList::default();
        for (inner, outer) in [(a.clone(), p), (b.clone(), q), (a.xor(&b), r)] {
            pl.pairs.push(crate::pairs::Pair {
                inner,
                outer,
                nullspace: pd_anf::NullSpace::empty(),
            });
        }
        let x = pl.to_expr();
        let removed = minimize(&mut pl, 100_000);
        assert_eq!(removed, 1);
        assert_eq!(pl.pairs.len(), 2);
        assert_eq!(pl.to_expr(), x, "minimisation preserves the expression");
    }

    #[test]
    fn outer_dependency_folds_inner() {
        // X with outers {p, q, p⊕q}: outer-side dependency.
        let mut pool = VarPool::new();
        let (mut pl, x) = pairlist(&mut pool, "a*p ^ b*q ^ a*b*p ^ a*b*q", &["a", "b"]);
        // pairs: (a,p), (b,q), (ab, p^q)
        assert_eq!(pl.pairs.len(), 3);
        let removed = minimize(&mut pl, 100_000);
        assert_eq!(removed, 1);
        assert_eq!(pl.pairs.len(), 2);
        assert_eq!(pl.to_expr(), x);
    }

    #[test]
    fn independent_basis_is_untouched() {
        let mut pool = VarPool::new();
        let (mut pl, x) = pairlist(&mut pool, "a*p ^ b*q", &["a", "b"]);
        assert_eq!(minimize(&mut pl, 100_000), 0);
        assert_eq!(pl.pairs.len(), 2);
        assert_eq!(pl.to_expr(), x);
    }

    #[test]
    fn batched_minimisation_is_exact_and_mostly_matches_one_dependency_per_round() {
        // Seeded pair lists with forced inner and outer dependencies; every
        // fourth case caps the outer side away. Both passes must preserve
        // the expression. A rule 1/2 merge between two single steps can
        // lead the reference to a different fixpoint, so identical pairs
        // are required of all but a few cases here, and of every pair list
        // of the golden circuits below.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let (mut fired, mut diverged) = (0, 0);
        for case in 0..500u32 {
            let pl = random_pair_list(&mut state);
            let cap = if case.is_multiple_of(4) { 8 } else { 100_000 };
            let mut fast = pl.clone();
            let mut slow = pl.clone();
            let got = minimize(&mut fast, cap);
            let want = reference::minimize(&mut slow, cap);
            assert_eq!(
                fast.to_expr(),
                pl.to_expr(),
                "case {case}: batched exactness"
            );
            assert_eq!(
                slow.to_expr(),
                pl.to_expr(),
                "case {case}: reference exactness"
            );
            diverged += usize::from(got != want || snapshot(&fast) != snapshot(&slow));
            fired += usize::from(got > 0);
        }
        assert!(fired > 150, "a dependency in only {fired} cases");
        assert!(
            diverged <= 5,
            "{diverged} of 500 cases reached another fixpoint"
        );
    }

    #[test]
    fn batched_minimisation_matches_one_dependency_per_round_on_golden_circuits() {
        // Every pair list Reduce minimises on the FLOW_GOLDEN circuits (the
        // refine worklist, its close rounds and the arbitration
        // re-decomposition), run after a Decompose with basis refinement
        // off as in the flow: the batched pass must eliminate as many
        // pairs and leave the same pairs, null-spaces and rest.
        use pd_arith::*;
        macro_rules! circuit {
            ($generator:expr, $spec:ident) => {{
                let g = $generator;
                (g.pool.clone(), g.$spec())
            }};
        }
        let circuits: Vec<(VarPool, Vec<(String, Anf)>)> = vec![
            circuit!(Majority::new(15), spec),
            circuit!(Majority::new(13), spec),
            circuit!(Counter::new(12), spec),
            circuit!(Lzd::new(12), spec),
            circuit!(Gray::new(16), decode_spec),
            circuit!(Adder::new(10), spec),
            circuit!(Comparator::new(10), spec),
            circuit!(ThreeInputAdder::new(8), spec),
            circuit!(Adder::new(12), spec),
            circuit!(Lod::new(16), spec),
        ];
        let recorded = pd_par::par_map(&circuits, |(pool, spec)| {
            reference::recording(|| {
                let cfg = crate::PdConfig::default();
                let mut d =
                    crate::ProgressiveDecomposer::new(cfg.clone().without_basis_refinement())
                        .decompose(pool.clone(), spec.clone());
                crate::refine(&mut d, &cfg);
            })
        });
        let (mut lists, mut fired) = (0, 0);
        for (circuit, calls) in recorded.iter().enumerate() {
            for (pl, cap) in calls {
                let mut fast = pl.clone();
                let mut slow = pl.clone();
                let got = minimize(&mut fast, *cap);
                assert_eq!(
                    got,
                    reference::minimize(&mut slow, *cap),
                    "circuit {circuit}: {pl:?}"
                );
                assert_eq!(
                    snapshot(&fast),
                    snapshot(&slow),
                    "circuit {circuit}: {pl:?}"
                );
                lists += 1;
                fired += usize::from(got > 0);
            }
        }
        assert!(
            fired > 500,
            "a dependency in only {fired} of {lists} pair lists"
        );
    }
}
