//! The pair list of `findBasis` (paper §5.2).
//!
//! Every product term touching the group splits into `(inner, outer)` —
//! the group-variable part and the rest — and the resulting pairs are
//! merged by three rules:
//!
//! 1. `(α,γ), (β,γ) → (α⊕β, γ)` — same outer, XOR the inners;
//! 2. `(α,β), (α,γ) → (α, β⊕γ)` — same inner, XOR the outers;
//! 3. the null-space merge: `(X₁,Y₁), (X₂,Y₂) → (X₁⊕X₂, T)` whenever
//!    `Y₁⊕Y₂ ∈ N(X₁)⊕N(X₂)` with `T = Y₁⊕n₁` (§4) — the paper's stand-in
//!    for Boolean division.
//!
//! The represented expression `rest ⊕ Σ innerᵢ·outerᵢ` is invariant under
//! rules 1–2 and invariant *modulo identities* under rule 3.
//!
//! ## Order, without hashing
//!
//! The split needs no normalising pass. `rest` is a subsequence of the
//! canonical term list, so it is canonical. Mask monomials (all indices
//! below 128, see [`Monomial::as_small`]) are in colex order, and two
//! terms with the same inner `i` are `i | o₁` and `i | o₂` with `o`
//! disjoint from `i`, so `t ↦ t & !G` is strictly increasing within one
//! inner and every bucket of outers is canonical as scanned. Terms with
//! an index of 128 or more are in lexicographic order, which removing
//! the group's variables can upset (and such a term's outer can fall back
//! into the colex class); their buckets are checked in one pass and
//! sorted only if needed (distinct terms with one inner have distinct
//! outers, so nothing cancels). Below index 192 those terms are inline
//! words, so splitting one is three mask operations, as for a mask
//! monomial; only index-slice terms (an index of 192 or more) allocate.
//!
//! Rules 1–2 fold runs of equal outers (rule 1) or equal inners (rule 2)
//! in *pair order*, the order of the list they are given, so the result
//! depends only on that list. Rule 2 keeps the earlier pair's null-space
//! when two are the same size, and rule-1 results whose inners tie keep
//! the order of their first pairs.

use pd_anf::nullspace::sum_membership_products_with_support;
use pd_anf::{Anf, Monomial, NullSpace, Var, VarSet};
use std::collections::HashMap;

/// One `(inner, outer)` pair plus the conservative null-space of the inner
/// expression, maintained incrementally as pairs merge.
#[derive(Clone, Debug)]
pub struct Pair {
    /// Expression over group variables (a future basis element).
    pub inner: Anf,
    /// Expression over non-group variables (the coefficient of `inner`).
    pub outer: Anf,
    /// Known subring of `N(inner)`.
    pub nullspace: NullSpace,
}

/// The decomposition `expr = rest ⊕ Σ innerᵢ·outerᵢ` with respect to a
/// variable group.
#[derive(Clone, Debug, Default)]
pub struct PairList {
    /// The pairs; inners are pairwise distinct after merging.
    pub pairs: Vec<Pair>,
    /// Terms not touching the group.
    pub rest: Anf,
}

impl PairList {
    /// Term count at which [`PairList::split`] scans in parallel chunks.
    pub const PAR_SPLIT_MIN: usize = 8192;

    /// Splits `expr` by `group`. `var_nullspace` supplies the null-space of
    /// each group variable (from the identity store); monomial inners get
    /// the union of their variables' generators.
    ///
    /// Term lists beyond [`PairList::PAR_SPLIT_MIN`] terms are scanned in
    /// parallel chunks, concatenated per inner in chunk order, so the
    /// result is identical to the sequential scan. Outers and `rest` come
    /// out canonical without renormalising (see the module docs); only
    /// expressions with terms past index 128 pay a sortedness check.
    pub fn split(expr: &Anf, group: &VarSet, var_nullspace: &HashMap<Var, NullSpace>) -> PairList {
        let locals: Vec<ChunkSplit> =
            pd_par::par_chunks(expr.terms_slice(), Self::PAR_SPLIT_MIN, |chunk| {
                ChunkSplit::scan(chunk, group)
            });
        let mut locals = locals.into_iter();
        let mut all = locals.next().unwrap_or_default();
        for local in locals {
            all.append(local);
        }
        let all_small = expr
            .terms_slice()
            .last()
            .is_none_or(|t| t.as_small().is_some());
        let mut pairs: Vec<Pair> = all
            .inners
            .into_iter()
            .zip(all.outers)
            .map(|(inner, mut outers)| {
                if !all_small && !outers.is_sorted() {
                    // Distinct terms with one inner have distinct outers:
                    // sorting is all the normalising they need.
                    outers.sort_unstable();
                }
                let mut ns = NullSpace::empty();
                for v in inner.vars() {
                    if let Some(n) = var_nullspace.get(&v) {
                        ns = ns.union(n);
                    }
                }
                Pair {
                    inner: Anf::from_monomial(inner),
                    outer: Anf::from_canonical_terms(outers),
                    nullspace: ns,
                }
            })
            .collect();
        // Inners are distinct, so the unstable sort is deterministic.
        pairs.sort_unstable_by(|a, b| a.inner.cmp(&b.inner));
        PairList {
            pairs,
            rest: Anf::from_canonical_terms(all.rest),
        }
    }

    /// Rule 1: merges pairs with equal outers by XOR-ing their inners.
    /// Null-spaces combine with the conservative `rC(N·N)` product rule.
    ///
    /// Each run of equal outers folds in pair order; a fold whose inner
    /// cancels is dropped and the run restarts at its next pair. Results
    /// take the place of their first pair, so results whose inners tie
    /// stay in pair order under the final stable sort by inner.
    pub fn merge_same_outer(&mut self) -> bool {
        let mut order: Vec<usize> = (0..self.pairs.len()).collect();
        order.sort_by(|&a, &b| self.pairs[a].outer.cmp(&self.pairs[b].outer));
        let runs: Vec<&[usize]> = order
            .chunk_by(|&a, &b| self.pairs[a].outer == self.pairs[b].outer)
            .collect();
        if runs.len() == self.pairs.len() {
            self.sort();
            return false;
        }
        let mut slots: Vec<Option<Pair>> = std::mem::take(&mut self.pairs)
            .into_iter()
            .map(Some)
            .collect();
        // (position of the fold's first pair, folded pair)
        let mut merged: Vec<(usize, Pair)> = Vec::with_capacity(slots.len());
        for run in runs {
            let mut acc: Option<(usize, Pair)> = None;
            for &i in run {
                let p = slots[i].take().expect("each pair is folded once");
                acc = match acc {
                    None => Some((i, p)),
                    Some((first, prev)) => {
                        let inner = prev.inner.xor(&p.inner);
                        (!inner.is_zero()).then(|| {
                            let pair = Pair {
                                inner,
                                outer: prev.outer,
                                nullspace: prev.nullspace.product(&p.nullspace),
                            };
                            (first, pair)
                        })
                    }
                };
            }
            merged.extend(acc);
        }
        merged.sort_unstable_by_key(|&(first, _)| first);
        self.pairs = merged.into_iter().map(|(_, p)| p).collect();
        self.sort();
        true
    }

    /// Rule 2: merges pairs with equal inners by XOR-ing their outers.
    ///
    /// The list is stably sorted by inner first (rule 3 and the basis
    /// passes can leave it unsorted), so each run of equal inners folds
    /// in pair order; a fold whose outer cancels is dropped and the run
    /// restarts at its next pair.
    pub fn merge_same_inner(&mut self) -> bool {
        self.sort();
        if self.pairs.windows(2).all(|w| w[0].inner != w[1].inner) {
            return false;
        }
        let mut out: Vec<Pair> = Vec::with_capacity(self.pairs.len());
        let mut acc: Option<Pair> = None;
        for p in std::mem::take(&mut self.pairs) {
            acc = match acc {
                Some(prev) if prev.inner == p.inner => {
                    let outer = prev.outer.xor(&p.outer);
                    (!outer.is_zero()).then(|| Pair {
                        inner: prev.inner,
                        outer,
                        // Same inner ⇒ same null-space; keep the richer
                        // set, the earlier pair's on a tie.
                        nullspace: if prev.nullspace.len() >= p.nullspace.len() {
                            prev.nullspace
                        } else {
                            p.nullspace
                        },
                    })
                }
                prev => {
                    out.extend(prev);
                    Some(p)
                }
            };
        }
        out.extend(acc);
        self.pairs = out;
        true
    }

    /// Runs rules 1 and 2 to a fixed point.
    pub fn merge_fixpoint(&mut self) {
        loop {
            let c1 = self.merge_same_inner();
            let c2 = self.merge_same_outer();
            if !c1 && !c2 {
                break;
            }
        }
    }

    /// Rule 3 (Boolean division through null-spaces): repeatedly merges any
    /// two pairs whose outer difference lies in the sum of their
    /// null-spaces. `product_cap` bounds generator-product enumeration.
    ///
    /// Closure products are enumerated lazily, at most once per pair per
    /// scan, and only for a combination whose target passes a screen on
    /// the generators' support: that support contains every closure
    /// product's, so the screen rejects nothing the exact test (product
    /// support, then span membership) would accept. Caches are rebuilt
    /// after a successful merge, which is rare.
    ///
    /// Returns the number of merges performed.
    pub fn merge_nullspace(&mut self, product_cap: usize) -> usize {
        let mut merges = 0;
        'restart: loop {
            // Per pair: the union of its generators' supports, and (once
            // a combination needs them) its closure products with their
            // support union.
            let gen_support: Vec<VarSet> = self
                .pairs
                .iter()
                .map(|p| {
                    p.nullspace
                        .gens()
                        .iter()
                        .fold(VarSet::new(), |acc, g| acc.union(&g.support()))
                })
                .collect();
            let mut products: Vec<Option<(Vec<Anf>, VarSet)>> = vec![None; self.pairs.len()];
            for i in 0..self.pairs.len() {
                for j in i + 1..self.pairs.len() {
                    // With no generators on either side the only reachable
                    // target is 0, and equal outers were already merged.
                    if self.pairs[i].nullspace.is_empty() && self.pairs[j].nullspace.is_empty() {
                        continue;
                    }
                    let diff = self.pairs[i].outer.xor(&self.pairs[j].outer);
                    if !diff
                        .support()
                        .iter()
                        .all(|v| gen_support[i].contains(v) || gen_support[j].contains(v))
                    {
                        continue;
                    }
                    for k in [i, j] {
                        products[k].get_or_insert_with(|| {
                            closure_products_with_support(&self.pairs[k], product_cap)
                        });
                    }
                    let (Some(left), Some(right)) = (&products[i], &products[j]) else {
                        unreachable!("both closures were filled above");
                    };
                    let split = sum_membership_products_with_support(
                        &left.0, &right.0, &left.1, &right.1, &diff,
                    );
                    if let Some(split) = split {
                        let pj = self.pairs.remove(j);
                        let pi = &mut self.pairs[i];
                        // T = Y₁ ⊕ n₁ ( = Y₂ ⊕ n₂ ).
                        pi.outer = pi.outer.xor(&split.in_left);
                        pi.inner = pi.inner.xor(&pj.inner);
                        pi.nullspace = pi.nullspace.product(&pj.nullspace);
                        merges += 1;
                        if pi.inner.is_zero() || pi.outer.is_zero() {
                            self.pairs.remove(i);
                        }
                        // Merging may enable rules 1/2 again.
                        self.merge_fixpoint();
                        continue 'restart;
                    }
                }
            }
            break;
        }
        merges
    }

    /// The represented expression `rest ⊕ Σ inner·outer` (for testing and
    /// trace output; merges keep this invariant modulo identities).
    pub fn to_expr(&self) -> Anf {
        let mut acc = self.rest.clone();
        for p in &self.pairs {
            acc.xor_assign(&p.inner.and(&p.outer));
        }
        acc
    }

    /// Total literal count over all pairs (the paper's size measure for
    /// the local optimisations).
    pub fn literal_count(&self) -> usize {
        self.pairs
            .iter()
            .map(|p| p.inner.literal_count() + p.outer.literal_count())
            .sum::<usize>()
            + self.rest.literal_count()
    }

    fn sort(&mut self) {
        self.pairs.sort_by(|a, b| a.inner.cmp(&b.inner));
    }
}

/// One chunk of [`PairList::split`]: outers bucketed per inner, buckets
/// in first-seen order, plus the terms that miss the group.
#[derive(Default)]
struct ChunkSplit {
    inners: Vec<Monomial>,
    outers: Vec<Vec<Monomial>>,
    rest: Vec<Monomial>,
}

impl ChunkSplit {
    fn scan(terms: &[Monomial], group: &VarSet) -> ChunkSplit {
        let mut split = ChunkSplit::default();
        for t in terms {
            if t.intersects(group) {
                let (inner, outer) = t.split(group);
                split.bucket(inner).push(outer);
            } else {
                split.rest.push(t.clone());
            }
        }
        split
    }

    /// The outers of `inner`. A k-group has at most 2ᵏ−1 inners, so a
    /// linear scan finds them faster than hashing a monomial.
    fn bucket(&mut self, inner: Monomial) -> &mut Vec<Monomial> {
        let slot = match self.inners.iter().position(|i| *i == inner) {
            Some(slot) => slot,
            None => {
                self.inners.push(inner);
                self.outers.push(Vec::new());
                self.inners.len() - 1
            }
        };
        &mut self.outers[slot]
    }

    /// Appends a later chunk's terms.
    fn append(&mut self, later: ChunkSplit) {
        for (inner, mut outers) in later.inners.into_iter().zip(later.outers) {
            self.bucket(inner).append(&mut outers);
        }
        self.rest.extend(later.rest);
    }
}

/// A pair's null-space closure products (capped at `product_cap`) and the
/// union of their supports, the exact screen of the rule-3 membership
/// test.
fn closure_products_with_support(p: &Pair, product_cap: usize) -> (Vec<Anf>, VarSet) {
    let prods = p.nullspace.closure_products(product_cap);
    let support = prods
        .iter()
        .fold(VarSet::new(), |acc, g| acc.union(&g.support()));
    (prods, support)
}

/// Seeded pair lists for the tests that pin the basis passes to their
/// references.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::{Pair, PairList};
    use pd_anf::{Anf, Monomial, NullSpace, Var};

    /// Xorshift64: the next value of `state`.
    pub(crate) fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A nonzero XOR of up to `max_terms` monomials of degree 1–2 over
    /// `vars`.
    fn random_anf(vars: &[Var], max_terms: u64, state: &mut u64) -> Anf {
        loop {
            let terms = (0..1 + next(state) % max_terms)
                .map(|_| {
                    let a = vars[(next(state) % vars.len() as u64) as usize];
                    let b = vars[(next(state) % vars.len() as u64) as usize];
                    if next(state).is_multiple_of(2) {
                        Monomial::var(a)
                    } else {
                        Monomial::from_vars([a, b])
                    }
                })
                .collect();
            let e = Anf::from_terms(terms);
            if !e.is_zero() {
                return e;
            }
        }
    }

    /// A merged pair list of 2–9 pairs over five group and eight outer
    /// variables. Inners and outers are often XORs of two earlier ones
    /// (forcing linear dependencies on either side) or a shared outer
    /// plus a small perturbation (the shape size reduction rewrites);
    /// half the pairs carry null-space generators.
    pub(crate) fn random_pair_list(state: &mut u64) -> PairList {
        let group: Vec<Var> = (0..5).map(Var).collect();
        let outer_vars: Vec<Var> = (10..18).map(Var).collect();
        let shared = random_anf(&outer_vars, 6, state);
        let mut pl = PairList::default();
        for j in 0..2 + next(state) % 8 {
            let pick = |state: &mut u64| (next(state) % j) as usize;
            let inner = if j >= 2 && next(state) % 10 < 3 {
                pl.pairs[pick(state)]
                    .inner
                    .xor(&pl.pairs[pick(state)].inner)
            } else {
                random_anf(&group, 3, state)
            };
            let outer = match next(state) % 4 {
                0 if j >= 2 => pl.pairs[pick(state)]
                    .outer
                    .xor(&pl.pairs[pick(state)].outer),
                1 | 2 => shared.xor(&random_anf(&outer_vars, 2, state)),
                _ => random_anf(&outer_vars, 5, state),
            };
            let nullspace = if next(state).is_multiple_of(2) {
                let gens = (0..1 + next(state) % 2)
                    .map(|_| random_anf(&outer_vars, 1, state))
                    .collect();
                NullSpace::from_gens(gens)
            } else {
                NullSpace::empty()
            };
            pl.pairs.push(Pair {
                inner,
                outer,
                nullspace,
            });
        }
        pl.pairs
            .retain(|p| !p.inner.is_zero() && !p.outer.is_zero());
        pl.rest = random_anf(&outer_vars, 3, state);
        pl.merge_fixpoint();
        pl
    }

    /// The pairs and rest as comparable values.
    pub(crate) fn snapshot(pl: &PairList) -> (Vec<(Anf, Anf, NullSpace)>, Anf) {
        let pairs = pl
            .pairs
            .iter()
            .map(|p| (p.inner.clone(), p.outer.clone(), p.nullspace.clone()))
            .collect();
        (pairs, pl.rest.clone())
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::fixtures::{next, random_pair_list, snapshot};
    use super::reference::{self, Closures};
    use super::*;
    use crate::identities::IdentityStore;
    use pd_anf::VarPool;

    fn group_of(pool: &VarPool, names: &[&str]) -> VarSet {
        names.iter().map(|n| pool.find(n).unwrap()).collect()
    }

    #[test]
    fn paper_example_algebraic_merge() {
        // §5.2: X = ad ⊕ aef ⊕ bcd ⊕ abe ⊕ ace ⊕ bcef ⊕ xy over {a,b,c}
        // reduces to {(a⊕bc, d⊕ef), (ab⊕ac, e)} with rest xy.
        let mut pool = VarPool::new();
        let x = Anf::parse(
            "a*d ^ a*e*f ^ b*c*d ^ a*b*e ^ a*c*e ^ b*c*e*f ^ x*y",
            &mut pool,
        )
        .unwrap();
        let group = group_of(&pool, &["a", "b", "c"]);
        let mut pl = PairList::split(&x, &group, &HashMap::new());
        assert_eq!(pl.to_expr(), x, "split preserves the expression");
        pl.merge_fixpoint();
        assert_eq!(pl.to_expr(), x, "merging preserves the expression");
        assert_eq!(
            pl.pairs.len(),
            2,
            "paper's A' has two pairs: {:?}",
            pl.pairs
        );
        let inner_set: Vec<Anf> = pl.pairs.iter().map(|p| p.inner.clone()).collect();
        let want1 = Anf::parse("a ^ b*c", &mut pool).unwrap();
        let want2 = Anf::parse("a*b ^ a*c", &mut pool).unwrap();
        assert!(inner_set.contains(&want1), "basis {inner_set:?}");
        assert!(inner_set.contains(&want2), "basis {inner_set:?}");
        assert_eq!(pl.rest, Anf::parse("x*y", &mut pool).unwrap());
    }

    #[test]
    fn paper_example_nullspace_merge() {
        // §5.2 second example: X = ap⊕bp⊕cp⊕ax⊕ay⊕by⊕bz⊕cx⊕cz with
        // identities az=0, bx=0, cy=0 merges to a single pair
        // (a⊕b⊕c, p⊕x⊕y⊕z).
        let mut pool = VarPool::new();
        let x = Anf::parse(
            "a*p ^ b*p ^ c*p ^ a*x ^ a*y ^ b*y ^ b*z ^ c*x ^ c*z",
            &mut pool,
        )
        .unwrap();
        let group = group_of(&pool, &["a", "b", "c"]);
        let (a, b, c) = (
            pool.find("a").unwrap(),
            pool.find("b").unwrap(),
            pool.find("c").unwrap(),
        );
        let mut ns = HashMap::new();
        ns.insert(
            a,
            NullSpace::from_gens(vec![Anf::parse("z", &mut pool).unwrap()]),
        );
        ns.insert(
            b,
            NullSpace::from_gens(vec![Anf::parse("x", &mut pool).unwrap()]),
        );
        ns.insert(
            c,
            NullSpace::from_gens(vec![Anf::parse("y", &mut pool).unwrap()]),
        );
        let mut pl = PairList::split(&x, &group, &ns);
        pl.merge_fixpoint();
        assert_eq!(pl.pairs.len(), 3, "A' has three pairs before rule 3");
        let mut eager = pl.clone();
        let merges = pl.merge_nullspace(64);
        assert_eq!(
            merges,
            reference::merge_nullspace(&mut eager, 64, Closures::Eager)
        );
        assert_eq!(snapshot(&pl), snapshot(&eager));
        assert!(merges >= 2, "two Boolean-division merges expected");
        assert_eq!(pl.pairs.len(), 1);
        let p = &pl.pairs[0];
        assert_eq!(p.inner, Anf::parse("a ^ b ^ c", &mut pool).unwrap());
        assert_eq!(p.outer, Anf::parse("p ^ x ^ y ^ z", &mut pool).unwrap());
    }

    #[test]
    fn lazy_nullspace_merge_matches_eager_reference() {
        // Random pair lists whose null-spaces come from random zero-product
        // identities `g·o = 0` (group variable g, outer variable o). Most
        // outers are a shared T plus a random member of the group
        // variable's null-space, so rule 3 fires (the paper's §5.2
        // shape); the rest are noise. Lazy closures must give the same
        // merge count and the same pairs as both references: eager
        // closures and per-combination re-enumeration.
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let group_vars: Vec<Var> = (0..4).map(Var).collect();
        let outer_vars: Vec<Var> = (10..17).map(Var).collect();
        let group: VarSet = group_vars.iter().copied().collect();
        let (mut fired, mut cases) = (0, 0);
        for case in 0..300u32 {
            let mut store = IdentityStore::new();
            let mut gens: HashMap<Var, Vec<Var>> = HashMap::new();
            for &g in &group_vars {
                for &o in &outer_vars {
                    if next().is_multiple_of(4) {
                        store.add(Anf::var(g).and(&Anf::var(o)));
                        gens.entry(g).or_default().push(o);
                    }
                }
            }
            let random_outer = |bits: u64| {
                Anf::from_terms(
                    (0..outer_vars.len())
                        .filter(|&i| bits >> i & 1 == 1)
                        .map(|i| Monomial::var(outer_vars[i]))
                        .collect(),
                )
            };
            let shared = random_outer(next() | 1);
            let mut x = Anf::zero();
            for &g in &group_vars {
                let outer = if next().is_multiple_of(5) {
                    random_outer(next())
                } else {
                    // T ⊕ a random member of N(g).
                    let mut y = shared.clone();
                    for &o in gens.get(&g).into_iter().flatten() {
                        if next().is_multiple_of(2) {
                            y.xor_assign(&Anf::var(o));
                        }
                    }
                    y
                };
                x.xor_assign(&Anf::var(g).and(&outer));
            }
            if next().is_multiple_of(3) {
                // A product inner, whose null-space is the union.
                let (a, b) = (group_vars[0], group_vars[1 + (next() % 3) as usize]);
                x.xor_assign(&Anf::var(a).and(&Anf::var(b)).and(&random_outer(next())));
            }
            let var_ns: HashMap<Var, NullSpace> =
                group.iter().map(|v| (v, store.var_nullspace(v))).collect();
            let mut lazy = PairList::split(&x, &group, &var_ns);
            lazy.merge_fixpoint();
            let cap = if case.is_multiple_of(4) { 2 } else { 64 };
            let before = lazy.clone();
            let got = lazy.merge_nullspace(cap);
            for closures in [Closures::Eager, Closures::PerCombination] {
                let mut slow = before.clone();
                let want = reference::merge_nullspace(&mut slow, cap, closures);
                assert_eq!(got, want, "case {case}, {closures:?}: merge count");
                assert_eq!(
                    snapshot(&lazy),
                    snapshot(&slow),
                    "case {case}, {closures:?}"
                );
            }
            fired += usize::from(got > 0);
            cases += 1;
        }
        assert!(
            fired * 4 > cases,
            "rule 3 fired in only {fired} of {cases} cases"
        );
    }

    #[test]
    fn rest_keeps_untouched_terms() {
        let mut pool = VarPool::new();
        let x = Anf::parse("a*p ^ q*r ^ 1", &mut pool).unwrap();
        let group = group_of(&pool, &["a"]);
        let pl = PairList::split(&x, &group, &HashMap::new());
        assert_eq!(pl.rest, Anf::parse("q*r ^ 1", &mut pool).unwrap());
        assert_eq!(pl.pairs.len(), 1);
        assert_eq!(pl.to_expr(), x);
    }

    #[test]
    fn cancelling_outers_drop_pairs() {
        // a*p ⊕ a*p would vanish already in the Anf; engineer cancellation
        // via two inners whose outers cancel under rule 2 after rule 1.
        let mut pool = VarPool::new();
        // (a, p), (b, p) -> rule1 (a^b, p); plus (a^b, p) directly.
        let x = Anf::parse("a*p ^ b*p", &mut pool).unwrap();
        let group = group_of(&pool, &["a", "b"]);
        let mut pl = PairList::split(&x, &group, &HashMap::new());
        pl.merge_fixpoint();
        assert_eq!(pl.pairs.len(), 1);
        assert_eq!(pl.pairs[0].inner, Anf::parse("a ^ b", &mut pool).unwrap());
    }

    #[test]
    fn nullspace_merge_is_noop_without_identities() {
        let mut pool = VarPool::new();
        let x = Anf::parse("a*p ^ b*q", &mut pool).unwrap();
        let group = group_of(&pool, &["a", "b"]);
        let mut pl = PairList::split(&x, &group, &HashMap::new());
        pl.merge_fixpoint();
        assert_eq!(pl.merge_nullspace(64), 0);
        assert_eq!(pl.pairs.len(), 2);
    }

    #[test]
    fn literal_count_counts_pairs_and_rest() {
        let mut pool = VarPool::new();
        let x = Anf::parse("a*p*q ^ r", &mut pool).unwrap();
        let group = group_of(&pool, &["a"]);
        let pl = PairList::split(&x, &group, &HashMap::new());
        // pair (a, pq): 1 + 2; rest r: 1.
        assert_eq!(pl.literal_count(), 4);
    }

    /// A random monomial over `vars`: each variable with probability 1/4.
    fn random_monomial(vars: &[Var], state: &mut u64) -> Monomial {
        let bits = next(state);
        Monomial::from_vars(
            vars.iter()
                .enumerate()
                .filter(|&(i, _)| bits >> (2 * i % 64) & 3 == 0)
                .map(|(_, &v)| v),
        )
    }

    #[test]
    fn split_matches_the_hashing_reference() {
        // Seeded expressions over 20 variables whose ids start at 0, 120
        // (straddling the 128-id mask limit), 140 (inline, lexicographic
        // class), 180 (straddling the 192-id inline limit) or 200 (index
        // slices). Every fourth case is long enough to split in parallel
        // chunks. Groups take 1–5 of the variables; half the cases carry
        // null-spaces from random zero products. The split must match the
        // reference pair for pair, and buckets of terms past index 128
        // must sometimes come out of scan order.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let (mut unsorted, mut large, mut chunked) = (0, 0, 0);
        for case in 0..200u32 {
            let base = [0, 120, 140, 180, 200][case as usize % 5];
            let vars: Vec<Var> = (0..20).map(|i| Var(base + i)).collect();
            let len = if case.is_multiple_of(4) {
                2 * PairList::PAR_SPLIT_MIN + 100
            } else {
                (next(&mut state) % 300) as usize
            };
            let x = Anf::from_terms(
                (0..len)
                    .map(|_| random_monomial(&vars, &mut state))
                    .collect(),
            );
            let group: VarSet = (0..1 + next(&mut state) % 5)
                .map(|_| vars[(next(&mut state) % 20) as usize])
                .collect();
            let mut store = IdentityStore::new();
            if case.is_multiple_of(2) {
                for _ in 0..6 {
                    let g = vars[(next(&mut state) % 20) as usize];
                    let o = vars[(next(&mut state) % 20) as usize];
                    store.add(Anf::var(g).and(&Anf::var(o)));
                }
            }
            let var_ns = store.var_nullspaces();
            let got = PairList::split(&x, &group, &var_ns);
            let want = reference::split(&x, &group, &var_ns);
            assert_eq!(snapshot(&got), snapshot(&want), "case {case}");
            // Scan order of each bucket, to see the sortedness check fire.
            let mut scanned: std::collections::BTreeMap<Monomial, Vec<Monomial>> =
                Default::default();
            for t in x.terms().filter(|t| t.intersects(&group)) {
                let (inner, outer) = t.split(&group);
                scanned.entry(inner).or_default().push(outer);
            }
            unsorted += usize::from(scanned.values().any(|o| !o.is_sorted()));
            large += usize::from(x.terms().any(|t| t.as_small().is_none()));
            chunked += usize::from(x.term_count() >= PairList::PAR_SPLIT_MIN);
        }
        assert!(large >= 120, "only {large} cases had terms past index 128");
        assert!(
            unsorted >= 10,
            "only {unsorted} cases had an unsorted bucket"
        );
        assert!(
            chunked >= 25,
            "only {chunked} cases were long enough to chunk"
        );
    }

    /// `pl` with every variable id raised by `by`.
    fn shifted(pl: &PairList, by: u32) -> PairList {
        let shift = |e: &Anf| e.map_vars(|v| Var(v.0 + by));
        PairList {
            pairs: pl
                .pairs
                .iter()
                .map(|p| Pair {
                    inner: shift(&p.inner),
                    outer: shift(&p.outer),
                    nullspace: NullSpace::from_gens(p.nullspace.gens().iter().map(shift).collect()),
                })
                .collect(),
            rest: shift(&pl.rest),
        }
    }

    #[test]
    fn merge_fixpoint_matches_the_hashing_reference() {
        // Seeded merged pair lists, disturbed the way rule 3 and the
        // basis passes disturb them: two pairs fold into one (leaving the
        // list unsorted), and copies of inners and outers create rule 1
        // and rule 2 collisions. Ids are shifted past 128 in every other
        // case. Rules 1–2 must reach the reference's fixpoint pair for
        // pair, null-spaces included.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let (mut left_unsorted, mut merged) = (0, 0);
        for case in 0..400u32 {
            let mut pl = random_pair_list(&mut state);
            if case.is_multiple_of(2) {
                pl = shifted(&pl, 130);
            }
            let n = pl.pairs.len();
            if n >= 2 {
                // Rule 3's fold: pairs[i] absorbs pairs[j].
                let i = (next(&mut state) % (n as u64 - 1)) as usize;
                let j = i + 1 + (next(&mut state) % (n - i - 1) as u64) as usize;
                let pj = pl.pairs.remove(j);
                let pi = &mut pl.pairs[i];
                pi.inner = pi.inner.xor(&pj.inner);
                pi.nullspace = pi.nullspace.product(&pj.nullspace);
                pl.pairs.retain(|p| !p.inner.is_zero());
            }
            for _ in 0..next(&mut state) % 3 {
                let n = pl.pairs.len() as u64;
                if n < 2 {
                    break;
                }
                let (a, b) = (
                    (next(&mut state) % n) as usize,
                    (next(&mut state) % n) as usize,
                );
                if next(&mut state).is_multiple_of(2) {
                    pl.pairs[a].inner = pl.pairs[b].inner.clone();
                } else {
                    pl.pairs[a].outer = pl.pairs[b].outer.clone();
                }
            }
            left_unsorted += usize::from(!pl.pairs.is_sorted_by(|a, b| a.inner <= b.inner));
            let mut want = pl.clone();
            reference::merge_fixpoint(&mut want);
            merged += usize::from(want.pairs.len() < pl.pairs.len());
            pl.merge_fixpoint();
            assert_eq!(snapshot(&pl), snapshot(&want), "case {case}");
        }
        assert!(
            left_unsorted >= 100,
            "only {left_unsorted} lists were left unsorted"
        );
        assert!(merged >= 100, "rules 1-2 merged in only {merged} cases");
    }

    #[test]
    fn rule_two_keeps_the_earlier_null_space_on_a_tie() {
        // (a, p·k), (b, p·k) fold under rule 1 into (a⊕b, p·k) with
        // null-space {x·y}; (a⊕b, q·k) already has that inner, with
        // null-space {z}, the same size. q·k sorts before p·k, so rule 1
        // sees the second outer first. Rule-1 results keep the place of
        // their first pair, so the fold comes first and rule 2 keeps its
        // null-space.
        let (a, b, q, p, k, x, y, z) = (
            Var(0),
            Var(1),
            Var(10),
            Var(11),
            Var(12),
            Var(20),
            Var(21),
            Var(22),
        );
        let pair = |inner: Anf, outer: Var, gen: Anf| Pair {
            inner,
            outer: Anf::var(outer).and(&Anf::var(k)),
            nullspace: NullSpace::from_gens(vec![gen]),
        };
        let ab = Anf::var(a).xor(&Anf::var(b));
        let mut pl = PairList {
            pairs: vec![
                pair(Anf::var(a), p, Anf::var(x)),
                pair(ab.clone(), q, Anf::var(z)),
                pair(Anf::var(b), p, Anf::var(y)),
            ],
            rest: Anf::zero(),
        };
        assert!(pl.pairs[1].outer < pl.pairs[0].outer);
        let mut want = pl.clone();
        reference::merge_fixpoint(&mut want);
        pl.merge_fixpoint();
        assert_eq!(pl.pairs.len(), 1);
        assert_eq!(pl.pairs[0].inner, ab);
        assert_eq!(
            pl.pairs[0].outer,
            Anf::var(p).xor(&Anf::var(q)).and(&Anf::var(k))
        );
        assert_eq!(
            pl.pairs[0].nullspace,
            NullSpace::from_gens(vec![Anf::var(x).and(&Anf::var(y))])
        );
        assert_eq!(snapshot(&pl), snapshot(&want));
    }
}
