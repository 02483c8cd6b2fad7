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

use pd_anf::nullspace::{sum_membership, sum_membership_products_with_support};
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
    /// parallel chunks (each chunk groups into a local map, merged in
    /// chunk order so the result is identical to the sequential scan).
    pub fn split(
        expr: &Anf,
        group: &VarSet,
        var_nullspace: &HashMap<Var, NullSpace>,
    ) -> PairList {
        type ChunkSplit = (HashMap<Monomial, Vec<Monomial>>, Vec<Monomial>);
        let locals: Vec<ChunkSplit> =
            pd_par::par_chunks(expr.terms_slice(), Self::PAR_SPLIT_MIN, |chunk| {
                let mut by_inner: HashMap<Monomial, Vec<Monomial>> = HashMap::new();
                let mut rest_terms = Vec::new();
                for t in chunk {
                    if t.intersects(group) {
                        let (inner, outer) = t.split(group);
                        by_inner.entry(inner).or_default().push(outer);
                    } else {
                        rest_terms.push(t.clone());
                    }
                }
                (by_inner, rest_terms)
            });
        let mut locals = locals.into_iter();
        let (mut by_inner, mut rest_terms) = locals.next().unwrap_or_default();
        for (local_map, local_rest) in locals {
            for (inner, mut outers) in local_map {
                by_inner.entry(inner).or_default().append(&mut outers);
            }
            rest_terms.extend(local_rest);
        }
        let mut pairs: Vec<Pair> = by_inner
            .into_iter()
            .map(|(inner, outers)| {
                let mut ns = NullSpace::empty();
                for v in inner.vars() {
                    if let Some(n) = var_nullspace.get(&v) {
                        ns = ns.union(n);
                    }
                }
                Pair {
                    inner: Anf::from_monomial(inner),
                    outer: Anf::from_terms(outers),
                    nullspace: ns,
                }
            })
            .filter(|p| !p.outer.is_zero())
            .collect();
        // Deterministic order regardless of hash iteration.
        pairs.sort_by(|a, b| a.inner.cmp(&b.inner));
        PairList {
            pairs,
            rest: Anf::from_terms(rest_terms),
        }
    }

    /// Rule 1: merges pairs with equal outers by XOR-ing their inners.
    /// Null-spaces combine with the conservative `rC(N·N)` product rule.
    pub fn merge_same_outer(&mut self) -> bool {
        let mut by_outer: HashMap<Anf, Pair> = HashMap::new();
        let mut changed = false;
        for p in self.pairs.drain(..) {
            match by_outer.remove(&p.outer) {
                None => {
                    by_outer.insert(p.outer.clone(), p);
                }
                Some(prev) => {
                    changed = true;
                    let merged = Pair {
                        inner: prev.inner.xor(&p.inner),
                        outer: prev.outer,
                        nullspace: prev.nullspace.product(&p.nullspace),
                    };
                    if !merged.inner.is_zero() {
                        by_outer.insert(merged.outer.clone(), merged);
                    }
                }
            }
        }
        self.pairs = by_outer.into_values().collect();
        self.sort();
        changed
    }

    /// Rule 2: merges pairs with equal inners by XOR-ing their outers.
    pub fn merge_same_inner(&mut self) -> bool {
        let mut by_inner: HashMap<Anf, Pair> = HashMap::new();
        let mut changed = false;
        for p in self.pairs.drain(..) {
            match by_inner.remove(&p.inner) {
                None => {
                    by_inner.insert(p.inner.clone(), p);
                }
                Some(prev) => {
                    changed = true;
                    let merged = Pair {
                        inner: prev.inner,
                        outer: prev.outer.xor(&p.outer),
                        // Same inner ⇒ same null-space; keep the richer set.
                        nullspace: if prev.nullspace.len() >= p.nullspace.len() {
                            prev.nullspace
                        } else {
                            p.nullspace
                        },
                    };
                    if !merged.outer.is_zero() {
                        by_inner.insert(merged.inner.clone(), merged);
                    }
                }
            }
        }
        self.pairs = by_inner.into_values().collect();
        self.sort();
        changed
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
            let cache_closures = !pd_anf::naive_kernel();
            // Per pair: the union of its generators' supports, and (once
            // a combination needs them) its closure products with their
            // support union.
            let gen_support: Vec<VarSet> = if cache_closures {
                self.pairs
                    .iter()
                    .map(|p| {
                        p.nullspace
                            .gens()
                            .iter()
                            .fold(VarSet::new(), |acc, g| acc.union(&g.support()))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let mut products: Vec<Option<(Vec<Anf>, VarSet)>> = vec![None; self.pairs.len()];
            for i in 0..self.pairs.len() {
                for j in i + 1..self.pairs.len() {
                    // With no generators on either side the only reachable
                    // target is 0, and equal outers were already merged.
                    if self.pairs[i].nullspace.is_empty()
                        && self.pairs[j].nullspace.is_empty()
                    {
                        continue;
                    }
                    let diff = self.pairs[i].outer.xor(&self.pairs[j].outer);
                    let split = if cache_closures {
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
                        sum_membership_products_with_support(
                            &left.0, &right.0, &left.1, &right.1, &diff,
                        )
                    } else {
                        // Reference path (`PD_NAIVE_KERNEL`): re-enumerate
                        // closure products per combination.
                        sum_membership(
                            &self.pairs[i].nullspace,
                            &self.pairs[j].nullspace,
                            &diff,
                            product_cap,
                        )
                    };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identities::IdentityStore;
    use pd_anf::VarPool;

    /// Rule 3 as it was before lazy closures: every pair's closure
    /// products and their support are built up front on each scan.
    fn merge_nullspace_eager(pl: &mut PairList, product_cap: usize) -> usize {
        let mut merges = 0;
        'restart: loop {
            let products: Vec<(Vec<Anf>, VarSet)> = pl
                .pairs
                .iter()
                .map(|p| {
                    if p.nullspace.is_empty() {
                        (Vec::new(), VarSet::new())
                    } else {
                        closure_products_with_support(p, product_cap)
                    }
                })
                .collect();
            for i in 0..pl.pairs.len() {
                for j in i + 1..pl.pairs.len() {
                    if pl.pairs[i].nullspace.is_empty() && pl.pairs[j].nullspace.is_empty() {
                        continue;
                    }
                    let diff = pl.pairs[i].outer.xor(&pl.pairs[j].outer);
                    let split = sum_membership_products_with_support(
                        &products[i].0,
                        &products[j].0,
                        &products[i].1,
                        &products[j].1,
                        &diff,
                    );
                    if let Some(split) = split {
                        let pj = pl.pairs.remove(j);
                        let pi = &mut pl.pairs[i];
                        pi.outer = pi.outer.xor(&split.in_left);
                        pi.inner = pi.inner.xor(&pj.inner);
                        pi.nullspace = pi.nullspace.product(&pj.nullspace);
                        merges += 1;
                        if pi.inner.is_zero() || pi.outer.is_zero() {
                            pl.pairs.remove(i);
                        }
                        pl.merge_fixpoint();
                        continue 'restart;
                    }
                }
            }
            break;
        }
        merges
    }

    /// The pairs as comparable values.
    fn snapshot(pl: &PairList) -> Vec<(Anf, Anf, NullSpace)> {
        pl.pairs
            .iter()
            .map(|p| (p.inner.clone(), p.outer.clone(), p.nullspace.clone()))
            .collect()
    }

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
        assert_eq!(pl.pairs.len(), 2, "paper's A' has two pairs: {:?}", pl.pairs);
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
        ns.insert(a, NullSpace::from_gens(vec![Anf::parse("z", &mut pool).unwrap()]));
        ns.insert(b, NullSpace::from_gens(vec![Anf::parse("x", &mut pool).unwrap()]));
        ns.insert(c, NullSpace::from_gens(vec![Anf::parse("y", &mut pool).unwrap()]));
        let mut pl = PairList::split(&x, &group, &ns);
        pl.merge_fixpoint();
        assert_eq!(pl.pairs.len(), 3, "A' has three pairs before rule 3");
        let mut eager = pl.clone();
        let merges = pl.merge_nullspace(64);
        assert_eq!(merges, merge_nullspace_eager(&mut eager, 64));
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
        // shape); the rest are noise. Lazy and eager closures must give
        // the same merge count and the same pairs.
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
            let var_ns: HashMap<Var, NullSpace> = group
                .iter()
                .map(|v| (v, store.var_nullspace(v)))
                .collect();
            let mut lazy = PairList::split(&x, &group, &var_ns);
            lazy.merge_fixpoint();
            let mut eager = lazy.clone();
            let cap = if case.is_multiple_of(4) { 2 } else { 64 };
            let got = lazy.merge_nullspace(cap);
            let want = merge_nullspace_eager(&mut eager, cap);
            assert_eq!(got, want, "case {case}: merge count");
            assert_eq!(snapshot(&lazy), snapshot(&eager), "case {case}: pairs");
            assert_eq!(lazy.rest, eager.rest);
            fired += usize::from(got > 0);
            cases += 1;
        }
        assert!(fired * 4 > cases, "rule 3 fired in only {fired} of {cases} cases");
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
}
