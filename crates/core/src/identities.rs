//! Identity discovery and bookkeeping (paper §5.5).
//!
//! After a basis is found, relations among its elements are discovered by
//! exhaustive enumeration over the group's (restricted) assignments: build
//! the truth column of every product of at most `depth` basis variables and
//! run GF(2) elimination — every linear dependency among the columns is an
//! identity `⊕ products (⊕ 1) = 0`. Two kinds matter downstream:
//!
//! * **substitutions** `sᵢ = f(s…)`, which shrink the basis (the majority
//!   example: `s₃ = s₁s₂`), and
//! * **zero products** `sᵢ·sⱼ = 0`, which seed the null-spaces used by the
//!   Boolean-division merge in the next iteration.
//!
//! Identities are discovered on assignment sets restricted only by
//! *previously known* identities — a superset of the value combinations
//! reachable from primary inputs — so every emitted identity is sound.
//!
//! ## One routine, two modes
//!
//! [`find_identities`] runs once per group-search trial (§5.1) and once
//! per committed iteration, so it is built to cost about as much as the
//! masks it works on. Columns are packed bit-parallel; product subsets
//! are enumerated in place, each column one AND away from its prefix's;
//! elimination keeps its rows indexed by pivot, each with its combination
//! over the independent columns, so at `k ≤ 6` (at most 64 admissible
//! assignments) a row and its combination are two words. An [`Anf`] is
//! built only for a dependency that is reported. A trial asks for
//! [`Search::Substitutions`]: only dependencies with a degree-1 term
//! naming a fresh leader can become substitutions, and substitutions are
//! all its score depends on, so the rest are never built. The committed
//! run asks for [`Search::All`] and records every identity.

use crate::config::PdConfig;
use pd_anf::{Anf, Monomial, NullSpace, Var, VarSet};
use std::collections::HashMap;

/// The set of identities known to hold (expressions ≡ 0 on all reachable
/// input combinations).
#[derive(Clone, Debug, Default)]
pub struct IdentityStore {
    /// All identities, as expressions ≡ 0.
    zeros: Vec<Anf>,
    /// Fast path: single-monomial identities (products that are 0).
    zero_products: Vec<Monomial>,
}

impl IdentityStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// All identities as expressions ≡ 0.
    pub fn zeros(&self) -> &[Anf] {
        &self.zeros
    }

    /// Number of identities known.
    pub fn len(&self) -> usize {
        self.zeros.len()
    }

    /// Returns `true` when no identity is known.
    pub fn is_empty(&self) -> bool {
        self.zeros.is_empty()
    }

    /// Records `expr ≡ 0`.
    pub fn add(&mut self, expr: Anf) {
        if expr.is_zero() || self.zeros.contains(&expr) {
            return;
        }
        if expr.term_count() == 1 {
            let m = expr.terms().next().expect("one term").clone();
            if m.degree() >= 2 {
                self.zero_products.push(m.clone());
            }
        }
        self.zeros.push(expr);
    }

    /// Drops monomials of `expr` that are divisible by a known zero
    /// product. Sound: those monomials are 0 on every reachable input.
    pub fn reduce(&self, expr: &Anf) -> Anf {
        if self.zero_products.is_empty() {
            return expr.clone();
        }
        Anf::from_terms(
            expr.terms()
                .filter(|t| !self.zero_products.iter().any(|z| z.divides(t)))
                .cloned()
                .collect(),
        )
    }

    /// The conservative null-space of a single variable: for every identity
    /// `v·W ≡ 0` (every monomial divisible by `v`), `W` is a generator.
    pub fn var_nullspace(&self, v: Var) -> NullSpace {
        let mut gens = Vec::new();
        for z in &self.zeros {
            if z.term_count() > 0 && z.terms().all(|t| t.contains(v)) {
                let w = Anf::from_terms(z.terms().map(|t| t.without(v)).collect());
                if !w.is_zero() {
                    gens.push(w);
                }
            }
        }
        NullSpace::from_gens(gens)
    }

    /// [`Self::var_nullspace`] of every variable whose null-space is
    /// non-empty; a variable missing from the map has the empty one.
    pub fn var_nullspaces(&self) -> HashMap<Var, NullSpace> {
        let support = self
            .zeros
            .iter()
            .fold(VarSet::new(), |acc, z| acc.union(&z.support()));
        support
            .iter()
            .map(|v| (v, self.var_nullspace(v)))
            .filter(|(_, ns)| !ns.is_empty())
            .collect()
    }

    /// Identities whose support lies inside `vars` (usable to restrict
    /// assignment enumeration over that group).
    pub fn restricted_to(&self, vars: &VarSet) -> Vec<&Anf> {
        self.zeros
            .iter()
            .filter(|z| z.terms().all(|t| t.vars().all(|v| vars.contains(v))))
            .collect()
    }

    /// Removes identities mentioning any of `vars` (used after those
    /// variables have been rewritten away and are no longer meaningful).
    pub fn drop_vars(&mut self, vars: &VarSet) {
        self.zeros.retain(|z| !z.intersects(vars));
        self.zero_products.retain(|m| !m.intersects(vars));
    }
}

/// An identity discovered among basis variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoundIdentity {
    /// The identity as an expression over basis variables, ≡ 0.
    pub expr: Anf,
}

/// Truth column word `w` of bit `j` of the assignment counter: lane `l`
/// of word `w` is assignment `64·w + l`.
fn counter_bit_word(j: usize, w: usize) -> u64 {
    const LANES: [u64; 6] = [
        0xaaaa_aaaa_aaaa_aaaa,
        0xcccc_cccc_cccc_cccc,
        0xf0f0_f0f0_f0f0_f0f0,
        0xff00_ff00_ff00_ff00,
        0xffff_0000_ffff_0000,
        0xffff_ffff_0000_0000,
    ];
    if j < 6 {
        LANES[j]
    } else if w >> (j - 6) & 1 == 1 {
        u64::MAX
    } else {
        0
    }
}

/// Packs the bits of `col` selected by `mask` densely into `out` (low
/// bits first), in ascending bit order.
fn pack(col: &[u64], mask: &[u64], out: &mut [u64]) {
    out.fill(0);
    let mut row = 0usize;
    for (&c, &m) in col.iter().zip(mask) {
        let mut m = m;
        while m != 0 {
            if c >> m.trailing_zeros() & 1 == 1 {
                out[row / 64] |= 1 << (row % 64);
            }
            row += 1;
            m &= m - 1;
        }
    }
}

/// Which dependencies [`find_identities`] turns into identities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Search {
    /// Every dependency: the committed iteration records them all.
    All,
    /// Only dependencies with a degree-1 term naming a *fresh* leader (one
    /// whose variable is not a group variable, i.e. not a passthrough).
    /// Only those can become substitutions, and substitutions are all a
    /// group-search trial's score reads; the rest are never built.
    Substitutions,
}

/// Incremental GF(2) elimination of `words`-word columns with rows
/// indexed by pivot: the row with pivot `p` has `p` as its lowest set
/// bit, so a column reduces by walking its lowest set bit upwards. Each
/// row carries its combination over the independent *slots* (insertion
/// order of the independent columns only), which fits in as many words
/// as the columns since the rank is at most the row count. At `k ≤ 6`
/// a row and its combination are one word each.
struct Eliminator {
    words: usize,
    /// Index into `rows` of pivot `p`'s row, or `u32::MAX`.
    row_of: Vec<u32>,
    /// Rows in slot order, `2·words` each: bits, then combination.
    rows: Vec<u64>,
    /// The column being reduced and its combination.
    scratch: Vec<u64>,
}

impl Eliminator {
    fn new(words: usize) -> Self {
        Eliminator {
            words,
            row_of: vec![u32::MAX; 64 * words],
            rows: Vec::new(),
            scratch: vec![0; 2 * words],
        }
    }

    /// Inserts `col`: `None` when it is independent (it takes the next
    /// slot), else the slots whose columns XOR to it.
    fn insert(&mut self, col: &[u64]) -> Option<&[u64]> {
        let w = self.words;
        self.scratch[..w].copy_from_slice(col);
        self.scratch[w..].fill(0);
        let mut word = 0;
        while word < w {
            let bits = self.scratch[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            let p = word * 64 + bits.trailing_zeros() as usize;
            let slot = self.row_of[p] as usize;
            if slot == u32::MAX as usize {
                let slot = self.rows.len() / (2 * w);
                self.scratch[w + slot / 64] |= 1 << (slot % 64);
                self.rows.extend_from_slice(&self.scratch);
                self.row_of[p] = slot as u32;
                return None;
            }
            // Bits below `p` are clear in both: only `word` onwards of
            // the bits change.
            let row = &self.rows[2 * w * slot..2 * w * (slot + 1)];
            for (a, b) in self.scratch[word..].iter_mut().zip(&row[word..]) {
                *a ^= b;
            }
        }
        Some(&self.scratch[w..])
    }
}

/// Discovers identities among `basis`: `basis[i].0` is the variable
/// naming expression `basis[i].1` (over `group` variables); a leader
/// whose variable is itself a group variable is a passthrough. Leader
/// variables must be distinct.
///
/// Assignments of `group` violating a known identity (with support inside
/// the group) are excluded. Products of up to `cfg.identity_product_depth`
/// basis variables are enumerated, smallest first and lexicographically
/// within a size, after the constant 1; every GF(2) dependency among their
/// value columns is an identity, returned in that order. With
/// [`Search::Substitutions`] only the substitution-capable ones are built:
/// exactly that subsequence of [`Search::All`]'s result.
///
/// Value columns are built bit-parallel: every expression is evaluated
/// with [`Anf::eval64`] over all `2ⁿ` group assignments, 64 at a time,
/// and the admissible rows are packed out of that. Products are
/// enumerated in place, each one's column the AND of its prefix's and one
/// more variable's, and reduced by the pivot-indexed eliminator. An identity's
/// [`Anf`] is only built for a product that turns out dependent (and,
/// in a trial, substitution-capable).
///
/// # Panics
///
/// Panics if `group` has more than 24 variables (assignment enumeration
/// would be impractical; Progressive Decomposition uses `k ≤ 6`).
pub fn find_identities(
    basis: &[(Var, Anf)],
    group: &[Var],
    store: &IdentityStore,
    cfg: &PdConfig,
    search: Search,
) -> Vec<FoundIdentity> {
    assert!(group.len() <= 24, "group too large for identity search");
    if basis.is_empty() {
        return Vec::new();
    }
    let group_set: VarSet = group.iter().copied().collect();
    debug_assert_eq!(
        basis.iter().map(|(v, _)| *v).collect::<VarSet>().len(),
        basis.len(),
        "leader variables are distinct"
    );
    let constraints = store.restricted_to(&group_set);
    // Word `w` of the truth column of `expr` over all assignments
    // (variables outside the group read as 0).
    let eval_word = |expr: &Anf, w: usize| {
        expr.eval64(|v| {
            group
                .iter()
                .position(|&g| g == v)
                .map_or(0, |j| counter_bit_word(j, w))
        })
    };
    // Admissible assignments: inside the 2ⁿ range, no constraint violated.
    let total = 1usize << group.len();
    let full_words = total.div_ceil(64);
    let mask: Vec<u64> = (0..full_words)
        .map(|w| {
            let in_range = if total < 64 {
                (1u64 << total) - 1
            } else {
                u64::MAX
            };
            constraints
                .iter()
                .fold(in_range, |m, c| m & !eval_word(c, w))
        })
        .collect();
    let rows: usize = mask.iter().map(|m| m.count_ones() as usize).sum();
    if rows == 0 {
        return Vec::new();
    }
    let words = rows.div_ceil(64);
    // Value column of each basis variable over the admissible rows.
    let m = basis.len();
    let mut var_cols = vec![0u64; m * words];
    let mut full = vec![0u64; full_words];
    for ((_, expr), col) in basis.iter().zip(var_cols.chunks_mut(words)) {
        for (w, word) in full.iter_mut().enumerate() {
            *word = eval_word(expr, w);
        }
        pack(&full, &mask, col);
    }
    let var_col = |i: usize| &var_cols[i * words..(i + 1) * words];
    let fresh = |i: usize| !group_set.contains(basis[i].0);
    // The constant 1 takes slot 0, so "≡ 1" relations surface as
    // XOR-with-1. `slot_products[s]` is the product monomial of slot `s`;
    // bit `s` of `fresh_slots` marks a single fresh leader.
    let mut elim = Eliminator::new(words);
    let mut ones = vec![u64::MAX; words];
    if !rows.is_multiple_of(64) {
        ones[words - 1] = (1u64 << (rows % 64)) - 1;
    }
    let inserted = elim.insert(&ones);
    debug_assert!(inserted.is_none(), "the constant column is nonzero");
    let mut slot_products: Vec<Monomial> = vec![Monomial::one()];
    let mut fresh_slots = vec![0u64; words];
    let mut found = Vec::new();
    // `subset` holds the product's basis indices, ascending; `prefix`
    // holds the column of each prefix of it (the last is the product's).
    let depth = cfg.identity_product_depth.min(m);
    let mut subset: Vec<usize> = Vec::with_capacity(depth);
    let mut prefix = vec![0u64; depth * words];
    for d in 1..=depth {
        subset.clear();
        subset.extend(0..d);
        // Prefix columns from position `from` on are stale.
        let mut from = 0;
        loop {
            for t in from..d {
                let (done, rest) = prefix.split_at_mut(t * words);
                let col = &mut rest[..words];
                col.copy_from_slice(var_col(subset[t]));
                if t > 0 {
                    for (a, b) in col.iter_mut().zip(&done[(t - 1) * words..]) {
                        *a &= b;
                    }
                }
            }
            let single_fresh = d == 1 && fresh(subset[0]);
            let product = || Monomial::from_vars(subset.iter().map(|&i| basis[i].0));
            match elim.insert(&prefix[(d - 1) * words..d * words]) {
                None => {
                    let slot = slot_products.len();
                    if single_fresh {
                        fresh_slots[slot / 64] |= 1 << (slot % 64);
                    }
                    slot_products.push(product());
                }
                Some(combination) => {
                    let wanted = match search {
                        Search::All => true,
                        Search::Substitutions => {
                            single_fresh
                                || combination
                                    .iter()
                                    .zip(&fresh_slots)
                                    .any(|(c, f)| c & f != 0)
                        }
                    };
                    if wanted {
                        let mut terms = vec![product()];
                        for (w, &c) in combination.iter().enumerate() {
                            let mut c = c;
                            while c != 0 {
                                terms.push(
                                    slot_products[w * 64 + c.trailing_zeros() as usize].clone(),
                                );
                                c &= c - 1;
                            }
                        }
                        // Distinct subsets of distinct leaders are distinct
                        // monomials: nothing cancels, sorting is enough.
                        terms.sort_unstable();
                        found.push(FoundIdentity {
                            expr: Anf::from_canonical_terms(terms),
                        });
                    }
                }
            }
            // Next subset of size `d` in lexicographic order: bump the
            // rightmost index with room, reset the ones after it.
            let Some(t) = (0..d).rev().find(|&t| subset[t] < m - d + t) else {
                break;
            };
            subset[t] += 1;
            for u in t + 1..d {
                subset[u] = subset[u - 1] + 1;
            }
            from = t;
        }
    }
    found
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::gf2::Insert;
    use pd_anf::VarPool;

    fn setup_counter4() -> (VarPool, Vec<Var>, Vec<(Var, Anf)>) {
        // The paper's §5.5 example: majority-of-7 first group {a1..a4}
        // yields the elementary symmetric basis s1..s4 of a 4-bit counter.
        let mut pool = VarPool::new();
        let a: Vec<Var> = (0..4)
            .map(|i| pool.input(&format!("a{}", i + 1), 0, i))
            .collect();
        let e1 = Anf::parse("a1 ^ a2 ^ a3 ^ a4", &mut pool).unwrap();
        let e2 = Anf::parse("a1*a2 ^ a1*a3 ^ a1*a4 ^ a2*a3 ^ a2*a4 ^ a3*a4", &mut pool).unwrap();
        let e3 = Anf::parse("a1*a2*a3 ^ a1*a2*a4 ^ a1*a3*a4 ^ a2*a3*a4", &mut pool).unwrap();
        let e4 = Anf::parse("a1*a2*a3*a4", &mut pool).unwrap();
        let s: Vec<Var> = (1..=4).map(|i| pool.derived(&format!("s{i}"), 1)).collect();
        let basis = vec![(s[0], e1), (s[1], e2), (s[2], e3), (s[3], e4)];
        (pool, a, basis)
    }

    #[test]
    fn majority_identities_from_paper() {
        // Paper finds: s3 ⊕ s1s2 = 0, s1s4 = 0, s2s4 = 0, s3s4 = 0.
        let (mut pool, a, basis) = setup_counter4();
        let store = IdentityStore::new();
        let cfg = PdConfig::default();
        let found = find_identities(&basis, &a, &store, &cfg, Search::All);
        let exprs: Vec<Anf> = found.iter().map(|f| f.expr.clone()).collect();
        let expect = [
            "s3 ^ s1*s2",
            "s1*s4 ^ s4", // s1s4 = s4 (s4 ⇒ all ones ⇒ s1 = 0 actually: s4=1 ⇒ s1=0 ⇒ s1s4=0=..)
        ];
        let _ = expect;
        // The substitution s3 = s1*s2 must be found:
        let want_sub = Anf::parse("s3 ^ s1*s2", &mut pool).unwrap();
        assert!(
            exprs.contains(&want_sub),
            "expected {:?} among {:?}",
            want_sub,
            exprs
        );
        // And the zero-products involving s4 must be derivable: every found
        // identity must actually hold on all 16 assignments.
        for f in &found {
            for assign in 0..16u32 {
                let val = |v: Var| -> bool {
                    if let Some(j) = a.iter().position(|&g| g == v) {
                        return assign >> j & 1 == 1;
                    }
                    let bi = basis.iter().position(|&(bv, _)| bv == v).unwrap();
                    basis[bi].1.eval(|q| {
                        let j = a.iter().position(|&g| g == q).unwrap();
                        assign >> j & 1 == 1
                    })
                };
                assert!(!f.expr.eval(val), "identity {:?} violated", f.expr);
            }
        }
    }

    #[test]
    fn zero_product_reduction() {
        let mut pool = VarPool::new();
        let az = Anf::parse("a*z", &mut pool).unwrap();
        let mut store = IdentityStore::new();
        store.add(az);
        let x = Anf::parse("a*z*p ^ a*q ^ z", &mut pool).unwrap();
        let reduced = store.reduce(&x);
        assert_eq!(reduced, Anf::parse("a*q ^ z", &mut pool).unwrap());
    }

    #[test]
    fn var_nullspace_from_identities() {
        let mut pool = VarPool::new();
        let az = Anf::parse("a*z", &mut pool).unwrap();
        let mut store = IdentityStore::new();
        store.add(az);
        let a = pool.find("a").unwrap();
        let z = pool.find("z").unwrap();
        let n_a = store.var_nullspace(a);
        assert_eq!(n_a.gens(), &[Anf::var(z)]);
        let n_z = store.var_nullspace(z);
        assert_eq!(n_z.gens(), &[Anf::var(a)]);
    }

    #[test]
    fn restricted_assignments_shrink_search() {
        // With constraint a*b = 0 the pair (1,1) is excluded, so a ⊕ b ⊕ ab
        // ≡ a ⊕ b on admissible assignments: identity (s_or ⊕ s_xor) found.
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut store = IdentityStore::new();
        store.add(Anf::parse("a*b", &mut pool).unwrap());
        let s_or = pool.derived("t_or", 1);
        let s_xor = pool.derived("t_xor", 1);
        let basis = vec![
            (s_or, Anf::parse("a ^ b ^ a*b", &mut pool).unwrap()),
            (s_xor, Anf::parse("a ^ b", &mut pool).unwrap()),
        ];
        let cfg = PdConfig::default();
        let found = find_identities(&basis, &[a, b], &store, &cfg, Search::All);
        let want = Anf::var(s_or).xor(&Anf::var(s_xor));
        assert!(found.iter().any(|f| f.expr == want), "got {found:?}");
    }

    #[test]
    fn drop_vars_removes_stale_identities() {
        let mut pool = VarPool::new();
        let e = Anf::parse("a*b", &mut pool).unwrap();
        let mut store = IdentityStore::new();
        store.add(e);
        let a = pool.find("a").unwrap();
        let dropped: VarSet = [a].into_iter().collect();
        store.drop_vars(&dropped);
        assert!(store.is_empty());
    }

    /// xorshift64: the seeded stream behind the reference comparisons.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random expression over `vars` with up to `max_terms` terms.
    fn random_anf(vars: &[Var], max_terms: u64, state: &mut u64) -> Anf {
        let n_terms = 1 + next(state) % max_terms;
        Anf::from_terms(
            (0..n_terms)
                .map(|_| {
                    let mask = next(state);
                    Monomial::from_vars(
                        (0..vars.len())
                            .filter(|&i| mask >> i & 1 == 1)
                            .map(|i| vars[i]),
                    )
                })
                .collect(),
        )
    }

    /// Whether `expr` has a degree-1 term naming a leader outside `group`.
    fn substitution_capable(expr: &Anf, group: &[Var]) -> bool {
        expr.terms()
            .any(|t| t.degree() == 1 && t.vars().all(|v| !group.contains(&v)))
    }

    /// Both search modes on one case: full mode must match the reference
    /// identity for identity, and trial mode must return exactly the
    /// substitution-capable subsequence of full mode, in order. Returns
    /// the identity count of each mode.
    fn check_modes(
        basis: &[(Var, Anf)],
        group: &[Var],
        store: &IdentityStore,
        cfg: &PdConfig,
        case: &str,
    ) -> (usize, usize) {
        let all = find_identities(basis, group, store, cfg, Search::All);
        let slow = reference::find_identities(basis, group, store, cfg);
        assert_eq!(all, slow, "{case}: basis {basis:?}");
        let trial = find_identities(basis, group, store, cfg, Search::Substitutions);
        let capable: Vec<FoundIdentity> = all
            .iter()
            .filter(|f| substitution_capable(&f.expr, group))
            .cloned()
            .collect();
        assert_eq!(trial, capable, "{case}: trial mode, basis {basis:?}");
        (all.len(), trial.len())
    }

    #[test]
    fn identity_search_matches_reference() {
        // Random bases over 2–8 group variables under random known
        // constraints: 7 and 8 variables give multi-word columns, and
        // constraints leave gaps for the packing to close. Full mode must
        // report the reference's identities in the same order, and trial
        // mode their substitution-capable subsequence. On the reference's
        // own columns the eliminator must agree with the reference matrix
        // insert for insert (its slots mapped back to insertion indices),
        // with every combination XOR-ing to its vector.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let (mut found_total, mut trial_total, mut multi_word) = (0, 0, 0);
        for case in 0..400 {
            let n = 2 + (case % 7);
            let group: Vec<Var> = (0..n as u32).map(|i| Var(3 * i + 1)).collect();
            let mut store = IdentityStore::new();
            for _ in 0..next(&mut state) % 4 {
                let c = if next(&mut state).is_multiple_of(2) {
                    // A zero product of two or three group variables.
                    let a = group[(next(&mut state) % n as u64) as usize];
                    let b = group[(next(&mut state) % n as u64) as usize];
                    Anf::var(a).and(&Anf::var(b))
                } else {
                    random_anf(&group, 3, &mut state)
                };
                store.add(c);
            }
            // An identity outside the group must not restrict anything.
            store.add(Anf::var(Var(1000)).and(&Anf::var(group[0])));
            let m = 1 + (next(&mut state) % 6) as usize;
            let mut basis: Vec<(Var, Anf)> = Vec::new();
            for j in 0..m {
                let expr = match next(&mut state) % 4 {
                    // A passthrough leader: a group literal naming itself.
                    0 => {
                        let g = group[j % n];
                        if basis.iter().any(|(v, _)| *v == g) {
                            continue;
                        }
                        basis.push((g, Anf::var(g)));
                        continue;
                    }
                    // A combination of earlier leaders, forcing a dependency.
                    1 if !basis.is_empty() => {
                        let a = &basis[(next(&mut state) % basis.len() as u64) as usize].1;
                        let b = &basis[(next(&mut state) % basis.len() as u64) as usize].1;
                        a.xor(&a.and(b))
                    }
                    _ => random_anf(&group, 6, &mut state),
                };
                basis.push((Var(200 + j as u32), expr));
            }
            let cfg = PdConfig {
                identity_product_depth: 1 + (case % 3),
                ..PdConfig::default()
            };
            let (all, trial) = check_modes(&basis, &group, &store, &cfg, &format!("case {case}"));
            found_total += all;
            trial_total += trial;

            let cols = reference::columns(&basis, &group, &store, &cfg);
            let Some((_, ones)) = cols.first() else {
                continue;
            };
            multi_word += usize::from(ones.len() > 1);
            let mut elim = Eliminator::new(ones.len());
            let mut old = reference::ReferenceGf2Matrix::new(ones.len() * 64);
            // Insertion index of each slot.
            let mut independent: Vec<usize> = Vec::new();
            for (i, (_, col)) in cols.iter().enumerate() {
                let got = match elim.insert(col) {
                    None => {
                        independent.push(i);
                        Insert::Independent
                    }
                    Some(slots) => Insert::Dependent {
                        combination: (0..independent.len())
                            .filter(|&s| slots[s / 64] >> (s % 64) & 1 == 1)
                            .map(|s| independent[s])
                            .collect(),
                    },
                };
                assert_eq!(got, old.insert_bits(col), "case {case}: insert {i}");
                if let Insert::Dependent { combination } = got {
                    let mut acc = vec![0u64; col.len()];
                    for &j in &combination {
                        for (a, b) in acc.iter_mut().zip(&cols[j].1) {
                            *a ^= b;
                        }
                    }
                    assert_eq!(&acc, col, "case {case}: combination {combination:?}");
                }
            }
        }
        assert!(
            found_total > 100,
            "too few identities exercised: {found_total}"
        );
        assert!(
            trial_total > 20 && trial_total < found_total,
            "trial mode kept {trial_total} of {found_total} identities"
        );
        assert!(multi_word > 20, "too few multi-word cases: {multi_word}");
    }

    #[test]
    fn identity_search_spans_words_at_k7() {
        // A k = 7 group without constraints: 128 rows, two-word columns
        // and combinations, the elementary symmetric basis of a 7-bit
        // counter (a dependent product for every pair past the rank), a
        // passthrough and two leaders that substitute.
        let mut pool = VarPool::new();
        let a: Vec<Var> = (0..7).map(|i| pool.input(&format!("a{i}"), 0, i)).collect();
        let sym = |d: usize| {
            Anf::from_terms(
                (0u32..128)
                    .filter(|m| m.count_ones() as usize == d)
                    .map(|m| Monomial::from_vars((0..7).filter(|i| m >> i & 1 == 1).map(|i| a[i])))
                    .collect(),
            )
        };
        let mut basis: Vec<(Var, Anf)> = (1..=7)
            .map(|d| (pool.derived(&format!("s{d}"), 1), sym(d)))
            .collect();
        basis.push((a[0], Anf::var(a[0])));
        let s1 = basis[0].1.clone();
        basis.push((pool.derived("t", 1), s1.and(&Anf::var(a[0]))));
        basis.push((pool.derived("u", 1), s1.xor(&Anf::var(a[0]))));
        let cfg = PdConfig::default();
        let (all, trial) = check_modes(&basis, &a, &IdentityStore::new(), &cfg, "k = 7");
        assert!(all > 20 && trial > 0 && trial < all, "{trial} of {all}");
    }

    #[test]
    fn constant_one_identities() {
        // Basis element that is constant 1 on all assignments: s ⊕ 1 = 0.
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let s = pool.derived("s", 1);
        let tautology = Anf::parse("a ^ a ^ 1", &mut pool).unwrap();
        let basis = vec![(s, tautology)];
        let found = find_identities(
            &basis,
            &[a],
            &IdentityStore::new(),
            &PdConfig::default(),
            Search::All,
        );
        let want = Anf::var(s).xor(&Anf::one());
        assert!(found.iter().any(|f| f.expr == want));
    }
}
