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

use crate::config::PdConfig;
use pd_anf::gf2::{Gf2Matrix, Insert};
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

/// Discovers identities among `basis`: `basis[i].0` is the fresh variable
/// naming expression `basis[i].1` (over `group` variables).
///
/// Assignments of `group` violating a known identity (with support inside
/// the group) are excluded. Products of up to `cfg.identity_product_depth`
/// basis variables are enumerated, plus the constant 1; every GF(2)
/// dependency among their value columns is returned.
///
/// Value columns are built bit-parallel: every expression is evaluated
/// with [`Anf::eval64`] over all `2ⁿ` group assignments, 64 at a time,
/// and the admissible rows are packed out of that. An identity's [`Anf`]
/// is only built for a product that turns out dependent.
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
) -> Vec<FoundIdentity> {
    assert!(group.len() <= 24, "group too large for identity search");
    if basis.is_empty() {
        return Vec::new();
    }
    let group_set: VarSet = group.iter().copied().collect();
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
    // Enumerate product subsets up to the configured depth, smallest first
    // so substitutions prefer low-degree right-hand sides. A level is only
    // built when the depth reaches it.
    let depth = cfg.identity_product_depth;
    let mut subsets: Vec<Vec<usize>> = Vec::new();
    let mut frontier: Vec<Vec<usize>> = (0..m).map(|i| vec![i]).collect();
    for d in 1..=depth {
        let mut next = Vec::new();
        if d < depth {
            for s in &frontier {
                let last = *s.last().expect("nonempty");
                for j in last + 1..m {
                    let mut t = s.clone();
                    t.push(j);
                    next.push(t);
                }
            }
        }
        subsets.append(&mut frontier);
        frontier = next;
    }
    // The constant 1 is inserted first so "≡ 1" relations surface as
    // XOR-with-1. `independent[i]` is the product monomial of insertion
    // `i` when it was independent: a dependency only ever names those.
    let mut independent: Vec<Option<Monomial>> = vec![Some(Monomial::one())];
    let mut ones = vec![u64::MAX; words];
    if !rows.is_multiple_of(64) {
        ones[words - 1] = (1u64 << (rows % 64)) - 1;
    }
    let mut matrix = Gf2Matrix::new(rows);
    matrix.insert_bits(&ones);
    let mut found = Vec::new();
    let mut col = vec![0u64; words];
    for s in &subsets {
        col.copy_from_slice(&ones);
        for &bi in s {
            for (w, v) in col.iter_mut().zip(&var_cols[bi * words..(bi + 1) * words]) {
                *w &= v;
            }
        }
        let product = Monomial::from_vars(s.iter().map(|&bi| basis[bi].0));
        match matrix.insert_bits(&col) {
            Insert::Independent => independent.push(Some(product)),
            Insert::Dependent { combination } => {
                let mut terms = vec![product];
                terms.extend(
                    combination
                        .iter()
                        .map(|&i| independent[i].clone().expect("combination of independents")),
                );
                let expr = Anf::from_terms(terms);
                if !expr.is_zero() {
                    found.push(FoundIdentity { expr });
                }
                independent.push(None);
            }
        }
    }
    found
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::VarPool;

    fn setup_counter4() -> (VarPool, Vec<Var>, Vec<(Var, Anf)>) {
        // The paper's §5.5 example: majority-of-7 first group {a1..a4}
        // yields the elementary symmetric basis s1..s4 of a 4-bit counter.
        let mut pool = VarPool::new();
        let a: Vec<Var> = (0..4).map(|i| pool.input(&format!("a{}", i + 1), 0, i)).collect();
        let e1 = Anf::parse("a1 ^ a2 ^ a3 ^ a4", &mut pool).unwrap();
        let e2 = Anf::parse("a1*a2 ^ a1*a3 ^ a1*a4 ^ a2*a3 ^ a2*a4 ^ a3*a4", &mut pool).unwrap();
        let e3 =
            Anf::parse("a1*a2*a3 ^ a1*a2*a4 ^ a1*a3*a4 ^ a2*a3*a4", &mut pool).unwrap();
        let e4 = Anf::parse("a1*a2*a3*a4", &mut pool).unwrap();
        let s: Vec<Var> = (1..=4).map(|i| pool.derived(&format!("s{i}"), 1)).collect();
        let basis = vec![
            (s[0], e1),
            (s[1], e2),
            (s[2], e3),
            (s[3], e4),
        ];
        (pool, a, basis)
    }

    #[test]
    fn majority_identities_from_paper() {
        // Paper finds: s3 ⊕ s1s2 = 0, s1s4 = 0, s2s4 = 0, s3s4 = 0.
        let (mut pool, a, basis) = setup_counter4();
        let store = IdentityStore::new();
        let cfg = PdConfig::default();
        let found = find_identities(&basis, &a, &store, &cfg);
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
        let found = find_identities(&basis, &[a, b], &store, &cfg);
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
                        (0..vars.len()).filter(|&i| mask >> i & 1 == 1).map(|i| vars[i]),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn identity_search_matches_reference() {
        // Random bases over 2–8 group variables under random known
        // constraints: 7 and 8 variables give multi-word columns, and
        // constraints leave gaps for the packing to close. Both searches
        // must report the same identities in the same order, and on the
        // reference's own columns both matrices must agree insert for
        // insert, with every combination XOR-ing to its vector.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let (mut found_total, mut multi_word) = (0, 0);
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
            let fast = find_identities(&basis, &group, &store, &cfg);
            let slow = reference::find_identities(&basis, &group, &store, &cfg);
            assert_eq!(fast, slow, "case {case}: basis {basis:?}");
            found_total += fast.len();

            let cols = reference::columns(&basis, &group, &store, &cfg);
            let Some((_, ones)) = cols.first() else {
                continue;
            };
            multi_word += usize::from(ones.len() > 1);
            let mut new = Gf2Matrix::new(ones.len() * 64);
            let mut old = reference::ReferenceGf2Matrix::new(ones.len() * 64);
            for (i, (_, col)) in cols.iter().enumerate() {
                let got = new.insert_bits(col);
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
        assert!(multi_word > 20, "too few multi-word cases: {multi_word}");
    }

    #[test]
    fn constant_one_identities() {
        // Basis element that is constant 1 on all assignments: s ⊕ 1 = 0.
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let s = pool.derived("s", 1);
        let tautology = Anf::parse("a ^ a ^ 1", &mut pool).unwrap();
        let basis = vec![(s, tautology)];
        let found = find_identities(&basis, &[a], &IdentityStore::new(), &PdConfig::default());
        let want = Anf::var(s).xor(&Anf::one());
        assert!(found.iter().any(|f| f.expr == want));
    }
}
