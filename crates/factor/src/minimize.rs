//! Exact two-level minimisation (Quine–McCluskey with an
//! essential-then-greedy cover), the espresso role in a classical flow.
//!
//! Multi-level synthesis runs a two-level minimiser on every node before
//! and after restructuring; this module provides that for the node sizes
//! that occur here (supports up to ~16 variables). It is deliberately
//! the *table-based* exact method: primes are enumerated by iterative
//! combining, then a cover is chosen essential-first and greedily.

use crate::cover::{Cover, Cube, Lit};
use pd_anf::Var;
use std::collections::HashSet;

/// A product term over `n` variables in positional encoding: bit `i` of
/// `value` is the required polarity of variable `i` unless bit `i` of
/// `dont_care` is set (in which case the variable is absent).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Implicant {
    /// Required variable polarities (only meaningful where `dont_care`
    /// is 0).
    pub value: u32,
    /// Mask of variables absent from the product term.
    pub dont_care: u32,
}

impl Implicant {
    /// Returns `true` if the implicant covers the minterm.
    pub fn covers(&self, minterm: u32) -> bool {
        (minterm ^ self.value) & !self.dont_care == 0
    }

    /// Number of literals (over `n_vars` variables).
    pub fn literal_count(&self, n_vars: usize) -> usize {
        n_vars - (self.dont_care & mask(n_vars)).count_ones() as usize
    }
}

fn mask(n_vars: usize) -> u32 {
    if n_vars >= 32 {
        u32::MAX
    } else {
        (1u32 << n_vars) - 1
    }
}

/// All prime implicants of the on-set (Quine–McCluskey combining).
///
/// # Panics
///
/// Panics if `n_vars > 20` — table-based minimisation is meant for node
/// functions, not whole circuits.
pub fn prime_implicants(n_vars: usize, on_set: &[u32]) -> Vec<Implicant> {
    assert!(n_vars <= 20, "QM is for node-sized functions (≤ 20 vars)");
    let m = mask(n_vars);
    let mut current: HashSet<Implicant> = on_set
        .iter()
        .map(|&v| Implicant {
            value: v & m,
            dont_care: 0,
        })
        .collect();
    let mut primes: Vec<Implicant> = Vec::new();
    while !current.is_empty() {
        let mut combined: HashSet<Implicant> = HashSet::new();
        let mut used: HashSet<Implicant> = HashSet::new();
        let items: Vec<Implicant> = current.iter().copied().collect();
        // Bucket by number of set care bits so only adjacent buckets pair.
        let popcount = |imp: &Implicant| (imp.value & !imp.dont_care & m).count_ones();
        let mut buckets: std::collections::BTreeMap<u32, Vec<Implicant>> = Default::default();
        for imp in items {
            buckets.entry(popcount(&imp)).or_default().push(imp);
        }
        for (&ones, group) in &buckets {
            if let Some(next) = buckets.get(&(ones + 1)) {
                for a in group {
                    for b in next {
                        if a.dont_care != b.dont_care {
                            continue;
                        }
                        let diff = (a.value ^ b.value) & !a.dont_care;
                        if diff.count_ones() == 1 {
                            combined.insert(Implicant {
                                value: a.value & !diff,
                                dont_care: a.dont_care | diff,
                            });
                            used.insert(*a);
                            used.insert(*b);
                        }
                    }
                }
            }
        }
        for imp in &current {
            if !used.contains(imp) {
                primes.push(*imp);
            }
        }
        current = combined;
    }
    primes.sort_by_key(|p| (p.dont_care, p.value));
    primes
}

/// Chart sizes up to which the cover search is exact (branch and bound);
/// larger charts fall back to greedy selection.
const EXACT_PRIMES_LIMIT: usize = 48;
const EXACT_MINTERMS_LIMIT: usize = 96;

/// A minimum cover of the on-set: all essential primes, then an exact
/// branch-and-bound search on small residual charts (greedy
/// largest-coverage selection on large ones).
pub fn minimum_cover(n_vars: usize, on_set: &[u32]) -> Vec<Implicant> {
    let primes = prime_implicants(n_vars, on_set);
    if on_set.is_empty() {
        return Vec::new();
    }
    let mut chosen: Vec<Implicant> = Vec::new();
    let mut uncovered: Vec<u32> = {
        let set: HashSet<u32> = on_set.iter().map(|&v| v & mask(n_vars)).collect();
        set.into_iter().collect()
    };
    // Essential primes: the sole cover of some minterm.
    for &minterm in &uncovered.clone() {
        let covering: Vec<&Implicant> = primes.iter().filter(|p| p.covers(minterm)).collect();
        if covering.len() == 1 && !chosen.contains(covering[0]) {
            chosen.push(*covering[0]);
        }
    }
    uncovered.retain(|&mt| chosen.iter().all(|p| !p.covers(mt)));
    uncovered.sort_unstable();
    let residual_primes: Vec<Implicant> = primes
        .iter()
        .filter(|p| !chosen.contains(p) && uncovered.iter().any(|&mt| p.covers(mt)))
        .copied()
        .collect();
    if residual_primes.len() <= EXACT_PRIMES_LIMIT && uncovered.len() <= EXACT_MINTERMS_LIMIT {
        let mut best: Option<Vec<Implicant>> = None;
        let mut partial = Vec::new();
        branch_and_bound(&residual_primes, &uncovered, &mut partial, &mut best);
        chosen.extend(best.expect("primes cover the on-set"));
    } else {
        let mut uncovered: HashSet<u32> = uncovered.into_iter().collect();
        while !uncovered.is_empty() {
            let best = residual_primes
                .iter()
                .filter(|p| !chosen.contains(p))
                .max_by_key(|p| {
                    let gain = uncovered.iter().filter(|&&mt| p.covers(mt)).count();
                    (gain, p.dont_care.count_ones())
                })
                .copied()
                .expect("primes cover the on-set");
            uncovered.retain(|&mt| !best.covers(mt));
            chosen.push(best);
        }
    }
    chosen
}

/// Exact unate covering: repeatedly branch on the uncovered minterm with
/// the fewest covering primes, bounding by the best solution so far.
fn branch_and_bound(
    primes: &[Implicant],
    uncovered: &[u32],
    partial: &mut Vec<Implicant>,
    best: &mut Option<Vec<Implicant>>,
) {
    if uncovered.is_empty() {
        if best.as_ref().is_none_or(|b| partial.len() < b.len()) {
            *best = Some(partial.clone());
        }
        return;
    }
    if let Some(b) = best {
        if partial.len() + 1 >= b.len() {
            return; // even one more prime cannot beat the incumbent
        }
    }
    let (&branch_mt, _) = uncovered
        .iter()
        .map(|mt| (mt, primes.iter().filter(|p| p.covers(*mt)).count()))
        .min_by_key(|&(_, c)| c)
        .expect("nonempty");
    let candidates: Vec<Implicant> = primes
        .iter()
        .filter(|p| p.covers(branch_mt))
        .copied()
        .collect();
    for p in candidates {
        let remaining: Vec<u32> = uncovered
            .iter()
            .copied()
            .filter(|&mt| !p.covers(mt))
            .collect();
        partial.push(p);
        branch_and_bound(primes, &remaining, partial, best);
        partial.pop();
    }
}

/// Two-level minimisation of a [`Cover`]: enumerates the on-set over the
/// cover's support, runs Quine–McCluskey, and rebuilds a cover over the
/// same variables.
///
/// Returns the input unchanged when the support exceeds `max_support`
/// variables (table-based minimisation would not fit).
pub fn minimize_cover(f: &Cover, max_support: usize) -> Cover {
    let mut support: Vec<Var> = Vec::new();
    for cube in f.cubes() {
        for l in cube.lits() {
            if !support.contains(&l.var()) {
                support.push(l.var());
            }
        }
    }
    support.sort_unstable();
    let n = support.len();
    if n > max_support.min(20) {
        return f.clone();
    }
    if f.is_zero() {
        return Cover::zero();
    }
    if f.has_one_cube() {
        return Cover::one();
    }
    let on_set: Vec<u32> = (0..1u32 << n)
        .filter(|&bits| {
            f.eval(|v| {
                let i = support.binary_search(&v).expect("support variable");
                bits >> i & 1 == 1
            })
        })
        .collect();
    if on_set.len() == 1 << n {
        return Cover::one();
    }
    let cover = minimum_cover(n, &on_set);
    Cover::from_cubes(cover.into_iter().map(|imp| {
        Cube::new(support.iter().enumerate().filter_map(|(i, &v)| {
            if imp.dont_care >> i & 1 == 1 {
                None
            } else {
                Some(Lit::new(v, imp.value >> i & 1 == 1))
            }
        }))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::VarPool;

    fn cover(pool: &mut VarPool, s: &str) -> Cover {
        Cover::from_cubes(s.split('+').map(|part| {
            let part = part.trim();
            let mut lits = Vec::new();
            let mut neg = false;
            for ch in part.chars() {
                if ch == '!' {
                    neg = true;
                    continue;
                }
                let name = ch.to_string();
                let v = pool.find(&name).unwrap_or_else(|| pool.var_or_input(&name));
                lits.push(Lit::new(v, !neg));
                neg = false;
            }
            Cube::new(lits)
        }))
    }

    fn assert_equivalent(n: usize, a: &Cover, b: &Cover, support: &[pd_anf::Var]) {
        for bits in 0..1u32 << n {
            let assign = |v: pd_anf::Var| {
                let i = support.iter().position(|&q| q == v).unwrap();
                bits >> i & 1 == 1
            };
            assert_eq!(a.eval(assign), b.eval(assign), "bits {bits:b}");
        }
    }

    #[test]
    fn textbook_qm_example() {
        // f = Σm(0, 1, 2, 5, 6, 7) over 3 variables: the classic example
        // with a cyclic prime chart; minimal covers need 3 cubes of 2
        // literals.
        let on = [0u32, 1, 2, 5, 6, 7];
        let primes = prime_implicants(3, &on);
        assert_eq!(primes.len(), 6, "six primes, all 2-literal");
        assert!(primes.iter().all(|p| p.literal_count(3) == 2));
        let cover = minimum_cover(3, &on);
        assert_eq!(cover.len(), 3);
        for &mt in &on {
            assert!(cover.iter().any(|p| p.covers(mt)), "minterm {mt}");
        }
        for mt in [3u32, 4] {
            assert!(cover.iter().all(|p| !p.covers(mt)), "off minterm {mt}");
        }
    }

    #[test]
    fn xor_has_no_combinable_minterms() {
        // Parity's minterms differ in ≥ 2 positions: all primes are
        // minterms — the two-level form is irreducibly exponential.
        let on: Vec<u32> = (0..8).filter(|m: &u32| m.count_ones() % 2 == 1).collect();
        let primes = prime_implicants(3, &on);
        assert_eq!(primes.len(), 4);
        assert!(primes.iter().all(|p| p.dont_care == 0));
        assert_eq!(minimum_cover(3, &on).len(), 4);
    }

    #[test]
    fn full_on_set_collapses_to_tautology() {
        let on: Vec<u32> = (0..16).collect();
        let cover = minimum_cover(4, &on);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].dont_care, 0b1111);
        assert_eq!(cover[0].literal_count(4), 0);
    }

    #[test]
    fn empty_on_set_is_zero() {
        assert!(minimum_cover(4, &[]).is_empty());
        assert!(prime_implicants(4, &[]).is_empty());
    }

    #[test]
    fn minimize_cover_removes_redundancy() {
        let mut pool = VarPool::new();
        // ab + a!b = a; plus a distracting consensus term.
        let f = cover(&mut pool, "ab + a!b + bc + ac");
        let min = minimize_cover(&f, 16);
        let support: Vec<pd_anf::Var> = ["a", "b", "c"]
            .iter()
            .map(|n| pool.find(n).unwrap())
            .collect();
        assert_equivalent(3, &f, &min, &support);
        assert!(min.literal_count() < f.literal_count());
        // a + bc is the optimum (3 literals).
        assert_eq!(min.literal_count(), 3);
    }

    #[test]
    fn minimize_cover_on_majority_sop_is_a_fixpoint() {
        // The threshold SOP of majority is already prime and irredundant.
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "ab + bc + ca");
        let min = minimize_cover(&f, 16);
        assert_eq!(min, f);
    }

    #[test]
    fn oversized_support_is_left_alone() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "abcde + fghij");
        let min = minimize_cover(&f, 4);
        assert_eq!(min, f);
    }

    #[test]
    fn constants_minimise_to_constants() {
        assert_eq!(minimize_cover(&Cover::zero(), 16), Cover::zero());
        assert_eq!(minimize_cover(&Cover::one(), 16), Cover::one());
        let mut pool = VarPool::new();
        // x + !x is a tautology.
        let f = cover(&mut pool, "x + !x");
        assert_eq!(minimize_cover(&f, 16), Cover::one());
    }
}
