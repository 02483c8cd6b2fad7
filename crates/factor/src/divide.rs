//! Weak (algebraic) division of covers.
//!
//! `divide(f, d)` returns `(q, r)` with `f = q·d + r` *as cube sets*:
//! every cube of the product `q·d` is literally present in `f`. This is
//! the division underlying kernel extraction in multi-level logic
//! synthesis (Brayton & McMullen). Because it never invokes Boolean
//! identities, it cannot see through XOR structure — the weakness on
//! arithmetic circuits that motivates Progressive Decomposition.

use crate::cover::{Cover, Cube};
use pd_anf::{Anf, Monomial};
use std::collections::BTreeSet;

/// Algebraic division of `f` by a single cube.
///
/// Returns `(quotient, remainder)`; the quotient collects `c / d` for
/// every cube `c` of `f` divisible by `d`, the remainder the rest.
pub fn divide_cube(f: &Cover, d: &Cube) -> (Cover, Cover) {
    let mut q = Vec::new();
    let mut r = Vec::new();
    for c in f.cubes() {
        match d.quotient_of(c) {
            Some(qc) => q.push(qc),
            None => r.push(c.clone()),
        }
    }
    (Cover::from_cubes(q), Cover::from_cubes(r))
}

/// Weak division of `f` by a multi-cube divisor.
///
/// The quotient is the intersection over the divisor's cubes `dᵢ` of the
/// per-cube quotients `{c/dᵢ : dᵢ | c ∈ f}`; the remainder is
/// `f − q·d` (a cube-set difference, never a Boolean complement).
///
/// # Examples
///
/// ```
/// use pd_anf::VarPool;
/// use pd_factor::{divide, Cover, Cube, Lit};
/// let mut pool = VarPool::new();
/// let v: Vec<_> = ["a", "b", "c", "d", "e"]
///     .iter()
///     .map(|n| pool.var_or_input(n))
///     .collect();
/// let cube = |ix: &[usize]| Cube::new(ix.iter().map(|&i| Lit::pos(v[i])));
/// // f = ac + ad + bc + bd + e,  d = a + b  ⇒  q = c + d, r = e
/// let f = Cover::from_cubes([cube(&[0, 2]), cube(&[0, 3]), cube(&[1, 2]), cube(&[1, 3]), cube(&[4])]);
/// let div = Cover::from_cubes([cube(&[0]), cube(&[1])]);
/// let (q, r) = divide(&f, &div);
/// assert_eq!(q, Cover::from_cubes([cube(&[2]), cube(&[3])]));
/// assert_eq!(r, Cover::from_cubes([cube(&[4])]));
/// ```
pub fn divide(f: &Cover, d: &Cover) -> (Cover, Cover) {
    if d.is_zero() {
        return (Cover::zero(), f.clone());
    }
    let mut quotient: Option<BTreeSet<Cube>> = None;
    for di in d.cubes() {
        let qi: BTreeSet<Cube> = f.cubes().iter().filter_map(|c| di.quotient_of(c)).collect();
        quotient = Some(match quotient {
            None => qi,
            Some(prev) => prev.intersection(&qi).cloned().collect(),
        });
        if quotient.as_ref().is_some_and(BTreeSet::is_empty) {
            break;
        }
    }
    let q = Cover::from_cubes(quotient.unwrap_or_default());
    if q.is_zero() {
        return (q, f.clone());
    }
    let qd = q.mul(d);
    let r = f.without(&qd);
    (q, r)
}

/// Reconstructs `q·d + r` as a cover — the right-hand side of the
/// division identity, used by tests and by network flattening.
pub fn recompose(q: &Cover, d: &Cover, r: &Cover) -> Cover {
    q.mul(d).or(r)
}

/// GF(2) algebraic division: splits `f = q·d ⊕ r` over Reed–Muller
/// forms — the XOR-domain analogue of [`divide`], used by the
/// workspace-wide [`crate::GlobalNetwork`].
///
/// The quotient collects every monomial `m`, disjoint from `d`'s
/// support, such that `m·dᵢ` is literally a term of `f` for **every**
/// term `dᵢ` of `d`. The remainder is then *defined* as `r = f ⊕ q·d`,
/// which makes the division identity exact by construction for any
/// quotient — correctness of a rewrite never depends on the quotient
/// heuristic, only its profitability does.
///
/// # Examples
///
/// ```
/// use pd_anf::{Anf, VarPool};
/// use pd_factor::anf_divide;
/// let mut pool = VarPool::new();
/// let f = Anf::parse("x*a ^ x*b*c ^ y*a ^ y*b*c ^ z", &mut pool).unwrap();
/// let d = Anf::parse("a ^ b*c", &mut pool).unwrap();
/// let (q, r) = anf_divide(&f, &d);
/// assert_eq!(q, Anf::parse("x ^ y", &mut pool).unwrap());
/// assert_eq!(r, Anf::parse("z", &mut pool).unwrap());
/// assert_eq!(q.and(&d).xor(&r), f);
/// ```
pub fn anf_divide(f: &Anf, d: &Anf) -> (Anf, Anf) {
    let Some(d0) = d.terms().next() else {
        return (Anf::zero(), f.clone());
    };
    if d.is_one() {
        return (f.clone(), Anf::zero());
    }
    let dsup = d.support();
    let mut q_terms: Vec<Monomial> = Vec::new();
    for t in f.terms() {
        if !d0.divides(t) {
            continue;
        }
        let (_, m) = t.split(&d0.var_set());
        if m.intersects(&dsup) {
            continue;
        }
        if d.terms().all(|di| f.contains_term(&m.mul(di))) {
            q_terms.push(m);
        }
    }
    q_terms.sort_unstable();
    q_terms.dedup();
    let q = Anf::from_terms(q_terms);
    if q.is_zero() {
        return (q, f.clone());
    }
    let r = f.xor(&q.and(d));
    (q, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::Lit;
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

    #[test]
    fn textbook_division() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "ac + ad + bc + bd + e");
        let d = cover(&mut pool, "a + b");
        let (q, r) = divide(&f, &d);
        assert_eq!(q, cover(&mut pool, "c + d"));
        assert_eq!(r, cover(&mut pool, "e"));
        assert_eq!(recompose(&q, &d, &r), f);
    }

    #[test]
    fn division_identity_holds_even_with_partial_match() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "ac + bc + bd");
        let d = cover(&mut pool, "a + b");
        // Only c divides through both a and b: q = c, r = bd.
        let (q, r) = divide(&f, &d);
        assert_eq!(q, cover(&mut pool, "c"));
        assert_eq!(r, cover(&mut pool, "bd"));
        assert_eq!(recompose(&q, &d, &r), f);
    }

    #[test]
    fn division_by_nondivisor_returns_f_as_remainder() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "ab + cd");
        let d = cover(&mut pool, "e + f");
        let (q, r) = divide(&f, &d);
        assert!(q.is_zero());
        assert_eq!(r, f);
    }

    #[test]
    fn division_by_zero_and_one() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "ab + c");
        let (q, r) = divide(&f, &Cover::zero());
        assert!(q.is_zero());
        assert_eq!(r, f);
        let (q, r) = divide(&f, &Cover::one());
        assert_eq!(q, f, "dividing by 1 returns f itself");
        assert!(r.is_zero());
    }

    #[test]
    fn cube_division_splits_on_membership() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "abc + abd + ce");
        let ab = cover(&mut pool, "ab").cubes()[0].clone();
        let (q, r) = divide_cube(&f, &ab);
        assert_eq!(q, cover(&mut pool, "c + d"));
        assert_eq!(r, cover(&mut pool, "ce"));
    }

    #[test]
    fn negative_literals_are_independent_symbols() {
        // Algebraic division must NOT apply x·¬x = 0 or x+¬x = 1.
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "a!b + ab");
        let d = cover(&mut pool, "b + !b");
        let (q, r) = divide(&f, &d);
        assert_eq!(q, cover(&mut pool, "a"));
        assert!(r.is_zero());
        // But the result is NOT simplified to `a` — the quotient-divisor
        // pair still spends 4 literals where Boolean reasoning spends 1.
        assert_eq!(recompose(&q, &d, &r).literal_count(), 4);
    }

    #[test]
    fn division_is_sound_pointwise() {
        // f ⊇ q·d + r pointwise equal: recompose equals f exactly here.
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "xad + xbd + xc + y");
        let d = cover(&mut pool, "ad + bd + c");
        let (q, r) = divide(&f, &d);
        assert_eq!(q, cover(&mut pool, "x"));
        assert_eq!(r, cover(&mut pool, "y"));
        assert_eq!(recompose(&q, &d, &r), f);
    }
}
