//! Literals, cubes and covers — the sum-of-products algebra underlying
//! kernel extraction.
//!
//! Algebraic factorisation treats a positive and a negative literal of
//! the same variable as *unrelated* symbols (no Boolean identities such
//! as `x·¬x = 0` are applied during division — that is exactly the
//! weakness on XOR-dominated circuits the paper exploits). The only
//! Boolean rule applied here is at construction time: a cube containing
//! both phases of a variable is contradictory and dropped from covers.

use pd_anf::{Anf, Var};
use pd_netlist::{Cube as SopCube, Sop};
use std::collections::BTreeMap;
use std::fmt;

/// A literal: a variable in positive or complemented phase.
///
/// Encoded densely (`2·var ⊕ phase`) so literal-indexed tables stay
/// compact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(u32);

impl Lit {
    /// The literal `v` (positive) or `¬v` (negative).
    pub fn new(var: Var, positive: bool) -> Self {
        Lit(var.0 << 1 | positive as u32)
    }

    /// The positive literal of `v`.
    pub fn pos(var: Var) -> Self {
        Self::new(var, true)
    }

    /// The complemented literal of `v`.
    pub fn neg(var: Var) -> Self {
        Self::new(var, false)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` for the positive phase.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index (`2·var ⊕ phase`) for literal-indexed tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// A product term: a sorted set of literals. The empty cube is the
/// constant `1`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Cube {
    lits: Vec<Lit>,
}

impl Cube {
    /// The constant-1 cube (empty product).
    pub fn one() -> Self {
        Cube::default()
    }

    /// Builds a cube from literals, sorting and deduplicating.
    pub fn new<I: IntoIterator<Item = Lit>>(lits: I) -> Self {
        let mut v: Vec<Lit> = lits.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Cube { lits: v }
    }

    /// The literals, in ascending order.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Returns `true` for the constant-1 cube.
    pub fn is_one(&self) -> bool {
        self.lits.is_empty()
    }

    /// Alias for [`Cube::is_one`], fulfilling the usual container idiom.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Returns `true` if the cube contains both phases of some variable
    /// (and therefore denotes the constant 0).
    pub fn is_contradictory(&self) -> bool {
        self.lits
            .windows(2)
            .any(|w| w[0].var() == w[1].var() && w[0] != w[1])
    }

    /// Returns `true` if `lit` occurs in the cube.
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.binary_search(&lit).is_ok()
    }

    /// Returns `true` if every literal of `self` occurs in `other`
    /// (i.e. `self` algebraically divides `other`).
    pub fn divides(&self, other: &Cube) -> bool {
        let mut it = other.lits.iter();
        'outer: for l in &self.lits {
            for o in it.by_ref() {
                match o.cmp(l) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// `other / self`: the cube with `self`'s literals removed, or `None`
    /// if `self` does not divide `other`.
    pub fn quotient_of(&self, other: &Cube) -> Option<Cube> {
        if !self.divides(other) {
            return None;
        }
        Some(Cube {
            lits: other
                .lits
                .iter()
                .copied()
                .filter(|l| !self.contains(*l))
                .collect(),
        })
    }

    /// The common literals of the two cubes.
    pub fn intersect(&self, other: &Cube) -> Cube {
        Cube {
            lits: self
                .lits
                .iter()
                .copied()
                .filter(|l| other.contains(*l))
                .collect(),
        }
    }

    /// Product of two cubes (idempotent literal union); `None` when the
    /// result would be contradictory.
    pub fn mul(&self, other: &Cube) -> Option<Cube> {
        let c = Cube::new(self.lits.iter().chain(other.lits.iter()).copied());
        if c.is_contradictory() {
            None
        } else {
            Some(c)
        }
    }

    /// The cube's value under a point assignment.
    pub fn eval(&self, assignment: impl Fn(Var) -> bool) -> bool {
        self.lits
            .iter()
            .all(|l| assignment(l.var()) == l.is_positive())
    }

    /// The cube as an ANF product of `v` / `1⊕v` factors.
    pub fn to_anf(&self) -> Anf {
        let mut acc = Anf::one();
        for &l in &self.lits {
            let f = if l.is_positive() {
                Anf::var(l.var())
            } else {
                Anf::var(l.var()).not()
            };
            acc = acc.and(&f);
        }
        acc
    }
}

/// A sum (OR) of cubes with set semantics: sorted, duplicate-free.
///
/// The empty cover is the constant `0`; a cover containing the empty
/// cube is the constant `1` (after [`Cover::simplify_ones`]).
///
/// # Examples
///
/// ```
/// use pd_anf::VarPool;
/// use pd_factor::{Cover, Cube, Lit};
/// let mut pool = VarPool::new();
/// let a = pool.input("a", 0, 0);
/// let b = pool.input("b", 0, 1);
/// let f = Cover::from_cubes(vec![
///     Cube::new([Lit::pos(a), Lit::pos(b)]),
///     Cube::new([Lit::neg(a)]),
/// ]);
/// assert_eq!(f.cube_count(), 2);
/// assert_eq!(f.literal_count(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Cover {
    cubes: Vec<Cube>,
}

impl Cover {
    /// The constant-0 cover.
    pub fn zero() -> Self {
        Cover::default()
    }

    /// The constant-1 cover.
    pub fn one() -> Self {
        Cover {
            cubes: vec![Cube::one()],
        }
    }

    /// Builds a cover, dropping contradictory cubes, sorting and
    /// deduplicating.
    pub fn from_cubes<I: IntoIterator<Item = Cube>>(cubes: I) -> Self {
        let mut v: Vec<Cube> = cubes
            .into_iter()
            .filter(|c| !c.is_contradictory())
            .collect();
        v.sort_unstable();
        v.dedup();
        Cover { cubes: v }
    }

    /// Imports a [`pd_netlist::Sop`] description.
    pub fn from_sop(sop: &Sop) -> Self {
        Self::from_cubes(
            sop.0
                .iter()
                .map(|c| Cube::new(c.0.iter().map(|&(v, pol)| Lit::new(v, pol)))),
        )
    }

    /// Exports to a [`pd_netlist::Sop`] description.
    pub fn to_sop(&self) -> Sop {
        Sop(self
            .cubes
            .iter()
            .map(|c| {
                SopCube(
                    c.lits()
                        .iter()
                        .map(|l| (l.var(), l.is_positive()))
                        .collect(),
                )
            })
            .collect())
    }

    /// The cubes, in canonical order.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literal occurrences — the factorisation cost
    /// measure.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::len).sum()
    }

    /// Returns `true` for the constant-0 cover.
    pub fn is_zero(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Returns `true` if the cover contains the constant-1 cube (which
    /// makes the whole function 1).
    pub fn has_one_cube(&self) -> bool {
        self.cubes.first().is_some_and(Cube::is_one)
    }

    /// Returns `true` if the exact cube is present.
    pub fn contains_cube(&self, c: &Cube) -> bool {
        self.cubes.binary_search(c).is_ok()
    }

    /// Occurrence count of every literal across the cover.
    pub fn lit_counts(&self) -> BTreeMap<Lit, usize> {
        let mut counts = BTreeMap::new();
        for cube in &self.cubes {
            for &l in cube.lits() {
                *counts.entry(l).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The largest cube dividing every cube of the cover (the
    /// intersection of all cubes); the constant-1 cube for the empty
    /// cover.
    pub fn common_cube(&self) -> Cube {
        let mut iter = self.cubes.iter();
        let Some(first) = iter.next() else {
            return Cube::one();
        };
        iter.fold(first.clone(), |acc, c| acc.intersect(c))
    }

    /// An expression is *cube-free* if no single non-trivial cube divides
    /// all of it. Kernels are the cube-free quotients of a cover; a
    /// single cube is never cube-free.
    pub fn is_cube_free(&self) -> bool {
        self.cubes.len() > 1 && self.common_cube().is_one()
    }

    /// Algebraic product with a cube; cubes turning contradictory vanish.
    pub fn mul_cube(&self, c: &Cube) -> Cover {
        Cover::from_cubes(self.cubes.iter().filter_map(|q| q.mul(c)))
    }

    /// Algebraic product of two covers.
    pub fn mul(&self, other: &Cover) -> Cover {
        let mut out = Vec::with_capacity(self.cubes.len() * other.cubes.len());
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.mul(b) {
                    out.push(c);
                }
            }
        }
        Cover::from_cubes(out)
    }

    /// Set union of the two cube lists (the OR of the functions).
    pub fn or(&self, other: &Cover) -> Cover {
        Cover::from_cubes(self.cubes.iter().chain(other.cubes.iter()).cloned())
    }

    /// Set difference of cube lists (*not* a Boolean difference).
    pub fn without(&self, other: &Cover) -> Cover {
        Cover {
            cubes: self
                .cubes
                .iter()
                .filter(|c| !other.contains_cube(c))
                .cloned()
                .collect(),
        }
    }

    /// Removes cubes single-cube-contained in another cube of the cover
    /// (`ab + a = a`), a cheap SOP minimisation every flow performs.
    pub fn minimize_containment(&self) -> Cover {
        let mut keep: Vec<Cube> = Vec::with_capacity(self.cubes.len());
        // Cubes are deduplicated, so `d.divides(c)` with `d != c` is
        // strict containment; the quadratic scan is fine at these sizes.
        for (i, c) in self.cubes.iter().enumerate() {
            let redundant = self
                .cubes
                .iter()
                .enumerate()
                .any(|(j, d)| i != j && d.divides(c));
            if !redundant {
                keep.push(c.clone());
            }
        }
        Cover { cubes: keep }
    }

    /// If the constant-1 cube is present, the function is 1.
    pub fn simplify_ones(&self) -> Cover {
        if self.has_one_cube() {
            Cover::one()
        } else {
            self.clone()
        }
    }

    /// The cover's value under a point assignment (OR of cube ANDs).
    pub fn eval(&self, assignment: impl Fn(Var) -> bool) -> bool {
        self.cubes.iter().any(|c| c.eval(&assignment))
    }

    /// The minterm cover of an ANF expression, or `None` when the
    /// expression's support exceeds `max_support` variables (the truth
    /// table would not be affordable).
    ///
    /// The inverse direction of [`Cover::to_anf`] up to function
    /// equivalence: the produced cover is the disjoint minterm SOP, the
    /// flat two-level description an algebraic flow starts from.
    pub fn from_anf(expr: &Anf, max_support: usize) -> Option<Cover> {
        let vars: Vec<Var> = expr.support().iter().collect();
        if vars.len() > max_support {
            return None;
        }
        let tt = pd_anf::TruthTable::from_anf(expr, &vars);
        let cubes = (0..tt.len()).filter(|&i| tt.get(i)).map(|i| {
            Cube::new(
                vars.iter()
                    .enumerate()
                    .map(|(j, &v)| Lit::new(v, i >> j & 1 == 1)),
            )
        });
        Some(Cover::from_cubes(cubes))
    }

    /// The exact ANF of the cover, or `None` when the intermediate
    /// expansion exceeds `term_cap` monomials.
    pub fn to_anf(&self, term_cap: usize) -> Option<Anf> {
        let mut acc = Anf::zero();
        for cube in &self.cubes {
            acc = acc.or(&cube.to_anf());
            if acc.term_count() > term_cap {
                return None;
            }
        }
        Some(acc)
    }
}

impl FromIterator<Cube> for Cover {
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        Cover::from_cubes(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::VarPool;

    fn lits(pool: &mut VarPool, names: &[&str]) -> Vec<Lit> {
        names
            .iter()
            .map(|n| {
                let (name, pos) = match n.strip_prefix('!') {
                    Some(rest) => (rest, false),
                    None => (*n, true),
                };
                let v = pool.find(name).unwrap_or_else(|| pool.var_or_input(name));
                Lit::new(v, pos)
            })
            .collect()
    }

    fn cube(pool: &mut VarPool, names: &[&str]) -> Cube {
        Cube::new(lits(pool, names))
    }

    /// Parses `"ab + !cd + e"`-style cover notation (single-letter vars).
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
    fn lit_encoding_round_trips() {
        let v = Var(7);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_ne!(p, n);
        assert_ne!(p.index(), n.index());
    }

    #[test]
    fn cube_division() {
        let mut pool = VarPool::new();
        let abc = cube(&mut pool, &["a", "b", "c"]);
        let ab = cube(&mut pool, &["a", "b"]);
        let d = cube(&mut pool, &["d"]);
        assert!(ab.divides(&abc));
        assert!(!abc.divides(&ab));
        assert!(!d.divides(&abc));
        assert_eq!(ab.quotient_of(&abc), Some(cube(&mut pool, &["c"])));
        assert_eq!(d.quotient_of(&abc), None);
        assert!(Cube::one().divides(&abc));
    }

    #[test]
    fn contradictory_cubes_vanish() {
        let mut pool = VarPool::new();
        let c = cube(&mut pool, &["a", "!a"]);
        assert!(c.is_contradictory());
        let f = Cover::from_cubes(vec![c, cube(&mut pool, &["b"])]);
        assert_eq!(f.cube_count(), 1);
        // Products creating a contradiction return None.
        let a = cube(&mut pool, &["a"]);
        let na = cube(&mut pool, &["!a"]);
        assert_eq!(a.mul(&na), None);
    }

    #[test]
    fn common_cube_and_cube_freeness() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "abc + abd");
        assert_eq!(f.common_cube(), cube(&mut pool, &["a", "b"]));
        assert!(!f.is_cube_free());
        let g = cover(&mut pool, "ab + cd");
        assert!(g.is_cube_free());
        let single = cover(&mut pool, "ab");
        assert!(!single.is_cube_free(), "a single cube is never cube-free");
    }

    #[test]
    fn cover_products_match_boolean_semantics() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "a + b");
        let g = cover(&mut pool, "c + !a");
        let p = f.mul(&g);
        let names: Vec<Var> = ["a", "b", "c"]
            .iter()
            .map(|n| pool.find(n).unwrap())
            .collect();
        for bits in 0..8u32 {
            let assign = |v: Var| {
                let i = names.iter().position(|&q| q == v).unwrap();
                bits >> i & 1 == 1
            };
            assert_eq!(
                p.eval(assign),
                f.eval(assign) && g.eval(assign),
                "bits {bits}"
            );
        }
    }

    #[test]
    fn containment_minimisation() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "a + ab + abc + d");
        let m = f.minimize_containment();
        assert_eq!(m, cover(&mut pool, "a + d"));
        // Idempotent.
        assert_eq!(m.minimize_containment(), m);
    }

    #[test]
    fn duplicate_cubes_are_merged() {
        let mut pool = VarPool::new();
        let c1 = cube(&mut pool, &["a", "b"]);
        let c2 = cube(&mut pool, &["b", "a"]);
        assert_eq!(c1, c2);
        let f = Cover::from_cubes(vec![c1, c2]);
        assert_eq!(f.cube_count(), 1);
    }

    #[test]
    fn sop_round_trip() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "a!b + c");
        let sop = f.to_sop();
        assert_eq!(Cover::from_sop(&sop), f);
        assert_eq!(sop.literal_count(), f.literal_count());
    }

    #[test]
    fn to_anf_matches_eval() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "a!b + bc + !a!c");
        let anf = f.to_anf(1 << 12).unwrap();
        let names: Vec<Var> = ["a", "b", "c"]
            .iter()
            .map(|n| pool.find(n).unwrap())
            .collect();
        for bits in 0..8u32 {
            let assign = |v: Var| {
                let i = names.iter().position(|&q| q == v).unwrap();
                bits >> i & 1 == 1
            };
            assert_eq!(anf.eval(assign), f.eval(assign));
        }
    }

    #[test]
    fn constants() {
        assert!(Cover::zero().is_zero());
        assert!(Cover::one().has_one_cube());
        assert_eq!(Cover::one().literal_count(), 0);
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "a");
        assert_eq!(f.or(&Cover::one()).simplify_ones(), Cover::one());
    }
}
