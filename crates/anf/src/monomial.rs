//! Product terms (monomials) of the Boolean ring.
//!
//! In the Boolean ring GF(2)[x₀,x₁,…]/(xᵢ² = xᵢ) a monomial is simply a
//! finite *set* of variables (idempotence collapses exponents), with the
//! empty set denoting the constant 1. [`Monomial`] stores every product
//! whose variable indices are all below 192 inline, as three `u64` words
//! (bit `i % 64` of word `i / 64` ⇔ `Var(i)`), so that the multi-million-
//! term expressions of wide comparators and adders, and the re-decomposed
//! lists of Reduce's close and arbitration runs, stay compact and never
//! allocate per term; a product with a larger index falls back to a
//! sorted boxed slice. Either way a monomial is 32 bytes.
//!
//! ## Order
//!
//! The total order (any fixed one keeps expressions canonical) has two
//! classes. Products with no variable at or above 128 come first, in
//! colex order: numeric order of their `u128` mask, which is what the
//! dense-key kernels of [`Anf`](crate::Anf) sort by. Products with a
//! variable at or above 128 follow, in lexicographic order of their
//! ascending index lists. Inline, that order is read off the lowest
//! differing bit `d`: the side holding `d` is smaller exactly when the
//! other side has a variable above `d` (otherwise the other side is a
//! prefix of it).

use crate::var::Var;
use crate::varset::{mask_key, InlineBits, VarSet, INLINE_VARS};
use std::cmp::Ordering;
use std::fmt;

/// A product of distinct variables; the empty product is the constant `1`.
///
/// Monomials are totally ordered (an arbitrary but fixed order used to keep
/// expressions canonical; see the module docs) and cheap to hash.
///
/// # Examples
///
/// ```
/// use pd_anf::{Monomial, Var};
/// let ab = Monomial::from_vars([Var(0), Var(1)]);
/// let bc = Monomial::from_vars([Var(1), Var(2)]);
/// // Idempotent multiplication: (ab)(bc) = abc
/// assert_eq!(ab.mul(&bc), Monomial::from_vars([Var(0), Var(1), Var(2)]));
/// assert_eq!(Monomial::one().degree(), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Monomial(Repr);

/// The storage of a [`Monomial`]. Exactly one form holds a given product,
/// so the derived `Eq` and `Hash` are the set's.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Every variable index below 192: bit `i % 64` of word `i / 64`.
    Inline([u64; 3]),
    /// Some variable index of 192 or more: sorted, deduplicated indices.
    Heap(Box<[u32]>),
}

use Repr::{Heap, Inline};

/// The inline words of the single variable `i < 192`.
#[inline]
fn bit_words(i: u32) -> [u64; 3] {
    let mut w = [0; 3];
    w[(i / 64) as usize] = 1 << (i % 64);
    w
}

impl Monomial {
    /// The constant monomial `1` (empty product).
    #[inline]
    pub fn one() -> Self {
        Monomial(Inline([0; 3]))
    }

    /// The monomial consisting of a single variable.
    #[inline]
    pub fn var(v: Var) -> Self {
        if v.0 < INLINE_VARS {
            Monomial(Inline(bit_words(v.0)))
        } else {
            Monomial(Heap(vec![v.0].into_boxed_slice()))
        }
    }

    /// Builds a monomial from an iterator of variables (duplicates collapse).
    pub fn from_vars<I: IntoIterator<Item = Var>>(vars: I) -> Self {
        let mut words = [0u64; 3];
        let mut spill: Vec<u32> = Vec::new();
        for v in vars {
            if v.0 < INLINE_VARS {
                words[(v.0 / 64) as usize] |= 1 << (v.0 % 64);
            } else {
                spill.push(v.0);
            }
        }
        if spill.is_empty() {
            return Monomial(Inline(words));
        }
        spill.sort_unstable();
        spill.dedup();
        let mut all: Vec<u32> = InlineBits::new(words).collect();
        all.extend_from_slice(&spill);
        Monomial(Heap(all.into_boxed_slice()))
    }

    /// The monomial of ascending, distinct indices `vars`.
    fn from_sorted(vars: Vec<u32>) -> Monomial {
        if vars.last().is_some_and(|&m| m >= INLINE_VARS) {
            Monomial(Heap(vars.into_boxed_slice()))
        } else {
            let mut words = [0u64; 3];
            for i in vars {
                words[(i / 64) as usize] |= 1 << (i % 64);
            }
            Monomial(Inline(words))
        }
    }

    /// Returns `true` for the constant monomial `1`.
    #[inline]
    pub fn is_one(&self) -> bool {
        matches!(self.0, Inline([0, 0, 0]))
    }

    /// The `u128` bitmask when all variable indices are below 128.
    ///
    /// This is the dense product key the arithmetic fast paths operate
    /// on: `a.mul(b)` of two such monomials is exactly
    /// `Monomial::from_mask(a_mask | b_mask)`, and masks order as the
    /// monomials do.
    #[inline]
    pub fn as_small(&self) -> Option<u128> {
        match &self.0 {
            Inline(w) if w[2] == 0 => Some(mask_key(w)),
            _ => None,
        }
    }

    /// Builds a monomial directly from its bitmask over `Var(0..128)`
    /// (bit *i* ⇔ `Var(i)`).
    #[inline]
    pub fn from_mask(mask: u128) -> Self {
        Monomial(Inline([mask as u64, (mask >> 64) as u64, 0]))
    }

    /// Number of variables in the product.
    #[inline]
    pub fn degree(&self) -> usize {
        match &self.0 {
            Inline(w) if w[2] == 0 => mask_key(w).count_ones() as usize,
            Inline(w) => (mask_key(w).count_ones() + w[2].count_ones()) as usize,
            Heap(v) => v.len(),
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: Var) -> bool {
        match &self.0 {
            Inline(w) => v.0 < INLINE_VARS && w[(v.0 / 64) as usize] >> (v.0 % 64) & 1 == 1,
            Heap(vars) => vars.binary_search(&v.0).is_ok(),
        }
    }

    /// Iterates over the variables in ascending index order.
    #[inline]
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        let (words, slice): ([u64; 3], &[u32]) = match &self.0 {
            Inline(w) => (*w, &[]),
            Heap(v) => ([0; 3], v),
        };
        InlineBits::new(words).chain(slice.iter().copied()).map(Var)
    }

    /// Idempotent product: the union of the two variable sets.
    #[inline]
    pub fn mul(&self, other: &Monomial) -> Monomial {
        match (&self.0, &other.0) {
            (Inline(a), Inline(b)) => Monomial(Inline([a[0] | b[0], a[1] | b[1], a[2] | b[2]])),
            _ => {
                // One side holds an index of 192 or more, so the union
                // does too.
                let mut all: Vec<u32> = self.vars().chain(other.vars()).map(|v| v.0).collect();
                all.sort_unstable();
                all.dedup();
                Monomial(Heap(all.into_boxed_slice()))
            }
        }
    }

    /// Returns `true` if every variable of `self` occurs in `other`.
    pub fn divides(&self, other: &Monomial) -> bool {
        match (&self.0, &other.0) {
            (Inline(a), Inline(b)) => a.iter().zip(b).all(|(x, y)| x & !y == 0),
            // A heap monomial holds an index an inline one cannot.
            (Heap(_), Inline(_)) => false,
            _ => self.vars().all(|v| other.contains(v)),
        }
    }

    /// Returns `true` if the monomial contains at least one variable of
    /// `group`.
    #[inline]
    pub fn intersects(&self, group: &VarSet) -> bool {
        match &self.0 {
            // An inline monomial has no variable of 192 or more, so only
            // the group's inline words can meet it.
            Inline(w) => {
                let g = group.inline_words();
                (w[0] & g[0]) | (w[1] & g[1]) | (w[2] & g[2]) != 0
            }
            Heap(vars) => vars.iter().any(|&i| group.contains(Var(i))),
        }
    }

    /// Splits the monomial into `(inner, outer)` where `inner` keeps exactly
    /// the variables in `group` and `outer` the rest.
    ///
    /// This is the *pair* construction of paper §5.2.
    pub fn split(&self, group: &VarSet) -> (Monomial, Monomial) {
        match &self.0 {
            Inline(w) => {
                let g = group.inline_words();
                (
                    Monomial(Inline([w[0] & g[0], w[1] & g[1], w[2] & g[2]])),
                    Monomial(Inline([w[0] & !g[0], w[1] & !g[1], w[2] & !g[2]])),
                )
            }
            Heap(vars) => {
                let (inner, outer): (Vec<u32>, Vec<u32>) =
                    vars.iter().partition(|&&i| group.contains(Var(i)));
                (Self::from_sorted(inner), Self::from_sorted(outer))
            }
        }
    }

    /// Removes `v` from the monomial, if present.
    pub fn without(&self, v: Var) -> Monomial {
        match &self.0 {
            Inline(w) if v.0 < INLINE_VARS => {
                let mut w = *w;
                w[(v.0 / 64) as usize] &= !(1 << (v.0 % 64));
                Monomial(Inline(w))
            }
            Inline(w) => Monomial(Inline(*w)),
            Heap(vars) => Self::from_sorted(vars.iter().copied().filter(|&i| i != v.0).collect()),
        }
    }

    /// Applies a variable renaming.
    pub fn map_vars(&self, f: impl Fn(Var) -> Var) -> Monomial {
        Monomial::from_vars(self.vars().map(f))
    }

    /// The set of variables of this monomial.
    pub fn var_set(&self) -> VarSet {
        let mut set = VarSet::new();
        self.insert_into(&mut set);
        set
    }

    /// Adds the variables of this monomial to `set`: inline words at
    /// once, heap indices one by one.
    #[inline]
    pub(crate) fn insert_into(&self, set: &mut VarSet) {
        match &self.0 {
            Inline(w) => set.insert_inline_words(w),
            Heap(vars) => {
                for &i in vars.iter() {
                    set.insert(Var(i));
                }
            }
        }
    }
}

/// Lexicographic order of the ascending index lists of two inline
/// monomials, from their lowest differing bit (see the module docs).
fn cmp_lex(a: &[u64; 3], b: &[u64; 3]) -> Ordering {
    for i in 0..3 {
        let diff = a[i] ^ b[i];
        if diff == 0 {
            continue;
        }
        let bit = diff & diff.wrapping_neg();
        let above =
            |w: &[u64; 3]| w[i] & !(bit | (bit - 1)) != 0 || w[i + 1..].iter().any(|&x| x != 0);
        return if a[i] & bit != 0 {
            if above(b) {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        } else if above(a) {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    Ordering::Equal
}

impl PartialOrd for Monomial {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            // Two mask monomials: colex, the numeric order of the masks.
            (Inline(a), Inline(b)) if a[2] | b[2] == 0 => mask_key(a).cmp(&mask_key(b)),
            _ => cmp_past_128(self, other),
        }
    }
}

/// [`Monomial::cmp`] when either side has a variable of 128 or more.
fn cmp_past_128(x: &Monomial, y: &Monomial) -> Ordering {
    match (&x.0, &y.0) {
        (Inline(a), Inline(b)) => match (a[2] != 0, b[2] != 0) {
            (false, _) => Ordering::Less,
            (_, false) => Ordering::Greater,
            _ => cmp_lex(a, b),
        },
        (Heap(a), Heap(b)) => a.cmp(b),
        (Inline(a), Heap(_)) if a[2] == 0 => Ordering::Less,
        (Heap(_), Inline(b)) if b[2] == 0 => Ordering::Greater,
        // Both in the lexicographic class, one of each form.
        _ => x.vars().cmp(y.vars()),
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        let names: Vec<String> = self.vars().map(|v| format!("v{}", v.0)).collect();
        write!(f, "{}", names.join("*"))
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::ReferenceMonomial;
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn mono(ids: &[u32]) -> Monomial {
        Monomial::from_vars(ids.iter().map(|&i| Var(i)))
    }

    #[test]
    fn one_is_empty_product() {
        assert!(Monomial::one().is_one());
        assert_eq!(Monomial::one().degree(), 0);
        assert_eq!(mono(&[]), Monomial::one());
    }

    #[test]
    fn idempotent_multiplication() {
        let ab = mono(&[0, 1]);
        assert_eq!(ab.mul(&ab), ab);
        assert_eq!(ab.mul(&Monomial::one()), ab);
        assert_eq!(mono(&[0]).mul(&mono(&[200])), mono(&[0, 200]));
    }

    #[test]
    fn split_by_group() {
        let g: VarSet = [Var(0), Var(2)].into_iter().collect();
        let (inner, outer) = mono(&[0, 1, 2, 3]).split(&g);
        assert_eq!(inner, mono(&[0, 2]));
        assert_eq!(outer, mono(&[1, 3]));
        let (inner, outer) = mono(&[1, 3]).split(&g);
        assert!(inner.is_one());
        assert_eq!(outer, mono(&[1, 3]));
    }

    #[test]
    fn split_with_large_vars() {
        let g: VarSet = [Var(130)].into_iter().collect();
        let (inner, outer) = mono(&[1, 130, 200]).split(&g);
        assert_eq!(inner, mono(&[130]));
        assert_eq!(outer, mono(&[1, 200]));
    }

    #[test]
    fn divides_and_contains() {
        assert!(mono(&[0]).divides(&mono(&[0, 1])));
        assert!(!mono(&[2]).divides(&mono(&[0, 1])));
        assert!(Monomial::one().divides(&mono(&[5])));
        assert!(mono(&[0, 140]).contains(Var(140)));
        assert!(!mono(&[0, 140]).contains(Var(141)));
    }

    #[test]
    fn large_and_small_orders_are_consistent_with_eq() {
        let a = mono(&[0, 1]);
        let b = mono(&[0, 1]);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        let c = mono(&[0, 128]);
        assert_ne!(a.cmp(&c), Ordering::Equal);
        assert!(a < c, "small sorts before large");
    }

    #[test]
    fn without_removes() {
        assert_eq!(mono(&[0, 1]).without(Var(1)), mono(&[0]));
        assert_eq!(mono(&[0, 130]).without(Var(130)), mono(&[0]));
        assert_eq!(mono(&[0]).without(Var(7)), mono(&[0]));
    }

    #[test]
    fn map_vars_renames() {
        let m = mono(&[0, 1]).map_vars(|v| Var(v.0 + 10));
        assert_eq!(m, mono(&[10, 11]));
    }

    #[test]
    fn var_round_trip_large() {
        let m = Monomial::var(Var(300));
        assert_eq!(m.degree(), 1);
        assert!(m.contains(Var(300)));
    }

    #[test]
    fn stays_32_bytes() {
        assert_eq!(std::mem::size_of::<Monomial>(), 32);
    }

    /// xorshift64: the seeded stream of the reference comparison.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Up to six indices drawn near the 128, 192 and 256 boundaries (and
    /// from the low range), so products land in every class and form.
    fn random_ids(state: &mut u64) -> Vec<u32> {
        const CENTRES: [u32; 4] = [4, 128, 192, 256];
        (0..next(state) % 7)
            .map(|_| {
                let r = next(state);
                let centre = CENTRES[(r % 4) as usize];
                (centre + (r >> 8) as u32 % 9).saturating_sub(4)
            })
            .collect()
    }

    fn hash_of(m: &Monomial) -> u64 {
        let mut h = DefaultHasher::new();
        m.hash(&mut h);
        h.finish()
    }

    fn ids(vars: impl IntoIterator<Item = Var>) -> Vec<u32> {
        vars.into_iter().map(|v| v.0).collect()
    }

    #[test]
    fn matches_the_index_slice_reference() {
        // Random variable sets straddling 128, 192 and 256: every
        // operation must agree with the reference, and so must the order,
        // pairwise and over whole sorted term lists.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let (mut inline_high, mut heap, mut equal) = (0, 0, 0);
        for case in 0..4000 {
            let (a_ids, b_ids) = (random_ids(&mut state), random_ids(&mut state));
            let a = Monomial::from_vars(a_ids.iter().map(|&i| Var(i)));
            let b = if case % 5 == 0 {
                a.clone()
            } else {
                Monomial::from_vars(b_ids.iter().map(|&i| Var(i)))
            };
            let ra = ReferenceMonomial::from_vars(a.vars());
            let rb = ReferenceMonomial::from_vars(b.vars());
            let mut sorted_ids = a_ids.clone();
            sorted_ids.sort_unstable();
            sorted_ids.dedup();
            assert_eq!(ids(a.vars()), sorted_ids, "case {case}: vars");
            assert_eq!(ids(a.vars()), ids(ra.vars()), "case {case}: vars");
            assert_eq!(a.degree(), ra.degree(), "case {case}: degree");
            assert_eq!(a.cmp(&b), ra.cmp(&rb), "case {case}: {a:?} vs {b:?}");
            assert_eq!(a == b, ra == rb, "case {case}: eq");
            if a == b {
                assert_eq!(hash_of(&a), hash_of(&b), "case {case}: hash");
                equal += 1;
            }
            assert_eq!(
                ids(a.mul(&b).vars()),
                ids(ra.mul(&rb).vars()),
                "case {case}: mul"
            );
            assert_eq!(a.mul(&b), Monomial::from_vars(a.vars().chain(b.vars())));
            assert_eq!(a.divides(&b), ra.divides(&rb), "case {case}: divides");
            assert_eq!(b.divides(&a.mul(&b)), rb.divides(&ra.mul(&rb)));
            let group: VarSet = b_ids.iter().take(3).map(|&i| Var(i)).collect();
            assert_eq!(
                a.intersects(&group),
                ra.intersects(&group),
                "case {case}: intersects"
            );
            let ((i, o), (ri, ro)) = (a.split(&group), ra.split(&group));
            assert_eq!(ids(i.vars()), ids(ri.vars()), "case {case}: split inner");
            assert_eq!(ids(o.vars()), ids(ro.vars()), "case {case}: split outer");
            assert_eq!(i, Monomial::from_vars(i.vars()), "case {case}: split form");
            assert_eq!(o, Monomial::from_vars(o.vars()), "case {case}: split form");
            for &v in b_ids.iter().chain(&a_ids) {
                let v = Var(v);
                assert_eq!(a.contains(v), ra.contains(v), "case {case}: contains {v:?}");
                let (w, rw) = (a.without(v), ra.without(v));
                assert_eq!(ids(w.vars()), ids(rw.vars()), "case {case}: without {v:?}");
                assert_eq!(
                    w,
                    Monomial::from_vars(w.vars()),
                    "case {case}: without form"
                );
            }
            inline_high += usize::from(a.as_small().is_none() && a_ids.iter().all(|&i| i < 192));
            heap += usize::from(a_ids.iter().any(|&i| i >= 192));
        }
        assert!(
            inline_high > 500,
            "only {inline_high} inline products past Var(128)"
        );
        assert!(heap > 500, "only {heap} heap products");
        assert!(equal > 500, "only {equal} equal pairs");
        for _ in 0..200 {
            let terms: Vec<Vec<u32>> = (0..1 + next(&mut state) % 40)
                .map(|_| random_ids(&mut state))
                .collect();
            let mut new: Vec<Monomial> = terms
                .iter()
                .map(|t| Monomial::from_vars(t.iter().map(|&i| Var(i))))
                .collect();
            let mut old: Vec<ReferenceMonomial> = terms
                .iter()
                .map(|t| ReferenceMonomial::from_vars(t.iter().map(|&i| Var(i))))
                .collect();
            new.sort();
            old.sort();
            let new: Vec<Vec<u32>> = new.iter().map(|m| ids(m.vars())).collect();
            let old: Vec<Vec<u32>> = old.iter().map(|m| ids(m.vars())).collect();
            assert_eq!(new, old);
        }
    }
}
