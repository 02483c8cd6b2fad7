//! Expressions in algebraic normal form (Reed–Muller / XOR-of-products).
//!
//! An [`Anf`] is a canonical, duplicate-free, sorted list of [`Monomial`]s
//! combined by XOR. Canonicity is the property the paper leans on (§4):
//! the Reed–Muller form of a Boolean function is *unique*, so the outcome
//! of the decomposition is independent of how the input circuit was
//! described, and expressions form a ring (the *Boolean ring*) under XOR
//! and AND.
//!
//! ## Arithmetic kernel
//!
//! The ring operations sit on every hot path of the decomposer, so they
//! carry dedicated fast paths for the dominant case — every monomial a
//! *mask monomial* ([`Monomial::as_small`]), i.e. all variable indices
//! below 128, whose `u128` masks order exactly as the monomials do:
//!
//! * [`Anf::and`] multiplies via dense `u128` product keys (`a | b`),
//!   normalised either by an unstable `u128` sort + parity scan (small
//!   products) or by a hash parity map (large products), instead of
//!   materialising and comparison-sorting `n·m` enum monomials;
//! * [`Anf::xor_assign`] merges in place from the back of its own buffer
//!   (one `resize`, no fresh allocation per call);
//! * [`Anf::xor_all`] flattens all-mask operand lists to one key vector
//!   and falls back to balanced tournament merging otherwise;
//! * [`Anf::from_terms`] normalises all-mask term lists on raw keys.
//!
//! Terms with an index of 128 or more take the generic paths on
//! [`Monomial`] itself. Below index 192 those are still inline words
//! (no allocation per product or split); past it they are index slices.
//!
//! The `kernel_equivalence` property tests compare every one of these
//! operations, monomial for monomial, against references written from
//! the ring definitions.

use crate::monomial::Monomial;
use crate::var::{Var, VarPool};
use crate::varset::VarSet;
use std::collections::HashMap;
use std::fmt;

/// Above this many products, [`Anf::and`] switches from sort-based
/// normalisation to a hash parity map (see module docs).
const AND_HASH_THRESHOLD: usize = 1 << 14;

/// A Boolean-ring expression in canonical XOR-of-products form.
///
/// The empty sum is the constant `0`; the sum containing only the empty
/// monomial is the constant `1`.
///
/// # Examples
///
/// ```
/// use pd_anf::{Anf, VarPool};
/// let mut pool = VarPool::new();
/// let x = Anf::parse("a*b ^ c ^ 1", &mut pool).unwrap();
/// let y = Anf::parse("c ^ 1", &mut pool).unwrap();
/// // XOR cancels equal monomials over GF(2):
/// assert_eq!(x.xor(&y), Anf::parse("a*b", &mut pool).unwrap());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Anf {
    /// Sorted, deduplicated (mod-2 reduced) terms.
    terms: Vec<Monomial>,
}

impl Anf {
    /// The constant `0`.
    pub fn zero() -> Self {
        Anf { terms: Vec::new() }
    }

    /// The constant `1`.
    pub fn one() -> Self {
        Anf {
            terms: vec![Monomial::one()],
        }
    }

    /// The expression consisting of a single variable.
    pub fn var(v: Var) -> Self {
        Anf {
            terms: vec![Monomial::var(v)],
        }
    }

    /// The expression consisting of a single monomial.
    pub fn from_monomial(m: Monomial) -> Self {
        Anf { terms: vec![m] }
    }

    /// Builds an expression from terms already in canonical order:
    /// strictly ascending, so no two cancel. For kernels whose output
    /// order follows from their input's (e.g. a subsequence of a
    /// canonical term list); debug builds check the order.
    pub fn from_canonical_terms(terms: Vec<Monomial>) -> Self {
        debug_assert!(
            terms.windows(2).all(|w| w[0] < w[1]),
            "terms must be strictly ascending"
        );
        Anf { terms }
    }

    /// Builds an expression from arbitrary terms, reducing duplicates mod 2.
    ///
    /// All-mask term lists (see the module docs) are normalised on raw
    /// `u128` keys (unstable sort + parity scan) — no dispatch per
    /// comparison.
    pub fn from_terms(mut terms: Vec<Monomial>) -> Self {
        if terms.iter().all(|t| t.as_small().is_some()) {
            let keys: Vec<u128> = terms
                .iter()
                .map(|t| t.as_small().expect("checked all-small"))
                .collect();
            return Self::from_small_keys_unsorted(keys);
        }
        terms.sort_unstable();
        Self::from_sorted_terms(terms)
    }

    /// Normalises a vector of `u128` monomial masks (any order, duplicates
    /// allowed) into a canonical expression: sort, then cancel mod 2.
    pub(crate) fn from_small_keys_unsorted(mut keys: Vec<u128>) -> Self {
        keys.sort_unstable();
        let mut terms: Vec<Monomial> = Vec::with_capacity(keys.len());
        let mut i = 0;
        while i < keys.len() {
            let k = keys[i];
            let mut j = i + 1;
            while j < keys.len() && keys[j] == k {
                j += 1;
            }
            if (j - i) % 2 == 1 {
                terms.push(Monomial::from_mask(k));
            }
            i = j;
        }
        Anf { terms }
    }

    /// Returns `true` when every term is a mask monomial. Terms are sorted
    /// with mask monomials first, so checking the last one suffices.
    #[inline]
    fn all_small(&self) -> bool {
        self.terms.last().is_none_or(|t| t.as_small().is_some())
    }

    /// Builds an expression from terms already in ascending order,
    /// cancelling adjacent duplicates mod 2.
    pub(crate) fn from_sorted_terms(terms: Vec<Monomial>) -> Self {
        let mut out: Vec<Monomial> = Vec::with_capacity(terms.len());
        let mut iter = terms.into_iter().peekable();
        while let Some(t) = iter.next() {
            let mut count = 1usize;
            while iter.peek() == Some(&t) {
                iter.next();
                count += 1;
            }
            if count % 2 == 1 {
                out.push(t);
            }
        }
        Anf { terms: out }
    }

    /// Returns `true` for the constant `0`.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` for the constant `1`.
    pub fn is_one(&self) -> bool {
        self.terms.len() == 1 && self.terms[0].is_one()
    }

    /// Returns `true` if the expression is a constant (`0` or `1`).
    pub fn is_constant(&self) -> bool {
        self.is_zero() || self.is_one()
    }

    /// Returns `Some(v)` if the expression is exactly the single variable `v`.
    pub fn as_literal(&self) -> Option<Var> {
        if self.terms.len() == 1 && self.terms[0].degree() == 1 {
            self.terms[0].vars().next()
        } else {
            None
        }
    }

    /// Returns `true` if the expression is a constant or a single variable.
    pub fn is_literal_or_constant(&self) -> bool {
        self.is_constant() || self.as_literal().is_some()
    }

    /// Number of XOR terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Total number of variable occurrences (the paper's "number of
    /// literals" size measure; the constant term contributes 0).
    pub fn literal_count(&self) -> usize {
        self.terms.iter().map(Monomial::degree).sum()
    }

    /// Largest monomial degree (0 for constants).
    pub fn degree(&self) -> usize {
        self.terms.iter().map(Monomial::degree).max().unwrap_or(0)
    }

    /// Iterates over the terms in canonical order.
    pub fn terms(&self) -> impl Iterator<Item = &Monomial> + '_ {
        self.terms.iter()
    }

    /// Consumes the expression, returning its terms.
    pub fn into_terms(self) -> Vec<Monomial> {
        self.terms
    }

    /// The set of variables occurring in the expression.
    pub fn support(&self) -> VarSet {
        let mut s = VarSet::new();
        for t in &self.terms {
            t.insert_into(&mut s);
        }
        s
    }

    /// Returns `true` if `v` occurs anywhere in the expression.
    pub fn contains_var(&self, v: Var) -> bool {
        self.terms.iter().any(|t| t.contains(v))
    }

    /// Returns `true` if the exact monomial `m` is one of the XOR terms
    /// (binary search over the canonical term order).
    pub fn contains_term(&self, m: &Monomial) -> bool {
        self.terms.binary_search(m).is_ok()
    }

    /// Returns `true` if any term contains a variable from `group`.
    pub fn intersects(&self, group: &VarSet) -> bool {
        self.terms.iter().any(|t| t.intersects(group))
    }

    /// XOR (ring addition). Equal monomials cancel.
    pub fn xor(&self, other: &Anf) -> Anf {
        let mut out = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            match self.terms[i].cmp(&other.terms[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.terms[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.terms[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.terms[i..]);
        out.extend_from_slice(&other.terms[j..]);
        Anf { terms: out }
    }

    /// In-place XOR, merging from the back of the existing buffer: one
    /// `resize` (amortised by retained capacity), no fresh allocation per
    /// call, and a pure append when the operands' term ranges are disjoint.
    pub fn xor_assign(&mut self, other: &Anf) {
        if other.terms.is_empty() {
            return;
        }
        if self.terms.is_empty() {
            self.terms.clear();
            self.terms.extend_from_slice(&other.terms);
            return;
        }
        if self.terms.last().expect("nonempty") < &other.terms[0] {
            self.terms.extend_from_slice(&other.terms);
            return;
        }
        let n = self.terms.len();
        let m = other.terms.len();
        // Reverse merge: slot `w-1` is always free because cancellations
        // only ever widen the gap between the write and read cursors.
        self.terms.resize(n + m, Monomial::one());
        let (mut i, mut j, mut w) = (n, m, n + m);
        while i > 0 && j > 0 {
            match self.terms[i - 1].cmp(&other.terms[j - 1]) {
                std::cmp::Ordering::Greater => {
                    self.terms.swap(w - 1, i - 1);
                    i -= 1;
                    w -= 1;
                }
                std::cmp::Ordering::Less => {
                    self.terms[w - 1] = other.terms[j - 1].clone();
                    j -= 1;
                    w -= 1;
                }
                std::cmp::Ordering::Equal => {
                    i -= 1;
                    j -= 1;
                }
            }
        }
        while j > 0 {
            self.terms[w - 1] = other.terms[j - 1].clone();
            j -= 1;
            w -= 1;
        }
        if i > 0 {
            if w > i {
                for k in (0..i).rev() {
                    w -= 1;
                    self.terms.swap(w, k);
                }
            } else {
                // w == i: the unread prefix already sits exactly below the
                // merged region.
                w = 0;
            }
        }
        self.terms.drain(0..w);
    }

    /// AND (ring multiplication). Distributes over XOR with idempotent
    /// monomial products and mod-2 cancellation.
    ///
    /// When both operands are all mask monomials the products are
    /// dense `u128` keys (`a | b`); they are normalised by an unstable
    /// key sort for up to [`AND_HASH_THRESHOLD`] products and by a hash
    /// parity map beyond (the map is bounded by the number of *distinct*
    /// products, which idempotence keeps far below `n·m` on the
    /// structured expressions arising from arithmetic circuits).
    pub fn and(&self, other: &Anf) -> Anf {
        if self.is_zero() || other.is_zero() {
            return Anf::zero();
        }
        if self.is_one() {
            return other.clone();
        }
        if other.is_one() {
            return self.clone();
        }
        if self.all_small() && other.all_small() {
            return self.and_small(other);
        }
        let mut products = Vec::with_capacity(self.terms.len() * other.terms.len());
        for a in &self.terms {
            for b in &other.terms {
                products.push(a.mul(b));
            }
        }
        Self::from_terms(products)
    }

    /// The all-mask multiplication fast path; see [`Anf::and`].
    fn and_small(&self, other: &Anf) -> Anf {
        let key = |t: &Monomial| t.as_small().expect("all_small checked");
        let n = self.terms.len();
        let m = other.terms.len();
        let products = n.saturating_mul(m);
        if products <= AND_HASH_THRESHOLD {
            let mut keys: Vec<u128> = Vec::with_capacity(products);
            for a in &self.terms {
                let ka = key(a);
                for b in &other.terms {
                    keys.push(ka | key(b));
                }
            }
            return Self::from_small_keys_unsorted(keys);
        }
        let mut parity: HashMap<u128, bool> = HashMap::with_capacity(n.max(m) * 2);
        for a in &self.terms {
            let ka = key(a);
            for b in &other.terms {
                parity
                    .entry(ka | key(b))
                    .and_modify(|p| *p = !*p)
                    .or_insert(true);
            }
        }
        let keys: Vec<u128> = parity
            .into_iter()
            .filter_map(|(k, odd)| odd.then_some(k))
            .collect();
        Self::from_small_keys_unsorted(keys)
    }

    /// Multiplies by a single monomial.
    pub fn mul_monomial(&self, m: &Monomial) -> Anf {
        if m.is_one() {
            return self.clone();
        }
        if let (true, Some(mask)) = (self.all_small(), m.as_small()) {
            let keys: Vec<u128> = self
                .terms
                .iter()
                .map(|t| t.as_small().expect("all_small checked") | mask)
                .collect();
            return Self::from_small_keys_unsorted(keys);
        }
        Self::from_terms(self.terms.iter().map(|t| t.mul(m)).collect())
    }

    /// Logical complement: `1 ⊕ self`.
    pub fn not(&self) -> Anf {
        self.xor(&Anf::one())
    }

    /// Logical OR: `a ⊕ b ⊕ ab`.
    pub fn or(&self, other: &Anf) -> Anf {
        self.xor(other).xor(&self.and(other))
    }

    /// Evaluates under a point assignment.
    pub fn eval(&self, assignment: impl Fn(Var) -> bool) -> bool {
        let mut acc = false;
        for t in &self.terms {
            acc ^= t.vars().all(&assignment);
        }
        acc
    }

    /// Evaluates 64 assignments at once; `values(v)` supplies one bit per
    /// assignment (lane) for variable `v`.
    pub fn eval64(&self, values: impl Fn(Var) -> u64) -> u64 {
        let mut acc = 0u64;
        for t in &self.terms {
            let mut word = u64::MAX;
            for v in t.vars() {
                word &= values(v);
                if word == 0 {
                    break;
                }
            }
            acc ^= word;
        }
        acc
    }

    /// Substitutes `replacement` for every occurrence of `v` and
    /// renormalises. `self = v·A ⊕ B  ↦  replacement·A ⊕ B`.
    ///
    /// Single pass: terms are only cloned into the quotient/rest split
    /// when `v` actually occurs (the no-occurrence probe is free).
    pub fn substitute(&self, v: Var, replacement: &Anf) -> Anf {
        if !self.contains_var(v) {
            return self.clone();
        }
        let (quotient, rest) = self.split_on(v);
        quotient.and(replacement).xor(&rest)
    }

    /// Splits `self = v·Q ⊕ R` into `(Q, R)`, neither mentioning `v`.
    ///
    /// Both parts come out canonical without renormalising: `R` is a
    /// subsequence of the canonical terms, and removing `v` from the
    /// distinct terms that contain it leaves them distinct. It also keeps
    /// mask monomials (the colex class) in order; only terms with an index
    /// of 128 or more (the lexicographic class) can fall out of order, and
    /// `Q` is then re-sorted.
    ///
    /// # Examples
    ///
    /// ```
    /// use pd_anf::{Anf, VarPool};
    /// let mut pool = VarPool::new();
    /// let x = Anf::parse("a*b ^ a ^ c", &mut pool).unwrap();
    /// let a = pool.find("a").unwrap();
    /// let (q, r) = x.split_on(a);
    /// assert_eq!(q, Anf::parse("b ^ 1", &mut pool).unwrap());
    /// assert_eq!(r, Anf::parse("c", &mut pool).unwrap());
    /// // R and Q ⊕ R are the Shannon cofactors.
    /// assert_eq!(r, x.restrict(a, false));
    /// assert_eq!(q.xor(&r), x.restrict(a, true));
    /// ```
    pub fn split_on(&self, v: Var) -> (Anf, Anf) {
        let mut q: Vec<Monomial> = Vec::new();
        let mut rest: Vec<Monomial> = Vec::new();
        for t in &self.terms {
            if t.contains(v) {
                q.push(t.without(v));
            } else {
                rest.push(t.clone());
            }
        }
        if !q.is_sorted() {
            q.sort_unstable();
        }
        (Anf { terms: q }, Anf { terms: rest })
    }

    /// Cofactor: fixes `v := value` and renormalises.
    pub fn restrict(&self, v: Var, value: bool) -> Anf {
        let replacement = if value { Anf::one() } else { Anf::zero() };
        self.substitute(v, &replacement)
    }

    /// Applies a variable renaming to every term.
    pub fn map_vars(&self, f: impl Fn(Var) -> Var) -> Anf {
        Self::from_terms(self.terms.iter().map(|t| t.map_vars(&f)).collect())
    }

    /// XOR of many expressions (k-way merge).
    ///
    /// All-mask operands are flattened into one `u128` key
    /// vector and normalised in a single sort; mixed operands fall back to
    /// balanced tournament merging of the sorted term lists, which keeps
    /// the total work at `O(N log k)` instead of the `O(N·k)` of folding
    /// `xor` left to right.
    pub fn xor_all<'a>(items: impl IntoIterator<Item = &'a Anf>) -> Anf {
        let items: Vec<&Anf> = items.into_iter().collect();
        match items.len() {
            0 => return Anf::zero(),
            1 => return items[0].clone(),
            _ => {}
        }
        if items.iter().all(|e| e.all_small()) {
            let total: usize = items.iter().map(|e| e.terms.len()).sum();
            let mut keys: Vec<u128> = Vec::with_capacity(total);
            for e in &items {
                keys.extend(e.terms.iter().map(|t| t.as_small().expect("all small")));
            }
            return Self::from_small_keys_unsorted(keys);
        }
        // Tournament of pairwise merges.
        let mut round: Vec<Anf> = Vec::with_capacity(items.len().div_ceil(2));
        let mut chunks = items.chunks_exact(2);
        for pair in &mut chunks {
            round.push(pair[0].xor(pair[1]));
        }
        if let [odd] = chunks.remainder() {
            round.push((*odd).clone());
        }
        while round.len() > 1 {
            let mut next = Vec::with_capacity(round.len().div_ceil(2));
            let mut chunks = round.chunks_exact(2);
            for pair in &mut chunks {
                next.push(pair[0].xor(&pair[1]));
            }
            if let [odd] = chunks.remainder() {
                next.push(odd.clone());
            }
            round = next;
        }
        round.pop().expect("nonempty round")
    }

    /// Read-only view of the canonical term list (for kernels that chunk
    /// terms for parallel scans).
    pub fn terms_slice(&self) -> &[Monomial] {
        &self.terms
    }

    /// Literal count of `self ⊕ other` *without materialising the XOR*:
    /// one merge pass over the sorted term lists, popcounting surviving
    /// keys. Lets cost-model passes (e.g. §5.4 size reduction) price a
    /// candidate rewrite and reject it with zero allocation.
    pub fn xor_literal_count(&self, other: &Anf) -> usize {
        let (mut i, mut j, mut lits) = (0, 0, 0usize);
        while i < self.terms.len() && j < other.terms.len() {
            match self.terms[i].cmp(&other.terms[j]) {
                std::cmp::Ordering::Less => {
                    lits += self.terms[i].degree();
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    lits += other.terms[j].degree();
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        lits += self.terms[i..].iter().map(Monomial::degree).sum::<usize>();
        lits += other.terms[j..].iter().map(Monomial::degree).sum::<usize>();
        lits
    }

    /// Pretty-prints with names from `pool`; terms joined by `^`,
    /// factors by `*`.
    pub fn display<'a>(&'a self, pool: &'a VarPool) -> DisplayAnf<'a> {
        DisplayAnf { anf: self, pool }
    }
}

/// Helper returned by [`Anf::display`].
pub struct DisplayAnf<'a> {
    anf: &'a Anf,
    pool: &'a VarPool,
}

impl fmt::Display for DisplayAnf<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.anf.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for t in self.anf.terms() {
            if !first {
                write!(f, " ^ ")?;
            }
            first = false;
            if t.is_one() {
                write!(f, "1")?;
            } else {
                let names: Vec<&str> = t.vars().map(|v| self.pool.name(v)).collect();
                write!(f, "{}", names.join("*"))?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Anf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let parts: Vec<String> = self.terms.iter().map(|t| format!("{t:?}")).collect();
        write!(f, "{}", parts.join(" ^ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarPool;

    fn vars(n: u32) -> Vec<Var> {
        (0..n).map(Var).collect()
    }

    #[test]
    fn constants() {
        assert!(Anf::zero().is_zero());
        assert!(Anf::one().is_one());
        assert!(!Anf::one().is_zero());
        assert_eq!(Anf::one().xor(&Anf::one()), Anf::zero());
    }

    #[test]
    fn xor_cancels() {
        let v = vars(3);
        let a = Anf::var(v[0]);
        let ab = Anf::var(v[0]).and(&Anf::var(v[1]));
        let x = a.xor(&ab);
        assert_eq!(x.term_count(), 2);
        assert_eq!(x.xor(&a), ab);
        assert!(x.xor(&x).is_zero());
    }

    #[test]
    fn and_is_idempotent_and_distributes() {
        let v = vars(4);
        let a = Anf::var(v[0]);
        let b = Anf::var(v[1]);
        let ab = a.and(&b);
        assert_eq!(a.and(&a), a);
        assert_eq!(ab.and(&ab), ab);
        // (a ^ b)(a ^ b) = a ^ b over GF(2) with idempotence.
        let s = a.xor(&b);
        assert_eq!(s.and(&s), s);
        // (a ^ b)(a) = a ^ ab
        assert_eq!(s.and(&a), a.xor(&ab));
    }

    #[test]
    fn or_matches_truth() {
        let v = vars(2);
        let a = Anf::var(v[0]);
        let b = Anf::var(v[1]);
        let o = a.or(&b);
        for (x, y, expect) in [
            (false, false, false),
            (true, false, true),
            (false, true, true),
            (true, true, true),
        ] {
            let got = o.eval(|q| if q == v[0] { x } else { y });
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn substitute_replaces_and_expands() {
        let mut pool = VarPool::new();
        let x = Anf::parse("a*c ^ b", &mut pool).unwrap();
        let c = pool.find("c").unwrap();
        let rep = Anf::parse("p ^ q", &mut pool).unwrap();
        let got = x.substitute(c, &rep);
        let want = Anf::parse("a*p ^ a*q ^ b", &mut pool).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn substitute_handles_collapsing_terms() {
        // x = c*a ^ a; substituting c := 1 gives a ^ a = 0.
        let mut pool = VarPool::new();
        let x = Anf::parse("c*a ^ a", &mut pool).unwrap();
        let c = pool.find("c").unwrap();
        assert_eq!(x.restrict(c, true), Anf::zero());
        assert_eq!(x.restrict(c, false), Anf::var(pool.find("a").unwrap()));
    }

    #[test]
    fn eval64_matches_eval() {
        let mut pool = VarPool::new();
        let x = Anf::parse("a*b ^ c ^ a*c ^ 1", &mut pool).unwrap();
        let vs: Vec<Var> = ["a", "b", "c"].iter().map(|n| pool.find(n).unwrap()).collect();
        for lane in 0..8u32 {
            let bits = |v: Var| -> bool {
                let pos = vs.iter().position(|&q| q == v).unwrap();
                lane >> pos & 1 == 1
            };
            let scalar = x.eval(bits);
            let word = x.eval64(|v| {
                let pos = vs.iter().position(|&q| q == v).unwrap();
                let mut w = 0u64;
                for l in 0..8u64 {
                    if l >> pos & 1 == 1 {
                        w |= 1 << l;
                    }
                }
                w
            });
            assert_eq!(word >> lane & 1 == 1, scalar, "lane {lane}");
        }
    }

    #[test]
    fn literal_count_and_degree() {
        let mut pool = VarPool::new();
        let x = Anf::parse("a*b*c ^ d ^ 1", &mut pool).unwrap();
        assert_eq!(x.literal_count(), 4);
        assert_eq!(x.degree(), 3);
        assert_eq!(x.term_count(), 3);
    }

    #[test]
    fn as_literal() {
        let mut pool = VarPool::new();
        let a = Anf::parse("a", &mut pool).unwrap();
        assert_eq!(a.as_literal(), pool.find("a"));
        let ab = Anf::parse("a*b", &mut pool).unwrap();
        assert_eq!(ab.as_literal(), None);
        assert_eq!(Anf::one().as_literal(), None);
    }

    #[test]
    fn from_terms_cancels_triplets() {
        let m = Monomial::var(Var(0));
        let x = Anf::from_terms(vec![m.clone(), m.clone(), m.clone()]);
        assert_eq!(x, Anf::var(Var(0)));
        let y = Anf::from_terms(vec![m.clone(), m.clone()]);
        assert!(y.is_zero());
    }

    #[test]
    fn display_round_trips_via_parser() {
        let mut pool = VarPool::new();
        let x = Anf::parse("a*b ^ c ^ 1", &mut pool).unwrap();
        let text = x.display(&pool).to_string();
        let y = Anf::parse(&text, &mut pool).unwrap();
        assert_eq!(x, y);
    }
}
