//! Sets of variables.
//!
//! [`VarSet`] is a small-set representation optimised for the variable
//! groups used by Progressive Decomposition (typically `k = 4` variables)
//! and for expression supports (tens of variables). Indices below 192 are
//! stored in three inline words, the same boundary as [`Monomial`]'s
//! inline form, so a monomial splits by a group with three word masks;
//! larger indices spill into a sorted vector.
//!
//! [`Monomial`]: crate::Monomial

use crate::var::Var;
use std::fmt;

/// Number of variable indices stored inline (bit `i % 64` of word
/// `i / 64`) by [`VarSet`] and [`Monomial`](crate::Monomial).
pub(crate) const INLINE_VARS: u32 = 192;

/// A set of [`Var`]s.
///
/// # Examples
///
/// ```
/// use pd_anf::{Var, VarSet};
/// let set: VarSet = [Var(0), Var(5)].into_iter().collect();
/// assert!(set.contains(Var(5)));
/// assert!(!set.contains(Var(1)));
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct VarSet {
    inline: [u64; 3],
    /// Sorted, deduplicated indices `>= INLINE_VARS`.
    large: Vec<u32>,
}

/// Word index and bit of `v < INLINE_VARS`.
#[inline]
fn slot(v: Var) -> (usize, u64) {
    ((v.0 / 64) as usize, 1 << (v.0 % 64))
}

impl VarSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a singleton set.
    pub fn singleton(v: Var) -> Self {
        let mut s = Self::new();
        s.insert(v);
        s
    }

    /// Number of variables in the set.
    pub fn len(&self) -> usize {
        self.inline
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            + self.large.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inline == [0; 3] && self.large.is_empty()
    }

    /// Inserts a variable; returns `true` if it was not already present.
    pub fn insert(&mut self, v: Var) -> bool {
        if v.0 < INLINE_VARS {
            let (w, bit) = slot(v);
            let fresh = self.inline[w] & bit == 0;
            self.inline[w] |= bit;
            fresh
        } else {
            match self.large.binary_search(&v.0) {
                Ok(_) => false,
                Err(pos) => {
                    self.large.insert(pos, v.0);
                    true
                }
            }
        }
    }

    /// Removes a variable; returns `true` if it was present.
    pub fn remove(&mut self, v: Var) -> bool {
        if v.0 < INLINE_VARS {
            let (w, bit) = slot(v);
            let present = self.inline[w] & bit != 0;
            self.inline[w] &= !bit;
            present
        } else {
            match self.large.binary_search(&v.0) {
                Ok(pos) => {
                    self.large.remove(pos);
                    true
                }
                Err(_) => false,
            }
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: Var) -> bool {
        if v.0 < INLINE_VARS {
            let (w, bit) = slot(v);
            self.inline[w] & bit != 0
        } else {
            self.large.binary_search(&v.0).is_ok()
        }
    }

    /// Iterates over the variables in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        InlineBits::new(self.inline)
            .chain(self.large.iter().copied())
            .map(Var)
    }

    fn zip_words(&self, other: &VarSet, f: impl Fn(u64, u64) -> u64) -> [u64; 3] {
        [0, 1, 2].map(|w| f(self.inline[w], other.inline[w]))
    }

    /// Set union.
    pub fn union(&self, other: &VarSet) -> VarSet {
        let mut out = self.clone();
        out.inline = self.zip_words(other, |a, b| a | b);
        for &i in &other.large {
            out.insert(Var(i));
        }
        out
    }

    /// Set intersection.
    pub fn intersection(&self, other: &VarSet) -> VarSet {
        let large = self
            .large
            .iter()
            .filter(|i| other.large.binary_search(i).is_ok())
            .copied()
            .collect();
        VarSet {
            inline: self.zip_words(other, |a, b| a & b),
            large,
        }
    }

    /// Set difference (`self \ other`).
    pub fn difference(&self, other: &VarSet) -> VarSet {
        let large = self
            .large
            .iter()
            .filter(|i| other.large.binary_search(i).is_err())
            .copied()
            .collect();
        VarSet {
            inline: self.zip_words(other, |a, b| a & !b),
            large,
        }
    }

    /// Returns `true` if the sets share at least one variable.
    pub fn intersects(&self, other: &VarSet) -> bool {
        if self.zip_words(other, |a, b| a & b) != [0; 3] {
            return true;
        }
        // Both spill vectors are expected to be tiny.
        self.large
            .iter()
            .any(|i| other.large.binary_search(i).is_ok())
    }

    /// Returns `true` if every variable of `self` is in `other`.
    pub fn is_subset(&self, other: &VarSet) -> bool {
        if self.zip_words(other, |a, b| a & !b) != [0; 3] {
            return false;
        }
        self.large
            .iter()
            .all(|i| other.large.binary_search(i).is_ok())
    }

    /// Inserts every variable of the inline words `words`.
    #[inline]
    pub(crate) fn insert_inline_words(&mut self, words: &[u64; 3]) {
        for (a, b) in self.inline.iter_mut().zip(words) {
            *a |= b;
        }
    }

    /// The inline words: the members below [`INLINE_VARS`].
    #[inline]
    pub(crate) fn inline_words(&self) -> [u64; 3] {
        self.inline
    }
}

/// The `u128` mask of inline words' indices below 128.
#[inline]
pub(crate) fn mask_key(words: &[u64; 3]) -> u128 {
    u128::from(words[0]) | u128::from(words[1]) << 64
}

/// The indices set in three inline words, ascending: the bits below 128
/// as one `u128`, then the top word.
pub(crate) struct InlineBits {
    mask: u128,
    top: u64,
}

impl InlineBits {
    #[inline]
    pub(crate) fn new(words: [u64; 3]) -> Self {
        InlineBits {
            mask: mask_key(&words),
            top: words[2],
        }
    }
}

impl Iterator for InlineBits {
    type Item = u32;
    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.mask != 0 {
            let tz = self.mask.trailing_zeros();
            self.mask &= self.mask - 1;
            Some(tz)
        } else if self.top != 0 {
            let tz = self.top.trailing_zeros();
            self.top &= self.top - 1;
            Some(128 + tz)
        } else {
            None
        }
    }
}

impl FromIterator<Var> for VarSet {
    fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> Self {
        let mut s = VarSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<Var> for VarSet {
    fn extend<I: IntoIterator<Item = Var>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a VarSet {
    type Item = Var;
    type IntoIter = Box<dyn Iterator<Item = Var> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> VarSet {
        ids.iter().map(|&i| Var(i)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = VarSet::new();
        assert!(s.insert(Var(3)));
        assert!(!s.insert(Var(3)));
        assert!(s.insert(Var(200)));
        assert!(s.contains(Var(3)));
        assert!(s.contains(Var(200)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(Var(3)));
        assert!(!s.remove(Var(3)));
        assert!(s.remove(Var(200)));
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = set(&[0, 1, 130]);
        let b = set(&[1, 2, 130, 131]);
        assert_eq!(a.union(&b), set(&[0, 1, 2, 130, 131]));
        assert_eq!(a.intersection(&b), set(&[1, 130]));
        assert_eq!(a.difference(&b), set(&[0]));
        assert!(a.intersects(&b));
        assert!(!set(&[0]).intersects(&set(&[1])));
        assert!(set(&[1, 130]).is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn iter_is_sorted() {
        let s = set(&[140, 2, 7, 129]);
        let got: Vec<u32> = s.iter().map(|v| v.0).collect();
        assert_eq!(got, vec![2, 7, 129, 140]);
    }

    #[test]
    fn large_indices_round_trip() {
        let mut s = VarSet::new();
        for i in [500u32, 192, 191, 128, 127, 0] {
            s.insert(Var(i));
        }
        assert_eq!(s.len(), 6);
        let got: Vec<u32> = s.iter().map(|v| v.0).collect();
        assert_eq!(got, vec![0, 127, 128, 191, 192, 500]);
        assert!(s.remove(Var(191)) && !s.contains(Var(191)) && s.contains(Var(192)));
    }
}
