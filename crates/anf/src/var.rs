//! Variables and the variable pool.
//!
//! Every expression in this crate refers to variables by a compact index
//! ([`Var`]). The [`VarPool`] owns the mapping from indices to names and
//! metadata (variable *kind*), and is the only place where fresh variables
//! are allocated. Expressions themselves do not carry the pool; this keeps
//! them cheap to clone and free of lifetimes.

use std::collections::HashMap;
use std::fmt;

/// A Boolean variable, identified by a dense index into a [`VarPool`].
///
/// `Var` is a plain newtype over `u32`; it is meaningful only together with
/// the pool that allocated it.
///
/// # Examples
///
/// ```
/// use pd_anf::{Var, VarPool};
/// let mut pool = VarPool::new();
/// let a: Var = pool.input("a", 0, 0);
/// assert_eq!(pool.name(a), "a");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

impl Var {
    /// Returns the raw index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The role a variable plays in a decomposition problem.
///
/// Progressive Decomposition treats the three kinds differently:
/// primary-input grouping follows word/bit structure ([`VarKind::Input`]),
/// derived variables name leader expressions introduced by earlier
/// iterations, and selector variables tag output expressions when several
/// expressions are combined into one (paper §5.2) and are never eligible for
/// grouping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarKind {
    /// A primary input bit: bit `bit` of input word `word`.
    Input {
        /// Index of the input word (integer operand) this bit belongs to.
        word: usize,
        /// Bit position within the word, 0 = least significant.
        bit: usize,
    },
    /// A fresh variable naming a leader (basis) expression introduced at
    /// decomposition iteration `iteration`.
    Derived {
        /// Iteration of the main loop that introduced the variable.
        iteration: u32,
    },
    /// A selector variable `K_i` used to combine a list of expressions into
    /// a single expression before basis extraction.
    Selector,
}

/// Allocates variables and records their names and kinds.
///
/// # Examples
///
/// ```
/// use pd_anf::{VarPool, VarKind};
/// let mut pool = VarPool::new();
/// let a0 = pool.input("a0", 0, 0);
/// let s = pool.derived("s1", 3);
/// assert!(matches!(pool.kind(a0), VarKind::Input { word: 0, bit: 0 }));
/// assert!(matches!(pool.kind(s), VarKind::Derived { iteration: 3 }));
/// assert_eq!(pool.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarPool {
    names: Vec<String>,
    kinds: Vec<VarKind>,
    by_name: HashMap<String, Var>,
}

impl VarPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of variables allocated so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no variable has been allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    fn alloc(&mut self, name: String, kind: VarKind) -> Var {
        let v = Var(self.names.len() as u32);
        self.by_name.insert(name.clone(), v);
        self.names.push(name);
        self.kinds.push(kind);
        v
    }

    /// Allocates a primary-input variable.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already in use.
    pub fn input(&mut self, name: &str, word: usize, bit: usize) -> Var {
        assert!(
            !self.by_name.contains_key(name),
            "variable name {name:?} already allocated"
        );
        self.alloc(name.to_owned(), VarKind::Input { word, bit })
    }

    /// Allocates a whole input word `name[0..width]`, least-significant bit
    /// first, and returns its bit variables.
    pub fn input_word(&mut self, name: &str, word: usize, width: usize) -> Vec<Var> {
        (0..width)
            .map(|bit| self.input(&format!("{name}{bit}"), word, bit))
            .collect()
    }

    /// Allocates a derived variable introduced at the given iteration.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already in use.
    pub fn derived(&mut self, name: &str, iteration: u32) -> Var {
        assert!(
            !self.by_name.contains_key(name),
            "variable name {name:?} already allocated"
        );
        self.alloc(name.to_owned(), VarKind::Derived { iteration })
    }

    /// Allocates a derived variable with an auto-generated fresh name
    /// (`s0`, `s1`, ...; suffixed until unique).
    pub fn fresh_derived(&mut self, iteration: u32) -> Var {
        let mut i = self.names.len();
        loop {
            let name = format!("s{i}");
            if !self.by_name.contains_key(&name) {
                return self.alloc(name, VarKind::Derived { iteration });
            }
            i += 1;
        }
    }

    /// Allocates a selector variable with an auto-generated name (`K0`, ...).
    pub fn fresh_selector(&mut self) -> Var {
        let mut i = 0;
        loop {
            let name = format!("K{i}");
            if !self.by_name.contains_key(&name) {
                return self.alloc(name, VarKind::Selector);
            }
            i += 1;
        }
    }

    /// Looks up a variable by name, allocating it as a word-0 input when
    /// missing. Used by the expression parser.
    pub fn var_or_input(&mut self, name: &str) -> Var {
        if let Some(&v) = self.by_name.get(name) {
            v
        } else {
            let bit = self.names.len();
            self.alloc(name.to_owned(), VarKind::Input { word: 0, bit })
        }
    }

    /// Rebuilds a pool from `(name, kind)` pairs in allocation order — the
    /// inverse of walking [`VarPool::iter`] with [`VarPool::name`] and
    /// [`VarPool::kind`]. Snapshot rehydration (the flow's stage cache)
    /// depends on indices coming back identical, which holds because
    /// allocation order *is* index order.
    ///
    /// # Panics
    ///
    /// Panics if two entries share a name.
    pub fn from_parts(entries: Vec<(String, VarKind)>) -> Self {
        let mut pool = Self::new();
        for (name, kind) in entries {
            assert!(
                !pool.by_name.contains_key(&name),
                "duplicate variable name {name:?} in pool snapshot"
            );
            pool.alloc(name, kind);
        }
        pool
    }

    /// Looks up a variable by name.
    pub fn find(&self, name: &str) -> Option<Var> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not allocated by this pool.
    pub fn name(&self, v: Var) -> &str {
        &self.names[v.index()]
    }

    /// Returns the kind of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not allocated by this pool.
    pub fn kind(&self, v: Var) -> VarKind {
        self.kinds[v.index()]
    }

    /// Iterates over all variables in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.names.len() as u32).map(Var)
    }

    /// All primary-input variables, grouped by word index and sorted by bit
    /// (LSB first) within each word.
    pub fn input_words(&self) -> Vec<Vec<Var>> {
        let mut words: Vec<Vec<(usize, Var)>> = Vec::new();
        for v in self.iter() {
            if let VarKind::Input { word, bit } = self.kind(v) {
                if words.len() <= word {
                    words.resize_with(word + 1, Vec::new);
                }
                words[word].push((bit, v));
            }
        }
        words
            .into_iter()
            .map(|mut w| {
                w.sort_by_key(|&(bit, _)| bit);
                w.into_iter().map(|(_, v)| v).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_lookup() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        assert_eq!(pool.find("a"), Some(a));
        assert_eq!(pool.find("b"), Some(b));
        assert_eq!(pool.find("c"), None);
        assert_eq!(pool.name(a), "a");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn fresh_names_do_not_collide() {
        let mut pool = VarPool::new();
        pool.derived("s2", 0);
        let f1 = pool.fresh_derived(1);
        let f2 = pool.fresh_derived(1);
        assert_ne!(pool.name(f1), "s2");
        assert_ne!(pool.name(f1), pool.name(f2));
    }

    #[test]
    fn selectors_are_selector_kind() {
        let mut pool = VarPool::new();
        let k = pool.fresh_selector();
        assert!(matches!(pool.kind(k), VarKind::Selector));
        assert_eq!(pool.name(k), "K0");
    }

    #[test]
    fn input_words_are_grouped_and_sorted() {
        let mut pool = VarPool::new();
        let a1 = pool.input("a1", 0, 1);
        let b0 = pool.input("b0", 1, 0);
        let a0 = pool.input("a0", 0, 0);
        pool.derived("s", 0);
        let words = pool.input_words();
        assert_eq!(words, vec![vec![a0, a1], vec![b0]]);
    }

    #[test]
    fn input_word_allocates_lsb_first() {
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, 3);
        assert_eq!(pool.name(a[0]), "a0");
        assert_eq!(pool.name(a[2]), "a2");
        assert!(matches!(
            pool.kind(a[2]),
            VarKind::Input { word: 0, bit: 2 }
        ));
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn duplicate_name_panics() {
        let mut pool = VarPool::new();
        pool.input("a", 0, 0);
        pool.input("a", 0, 1);
    }
}
