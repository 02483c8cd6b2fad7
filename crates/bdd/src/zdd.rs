//! Zero-suppressed decision diagrams over monomial families — a compact
//! *canonical* carrier for Reed–Muller (ANF) expressions.
//!
//! The paper's conclusion (§7) calls for "a representation for Boolean
//! expressions which does not blow up the size of the original expression
//! but also follows the properties of a ring". A ZDD whose paths are the
//! monomials of the ANF is exactly that: it is canonical (like the
//! explicit ANF), supports XOR (symmetric difference of monomial sets)
//! and ring multiplication directly on the DAG, and stays polynomial for
//! circuits — such as the 32-bit LZD — whose explicit Reed–Muller form is
//! astronomically large.
//!
//! ```
//! use pd_anf::{Anf, VarPool};
//! use pd_bdd::Zdd;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pool = VarPool::new();
//! let x = Anf::parse("(a^b)*(p^c*d) ^ (c^d)*(p^a*b)", &mut pool)?;
//! let mut zdd = Zdd::new();
//! let f = zdd.from_anf(&x);
//! assert_eq!(zdd.term_count(f), x.term_count() as u128);
//! assert_eq!(zdd.to_anf(f), x); // round-trips through the canonical DAG
//! # Ok(())
//! # }
//! ```

use crate::davio::{self, DavioBuild};
use pd_anf::{Anf, Monomial, Var};
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;

/// A handle to an ANF (a family of monomials) in a [`Zdd`] manager.
///
/// Canonical within one manager: `f == g` iff the represented
/// expressions are equal as Boolean-ring elements.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ZddRef(u32);

impl ZddRef {
    /// The constant `0` (the empty family).
    pub const ZERO: ZddRef = ZddRef(0);
    /// The constant `1` (the family containing only the empty monomial).
    pub const ONE: ZddRef = ZddRef(1);

    fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` for the two ring constants.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }
}

impl fmt::Display for ZddRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "z{}", self.0)
    }
}

const TERMINAL_LEVEL: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Node {
    level: u32,
    /// Sub-family of monomials *not* containing the level's variable.
    lo: ZddRef,
    /// Sub-family of monomials containing it (with the variable removed).
    hi: ZddRef,
}

/// A shared ZDD node table with XOR/multiply caches, interpreting each
/// DAG as a Boolean-ring (Reed–Muller) expression.
///
/// Functions with handles in the same manager can be combined with
/// [`Zdd::xor`] (ring addition) and [`Zdd::mul`] (ring multiplication);
/// [`Zdd::not`] and [`Zdd::or`] provide the usual derived connectives
/// (`¬f = 1⊕f`, `f∨g = f⊕g⊕fg`).
#[derive(Clone, Debug, Default)]
pub struct Zdd {
    nodes: Vec<Node>,
    unique: HashMap<(u32, ZddRef, ZddRef), ZddRef>,
    xor_cache: HashMap<(ZddRef, ZddRef), ZddRef>,
    mul_cache: HashMap<(ZddRef, ZddRef), ZddRef>,
    level_of_var: Vec<u32>,
    var_of_level: Vec<Var>,
}

impl Zdd {
    /// Creates an empty manager; variables are ordered by first use.
    pub fn new() -> Self {
        Zdd {
            nodes: vec![
                Node { level: TERMINAL_LEVEL, lo: ZddRef::ZERO, hi: ZddRef::ZERO },
                Node { level: TERMINAL_LEVEL, lo: ZddRef::ONE, hi: ZddRef::ONE },
            ],
            unique: HashMap::new(),
            xor_cache: HashMap::new(),
            mul_cache: HashMap::new(),
            level_of_var: Vec::new(),
            var_of_level: Vec::new(),
        }
    }

    /// Creates a manager with a fixed variable order (first = topmost).
    pub fn with_order<I: IntoIterator<Item = Var>>(order: I) -> Self {
        let mut zdd = Self::new();
        for v in order {
            zdd.level(v);
        }
        zdd
    }

    /// Total number of nodes in the shared table (including terminals).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the table holds only the terminals.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// The variables in order (topmost first).
    pub fn order(&self) -> &[Var] {
        &self.var_of_level
    }

    fn level(&mut self, v: Var) -> u32 {
        let idx = v.index();
        if idx >= self.level_of_var.len() {
            self.level_of_var.resize(idx + 1, TERMINAL_LEVEL);
        }
        if self.level_of_var[idx] == TERMINAL_LEVEL {
            self.level_of_var[idx] = self.var_of_level.len() as u32;
            self.var_of_level.push(v);
        }
        self.level_of_var[idx]
    }

    fn node(&self, f: ZddRef) -> Node {
        self.nodes[f.index()]
    }

    fn mk(&mut self, level: u32, lo: ZddRef, hi: ZddRef) -> ZddRef {
        if hi == ZddRef::ZERO {
            // Zero-suppression: a node whose hi-branch is the empty family
            // adds no monomials and is elided.
            return lo;
        }
        if let Some(&r) = self.unique.get(&(level, lo, hi)) {
            return r;
        }
        let r = ZddRef(self.nodes.len() as u32);
        self.nodes.push(Node { level, lo, hi });
        self.unique.insert((level, lo, hi), r);
        r
    }

    /// The expression consisting of the single variable `v`, registering
    /// it on first use.
    pub fn var(&mut self, v: Var) -> ZddRef {
        let level = self.level(v);
        self.mk(level, ZddRef::ZERO, ZddRef::ONE)
    }

    /// Ring addition: XOR, i.e. the symmetric difference of the two
    /// monomial families.
    pub fn xor(&mut self, f: ZddRef, g: ZddRef) -> ZddRef {
        if f == ZddRef::ZERO {
            return g;
        }
        if g == ZddRef::ZERO {
            return f;
        }
        if f == g {
            return ZddRef::ZERO;
        }
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = self.xor_cache.get(&(f, g)) {
            return r;
        }
        let (nf, ng) = (self.node(f), self.node(g));
        let r = if nf.level == ng.level {
            let lo = self.xor(nf.lo, ng.lo);
            let hi = self.xor(nf.hi, ng.hi);
            self.mk(nf.level, lo, hi)
        } else if nf.level < ng.level {
            let lo = self.xor(nf.lo, g);
            self.mk(nf.level, lo, nf.hi)
        } else {
            let lo = self.xor(f, ng.lo);
            self.mk(ng.level, lo, ng.hi)
        };
        self.xor_cache.insert((f, g), r);
        r
    }

    /// Ring multiplication with idempotent variables (`x² = x`) and mod-2
    /// cancellation — exactly [`Anf::and`] on the DAG.
    pub fn mul(&mut self, f: ZddRef, g: ZddRef) -> ZddRef {
        if f == ZddRef::ZERO || g == ZddRef::ZERO {
            return ZddRef::ZERO;
        }
        if f == ZddRef::ONE {
            return g;
        }
        if g == ZddRef::ONE {
            return f;
        }
        if f == g {
            // Every element of a Boolean ring is idempotent.
            return f;
        }
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = self.mul_cache.get(&(f, g)) {
            return r;
        }
        let (nf, ng) = (self.node(f), self.node(g));
        let top = nf.level.min(ng.level);
        let (f0, f1) = if nf.level == top { (nf.lo, nf.hi) } else { (f, ZddRef::ZERO) };
        let (g0, g1) = if ng.level == top { (ng.lo, ng.hi) } else { (g, ZddRef::ZERO) };
        // (x·f1 ⊕ f0)(x·g1 ⊕ g0)
        //   = x·(f1g1 ⊕ f1g0 ⊕ f0g1) ⊕ f0g0      [x² = x]
        let f1g1 = self.mul(f1, g1);
        let f1g0 = self.mul(f1, g0);
        let f0g1 = self.mul(f0, g1);
        let f0g0 = self.mul(f0, g0);
        let t = self.xor(f1g1, f1g0);
        let hi = self.xor(t, f0g1);
        let r = self.mk(top, f0g0, hi);
        self.mul_cache.insert((f, g), r);
        r
    }

    /// Logical complement: `1 ⊕ f`.
    pub fn not(&mut self, f: ZddRef) -> ZddRef {
        self.xor(f, ZddRef::ONE)
    }

    /// Logical OR: `f ⊕ g ⊕ fg`.
    pub fn or(&mut self, f: ZddRef, g: ZddRef) -> ZddRef {
        let x = self.xor(f, g);
        let p = self.mul(f, g);
        self.xor(x, p)
    }

    /// Logical AND — an alias for ring multiplication.
    pub fn and(&mut self, f: ZddRef, g: ZddRef) -> ZddRef {
        self.mul(f, g)
    }

    /// Imports an explicit ANF.
    ///
    /// The ZDD of a term family splits on its topmost variable `x`
    /// exactly as the family does: the node `(x, Z(f₀), Z(f₂))`, with
    /// `f₀` the terms without `x` and `f₂` the terms with `x`, `x`
    /// removed. Built bottom-up in O(terms × support) with no XOR at all.
    /// Variables not yet registered are appended in term order.
    pub fn from_anf(&mut self, expr: &Anf) -> ZddRef {
        match davio::from_anf(self, expr) {
            Ok(f) => f,
            Err(never) => match never {},
        }
    }

    /// The single-monomial family for `m`.
    pub fn monomial(&mut self, m: &Monomial) -> ZddRef {
        let mut levels: Vec<u32> = m.vars().map(|v| self.level(v)).collect();
        levels.sort_unstable();
        let mut cur = ZddRef::ONE;
        for &level in levels.iter().rev() {
            cur = self.mk(level, ZddRef::ZERO, cur);
        }
        cur
    }

    /// Number of monomials (paths to the `1` terminal), saturating at
    /// `u128::MAX`.
    pub fn term_count(&self, f: ZddRef) -> u128 {
        let mut memo: HashMap<ZddRef, u128> = HashMap::new();
        self.term_count_rec(f, &mut memo)
    }

    fn term_count_rec(&self, f: ZddRef, memo: &mut HashMap<ZddRef, u128>) -> u128 {
        if f == ZddRef::ZERO {
            return 0;
        }
        if f == ZddRef::ONE {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let node = self.node(f);
        let lo = self.term_count_rec(node.lo, memo);
        let hi = self.term_count_rec(node.hi, memo);
        let c = lo.saturating_add(hi);
        memo.insert(f, c);
        c
    }

    /// Number of DAG nodes reachable from `f` (including terminals) —
    /// the "size" in the future-work sense: it can be exponentially
    /// smaller than [`Zdd::term_count`].
    pub fn node_count(&self, f: ZddRef) -> usize {
        self.node_count_many(&[f])
    }

    /// Number of DAG nodes reachable from any of `roots`, counting the
    /// shared structure once — the size of a multi-output expression
    /// list.
    pub fn node_count_many(&self, roots: &[ZddRef]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<ZddRef> = roots.to_vec();
        let mut count = 0usize;
        while let Some(n) = stack.pop() {
            if seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            count += 1;
            if !n.is_const() {
                let node = self.node(n);
                stack.push(node.lo);
                stack.push(node.hi);
            }
        }
        count
    }

    /// Exports the explicit ANF.
    ///
    /// # Panics
    ///
    /// Panics if the expression holds more than `usize::MAX` terms; use
    /// [`Zdd::to_anf_capped`] when the size is not known to be moderate.
    pub fn to_anf(&self, f: ZddRef) -> Anf {
        self.to_anf_capped(f, usize::MAX)
            .expect("capped at usize::MAX")
    }

    /// Exports the explicit ANF, or `None` if it holds more than
    /// `term_cap` monomials.
    pub fn to_anf_capped(&self, f: ZddRef, term_cap: usize) -> Option<Anf> {
        if self.term_count(f) > term_cap as u128 {
            return None;
        }
        let mut terms: Vec<Monomial> = Vec::new();
        let mut prefix: Vec<Var> = Vec::new();
        self.collect_terms(f, &mut prefix, &mut terms);
        Some(Anf::from_terms(terms))
    }

    fn collect_terms(&self, f: ZddRef, prefix: &mut Vec<Var>, out: &mut Vec<Monomial>) {
        if f == ZddRef::ZERO {
            return;
        }
        if f == ZddRef::ONE {
            out.push(Monomial::from_vars(prefix.iter().copied()));
            return;
        }
        let node = self.node(f);
        self.collect_terms(node.lo, prefix, out);
        prefix.push(self.var_of_level[node.level as usize]);
        self.collect_terms(node.hi, prefix, out);
        prefix.pop();
    }

    /// Evaluates the represented expression under a point assignment
    /// (XOR over monomials of AND over variables).
    pub fn eval(&self, f: ZddRef, assignment: impl Fn(Var) -> bool) -> bool {
        let mut memo: HashMap<ZddRef, bool> = HashMap::new();
        self.eval_rec(f, &assignment, &mut memo)
    }

    fn eval_rec(
        &self,
        f: ZddRef,
        assignment: &impl Fn(Var) -> bool,
        memo: &mut HashMap<ZddRef, bool>,
    ) -> bool {
        if f == ZddRef::ZERO {
            return false;
        }
        if f == ZddRef::ONE {
            return true;
        }
        if let Some(&b) = memo.get(&f) {
            return b;
        }
        let node = self.node(f);
        let v = self.var_of_level[node.level as usize];
        let lo = self.eval_rec(node.lo, assignment, memo);
        let hi = self.eval_rec(node.hi, assignment, memo);
        let b = lo ^ (assignment(v) & hi);
        memo.insert(f, b);
        b
    }
}

impl DavioBuild for Zdd {
    type Ref = ZddRef;
    type Error = Infallible;
    const ZERO: ZddRef = ZddRef::ZERO;
    const ONE: ZddRef = ZddRef::ONE;

    fn register(&mut self, v: Var) -> u32 {
        self.level(v)
    }

    fn davio_node(&mut self, level: u32, f0: ZddRef, f2: ZddRef) -> Result<ZddRef, Infallible> {
        Ok(self.mk(level, f0, f2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::VarPool;

    fn parse(zdd: &mut Zdd, pool: &mut VarPool, s: &str) -> (Anf, ZddRef) {
        let e = Anf::parse(s, pool).unwrap();
        let z = zdd.from_anf(&e);
        (e, z)
    }

    #[test]
    fn constants() {
        let zdd = Zdd::new();
        assert_eq!(zdd.term_count(ZddRef::ZERO), 0);
        assert_eq!(zdd.term_count(ZddRef::ONE), 1);
        assert_eq!(zdd.to_anf(ZddRef::ZERO), Anf::zero());
        assert_eq!(zdd.to_anf(ZddRef::ONE), Anf::one());
    }

    #[test]
    fn round_trip_is_canonical() {
        let mut pool = VarPool::new();
        let mut zdd = Zdd::new();
        let (e, z) = parse(&mut zdd, &mut pool, "a*b ^ c ^ a*c ^ 1");
        assert_eq!(zdd.to_anf(z), e);
        assert_eq!(zdd.term_count(z), 4);
        // Same expression built differently hits the same handle.
        let (_, z2) = parse(&mut zdd, &mut pool, "1 ^ a*c ^ c ^ a*b");
        assert_eq!(z, z2);
    }

    #[test]
    fn xor_cancels_mod2() {
        let mut pool = VarPool::new();
        let mut zdd = Zdd::new();
        let (_, f) = parse(&mut zdd, &mut pool, "a*b ^ c");
        let (_, g) = parse(&mut zdd, &mut pool, "c ^ d");
        let x = zdd.xor(f, g);
        let want = Anf::parse("a*b ^ d", &mut pool).unwrap();
        assert_eq!(zdd.to_anf(x), want);
        assert_eq!(zdd.xor(f, f), ZddRef::ZERO);
    }

    #[test]
    fn mul_matches_anf_and() {
        let mut pool = VarPool::new();
        let mut zdd = Zdd::new();
        let (ea, f) = parse(&mut zdd, &mut pool, "a ^ b");
        let (eb, g) = parse(&mut zdd, &mut pool, "a ^ c ^ 1");
        let p = zdd.mul(f, g);
        assert_eq!(zdd.to_anf(p), ea.and(&eb));
    }

    #[test]
    fn mul_is_idempotent() {
        let mut pool = VarPool::new();
        let mut zdd = Zdd::new();
        let (_, f) = parse(&mut zdd, &mut pool, "a*b ^ c*d ^ e");
        assert_eq!(zdd.mul(f, f), f);
    }

    #[test]
    fn paper_section4_factorisation_holds_in_zdd() {
        // X = (a⊕b)(p⊕cd) ⊕ (c⊕d)(p⊕ab) = (a⊕b⊕c⊕d)(p⊕ab⊕cd)
        let mut pool = VarPool::new();
        let mut zdd = Zdd::new();
        let (_, ab) = parse(&mut zdd, &mut pool, "a ^ b");
        let (_, pcd) = parse(&mut zdd, &mut pool, "p ^ c*d");
        let (_, cd) = parse(&mut zdd, &mut pool, "c ^ d");
        let (_, pab) = parse(&mut zdd, &mut pool, "p ^ a*b");
        let t1 = zdd.mul(ab, pcd);
        let t2 = zdd.mul(cd, pab);
        let x = zdd.xor(t1, t2);
        let (_, sum) = parse(&mut zdd, &mut pool, "a ^ b ^ c ^ d");
        let (_, inner) = parse(&mut zdd, &mut pool, "p ^ a*b ^ c*d");
        let factored = zdd.mul(sum, inner);
        assert_eq!(x, factored);
    }

    #[test]
    fn or_and_not_are_ring_derived() {
        let mut pool = VarPool::new();
        let mut zdd = Zdd::new();
        let (ea, f) = parse(&mut zdd, &mut pool, "a");
        let (eb, g) = parse(&mut zdd, &mut pool, "b*c");
        let o = zdd.or(f, g);
        assert_eq!(zdd.to_anf(o), ea.or(&eb));
        let n = zdd.not(f);
        assert_eq!(zdd.to_anf(n), ea.not());
        assert_eq!(zdd.not(n), f);
    }

    #[test]
    fn eval_matches_anf_eval() {
        let mut pool = VarPool::new();
        let mut zdd = Zdd::new();
        let (e, z) = parse(&mut zdd, &mut pool, "a*b ^ b*c ^ c*a ^ a ^ 1");
        let vars: Vec<Var> = ["a", "b", "c"].iter().map(|n| pool.find(n).unwrap()).collect();
        for bits in 0..8u32 {
            let assign = |v: Var| {
                let pos = vars.iter().position(|&q| q == v).unwrap();
                bits >> pos & 1 == 1
            };
            assert_eq!(zdd.eval(z, assign), e.eval(assign), "bits {bits:03b}");
        }
    }

    #[test]
    fn node_count_can_beat_term_count() {
        // Parity of n variables: n+2 nodes but n terms; product of sums
        // (x1⊕1)(x2⊕1)… has 2^n terms but n+2 nodes.
        let mut pool = VarPool::new();
        let vars = pool.input_word("x", 0, 16);
        let mut zdd = Zdd::new();
        let mut prod = ZddRef::ONE;
        for &v in &vars {
            let fv = zdd.var(v);
            let t = zdd.not(fv);
            prod = zdd.mul(prod, t);
        }
        assert_eq!(zdd.term_count(prod), 1 << 16);
        assert!(zdd.node_count(prod) <= 18, "got {}", zdd.node_count(prod));
    }

    #[test]
    fn to_anf_capped_refuses_large_expansions() {
        let mut pool = VarPool::new();
        let vars = pool.input_word("x", 0, 10);
        let mut zdd = Zdd::new();
        let mut prod = ZddRef::ONE;
        for &v in &vars {
            let fv = zdd.var(v);
            let t = zdd.not(fv);
            prod = zdd.mul(prod, t);
        }
        assert_eq!(zdd.to_anf_capped(prod, 100), None);
        assert!(zdd.to_anf_capped(prod, 1 << 10).is_some());
    }

    #[test]
    fn monomial_ordering_is_respected_regardless_of_insertion() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut zdd = Zdd::new();
        // Register b first so its level is above a's.
        let fb = zdd.var(b);
        let fa = zdd.var(a);
        let ab1 = zdd.mul(fa, fb);
        let ab2 = zdd.mul(fb, fa);
        assert_eq!(ab1, ab2);
        let e = zdd.to_anf(ab1);
        assert_eq!(e, Anf::var(a).and(&Anf::var(b)));
    }
}
