//! Reduced ordered binary decision diagrams.
//!
//! A [`Bdd`] manager owns a shared, hash-consed node table; functions are
//! [`BddRef`] handles into it. Because ROBDDs are canonical for a fixed
//! variable order, two functions are equal iff their handles are equal,
//! which is what makes the *exact* equivalence checks in [`crate::verify`]
//! possible for circuits whose input count is far beyond exhaustive
//! simulation (the paper's 32-bit LOD, 15-bit comparator and 12-bit
//! three-operand adder).

use crate::davio::{self, DavioBuild};
use pd_anf::{Anf, Var};
use std::collections::HashMap;
use std::fmt;

/// A handle to a function in a [`Bdd`] manager.
///
/// Handles are canonical: within one manager, `f == g` iff the two
/// functions are identical. Handles from different managers must not be
/// mixed (this is checked only insofar as out-of-range indices panic).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-false function.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant-true function.
    pub const TRUE: BddRef = BddRef(1);

    fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if this is one of the two constant functions.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }
}

impl fmt::Display for BddRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Error returned when a BDD operation would exceed the manager's node
/// capacity.
///
/// Decision diagrams can grow exponentially under a bad variable order
/// (or for inherently hard functions such as multiplication); the cap
/// turns that failure mode into a recoverable error instead of memory
/// exhaustion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityError {
    /// The configured node cap that was hit.
    pub cap: usize,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decision diagram exceeded the node cap of {}", self.cap)
    }
}

impl std::error::Error for CapacityError {}

const TERMINAL_LEVEL: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Node {
    level: u32,
    lo: BddRef,
    hi: BddRef,
}

/// A shared ROBDD node table with an ITE operation cache.
///
/// # Examples
///
/// ```
/// use pd_anf::VarPool;
/// use pd_bdd::Bdd;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pool = VarPool::new();
/// let a = pool.input("a", 0, 0);
/// let b = pool.input("b", 0, 1);
/// let mut bdd = Bdd::new();
/// let (fa, fb) = (bdd.var(a), bdd.var(b));
/// let lhs = bdd.xor(fa, fb)?;
/// let nb = bdd.not(fb)?;
/// let nanb = bdd.and(fa, nb)?;
/// let na = bdd.not(fa)?;
/// let nab = bdd.and(na, fb)?;
/// let rhs = bdd.or(nanb, nab)?;
/// assert_eq!(lhs, rhs); // canonical: a⊕b == a·¬b + ¬a·b
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<(u32, BddRef, BddRef), BddRef>,
    ite_cache: HashMap<(BddRef, BddRef, BddRef), BddRef>,
    level_of_var: Vec<u32>,
    var_of_level: Vec<Var>,
    node_cap: usize,
}

/// A generous default node cap (~64 M nodes) — far beyond anything the
/// benchmark circuits need, small enough to fail before memory does.
pub const DEFAULT_NODE_CAP: usize = 1 << 26;

impl Default for Bdd {
    fn default() -> Self {
        Self::new()
    }
}

impl Bdd {
    /// Creates an empty manager; variables are placed in the order they
    /// are first mentioned via [`Bdd::var`].
    pub fn new() -> Self {
        Bdd {
            nodes: vec![
                Node {
                    level: TERMINAL_LEVEL,
                    lo: BddRef::FALSE,
                    hi: BddRef::FALSE,
                },
                Node {
                    level: TERMINAL_LEVEL,
                    lo: BddRef::TRUE,
                    hi: BddRef::TRUE,
                },
            ],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
            level_of_var: Vec::new(),
            var_of_level: Vec::new(),
            node_cap: DEFAULT_NODE_CAP,
        }
    }

    /// Creates a manager with the given variable order (first = topmost).
    ///
    /// Variables not in `order` may still be used later; they are appended
    /// below the given ones on first use.
    pub fn with_order<I: IntoIterator<Item = Var>>(order: I) -> Self {
        let mut bdd = Self::new();
        for v in order {
            bdd.level(v);
        }
        bdd
    }

    /// Replaces the node cap (default [`DEFAULT_NODE_CAP`]).
    pub fn set_node_cap(&mut self, cap: usize) {
        self.node_cap = cap;
    }

    /// The configured node cap.
    pub fn node_cap(&self) -> usize {
        self.node_cap
    }

    /// Total number of nodes in the shared table (including the two
    /// terminals).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the table holds only the terminals.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// Number of registered variables.
    pub fn var_count(&self) -> usize {
        self.var_of_level.len()
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

    /// The function of a single variable, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the node cap has already been reached (single-variable
    /// nodes are otherwise always representable). Fallible callers — the
    /// netlist builders in [`crate::verify`], where a cap hit must
    /// surface as a recoverable [`CapacityError`] — use [`Bdd::try_var`].
    pub fn var(&mut self, v: Var) -> BddRef {
        self.try_var(v)
            .expect("node cap already exhausted before a single-variable node")
    }

    /// The function of a single variable, registering it on first use.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the node cap has been reached.
    pub fn try_var(&mut self, v: Var) -> Result<BddRef, CapacityError> {
        let level = self.level(v);
        self.mk(level, BddRef::FALSE, BddRef::TRUE)
    }

    fn mk(&mut self, level: u32, lo: BddRef, hi: BddRef) -> Result<BddRef, CapacityError> {
        if lo == hi {
            return Ok(lo);
        }
        if let Some(&r) = self.unique.get(&(level, lo, hi)) {
            return Ok(r);
        }
        if self.nodes.len() >= self.node_cap {
            return Err(CapacityError { cap: self.node_cap });
        }
        let r = BddRef(self.nodes.len() as u32);
        self.nodes.push(Node { level, lo, hi });
        self.unique.insert((level, lo, hi), r);
        Ok(r)
    }

    fn node(&self, f: BddRef) -> Node {
        self.nodes[f.index()]
    }

    fn cofactors(&self, f: BddRef, level: u32) -> (BddRef, BddRef) {
        let n = self.node(f);
        if n.level == level {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// If-then-else: `f·g ⊕ ¬f·h` — the universal ternary operator all
    /// binary operations reduce to.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the node table would exceed the cap.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> Result<BddRef, CapacityError> {
        if f == BddRef::TRUE {
            return Ok(g);
        }
        if f == BddRef::FALSE {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == BddRef::TRUE && h == BddRef::FALSE {
            return Ok(f);
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return Ok(r);
        }
        let top = self
            .node(f)
            .level
            .min(self.node(g).level)
            .min(self.node(h).level);
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0)?;
        let hi = self.ite(f1, g1, h1)?;
        let r = self.mk(top, lo, hi)?;
        self.ite_cache.insert((f, g, h), r);
        Ok(r)
    }

    /// Logical complement.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the node table would exceed the cap.
    pub fn not(&mut self, f: BddRef) -> Result<BddRef, CapacityError> {
        self.ite(f, BddRef::FALSE, BddRef::TRUE)
    }

    /// Conjunction.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the node table would exceed the cap.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, CapacityError> {
        self.ite(f, g, BddRef::FALSE)
    }

    /// Disjunction.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the node table would exceed the cap.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, CapacityError> {
        self.ite(f, BddRef::TRUE, g)
    }

    /// Exclusive or.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the node table would exceed the cap.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, CapacityError> {
        let ng = self.not(g)?;
        self.ite(f, ng, g)
    }

    /// Builds the BDD of a Reed–Muller (ANF) expression by positive-Davio
    /// expansion on the manager's order.
    ///
    /// With `x` the topmost variable of `expr`'s support, `expr = f₀ ⊕
    /// x·f₂` (`f₀`: the terms without `x`; `f₂`: the terms with `x`, `x`
    /// removed), so its BDD is the node `(x, B(f₀), B(f₀) ⊕ B(f₂))`. The
    /// halves are built recursively over strictly lower levels: splitting
    /// costs O(terms × support) and the only diagram operations are the
    /// per-level XORs, which the ITE cache memoises. Intermediate
    /// diagrams stay near the size of the result — unlike XOR-ing the
    /// terms in one at a time, whose running sums can be orders of
    /// magnitude larger than the function they end at. Variables not yet
    /// registered are appended in term order.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the node table would exceed the cap.
    pub fn from_anf(&mut self, expr: &Anf) -> Result<BddRef, CapacityError> {
        davio::from_anf(self, expr)
    }

    /// Number of nodes reachable from `f` (including terminals).
    pub fn node_count(&self, f: BddRef) -> usize {
        self.node_count_many(&[f])
    }

    /// Number of nodes reachable from any of `roots`, counting shared
    /// structure once.
    pub fn node_count_many(&self, roots: &[BddRef]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<BddRef> = roots.to_vec();
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

    /// Number of satisfying assignments over the manager's registered
    /// variables, as `f64` (exact for counts below 2⁵³).
    pub fn sat_count(&self, f: BddRef) -> f64 {
        let n_vars = self.var_of_level.len() as u32;
        let mut memo: HashMap<BddRef, f64> = HashMap::new();
        fn level_of(bdd: &Bdd, f: BddRef, n_vars: u32) -> u32 {
            if f.is_const() {
                n_vars
            } else {
                bdd.node(f).level
            }
        }
        fn go(bdd: &Bdd, f: BddRef, n_vars: u32, memo: &mut HashMap<BddRef, f64>) -> f64 {
            if f == BddRef::FALSE {
                return 0.0;
            }
            if f == BddRef::TRUE {
                return 1.0;
            }
            if let Some(&c) = memo.get(&f) {
                return c;
            }
            let node = bdd.node(f);
            let lo = go(bdd, node.lo, n_vars, memo);
            let hi = go(bdd, node.hi, n_vars, memo);
            let lo_skip = level_of(bdd, node.lo, n_vars) - node.level - 1;
            let hi_skip = level_of(bdd, node.hi, n_vars) - node.level - 1;
            let c = lo * (lo_skip as f64).exp2() + hi * (hi_skip as f64).exp2();
            memo.insert(f, c);
            c
        }
        let top_skip = if f.is_const() {
            n_vars
        } else {
            self.node(f).level
        };
        go(self, f, n_vars, &mut memo) * (top_skip as f64).exp2()
    }

    /// A satisfying assignment of `f`, or `None` for the constant-false
    /// function. Variables not on the chosen path are reported `false`.
    pub fn any_sat(&self, f: BddRef) -> Option<Vec<(Var, bool)>> {
        if f == BddRef::FALSE {
            return None;
        }
        let mut assignment: Vec<(Var, bool)> =
            self.var_of_level.iter().map(|&v| (v, false)).collect();
        let mut cur = f;
        while !cur.is_const() {
            let node = self.node(cur);
            let (value, next) = if node.lo != BddRef::FALSE {
                (false, node.lo)
            } else {
                (true, node.hi)
            };
            assignment[node.level as usize].1 = value;
            cur = next;
        }
        debug_assert_eq!(cur, BddRef::TRUE);
        Some(assignment)
    }

    /// Evaluates `f` under a point assignment.
    pub fn eval(&self, f: BddRef, assignment: impl Fn(Var) -> bool) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let node = self.node(cur);
            let v = self.var_of_level[node.level as usize];
            cur = if assignment(v) { node.hi } else { node.lo };
        }
        cur == BddRef::TRUE
    }
}

impl DavioBuild for Bdd {
    type Ref = BddRef;
    type Error = CapacityError;
    const ZERO: BddRef = BddRef::FALSE;
    const ONE: BddRef = BddRef::TRUE;

    fn register(&mut self, v: Var) -> u32 {
        self.level(v)
    }

    fn davio_node(&mut self, level: u32, f0: BddRef, f2: BddRef) -> Result<BddRef, CapacityError> {
        let hi = self.xor(f0, f2)?;
        self.mk(level, f0, hi)
    }
}

/// An input order that interleaves the bits of multi-bit operands,
/// most significant bit first: `a15 b15 a14 b14 …`.
///
/// Interleaving keeps BDDs of comparisons and additions linear in the
/// operand width, where the concatenated order `a15…a0 b15…b0` is
/// exponential; it is the right default for every circuit in the paper's
/// Table 1.
///
/// The order is **total** over the pool: variables that are not part of
/// any input word (derived leaders, selectors) are appended after the
/// interleaved inputs in pool-index order, so every registered variable
/// has a defined position.
pub fn interleaved_order(pool: &pd_anf::VarPool) -> Vec<Var> {
    let words = pool.input_words();
    let max_width = words.iter().map(Vec::len).max().unwrap_or(0);
    let mut order = Vec::new();
    for bit in (0..max_width).rev() {
        for word in &words {
            if bit < word.len() {
                order.push(word[bit]);
            }
        }
    }
    let mut placed = vec![false; pool.len()];
    for &v in &order {
        placed[v.index()] = true;
    }
    for v in pool.iter() {
        if !placed[v.index()] {
            order.push(v);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::VarPool;

    fn three_vars() -> (Bdd, BddRef, BddRef, BddRef) {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let c = pool.input("c", 0, 2);
        let mut bdd = Bdd::new();
        let (fa, fb, fc) = (bdd.var(a), bdd.var(b), bdd.var(c));
        (bdd, fa, fb, fc)
    }

    #[test]
    fn terminals_are_distinct_constants() {
        let bdd = Bdd::new();
        assert!(BddRef::FALSE.is_const());
        assert!(BddRef::TRUE.is_const());
        assert_ne!(BddRef::FALSE, BddRef::TRUE);
        assert_eq!(bdd.len(), 2);
    }

    #[test]
    fn canonicity_merges_equal_functions() {
        let (mut bdd, a, b, _) = three_vars();
        // a⊕b built two different ways.
        let x1 = bdd.xor(a, b).unwrap();
        let na = bdd.not(a).unwrap();
        let nb = bdd.not(b).unwrap();
        let p = bdd.and(a, nb).unwrap();
        let q = bdd.and(na, b).unwrap();
        let x2 = bdd.or(p, q).unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn boolean_identities() {
        let (mut bdd, a, b, _) = three_vars();
        assert_eq!(bdd.and(a, a).unwrap(), a);
        assert_eq!(bdd.or(a, a).unwrap(), a);
        assert_eq!(bdd.xor(a, a).unwrap(), BddRef::FALSE);
        let na = bdd.not(a).unwrap();
        assert_eq!(bdd.and(a, na).unwrap(), BddRef::FALSE);
        assert_eq!(bdd.or(a, na).unwrap(), BddRef::TRUE);
        assert_eq!(bdd.not(na).unwrap(), a);
        let ab = bdd.and(a, b).unwrap();
        let ba = bdd.and(b, a).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn ite_is_shannon_expansion() {
        let (mut bdd, a, b, c) = three_vars();
        let f = bdd.ite(a, b, c).unwrap();
        for bits in 0..8u32 {
            let vals = [bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1];
            let expect = if vals[0] { vals[1] } else { vals[2] };
            let got = bdd.eval(f, |v| vals[v.index()]);
            assert_eq!(got, expect, "bits {bits:03b}");
        }
    }

    #[test]
    fn sat_count_of_majority() {
        let (mut bdd, a, b, c) = three_vars();
        let ab = bdd.and(a, b).unwrap();
        let bc = bdd.and(b, c).unwrap();
        let ca = bdd.and(c, a).unwrap();
        let t = bdd.or(ab, bc).unwrap();
        let maj = bdd.or(t, ca).unwrap();
        assert_eq!(bdd.sat_count(maj), 4.0);
        assert_eq!(bdd.sat_count(BddRef::TRUE), 8.0);
        assert_eq!(bdd.sat_count(BddRef::FALSE), 0.0);
    }

    #[test]
    fn sat_count_skips_levels_correctly() {
        let (mut bdd, a, _, _) = three_vars();
        // f = a alone over a 3-variable manager: 4 satisfying points.
        assert_eq!(bdd.sat_count(a), 4.0);
        let na = bdd.not(a).unwrap();
        assert_eq!(bdd.sat_count(na), 4.0);
    }

    #[test]
    fn any_sat_finds_a_witness() {
        let (mut bdd, a, b, c) = three_vars();
        let nb = bdd.not(b).unwrap();
        let f0 = bdd.and(a, nb).unwrap();
        let f = bdd.and(f0, c).unwrap();
        let sat = bdd.any_sat(f).expect("satisfiable");
        let lookup = |i: usize| sat.iter().find(|(v, _)| v.index() == i).unwrap().1;
        assert!(lookup(0) && !lookup(1) && lookup(2));
        assert_eq!(bdd.any_sat(BddRef::FALSE), None);
        assert_eq!(
            bdd.any_sat(BddRef::TRUE),
            Some(vec![
                (bdd.order()[0], false),
                (bdd.order()[1], false),
                (bdd.order()[2], false),
            ])
        );
    }

    #[test]
    fn from_anf_matches_eval() {
        let mut pool = VarPool::new();
        let expr = Anf::parse("a*b ^ c ^ a*c ^ 1", &mut pool).unwrap();
        let vars: Vec<Var> = ["a", "b", "c"]
            .iter()
            .map(|n| pool.find(n).unwrap())
            .collect();
        let mut bdd = Bdd::new();
        let f = bdd.from_anf(&expr).unwrap();
        for bits in 0..8u32 {
            let assign = |v: Var| {
                let pos = vars.iter().position(|&q| q == v).unwrap();
                bits >> pos & 1 == 1
            };
            assert_eq!(bdd.eval(f, assign), expr.eval(assign), "bits {bits:03b}");
        }
    }

    #[test]
    fn node_cap_is_enforced() {
        let mut pool = VarPool::new();
        let vars = pool.input_word("x", 0, 16);
        let mut bdd = Bdd::new();
        bdd.set_node_cap(8);
        let mut acc = BddRef::TRUE;
        let mut failed = false;
        for chunk in vars.chunks(2) {
            let x = bdd.var(chunk[0]);
            let y = bdd.var(chunk[1]);
            let Ok(x_or_y) = bdd.or(x, y) else {
                failed = true;
                break;
            };
            match bdd.and(acc, x_or_y) {
                Ok(r) => acc = r,
                Err(e) => {
                    assert_eq!(e.cap, 8);
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "an 8-node cap cannot hold this function");
    }

    #[test]
    fn var_nodes_do_not_hit_tiny_cap() {
        // `var` itself promises not to exceed the cap for fresh variables
        // only when capacity remains; keep the promise observable.
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let mut bdd = Bdd::new();
        let f = bdd.var(a);
        assert_eq!(bdd.node_count(f), 3); // a node + two terminals
    }

    #[test]
    fn interleaved_order_mixes_words_msb_first() {
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, 3);
        let b = pool.input_word("b", 1, 3);
        let order = interleaved_order(&pool);
        assert_eq!(order, vec![a[2], b[2], a[1], b[1], a[0], b[0]]);
    }

    #[test]
    fn interleaved_order_handles_uneven_widths() {
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, 2);
        let b = pool.input_word("b", 1, 4);
        let order = interleaved_order(&pool);
        assert_eq!(order, vec![b[3], b[2], a[1], b[1], a[0], b[0]]);
    }

    #[test]
    fn interleaved_order_is_total_over_the_pool() {
        // Variables outside any input word (derived leaders, selectors)
        // must still appear in the order, deterministically.
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, 3);
        let lone = pool.derived("lead", 1);
        let b = pool.input_word("b", 1, 2);
        let order = interleaved_order(&pool);
        assert_eq!(order.len(), pool.len());
        let mut sorted: Vec<Var> = order.clone();
        sorted.sort_by_key(|v| v.index());
        sorted.dedup();
        assert_eq!(sorted.len(), pool.len(), "every pool var exactly once");
        // Interleaved inputs first, leftovers appended in index order.
        assert_eq!(order[..5], [a[2], a[1], b[1], a[0], b[0]]);
        assert_eq!(*order.last().unwrap(), lone);
    }

    #[test]
    fn comparator_is_linear_under_interleaved_order() {
        // a > b for 12-bit operands: the interleaved order must stay
        // linear in width. Build MSB-down: gt = Σ (eq-prefix)·aᵢ·¬bᵢ.
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, 12);
        let b = pool.input_word("b", 1, 12);
        let mut bdd = Bdd::with_order(interleaved_order(&pool));
        let mut gt = BddRef::FALSE;
        let mut eq = BddRef::TRUE;
        for i in (0..12).rev() {
            let (fa, fb) = (bdd.var(a[i]), bdd.var(b[i]));
            let nb = bdd.not(fb).unwrap();
            let a_gt_b = bdd.and(fa, nb).unwrap();
            let win = bdd.and(eq, a_gt_b).unwrap();
            gt = bdd.or(gt, win).unwrap();
            let same = bdd.xnor_for_test(fa, fb);
            eq = bdd.and(eq, same).unwrap();
        }
        assert!(
            bdd.node_count(gt) < 8 * 12,
            "comparator BDD must be linear, got {} nodes",
            bdd.node_count(gt)
        );
        // 12-bit a>b has Σ_{k} C(2^12, 2)… simpler: count pairs a>b = 2^12·(2^12−1)/2.
        let expect = (4096.0 * 4095.0) / 2.0;
        assert_eq!(bdd.sat_count(gt), expect);
    }

    impl Bdd {
        fn xnor_for_test(&mut self, f: BddRef, g: BddRef) -> BddRef {
            let x = self.xor(f, g).unwrap();
            self.not(x).unwrap()
        }
    }
}
