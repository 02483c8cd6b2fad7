//! Multi-level synthesis of ANF expressions into gates.
//!
//! Progressive Decomposition produces *small* leader expressions (over at
//! most `k` variables per block); turning each into gates well is what the
//! paper delegates to Design Compiler's local optimisation. This module
//! plays that role: a cost-driven recursive decomposition choosing, per
//! subexpression, between
//!
//! * **algebraic factoring** `X = v·Q ⊕ R` on the most frequent variable,
//! * **Shannon expansion** `X = v ? X|v=1 : X|v=0` (a mux), and
//! * direct forms (XOR chains for linear parts, AND trees for monomials,
//!   majority detection, complement peeling of the constant term),
//!
//! with memoisation so structure shared between outputs is built once.
//!
//! Both expansions of a variable `v` come from one split
//! `X = v·Q ⊕ R` ([`Anf::split_on`]): the Shannon cofactors are
//! `X|v=0 = R` and `X|v=1 = Q ⊕ R`, so pricing a mux costs one XOR of
//! the parts already in hand rather than two substitutions. The memo
//! tables are keyed through a seeded Fx-style hasher
//! ([`crate::fxhash`]); none is iterated, so plans, estimates and
//! emitted gates do not depend on hash values.

use crate::fxhash::{FxBuildHasher, FxHashMap};
use crate::gate::NodeId;
use crate::netlist::Netlist;
use pd_anf::{Anf, Var, VarSet};
use std::collections::{HashMap, HashSet};

#[cfg(test)]
mod reference;

/// Expressions larger than this skip Shannon-expansion cost probing (the
/// factoring path alone is used), bounding synthesis time on the huge flat
/// baseline expressions.
const SHANNON_TERM_LIMIT: usize = 48;

/// Expressions with larger supports only probe the most frequent variable
/// instead of every support variable.
const FULL_SEARCH_SUPPORT_LIMIT: usize = 12;

/// Relative cost of a mux cell versus a two-input gate.
const MUX_COST: f64 = 1.3;

/// Subexpression-planning budget per top-level [`Synthesizer::emit`]
/// call. The cost search recurses over cofactors and quotients; on the
/// small leader cones the decomposer produces it plans a few hundred
/// subexpressions, but a wide flat cone (a dozen-plus variables, dozens
/// of terms) can spawn an exponential frontier of restricted
/// subexpressions. Past the budget the planner degrades to greedy
/// most-frequent-variable factoring for the rest of that cone; the
/// counter resets per emitted cone, so one pathological cone cannot
/// degrade the cones synthesised after it.
const PLAN_BUDGET: usize = 4_000;

/// How a non-trivial expression is decomposed into gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Decision {
    /// `1 ⊕ rest`: synthesise `rest`, invert.
    PeelOne,
    /// Single monomial: AND tree.
    Monomial,
    /// All terms degree ≤ 1: XOR tree.
    Linear,
    /// `ab ⊕ bc ⊕ ca`: single MAJ gate.
    Majority,
    /// The OR of all support literals: balanced OR tree.
    OrOfLiterals,
    /// `v·Q ⊕ R` algebraic factoring.
    Factor(Var),
    /// `v ? f₁ : f₀` Shannon expansion (mux).
    Shannon(Var),
}

/// Synthesises expressions into a [`Netlist`] with cross-call sharing.
///
/// # Examples
///
/// ```
/// use pd_anf::{Anf, VarPool};
/// use pd_netlist::{Netlist, Synthesizer};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pool = VarPool::new();
/// let maj = Anf::parse("a*b ^ b*c ^ c*a", &mut pool)?;
/// let mut nl = Netlist::new();
/// let mut synth = Synthesizer::new();
/// let node = synth.emit(&mut nl, &maj);
/// nl.set_output("maj", node);
/// assert!(nl.len() <= 5, "majority should map to a single MAJ gate");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Synthesizer {
    /// Expression → node cache (shared subcircuits are built once).
    memo: FxHashMap<Anf, NodeId>,
    /// Variable → node bindings; defaults to primary inputs.
    env: HashMap<Var, NodeId>,
    /// Chosen decomposition, its estimated cost, and whether it was
    /// computed in degraded (over-budget) mode, per expression.
    plan_memo: FxHashMap<Anf, (Decision, f64, bool)>,
    /// Subexpressions planned so far (see [`PLAN_BUDGET`]).
    planned: usize,
    /// Expression → [`Synthesizer::estimate`], each priced from an empty
    /// plan memo, so an entry does not depend on what was estimated or
    /// emitted before it.
    estimates: FxHashMap<Anf, f64>,
}

impl Synthesizer {
    /// Creates a synthesizer with no bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds variable `v` to an existing node instead of a primary input.
    ///
    /// Progressive Decomposition uses this to wire a block's group
    /// variables to the leader outputs of earlier blocks.
    pub fn bind(&mut self, v: Var, node: NodeId) {
        self.env.insert(v, node);
    }

    fn node_for_var(&mut self, nl: &mut Netlist, v: Var) -> NodeId {
        if let Some(&n) = self.env.get(&v) {
            n
        } else {
            let n = nl.input(v);
            self.env.insert(v, n);
            n
        }
    }

    /// Estimated implementation cost (≈ gate count) of `expr`.
    fn cost(&mut self, expr: &Anf) -> f64 {
        if expr.is_constant() || expr.as_literal().is_some() {
            return 0.0;
        }
        self.plan(expr).1
    }

    /// Chooses (and caches) the cheapest decomposition for a non-trivial
    /// expression. A plan memoised while over budget is greedy, not
    /// cheapest — it is reused only while still over budget and recomputed
    /// once a later cone's fresh budget allows the full search, so a
    /// pathological cone cannot poison the cones synthesised after it.
    ///
    /// The flag records the budget state when the search *started*: a
    /// search whose subtree crossed the budget partway through is stored
    /// as a full plan, so emission depends on memo history. (An
    /// [`Synthesizer::estimate`] plans from an empty memo and is not
    /// affected.)
    fn plan(&mut self, expr: &Anf) -> (Decision, f64) {
        let over_budget = self.planned >= PLAN_BUDGET;
        if let Some(&(d, c, degraded)) = self.plan_memo.get(expr) {
            if !degraded || over_budget {
                return (d, c);
            }
        }
        let p = self.plan_uncached(expr);
        self.plan_memo.insert(expr.clone(), (p.0, p.1, over_budget));
        p
    }

    fn plan_uncached(&mut self, expr: &Anf) -> (Decision, f64) {
        self.planned += 1;
        // Complement peel: 1 ⊕ rest is an inverter around rest.
        if expr.terms().any(|t| t.is_one()) {
            let c = 0.25 + self.cost(&expr.xor(&Anf::one()));
            return (Decision::PeelOne, c);
        }
        if expr.term_count() == 1 {
            return (Decision::Monomial, (expr.degree() - 1) as f64);
        }
        if expr.degree() <= 1 {
            return (Decision::Linear, (expr.term_count() - 1) as f64);
        }
        let support = expr.support();
        if is_majority(expr, &support) {
            return (Decision::Majority, 1.0);
        }
        if is_or_of_literals(expr, &support) {
            return (Decision::OrOfLiterals, (support.len() - 1) as f64);
        }
        let over_budget = self.planned >= PLAN_BUDGET;
        let candidates: Vec<Var> = if support.len() <= FULL_SEARCH_SUPPORT_LIMIT && !over_budget {
            support.iter().collect()
        } else {
            vec![most_frequent_var(expr).expect("nonlinear expression has variables")]
        };
        let try_shannon = !over_budget
            && expr.term_count() <= SHANNON_TERM_LIMIT
            && candidates.len() <= FULL_SEARCH_SUPPORT_LIMIT;
        let mut best = (Decision::Factor(candidates[0]), f64::INFINITY);
        for &v in &candidates {
            let (q, r) = expr.split_on(v);
            if q.is_zero() {
                continue; // v does not actually occur
            }
            let gate_cost = f64::from(u8::from(!q.is_one())) + f64::from(u8::from(!r.is_zero()));
            let cost_q = self.cost(&q);
            let cost_r = self.cost(&r);
            let c = gate_cost + cost_q + cost_r;
            if c < best.1 {
                best = (Decision::Factor(v), c);
            }
            if try_shannon {
                // X|v=0 = R and X|v=1 = Q ⊕ R. Re-pricing R would be a
                // memo hit that changes no state, so its cost is reused.
                let c = MUX_COST + cost_r + self.cost(&q.xor(&r));
                if c < best.1 {
                    best = (Decision::Shannon(v), c);
                }
            }
        }
        best
    }

    /// Estimated implementation cost of `expr` in gate-equivalents,
    /// without emitting anything.
    ///
    /// This is the same cost model [`Synthesizer::emit`] plans with
    /// (factoring vs Shannon vs the direct forms), so callers can price
    /// alternative expressions — e.g. a divisor rewrite, or two candidate
    /// hierarchies — by how they would actually map, rather than by raw
    /// literal counts (which undervalue OR/majority-shaped cones the
    /// emitter handles specially). Variables are priced as free inputs.
    ///
    /// The estimate is a function of `expr` alone: a miss plans `expr`
    /// from an empty plan memo under a fresh [`PLAN_BUDGET`], exactly as
    /// `Synthesizer::new().estimate(expr)` would, and only the top-level
    /// cost is cached. Re-estimating an expression is a table hit, and
    /// neither earlier estimates nor emitted cones change the value (the
    /// emission memo is not touched).
    pub fn estimate(&mut self, expr: &Anf) -> f64 {
        if let Some(&c) = self.estimates.get(expr) {
            return c;
        }
        let c = price(expr);
        self.estimates.insert(expr.clone(), c);
        c
    }

    /// Caches the [`Synthesizer::estimate`] of every expression in
    /// `exprs`, pricing the distinct uncached ones in parallel
    /// (`pd_par::par_map`). An estimate depends on its expression alone,
    /// so the cache ends up the same as after estimating them one by one,
    /// at any thread count.
    pub fn estimate_all<'a>(&mut self, exprs: impl IntoIterator<Item = &'a Anf>) {
        let mut seen: HashSet<&Anf, FxBuildHasher> = HashSet::default();
        let misses: Vec<&Anf> = exprs
            .into_iter()
            .filter(|e| !self.estimates.contains_key(*e) && seen.insert(*e))
            .collect();
        let costs = pd_par::par_map(&misses, |e| price(e));
        for (e, c) in misses.into_iter().zip(costs) {
            self.estimates.insert(e.clone(), c);
        }
    }

    /// Builds `expr` into `nl`, returning the output node.
    pub fn emit(&mut self, nl: &mut Netlist, expr: &Anf) -> NodeId {
        // Each top-level cone gets the full planning budget (cached plans
        // from earlier cones are still reused).
        self.planned = 0;
        self.emit_inner(nl, expr)
    }

    fn emit_inner(&mut self, nl: &mut Netlist, expr: &Anf) -> NodeId {
        if expr.is_zero() {
            return nl.constant(false);
        }
        if expr.is_one() {
            return nl.constant(true);
        }
        if let Some(v) = expr.as_literal() {
            return self.node_for_var(nl, v);
        }
        if let Some(&n) = self.memo.get(expr) {
            return n;
        }
        let n = self.emit_uncached(nl, expr);
        self.memo.insert(expr.clone(), n);
        n
    }

    fn emit_uncached(&mut self, nl: &mut Netlist, expr: &Anf) -> NodeId {
        match self.plan(expr).0 {
            Decision::PeelOne => {
                let inner = self.emit_inner(nl, &expr.xor(&Anf::one()));
                nl.not(inner)
            }
            Decision::Monomial => {
                let term = expr.terms().next().expect("one term").clone();
                let nodes: Vec<NodeId> = term.vars().map(|v| self.node_for_var(nl, v)).collect();
                nl.and_many(&nodes)
            }
            Decision::Linear => {
                let nodes: Vec<NodeId> = expr
                    .terms()
                    .map(|t| {
                        let v = t.vars().next().expect("degree-1 term");
                        self.node_for_var(nl, v)
                    })
                    .collect();
                nl.xor_many(&nodes)
            }
            Decision::Majority => {
                let vars: Vec<Var> = expr.support().iter().collect();
                let (a, b, c) = (
                    self.node_for_var(nl, vars[0]),
                    self.node_for_var(nl, vars[1]),
                    self.node_for_var(nl, vars[2]),
                );
                nl.maj(a, b, c)
            }
            Decision::OrOfLiterals => {
                let nodes: Vec<NodeId> = expr
                    .support()
                    .iter()
                    .map(|v| self.node_for_var(nl, v))
                    .collect();
                nl.or_many(&nodes)
            }
            Decision::Shannon(v) => {
                let (q, r) = expr.split_on(v);
                let n0 = self.emit_inner(nl, &r);
                let n1 = self.emit_inner(nl, &q.xor(&r));
                let sel = self.node_for_var(nl, v);
                nl.mux(sel, n0, n1)
            }
            Decision::Factor(v) => {
                let (q, r) = expr.split_on(v);
                let nq = self.emit_inner(nl, &q);
                let nv = self.node_for_var(nl, v);
                let prod = nl.and(nv, nq);
                if r.is_zero() {
                    prod
                } else {
                    let nr = self.emit_inner(nl, &r);
                    nl.xor(prod, nr)
                }
            }
        }
    }
}

/// The estimated cost of `expr`, planned from an empty plan memo under a
/// fresh budget.
fn price(expr: &Anf) -> f64 {
    Synthesizer::new().cost(expr)
}

/// Returns the variable occurring in the most terms (ties → lowest index).
fn most_frequent_var(expr: &Anf) -> Option<Var> {
    let mut counts: HashMap<Var, usize> = HashMap::new();
    for t in expr.terms() {
        for v in t.vars() {
            *counts.entry(v).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
        .map(|(v, _)| v)
}

/// Recognises `ab ⊕ bc ⊕ ca` over exactly three variables (`support`
/// is `expr`'s).
fn is_majority(expr: &Anf, support: &VarSet) -> bool {
    if support.len() != 3 || expr.term_count() != 3 {
        return false;
    }
    expr.terms().all(|t| t.degree() == 2)
}

/// Recognises the OR of all support literals (whose ANF is the XOR of all
/// `2^n − 1` nonempty subset products — e.g. the LZD's `V` leaders), so it
/// can be built as a balanced OR tree instead of a Shannon chain
/// (`support` is `expr`'s).
fn is_or_of_literals(expr: &Anf, support: &VarSet) -> bool {
    let n = support.len();
    if !(2..=10).contains(&n) || expr.term_count() != (1usize << n) - 1 {
        return false;
    }
    let mut acc = Anf::zero();
    for v in support.iter() {
        acc = acc.or(&Anf::var(v));
    }
    acc == *expr
}

/// Synthesises a list of named outputs with sharing between them, binding
/// all variables to primary inputs.
pub fn synthesize_outputs(outputs: &[(String, Anf)]) -> Netlist {
    let mut nl = Netlist::new();
    let mut synth = Synthesizer::new();
    for (name, expr) in outputs {
        let node = synth.emit(&mut nl, expr);
        nl.set_output(name, node);
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::check_equiv_anf;
    use pd_anf::VarPool;
    use proptest::prelude::*;

    fn check(src: &str) -> (Netlist, usize) {
        let mut pool = VarPool::new();
        let expr = Anf::parse(src, &mut pool).unwrap();
        let outputs = vec![("y".to_owned(), expr)];
        let nl = synthesize_outputs(&outputs);
        assert_eq!(
            check_equiv_anf(&nl, &outputs, 16, 42),
            None,
            "synthesis of {src} must be equivalent"
        );
        let n = nl.len();
        (nl, n)
    }

    #[test]
    fn simple_forms() {
        check("0");
        check("1");
        check("a");
        check("a*b");
        check("a ^ b ^ c");
        check("1 ^ a*b");
        check("a*b*c*d ^ 1");
    }

    #[test]
    fn majority_uses_single_gate() {
        let (nl, _) = check("a*b ^ b*c ^ c*a");
        let majs = nl
            .iter()
            .filter(|(_, g)| matches!(g, crate::gate::Gate::Maj(..)))
            .count();
        assert_eq!(majs, 1);
    }

    #[test]
    fn full_adder_sum_and_carry_share() {
        let mut pool = VarPool::new();
        let sum = Anf::parse("a ^ b ^ c", &mut pool).unwrap();
        let carry = Anf::parse("a*b ^ b*c ^ c*a", &mut pool).unwrap();
        let outputs = vec![("s".to_owned(), sum), ("co".to_owned(), carry)];
        let nl = synthesize_outputs(&outputs);
        assert_eq!(check_equiv_anf(&nl, &outputs, 8, 3), None);
        // 3 inputs + 2 XOR + 1 MAJ = 6 nodes.
        assert!(nl.len() <= 6, "got {} nodes", nl.len());
    }

    #[test]
    fn factoring_beats_flat_expansion() {
        // (a^b)(c^d) = 4 terms flat. Single-variable factoring yields
        // a(c^d) ^ b(c^d) with the (c^d) XOR shared by hashing:
        // 4 inputs + 1 xor + 2 and + 1 xor = 8 nodes (flat would be 11).
        let (nl, n) = check("a*c ^ a*d ^ b*c ^ b*d");
        let _ = nl;
        assert!(n <= 8, "expected factored form, got {n} nodes");
    }

    #[test]
    fn mux_pattern_uses_shannon() {
        // b ⊕ sb ⊕ sc = mux(s, b, c): 3 inputs + 1 mux.
        let (nl, n) = check("b ^ s*b ^ s*c");
        let muxes = nl
            .iter()
            .filter(|(_, g)| matches!(g, crate::gate::Gate::Mux { .. }))
            .count();
        assert_eq!(muxes, 1, "Shannon expansion should produce one mux");
        assert_eq!(n, 4);
    }

    #[test]
    fn larger_random_expressions_are_equivalent() {
        // Deterministic pseudo-random ANFs over 6 variables at small
        // indices, at indices ≥128 only, and mixed across 128: Factor's
        // divisor variables sit above every pool index, so the cones it
        // prices carry terms in the lexicographic order class (an index
        // of 128 or more), stored as heap index slices from 192 on.
        let layouts: [[u32; 6]; 3] = [
            [0, 1, 2, 3, 4, 5],
            [128, 129, 140, 165, 200, 300],
            [0, 5, 127, 128, 165, 1000],
        ];
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for vars in &layouts {
            for _ in 0..12 {
                let terms = (next() % 10 + 1) as usize;
                let expr = random_anf(vars, terms, &mut next);
                let outputs = vec![("y".to_owned(), expr)];
                let nl = synthesize_outputs(&outputs);
                assert_eq!(check_equiv_anf(&nl, &outputs, 4, 9), None);
            }
        }
    }

    /// A random ANF of `terms` monomials over `vars`, each term a random
    /// subset drawn from `next`.
    fn random_anf(vars: &[u32], terms: usize, mut next: impl FnMut() -> u64) -> Anf {
        Anf::from_terms(
            (0..terms)
                .map(|_| {
                    let mask = next();
                    pd_anf::Monomial::from_vars(
                        (0..vars.len())
                            .filter(|&i| mask >> i & 1 == 1)
                            .map(|i| Var(vars[i])),
                    )
                })
                .collect(),
        )
    }

    /// One call of the sequence the reference comparison replays on both
    /// planners.
    enum Call {
        Estimate(Anf),
        Emit(Anf),
        /// Emit, then bind a variable to the result, the way
        /// `Decomposition::to_netlist` wires a leader into later cones.
        EmitBind(Anf, Var),
    }

    /// Replays `calls` on the fast planner and on the reference, and
    /// asserts bit-equal estimates (against a fresh-memo reference, since
    /// an estimate depends on its expression alone), equal returned nodes,
    /// equal planning counts after each emission and node-for-node equal
    /// netlists. Returns the largest per-emission planning count, so
    /// callers can check the budget path was reached.
    fn replay_against_reference(calls: &[Call]) -> usize {
        let (mut fast, mut slow) = (
            Synthesizer::new(),
            reference::ReferenceSynthesizer::default(),
        );
        let (mut nl_fast, mut nl_slow) = (Netlist::new(), Netlist::new());
        let mut peak = 0;
        for (i, call) in calls.iter().enumerate() {
            match call {
                Call::Estimate(e) => {
                    let fresh = reference::ReferenceSynthesizer::default().estimate(e);
                    let a = fast.estimate(e);
                    assert_eq!(
                        a.to_bits(),
                        fresh.to_bits(),
                        "call {i}: estimate {a} vs {fresh}"
                    );
                }
                Call::Emit(e) | Call::EmitBind(e, _) => {
                    let (a, b) = (fast.emit(&mut nl_fast, e), slow.emit(&mut nl_slow, e));
                    assert_eq!(a, b, "call {i}: emitted node");
                    if let Call::EmitBind(_, v) = call {
                        fast.bind(*v, a);
                        slow.bind(*v, b);
                    }
                    assert_eq!(fast.planned, slow.planned, "call {i}: planning count");
                    peak = peak.max(fast.planned);
                }
            }
        }
        let (a, b): (Vec<_>, Vec<_>) = (nl_fast.iter().collect(), nl_slow.iter().collect());
        assert_eq!(a, b, "netlists differ");
        peak
    }

    /// Variable layouts for the reference comparison: small indices only,
    /// large only, and mixed (the shape of a cone that has absorbed a
    /// fresh divisor variable).
    const LAYOUTS: [[u32; 14]; 3] = [
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
        [
            128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140, 141,
        ],
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 126, 127, 165, 300],
    ];

    fn call_strategy() -> impl Strategy<Value = Call> {
        (0u8..3, 0usize..3, collection::vec(0u64..(1 << 14), 1..40)).prop_map(
            |(kind, layout, masks)| {
                let mut masks = masks.into_iter();
                let e = random_anf(&LAYOUTS[layout], masks.len(), || {
                    masks.next().expect("one mask per term")
                });
                match kind {
                    0 => Call::Estimate(e),
                    1 => Call::Emit(e),
                    _ => Call::EmitBind(e, Var(LAYOUTS[layout][13])),
                }
            },
        )
    }

    proptest! {
        #[test]
        fn planner_matches_reference(calls in collection::vec(call_strategy(), 1..8)) {
            replay_against_reference(&calls);
        }
    }

    #[test]
    fn planner_matches_reference_past_the_budget() {
        // Wide flat cones push a single emission past PLAN_BUDGET, so
        // later calls meet degraded memo entries — re-planned under a
        // fresh budget, reused while over it.
        let peak = replay_against_reference(&wide_cone_calls());
        assert!(
            peak >= PLAN_BUDGET,
            "no call crossed the budget (peak {peak})"
        );
    }

    /// The calls of [`planner_matches_reference_past_the_budget`]: per
    /// layout, a wide flat cone that crosses `PLAN_BUDGET` and a narrow
    /// one, estimated, emitted and bound in an interleaved order.
    fn wide_cone_calls() -> Vec<Call> {
        let mut state = 0x2545_f491u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 20
        };
        let mut calls = Vec::new();
        for layout in &LAYOUTS {
            let wide = random_anf(layout, 40, &mut next);
            let narrow = random_anf(&layout[..8], 20, &mut next);
            calls.push(Call::Estimate(wide.clone()));
            calls.push(Call::Estimate(narrow.clone()));
            calls.push(Call::Emit(wide.clone()));
            calls.push(Call::EmitBind(narrow, Var(layout[13])));
            calls.push(Call::Estimate(wide));
        }
        calls
    }

    /// Replays `calls` on one synthesiser and asserts that every estimate
    /// is bit-equal to a fresh synthesiser's, whatever was estimated,
    /// emitted or bound before it.
    fn assert_estimates_are_pure(calls: &[Call]) {
        let mut synth = Synthesizer::new();
        let mut nl = Netlist::new();
        for (i, call) in calls.iter().enumerate() {
            match call {
                Call::Estimate(e) => {
                    let (a, b) = (synth.estimate(e), Synthesizer::new().estimate(e));
                    assert_eq!(a.to_bits(), b.to_bits(), "call {i}: estimate {a} vs {b}");
                }
                Call::Emit(e) => {
                    synth.emit(&mut nl, e);
                }
                Call::EmitBind(e, v) => {
                    let n = synth.emit(&mut nl, e);
                    synth.bind(*v, n);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn estimate_is_history_free(calls in collection::vec(call_strategy(), 1..12)) {
            assert_estimates_are_pure(&calls);
        }
    }

    #[test]
    fn estimate_is_history_free_past_the_budget() {
        // Each wide cone is estimated before the emissions that leave
        // over-budget plans in the emission memo and again (from the
        // cache) after them; `estimate_all` primes the same values.
        let calls = wide_cone_calls();
        assert_estimates_are_pure(&calls);
        let mut primed = Synthesizer::new();
        primed.estimate_all(calls.iter().filter_map(|c| match c {
            Call::Estimate(e) => Some(e),
            _ => None,
        }));
        for call in &calls {
            if let Call::Estimate(e) = call {
                let (a, b) = (primed.estimate(e), Synthesizer::new().estimate(e));
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn estimate_tracks_emission_quality() {
        let mut pool = VarPool::new();
        let maj = Anf::parse("a*b ^ b*c ^ c*a", &mut pool).unwrap();
        let vars: Vec<Anf> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| Anf::parse(n, &mut pool).unwrap())
            .collect();
        let or4 = vars.iter().fold(Anf::zero(), |acc, v| acc.or(v));
        let mut synth = Synthesizer::new();
        // The cost model prices the special forms, not the literal count:
        // majority is one gate despite 6 literals, the 4-input OR three
        // gates despite 32 literals.
        assert_eq!(synth.estimate(&maj), 1.0);
        assert_eq!(synth.estimate(&or4), 3.0);
        assert!(synth.estimate(&or4) < or4.literal_count() as f64);
        // Trivial expressions are free.
        assert_eq!(synth.estimate(&Anf::zero()), 0.0);
        assert_eq!(synth.estimate(&Anf::parse("a", &mut pool).unwrap()), 0.0);
    }

    #[test]
    fn bind_redirects_variables() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let s = pool.derived("s", 0);
        let mut nl = Netlist::new();
        let mut synth = Synthesizer::new();
        // s is bound to a^b rather than a primary input.
        let (na, nb) = (nl.input(a), nl.input(b));
        let inner = nl.xor(na, nb);
        synth.bind(s, inner);
        let expr = Anf::var(s).and(&Anf::var(a));
        let node = synth.emit(&mut nl, &expr);
        nl.set_output("y", node);
        let spec = vec![(
            "y".to_owned(),
            Anf::var(a).xor(&Anf::var(b)).and(&Anf::var(a)),
        )];
        assert_eq!(check_equiv_anf(&nl, &spec, 8, 5), None);
    }
}
