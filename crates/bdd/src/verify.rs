//! Exact equivalence checking of netlists via canonical BDDs.
//!
//! [`pd_netlist::sim::check_equiv_anf`] is exhaustive only up to 20
//! inputs; the Table 1 circuits reach 36. Building both sides into one
//! BDD manager under a shared (interleaved) variable order turns
//! equivalence into a handle comparison, making the check *exact* at any
//! width for which the BDDs stay small — which they do for every circuit
//! in the paper.

use crate::bdd::{interleaved_order, Bdd, BddRef, CapacityError};
use pd_anf::{Anf, Var, VarPool};
use pd_netlist::{Gate, Netlist};

/// A reusable exact-verification context: one capped check per call.
///
/// The free functions in this module build a fresh [`Bdd`] manager — and
/// recompute the variable order — on every call. A flow that verifies the
/// same circuit at several stage boundaries pays that cost once by keeping
/// a `VerifyContext`: the manager (with its node table and operation
/// caches) persists across checks, so re-verifying structure that earlier
/// checks already built is a cache hit, not a rebuild.
///
/// Every check builds under the context's fixed order and node cap. A
/// check that overflows the cap returns [`CapacityError`] — undecided,
/// not wrong — and the manager is rebuilt (same order, same cap) so the
/// failed attempt's nodes do not count against later checks.
///
/// ```
/// use pd_anf::VarPool;
/// use pd_bdd::VerifyContext;
/// use pd_netlist::Netlist;
/// let mut pool = VarPool::new();
/// let a = pool.input("a", 0, 0);
/// let b = pool.input("b", 0, 1);
/// let mut nl = Netlist::new();
/// let (na, nb) = (nl.input(a), nl.input(b));
/// let y = nl.xor(na, nb);
/// nl.set_output("y", y);
/// let mut ctx = VerifyContext::new(&pool);
/// assert_eq!(ctx.check_netlists(&nl, &nl).unwrap(), None);
/// assert_eq!(ctx.check_netlists(&nl, &nl).unwrap(), None); // cached
/// ```
#[derive(Clone, Debug)]
pub struct VerifyContext {
    bdd: Bdd,
    order: Vec<Var>,
    node_cap: usize,
    checks_run: usize,
    peak_nodes: usize,
}

impl VerifyContext {
    /// Builds a context over the [`interleaved_order`] of `pool`.
    ///
    /// The order is computed here, once; every subsequent check uses it.
    pub fn new(pool: &VarPool) -> Self {
        Self::with_order(interleaved_order(pool))
    }

    /// Builds a context with an explicit variable order (inputs absent
    /// from `order` are appended in encounter order).
    pub fn with_order(order: Vec<Var>) -> Self {
        VerifyContext {
            bdd: Bdd::with_order(order.iter().copied()),
            order,
            node_cap: crate::bdd::DEFAULT_NODE_CAP,
            checks_run: 0,
            peak_nodes: 0,
        }
    }

    /// The variable order every check builds under.
    pub fn order(&self) -> &[Var] {
        &self.order
    }

    /// Number of checks run through this context so far.
    pub fn checks_run(&self) -> usize {
        self.checks_run
    }

    /// Nodes currently held by the shared manager; stable across repeated
    /// checks of already-built structure (everything hits the node table).
    pub fn node_count(&self) -> usize {
        self.bdd.len()
    }

    /// Largest node table any check reached, successful or not.
    pub fn peak_nodes(&self) -> usize {
        self.peak_nodes
    }

    /// Caps the shared manager's node table (see [`Bdd::set_node_cap`]).
    pub fn set_node_cap(&mut self, cap: usize) {
        self.node_cap = cap;
        self.bdd.set_node_cap(cap);
    }

    /// The configured node cap.
    pub fn node_cap(&self) -> usize {
        self.node_cap
    }

    /// Exact equivalence of two netlists with identical output names.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the BDDs exceed the node cap.
    ///
    /// # Panics
    ///
    /// Panics if `b` is missing an output name that `a` declares.
    pub fn check_netlists(
        &mut self,
        a: &Netlist,
        b: &Netlist,
    ) -> Result<Option<ExactMismatch>, CapacityError> {
        self.run_check(|bdd| {
            let fa = build_outputs(bdd, a)?;
            let fb = build_outputs(bdd, b)?;
            for (name, f) in &fa {
                let g = output_named(&fb, name, "second netlist");
                if let Some(m) = mismatch_for(bdd, name, *f, g)? {
                    return Ok(Some(m));
                }
            }
            Ok(None)
        })
    }

    /// Exact equivalence of a netlist against its ANF specification.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the BDDs exceed the node cap.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` is missing an output name that `spec` declares.
    pub fn check_netlist_vs_anf(
        &mut self,
        netlist: &Netlist,
        spec: &[(String, Anf)],
    ) -> Result<Option<ExactMismatch>, CapacityError> {
        self.run_check(|bdd| {
            let fs = build_outputs(bdd, netlist)?;
            for (name, expr) in spec {
                let f = output_named(&fs, name, "netlist");
                let g = bdd.from_anf(expr)?;
                if let Some(m) = mismatch_for(bdd, name, f, g)? {
                    return Ok(Some(m));
                }
            }
            Ok(None)
        })
    }

    /// Runs one check in the shared manager, recording its peak size.
    /// After an overflow the manager is rebuilt, so the failed attempt's
    /// nodes cannot starve a later check under the same cap.
    fn run_check(
        &mut self,
        check: impl FnOnce(&mut Bdd) -> Result<Option<ExactMismatch>, CapacityError>,
    ) -> Result<Option<ExactMismatch>, CapacityError> {
        self.checks_run += 1;
        let verdict = check(&mut self.bdd);
        self.peak_nodes = self.peak_nodes.max(self.bdd.len());
        if verdict.is_err() {
            self.bdd = Bdd::with_order(self.order.iter().copied());
            self.bdd.set_node_cap(self.node_cap);
        }
        verdict
    }
}

/// The root of the output called `name` among `outputs`.
///
/// # Panics
///
/// Panics if there is none; `side` names the netlist in the message.
fn output_named(outputs: &[(String, BddRef)], name: &str, side: &str) -> BddRef {
    outputs
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, f)| f)
        .unwrap_or_else(|| panic!("{side} has no output named {name:?}"))
}

/// One gate's BDD in terms of the already-built `values`.
fn eval_gate(bdd: &mut Bdd, gate: Gate, values: &[BddRef]) -> Result<BddRef, CapacityError> {
    Ok(match gate {
        Gate::Const(false) => BddRef::FALSE,
        Gate::Const(true) => BddRef::TRUE,
        Gate::Input(var) => bdd.try_var(var)?,
        Gate::Not(a) => bdd.not(values[a.index()])?,
        Gate::And(a, b) => bdd.and(values[a.index()], values[b.index()])?,
        Gate::Or(a, b) => bdd.or(values[a.index()], values[b.index()])?,
        Gate::Xor(a, b) => bdd.xor(values[a.index()], values[b.index()])?,
        Gate::Mux { sel, lo, hi } => {
            bdd.ite(values[sel.index()], values[hi.index()], values[lo.index()])?
        }
        Gate::Maj(a, b, c) => {
            let (fa, fb, fc) = (values[a.index()], values[b.index()], values[c.index()]);
            let or_bc = bdd.or(fb, fc)?;
            let and_bc = bdd.and(fb, fc)?;
            bdd.ite(fa, or_bc, and_bc)?
        }
    })
}

/// A counterexample produced by exact equivalence checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactMismatch {
    /// Name of the differing output.
    pub output: String,
    /// An input assignment on which the two sides differ. Variables not
    /// relevant to the difference are reported `false`.
    pub assignment: Vec<(Var, bool)>,
}

/// Builds the BDD of every named output of `netlist`.
///
/// Gates are processed in topological order, so the cost is one BDD
/// operation per gate.
///
/// # Errors
///
/// Returns [`CapacityError`] if the manager's node cap is exceeded.
pub fn build_outputs(
    bdd: &mut Bdd,
    netlist: &Netlist,
) -> Result<Vec<(String, BddRef)>, CapacityError> {
    let mut values: Vec<BddRef> = Vec::with_capacity(netlist.len());
    for (_, gate) in netlist.iter() {
        let v = eval_gate(bdd, gate, &values)?;
        values.push(v);
    }
    Ok(netlist
        .outputs()
        .iter()
        .map(|(name, n)| (name.clone(), values[n.index()]))
        .collect())
}

fn mismatch_for(
    bdd: &mut Bdd,
    name: &str,
    f: BddRef,
    g: BddRef,
) -> Result<Option<ExactMismatch>, CapacityError> {
    if f == g {
        return Ok(None);
    }
    let diff = bdd.xor(f, g)?;
    let assignment = bdd
        .any_sat(diff)
        .expect("f != g implies the difference is satisfiable");
    Ok(Some(ExactMismatch {
        output: name.to_owned(),
        assignment,
    }))
}

/// Exact equivalence of two netlists with identical output names, under
/// the variable order `order` (inputs absent from `order` are appended in
/// encounter order).
///
/// Returns `Ok(None)` when every output pair is functionally identical,
/// and a counterexample otherwise.
///
/// # Errors
///
/// Returns [`CapacityError`] if the BDDs exceed the node cap.
///
/// # Panics
///
/// Panics if `b` is missing an output name that `a` declares.
pub fn check_netlists_equal(
    a: &Netlist,
    b: &Netlist,
    order: &[Var],
) -> Result<Option<ExactMismatch>, CapacityError> {
    VerifyContext::with_order(order.to_vec()).check_netlists(a, b)
}

/// Exact equivalence of a netlist against its ANF specification.
///
/// Suitable when the specification's explicit term count is moderate;
/// multi-million-term specs should go through
/// [`check_netlists_equal`] against a reference netlist instead.
///
/// # Errors
///
/// Returns [`CapacityError`] if the BDDs exceed the node cap.
pub fn check_netlist_vs_anf(
    netlist: &Netlist,
    spec: &[(String, Anf)],
    order: &[Var],
) -> Result<Option<ExactMismatch>, CapacityError> {
    VerifyContext::with_order(order.to_vec()).check_netlist_vs_anf(netlist, spec)
}

/// Convenience wrapper: exact netlist-vs-netlist equivalence under the
/// [`interleaved_order`] derived from `pool`.
///
/// # Errors
///
/// Returns [`CapacityError`] if the BDDs exceed the node cap.
pub fn check_equal_interleaved(
    pool: &VarPool,
    a: &Netlist,
    b: &Netlist,
) -> Result<Option<ExactMismatch>, CapacityError> {
    check_netlists_equal(a, b, &interleaved_order(pool))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder_pair(width: usize) -> (VarPool, Netlist, Netlist) {
        // A ripple adder and a (differently structured) mux-based adder.
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, width);
        let b = pool.input_word("b", 1, width);
        let mut rca = Netlist::new();
        let mut carry = rca.constant(false);
        for i in 0..width {
            let (na, nb) = (rca.input(a[i]), rca.input(b[i]));
            let (s, c) = rca.full_adder(na, nb, carry);
            rca.set_output(&format!("s{i}"), s);
            carry = c;
        }
        rca.set_output(&format!("s{width}"), carry);
        let mut mux = Netlist::new();
        let mut carry = mux.constant(false);
        for i in 0..width {
            let (na, nb) = (mux.input(a[i]), mux.input(b[i]));
            let axb = mux.xor(na, nb);
            let s = mux.xor(axb, carry);
            mux.set_output(&format!("s{i}"), s);
            // carry-out = axb ? carry : a
            carry = mux.mux(axb, na, carry);
        }
        mux.set_output(&format!("s{width}"), carry);
        (pool, rca, mux)
    }

    #[test]
    fn equivalent_adders_verify_exactly() {
        let (pool, rca, mux) = adder_pair(16);
        assert_eq!(check_equal_interleaved(&pool, &rca, &mux).unwrap(), None);
    }

    #[test]
    fn injected_fault_is_caught_with_counterexample() {
        let (pool, rca, _) = adder_pair(8);
        // Corrupt: swap the top sum bit for the carry chain's complement.
        let mut bad = rca.clone();
        let (name, node) = bad.outputs().last().unwrap().clone();
        let wrong = bad.not(node);
        bad.set_output(&name, wrong);
        let m = check_equal_interleaved(&pool, &rca, &bad)
            .unwrap()
            .expect("must differ");
        assert_eq!(m.output, name);
        // The counterexample really distinguishes the two netlists.
        let assignment: std::collections::HashMap<Var, bool> =
            m.assignment.iter().copied().collect();
        let va = pd_netlist::sim::evaluate(&rca, &assignment);
        let vb = pd_netlist::sim::evaluate(&bad, &assignment);
        assert_ne!(va[&m.output], vb[&m.output]);
    }

    #[test]
    fn netlist_vs_anf_matches_simulation_verdict() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let c = pool.input("c", 0, 2);
        let mut nl = Netlist::new();
        let (na, nb, nc) = (nl.input(a), nl.input(b), nl.input(c));
        let m = nl.maj(na, nb, nc);
        nl.set_output("maj", m);
        let spec = vec![(
            "maj".to_owned(),
            Anf::parse("a*b ^ b*c ^ c*a", &mut pool).unwrap(),
        )];
        let order = interleaved_order(&pool);
        assert_eq!(check_netlist_vs_anf(&nl, &spec, &order).unwrap(), None);
        let wrong = vec![(
            "maj".to_owned(),
            Anf::parse("a*b ^ b*c", &mut pool).unwrap(),
        )];
        assert!(check_netlist_vs_anf(&nl, &wrong, &order).unwrap().is_some());
    }

    #[test]
    fn capacity_error_propagates() {
        let (pool, rca, mux) = adder_pair(16);
        let order = interleaved_order(&pool);
        let mut bdd = Bdd::with_order(order);
        bdd.set_node_cap(16);
        assert!(build_outputs(&mut bdd, &rca).is_err());
        let _ = mux;
    }

    #[test]
    fn verify_context_reuses_order_and_manager() {
        let (pool, rca, mux) = adder_pair(8);
        let mut ctx = VerifyContext::new(&pool);
        let order_before = ctx.order().to_vec();
        assert_eq!(ctx.check_netlists(&rca, &mux).unwrap(), None);
        let nodes_after_first = ctx.node_count();
        assert_eq!(ctx.check_netlists(&rca, &mux).unwrap(), None);
        // Second identical check: same pre-built order, and every BDD
        // operation resolves in the shared node table — nothing rebuilt.
        assert_eq!(ctx.order(), order_before.as_slice());
        assert_eq!(ctx.node_count(), nodes_after_first);
        assert_eq!(ctx.checks_run(), 2);
    }

    #[test]
    fn verify_context_mixes_netlist_and_anf_checks() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let c = pool.input("c", 0, 2);
        let mut nl = Netlist::new();
        let (na, nb, nc) = (nl.input(a), nl.input(b), nl.input(c));
        let m = nl.maj(na, nb, nc);
        nl.set_output("maj", m);
        let spec = vec![(
            "maj".to_owned(),
            Anf::parse("a*b ^ b*c ^ c*a", &mut pool).unwrap(),
        )];
        let mut ctx = VerifyContext::new(&pool);
        assert_eq!(ctx.check_netlist_vs_anf(&nl, &spec).unwrap(), None);
        let nodes = ctx.node_count();
        assert_eq!(ctx.check_netlists(&nl, &nl).unwrap(), None);
        assert_eq!(ctx.node_count(), nodes, "netlist already built");
    }

    #[test]
    fn overflow_resets_the_manager_for_the_next_check() {
        // Step one: adding 16-bit words overflows a 64-node cap. Step
        // two, under the same cap, checks two inputs the failed attempt
        // never touched; it needs a handful of nodes and must verify —
        // which it can only if the overflow's nodes were released.
        let (mut pool, rca, mux) = adder_pair(16);
        let c = pool.input_word("c", 2, 2);
        let mut ctx = VerifyContext::new(&pool);
        ctx.set_node_cap(64);
        assert!(ctx.check_netlists(&rca, &mux).is_err());
        assert_eq!(ctx.peak_nodes(), 64);
        let mut xor = Netlist::new();
        let (n0, n1) = (xor.input(c[0]), xor.input(c[1]));
        let y = xor.xor(n0, n1);
        xor.set_output("y", y);
        let mut sop = Netlist::new();
        let (n0, n1) = (sop.input(c[0]), sop.input(c[1]));
        let or = sop.or(n0, n1);
        let and = sop.and(n0, n1);
        let nand = sop.not(and);
        let y = sop.and(or, nand);
        sop.set_output("y", y);
        assert_eq!(ctx.check_netlists(&xor, &sop).unwrap(), None);
        assert_eq!(ctx.checks_run(), 2);
    }

    #[test]
    fn context_finds_real_mismatches() {
        // a>b built MSB-down, against a copy with its output inverted:
        // the shared context must return a genuine counterexample, and
        // stay usable for a passing check afterwards.
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, 8);
        let b = pool.input_word("b", 1, 8);
        let mut gt_nl = Netlist::new();
        let mut gt = gt_nl.constant(false);
        let mut eq = gt_nl.constant(true);
        for i in (0..8).rev() {
            let (na, nb) = (gt_nl.input(a[i]), gt_nl.input(b[i]));
            let nnb = gt_nl.not(nb);
            let a_gt_b = gt_nl.and(na, nnb);
            let win = gt_nl.and(eq, a_gt_b);
            gt = gt_nl.or(gt, win);
            let x = gt_nl.xor(na, nb);
            let same = gt_nl.not(x);
            eq = gt_nl.and(eq, same);
        }
        gt_nl.set_output("gt", gt);
        let mut bad = gt_nl.clone();
        let wrong = bad.not(gt);
        bad.set_output("gt", wrong);
        let mut ctx = VerifyContext::new(&pool);
        let m = ctx
            .check_netlists(&gt_nl, &bad)
            .unwrap()
            .expect("must differ");
        assert_eq!(m.output, "gt");
        let assignment: std::collections::HashMap<Var, bool> =
            m.assignment.iter().copied().collect();
        let va = pd_netlist::sim::evaluate(&gt_nl, &assignment);
        let vb = pd_netlist::sim::evaluate(&bad, &assignment);
        assert_ne!(va["gt"], vb["gt"]);
        assert_eq!(ctx.check_netlists(&gt_nl, &gt_nl).unwrap(), None);
    }

    #[test]
    fn constant_outputs_verify() {
        let mut a = Netlist::new();
        let t = a.constant(true);
        a.set_output("one", t);
        let mut b = Netlist::new();
        let f = b.constant(false);
        let t2 = b.not(f);
        b.set_output("one", t2);
        assert_eq!(check_netlists_equal(&a, &b, &[]).unwrap(), None);
    }
}
