//! The planner as it was before cofactors came from the factor split: a
//! test-only reference that the fast [`Synthesizer`](super::Synthesizer)
//! must match call for call.
//!
//! It takes each Shannon cofactor by [`Anf::restrict`], recomputes the
//! support for every shape test, renormalises both factor parts with
//! [`Anf::from_terms`], and keys its memo tables with std's SipHash. The
//! search itself — candidate order, `cost` call order, the budget
//! counter, the degraded-plan flag — is the one the fast planner keeps.

use super::{
    is_majority, is_or_of_literals, most_frequent_var, Decision, FULL_SEARCH_SUPPORT_LIMIT,
    MUX_COST, PLAN_BUDGET, SHANNON_TERM_LIMIT,
};
use crate::gate::NodeId;
use crate::netlist::Netlist;
use pd_anf::{Anf, Var};
use std::collections::HashMap;

/// The reference synthesiser (same public surface as the fast one).
#[derive(Debug, Default)]
pub(super) struct ReferenceSynthesizer {
    memo: HashMap<Anf, NodeId>,
    env: HashMap<Var, NodeId>,
    plan_memo: HashMap<Anf, (Decision, f64, bool)>,
    pub(super) planned: usize,
}

impl ReferenceSynthesizer {
    pub(super) fn bind(&mut self, v: Var, node: NodeId) {
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

    fn cost(&mut self, expr: &Anf) -> f64 {
        if expr.is_constant() || expr.as_literal().is_some() {
            return 0.0;
        }
        self.plan(expr).1
    }

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
        if is_majority(expr, &expr.support()) {
            return (Decision::Majority, 1.0);
        }
        if is_or_of_literals(expr, &expr.support()) {
            let n = expr.support().len();
            return (Decision::OrOfLiterals, (n - 1) as f64);
        }
        let support: Vec<Var> = expr.support().iter().collect();
        let over_budget = self.planned >= PLAN_BUDGET;
        let candidates: Vec<Var> = if support.len() <= FULL_SEARCH_SUPPORT_LIMIT && !over_budget {
            support
        } else {
            vec![most_frequent_var(expr).expect("nonlinear expression has variables")]
        };
        let try_shannon = !over_budget
            && expr.term_count() <= SHANNON_TERM_LIMIT
            && candidates.len() <= FULL_SEARCH_SUPPORT_LIMIT;
        let mut best = (Decision::Factor(candidates[0]), f64::INFINITY);
        for &v in &candidates {
            let (q, r) = factor_out(expr, v);
            if q.is_zero() {
                continue;
            }
            let gate_cost = f64::from(u8::from(!q.is_one())) + f64::from(u8::from(!r.is_zero()));
            let c = gate_cost + self.cost(&q) + self.cost(&r);
            if c < best.1 {
                best = (Decision::Factor(v), c);
            }
            if try_shannon {
                let f0 = expr.restrict(v, false);
                let f1 = expr.restrict(v, true);
                let c = MUX_COST + self.cost(&f0) + self.cost(&f1);
                if c < best.1 {
                    best = (Decision::Shannon(v), c);
                }
            }
        }
        best
    }

    pub(super) fn estimate(&mut self, expr: &Anf) -> f64 {
        self.planned = 0;
        self.cost(expr)
    }

    pub(super) fn emit(&mut self, nl: &mut Netlist, expr: &Anf) -> NodeId {
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
                let f0 = expr.restrict(v, false);
                let f1 = expr.restrict(v, true);
                let n0 = self.emit_inner(nl, &f0);
                let n1 = self.emit_inner(nl, &f1);
                let sel = self.node_for_var(nl, v);
                nl.mux(sel, n0, n1)
            }
            Decision::Factor(v) => {
                let (q, r) = factor_out(expr, v);
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

fn factor_out(expr: &Anf, v: Var) -> (Anf, Anf) {
    let mut q = Vec::new();
    let mut r = Vec::new();
    for t in expr.terms() {
        if t.contains(v) {
            q.push(t.without(v));
        } else {
            r.push(t.clone());
        }
    }
    (Anf::from_terms(q), Anf::from_terms(r))
}
