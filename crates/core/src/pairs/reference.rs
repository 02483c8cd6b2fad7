//! The pair-list kernels as they were before they stopped hashing:
//! test-only references that [`PairList::split`](super::PairList::split),
//! [`PairList::merge_fixpoint`](super::PairList::merge_fixpoint) and the
//! lazy [`PairList::merge_nullspace`](super::PairList::merge_nullspace)
//! must match pair for pair.
//!
//! [`split`] groups terms through a `HashMap` keyed by inner, normalises
//! every bucket with [`Anf::from_terms`] and sorts the pairs.
//! [`merge_fixpoint`] runs rules 1–2 through maps keyed by cloned outers
//! and inners. Rule 1 used to collect its map's values in hash order, so
//! results whose inners tie came out in an order that varied between
//! processes; here they keep the order of their first pairs, the rule
//! the production fold follows.
//!
//! Rule 3 keeps two older ways of getting a pair's closure products,
//! both without the generator-support screen:
//!
//! * [`Closures::Eager`] builds every pair's products and their support
//!   up front on each scan;
//! * [`Closures::PerCombination`] re-enumerates both pairs' products for
//!   every combination through [`sum_membership`].

use super::{closure_products_with_support, Pair, PairList};
use pd_anf::nullspace::{sum_membership, sum_membership_products_with_support};
use pd_anf::{Anf, Monomial, NullSpace, Var, VarSet};
use std::collections::HashMap;

/// Splits `expr` by `group` through a map keyed by inner.
pub(super) fn split(
    expr: &Anf,
    group: &VarSet,
    var_nullspace: &HashMap<Var, NullSpace>,
) -> PairList {
    let mut by_inner: HashMap<Monomial, Vec<Monomial>> = HashMap::new();
    let mut rest_terms = Vec::new();
    for t in expr.terms() {
        if t.intersects(group) {
            let (inner, outer) = t.split(group);
            by_inner.entry(inner).or_default().push(outer);
        } else {
            rest_terms.push(t.clone());
        }
    }
    let mut pairs: Vec<Pair> = by_inner
        .into_iter()
        .map(|(inner, outers)| {
            let mut ns = NullSpace::empty();
            for v in inner.vars() {
                if let Some(n) = var_nullspace.get(&v) {
                    ns = ns.union(n);
                }
            }
            Pair {
                inner: Anf::from_monomial(inner),
                outer: Anf::from_terms(outers),
                nullspace: ns,
            }
        })
        .filter(|p| !p.outer.is_zero())
        .collect();
    pairs.sort_by(|a, b| a.inner.cmp(&b.inner));
    PairList {
        pairs,
        rest: Anf::from_terms(rest_terms),
    }
}

/// Rule 1 through a map from outer to the slot of its fold.
pub(super) fn merge_same_outer(pl: &mut PairList) -> bool {
    let mut slot_of: HashMap<Anf, usize> = HashMap::new();
    let mut slots: Vec<Option<Pair>> = Vec::new();
    let mut changed = false;
    for p in pl.pairs.drain(..) {
        match slot_of.remove(&p.outer) {
            None => {
                slot_of.insert(p.outer.clone(), slots.len());
                slots.push(Some(p));
            }
            Some(slot) => {
                changed = true;
                let prev = slots[slot].take().expect("a mapped slot is live");
                let merged = Pair {
                    inner: prev.inner.xor(&p.inner),
                    outer: prev.outer,
                    nullspace: prev.nullspace.product(&p.nullspace),
                };
                if !merged.inner.is_zero() {
                    slot_of.insert(merged.outer.clone(), slot);
                    slots[slot] = Some(merged);
                }
            }
        }
    }
    pl.pairs = slots.into_iter().flatten().collect();
    pl.pairs.sort_by(|a, b| a.inner.cmp(&b.inner));
    changed
}

/// Rule 2 through a map keyed by inner.
pub(super) fn merge_same_inner(pl: &mut PairList) -> bool {
    let mut by_inner: HashMap<Anf, Pair> = HashMap::new();
    let mut changed = false;
    for p in pl.pairs.drain(..) {
        match by_inner.remove(&p.inner) {
            None => {
                by_inner.insert(p.inner.clone(), p);
            }
            Some(prev) => {
                changed = true;
                let merged = Pair {
                    inner: prev.inner,
                    outer: prev.outer.xor(&p.outer),
                    nullspace: if prev.nullspace.len() >= p.nullspace.len() {
                        prev.nullspace
                    } else {
                        p.nullspace
                    },
                };
                if !merged.outer.is_zero() {
                    by_inner.insert(merged.inner.clone(), merged);
                }
            }
        }
    }
    pl.pairs = by_inner.into_values().collect();
    pl.pairs.sort_by(|a, b| a.inner.cmp(&b.inner));
    changed
}

/// Rules 2 and 1, alternately, to a fixed point.
pub(super) fn merge_fixpoint(pl: &mut PairList) {
    loop {
        let c1 = merge_same_inner(pl);
        let c2 = merge_same_outer(pl);
        if !c1 && !c2 {
            break;
        }
    }
}

/// How the reference obtains closure products.
#[derive(Clone, Copy, Debug)]
pub(super) enum Closures {
    /// All pairs' products, once per scan.
    Eager,
    /// Both pairs' products, once per combination.
    PerCombination,
}

/// Repeatedly merges two pairs whose outer difference lies in the sum of
/// their null-spaces; returns the number of merges.
pub(super) fn merge_nullspace(pl: &mut PairList, product_cap: usize, closures: Closures) -> usize {
    let mut merges = 0;
    'restart: loop {
        let products: Vec<(Vec<Anf>, VarSet)> = match closures {
            Closures::Eager => pl
                .pairs
                .iter()
                .map(|p| {
                    if p.nullspace.is_empty() {
                        (Vec::new(), VarSet::new())
                    } else {
                        closure_products_with_support(p, product_cap)
                    }
                })
                .collect(),
            Closures::PerCombination => Vec::new(),
        };
        for i in 0..pl.pairs.len() {
            for j in i + 1..pl.pairs.len() {
                if pl.pairs[i].nullspace.is_empty() && pl.pairs[j].nullspace.is_empty() {
                    continue;
                }
                let diff = pl.pairs[i].outer.xor(&pl.pairs[j].outer);
                let split = match closures {
                    Closures::Eager => sum_membership_products_with_support(
                        &products[i].0,
                        &products[j].0,
                        &products[i].1,
                        &products[j].1,
                        &diff,
                    ),
                    Closures::PerCombination => sum_membership(
                        &pl.pairs[i].nullspace,
                        &pl.pairs[j].nullspace,
                        &diff,
                        product_cap,
                    ),
                };
                if let Some(split) = split {
                    let pj = pl.pairs.remove(j);
                    let pi = &mut pl.pairs[i];
                    pi.outer = pi.outer.xor(&split.in_left);
                    pi.inner = pi.inner.xor(&pj.inner);
                    pi.nullspace = pi.nullspace.product(&pj.nullspace);
                    merges += 1;
                    if pi.inner.is_zero() || pi.outer.is_zero() {
                        pl.pairs.remove(i);
                    }
                    pl.merge_fixpoint();
                    continue 'restart;
                }
            }
        }
        break;
    }
    merges
}
