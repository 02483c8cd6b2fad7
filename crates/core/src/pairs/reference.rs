//! Rule 3 (the null-space merge) as it was before lazy closures: a
//! test-only reference that the lazy
//! [`PairList::merge_nullspace`](super::PairList::merge_nullspace) must
//! match merge for merge.
//!
//! Two older ways of getting a pair's closure products are kept, both
//! without the generator-support screen:
//!
//! * [`Closures::Eager`] builds every pair's products and their support
//!   up front on each scan;
//! * [`Closures::PerCombination`] re-enumerates both pairs' products for
//!   every combination through [`sum_membership`].

use super::{closure_products_with_support, PairList};
use pd_anf::nullspace::{sum_membership, sum_membership_products_with_support};
use pd_anf::{Anf, VarSet};

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
