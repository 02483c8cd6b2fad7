//! The monomial as it was before inline storage reached `Var(192)`: a
//! `u128` mask below `Var(128)`, a sorted boxed index slice from there
//! on. A test-only reference that [`Monomial`](super::Monomial) must
//! match operation for operation, order included.

use crate::var::Var;
use crate::varset::VarSet;
use std::cmp::Ordering;

/// Indices below this are stored in the mask.
const SMALL_VARS: u32 = 128;

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(super) enum ReferenceMonomial {
    Small(u128),
    Large(Box<[u32]>),
}

use ReferenceMonomial::{Large, Small};

/// The part of `group` below `Var(128)`, as a mask.
fn small_mask(group: &VarSet) -> u128 {
    group
        .iter()
        .filter(|v| v.0 < SMALL_VARS)
        .fold(0, |m, v| m | 1u128 << v.0)
}

impl ReferenceMonomial {
    pub(super) fn from_vars<I: IntoIterator<Item = Var>>(vars: I) -> Self {
        let mut all: Vec<u32> = vars.into_iter().map(|v| v.0).collect();
        all.sort_unstable();
        all.dedup();
        Self::from_sorted(all)
    }

    fn from_sorted(vars: Vec<u32>) -> Self {
        if vars.last().is_some_and(|&m| m >= SMALL_VARS) {
            Large(vars.into_boxed_slice())
        } else {
            Small(vars.iter().fold(0u128, |m, &i| m | (1u128 << i)))
        }
    }

    pub(super) fn degree(&self) -> usize {
        match self {
            Small(m) => m.count_ones() as usize,
            Large(v) => v.len(),
        }
    }

    pub(super) fn contains(&self, v: Var) -> bool {
        match self {
            Small(m) => v.0 < SMALL_VARS && m & (1u128 << v.0) != 0,
            Large(vars) => vars.binary_search(&v.0).is_ok(),
        }
    }

    pub(super) fn vars(&self) -> Vec<Var> {
        match self {
            Small(m) => (0..SMALL_VARS)
                .filter(|&i| m >> i & 1 == 1)
                .map(Var)
                .collect(),
            Large(v) => v.iter().map(|&i| Var(i)).collect(),
        }
    }

    pub(super) fn mul(&self, other: &Self) -> Self {
        match (self, other) {
            (Small(a), Small(b)) => Small(a | b),
            _ => Self::from_vars(self.vars().into_iter().chain(other.vars())),
        }
    }

    pub(super) fn divides(&self, other: &Self) -> bool {
        match (self, other) {
            (Small(a), Small(b)) => a & !b == 0,
            _ => self.vars().into_iter().all(|v| other.contains(v)),
        }
    }

    pub(super) fn intersects(&self, group: &VarSet) -> bool {
        match self {
            Small(m) => m & small_mask(group) != 0,
            Large(vars) => vars.iter().any(|&i| group.contains(Var(i))),
        }
    }

    pub(super) fn split(&self, group: &VarSet) -> (Self, Self) {
        match self {
            Small(m) => (Small(m & small_mask(group)), Small(m & !small_mask(group))),
            Large(vars) => {
                let (inner, outer): (Vec<u32>, Vec<u32>) =
                    vars.iter().partition(|&&i| group.contains(Var(i)));
                (Self::from_sorted(inner), Self::from_sorted(outer))
            }
        }
    }

    pub(super) fn without(&self, v: Var) -> Self {
        match self {
            Small(m) if v.0 < SMALL_VARS => Small(m & !(1u128 << v.0)),
            Small(m) => Small(*m),
            Large(vars) => Self::from_sorted(vars.iter().copied().filter(|&i| i != v.0).collect()),
        }
    }
}

impl PartialOrd for ReferenceMonomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReferenceMonomial {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Small(a), Small(b)) => a.cmp(b),
            (Small(_), Large(_)) => Ordering::Less,
            (Large(_), Small(_)) => Ordering::Greater,
            (Large(a), Large(b)) => a.cmp(b),
        }
    }
}
