//! Identity discovery as it was before bit-parallel truth columns: a
//! test-only reference that the fast [`find_identities`](super::find_identities)
//! must match identity for identity.
//!
//! It enumerates admissible assignments one at a time with [`Anf::eval`],
//! builds an [`Anf`] for every product subset, and eliminates with the
//! matrix that tracks every row's combination over *all* insertion
//! indices, regrowing each stored combination on every insert.

use super::{FoundIdentity, IdentityStore};
use crate::config::PdConfig;
use pd_anf::gf2::Insert;
use pd_anf::{Anf, Monomial, Var, VarSet};

/// The original dense-column matrix: pivot rows with combinations over
/// every insertion index.
#[derive(Debug, Clone, Default)]
pub(super) struct ReferenceGf2Matrix {
    n_words: usize,
    /// Pivot rows: (pivot bit index, row bits, combination over inserted indices).
    rows: Vec<(usize, Vec<u64>, Vec<u64>)>,
    n_inserted: usize,
}

impl ReferenceGf2Matrix {
    pub(super) fn new(n_cols: usize) -> Self {
        ReferenceGf2Matrix {
            n_words: n_cols.div_ceil(64).max(1),
            rows: Vec::new(),
            n_inserted: 0,
        }
    }

    fn reduce(&self, vec: &mut [u64], combo: &mut [u64]) {
        for (pivot, row, row_combo) in &self.rows {
            if vec[pivot / 64] >> (pivot % 64) & 1 == 1 {
                for (a, b) in vec.iter_mut().zip(row) {
                    *a ^= b;
                }
                for (a, b) in combo.iter_mut().zip(row_combo) {
                    *a ^= b;
                }
            }
        }
    }

    pub(super) fn insert_bits(&mut self, bits: &[u64]) -> Insert {
        let mut vec = bits.to_vec();
        vec.resize(self.n_words, 0);
        let combo_words = (self.n_inserted + 1).div_ceil(64);
        let mut combo = vec![0u64; combo_words];
        combo[self.n_inserted / 64] |= 1 << (self.n_inserted % 64);
        // Grow stored combos lazily to the current width.
        for (_, _, c) in &mut self.rows {
            c.resize(combo_words, 0);
        }
        self.reduce(&mut vec, &mut combo);
        let idx = self.n_inserted;
        self.n_inserted += 1;
        let first_set = vec
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize);
        match first_set {
            None => {
                let mut combination = Vec::new();
                for (wi, &w) in combo.iter().enumerate() {
                    let mut w = w;
                    while w != 0 {
                        let b = wi * 64 + w.trailing_zeros() as usize;
                        w &= w - 1;
                        if b != idx {
                            combination.push(b);
                        }
                    }
                }
                Insert::Dependent { combination }
            }
            Some(pivot) => {
                self.rows.push((pivot, vec, combo));
                Insert::Independent
            }
        }
    }
}

/// The admissible assignments of `group` (bit `j` of an assignment is
/// `group[j]`) and each one's truth column of products, as the reference
/// enumerates them: one [`Anf::eval`] per assignment and expression.
pub(super) fn columns(
    basis: &[(Var, Anf)],
    group: &[Var],
    store: &IdentityStore,
    cfg: &PdConfig,
) -> Vec<(Anf, Vec<u64>)> {
    let group_set: VarSet = group.iter().copied().collect();
    let constraints = store.restricted_to(&group_set);
    let n = group.len();
    let mut admissible: Vec<usize> = Vec::new();
    'outer: for a in 0..(1usize << n) {
        let value = |v: Var| -> bool {
            group
                .iter()
                .position(|&g| g == v)
                .map(|j| a >> j & 1 == 1)
                .expect("constraint support is inside the group")
        };
        for c in &constraints {
            if c.eval(value) {
                continue 'outer;
            }
        }
        admissible.push(a);
    }
    if admissible.is_empty() {
        return Vec::new();
    }
    let m = basis.len();
    let words = admissible.len().div_ceil(64);
    let mut var_cols: Vec<Vec<u64>> = vec![vec![0u64; words]; m];
    for (row, &a) in admissible.iter().enumerate() {
        let value = |v: Var| -> bool {
            group
                .iter()
                .position(|&g| g == v)
                .map(|j| a >> j & 1 == 1)
                .unwrap_or(false)
        };
        for (bi, (_, expr)) in basis.iter().enumerate() {
            if expr.eval(value) {
                var_cols[bi][row / 64] |= 1 << (row % 64);
            }
        }
    }
    // Product subsets up to the configured depth, smallest first.
    let mut subsets: Vec<Vec<usize>> = Vec::new();
    let mut frontier: Vec<Vec<usize>> = (0..m).map(|i| vec![i]).collect();
    for _ in 0..cfg.identity_product_depth {
        subsets.extend(frontier.iter().cloned());
        let mut next = Vec::new();
        for s in &frontier {
            let last = *s.last().expect("nonempty");
            for j in last + 1..m {
                let mut t = s.clone();
                t.push(j);
                next.push(t);
            }
        }
        frontier = next;
    }
    subsets.sort_by_key(|s| s.len());
    // Constant-1 column first so "≡ 1" relations surface as XOR-with-1.
    let mut ones = vec![u64::MAX; words];
    if !admissible.len().is_multiple_of(64) {
        ones[words - 1] = (1u64 << (admissible.len() % 64)) - 1;
    }
    let mut out = vec![(Anf::one(), ones.clone())];
    for s in &subsets {
        let mut col = ones.clone();
        for &bi in s {
            for (w, v) in col.iter_mut().zip(&var_cols[bi]) {
                *w &= v;
            }
        }
        let term = Anf::from_monomial(Monomial::from_vars(s.iter().map(|&bi| basis[bi].0)));
        out.push((term, col));
    }
    out
}

/// The pre-change `find_identities`.
pub(super) fn find_identities(
    basis: &[(Var, Anf)],
    group: &[Var],
    store: &IdentityStore,
    cfg: &PdConfig,
) -> Vec<FoundIdentity> {
    assert!(group.len() <= 24, "group too large for identity search");
    if basis.is_empty() {
        return Vec::new();
    }
    let cols = columns(basis, group, store, cfg);
    let Some((_, ones)) = cols.first() else {
        return Vec::new();
    };
    let mut matrix = ReferenceGf2Matrix::new(ones.len() * 64);
    let mut inserted: Vec<Anf> = Vec::new();
    let mut found = Vec::new();
    for (term, col) in cols {
        match matrix.insert_bits(&col) {
            Insert::Independent => inserted.push(term),
            Insert::Dependent { combination } => {
                let mut expr = term;
                for idx in combination {
                    expr.xor_assign(&inserted[idx]);
                }
                if !expr.is_zero() {
                    found.push(FoundIdentity { expr });
                }
                inserted.push(Anf::zero()); // placeholder, never referenced
            }
        }
    }
    found
}
