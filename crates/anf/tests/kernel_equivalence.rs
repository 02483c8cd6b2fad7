//! Property tests: the ANF arithmetic fast paths are drop-in.
//!
//! Every optimised operation (`and`, `xor`, `xor_assign`, `xor_all`,
//! `from_terms`, `mul_monomial`, `substitute`, truth-table round trips) is
//! compared monomial-for-monomial against a naive reference implementation
//! written here from the ring definitions. Inputs are seeded-random and
//! cover the three operand shapes the kernel dispatches on:
//!
//! * mask monomials only (indices < 128) — the dense `u128` key path,
//! * lexicographic-class monomials only (indices from [`HIGH`], on both
//!   sides of the 192 boundary between inline words and index slices),
//! * both mixed within one expression.
//!
//! Failures print the deterministic seed of the failing case.

use pd_anf::{Anf, Monomial, TruthTable, Var, VarPool};
use std::collections::BTreeMap;

/// SplitMix64 — deterministic case generation without external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Which index ranges an expression's variables are drawn from.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// All indices < 128 (mask monomials only).
    Small,
    /// All indices in `HIGH..HIGH + 16` (no mask monomial but `1`).
    Large,
    /// Both ranges mixed within one expression.
    Mixed,
}

const SHAPES: [Shape; 3] = [Shape::Small, Shape::Large, Shape::Mixed];

/// First index of the `Large` shape's range, which straddles `Var(192)`.
const HIGH: u32 = 184;

fn random_monomial(rng: &mut Rng, shape: Shape) -> Monomial {
    let degree = rng.below(5) as usize;
    let vars = (0..degree).map(|_| {
        let idx = match shape {
            Shape::Small => rng.below(12) as u32,
            Shape::Large => HIGH + rng.below(16) as u32,
            Shape::Mixed => {
                if rng.below(2) == 0 {
                    rng.below(12) as u32
                } else {
                    HIGH + rng.below(16) as u32
                }
            }
        };
        Var(idx)
    });
    Monomial::from_vars(vars)
}

fn random_anf(rng: &mut Rng, shape: Shape, max_terms: u64) -> Anf {
    let n = rng.below(max_terms) as usize;
    Anf::from_terms((0..n).map(|_| random_monomial(rng, shape)).collect())
}

/// Reference normalisation: count each monomial, keep the odd ones, in
/// `BTreeMap` (i.e. canonical) order.
fn ref_normalise(terms: impl IntoIterator<Item = Monomial>) -> Anf {
    let mut parity: BTreeMap<Monomial, bool> = BTreeMap::new();
    for t in terms {
        *parity.entry(t).or_insert(false) ^= true;
    }
    let kept: Vec<Monomial> = parity
        .into_iter()
        .filter_map(|(t, odd)| odd.then_some(t))
        .collect();
    // Construct through the public API from already-unique sorted terms.
    Anf::from_terms(kept)
}

fn ref_xor(a: &Anf, b: &Anf) -> Anf {
    ref_normalise(a.terms().chain(b.terms()).cloned())
}

fn ref_and(a: &Anf, b: &Anf) -> Anf {
    let mut products = Vec::new();
    for ta in a.terms() {
        for tb in b.terms() {
            products.push(ta.mul(tb));
        }
    }
    ref_normalise(products)
}

fn ref_substitute(e: &Anf, v: Var, replacement: &Anf) -> Anf {
    let mut acc = Anf::zero();
    for t in e.terms() {
        if t.contains(v) {
            let quotient = Anf::from_monomial(t.without(v));
            acc = ref_xor(&acc, &ref_and(&quotient, replacement));
        } else {
            acc = ref_xor(&acc, &Anf::from_monomial(t.clone()));
        }
    }
    acc
}

const CASES: u64 = 120;

#[test]
fn and_matches_reference_on_all_shapes() {
    for (si, &shape) in SHAPES.iter().enumerate() {
        let mut rng = Rng(0xA11D + si as u64);
        for case in 0..CASES {
            let a = random_anf(&mut rng, shape, 24);
            let b = random_anf(&mut rng, shape, 24);
            assert_eq!(a.and(&b), ref_and(&a, &b), "shape {shape:?} case {case}");
        }
    }
}

#[test]
fn and_matches_reference_on_cross_shape_operands() {
    let mut rng = Rng(0xC505);
    for case in 0..CASES {
        let a = random_anf(&mut rng, Shape::Small, 24);
        let b = random_anf(&mut rng, Shape::Mixed, 24);
        assert_eq!(a.and(&b), ref_and(&a, &b), "small×mixed case {case}");
        let c = random_anf(&mut rng, Shape::Large, 24);
        assert_eq!(a.and(&c), ref_and(&a, &c), "small×large case {case}");
    }
}

#[test]
fn and_hash_accumulation_path_matches_sort_path() {
    // Operands big enough that n·m exceeds the sort threshold (2¹⁴), so
    // the parity-map strategy runs; the reference is the same product set.
    let mut rng = Rng(0x4A54);
    for case in 0..4 {
        let a = random_anf(&mut rng, Shape::Small, 160);
        let b = random_anf(&mut rng, Shape::Small, 160);
        if a.term_count() * b.term_count() <= 1 << 14 {
            continue;
        }
        assert_eq!(a.and(&b), ref_and(&a, &b), "hash-path case {case}");
    }
}

#[test]
fn xor_and_xor_assign_match_reference() {
    for (si, &shape) in SHAPES.iter().enumerate() {
        let mut rng = Rng(0x0A0B + si as u64);
        for case in 0..CASES {
            let a = random_anf(&mut rng, shape, 30);
            let b = random_anf(&mut rng, shape, 30);
            let want = ref_xor(&a, &b);
            assert_eq!(a.xor(&b), want, "xor shape {shape:?} case {case}");
            let mut acc = a.clone();
            acc.xor_assign(&b);
            assert_eq!(acc, want, "xor_assign shape {shape:?} case {case}");
        }
    }
}

#[test]
fn xor_assign_append_and_empty_edges() {
    // Disjoint ranges exercise the append fast path; empties the trivial
    // outs.
    let lo = Anf::from_terms(vec![
        Monomial::from_vars([Var(0)]),
        Monomial::from_vars([Var(1), Var(2)]),
    ]);
    let hi = Anf::from_terms(vec![Monomial::from_vars([Var(200)])]);
    let mut acc = lo.clone();
    acc.xor_assign(&hi);
    assert_eq!(acc, ref_xor(&lo, &hi));
    let mut empty = Anf::zero();
    empty.xor_assign(&lo);
    assert_eq!(empty, lo);
    let mut a = lo.clone();
    a.xor_assign(&Anf::zero());
    assert_eq!(a, lo);
    a.xor_assign(&lo);
    assert!(a.is_zero());
}

#[test]
fn xor_all_matches_left_fold() {
    for (si, &shape) in SHAPES.iter().enumerate() {
        let mut rng = Rng(0xA770 + si as u64);
        for case in 0..CASES {
            let k = 1 + rng.below(9) as usize;
            let exprs: Vec<Anf> = (0..k).map(|_| random_anf(&mut rng, shape, 16)).collect();
            let want = exprs.iter().fold(Anf::zero(), |acc, e| ref_xor(&acc, e));
            assert_eq!(
                Anf::xor_all(exprs.iter()),
                want,
                "xor_all shape {shape:?} case {case} (k={k})"
            );
        }
    }
}

#[test]
fn from_terms_matches_reference_normalisation() {
    for (si, &shape) in SHAPES.iter().enumerate() {
        let mut rng = Rng(0xF407 + si as u64);
        for case in 0..CASES {
            // Duplicates on purpose: draw terms, then repeat a prefix.
            let mut terms: Vec<Monomial> =
                (0..rng.below(20)).map(|_| random_monomial(&mut rng, shape)).collect();
            let dup = terms.len().min(rng.below(6) as usize);
            let prefix: Vec<Monomial> = terms[..dup].to_vec();
            terms.extend(prefix);
            assert_eq!(
                Anf::from_terms(terms.clone()),
                ref_normalise(terms),
                "from_terms shape {shape:?} case {case}"
            );
        }
    }
}

#[test]
fn mul_monomial_matches_reference() {
    for (si, &shape) in SHAPES.iter().enumerate() {
        let mut rng = Rng(0x301 + si as u64);
        for case in 0..CASES {
            let a = random_anf(&mut rng, shape, 24);
            let m = random_monomial(&mut rng, shape);
            assert_eq!(
                a.mul_monomial(&m),
                ref_and(&a, &Anf::from_monomial(m.clone())),
                "mul_monomial shape {shape:?} case {case}"
            );
        }
    }
}

#[test]
fn substitute_matches_reference() {
    for (si, &shape) in SHAPES.iter().enumerate() {
        let mut rng = Rng(0x508 + si as u64);
        for case in 0..CASES {
            let a = random_anf(&mut rng, shape, 20);
            let v = match shape {
                Shape::Small => Var(rng.below(12) as u32),
                Shape::Large => Var(HIGH + rng.below(16) as u32),
                Shape::Mixed => Var(if rng.below(2) == 0 {
                    rng.below(12) as u32
                } else {
                    HIGH + rng.below(16) as u32
                }),
            };
            let replacement = random_anf(&mut rng, shape, 6);
            assert_eq!(
                a.substitute(v, &replacement),
                ref_substitute(&a, v, &replacement),
                "substitute shape {shape:?} case {case}"
            );
        }
    }
}

#[test]
fn xor_literal_count_matches_materialised_xor() {
    for (si, &shape) in SHAPES.iter().enumerate() {
        let mut rng = Rng(0x11C0 + si as u64);
        for case in 0..CASES {
            let a = random_anf(&mut rng, shape, 30);
            let b = random_anf(&mut rng, shape, 30);
            assert_eq!(
                a.xor_literal_count(&b),
                a.xor(&b).literal_count(),
                "xor_literal_count shape {shape:?} case {case}"
            );
        }
    }
}

#[test]
fn truth_table_round_trip_matches_eval() {
    // The zeta-transform construction against direct evaluation, and the
    // Möbius inverse against the original expression.
    let mut rng = Rng(0x7247);
    let mut pool = VarPool::new();
    let vars: Vec<Var> = (0..8).map(|i| pool.var_or_input(&format!("t{i}"))).collect();
    for case in 0..60 {
        let n = rng.below(14) as usize;
        let expr = Anf::from_terms(
            (0..n)
                .map(|_| {
                    let mask = rng.below(1 << 8) as usize;
                    Monomial::from_vars(
                        (0..8).filter(|j| mask >> j & 1 == 1).map(|j| vars[j]),
                    )
                })
                .collect(),
        );
        let tt = TruthTable::from_anf(&expr, &vars);
        for probe in 0..(1usize << 8) {
            let direct = expr.eval(|v| {
                let j = vars.iter().position(|&q| q == v).expect("in ordering");
                probe >> j & 1 == 1
            });
            assert_eq!(tt.get(probe), direct, "case {case} probe {probe}");
        }
        assert_eq!(tt.to_anf(&vars), expr, "round trip case {case}");
    }
}

#[test]
fn ring_axioms_hold_on_mixed_shapes() {
    let mut rng = Rng(0xA210);
    for case in 0..CASES {
        let a = random_anf(&mut rng, Shape::Mixed, 16);
        let b = random_anf(&mut rng, Shape::Mixed, 16);
        let c = random_anf(&mut rng, Shape::Mixed, 16);
        assert_eq!(a.and(&b), b.and(&a), "commutativity case {case}");
        assert_eq!(
            a.and(&b.xor(&c)),
            a.and(&b).xor(&a.and(&c)),
            "distributivity case {case}"
        );
        assert_eq!(a.and(&a), a, "idempotence case {case}");
        assert!(a.xor(&a).is_zero(), "characteristic 2 case {case}");
    }
}
