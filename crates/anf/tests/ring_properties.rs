//! Property tests: the ANF engine implements a Boolean ring, and every
//! structural operation agrees with semantic evaluation.

use pd_anf::{Anf, Monomial, TruthTable, Var, VarPool, VarSet};
use proptest::prelude::*;

const N_VARS: u32 = 6;

/// Strategy for a random ANF over `N_VARS` variables.
fn anf() -> impl Strategy<Value = Anf> {
    // Each term: subset of vars as a bitmask over N_VARS.
    proptest::collection::vec(0u8..(1 << N_VARS), 0..12).prop_map(|masks| {
        Anf::from_terms(
            masks
                .into_iter()
                .map(|m| Monomial::from_vars((0..N_VARS).filter(|i| m >> i & 1 == 1).map(Var)))
                .collect(),
        )
    })
}

/// Variable indices straddling the 128 boundary between mask-represented
/// and index-slice monomials.
const MIXED_VARS: [u32; 6] = [0, 3, 127, 128, 165, 300];

/// Strategy for a random ANF over [`MIXED_VARS`].
fn mixed_anf() -> impl Strategy<Value = Anf> {
    proptest::collection::vec(0u8..(1 << MIXED_VARS.len()), 0..12).prop_map(|masks| {
        Anf::from_terms(
            masks
                .into_iter()
                .map(|m| {
                    Monomial::from_vars(
                        (0..MIXED_VARS.len())
                            .filter(|i| m >> i & 1 == 1)
                            .map(|i| Var(MIXED_VARS[i])),
                    )
                })
                .collect(),
        )
    })
}

/// The value of variable `x` of [`MIXED_VARS`] at assignment `point`.
fn eval_mixed(x: Var, point: u64) -> bool {
    let slot = MIXED_VARS
        .iter()
        .position(|&m| m == x.0)
        .expect("mixed variable");
    point >> slot & 1 == 1
}

fn eval_on(e: &Anf, point: u64) -> bool {
    e.eval(|v| point >> v.0 & 1 == 1)
}

proptest! {
    #[test]
    fn xor_is_pointwise_xor(a in anf(), b in anf(), point in 0u64..64) {
        prop_assert_eq!(eval_on(&a.xor(&b), point), eval_on(&a, point) ^ eval_on(&b, point));
    }

    #[test]
    fn and_is_pointwise_and(a in anf(), b in anf(), point in 0u64..64) {
        prop_assert_eq!(eval_on(&a.and(&b), point), eval_on(&a, point) & eval_on(&b, point));
    }

    #[test]
    fn or_is_pointwise_or(a in anf(), b in anf(), point in 0u64..64) {
        prop_assert_eq!(eval_on(&a.or(&b), point), eval_on(&a, point) | eval_on(&b, point));
    }

    #[test]
    fn ring_axioms(a in anf(), b in anf(), c in anf()) {
        // Associativity + commutativity + distributivity + idempotence.
        prop_assert_eq!(a.xor(&b), b.xor(&a));
        prop_assert_eq!(a.and(&b), b.and(&a));
        prop_assert_eq!(a.xor(&b).xor(&c), a.xor(&b.xor(&c)));
        prop_assert_eq!(a.and(&b).and(&c), a.and(&b.and(&c)));
        prop_assert_eq!(a.and(&b.xor(&c)), a.and(&b).xor(&a.and(&c)));
        prop_assert_eq!(a.and(&a), a.clone());
        prop_assert!(a.xor(&a).is_zero());
    }

    #[test]
    fn truth_table_round_trip(a in anf()) {
        let vars: Vec<Var> = (0..N_VARS).map(Var).collect();
        let tt = TruthTable::from_anf(&a, &vars);
        prop_assert_eq!(tt.to_anf(&vars), a);
    }

    #[test]
    fn substitution_agrees_with_semantics(a in anf(), b in anf(), point in 0u64..64) {
        let v = Var(0);
        // b must not mention v for simple composed-evaluation semantics.
        let b = b.restrict(v, false);
        let substituted = a.substitute(v, &b);
        let b_val = eval_on(&b, point);
        let composed = a.eval(|q| if q == v { b_val } else { point >> q.0 & 1 == 1 });
        prop_assert_eq!(eval_on(&substituted, point), composed);
    }

    #[test]
    fn restrict_fixes_variable(a in anf(), point in 0u64..64) {
        let v = Var(2);
        let on = a.restrict(v, true);
        let off = a.restrict(v, false);
        prop_assert!(!on.contains_var(v));
        prop_assert!(!off.contains_var(v));
        let forced_on = a.eval(|q| q == v || point >> q.0 & 1 == 1);
        let forced_off = a.eval(|q| q != v && point >> q.0 & 1 == 1);
        prop_assert_eq!(eval_on(&on, point), forced_on);
        prop_assert_eq!(eval_on(&off, point), forced_off);
    }

    #[test]
    fn split_on_gives_canonical_shannon_parts(
        a in mixed_anf(),
        which in 0usize..MIXED_VARS.len(),
        point in 0u64..64,
    ) {
        let v = Var(MIXED_VARS[which]);
        let (q, r) = a.split_on(v);
        prop_assert!(!q.contains_var(v) && !r.contains_var(v));
        // Both parts are already in canonical order: renormalising their
        // own terms is the identity.
        prop_assert_eq!(&Anf::from_terms(q.terms().cloned().collect()), &q);
        prop_assert_eq!(&Anf::from_terms(r.terms().cloned().collect()), &r);
        prop_assert_eq!(&Anf::var(v).and(&q).xor(&r), &a);
        // R and Q ⊕ R are the cofactors at v = 0 and v = 1.
        let f1 = q.xor(&r);
        let at = |e: &Anf, value: bool| e.eval(|x| if x == v { value } else { eval_mixed(x, point) });
        prop_assert_eq!(at(&r, false), at(&a, false));
        prop_assert_eq!(at(&f1, true), at(&a, true));
    }

    #[test]
    fn split_reconstructs_expression(a in anf(), group_mask in 0u8..(1 << N_VARS)) {
        let group: VarSet = (0..N_VARS)
            .filter(|i| group_mask >> i & 1 == 1)
            .map(Var)
            .collect();
        // Σ inner·outer over split terms must equal the original expression.
        let rebuilt = Anf::from_terms(
            a.terms()
                .map(|t| {
                    let (inner, outer) = t.split(&group);
                    inner.mul(&outer)
                })
                .collect(),
        );
        prop_assert_eq!(rebuilt, a);
    }

    #[test]
    fn eval64_matches_scalar(a in anf(), base in 0u64..8) {
        let word = a.eval64(|v| {
            let mut w = 0u64;
            for lane in 0..64u64 {
                let point = base.wrapping_add(lane);
                if point >> v.0 & 1 == 1 {
                    w |= 1 << lane;
                }
            }
            w
        });
        for lane in 0..64u64 {
            let point = base.wrapping_add(lane);
            prop_assert_eq!(word >> lane & 1 == 1, eval_on(&a, point));
        }
    }

    #[test]
    fn display_parse_round_trip(a in anf()) {
        let mut pool = VarPool::new();
        for i in 0..N_VARS {
            pool.input(&format!("x{i}"), 0, i as usize);
        }
        let text = a.display(&pool).to_string();
        let reparsed = Anf::parse(&text, &mut pool).unwrap();
        prop_assert_eq!(reparsed, a);
    }
}

proptest! {
    #[test]
    fn nullspace_membership_is_sound(
        gen_masks in proptest::collection::vec(1u8..(1 << N_VARS), 1..4),
        target_combo in proptest::collection::vec(any::<bool>(), 1..4),
    ) {
        use pd_anf::NullSpace;
        // Generators g_i; target = XOR of some products of generators.
        let gens: Vec<Anf> = gen_masks
            .iter()
            .map(|&m| {
                Anf::from_monomial(Monomial::from_vars(
                    (0..N_VARS).filter(|i| m >> i & 1 == 1).map(Var),
                ))
            })
            .collect();
        let n = NullSpace::from_gens(gens.clone());
        let mut target = Anf::zero();
        for (i, &take) in target_combo.iter().enumerate() {
            if take {
                let g = &gens[i % gens.len()];
                let partner = &gens[(i + 1) % gens.len()];
                target.xor_assign(&g.and(partner));
            }
        }
        // Anything built from generator products must be recognised.
        prop_assert!(n.ring_contains(&target));
    }
}
