//! Property tests: the decision-diagram engines agree with the explicit
//! ANF engine and with brute-force enumeration on random inputs.

use pd_anf::{Anf, Monomial, Var, VarPool};
use pd_bdd::{interleaved_order, verify, Bdd, BddRef, Zdd, ZddRef};
use pd_netlist::Netlist;
use proptest::prelude::*;

const N_VARS: usize = 6;

fn pool_with_vars() -> (VarPool, Vec<Var>) {
    let mut pool = VarPool::new();
    let vars = pool.input_word("x", 0, N_VARS);
    (pool, vars)
}

/// A random ANF as a set of monomials over `N_VARS` variables, encoded as
/// bitmask words (bit i set = variable i in the monomial).
fn anf_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..(1 << N_VARS), 0..12)
}

fn decode_anf(masks: &[u8], vars: &[Var]) -> Anf {
    let terms: Vec<Monomial> = masks
        .iter()
        .map(|&m| {
            Monomial::from_vars(
                vars.iter()
                    .enumerate()
                    .filter(|&(i, _)| m >> i & 1 == 1)
                    .map(|(_, &v)| v),
            )
        })
        .collect();
    Anf::from_terms(terms)
}

/// Variables spanning both monomial order classes and both storage
/// forms: an index ≥ 128 puts a term in the lexicographic class, and an
/// index ≥ 192 stores it as a heap index slice.
fn wide_vars() -> Vec<Var> {
    [0, 3, 64, 127, 128, 200].into_iter().map(Var).collect()
}

/// The `code`-th permutation of `vars` (Lehmer code; 0 is the identity).
fn permuted(vars: &[Var], mut code: usize) -> Vec<Var> {
    let mut rest = vars.to_vec();
    let mut out = Vec::with_capacity(rest.len());
    while !rest.is_empty() {
        out.push(rest.remove(code % rest.len()));
        code /= rest.len() + 1;
    }
    out
}

/// Reference construction: XOR the terms' products in one at a time.
fn bdd_term_fold(bdd: &mut Bdd, expr: &Anf) -> BddRef {
    let mut acc = BddRef::FALSE;
    for term in expr.terms() {
        let mut prod = BddRef::TRUE;
        for v in term.vars() {
            let fv = bdd.var(v);
            prod = bdd.and(prod, fv).unwrap();
        }
        acc = bdd.xor(acc, prod).unwrap();
    }
    acc
}

/// Reference construction: XOR the terms' single-monomial families.
fn zdd_term_fold(zdd: &mut Zdd, expr: &Anf) -> ZddRef {
    let mut acc = ZddRef::ZERO;
    for term in expr.terms() {
        let m = zdd.monomial(term);
        acc = zdd.xor(acc, m);
    }
    acc
}

proptest! {
    #[test]
    fn bdd_from_anf_agrees_with_anf_eval(masks in anf_strategy(), bits in 0u32..(1 << N_VARS)) {
        let (_, vars) = pool_with_vars();
        let expr = decode_anf(&masks, &vars);
        let mut bdd = Bdd::new();
        let f = bdd.from_anf(&expr).unwrap();
        let assign = |v: Var| bits >> v.index() & 1 == 1;
        prop_assert_eq!(bdd.eval(f, assign), expr.eval(assign));
    }

    #[test]
    fn bdd_is_canonical_across_construction_orders(masks in anf_strategy()) {
        let (_, vars) = pool_with_vars();
        let expr = decode_anf(&masks, &vars);
        let mut bdd = Bdd::new();
        // Register variables in a fixed order first so both constructions
        // share one variable order.
        for &v in &vars {
            bdd.var(v);
        }
        let f = bdd.from_anf(&expr).unwrap();
        // Rebuild from the reversed term list: XOR is commutative, so the
        // handle must be identical.
        let mut g = BddRef::FALSE;
        let terms: Vec<_> = expr.terms().cloned().collect();
        for term in terms.iter().rev() {
            let mut prod = BddRef::TRUE;
            for v in term.vars() {
                let fv = bdd.var(v);
                prod = bdd.and(prod, fv).unwrap();
            }
            g = bdd.xor(g, prod).unwrap();
        }
        prop_assert_eq!(f, g);
    }

    #[test]
    fn bdd_davio_build_equals_term_fold(masks in anf_strategy(), code in 0usize..720) {
        // A non-identity order (most codes) shows the expansion follows
        // levels, not variable indices.
        let vars = wide_vars();
        let expr = decode_anf(&masks, &vars);
        let mut bdd = Bdd::with_order(permuted(&vars, code));
        let f = bdd.from_anf(&expr).unwrap();
        prop_assert_eq!(f, bdd_term_fold(&mut bdd, &expr));
    }

    #[test]
    fn bdd_davio_build_registers_variables_like_term_fold(masks in anf_strategy()) {
        let vars = wide_vars();
        let expr = decode_anf(&masks, &vars);
        let mut davio = Bdd::new();
        davio.from_anf(&expr).unwrap();
        let mut fold = Bdd::new();
        bdd_term_fold(&mut fold, &expr);
        prop_assert_eq!(davio.order(), fold.order());
    }

    #[test]
    fn zdd_davio_build_equals_term_fold(masks in anf_strategy(), code in 0usize..720) {
        let vars = wide_vars();
        let expr = decode_anf(&masks, &vars);
        let mut zdd = Zdd::with_order(permuted(&vars, code));
        let f = zdd.from_anf(&expr);
        prop_assert_eq!(f, zdd_term_fold(&mut zdd, &expr));
        prop_assert_eq!(zdd.to_anf(f), expr);
    }

    #[test]
    fn bdd_sat_count_matches_brute_force(masks in anf_strategy()) {
        let (_, vars) = pool_with_vars();
        let expr = decode_anf(&masks, &vars);
        let mut bdd = Bdd::new();
        for &v in &vars {
            bdd.var(v);
        }
        let f = bdd.from_anf(&expr).unwrap();
        let brute = (0..(1u32 << N_VARS))
            .filter(|bits| expr.eval(|v| bits >> v.index() & 1 == 1))
            .count();
        prop_assert_eq!(bdd.sat_count(f), brute as f64);
    }

    #[test]
    fn zdd_round_trips_and_counts_terms(masks in anf_strategy()) {
        let (_, vars) = pool_with_vars();
        let expr = decode_anf(&masks, &vars);
        let mut zdd = Zdd::new();
        let f = zdd.from_anf(&expr);
        prop_assert_eq!(zdd.term_count(f), expr.term_count() as u128);
        prop_assert_eq!(zdd.to_anf(f), expr);
    }

    #[test]
    fn zdd_ring_ops_match_anf(a in anf_strategy(), b in anf_strategy()) {
        let (_, vars) = pool_with_vars();
        let (ea, eb) = (decode_anf(&a, &vars), decode_anf(&b, &vars));
        let mut zdd = Zdd::new();
        let (fa, fb) = (zdd.from_anf(&ea), zdd.from_anf(&eb));
        let x = zdd.xor(fa, fb);
        prop_assert_eq!(zdd.to_anf(x), ea.xor(&eb));
        let p = zdd.mul(fa, fb);
        prop_assert_eq!(zdd.to_anf(p), ea.and(&eb));
        let o = zdd.or(fa, fb);
        prop_assert_eq!(zdd.to_anf(o), ea.or(&eb));
    }

    #[test]
    fn zdd_and_bdd_agree_pointwise(masks in anf_strategy(), bits in 0u32..(1 << N_VARS)) {
        let (_, vars) = pool_with_vars();
        let expr = decode_anf(&masks, &vars);
        let mut bdd = Bdd::new();
        let f = bdd.from_anf(&expr).unwrap();
        let mut zdd = Zdd::new();
        let g = zdd.from_anf(&expr);
        let assign = |v: Var| bits >> v.index() & 1 == 1;
        prop_assert_eq!(bdd.eval(f, assign), zdd.eval(g, assign));
    }

    #[test]
    fn exact_verify_agrees_with_simulation(masks in anf_strategy()) {
        // Synthesize a netlist from the spec and verify it both ways.
        let (pool, vars) = pool_with_vars();
        let expr = decode_anf(&masks, &vars);
        let outputs = vec![("y".to_owned(), expr.clone())];
        let nl = pd_netlist::synthesize_outputs(&outputs);
        let order = interleaved_order(&pool);
        let exact = verify::check_netlist_vs_anf(&nl, &outputs, &order).unwrap();
        let simulated = pd_netlist::sim::check_equiv_anf(&nl, &outputs, 8, 42);
        prop_assert_eq!(exact.is_none(), simulated.is_none());
        prop_assert!(exact.is_none());
    }

    #[test]
    fn fault_injection_is_always_caught(masks in anf_strategy(), flip in 0u8..(1 << N_VARS)) {
        // XOR-ing one extra monomial into the spec makes it differ from
        // the synthesized netlist on at least one point, and the BDD
        // check must find it.
        let (pool, vars) = pool_with_vars();
        let expr = decode_anf(&masks, &vars);
        let corrupted = expr.xor(&decode_anf(&[flip], &vars));
        prop_assume!(corrupted != expr);
        let outputs = vec![("y".to_owned(), expr)];
        let nl = pd_netlist::synthesize_outputs(&outputs);
        let order = interleaved_order(&pool);
        let bad_spec = vec![("y".to_owned(), corrupted.clone())];
        let m = verify::check_netlist_vs_anf(&nl, &bad_spec, &order)
            .unwrap()
            .expect("corrupted spec must differ");
        // The counterexample is a genuine witness.
        let assign = |v: Var| m.assignment.iter().any(|&(q, b)| q == v && b);
        let original = &outputs[0].1;
        prop_assert_ne!(original.eval(assign), corrupted.eval(assign));
    }
}

#[test]
fn davio_builds_constants_and_large_monomials_like_term_fold() {
    let vars = wide_vars();
    let large = Monomial::from_vars([vars[1], vars[4], vars[5]]);
    assert!(
        large.as_small().is_none(),
        "an index >= 128 has no u128 mask"
    );
    let mixed = Anf::from_terms(vec![Monomial::one(), large, Monomial::var(vars[2])]);
    let reversed: Vec<Var> = vars.iter().rev().copied().collect();
    for expr in [Anf::zero(), Anf::one(), mixed] {
        let mut bdd = Bdd::with_order(reversed.iter().copied());
        let f = bdd.from_anf(&expr).unwrap();
        assert_eq!(f, bdd_term_fold(&mut bdd, &expr), "{expr:?}");
        let mut zdd = Zdd::with_order(reversed.iter().copied());
        let z = zdd.from_anf(&expr);
        assert_eq!(z, zdd_term_fold(&mut zdd, &expr), "{expr:?}");
    }
    let mut bdd = Bdd::new();
    assert_eq!(bdd.from_anf(&Anf::zero()).unwrap(), BddRef::FALSE);
    assert_eq!(bdd.from_anf(&Anf::one()).unwrap(), BddRef::TRUE);
    let mut zdd = Zdd::new();
    assert_eq!(zdd.from_anf(&Anf::zero()), ZddRef::ZERO);
    assert_eq!(zdd.from_anf(&Anf::one()), ZddRef::ONE);
}

#[test]
fn verify_composes_with_plain_netlists() {
    // Non-proptest smoke check so failures here are deterministic: two
    // structurally different 10-bit incrementers.
    let mut pool = VarPool::new();
    let a = pool.input_word("a", 0, 10);
    let mut ripple = Netlist::new();
    let mut carry = ripple.constant(true);
    for (i, &ai) in a.iter().enumerate() {
        let na = ripple.input(ai);
        let s = ripple.xor(na, carry);
        ripple.set_output(&format!("s{i}"), s);
        carry = ripple.and(na, carry);
    }
    let mut prefix = Netlist::new();
    for (i, &ai) in a.iter().enumerate() {
        let na = prefix.input(ai);
        // carry into bit i = AND of all lower bits.
        let lows: Vec<_> = a[..i].iter().map(|&v| prefix.input(v)).collect();
        let c = prefix.and_many(&lows);
        let s = prefix.xor(na, c);
        prefix.set_output(&format!("s{i}"), s);
    }
    assert_eq!(
        verify::check_equal_interleaved(&pool, &ripple, &prefix).unwrap(),
        None
    );
}
