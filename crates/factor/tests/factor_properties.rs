//! Property tests: the algebraic-factorisation pipeline preserves
//! functions and its algebraic identities hold on random covers.

use pd_anf::{Var, VarPool};
use pd_factor::{
    divide, kernels, minimize_cover, quick_factor, recompose, Cover, Cube, ExtractConfig,
    FactorNetwork, Lit,
};
use proptest::prelude::*;
use std::collections::HashMap;

const N_VARS: usize = 6;

fn pool_with_vars() -> (VarPool, Vec<Var>) {
    let mut pool = VarPool::new();
    let vars = pool.input_word("x", 0, N_VARS);
    (pool, vars)
}

/// A random cover: each cube is (presence mask, phase mask).
fn cover_strategy(max_cubes: usize) -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0u8..(1 << N_VARS), 0u8..(1 << N_VARS)), 0..max_cubes)
}

fn decode_cover(cubes: &[(u8, u8)], vars: &[Var]) -> Cover {
    Cover::from_cubes(cubes.iter().map(|&(mask, phase)| {
        Cube::new(vars.iter().enumerate().filter_map(|(i, &v)| {
            if mask >> i & 1 == 1 {
                Some(Lit::new(v, phase >> i & 1 == 1))
            } else {
                None
            }
        }))
    }))
}

fn eval_on(bits: u32) -> impl Fn(Var) -> bool {
    move |v: Var| bits >> v.index() & 1 == 1
}

proptest! {
    #[test]
    fn division_identity_recomposes_exactly(
        f in cover_strategy(10),
        d in cover_strategy(4),
    ) {
        let (_, vars) = pool_with_vars();
        let f = decode_cover(&f, &vars);
        let d = decode_cover(&d, &vars);
        let (q, r) = divide(&f, &d);
        prop_assert_eq!(recompose(&q, &d, &r), f);
    }

    #[test]
    fn quotient_never_grows_literals(
        f in cover_strategy(10),
        d in cover_strategy(4),
    ) {
        let (_, vars) = pool_with_vars();
        let f = decode_cover(&f, &vars);
        let d = decode_cover(&d, &vars);
        prop_assume!(!d.is_zero());
        let (q, r) = divide(&f, &d);
        // Each quotient cube is a shrunk f-cube; remainder cubes are
        // f-cubes. Literal counts cannot exceed the dividend's.
        prop_assert!(q.literal_count() + r.literal_count() <= f.literal_count());
    }

    #[test]
    fn kernels_are_cube_free_quotients(f in cover_strategy(10)) {
        let (_, vars) = pool_with_vars();
        let f = decode_cover(&f, &vars);
        for k in kernels(&f) {
            prop_assert!(k.kernel.is_cube_free());
            // kernel = f / cokernel under weak division.
            let (q, _) = divide(&f, &Cover::from_cubes([k.cokernel.clone()]));
            prop_assert_eq!(&k.kernel, &q);
        }
    }

    #[test]
    fn quick_factor_preserves_function(f in cover_strategy(10)) {
        let (_, vars) = pool_with_vars();
        let f = decode_cover(&f, &vars);
        let tree = quick_factor(&f);
        for bits in 0..(1u32 << N_VARS) {
            let assign = eval_on(bits);
            prop_assert_eq!(tree.eval(&assign), f.eval(assign));
        }
    }

    #[test]
    fn quick_factor_never_grows_literals(f in cover_strategy(10)) {
        let (_, vars) = pool_with_vars();
        let f = decode_cover(&f, &vars);
        let tree = quick_factor(&f);
        prop_assert!(tree.literal_count() <= f.literal_count().max(1));
    }

    #[test]
    fn extraction_preserves_cube_sets_and_function(
        f in cover_strategy(8),
        g in cover_strategy(8),
    ) {
        let (mut pool, vars) = pool_with_vars();
        let f = decode_cover(&f, &vars).minimize_containment();
        let g = decode_cover(&g, &vars).minimize_containment();
        let mut net = FactorNetwork::from_covers(&[
            ("f".to_owned(), f.clone()),
            ("g".to_owned(), g.clone()),
        ]);
        net.extract(&mut pool, &ExtractConfig::default());
        let flat: HashMap<String, Cover> = net.flatten().into_iter().collect();
        prop_assert_eq!(&flat["f"], &f);
        prop_assert_eq!(&flat["g"], &g);
        // The synthesized netlist computes the same functions.
        let nl = net.synthesize();
        let spec = vec![
            ("f".to_owned(), f.to_anf(1 << 16).unwrap()),
            ("g".to_owned(), g.to_anf(1 << 16).unwrap()),
        ];
        prop_assert_eq!(pd_netlist::sim::check_equiv_anf(&nl, &spec, 8, 17), None);
    }

    #[test]
    fn extraction_never_increases_network_literals(
        f in cover_strategy(8),
        g in cover_strategy(8),
    ) {
        let (mut pool, vars) = pool_with_vars();
        let f = decode_cover(&f, &vars);
        let g = decode_cover(&g, &vars);
        let mut net = FactorNetwork::from_covers(&[
            ("f".to_owned(), f),
            ("g".to_owned(), g),
        ]);
        let stats = net.extract(&mut pool, &ExtractConfig::default());
        prop_assert!(stats.literals_after <= stats.literals_before);
        prop_assert_eq!(stats.literals_after, net.literal_count());
    }

    #[test]
    fn minimisation_preserves_function_and_never_grows(f in cover_strategy(10)) {
        let (_, vars) = pool_with_vars();
        let f = decode_cover(&f, &vars);
        let min = minimize_cover(&f, 16);
        for bits in 0..(1u32 << N_VARS) {
            let assign = eval_on(bits);
            prop_assert_eq!(min.eval(&assign), f.eval(assign));
        }
        prop_assert!(min.literal_count() <= f.minimize_containment().literal_count());
    }

    #[test]
    fn minimised_covers_are_prime_and_irredundant(f in cover_strategy(8)) {
        let (_, vars) = pool_with_vars();
        let f = decode_cover(&f, &vars);
        let min = minimize_cover(&f, 16);
        prop_assume!(!min.is_zero() && !min.has_one_cube());
        let equiv = |a: &Cover, b: &Cover| {
            (0..(1u32 << N_VARS)).all(|bits| a.eval(eval_on(bits)) == b.eval(eval_on(bits)))
        };
        // Irredundant: dropping any cube changes the function.
        for i in 0..min.cube_count() {
            let without = Cover::from_cubes(
                min.cubes()
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, c)| c.clone()),
            );
            prop_assert!(!equiv(&without, &min), "cube {i} is redundant");
        }
        // Prime: dropping any literal from any cube leaves the on-set.
        for (i, cube) in min.cubes().iter().enumerate() {
            for l in cube.lits() {
                let expanded = Cube::new(cube.lits().iter().copied().filter(|q| q != l));
                let mut cubes: Vec<Cube> = min.cubes().to_vec();
                cubes[i] = expanded;
                let grown = Cover::from_cubes(cubes);
                prop_assert!(
                    !equiv(&grown, &min),
                    "literal {l:?} of cube {i} is removable — not prime"
                );
            }
        }
    }

    #[test]
    fn node_minimisation_keeps_network_function(
        f in cover_strategy(8),
        g in cover_strategy(8),
    ) {
        let (mut pool, vars) = pool_with_vars();
        let f = decode_cover(&f, &vars);
        let g = decode_cover(&g, &vars);
        let spec = vec![
            ("f".to_owned(), f.to_anf(1 << 16).unwrap()),
            ("g".to_owned(), g.to_anf(1 << 16).unwrap()),
        ];
        let mut net = FactorNetwork::from_covers(&[
            ("f".to_owned(), f),
            ("g".to_owned(), g),
        ]);
        net.extract(&mut pool, &ExtractConfig::default());
        net.minimize_nodes(12);
        let nl = net.synthesize();
        prop_assert_eq!(pd_netlist::sim::check_equiv_anf(&nl, &spec, 8, 23), None);
    }

    #[test]
    fn exact_equivalence_of_factored_netlists(f in cover_strategy(8)) {
        // BDD-exact: quick-factored tree vs the flat SOP netlist.
        let (pool, vars) = pool_with_vars();
        let f = decode_cover(&f, &vars);
        let sop = f.to_sop();
        let mut flat = pd_netlist::Netlist::new();
        let y = sop.synthesize(&mut flat);
        flat.set_output("y", y);
        let tree = quick_factor(&f);
        let mut factored = pd_netlist::Netlist::new();
        let root = tree.synthesize(&mut factored, &mut |nl, v| nl.input(v));
        factored.set_output("y", root);
        let verdict = pd_bdd::verify::check_equal_interleaved(&pool, &flat, &factored).unwrap();
        prop_assert_eq!(verdict, None);
    }
}
