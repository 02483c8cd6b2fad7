//! Property tests: Progressive Decomposition preserves function on
//! arbitrary specifications, under every configuration.

use progressive_decomposition::prelude::*;
use proptest::prelude::*;

const N_VARS: usize = 8;

/// Random multi-output spec over `N_VARS` inputs split into two words.
fn spec_strategy() -> impl Strategy<Value = (VarPool, Vec<(String, Anf)>)> {
    let term = proptest::collection::vec(0u16..(1u16 << N_VARS), 1..10);
    proptest::collection::vec(term, 1..4).prop_map(|outputs| {
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, N_VARS / 2);
        let b = pool.input_word("b", 1, N_VARS / 2);
        let all: Vec<Var> = a.into_iter().chain(b).collect();
        let outputs = outputs
            .into_iter()
            .enumerate()
            .map(|(i, masks)| {
                let terms = masks
                    .into_iter()
                    .map(|m| {
                        Monomial::from_vars((0..N_VARS).filter(|j| m >> j & 1 == 1).map(|j| all[j]))
                    })
                    .collect();
                (format!("y{i}"), Anf::from_terms(terms))
            })
            .collect();
        (pool, outputs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn decomposition_preserves_function((pool, spec) in spec_strategy()) {
        let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec);
        prop_assert_eq!(d.check_equivalence(64, 1), None);
    }

    #[test]
    fn emitted_netlist_preserves_function((pool, spec) in spec_strategy()) {
        let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec.clone());
        let nl = d.to_netlist();
        prop_assert_eq!(
            progressive_decomposition::netlist::sim::check_equiv_anf(&nl, &spec, 64, 2),
            None
        );
    }

    #[test]
    fn bare_configuration_preserves_function((pool, spec) in spec_strategy()) {
        let d = ProgressiveDecomposer::new(PdConfig::default().bare()).decompose(pool, spec);
        prop_assert_eq!(d.check_equivalence(64, 3), None);
    }

    #[test]
    fn all_group_sizes_preserve_function(
        (pool, spec) in spec_strategy(),
        k in 2usize..6,
    ) {
        let cfg = PdConfig::default().with_group_size(k);
        let d = ProgressiveDecomposer::new(cfg).decompose(pool, spec);
        prop_assert_eq!(d.check_equivalence(64, 4), None);
    }

    #[test]
    fn decomposition_validates((pool, spec) in spec_strategy()) {
        let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec);
        prop_assert_eq!(d.validate(), Ok(()));
        // Levels are well-formed: positive, and blocks only reference
        // earlier leaders (validate checked that); leader count is
        // consistent with blocks.
        let levels = d.block_levels();
        prop_assert_eq!(levels.len(), d.blocks.len());
        prop_assert!(levels.iter().all(|&l| l >= 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn technology_mapping_preserves_function((pool, spec) in spec_strategy()) {
        let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec);
        let nl = d.to_netlist().sweep();
        let mapped = progressive_decomposition::cells::map::map(&nl);
        prop_assert_eq!(
            progressive_decomposition::cells::msim::check_mapping(&nl, &mapped, 8, 0xFEED),
            None
        );
    }

    #[test]
    fn synthesis_flow_is_consistent((pool, spec) in spec_strategy()) {
        // PD netlist and flat netlist must agree with each other
        // (both verified against the same spec independently).
        let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec.clone());
        let pd_nl = d.to_netlist();
        let flat = synthesize_outputs(&spec);
        let e1 = progressive_decomposition::netlist::extract::equiv_by_extraction(
            &pd_nl, &flat, 1 << 14
        );
        // Extraction may exceed the cap (undecided) but must never say
        // "different".
        prop_assert_ne!(e1, Some(false));
    }

    #[test]
    fn pd_and_kernel_extraction_agree_exactly((pool, spec) in spec_strategy()) {
        // Cross-paradigm: restructure the same functions with Progressive
        // Decomposition (ring form) and with algebraic kernel extraction
        // (minterm SOP form), then prove the two netlists identical with
        // BDDs. Three independent pipelines, one canonical verdict.
        use progressive_decomposition::netlist::{Cube, Sop};
        let inputs: Vec<Var> = pool.iter().collect();
        let sops: Vec<(String, Sop)> = spec
            .iter()
            .map(|(name, expr)| {
                let tt = TruthTable::from_anf(expr, &inputs);
                let cubes = (0..tt.len())
                    .filter(|&i| tt.get(i))
                    .map(|i| Cube(
                        inputs
                            .iter()
                            .enumerate()
                            .map(|(j, &v)| (v, i >> j & 1 == 1))
                            .collect(),
                    ))
                    .collect();
                (name.clone(), Sop(cubes))
            })
            .collect();
        let mut fx_pool = pool.clone();
        let fx_nl = progressive_decomposition::factor::factor_and_synthesize(
            &sops,
            &mut fx_pool,
            &ExtractConfig::default(),
        );
        let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool.clone(), spec);
        let pd_nl = d.to_netlist();
        let verdict = progressive_decomposition::bdd::verify::check_equal_interleaved(
            &pool, &fx_nl, &pd_nl,
        ).expect("8-input BDDs are tiny");
        prop_assert_eq!(verdict, None);
    }
}
