//! Edge-case and failure-injection coverage across the full flow:
//! degenerate specifications, extreme group sizes, the mapper/STA on
//! unusual netlists, and corruption detection.

use progressive_decomposition::arith::{Gray, Lzd, Multiplier, Parity};
use progressive_decomposition::bdd::verify::check_equal_interleaved;
use progressive_decomposition::cells::{map, msim, report_mapped};
use progressive_decomposition::netlist::sim::check_equiv_anf;
use progressive_decomposition::prelude::*;

#[test]
fn constant_and_literal_specs_decompose() {
    let mut pool = VarPool::new();
    let a = pool.input("a", 0, 0);
    let spec = vec![
        ("zero".to_owned(), Anf::zero()),
        ("one".to_owned(), Anf::one()),
        ("lit".to_owned(), Anf::var(a)),
    ];
    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec.clone());
    assert_eq!(d.check_equivalence(16, 1), None);
    let nl = d.to_netlist();
    assert_eq!(check_equiv_anf(&nl, &spec, 16, 2), None);
    assert_eq!(nl.outputs().len(), 3);
}

#[test]
fn empty_spec_yields_empty_decomposition() {
    let pool = VarPool::new();
    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, Vec::new());
    assert!(d.blocks.is_empty());
    assert_eq!(d.check_equivalence(4, 3), None);
    assert!(d.to_netlist().outputs().is_empty());
}

#[test]
fn extreme_group_sizes_stay_correct() {
    // k = 1 degenerates to per-variable abstraction; k ≥ n swallows all
    // inputs in one group. Both must still produce correct circuits.
    for k in [1usize, 16] {
        let mut pool = VarPool::new();
        let maj7 = pd_core::examples::majority_anf(&mut pool, 7);
        let spec = vec![("maj".to_owned(), maj7)];
        let d = ProgressiveDecomposer::new(PdConfig::default().with_group_size(k))
            .decompose(pool, spec.clone());
        assert_eq!(d.check_equivalence(128, 5), None, "k = {k}");
        assert_eq!(
            check_equiv_anf(&d.to_netlist(), &spec, 128, 7),
            None,
            "k = {k}"
        );
    }
}

#[test]
fn duplicate_output_expressions_share_logic() {
    let mut pool = VarPool::new();
    let x = Anf::parse("a*b ^ b*c ^ c*a", &mut pool).expect("parsable");
    let spec = vec![("u".to_owned(), x.clone()), ("v".to_owned(), x)];
    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec.clone());
    assert_eq!(d.check_equivalence(64, 11), None);
    let nl = d.to_netlist();
    assert_eq!(check_equiv_anf(&nl, &spec, 64, 13), None);
    // Hash-consing must collapse the two outputs onto one driver.
    let (u, v) = (nl.outputs()[0].1, nl.outputs()[1].1);
    assert_eq!(u, v);
}

#[test]
fn mapper_verified_on_xor_dominated_netlists() {
    // The mapper's XOR/XNOR absorption paths get their densest workout
    // on parity trees and prefix XOR networks.
    let p = Parity::new(16);
    for nl in [p.tree_netlist(), p.chain_netlist()] {
        let mapped = map::map(&nl);
        assert_eq!(msim::check_mapping(&nl, &mapped, 128, 17), None);
    }
    let g = Gray::new(12);
    for nl in [g.prefix_decode_netlist(), g.encode_netlist()] {
        let mapped = map::map(&nl);
        assert_eq!(msim::check_mapping(&nl, &mapped, 128, 19), None);
    }
}

#[test]
fn mapped_report_is_finite_and_positive() {
    let p = Parity::new(12);
    let nl = p.tree_netlist();
    let mapped = map::map(&nl);
    let lib = CellLibrary::umc130();
    let r = report_mapped(&mapped, &lib);
    assert!(r.area_um2 > 0.0 && r.area_um2.is_finite());
    assert!(r.delay_ns > 0.0 && r.delay_ns.is_finite());
}

#[test]
fn sta_penalises_fanout() {
    // The same XOR chain, but with the first stage fanned out to many
    // consumers, must get slower at the fanned-out net: this load term
    // is what makes the paper's flat SOP architectures slow.
    let lib = CellLibrary::umc130();
    let build = |extra_loads: usize| {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut nl = Netlist::new();
        let (na, nb) = (nl.input(a), nl.input(b));
        let x = nl.xor(na, nb);
        for i in 0..extra_loads {
            let extra = pool.input(&format!("c{i}"), 1, i);
            let ne = nl.input(extra);
            let load = nl.and(x, ne);
            nl.set_output(&format!("l{i}"), load);
        }
        let y = nl.not(x);
        nl.set_output("y", y);
        progressive_decomposition::cells::report(&nl, &lib).delay_ns
    };
    let lightly_loaded = build(1);
    let heavily_loaded = build(12);
    assert!(
        heavily_loaded > lightly_loaded,
        "fan-out 13 ({heavily_loaded} ns) must be slower than fan-out 2 ({lightly_loaded} ns)"
    );
}

#[test]
fn sweep_preserves_decomposition_outputs() {
    let lzd = Lzd::new(8);
    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(lzd.pool.clone(), lzd.spec());
    let nl = d.to_netlist();
    let swept = nl.sweep();
    assert!(swept.len() <= nl.len());
    assert_eq!(check_equiv_anf(&swept, &lzd.spec(), 64, 23), None);
}

#[test]
fn single_gate_corruption_is_detected_exactly() {
    // Every single-output flip on the Oklobdzija LZD must be caught by
    // the BDD equivalence check (no silent acceptance).
    let lzd = Lzd::new(16);
    let good = lzd.oklobdzija_netlist();
    for i in 0..good.outputs().len() {
        let mut bad = good.clone();
        let (name, node) = bad.outputs()[i].clone();
        let flipped = bad.not(node);
        bad.set_output(&name, flipped);
        let m = check_equal_interleaved(&lzd.pool, &good, &bad)
            .expect("small BDDs")
            .expect("flip must be detected");
        assert_eq!(m.output, name);
    }
}

#[test]
fn multiplier4_decomposes_without_blowup() {
    // Regression: §5.4 size-reduction rewrite chains used to *square*
    // the null-space generator sets at every step, exhausting memory on
    // a 138-term multiplier spec. The generator cap in
    // `pd_anf::nullspace` keeps the representation bounded.
    let m = Multiplier::new(4);
    let spec = m.spec();
    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(m.pool.clone(), spec.clone());
    assert_eq!(d.check_equivalence(128, 41), None);
    assert_eq!(check_equiv_anf(&d.to_netlist(), &spec, 128, 43), None);
}

#[test]
fn decomposer_handles_spec_with_shared_subexpressions_across_outputs() {
    // Multi-output spec where outputs overlap heavily: the counter bits
    // of a 6-input adder tree share all their carries.
    let mut pool = VarPool::new();
    let bits = pool.input_word("a", 0, 6);
    let sum: Anf = bits
        .iter()
        .fold(Anf::zero(), |acc, &b| acc.xor(&Anf::var(b)));
    let pairs: Vec<Anf> = bits
        .chunks(2)
        .map(|c| Anf::var(c[0]).and(&Anf::var(c[1])))
        .collect();
    let carry = Anf::xor_all(&pairs);
    let spec = vec![("s".to_owned(), sum), ("c".to_owned(), carry)];
    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec.clone());
    assert_eq!(d.check_equivalence(64, 29), None);
    assert_eq!(check_equiv_anf(&d.to_netlist(), &spec, 64, 31), None);
}
