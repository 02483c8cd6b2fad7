//! Exact (BDD-based) equivalence checking of the Table 1 circuits.
//!
//! The simulation-based checks in `table1_circuits.rs` are exhaustive
//! only up to 20 inputs; the 32-bit LOD (32 inputs), 15-bit comparator
//! (30) and 12-bit three-operand adder (36) were previously verified
//! with randomised vectors. These tests close the gap: under an
//! interleaved variable order every circuit in the paper has a small
//! BDD, so equivalence becomes *exact* at full Table 1 widths.

use progressive_decomposition::arith::{
    Adder, Comparator, Counter, Gray, Lod, Lzd, Majority, Parity, ThreeInputAdder,
};
use progressive_decomposition::bdd::verify::{check_equal_interleaved, check_netlist_vs_anf};
use progressive_decomposition::bdd::{interleaved_order, Bdd};
use progressive_decomposition::prelude::*;

fn pd_netlist(pool: &VarPool, spec: Vec<(String, Anf)>) -> Netlist {
    ProgressiveDecomposer::new(PdConfig::default())
        .decompose(pool.clone(), spec)
        .to_netlist()
}

#[test]
fn lzd16_pd_exactly_equals_oklobdzija_and_flat_sop() {
    let lzd = Lzd::new(16);
    let pd = pd_netlist(&lzd.pool, lzd.spec());
    assert_eq!(
        check_equal_interleaved(&lzd.pool, &pd, &lzd.oklobdzija_netlist()).unwrap(),
        None,
        "PD output differs from the manual Oklobdzija design"
    );
    assert_eq!(
        check_equal_interleaved(&lzd.pool, &pd, &lzd.sop_netlist()).unwrap(),
        None
    );
}

#[test]
fn lod32_pd_exactly_matches_spec() {
    // 32 inputs — far beyond exhaustive simulation; the LOD's RM form is
    // small enough to build the spec BDD directly.
    let lod = Lod::new(32);
    let pd = pd_netlist(&lod.pool, lod.spec());
    let order = interleaved_order(&lod.pool);
    assert_eq!(
        check_netlist_vs_anf(&pd, &lod.spec(), &order).unwrap(),
        None
    );
    assert_eq!(
        check_netlist_vs_anf(&lod.sop_netlist(), &lod.spec(), &order).unwrap(),
        None
    );
}

#[test]
fn adder16_baselines_pairwise_exact() {
    let a = Adder::new(16);
    let rca = a.rca_netlist();
    assert_eq!(
        check_equal_interleaved(&a.pool, &rca, &a.designware_netlist()).unwrap(),
        None
    );
    assert_eq!(
        check_equal_interleaved(&a.pool, &rca, &a.sklansky_netlist()).unwrap(),
        None
    );
}

#[test]
fn adder12_pd_exactly_equals_rca() {
    let a = Adder::new(12);
    let pd = pd_netlist(&a.pool, a.spec());
    assert_eq!(
        check_equal_interleaved(&a.pool, &pd, &a.rca_netlist()).unwrap(),
        None
    );
}

#[test]
fn comparator15_baselines_exact() {
    // 30 inputs; the two baselines must agree exactly.
    let c = Comparator::new(15);
    assert_eq!(
        check_equal_interleaved(&c.pool, &c.progressive_netlist(), &c.subtracter_netlist())
            .unwrap(),
        None
    );
}

#[test]
fn comparator10_pd_exactly_equals_baselines() {
    let c = Comparator::new(10);
    let pd = pd_netlist(&c.pool, c.spec());
    assert_eq!(
        check_equal_interleaved(&c.pool, &pd, &c.progressive_netlist()).unwrap(),
        None
    );
}

#[test]
fn three_input12_baselines_exact() {
    // 36 inputs — the widest circuit in Table 1.
    let t = ThreeInputAdder::new(12);
    assert_eq!(
        check_equal_interleaved(&t.pool, &t.rca_rca_netlist(), &t.csa_adder_netlist()).unwrap(),
        None
    );
}

#[test]
fn three_input8_pd_exactly_equals_csa() {
    let t = ThreeInputAdder::new(8);
    let pd = pd_netlist(&t.pool, t.spec());
    assert_eq!(
        check_equal_interleaved(&t.pool, &pd, &t.csa_adder_netlist()).unwrap(),
        None
    );
}

#[test]
fn counter16_baselines_exact() {
    let c = Counter::new(16);
    assert_eq!(
        check_equal_interleaved(&c.pool, &c.adder_tree_netlist(), &c.tga_netlist()).unwrap(),
        None
    );
}

#[test]
fn majority15_pd_exactly_equals_flat_sop() {
    let m = Majority::new(15);
    let pd = pd_netlist(&m.pool, m.spec());
    assert_eq!(
        check_equal_interleaved(&m.pool, &pd, &m.sop_netlist()).unwrap(),
        None
    );
}

#[test]
fn parity24_pd_exactly_equals_tree() {
    // 24 inputs: beyond exhaustive simulation, trivial for BDDs.
    let p = Parity::new(24);
    let pd = pd_netlist(&p.pool, p.spec());
    assert_eq!(
        check_equal_interleaved(&p.pool, &pd, &p.tree_netlist()).unwrap(),
        None
    );
}

#[test]
fn gray24_decoders_exact() {
    let g = Gray::new(24);
    assert_eq!(
        check_equal_interleaved(
            &g.pool,
            &g.ripple_decode_netlist(),
            &g.prefix_decode_netlist()
        )
        .unwrap(),
        None
    );
    let pd = pd_netlist(&g.pool, g.decode_spec());
    assert_eq!(
        check_equal_interleaved(&g.pool, &pd, &g.prefix_decode_netlist()).unwrap(),
        None
    );
}

#[test]
fn corrupted_netlist_is_rejected_at_full_width() {
    // Fault injection at a width where simulation could plausibly miss
    // the difference: flip one gate deep in the 32-bit LOD.
    let lod = Lod::new(32);
    let good = lod.sop_netlist();
    let mut bad = good.clone();
    let (name, node) = bad.outputs().last().unwrap().clone();
    let wrong = bad.not(node);
    bad.set_output(&name, wrong);
    let m = check_equal_interleaved(&lod.pool, &good, &bad)
        .unwrap()
        .expect("corruption must be detected");
    assert_eq!(m.output, name);
}

#[test]
fn spec_bdds_build_without_intermediate_blowup() {
    // Specs enter the oracle by positive-Davio expansion, whose
    // intermediate diagrams stay near the size of the result: all of
    // three8's and comparator10's outputs fit in a fresh manager in under
    // 2,000 nodes, where XOR-ing their terms in one at a time allocated
    // 1.85M and 425k. Node counts are deterministic — no timing involved.
    let three = ThreeInputAdder::new(8);
    let cmp = Comparator::new(10);
    for (name, pool, spec) in [
        ("three8", &three.pool, three.spec()),
        ("comparator10", &cmp.pool, cmp.spec()),
    ] {
        let mut bdd = Bdd::with_order(interleaved_order(pool));
        for (_, expr) in &spec {
            bdd.from_anf(expr).unwrap();
        }
        assert!(bdd.len() <= 2_000, "{name}: {} nodes", bdd.len());
    }
}
