//! End-to-end integration tests over the paper's benchmark circuits:
//! every decomposition must be functionally equivalent to its
//! specification (hierarchy evaluation AND emitted netlist), and the
//! structural claims of the paper must hold.

use progressive_decomposition::arith::{
    Adder, Comparator, Counter, Lod, Lzd, Majority, ThreeInputAdder,
};
use progressive_decomposition::bdd::VerifyContext;
use progressive_decomposition::cells::{map, report_mapped, unmap};
use progressive_decomposition::factor::{GlobalConfig, GlobalNetwork};
use progressive_decomposition::flow::{circuit_by_name, StageKind};
use progressive_decomposition::netlist::sim::check_equiv_anf;
use progressive_decomposition::prelude::*;
use std::collections::HashMap;

fn decompose_and_check(pool: VarPool, spec: Vec<(String, Anf)>, seed: u64) -> Decomposition {
    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec.clone());
    assert_eq!(d.check_equivalence(256, seed), None, "hierarchy mismatch");
    let nl = d.to_netlist();
    assert_eq!(
        check_equiv_anf(&nl, &spec, 256, seed + 1),
        None,
        "netlist mismatch"
    );
    d
}

#[test]
fn lzd16_blocks_match_oklobdzija() {
    let lzd = Lzd::new(16);
    let d = decompose_and_check(lzd.pool.clone(), lzd.spec(), 11);
    // Paper §6: PD's 16-bit LZD is qualitatively identical to [8] —
    // the first level must be four 4-bit nibble blocks with exactly
    // three leaders (V, P1, P0) each.
    let level1: Vec<_> = d.blocks.iter().filter(|b| b.iteration <= 4).collect();
    assert_eq!(level1.len(), 4);
    for b in &level1 {
        assert_eq!(b.group.len(), 4, "nibble group");
        assert_eq!(
            b.basis.len() + b.passthrough.len(),
            3,
            "three leaders per nibble (V, P1, P0): {:?}",
            b.basis
        );
    }
}

#[test]
fn lod16_decomposes() {
    let lod = Lod::new(16);
    decompose_and_check(lod.pool.clone(), lod.spec(), 13);
}

#[test]
fn lod32_decomposes() {
    let lod = Lod::new(32);
    decompose_and_check(lod.pool.clone(), lod.spec(), 17);
}

#[test]
fn majority15_finds_counters() {
    let m = Majority::new(15);
    let d = decompose_and_check(m.pool.clone(), m.spec(), 19);
    // The first block must be a 4-bit parallel counter: group of 4 with
    // ≤3 leaders thanks to the s3 = s1·s2 substitution.
    let b0 = &d.blocks[0];
    assert_eq!(b0.group.len(), 4);
    assert!(b0.basis.len() <= 3, "{:?}", b0.basis);
    assert!(!b0.substitutions.is_empty());
}

#[test]
fn counter16_decomposes() {
    let c = Counter::new(16);
    let d = decompose_and_check(c.pool.clone(), c.spec(), 23);
    assert!(d.blocks.len() >= 4);
}

#[test]
fn adder12_decomposes_into_two_bit_slices() {
    let a = Adder::new(12);
    let d = decompose_and_check(a.pool.clone(), a.spec(), 29);
    // Primary groups are {a_i, a_i+1, b_i, b_i+1} two-bit slices.
    let b0 = &d.blocks[0];
    let names: Vec<&str> = b0.group.iter().map(|&v| d.pool.name(v)).collect();
    assert_eq!(names, vec!["a0", "a1", "b0", "b1"]);
}

#[test]
fn comparator10_decomposes() {
    let c = Comparator::new(10);
    decompose_and_check(c.pool.clone(), c.spec(), 31);
}

#[test]
fn three_input8_first_blocks_are_csa() {
    let t = ThreeInputAdder::new(8);
    let d = decompose_and_check(t.pool.clone(), t.spec(), 37);
    // k/r = 4/3 = 1 bit per word: the first group must be {a0, b0, c0}
    // and its basis a 3:2 counter (2 leaders: sum and carry).
    let b0 = &d.blocks[0];
    let names: Vec<&str> = b0.group.iter().map(|&v| d.pool.name(v)).collect();
    assert_eq!(names, vec!["a0", "b0", "c0"]);
    assert_eq!(
        b0.basis.len() + b0.passthrough.len(),
        2,
        "3:2 counter: {:?}",
        b0.basis
    );
}

#[test]
fn every_baseline_matches_its_spec() {
    // Cross-check all the manual baselines against the RM specs at
    // exhaustive-checkable widths.
    let lzd = Lzd::new(8);
    assert_eq!(
        check_equiv_anf(&lzd.sop_netlist(), &lzd.spec(), 64, 1),
        None
    );

    let c = Counter::new(10);
    assert_eq!(
        check_equiv_anf(&c.adder_tree_netlist(), &c.spec(), 64, 2),
        None
    );
    assert_eq!(check_equiv_anf(&c.tga_netlist(), &c.spec(), 64, 3), None);

    let a = Adder::new(9);
    let spec = a.spec();
    assert_eq!(check_equiv_anf(&a.rca_netlist(), &spec, 64, 4), None);
    assert_eq!(check_equiv_anf(&a.designware_netlist(), &spec, 64, 5), None);
    assert_eq!(check_equiv_anf(&a.sklansky_netlist(), &spec, 64, 6), None);

    let cmp = Comparator::new(9);
    let spec = cmp.spec();
    assert_eq!(
        check_equiv_anf(&cmp.progressive_netlist(), &spec, 64, 7),
        None
    );
    assert_eq!(
        check_equiv_anf(&cmp.subtracter_netlist(), &spec, 64, 8),
        None
    );

    let t = ThreeInputAdder::new(5);
    let spec = t.spec();
    assert_eq!(check_equiv_anf(&t.rca_rca_netlist(), &spec, 64, 9), None);
    assert_eq!(check_equiv_anf(&t.csa_adder_netlist(), &spec, 64, 10), None);
}

/// Golden end-to-end numbers: circuit → (literals after decompose,
/// after reduce, after factor, mapped cell count). Pinned from the flow's
/// first green run with the **global** Factor stage and the arbitrated
/// incremental Reduce; deterministic across `PD_THREADS`. adder12 and
/// lod16 — circuits where Factor dominates the flow's run time — pin
/// Factor's commit sequence, which runs on the synthesiser's gate-cost
/// planner, so a planner speed-up cannot silently change it. maj13 and
/// gray16 complete the circuits whose Decompose/Reduce group search
/// dominates the run time (with maj15, counter12 and lzd12), so a
/// group-search speed-up cannot silently change their hierarchies. An
/// intentional heuristic change moves these — update the table alongside
/// it.
const FLOW_GOLDEN: [(&str, [usize; 4]); 10] = [
    ("maj15", [243, 172, 160, 66]),
    ("maj13", [218, 239, 239, 109]),
    ("counter12", [156, 137, 126, 58]),
    ("lzd12", [351, 249, 153, 40]),
    ("gray16", [136, 77, 77, 39]),
    ("adder10", [117, 102, 97, 44]),
    ("comparator10", [133, 140, 140, 54]),
    ("three8", [172, 160, 155, 63]),
    ("adder12", [226, 186, 172, 82]),
    ("lod16", [81, 70, 69, 45]),
];

/// The same pins for the from-scratch refined hierarchy: the whole
/// decomposition re-run with refinement enabled from the input pool,
/// then the flow's own Factor, TechMap and STA calls (see
/// [`from_scratch_counts`]). Reduce's arbitration close still computes
/// this hierarchy in production, so it is protected against silent
/// drift too. Three circuits suffice; the full battery runs on the
/// flow. lzd12 is pinned here because it anchors the
/// incremental-vs-full cell-gap bound below.
const FULL_REDUCE_GOLDEN: [(&str, [usize; 4]); 3] = [
    ("maj15", [243, 176, 165, 73]),
    ("counter12", [156, 137, 126, 58]),
    ("lzd12", [351, 249, 153, 40]),
];

/// Maps `nl` with the flow's TechMap planner and returns the mapped cell
/// count (what the flow's STA stage reports), after proving the mapped
/// design equivalent to `spec` with the BDD oracle.
fn mapped_cells(nl: &Netlist, pool: &VarPool, spec: &[(String, Anf)], what: &str) -> usize {
    let swept = nl.sweep();
    let mapped = map::map(&swept);
    let back = unmap(&mapped, &swept);
    let verdict = VerifyContext::new(pool).check_netlist_vs_anf(&back, spec);
    assert!(
        matches!(verdict, Ok(None)),
        "{what}: mapped netlist is not equivalent to the spec: {verdict:?}"
    );
    report_mapped(&mapped, &CellLibrary::umc130()).cell_count
}

/// Literal counts after decompose, reduce and factor plus the mapped
/// cell count of one golden circuit through the default flow, with
/// every stage on its first rung and no boundary red.
fn flow_counts(name: &str) -> [usize; 4] {
    let input = circuit_by_name(name).expect("golden circuits resolve");
    let mut flow = Flow::new(input, FlowConfig::default());
    let summary = flow
        .run_to_completion()
        .unwrap_or_else(|e| panic!("{name}: flow failed: {e}"));
    for s in &summary.stages {
        assert_ne!(s.verified, Some(false), "{name}/{} oracle red", s.stage);
        assert_eq!(s.degraded, None, "{name}/{} degraded", s.stage);
    }
    let stage_literals = |kind: StageKind| {
        summary
            .stages
            .iter()
            .find(|s| s.stage == kind)
            .and_then(|s| s.literals)
            .unwrap_or(0)
    };
    [
        stage_literals(StageKind::Decompose),
        stage_literals(StageKind::Reduce),
        stage_literals(StageKind::Factor),
        summary.cells,
    ]
}

/// The same four counts for the from-scratch refined hierarchy: the
/// unrefined and the refined decomposition each from the input pool,
/// then the calls the flow's Factor (workspace-wide extraction, keeping
/// the unextracted emission when that is smaller), TechMap and STA
/// stages make. The final netlist is BDD-checked against the spec.
fn from_scratch_counts(name: &str) -> [usize; 4] {
    let input = circuit_by_name(name).expect("golden circuits resolve");
    let unrefined = ProgressiveDecomposer::new(PdConfig::default().without_basis_refinement())
        .decompose(input.pool.clone(), input.outputs.clone());
    let d = ProgressiveDecomposer::new(PdConfig::default())
        .decompose(input.pool.clone(), input.outputs.clone());
    let mut scratch = d.pool.clone();
    let mut net = GlobalNetwork::new();
    for (bi, block) in d.blocks.iter().enumerate() {
        for (v, e) in &block.basis {
            net.add_leader(bi, *v, e);
        }
    }
    for (out, e) in &d.outputs {
        net.add_output(out, e);
    }
    net.extract(&mut scratch, &GlobalConfig::default());
    let (nl, extracted) = net.synthesize_choosing();
    let factor_literals = if extracted {
        net.literal_count()
    } else {
        d.hierarchy_literal_count()
    };
    [
        unrefined.hierarchy_literal_count(),
        d.hierarchy_literal_count(),
        factor_literals,
        mapped_cells(&nl, &input.pool, &input.outputs, name),
    ]
}

/// Compares `counts` of each golden circuit against its pins and returns
/// a human-readable diff of every mismatch (empty when all pins hold).
fn golden_diff(golden: &[(&str, [usize; 4])], counts: fn(&str) -> [usize; 4]) -> String {
    let mut diff = String::new();
    for (name, want) in golden {
        let got = counts(name);
        if got != *want {
            use std::fmt::Write as _;
            let _ = writeln!(
                diff,
                "  {name:<14} {:>10} {:>10} {:>10} {:>10}",
                "decompose", "reduce", "factor", "cells"
            );
            let _ = writeln!(
                diff,
                "    expected     {:>10} {:>10} {:>10} {:>10}",
                want[0], want[1], want[2], want[3]
            );
            let _ = writeln!(
                diff,
                "    got          {:>10} {:>10} {:>10} {:>10}",
                got[0], got[1], got[2], got[3]
            );
        }
    }
    diff
}

#[test]
fn full_flow_literal_counts_match_golden() {
    let diff = golden_diff(&FLOW_GOLDEN, flow_counts);
    assert!(
        diff.is_empty(),
        "flow output drifted from the golden Table-1 numbers:\n{diff}\
         If the heuristic change is intentional, update FLOW_GOLDEN."
    );
}

#[test]
fn full_reduce_fallback_matches_legacy_golden() {
    let diff = golden_diff(&FULL_REDUCE_GOLDEN, from_scratch_counts);
    assert!(
        diff.is_empty(),
        "the from-scratch refined hierarchy drifted from PR 2's goldens:\n{diff}\
         If the heuristic change is intentional, update FULL_REDUCE_GOLDEN."
    );
}

#[test]
fn incremental_reduce_literals_stay_within_two_percent_of_full() {
    // The acceptance bound of the incremental Reduce on the paper's
    // headline circuits — exactly those pinned in FULL_REDUCE_GOLDEN
    // (maj15, counter12): its literal count may trail the from-scratch
    // refinement by at most 2%. (Other circuits trade differently; see
    // the ROADMAP's QoR note.)
    for (name, full) in &FULL_REDUCE_GOLDEN {
        let (_, incr) = FLOW_GOLDEN
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from FLOW_GOLDEN"));
        let bound = (full[1] as f64) * 1.02;
        assert!(
            (incr[1] as f64) <= bound,
            "{name}: incremental reduce at {} literals exceeds 2% over the \
             from-scratch {} (bound {bound:.1})",
            incr[1],
            full[1]
        );
    }
}

#[test]
fn incremental_reduce_with_global_factor_closes_the_cell_gap() {
    // PR 3's incremental Reduce traded mapped-cell quality for stage
    // speed (lzd12 went to ~3x the from-scratch cell count). With the
    // cross-block divisor table (leader reuse + close-round CSE), the
    // arbitration close, and the workspace-wide Factor stage, the
    // incremental path must stay within 10% of the from-scratch path's
    // cells on every circuit pinned for both paths — and on lzd12/maj15
    // it currently matches or beats it. The pins themselves are held to
    // live runs by the two golden tests above.
    let mut diff = String::new();
    for (name, full) in &FULL_REDUCE_GOLDEN {
        let (_, incr) = FLOW_GOLDEN
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from FLOW_GOLDEN"));
        let bound = (full[3] as f64) * 1.10;
        if (incr[3] as f64) > bound {
            use std::fmt::Write as _;
            let _ = writeln!(
                diff,
                "  {name:<14} incremental {:>4} cells vs from-scratch {:>4} \
                 (bound {bound:.1})",
                incr[3], full[3]
            );
        }
    }
    assert!(
        diff.is_empty(),
        "incremental Reduce + global Factor fell more than 10% behind the \
         from-scratch path:\n{diff}"
    );
}

/// The per-block Factor path, kept as a reference for the global one:
/// each block's leaders resynthesised in isolation (direct Reed–Muller
/// synthesis, or two-level minimisation plus kernel extraction on the
/// minterm SOP where that emits fewer gates), divisors never shared
/// across blocks, then the outputs over the leaders.
fn factor_per_block(d: &Decomposition) -> Netlist {
    const MAX_SUPPORT: usize = 12;
    let live = |nl: &Netlist| nl.live_mask().iter().filter(|&&b| b).count();
    let mut nl = Netlist::new();
    let mut bound: HashMap<Var, NodeId> = HashMap::new();
    let mut scratch = d.pool.clone();
    for block in &d.blocks {
        let named: Vec<(String, Anf)> = block
            .basis
            .iter()
            .map(|(v, e)| (scratch.name(*v).to_owned(), e.clone()))
            .collect();
        let direct = synthesize_outputs(&named);
        let factored = FactorNetwork::from_anf_outputs(&named, MAX_SUPPORT).map(|mut net| {
            net.minimize_nodes(MAX_SUPPORT);
            net.extract(&mut scratch, &ExtractConfig::default());
            net.synthesize()
        });
        let small = match factored {
            Some(f) if live(&f) < live(&direct) => f,
            _ => direct,
        };
        let remap = nl
            .inline(&small, &bound)
            .expect("synthesised block netlists are topologically ordered");
        for (name, node) in small.outputs() {
            let v = block
                .basis
                .iter()
                .find(|(v, _)| scratch.name(*v) == *name)
                .expect("block output names its leader")
                .0;
            bound.insert(v, remap[node.index()]);
        }
    }
    let finals = synthesize_outputs(&d.outputs);
    let remap = nl
        .inline(&finals, &bound)
        .expect("synthesised output netlists are topologically ordered");
    for (name, node) in finals.outputs() {
        nl.set_output(name, remap[node.index()]);
    }
    nl
}

#[test]
fn global_factor_beats_local_factor_on_the_headline_circuits() {
    // The acceptance criterion of the global-factoring PR: on lzd12 and
    // maj15 the workspace-wide Factor stage must map to strictly fewer
    // cells than the per-block path on the same Reduce result, with
    // every boundary proved by the BDD oracle.
    for name in ["lzd12", "maj15"] {
        let input = circuit_by_name(name).expect("headline circuits resolve");
        let (pool, spec) = (input.pool.clone(), input.outputs.clone());
        let mut flow = Flow::new(input, FlowConfig::default());
        flow.run_next()
            .unwrap_or_else(|e| panic!("{name}: decompose: {e}"));
        flow.run_next()
            .unwrap_or_else(|e| panic!("{name}: reduce: {e}"));
        let reduced = flow.decomposition().expect("reduce ran").clone();
        let summary = flow
            .run_to_completion()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for s in &summary.stages {
            assert_ne!(s.verified, Some(false), "{name}/{} oracle red", s.stage);
            assert_eq!(s.degraded, None, "{name}/{} degraded", s.stage);
        }
        let per_block = mapped_cells(&factor_per_block(&reduced), &pool, &spec, name);
        assert!(
            summary.cells < per_block,
            "{name}: global factor must beat per-block ({} vs {} cells)",
            summary.cells,
            per_block
        );
    }
}

#[test]
fn decomposition_is_deterministic() {
    // Two runs over the same spec must produce identical hierarchies.
    let m = Majority::new(9);
    let d1 = ProgressiveDecomposer::new(PdConfig::default()).decompose(m.pool.clone(), m.spec());
    let d2 = ProgressiveDecomposer::new(PdConfig::default()).decompose(m.pool.clone(), m.spec());
    assert_eq!(d1.blocks.len(), d2.blocks.len());
    for (b1, b2) in d1.blocks.iter().zip(&d2.blocks) {
        assert_eq!(b1.group, b2.group);
        assert_eq!(b1.basis, b2.basis);
        assert_eq!(b1.substitutions, b2.substitutions);
    }
    assert_eq!(d1.outputs, d2.outputs);
}
