//! `cargo bench --bench runtime` — Criterion micro/meso benchmarks of the
//! engine: ANF arithmetic, full decompositions and the synthesis flow.
//! These quantify the heuristic's own cost (the paper ran in Maple; this
//! reproduction is self-contained Rust).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pd_arith::{Adder, Counter, Lzd, Majority};
use pd_cells::CellLibrary;
use pd_core::{PdConfig, ProgressiveDecomposer};
use pd_factor::{ExtractConfig, FactorNetwork, GlobalConfig, GlobalNetwork};
use pd_flow::{Flow, FlowConfig};

fn bench_anf_ops(c: &mut Criterion) {
    let adder = Adder::new(12);
    let spec = adder.spec();
    let carry = &spec.last().unwrap().1;
    let s5 = &spec[5].1;
    c.bench_function("anf/xor_4k_terms", |b| {
        b.iter(|| std::hint::black_box(carry.xor(s5)))
    });
    c.bench_function("anf/xor_assign_4k_terms", |b| {
        b.iter_batched(
            || carry.clone(),
            |mut acc| {
                acc.xor_assign(s5);
                acc
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("anf/and_small_big", |b| {
        b.iter(|| std::hint::black_box(s5.and(&spec[2].1)))
    });
    let all: Vec<&pd_anf::Anf> = spec.iter().map(|(_, e)| e).collect();
    c.bench_function("anf/xor_all_outputs", |b| {
        b.iter(|| std::hint::black_box(pd_anf::Anf::xor_all(all.iter().copied())))
    });
    let m = Majority::new(15);
    let maj = &m.spec()[0].1;
    c.bench_function("anf/eval64_6435_terms", |b| {
        b.iter(|| std::hint::black_box(maj.eval64(|v| u64::from(v.0) * 0x9e37)))
    });
    // The rewrite primitive of the main loop: replace a variable by a
    // two-literal leader expression and renormalise.
    let mut pool = m.pool.clone();
    let p = pool.derived("bench_p", 1);
    let q = pool.derived("bench_q", 1);
    let replacement = pd_anf::Anf::var(p).xor(&pd_anf::Anf::var(q));
    let v0 = m.bits[0];
    c.bench_function("anf/substitute_maj15", |b| {
        b.iter(|| std::hint::black_box(maj.substitute(v0, &replacement)))
    });
    // The exact truth table of the 6435-term majority: one coefficient
    // bit per term, then the word-level zeta transform.
    c.bench_function("kernel/truth_from_anf_maj15", |b| {
        b.iter(|| std::hint::black_box(pd_anf::TruthTable::from_anf(maj, &m.bits)))
    });
}

fn bench_pairs_split(c: &mut Criterion) {
    use std::collections::HashMap;
    // The findBasis entry point (§5.2): group the spec's terms by their
    // group-variable part. Measured on maj15 (6435 terms) and the 12-bit
    // LZD (61k literals across outputs combined into one expression).
    let m = Majority::new(15);
    let maj = &m.spec()[0].1;
    let group4: pd_anf::VarSet = m.bits[..4].iter().copied().collect();
    c.bench_function("pairs/split_maj15_k4", |b| {
        b.iter(|| {
            std::hint::black_box(pd_core::pairs::PairList::split(
                maj,
                &group4,
                &HashMap::new(),
            ))
        })
    });
    // The shape Reduce's close rounds and arbitration split: every
    // variable id at 128 or more, so terms are in the lexicographic order
    // class (still inline below Var(192)).
    let shift = |v: pd_anf::Var| pd_anf::Var(v.0 + 128);
    let maj_large = maj.map_vars(shift);
    let group4_large: pd_anf::VarSet = m.bits[..4].iter().map(|&v| shift(v)).collect();
    c.bench_function("pairs/split_maj15_k4_large", |b| {
        b.iter(|| {
            std::hint::black_box(pd_core::pairs::PairList::split(
                &maj_large,
                &group4_large,
                &HashMap::new(),
            ))
        })
    });
    // Rules 1–2 to a fixed point on the split above.
    let split = pd_core::pairs::PairList::split(maj, &group4, &HashMap::new());
    c.bench_function("pairs/merge_fixpoint_maj15_k4", |b| {
        b.iter_batched(
            || split.clone(),
            |mut pl| {
                pl.merge_fixpoint();
                pl
            },
            BatchSize::LargeInput,
        )
    });
    let lzd = Lzd::new(12);
    let combined = pd_anf::Anf::xor_all(lzd.spec().iter().map(|(_, e)| e).collect::<Vec<_>>());
    let group: pd_anf::VarSet = lzd.bits[..4].iter().copied().collect();
    c.bench_function("pairs/split_lzd12_k4", |b| {
        b.iter(|| {
            std::hint::black_box(pd_core::pairs::PairList::split(
                &combined,
                &group,
                &HashMap::new(),
            ))
        })
    });
}

fn bench_identities(c: &mut Criterion) {
    use pd_anf::{Anf, Var, VarSet};
    use pd_core::identities::{find_identities, IdentityStore, Search};
    use std::collections::HashMap;
    // Identity search (§5.5) over the leaders of maj15's first group of
    // six inputs, after the basis passes, named as findBasis names them:
    // fresh variables past the pool, group literals passing through. A
    // group-search trial builds only the substitution-capable identities;
    // the committed run builds them all.
    let m = Majority::new(15);
    let maj = &m.spec()[0].1;
    let group: Vec<Var> = m.bits[..6].to_vec();
    let group_set: VarSet = group.iter().copied().collect();
    let cfg = PdConfig::default();
    let mut pl = pd_core::pairs::PairList::split(maj, &group_set, &HashMap::new());
    pl.merge_fixpoint();
    pd_core::lindep::minimize(&mut pl, cfg.lindep_outer_term_cap);
    pd_core::size_reduce::improve(&mut pl);
    let mut fresh = m.pool.len() as u32;
    let basis: Vec<(Var, Anf)> = pl
        .pairs
        .iter()
        .map(|p| {
            let v = p.inner.as_literal().unwrap_or_else(|| {
                fresh += 1;
                Var(fresh - 1)
            });
            (v, p.inner.clone())
        })
        .collect();
    let store = IdentityStore::new();
    for (name, search) in [
        ("identities/maj15_k6_trial", Search::Substitutions),
        ("identities/maj15_k6_all", Search::All),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(find_identities(&basis, &group, &store, &cfg, search)))
        });
    }
}

/// A named benchmark case: circuit label, pool and specification.
type Case = (&'static str, pd_anf::VarPool, Vec<(String, pd_anf::Anf)>);

fn bench_decompose(c: &mut Criterion) {
    let mut g = c.benchmark_group("decompose");
    g.sample_size(10);
    let cases: Vec<Case> = vec![
        ("maj7", Majority::new(7).pool.clone(), Majority::new(7).spec()),
        ("maj15", Majority::new(15).pool.clone(), Majority::new(15).spec()),
        ("lzd12", Lzd::new(12).pool.clone(), Lzd::new(12).spec()),
        ("counter12", Counter::new(12).pool.clone(), Counter::new(12).spec()),
        ("adder10", Adder::new(10).pool.clone(), Adder::new(10).spec()),
    ];
    for (name, pool, spec) in cases {
        g.bench_function(name, |b| {
            b.iter_batched(
                || (pool.clone(), spec.clone()),
                |(pool, spec)| {
                    ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec)
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_flow(c: &mut Criterion) {
    let lzd = Lzd::new(16);
    let flat = lzd.sop_netlist();
    let lib = CellLibrary::umc130();
    c.bench_function("flow/map_sta_lzd16_sop", |b| {
        b.iter(|| std::hint::black_box(pd_cells::report(&flat, &lib)))
    });
    c.bench_function("flow/simulate_lzd16", |b| {
        let stim: std::collections::HashMap<_, _> = lzd
            .bits
            .iter()
            .map(|&v| (v, 0xDEADBEEFCAFEBABEu64))
            .collect();
        b.iter(|| std::hint::black_box(pd_netlist::sim::simulate64(&flat, &stim)))
    });
}

fn bench_verify(c: &mut Criterion) {
    // Exact-equivalence cost: the BDD build for a full-width Table 1
    // comparison (16-bit adder baselines, 33 outputs over 32 inputs).
    let a = Adder::new(16);
    let (rca, dw) = (a.rca_netlist(), a.designware_netlist());
    c.bench_function("verify/bdd_adder16_pair", |b| {
        b.iter(|| {
            std::hint::black_box(
                pd_bdd::verify::check_equal_interleaved(&a.pool, &rca, &dw).expect("small"),
            )
        })
    });
    // The §7 ring representation: the whole 32-bit LZD spec inside a ZDD.
    c.bench_function("verify/zdd_lzd32_spec", |b| {
        b.iter(|| std::hint::black_box(pd_bench::futurework::lzd_zdd(32)))
    });
}

fn bench_factorisation(c: &mut Criterion) {
    let lzd = Lzd::new(16);
    let sops = lzd.sop();
    let mut g = c.benchmark_group("factor");
    g.sample_size(10);
    g.bench_function("extract_lzd16", |b| {
        b.iter_batched(
            || (lzd.pool.clone(), FactorNetwork::from_sops(&sops)),
            |(mut pool, mut net)| {
                net.extract(&mut pool, &ExtractConfig::default());
                std::hint::black_box(net.synthesize())
            },
            BatchSize::LargeInput,
        )
    });
    // The flow's Factor stage on adder12: workspace-wide extraction over
    // the hierarchy Decompose and Reduce leave, each sample from a fresh
    // network (so from an empty estimate cache).
    let (net, pool) = global_factor_input("adder12");
    g.bench_function("global_extract_adder12", |b| {
        b.iter_batched(
            || (pool.clone(), net.clone()),
            |(mut pool, mut net)| {
                std::hint::black_box(net.extract(&mut pool, &GlobalConfig::default()))
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The Factor stage's input for a built-in circuit, ingested as the flow
/// ingests it, and the pool divisor variables come from.
fn global_factor_input(name: &str) -> (GlobalNetwork, pd_anf::VarPool) {
    let input = pd_flow::circuit_by_name(name).expect("built-in circuit");
    let cfg = FlowConfig {
        verify: false,
        ..FlowConfig::default()
    };
    let mut flow = Flow::new(input, cfg);
    for _ in 0..2 {
        flow.run_next().expect("Decompose and Reduce run");
    }
    let d = flow.decomposition().expect("hierarchy");
    let mut net = GlobalNetwork::new();
    for (bi, block) in d.blocks.iter().enumerate() {
        for (v, e) in &block.basis {
            net.add_leader(bi, *v, e);
        }
    }
    for (name, e) in &d.outputs {
        net.add_output(name, e);
    }
    (net, d.pool.clone())
}

criterion_group!(
    benches,
    bench_anf_ops,
    bench_pairs_split,
    bench_identities,
    bench_decompose,
    bench_flow,
    bench_verify,
    bench_factorisation
);
criterion_main!(benches);
