//! Machine-readable runtime measurements (`BENCH_RUNTIME.json`).
//!
//! The `bench_runtime` binary in `src/bin` drives this module: every case
//! is timed for a configurable number of repetitions and the *median*
//! wall time is reported, together with literal counts so result quality
//! is tracked alongside speed. The JSON artefact is the perf trajectory
//! of the engine from PR 1 onward — CI emits it on every run.
//!
//! Besides the `decompose/*` and `kernel/*` micro cases, the tracker runs
//! the **whole synthesis pipeline** (`pd-flow`) on maj15 and counter12
//! and records one `flow/<circuit>/<stage>` entry per stage plus a
//! `flow/<circuit>/total`, so the trajectory covers decompose → reduce →
//! factor → techmap → STA, not just the decomposition loop. Flow cases
//! run with the oracle off (the `PD_SKIP_VERIFY` escape hatch exists for
//! exactly this) so they time the transforms, not the checker.
//!
//! The Factor stage's two implementations are A/B-tracked as
//! `flow/<circuit>/factor-global` (the workspace-wide shared-divisor
//! network) versus `factor-local` (the per-block `local` ladder rung,
//! reached by injecting `factor:panic:1`), each with its literal count
//! *and mapped cell count*, so the cross-block sharing's QoR effect is
//! recorded next to its cost.
//!
//! The content-addressed stage cache is A/B-tracked as
//! `flow/<circuit>/total-cold` (empty `PD_CACHE_DIR`-style store, every
//! stage computed and BDD-verified) versus `total-warm` (identical
//! re-run, every stage served from the store with its verify verdict
//! carried forward). These two run with the oracle **on** — the warm
//! path's whole point is skipping re-verification — so the pair records
//! the end-to-end re-run saving the cache buys.
//!
//! The Reduce stage's two implementations are A/B-tracked directly:
//! `flow/<circuit>/reduce-incremental` times `pd_core::refine` applied to
//! a prebuilt stage-1 hierarchy (the default in-place worklist path), and
//! `flow/<circuit>/reduce-full` times the from-scratch re-decomposition
//! it replaced (the Reduce ladder's `full-reduce` rung), each with the
//! literal count it reaches. A second pair, `reduce-budgeted` versus
//! `reduce-unbudgeted`, pins the effort-budget work: the default
//! config's learned arbitration-skip bound against the same pass with
//! the arbitration close always recomputed — equal `literals_after`
//! across the pair is the recorded evidence that the budget reclaims
//! time without costing QoR.
//!
//! The BDD oracle's variable-order work is A/B-tracked as
//! `verify/<circuit>/verify-interleaved` versus `verify-sifted`: the same
//! netlist built under the fixed interleaved order with and without a
//! sift-to-convergence pass, each recording peak allocated node slots and
//! final live node count. The sifted entries staying strictly below the
//! interleaved ones is the recorded evidence that dynamic reordering
//! recovers capacity for the verification ladder.
//!
//! Set `PD_NAIVE_KERNEL=1` to route all ANF arithmetic through the
//! reference (pre-optimisation) paths; the recorded `kernel` field then
//! says `"naive"`, which is how before/after comparisons are produced
//! from a single binary.

use crate::json::Json;
use pd_anf::{Anf, VarPool};
use pd_arith::{Adder, Counter, Lzd, Majority};
use pd_core::pairs::PairList;
use pd_core::{PdConfig, ProgressiveDecomposer};
use pd_flow::{circuit_by_name, FaultPlan, Flow, FlowConfig, StageKind};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One timed case.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Case name, e.g. `decompose/maj15` or `kernel/and_small_big`.
    pub name: String,
    /// Median wall time over all repetitions, milliseconds.
    pub median_ms: f64,
    /// Fastest repetition, milliseconds.
    pub min_ms: f64,
    /// Number of repetitions timed.
    pub reps: usize,
    /// Specification literal count (decompose cases).
    pub literals_before: Option<usize>,
    /// Output literal count after decomposition (decompose cases).
    pub literals_after: Option<usize>,
    /// Blocks in the produced hierarchy (decompose cases).
    pub blocks: Option<usize>,
    /// Mapped cell count (flow stages that map).
    pub cells: Option<usize>,
    /// Mapped cell area in µm² (flow techmap/STA stages).
    pub area_um2: Option<f64>,
    /// Critical-path delay in ns (flow STA stage).
    pub delay_ns: Option<f64>,
    /// Peak allocated BDD node-table slots (verify A/B cases).
    pub peak_nodes: Option<usize>,
    /// Live (root-reachable) BDD nodes at the end (verify A/B cases).
    pub live_nodes: Option<usize>,
}

/// Knobs for a measurement run.
#[derive(Clone, Debug)]
pub struct RuntimeOptions {
    /// Repetitions per case (median reported). Default 5.
    pub reps: usize,
    /// Skip the slowest decompose cases (CI smoke mode).
    pub quick: bool,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            reps: 5,
            quick: false,
        }
    }
}

fn time_reps(reps: usize, mut f: impl FnMut()) -> (Duration, Duration) {
    f(); // warm-up
    let mut samples: Vec<Duration> = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed());
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], samples[0])
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

type Case = (&'static str, VarPool, Vec<(String, Anf)>);

fn decompose_cases(quick: bool) -> Vec<Case> {
    let mut cases: Vec<Case> = vec![
        ("decompose/maj7", Majority::new(7).pool.clone(), Majority::new(7).spec()),
        ("decompose/lzd12", Lzd::new(12).pool.clone(), Lzd::new(12).spec()),
        (
            "decompose/counter12",
            Counter::new(12).pool.clone(),
            Counter::new(12).spec(),
        ),
        ("decompose/maj15", Majority::new(15).pool.clone(), Majority::new(15).spec()),
    ];
    if !quick {
        cases.push((
            "decompose/adder10",
            Adder::new(10).pool.clone(),
            Adder::new(10).spec(),
        ));
    }
    cases
}

/// Runs every case and returns the measurements.
pub fn run(opts: &RuntimeOptions) -> Vec<Measurement> {
    let mut out = Vec::new();
    for (name, pool, spec) in decompose_cases(opts.quick) {
        let literals_before: usize = spec.iter().map(|(_, e)| e.literal_count()).sum();
        let mut last: Option<(usize, usize)> = None;
        let (median, min) = time_reps(opts.reps, || {
            let d = ProgressiveDecomposer::new(PdConfig::default())
                .decompose(pool.clone(), spec.clone());
            let after: usize = d.outputs.iter().map(|(_, e)| e.literal_count()).sum();
            last = Some((after, d.blocks.len()));
        });
        let (after, blocks) = last.expect("at least one rep ran");
        out.push(Measurement {
            name: name.to_string(),
            median_ms: ms(median),
            min_ms: ms(min),
            reps: opts.reps,
            literals_before: Some(literals_before),
            literals_after: Some(after),
            blocks: Some(blocks),
            cells: None,
            area_um2: None,
            delay_ns: None,
            peak_nodes: None,
            live_nodes: None,
        });
    }
    out.extend(flow_cases(opts));
    out.extend(cache_ab_cases(opts));
    out.extend(factor_ab_cases(opts));
    out.extend(reduce_ab_cases(opts));
    out.extend(verify_ab_cases(opts));
    out.extend(kernel_cases(opts));
    out
}

/// Circuits the whole-pipeline tracker runs (per-stage entries each).
const FLOW_CIRCUITS: [&str; 2] = ["maj15", "counter12"];

/// Times the five-stage `pd-flow` pipeline per stage.
///
/// Every repetition runs a fresh [`Flow`] to completion with
/// verification off; the median/min of each stage's transform wall time
/// becomes one `flow/<circuit>/<stage>` measurement, and the summed
/// stage times one `flow/<circuit>/total`.
fn flow_cases(opts: &RuntimeOptions) -> Vec<Measurement> {
    let mut out = Vec::new();
    let reps = opts.reps.max(1);
    for circuit in FLOW_CIRCUITS {
        let input = circuit_by_name(circuit).expect("bench circuits resolve");
        let cfg = FlowConfig {
            verify: false,
            ..FlowConfig::default()
        };
        // samples[stage][rep] = wall ms; the final rep's reports supply
        // the size metrics.
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); StageKind::ALL.len()];
        let mut last_reports = Vec::new();
        for _ in 0..reps {
            let mut flow = Flow::new(input.clone(), cfg.clone());
            flow.run_to_completion().expect("bench circuits flow clean");
            for (i, r) in flow.reports().iter().enumerate() {
                samples[i].push(r.wall_ms);
            }
            last_reports = flow.reports().to_vec();
        }
        let median_min = |mut s: Vec<f64>| {
            s.sort_by(f64::total_cmp);
            (s[s.len() / 2], s[0])
        };
        let mut totals: Vec<f64> = vec![0.0; reps];
        for (i, (stage, stage_samples)) in StageKind::ALL.iter().zip(&samples).enumerate() {
            for (t, &s) in totals.iter_mut().zip(stage_samples) {
                *t += s;
            }
            let report = &last_reports[i];
            let (median, min) = median_min(stage_samples.clone());
            out.push(Measurement {
                name: format!("flow/{circuit}/{}", stage.name()),
                median_ms: median,
                min_ms: min,
                reps,
                literals_before: None,
                literals_after: report.literals,
                blocks: report.blocks,
                cells: report.cells,
                area_um2: report.area_um2,
                delay_ns: report.delay_ns,
                peak_nodes: None,
                live_nodes: None,
            });
        }
        let (median, min) = median_min(totals);
        out.push(Measurement {
            name: format!("flow/{circuit}/total"),
            median_ms: median,
            min_ms: min,
            reps,
            literals_before: None,
            literals_after: last_reports.iter().rev().find_map(|r| r.literals),
            blocks: None,
            cells: last_reports.iter().rev().find_map(|r| r.cells),
            area_um2: last_reports.iter().rev().find_map(|r| r.area_um2),
            delay_ns: last_reports.iter().rev().find_map(|r| r.delay_ns),
            peak_nodes: None,
            live_nodes: None,
        });
    }
    out
}

/// A/B comparison of cold versus warm runs through the content-addressed
/// stage cache (see the module docs). Cold repetitions clear the store
/// first, so every stage computes and verifies; warm repetitions re-run
/// the identical config against the populated store, so every stage is
/// served. Both directions time the *whole* flow, oracle on.
fn cache_ab_cases(opts: &RuntimeOptions) -> Vec<Measurement> {
    let mut out = Vec::new();
    let reps = opts.reps.max(1);
    for circuit in FLOW_CIRCUITS {
        let input = circuit_by_name(circuit).expect("bench circuits resolve");
        let dir = std::env::temp_dir().join(format!(
            "pd-bench-cache-{}-{circuit}",
            std::process::id()
        ));
        let cfg = FlowConfig {
            cache_dir: Some(dir.clone()),
            divisor_library: None,
            ..FlowConfig::default()
        };
        let run_once = || {
            let mut flow = Flow::new(input.clone(), cfg.clone());
            flow.run_to_completion().expect("bench circuits flow clean");
            flow.reports().to_vec()
        };
        let median_min = |mut s: Vec<f64>| {
            s.sort_by(f64::total_cmp);
            (s[s.len() / 2], s[0])
        };
        let mut cold: Vec<f64> = Vec::with_capacity(reps);
        for _ in 0..reps {
            let _ = std::fs::remove_dir_all(&dir);
            let t = Instant::now();
            run_once();
            cold.push(ms(t.elapsed()));
        }
        let mut warm: Vec<f64> = Vec::with_capacity(reps);
        let mut last_reports = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            last_reports = run_once();
            warm.push(ms(t.elapsed()));
        }
        debug_assert!(
            last_reports
                .iter()
                .all(|r| r.cache.as_deref() == Some("hit")),
            "{circuit}: warm repetition was not fully served from cache"
        );
        for (suffix, samples) in [("cold", cold), ("warm", warm)] {
            let (median, min) = median_min(samples);
            out.push(Measurement {
                name: format!("flow/{circuit}/total-{suffix}"),
                median_ms: median,
                min_ms: min,
                reps,
                literals_before: None,
                literals_after: last_reports.iter().rev().find_map(|r| r.literals),
                blocks: None,
                cells: last_reports.iter().rev().find_map(|r| r.cells),
                area_um2: last_reports.iter().rev().find_map(|r| r.area_um2),
                delay_ns: last_reports.iter().rev().find_map(|r| r.delay_ns),
                peak_nodes: None,
                live_nodes: None,
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

/// A/B comparison of the Reduce stage's two implementations (see the
/// module docs): incremental in-place refinement of one prebuilt stage-1
/// hierarchy versus the from-scratch refined re-decomposition.
fn reduce_ab_cases(opts: &RuntimeOptions) -> Vec<Measurement> {
    let mut out = Vec::new();
    let reps = opts.reps.max(1);
    for circuit in FLOW_CIRCUITS {
        let input = circuit_by_name(circuit).expect("bench circuits resolve");
        let stage1 = ProgressiveDecomposer::new(PdConfig::default().without_basis_refinement())
            .decompose(input.pool.clone(), input.outputs.clone());
        let literals_before = stage1.hierarchy_literal_count();
        let mut refined_literals = 0;
        let (median, min) = time_reps(reps, || {
            let mut d = stage1.clone();
            pd_core::refine(&mut d, &PdConfig::default());
            refined_literals = d.hierarchy_literal_count();
        });
        out.push(Measurement {
            name: format!("flow/{circuit}/reduce-incremental"),
            median_ms: ms(median),
            min_ms: ms(min),
            reps,
            literals_before: Some(literals_before),
            literals_after: Some(refined_literals),
            blocks: None,
            cells: None,
            area_um2: None,
            delay_ns: None,
            peak_nodes: None,
            live_nodes: None,
        });
        let mut full_literals = 0;
        let (median, min) = time_reps(reps, || {
            let d = ProgressiveDecomposer::new(PdConfig::default())
                .decompose(input.pool.clone(), input.outputs.clone());
            full_literals = d.hierarchy_literal_count();
        });
        out.push(Measurement {
            name: format!("flow/{circuit}/reduce-full"),
            median_ms: ms(median),
            min_ms: ms(min),
            reps,
            literals_before: Some(literals_before),
            literals_after: Some(full_literals),
            blocks: None,
            cells: None,
            area_um2: None,
            delay_ns: None,
            peak_nodes: None,
            live_nodes: None,
        });
        // The budgeted-arbitration A/B: the default config's learned
        // skip bound versus the same worklist pass with the arbitration
        // close always recomputed.
        // Equal literals_after here *is* the quality claim — the budget
        // reclaims time, not QoR.
        for (suffix, cfg) in [
            ("budgeted", PdConfig::default()),
            ("unbudgeted", PdConfig::default().without_arbitration_skip()),
        ] {
            let mut lits = 0;
            let (median, min) = time_reps(reps, || {
                let mut d = stage1.clone();
                pd_core::refine(&mut d, &cfg);
                lits = d.hierarchy_literal_count();
            });
            out.push(Measurement {
                name: format!("flow/{circuit}/reduce-{suffix}"),
                median_ms: ms(median),
                min_ms: ms(min),
                reps,
                literals_before: Some(literals_before),
                literals_after: Some(lits),
                blocks: None,
                cells: None,
                area_um2: None,
                delay_ns: None,
                peak_nodes: None,
                live_nodes: None,
            });
        }
    }
    out
}

/// Circuits for the Factor-stage A/B (the acceptance circuits of the
/// global-factoring work plus the counter).
const FACTOR_AB_CIRCUITS: [&str; 3] = ["maj15", "counter12", "lzd12"];

/// A/B comparison of the Factor stage's two implementations: the
/// workspace-wide shared-divisor `GlobalNetwork` (`factor-global`, the
/// default) versus the per-block resynthesis of the ladder's `local`
/// rung (`factor-local`), reached by a `factor:panic:1` fault that kills
/// the `global` rung before it starts. Decompose + Reduce run once per
/// side; each repetition then clones that flow state and times the
/// rung that ran (the report's `wall_ms`), with the mapped cell count
/// recorded so the QoR side of the trade is tracked next to the speed.
fn factor_ab_cases(opts: &RuntimeOptions) -> Vec<Measurement> {
    let mut out = Vec::new();
    let reps = opts.reps.max(1);
    for circuit in FACTOR_AB_CIRCUITS {
        let input = circuit_by_name(circuit).expect("bench circuits resolve");
        for local in [false, true] {
            let cfg = FlowConfig {
                verify: false,
                fault: local.then(|| FaultPlan::parse("factor:panic:1").expect("valid plan")),
                ..FlowConfig::default()
            };
            // Pay the Decompose + Reduce prefix once per side and fork
            // the flow state for every repetition.
            let mut pre = Flow::new(input.clone(), cfg);
            pre.run_next().expect("decompose");
            pre.run_next().expect("reduce");
            let mut wall: Vec<f64> = Vec::new();
            let mut literals = None;
            let mut cells = None;
            for _ in 0..reps {
                let mut flow = pre.clone();
                {
                    let report = flow.run_next().expect("factor");
                    assert_eq!(report.degraded.as_deref(), local.then_some("local"));
                    wall.push(report.wall_ms);
                    literals = report.literals;
                }
                flow.run_next().expect("techmap");
                cells = flow.reports().last().and_then(|r| r.cells);
            }
            wall.sort_by(f64::total_cmp);
            out.push(Measurement {
                name: format!(
                    "flow/{circuit}/factor-{}",
                    if local { "local" } else { "global" }
                ),
                median_ms: wall[wall.len() / 2],
                min_ms: wall[0],
                reps,
                literals_before: None,
                literals_after: literals,
                blocks: None,
                cells,
                area_um2: None,
                delay_ns: None,
                peak_nodes: None,
                live_nodes: None,
            });
        }
    }
    out
}

/// Circuits for the oracle-order A/B. Chosen where the fixed interleaved
/// order is measurably suboptimal for a from-scratch build — the Gray
/// decoder's chained XOR structure and the leading-zero detector's
/// priority chain both reorder well — so the pair records a strict
/// peak-and-live reduction rather than noise. (Multipliers shrink their
/// *live* diagrams under sifting too, but their gate-by-gate rebuild
/// churn swamps the peak-allocation win, so they make a poor pin.)
const VERIFY_AB_CIRCUITS: [&str; 3] = ["gray10", "gray12", "lzd12"];

/// A/B comparison of the BDD oracle's variable-order strategies:
/// `verify-interleaved` builds every output of the circuit's flat netlist
/// under the fixed interleaved order (the oracle's historical behaviour),
/// `verify-sifted` builds the same outputs under the order a one-off
/// sift-to-convergence pass learned (the `PD_DVO` reordering layer) — the
/// steady state of a `VerifyContext` that has reordered and cached the
/// result. Each entry records the peak allocated node-table slots and the
/// final live node count; the sifted build staying below the interleaved
/// one on both is exactly the capacity the ladder recovers under a fixed
/// `PD_NODE_CAP`.
fn verify_ab_cases(opts: &RuntimeOptions) -> Vec<Measurement> {
    use pd_bdd::{interleaved_order, sift, verify::build_outputs, Bdd, SiftSchedule};
    let mut out = Vec::new();
    let reps = opts.reps.max(1);
    for circuit in VERIFY_AB_CIRCUITS {
        let input = circuit_by_name(circuit).expect("bench circuits resolve");
        let netlist = pd_netlist::synthesize_outputs(&input.outputs);
        // Learn the order once, the way the oracle does: build under the
        // interleaved order and sift to convergence. The learning cost is
        // the ladder's one-off; both timed cases below are pure builds.
        let learned = {
            let mut bdd = Bdd::with_order(interleaved_order(&input.pool));
            let outputs = build_outputs(&mut bdd, &netlist).expect("bench circuits fit the cap");
            let roots: Vec<_> = outputs.iter().map(|(_, r)| *r).collect();
            sift(&mut bdd, &roots, SiftSchedule::Converge { max_rounds: 4 });
            bdd.order().to_vec()
        };
        let interleaved = interleaved_order(&input.pool);
        for (suffix, order) in [("interleaved", &interleaved), ("sifted", &learned)] {
            let (mut peak, mut live) = (0, 0);
            let (median, min) = time_reps(reps, || {
                let mut bdd = Bdd::with_order(order.iter().copied());
                let outputs =
                    build_outputs(&mut bdd, &netlist).expect("bench circuits fit the cap");
                let roots: Vec<_> = outputs.iter().map(|(_, r)| *r).collect();
                live = bdd.node_count_many(&roots);
                peak = bdd.len();
            });
            out.push(Measurement {
                name: format!("verify/{circuit}/verify-{suffix}"),
                median_ms: ms(median),
                min_ms: ms(min),
                reps,
                literals_before: None,
                literals_after: None,
                blocks: None,
                cells: None,
                area_um2: None,
                delay_ns: None,
                peak_nodes: Some(peak),
                live_nodes: Some(live),
            });
        }
    }
    out
}

/// Micro benchmarks of the ANF kernel and the pair-list split.
fn kernel_cases(opts: &RuntimeOptions) -> Vec<Measurement> {
    let mut out = Vec::new();
    let mut push = |name: &str, reps: usize, f: &mut dyn FnMut()| {
        let (median, min) = time_reps(reps, f);
        out.push(Measurement {
            name: name.to_string(),
            median_ms: ms(median),
            min_ms: ms(min),
            reps,
            literals_before: None,
            literals_after: None,
            blocks: None,
            cells: None,
            area_um2: None,
            delay_ns: None,
            peak_nodes: None,
            live_nodes: None,
        });
    };
    let reps = opts.reps.max(3);
    let adder = Adder::new(12);
    let spec = adder.spec();
    let carry = &spec.last().expect("adder outputs").1;
    let s5 = &spec[5].1;
    let s2 = &spec[2].1;
    push("kernel/and_small_big", reps, &mut || {
        std::hint::black_box(s5.and(s2));
    });
    push("kernel/xor_terms", reps, &mut || {
        std::hint::black_box(carry.xor(s5));
    });
    push("kernel/xor_assign", reps, &mut || {
        let mut acc = carry.clone();
        acc.xor_assign(s5);
        std::hint::black_box(acc);
    });
    let all: Vec<&Anf> = spec.iter().map(|(_, e)| e).collect();
    push("kernel/xor_all_outputs", reps, &mut || {
        std::hint::black_box(Anf::xor_all(all.iter().copied()));
    });
    let m = Majority::new(15);
    let maj = &m.spec()[0].1;
    let v0 = m.bits[0];
    let mut pool = m.pool.clone();
    let replacement = {
        let p = pool.derived("bench_p", 1);
        let q = pool.derived("bench_q", 1);
        Anf::var(p).xor(&Anf::var(q))
    };
    push("kernel/substitute_maj15", reps, &mut || {
        std::hint::black_box(maj.substitute(v0, &replacement));
    });
    let group: pd_anf::VarSet = m.bits[..4].iter().copied().collect();
    push("pairs/split_maj15", reps, &mut || {
        std::hint::black_box(PairList::split(maj, &group, &HashMap::new()));
    });
    let vars = &m.bits;
    push("kernel/truth_from_anf_maj15", reps, &mut || {
        std::hint::black_box(pd_anf::TruthTable::from_anf(maj, vars));
    });
    out
}

/// Which kernel the process is running (`fast` unless `PD_NAIVE_KERNEL`).
pub fn kernel_mode() -> &'static str {
    if pd_anf::naive_kernel() {
        "naive"
    } else {
        "fast"
    }
}

/// Serialises measurements as the `BENCH_RUNTIME.json` document.
pub fn to_json(results: &[Measurement], opts: &RuntimeOptions) -> String {
    let cases: Vec<Json> = results
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("name", Json::from(m.name.as_str())),
                ("median_ms", Json::from(m.median_ms)),
                ("min_ms", Json::from(m.min_ms)),
                ("reps", Json::from(m.reps)),
            ];
            if let Some(b) = m.literals_before {
                fields.push(("literals_before", Json::from(b)));
            }
            if let Some(a) = m.literals_after {
                fields.push(("literals_after", Json::from(a)));
            }
            if let Some(bl) = m.blocks {
                fields.push(("blocks", Json::from(bl)));
            }
            if let Some(c) = m.cells {
                fields.push(("cells", Json::from(c)));
            }
            if let Some(a) = m.area_um2 {
                fields.push(("area_um2", Json::from(a)));
            }
            if let Some(d) = m.delay_ns {
                fields.push(("delay_ns", Json::from(d)));
            }
            if let Some(p) = m.peak_nodes {
                fields.push(("peak_nodes", Json::from(p)));
            }
            if let Some(l) = m.live_nodes {
                fields.push(("live_nodes", Json::from(l)));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::from("pd-bench-runtime/v1")),
        ("kernel", Json::from(kernel_mode())),
        ("threads", Json::from(pd_par::max_threads())),
        ("reps", Json::from(opts.reps)),
        ("quick", Json::from(opts.quick)),
        ("cases", Json::Arr(cases)),
    ])
    .pretty()
}

/// Formats measurements as an aligned text table.
pub fn print_table(results: &[Measurement]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<30} {:>12} {:>12} {:>10} {:>10}",
        "case", "median ms", "min ms", "lits in", "lits out"
    );
    for m in results {
        let fmt_opt = |o: Option<usize>| o.map_or(String::from("-"), |v| v.to_string());
        let _ = writeln!(
            out,
            "{:<30} {:>12.3} {:>12.3} {:>10} {:>10}",
            m.name,
            m.median_ms,
            m.min_ms,
            fmt_opt(m.literals_before),
            fmt_opt(m.literals_after),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_json() {
        let opts = RuntimeOptions {
            reps: 1,
            quick: true,
        };
        let results = run(&opts);
        assert!(results.iter().any(|m| m.name == "decompose/maj15"));
        assert!(results.iter().any(|m| m.name == "decompose/counter12"));
        assert!(results.iter().any(|m| m.name == "pairs/split_maj15"));
        // The pipeline tracker: one entry per stage per flow circuit,
        // plus the Reduce A/B pair.
        for circuit in FLOW_CIRCUITS {
            for stage in StageKind::ALL {
                let name = format!("flow/{circuit}/{}", stage.name());
                assert!(results.iter().any(|m| m.name == name), "{name} missing");
            }
            for ab in ["factor-global", "factor-local"] {
                let name = format!("flow/{circuit}/{ab}");
                let m = results
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert!(m.cells.unwrap_or(0) > 0, "{name} lacks cells");
            }
            for ab in [
                "reduce-incremental",
                "reduce-full",
                "reduce-budgeted",
                "reduce-unbudgeted",
            ] {
                let name = format!("flow/{circuit}/{ab}");
                let m = results
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert!(m.literals_after.unwrap_or(0) > 0, "{name} lacks literals");
            }
            let total = results
                .iter()
                .find(|m| m.name == format!("flow/{circuit}/total"))
                .expect("total entry");
            assert!(total.area_um2.unwrap_or(0.0) > 0.0);
            assert!(total.delay_ns.unwrap_or(0.0) > 0.0);
            // The stage-cache A/B: a warm (fully served) re-run must be
            // decisively faster than the cold verified one.
            let ab = |suffix: &str| {
                let name = format!("flow/{circuit}/total-{suffix}");
                results
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{name} missing"))
            };
            let (cold, warm) = (ab("cold"), ab("warm"));
            assert_eq!(cold.cells, warm.cells, "{circuit}: cold/warm cells drifted");
            assert!(
                warm.median_ms * 2.0 < cold.median_ms,
                "{circuit}: warm re-run should be far faster than cold \
                 ({} ms vs {} ms)",
                warm.median_ms,
                cold.median_ms
            );
        }
        // The oracle-order A/B: sifting must strictly shrink the live
        // diagram on every tracked circuit — this is the artefact side
        // of the PD_DVO acceptance claim.
        for circuit in VERIFY_AB_CIRCUITS {
            let find = |suffix: &str| {
                let name = format!("verify/{circuit}/verify-{suffix}");
                results
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{name} missing"))
            };
            let (fixed, sifted) = (find("interleaved"), find("sifted"));
            let (fixed_live, sifted_live) = (
                fixed.live_nodes.expect("interleaved live recorded"),
                sifted.live_nodes.expect("sifted live recorded"),
            );
            assert!(
                sifted_live < fixed_live,
                "{circuit}: sifting should shrink live nodes, got {fixed_live} -> {sifted_live}"
            );
            let (fixed_peak, sifted_peak) = (
                fixed.peak_nodes.expect("interleaved peak recorded"),
                sifted.peak_nodes.expect("sifted peak recorded"),
            );
            assert!(
                sifted_peak < fixed_peak,
                "{circuit}: the learned order should shrink the build's peak \
                 allocation, got {fixed_peak} -> {sifted_peak}"
            );
        }
        let json = to_json(&results, &opts);
        assert!(json.contains("\"schema\": \"pd-bench-runtime/v1\""));
        assert!(json.contains("decompose/maj15"));
        assert!(json.contains("flow/maj15/techmap"));
        assert!(json.contains("flow/counter12/sta"));
        assert!(json.contains("area_um2"));
        let table = print_table(&results);
        assert!(table.contains("decompose/counter12"));
        assert!(table.contains("flow/maj15/decompose"));
    }
}
