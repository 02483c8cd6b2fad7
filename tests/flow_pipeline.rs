//! Property tests of the unified synthesis pipeline: for random ANF
//! specifications, the flow's output is BDD-equivalent to its input at
//! *every* stage boundary — in-process under the harness's environment,
//! and via `pd flow` subprocesses under `PD_THREADS` ∈ {1, 4} (the env
//! knobs are read once per process, so cross-setting coverage needs child
//! processes).

use progressive_decomposition::flow::json::Json;
use progressive_decomposition::prelude::*;
use proptest::prelude::*;

/// Renders a random term list over `n_vars` variables as a `pd` spec
/// expression (e.g. `x0*x2 ^ x1 ^ 1`). An empty mask is the constant-1
/// term; an empty list is the zero function.
fn expr_text(masks: &[u16], n_vars: usize) -> String {
    if masks.is_empty() {
        return "0".to_owned();
    }
    let terms: Vec<String> = masks
        .iter()
        .map(|&m| {
            let vars: Vec<String> = (0..n_vars)
                .filter(|&i| m >> i & 1 == 1)
                .map(|i| format!("x{i}"))
                .collect();
            if vars.is_empty() {
                "1".to_owned()
            } else {
                vars.join("*")
            }
        })
        .collect();
    terms.join(" ^ ")
}

/// Builds the flow input for a random two-output specification.
fn flow_input_for(masks_a: &[u16], masks_b: &[u16], n_vars: usize) -> (VarPool, Vec<(String, Anf)>) {
    let mut pool = VarPool::new();
    // Declare the variables in index order so specs are reproducible.
    for i in 0..n_vars {
        pool.input(&format!("x{i}"), 0, i);
    }
    let a = Anf::parse(&expr_text(masks_a, n_vars), &mut pool).expect("generated expr parses");
    let b = Anf::parse(&expr_text(masks_b, n_vars), &mut pool).expect("generated expr parses");
    (pool, vec![("ya".to_owned(), a), ("yb".to_owned(), b)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_specs_verify_at_every_stage_boundary(
        n_vars in 3usize..13,
        masks_a in proptest::collection::vec(0u16..4096, 1..24),
        masks_b in proptest::collection::vec(0u16..4096, 0..24),
    ) {
        let masks_a: Vec<u16> = masks_a.iter().map(|m| m % (1 << n_vars)).collect();
        let masks_b: Vec<u16> = masks_b.iter().map(|m| m % (1 << n_vars)).collect();
        let (pool, outputs) = flow_input_for(&masks_a, &masks_b, n_vars);
        let spec = outputs.clone();
        let mut flow = Flow::new(
            FlowInput::new("prop", pool, outputs),
            FlowConfig::default(),
        );
        let summary = flow.run_to_completion().expect("oracle green at every stage");
        prop_assert_eq!(summary.stages.len(), 5);
        for s in &summary.stages[..4] {
            prop_assert_eq!(s.verified, Some(true), "stage {} unverified", s.stage);
        }
        // Belt and braces: the final netlist also matches the spec under
        // an independent (simulation-based) check.
        let nl = flow.netlist().expect("flow completed").clone();
        prop_assert_eq!(
            progressive_decomposition::netlist::sim::check_equiv_anf(&nl, &spec, 64, 0xF10),
            None
        );
    }
}

/// Seeded random spec files driven through `pd flow` child processes
/// under all four environment combinations: Factor path ×
/// `PD_THREADS` ∈ {1, 4}. The per-block Factor path is the ladder's
/// `local` rung, driven by `PD_FAULT=factor:panic:1`. The flow exits
/// non-zero if any stage boundary fails the BDD oracle, and the emitted
/// stats must be bit-identical across thread counts *within* each Factor
/// path (the engine's determinism guarantee; the two Factor paths
/// legitimately produce different netlists).
#[test]
fn env_combos_agree_and_verify_via_subprocess() {
    let dir = std::env::temp_dir().join(format!("pd-flow-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut rng = TestRng::new(proptest::seed_for(
        "env_combos_agree_and_verify_via_subprocess",
    ));
    for case in 0..3u32 {
        let n_vars = 4 + rng.below(9) as usize; // 4..=12 inputs
        let n_terms = 1 + rng.below(20) as usize;
        let masks: Vec<u16> = (0..n_terms)
            .map(|_| (rng.next_u64() as u16) % (1 << n_vars))
            .collect();
        let spec_path = dir.join(format!("case{case}.pd"));
        std::fs::write(&spec_path, format!("y = {}\n", expr_text(&masks, n_vars)))
            .expect("write spec");
        // stats[local] collects the per-combo fingerprints that must
        // agree with each other.
        let mut stats: [Vec<(String, String)>; 2] = [Vec::new(), Vec::new()];
        for local in [false, true] {
            for threads in ["1", "4"] {
                let out_path = dir.join(format!(
                    "case{case}-{}-t{threads}.json",
                    if local { "local" } else { "global" },
                ));
                let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_pd"));
                cmd.arg("flow")
                    .arg(&spec_path)
                    .arg("--out")
                    .arg(&out_path)
                    .env("PD_THREADS", threads)
                    .env_remove("PD_SKIP_VERIFY")
                    .env_remove("PD_FAULT");
                if local {
                    cmd.env("PD_FAULT", "factor:panic:1");
                }
                let out = cmd.output().expect("spawn pd flow");
                assert!(
                    out.status.success(),
                    "case {case} local={local} threads={threads} failed:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let doc = std::fs::read_to_string(&out_path).expect("stats written");
                let parsed = Json::parse(&doc).expect("stats parse");
                let circuits = parsed.get("circuits").and_then(Json::as_arr).expect("circuits");
                // Every transforming stage's oracle verdict must be green.
                let stages = circuits[0].get("stages").and_then(Json::as_arr).expect("stages");
                for s in stages {
                    let name = s.get("stage").and_then(Json::as_str).unwrap_or("?");
                    if name == "factor" {
                        assert_eq!(
                            s.get("degraded").and_then(Json::as_str),
                            local.then_some("local"),
                            "case {case} local={local}: factor rung"
                        );
                    }
                    if name != "sta" {
                        assert_eq!(
                            s.get("verified").and_then(Json::as_bool),
                            Some(true),
                            "case {case} local={local} threads={threads}: \
                             stage {name} not verified"
                        );
                    }
                }
                // Size metrics (not wall times) must agree across combos
                // of the same Factor path: strip the timing fields before
                // comparing.
                let fingerprint: Vec<String> = stages
                    .iter()
                    .map(|s| {
                        format!(
                            "{}:{:?}:{:?}:{:?}:{:?}",
                            s.get("stage").and_then(Json::as_str).unwrap_or("?"),
                            s.get("literals").and_then(Json::as_num),
                            s.get("gates").and_then(Json::as_num),
                            s.get("cells").and_then(Json::as_num),
                            s.get("shared_divisors").and_then(Json::as_num),
                        )
                    })
                    .collect();
                stats[usize::from(local)].push((
                    format!("local={local} threads={threads}"),
                    fingerprint.join("\n"),
                ));
            }
        }
        for group in &stats {
            let (ref first_combo, ref first) = group[0];
            for (combo, fp) in &group[1..] {
                assert_eq!(
                    fp, first,
                    "case {case}: {combo} disagrees with {first_combo}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The thread-count knob must never change what the flow computes or
/// concludes: 1 and 4 threads give bit-identical verdicts, size metrics
/// and oracle peak node counts on every stage of four generators.
/// adder12 and lod16 price Factor shortlists in parallel.
#[test]
fn generator_verdicts_agree_across_threads_via_subprocess() {
    let dir = std::env::temp_dir().join(format!("pd-flow-knobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for circuit in ["maj7", "comparator8", "adder12", "lod16"] {
        let mut fingerprints: Vec<(String, String)> = Vec::new();
        for threads in ["1", "4"] {
            let out_path = dir.join(format!("{circuit}-t{threads}.json"));
            let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_pd"));
            cmd.arg("flow")
                .arg(circuit)
                .arg("--out")
                .arg(&out_path)
                .env("PD_THREADS", threads)
                .env_remove("PD_SKIP_VERIFY")
                .env_remove("PD_NODE_CAP")
                .env_remove("PD_FAULT");
            let out = cmd.output().expect("spawn pd flow");
            assert!(
                out.status.success(),
                "{circuit} threads={threads} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let parsed = Json::parse(&std::fs::read_to_string(&out_path).expect("stats"))
                .expect("stats parse");
            let circuits = parsed.get("circuits").and_then(Json::as_arr).expect("circuits");
            let stages = circuits[0].get("stages").and_then(Json::as_arr).expect("stages");
            let fingerprint: Vec<String> = stages
                .iter()
                .map(|s| {
                    format!(
                        "{}:{:?}:{:?}:{:?}:{:?}:{:?}",
                        s.get("stage").and_then(Json::as_str).unwrap_or("?"),
                        s.get("verified").and_then(Json::as_bool),
                        s.get("verify_peak_nodes").and_then(Json::as_num),
                        s.get("literals").and_then(Json::as_num),
                        s.get("gates").and_then(Json::as_num),
                        s.get("cells").and_then(Json::as_num),
                    )
                })
                .collect();
            fingerprints.push((format!("threads={threads}"), fingerprint.join("\n")));
        }
        let (ref first_combo, ref first) = fingerprints[0];
        let (ref combo, ref fp) = fingerprints[1];
        assert_eq!(fp, first, "{circuit}: {combo} disagrees with {first_combo}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `pd flow` must also run clean on every built-in generator — the
/// CLI-level version of the acceptance criterion.
#[test]
fn pd_flow_all_generators_verify() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pd"))
        .args(["flow", "all"])
        .env_remove("PD_SKIP_VERIFY")
        .output()
        .expect("spawn pd flow all");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("11/11 circuits clean"), "{stdout}");
}

/// Both Reduce paths stay green end to end: the same circuit through the
/// default (incremental) stage and through the from-scratch `full-reduce`
/// fallback rung (driven by `PD_FAULT=reduce:panic:2`, which kills the
/// two rungs above it), oracle on, single-threaded.
#[test]
fn full_reduce_fallback_verifies_via_subprocess() {
    for full in [false, true] {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_pd"));
        cmd.args(["flow", "maj7"])
            .env("PD_THREADS", "1")
            .env_remove("PD_SKIP_VERIFY")
            .env_remove("PD_FAULT");
        if full {
            cmd.env("PD_FAULT", "reduce:panic:2");
        }
        let out = cmd.output().expect("spawn pd flow maj7");
        assert!(
            out.status.success(),
            "full={full} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("1/1 circuits clean"), "{stdout}");
        assert_eq!(
            stdout.contains("degraded to full-reduce"),
            full,
            "{stdout}"
        );
    }
}

/// A flow spec document on stdin configures the batch.
#[test]
fn pd_flow_reads_spec_from_stdin() {
    use std::io::Write as _;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pd"))
        .args(["flow", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pd flow -");
    child
        .stdin
        .as_mut()
        .expect("piped")
        .write_all(br#"{"circuits": ["maj7"], "group_size": 4}"#)
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("circuit maj7"), "{stdout}");
    assert!(stdout.contains("1/1 circuits clean"), "{stdout}");
}
