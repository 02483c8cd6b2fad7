//! Deterministic fault-injection matrix over the flow's degradation
//! ladders: every `PD_FAULT=<stage>:<mode>:<count>` combination must end
//! in either a completed flow with the degradation recorded in the stage
//! report, or a typed [`FlowError`] in the circuit's slot — never a
//! process abort. Faults are injected in child `pd` processes because
//! `PD_FAULT` is read once per process (`FlowConfig::default`).
//!
//! [`FlowError`]: progressive_decomposition::flow::FlowError

use progressive_decomposition::flow::json::Json;

/// What a faulted `pd flow maj7` run must report.
enum Expect {
    /// Exit 0; the named stage degraded to the named rung and every
    /// other transforming stage's boundary was proved BDD-green. A
    /// `skip` rung itself runs no oracle and reports no verdict.
    Degraded(&'static str, &'static str),
    /// Exit 0; the named stage completed on its first rung but recorded
    /// the given substring in `degradation_reason` (budget exhaustion,
    /// or an inert fault that found no injection point).
    Noted(&'static str, &'static str),
    /// Exit 0; the named stage committed with `"verified": false` and an
    /// explicit `unverified` degradation note (oracle capacity exhausted
    /// at the stage's final rung); every other boundary stayed green.
    Unverified(&'static str),
    /// Exit 1 (a *typed* failure, not a signal); the slot's `error`
    /// contains the substring.
    Failed(&'static str),
}

/// Runs `pd flow maj7 --out <path>` with a scrubbed environment plus the
/// given fault plan, returning (exit code, parsed stats document).
fn run_faulted(dir: &std::path::Path, fault: &str) -> (Option<i32>, Json) {
    let out_path = dir.join(format!("{}.json", fault.replace(':', "-")));
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_pd"));
    cmd.arg("flow")
        .arg("maj7")
        .arg("--out")
        .arg(&out_path)
        .env_remove("PD_SKIP_VERIFY")
        .env_remove("PD_THREADS")
        .env_remove("PD_BUDGET_DECOMPOSE")
        .env_remove("PD_BUDGET_REDUCE")
        .env_remove("PD_BUDGET_FACTOR")
        .env_remove("PD_NODE_CAP")
        .env("PD_FAULT", fault);
    let out = cmd.output().expect("spawn pd flow");
    let doc = std::fs::read_to_string(&out_path)
        .unwrap_or_else(|e| panic!("fault {fault}: stats not written: {e}"));
    let parsed = Json::parse(&doc).unwrap_or_else(|e| panic!("fault {fault}: bad stats: {e}"));
    (out.status.code(), parsed)
}

/// Pulls the single circuit object out of a stats document.
fn circuit(doc: &Json) -> &Json {
    &doc.get("circuits")
        .and_then(Json::as_arr)
        .expect("circuits")[0]
}

/// Finds the named stage's report within a circuit object.
fn stage<'a>(circuit: &'a Json, name: &str) -> &'a Json {
    circuit
        .get("stages")
        .and_then(Json::as_arr)
        .expect("stages")
        .iter()
        .find(|s| s.get("stage").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("no {name} stage in report"))
}

/// No surviving verify boundary may be red. (Pass-through rungs — e.g.
/// Factor's `skip` — run no oracle and report no verdict; that is not a
/// failure, the netlist they hand on was verified upstream.)
fn assert_boundaries_green(circuit: &Json, fault: &str) {
    for s in circuit
        .get("stages")
        .and_then(Json::as_arr)
        .expect("stages")
    {
        let name = s.get("stage").and_then(Json::as_str).unwrap_or("?");
        assert_ne!(
            s.get("verified").and_then(Json::as_bool),
            Some(false),
            "fault {fault}: stage {name} boundary is red"
        );
    }
}

#[test]
fn every_fault_mode_on_every_stage_degrades_or_fails_typed() {
    let dir = std::env::temp_dir().join(format!("pd-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    use Expect::*;
    let matrix: &[(&str, Expect)] = &[
        // Panic faults walk each ladder rung by rung; one past the last
        // rung is a typed failure.
        ("decompose:panic:1", Failed("injected fault")),
        ("reduce:panic:1", Degraded("reduce", "skip")),
        ("reduce:panic:2", Failed("injected fault")),
        ("factor:panic:1", Degraded("factor", "skip")),
        ("factor:panic:2", Failed("injected fault")),
        ("techmap:panic:1", Degraded("techmap", "greedy")),
        ("techmap:panic:2", Failed("injected fault")),
        ("sta:panic:1", Failed("injected fault")),
        // Budget faults zero the stage's effort meter: stages with a
        // meter record the exhaustion and keep going; stages without one
        // record the fault as inert.
        (
            "decompose:budget:1",
            Noted("decompose", "effort budget exhausted"),
        ),
        (
            "reduce:budget:1",
            Noted("reduce", "effort budget exhausted"),
        ),
        (
            "factor:budget:1",
            Noted("factor", "effort budget exhausted"),
        ),
        ("techmap:budget:1", Noted("techmap", "inert")),
        ("sta:budget:1", Noted("sta", "inert")),
        // Mismatch faults poison the stage's verify verdict: ladders
        // fall to their next rung; the single-rung Decompose ladder
        // fails typed; Sta has no boundary to poison.
        ("decompose:mismatch:1", Failed("broke output")),
        ("reduce:mismatch:1", Degraded("reduce", "skip")),
        ("factor:mismatch:1", Degraded("factor", "skip")),
        ("techmap:mismatch:1", Degraded("techmap", "greedy")),
        ("sta:mismatch:1", Noted("sta", "inert")),
        // Capacity faults starve the oracle (no boundary fits its tiny
        // node cap). Mid-ladder that fails the rung like any
        // other error; at a stage's *final* rung the boundary commits as
        // explicitly unverified instead of killing the flow.
        ("decompose:capacity:1", Unverified("decompose")),
        ("reduce:capacity:1", Degraded("reduce", "skip")),
        ("factor:capacity:1", Degraded("factor", "skip")),
        ("techmap:capacity:2", Unverified("techmap")),
        ("sta:capacity:1", Noted("sta", "inert")),
    ];

    for (fault, expect) in matrix {
        let (code, doc) = run_faulted(&dir, fault);
        let c = circuit(&doc);
        assert!(code.is_some(), "fault {fault}: killed by signal, not typed");
        match expect {
            Degraded(stage_name, rung) => {
                assert_eq!(code, Some(0), "fault {fault}: flow should complete");
                let s = stage(c, stage_name);
                assert_eq!(
                    s.get("degraded").and_then(Json::as_str),
                    Some(*rung),
                    "fault {fault}: wrong surviving rung"
                );
                assert!(
                    s.get("degradation_reason").and_then(Json::as_str).is_some(),
                    "fault {fault}: degradation not explained"
                );
                for other in c.get("stages").and_then(Json::as_arr).expect("stages") {
                    let name = other.get("stage").and_then(Json::as_str).unwrap_or("?");
                    let want = if name == "sta" || (name == *stage_name && *rung == "skip") {
                        None
                    } else {
                        Some(true)
                    };
                    assert_eq!(
                        other.get("verified").and_then(Json::as_bool),
                        want,
                        "fault {fault}: stage {name} verdict"
                    );
                }
            }
            Noted(stage_name, substr) => {
                assert_eq!(code, Some(0), "fault {fault}: flow should complete");
                let s = stage(c, stage_name);
                let reason = s
                    .get("degradation_reason")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("fault {fault}: no recorded reason"));
                assert!(
                    reason.contains(substr),
                    "fault {fault}: reason {reason:?} lacks {substr:?}"
                );
                assert_boundaries_green(c, fault);
            }
            Unverified(stage_name) => {
                assert_eq!(code, Some(0), "fault {fault}: flow should complete");
                let s = stage(c, stage_name);
                assert_eq!(
                    s.get("verified").and_then(Json::as_bool),
                    Some(false),
                    "fault {fault}: boundary should be explicitly unverified"
                );
                let reason = s
                    .get("degradation_reason")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("fault {fault}: no recorded reason"));
                assert!(
                    reason.contains("unverified"),
                    "fault {fault}: reason {reason:?} lacks \"unverified\""
                );
                for other in c.get("stages").and_then(Json::as_arr).expect("stages") {
                    if other.get("stage").and_then(Json::as_str) == Some(*stage_name) {
                        continue;
                    }
                    assert_ne!(
                        other.get("verified").and_then(Json::as_bool),
                        Some(false),
                        "fault {fault}: a sibling boundary went red"
                    );
                }
            }
            Failed(substr) => {
                assert_eq!(code, Some(1), "fault {fault}: expected typed failure");
                let err = c
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("fault {fault}: no error in slot"));
                assert!(
                    err.contains(substr),
                    "fault {fault}: error {err:?} lacks {substr:?}"
                );
            }
        }
    }
}

/// The Reduce fallback stays BDD-green on every builtin generator: with
/// Reduce panicking once per flow, all 11 circuits must still come out
/// clean (the `skip` rung hands each stage-1 hierarchy on unchanged, and
/// every later boundary verifies against it).
#[test]
fn degraded_reduce_stays_green_on_all_builtin_circuits() {
    let dir = std::env::temp_dir().join(format!("pd-fault-all-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out_path = dir.join("all.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pd"))
        .arg("flow")
        .arg("all")
        .arg("--out")
        .arg(&out_path)
        .env_remove("PD_SKIP_VERIFY")
        .env_remove("PD_BUDGET_DECOMPOSE")
        .env_remove("PD_BUDGET_REDUCE")
        .env_remove("PD_BUDGET_FACTOR")
        .env_remove("PD_NODE_CAP")
        .env("PD_FAULT", "reduce:panic:1")
        .output()
        .expect("spawn pd flow all");
    assert!(
        out.status.success(),
        "faulted flow all failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("11/11 circuits clean"),
        "not all circuits clean under a degraded Reduce:\n{stdout}"
    );
    let doc = Json::parse(&std::fs::read_to_string(&out_path).expect("stats written"))
        .expect("stats parse");
    for c in doc
        .get("circuits")
        .and_then(Json::as_arr)
        .expect("circuits")
    {
        let name = c.get("name").and_then(Json::as_str).unwrap_or("?");
        let s = stage(c, "reduce");
        assert_eq!(
            s.get("degraded").and_then(Json::as_str),
            Some("skip"),
            "{name}: reduce did not degrade"
        );
        assert_boundaries_green(c, name);
    }
}

/// A *crossed* effort budget is still deterministic: the same tight
/// `PD_BUDGET_REDUCE` yields bit-identical stage metrics (including
/// `effort_spent`) at `PD_THREADS=1` and `PD_THREADS=4`.
#[test]
fn budget_crossings_are_deterministic_across_thread_counts() {
    let dir = std::env::temp_dir().join(format!("pd-fault-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut fingerprints = Vec::new();
    for threads in ["1", "4"] {
        let out_path = dir.join(format!("det-t{threads}.json"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pd"))
            .arg("flow")
            .arg("maj7")
            .arg("--out")
            .arg(&out_path)
            .env_remove("PD_SKIP_VERIFY")
            .env_remove("PD_FAULT")
            .env_remove("PD_BUDGET_DECOMPOSE")
            .env_remove("PD_BUDGET_FACTOR")
            .env_remove("PD_NODE_CAP")
            .env("PD_BUDGET_REDUCE", "3")
            .env("PD_THREADS", threads)
            .output()
            .expect("spawn pd flow");
        assert!(
            out.status.success(),
            "budgeted flow failed at {threads} threads:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = Json::parse(&std::fs::read_to_string(&out_path).expect("stats written"))
            .expect("stats parse");
        let c = circuit(&doc);
        let fingerprint: Vec<String> = c
            .get("stages")
            .and_then(Json::as_arr)
            .expect("stages")
            .iter()
            .map(|s| {
                format!(
                    "{}:{:?}:{:?}:{:?}:{:?}:{:?}",
                    s.get("stage").and_then(Json::as_str).unwrap_or("?"),
                    s.get("literals").and_then(Json::as_num),
                    s.get("gates").and_then(Json::as_num),
                    s.get("cells").and_then(Json::as_num),
                    s.get("effort_spent").and_then(Json::as_num),
                    s.get("degradation_reason").and_then(Json::as_str),
                )
            })
            .collect();
        fingerprints.push(fingerprint);
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "budget crossing is thread-count dependent"
    );
}
