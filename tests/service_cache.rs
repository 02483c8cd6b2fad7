//! Integration tests of the synthesis-as-a-service layer: the
//! content-addressed stage cache (warm re-runs, prefix resume, one value
//! per key whatever the cache history) and the `pd serve` TCP job server.

use progressive_decomposition::flow::json::Json;
use progressive_decomposition::flow::{circuit_by_name, Flow, FlowConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

fn pd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pd"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pd-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `pd flow <circuits> --out <out>` with the stage cache rooted at
/// `cache`, returning the parsed stats document.
fn flow_with_cache(circuits: &str, cache: &Path, out: &Path) -> Json {
    let output = pd()
        .args(["flow", circuits, "--out", out.to_str().unwrap()])
        .env("PD_CACHE_DIR", cache)
        .output()
        .expect("run pd flow");
    assert!(
        output.status.success(),
        "pd flow failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(&std::fs::read_to_string(out).expect("stats written")).expect("valid stats")
}

fn circuits_of(stats: &Json) -> &[Json] {
    stats
        .get("circuits")
        .and_then(Json::as_arr)
        .expect("circuits array")
}

fn stage_metric(circuit: &Json, stage: &str, key: &str) -> Option<f64> {
    circuit
        .get("stages")?
        .as_arr()?
        .iter()
        .find(|s| s.get("stage").and_then(Json::as_str) == Some(stage))?
        .get(key)?
        .as_num()
}

const STAGES: [&str; 5] = ["decompose", "reduce", "factor", "techmap", "sta"];

#[test]
fn warm_rerun_serves_verified_stages_bit_identically() {
    let cache = temp_dir("warm");
    let cold = flow_with_cache("maj5,gray6", &cache, &cache.join("s1.json"));
    let warm = flow_with_cache("maj5,gray6", &cache, &cache.join("s2.json"));

    for (c, w) in circuits_of(&cold).iter().zip(circuits_of(&warm)) {
        let name = c.get("name").and_then(Json::as_str).unwrap();
        for (stage, doc, want) in STAGES.iter().flat_map(|s| [(s, c, "miss"), (s, w, "hit")]) {
            let cache_mark = doc
                .get("stages")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .find(|j| j.get("stage").and_then(Json::as_str) == Some(*stage))
                .and_then(|j| j.get("cache"))
                .and_then(Json::as_str);
            assert_eq!(cache_mark, Some(want), "{name}/{stage}");
        }
        // Served stages carry their original verify verdict forward.
        for stage in ["decompose", "reduce", "factor", "techmap"] {
            let s = w
                .get("stages")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .find(|j| j.get("stage").and_then(Json::as_str) == Some(stage))
                .unwrap();
            assert_eq!(s.get("verified").and_then(Json::as_bool), Some(true));
            assert_eq!(
                s.get("verified_from_cache").and_then(Json::as_bool),
                Some(true),
                "{name}/{stage}"
            );
        }
        // Bit-identical metrics between cold and warm.
        for stage in STAGES {
            for key in ["literals", "gates", "cells", "area_um2", "delay_ns"] {
                assert_eq!(
                    stage_metric(c, stage, key),
                    stage_metric(w, stage, key),
                    "{name}/{stage}/{key} drifted between cold and warm"
                );
            }
        }
        assert_eq!(
            c.get("cells").and_then(Json::as_num),
            w.get("cells").and_then(Json::as_num),
            "{name} mapped cells"
        );
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn prefix_resume_serves_cached_stages_then_computes() {
    let cache = temp_dir("prefix");
    let cfg = FlowConfig {
        cache_dir: Some(cache.clone()),
        ..FlowConfig::default()
    };
    let input = || circuit_by_name("maj5").unwrap();

    // First flow runs (and stores) only the first three stages.
    let mut head = Flow::new(input(), cfg.clone());
    for _ in 0..3 {
        head.run_next().expect("stage runs");
    }
    assert!(head
        .reports()
        .iter()
        .all(|r| r.cache.as_deref() == Some("miss")));
    drop(head);

    // Second flow resumes past the cached prefix: three hits, then live.
    let mut resumed = Flow::new(input(), cfg.clone());
    resumed.run_to_completion().expect("flow completes");
    let marks: Vec<_> = resumed
        .reports()
        .iter()
        .map(|r| r.cache.as_deref().unwrap().to_owned())
        .collect();
    assert_eq!(marks, ["hit", "hit", "hit", "miss", "miss"]);

    // Third flow serves everything.
    let mut warm = Flow::new(input(), cfg);
    let summary = warm.run_to_completion().expect("flow completes");
    assert!(warm
        .reports()
        .iter()
        .all(|r| r.cache.as_deref() == Some("hit")));
    assert_eq!(
        summary.cells,
        resumed.reports().iter().find_map(|r| r.cells).unwrap_or(0),
        "served result matches the computed one"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

/// The stage entries of a cache directory by file name
/// (`<hash>.<stage>`).
fn stage_entries(cache: &Path) -> BTreeMap<String, PathBuf> {
    std::fs::read_dir(cache)
        .expect("cache dir")
        .map(|entry| entry.expect("entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_owned();
            let (_, stage) = name.rsplit_once('.')?;
            STAGES.contains(&stage).then_some((name, path))
        })
        .collect()
}

/// A stored stage entry with its report's wall and verify times dropped:
/// everything else must be equal wherever one key was written.
fn entry_without_timings(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("read stage entry");
    let mut doc = Json::parse(&text).expect("stage entry is JSON");
    if let Json::Obj(fields) = &mut doc {
        for (_, value) in fields.iter_mut().filter(|(key, _)| key == "report") {
            if let Json::Obj(report) = value {
                report.retain(|(k, _)| k != "wall_ms" && k != "verify_ms");
            }
        }
    }
    doc
}

#[test]
fn stage_entries_do_not_depend_on_cache_history() {
    // Two cache directories filled by the same two circuits in opposite
    // orders, one process per run: a key written in both must hold the
    // same value, whichever circuit ran first.
    let out = temp_dir("history-out");
    let a = temp_dir("history-a");
    let b = temp_dir("history-b");
    for (dir, order) in [
        (&a, ["adder12", "comparator10"]),
        (&b, ["comparator10", "adder12"]),
    ] {
        for circuit in order {
            let tag = dir.file_name().unwrap().to_str().unwrap();
            flow_with_cache(circuit, dir, &out.join(format!("{tag}-{circuit}.json")));
        }
    }
    let (entries_a, entries_b) = (stage_entries(&a), stage_entries(&b));
    assert_eq!(entries_a.len(), 10, "two circuits, five stages each");
    assert_eq!(
        entries_a.keys().collect::<Vec<_>>(),
        entries_b.keys().collect::<Vec<_>>(),
        "both orders store the same keys"
    );
    for (key, path) in &entries_a {
        let (x, y) = (
            entry_without_timings(path),
            entry_without_timings(&entries_b[key]),
        );
        assert!(
            x == y,
            "{key} depends on the cache history:\n{}\nvs\n{}",
            x.get("report").map_or_else(String::new, Json::pretty),
            y.get("report").map_or_else(String::new, Json::pretty),
        );
    }
    // The directories hold stage entries and nothing else.
    for dir in [&a, &b] {
        let files = std::fs::read_dir(dir).expect("cache dir").count();
        assert_eq!(
            files,
            10,
            "{}: stray files beside the stage entries",
            dir.display()
        );
    }
    for dir in [out, a, b] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Spawns `pd serve` on an ephemeral port. Returns the child, the address
/// from its banner, and the rest of its stdout (kept open so the server
/// never writes into a closed pipe).
fn spawn_serve() -> (Child, String, Lines<BufReader<ChildStdout>>) {
    let mut child = pd()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pd serve");
    let mut lines = BufReader::new(child.stdout.take().expect("piped")).lines();
    let banner = lines.next().expect("banner line").expect("banner text");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .expect("address in banner")
        .to_owned();
    (child, addr, lines)
}

#[test]
fn serve_tcp_smoke() {
    let (mut child, addr, _stdout) = spawn_serve();

    let mut conn = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut request = |body: &str| -> Json {
        conn.write_all(format!("{body}\n").as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(&line).expect("valid response")
    };

    let r = request("{\"op\": \"submit\", \"spec\": {\"circuits\": [\"maj5\"]}}");
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
    let job = r.get("job").and_then(Json::as_num).unwrap() as u64;

    let stats = loop {
        let s = request(&format!("{{\"op\": \"status\", \"job\": {job}}}"));
        assert_eq!(s.get("ok").and_then(Json::as_bool), Some(true), "{s:?}");
        if s.get("state").and_then(Json::as_str) == Some("done") {
            break request(&format!("{{\"op\": \"result\", \"job\": {job}}}"));
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    let circuit = &stats
        .get("stats")
        .unwrap()
        .get("circuits")
        .unwrap()
        .as_arr()
        .unwrap()[0];
    assert_eq!(circuit.get("name").and_then(Json::as_str), Some("maj5"));
    assert!(circuit.get("error").is_none(), "{stats:?}");

    let r = request("{\"op\": \"shutdown\"}");
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    let status = child.wait().expect("server exits");
    assert!(status.success());
}

#[test]
fn serve_shutdown_reply_always_arrives() {
    // The server may only let its accept loop end — and the process exit
    // — once the `shutdown` reply is on the wire; otherwise exit can
    // swallow it and the client reads end of input.
    for cycle in 0..20 {
        let (mut child, addr, _stdout) = spawn_serve();
        let mut conn = TcpStream::connect(&addr).expect("connect");
        conn.write_all(b"{\"op\": \"shutdown\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(&conn).read_line(&mut line).unwrap();
        let r =
            Json::parse(&line).unwrap_or_else(|e| panic!("cycle {cycle}: {e:?} parsing {line:?}"));
        assert_eq!(
            r.get("ok").and_then(Json::as_bool),
            Some(true),
            "cycle {cycle}: {r:?}"
        );
        let status = child.wait().expect("server exits");
        assert!(status.success(), "cycle {cycle}: {status}");
    }
}
