//! `pdbench`: the benchmark's in-process helper, driven by `run.py`.
//!
//! ```text
//! pdbench flow (--circuit NAME | --spec-file PATH) --spawn-ns NS --vectors-seed S
//!              [--stepwise | --setup-only]
//! pdbench spec --list FILE            (lines: `circuit prefix out`)
//! pdbench check-store --cache-dir DIR --vectors-seed S SPEC_FILE...
//! ```
//!
//! `flow` is one cold circuit in a fresh process: it builds the spec,
//! times one flow call (or, with `--stepwise`, each `Flow::run_next`;
//! with `--setup-only` it stops where the flow call would start),
//! then checks the final gate netlist against the spec ANF on seeded
//! random vectors with this file's own evaluators, outside the timed
//! interval. `spec` writes generator specs as `pd` text files with every
//! input renamed by a prefix, so their content address is new while
//! their structure is not. `check-store` evaluates the TechMap netlists a
//! `pd serve` run stored for the given spec files the same way.
//!
//! `flow` and `check-store` print one JSON object per line on stdout.

use pd_anf::{Anf, VarPool};
use pd_flow::cache::StageCache;
use pd_flow::json::Json;
use pd_flow::{circuit_by_name, Flow, FlowConfig, FlowInput};
use pd_netlist::{Gate, Netlist};
use std::time::Instant;

/// 64-bit words of random vectors per check (64 vectors each).
const CHECK_WORDS: usize = 16;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("pdbench reads Linux clocks through a 64-bit `struct timespec`");

mod clock {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    /// The system-wide monotonic clock, the one Python's
    /// `time.monotonic_ns()` reads, so spawn-to-start spans cross
    /// processes.
    pub const MONOTONIC: i32 = 1;
    /// CPU time of every thread of this process, exited ones included.
    pub const PROCESS_CPU: i32 = 2;

    pub fn now_ns(clock_id: i32) -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux, checked by the `compile_error!` above)
        // and `clock_gettime` writes nothing outside it.
        let rc = unsafe { clock_gettime(clock_id, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("flow") => cmd_flow(&args[1..]),
        Some("spec") => cmd_spec(&args[1..]),
        Some("check-store") => cmd_check_store(&args[1..]),
        _ => Err("usage: pdbench (flow | spec | check-store) ...".to_owned()),
    };
    if let Err(e) = result {
        eprintln!("pdbench: {e}");
        std::process::exit(2);
    }
}

/// Value of `--key` in `args`.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn opt_u64(args: &[String], key: &str) -> Result<u64, String> {
    opt(args, key)
        .ok_or_else(|| format!("missing {key}"))?
        .parse()
        .map_err(|e| format!("{key}: {e}"))
}

fn print_line(doc: &Json) {
    println!("{}", doc.pretty().replace('\n', " "));
}

fn cmd_flow(args: &[String]) -> Result<(), String> {
    let spawn_ns = opt_u64(args, "--spawn-ns")?;
    let seed = opt_u64(args, "--vectors-seed")?;
    let stepwise = args.iter().any(|a| a == "--stepwise");

    let t_spec = Instant::now();
    let input = match (opt(args, "--circuit"), opt(args, "--spec-file")) {
        (Some(name), None) => circuit_by_name(name)?,
        (None, Some(path)) => pd_flow::spec::load_circuit(path)?,
        _ => return Err("flow needs exactly one of --circuit / --spec-file".into()),
    };
    let spec_ms = ms(t_spec);
    let spec_terms: usize = input.outputs.iter().map(|(_, e)| e.term_count()).sum();
    let cfg = FlowConfig::default();
    if cfg.cache_dir.is_some() || cfg.fault.is_some() {
        return Err("cold runs must not inherit PD_CACHE_DIR or PD_FAULT".into());
    }
    let spec = input.outputs.clone();

    // The timed flow call: from here to the mapped, timed netlist.
    let start_ns = clock::now_ns(clock::MONOTONIC);
    let setup_ms = start_ns.saturating_sub(spawn_ns) as f64 / 1e6;
    if args.iter().any(|a| a == "--setup-only") {
        print_line(&Json::obj(vec![("setup_ms", Json::from(setup_ms))]));
        return Ok(());
    }
    let cpu0 = clock::now_ns(clock::PROCESS_CPU);
    let t_flow = Instant::now();
    let mut flow = Flow::new(input, cfg);
    let mut spans = Vec::new();
    let mut error = None;
    if stepwise {
        while flow.next_stage().is_some() {
            let t = Instant::now();
            let step = flow.run_next().map(|_| ());
            spans.push(ms(t));
            if let Err(e) = step {
                error = Some(e.to_string());
                break;
            }
        }
    } else if let Err(e) = flow.run_to_completion() {
        error = Some(e.to_string());
    }
    let flow_ms = ms(t_flow);
    let cpu_ms = (clock::now_ns(clock::PROCESS_CPU) - cpu0) as f64 / 1e6;

    let mut fields = vec![
        ("name", Json::from(flow.name())),
        ("setup_ms", Json::from(setup_ms)),
        ("flow_ms", Json::from(flow_ms)),
        ("cpu_ms", Json::from(cpu_ms)),
        ("spec_ms", Json::from(spec_ms)),
        ("spec_terms", Json::from(spec_terms)),
        ("threads", Json::from(pd_par::max_threads())),
    ];
    let stages = flow
        .reports()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut doc = r.to_json();
            if let (Some(span), Json::Obj(f)) = (spans.get(i), &mut doc) {
                f.push(("span_ms".to_owned(), Json::from(*span)));
            }
            doc
        })
        .collect();
    fields.push(("stages", Json::Arr(stages)));
    match (&error, flow.netlist(), flow.sta()) {
        (None, Some(netlist), Some(sta)) => {
            fields.push(("cells", Json::from(sta.cell_count)));
            fields.push(("area_um2", Json::from(sta.area_um2)));
            fields.push(("delay_ns", Json::from(sta.delay_ns)));
            fields.push(("check", check(&spec, netlist, seed)));
        }
        _ => fields.push((
            "error",
            Json::from(
                error
                    .as_deref()
                    .unwrap_or("flow ended without a timed netlist"),
            ),
        )),
    }
    fields.push(("peak_rss_kb", Json::from(peak_rss_kb())));
    print_line(&Json::obj(fields));
    Ok(())
}

fn cmd_spec(args: &[String]) -> Result<(), String> {
    let list = opt(args, "--list").ok_or("missing --list")?;
    let text = std::fs::read_to_string(list).map_err(|e| format!("reading {list}: {e}"))?;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next(), f.next()) {
            (Some(name), Some(prefix), Some(out), None) => write_spec(name, prefix, out)?,
            _ => {
                return Err(format!(
                    "{list}: expected `circuit prefix out`, got {line:?}"
                ))
            }
        }
    }
    Ok(())
}

/// Writes generator `name`'s spec as a text file with every variable
/// renamed `<prefix><name>` (prefix `-` keeps the names). The parser
/// allocates variables in order of first appearance, so two prefixes give
/// the same structure under different content addresses.
fn write_spec(name: &str, prefix: &str, out: &str) -> Result<(), String> {
    let prefix = if prefix == "-" { "" } else { prefix };
    let FlowInput { pool, outputs, .. } = circuit_by_name(name)?;
    let mut renamed = VarPool::new();
    for v in pool.iter() {
        renamed.var_or_input(&format!("{prefix}{}", pool.name(v)));
    }
    let mut text = format!("# {name}, variables prefixed {prefix:?}\n");
    for (out_name, expr) in &outputs {
        text.push_str(&format!("{out_name} = {}\n", expr.display(&renamed)));
    }
    std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))
}

fn cmd_check_store(args: &[String]) -> Result<(), String> {
    let dir = opt(args, "--cache-dir").ok_or("missing --cache-dir")?;
    let seed = opt_u64(args, "--vectors-seed")?;
    // The stored key depends on the configuration the server ran with:
    // same environment, same `FlowConfig::default()`, cache dir set.
    let cfg = FlowConfig {
        cache_dir: Some(dir.into()),
        ..FlowConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            it.next();
            continue;
        }
        let input = pd_flow::spec::load_circuit(a)?;
        let stored = StageCache::open(dir.as_ref(), &input.pool, &input.outputs, &cfg)
            .and_then(|c| Some((c.load(3)?, c.load(4)?)));
        let doc = match stored {
            Some((techmap, sta)) => match (techmap.netlist, sta.sta) {
                (Some(netlist), Some(sta)) => Json::obj(vec![
                    ("file", Json::from(a.as_str())),
                    ("cells", Json::from(sta.cell_count)),
                    ("check", check(&input.outputs, &netlist, seed)),
                ]),
                _ => missing(a, "stored stages lack a netlist or timing report"),
            },
            None => missing(a, "no stored TechMap/STA entry"),
        };
        print_line(&doc);
    }
    let library = pd_factor::library::load_library(dir.as_ref());
    print_line(&Json::obj(vec![(
        "library_entries",
        Json::from(library.len()),
    )]));
    Ok(())
}

fn missing(file: &str, why: &str) -> Json {
    Json::obj(vec![("file", Json::from(file)), ("error", Json::from(why))])
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` of this process: its peak resident set.
fn peak_rss_kb() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// SplitMix64: the vector generator, seeded per (run seed, variable).
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Compares `netlist` with `spec` on `64 * CHECK_WORDS` seeded random
/// input vectors, evaluating both with this file's own bit-parallel
/// evaluators (not `pd_netlist::sim`, `Anf::eval64` or the BDD oracle).
fn check(spec: &[(String, Anf)], netlist: &Netlist, seed: u64) -> Json {
    let mut mismatch = None;
    for word in 0..CHECK_WORDS {
        let value = |var: usize| splitmix(seed ^ splitmix((var as u64) << 8 | word as u64));
        let got = eval_netlist(netlist, &value);
        for (name, expr) in spec {
            let want = eval_anf(expr, &value);
            let ok = netlist
                .outputs()
                .iter()
                .position(|(n, _)| n == name)
                .and_then(|i| got.as_ref().map(|g| g[i]))
                == Some(want);
            if !ok && mismatch.is_none() {
                mismatch = Some(format!("output {name} (vector word {word})"));
            }
        }
    }
    let mut fields = vec![
        ("ok", Json::from(mismatch.is_none())),
        ("vectors", Json::from(64 * CHECK_WORDS)),
    ];
    if let Some(m) = mismatch {
        fields.push(("mismatch", Json::from(m.as_str())));
    }
    Json::obj(fields)
}

/// Sum of products, 64 vectors per word.
fn eval_anf(expr: &Anf, value: &impl Fn(usize) -> u64) -> u64 {
    expr.terms().fold(0, |acc, term| {
        acc ^ term.vars().fold(!0u64, |w, v| w & value(v.index()))
    })
}

/// Output words in `netlist.outputs()` order; `None` if a node reads a
/// later node (the netlist must be topologically ordered).
fn eval_netlist(netlist: &Netlist, value: &impl Fn(usize) -> u64) -> Option<Vec<u64>> {
    let mut w: Vec<u64> = Vec::with_capacity(netlist.len());
    for (id, gate) in netlist.iter() {
        let at = |n: pd_netlist::NodeId| w.get(n.index()).copied();
        let bit = match gate {
            Gate::Const(b) => {
                if b {
                    !0
                } else {
                    0
                }
            }
            Gate::Input(v) => value(v.index()),
            Gate::Not(a) => !at(a)?,
            Gate::And(a, b) => at(a)? & at(b)?,
            Gate::Or(a, b) => at(a)? | at(b)?,
            Gate::Xor(a, b) => at(a)? ^ at(b)?,
            Gate::Mux { sel, lo, hi } => {
                let s = at(sel)?;
                (s & at(hi)?) | (!s & at(lo)?)
            }
            Gate::Maj(a, b, c) => {
                let (a, b, c) = (at(a)?, at(b)?, at(c)?);
                (a & b) | (b & c) | (a & c)
            }
        };
        debug_assert_eq!(id.index(), w.len());
        w.push(bit);
    }
    netlist
        .outputs()
        .iter()
        .map(|(_, n)| w.get(n.index()).copied())
        .collect()
}
