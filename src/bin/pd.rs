//! `pd` — the Progressive Decomposition command-line tool.
//!
//! Reads a circuit specification in a simple text format, runs the
//! heuristic, verifies the result, and reports the hierarchy plus
//! area/delay against direct synthesis. This is the role the paper's
//! Maple front-end played.
//!
//! ```text
//! USAGE:
//!   pd [OPTIONS] <SPEC-FILE | - >
//!   pd flow [FLOW-OPTIONS] <FLOW-SPEC.json | - | NAMES>
//!   pd serve [--addr HOST:PORT] [--workers N]
//!
//! OPTIONS:
//!   -k <N>          group size (default 4)
//!   --bare          disable all basis optimisations
//!   --trace         print the Fig. 6-style execution trace
//!   --verilog <F>   write the hierarchical netlist as Verilog to F
//!   --dot <F>       write the hierarchical netlist as Graphviz DOT to F
//!   --flat          also synthesise the flat expression for comparison
//!   --factor        also run the algebraic-factorisation baseline
//!                   (kernel extraction on the minterm SOP; <= 16 inputs)
//!   --exact         verify the emitted netlist with BDDs (exact at any
//!                   width the diagrams can hold) instead of simulation only
//!   --zdd           report the ZDD (ring) size of the specification
//!
//! SPEC FORMAT (one output per line; '#' comments):
//!   <name> = <expr>
//! where <expr> uses '^' (XOR), '*' (AND), '0', '1', parentheses and
//! identifiers. Example:
//!
//!   # full adder
//!   sum   = a ^ b ^ cin
//!   carry = a*b ^ b*cin ^ cin*a
//!
//! Files ending in `.v` are instead read as structural Verilog (the
//! subset `~ & ^ | ?:` that `pd` itself emits); the gate network is
//! converted back to Reed–Muller form and re-architected.
//!
//! FLOW SUBCOMMAND: runs the full five-stage pipeline
//! (decompose → reduce → factor → techmap → STA) with BDD differential
//! verification at every stage boundary (see `pd_flow`):
//!
//!   pd flow maj15,counter12          named pd-arith generators
//!   pd flow all                      one instance of every generator
//!   pd flow spec.json                a flow-spec document (see pd_flow::spec)
//!   echo '{...}' | pd flow -         the same, from stdin
//!
//! FLOW-OPTIONS:
//!   --out F        write the per-stage JSON stats to F
//!   --no-verify    skip the BDD oracle (benchmarking; same as PD_SKIP_VERIFY=1)
//!   -k <N>         group size override
//!
//! Robustness knobs (environment): `PD_BUDGET_DECOMPOSE` /
//! `PD_BUDGET_REDUCE` / `PD_BUDGET_FACTOR` bound per-stage effort with
//! deterministic trial counters; `PD_NODE_CAP` bounds the BDD oracle's
//! node table — each boundary is one capped check, and one that
//! overflows at a stage's final rung is reported as explicitly
//! unverified ("NO" in the table, `"verified": false` in the stats)
//! instead of killing the flow; and `PD_FAULT=<stage>:<mode>[:<count>]` (modes:
//! panic, budget, mismatch, capacity) injects a deterministic fault to
//! exercise each stage's degradation ladder — degradations are reported
//! under the per-stage table and in the JSON stats. The ladders are the
//! only recovery layer: Reduce and Factor fall back to `skip` (the
//! previous stage's netlist handed on unchanged) and TechMap to the
//! greedy mapper only when the stage's algorithm fails, e.g. under
//! `PD_FAULT=reduce:panic:1` or `PD_FAULT=factor:panic:1`.
//!
//! CACHING: set `PD_CACHE_DIR=<dir>` to enable the content-addressed
//! stage cache (see `pd_flow::cache`). Re-running an identical spec
//! serves every stage from the store — already BDD-verified, marked
//! `"cache": "hit"` / `"verified_from_cache": true` in the stats — and
//! a changed spec resumes past its unchanged prefix. A cache directory
//! never changes a result: each key holds the one value the flow
//! computes for it. A run with `PD_FAULT` armed never touches the
//! cache.
//!
//! SERVE SUBCOMMAND: a JSON-lines-over-TCP job server around the same
//! pipeline (see `pd_flow::serve` for the protocol):
//!
//!   pd serve                         listen on 127.0.0.1:7878
//!   pd serve --addr 127.0.0.1:0      ephemeral port (printed at startup)
//!   pd serve --workers 8             worker shards (default PD_WORKERS,
//!                                    else the machine's parallelism)
//!
//! Submitted jobs reuse the flow-spec JSON schema verbatim; each job's
//! circuits run FIFO on one worker shard, so a panicking job degrades
//! to per-slot errors without disturbing concurrent jobs.
//!
//! ENVIRONMENT (all ten PD_* knobs):
//!   PD_THREADS=N           worker threads (default: available cores);
//!                          results are bit-identical at any setting
//!   PD_WORKERS=N           pd serve worker shards
//!   PD_CACHE_DIR=DIR       content-addressed stage cache (see above)
//!   PD_SKIP_VERIFY=1       skip the BDD oracle (same as --no-verify)
//!   PD_NODE_CAP=N          BDD oracle node-table cap
//!   PD_BUDGET_DECOMPOSE=N  per-stage effort budgets (trial counts)
//!   PD_BUDGET_REDUCE=N
//!   PD_BUDGET_FACTOR=N
//!   PD_FAULT=SPEC          deterministic fault injection (see above)
//!   PD_TIMING=1            per-phase wall times on stderr
//! ```

use progressive_decomposition::prelude::*;
use std::io::Read as _;
use std::process::ExitCode;

struct Options {
    k: usize,
    bare: bool,
    trace: bool,
    verilog: Option<String>,
    dot: Option<String>,
    flat: bool,
    factor: bool,
    exact: bool,
    zdd: bool,
    input: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        k: 4,
        bare: false,
        trace: false,
        verilog: None,
        dot: None,
        flat: false,
        factor: false,
        exact: false,
        zdd: false,
        input: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-k" => {
                let v = args.next().ok_or("-k needs a value")?;
                opts.k = v.parse().map_err(|_| format!("bad group size {v:?}"))?;
                if opts.k == 0 {
                    return Err("group size must be positive".into());
                }
            }
            "--bare" => opts.bare = true,
            "--trace" => opts.trace = true,
            "--flat" => opts.flat = true,
            "--factor" => opts.factor = true,
            "--exact" => opts.exact = true,
            "--zdd" => opts.zdd = true,
            "--verilog" => opts.verilog = Some(args.next().ok_or("--verilog needs a path")?),
            "--dot" => opts.dot = Some(args.next().ok_or("--dot needs a path")?),
            "-h" | "--help" => {
                return Err("usage: pd [-k N] [--bare] [--trace] [--flat] [--factor] \
                            [--exact] [--zdd] [--verilog F] [--dot F] <spec-file | ->"
                    .into())
            }
            other if opts.input.is_none() => opts.input = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if opts.input.is_none() {
        return Err("missing spec file (use '-' for stdin); try --help".into());
    }
    Ok(opts)
}

/// Reads a specification from a path or stdin, delegating to the shared
/// loaders in `pd_flow::spec` (text format, or structural Verilog for
/// `.v` files) so `pd <file>` and `pd flow <file>` parse identically.
fn read_spec(path: &str, pool: &mut VarPool) -> Result<Vec<(String, Anf)>, String> {
    use progressive_decomposition::flow::spec::{load_circuit, parse_text_spec};
    if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("reading stdin: {e}"))?;
        return parse_text_spec(&s, pool);
    }
    let input = load_circuit(path)?;
    *pool = input.pool;
    Ok(input.outputs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("flow") => run_flow(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        _ => run(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `pd flow` subcommand: resolve circuits, run the batch pipeline,
/// print per-stage tables, optionally write the JSON stats artefact.
fn run_flow(args: &[String]) -> Result<(), String> {
    use progressive_decomposition::flow::{
        batch_to_json, run_batch, FlowConfig, FlowSpec, StageReport,
    };
    let mut out_path: Option<String> = None;
    let mut no_verify = false;
    let mut group_size: Option<usize> = None;
    let mut target: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out_path = Some(it.next().ok_or("--out needs a path")?.clone());
            }
            "--no-verify" => no_verify = true,
            "-k" => {
                let v = it.next().ok_or("-k needs a value")?;
                let k = v.parse().map_err(|_| format!("bad group size {v:?}"))?;
                if k == 0 {
                    return Err("group size must be positive".into());
                }
                group_size = Some(k);
            }
            "-h" | "--help" => {
                return Err(
                    "usage: pd flow [--out F] [--no-verify] [-k N] <flow-spec.json | - | NAMES>"
                        .into(),
                )
            }
            other if target.is_none() => target = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let target = target.ok_or("missing flow target (spec.json, '-', or circuit names)")?;

    // A JSON document (file or stdin) configures everything; a bare name
    // list is the quick form.
    let (inputs, mut cfg, spec_out) = if target == "-" || target.ends_with(".json") {
        let text = if target == "-" {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|e| format!("reading stdin: {e}"))?;
            s
        } else {
            std::fs::read_to_string(&target).map_err(|e| format!("reading {target}: {e}"))?
        };
        let spec = FlowSpec::parse(&text).map_err(|e| e.to_string())?;
        for w in &spec.warnings {
            eprintln!("pd flow: warning: {w}");
        }
        (spec.resolve()?, spec.config, spec.out)
    } else {
        let mut inputs = Vec::new();
        for name in target.split(',').filter(|s| !s.is_empty()) {
            inputs.extend(progressive_decomposition::flow::spec::resolve_circuit(
                name,
            )?);
        }
        if inputs.is_empty() {
            return Err("no circuits named".into());
        }
        (inputs, FlowConfig::default(), None)
    };
    if no_verify {
        cfg.verify = false;
    }
    if let Some(k) = group_size {
        cfg.pd.group_size = k;
    }
    let out_path = out_path.or(spec_out);

    println!(
        "pd flow: {} circuit(s), verification {}, {} worker thread(s)",
        inputs.len(),
        if cfg.verify { "on" } else { "off" },
        pd_par::max_threads(),
    );
    if let Some(dir) = &cfg.cache_dir {
        println!("pd flow: stage cache at {}", dir.display());
    }
    let t0 = std::time::Instant::now();
    let outcomes = run_batch(inputs, &cfg);
    let elapsed = t0.elapsed();
    if cfg.cache_dir.is_some() {
        let (hits, stages): (usize, usize) = outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .flat_map(|s| s.stages.iter())
            .fold((0, 0), |(h, n), s| {
                (h + usize::from(s.cache.as_deref() == Some("hit")), n + 1)
            });
        println!("pd flow: stage cache served {hits}/{stages} stage(s)");
    }

    let fmt_opt_usize = |o: Option<usize>| o.map_or(String::from("-"), |v| v.to_string());
    let mut failures = 0usize;
    for o in &outcomes {
        match &o.result {
            Ok(summary) => {
                println!(
                    "\ncircuit {}: {} inputs, {} spec literals",
                    summary.name, summary.inputs, summary.spec_literals
                );
                println!(
                    "  {:<10} {:>10} {:>10} {:>4} {:>9} {:>7} {:>7} {:>10} {:>8}",
                    "stage",
                    "wall ms",
                    "verify ms",
                    "ok",
                    "literals",
                    "gates",
                    "cells",
                    "area",
                    "delay"
                );
                for s in &summary.stages {
                    let StageReport {
                        stage,
                        wall_ms,
                        verify_ms,
                        verified,
                        literals,
                        gates,
                        cells,
                        area_um2,
                        delay_ns,
                        ..
                    } = s;
                    println!(
                        "  {:<10} {:>10.3} {:>10.3} {:>4} {:>9} {:>7} {:>7} {:>10} {:>8}",
                        stage.name(),
                        wall_ms,
                        verify_ms,
                        match verified {
                            Some(true) => "yes",
                            Some(false) => "NO",
                            None => "-",
                        },
                        fmt_opt_usize(*literals),
                        fmt_opt_usize(*gates),
                        fmt_opt_usize(*cells),
                        area_um2.map_or(String::from("-"), |v| format!("{v:.1}µm²")),
                        delay_ns.map_or(String::from("-"), |v| format!("{v:.2}ns")),
                    );
                    if s.degraded.is_some() || s.degradation_reason.is_some() {
                        println!(
                            "  {:<10} ! degraded to {} ({})",
                            "",
                            s.degraded.as_deref().unwrap_or("<same rung>"),
                            s.degradation_reason
                                .as_deref()
                                .unwrap_or("no reason recorded"),
                        );
                    }
                }
            }
            Err(e) => {
                failures += 1;
                println!("\ncircuit {}: FAILED — {e}", o.name);
            }
        }
    }
    if let Some(path) = &out_path {
        let doc = batch_to_json(&outcomes, &cfg).pretty();
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nwrote flow stats to {path}");
    }
    println!(
        "\nflow finished in {elapsed:?}: {}/{} circuits clean",
        outcomes.len() - failures,
        outcomes.len()
    );
    if failures > 0 {
        return Err(format!("{failures} circuit(s) failed the flow"));
    }
    Ok(())
}

/// The `pd serve` subcommand: bind the TCP job server and run its accept
/// loop until a `shutdown` request (see `pd_flow::serve`).
fn run_serve(args: &[String]) -> Result<(), String> {
    use progressive_decomposition::flow::serve::{env_workers, Server};
    let mut addr = String::from("127.0.0.1:7878");
    let mut workers = env_workers();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--workers" => {
                let v = it.next().ok_or("--workers needs a count")?;
                workers = v.parse().map_err(|_| format!("bad worker count {v:?}"))?;
                if workers == 0 {
                    return Err("worker count must be positive".into());
                }
            }
            "-h" | "--help" => {
                return Err("usage: pd serve [--addr HOST:PORT] [--workers N]".into())
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let server =
        Server::bind(addr.as_str(), workers).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "pd serve: listening on {bound} with {} worker shard(s)",
        server.workers()
    );
    if let Some(dir) = std::env::var_os("PD_CACHE_DIR") {
        println!(
            "pd serve: stage cache at {}",
            std::path::Path::new(&dir).display()
        );
    }
    server.run().map_err(|e| e.to_string())
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let mut pool = VarPool::new();
    let spec = read_spec(opts.input.as_deref().expect("validated"), &mut pool)?;
    let total_terms: usize = spec.iter().map(|(_, e)| e.term_count()).sum();
    println!(
        "{} output(s), {} variables, {} Reed–Muller terms",
        spec.len(),
        pool.len(),
        total_terms
    );

    let mut cfg = PdConfig::default().with_group_size(opts.k);
    if opts.bare {
        cfg = cfg.bare();
    }
    let t0 = std::time::Instant::now();
    let d = ProgressiveDecomposer::new(cfg).decompose(pool, spec.clone());
    println!(
        "decomposed in {:?} ({} iterations, {} blocks, {} leaders)",
        t0.elapsed(),
        d.iterations,
        d.blocks.len(),
        d.leader_count()
    );
    match d.check_equivalence(256, 0xC0DE) {
        None => println!("verification: OK (hierarchy ≡ specification)"),
        Some(m) => return Err(format!("verification FAILED: {m}")),
    }
    if opts.trace {
        println!("\n=== execution trace ===");
        print!("{}", render_trace(&d));
    }
    println!("\n=== hierarchy ===\n{}", d.hierarchy_report());

    let lib = CellLibrary::umc130();
    let nl = d.to_netlist();
    println!("PD implementation : {}", report(&nl, &lib));
    if opts.flat {
        let flat = synthesize_outputs(&spec);
        println!("flat synthesis    : {}", report(&flat, &lib));
    }
    if opts.exact {
        let order = interleaved_order(&d.pool);
        match progressive_decomposition::bdd::verify::check_netlist_vs_anf(&nl, &spec, &order) {
            Ok(None) => println!("exact (BDD)       : netlist ≡ specification ✓"),
            Ok(Some(m)) => {
                return Err(format!(
                    "exact (BDD) verification FAILED on output {:?}",
                    m.output
                ))
            }
            Err(e) => println!("exact (BDD)       : skipped ({e})"),
        }
    }
    if opts.factor {
        println!("{}", factor_baseline(&d.pool, &spec, &lib)?);
    }
    if opts.zdd {
        let mut zdd = Zdd::new();
        let roots: Vec<_> = spec.iter().map(|(_, e)| zdd.from_anf(e)).collect();
        let terms: u128 = roots.iter().map(|&r| zdd.term_count(r)).sum();
        println!(
            "ZDD (ring) form   : {} nodes for {} explicit Reed–Muller terms",
            zdd.node_count_many(&roots),
            terms
        );
    }
    if let Some(path) = &opts.verilog {
        let v = progressive_decomposition::netlist::export::to_verilog(&nl, &d.pool, "pd_top");
        std::fs::write(path, v).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote Verilog to {path}");
    }
    if let Some(path) = &opts.dot {
        let g = progressive_decomposition::netlist::export::to_dot(&nl, &d.pool, "pd_top");
        std::fs::write(path, g).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote DOT to {path}");
    }
    Ok(())
}

/// Runs kernel extraction on the minterm SOP of the specification — what
/// a conventional multi-level flow would do with the flat description.
fn factor_baseline(
    pool: &VarPool,
    spec: &[(String, Anf)],
    lib: &CellLibrary,
) -> Result<String, String> {
    use progressive_decomposition::anf::TruthTable;
    use progressive_decomposition::netlist::{Cube, Sop};
    let inputs: Vec<Var> = pool
        .iter()
        .filter(|&v| matches!(pool.kind(v), VarKind::Input { .. }))
        .collect();
    if inputs.len() > 16 {
        return Err(format!(
            "--factor needs ≤ 16 inputs (got {}): the minterm SOP would not fit",
            inputs.len()
        ));
    }
    let sops: Vec<(String, Sop)> = spec
        .iter()
        .map(|(name, expr)| {
            let tt = TruthTable::from_anf(expr, &inputs);
            let cubes = (0..tt.len())
                .filter(|&i| tt.get(i))
                .map(|i| {
                    Cube(
                        inputs
                            .iter()
                            .enumerate()
                            .map(|(j, &v)| (v, i >> j & 1 == 1))
                            .collect(),
                    )
                })
                .collect();
            (name.clone(), Sop(cubes))
        })
        .collect();
    let mut fx_pool = pool.clone();
    let mut network = FactorNetwork::from_sops(&sops);
    let before = network.literal_count();
    let stats = network.extract(&mut fx_pool, &ExtractConfig::default());
    let fx_nl = network.synthesize();
    match progressive_decomposition::netlist::sim::check_equiv_anf(&fx_nl, spec, 64, 0xFAC7) {
        None => {}
        Some(m) => return Err(format!("factorisation baseline is WRONG: {m:?}")),
    }
    Ok(format!(
        "kernel extraction : {} (SOP {} → {} literals, {} divisors)",
        report(&fx_nl, lib),
        before,
        stats.literals_after,
        stats.rounds
    ))
}

fn render_trace(d: &Decomposition) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for ev in &d.trace {
        match ev {
            TraceEvent::IterationStart {
                iteration,
                group,
                literals,
            } => {
                let names: Vec<&str> = group.iter().map(|&v| d.pool.name(v)).collect();
                let _ = writeln!(
                    out,
                    "iteration {iteration}: group {{{}}} ({literals} literals)",
                    names.join(", ")
                );
            }
            TraceEvent::IdentityFound(e) => {
                let _ = writeln!(out, "  identity {} = 0", e.display(&d.pool));
            }
            TraceEvent::Substitution(v, e) => {
                let _ = writeln!(out, "  subst {} := {}", d.pool.name(*v), e.display(&d.pool));
            }
            TraceEvent::BasisFinal(basis, _) => {
                for (v, e) in basis {
                    let _ = writeln!(out, "  leader {} = {}", d.pool.name(*v), e.display(&d.pool));
                }
            }
            _ => {}
        }
    }
    out
}
