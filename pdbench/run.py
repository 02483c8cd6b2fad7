#!/usr/bin/env python3
"""Cold, layer-isolating benchmark of the five-stage flow and `pd serve`.

Run from the repository root:

    python3 pdbench/run.py --workload cold-core --seed 1 --seconds 20 --trace 0

It builds `pd` and the `pdbench` helper (release, into $CARGO_TARGET_DIR,
default `.bench_build`), runs one workload cold, checks every output, prints
every metric with its unit and sample count, and ends with one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics; `--trace 1` drives each flow stage by stage, writes a
Chrome trace-event file under `.bench_run/`, and reports the per-layer
metrics. Workloads, metrics and predictions are described in
`pdbench/README.md`.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"

# Batch workloads: one fresh process per circuit, run one after another.
BATCH = {
    "cold-core": ["maj15", "maj13", "counter12", "lzd12", "gray16"],
    "cold-oracle": ["three8", "three7", "comparator10"],
    "cold-factor": ["adder12", "cla12", "lod16"],
}
WORKLOADS = list(BATCH) + ["serve-cache"]

# serve-cache draws its jobs from these generators, written as text specs.
SERVE_POOL = [
    "gray10", "lod8", "lod12", "maj7", "maj9", "counter8", "counter10",
    "lzd8", "three4", "adder8", "cla8", "mult3",
]
# Open-loop arrivals/s: half the closed-loop capacity the 2-core host
# reached in its slow periods (18 jobs/s), a quarter of its usual (37/s).
OPEN_RATE = 10.0
MIN_OPEN_JOBS = 200  # p95 latency then has 10 samples beyond it
CLOSED_ROUNDS = 8  # closed-loop rounds, each 1 fresh job per family + as many repeats
LATENCY_LIMIT_MS = 3000.0  # a job slower than this counts as missed
REPEAT_MIN_AGE_S = 2.0  # a repeat re-sends a job due at least this long before
# setup_s is a few ms, small next to bursts of host load: sample it at
# several points of a run, so one burst moves few of the samples.
SETUP_SPAWNS = 8  # server spawns timed at each of 12 points of a serve run (~4 ms each)
SETUP_ROUNDS = 2  # set-up-only rounds of a batch suite after each pass
POLL_S = 0.005  # client status-poll interval: shorter polls load the 2 cores the server needs
CHILD_TIMEOUT_S = 90

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "cells": "count",
    "area_um2": "um2",
    "delay_ns": "ns_sta",
}

STAGES = ["decompose", "reduce", "factor", "techmap", "sta"]
PER_LAYER = {
    "arith.spec_ms": "ms", "arith.spec_terms": "count",
    "core.decompose_ms": "ms", "core.decompose_trials": "count",
    "core.decompose_literals": "count",
    "core.reduce_ms": "ms", "core.reduce_trials": "count",
    "core.reduce_literals": "count", "core.reduce_arbitrated": "ratio",
    "core.arbitration_cache_hits": "count",
    "factor.ms": "ms", "factor.trials": "count", "factor.literals": "count",
    "factor.shared_divisors": "count",
    "techmap.ms": "ms", "sta.ms": "ms", "techmap.cells": "count",
    "oracle.ms": "ms", "oracle.spec_ms": "ms", "oracle.peak_nodes": "count",
    "oracle.reorders": "count", "oracle.unverified": "count",
    **{f"flow.{s}.span_ms": "ms" for s in STAGES},
    "flow.overhead_ms": "ms", "flow.degraded": "count",
    "share.core": "ratio", "share.reduce": "ratio", "share.oracle": "ratio",
    "share.factor": "ratio",
    "par.cpu_util": "ratio",
    "trace.overhead_s": "s",
    "serve.latency_p50_ms": "ms", "serve.latency_p95_ms": "ms",
    "serve.capacity_jobs_per_s": "1/s",
    "serve.submit_ms_p50": "ms", "serve.wait_ms_p50": "ms",
    "serve.wait_ms_p95": "ms", "serve.backlog_max": "count",
    "serve.polls_per_job": "count",
    "cache.hit_ratio": "ratio", "cache.hit_job_ms_p50": "ms",
    "cache.miss_job_ms_p50": "ms",
    "cache.store_mb": "MB", "cache.library_entries": "count",
    "loadgen.lag_ms_p95": "ms",
}
# Layers only serve-cache goes through.
SERVE_LAYERS = [k for k in PER_LAYER if k.split(".")[0] in ("serve", "cache", "loadgen")]


def die(msg):
    print(f"pdbench: {msg}", file=sys.stderr)
    sys.exit(2)


def now():
    return time.monotonic_ns()


# ---------------------------------------------------------------- build ---

def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        die(f"{ROOT} holds no pd workspace (Cargo.toml, crates/) to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "pd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "pdbench" / "Cargo.toml")],
    ):
        try:
            rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        except OSError as e:
            die(f"cannot run cargo: {e}")
        if rc != 0:
            die(f"build failed: {' '.join(cmd)}")
    return target / "release" / "pd", target / "release" / "pdbench"


def program_env():
    """The program's environment: the caller's, minus the cache and fault
    knobs (runs are cold), with PD_THREADS defaulting to the core count."""
    env = dict(os.environ)
    env.pop("PD_CACHE_DIR", None)
    env.pop("PD_FAULT", None)
    env.setdefault("PD_THREADS", str(os.cpu_count() or 1))
    passed = {k: v for k, v in sorted(env.items()) if k.startswith("PD_")}
    return env, passed


@functools.cache
def source_digest():
    """A digest of every source file that is built. It keys the QoR pin, so
    edits get a key of their own whether or not they are committed."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for d in ("src", "crates", "pdbench/src"):
        files += (ROOT / d).rglob("*")
    files += [ROOT / "pdbench" / "Cargo.toml", ROOT / "pdbench" / "Cargo.lock"]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD, for the run record only: it does not show uncommitted edits."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, text=True, capture_output=True, timeout=10)
        top, _, rev = out.stdout.partition("\n")
        if out.returncode == 0 and Path(top).resolve() == ROOT:
            return rev.strip()
    except OSError:
        pass
    return "none"


def print_record(args, passed, extra):
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                               text=True, timeout=10).stdout.strip()
    except OSError:
        rustc = "unknown"
    print(f"# pdbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# host cores={os.cpu_count()} {extra}")
    print(f"# git rev={git_rev()} sources sha256={source_digest()} "
          f"rustc={rustc!r} profile=release (lto=thin, codegen-units=4)")
    print(f"# program env: {' '.join(f'{k}={v}' for k, v in passed.items())}")


# ---------------------------------------------------------- statistics ---

def pct(values, q):
    """Nearest-rank q-quantile, its sample count and how many samples lie
    beyond it. Percentiles are only honest with >= 10 beyond."""
    s = sorted(values)
    if not s:
        return 0.0, 0, 0
    i = max(0, math.ceil(q * len(s)) - 1)
    return s[i], len(s), len(s) - i - 1


def honest(values, q, label):
    v, n, beyond = pct(values, q)
    if beyond < 10:
        print(f"  ! {label} p{q * 100:g}: only {beyond} of {n} samples lie "
              "beyond it", file=sys.stderr)
    return v, n


def median(values):
    return statistics.median(values) if values else 0.0


def show(name, value, unit, n):
    print(f"  {name:<28} {value:>14.6g} {unit:<7} n={n}")


# --------------------------------------------------------------- batch ---

def run_child(helper, env, vseed, mode=None, circuit=None, spec_file=None):
    """One cold flow in a fresh process (`mode`: None, "--stepwise" or
    "--setup-only"); returns (record or None, spawn_ns, exit_ns)."""
    cmd = [str(helper), "flow", "--vectors-seed", str(vseed)]
    cmd += ["--circuit", circuit] if circuit else ["--spec-file", str(spec_file)]
    if mode:
        cmd.append(mode)
    spawn = now()
    cmd += ["--spawn-ns", str(spawn)]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=env, text=True)
    try:
        out, err = p.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        print(f"  ! {circuit or spec_file}: timed out", file=sys.stderr)
        return None, spawn, now()
    end = now()
    if p.returncode != 0 or not out.strip():
        print(f"  ! {circuit or spec_file}: exit {p.returncode}: {err.strip()}",
              file=sys.stderr)
        return None, spawn, end
    return json.loads(out.strip().splitlines()[-1]), spawn, end


def finished(rec):
    """A clean finish whose output passed the check: its times count."""
    return (rec is not None and "error" not in rec and len(rec["stages"]) == 5
            and rec["check"]["ok"])


def verified(stages):
    """Every checked boundary (all but STA, which only reports) verified."""
    return all(s.get("verified") is True for s in stages if s["stage"] != "sta")


def cold_violations(rec):
    """Anything a warm cache or injected fault would leave in a report."""
    bad = []
    for s in rec["stages"] if rec else []:
        if s.get("cache") is not None:
            bad.append(f"{rec['name']}/{s['stage']}: cache {s['cache']}")
        if s.get("arbitration_cache_hits", 0) > 0:
            bad.append(f"{rec['name']}/{s['stage']}: arbitration cache hit")
    return bad


def stage(rec, name):
    return next((s for s in rec["stages"] if s["stage"] == name), {})


def layer_sums(recs, cpu_s, wall_s):
    """Per-layer metrics summed over completed flow records."""
    m = {k: 0.0 for k in PER_LAYER}
    if not recs:
        return m
    for r in recs:
        d, rd, f = stage(r, "decompose"), stage(r, "reduce"), stage(r, "factor")
        tm, st = stage(r, "techmap"), stage(r, "sta")
        m["arith.spec_ms"] += r.get("spec_ms", 0.0)
        m["arith.spec_terms"] += r.get("spec_terms", 0)
        m["core.decompose_ms"] += d.get("wall_ms", 0.0)
        m["core.decompose_trials"] += d.get("effort_spent", 0)
        m["core.decompose_literals"] += d.get("literals", 0)
        m["core.reduce_ms"] += rd.get("wall_ms", 0.0)
        m["core.reduce_trials"] += rd.get("effort_spent", 0)
        m["core.reduce_literals"] += rd.get("literals", 0)
        m["core.reduce_arbitrated"] += bool(rd.get("refine_arbitrated")) / len(recs)
        m["core.arbitration_cache_hits"] += rd.get("arbitration_cache_hits", 0)
        m["factor.ms"] += f.get("wall_ms", 0.0)
        m["factor.trials"] += f.get("effort_spent", 0)
        m["factor.literals"] += f.get("literals", 0)
        m["factor.shared_divisors"] += f.get("shared_divisors", 0)
        m["techmap.ms"] += tm.get("wall_ms", 0.0)
        m["sta.ms"] += st.get("wall_ms", 0.0)
        m["techmap.cells"] += tm.get("cells", 0)
        m["oracle.spec_ms"] += d.get("verify_ms", 0.0)
        for s in r["stages"]:
            m["oracle.ms"] += s.get("verify_ms", 0.0)
            m["oracle.peak_nodes"] = max(m["oracle.peak_nodes"],
                                         s.get("verify_peak_nodes", 0))
            m["oracle.reorders"] += s.get("verify_reorders", 0)
            m["oracle.unverified"] += s.get("verified") is False
            m["flow.degraded"] += "degraded" in s
            if "span_ms" in s:
                m[f"flow.{s['stage']}.span_ms"] += s["span_ms"]
                m["flow.overhead_ms"] += (s["span_ms"] - s["wall_ms"]
                                          - s.get("verify_ms", 0.0))
    stage_ms = sum(s["wall_ms"] + s.get("verify_ms", 0.0)
                   for r in recs for s in r["stages"])
    if stage_ms > 0:
        m["share.core"] = (m["core.decompose_ms"] + m["core.reduce_ms"]) / stage_ms
        m["share.reduce"] = m["core.reduce_ms"] / stage_ms
        m["share.oracle"] = m["oracle.ms"] / stage_ms
        m["share.factor"] = m["factor.ms"] / stage_ms
    if wall_s > 0:
        m["par.cpu_util"] = cpu_s / (wall_s * (os.cpu_count() or 1))
    return m


def qor_guard(key, qor):
    """QoR must repeat exactly across runs and seeds of the same sources
    and PD_* environment: the first run in a checkout pins it."""
    key = f"{source_digest()} {key}"
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / "qor.json"
    pinned = json.loads(path.read_text()) if path.exists() else {}
    if key not in pinned:
        pinned[key] = qor
        path.write_text(json.dumps(pinned, indent=1, sort_keys=True))
        return []
    if pinned[key] != qor:
        return [f"QoR {qor} differs from earlier runs' {pinned[key]}"]
    return []


def run_batch(args, helper, env, passed, trace_events):
    circuits = BATCH[args.workload]
    rng = random.Random(args.seed)
    start = now()
    passes, problems, setups = [], [], []
    attempted = ok = 0
    pass_ns = 0
    # Whole passes until the next would overrun --seconds; at least two.
    # In a traced run passes alternate stage-by-stage / single-call, so the
    # difference between them is the tracing overhead.
    while len(passes) < 2 or (now() - start) + pass_ns <= args.seconds * 1e9:
        stepwise = bool(args.trace) and len(passes) % 2 == 0
        order = circuits[:]
        rng.shuffle(order)
        t_pass = now()
        recs = []
        for c in order:
            rec, spawn, end = run_child(helper, env, rng.getrandbits(62),
                                        "--stepwise" if stepwise else None,
                                        circuit=c)
            attempted += 1
            if rec is not None and "check" in rec and not rec["check"]["ok"]:
                problems.append(f"{c}: output check failed: {rec['check']}")
            problems += cold_violations(rec)
            if finished(rec):
                ok += verified(rec["stages"])
                recs.append(rec)
                if args.trace:
                    trace_events += flow_spans(rec, spawn, end, start, len(passes))
        for _ in range(SETUP_ROUNDS):
            for c in order:
                rec = run_child(helper, env, 0, "--setup-only", circuit=c)[0]
                if rec is not None:
                    setups.append(dict(rec, name=c))
        pass_ns = now() - t_pass
        passes.append({
            "stepwise": stepwise,
            "recs": recs,
            "wall_s": sum(r["flow_ms"] for r in recs) / 1e3,
            "cpu_s": sum(r["cpu_ms"] for r in recs) / 1e3,
            "peak_rss_mb": max((r["peak_rss_kb"] for r in recs), default=0) / 1024,
            "qor": (sum(r["cells"] for r in recs),
                    round(sum(r["area_um2"] for r in recs), 6),
                    round(sum(r["delay_ns"] for r in recs), 6)),
        })
    complete = [p for p in passes if len(p["recs"]) == len(circuits)]
    setups += [r for p in complete for r in p["recs"]]
    qors = {p["qor"] for p in complete}
    if len(qors) > 1:
        problems.append(f"QoR differs between passes: {sorted(qors)}")
    if complete:
        problems += qor_guard(f"{args.workload} {sorted(passed.items())}",
                              list(complete[0]["qor"]))
    threads = {r["threads"] for p in passes for r in p["recs"]}
    print_record(args, passed, f"threads={','.join(map(str, threads))} "
                 f"passes={len(passes)} circuits/pass={len(circuits)}")
    timed = [p for p in complete if not p["stepwise"]] or complete
    n, recs = len(timed), []
    metrics = {}
    if timed:
        cells, area, delay = timed[0]["qor"]
        recs = [r for p in timed for r in p["recs"]]
        vals = {
            "setup_s": per_circuit_sum(setups, "setup_ms"),
            "wall_s": per_circuit_sum(recs, "flow_ms"),
            "cpu_s": per_circuit_sum(recs, "cpu_ms"),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in timed),
        }
        vals.update(cells=cells, area_um2=area, delay_ns=delay)
    else:
        vals = {k: 0.0 for k in END_TO_END if k != "ok_frac"}
    vals["ok_frac"] = ok / attempted
    if not args.trace:
        print(f"end-to-end (times: sums over {len(circuits)} circuits of each "
              f"one's median over {n} passes; QoR summed; ok_frac counts "
              "verified circuits):")
        for k, unit in END_TO_END.items():
            show(k, vals[k], unit,
                 {"ok_frac": attempted, "setup_s": len(setups)}.get(k, len(recs)))
            metrics[k] = {"value": vals[k], "unit": unit}
    else:
        traced = [p for p in complete if p["stepwise"]]
        per = [layer_sums(p["recs"], p["cpu_s"], p["wall_s"]) for p in traced]
        lm = {k: median([x[k] for x in per]) for k in PER_LAYER}
        counts = {k: len(traced) for k in PER_LAYER}
        plain = [r for p in complete if not p["stepwise"] for r in p["recs"]]
        if plain and traced:
            lm["trace.overhead_s"] = (
                per_circuit_sum([r for p in traced for r in p["recs"]], "flow_ms")
                - per_circuit_sum(plain, "flow_ms"))
        # The suite bypasses the serve and cache layers: nothing to measure.
        for k in SERVE_LAYERS:
            lm[k], counts[k] = 0.0, 0
        print(f"per-layer (medians over {len(traced)} stage-by-stage passes of "
              f"{len(circuits)} circuits; serve.*, cache.* and loadgen.* do not "
              "apply, as batch flows bypass those layers: 0 with n=0):")
        for k, unit in PER_LAYER.items():
            show(k, lm[k], unit, counts[k])
            metrics[k] = {"value": lm[k], "unit": unit}
    return metrics, attempted, attempted - ok, problems


def per_circuit_sum(recs, key):
    """Sum over circuits of each circuit's median `key` (ms), in seconds:
    robust to one slow process, as a median of pass sums is not."""
    by = {}
    for r in recs:
        by.setdefault(r["name"], []).append(r[key])
    return sum(median(v) for v in by.values()) / 1e3


def flow_spans(rec, spawn, end, t0, tid):
    us = lambda ns: (ns - t0) / 1e3  # noqa: E731
    start = spawn + rec["setup_ms"] * 1e6
    ev = [
        span(f"circuit {rec['name']}", us(spawn), (end - spawn) / 1e3, tid),
        span("setup", us(spawn), rec["setup_ms"] * 1e3, tid,
             {"spec_ms": rec["spec_ms"], "spec_terms": rec["spec_terms"]}),
        span("flow", us(start), rec["flow_ms"] * 1e3, tid),
    ]
    at = us(start)
    for s in rec["stages"]:
        dur = s.get("span_ms", s["wall_ms"] + s.get("verify_ms", 0.0)) * 1e3
        ev.append(span(f"stage {s['stage']}", at, dur, tid,
                       {k: v for k, v in s.items() if k != "stage"}))
        ev.append(span("transform", at, s["wall_ms"] * 1e3, tid))
        if s.get("verify_ms"):
            ev.append(span("oracle", at + s["wall_ms"] * 1e3, s["verify_ms"] * 1e3, tid))
        at += dur
    ev.append(span("output check", at, us(end) - at, tid))
    return ev


def span(name, ts, dur, tid, args=None):
    e = {"name": name, "ph": "X", "ts": round(ts, 3), "dur": round(max(dur, 0), 3),
         "pid": 1, "tid": tid}
    if args:
        e["args"] = args
    return e


# --------------------------------------------------------------- serve ---

class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def request(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self):
        self.rfile.close()
        self.sock.close()


class Server:
    """One `pd serve` process on an empty cache directory."""

    def __init__(self, pd, env, cache_dir, workers):
        cache_dir.mkdir(parents=True)
        self.spawn = now()
        self.proc = subprocess.Popen(
            [str(pd), "serve", "--addr", "127.0.0.1:0", "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=dict(env, PD_CACHE_DIR=str(cache_dir)))
        try:
            line = self.proc.stdout.readline()
            port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
            self.conn = Conn(port)
            self.conn.request({"op": "status", "job": 0})
        except Exception:
            self.kill()
            raise
        self.ready = now()

    def cpu_s(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        return 0.0

    def stop(self):
        try:
            self.conn.request({"op": "shutdown"})
            self.conn.close()
            self.proc.wait(timeout=60)
        except Exception:
            self.kill()
        self.proc.stdout.close()

    def kill(self):
        self.proc.kill()
        self.proc.wait()


class Job:
    def __init__(self, kind, family, path, orig=None, due=0.0):
        self.kind, self.family, self.path, self.orig = kind, family, path, orig
        self.due = due
        self.polls = 0
        self.result = None
        self.problem = None

    @property
    def label(self):
        return Path(self.path).name


class Fresh:
    """Makes fresh jobs: families dealt in seeded shuffles of the whole
    pool (so every run does the same mix of work), each spec renamed by a
    new prefix (so its content address is new)."""

    def __init__(self, rng, work):
        self.rng, self.work, self.deck = rng, work, []
        self.specs = [(f, "-", work / "jobs" / f"named_{f}.txt") for f in SERVE_POOL]

    def job(self, family=None, due=0.0):
        if family is None:
            if not self.deck:
                self.deck = SERVE_POOL[:]
                self.rng.shuffle(self.deck)
            family = self.deck.pop()
        prefix = f"j{len(self.specs)}x{self.rng.getrandbits(20):05x}_"
        path = self.work / "jobs" / f"{prefix}{family}.txt"
        self.specs.append((family, prefix, path))
        return Job("fresh", family, path, None, due)


def plan_open(rng, fresh, n):
    """The open-loop schedule: Poisson arrivals at OPEN_RATE; half the jobs
    re-send a fresh job due at least REPEAT_MIN_AGE_S earlier."""
    jobs, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(OPEN_RATE)
        old = [j for j in jobs if j.kind == "fresh" and j.due <= t - REPEAT_MIN_AGE_S]
        if old and rng.random() < 0.5:
            o = rng.choice(old)
            jobs.append(Job("repeat", o.family, o.path, o, t))
        else:
            jobs.append(fresh.job(due=t))
    return jobs


def plan_closed(rng, fresh, open_jobs):
    """Closed-loop rounds of the same mix: each family's fresh job followed
    by a repeat of an open-loop fresh job (all done by then). The order is
    fixed, so how jobs pack onto the worker shards does not vary by seed."""
    done = [j for j in open_jobs if j.kind == "fresh"]
    rounds = []
    for _ in range(CLOSED_ROUNDS):
        jobs = []
        for f in SERVE_POOL:
            o = rng.choice(done)
            jobs += [fresh.job(f), Job("repeat", o.family, o.path, o)]
        rounds.append(jobs)
    return rounds


def write_specs(helper, specs, work):
    lst = work / "specs.list"
    lst.write_text("".join(f"{f} {p} {path}\n" for f, p, path in specs))
    r = subprocess.run([str(helper), "spec", "--list", str(lst)],
                       capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        die(f"writing job specs failed: {r.stderr.strip()}")


def submit(conn, job):
    job.sent = now()
    r = conn.request({"op": "submit", "spec": {"circuits": [str(job.path)]}})
    job.acked = now()
    if not r.get("ok"):
        job.problem = f"refused: {r.get('error')}"
        job.seen_done = job.acked
        return None
    return int(r["job"])


def poll(conn, outstanding):
    """One status round over the outstanding jobs; fetches finished ones
    and returns them."""
    done = []
    for jid, job in list(outstanding.items()):
        job.polls += 1
        r = conn.request({"op": "status", "job": jid})
        if r.get("state") == "done":
            job.seen_done = now()
            job.fetch = now()
            job.result = conn.request({"op": "result", "job": jid})
            job.fetched = now()
            del outstanding[jid]
            done.append(job)
    return done


def closed_loop(conn, jobs, depth):
    """Sends `jobs` in order with at most `depth` outstanding. A job is due
    when a slot frees, so its latency and the client's lag count from
    there."""
    outstanding, free = {}, [now()] * depth
    k = 0
    while k < len(jobs) or outstanding:
        while k < len(jobs) and len(outstanding) < depth:
            job = jobs[k]
            job.due_ns = free.pop(0)
            jid = submit(conn, job)
            if jid is None:
                free.append(job.seen_done)
            else:
                outstanding[jid] = job
            job.backlog = len(outstanding)
            k += 1
        free += [j.seen_done for j in poll(conn, outstanding)]
        if outstanding:
            time.sleep(POLL_S)


def judge(job, ref_cells):
    """Why a served job is not good, or None. Good: clean, every boundary
    verified, served wholly from the store (repeat) or wholly live (fresh),
    mapped to the same cells as its named original. Returns (why, wrong):
    `wrong` marks a wrong output or a broken cold-state guard."""
    if job.problem:
        return job.problem, "check" in job.problem
    res = job.result or {}
    if not res.get("ok"):
        return f"result failed: {res.get('error')}", False
    c = res["stats"]["circuits"][0]
    if "error" in c:
        return f"flow failed: {c['error']}", False
    stages = c["stages"]
    if len(stages) != 5 or not verified(stages):
        return "a boundary is not verified", False
    want = {"repeat": "hit", "fresh": "miss"}[job.kind]
    if any(s.get("cache") != want for s in stages):
        return f"{job.kind} job not served wholly as cache {want}", True
    if c["cells"] != ref_cells[job.family]:
        return f"{c['cells']} cells, reference {ref_cells[job.family]}", True
    return None, False


def check_store(helper, env, cache, vseed, jobs):
    """The helper's independent check of the TechMap netlists stored for
    `jobs` (spec files), and the divisor library's entry count."""
    r = subprocess.run(
        [str(helper), "check-store", "--cache-dir", str(cache),
         "--vectors-seed", str(vseed)] + [str(j.path) for j in jobs],
        capture_output=True, text=True, timeout=120,
        env=dict(env, PD_CACHE_DIR=str(cache)))
    lines = [json.loads(x) for x in r.stdout.splitlines() if x.strip()]
    if r.returncode != 0 or len(lines) != len(jobs) + 1:
        die(f"store check failed: {r.stderr.strip()}")
    return lines[:-1], lines[-1]["library_entries"]


def serve_layers(timed, all_jobs, capacity, cache, library_entries):
    """serve.*, cache.* and loadgen.* metrics and their sample counts, from
    the client's own timestamps. Latency, wait, lag and hit time come from
    `timed`; a job's wait is its latency minus its live service time (0 for
    a store hit)."""
    lat = [(j.seen_done - j.due_ns) / 1e6 for j in timed]
    waits = [(j.seen_done - j.due_ns) / 1e6
             - (service_ms(j) if j.kind != "repeat" and served(j) else 0.0)
             for j in timed]
    hits = [(j.seen_done - j.due_ns) / 1e6 for j in timed if j.kind == "repeat"]
    misses = [(j.seen_done - j.due_ns) / 1e6 for j in timed
              if j.kind == "fresh" and served(j)]
    lag = [(j.sent - j.due_ns) / 1e6 for j in timed]
    stages = [s for j in all_jobs if served(j)
              for s in j.result["stats"]["circuits"][0]["stages"]]
    m = {
        "serve.latency_p50_ms": (honest(lat, 0.50, "latency")[0], len(lat)),
        "serve.latency_p95_ms": (honest(lat, 0.95, "latency")[0], len(lat)),
        "serve.capacity_jobs_per_s": capacity,
        "serve.submit_ms_p50": (median([(j.acked - j.sent) / 1e6 for j in all_jobs]),
                                len(all_jobs)),
        "serve.wait_ms_p50": (honest(waits, 0.50, "wait")[0], len(waits)),
        "serve.wait_ms_p95": (honest(waits, 0.95, "wait")[0], len(waits)),
        "serve.backlog_max": (max(j.backlog for j in timed), len(timed)),
        "serve.polls_per_job": (statistics.mean(j.polls for j in all_jobs),
                                len(all_jobs)),
        "cache.hit_ratio": (sum(s.get("cache") == "hit" for s in stages)
                            / max(1, len(stages)), len(stages)),
        "cache.hit_job_ms_p50": (honest(hits, 0.50, "hit job")[0], len(hits)),
        "cache.miss_job_ms_p50": (honest(misses, 0.50, "miss job")[0], len(misses)),
        "cache.store_mb": (sum(p.stat().st_size for p in cache.rglob("*")
                               if p.is_file()) / 2**20, 1),
        "cache.library_entries": (library_entries, 1),
        "loadgen.lag_ms_p95": (honest(lag, 0.95, "lag")[0], len(lag)),
    }
    return m


def served(job):
    return bool(job.result and job.result.get("ok")
                and "stages" in job.result["stats"]["circuits"][0])


def run_serve(args, pd, helper, env, passed, trace_events):
    rng = random.Random(args.seed)
    workers = os.cpu_count() or 1
    work = RUN_DIR / f"serve-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "jobs").mkdir(parents=True)
    problems = []
    try:
        return serve_phases(args, pd, helper, env, passed, trace_events, rng,
                            workers, work, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def serve_phases(args, pd, helper, env, passed, trace_events, rng, workers, work,
                 problems):
    fresh = Fresh(rng, work)
    open_jobs = plan_open(rng, fresh,
                          max(MIN_OPEN_JOBS, round(OPEN_RATE * 0.65 * args.seconds)))
    rounds = plan_closed(rng, fresh, open_jobs)
    closed = [j for r in rounds for j in r]
    # After each closed-loop round, a serial round: a fresh job per family,
    # sent one at a time. wall_s comes from these, not from the closed-loop
    # makespans, which swing with how many cores a shared host grants.
    serial_rounds = [[fresh.job(f) for f in SERVE_POOL] for _ in rounds]
    serial = [j for r in serial_rounds for j in r]
    write_specs(helper, fresh.specs, work)
    vseed = rng.getrandbits(62)
    setups = []  # setup_s: spawn -> first answered request

    def time_spawns():
        for _ in range(SETUP_SPAWNS):
            s = Server(pd, env, work / f"setup{len(setups)}", workers)
            setups.append((s.ready - s.spawn) / 1e9)
            s.stop()

    time_spawns()
    # Named originals: the reference cells and QoR, run cold in batch. A
    # traced run also runs each stage by stage, for the flow-driver spans.
    ref, qor, plain, steps = {}, [0, 0.0, 0.0], [], []
    for f, _, path in fresh.specs[:len(SERVE_POOL)]:
        rec, _, _ = run_child(helper, env, vseed, spec_file=path)
        if not finished(rec):
            die(f"named original {f} did not flow clean: {rec}")
        plain.append(rec)
        if args.trace:
            step, _, _ = run_child(helper, env, vseed, "--stepwise", spec_file=path)
            if not finished(step) or step["cells"] != rec["cells"]:
                die(f"named original {f} stage by stage: {step}")
            steps.append(step)
        ref[f] = rec["cells"]
        qor = [qor[0] + rec["cells"], qor[1] + rec["area_um2"], qor[2] + rec["delay_ns"]]
    qor = [qor[0], round(qor[1], 6), round(qor[2], 6)]
    problems += qor_guard(f"serve-cache {sorted(passed.items())}", qor)

    time_spawns()
    server = Server(pd, env, work / "cache", workers)
    setups.append((server.ready - server.spawn) / 1e9)
    try:
        conn = server.conn
        t0 = now() + 50_000_000
        outstanding, held = {}, 0
        i = 0
        while i < len(open_jobs) or outstanding:
            nxt = math.inf
            while i < len(open_jobs):
                job = open_jobs[i]
                job.due_ns = t0 + job.due * 1e9
                if job.due_ns > now():
                    nxt = job.due_ns
                    break
                if job.orig is not None and job.orig.result is None:
                    held += 1  # its original is still running: wait for it
                    break
                jid = submit(conn, job)
                if jid is not None:
                    outstanding[jid] = job
                job.backlog = len(outstanding)
                i += 1
            poll(conn, outstanding)
            pause = min(nxt - now(), POLL_S * 1e9)
            if pause > 0:
                time.sleep(pause / 1e9)

        time_spawns()  # the main server is idle here
        # Closed loop: 2 x workers jobs outstanding, round by round, each
        # followed by a serial round. /proc counts CPU in 10 ms ticks: sum
        # it over the closed-loop rounds.
        c_wall, c_cpu = [], 0.0
        for jobs, one_by_one in zip(rounds, serial_rounds):
            c_start, cpu_start = now(), server.cpu_s()
            closed_loop(conn, jobs, 2 * workers)
            c_wall.append((now() - c_start) / 1e9)
            c_cpu += server.cpu_s() - cpu_start
            closed_loop(conn, one_by_one, 1)
            time_spawns()
        round_walls = ", ".join(f"{w:.3f}" for w in c_wall)
        c_wall, c_cpu = median(c_wall), c_cpu / len(rounds)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    time_spawns()

    # Independent output check of everything the server stored.
    all_jobs = open_jobs + closed + serial
    computed = [j for j in all_jobs if j.kind == "fresh"]
    checks, library_entries = check_store(helper, env, work / "cache", vseed, computed)
    for job, chk in zip(computed, checks):
        if "error" in chk or not chk["check"]["ok"]:
            problems.append(f"{job.label}: stored netlist check failed: {chk}")
            job.problem = job.problem or "stored netlist failed the output check"

    good = 0
    for job in all_jobs:
        why, wrong = judge(job, ref)
        job.latency = (job.seen_done - job.due_ns) / 1e6
        if why is None and job in open_jobs and job.latency > LATENCY_LIMIT_MS:
            why = f"latency {job.latency:.0f} ms over the {LATENCY_LIMIT_MS:.0f} ms limit"
        if why is None:
            good += 1
        elif wrong:
            problems.append(f"{job.label}: {why}")
        else:
            print(f"  ! {job.kind} {job.label}: {why}", file=sys.stderr)
    print_record(args, passed, f"workers={workers} open-loop rate={OPEN_RATE}/s "
                 f"jobs={len(open_jobs)} closed-loop rounds={len(rounds)}x"
                 f"{len(rounds[0])} jobs, {2 * workers} outstanding, each followed "
                 f"by {len(serial_rounds[0])} jobs one at a time; "
                 f"limit={LATENCY_LIMIT_MS:.0f}ms")
    print(f"# closed-loop round walls (s): {round_walls}")
    if held:
        print(f"  ! {held} repeat sends waited for their original", file=sys.stderr)

    metrics = {}
    if not args.trace:
        one_by_one = [j for j in serial if served(j)]
        vals = {
            "setup_s": (median(setups), len(setups)),
            "wall_s": (per_family_sum(one_by_one), len(one_by_one)),
            "cpu_s": (c_cpu, len(rounds)),
            "peak_rss_mb": (peak_rss, 1),
            "ok_frac": (good / len(all_jobs), len(all_jobs)),
            "cells": (qor[0], len(SERVE_POOL)),
            "area_um2": (qor[1], len(SERVE_POOL)),
            "delay_ns": (qor[2], len(SERVE_POOL)),
        }
        print("end-to-end (wall_s: sum over the pool of each family's median "
              "latency of a fresh job sent alone; cpu_s: server CPU per "
              "closed-loop round; QoR: the pool's named originals, cold):")
        for k, unit in END_TO_END.items():
            show(k, vals[k][0], unit, vals[k][1])
            metrics[k] = {"value": vals[k][0], "unit": unit}
        return metrics, len(all_jobs), len(all_jobs) - good, problems

    live = [j for j in open_jobs if j.kind == "fresh" and served(j)]
    lm = layer_sums([flow_record(j) for j in live], 0.0, 0.0)
    counts = {k: len(live) for k in PER_LAYER}
    # Spec construction and the flow-driver spans come from the named
    # originals, which the helper runs stage by stage.
    sl = layer_sums(steps, 0.0, 0.0)
    for k in ["arith.spec_ms", "arith.spec_terms", "flow.overhead_ms"] + [
            f"flow.{s}.span_ms" for s in STAGES]:
        lm[k], counts[k] = sl[k], len(steps)
    lm["trace.overhead_s"] = sum(r["flow_ms"] for r in steps) / 1e3 - sum(
        r["flow_ms"] for r in plain) / 1e3
    counts["trace.overhead_s"] = len(steps)
    lm["par.cpu_util"], counts["par.cpu_util"] = c_cpu / (c_wall * workers), len(rounds)
    sm = serve_layers(open_jobs, all_jobs, (len(rounds[0]) / c_wall, len(rounds)),
                      work / "cache", library_entries)
    for k, (v, n) in sm.items():
        lm[k], counts[k] = v, n
    print(f"per-layer (open loop: {len(open_jobs)} jobs, {len(live)} live; flow "
          f"layers summed over live jobs; arith.* and flow.* over the "
          f"{len(steps)} named originals):")
    for k, unit in PER_LAYER.items():
        show(k, lm[k], unit, counts[k])
        metrics[k] = {"value": lm[k], "unit": unit}
    for tid, j in enumerate(all_jobs, 1):
        trace_events += job_spans(j, tid, t0)
    return metrics, len(all_jobs), len(all_jobs) - good, problems


def per_family_sum(jobs):
    """Sum over families of each one's median latency (due -> seen done),
    in seconds: the serve counterpart of the batch suites' wall_s."""
    by = {}
    for j in jobs:
        by.setdefault(j.family, []).append((j.seen_done - j.due_ns) / 1e6)
    return sum(median(v) for v in by.values()) / 1e3


def service_ms(job):
    c = job.result["stats"]["circuits"][0]
    return sum(s["wall_ms"] + s.get("verify_ms", 0.0) for s in c["stages"])


def flow_record(job):
    c = job.result["stats"]["circuits"][0]
    return {"stages": c["stages"], "spec_ms": 0.0, "spec_terms": 0}


def job_spans(job, tid, t0):
    us = lambda ns: (ns - t0) / 1e3  # noqa: E731
    name = f"{job.kind} {job.family}"
    ev = [span(name, us(job.due_ns), (job.seen_done - job.due_ns) / 1e3, tid,
               {"file": job.label}),
          span("submit", us(job.sent), (job.acked - job.sent) / 1e3, tid),
          span("wait", us(job.acked), (job.seen_done - job.acked) / 1e3, tid,
               {"polls": job.polls})]
    if job.result is not None:
        ev.append({"name": "done", "ph": "i", "ts": round(us(job.seen_done), 3),
                   "pid": 1, "tid": tid, "s": "t"})
        ev.append(span("result", us(job.fetch), (job.fetched - job.fetch) / 1e3, tid))
    return ev


# ---------------------------------------------------------------- main ---

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    pd, helper = build()
    env, passed = program_env()
    RUN_DIR.mkdir(exist_ok=True)
    trace_events = []
    if args.workload == "serve-cache":
        metrics, attempted, failed, problems = run_serve(
            args, pd, helper, env, passed, trace_events)
    else:
        metrics, attempted, failed, problems = run_batch(
            args, helper, env, passed, trace_events)
    for p in problems:
        print(f"  ! {p}", file=sys.stderr)
    if args.trace:
        out = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"traceEvents": trace_events,
                                   "displayTimeUnit": "ms"}))
        print(f"# trace: {out.relative_to(ROOT)} ({len(trace_events)} spans; "
              "open in Perfetto)")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
