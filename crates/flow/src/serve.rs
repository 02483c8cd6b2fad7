//! `pd serve`: a std-only TCP job server over the synthesis pipeline.
//!
//! The scheduler is the batch driver refactored into **sharded worker
//! pools**: a [`pd_par::WorkerPool`] of `N` workers, each owning its own
//! queue, with every circuit of a job routed by `shard_key = job id` —
//! so one job's circuits run FIFO on one worker while other jobs
//! proceed on the remaining shards. Per-job isolation is the batch
//! driver's, unchanged: each circuit runs through
//! [`crate::batch::run_one`] (panic fencing), so a job whose every
//! circuit panics still resolves with per-slot errors and never
//! disturbs a sibling job.
//!
//! ## Protocol
//!
//! JSON lines over TCP — one request object per line, one response
//! object per line, in order:
//!
//! ```text
//! → {"op": "submit", "spec": {"circuits": ["adder10"], ...}}
//! ← {"ok": true, "job": 1, "circuits": 1}
//! → {"op": "status", "job": 1}
//! ← {"ok": true, "job": 1, "state": "running", "done": 0, "total": 1}
//! → {"op": "result", "job": 1}
//! ← {"ok": true, "job": 1, "stats": { …pd-flow-stats/v1… }}
//! → {"op": "shutdown"}
//! ← {"ok": true}
//! ```
//!
//! `"spec"` is the `pd flow` specification-file schema, verbatim
//! ([`crate::FlowSpec`]), so a file that drives a batch run drives the
//! server unchanged. `"result"` on an unfinished job answers
//! `{"ok": false, "error": …}` — poll `status` first. Requests the
//! server cannot parse also answer `{"ok": false}`; the connection
//! stays open either way. A request line longer than 1 MiB answers
//! `{"ok": false, "error": "request too large"}` and closes the
//! connection, so one client cannot grow the server's memory without
//! bound.
//!
//! When a job's configuration has a cache directory, its stages read
//! and write the content-addressed store like any batch run.

use crate::json::Json;
use crate::{batch_to_json, FlowConfig, FlowSpec};
use pd_par::WorkerPool;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Longest request line the server reads, newline included. Real
/// submit lines are under a kilobyte.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// One submitted job: its configuration and the per-circuit outcomes,
/// filled in as the job's worker drains its circuits.
struct Job {
    cfg: FlowConfig,
    outcomes: Vec<Option<crate::BatchOutcome>>,
    done: usize,
}

/// State shared between connection threads and pool workers.
struct ServerState {
    jobs: Mutex<HashMap<u64, Job>>,
    next_job: AtomicU64,
    shutdown: AtomicBool,
    /// The listener's bound address: the `shutdown` handler self-connects
    /// to it so the accept loop observes the flag immediately.
    addr: std::net::SocketAddr,
}

/// The job server. [`Server::bind`] it, then [`Server::run`] the accept
/// loop (which returns after a `shutdown` request has been served and
/// every already-queued circuit has finished).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    pool: Arc<WorkerPool>,
}

/// Worker count for the serve pool: `PD_WORKERS`, else the machine's
/// parallelism (same resolution as the batch driver's `PD_THREADS`).
pub fn env_workers() -> usize {
    std::env::var("PD_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(pd_par::max_threads)
}

impl Server {
    /// Binds the listener and spins up the sharded pool (`workers`
    /// clamped to ≥ 1). Nothing is accepted until [`Server::run`].
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                jobs: Mutex::new(HashMap::new()),
                next_job: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
                addr,
            }),
            pool: Arc::new(WorkerPool::new(workers)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Worker shards in the pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Accepts connections until a `shutdown` request, then drains the
    /// pool (dropping it joins every worker) so queued jobs finish
    /// before the method returns.
    pub fn run(self) -> std::io::Result<()> {
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            let state = Arc::clone(&self.state);
            let pool = Arc::clone(&self.pool);
            std::thread::spawn(move || serve_connection(stream, state, pool));
        }
        Ok(())
    }
}

fn serve_connection(stream: TcpStream, state: Arc<ServerState>, pool: Arc<WorkerPool>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match (&mut reader)
            .take(MAX_REQUEST_BYTES)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if buf.len() as u64 == MAX_REQUEST_BYTES && buf.last() != Some(&b'\n') {
            let _ = write_response(&mut writer, &error_response("request too large"));
            return;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            return;
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = handle_request(line, &state, &pool);
        let sent = write_response(&mut writer, &response);
        if shutdown {
            // Only now, with the reply on the wire: once the accept loop
            // sees the flag, `run` returns and the process may exit,
            // taking this thread with it.
            state.shutdown.store(true, Ordering::SeqCst);
            // The accept loop only observes the flag on its next
            // connection; poke it so shutdown does not wait for one.
            let _ = TcpStream::connect(state.addr);
            return;
        }
        if sent.is_err() {
            return;
        }
    }
}

/// Writes `response` as one JSON line.
fn write_response(writer: &mut TcpStream, response: &Json) -> std::io::Result<()> {
    let mut text = response.pretty().replace('\n', " ");
    text.push('\n');
    writer.write_all(text.as_bytes())?;
    writer.flush()
}

fn error_response(msg: &str) -> Json {
    Json::obj(vec![("ok", Json::from(false)), ("error", Json::from(msg))])
}

/// Answers one request line. The flag is `true` for `shutdown`, which
/// the caller performs after writing the reply.
fn handle_request(line: &str, state: &Arc<ServerState>, pool: &Arc<WorkerPool>) -> (Json, bool) {
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => return (error_response(&format!("bad request: {e}")), false),
    };
    let response = match doc.get("op").and_then(Json::as_str) {
        Some("submit") => submit(&doc, state, pool),
        Some("status") => status(&doc, state),
        Some("result") => result(&doc, state),
        Some("shutdown") => return (Json::obj(vec![("ok", Json::from(true))]), true),
        Some(other) => error_response(&format!("unknown op {other:?}")),
        None => error_response("missing \"op\""),
    };
    (response, false)
}

fn submit(doc: &Json, state: &Arc<ServerState>, pool: &Arc<WorkerPool>) -> Json {
    let spec_json = match doc.get("spec") {
        Some(s) => s,
        None => return error_response("submit needs a \"spec\" object"),
    };
    let spec = match FlowSpec::parse(&spec_json.pretty()) {
        Ok(s) => s,
        Err(e) => return error_response(&format!("bad spec: {e}")),
    };
    let inputs = match spec.resolve() {
        Ok(i) => i,
        Err(e) => return error_response(&format!("bad circuits: {e}")),
    };
    let total = inputs.len();
    let job_id = state.next_job.fetch_add(1, Ordering::SeqCst);
    {
        let mut jobs = state.jobs.lock().expect("jobs lock");
        jobs.insert(
            job_id,
            Job {
                cfg: spec.config.clone(),
                outcomes: vec![None; total],
                done: 0,
            },
        );
    }
    for (slot, input) in inputs.into_iter().enumerate() {
        let state = Arc::clone(state);
        let cfg = spec.config.clone();
        // Shard by job id: one job's circuits run FIFO on one worker,
        // sibling jobs land on other shards.
        pool.submit(
            job_id,
            Box::new(move || {
                let outcome = crate::batch::run_one(input, &cfg);
                let mut jobs = state.jobs.lock().expect("jobs lock");
                if let Some(job) = jobs.get_mut(&job_id) {
                    job.outcomes[slot] = Some(outcome);
                    job.done += 1;
                }
            }),
        );
    }
    Json::obj(vec![
        ("ok", Json::from(true)),
        ("job", Json::Num(job_id as f64)),
        ("circuits", Json::from(total)),
    ])
}

fn job_id_of(doc: &Json) -> Result<u64, Json> {
    doc.get("job")
        .and_then(Json::as_num)
        .filter(|n| n.fract() == 0.0 && *n >= 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| error_response("missing or bad \"job\""))
}

fn status(doc: &Json, state: &Arc<ServerState>) -> Json {
    let job_id = match job_id_of(doc) {
        Ok(id) => id,
        Err(e) => return e,
    };
    let jobs = state.jobs.lock().expect("jobs lock");
    match jobs.get(&job_id) {
        Some(job) => Json::obj(vec![
            ("ok", Json::from(true)),
            ("job", Json::Num(job_id as f64)),
            (
                "state",
                Json::from(if job.done == job.outcomes.len() {
                    "done"
                } else {
                    "running"
                }),
            ),
            ("done", Json::from(job.done)),
            ("total", Json::from(job.outcomes.len())),
        ]),
        None => error_response(&format!("no job {job_id}")),
    }
}

fn result(doc: &Json, state: &Arc<ServerState>) -> Json {
    let job_id = match job_id_of(doc) {
        Ok(id) => id,
        Err(e) => return e,
    };
    let jobs = state.jobs.lock().expect("jobs lock");
    let job = match jobs.get(&job_id) {
        Some(j) => j,
        None => return error_response(&format!("no job {job_id}")),
    };
    if job.done != job.outcomes.len() {
        return error_response(&format!(
            "job {job_id} not finished ({}/{})",
            job.done,
            job.outcomes.len()
        ));
    }
    let outcomes: Vec<_> = job
        .outcomes
        .iter()
        .map(|o| o.clone().expect("job finished"))
        .collect();
    Json::obj(vec![
        ("ok", Json::from(true)),
        ("job", Json::Num(job_id as f64)),
        ("stats", batch_to_json(&outcomes, &job.cfg)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn request(stream: &mut TcpStream, body: &str) -> Json {
        let mut line = body.to_owned();
        line.push('\n');
        stream.write_all(line.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        Json::parse(&response).unwrap()
    }

    fn wait_done(stream: &mut TcpStream, job: u64) -> Json {
        loop {
            let s = request(stream, &format!("{{\"op\": \"status\", \"job\": {job}}}"));
            assert_eq!(s.get("ok").and_then(Json::as_bool), Some(true), "{s:?}");
            if s.get("state").and_then(Json::as_str) == Some("done") {
                return request(stream, &format!("{{\"op\": \"result\", \"job\": {job}}}"));
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    #[test]
    fn serves_concurrent_jobs_with_per_job_isolation() {
        let server = Server::bind("127.0.0.1:0", 4).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());

        let mut conn = TcpStream::connect(addr).unwrap();
        // Four concurrent jobs — three healthy, one whose single
        // circuit's every rung panics (injected fault, fires on every
        // injection opportunity the flow offers).
        let healthy = ["parity8", "gray6", "maj5"];
        let mut job_ids = Vec::new();
        for name in healthy {
            let r = request(
                &mut conn,
                &format!("{{\"op\": \"submit\", \"spec\": {{\"circuits\": [\"{name}\"]}}}}"),
            );
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
            job_ids.push(r.get("job").and_then(Json::as_num).unwrap() as u64);
        }
        let r = request(
            &mut conn,
            "{\"op\": \"submit\", \"spec\": {\"circuits\": [\"maj5\"], \
             \"fault\": \"decompose:panic:99\"}}",
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
        let poison = r.get("job").and_then(Json::as_num).unwrap() as u64;

        // The poisoned job resolves (to an error outcome), siblings stay
        // green.
        let p = wait_done(&mut conn, poison);
        let slot = &p
            .get("stats")
            .unwrap()
            .get("circuits")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert!(
            slot.get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("panicked")),
            "{p:?}"
        );
        for (name, job) in healthy.iter().zip(&job_ids) {
            let r = wait_done(&mut conn, *job);
            let slot = &r
                .get("stats")
                .unwrap()
                .get("circuits")
                .unwrap()
                .as_arr()
                .unwrap()[0];
            assert_eq!(
                slot.get("name").and_then(Json::as_str),
                Some(*name),
                "{r:?}"
            );
            assert!(
                slot.get("error").is_none(),
                "sibling of poison failed: {r:?}"
            );
        }

        // Early result on a fresh job reports not-finished, unknown ops
        // and jobs report errors without dropping the connection.
        let r = request(&mut conn, "{\"op\": \"result\", \"job\": 999}");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        let r = request(&mut conn, "{\"op\": \"frobnicate\"}");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));

        let r = request(&mut conn, "{\"op\": \"shutdown\"}");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn over_long_request_line_is_refused_and_the_server_lives_on() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());

        // Twice the cap with no newline: the server stops reading at the
        // cap, answers with a typed error and closes the connection. The
        // write may fail once the server hangs up; the reply still lands.
        let mut hog = TcpStream::connect(addr).unwrap();
        let _ = hog.write_all(&vec![b'x'; 2 * MAX_REQUEST_BYTES as usize]);
        let mut reply = String::new();
        BufReader::new(hog).read_line(&mut reply).unwrap();
        let r = Json::parse(&reply).unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{r:?}");
        assert_eq!(
            r.get("error").and_then(Json::as_str),
            Some("request too large"),
            "{r:?}"
        );

        // A fresh connection still submits and completes a job.
        let mut conn = TcpStream::connect(addr).unwrap();
        let r = request(
            &mut conn,
            "{\"op\": \"submit\", \"spec\": {\"circuits\": [\"maj5\"]}}",
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
        let job = r.get("job").and_then(Json::as_num).unwrap() as u64;
        let done = wait_done(&mut conn, job);
        let slot = &done
            .get("stats")
            .unwrap()
            .get("circuits")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert!(slot.get("error").is_none(), "{done:?}");

        let r = request(&mut conn, "{\"op\": \"shutdown\"}");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        handle.join().unwrap().unwrap();
    }
}
