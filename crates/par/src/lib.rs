//! # pd-par — minimal scoped-thread data parallelism
//!
//! A rayon stand-in built on [`std::thread::scope`], providing the three
//! primitives the Progressive Decomposition engine needs:
//!
//! * [`par_map`] — order-preserving map over a slice with work stealing
//!   (an atomic cursor), for irregular tasks such as trial decompositions;
//! * [`par_chunks`] — order-preserving map over contiguous chunks, for
//!   regular scans such as pair-list splitting;
//! * [`par_apply_mut`] — in-place parallel mutation of disjoint chunks,
//!   for bit-parallel transforms such as truth-table construction.
//!
//! It also hosts [`EffortMeter`], the engine-wide deterministic trial
//! budget: a plain counter charged in whole batches by orchestrating
//! code, so budgeted runs stop at the same point regardless of thread
//! count or machine speed. It lives here (the dependency-free bottom
//! crate) so every layer — decomposer, refiner, global factoring, the
//! flow — can share one type without a dependency cycle.
//!
//! ## Knobs
//!
//! The worker count is `PD_THREADS` when set (clamped to ≥ 1, so
//! `PD_THREADS=0` means serial; an unparseable value is reported on
//! stderr once and ignored), otherwise
//! [`std::thread::available_parallelism`]. With one worker every primitive
//! degrades to the serial loop — no threads are spawned, no overhead is
//! paid — so single-core machines and `PD_THREADS=1` runs are exactly the
//! sequential engine. All primitives are deterministic: outputs are
//! ordered by input position regardless of scheduling.
//!
//! Callers gate parallelism by input size (sequential below a threshold);
//! this crate deliberately keeps no global pool — scoped threads make each
//! call self-contained, which is what lets the decomposer nest trial
//! iterations inside a parallel group search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// Set inside worker threads: nested parallel calls run serially
    /// instead of multiplying the thread count (a trial decomposition
    /// scored on the pool must not spawn its own pool).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn effective_workers(task_count: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        1
    } else {
        max_threads().min(task_count)
    }
}

fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    IN_WORKER.with(|c| c.set(true));
    let r = f();
    IN_WORKER.with(|c| c.set(false));
    r
}

/// Interprets a raw `PD_THREADS` value.
///
/// `Ok(None)` when unset or empty (fall back to available parallelism),
/// `Ok(Some(n))` for a valid count — `0` is clamped to `1` (serial), not
/// ignored — and `Err(raw)` when the value does not parse as an unsigned
/// integer, so the caller can warn instead of silently discarding it.
fn parse_thread_count(raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw.map(str::trim) {
        None | Some("") => Ok(None),
        Some(text) => match text.parse::<usize>() {
            Ok(n) => Ok(Some(n.max(1))),
            Err(_) => Err(text.to_owned()),
        },
    }
}

/// The number of worker threads parallel calls may use.
///
/// `PD_THREADS` (≥ 1) wins — `PD_THREADS=0` is clamped to 1 — otherwise
/// the machine's available parallelism. An unparseable value is reported
/// on stderr once and then ignored. Cached after the first call.
pub fn max_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        let raw = std::env::var("PD_THREADS").ok();
        let fallback = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        match parse_thread_count(raw.as_deref()) {
            Ok(Some(n)) => n,
            Ok(None) => fallback(),
            Err(bad) => {
                eprintln!(
                    "pd-par: ignoring unparseable PD_THREADS={bad:?} \
                     (expected an unsigned integer); using available parallelism"
                );
                fallback()
            }
        }
    })
}

/// Maps `f` over `items`, preserving order.
///
/// Tasks are distributed by an atomic cursor, so wildly uneven task costs
/// (e.g. trial decompositions of different variable groups) still balance.
/// Runs serially when only one worker is available or the input is small.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = effective_workers(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let f = &f;
            handles.push(scope.spawn(move || {
                as_worker(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("pd-par worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index visited"))
        .collect()
}

/// Splits `items` into at most `max_threads()` contiguous chunks of at
/// least `min_chunk` elements, maps `f` over each chunk in parallel, and
/// returns the per-chunk results in input order.
///
/// Useful when `f` builds a per-chunk accumulator (a local hash map, a
/// partial XOR) that the caller then merges — merging in chunk order keeps
/// the overall result deterministic.
pub fn par_chunks<T: Sync, R: Send>(
    items: &[T],
    min_chunk: usize,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let n_chunks = (items.len() / min_chunk).clamp(1, effective_workers(items.len()));
    let chunk = items.len().div_ceil(n_chunks);
    if n_chunks <= 1 {
        return vec![f(items)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| scope.spawn(move || as_worker(|| f(c))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pd-par worker panicked"))
            .collect()
    })
}

/// Maps `f` over owned `items` in parallel, preserving order.
///
/// The owned counterpart of [`par_map`]: items are handed to workers in
/// contiguous chunks (no stealing), which suits uniform tasks such as
/// normalising per-output term buckets.
pub fn par_map_vec<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let workers = effective_workers(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut items = items;
    while !items.is_empty() {
        let tail = items.split_off(chunk.min(items.len()));
        chunks.push(std::mem::replace(&mut items, tail));
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || as_worker(|| c.into_iter().map(f).collect::<Vec<R>>())))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pd-par worker panicked"))
            .collect()
    })
}

/// Applies `f` to disjoint `chunk`-sized windows of `data` in parallel.
///
/// `f` receives the window's offset into `data` and the window itself.
/// `chunk` is rounded up so each window is a multiple of `align` (pass 1
/// for no alignment) — callers whose transform couples elements within an
/// aligned block (butterflies, block XORs) stay correct under any split.
pub fn par_apply_mut<T: Send>(data: &mut [T], align: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let align = align.max(1);
    let workers = effective_workers(data.len());
    if workers <= 1 || data.len() <= align {
        f(0, data);
        return;
    }
    let mut chunk = data.len().div_ceil(workers);
    chunk = chunk.div_ceil(align) * align;
    std::thread::scope(|scope| {
        let f = &f;
        let mut offset = 0usize;
        let mut handles = Vec::new();
        let mut rest = data;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let at = offset;
            handles.push(scope.spawn(move || as_worker(|| f(at, head))));
            offset += take;
            rest = tail;
        }
        for h in handles {
            h.join().expect("pd-par worker panicked");
        }
    });
}

/// A deterministic effort budget counted in *trials*, never wall-clock.
///
/// The engine's search loops (exhaustive group scoring, refine close
/// rounds, global divisor extraction) charge this meter with the number
/// of candidates they are about to evaluate; once the budget is spent
/// they stop early — always at the same point for the same input, so
/// results stay bit-identical across `PD_THREADS` and machine speeds.
/// Charging is done by the *orchestrating* code in whole deterministic
/// batches (never from inside worker threads), which is why a plain
/// `&mut` meter suffices and no atomics are involved.
///
/// # Examples
///
/// ```
/// use pd_par::EffortMeter;
/// let mut m = EffortMeter::with_budget(10);
/// m.charge(7);
/// assert!(!m.exhausted());
/// m.charge(7); // crossing the budget is allowed; the batch completes
/// assert!(m.exhausted());
/// assert_eq!(m.spent(), 14);
/// assert!(!EffortMeter::unlimited().exhausted());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EffortMeter {
    spent: u64,
    budget: u64,
}

impl EffortMeter {
    /// A meter that never exhausts (budget `u64::MAX`).
    pub fn unlimited() -> Self {
        EffortMeter {
            spent: 0,
            budget: u64::MAX,
        }
    }

    /// A meter with a fixed trial budget. A budget of `u64::MAX` is
    /// unlimited; a budget of `0` is exhausted before any work.
    pub fn with_budget(budget: u64) -> Self {
        EffortMeter { spent: 0, budget }
    }

    /// Records `trials` units of work. The batch being charged is
    /// expected to run to completion even if this crosses the budget —
    /// exhaustion is checked *between* batches, so the stopping point is
    /// a deterministic function of the charge sequence alone.
    pub fn charge(&mut self, trials: u64) {
        self.spent = self.spent.saturating_add(trials);
    }

    /// Whether the budget is spent (callers should stop starting work).
    pub fn exhausted(&self) -> bool {
        self.spent >= self.budget
    }

    /// Total trials charged so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// The configured budget (`u64::MAX` when unlimited).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Whether a budget was actually configured (not [`Self::unlimited`]).
    pub fn is_limited(&self) -> bool {
        self.budget != u64::MAX
    }
}

/// A queued unit of work for a [`WorkerPool`] worker.
type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// One worker's mailbox: a FIFO queue and its wake-up signal.
struct Shard {
    queue: Mutex<VecDeque<PoolTask>>,
    ready: Condvar,
}

/// A sharded worker pool: N long-lived workers, each draining its own
/// FIFO queue. This is the scheduler core of `pd serve` — the batch
/// driver's fan-out re-shaped for a long-running process where jobs
/// arrive over time instead of as one vector.
///
/// Properties the flow layer relies on:
///
/// * **Sharding.** [`WorkerPool::submit`] routes by `shard_key % N`, so
///   tasks sharing a key (one job's circuits) run FIFO on one worker,
///   while different keys proceed independently — per-job isolation
///   falls out of the topology.
/// * **Panic fencing.** Every task runs under [`std::panic::catch_unwind`];
///   a panicking task is dropped and its worker keeps serving. (The
///   flow layer additionally fences and retries each circuit itself,
///   exactly as the batch driver does.)
/// * **Nested-parallelism guard.** Tasks execute with the same
///   in-worker flag as [`par_map`] workers, so a flow running inside
///   the pool degrades its internal parallelism to serial loops instead
///   of oversubscribing the machine.
///
/// Dropping the pool shuts it down: queued tasks still drain (shutdown
/// is checked only when a queue is empty), then workers exit and are
/// joined.
///
/// # Examples
///
/// ```
/// use pd_par::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// let pool = WorkerPool::new(4);
/// let done = Arc::new(AtomicUsize::new(0));
/// for job in 0..16u64 {
///     let done = Arc::clone(&done);
///     pool.submit(job, Box::new(move || {
///         done.fetch_add(1, Ordering::SeqCst);
///     }));
/// }
/// drop(pool); // drains queues, joins workers
/// assert_eq!(done.load(Ordering::SeqCst), 16);
/// ```
pub struct WorkerPool {
    shards: Arc<Vec<Shard>>,
    shutdown: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shards: Arc<Vec<Shard>> = Arc::new(
            (0..workers)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    ready: Condvar::new(),
                })
                .collect(),
        );
        let shutdown = Arc::new(AtomicBool::new(false));
        let handles = (0..workers)
            .map(|w| {
                let shards = Arc::clone(&shards);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("pd-pool-{w}"))
                    .spawn(move || worker_loop(&shards[w], &shutdown))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shards,
            shutdown,
            handles,
        }
    }

    /// Number of workers (= shards).
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Enqueues `task` on the shard `shard_key % workers` and wakes that
    /// worker. Tasks with equal keys execute FIFO on one worker.
    pub fn submit(&self, shard_key: u64, task: PoolTask) {
        let shard = &self.shards[(shard_key % self.shards.len() as u64) as usize];
        shard
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(task);
        shard.ready.notify_one();
    }

    /// Total tasks queued but not yet started.
    pub fn pending(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.queue.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in self.shards.iter() {
            shard.ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shard: &Shard, shutdown: &AtomicBool) {
    let mut queue = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if let Some(task) = queue.pop_front() {
            drop(queue);
            as_worker(|| {
                // A panicking task must not take its worker (and every
                // queued sibling) down with it. The task is boxed state
                // that is simply dropped on unwind, so the assertion is
                // sound.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            });
            queue = shard.queue.lock().unwrap_or_else(|e| e.into_inner());
        } else if shutdown.load(Ordering::SeqCst) {
            return;
        } else {
            queue = shard.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_meter_charges_and_exhausts() {
        let mut m = EffortMeter::with_budget(5);
        assert!(!m.exhausted());
        assert!(m.is_limited());
        m.charge(4);
        assert!(!m.exhausted());
        m.charge(1);
        assert!(m.exhausted());
        assert_eq!(m.spent(), 5);
        assert_eq!(m.budget(), 5);
        // Saturating, never wrapping.
        m.charge(u64::MAX);
        assert_eq!(m.spent(), u64::MAX);
    }

    #[test]
    fn zero_budget_is_exhausted_before_any_work() {
        let m = EffortMeter::with_budget(0);
        assert!(m.exhausted());
        assert_eq!(m.spent(), 0);
    }

    #[test]
    fn unlimited_meter_never_exhausts() {
        let mut m = EffortMeter::unlimited();
        assert!(!m.is_limited());
        m.charge(u64::MAX - 1);
        assert!(!m.exhausted());
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let got = par_map(&items, |&x| x * 2);
        assert_eq!(got, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_chunks_covers_everything_in_order() {
        let items: Vec<usize> = (0..997).collect();
        let sums = par_chunks(&items, 10, |c| c.iter().sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), 997 * 996 / 2);
        // Chunk order must match input order.
        let firsts = par_chunks(&items, 10, |c| c[0]);
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        assert_eq!(firsts, sorted);
    }

    #[test]
    fn par_apply_mut_respects_alignment() {
        let mut data: Vec<usize> = (0..256).collect();
        // Each aligned 8-block reverses itself; blocks must never split.
        par_apply_mut(&mut data, 8, |off, w| {
            assert_eq!(off % 8, 0);
            assert_eq!(w.len() % 8, 0);
            for b in w.chunks_mut(8) {
                b.reverse();
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / 8) * 8 + (7 - i % 8));
        }
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(parse_thread_count(Some("0")), Ok(Some(1)));
    }

    #[test]
    fn valid_thread_counts_parse() {
        assert_eq!(parse_thread_count(Some("1")), Ok(Some(1)));
        assert_eq!(parse_thread_count(Some("8")), Ok(Some(8)));
        assert_eq!(
            parse_thread_count(Some(" 4 ")),
            Ok(Some(4)),
            "whitespace trimmed"
        );
    }

    #[test]
    fn unset_or_empty_falls_back() {
        assert_eq!(parse_thread_count(None), Ok(None));
        assert_eq!(parse_thread_count(Some("")), Ok(None));
    }

    #[test]
    fn unparseable_values_are_reported_not_swallowed() {
        assert_eq!(parse_thread_count(Some("abc")), Err("abc".to_owned()));
        assert_eq!(parse_thread_count(Some("-2")), Err("-2".to_owned()));
        assert_eq!(parse_thread_count(Some("4.5")), Err("4.5".to_owned()));
    }

    #[test]
    fn par_map_vec_preserves_order_and_ownership() {
        let items: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let got = par_map_vec(items, |s| s.len());
        assert_eq!(got.len(), 100);
        assert_eq!(got[7], 1);
        assert_eq!(got[42], 2);
    }

    #[test]
    fn worker_pool_shards_by_key_and_drains_on_drop() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let done = Arc::new(AtomicUsize::new(0));
        // Same-key tasks must run FIFO on one worker: record the order.
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..32usize {
            let done = Arc::clone(&done);
            let order = Arc::clone(&order);
            pool.submit(
                7,
                Box::new(move || {
                    order.lock().unwrap().push(i);
                    done.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 32);
        let order = order.lock().unwrap();
        assert_eq!(*order, (0..32).collect::<Vec<_>>(), "same shard is FIFO");
    }

    #[test]
    fn worker_pool_survives_panicking_tasks() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..20u64 {
            let done = Arc::clone(&done);
            pool.submit(
                i,
                Box::new(move || {
                    if i % 4 == 0 {
                        panic!("injected task panic");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        drop(pool);
        assert_eq!(
            done.load(Ordering::SeqCst),
            15,
            "non-panicking tasks all ran"
        );
    }

    #[test]
    fn worker_pool_tasks_run_under_the_nested_guard() {
        let pool = WorkerPool::new(1);
        let ids = Arc::new(Mutex::new(Vec::new()));
        let ids2 = Arc::clone(&ids);
        pool.submit(
            0,
            Box::new(move || {
                // Inside a pool worker, par_map must degrade to the serial
                // loop: every element is mapped on this very thread.
                let items: Vec<usize> = (0..8).collect();
                let threads = par_map(&items, |_| std::thread::current().id());
                ids2.lock().unwrap().extend(threads);
            }),
        );
        drop(pool);
        let ids = ids.lock().unwrap();
        assert_eq!(ids.len(), 8);
        assert!(
            ids.iter().all(|&t| t == ids[0]),
            "no nested threads spawned"
        );
    }

    #[test]
    fn nested_calls_run_serially_but_correctly() {
        let items: Vec<usize> = (0..64).collect();
        let got = par_map(&items, |&x| {
            let inner: Vec<usize> = (0..8).collect();
            par_map(&inner, |&y| x * 8 + y).iter().sum::<usize>()
        });
        for (x, &s) in got.iter().enumerate() {
            assert_eq!(s, (0..8).map(|y| x * 8 + y).sum::<usize>());
        }
    }
}
