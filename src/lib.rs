//! # progressive-decomposition
//!
//! A Rust reproduction of **“Progressive Decomposition: A Heuristic to
//! Structure Arithmetic Circuits”** (A. K. Verma, P. Brisk, P. Ienne —
//! DAC 2007), including every substrate the paper's toolchain relied on:
//!
//! * [`anf`] — the Boolean-ring (Reed–Muller) expression engine,
//! * [`core`] — the Progressive Decomposition heuristic itself,
//! * [`netlist`] — gate networks, synthesis from ANF, simulation,
//! * [`cells`] — a standard-cell library model, technology mapping and
//!   load-aware static timing (the Design Compiler stand-in),
//! * [`arith`] — the Table 1 benchmark circuits and manual baselines,
//! * [`bdd`] — BDD/ZDD engines for exact equivalence checking and the
//!   compact canonical ring representation of §7's future work,
//! * [`factor`] — the algebraic-factorisation (kernel extraction)
//!   baseline the paper's §2 positions as the state of the art,
//! * [`flow`] — the unified synthesis pipeline tying all of the above
//!   together, with a BDD differential-test oracle at every stage
//!   boundary.
//!
//! ## Pipeline
//!
//! The [`flow`] crate chains the substrates into the five-stage flow the
//! paper's toolchain ran end to end; every stage boundary is
//! differentially verified against the stage's input with the BDD
//! oracle (disable with `PD_SKIP_VERIFY=1` when benchmarking):
//!
//! ```text
//! ANF spec ──► decompose ──► reduce ──► factor ──► techmap ──► sta
//!             (pd-core,    (pd-core,  (pd-factor  (pd-cells   (pd-cells
//!              no §5.3/4)   refine)    global)     mapper)     timing)
//!                  │            │          │           │
//!                  ▼            ▼          ▼           ▼
//!              BDD ≡ spec   BDD ≡ prev  BDD ≡ prev  BDD ≡ prev
//! ```
//!
//! The **Reduce** stage is incremental: instead of re-running the whole
//! decomposition with the §5.3/§5.4 passes enabled (the pipeline's
//! dominant cost through PR 2), `pd_core::refine` refines the stage-1
//! hierarchy in place. A dirty-block worklist reconstructs each block's
//! pair list from its downstream consumers, runs the unchanged LinDep and
//! SizeReduce passes on it (plus a cost-gated inline of single-use
//! leaders), and re-enqueues only the blocks whose basis an applied patch
//! actually rewrote; disjoint-footprint blocks refine concurrently on the
//! `pd-par` pool. Residual non-literal outputs left by inlining are
//! re-abstracted by bounded "close" rounds of the main loop over the
//! (tiny) residue. The whole pass shares one hash-consed **divisor
//! table** of the hierarchy's leader expressions (keyed by canonical
//! monomial order): the worklist reuses an existing leader as a divisor
//! instead of minting a duplicate, and a leader-CSE sweep folds residue
//! blocks that rebuilt an existing expression onto its first
//! definition. A final *arbitration close* re-decomposes the
//! specification with refinement enabled and keeps whichever hierarchy
//! emits fewer gates, so the incremental path never maps worse than the
//! from-scratch one (this closed the historical lzd12 regression, 117
//! vs 41 cells). Every rewrite preserves `Σ inner·outer` exactly and
//! the BDD oracle re-proves the boundary, so the refined hierarchy is
//! equivalent by construction *and* by check. The from-scratch re-run
//! survives as the Reduce ladder's last rung (`full-reduce`, below);
//! `tests/table1_circuits.rs` pins both paths' literal and cell counts,
//! `FLOW_GOLDEN` on the incremental path and `FULL_REDUCE_GOLDEN` on
//! `full-reduce`.
//!
//! The **Factor** stage is workspace-wide: every block's leaders and
//! every output enter one `pd_factor::GlobalNetwork`, whose extraction
//! loop enumerates GF(2) kernels/co-kernels and cross-cone common
//! sub-XORs over *all* cones at once, hash-conses them in the shared
//! divisor table (usage-counted, so `shared_divisors` and
//! `divisor_reuse_count` land in the stage's JSON stats), and greedily
//! commits the divisor whose saving summed over all consumers is
//! largest. Commits are priced with the synthesiser's own cost model —
//! not literal counts — so OR/majority-shaped cones the emitter maps
//! specially are left alone, and a final guard returns the unextracted
//! emission if it is smaller. The per-block path survives as the Factor
//! ladder's `local` rung (below); `tests/table1_circuits.rs` pins the
//! global path's counts in `FLOW_GOLDEN` and checks that it maps to no
//! more cells than the `local` rung on the headline circuits.
//!
//! ### Caching & serving
//!
//! Setting `PD_CACHE_DIR` (or [`flow::FlowConfig::cache_dir`]) turns
//! the batch pipeline into a **cacheable service**. Every completed
//! stage — netlist/hierarchy snapshot, [`flow::StageReport`], verify
//! verdict — is stored in a content-addressed [`cache`] store under a
//! chained key `H(canonical spec ‖ config fingerprint ‖ crate version)`
//! derived with [`anf::canon`]'s stable encoding, so re-running an
//! identical spec serves every stage *already BDD-verified*
//! (`"cache": "hit"`, `"verified_from_cache": true` in the stats), and
//! a changed spec resumes computing past its unchanged prefix. Results
//! that committed explicitly unverified are never stored, and a run
//! with `PD_FAULT` armed never touches the cache. The flow learns
//! nothing across runs, so one key holds one value whatever the cache
//! history: a warm run and a cold run agree stage for stage.
//!
//! `pd serve` wraps the same pipeline in a std-only TCP/JSON-lines job
//! server ([`flow::serve`]): jobs reuse the flow-spec JSON schema, and
//! the scheduler is the batch driver refactored into **sharded worker
//! pools** (`pd_par::WorkerPool`, width `PD_WORKERS`) — one job's
//! circuits run FIFO on one shard with the batch driver's panic fencing
//! intact, so a poisoned job resolves to per-slot errors while
//! concurrent jobs stay green.
//!
//! ## Budgets, degradation ladders, fault injection
//!
//! Flow execution is *budgeted* and *fault-tolerant*. Effort is metered
//! deterministically — `pd_par::EffortMeter` counts **trials**
//! (candidate groups probed, divisors scored), never wall-clock, so the
//! same budget produces bit-identical results at any `PD_THREADS`.
//! `PD_BUDGET_DECOMPOSE`, `PD_BUDGET_REDUCE` and `PD_BUDGET_FACTOR` (or
//! the matching [`flow::FlowConfig`] fields / spec keys) cap each
//! stage; a stage that exhausts its meter finishes its current batch,
//! keeps its best-so-far result, and records the exhaustion in its
//! report. Within its budget, Reduce also *skips* the arbitration
//! re-decomposition when the worklist result's gate estimate is already
//! within a learned bound (980‰) of the entry estimate, reclaiming the
//! incremental path's speed at the arbitrated path's quality —
//! `FLOW_GOLDEN` and `FULL_REDUCE_GOLDEN` in `tests/table1_circuits.rs`
//! pin the literal and cell counts Reduce reaches with the skip on.
//!
//! Every stage runs inside its own panic fence and degrades down an
//! ordered ladder of BDD-verified fallbacks instead of failing:
//!
//! ```text
//! reduce :  incremental ──► worklist-only ──► full-reduce
//! factor :  global ───────► local ──────────► skip
//! techmap:  planner ──────► greedy
//! ```
//!
//! A rung commits only after its verify boundary is green; a rung that
//! panics, runs red, or errors is discarded and the next rung starts
//! from the same pre-stage state. Any degradation is recorded in the
//! stage's report (`degraded`, `degradation_reason`) and its JSON. Only
//! when every rung of a ladder is dead does the flow return a typed
//! [`flow::FlowError`], which a batch (`pd flow all`) reports in that
//! circuit's slot. The ladders are the only recovery layer: the lower
//! rungs run only when the rungs above them fail, so one configuration
//! means one code path. `PD_FAULT=reduce:panic:2` and
//! `PD_FAULT=factor:panic:1` drive the `full-reduce` and `local` rungs
//! directly.
//!
//! ## The BDD oracle at scale: one capped check per boundary
//!
//! The oracle's BDD manager is capped (`PD_NODE_CAP`, default 2²⁶
//! allocated slots, or [`flow::FlowConfig::node_cap`] / the spec's
//! `node_cap` key) so a hostile boundary cannot take the process down
//! with it. Each boundary is **one capped check** in the shared
//! [`bdd::VerifyContext`], under the fixed interleaved variable order.
//! A check that overflows the cap is *undecided*, not wrong: on a
//! stage's earlier degradation rung it fails that rung like any other
//! error, and on the stage's final rung the boundary is committed as
//! **explicitly unverified** — `verified: false` plus a
//! `degradation_reason` naming the cap in the stage report and its
//! JSON, `NO` in the CLI table — and the flow continues instead of
//! dying; raise `PD_NODE_CAP` to decide that boundary. After an
//! overflow the context rebuilds its manager, so the failed attempt's
//! nodes never starve a later check. Verdicts are bit-identical across
//! every `PD_THREADS` setting (`tests/flow_pipeline.rs` pins this), and
//! the stage reports carry the oracle's `verify_peak_nodes` counter. No variable reordering is
//! attempted: the largest boundary on record (budgeted mult8, 2.19M
//! nodes) stays 30× below the default cap, and multipliers — the one
//! family that grows large — are exponential under every order.
//! Specifications enter the oracle by positive-Davio expansion on the
//! manager's order ([`bdd::Bdd::from_anf`]), so a spec's intermediate
//! diagrams stay near the size of its final BDD — three8's check peaks
//! at ~800 nodes where a term-by-term XOR fold peaked at 1.85M.
//!
//! The ladders are exercised by a deterministic fault-injection
//! harness: `PD_FAULT=<stage>:<mode>[:<count>]` (modes `panic`,
//! `budget`, `mismatch`, `capacity`) makes the *count*-th injection
//! opportunity at the named stage panic, zero the stage budget, poison
//! the verify verdict, or starve the oracle's node table (re-seeding
//! the verifier so the capped check genuinely overflows). Every mode on
//! every stage ends in a completed flow with a recorded degradation, an
//! explicitly unverified boundary, or a typed error — never a process
//! abort — and `tests/fault_injection.rs` pins the full matrix.
//!
//! From the command line: `pd flow maj15,counter12`, `pd flow all`, or
//! `pd flow spec.json` with a [`flow::spec`] document. In code:
//!
//! ```
//! use progressive_decomposition::flow::{Flow, FlowConfig, FlowInput};
//! use progressive_decomposition::prelude::*;
//!
//! let mut pool = VarPool::new();
//! let maj7 = pd_core::examples::majority_anf(&mut pool, 7);
//! let input = FlowInput::new("maj7", pool, vec![("maj".into(), maj7)]);
//! let mut flow = Flow::new(input, FlowConfig::default());
//! let summary = flow.run_to_completion().expect("oracle green at every stage");
//! assert_eq!(summary.stages.len(), 5);
//! println!("{:.1}µm² {:.2}ns", summary.area_um2, summary.delay_ns);
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use progressive_decomposition::prelude::*;
//!
//! // Describe a circuit in Reed–Muller (XOR-of-products) form…
//! let mut pool = VarPool::new();
//! let maj7 = pd_core::examples::majority_anf(&mut pool, 7);
//!
//! // …decompose it into hierarchical building blocks…
//! let d = ProgressiveDecomposer::new(PdConfig::default())
//!     .decompose(pool, vec![("maj".into(), maj7)]);
//! assert!(d.check_equivalence(128, 0).is_none());
//!
//! // …and push it through the synthesis flow.
//! let netlist = d.to_netlist();
//! let report = report(&netlist, &CellLibrary::umc130());
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pd_anf as anf;
pub use pd_arith as arith;
pub use pd_bdd as bdd;
pub use pd_cache as cache;
pub use pd_cells as cells;
pub use pd_core as core;
pub use pd_factor as factor;
pub use pd_flow as flow;
pub use pd_netlist as netlist;

/// The most common imports in one place.
pub mod prelude {
    pub use pd_anf::{Anf, Monomial, NullSpace, TruthTable, Var, VarKind, VarPool, VarSet};
    pub use pd_bdd::{interleaved_order, Bdd, Zdd};
    pub use pd_cells::{report, AreaDelayReport, CellKind, CellLibrary};
    pub use pd_core::{self, Decomposition, PdConfig, ProgressiveDecomposer, TraceEvent};
    pub use pd_factor::{ExtractConfig, FactorNetwork};
    pub use pd_flow::{Flow, FlowConfig, FlowInput, FlowSummary, StageKind};
    pub use pd_netlist::{synthesize_outputs, Gate, Netlist, NodeId, Synthesizer};
}
