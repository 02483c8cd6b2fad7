//! # pd-flow — the unified synthesis pipeline
//!
//! Wires the workspace's islands — `pd-core`, `pd-factor`, `pd-cells`,
//! `pd-netlist`, `pd-bdd` — into one staged, resumable flow, the role the
//! paper's Maple + Design Compiler toolchain played end to end:
//!
//! ```text
//!          ANF specification
//!                 │
//!  ┌──────────────▼──────────────┐
//!  │ 1 Decompose   (pd-core)     │  Progressive Decomposition, basis
//!  │                             │  refinement (§5.3/§5.4) disabled
//!  ├──────────────▼──────────────┤
//!  │ 2 Reduce      (pd-core)     │  incremental LinDep + SizeReduce
//!  │                             │  (worklist + divisor-table reuse +
//!  │                             │  arbitration close)
//!  ├──────────────▼──────────────┤
//!  │ 3 Factor      (pd-factor)   │  workspace-wide shared-divisor
//!  │                             │  extraction over all leaders
//!  ├──────────────▼──────────────┤
//!  │ 4 TechMap     (pd-cells)    │  pattern absorption onto the library
//!  ├──────────────▼──────────────┤
//!  │ 5 STA         (pd-cells)    │  load-aware area/delay report
//!  └─────────────────────────────┘
//! ```
//!
//! Every transforming stage emits a netlist snapshot that is
//! **differentially verified** against the stage's input with the
//! `pd-bdd` oracle (one [`VerifyContext`] shared across all boundaries,
//! so the variable order is computed once and repeated structure is a
//! node-table hit). The pipeline therefore doubles as an end-to-end
//! correctness harness: a bug in any stage surfaces as a BDD
//! counterexample at that stage's boundary, not as a wrong answer three
//! stages later. Set `PD_SKIP_VERIFY=1` (or [`FlowConfig::verify`] =
//! `false`) to benchmark the transforms alone.
//!
//! Each stage runs its one algorithm inside a panic fence and, when
//! that fails, falls back to the cheapest step that still hands on a
//! verified netlist:
//!
//! ```text
//! reduce :  incremental ──► skip
//! factor :  global ───────► skip
//! techmap:  planner ──────► greedy
//! ```
//!
//! `skip` passes the previous stage's (already verified) hierarchy and
//! netlist through unchanged. TechMap cannot be skipped — STA needs a
//! mapped netlist — so its fallback is the 1:1 greedy mapper.
//! Decompose and STA have a single rung each.
//!
//! The oracle's node table is bounded by [`FlowConfig::node_cap`]
//! (`PD_NODE_CAP`), and each boundary is **one capped check** under the
//! context's fixed interleaved order. A check that overflows the cap is
//! *undecided*, not wrong: on a stage's earlier degradation rung it fails
//! that rung (with [`FlowError::Capacity`]) so the fallback rung gets its
//! chance; on the stage's *final* rung the stage commits with
//! `verified: false` and an explicit `unverified` degradation note
//! instead of aborting an otherwise sound flow.
//!
//! ## Example
//!
//! ```
//! use pd_flow::{Flow, FlowConfig, FlowInput};
//! use pd_anf::{Anf, VarPool};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pool = VarPool::new();
//! let carry = Anf::parse("a*b ^ b*c ^ c*a", &mut pool)?;
//! let input = FlowInput::new("fa_carry", pool, vec![("co".into(), carry)]);
//! let mut flow = Flow::new(input, FlowConfig::default());
//! let summary = flow.run_to_completion()?;
//! assert_eq!(summary.stages.len(), 5);
//! assert!(summary.stages.iter().all(|s| s.verified != Some(false)));
//! assert!(summary.area_um2 > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! [`batch`] runs many circuits through the flow on the `pd-par` pool;
//! [`spec`] resolves circuit names (every `pd-arith` generator, text
//! specs, structural Verilog) and parses `pd flow` specification files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod json;
pub mod serve;
pub mod spec;

use cache::{CachedStage, StageCache};
use json::Json;
use pd_anf::{Anf, VarPool};
use pd_bdd::{CapacityError, ExactMismatch, VerifyContext};
use pd_cells::{map, report_mapped, unmap, AreaDelayReport, CellLibrary, MappedNetlist};
use pd_core::{refine, Decomposition, PdConfig, ProgressiveDecomposer};
use pd_factor::{GlobalConfig, GlobalNetwork};
use pd_netlist::Netlist;
use pd_par::EffortMeter;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

pub use batch::{batch_to_json, run_batch, run_one, BatchOutcome};
pub use serve::Server;
pub use spec::{builtin_circuits, circuit_by_name, FlowSpec};

/// One circuit entering the pipeline.
#[derive(Clone, Debug)]
pub struct FlowInput {
    /// Display name (used in reports and batch output).
    pub name: String,
    /// Pool declaring the specification's variables.
    pub pool: VarPool,
    /// Named outputs in Reed–Muller form.
    pub outputs: Vec<(String, Anf)>,
}

impl FlowInput {
    /// Bundles a named specification.
    pub fn new(name: impl Into<String>, pool: VarPool, outputs: Vec<(String, Anf)>) -> Self {
        FlowInput {
            name: name.into(),
            pool,
            outputs,
        }
    }
}

/// The five pipeline stages, in execution order.
///
/// This is the flow's "stage trait" surface: a stage consumes the current
/// [`Flow`] state (spec → decomposition → netlist → mapped netlist),
/// produces the next state plus a [`StageReport`], and — unless
/// verification is off — must hand back a netlist snapshot the BDD oracle
/// can compare against the stage's input. Stages are driven one at a time
/// by [`Flow::run_next`], which is what makes the flow resumable: state
/// can be inspected (or a batch interrupted) between any two stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageKind {
    /// Progressive Decomposition with basis refinement disabled.
    Decompose,
    /// Incremental refinement of the stage-1 hierarchy: linear-dependence
    /// minimisation (§5.3) and local size reduction (§5.4) applied in
    /// place by `pd_core::refine`'s dirty-block worklist. Its fallback
    /// rung (`skip`) hands the stage-1 hierarchy on unchanged.
    Reduce,
    /// Workspace-wide shared-divisor resynthesis: every block's leaders
    /// and every output enter one `pd_factor::GlobalNetwork`, whose
    /// hash-consed divisor table extracts kernels/co-kernels shared
    /// across blocks and whose single synthesiser stitches the divisor
    /// nets across cone boundaries. Its fallback rung (`skip`) hands the
    /// Reduce netlist on unchanged.
    Factor,
    /// Technology mapping onto the cell library (`pd-cells`).
    TechMap,
    /// Static timing analysis; reporting only, no transformation.
    Sta,
}

impl StageKind {
    /// All stages in pipeline order.
    pub const ALL: [StageKind; 5] = [
        StageKind::Decompose,
        StageKind::Reduce,
        StageKind::Factor,
        StageKind::TechMap,
        StageKind::Sta,
    ];

    /// The stage's snake_case name (stable; used in JSON stats).
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Decompose => "decompose",
            StageKind::Reduce => "reduce",
            StageKind::Factor => "factor",
            StageKind::TechMap => "techmap",
            StageKind::Sta => "sta",
        }
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which failure a [`FaultPlan`] injects at its target stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic inside the stage's rung fence (exercises the panic fences
    /// and the degradation ladder).
    Panic,
    /// Zero the stage's effort budget (exercises deterministic early
    /// stopping; metered stages complete and record the exhaustion).
    Budget,
    /// Synthesise a BDD counterexample at the stage's verify boundary
    /// (exercises mismatch handling without an actual logic bug).
    Mismatch,
    /// Starve the BDD oracle at the stage's verify boundary: the check
    /// runs under a tiny node cap so it overflows deterministically
    /// (exercises capacity degradation — rung fall-through and the
    /// explicit `unverified` verdict).
    Capacity,
}

impl FaultMode {
    /// The mode's `PD_FAULT` spelling.
    pub fn name(self) -> &'static str {
        match self {
            FaultMode::Panic => "panic",
            FaultMode::Budget => "budget",
            FaultMode::Mismatch => "mismatch",
            FaultMode::Capacity => "capacity",
        }
    }
}

/// A deterministic fault to inject into one stage of the flow — the
/// testing harness behind the `PD_FAULT=<stage>:<mode>[:<count>]`
/// environment knob.
///
/// `fires` is the number of injection opportunities the fault consumes
/// before disarming. For `panic`/`mismatch`/`capacity` each rung attempt
/// of the target stage's degradation ladder is one opportunity, so
/// `reduce:panic:1` fails the incremental rung and lands on `skip`, and
/// `reduce:panic:2` exhausts the ladder into a typed
/// [`FlowError::Panicked`]. `mismatch` and `capacity` fire only at a
/// verify boundary, and `skip` has none, so they cannot fail it. A
/// `capacity` fault that is still armed at a stage's final verifying
/// rung does not kill the flow: the boundary commits as explicitly
/// *unverified* (see [`StageReport::verified`]). Injection is counted,
/// never timed, so a faulted run is bit-identical at any `PD_THREADS`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Stage at which the fault fires.
    pub stage: StageKind,
    /// What kind of failure is injected.
    pub mode: FaultMode,
    /// How many injection opportunities the fault consumes (≥ 1).
    pub fires: u32,
}

impl FaultPlan {
    /// Parses the `PD_FAULT` syntax `<stage>:<mode>[:<count>]`, e.g.
    /// `reduce:panic` or `factor:mismatch:2`.
    ///
    /// # Errors
    ///
    /// Describes the accepted stages/modes when a component is unknown,
    /// or the count constraint when it is not a positive integer.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut parts = text.split(':');
        let stage_name = parts.next().unwrap_or("");
        let stage = StageKind::ALL
            .into_iter()
            .find(|s| s.name() == stage_name)
            .ok_or_else(|| {
                format!(
                    "unknown stage {stage_name:?} (known: decompose, reduce, factor, \
                     techmap, sta)"
                )
            })?;
        let mode = match parts.next() {
            Some("panic") => FaultMode::Panic,
            Some("budget") => FaultMode::Budget,
            Some("mismatch") => FaultMode::Mismatch,
            Some("capacity") => FaultMode::Capacity,
            other => {
                return Err(format!(
                    "unknown fault mode {other:?} (known: panic, budget, mismatch, capacity)"
                ))
            }
        };
        let fires = match parts.next() {
            None => 1,
            Some(n) => n
                .parse::<u32>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("fault count must be a positive integer, got {n:?}"))?,
        };
        if let Some(extra) = parts.next() {
            return Err(format!("trailing fault component {extra:?}"));
        }
        Ok(FaultPlan { stage, mode, fires })
    }

    /// Reads and parses the `PD_FAULT` environment variable.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::parse`] failures (an unset variable is
    /// `Ok(None)`).
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("PD_FAULT") {
            Ok(v) => FaultPlan::parse(&v).map(Some),
            Err(_) => Ok(None),
        }
    }
}

/// Reads a `PD_BUDGET_*` effort knob; unset means unlimited.
///
/// # Panics
///
/// Panics on a malformed value — a typo'd budget silently running
/// unbudgeted would defeat the harness, so it fails fast instead.
fn env_budget(key: &str) -> u64 {
    match std::env::var(key) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{key} must be a non-negative integer, got {v:?}")),
        Err(_) => u64::MAX,
    }
}

/// Node cap the `capacity` fault mode imposes for one starved check:
/// small enough that no real boundary fits under any variable order, so
/// the overflow is deterministic on every circuit.
const FAULT_NODE_CAP: usize = 4;

/// Reads the `PD_NODE_CAP` oracle-capacity knob; unset means
/// [`pd_bdd::DEFAULT_NODE_CAP`].
///
/// # Panics
///
/// Panics on a malformed or zero value — like the budgets, a typo'd cap
/// silently running uncapped would defeat the knob, so it fails fast.
fn env_node_cap() -> usize {
    match std::env::var("PD_NODE_CAP") {
        Ok(v) => v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| panic!("PD_NODE_CAP must be a positive integer, got {v:?}")),
        Err(_) => pd_bdd::DEFAULT_NODE_CAP,
    }
}

/// Per-stage knobs plus the global verification switch.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Decomposer configuration (`Decompose` runs it with
    /// [`PdConfig::without_basis_refinement`]; `Reduce` refines with it
    /// as given, and passes the hierarchy through when it enables
    /// neither refinement pass).
    pub pd: PdConfig,
    /// Workspace-wide extraction knobs for the `Factor` stage.
    pub global_extract: GlobalConfig,
    /// Cell library for `TechMap`/`STA`.
    pub library: CellLibrary,
    /// Verify every stage boundary with the BDD oracle. Defaults to
    /// `true` unless the `PD_SKIP_VERIFY` environment variable is set —
    /// the escape hatch for benchmarking the transforms alone.
    pub verify: bool,
    /// Effort budget (decomposer candidate trials) for the `Decompose`
    /// stage. The meter counts work, never wall-clock, so a budgeted run
    /// stops at the same place on every machine and thread count.
    /// Defaults to the `PD_BUDGET_DECOMPOSE` environment variable, or
    /// unlimited (`u64::MAX`).
    pub budget_decompose: u64,
    /// Effort budget for the `Reduce` stage (worklist close rounds plus
    /// the arbitration re-decomposition). Defaults to
    /// `PD_BUDGET_REDUCE`, or unlimited.
    pub budget_reduce: u64,
    /// Effort budget for the `Factor` stage's global divisor search
    /// (candidate divisors considered). Defaults to `PD_BUDGET_FACTOR`,
    /// or unlimited.
    pub budget_factor: u64,
    /// Deterministic fault to inject (see [`FaultPlan`]). Defaults to
    /// the `PD_FAULT` environment variable, or `None`.
    pub fault: Option<FaultPlan>,
    /// Node-table capacity of the BDD oracle (allocated nodes). Each
    /// boundary is one check under this cap; an overflow at a stage's
    /// final rung commits `verified: false` (see
    /// [`StageReport::verified`]). Defaults to the `PD_NODE_CAP`
    /// environment variable, or [`pd_bdd::DEFAULT_NODE_CAP`].
    pub node_cap: usize,
    /// Root of the content-addressed stage cache (see [`cache`]). `None`
    /// disables caching. Defaults to the `PD_CACHE_DIR` environment
    /// variable, or off; [`FlowConfig::default`] only records the path
    /// and reads nothing from it. The directory holds stage entries and
    /// nothing else, so setting it never changes a result. A flow with
    /// an armed [`FaultPlan`] never touches the cache regardless of this
    /// setting.
    pub cache_dir: Option<PathBuf>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            pd: PdConfig::default(),
            global_extract: GlobalConfig::default(),
            library: CellLibrary::umc130(),
            verify: std::env::var_os("PD_SKIP_VERIFY").is_none(),
            budget_decompose: env_budget("PD_BUDGET_DECOMPOSE"),
            budget_reduce: env_budget("PD_BUDGET_REDUCE"),
            budget_factor: env_budget("PD_BUDGET_FACTOR"),
            // A malformed PD_FAULT fails fast: the harness silently not
            // injecting would make every fault test vacuously green.
            fault: FaultPlan::from_env().unwrap_or_else(|e| panic!("PD_FAULT: {e}")),
            node_cap: env_node_cap(),
            cache_dir: std::env::var_os("PD_CACHE_DIR").map(PathBuf::from),
        }
    }
}

/// What one stage did: wall time, verification verdict, and the size
/// metrics that make sense for it (the rest stay `None`).
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Which stage ran.
    pub stage: StageKind,
    /// Transform wall time in milliseconds (verification excluded).
    pub wall_ms: f64,
    /// Oracle wall time in milliseconds (0 when skipped).
    pub verify_ms: f64,
    /// `Some(true)` = boundary proved equivalent; `None` = not checked
    /// (verification off, or a reporting-only stage); `Some(false)` =
    /// the oracle's one capped check overflowed [`FlowConfig::node_cap`]
    /// at the stage's final degradation rung — the boundary is
    /// explicitly **unverified** (undecided, not wrong), and
    /// `degradation_reason` says so.
    ///
    /// A genuine counterexample never shows up here: it aborts the flow
    /// with [`FlowError::Mismatch`].
    pub verified: Option<bool>,
    /// Largest node table the oracle reached across the checks run so
    /// far (cumulative over the shared context; verifying stages only).
    pub verify_peak_nodes: Option<usize>,
    /// Literal count of the stage's representation (hierarchy literals
    /// for the decomposition stages, factored-network literals after
    /// `Factor`).
    pub literals: Option<usize>,
    /// Live gate count of the stage's netlist snapshot.
    pub gates: Option<usize>,
    /// Blocks in the hierarchy (decomposition stages).
    pub blocks: Option<usize>,
    /// Mapped cell instances (`TechMap`/`STA`).
    pub cells: Option<usize>,
    /// Total cell area in µm² (`TechMap`/`STA`).
    pub area_um2: Option<f64>,
    /// Critical-path delay in ns (`STA`).
    pub delay_ns: Option<f64>,
    /// Output with the worst arrival time (`STA`).
    pub critical_output: Option<String>,
    /// Worklist refinement attempts (incremental `Reduce` only).
    pub refine_passes: Option<usize>,
    /// Leaders eliminated by refinement (incremental `Reduce` only).
    pub refine_leaders_removed: Option<usize>,
    /// Existing leaders reused as divisors instead of duplicated
    /// (incremental `Reduce` only: divisor-table hits in the worklist
    /// plus close-round CSE merges).
    pub refine_reuses: Option<usize>,
    /// Whether the arbitration close replaced the worklist result with a
    /// from-scratch refined re-decomposition (incremental `Reduce` only).
    /// When `true`, the `refine_*` counters describe the worklist run
    /// whose result was discarded, not the hierarchy this stage emitted.
    pub refine_arbitrated: Option<bool>,
    /// Committed divisors consumed by two or more cones (global
    /// `Factor` only).
    pub shared_divisors: Option<usize>,
    /// Consumer substitutions beyond each divisor's first use (global
    /// `Factor` only).
    pub divisor_reuse_count: Option<usize>,
    /// Rung of the stage's degradation ladder that produced this result,
    /// when it was **not** the preferred first rung: `"skip"` (Reduce,
    /// Factor) or `"greedy"` (TechMap). `None` means the stage ran at
    /// full strength.
    pub degraded: Option<String>,
    /// Why the stage did not run at full strength: the failures of the
    /// rungs above the one that succeeded, a budget exhaustion, or an
    /// injected fault that had no effect ("inert").
    pub degradation_reason: Option<String>,
    /// Deterministic effort spent by the stage's meter (metered stages
    /// only: `Decompose`, `Reduce`, global `Factor`).
    pub effort_spent: Option<u64>,
    /// Stage-cache disposition: `"hit"` (served from the
    /// content-addressed store, including its original verify verdict),
    /// `"miss"` (cache enabled, stage computed live and stored), or
    /// `None` (caching off or fenced off by an armed fault).
    pub cache: Option<String>,
}

impl StageReport {
    fn new(stage: StageKind) -> Self {
        StageReport {
            stage,
            wall_ms: 0.0,
            verify_ms: 0.0,
            verified: None,
            verify_peak_nodes: None,
            literals: None,
            gates: None,
            blocks: None,
            cells: None,
            area_um2: None,
            delay_ns: None,
            critical_output: None,
            refine_passes: None,
            refine_leaders_removed: None,
            refine_reuses: None,
            refine_arbitrated: None,
            shared_divisors: None,
            divisor_reuse_count: None,
            degraded: None,
            degradation_reason: None,
            effort_spent: None,
            cache: None,
        }
    }

    /// Appends `note` to the degradation reason (keeping any earlier
    /// note, separated by `"; "`).
    fn note_degradation(&mut self, note: String) {
        self.degradation_reason = Some(match self.degradation_reason.take() {
            Some(prev) => format!("{prev}; {note}"),
            None => note,
        });
    }

    /// Serialises the report as one JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("stage", Json::from(self.stage.name())),
            ("wall_ms", Json::from(self.wall_ms)),
            ("verify_ms", Json::from(self.verify_ms)),
            (
                "verified",
                match self.verified {
                    Some(b) => Json::from(b),
                    None => Json::Null,
                },
            ),
        ];
        if let Some(v) = self.verify_peak_nodes {
            fields.push(("verify_peak_nodes", Json::from(v)));
        }
        if let Some(v) = self.literals {
            fields.push(("literals", Json::from(v)));
        }
        if let Some(v) = self.gates {
            fields.push(("gates", Json::from(v)));
        }
        if let Some(v) = self.blocks {
            fields.push(("blocks", Json::from(v)));
        }
        if let Some(v) = self.cells {
            fields.push(("cells", Json::from(v)));
        }
        if let Some(v) = self.area_um2 {
            fields.push(("area_um2", Json::from(v)));
        }
        if let Some(v) = self.delay_ns {
            fields.push(("delay_ns", Json::from(v)));
        }
        if let Some(v) = &self.critical_output {
            fields.push(("critical_output", Json::from(v.as_str())));
        }
        if let Some(v) = self.refine_passes {
            fields.push(("refine_passes", Json::from(v)));
        }
        if let Some(v) = self.refine_leaders_removed {
            fields.push(("refine_leaders_removed", Json::from(v)));
        }
        if let Some(v) = self.refine_reuses {
            fields.push(("refine_reuses", Json::from(v)));
        }
        if let Some(v) = self.refine_arbitrated {
            fields.push(("refine_arbitrated", Json::from(v)));
        }
        if let Some(v) = self.shared_divisors {
            fields.push(("shared_divisors", Json::from(v)));
        }
        if let Some(v) = self.divisor_reuse_count {
            fields.push(("divisor_reuse_count", Json::from(v)));
        }
        if let Some(v) = &self.degraded {
            fields.push(("degraded", Json::from(v.as_str())));
        }
        if let Some(v) = &self.degradation_reason {
            fields.push(("degradation_reason", Json::from(v.as_str())));
        }
        if let Some(v) = self.effort_spent {
            // u64::MAX-adjacent spends do not occur in practice; the f64
            // round-trip is exact for every realistic trial count.
            fields.push(("effort_spent", Json::Num(v as f64)));
        }
        if let Some(v) = &self.cache {
            fields.push(("cache", Json::from(v.as_str())));
            if v == "hit" && self.verified == Some(true) {
                fields.push(("verified_from_cache", Json::from(true)));
            }
        }
        Json::obj(fields)
    }
}

/// Why a flow stopped.
#[derive(Clone, Debug)]
pub enum FlowError {
    /// The BDD oracle found a counterexample at a stage boundary.
    Mismatch {
        /// Stage whose output differs from its input.
        stage: StageKind,
        /// The differing output and a distinguishing assignment.
        mismatch: ExactMismatch,
    },
    /// The oracle's BDDs exceeded the node cap (the boundary is
    /// *undecided*, not wrong). This fails a non-final degradation rung,
    /// so the cheaper rungs below get their chance; at a stage's final
    /// rung the stage commits as explicitly unverified instead, so a
    /// flow never aborts with it.
    Capacity {
        /// Stage whose verification overflowed.
        stage: StageKind,
        /// The manager's capacity error.
        error: CapacityError,
    },
    /// The flow panicked mid-stage: every rung of the stage's
    /// degradation ladder panicked inside its fence (the payload is the
    /// last panic message). Also produced by the batch driver's outer
    /// fence for panics escaping the flow itself (e.g. input
    /// validation).
    Panicked(String),
    /// A flow specification failed to parse. `position` is the byte
    /// offset for JSON syntax errors, `None` for semantic errors
    /// (unknown keys, type mismatches).
    BadSpec {
        /// Byte offset of the syntax error, when known.
        position: Option<usize>,
        /// What was wrong with the specification.
        message: String,
    },
    /// [`Flow::run_next`] was called after the last stage.
    Exhausted,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Mismatch { stage, mismatch } => write!(
                f,
                "stage {stage} broke output {:?} (distinguishing assignment found)",
                mismatch.output
            ),
            FlowError::Capacity { stage, error } => {
                write!(f, "stage {stage} verification overflowed: {error}")
            }
            FlowError::Panicked(msg) => write!(f, "flow panicked: {msg}"),
            FlowError::BadSpec { position, message } => match position {
                Some(pos) => write!(f, "bad flow spec at byte {pos}: {message}"),
                None => write!(f, "bad flow spec: {message}"),
            },
            FlowError::Exhausted => f.write_str("flow already completed all stages"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Summary of a completed flow.
#[derive(Clone, Debug)]
pub struct FlowSummary {
    /// Circuit name.
    pub name: String,
    /// Specification literal count.
    pub spec_literals: usize,
    /// Primary-input count.
    pub inputs: usize,
    /// One report per executed stage, in order.
    pub stages: Vec<StageReport>,
    /// Final cell area (µm²).
    pub area_um2: f64,
    /// Final critical-path delay (ns).
    pub delay_ns: f64,
    /// Final cell count.
    pub cells: usize,
}

impl FlowSummary {
    /// Serialises the summary (with nested stage reports) as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name.as_str())),
            ("spec_literals", Json::from(self.spec_literals)),
            ("inputs", Json::from(self.inputs)),
            ("area_um2", Json::from(self.area_um2)),
            ("delay_ns", Json::from(self.delay_ns)),
            ("cells", Json::from(self.cells)),
            (
                "stages",
                Json::Arr(self.stages.iter().map(StageReport::to_json).collect()),
            ),
        ])
    }
}

/// A staged, resumable run of the synthesis pipeline on one circuit.
///
/// Construct with [`Flow::new`], then either step with [`Flow::run_next`]
/// (inspecting [`Flow::netlist`] / [`Flow::decomposition`] /
/// [`Flow::mapped`] between stages) or drive to the end with
/// [`Flow::run_to_completion`].
#[derive(Clone, Debug)]
pub struct Flow {
    cfg: FlowConfig,
    name: String,
    /// The untouched input pool (the oracle's variable order is built
    /// from it).
    input_pool: VarPool,
    /// Working pool: grows leader/divisor variables as stages run.
    pool: VarPool,
    spec: Vec<(String, Anf)>,
    decomposition: Option<Decomposition>,
    netlist: Option<Netlist>,
    mapped: Option<MappedNetlist>,
    sta: Option<AreaDelayReport>,
    verifier: Option<VerifyContext>,
    reports: Vec<StageReport>,
    next: usize,
    /// Remaining injection opportunities of [`FlowConfig::fault`].
    fault_remaining: u32,
    /// Whether the armed fault fired during the stage currently running
    /// (reset by [`Flow::run_next`]; used to detect inert faults).
    fault_fired: bool,
    /// Whether the rung currently executing is the last of its stage's
    /// degradation ladder (set by [`Flow::run_ladder`]); capacity at the
    /// final rung degrades to `unverified` instead of failing the rung,
    /// because there is nothing cheaper left to fall through to.
    on_final_rung: bool,
    /// Content-addressed stage cache, when [`FlowConfig::cache_dir`] is
    /// set and no fault is armed (a faulted flow must actually exercise
    /// the machinery the fault targets).
    cache: Option<StageCache>,
    /// True while every stage so far was served from the cache. The
    /// first live stage clears it: stages downstream of live state may
    /// not consume cached artifacts keyed to the pristine chain (they
    /// would be correct — the chain fingerprints inputs — but mixing
    /// makes `wall_ms` attribution lie; a full prefix is the useful
    /// resume unit).
    cache_intact: bool,
}

impl Flow {
    /// Prepares a flow; nothing runs until [`Flow::run_next`].
    pub fn new(input: FlowInput, cfg: FlowConfig) -> Self {
        let fault_remaining = cfg.fault.map_or(0, |f| f.fires);
        let cache = match (&cfg.cache_dir, cfg.fault) {
            (Some(dir), None) => StageCache::open(dir, &input.pool, &input.outputs, &cfg),
            _ => None,
        };
        Flow {
            cfg,
            name: input.name,
            input_pool: input.pool.clone(),
            pool: input.pool,
            spec: input.outputs,
            decomposition: None,
            netlist: None,
            mapped: None,
            sta: None,
            verifier: None,
            reports: Vec::new(),
            next: 0,
            fault_remaining,
            fault_fired: false,
            on_final_rung: false,
            cache,
            cache_intact: true,
        }
    }

    /// The circuit's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input specification.
    pub fn spec(&self) -> &[(String, Anf)] {
        &self.spec
    }

    /// Reports of the stages executed so far.
    pub fn reports(&self) -> &[StageReport] {
        &self.reports
    }

    /// The stage [`Flow::run_next`] would execute, or `None` when done.
    pub fn next_stage(&self) -> Option<StageKind> {
        StageKind::ALL.get(self.next).copied()
    }

    /// The current netlist snapshot (set from the `Decompose` stage on).
    pub fn netlist(&self) -> Option<&Netlist> {
        self.netlist.as_ref()
    }

    /// The current hierarchy (refined in place by `Reduce`).
    pub fn decomposition(&self) -> Option<&Decomposition> {
        self.decomposition.as_ref()
    }

    /// The mapped netlist (set by `TechMap`).
    pub fn mapped(&self) -> Option<&MappedNetlist> {
        self.mapped.as_ref()
    }

    /// The timing report (set by `STA`).
    pub fn sta(&self) -> Option<&AreaDelayReport> {
        self.sta.as_ref()
    }

    /// Runs the next stage and returns its report.
    ///
    /// Each stage executes a **degradation ladder**: an ordered list of
    /// rungs, each inside its own panic fence, each committing flow state
    /// only after its boundary verifies. A rung failure (panic, red
    /// oracle, BDD overflow) is recorded and the next rung tried; only a
    /// ladder whose every rung failed aborts the flow, with the last
    /// rung's error.
    ///
    /// # Errors
    ///
    /// [`FlowError::Mismatch`] / [`FlowError::Capacity`] /
    /// [`FlowError::Panicked`] when a stage's whole ladder failed, or
    /// [`FlowError::Exhausted`] when all five stages have run.
    pub fn run_next(&mut self) -> Result<&StageReport, FlowError> {
        let stage = self.next_stage().ok_or(FlowError::Exhausted)?;
        self.fault_fired = false;
        if let Some(report) = self.serve_cached(stage) {
            self.next += 1;
            self.reports.push(report);
            return Ok(self.reports.last().expect("just pushed"));
        }
        let mut report = match stage {
            StageKind::Decompose => self.stage_decompose()?,
            StageKind::Reduce => self.stage_reduce()?,
            StageKind::Factor => self.stage_factor()?,
            StageKind::TechMap => self.stage_techmap()?,
            StageKind::Sta => self.stage_sta()?,
        };
        if self.cache.is_some() {
            report.cache = Some("miss".to_owned());
            self.store_cached(stage, &report);
        }
        self.next += 1;
        self.reports.push(report);
        Ok(self.reports.last().expect("just pushed"))
    }

    /// Attempts to serve the next stage from the content-addressed cache
    /// (only while the whole prefix so far was cached — see
    /// [`Flow::cache_intact`]). On a hit, applies the cached flow state
    /// and returns the stage's original report re-marked `cache: "hit"`;
    /// on a miss, clears `cache_intact` so the rest of the run computes
    /// live.
    fn serve_cached(&mut self, stage: StageKind) -> Option<StageReport> {
        if !self.cache_intact {
            return None;
        }
        let entry = match self.cache.as_ref().and_then(|c| c.load(self.next)) {
            Some(e) if e.report.is_some() => e,
            _ => {
                self.cache_intact = false;
                return None;
            }
        };
        let mut report = entry.report.expect("checked above");
        // A cached stage replays its committed state in dependency
        // order: pool first (expressions index into it), hierarchy next
        // (its netlist snapshot is recomputed), then any explicit
        // netlist/mapped/timing artifacts.
        if let Some(pool) = entry.pool {
            self.pool = pool;
        }
        if let Some(d) = entry.decomposition {
            self.netlist = Some(d.to_netlist());
            self.decomposition = Some(d);
        }
        if let Some(nl) = entry.netlist {
            self.netlist = Some(nl);
        }
        if let Some(m) = entry.mapped {
            self.mapped = Some(m);
        }
        if let Some(s) = entry.sta {
            self.sta = Some(s);
        }
        report.cache = Some("hit".to_owned());
        if let Some(note) = self.inert_fault_note(stage) {
            report.note_degradation(note);
        }
        Some(report)
    }

    /// Stores a just-computed stage's report and committed state. A
    /// stage that finished explicitly unverified is never cached — the
    /// store may only ever serve results that were green (or knowingly
    /// unchecked under `verify = false`, a distinct key) when computed.
    fn store_cached(&mut self, stage: StageKind, report: &StageReport) {
        let cache = match &self.cache {
            Some(c) => c,
            None => return,
        };
        if report.verified == Some(false) {
            return;
        }
        let mut entry = CachedStage {
            report: Some(report.clone()),
            ..CachedStage::default()
        };
        match stage {
            StageKind::Decompose | StageKind::Reduce => {
                entry.pool = Some(self.pool.clone());
                entry.decomposition = self.decomposition.clone();
            }
            StageKind::Factor => {
                entry.pool = Some(self.pool.clone());
                entry.netlist = self.netlist.clone();
            }
            StageKind::TechMap => {
                entry.mapped = self.mapped.clone();
                entry.netlist = self.netlist.clone();
            }
            StageKind::Sta => {
                entry.sta = self.sta.clone();
            }
        }
        cache.store(self.next, stage, &entry);
    }

    /// True when the armed fault targets `stage` with `mode` and still
    /// has injection opportunities left.
    fn fault_armed(&self, stage: StageKind, mode: FaultMode) -> bool {
        self.fault_remaining > 0
            && self
                .cfg
                .fault
                .is_some_and(|f| f.stage == stage && f.mode == mode)
    }

    /// The stage's effort budget, after the `budget` fault mode (which
    /// zeroes it, consuming one injection opportunity).
    fn effective_budget(&mut self, stage: StageKind) -> u64 {
        if self.fault_armed(stage, FaultMode::Budget) {
            self.fault_remaining -= 1;
            self.fault_fired = true;
            return 0;
        }
        match stage {
            StageKind::Decompose => self.cfg.budget_decompose,
            StageKind::Reduce => self.cfg.budget_reduce,
            StageKind::Factor => self.cfg.budget_factor,
            StageKind::TechMap | StageKind::Sta => u64::MAX,
        }
    }

    /// Fires the `panic` fault mode. Called at the top of every rung,
    /// *inside* the rung's fence, so the injected panic exercises the
    /// exact recovery path a real one would.
    fn inject_panic_if_armed(&mut self, stage: StageKind, rung: &str) {
        if self.fault_armed(stage, FaultMode::Panic) {
            self.fault_remaining -= 1;
            self.fault_fired = true;
            panic!("injected fault: stage {stage}, rung {rung}");
        }
    }

    /// A fault aimed at this stage that never found an injection point
    /// (e.g. `mismatch` on a stage that runs no verification) is
    /// consumed and reported rather than silently ignored, so a faulted
    /// run always leaves a trace.
    fn inert_fault_note(&mut self, stage: StageKind) -> Option<String> {
        let plan = self.cfg.fault?;
        if plan.stage != stage || self.fault_fired || self.fault_remaining == 0 {
            return None;
        }
        self.fault_remaining -= 1;
        self.fault_fired = true;
        Some(format!(
            "fault {:?} targeted stage {stage} but found no injection point (inert)",
            plan.mode.name()
        ))
    }

    /// Drives one stage's degradation ladder (see [`Flow::run_next`]).
    fn run_ladder(
        &mut self,
        stage: StageKind,
        rungs: Vec<(&'static str, RungBody<'_>)>,
    ) -> Result<StageReport, FlowError> {
        let mut failures: Vec<String> = Vec::new();
        let mut last: Option<FlowError> = None;
        let total = rungs.len();
        for (i, (name, body)) in rungs.into_iter().enumerate() {
            self.on_final_rung = i + 1 == total;
            // Rungs only mutate flow state after their boundary verifies,
            // so a caught unwind leaves the previous stage's state intact
            // and the next rung starts clean.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.inject_panic_if_armed(stage, name);
                body(self)
            }))
            .unwrap_or_else(|payload| Err(FlowError::Panicked(panic_message(payload))));
            match attempt {
                Ok(mut report) => {
                    if i > 0 {
                        report.degraded = Some(name.to_owned());
                        report.note_degradation(failures.join("; "));
                    }
                    if let Some(note) = self.inert_fault_note(stage) {
                        report.note_degradation(note);
                    }
                    return Ok(report);
                }
                Err(e) => {
                    failures.push(format!("rung {name}: {e}"));
                    last = Some(e);
                }
            }
        }
        Err(last.expect("every ladder has at least one rung"))
    }

    /// Runs every remaining stage and summarises.
    ///
    /// # Errors
    ///
    /// Propagates the first stage failure (see [`Flow::run_next`]).
    pub fn run_to_completion(&mut self) -> Result<FlowSummary, FlowError> {
        while self.next < StageKind::ALL.len() {
            self.run_next()?;
        }
        let sta = self.sta.as_ref().expect("STA stage ran");
        let mut inputs = pd_anf::VarSet::new();
        for (_, e) in &self.spec {
            inputs.extend(e.support().iter());
        }
        Ok(FlowSummary {
            name: self.name.clone(),
            spec_literals: self.spec.iter().map(|(_, e)| e.literal_count()).sum(),
            inputs: inputs.len(),
            stages: self.reports.clone(),
            area_um2: sta.area_um2,
            delay_ns: sta.delay_ns,
            cells: sta.cell_count,
        })
    }

    /// Verifies `new` against the previous snapshot (or the ANF spec when
    /// there is none yet), timing the check into `report`.
    ///
    /// A [`CapacityError`] here means the oracle's capped check
    /// overflowed. On a non-final degradation rung it fails the rung —
    /// the cheaper machinery below may produce a boundary that fits. On
    /// the final rung, with nothing left to fall through to, the stage
    /// commits with `verified: Some(false)` and an explicit degradation
    /// note instead of killing an otherwise sound flow.
    fn verify_boundary(
        &mut self,
        report: &mut StageReport,
        new: &Netlist,
    ) -> Result<(), FlowError> {
        // The `mismatch` fault mode fires here — before the real oracle,
        // and regardless of `verify`, so the handling path is exercised
        // even in benchmark (no-verify) configurations.
        if self.fault_armed(report.stage, FaultMode::Mismatch) {
            self.fault_remaining -= 1;
            self.fault_fired = true;
            return Err(FlowError::Mismatch {
                stage: report.stage,
                mismatch: ExactMismatch {
                    output: "<injected>".into(),
                    assignment: Vec::new(),
                },
            });
        }
        if !self.cfg.verify {
            return Ok(());
        }
        // The `capacity` fault mode starves the oracle instead: this one
        // check runs under a tiny node cap (restored afterwards), so it
        // overflows deterministically.
        // Placed after the verify gate — with the oracle off there is no
        // injection point and the fault is reported inert.
        let starve = self.fault_armed(report.stage, FaultMode::Capacity);
        if starve {
            self.fault_remaining -= 1;
            self.fault_fired = true;
        }
        let t = std::time::Instant::now();
        let node_cap = self.cfg.node_cap;
        // A starved check must also re-seed the context: structure the
        // shared manager already holds would absorb the check as pure
        // node-table hits (zero allocations), and a cap only limits
        // allocation. Later boundaries simply rebuild their tables.
        if starve || self.verifier.is_none() {
            let mut ctx = VerifyContext::new(&self.input_pool);
            ctx.set_node_cap(node_cap);
            self.verifier = Some(ctx);
        }
        let ctx = self.verifier.as_mut().expect("seeded above");
        if starve {
            ctx.set_node_cap(FAULT_NODE_CAP);
        }
        let stage = report.stage;
        let outcome = match &self.netlist {
            Some(prev) => ctx.check_netlists(prev, new),
            None => ctx.check_netlist_vs_anf(new, &self.spec),
        };
        if starve {
            ctx.set_node_cap(node_cap);
        }
        report.verify_ms = t.elapsed().as_secs_f64() * 1e3;
        report.verify_peak_nodes = Some(ctx.peak_nodes());
        match outcome {
            Ok(None) => {
                report.verified = Some(true);
                Ok(())
            }
            Ok(Some(mismatch)) => Err(FlowError::Mismatch { stage, mismatch }),
            Err(error) if self.on_final_rung => {
                report.verified = Some(false);
                report.note_degradation(format!(
                    "boundary unverified: {error} (raise PD_NODE_CAP to decide it)"
                ));
                Ok(())
            }
            Err(error) => Err(FlowError::Capacity { stage, error }),
        }
    }

    /// The Decompose rung: run the decomposer under `cfg` (metered by
    /// `cfg.effort_budget`), snapshot, record metrics, verify, commit
    /// state.
    fn run_decomposition_stage(&mut self, cfg: PdConfig) -> Result<StageReport, FlowError> {
        let mut report = StageReport::new(StageKind::Decompose);
        let t = std::time::Instant::now();
        let mut meter = EffortMeter::with_budget(cfg.effort_budget);
        let d = ProgressiveDecomposer::new(cfg).decompose_metered(
            self.input_pool.clone(),
            self.spec.clone(),
            &mut meter,
        );
        let nl = d.to_netlist();
        report.wall_ms = t.elapsed().as_secs_f64() * 1e3;
        report.literals = Some(d.hierarchy_literal_count());
        report.blocks = Some(d.blocks.len());
        report.gates = Some(live_gates(&nl));
        report.effort_spent = Some(meter.spent());
        if meter.exhausted() {
            report.note_degradation(format!(
                "effort budget exhausted after {} trials",
                meter.spent()
            ));
        }
        self.verify_boundary(&mut report, &nl)?;
        self.pool = d.pool.clone();
        self.decomposition = Some(d);
        self.netlist = Some(nl);
        Ok(report)
    }

    fn stage_decompose(&mut self) -> Result<StageReport, FlowError> {
        let budget = self.effective_budget(StageKind::Decompose);
        let mut cfg = self.cfg.pd.clone().without_basis_refinement();
        cfg.effort_budget = cfg.effort_budget.min(budget);
        // Decompose has no cheaper algorithm to fall back to — its single
        // rung is fenced, so a panic surfaces as a typed error.
        self.run_ladder(
            StageKind::Decompose,
            vec![(
                "decompose",
                Box::new(move |f: &mut Flow| f.run_decomposition_stage(cfg)),
            )],
        )
    }

    /// One incremental-Reduce rung: refine the stage-1 hierarchy in
    /// place under `cfg`; the BDD oracle then proves the refined netlist
    /// equivalent to stage 1's.
    fn reduce_incremental(&mut self, cfg: PdConfig) -> Result<StageReport, FlowError> {
        let mut report = StageReport::new(StageKind::Reduce);
        let t = std::time::Instant::now();
        let mut d = self.decomposition.as_ref().expect("decompose ran").clone();
        let stats = refine(&mut d, &cfg);
        let nl = d.to_netlist();
        report.wall_ms = t.elapsed().as_secs_f64() * 1e3;
        report.literals = Some(d.hierarchy_literal_count());
        report.blocks = Some(d.blocks.len());
        report.gates = Some(live_gates(&nl));
        report.refine_passes = Some(stats.passes);
        report.refine_leaders_removed = Some(stats.leaders_removed);
        report.refine_reuses = Some(stats.leader_reuses);
        report.refine_arbitrated = Some(stats.arbitrated);
        report.effort_spent = Some(stats.effort_spent);
        if stats.budget_exhausted {
            report.note_degradation(format!(
                "effort budget exhausted after {} trials",
                stats.effort_spent
            ));
        }
        self.verify_boundary(&mut report, &nl)?;
        self.pool = d.pool.clone();
        self.decomposition = Some(d);
        self.netlist = Some(nl);
        Ok(report)
    }

    /// The Reduce pass-through: hand the stage-1 hierarchy and its
    /// (already verified) netlist on unchanged. Nothing moves, so there
    /// is no boundary to verify and no way for it to fail (short of an
    /// injected panic).
    fn reduce_skip(&mut self) -> Result<StageReport, FlowError> {
        let mut report = StageReport::new(StageKind::Reduce);
        let d = self.decomposition.as_ref().expect("decompose ran");
        report.literals = Some(d.hierarchy_literal_count());
        report.blocks = Some(d.blocks.len());
        report.gates = self.netlist.as_ref().map(live_gates);
        Ok(report)
    }

    /// The `Reduce` stage ladder: incremental → skip. A config that
    /// enables neither refinement pass runs the pass-through alone.
    fn stage_reduce(&mut self) -> Result<StageReport, FlowError> {
        let refines = self.cfg.pd.enable_linear_minimisation || self.cfg.pd.enable_size_reduction;
        if !refines {
            let mut report = self.reduce_skip()?;
            if let Some(note) = self.inert_fault_note(StageKind::Reduce) {
                report.note_degradation(note);
            }
            return Ok(report);
        }
        let budget = self.effective_budget(StageKind::Reduce);
        let mut cfg = self.cfg.pd.clone();
        cfg.effort_budget = cfg.effort_budget.min(budget);
        let rungs: Vec<(&'static str, RungBody<'_>)> = vec![
            (
                "incremental",
                Box::new(move |f: &mut Flow| f.reduce_incremental(cfg)),
            ),
            ("skip", Box::new(|f: &mut Flow| f.reduce_skip())),
        ];
        self.run_ladder(StageKind::Reduce, rungs)
    }

    /// The global-Factor rung: workspace-wide shared-divisor
    /// resynthesis. Every leader of every block plus every output enters
    /// ONE network, so a divisor is extracted once no matter how many
    /// blocks rediscover it, and the shared synthesiser stitches the
    /// divisor nets across cone boundaries.
    fn factor_global(&mut self, cfg: GlobalConfig) -> Result<StageReport, FlowError> {
        let mut report = StageReport::new(StageKind::Factor);
        let d = self.decomposition.as_ref().expect("decompose ran");
        let t = std::time::Instant::now();
        let mut scratch = self.pool.clone();
        let mut net = GlobalNetwork::new();
        for (bi, block) in d.blocks.iter().enumerate() {
            for (v, e) in &block.basis {
                net.add_leader(bi, *v, e);
            }
        }
        for (name, e) in &d.outputs {
            net.add_output(name, e);
        }
        let stats = net.extract(&mut scratch, &cfg);
        let (nl, extracted) = net.synthesize_choosing();
        report.wall_ms = t.elapsed().as_secs_f64() * 1e3;
        report.literals = Some(if extracted {
            net.literal_count()
        } else {
            d.hierarchy_literal_count()
        });
        report.gates = Some(live_gates(&nl));
        report.shared_divisors = Some(if extracted { stats.shared_divisors } else { 0 });
        report.divisor_reuse_count = Some(if extracted {
            stats.divisor_reuse_count
        } else {
            0
        });
        report.effort_spent = Some(stats.effort_spent);
        if stats.budget_exhausted {
            report.note_degradation(format!(
                "effort budget exhausted after {} trials",
                stats.effort_spent
            ));
        }
        self.verify_boundary(&mut report, &nl)?;
        self.pool = scratch;
        self.netlist = Some(nl);
        Ok(report)
    }

    /// The Factor pass-through: hand the Reduce netlist on unchanged.
    /// Nothing moves, so there is no boundary to verify and no way for
    /// it to fail (short of an injected panic).
    fn factor_skip(&mut self) -> Result<StageReport, FlowError> {
        let mut report = StageReport::new(StageKind::Factor);
        let d = self.decomposition.as_ref().expect("decompose ran");
        report.literals = Some(d.hierarchy_literal_count());
        report.gates = self.netlist.as_ref().map(live_gates);
        Ok(report)
    }

    /// The `Factor` stage ladder: global → skip.
    fn stage_factor(&mut self) -> Result<StageReport, FlowError> {
        let budget = self.effective_budget(StageKind::Factor);
        let mut cfg = self.cfg.global_extract.clone();
        cfg.effort_budget = cfg.effort_budget.min(budget);
        let rungs: Vec<(&'static str, RungBody<'_>)> = vec![
            ("global", Box::new(move |f: &mut Flow| f.factor_global(cfg))),
            ("skip", Box::new(|f: &mut Flow| f.factor_skip())),
        ];
        self.run_ladder(StageKind::Factor, rungs)
    }

    /// One TechMap rung: map with `mapper`, verify the mapping by
    /// re-expressing the cells as gates, commit.
    fn techmap_with(
        &mut self,
        mapper: fn(&Netlist) -> MappedNetlist,
    ) -> Result<StageReport, FlowError> {
        let mut report = StageReport::new(StageKind::TechMap);
        let prev = self.netlist.as_ref().expect("factor ran");
        let t = std::time::Instant::now();
        let swept = prev.sweep();
        let mapped = mapper(&swept);
        // The snapshot the oracle sees is the mapped design re-expressed
        // as gates — verifying the mapper's absorption decisions, not the
        // pre-map netlist again.
        let back = unmap(&mapped, &swept);
        report.wall_ms = t.elapsed().as_secs_f64() * 1e3;
        report.cells = Some(mapped.cells.len());
        report.area_um2 = Some(mapped.area_um2(&self.cfg.library));
        report.gates = Some(live_gates(&back));
        self.verify_boundary(&mut report, &back)?;
        self.mapped = Some(mapped);
        self.netlist = Some(back);
        Ok(report)
    }

    /// The `TechMap` stage ladder: the pattern-absorbing planner, then
    /// the 1:1 greedy mapper (no absorption, strictly local, cannot
    /// misplan).
    fn stage_techmap(&mut self) -> Result<StageReport, FlowError> {
        self.run_ladder(
            StageKind::TechMap,
            vec![
                ("planner", Box::new(|f: &mut Flow| f.techmap_with(map::map))),
                (
                    "greedy",
                    Box::new(|f: &mut Flow| f.techmap_with(map::map_greedy)),
                ),
            ],
        )
    }

    fn stage_sta(&mut self) -> Result<StageReport, FlowError> {
        // Reporting only — a single fenced rung with no fallback.
        self.run_ladder(
            StageKind::Sta,
            vec![(
                "sta",
                Box::new(|f: &mut Flow| {
                    let mut report = StageReport::new(StageKind::Sta);
                    let mapped = f.mapped.as_ref().expect("techmap ran");
                    let t = std::time::Instant::now();
                    let r = report_mapped(mapped, &f.cfg.library);
                    report.wall_ms = t.elapsed().as_secs_f64() * 1e3;
                    report.cells = Some(r.cell_count);
                    report.area_um2 = Some(r.area_um2);
                    report.delay_ns = Some(r.delay_ns);
                    report.critical_output = r.critical_output.clone();
                    f.sta = Some(r);
                    Ok(report)
                }),
            )],
        )
    }
}

/// One rung of a stage's degradation ladder: runs against the flow,
/// produces the stage report or the failure the next rung recovers from.
type RungBody<'a> = Box<dyn FnOnce(&mut Flow) -> Result<StageReport, FlowError> + 'a>;

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Live (output-reachable) gate count of a netlist.
fn live_gates(nl: &Netlist) -> usize {
    nl.live_mask().iter().filter(|&&b| b).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_for(src: &[&str]) -> Flow {
        let mut pool = VarPool::new();
        let outputs: Vec<(String, Anf)> = src
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("y{i}"), Anf::parse(s, &mut pool).unwrap()))
            .collect();
        Flow::new(FlowInput::new("test", pool, outputs), FlowConfig::default())
    }

    #[test]
    fn full_adder_flows_end_to_end_with_green_oracle() {
        let mut flow = flow_for(&["a ^ b ^ cin", "a*b ^ b*cin ^ cin*a"]);
        let summary = flow.run_to_completion().unwrap();
        assert_eq!(summary.stages.len(), 5);
        for s in &summary.stages[..4] {
            assert_eq!(s.verified, Some(true), "{:?}", s.stage);
        }
        assert_eq!(summary.stages[4].verified, None, "STA transforms nothing");
        assert!(summary.area_um2 > 0.0);
        assert!(summary.delay_ns > 0.0);
        assert!(summary.cells > 0);
    }

    #[test]
    fn stages_step_individually_and_expose_state() {
        let mut flow = flow_for(&["a*b ^ a*c ^ b*c ^ d"]);
        assert_eq!(flow.next_stage(), Some(StageKind::Decompose));
        assert!(flow.netlist().is_none());
        flow.run_next().unwrap();
        assert!(flow.decomposition().is_some());
        assert!(flow.netlist().is_some());
        assert_eq!(flow.next_stage(), Some(StageKind::Reduce));
        flow.run_next().unwrap();
        flow.run_next().unwrap();
        assert_eq!(flow.next_stage(), Some(StageKind::TechMap));
        flow.run_next().unwrap();
        assert!(flow.mapped().is_some());
        flow.run_next().unwrap();
        assert!(flow.sta().is_some());
        assert!(matches!(flow.run_next(), Err(FlowError::Exhausted)));
        assert_eq!(flow.reports().len(), 5);
    }

    #[test]
    fn verification_can_be_disabled() {
        let mut pool = VarPool::new();
        let e = Anf::parse("a*b ^ c", &mut pool).unwrap();
        let cfg = FlowConfig {
            verify: false,
            ..FlowConfig::default()
        };
        let mut flow = Flow::new(FlowInput::new("noverify", pool, vec![("y".into(), e)]), cfg);
        let summary = flow.run_to_completion().unwrap();
        assert!(summary.stages.iter().all(|s| s.verified.is_none()));
        assert!(summary.stages.iter().all(|s| s.verify_ms == 0.0));
    }

    #[test]
    fn summary_json_has_per_stage_entries() {
        let mut flow = flow_for(&["a ^ b*c"]);
        let summary = flow.run_to_completion().unwrap();
        let j = summary.to_json();
        let stages = j.get("stages").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = stages
            .iter()
            .map(|s| s.get("stage").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            names,
            vec!["decompose", "reduce", "factor", "techmap", "sta"]
        );
        for s in stages {
            assert!(s.get("wall_ms").and_then(Json::as_num).is_some());
        }
        assert!(j.get("area_um2").and_then(Json::as_num).unwrap() > 0.0);
    }

    #[test]
    fn oracle_reuses_one_context_across_boundaries() {
        let mut flow = flow_for(&["a*b ^ b*c ^ c*a"]);
        flow.run_to_completion().unwrap();
        let ctx = flow.verifier.as_ref().expect("verification ran");
        // Four transforming stages, one shared context.
        assert_eq!(ctx.checks_run(), 4);
    }

    #[test]
    fn reports_carry_oracle_peak_nodes() {
        let mut flow = flow_for(&["a ^ b ^ cin", "a*b ^ b*cin ^ cin*a"]);
        let summary = flow.run_to_completion().unwrap();
        for s in &summary.stages[..4] {
            assert!(
                s.verify_peak_nodes.unwrap() > 0,
                "{:?} records the oracle's peak",
                s.stage
            );
        }
        assert!(
            summary.stages[4].verify_peak_nodes.is_none(),
            "STA checks nothing"
        );
    }

    fn faulted_cfg(fault: &str) -> FlowConfig {
        FlowConfig {
            fault: Some(FaultPlan::parse(fault).unwrap()),
            ..FlowConfig::default()
        }
    }

    #[test]
    fn capacity_fault_at_a_single_rung_stage_degrades_to_unverified() {
        let mut pool = VarPool::new();
        let e = Anf::parse("a ^ b ^ c ^ d ^ e ^ f ^ g ^ h", &mut pool).unwrap();
        let mut flow = Flow::new(
            FlowInput::new("starved", pool, vec![("y".into(), e)]),
            faulted_cfg("decompose:capacity:1"),
        );
        let summary = flow
            .run_to_completion()
            .expect("capacity at the final rung must not kill the flow");
        let dec = &summary.stages[0];
        assert_eq!(
            dec.verified,
            Some(false),
            "boundary is explicitly unverified"
        );
        assert!(
            dec.degradation_reason
                .as_deref()
                .unwrap()
                .contains("unverified"),
            "{:?}",
            dec.degradation_reason
        );
        assert!(dec.degraded.is_none(), "the rung itself succeeded");
        // The starved cap is restored: every later boundary proves green.
        for s in &summary.stages[1..4] {
            assert_eq!(s.verified, Some(true), "{:?}", s.stage);
        }
        let json = dec.to_json();
        assert_eq!(json.get("verified").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn capacity_fault_mid_ladder_falls_through_to_the_next_rung() {
        // Eight variables cannot fit under the starved 4-node cap, so
        // the injected starvation reliably fails the check.
        let mut pool = VarPool::new();
        let e = Anf::parse("a ^ b ^ c ^ d ^ e ^ f ^ g ^ h", &mut pool).unwrap();
        let mut flow = Flow::new(
            FlowInput::new("starved", pool, vec![("y".into(), e)]),
            faulted_cfg("reduce:capacity:1"),
        );
        let summary = flow.run_to_completion().unwrap();
        let red = &summary.stages[1];
        assert_eq!(
            red.degraded.as_deref(),
            Some("skip"),
            "capacity failed the incremental rung, the pass-through took over"
        );
        assert_eq!(red.verified, None, "the pass-through has no boundary");
        for s in &summary.stages[2..4] {
            assert_eq!(s.verified, Some(true), "{:?}", s.stage);
        }
        assert!(red
            .degradation_reason
            .as_deref()
            .unwrap()
            .contains("verification overflowed"));
    }

    #[test]
    fn capacity_fault_is_inert_when_verification_is_off() {
        let mut pool = VarPool::new();
        let e = Anf::parse("a*b ^ c", &mut pool).unwrap();
        let mut cfg = faulted_cfg("factor:capacity:1");
        cfg.verify = false;
        let mut flow = Flow::new(FlowInput::new("starved", pool, vec![("y".into(), e)]), cfg);
        let summary = flow.run_to_completion().unwrap();
        let fac = &summary.stages[2];
        assert!(fac.verified.is_none());
        assert!(
            fac.degradation_reason.as_deref().unwrap().contains("inert"),
            "{:?}",
            fac.degradation_reason
        );
    }
}
