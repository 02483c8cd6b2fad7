//! Tunable parameters of the decomposition.
//!
//! ## Parallelism knobs
//!
//! The decomposer parallelises four independent stages through `pd-par`
//! (scoped threads; no external dependency): the exhaustive group
//! search's trial iterations, the per-output combine step (run once per
//! iteration and shared by every trial), the pair-list split of large
//! expressions, and the rewrite's pair products + output bucketing. Control is environment-based so a `PdConfig` stays a pure
//! description of the *algorithm*:
//!
//! * `PD_THREADS=N` — worker count (default: available cores; `1`
//!   disables all threading). Results are bit-identical at any setting —
//!   parallel reductions preserve sequential order, and the group search
//!   picks the same first-minimum candidate.
//! * `PD_TIMING=1` — print per-phase wall times of every iteration body,
//!   group-search trials included: `split`, `merge`, `nullspace`,
//!   `lindep`, `sizered`, `identities` (leader naming and the identity
//!   search), then `score` in a trial (substitutions and the counted
//!   objective) or `rewrite` in the committed run (substitutions and the
//!   rewrite proper). The combine step and the group variables'
//!   null-spaces are built once per iteration, outside the trials, and
//!   are not timed. [`crate::refine`] prints its worklist, close and
//!   arbitration phases under the same flag.

/// Whether `PD_TIMING` is set (read once per process): the iteration
/// body and [`crate::refine`] then print per-phase wall times to stderr.
pub(crate) fn timing() -> bool {
    static TIMING: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *TIMING.get_or_init(|| std::env::var_os("PD_TIMING").is_some())
}

/// Configuration of [`crate::ProgressiveDecomposer`].
///
/// Defaults follow the paper: group size `k = 4` (§5.1: "In our experiments
/// we always use k = 4 but different values of k can be used"), identities
/// enumerated over bounded-depth expression trees (§5.5), and all four
/// basis optimisations enabled. The `enable_*` switches exist for the
/// ablation experiments. Parallelism is *not* configured here — see the
/// module docs for the `PD_THREADS` environment knob.
#[derive(Clone, Debug, PartialEq)]
pub struct PdConfig {
    /// Group size `k`: how many variables are abstracted per iteration.
    pub group_size: usize,
    /// Maximum number of basis variables multiplied together when
    /// enumerating candidate identities (the paper's bounded expression
    /// tree depth).
    pub identity_product_depth: usize,
    /// Maximum number of candidate groups evaluated during the exhaustive
    /// group search (once primary inputs are exhausted). Beyond this a
    /// co-occurrence heuristic picks the group.
    pub exhaustive_group_limit: usize,
    /// Cap on generator products enumerated per null-space membership test.
    pub nullspace_product_cap: usize,
    /// Skip the outer-side linear-dependence search when the pair list's
    /// outers exceed this many XOR terms in total (exact elimination over
    /// multi-million-term polynomials is useless and slow; see
    /// `pd_core::lindep`).
    pub lindep_outer_term_cap: usize,
    /// Hard bound on main-loop iterations.
    pub max_iterations: usize,
    /// Maximum extra literals a substitution identity may introduce when
    /// eliminating a basis element.
    pub substitution_growth_limit: usize,
    /// Enable the Boolean-division pair merge through null-spaces (§5.2).
    pub enable_nullspace_merging: bool,
    /// Enable basis minimisation by linear dependence (§5.3).
    pub enable_linear_minimisation: bool,
    /// Enable the local size-reduction rewrite (§5.4).
    pub enable_size_reduction: bool,
    /// Enable identity discovery and application (§5.5).
    pub enable_identities: bool,
    /// Let [`crate::refine`]'s final close round arbitrate between the
    /// incrementally refined hierarchy and a from-scratch refined
    /// re-decomposition, keeping whichever synthesises to fewer gates.
    /// This bounds the incremental path's quality regression to zero at
    /// the cost of one extra decomposition; disable to time or test the
    /// pure worklist path.
    pub refine_arbitration: bool,
    /// Deterministic trial budget for one decomposition run (group-search
    /// candidates charged against a [`pd_par::EffortMeter`]); the main
    /// loop stops early — still emitting a valid, equivalent hierarchy —
    /// once spent. `u64::MAX` is unlimited.
    pub effort_budget: u64,
}

impl Default for PdConfig {
    fn default() -> Self {
        PdConfig {
            group_size: 4,
            identity_product_depth: 2,
            exhaustive_group_limit: 3000,
            nullspace_product_cap: 64,
            lindep_outer_term_cap: 100_000,
            max_iterations: 512,
            substitution_growth_limit: 6,
            enable_nullspace_merging: true,
            enable_linear_minimisation: true,
            enable_size_reduction: true,
            enable_identities: true,
            refine_arbitration: true,
            effort_budget: u64::MAX,
        }
    }
}

impl PdConfig {
    /// The paper's configuration (`k = 4`, everything enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the group size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_group_size(mut self, k: usize) -> Self {
        assert!(k > 0, "group size must be positive");
        self.group_size = k;
        self
    }

    /// Disables basis refinement only: linear-dependence minimisation
    /// (§5.3) and local size reduction (§5.4). Pair merging and identity
    /// discovery stay on.
    ///
    /// The flow pipeline uses this for its `decompose` stage; its
    /// `reduce` stage then re-runs with refinement enabled, so the two
    /// stages report the refinement's contribution separately.
    pub fn without_basis_refinement(mut self) -> Self {
        self.enable_linear_minimisation = false;
        self.enable_size_reduction = false;
        self
    }

    /// Disables the refine pass's final arbitration round (see
    /// [`PdConfig::refine_arbitration`]); used to exercise or time the
    /// pure incremental worklist.
    pub fn without_refine_arbitration(mut self) -> Self {
        self.refine_arbitration = false;
        self
    }

    /// Sets the decomposition trial budget (see
    /// [`PdConfig::effort_budget`]).
    pub fn with_effort_budget(mut self, budget: u64) -> Self {
        self.effort_budget = budget;
        self
    }

    /// Disables every optional optimisation (plain kernel-style
    /// decomposition); used as the ablation baseline.
    pub fn bare(mut self) -> Self {
        self.enable_nullspace_merging = false;
        self.enable_linear_minimisation = false;
        self.enable_size_reduction = false;
        self.enable_identities = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PdConfig::default();
        assert_eq!(c.group_size, 4);
        assert!(c.enable_nullspace_merging);
        assert!(c.enable_identities);
    }

    #[test]
    fn bare_disables_optimisations() {
        let c = PdConfig::default().bare();
        assert!(!c.enable_nullspace_merging);
        assert!(!c.enable_linear_minimisation);
        assert!(!c.enable_size_reduction);
        assert!(!c.enable_identities);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_group_size_panics() {
        let _ = PdConfig::default().with_group_size(0);
    }
}
