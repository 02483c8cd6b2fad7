//! The Progressive Decomposition main loop (paper Fig. 5).
//!
//! ```text
//! progressiveDecomposition(List L) {
//!   identities = ∅;
//!   while (true) {
//!     G = findGroup(L, k);
//!     (B, C) = findBasis(L, G, identities);
//!     (B, C) = minimizeBasisUsingLinearDependence(B, C);
//!     (B, C) = improveBasisUsingSizeReduction(B, C);
//!     identities = identities ∪ findIdentities(B);
//!     B = ReduceBasisUsingIdentities(B, identities);
//!     L = rewriteExpr(L, B);
//!     identities = rewriteExpr(identities, B);
//!     if (all elements in L are literals) break; } }
//! ```
//!
//! Each iteration abstracts one group of `k` variables behind a minimal
//! set of *leader expressions* (a basis); rewriting replaces every
//! occurrence of a basis element by a fresh variable. The recorded
//! [`Block`]s form the hierarchical implementation; [`Decomposition`]
//! can emit it as a gate netlist and verify it against the input
//! specification.

use crate::config::PdConfig;
use crate::group::{find_group_metered, live_vars};
use crate::identities::{find_identities, IdentityStore};
use crate::lindep;
use crate::pairs::{Pair, PairList};
use crate::size_reduce;
use pd_anf::{Anf, Monomial, NullSpace, Var, VarKind, VarPool, VarSet};
use pd_netlist::{Netlist, Synthesizer};
use pd_par::EffortMeter;
use rand_free::SplitMix;
use std::collections::HashMap;

/// One building block: a variable group and the leader expressions
/// computed from it.
#[derive(Clone, Debug)]
pub struct Block {
    /// Main-loop iteration that produced this block (1-based).
    pub iteration: u32,
    /// The abstracted group, in ascending variable order.
    pub group: Vec<Var>,
    /// Leaders: fresh variable and its expression over `group`.
    pub basis: Vec<(Var, Anf)>,
    /// Group variables forwarded unchanged (their leader is themselves).
    pub passthrough: Vec<Var>,
    /// Leaders eliminated by substitution identities: `var := expr` over
    /// the other leaders of this block (informational; already inlined).
    pub substitutions: Vec<(Var, Anf)>,
}

/// Events recorded while decomposing; enough to reproduce the paper's
/// Fig. 6 execution trace.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// An iteration began on the given group.
    IterationStart {
        /// 1-based iteration number.
        iteration: u32,
        /// The chosen group.
        group: Vec<Var>,
        /// Literal count of the expression list before the iteration.
        literals: usize,
    },
    /// Number of Boolean-division (null-space) merges performed.
    NullspaceMerges(usize),
    /// Pairs eliminated by linear-dependence minimisation.
    LinearMinimised(usize),
    /// Literal counts before/after local size reduction.
    SizeReduced(usize, usize),
    /// An identity (expression ≡ 0) was discovered.
    IdentityFound(Anf),
    /// A leader was eliminated: `var := expr`.
    Substitution(Var, Anf),
    /// Final basis of the iteration: `(leader var, expression)` plus
    /// passthrough variables.
    BasisFinal(Vec<(Var, Anf)>, Vec<Var>),
    /// Literal count of the rewritten list.
    Rewritten(usize),
    /// The iteration made no progress; group variables were retired.
    NoProgress(Vec<Var>),
}

/// A completed decomposition.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// The input specification (name, expression over primary inputs).
    pub spec: Vec<(String, Anf)>,
    /// Building blocks in creation (topological) order.
    pub blocks: Vec<Block>,
    /// Final output expressions over leader variables (usually literals).
    pub outputs: Vec<(String, Anf)>,
    /// Variable pool covering primary inputs and all leaders.
    pub pool: VarPool,
    /// Execution trace.
    pub trace: Vec<TraceEvent>,
    /// Iterations executed.
    pub iterations: u32,
}

/// Runs Progressive Decomposition.
///
/// # Examples
///
/// ```
/// use pd_anf::{Anf, VarPool};
/// use pd_core::{PdConfig, ProgressiveDecomposer};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pool = VarPool::new();
/// let maj7 = pd_core::examples::majority_anf(&mut pool, 7);
/// let pd = ProgressiveDecomposer::new(PdConfig::default());
/// let d = pd.decompose(pool, vec![("maj".into(), maj7)]);
/// assert!(d.check_equivalence(256, 7).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProgressiveDecomposer {
    cfg: PdConfig,
}

/// Outcome of running one iteration body (possibly as a trial).
///
/// Fresh leaders are named `Var(pool.len() + j)` without touching the
/// pool; only the committed iteration allocates them (see
/// [`IterationOutcome::allocate_leaders`]).
struct IterationOutcome {
    new_l: Vec<Anf>,
    block: Block,
    new_identities: Vec<Anf>,
    events: Vec<TraceEvent>,
    /// Fresh leader ids used, substituted ones included.
    allocated: usize,
}

impl IterationOutcome {
    /// Allocates the outcome's fresh leaders in `pool`, which must be the
    /// pool the iteration ran against. `fresh_derived` always allocates
    /// id `pool.len()` (only its name may skip ahead), so the ids match.
    fn allocate_leaders(&self, pool: &mut VarPool, iteration: u32) {
        let base = pool.len();
        for j in 0..self.allocated {
            let v = pool.fresh_derived(iteration);
            debug_assert_eq!(v, Var((base + j) as u32), "leader id mismatch");
        }
    }
}

impl ProgressiveDecomposer {
    /// Creates a decomposer with the given configuration.
    pub fn new(cfg: PdConfig) -> Self {
        ProgressiveDecomposer { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PdConfig {
        &self.cfg
    }

    /// Decomposes `outputs` (expressions over variables of `pool`).
    ///
    /// Runs under a fresh [`EffortMeter`] sized by
    /// [`PdConfig::effort_budget`]; see [`Self::decompose_metered`] to
    /// share a meter across calls.
    ///
    /// # Panics
    ///
    /// Panics if an output expression mentions a selector variable.
    pub fn decompose(&self, pool: VarPool, outputs: Vec<(String, Anf)>) -> Decomposition {
        let mut meter = EffortMeter::with_budget(self.cfg.effort_budget);
        self.decompose_metered(pool, outputs, &mut meter)
    }

    /// [`Self::decompose`] charging an external [`EffortMeter`].
    ///
    /// Group-search trials are charged in whole batches; when the meter
    /// is exhausted the main loop stops early, leaving the outputs as
    /// (possibly non-literal) expressions over the hierarchy built so
    /// far — still a valid, equivalent decomposition, just a shallower
    /// one. The stopping point depends only on the charge sequence, so
    /// budgeted runs remain bit-identical across `PD_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics if an output expression mentions a selector variable.
    pub fn decompose_metered(
        &self,
        mut pool: VarPool,
        outputs: Vec<(String, Anf)>,
        meter: &mut EffortMeter,
    ) -> Decomposition {
        let spec = outputs.clone();
        let names: Vec<String> = outputs.iter().map(|(n, _)| n.clone()).collect();
        let mut l: Vec<Anf> = outputs.into_iter().map(|(_, e)| e).collect();
        for e in &l {
            for v in e.support().iter() {
                assert!(
                    !matches!(pool.kind(v), VarKind::Selector),
                    "outputs must not mention selector variables"
                );
            }
        }
        let selectors: Vec<Var> = (0..l.len()).map(|_| pool.fresh_selector()).collect();
        let mut identities = IdentityStore::new();
        let mut finalized = VarSet::new();
        let mut blocks = Vec::new();
        let mut trace = Vec::new();
        let mut iteration = 0u32;
        // Iterations without a strict literal-count decrease; after a few,
        // the chosen group is retired so the loop provably terminates.
        let mut stagnation = 0usize;
        // Hierarchy level of each leader (primary inputs are level 0);
        // used as a tiebreak so group search prefers shallow structures.
        let mut level_of: HashMap<Var, u32> = HashMap::new();
        while iteration < self.cfg.max_iterations as u32 {
            if l.iter().all(Anf::is_literal_or_constant) {
                break;
            }
            // Budget check between iterations only: the batch that
            // crosses the budget completes, so the hierarchy at the stop
            // point is a deterministic function of the spec and config.
            if meter.exhausted() {
                break;
            }
            iteration += 1;
            // X = Σ K_i · L_i does not depend on the group: every trial
            // and the winner's re-run borrow it.
            let x = combine(&l, &selectors, &identities);
            let cfg = &self.cfg;
            let n_vars = pool.len();
            let group = find_group_metered(&l, &pool, &finalized, cfg, meter, |g| {
                let trial = run_iteration(n_vars, &x, &selectors, &identities, g, iteration, cfg);
                // Objective (§5.1): size of the rewritten expression in
                // literals; basis size and the depth of the consumed
                // leaders break ties (prefer shallow, parallel blocks).
                let rewritten: usize = trial.new_l.iter().map(Anf::literal_count).sum();
                let basis: usize = trial
                    .block
                    .basis
                    .iter()
                    .map(|(_, e)| e.literal_count())
                    .sum();
                let depth = g
                    .iter()
                    .map(|v| level_of.get(&v).copied().unwrap_or(0) as usize)
                    .max()
                    .unwrap_or(0);
                rewritten * 1024 + basis * 8 + depth.min(7)
            });
            let Some(group) = group else { break };
            let before_literals: usize = l.iter().map(Anf::literal_count).sum();
            let outcome = run_iteration(
                pool.len(),
                &x,
                &selectors,
                &identities,
                &group,
                iteration,
                &self.cfg,
            );
            if outcome.allocated == 0 {
                // Only literal leaders: abstraction is a no-op. Retire the
                // group so the search moves on; stop when nothing is left.
                trace.push(TraceEvent::NoProgress(group.iter().collect()));
                finalized.extend(group.iter());
                let live = live_vars(&l, &pool, &finalized);
                if live.is_empty() {
                    break;
                }
                continue;
            }
            let after_literals: usize = outcome.new_l.iter().map(Anf::literal_count).sum();
            if after_literals >= before_literals {
                stagnation += 1;
                if stagnation >= 3 {
                    // Repeated non-shrinking rewrites: retire this group
                    // instead of applying yet another one.
                    stagnation = 0;
                    trace.push(TraceEvent::NoProgress(group.iter().collect()));
                    finalized.extend(group.iter());
                    if live_vars(&l, &pool, &finalized).is_empty() {
                        break;
                    }
                    continue;
                }
            } else {
                stagnation = 0;
            }
            trace.push(TraceEvent::IterationStart {
                iteration,
                group: group.iter().collect(),
                literals: before_literals,
            });
            outcome.allocate_leaders(&mut pool, iteration);
            trace.extend(outcome.events);
            l = outcome.new_l;
            for id in outcome.new_identities {
                trace.push(TraceEvent::IdentityFound(id.clone()));
                identities.add(id);
            }
            // Group variables that were abstracted away are gone from L;
            // identities about them are no longer expressible.
            let replaced: VarSet = group
                .iter()
                .filter(|v| !outcome.block.passthrough.contains(v))
                .collect();
            identities.drop_vars(&replaced);
            let block_level = 1 + outcome
                .block
                .group
                .iter()
                .map(|v| level_of.get(v).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            for (v, _) in &outcome.block.basis {
                level_of.insert(*v, block_level);
            }
            blocks.push(outcome.block);
        }
        let outputs = names.into_iter().zip(l).collect();
        let d = Decomposition {
            spec,
            blocks,
            outputs,
            pool,
            trace,
            iterations: iteration,
        };
        debug_assert_eq!(d.validate(), Ok(()));
        d
    }
}

/// Substitutes every eliminated leader in `expr` until none remains.
///
/// Substitution replacements are closed over all *earlier* substitutions
/// when accepted, so dependency edges only point forward and the fixpoint
/// terminates.
fn apply_substitutions(expr: &mut Anf, subs: &[(Var, Anf)]) {
    loop {
        let mut changed = false;
        for (v, r) in subs {
            if expr.contains_var(*v) {
                *expr = expr.substitute(*v, r);
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Combines the list into one expression `X = Σ K_i · L_i` (§5.2), with
/// known zero products dropped from every `L_i`. Outputs are independent,
/// so the per-expression identity reduction and selector tagging fan out
/// on the pd-par pool.
fn combine(l: &[Anf], selectors: &[Var], identities: &IdentityStore) -> Anf {
    let tagged: Vec<(usize, &Anf)> = l.iter().enumerate().collect();
    let parts: Vec<Vec<Monomial>> = pd_par::par_map(&tagged, |&(i, e)| {
        let k = Monomial::var(selectors[i]);
        let reduced = identities.reduce(e);
        reduced.terms().map(|t| t.mul(&k)).collect()
    });
    let mut terms: Vec<Monomial> = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        terms.extend(p);
    }
    Anf::from_terms(terms)
}

/// The body of one iteration on the combined expression `x` (see
/// [`combine`]): findBasis, the three optimisations, identity discovery
/// and rewriting. Pure with respect to the caller's state, so it doubles
/// as the trial for group search. Fresh leaders are named from `n_vars`,
/// the size of the pool the iteration runs against.
fn run_iteration(
    n_vars: usize,
    x: &Anf,
    selectors: &[Var],
    identities: &IdentityStore,
    group: &VarSet,
    iteration: u32,
    cfg: &PdConfig,
) -> IterationOutcome {
    let mut events = Vec::new();
    let timing = crate::config::timing();
    let mut stamp = std::time::Instant::now();
    let lap = |label: &str, stamp: &mut std::time::Instant| {
        if timing {
            eprintln!("      [{label}: {:?}]", stamp.elapsed());
            *stamp = std::time::Instant::now();
        }
    };
    // findBasis.
    let var_ns: HashMap<Var, NullSpace> = group
        .iter()
        .map(|v| (v, identities.var_nullspace(v)))
        .collect();
    let mut pl = PairList::split(x, group, &var_ns);
    lap("split", &mut stamp);
    pl.merge_fixpoint();
    lap("merge", &mut stamp);
    if cfg.enable_nullspace_merging {
        let merges = pl.merge_nullspace(cfg.nullspace_product_cap);
        lap("nullspace", &mut stamp);
        if merges > 0 {
            events.push(TraceEvent::NullspaceMerges(merges));
        }
    }
    if cfg.enable_linear_minimisation {
        let removed = lindep::minimize(&mut pl, cfg.lindep_outer_term_cap);
        lap("lindep", &mut stamp);
        if removed > 0 {
            events.push(TraceEvent::LinearMinimised(removed));
        }
    }
    if cfg.enable_size_reduction {
        let (before, after) = size_reduce::improve(&mut pl);
        lap("sizered", &mut stamp);
        if after < before {
            events.push(TraceEvent::SizeReduced(before, after));
        }
    }
    // Name the leaders: fresh variables for non-literal inners.
    let mut leaders: Vec<(Var, Anf)> = Vec::new(); // every leader, incl. passthrough
    let mut passthrough = Vec::new();
    let mut allocated = 0usize;
    let mut leader_of_pair: Vec<Anf> = Vec::new(); // representation in rewritten L
    for p in &pl.pairs {
        if let Some(v) = p.inner.as_literal() {
            passthrough.push(v);
            leaders.push((v, p.inner.clone()));
            leader_of_pair.push(p.inner.clone());
        } else {
            let v = Var((n_vars + allocated) as u32);
            leaders.push((v, p.inner.clone()));
            leader_of_pair.push(Anf::var(v));
            allocated += 1;
        }
    }
    // findIdentities over the leaders (paper §5.5), then apply
    // substitutions s_i := f(other leaders) to shrink the basis.
    let mut new_identities: Vec<Anf> = Vec::new();
    let mut substitutions: Vec<(Var, Anf)> = Vec::new();
    if cfg.enable_identities && !leaders.is_empty() {
        let group_vars: Vec<Var> = group.iter().collect();
        let found = find_identities(&leaders, &group_vars, identities, cfg);
        lap("identities", &mut stamp);
        let fresh_vars: Vec<Var> = leaders
            .iter()
            .filter(|(v, _)| !passthrough.contains(v))
            .map(|(v, _)| *v)
            .collect();
        for f in found {
            let candidate = f
                .expr
                .terms()
                .find(|t| {
                    t.degree() == 1 && {
                        let v = t.vars().next().expect("degree 1");
                        fresh_vars.contains(&v)
                            && !substitutions.iter().any(|(sv, _)| *sv == v)
                    }
                })
                .map(|t| t.vars().next().expect("degree 1"));
            let mut applied = false;
            if let Some(v) = candidate {
                let mut replacement = f.expr.xor(&Anf::var(v));
                // Close over earlier substitutions so replacements only
                // mention surviving leaders.
                apply_substitutions(&mut replacement, &substitutions);
                let within_budget =
                    replacement.literal_count() <= 1 + cfg.substitution_growth_limit;
                // A replacement built from passthrough variables would
                // re-expand what this iteration just abstracted (and can
                // livelock the main loop); allow it only as a free alias.
                let passthrough_set: pd_anf::VarSet = passthrough.iter().copied().collect();
                let re_expands = replacement.support().intersects(&passthrough_set)
                    && replacement.literal_count() > 1;
                if within_budget && !re_expands && !replacement.contains_var(v) {
                    substitutions.push((v, replacement.clone()));
                    events.push(TraceEvent::Substitution(v, replacement));
                    applied = true;
                }
            }
            if !applied {
                new_identities.push(f.expr);
            }
        }
        // Inline substitutions into the pair-leader representations and
        // into the identities that will outlive this iteration, so no
        // eliminated leader remains referenced anywhere.
        for repr in &mut leader_of_pair {
            apply_substitutions(repr, &substitutions);
        }
        for id in &mut new_identities {
            apply_substitutions(id, &substitutions);
        }
        new_identities.retain(|id| !id.is_zero());
    }
    // Rewrite: X' = rest ⊕ Σ leader_j · outer_j, then split selectors off.
    // Pair contributions are independent products; compute them on the
    // pool, then bucket terms per output and normalise once per bucket
    // (building each output by repeated XOR would be quadratic in its
    // term count).
    let tagged_pairs: Vec<(&Pair, &Anf)> = pl.pairs.iter().zip(&leader_of_pair).collect();
    let contributions: Vec<Anf> =
        pd_par::par_map(&tagged_pairs, |&(p, repr)| repr.and(&p.outer));
    let mut new_terms: Vec<Monomial> = pl.rest.terms().cloned().collect();
    for c in contributions {
        new_terms.extend(c.into_terms());
    }
    let new_l = bucket_by_selector(&new_terms, selectors);
    lap("rewrite", &mut stamp);
    // Drop substituted leaders from the recorded basis.
    let basis: Vec<(Var, Anf)> = leaders
        .iter()
        .filter(|(v, _)| {
            !passthrough.contains(v) && !substitutions.iter().any(|(sv, _)| sv == v)
        })
        .cloned()
        .collect();
    events.push(TraceEvent::BasisFinal(basis.clone(), passthrough.clone()));
    events.push(TraceEvent::Rewritten(
        new_l.iter().map(Anf::literal_count).sum(),
    ));
    IterationOutcome {
        new_l,
        block: Block {
            iteration,
            group: group.iter().collect(),
            basis,
            passthrough,
            substitutions,
        },
        new_identities,
        events,
        allocated,
    }
}

/// Splits the unnormalised terms of `X' = Σ Lᵢ·kᵢ` into the `Lᵢ`, one per
/// selector `kᵢ`. Every term carries exactly one selector, so bucketing
/// the raw terms and normalising per bucket equals normalising `X'` first
/// — one whole sort of `X'` is skipped. Large term lists are bucketed in
/// parallel chunks, concatenated in chunk order.
fn bucket_by_selector(terms: &[Monomial], selectors: &[Var]) -> Vec<Anf> {
    let sel_of: HashMap<Var, usize> = selectors.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let chunk_buckets: Vec<Vec<Vec<Monomial>>> =
        pd_par::par_chunks(terms, PairList::PAR_SPLIT_MIN, |chunk| {
            let mut local: Vec<Vec<Monomial>> = vec![Vec::new(); selectors.len()];
            for t in chunk {
                let sel = t
                    .vars()
                    .find_map(|v| sel_of.get(&v).copied())
                    .expect("every term carries exactly one selector");
                local[sel].push(t.without(selectors[sel]));
            }
            local
        });
    let mut buckets: Vec<Vec<Monomial>> = vec![Vec::new(); selectors.len()];
    for local in chunk_buckets {
        for (bucket, mut part) in buckets.iter_mut().zip(local) {
            bucket.append(&mut part);
        }
    }
    pd_par::par_map_vec(buckets, Anf::from_terms)
}

impl Decomposition {
    /// Checks internal wiring: every variable referenced by a block's
    /// basis expressions or by an output is either a primary input or a
    /// leader defined by an earlier block.
    ///
    /// # Errors
    ///
    /// Returns a description of the first dangling reference.
    pub fn validate(&self) -> Result<(), String> {
        let mut defined = VarSet::new();
        for v in self.pool.iter() {
            if matches!(self.pool.kind(v), VarKind::Input { .. }) {
                defined.insert(v);
            }
        }
        // The specification's support counts as given even when it is not
        // input-kind: a decomposition may start from expressions over the
        // leaders of an enclosing hierarchy (the refine module's residual
        // close pass does exactly that).
        for (_, e) in &self.spec {
            defined.extend(e.support().iter());
        }
        for (bi, b) in self.blocks.iter().enumerate() {
            for (lv, expr) in &b.basis {
                for v in expr.support().iter() {
                    if !defined.contains(v) {
                        return Err(format!(
                            "block {bi}: leader {} uses undefined variable {}",
                            self.pool.name(*lv),
                            self.pool.name(v)
                        ));
                    }
                }
            }
            for (lv, _) in &b.basis {
                defined.insert(*lv);
            }
        }
        for (name, expr) in &self.outputs {
            for v in expr.support().iter() {
                if !defined.contains(v) {
                    return Err(format!(
                        "output {name} uses undefined variable {}",
                        self.pool.name(v)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Emits the hierarchical implementation as a gate netlist: one
    /// synthesised cone per leader, blocks wired in creation order.
    ///
    /// # Panics
    ///
    /// Panics if [`Decomposition::validate`] fails (which would indicate
    /// a bug in the decomposer).
    pub fn to_netlist(&self) -> Netlist {
        self.validate().expect("decomposition must be well-formed");
        let mut nl = Netlist::new();
        let mut synth = Synthesizer::new();
        for block in &self.blocks {
            for (var, expr) in &block.basis {
                let node = synth.emit(&mut nl, expr);
                synth.bind(*var, node);
            }
        }
        for (name, expr) in &self.outputs {
            let node = synth.emit(&mut nl, expr);
            nl.set_output(name, node);
        }
        nl
    }

    /// Primary-input variables of the specification.
    pub fn input_vars(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        for (_, e) in &self.spec {
            for v in e.support().iter() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        vars.sort();
        vars
    }

    /// Evaluates the hierarchy on 64 packed assignments.
    fn eval64(&self, stimulus: &HashMap<Var, u64>) -> Vec<u64> {
        let mut env: HashMap<Var, u64> = stimulus.clone();
        for block in &self.blocks {
            for (var, expr) in &block.basis {
                let v = expr.eval64(|q| env.get(&q).copied().unwrap_or(0));
                env.insert(*var, v);
            }
        }
        self.outputs
            .iter()
            .map(|(_, e)| e.eval64(|q| env.get(&q).copied().unwrap_or(0)))
            .collect()
    }

    /// Checks the hierarchy against the specification.
    ///
    /// Exhaustive for up to 20 primary inputs, otherwise `random_rounds`
    /// batches of 64 random vectors. Returns a description of the first
    /// mismatch, or `None` when equivalent (to the extent checked).
    pub fn check_equivalence(&self, random_rounds: usize, seed: u64) -> Option<String> {
        if let Err(e) = self.validate() {
            return Some(e);
        }
        let inputs = self.input_vars();
        let n = inputs.len();
        let spec_vals = |stimulus: &HashMap<Var, u64>| -> Vec<u64> {
            self.spec
                .iter()
                .map(|(_, e)| e.eval64(|q| stimulus.get(&q).copied().unwrap_or(0)))
                .collect()
        };
        let check = |stimulus: &HashMap<Var, u64>, lanes: usize| -> Option<String> {
            let got = self.eval64(stimulus);
            let want = spec_vals(stimulus);
            let mask = if lanes >= 64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                if (g ^ w) & mask != 0 {
                    let lane = ((g ^ w) & mask).trailing_zeros();
                    let assignment: Vec<String> = inputs
                        .iter()
                        .map(|v| {
                            format!(
                                "{}={}",
                                self.pool.name(*v),
                                stimulus.get(v).copied().unwrap_or(0) >> lane & 1
                            )
                        })
                        .collect();
                    return Some(format!(
                        "output {} differs at {{{}}}",
                        self.spec[i].0,
                        assignment.join(", ")
                    ));
                }
            }
            None
        };
        if n <= 20 {
            let total = 1usize << n;
            for batch in 0..total.div_ceil(64) {
                let mut stimulus = HashMap::new();
                for (j, &v) in inputs.iter().enumerate() {
                    let word = if j < 6 {
                        let mut w = 0u64;
                        for lane in 0..64u64 {
                            if lane >> j & 1 == 1 {
                                w |= 1 << lane;
                            }
                        }
                        w
                    } else if (batch >> (j - 6)) & 1 == 1 {
                        u64::MAX
                    } else {
                        0
                    };
                    stimulus.insert(v, word);
                }
                let lanes = (total - batch * 64).min(64);
                if let Some(m) = check(&stimulus, lanes) {
                    return Some(m);
                }
            }
            None
        } else {
            let mut rng = SplitMix::new(seed);
            for _ in 0..random_rounds {
                let stimulus: HashMap<Var, u64> =
                    inputs.iter().map(|&v| (v, rng.next())).collect();
                if let Some(m) = check(&stimulus, 64) {
                    return Some(m);
                }
            }
            None
        }
    }

    /// Human-readable hierarchy summary (the Fig. 3 structure): one line
    /// per block with its level, group and leaders.
    pub fn hierarchy_report(&self) -> String {
        use std::fmt::Write as _;
        let levels = self.block_levels();
        let mut out = String::new();
        for (b, lv) in self.blocks.iter().zip(&levels) {
            let group: Vec<&str> = b.group.iter().map(|&v| self.pool.name(v)).collect();
            let leaders: Vec<String> = b
                .basis
                .iter()
                .map(|(v, e)| format!("{} = {}", self.pool.name(*v), e.display(&self.pool)))
                .collect();
            let _ = writeln!(
                out,
                "level {lv} block#{}: group {{{}}} -> {}",
                b.iteration,
                group.join(", "),
                leaders.join("; ")
            );
        }
        for (name, e) in &self.outputs {
            let _ = writeln!(out, "output {name} = {}", e.display(&self.pool));
        }
        out
    }

    /// The hierarchy level of each block: 1 + max level of the blocks its
    /// group variables come from (primary inputs are level 0).
    pub fn block_levels(&self) -> Vec<u32> {
        let mut level_of_var: HashMap<Var, u32> = HashMap::new();
        let mut levels = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            let lv = 1 + b
                .group
                .iter()
                .map(|v| level_of_var.get(v).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            for (v, _) in &b.basis {
                level_of_var.insert(*v, lv);
            }
            levels.push(lv);
        }
        levels
    }

    /// Total number of leader expressions across all blocks.
    pub fn leader_count(&self) -> usize {
        self.blocks.iter().map(|b| b.basis.len()).sum()
    }

    /// Literal count of the hierarchical implementation: every block's
    /// basis expressions plus the final output expressions. This is the
    /// cost the paper's literal-count columns track, and what the flow's
    /// per-stage stats report.
    pub fn hierarchy_literal_count(&self) -> usize {
        let basis: usize = self
            .blocks
            .iter()
            .flat_map(|b| b.basis.iter())
            .map(|(_, e)| e.literal_count())
            .sum();
        let outputs: usize = self
            .outputs
            .iter()
            .map(|(_, e)| e.literal_count())
            .sum();
        basis + outputs
    }
}

/// Minimal deterministic PRNG (SplitMix64), avoiding a dependency here.
mod rand_free {
    pub struct SplitMix {
        state: u64,
    }
    impl SplitMix {
        pub fn new(seed: u64) -> Self {
            SplitMix { state: seed }
        }
        pub fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }
}

/// Ready-made specification expressions used in documentation examples and
/// tests.
pub mod examples {
    use pd_anf::{Anf, Monomial, Var, VarPool};

    /// The majority function of `n` (odd) single-bit inputs in ANF.
    ///
    /// For `n = 2ᵗ−1` (the paper's §5.5 cases) this is the XOR of all
    /// products of `(n+1)/2` distinct inputs; for other widths the true
    /// Reed–Muller form also needs larger subset sizes (the ANF
    /// coefficient of an `s`-subset is the parity of `Σ_{j≥k} C(s,j)`,
    /// odd exactly when the count of bitwise submasks `j ⊆ s` with
    /// `j ≥ k` is odd — Lucas' theorem).
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or zero.
    pub fn majority_anf(pool: &mut VarPool, n: usize) -> Anf {
        assert!(n % 2 == 1 && n > 0, "majority needs an odd input count");
        let vars: Vec<Var> = (0..n).map(|i| pool.input(&format!("a{}", i + 1), 0, i)).collect();
        let k = n.div_ceil(2);
        let mut terms = Vec::new();
        for s in (k..=n).filter(|&s| (k..=s).filter(|&j| j & s == j).count() % 2 == 1) {
            let mut combo: Vec<usize> = (0..s).collect();
            'combos: loop {
                terms.push(Monomial::from_vars(combo.iter().map(|&i| vars[i])));
                // Next s-combination.
                let mut i = s;
                loop {
                    if i == 0 {
                        break 'combos;
                    }
                    i -= 1;
                    if combo[i] != i + n - s {
                        combo[i] += 1;
                        for j in i + 1..s {
                            combo[j] = combo[j - 1] + 1;
                        }
                        break;
                    }
                }
            }
        }
        Anf::from_terms(terms)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn decompose_str(srcs: &[&str]) -> Decomposition {
        let mut pool = VarPool::new();
        let outputs: Vec<(String, Anf)> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("y{i}"), Anf::parse(s, &mut pool).unwrap()))
            .collect();
        ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, outputs)
    }

    #[test]
    fn trivial_literal_terminates_immediately() {
        let d = decompose_str(&["a"]);
        assert_eq!(d.iterations, 0);
        assert!(d.blocks.is_empty());
        assert!(d.check_equivalence(8, 1).is_none());
    }

    #[test]
    fn small_xor_converges() {
        let d = decompose_str(&["a ^ b ^ c ^ d"]);
        assert!(d.check_equivalence(64, 1).is_none());
        assert!(d
            .outputs
            .iter()
            .all(|(_, e)| e.is_literal_or_constant()));
    }

    #[test]
    fn shared_structure_across_outputs() {
        let d = decompose_str(&["a*b ^ c", "a*b ^ d"]);
        assert!(d.check_equivalence(64, 2).is_none());
    }

    #[test]
    fn majority7_reproduces_paper_trace() {
        // Fig. 6: first group {a1..a4} yields a 4:3 counter basis (s3
        // substituted via s3 = s1*s2), second group {a5,a6,a7} a 3:2
        // counter.
        let mut pool = VarPool::new();
        let maj = examples::majority_anf(&mut pool, 7);
        let d = ProgressiveDecomposer::new(PdConfig::default())
            .decompose(pool, vec![("maj".into(), maj)]);
        assert!(d.check_equivalence(256, 3).is_none(), "maj7 must verify");
        assert!(!d.blocks.is_empty());
        let b0 = &d.blocks[0];
        let group_names: Vec<&str> = b0.group.iter().map(|&v| d.pool.name(v)).collect();
        assert_eq!(group_names, vec!["a1", "a2", "a3", "a4"]);
        // The substitution s3 = s1·s2 (paper: basis reduced to {s1,s2,s4}).
        assert!(
            b0.basis.len() <= 3,
            "first basis must shrink to ≤3 leaders, got {:?}",
            b0.basis
        );
        assert!(
            !b0.substitutions.is_empty(),
            "expected the s3 = s1*s2 substitution"
        );
        // Identities like s1·s4 = 0 must be on record in the trace.
        let found_zero_product = d.trace.iter().any(|e| {
            matches!(e, TraceEvent::IdentityFound(x) if x.term_count() == 1 && x.degree() == 2)
        });
        assert!(found_zero_product, "expected zero-product identities");
    }

    #[test]
    fn fresh_leader_ids_follow_the_pool_when_names_collide() {
        // Inputs named s20..s34 collide with fresh_derived's auto names
        // (`s<pool.len()>`) once the pool reaches 20 variables, so its
        // name-skip loop runs. Trials name leaders `Var(pool.len() + j)`
        // without the pool; the committed ids must still be consecutive
        // from each iteration's starting pool.len().
        let mut spec_pool = VarPool::new();
        let maj = examples::majority_anf(&mut spec_pool, 15);
        let pool = VarPool::from_parts(
            (0..15)
                .map(|i| (format!("s{}", 20 + i), VarKind::Input { word: 0, bit: i }))
                .collect(),
        );
        let d = ProgressiveDecomposer::new(PdConfig::default())
            .decompose(pool, vec![("maj".into(), maj)]);
        assert_eq!(d.validate(), Ok(()));
        assert!(d.check_equivalence(64, 5).is_none(), "maj15 must verify");
        // 15 inputs and one selector precede the first leader.
        let mut next_id = 16;
        for b in &d.blocks {
            let mut ids: Vec<Var> = b
                .basis
                .iter()
                .chain(&b.substitutions)
                .map(|(v, _)| *v)
                .collect();
            ids.sort();
            let want: Vec<Var> = (next_id..next_id + ids.len() as u32).map(Var).collect();
            assert_eq!(ids, want, "block #{} leader ids", b.iteration);
            for v in &ids {
                assert_eq!(d.pool.kind(*v), VarKind::Derived { iteration: b.iteration });
            }
            next_id += ids.len() as u32;
        }
        assert_eq!(next_id as usize, d.pool.len(), "every leader belongs to a block");
        assert!(
            (20..next_id).any(|i| d.pool.name(Var(i)) != format!("s{i}")),
            "the name-skip loop never ran"
        );
    }

    #[test]
    fn netlist_emission_matches_spec() {
        let mut pool = VarPool::new();
        let maj = examples::majority_anf(&mut pool, 5);
        let d = ProgressiveDecomposer::new(PdConfig::default())
            .decompose(pool, vec![("maj".into(), maj)]);
        assert!(d.check_equivalence(64, 5).is_none());
        let nl = d.to_netlist();
        assert_eq!(
            pd_netlist::sim::check_equiv_anf(&nl, &d.spec, 64, 11),
            None
        );
    }

    #[test]
    fn bare_config_still_correct() {
        let mut pool = VarPool::new();
        let maj = examples::majority_anf(&mut pool, 7);
        let d = ProgressiveDecomposer::new(PdConfig::default().bare())
            .decompose(pool, vec![("maj".into(), maj)]);
        assert!(d.check_equivalence(256, 9).is_none());
    }

    #[test]
    fn block_levels_are_monotone() {
        let mut pool = VarPool::new();
        let maj = examples::majority_anf(&mut pool, 7);
        let d = ProgressiveDecomposer::new(PdConfig::default())
            .decompose(pool, vec![("maj".into(), maj)]);
        let levels = d.block_levels();
        assert!(!levels.is_empty());
        assert_eq!(levels[0], 1);
        assert!(levels.iter().all(|&l| l >= 1));
    }

    #[test]
    fn hierarchy_report_mentions_groups() {
        let d = decompose_str(&["a*b ^ a*c ^ b*c"]);
        let report = d.hierarchy_report();
        assert!(report.contains("block#"), "report:\n{report}");
    }

    #[test]
    fn selector_bucketing_matches_normalise_then_scan() {
        // Seeded unnormalised X' term lists, each term one selector times
        // a random input monomial, drawn with repetition so that terms
        // cancel. Selectors sit below or above the 128-variable mask limit;
        // every eighth list is long enough to bucket in parallel chunks.
        // Bucketing raw terms must give the same outputs as normalising X'
        // and scanning each term for its selector.
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cancelled = 0;
        for case in 0..200u32 {
            let base = if case.is_multiple_of(2) { 40 } else { 200 };
            let selectors: Vec<Var> = (0..1 + next() % 6).map(|i| Var(base + i as u32)).collect();
            let distinct: Vec<Monomial> = (0..1 + next() % 40)
                .map(|_| {
                    let sel = selectors[(next() % selectors.len() as u64) as usize];
                    let inputs = next() & 0xfff;
                    Monomial::from_vars(
                        (0..12)
                            .filter(|i| inputs >> i & 1 == 1)
                            .map(Var)
                            .chain([sel]),
                    )
                })
                .collect();
            let len = if case.is_multiple_of(8) {
                3 * PairList::PAR_SPLIT_MIN
            } else {
                (next() % 200) as usize
            };
            let terms: Vec<Monomial> = (0..len)
                .map(|_| distinct[(next() % distinct.len() as u64) as usize].clone())
                .collect();
            let got = bucket_by_selector(&terms, &selectors);
            assert_eq!(
                got,
                reference::bucket_by_selector(&terms, &selectors),
                "case {case}"
            );
            let kept: usize = got.iter().map(Anf::term_count).sum();
            cancelled += usize::from(kept < terms.len());
        }
        assert!(cancelled > 100, "terms cancelled in only {cancelled} cases");
    }
}
