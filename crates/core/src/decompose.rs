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
//!
//! ## Scoring a group without rewriting
//!
//! Group search (§5.1) runs the iteration body for every candidate group
//! and keeps one number: the rewritten list's literals, then the basis
//! literals. Only the winner's re-run builds `X′ = rest ⊕ Σⱼ rⱼ·outerⱼ`
//! (`rⱼ` is pair `j`'s representation); a trial counts it. Every term of
//! `X = Σ Kᵢ·Lᵢ` carries exactly one selector `Kᵢ`, and so does every
//! term of `X′`, so `Σ lit(L′ᵢ) = lit(X′) − terms(X′)`.
//!
//! * Without substitutions each `rⱼ` is one variable: a fresh
//!   `Var(n_vars + j)` or a passthrough group variable. It occurs neither
//!   in `rest` nor in any outer, and merged inners are distinct, so no
//!   two terms of `X′` cancel and
//!   `Σ lit(L′ᵢ) = lit(rest) − terms(rest) + Σⱼ lit(outerⱼ)`.
//! * With substitutions a substituted `rⱼ` is an expression over the
//!   surviving leaders. If no `rⱼ` has a constant term, every
//!   contribution term holds a leader variable and `rest` terms hold
//!   none, so contributions cancel only among themselves: they are
//!   normalised once, and `rest` is counted as above, never cloned.
//! * A constant term in some `rⱼ` can cancel against `rest`; such trials
//!   run the full rewrite.

use crate::config::PdConfig;
use crate::group::{find_group_metered, live_vars};
use crate::identities::{find_identities, IdentityStore, Search};
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

/// Outcome of the committed iteration body ([`FoundBasis::rewrite`]).
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
            // X = Σ K_i · L_i and the group variables' null-spaces do not
            // depend on the group: every trial and the winner's re-run
            // borrow them.
            let x = combine(&l, &selectors, &identities);
            let shared = Iteration {
                n_vars: pool.len(),
                x: &x,
                var_ns: &identities.var_nullspaces(),
                identities: &identities,
            };
            let cfg = &self.cfg;
            let group = find_group_metered(&l, &pool, &finalized, cfg, meter, |g| {
                let mut laps = Laps::start();
                let found = find_basis(&shared, g, cfg, Search::Substitutions, &mut laps);
                // Objective (§5.1): size of the rewritten expression in
                // literals; basis size and the depth of the consumed
                // leaders break ties (prefer shallow, parallel blocks).
                let (rewritten, basis) = found.score(&selectors);
                laps.lap("score");
                #[cfg(test)]
                reference::check_score(&found, &selectors, (rewritten, basis), &identities);
                let depth = g
                    .iter()
                    .map(|v| level_of.get(&v).copied().unwrap_or(0) as usize)
                    .max()
                    .unwrap_or(0);
                rewritten * 1024 + basis * 8 + depth.min(7)
            });
            let Some(group) = group else { break };
            let before_literals: usize = l.iter().map(Anf::literal_count).sum();
            let mut laps = Laps::start();
            let outcome = find_basis(&shared, &group, &self.cfg, Search::All, &mut laps)
                .rewrite(&selectors, &group, iteration, &mut laps);
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

/// `PD_TIMING` laps of one iteration body: each prints the wall time
/// since the previous one.
struct Laps {
    on: bool,
    stamp: std::time::Instant,
}

impl Laps {
    fn start() -> Laps {
        Laps {
            on: crate::config::timing(),
            stamp: std::time::Instant::now(),
        }
    }

    fn lap(&mut self, label: &str) {
        if self.on {
            eprintln!("      [{label}: {:?}]", self.stamp.elapsed());
            self.stamp = std::time::Instant::now();
        }
    }
}

/// What the shared part of an iteration body finds for one group: the
/// optimised pair list, its leaders, and the substitutions that
/// eliminate some of them. A group-search trial only
/// [scores](FoundBasis::score) it; the winner's re-run
/// [rewrites](FoundBasis::rewrite) with it.
#[derive(Clone)]
struct FoundBasis {
    pl: PairList,
    /// One leader per pair, passthrough included.
    leaders: Vec<(Var, Anf)>,
    passthrough: Vec<Var>,
    /// Fresh leader ids used, substituted ones included.
    allocated: usize,
    /// Each pair's representation in the rewritten list: its leader
    /// variable, or the substituted leader's replacement.
    leader_of_pair: Vec<Anf>,
    substitutions: Vec<(Var, Anf)>,
    /// Identities found and not applied as substitutions; substitutions
    /// are inlined only by [`FoundBasis::rewrite`].
    identities: Vec<Anf>,
    /// What the identity search built: under [`Search::Substitutions`]
    /// `identities` holds only the substitution-capable ones, so only a
    /// [`Search::All`] result may be rewritten.
    search: Search,
    events: Vec<TraceEvent>,
}

/// What every find_basis run of one iteration shares, whatever the
/// group: the size of the pool it runs against (fresh leaders are named
/// from there), the combined expression `X` (see [`combine`]), and the
/// identity store with its [`IdentityStore::var_nullspaces`].
struct Iteration<'a> {
    n_vars: usize,
    x: &'a Anf,
    var_ns: &'a HashMap<Var, NullSpace>,
    identities: &'a IdentityStore,
}

/// findBasis on the combined expression, the three optimisations, leader
/// naming, and identity discovery with the substitutions it allows. Pure
/// with respect to the caller's state, so it doubles as the trial for
/// group search. A trial searches with [`Search::Substitutions`]: its
/// substitutions, and so its score, are the same, but identities that
/// cannot substitute are not built.
fn find_basis(
    it: &Iteration<'_>,
    group: &VarSet,
    cfg: &PdConfig,
    search: Search,
    laps: &mut Laps,
) -> FoundBasis {
    let mut events = Vec::new();
    let mut pl = PairList::split(it.x, group, it.var_ns);
    laps.lap("split");
    pl.merge_fixpoint();
    laps.lap("merge");
    if cfg.enable_nullspace_merging {
        let merges = pl.merge_nullspace(cfg.nullspace_product_cap);
        laps.lap("nullspace");
        if merges > 0 {
            events.push(TraceEvent::NullspaceMerges(merges));
        }
    }
    if cfg.enable_linear_minimisation {
        let removed = lindep::minimize(&mut pl, cfg.lindep_outer_term_cap);
        laps.lap("lindep");
        if removed > 0 {
            events.push(TraceEvent::LinearMinimised(removed));
        }
    }
    if cfg.enable_size_reduction {
        let (before, after) = size_reduce::improve(&mut pl);
        laps.lap("sizered");
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
            let v = Var((it.n_vars + allocated) as u32);
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
        let found = find_identities(&leaders, &group_vars, it.identities, cfg, search);
        laps.lap("identities");
        let passthrough_set: VarSet = passthrough.iter().copied().collect();
        // Fresh leaders not substituted yet: the candidates' variables.
        let mut unsubstituted: VarSet = leaders
            .iter()
            .map(|(v, _)| *v)
            .filter(|v| !passthrough_set.contains(*v))
            .collect();
        for f in found {
            let candidate = f
                .expr
                .terms()
                .find(|t| {
                    t.degree() == 1 && unsubstituted.contains(t.vars().next().expect("degree 1"))
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
                let re_expands = replacement.support().intersects(&passthrough_set)
                    && replacement.literal_count() > 1;
                if within_budget && !re_expands && !replacement.contains_var(v) {
                    unsubstituted.remove(v);
                    substitutions.push((v, replacement.clone()));
                    events.push(TraceEvent::Substitution(v, replacement));
                    applied = true;
                }
            }
            if !applied {
                new_identities.push(f.expr);
            }
        }
        // Inline substitutions into the pair-leader representations, so
        // no eliminated leader remains referenced in the rewritten list.
        for repr in &mut leader_of_pair {
            apply_substitutions(repr, &substitutions);
        }
    }
    FoundBasis {
        pl,
        leaders,
        passthrough,
        allocated,
        leader_of_pair,
        substitutions,
        identities: new_identities,
        search,
        events,
    }
}

impl FoundBasis {
    /// The recorded basis: leaders that are neither passthrough nor
    /// substituted.
    fn basis(&self) -> impl Iterator<Item = &(Var, Anf)> + '_ {
        self.leaders.iter().filter(|(v, _)| {
            !self.passthrough.contains(v) && !self.substitutions.iter().any(|(sv, _)| sv == v)
        })
    }

    /// The §5.1 objective's two counts, `(Σ lit(L′ᵢ), basis literals)`,
    /// without building `L′` where the module docs show it can be
    /// counted instead.
    fn score(&self, selectors: &[Var]) -> (usize, usize) {
        let basis = self.basis().map(|(_, e)| e.literal_count()).sum();
        // Every term of X′ carries exactly one selector, which L′ drops.
        let rest = self.pl.rest.literal_count() - self.pl.rest.term_count();
        let rewritten = if self.substitutions.is_empty() {
            // Each pair is one variable times its outer: nothing cancels.
            debug_assert!(
                self.passthrough
                    .iter()
                    .enumerate()
                    .all(|(i, v)| !self.passthrough[..i].contains(v)),
                "merged inners are distinct"
            );
            rest + self
                .pl
                .pairs
                .iter()
                .map(|p| p.outer.literal_count())
                .sum::<usize>()
        } else if self
            .leader_of_pair
            .iter()
            .any(|repr| repr.terms().next().is_some_and(Monomial::is_one))
        {
            // A constant term can cancel against `rest`: rewrite in full.
            self.rewritten_list(selectors)
                .iter()
                .map(Anf::literal_count)
                .sum()
        } else {
            // Contributions cancel only among themselves.
            let mut terms: Vec<Monomial> = Vec::new();
            for (p, repr) in self.pl.pairs.iter().zip(&self.leader_of_pair) {
                for m in repr.terms() {
                    terms.extend(p.outer.terms().map(|t| m.mul(t)));
                }
            }
            let contributions = Anf::from_terms(terms);
            rest + contributions.literal_count() - contributions.term_count()
        };
        (rewritten, basis)
    }

    /// Rewrite: `X′ = rest ⊕ Σ leader_j · outer_j`, then split selectors
    /// off. Pair contributions are independent products; compute them on
    /// the pool, then bucket terms per output and normalise once per
    /// bucket (building each output by repeated XOR would be quadratic in
    /// its term count).
    fn rewritten_list(&self, selectors: &[Var]) -> Vec<Anf> {
        let tagged_pairs: Vec<(&Pair, &Anf)> =
            self.pl.pairs.iter().zip(&self.leader_of_pair).collect();
        let contributions: Vec<Anf> =
            pd_par::par_map(&tagged_pairs, |&(p, repr)| repr.and(&p.outer));
        let mut new_terms: Vec<Monomial> = self.pl.rest.terms().cloned().collect();
        for c in contributions {
            new_terms.extend(c.into_terms());
        }
        bucket_by_selector(&new_terms, selectors)
    }

    /// The committed iteration: the rewritten list, the block, and the
    /// identities that outlive it.
    fn rewrite(
        mut self,
        selectors: &[Var],
        group: &VarSet,
        iteration: u32,
        laps: &mut Laps,
    ) -> IterationOutcome {
        debug_assert_eq!(
            self.search,
            Search::All,
            "a trial's identities are incomplete"
        );
        let new_l = self.rewritten_list(selectors);
        // No eliminated leader may remain referenced by an identity.
        let mut new_identities = std::mem::take(&mut self.identities);
        for id in &mut new_identities {
            apply_substitutions(id, &self.substitutions);
        }
        new_identities.retain(|id| !id.is_zero());
        laps.lap("rewrite");
        let basis: Vec<(Var, Anf)> = self.basis().cloned().collect();
        let mut events = self.events;
        events.push(TraceEvent::BasisFinal(
            basis.clone(),
            self.passthrough.clone(),
        ));
        events.push(TraceEvent::Rewritten(
            new_l.iter().map(Anf::literal_count).sum(),
        ));
        IterationOutcome {
            new_l,
            block: Block {
                iteration,
                group: group.iter().collect(),
                basis,
                passthrough: self.passthrough,
                substitutions: self.substitutions,
            },
            new_identities,
            events,
            allocated: self.allocated,
        }
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
                let stimulus: HashMap<Var, u64> = inputs.iter().map(|&v| (v, rng.next())).collect();
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
        let outputs: usize = self.outputs.iter().map(|(_, e)| e.literal_count()).sum();
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
        let vars: Vec<Var> = (0..n)
            .map(|i| pool.input(&format!("a{}", i + 1), 0, i))
            .collect();
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
    use crate::pairs::fixtures::next;

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
        assert!(d.outputs.iter().all(|(_, e)| e.is_literal_or_constant()));
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
        let found_zero_product = d.trace.iter().any(
            |e| matches!(e, TraceEvent::IdentityFound(x) if x.term_count() == 1 && x.degree() == 2),
        );
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
                assert_eq!(
                    d.pool.kind(*v),
                    VarKind::Derived {
                        iteration: b.iteration
                    }
                );
            }
            next_id += ids.len() as u32;
        }
        assert_eq!(
            next_id as usize,
            d.pool.len(),
            "every leader belongs to a block"
        );
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
        assert_eq!(pd_netlist::sim::check_equiv_anf(&nl, &d.spec, 64, 11), None);
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

    /// Inputs `a1..an` with ids from `pad` up, so `pad ≥ 128` gives the
    /// lexicographic-class terms Reduce's close rounds and arbitration
    /// see.
    fn padded_majority(n: usize, pad: usize) -> (VarPool, Anf) {
        let mut pool = VarPool::new();
        for i in 0..pad {
            pool.derived(&format!("pad{i}"), 0);
        }
        let maj = examples::majority_anf(&mut pool, n);
        (pool, maj)
    }

    #[test]
    fn trial_scores_match_the_full_rewrite_on_real_runs() {
        // Every group-search trial of real decompositions, identity store
        // empty or not, with and without substitutions, below and above
        // the 128-id mask limit: the counted score must equal the one
        // read off the full rewrite. (No trial here has a constant term in
        // a representation; the random bases below cover that fallback.)
        let no_identities = PdConfig {
            enable_identities: false,
            ..PdConfig::default()
        };
        type Case = (VarPool, Vec<(String, Anf)>, PdConfig);
        let mut cases: Vec<Case> = Vec::new();
        for (n, pad) in [(7, 0), (9, 0), (11, 0), (7, 130), (9, 130), (11, 130)] {
            let (pool, maj) = padded_majority(n, pad);
            let spec = vec![("maj".to_owned(), maj)];
            cases.push((pool.clone(), spec.clone(), PdConfig::default()));
            cases.push((pool, spec, no_identities.clone()));
        }
        for srcs in [
            &["a*b ^ b*c ^ c*a ^ d*e", "a ^ b ^ c ^ d ^ e", "a*b*c*d ^ e"][..],
            &["a*b ^ c*d ^ e*f ^ g*h", "a*c ^ b*d ^ e*g ^ f*h ^ a*b*c*d"][..],
        ] {
            let mut pool = VarPool::new();
            let spec = srcs
                .iter()
                .enumerate()
                .map(|(i, s)| (format!("y{i}"), Anf::parse(s, &mut pool).unwrap()))
                .collect();
            cases.push((pool, spec, PdConfig::default()));
        }
        let checks = pd_par::par_map(&cases, |(pool, spec, cfg)| {
            reference::recording(|| {
                ProgressiveDecomposer::new(cfg.clone()).decompose(pool.clone(), spec.clone());
            })
        });
        let checks: Vec<&reference::ScoreCheck> = checks.iter().flatten().collect();
        for c in &checks {
            assert_eq!(c.got, c.want, "{c:?}");
        }
        let count = |f: fn(&reference::ScoreCheck) -> bool| checks.iter().filter(|c| f(c)).count();
        assert!(count(|c| !c.identities_known) >= 1000, "empty stores");
        assert!(count(|c| c.identities_known) >= 1000, "non-empty stores");
        assert!(count(|c| c.substituted) >= 100, "substitution trials");
        assert!(count(|c| c.large) >= 1000, "trials past Var(128)");
        assert!(
            count(|c| c.large && c.substituted) >= 50,
            "substitution trials past Var(128)"
        );
    }

    /// A seeded [`FoundBasis`] over variable ids from `base`: 1–6 pairs
    /// and a rest whose terms each carry one of 1–3 selectors, literal
    /// inners as passthrough leaders, and (in two cases of three) some
    /// fresh leaders substituted by XORs of products of the survivors,
    /// a constant term included half the time.
    fn random_found_basis(state: &mut u64, base: u32) -> (FoundBasis, Vec<Var>) {
        let group: Vec<Var> = (0..4).map(|i| Var(base + i)).collect();
        let outer_vars: Vec<Var> = (4..9).map(|i| Var(base + i)).collect();
        let selectors: Vec<Var> = (0..1 + next(state) % 3)
            .map(|i| Var(base + 9 + i as u32))
            .collect();
        let n_vars = base as usize + 12;
        let tagged = |state: &mut u64, max: u64| {
            Anf::from_terms(
                (0..next(state) % max)
                    .map(|_| {
                        let bits = next(state);
                        let k = selectors[(bits % selectors.len() as u64) as usize];
                        Monomial::from_vars(
                            (0..outer_vars.len())
                                .filter(|i| bits >> (8 + i) & 1 == 1)
                                .map(|i| outer_vars[i])
                                .chain([k]),
                        )
                    })
                    .collect(),
            )
        };
        let rest = tagged(state, 12);
        let mut pairs: Vec<Pair> = Vec::new();
        for _ in 0..1 + next(state) % 6 {
            let inner = if next(state).is_multiple_of(3) {
                Anf::var(group[(next(state) % 4) as usize])
            } else {
                Anf::from_terms(
                    (0..1 + next(state) % 3)
                        .map(|_| {
                            let bits = 1 + next(state) % 15;
                            Monomial::from_vars(
                                (0..4).filter(|i| bits >> i & 1 == 1).map(|i| group[i]),
                            )
                        })
                        .collect(),
                )
            };
            let outer = tagged(state, 8);
            if inner.is_zero() || outer.is_zero() || pairs.iter().any(|p| p.inner == inner) {
                continue;
            }
            pairs.push(Pair {
                inner,
                outer,
                nullspace: NullSpace::empty(),
            });
        }
        let mut leaders = Vec::new();
        let mut passthrough = Vec::new();
        let mut allocated = 0;
        for p in &pairs {
            let v = p.inner.as_literal().unwrap_or_else(|| {
                allocated += 1;
                Var((n_vars + allocated - 1) as u32)
            });
            if p.inner.as_literal().is_some() {
                passthrough.push(v);
            }
            leaders.push((v, p.inner.clone()));
        }
        let substituted: Vec<Var> = if next(state).is_multiple_of(3) {
            Vec::new()
        } else {
            leaders
                .iter()
                .map(|&(v, _)| v)
                .filter(|v| !passthrough.contains(v))
                .filter(|_| next(state).is_multiple_of(2))
                .collect()
        };
        let survivors: Vec<Var> = leaders
            .iter()
            .map(|&(v, _)| v)
            .filter(|v| !substituted.contains(v))
            .collect();
        let substitutions: Vec<(Var, Anf)> = substituted
            .iter()
            .map(|&v| {
                let mut terms: Vec<Monomial> = Vec::new();
                if !survivors.is_empty() {
                    for _ in 0..next(state) % 3 {
                        let a = survivors[(next(state) % survivors.len() as u64) as usize];
                        let b = survivors[(next(state) % survivors.len() as u64) as usize];
                        terms.push(Monomial::from_vars([a, b]));
                    }
                }
                if next(state).is_multiple_of(2) {
                    terms.push(Monomial::one());
                }
                (v, Anf::from_terms(terms))
            })
            .collect();
        let leader_of_pair = leaders
            .iter()
            .map(|(v, _)| {
                substitutions
                    .iter()
                    .find(|(sv, _)| sv == v)
                    .map_or_else(|| Anf::var(*v), |(_, r)| r.clone())
            })
            .collect();
        let found = FoundBasis {
            pl: PairList { pairs, rest },
            leaders,
            passthrough,
            allocated,
            leader_of_pair,
            substitutions,
            identities: Vec::new(),
            search: Search::All,
            events: Vec::new(),
        };
        (found, selectors)
    }

    #[test]
    fn trial_scores_match_the_full_rewrite_on_random_bases() {
        // Seeded bases below and above the 128-id mask limit. Constant
        // terms in substituted representations make the 1·outer terms
        // cancel against rest and against each other.
        let mut state = 0xd1b5_4a32_d192_ed03u64;
        let (mut substituted, mut constant) = (0, 0);
        for case in 0..600u32 {
            let base = if case.is_multiple_of(2) { 20 } else { 140 };
            let (found, selectors) = random_found_basis(&mut state, base);
            assert_eq!(
                found.score(&selectors),
                reference::score(&found, &selectors),
                "case {case}"
            );
            substituted += usize::from(!found.substitutions.is_empty());
            constant += usize::from(
                found
                    .leader_of_pair
                    .iter()
                    .any(|r| r.terms().next().is_some_and(Monomial::is_one)),
            );
        }
        assert!(substituted >= 200, "only {substituted} substitution cases");
        assert!(constant >= 100, "only {constant} constant-term cases");
    }
}
