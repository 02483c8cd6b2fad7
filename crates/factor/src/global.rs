//! Workspace-wide factoring: one shared-divisor network over **all**
//! cones of a hierarchy at once.
//!
//! The per-block [`crate::FactorNetwork`] resynthesises each
//! decomposition block in isolation, so a divisor rediscovered in two
//! blocks is built twice and never shared. [`GlobalNetwork`] instead
//! ingests every leader expression of every block — plus the final
//! output expressions — as *cones* of a single network, enumerates
//! divisor candidates across all of them, and greedily commits the
//! candidates whose saving summed over **all** consumers is largest.
//!
//! Because Progressive Decomposition keeps everything in Reed–Muller
//! form, the algebra here is the GF(2) analogue of the classical SOP
//! kernel extraction in [`crate::kernel`]:
//!
//! * a **co-kernel** is a monomial `c` dividing at least two terms of a
//!   cone; the matching **kernel** is the XOR of the quotient terms
//!   `f/c` — a multi-term divisor candidate;
//! * a **cube divisor** is a shared multi-literal monomial itself;
//! * a **common sub-XOR** is the term-set intersection of two cones — the
//!   cross-cone candidate the per-block path can never see.
//!
//! Candidates are *hash-consed* in a [`DivisorTable`] keyed by canonical
//! monomial order ([`canonical_terms`]), so the same divisor reached
//! through different cones (or different construction orders) costs one
//! table entry, and its usage count aggregates across the whole
//! workspace. Committing a divisor `x = D` rewrites every consumer
//! `f = q·D ⊕ r` into `q·x ⊕ r`; the rewrite is exact by construction
//! (`r` is computed as `f ⊕ q·D`), so any greedy choice preserves every
//! cone's function — [`GlobalNetwork::expanded`] re-inflates the network
//! for an algebraic identity check, and the flow's BDD oracle re-proves
//! the synthesised netlist at the stage boundary.
//!
//! Scoring is **gate-aware**: raw literal savings shortlist the
//! candidates, but the commit decision prices each rewrite with the
//! synthesiser's own cost model ([`pd_netlist::Synthesizer::estimate`]),
//! because the emitter maps OR/majority/mux-shaped cones far below their
//! literal counts and a literal-positive extraction can easily be a
//! gate-negative one. An estimate is a function of its expression alone,
//! so pricing is incremental and parallel without changing a commit:
//! every round writes its rewrites over one fixed probe variable rather
//! than the divisor variable a commit would allocate, so a (candidate,
//! cone) pair priced in an earlier round is a cache hit, and the round's
//! new expressions are priced concurrently before a sequential fold picks
//! the winner. Only the committed rewrites get the real variable. As a
//! final guard, [`GlobalNetwork::synthesize`] emits both the extracted
//! and the unextracted network through one shared synthesiser and
//! returns the smaller netlist, so the global path is never worse than
//! direct synthesis of the same cones.

use crate::divide::anf_divide;
use pd_anf::{Anf, Monomial, Var, VarPool, VarSet};
use pd_netlist::{Netlist, Synthesizer};
use pd_par::EffortMeter;
use std::collections::HashMap;

/// Canonicalises a raw monomial list into GF(2) normal form: sorted
/// monomial order with XOR-cancellation (terms appearing an even number
/// of times vanish).
///
/// [`Anf`] maintains this invariant internally, but divisor candidates
/// are often assembled from raw term lists whose order depends on the
/// traversal that produced them; keying the [`DivisorTable`] through
/// this function makes hash-consing independent of construction order.
pub fn canonical_terms(mut terms: Vec<Monomial>) -> Vec<Monomial> {
    terms.sort_unstable();
    let mut out: Vec<Monomial> = Vec::with_capacity(terms.len());
    for t in terms {
        if out.last() == Some(&t) {
            out.pop();
        } else {
            out.push(t);
        }
    }
    out
}

/// One entry of a [`DivisorTable`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DivisorEntry {
    /// The variable computing this expression.
    pub var: Var,
    /// Definition rank: consumers must rank strictly later to reuse the
    /// entry (block index for hierarchy leaders, commit index for
    /// extracted divisors).
    pub rank: usize,
    /// How many times the entry was reused instead of rebuilt.
    pub reuses: usize,
}

/// A hash-consed, usage-counted table of divisor expressions, keyed by
/// canonical monomial order.
///
/// Shared between the two halves of the global-factoring subsystem: the
/// [`GlobalNetwork`] extraction loop interns every committed divisor
/// here, and `pd_core::refine`'s close rounds query a table of existing
/// leaders so re-abstracted residue reuses hierarchy structure instead
/// of duplicating it.
///
/// # Examples
///
/// ```
/// use pd_anf::{Anf, VarPool};
/// use pd_factor::DivisorTable;
/// let mut pool = VarPool::new();
/// let a = Anf::parse("x*y ^ z", &mut pool).unwrap();
/// let b = Anf::parse("z ^ x*y", &mut pool).unwrap(); // permuted, equal
/// let v = pool.var_or_input("d0");
/// let mut table = DivisorTable::new();
/// assert_eq!(table.insert(v, 0, &a), None);
/// // The permuted spelling hits the same hash-consed entry.
/// assert_eq!(table.lookup_before(&b, 1), Some(v));
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DivisorTable {
    entries: HashMap<Vec<Monomial>, DivisorEntry>,
}

impl DivisorTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `expr` as computed by `var` at `rank`. Returns the
    /// existing variable when an equal expression (up to monomial order)
    /// is already present — the caller should reuse it instead of
    /// defining a duplicate. Trivial expressions (constants, single
    /// literals) are never tabled.
    pub fn insert(&mut self, var: Var, rank: usize, expr: &Anf) -> Option<Var> {
        if expr.is_constant() || expr.as_literal().is_some() {
            return None;
        }
        let key = canonical_terms(expr.terms().cloned().collect());
        match self.entries.get(&key) {
            Some(e) => Some(e.var),
            None => {
                self.entries.insert(key, DivisorEntry { var, rank, reuses: 0 });
                None
            }
        }
    }

    /// The variable computing `expr`, if tabled with rank strictly below
    /// `before_rank` (so the definition precedes the prospective use).
    pub fn lookup_before(&self, expr: &Anf, before_rank: usize) -> Option<Var> {
        let key = canonical_terms(expr.terms().cloned().collect());
        self.entries
            .get(&key)
            .filter(|e| e.rank < before_rank)
            .map(|e| e.var)
    }

    /// Records a reuse of `expr`'s entry (a consumer referenced the
    /// existing variable instead of rebuilding the expression).
    pub fn note_reuse(&mut self, expr: &Anf) {
        let key = canonical_terms(expr.terms().cloned().collect());
        if let Some(e) = self.entries.get_mut(&key) {
            e.reuses += 1;
        }
    }

    /// Number of distinct tabled expressions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is tabled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total reuse events across all entries.
    pub fn reuse_count(&self) -> usize {
        self.entries.values().map(|e| e.reuses).sum()
    }

    /// Iterates over `(canonical key, entry)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Monomial>, &DivisorEntry)> {
        self.entries.iter()
    }
}

/// Tuning knobs for [`GlobalNetwork::extract`].
#[derive(Clone, Debug)]
pub struct GlobalConfig {
    /// Maximum extraction rounds (each commits one divisor).
    pub max_rounds: usize,
    /// Candidates gate-priced per round (shortlisted by literal gain).
    pub shortlist: usize,
    /// Minimum estimated gate saving for a commit to proceed.
    pub min_gate_gain: f64,
    /// Cones with more terms than this skip kernel enumeration (their
    /// pairwise co-kernel scan would dominate the round).
    pub max_kernel_terms: usize,
    /// Deterministic trial budget for one extraction run: every
    /// enumerated divisor candidate charges one unit against an
    /// [`EffortMeter`], and the round loop stops early once spent
    /// (committed divisors stay committed — the network is exact at any
    /// stopping point). `u64::MAX` is unlimited.
    pub effort_budget: u64,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        GlobalConfig {
            max_rounds: 128,
            shortlist: 24,
            min_gate_gain: 0.5,
            max_kernel_terms: 64,
            effort_budget: u64::MAX,
        }
    }
}

/// What one [`GlobalNetwork::extract`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GlobalStats {
    /// Divisors committed.
    pub divisors: usize,
    /// Committed divisors consumed by two or more distinct cones.
    pub shared_divisors: usize,
    /// Total consumer substitutions beyond each divisor's first use —
    /// the duplication the per-block path would have rebuilt.
    pub divisor_reuse_count: usize,
    /// Network ANF literal count before extraction.
    pub literals_before: usize,
    /// Network ANF literal count after extraction (cones + divisors).
    pub literals_after: usize,
    /// Extraction rounds executed.
    pub rounds: usize,
    /// Divisor candidates charged against the effort meter.
    pub effort_spent: u64,
    /// Whether the round loop stopped early on budget exhaustion.
    pub budget_exhausted: bool,
}

/// A scored commit candidate: estimated gate gain, the divisor
/// expression, and the accepted per-cone rewrites (over the round's
/// probe variable).
type Candidate = (f64, Anf, Vec<(usize, Anf)>);

/// One function of the network: a block leader or a primary output.
#[derive(Clone, Debug)]
struct Cone {
    /// Hierarchy position (block index; outputs after every block).
    rank: usize,
    /// The leader variable this cone computes, for leader cones.
    leader: Option<Var>,
    /// The output name, for output cones.
    output: Option<String>,
    /// Current (possibly rewritten) expression.
    expr: Anf,
    /// The ingested expression, for the unextracted baseline and the
    /// expansion check.
    original: Anf,
}

/// A multi-cone network over the whole hierarchy with shared-divisor
/// extraction — see the module docs.
///
/// # Examples
///
/// ```
/// use pd_anf::{Anf, VarPool};
/// use pd_factor::{GlobalConfig, GlobalNetwork};
/// let mut pool = VarPool::new();
/// // The divisor a*b ^ c*d is shared by two outputs; the per-block path
/// // (one network per output) would build it twice.
/// let f = Anf::parse("e*a*b ^ e*c*d ^ g", &mut pool).unwrap();
/// let g = Anf::parse("h*a*b ^ h*c*d", &mut pool).unwrap();
/// let mut net = GlobalNetwork::new();
/// net.add_output("f", &f);
/// net.add_output("g", &g);
/// let stats = net.extract(&mut pool, &GlobalConfig::default());
/// assert_eq!(stats.shared_divisors, 1);
/// let nl = net.synthesize();
/// assert_eq!(nl.outputs().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GlobalNetwork {
    cones: Vec<Cone>,
    /// Committed divisors in commit order: variable, expression, and the
    /// distinct cones consuming each.
    divisors: Vec<(Var, Anf, Vec<usize>)>,
    table: DivisorTable,
}

impl GlobalNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one block leader (rank = block index).
    pub fn add_leader(&mut self, block: usize, leader: Var, expr: &Anf) {
        self.cones.push(Cone {
            rank: block,
            leader: Some(leader),
            output: None,
            expr: expr.clone(),
            original: expr.clone(),
        });
    }

    /// Ingests one primary output (ranked after every block).
    pub fn add_output(&mut self, name: &str, expr: &Anf) {
        self.cones.push(Cone {
            rank: usize::MAX,
            leader: None,
            output: Some(name.to_owned()),
            expr: expr.clone(),
            original: expr.clone(),
        });
    }

    /// Number of ingested cones.
    pub fn cone_count(&self) -> usize {
        self.cones.len()
    }

    /// Committed divisor count.
    pub fn divisor_count(&self) -> usize {
        self.divisors.len()
    }

    /// Total ANF literal count of the network (cones + divisors).
    pub fn literal_count(&self) -> usize {
        self.cones.iter().map(|c| c.expr.literal_count()).sum::<usize>()
            + self.divisors.iter().map(|(_, e, _)| e.literal_count()).sum::<usize>()
    }

    /// The shared divisor table (committed divisors, hash-consed).
    pub fn table(&self) -> &DivisorTable {
        &self.table
    }

    /// Greedy workspace-wide extraction; fresh divisor variables come
    /// from `pool`, one per committed divisor. See the module docs for
    /// the candidate classes and the gate-aware commit rule.
    pub fn extract(&mut self, pool: &mut VarPool, cfg: &GlobalConfig) -> GlobalStats {
        self.extract_logged(pool, cfg).0
    }

    /// [`GlobalNetwork::extract`], also returning each commit's estimated
    /// gate gain in commit order.
    fn extract_logged(
        &mut self,
        pool: &mut VarPool,
        cfg: &GlobalConfig,
    ) -> (GlobalStats, Vec<f64>) {
        let mut stats = GlobalStats {
            literals_before: self.literal_count(),
            ..GlobalStats::default()
        };
        // One cache of history-free estimates for the whole run. Every
        // round prices its rewrites against the same probe variable, so a
        // (candidate, cone) pair priced in an earlier round is a hit.
        let mut est = Synthesizer::new();
        let mut meter = EffortMeter::with_budget(cfg.effort_budget);
        let mut gains = Vec::new();
        for round in 0..cfg.max_rounds {
            // Budget check between rounds only: the round that crosses
            // the budget completes (and may commit), so the stopping
            // point is deterministic regardless of thread count.
            if meter.exhausted() {
                stats.budget_exhausted = true;
                break;
            }
            let probe = probe_var(pool);
            let (best, trials) = self.best_divisor(probe, cfg, &mut est);
            meter.charge(trials);
            let Some((gain, divisor, rewrites)) = best else {
                break;
            };
            if gain < cfg.min_gate_gain {
                break;
            }
            // Only a commit allocates its divisor variable, at the index
            // the probe stood in for.
            let x = pool.fresh_derived(u32::MAX);
            let rewrites = rewrites
                .into_iter()
                .map(|(ci, e)| (ci, e.substitute(probe, &Anf::var(x))))
                .collect();
            self.commit(x, divisor, rewrites);
            gains.push(gain);
            stats.rounds = round + 1;
        }
        (self.finish_stats(stats, &meter), gains)
    }

    /// Applies one commit: rewrites its consumers and records the divisor
    /// `x = divisor`.
    fn commit(&mut self, x: Var, divisor: Anf, rewrites: Vec<(usize, Anf)>) {
        let mut consumers: Vec<usize> = Vec::new();
        for (ci, new_expr) in rewrites {
            self.cones[ci].expr = new_expr;
            consumers.push(ci);
        }
        // A committed divisor cannot be re-proposed and accepted: its
        // pattern is gone from every cone that accepted the rewrite,
        // and the cones that rejected it price it non-positive again
        // (an estimate depends on its expression alone), so interning
        // at the commit index never collides.
        let existing = self.table.insert(x, self.divisors.len(), &divisor);
        debug_assert_eq!(existing, None, "duplicate divisor commit");
        for _ in 1..consumers.len() {
            self.table.note_reuse(&divisor);
        }
        self.divisors.push((x, divisor, consumers));
    }

    /// Fills in the counters of a finished run.
    fn finish_stats(&self, mut stats: GlobalStats, meter: &EffortMeter) -> GlobalStats {
        stats.divisors = self.divisors.len();
        stats.shared_divisors = self
            .divisors
            .iter()
            .filter(|(_, _, consumers)| consumers.len() >= 2)
            .count();
        stats.divisor_reuse_count = self
            .divisors
            .iter()
            .map(|(_, _, consumers)| consumers.len().saturating_sub(1))
            .sum();
        stats.literals_after = self.literal_count();
        stats.effort_spent = meter.spent();
        stats
    }

    /// Shortlists the round's candidates and prices them with the
    /// synthesiser cost model, each rewrite written over `probe` in place
    /// of the divisor variable. Returns the best `(estimated gate gain,
    /// divisor, per-cone rewrites over probe)` together with the number
    /// of distinct candidates considered (the round's effort charge).
    fn best_divisor(
        &self,
        probe: Var,
        cfg: &GlobalConfig,
        est: &mut Synthesizer,
    ) -> (Option<Candidate>, u64) {
        let (shortlist, considered) = self.shortlist(cfg);
        let rewrites: Vec<Vec<(usize, Anf)>> = shortlist
            .iter()
            .map(|(_, d)| self.rewrites(d, probe))
            .collect();
        // Price everything the fold below reads; the misses in parallel.
        est.estimate_all(shortlist.iter().zip(&rewrites).flat_map(|((_, d), rw)| {
            std::iter::once(d).chain(rw.iter().flat_map(|(ci, e)| [&self.cones[*ci].expr, e]))
        }));
        // Gate-aware pricing of the shortlist, in shortlist order: keep
        // only per-cone rewrites the cost model likes, then charge the
        // divisor itself. The incumbent carries its canonical key for
        // the tie-break.
        let mut best: Option<(Candidate, &Vec<Monomial>)> = None;
        for ((key, d), rw) in shortlist.iter().zip(rewrites) {
            let mut gain = -est.estimate(d);
            let mut lit_delta = -(d.literal_count() as isize);
            let mut accepted: Vec<(usize, Anf)> = Vec::new();
            for (ci, new_expr) in rw {
                let cone = &self.cones[ci].expr;
                let delta = est.estimate(cone) - est.estimate(&new_expr);
                if delta > 0.0 {
                    gain += delta;
                    lit_delta += cone.literal_count() as isize - new_expr.literal_count() as isize;
                    accepted.push((ci, new_expr));
                }
            }
            // A commit must not regress either objective: the gate
            // estimate is the ranking signal, but the accepted rewrite
            // subset must also keep the network's literal count from
            // growing (so extraction is monotone in the classical cost
            // too, and the network never ends up above its ingested
            // size).
            if accepted.is_empty() || lit_delta < 0 {
                continue;
            }
            let better = match &best {
                None => true,
                Some(((g, _, _), best_key)) => gain > *g || (gain == *g && key < *best_key),
            };
            if better {
                best = Some(((gain, d.clone(), accepted), key));
            }
        }
        (best.map(|(c, _)| c), considered)
    }

    /// Every cone `f = q·d ⊕ r` with a nonzero quotient, rewritten as
    /// `q·v ⊕ r`, in cone order.
    fn rewrites(&self, d: &Anf, v: Var) -> Vec<(usize, Anf)> {
        self.cones
            .iter()
            .enumerate()
            .filter_map(|(ci, cone)| {
                let (q, r) = anf_divide(&cone.expr, d);
                (!q.is_zero()).then(|| (ci, q.and(&Anf::var(v)).xor(&r)))
            })
            .collect()
    }

    /// Enumerates the round's divisor candidates and shortlists them by
    /// literal gain, deterministically: `(canonical key, divisor)` pairs
    /// best first, and the number of distinct candidates considered.
    fn shortlist(&self, cfg: &GlobalConfig) -> (Vec<(Vec<Monomial>, Anf)>, u64) {
        let mut candidates: HashMap<Vec<Monomial>, Anf> = HashMap::new();
        let mut add = |terms: Vec<Monomial>| {
            let key = canonical_terms(terms);
            if key.is_empty() {
                return;
            }
            let expr = Anf::from_terms(key.clone());
            if expr.is_constant() || expr.as_literal().is_some() {
                return;
            }
            candidates.entry(key).or_insert(expr);
        };
        for cone in &self.cones {
            let terms: Vec<&Monomial> = cone.expr.terms().collect();
            if terms.len() > cfg.max_kernel_terms {
                continue;
            }
            for i in 0..terms.len() {
                for j in i + 1..terms.len() {
                    let c = Monomial::from_vars(
                        terms[i].vars().filter(|v| terms[j].contains(*v)),
                    );
                    if c.is_one() {
                        continue;
                    }
                    // The XOR-kernel of co-kernel c: every quotient term.
                    let kernel: Vec<Monomial> = cone
                        .expr
                        .terms()
                        .filter(|t| c.divides(t))
                        .map(|t| t.split(&c.var_set()).1)
                        .collect();
                    if kernel.len() >= 2 {
                        add(kernel);
                    }
                    // The co-kernel cube itself, when multi-literal.
                    if c.degree() >= 2 {
                        add(vec![c]);
                    }
                }
            }
        }
        // Cross-cone common sub-XORs: the candidate class the per-block
        // path cannot see. Support-disjoint pairs are skipped outright.
        for i in 0..self.cones.len() {
            let si = self.cones[i].expr.support();
            for j in i + 1..self.cones.len() {
                if !self.cones[j].expr.intersects(&si) {
                    continue;
                }
                let common: Vec<Monomial> = self.cones[i]
                    .expr
                    .terms()
                    .filter(|t| self.cones[j].expr.contains_term(t))
                    .cloned()
                    .collect();
                if common.len() >= 2 {
                    add(common);
                }
            }
        }
        let considered = candidates.len() as u64;
        let mut scored: Vec<(isize, Vec<Monomial>, Anf)> = candidates
            .into_iter()
            .filter_map(|(key, d)| {
                let gain = self.literal_gain(&d);
                (gain > 0).then_some((gain, key, d))
            })
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        scored.truncate(cfg.shortlist);
        let shortlist = scored.into_iter().map(|(_, key, d)| (key, d)).collect();
        (shortlist, considered)
    }

    /// Total literal saving if `d` became a node substituted into every
    /// cone it divides (the classical objective, used for shortlisting).
    fn literal_gain(&self, d: &Anf) -> isize {
        let mut gain = -(d.literal_count() as isize);
        for cone in &self.cones {
            let (q, r) = anf_divide(&cone.expr, d);
            if q.is_zero() {
                continue;
            }
            let old = cone.expr.literal_count() as isize;
            let new = q.literal_count() as isize + q.term_count() as isize
                + r.literal_count() as isize;
            if new < old {
                gain += old - new;
            }
        }
        gain
    }

    /// Fully re-expands every cone (divisor variables substituted by
    /// their expressions, innermost first) — the inverse of extraction.
    /// Each expanded cone must equal its ingested original exactly; the
    /// property tests assert this algebraic identity.
    pub fn expanded(&self) -> Vec<Anf> {
        self.cones
            .iter()
            .map(|cone| {
                let mut acc = cone.expr.clone();
                // Substituting in reverse commit order suffices: a
                // divisor's expression only references variables that
                // existed before its commit round.
                for (v, e, _) in self.divisors.iter().rev() {
                    if acc.contains_var(*v) {
                        acc = acc.substitute(*v, e);
                    }
                }
                acc
            })
            .collect()
    }

    /// The ingested (pre-extraction) cone expressions, in ingestion
    /// order.
    pub fn originals(&self) -> Vec<Anf> {
        self.cones.iter().map(|c| c.original.clone()).collect()
    }

    /// Emits the network as one netlist through a single shared
    /// synthesiser: leader cones in hierarchy order (each bound so later
    /// cones reference the node, not a rebuilt copy), divisors stitched
    /// in on demand, primary outputs named.
    ///
    /// Both the extracted network and the unextracted originals are
    /// emitted; the smaller netlist (by live gate count) is returned, so
    /// extraction can only improve on direct shared synthesis.
    pub fn synthesize(&self) -> Netlist {
        self.synthesize_choosing().0
    }

    /// Like [`GlobalNetwork::synthesize`], additionally reporting whether
    /// the extracted network won (`true`) or the guard fell back to the
    /// unextracted originals (`false`, in which case no divisor net is in
    /// the returned netlist and the divisor statistics do not describe
    /// it).
    pub fn synthesize_choosing(&self) -> (Netlist, bool) {
        let extracted = self.emit(true);
        if self.divisors.is_empty() {
            return (extracted, true);
        }
        let baseline = self.emit(false);
        if live_gates(&baseline) < live_gates(&extracted) {
            (baseline, false)
        } else {
            (extracted, true)
        }
    }

    /// Emits either the extracted cones (with divisor stitching) or the
    /// ingested originals.
    fn emit(&self, with_divisors: bool) -> Netlist {
        let mut nl = Netlist::new();
        let mut synth = Synthesizer::new();
        let defs: HashMap<Var, &Anf> = if with_divisors {
            self.divisors.iter().map(|(v, e, _)| (*v, e)).collect()
        } else {
            HashMap::new()
        };
        let mut order: Vec<usize> = (0..self.cones.len()).collect();
        order.sort_by_key(|&i| (self.cones[i].rank, i));
        let mut bound: VarSet = VarSet::new();
        for i in order {
            let cone = &self.cones[i];
            let expr = if with_divisors { &cone.expr } else { &cone.original };
            stitch(expr, &defs, &mut bound, &mut nl, &mut synth);
            let node = synth.emit(&mut nl, expr);
            if let Some(v) = cone.leader {
                synth.bind(v, node);
                bound.insert(v);
            }
            if let Some(name) = &cone.output {
                nl.set_output(name, node);
            }
        }
        nl
    }
}

/// Ensures every divisor variable `expr` references is emitted and bound
/// (depth-first, so divisors of divisors land first).
fn stitch(
    expr: &Anf,
    defs: &HashMap<Var, &Anf>,
    bound: &mut VarSet,
    nl: &mut Netlist,
    synth: &mut Synthesizer,
) {
    for v in expr.support().iter() {
        if bound.contains(v) {
            continue;
        }
        let Some(def) = defs.get(&v) else { continue };
        bound.insert(v);
        stitch(def, defs, bound, nl, synth);
        let node = synth.emit(nl, def);
        synth.bind(v, node);
    }
}

/// The variable a round prices its rewrites against, in place of the
/// divisor variable a commit would allocate next (index `pool.len()`).
/// It sits above every pool index and in the same [`Monomial`] order
/// class and storage form as that variable: `Var(127)` while the next
/// index is below 128 (the colex class), `Var(191)` while it is at most
/// 191 (the lexicographic class, still inline), a fixed heap id after
/// that. So each rewrite orders its terms exactly as the committed one
/// will and prices the same, without moving inline terms to the heap.
/// Being the same in every round, it lets a round reuse the estimates of
/// earlier rounds.
fn probe_var(pool: &VarPool) -> Var {
    match pool.len() {
        0..128 => Var(127),
        128..192 => Var(191),
        _ => Var(u32::MAX),
    }
}

/// Live (output-reachable) gate count.
fn live_gates(nl: &Netlist) -> usize {
    nl.live_mask().iter().filter(|&&b| b).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anf(pool: &mut VarPool, s: &str) -> Anf {
        Anf::parse(s, pool).unwrap()
    }

    /// The sequential pricing [`GlobalNetwork::extract`] replaced, kept
    /// as the reference it must match commit for commit: each round
    /// allocates a fresh divisor variable before scoring, writes every
    /// rewrite over it, and prices the shortlist one candidate at a time
    /// (with the same history-free estimates). Returns the stats and each
    /// commit's gain.
    fn extract_reference(
        net: &mut GlobalNetwork,
        pool: &mut VarPool,
        cfg: &GlobalConfig,
    ) -> (GlobalStats, Vec<f64>) {
        let mut stats = GlobalStats {
            literals_before: net.literal_count(),
            ..GlobalStats::default()
        };
        let mut est = Synthesizer::new();
        let mut meter = EffortMeter::with_budget(cfg.effort_budget);
        let mut gains = Vec::new();
        for round in 0..cfg.max_rounds {
            if meter.exhausted() {
                stats.budget_exhausted = true;
                break;
            }
            let x = pool.fresh_derived(u32::MAX);
            let (shortlist, considered) = net.shortlist(cfg);
            meter.charge(considered);
            let mut best: Option<(Candidate, &Vec<Monomial>)> = None;
            for (key, d) in &shortlist {
                let mut gain = -est.estimate(d);
                let mut lit_delta = -(d.literal_count() as isize);
                let mut rewrites: Vec<(usize, Anf)> = Vec::new();
                for (ci, cone) in net.cones.iter().enumerate() {
                    let (q, r) = anf_divide(&cone.expr, d);
                    if q.is_zero() {
                        continue;
                    }
                    let new_expr = q.and(&Anf::var(x)).xor(&r);
                    let delta = est.estimate(&cone.expr) - est.estimate(&new_expr);
                    if delta > 0.0 {
                        gain += delta;
                        lit_delta += cone.expr.literal_count() as isize
                            - new_expr.literal_count() as isize;
                        rewrites.push((ci, new_expr));
                    }
                }
                if rewrites.is_empty() || lit_delta < 0 {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some(((g, _, _), best_key)) => gain > *g || (gain == *g && key < *best_key),
                };
                if better {
                    best = Some(((gain, d.clone(), rewrites), key));
                }
            }
            let Some(((gain, divisor, rewrites), _)) = best else {
                break;
            };
            if gain < cfg.min_gate_gain {
                break;
            }
            net.commit(x, divisor, rewrites);
            gains.push(gain);
            stats.rounds = round + 1;
        }
        (net.finish_stats(stats, &meter), gains)
    }

    /// Runs [`GlobalNetwork::extract`] and [`extract_reference`] on
    /// copies of `net` and asserts the same commit sequence: divisor
    /// variable, expression and consumers, and the gain bit for bit.
    /// Only the reference allocates a variable in a round that commits
    /// nothing. Returns the committed divisor variables.
    fn assert_pricing_matches_reference(
        label: &str,
        net: &GlobalNetwork,
        pool: &VarPool,
    ) -> Vec<Var> {
        let cfg = GlobalConfig::default();
        let (mut fast, mut fast_pool) = (net.clone(), pool.clone());
        let (mut slow, mut slow_pool) = (net.clone(), pool.clone());
        let (fast_stats, fast_gains) = fast.extract_logged(&mut fast_pool, &cfg);
        let (slow_stats, slow_gains) = extract_reference(&mut slow, &mut slow_pool, &cfg);
        assert_eq!(fast_stats, slow_stats, "{label}: stats");
        let bits = |g: &[f64]| g.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&fast_gains),
            bits(&slow_gains),
            "{label}: gains {fast_gains:?} vs {slow_gains:?}"
        );
        assert_eq!(fast.divisors, slow.divisors, "{label}: commits");
        let exprs = |n: &GlobalNetwork| n.cones.iter().map(|c| c.expr.clone()).collect::<Vec<_>>();
        assert_eq!(exprs(&fast), exprs(&slow), "{label}: rewritten cones");
        let leaked = !slow_stats.budget_exhausted && slow_stats.rounds < cfg.max_rounds;
        assert_eq!(slow_pool.len(), fast_pool.len() + usize::from(leaked), "{label}: pool");
        assert_eq!(
            fast_pool.len(),
            pool.len() + fast_stats.divisors,
            "{label}: one variable per commit"
        );
        fast.divisors.iter().map(|(v, _, _)| *v).collect()
    }

    /// The Factor stage's input for a built-in circuit: the hierarchy
    /// after Decompose and Reduce, ingested as the flow ingests it, and
    /// the pool divisor variables come from.
    fn flow_factor_input(name: &str) -> (GlobalNetwork, VarPool) {
        let input = pd_flow::circuit_by_name(name).expect("built-in circuit");
        let cfg = pd_flow::FlowConfig {
            verify: false,
            fault: None,
            cache_dir: None,
            ..pd_flow::FlowConfig::default()
        };
        let mut flow = pd_flow::Flow::new(input, cfg);
        for _ in 0..2 {
            flow.run_next().expect("Decompose and Reduce run");
        }
        let d = flow.decomposition().expect("hierarchy");
        let mut net = GlobalNetwork::new();
        for (bi, block) in d.blocks.iter().enumerate() {
            for (v, e) in &block.basis {
                net.add_leader(bi, *v, e);
            }
        }
        for (name, e) in &d.outputs {
            net.add_output(name, e);
        }
        (net, d.pool.clone())
    }

    #[test]
    fn pricing_matches_reference_on_golden_factor_inputs() {
        // The circuits pinned in FLOW_GOLDEN (tests/table1_circuits.rs).
        for name in [
            "maj15", "maj13", "counter12", "lzd12", "gray16", "adder10", "comparator10",
            "three8", "adder12", "lod16",
        ] {
            let (net, pool) = flow_factor_input(name);
            assert_pricing_matches_reference(name, &net, &pool);
        }
    }

    /// A seeded random network over a pool of `pool_len` inputs: cones
    /// built from a few shared sub-XORs times random cubes, plus noise
    /// terms, over 12 variables drawn from the whole pool.
    fn random_network(seed: u64, pool_len: usize) -> (GlobalNetwork, VarPool) {
        let mut state = seed;
        let mut next = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut pool = VarPool::new();
        let all: Vec<Var> = (0..pool_len).map(|i| pool.input(&format!("i{i}"), 0, i)).collect();
        let vars: Vec<Var> = (0..12).map(|_| all[next(pool_len)]).collect();
        let cube = |next: &mut dyn FnMut(usize) -> usize, degree: usize| {
            Anf::from_terms(vec![Monomial::from_vars(
                (0..degree).map(|_| vars[next(vars.len())]),
            )])
        };
        let kernels: Vec<Anf> = (0..4)
            .map(|_| {
                (0..2 + next(2)).fold(Anf::zero(), |acc, _| {
                    let degree = 1 + next(2);
                    acc.xor(&cube(&mut next, degree))
                })
            })
            .collect();
        let mut net = GlobalNetwork::new();
        for i in 0..6 {
            let mut cone = Anf::zero();
            for _ in 0..2 + next(2) {
                let k = &kernels[next(kernels.len())];
                let degree = 1 + next(2);
                cone = cone.xor(&cube(&mut next, degree).and(k));
            }
            for _ in 0..next(3) {
                let degree = 1 + next(3);
                cone = cone.xor(&cube(&mut next, degree));
            }
            net.add_output(&format!("y{i}"), &cone);
        }
        (net, pool)
    }

    #[test]
    fn pricing_matches_reference_across_var_128() {
        // Pools just below and above 128 and 192 inputs: the commits'
        // divisor variables, and with them the probe, move from the colex
        // class into the lexicographic one, and from the inline form onto
        // the heap, partway through a run.
        let (mut straddled_128, mut straddled_192) = (false, false);
        for seed in 0..8u64 {
            for pool_len in [125, 127, 160, 189, 191, 230] {
                let (net, pool) = random_network(seed, pool_len);
                let vars = assert_pricing_matches_reference(
                    &format!("seed {seed}, {pool_len} inputs"),
                    &net,
                    &pool,
                );
                let across = |limit: u32| {
                    vars.iter().any(|v| v.0 < limit) && vars.iter().any(|v| v.0 >= limit)
                };
                straddled_128 |= across(128);
                straddled_192 |= across(192);
            }
        }
        assert!(straddled_128, "no run committed divisors on both sides of Var(128)");
        assert!(straddled_192, "no run committed divisors on both sides of Var(192)");
    }

    #[test]
    fn canonical_terms_sorts_and_cancels() {
        let mut pool = VarPool::new();
        let a = pool.var_or_input("a");
        let b = pool.var_or_input("b");
        let ab = Monomial::from_vars([a, b]);
        let ma = Monomial::var(a);
        // Permuted order canonicalises identically.
        assert_eq!(
            canonical_terms(vec![ab.clone(), ma.clone()]),
            canonical_terms(vec![ma.clone(), ab.clone()])
        );
        // Even multiplicity cancels (GF(2)), odd survives.
        assert_eq!(canonical_terms(vec![ma.clone(), ma.clone()]), vec![]);
        assert_eq!(
            canonical_terms(vec![ma.clone(), ab.clone(), ma.clone()]),
            vec![ab]
        );
    }

    #[test]
    fn table_hash_conses_permuted_equal_expressions() {
        // The regression for order-dependent keying: two ANFs assembled
        // from the same monomials in different orders must share one
        // table entry.
        let mut pool = VarPool::new();
        let vars: Vec<Var> = ["a", "b", "c"].iter().map(|n| pool.var_or_input(n)).collect();
        let t1 = Monomial::from_vars([vars[0], vars[1]]);
        let t2 = Monomial::from_vars([vars[1], vars[2]]);
        let e1 = Anf::from_terms(vec![t1.clone(), t2.clone()]);
        let e2 = Anf::from_terms(vec![t2, t1]);
        assert_eq!(e1, e2, "Anf canonicalises internally");
        let d0 = pool.var_or_input("d0");
        let d1 = pool.var_or_input("d1");
        let mut table = DivisorTable::new();
        assert_eq!(table.insert(d0, 0, &e1), None);
        assert_eq!(table.insert(d1, 3, &e2), Some(d0), "permuted spelling reuses d0");
        assert_eq!(table.len(), 1);
        table.note_reuse(&e2);
        assert_eq!(table.reuse_count(), 1);
    }

    #[test]
    fn table_rank_gates_reuse_direction() {
        let mut pool = VarPool::new();
        let e = anf(&mut pool, "a*b ^ c");
        let v = pool.var_or_input("v");
        let mut table = DivisorTable::new();
        table.insert(v, 5, &e);
        // A consumer at rank 3 precedes the definition: no reuse.
        assert_eq!(table.lookup_before(&e, 3), None);
        assert_eq!(table.lookup_before(&e, 5), None);
        assert_eq!(table.lookup_before(&e, 6), Some(v));
        // Trivial expressions are never tabled.
        let lit = anf(&mut pool, "a");
        assert_eq!(table.insert(v, 0, &lit), None);
        assert_eq!(table.lookup_before(&lit, 9), None);
    }

    #[test]
    fn extraction_expands_back_to_originals() {
        let mut pool = VarPool::new();
        let f = anf(&mut pool, "e*a*b ^ e*c*d ^ g");
        let g = anf(&mut pool, "h*a*b ^ h*c*d");
        let mut net = GlobalNetwork::new();
        net.add_output("f", &f);
        net.add_output("g", &g);
        let stats = net.extract(&mut pool, &GlobalConfig::default());
        assert!(stats.divisors >= 1);
        assert!(stats.literals_after < stats.literals_before);
        assert_eq!(stats.divisor_reuse_count, stats.shared_divisors);
        // Exact algebraic identity, not just pointwise equivalence.
        assert_eq!(net.expanded(), net.originals());
    }

    #[test]
    fn gate_aware_commit_leaves_special_forms_alone() {
        // maj(a,b,c) maps to one gate; any literal-positive extraction
        // from it is gate-negative and must be refused.
        let mut pool = VarPool::new();
        let maj = anf(&mut pool, "a*b ^ b*c ^ c*a");
        let mut net = GlobalNetwork::new();
        net.add_output("m", &maj);
        let stats = net.extract(&mut pool, &GlobalConfig::default());
        assert_eq!(stats.divisors, 0, "majority must stay a single MAJ gate");
        let nl = net.synthesize();
        // 3 inputs + 1 MAJ node.
        assert!(live_gates(&nl) <= 4, "got {}", live_gates(&nl));
    }

    #[test]
    fn leader_cones_are_bound_not_rebuilt() {
        // A leader cone consumed by an output must be emitted once and
        // referenced, exactly like Decomposition::to_netlist does.
        let mut pool = VarPool::new();
        let s = pool.derived("s", 1);
        let e = anf(&mut pool, "a*b ^ c");
        let out = Anf::var(s).and(&anf(&mut pool, "d")).xor(&anf(&mut pool, "c"));
        let mut net = GlobalNetwork::new();
        net.add_leader(0, s, &e);
        net.add_output("y", &out);
        net.extract(&mut pool, &GlobalConfig::default());
        let nl = net.synthesize();
        let spec = vec![("y".to_owned(), e.and(&anf(&mut pool, "d")).xor(&anf(&mut pool, "c")))];
        assert_eq!(pd_netlist::sim::check_equiv_anf(&nl, &spec, 32, 11), None);
    }

    #[test]
    fn synthesize_never_exceeds_direct_shared_emission() {
        // Whatever extraction does, the returned netlist is at most the
        // size of direct synthesis of the ingested cones.
        let mut pool = VarPool::new();
        let exprs = [
            "a*b ^ b*c ^ c*a",
            "a ^ b ^ c ^ d",
            "x*a*b ^ x*c ^ y*a*b ^ y*c",
        ];
        let mut net = GlobalNetwork::new();
        let mut direct = GlobalNetwork::new();
        for (i, s) in exprs.iter().enumerate() {
            let e = anf(&mut pool, s);
            net.add_output(&format!("y{i}"), &e);
            direct.add_output(&format!("y{i}"), &e);
        }
        net.extract(&mut pool, &GlobalConfig::default());
        let extracted = net.synthesize();
        let baseline = direct.synthesize();
        assert!(live_gates(&extracted) <= live_gates(&baseline));
    }

    #[test]
    fn zero_budget_extracts_nothing_but_stays_exact() {
        let mut pool = VarPool::new();
        let f = anf(&mut pool, "e*a*b ^ e*c*d ^ g");
        let g = anf(&mut pool, "h*a*b ^ h*c*d");
        let mut net = GlobalNetwork::new();
        net.add_output("f", &f);
        net.add_output("g", &g);
        let cfg = GlobalConfig {
            effort_budget: 0,
            ..GlobalConfig::default()
        };
        let stats = net.extract(&mut pool, &cfg);
        assert_eq!(stats.divisors, 0);
        assert!(stats.budget_exhausted);
        assert_eq!(stats.effort_spent, 0);
        // The unextracted network is still the ingested one, exactly.
        assert_eq!(net.expanded(), net.originals());
        let nl = net.synthesize();
        assert_eq!(nl.outputs().len(), 2);
    }

    #[test]
    fn small_budget_completes_the_crossing_round() {
        // A 1-trial budget lets the first round run to completion (the
        // batch that crosses the budget finishes), then stops.
        let mut pool = VarPool::new();
        let f = anf(&mut pool, "e*a*b ^ e*c*d ^ g");
        let g = anf(&mut pool, "h*a*b ^ h*c*d");
        let mut unbudgeted = GlobalNetwork::new();
        unbudgeted.add_output("f", &f);
        unbudgeted.add_output("g", &g);
        let full = unbudgeted.extract(&mut pool.clone(), &GlobalConfig::default());
        let mut net = GlobalNetwork::new();
        net.add_output("f", &f);
        net.add_output("g", &g);
        let cfg = GlobalConfig {
            effort_budget: 1,
            ..GlobalConfig::default()
        };
        let stats = net.extract(&mut pool, &cfg);
        assert_eq!(stats.rounds, full.rounds.min(1), "first round completes");
        assert!(stats.budget_exhausted);
        assert!(stats.effort_spent >= 1);
        assert_eq!(net.expanded(), net.originals());
    }

    #[test]
    fn cross_cone_sub_xor_is_shared() {
        // s ^ t appears in both outputs; the per-block path would build
        // the XOR twice, the global one shares a divisor node.
        let mut pool = VarPool::new();
        let f = anf(&mut pool, "p*a ^ p*b ^ p*c ^ q");
        let g = anf(&mut pool, "r*a ^ r*b ^ r*c ^ s");
        let mut net = GlobalNetwork::new();
        net.add_output("f", &f);
        net.add_output("g", &g);
        let stats = net.extract(&mut pool, &GlobalConfig::default());
        assert!(stats.shared_divisors >= 1, "{stats:?}");
        assert_eq!(net.expanded(), net.originals());
        let nl = net.synthesize();
        let spec = vec![("f".to_owned(), f), ("g".to_owned(), g)];
        assert_eq!(pd_netlist::sim::check_equiv_anf(&nl, &spec, 64, 5), None);
    }
}
