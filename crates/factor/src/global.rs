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
//! gate-negative one. As a final guard, [`GlobalNetwork::synthesize`]
//! emits both the extracted and the unextracted network through one
//! shared synthesiser and returns the smaller netlist, so the global
//! path is never worse than direct synthesis of the same cones.

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
/// expression, and the accepted per-cone rewrites.
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
    /// from `pool`. See the module docs for the candidate classes and
    /// the gate-aware commit rule.
    pub fn extract(&mut self, pool: &mut VarPool, cfg: &GlobalConfig) -> GlobalStats {
        let mut stats = GlobalStats {
            literals_before: self.literal_count(),
            ..GlobalStats::default()
        };
        // One estimator for the whole run: its plan memo persists across
        // rounds, so re-pricing a cone the previous round left untouched
        // is a table hit.
        let mut est = Synthesizer::new();
        let mut meter = EffortMeter::with_budget(cfg.effort_budget);
        for round in 0..cfg.max_rounds {
            // Budget check between rounds only: the round that crosses
            // the budget completes (and may commit), so the stopping
            // point is deterministic regardless of thread count.
            if meter.exhausted() {
                stats.budget_exhausted = true;
                break;
            }
            // The divisor variable is allocated before scoring so the
            // candidate rewrites can be priced as the expressions that
            // would actually be committed; at most one allocation leaks
            // when the final round finds nothing worth committing.
            let x = pool.fresh_derived(u32::MAX);
            let (best, trials) = self.best_divisor(x, cfg, &mut est);
            meter.charge(trials);
            let Some(best) = best else {
                break;
            };
            let (gain, divisor, rewrites) = best;
            if gain < cfg.min_gate_gain {
                break;
            }
            let mut consumers: Vec<usize> = Vec::new();
            for (ci, new_expr) in rewrites {
                self.cones[ci].expr = new_expr;
                consumers.push(ci);
            }
            // A committed divisor cannot be re-proposed and accepted: its
            // pattern is gone from every cone that accepted the rewrite,
            // and the cones that rejected it price it non-positive again
            // (the estimator is deterministic), so interning at the
            // commit index never collides.
            let existing = self.table.insert(x, self.divisors.len(), &divisor);
            debug_assert_eq!(existing, None, "duplicate divisor commit");
            for _ in 1..consumers.len() {
                self.table.note_reuse(&divisor);
            }
            self.divisors.push((x, divisor, consumers));
            stats.rounds = round + 1;
        }
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

    /// Enumerates candidates, shortlists by literal gain, prices the
    /// shortlist with the synthesiser cost model, and returns the best
    /// `(estimated gate gain, divisor, per-cone rewrites)` together with
    /// the number of distinct candidates considered (the round's effort
    /// charge).
    fn best_divisor(
        &self,
        x: Var,
        cfg: &GlobalConfig,
        est: &mut Synthesizer,
    ) -> (Option<Candidate>, u64) {
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
        // Shortlist by literal gain (cheap), deterministically.
        let considered = candidates.len() as u64;
        let mut scored: Vec<(isize, &Vec<Monomial>, &Anf)> = candidates
            .iter()
            .filter_map(|(key, d)| {
                let gain = self.literal_gain(d);
                (gain > 0).then_some((gain, key, d))
            })
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
        scored.truncate(cfg.shortlist);
        // Gate-aware pricing of the shortlist: keep only per-cone
        // rewrites the cost model likes, then charge the divisor itself.
        // The incumbent carries its canonical key for the tie-break.
        let mut best: Option<(Candidate, &Vec<Monomial>)> = None;
        for (_, key, d) in scored {
            let mut gain = -est.estimate(d);
            let mut lit_delta = -(d.literal_count() as isize);
            let mut rewrites: Vec<(usize, Anf)> = Vec::new();
            for (ci, cone) in self.cones.iter().enumerate() {
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
            // A commit must not regress either objective: the gate
            // estimate is the ranking signal, but the accepted rewrite
            // subset must also keep the network's literal count from
            // growing (so extraction is monotone in the classical cost
            // too, and the network never ends up above its ingested
            // size).
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
        (best.map(|(c, _)| c), considered)
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
