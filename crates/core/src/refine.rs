//! Incremental basis refinement of an existing hierarchy.
//!
//! The paper defines linear-dependency elimination (§5.3) and local size
//! reduction (§5.4) as *incremental* improvements of a basis, yet the
//! obvious way to run them after the fact — re-running the whole
//! decomposition with the passes enabled — rebuilds every block from the
//! raw ANF pool and re-pays the full group-search cost. This module
//! instead refines the finished [`Decomposition`] **in place**:
//!
//! 1. For one block, reconstruct the pair list the passes operate on from
//!    the *current* hierarchy: every downstream expression (later blocks'
//!    leaders, final outputs) that mentions the block's leader variables
//!    is split against them, and each inner monomial over leader
//!    variables is mapped back to the group-level expression it computes
//!    (products of leaders become products of their basis expressions).
//!    Each downstream expression is tagged with a throwaway selector
//!    variable, exactly like the main loop's combine step, so the outers
//!    remember where every coefficient came from.
//! 2. Run the unchanged [`crate::lindep`] / [`crate::size_reduce`] passes
//!    on that pair list. Both preserve `Σ innerᵢ·outerᵢ` exactly, so the
//!    block's new basis plus the re-bucketed downstream expressions are
//!    functionally identical to the old ones — the flow's BDD oracle
//!    re-proves this at the Reduce boundary.
//! 3. Map the refined pairs back: pairs whose inner expression is
//!    unchanged keep their existing downstream representation (so an
//!    untouched block causes no rewrite at all), literal inners become
//!    passthrough uses of the group variable, and genuinely new inner
//!    expressions get a fresh leader. Leaders no longer referenced by any
//!    downstream expression are dropped.
//!
//! ## Worklist invariant
//!
//! A block is *dirty* when the inputs to its refinement changed since it
//! was last refined: its own basis was rewritten (by an earlier block's
//! patch), or a slot it feeds was rewritten (so the coefficients its
//! pair list would see changed). Initially every block is dirty; a patch
//! re-enqueues exactly those blocks, and a per-block pass cap (8) bounds
//! the pathological case where literal-neutral rewrites keep toggling a
//! block. Blocks whose footprints — the block plus every downstream slot
//! its patch may rewrite — are pairwise disjoint have no data
//! dependencies, so each wave of such blocks refines concurrently on the
//! `pd-par` pool; patches are applied in block order afterwards, which
//! keeps the result bit-identical at any `PD_THREADS` setting.
//!
//! ## Cross-block divisor table
//!
//! The whole pass shares one [`pd_factor::DivisorTable`] view of the
//! hierarchy's leaders (hash-consed by canonical monomial order):
//!
//! * **worklist reuse** — when a refined pair needs a new leader for an
//!   inner expression an *earlier* block already computes, the existing
//!   leader is used as the divisor instead of minting a duplicate (the
//!   table passed to a wave only lists blocks outside the wave, so
//!   concurrently computed patches never reference a leader that is
//!   being rewritten);
//! * **leader CSE** — before the worklist and after every close round,
//!   [`refine`] folds duplicated leaders (stage-1 runs over overlapping
//!   groups rediscover the same expressions; re-abstracted residue can
//!   rebuild an existing leader verbatim) onto their first definition.
//!
//! ## Close rounds and arbitration
//!
//! When the inline step leaves non-literal output expressions behind,
//! bounded *close* rounds re-abstract that residue with the main loop
//! (refinement enabled) and the worklist re-drains — see [`refine`].
//! Because the worklist can only rearrange the block structure stage 1
//! chose, a final **arbitration close** re-decomposes the specification
//! from scratch with refinement enabled and keeps whichever hierarchy
//! emits fewer gates (ties keep the incremental result). This bounds the
//! incremental path's quality regression at zero for one extra
//! decomposition — on circuits where stage 1 grouped well (comparator10)
//! the worklist result survives and wins outright; where it grouped
//! poorly (the ROADMAP's lzd12 case, 117 vs 41 mapped cells before this
//! pass) the re-decomposition does. Every incremental rewrite is exact,
//! so correctness never depends on which side arbitration picks.

use crate::config::PdConfig;
use crate::decompose::{Block, Decomposition, ProgressiveDecomposer};
use crate::lindep;
use crate::pairs::{Pair, PairList};
use crate::size_reduce;
use pd_anf::{Anf, Monomial, NullSpace, Var, VarSet};
use pd_factor::DivisorTable;
use pd_par::EffortMeter;
use std::collections::{HashMap, HashSet};

/// The arbitration re-decomposition is skipped when the worklist result's
/// gate estimate is within this bound of the entry hierarchy's: skip iff
/// `gates_after * 1000 >= bound * gates_before`. 980‰ ("the worklist
/// improved gates by less than 2%") captures exactly the golden circuits
/// where the from-scratch hierarchy has never beaten the worklist.
const ARBITRATION_SKIP_PERMILLE: u64 = 980;

/// What one [`refine`] run did.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefineStats {
    /// Block refinement attempts (worklist pops).
    pub passes: usize,
    /// Parallel waves the worklist was drained in.
    pub waves: usize,
    /// Patches applied (refinements that changed something).
    pub blocks_changed: usize,
    /// Original leader expressions eliminated across all blocks.
    pub leaders_removed: usize,
    /// Fresh leaders introduced by rewrites.
    pub leaders_added: usize,
    /// Blocks appended by the residual close pass (re-abstraction of
    /// output expressions the inlining flattened).
    pub closed_blocks: usize,
    /// Times an existing leader was reused as a divisor instead of a
    /// fresh (duplicate) leader being minted: worklist rewrites that hit
    /// the cross-block divisor table, plus close-round CSE merges of
    /// re-abstracted residue against it.
    pub leader_reuses: usize,
    /// Whether the arbitration close replaced the worklist result with a
    /// from-scratch refined re-decomposition that synthesised smaller.
    pub arbitrated: bool,
    /// Whether the arbitration re-decomposition was skipped because the
    /// worklist result's gate estimate was already within the learned
    /// skip bound (980‰ of the entry hierarchy's).
    pub arbitration_skipped: bool,
    /// Trials charged against the effort meter across the close rounds
    /// and the arbitration decomposition.
    pub effort_spent: u64,
    /// Whether the effort budget ran out, truncating close rounds and/or
    /// the arbitration close.
    pub budget_exhausted: bool,
    /// Hierarchy literal count before refinement.
    pub literals_before: usize,
    /// Hierarchy literal count after refinement.
    pub literals_after: usize,
}

/// A downstream expression slot a block's leaders may appear in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Slot {
    /// `blocks[i].basis[j].1`.
    Basis(usize, usize),
    /// `outputs[i].1`.
    Output(usize),
}

/// The outcome of refining one block against a hierarchy snapshot:
/// everything needed to rewrite the hierarchy, with nothing applied yet.
/// Fresh leaders use variable ids from a throwaway pool clone; they are
/// renamed to real pool variables when the patch is applied.
struct Patch {
    block: usize,
    basis: Vec<(Var, Anf)>,
    locals: Vec<Var>,
    passthrough: Vec<Var>,
    group: Vec<Var>,
    consumers: Vec<(Slot, Anf)>,
    removed: usize,
    added: usize,
    /// Pairs represented by an existing earlier block's leader (divisor
    /// table hits) instead of a fresh duplicate.
    reuses: usize,
}

/// Applies LinDep (§5.3) and SizeReduce (§5.4) to every block of `d` in
/// place, without re-running the decomposition. Returns statistics; the
/// refined hierarchy is functionally equivalent to the input (each
/// rewrite preserves `Σ inner·outer` exactly).
///
/// Which passes run follows `cfg` (`enable_linear_minimisation`,
/// `enable_size_reduction`); with both disabled this is a no-op.
///
/// `literals_after` is *usually* below `literals_before` but is not
/// guaranteed to be: linear-dependence elimination pursues basis
/// minimality, which can trade a smaller basis for more downstream
/// literals — deliberately, exactly as the from-scratch refined run does
/// (comparator10 goes 133 → 140 here versus 133 → 166 from scratch; both
/// map to *fewer* cells than the unrefined hierarchy).
pub fn refine(d: &mut Decomposition, cfg: &PdConfig) -> RefineStats {
    let mut meter = EffortMeter::with_budget(cfg.effort_budget);
    refine_metered(d, cfg, &mut meter)
}

/// [`refine`] charging an external [`EffortMeter`].
///
/// The worklist passes always run (they are the cheap, load-bearing
/// part); the close rounds and the arbitration close check the meter
/// between phases and are skipped once it is exhausted — recorded in
/// [`RefineStats::budget_exhausted`]. The stopping point depends only on
/// the charge sequence, so budgeted refinement stays bit-identical
/// across `PD_THREADS`.
pub fn refine_metered(
    d: &mut Decomposition,
    cfg: &PdConfig,
    meter: &mut EffortMeter,
) -> RefineStats {
    let mut stats = RefineStats {
        literals_before: d.hierarchy_literal_count(),
        ..RefineStats::default()
    };
    if !cfg.enable_linear_minimisation && !cfg.enable_size_reduction {
        stats.literals_after = stats.literals_before;
        return stats;
    }
    let timing = crate::config::timing();
    // The arbitration-skip bound compares the refined hierarchy against
    // the hierarchy as it *entered* refinement, so its gate estimate must
    // be taken before any rewrite. Only measured when the bound can
    // actually be consulted (the synthesis pass is not free).
    let entry_gates = (!meter.exhausted()).then(|| gate_estimate(d));
    // Hierarchies can arrive with duplicated leaders (stage-1 runs over
    // overlapping groups rediscover the same expressions); fold them into
    // one definition before any refinement work is spent on the copies.
    stats.leader_reuses += leader_cse(d);
    let t0 = std::time::Instant::now();
    drain_worklist(d, cfg, &mut stats, timing);
    if timing {
        eprintln!("      [refine/worklist: {:?}]", t0.elapsed());
    }
    // Close passes: inlining may leave non-literal output expressions
    // (the flattened remains of dissolved single-use chains). Re-abstract
    // that residue by running the main loop — with refinement enabled —
    // on the output expressions alone. The residue is expressed over
    // leader variables, typically orders of magnitude smaller than the
    // raw specification, so this costs a fraction of a from-scratch
    // re-run; every existing block is kept and reused. Each close can
    // expose new single-use leaders to the worklist (and vice versa), so
    // the two alternate while the literal count keeps improving.
    //
    let mut best = d.hierarchy_literal_count();
    let mut snapshot_best: Option<(Decomposition, RefineStats)> = None;
    for round in 0..2 {
        if d.outputs.iter().all(|(_, e)| e.is_literal_or_constant()) {
            break;
        }
        if meter.exhausted() {
            stats.budget_exhausted = true;
            break;
        }
        if snapshot_best.is_none() {
            snapshot_best = Some((d.clone(), stats));
        }
        let t1 = std::time::Instant::now();
        // The residue is small; a trimmed group search keeps the close
        // pass a fraction of the worklist's gain in wall time.
        let mut close_cfg = cfg.clone();
        close_cfg.exhaustive_group_limit = close_cfg.exhaustive_group_limit.min(1500);
        let sub = ProgressiveDecomposer::new(close_cfg).decompose_metered(
            d.pool.clone(),
            d.outputs.clone(),
            meter,
        );
        stats.closed_blocks += sub.blocks.len();
        let closed = sub.blocks.len();
        d.pool = sub.pool;
        d.blocks.extend(sub.blocks);
        d.outputs = sub.outputs;
        // The re-abstraction ran blind to the existing hierarchy; query
        // the divisor table so residue blocks that rebuilt an existing
        // leader's expression collapse onto the original definition.
        stats.leader_reuses += leader_cse(d);
        if timing {
            eprintln!("      [refine/close {round}: {:?}]", t1.elapsed());
        }
        if closed == 0 {
            break;
        }
        // The close pass rewrote leader fan-outs; another worklist drain
        // picks up newly single-use or dead leaders.
        let t2 = std::time::Instant::now();
        drain_worklist(d, cfg, &mut stats, timing);
        if timing {
            eprintln!("      [refine/re-drain {round}: {:?}]", t2.elapsed());
        }
        let now = d.hierarchy_literal_count();
        if now >= best {
            break;
        }
        best = now;
        snapshot_best = Some((d.clone(), stats));
    }
    // A non-improving final round is rolled back to the best state seen;
    // the effect counters revert with it (they describe the returned
    // hierarchy), while `passes`/`waves` keep counting the work done.
    if let Some((snap, snap_stats)) = snapshot_best {
        if snap.hierarchy_literal_count() < d.hierarchy_literal_count() {
            *d = snap;
            stats.blocks_changed = snap_stats.blocks_changed;
            stats.leaders_removed = snap_stats.leaders_removed;
            stats.leaders_added = snap_stats.leaders_added;
            stats.closed_blocks = snap_stats.closed_blocks;
        }
    }
    // Blocks whose leaders all died (or dissolved into their consumers)
    // contribute nothing any more; passthrough-only shells emit no gates.
    d.blocks.retain(|b| !b.basis.is_empty());
    // Arbitration close: the worklist can only rearrange the structure
    // stage 1 chose, and on some circuits (the ROADMAP's lzd12 case)
    // those group choices map far worse than the ones a refined run
    // makes from scratch. Re-decompose the specification with
    // refinement enabled and keep whichever hierarchy synthesises to
    // fewer gates — the estimate prices real emission (majority/OR
    // forms, cross-cone sharing), where literal counts mislead. Ties
    // keep the incremental result, so refine-friendly circuits pay no
    // churn; the comparison is deterministic at any thread count.
    if meter.exhausted() {
        stats.budget_exhausted = true;
    } else {
        let t3 = std::time::Instant::now();
        let gates_now = gate_estimate(d);
        // Learned skip bound: when the worklist barely moved the gate
        // estimate, the from-scratch hierarchy has never beaten it
        // (measured across the golden circuits — the ones arbitration
        // helps are exactly the ones the worklist already improved by
        // >2%), so the re-decomposition is pure cost. The comparison
        // uses trial-counted estimates only — never wall-clock — so
        // the decision is bit-identical across `PD_THREADS`.
        let skip = entry_gates.is_some_and(|entry| {
            gates_now as u64 * 1000 >= ARBITRATION_SKIP_PERMILLE * entry as u64
        });
        if skip {
            stats.arbitration_skipped = true;
        } else {
            let alt = ProgressiveDecomposer::new(cfg.clone()).decompose_metered(
                d.pool.clone(),
                d.spec.clone(),
                meter,
            );
            if gate_estimate(&alt) < gates_now {
                *d = alt;
                stats.arbitrated = true;
            }
        }
        if timing {
            eprintln!(
                "      [refine/arbitrate: {:?} ({})]",
                t3.elapsed(),
                if stats.arbitration_skipped {
                    "skipped"
                } else if stats.arbitrated {
                    "replaced"
                } else {
                    "kept"
                }
            );
        }
    }
    stats.effort_spent = meter.spent();
    stats.literals_after = d.hierarchy_literal_count();
    debug_assert_eq!(d.validate(), Ok(()));
    stats
}

/// Live (output-reachable) gate count of the hierarchy's emitted netlist
/// — the deterministic cost measure the arbitration round compares.
fn gate_estimate(d: &Decomposition) -> usize {
    let nl = d.to_netlist();
    nl.live_mask().iter().filter(|&&b| b).count()
}

/// Folds duplicated leaders across the whole hierarchy onto their first
/// definition: every block's basis expressions are interned in a
/// [`DivisorTable`] (hash-consed by canonical monomial order), and a
/// later leader computing an already-tabled expression is renamed away
/// in every downstream expression, its basis entry dropped. Returns the
/// number of merges. Exact: consumers end up referencing a variable
/// defined strictly earlier with the identical expression.
fn leader_cse(d: &mut Decomposition) -> usize {
    let mut table = DivisorTable::new();
    let mut rename: HashMap<Var, Var> = HashMap::new();
    let mut merged = 0usize;
    for bi in 0..d.blocks.len() {
        let b = &mut d.blocks[bi];
        // Bring this block's view up to date with earlier merges. A
        // rename target is always the earliest definition and is never
        // itself renamed, so one pass needs no chasing.
        if !rename.is_empty() {
            for (_, e) in b.basis.iter_mut() {
                if e.support().iter().any(|v| rename.contains_key(&v)) {
                    *e = e.map_vars(|v| rename.get(&v).copied().unwrap_or(v));
                }
            }
            for v in b.group.iter_mut() {
                if let Some(&w) = rename.get(v) {
                    *v = w;
                }
            }
            b.group.sort_unstable();
            b.group.dedup();
            for v in b.passthrough.iter_mut() {
                if let Some(&w) = rename.get(v) {
                    *v = w;
                }
            }
            b.passthrough.sort_unstable();
            b.passthrough.dedup();
        }
        let mut keep: Vec<(Var, Anf)> = Vec::with_capacity(b.basis.len());
        for (v, e) in std::mem::take(&mut b.basis) {
            match table.insert(v, bi, &e) {
                Some(w) if w != v => {
                    rename.insert(v, w);
                    table.note_reuse(&e);
                    merged += 1;
                }
                _ => keep.push((v, e)),
            }
        }
        b.basis = keep;
    }
    if !rename.is_empty() {
        for (_, e) in d.outputs.iter_mut() {
            if e.support().iter().any(|v| rename.contains_key(&v)) {
                *e = e.map_vars(|v| rename.get(&v).copied().unwrap_or(v));
            }
        }
    }
    merged
}

/// Runs the dirty-block worklist until no block changes: every block
/// starts dirty; a patch re-dirties the blocks whose basis it rewrote and
/// the producers feeding any rewritten slot (their pair-list coefficients
/// changed).
fn drain_worklist(d: &mut Decomposition, cfg: &PdConfig, stats: &mut RefineStats, timing: bool) {
    // A block may be re-refined when a patch rewrote its basis or its
    // consumers; the cap bounds the pathological ping-pong.
    const MAX_PASSES_PER_BLOCK: usize = 8;
    let n = d.blocks.len();
    let mut dirty = vec![true; n];
    let mut passes_of = vec![0usize; n];
    loop {
        // One wave: dirty blocks whose footprints are pairwise disjoint,
        // in ascending block order (greedy, deterministic).
        let mut wave: Vec<usize> = Vec::new();
        let mut touched: HashSet<Slot> = HashSet::new();
        for bi in 0..n {
            if !dirty[bi] || passes_of[bi] >= MAX_PASSES_PER_BLOCK {
                continue;
            }
            let fp = footprint(d, bi);
            if fp.iter().all(|s| !touched.contains(s)) {
                touched.extend(fp);
                wave.push(bi);
            }
        }
        if wave.is_empty() {
            break;
        }
        stats.waves += 1;
        stats.passes += wave.len();
        let snapshot = &*d;
        // The wave's shared divisor table: every leader of a block NOT
        // being refined in this wave (their expressions are stable while
        // the wave's patches are computed). Built once per wave from the
        // snapshot, so every block prices reuse against the same table
        // regardless of the parallel schedule.
        let in_wave: HashSet<usize> = wave.iter().copied().collect();
        let mut table = DivisorTable::new();
        for (bj, b) in snapshot.blocks.iter().enumerate() {
            if in_wave.contains(&bj) {
                continue;
            }
            for (v, e) in &b.basis {
                table.insert(*v, bj, e);
            }
        }
        let tw = std::time::Instant::now();
        let patches: Vec<Option<Patch>> = pd_par::par_map(&wave, |&bi| {
            let tb = std::time::Instant::now();
            let p = refine_block(snapshot, bi, cfg, &table);
            if timing {
                eprintln!("        [refine/block {bi}: {:?}]", tb.elapsed());
            }
            p
        });
        if timing {
            eprintln!(
                "      [refine/wave {}: {} blocks {:?} in {:?}]",
                stats.waves,
                wave.len(),
                wave,
                tw.elapsed()
            );
        }
        for (&bi, patch) in wave.iter().zip(patches) {
            dirty[bi] = false;
            passes_of[bi] += 1;
            let Some(patch) = patch else { continue };
            stats.blocks_changed += 1;
            stats.leaders_removed += patch.removed;
            stats.leaders_added += patch.added;
            stats.leader_reuses += patch.reuses;
            for bj in apply_patch(d, patch) {
                if passes_of[bj] < MAX_PASSES_PER_BLOCK {
                    dirty[bj] = true;
                }
            }
        }
    }
}

/// Every hierarchy slot refining `bi` may rewrite: the block's own basis
/// plus all downstream expressions mentioning its leaders. Waves must
/// keep footprints disjoint so concurrently computed patches stay valid
/// when applied one after the other.
fn footprint(d: &Decomposition, bi: usize) -> Vec<Slot> {
    let vset = leader_set(&d.blocks[bi]);
    let mut fp: Vec<Slot> = d.blocks[bi]
        .basis
        .iter()
        .enumerate()
        .map(|(j, _)| Slot::Basis(bi, j))
        .collect();
    for (bj, b) in d.blocks.iter().enumerate().skip(bi + 1) {
        for (j, (_, e)) in b.basis.iter().enumerate() {
            if e.intersects(&vset) {
                fp.push(Slot::Basis(bj, j));
            }
        }
    }
    for (oi, (_, e)) in d.outputs.iter().enumerate() {
        if e.intersects(&vset) {
            fp.push(Slot::Output(oi));
        }
    }
    fp
}

/// The block's leader variables: named leaders plus passthrough group
/// variables (both appear downstream on the block's behalf).
fn leader_set(b: &Block) -> VarSet {
    let mut vset: VarSet = b.basis.iter().map(|(v, _)| *v).collect();
    vset.extend(b.passthrough.iter().copied());
    vset
}

/// Refines one block against the snapshot; returns `None` when nothing
/// changed. Pure: allocates selector and leader variables from a pool
/// clone only (see [`Patch`]). `table` holds the wave's stable leaders
/// (hash-consed by expression) so a pair whose inner expression an
/// earlier block already computes reuses that leader as a divisor
/// instead of minting a duplicate.
fn refine_block(
    d: &Decomposition,
    bi: usize,
    cfg: &PdConfig,
    table: &DivisorTable,
) -> Option<Patch> {
    let block = &d.blocks[bi];
    let vset = leader_set(block);
    if vset.is_empty() {
        return None;
    }
    let mut leader_expr: HashMap<Var, Anf> =
        block.basis.iter().map(|(v, e)| (*v, e.clone())).collect();
    for &p in &block.passthrough {
        leader_expr.insert(p, Anf::var(p));
    }
    // Scan the downstream expressions for consumers and split each one
    // against the leader set, tagging outers with per-consumer selectors.
    let mut pool = d.pool.clone();
    let mut slots: Vec<(Slot, Var, Vec<Monomial>)> = Vec::new(); // slot, selector, untouched terms
    let mut grouped: HashMap<Monomial, Vec<Monomial>> = HashMap::new();
    {
        let mut scan = |slot: Slot, expr: &Anf| {
            if !expr.intersects(&vset) {
                return;
            }
            let k = pool.fresh_selector();
            let tag = Monomial::var(k);
            let mut untouched = Vec::new();
            for t in expr.terms() {
                if t.intersects(&vset) {
                    let (inner, outer) = t.split(&vset);
                    grouped.entry(inner).or_default().push(outer.mul(&tag));
                } else {
                    untouched.push(t.clone());
                }
            }
            slots.push((slot, k, untouched));
        };
        for (bj, b) in d.blocks.iter().enumerate().skip(bi + 1) {
            for (j, (_, e)) in b.basis.iter().enumerate() {
                scan(Slot::Basis(bj, j), e);
            }
        }
        for (oi, (_, e)) in d.outputs.iter().enumerate() {
            scan(Slot::Output(oi), e);
        }
    }
    if slots.is_empty() {
        // Dead block: no downstream expression uses any leader.
        if block.basis.is_empty() && block.passthrough.is_empty() {
            return None;
        }
        return Some(Patch {
            block: bi,
            basis: Vec::new(),
            locals: Vec::new(),
            passthrough: Vec::new(),
            group: Vec::new(),
            consumers: Vec::new(),
            removed: block.basis.len(),
            added: 0,
            reuses: 0,
        });
    }
    // Map inner monomials over leader variables to the group-level
    // expressions they compute; remember the cheapest origin monomial per
    // expression so unchanged pairs keep their downstream representation.
    let mut by_expr: HashMap<Anf, Anf> = HashMap::new();
    let mut origin: HashMap<Anf, Monomial> = HashMap::new();
    for (m, outers) in grouped.drain() {
        let mut expr = Anf::one();
        for v in m.vars() {
            expr = expr.and(leader_expr.get(&v).expect("inner is over leader variables"));
        }
        if expr.is_zero() {
            // The product of these leaders is identically zero; the
            // downstream terms it multiplied vanish (an exact rewrite).
            continue;
        }
        let outer = Anf::from_terms(outers);
        match by_expr.get_mut(&expr) {
            Some(acc) => acc.xor_assign(&outer),
            None => {
                by_expr.insert(expr.clone(), outer);
            }
        }
        origin
            .entry(expr)
            .and_modify(|o| {
                if m < *o {
                    *o = m.clone();
                }
            })
            .or_insert(m);
    }
    let mut pairs: Vec<Pair> = by_expr
        .drain()
        .filter(|(_, outer)| !outer.is_zero())
        .map(|(inner, outer)| Pair {
            inner,
            outer,
            nullspace: NullSpace::empty(),
        })
        .collect();
    pairs.sort_by(|a, b| a.inner.cmp(&b.inner));
    let mut pl = PairList {
        pairs,
        rest: Anf::zero(),
    };
    pl.merge_fixpoint();
    // The refinement proper: LinDep and SizeReduce to a joint fixpoint.
    loop {
        let mut changed = false;
        if cfg.enable_linear_minimisation {
            changed |= lindep::minimize(&mut pl, cfg.lindep_outer_term_cap) > 0;
        }
        if cfg.enable_size_reduction {
            let (before, after) = size_reduce::improve(&mut pl);
            changed |= after < before;
        }
        if !changed {
            break;
        }
    }
    // Bucket every pair's outer per consumer slot up front (needed both
    // to price representations and to assemble the rewritten consumers).
    let sel_of: HashMap<Var, usize> = slots
        .iter()
        .enumerate()
        .map(|(j, (_, k, _))| (*k, j))
        .collect();
    let buckets: Vec<Vec<(usize, Anf)>> = pl
        .pairs
        .iter()
        .map(|p| {
            let mut by_slot: HashMap<usize, Vec<Monomial>> = HashMap::new();
            for t in p.outer.terms() {
                let (j, k) = t
                    .vars()
                    .find_map(|v| sel_of.get(&v).map(|&j| (j, v)))
                    .expect("every outer term carries exactly one selector");
                by_slot.entry(j).or_default().push(t.without(k));
            }
            let mut v: Vec<(usize, Anf)> = by_slot
                .into_iter()
                .map(|(j, terms)| (j, Anf::from_terms(terms)))
                .collect();
            v.sort_by_key(|&(j, _)| j);
            v
        })
        .collect();
    // Choose a downstream representation for every surviving pair: an
    // existing leader monomial, a passthrough group variable, a fresh
    // leader — or no leader at all, the basis expression inlined straight
    // into the consumers (the abstraction undone) when that is at most as
    // many literals. Inlining is what collapses the chains of single-use
    // leaders an unrefined run leaves behind.
    let mut locals: Vec<Var> = Vec::new();
    let mut fresh_basis: Vec<(Var, Anf)> = Vec::new();
    let mut reps: Vec<Anf> = Vec::new();
    let mut reused: VarSet = VarSet::new();
    let mut reuses = 0usize;
    for p in &pl.pairs {
        let rep = if p.inner.is_constant() {
            p.inner.clone()
        } else if let Some(m) = origin.get(&p.inner) {
            Anf::from_monomial(m.clone())
        } else if let Some(v) = p.inner.as_literal() {
            Anf::var(v)
        } else if let Some(w) = table.lookup_before(&p.inner, bi) {
            // An earlier block already computes this expression: use its
            // leader as the divisor instead of minting a duplicate.
            reused.insert(w);
            reuses += 1;
            Anf::var(w)
        } else {
            let w = pool.fresh_derived(block.iteration);
            locals.push(w);
            fresh_basis.push((w, p.inner.clone()));
            Anf::var(w)
        };
        reps.push(rep);
    }
    // Inline pass: a pair represented by a single leader variable that no
    // other representation mentions can dissolve entirely — pay the
    // expanded products in the consumers, save the basis entry. Accepted
    // when not more literals overall (ties favour the smaller hierarchy).
    for i in 0..reps.len() {
        let Some(own) = reps[i].as_literal() else {
            continue;
        };
        // Group variables pass through for free; only leader entries (an
        // original basis member or a fresh local) can be saved.
        let is_leader = block.basis.iter().any(|(v, _)| *v == own) || locals.contains(&own);
        if !is_leader {
            continue;
        }
        if reps
            .iter()
            .enumerate()
            .any(|(k, r)| k != i && r.contains_var(own))
        {
            continue;
        }
        let inner = &pl.pairs[i].inner;
        let keep_cost: usize = inner.literal_count()
            + buckets[i]
                .iter()
                .map(|(_, b)| b.literal_count() + b.term_count())
                .sum::<usize>();
        let expanded: Vec<(usize, Anf)> =
            buckets[i].iter().map(|(j, b)| (*j, inner.and(b))).collect();
        let inline_cost: usize = expanded.iter().map(|(_, e)| e.literal_count()).sum();
        if inline_cost <= keep_cost {
            if let Some(k) = locals.iter().position(|&w| w == own) {
                locals.remove(k);
                fresh_basis.retain(|(w, _)| *w != own);
            }
            reps[i] = inner.clone();
        }
    }
    let mut used = VarSet::new();
    for rep in &reps {
        used.extend(rep.support().iter());
    }
    // New basis: surviving original leaders in original order, then the
    // fresh ones; passthrough: group variables representations use
    // directly.
    let mut basis: Vec<(Var, Anf)> = block
        .basis
        .iter()
        .filter(|(v, _)| used.contains(*v))
        .cloned()
        .collect();
    let removed = block.basis.len() - basis.len();
    let added = fresh_basis.len();
    basis.extend(fresh_basis);
    let basis_vars: VarSet = basis.iter().map(|(v, _)| *v).collect();
    // Reused leaders belong to their defining blocks, not this one's
    // passthrough set (they are not group-level inputs of this block).
    let mut passthrough: Vec<Var> = used
        .iter()
        .filter(|v| !basis_vars.contains(*v) && !reused.contains(*v))
        .collect();
    passthrough.sort();
    // Assemble the rewritten consumers: untouched terms plus every pair's
    // representation times its per-slot coefficient.
    let mut acc: Vec<Vec<Monomial>> = slots
        .iter()
        .map(|(_, _, untouched)| untouched.clone())
        .collect();
    for (rep, slot_buckets) in reps.iter().zip(&buckets) {
        for (j, b) in slot_buckets {
            acc[*j].extend(rep.and(b).into_terms());
        }
    }
    let mut consumers: Vec<(Slot, Anf)> = Vec::new();
    for ((slot, _, _), terms) in slots.iter().zip(acc) {
        let new = Anf::from_terms(terms);
        let old = match *slot {
            Slot::Basis(bj, j) => &d.blocks[bj].basis[j].1,
            Slot::Output(oi) => &d.outputs[oi].1,
        };
        if new != *old {
            consumers.push((*slot, new));
        }
    }
    if consumers.is_empty() && basis == block.basis && passthrough == block.passthrough {
        return None;
    }
    let mut group_set = VarSet::new();
    for (_, e) in &basis {
        group_set.extend(e.support().iter());
    }
    group_set.extend(passthrough.iter().copied());
    let mut group: Vec<Var> = group_set.iter().collect();
    group.sort();
    Some(Patch {
        block: bi,
        basis,
        locals,
        passthrough,
        group,
        consumers,
        removed,
        added,
        reuses,
    })
}

/// Commits a patch: renames clone-pool leader variables to real ones,
/// installs the new basis, and rewrites the consumer slots. Returns the
/// re-enqueue set: downstream blocks whose basis changed, plus the
/// producers feeding any rewritten slot (the rewrite changed the
/// coefficients their own pair lists would see).
fn apply_patch(d: &mut Decomposition, patch: Patch) -> Vec<usize> {
    let iteration = d.blocks[patch.block].iteration;
    let rename: HashMap<Var, Var> = patch
        .locals
        .iter()
        .map(|&w| (w, d.pool.fresh_derived(iteration)))
        .collect();
    let fix = |e: &Anf| {
        if rename.is_empty() {
            e.clone()
        } else {
            e.map_vars(|v| rename.get(&v).copied().unwrap_or(v))
        }
    };
    // Variables whose occurrence sites change: everything mentioned by a
    // rewritten slot before or after the rewrite, plus the support of
    // every basis entry (and passthrough) the patch drops — their
    // producers may have just lost their last consumer, and only a
    // re-refinement of those blocks can retire the dead leaders.
    let mut affected = VarSet::new();
    let b = &mut d.blocks[patch.block];
    for (v, e) in &b.basis {
        if !patch.basis.iter().any(|(kept, _)| kept == v) {
            affected.extend(e.support().iter());
        }
    }
    for &p in &b.passthrough {
        if !patch.passthrough.contains(&p) {
            affected.insert(p);
        }
    }
    b.basis = patch
        .basis
        .iter()
        .map(|(v, e)| (rename.get(v).copied().unwrap_or(*v), e.clone()))
        .collect();
    b.passthrough = patch.passthrough;
    b.group = patch.group;
    let mut dirtied = Vec::new();
    for (slot, expr) in &patch.consumers {
        let new = fix(expr);
        affected.extend(new.support().iter());
        match *slot {
            Slot::Basis(bj, j) => {
                affected.extend(d.blocks[bj].basis[j].1.support().iter());
                d.blocks[bj].basis[j].1 = new;
                dirtied.push(bj);
            }
            Slot::Output(oi) => {
                affected.extend(d.outputs[oi].1.support().iter());
                d.outputs[oi].1 = new;
            }
        }
    }
    for (bj, b) in d.blocks.iter().enumerate() {
        if bj != patch.block && b.basis.iter().any(|(v, _)| affected.contains(*v)) {
            dirtied.push(bj);
        }
    }
    dirtied.sort_unstable();
    dirtied.dedup();
    dirtied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::examples::majority_anf;
    use crate::ProgressiveDecomposer;
    use pd_anf::VarPool;

    fn unrefined(pool: VarPool, spec: Vec<(String, Anf)>) -> Decomposition {
        ProgressiveDecomposer::new(PdConfig::default().without_basis_refinement())
            .decompose(pool, spec)
    }

    #[test]
    fn refine_preserves_equivalence_and_shrinks_maj15() {
        let mut pool = VarPool::new();
        let maj = majority_anf(&mut pool, 15);
        let mut d = unrefined(pool, vec![("maj".into(), maj)]);
        let before = d.hierarchy_literal_count();
        let stats = refine(&mut d, &PdConfig::default());
        assert!(d.check_equivalence(256, 7).is_none(), "refine broke maj15");
        assert_eq!(stats.literals_before, before);
        assert_eq!(stats.literals_after, d.hierarchy_literal_count());
        assert!(
            stats.literals_after < before,
            "refinement must shrink maj15: {before} -> {}",
            stats.literals_after
        );
        assert!(stats.blocks_changed > 0);
    }

    #[test]
    fn refine_is_a_noop_with_passes_disabled() {
        let mut pool = VarPool::new();
        let maj = majority_anf(&mut pool, 7);
        let mut d = unrefined(pool, vec![("maj".into(), maj)]);
        let blocks_before: Vec<_> = d.blocks.iter().map(|b| b.basis.clone()).collect();
        let stats = refine(&mut d, &PdConfig::default().bare());
        assert_eq!(stats.blocks_changed, 0);
        assert_eq!(stats.literals_before, stats.literals_after);
        let blocks_after: Vec<_> = d.blocks.iter().map(|b| b.basis.clone()).collect();
        assert_eq!(blocks_before, blocks_after);
    }

    #[test]
    fn refine_again_never_regresses() {
        let mut pool = VarPool::new();
        let maj = majority_anf(&mut pool, 9);
        let mut d = unrefined(pool, vec![("maj".into(), maj)]);
        let first = refine(&mut d, &PdConfig::default());
        let second = refine(&mut d, &PdConfig::default());
        assert!(
            second.literals_after <= first.literals_after,
            "second refine must not regress: {} -> {}",
            first.literals_after,
            second.literals_after
        );
        assert!(d.check_equivalence(256, 11).is_none());
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn refine_handles_multiple_outputs_and_shared_structure() {
        let mut pool = VarPool::new();
        let srcs = [
            "a*b ^ b*c ^ c*a ^ d*e",
            "a*b ^ b*c ^ c*a ^ d ^ e",
            "a ^ b ^ c ^ d ^ e",
        ];
        let outputs: Vec<(String, Anf)> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("y{i}"), Anf::parse(s, &mut pool).unwrap()))
            .collect();
        let mut d = unrefined(pool, outputs);
        refine(&mut d, &PdConfig::default());
        assert!(d.check_equivalence(64, 3).is_none());
        assert_eq!(d.validate(), Ok(()));
    }

    #[test]
    fn leader_cse_folds_duplicate_leaders() {
        // Two blocks computing the same expression over the same group:
        // the second leader must merge onto the first, with every
        // downstream use renamed.
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let e = Anf::var(a).and(&Anf::var(b)).xor(&Anf::var(a));
        let s1 = pool.derived("s1", 1);
        let s2 = pool.derived("s2", 2);
        let mk_block = |iteration: u32, v: Var, e: &Anf| Block {
            iteration,
            group: vec![a, b],
            basis: vec![(v, e.clone())],
            passthrough: vec![],
            substitutions: vec![],
        };
        let spec = vec![("y".to_owned(), e.clone().and(&e))];
        let d = Decomposition {
            spec: spec.clone(),
            blocks: vec![mk_block(1, s1, &e), mk_block(2, s2, &e)],
            outputs: vec![("y".to_owned(), Anf::var(s1).and(&Anf::var(s2)))],
            pool,
            iterations: 2,
            trace: Vec::new(),
        };
        let mut d = d;
        let merged = super::leader_cse(&mut d);
        assert_eq!(merged, 1);
        assert_eq!(d.blocks[1].basis.len(), 0, "duplicate leader dropped");
        assert!(
            !d.outputs[0].1.contains_var(s2),
            "output rewritten to the surviving leader"
        );
        assert!(d.outputs[0].1.contains_var(s1));
    }

    #[test]
    fn arbitrated_refine_emits_no_more_gates_than_a_from_scratch_run() {
        // On maj11 the worklist moves the gate estimate past the skip
        // bound, so the arbitration close really runs here.
        let mut pool = VarPool::new();
        let maj = majority_anf(&mut pool, 11);
        let spec = vec![("maj".into(), maj)];
        let scratch =
            ProgressiveDecomposer::new(PdConfig::default()).decompose(pool.clone(), spec.clone());
        let mut d = unrefined(pool, spec);
        let stats = refine(&mut d, &PdConfig::default());
        assert!(!stats.budget_exhausted);
        assert!(!stats.arbitration_skipped, "arbitration must run on maj11");
        assert!(
            gate_estimate(&d) <= gate_estimate(&scratch),
            "refine must never emit more gates than the from-scratch refined run: {} vs {}",
            gate_estimate(&d),
            gate_estimate(&scratch)
        );
        assert!(d.check_equivalence(256, 13).is_none());
    }

    #[test]
    fn refined_hierarchy_emits_an_equivalent_netlist() {
        let mut pool = VarPool::new();
        let maj = majority_anf(&mut pool, 11);
        let mut d = unrefined(pool, vec![("maj".into(), maj)]);
        refine(&mut d, &PdConfig::default());
        let nl = d.to_netlist();
        assert_eq!(
            pd_netlist::sim::check_equiv_anf(&nl, &d.spec, 256, 21),
            None
        );
    }
}
