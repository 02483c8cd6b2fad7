//! The content-addressed stage cache.
//!
//! Every stage a flow completes — netlist/hierarchy snapshot,
//! [`StageReport`], verify verdict — is stored in a [`pd_cache::DiskStore`]
//! under a key derived from a canonical hash of the stage's *inputs*:
//!
//! ```text
//!   k₀      = H(canonical pool ‖ canonical outputs ‖ config fingerprint
//!               ‖ crate version)
//!   k_stage = H(k_prev ‖ stage name)
//! ```
//!
//! The canonical encoding comes from [`pd_anf::canon`] (stable monomial
//! ordering, allocation-order pools), so two requests describing the same
//! function under the same configuration hash identically no matter how
//! they were phrased. Because the key chain depends only on the spec and
//! the configuration — both known before anything runs — all five stage
//! keys are computable upfront, which is what makes **prefix resume**
//! possible: a re-run serves cached stages until the first key that is
//! absent, then computes (and stores) from there.
//!
//! Two deliberate exclusions from the key:
//!
//! * the **fault plan** — a faulted flow never reads or writes the cache
//!   (injection must actually exercise the machinery it targets);
//! * **thread count** — stage results are bit-identical at any
//!   `PD_THREADS` (the determinism discipline), so one artifact serves
//!   every pool width.
//!
//! Nothing else reaches a stage: the flow keeps no state across runs,
//! so one key maps to one value whatever the cache history.
//!
//! A stage that committed explicitly unverified (`verified:
//! Some(false)`) is never stored: the cache must only ever serve results
//! that were green (or knowingly unchecked, `verify = false` — a
//! distinct fingerprint) when first computed. On replay the report's
//! original verdict is kept and the stage is additionally marked
//! `verified_from_cache` in the JSON stats.

use crate::json::Json;
use crate::{FlowConfig, StageKind, StageReport};
use pd_anf::canon::{encode_outputs, encode_pool, Fnv128};
use pd_anf::{Anf, Monomial, Var, VarKind, VarPool};
use pd_cache::DiskStore;
use pd_cells::{AreaDelayReport, CellKind, MappedCell, MappedNetlist};
use pd_core::{Block, Decomposition};
use pd_netlist::{Gate, Netlist, NodeId};
use std::path::Path;

/// Schema tag of one cached stage entry.
const ENTRY_SCHEMA: &str = "pd-stage-cache/v1";

/// Semantic fingerprint of a [`FlowConfig`]: every knob that can change a
/// stage's output, rendered to a stable string. Deliberately excludes the
/// fault plan and the thread count (see the module docs), and the cache
/// directory itself. `library` is the `TechMap`/`STA` cell library.
///
/// The destructuring is exhaustive, so a new `FlowConfig` field does not
/// compile until it is either rendered here or excluded by name.
pub fn config_fingerprint(cfg: &FlowConfig) -> String {
    let FlowConfig {
        pd,
        global_extract,
        library,
        verify,
        budget_decompose,
        budget_reduce,
        budget_factor,
        node_cap,
        fault: _,
        cache_dir: _,
    } = cfg;
    format!(
        "pd={pd:?};global={global_extract:?};library={library:?};verify={verify};\
         budgets={budget_decompose}/{budget_reduce}/{budget_factor};node_cap={node_cap}"
    )
}

/// The five per-stage cache keys for one (spec, config) pair, computed
/// upfront (see the module docs for the chain construction). Each key is
/// `<hash>.<stage>` — valid for [`pd_cache::DiskStore`] and
/// self-describing when listing a cache directory.
pub fn stage_keys(pool: &VarPool, outputs: &[(String, Anf)], cfg: &FlowConfig) -> [String; 5] {
    let mut bytes = Vec::new();
    encode_pool(pool, &mut bytes);
    encode_outputs(outputs, &mut bytes);
    let mut h = Fnv128::new();
    h.write(&bytes);
    h.write_str(&config_fingerprint(cfg));
    h.write_str(env!("CARGO_PKG_VERSION"));
    let mut prev = h.hex();
    StageKind::ALL.map(|stage| {
        let mut h = Fnv128::new();
        h.write_str(&prev);
        h.write_str(stage.name());
        prev = h.hex();
        format!("{prev}.{}", stage.name())
    })
}

/// One rehydrated cache entry: the stage's report plus exactly the flow
/// state that stage would have committed (unused sections stay `None`).
#[derive(Clone, Debug, Default)]
pub struct CachedStage {
    /// The report the stage produced when it was first computed.
    pub report: Option<StageReport>,
    /// Working pool after the stage (stages that allocate variables).
    pub pool: Option<VarPool>,
    /// Hierarchy after the stage (`Decompose`/`Reduce`; the netlist
    /// snapshot is recomputed from it on replay).
    pub decomposition: Option<Decomposition>,
    /// Netlist snapshot (`Factor`/`TechMap`, whose netlists are not
    /// derivable from the hierarchy).
    pub netlist: Option<Netlist>,
    /// Mapped netlist (`TechMap`).
    pub mapped: Option<MappedNetlist>,
    /// Timing report (`STA`).
    pub sta: Option<AreaDelayReport>,
}

/// Handle on the stage cache for one prepared flow: the store plus the
/// precomputed key chain.
#[derive(Clone, Debug)]
pub struct StageCache {
    store: DiskStore,
    keys: [String; 5],
}

impl StageCache {
    /// Opens (creating if needed) the cache under `dir` and derives the
    /// key chain for this (spec, config) pair. Returns `None` when the
    /// directory cannot be created — caching is an optimisation, never a
    /// reason to fail a flow.
    pub fn open(
        dir: &Path,
        pool: &VarPool,
        outputs: &[(String, Anf)],
        cfg: &FlowConfig,
    ) -> Option<StageCache> {
        let store = DiskStore::open(dir).ok()?;
        Some(StageCache {
            store,
            keys: stage_keys(pool, outputs, cfg),
        })
    }

    /// The cache key of stage `index` (0 = Decompose … 4 = STA).
    pub fn key(&self, index: usize) -> &str {
        &self.keys[index]
    }

    /// Loads and rehydrates stage `index`, or `None` on a miss (absent,
    /// unreadable, or unparseable entries all count as misses).
    pub fn load(&self, index: usize) -> Option<CachedStage> {
        let text = self.store.load(&self.keys[index]).ok()??;
        let doc = Json::parse(&text).ok()?;
        if doc.get("schema").and_then(Json::as_str) != Some(ENTRY_SCHEMA) {
            return None;
        }
        let report = report_from_json(doc.get("report")?)?;
        let state = doc.get("state")?;
        let mut entry = CachedStage {
            report: Some(report),
            ..CachedStage::default()
        };
        if let Some(j) = state.get("pool") {
            entry.pool = Some(pool_from_json(j)?);
        }
        if let Some(j) = state.get("decomposition") {
            entry.decomposition = Some(decomposition_from_json(j)?);
        }
        if let Some(j) = state.get("netlist") {
            entry.netlist = Some(netlist_from_json(j)?);
        }
        if let Some(j) = state.get("mapped") {
            entry.mapped = Some(mapped_from_json(j)?);
        }
        if let Some(j) = state.get("sta") {
            entry.sta = Some(sta_from_json(j)?);
        }
        Some(entry)
    }

    /// Stores stage `index`. Failures are swallowed: a read-only or full
    /// cache directory degrades to cold-running, it does not kill flows.
    pub fn store(&self, index: usize, stage: StageKind, entry: &CachedStage) {
        let mut state: Vec<(&str, Json)> = Vec::new();
        if let Some(p) = &entry.pool {
            state.push(("pool", pool_to_json(p)));
        }
        if let Some(d) = &entry.decomposition {
            state.push(("decomposition", decomposition_to_json(d)));
        }
        if let Some(n) = &entry.netlist {
            state.push(("netlist", netlist_to_json(n)));
        }
        if let Some(m) = &entry.mapped {
            state.push(("mapped", mapped_to_json(m)));
        }
        if let Some(s) = &entry.sta {
            state.push(("sta", sta_to_json(s)));
        }
        let report = match &entry.report {
            Some(r) => r.to_json(),
            None => return,
        };
        let doc = Json::obj(vec![
            ("schema", Json::from(ENTRY_SCHEMA)),
            ("stage", Json::from(stage.name())),
            ("report", report),
            ("state", Json::obj(state)),
        ]);
        let _ = self.store.store(&self.keys[index], &doc.pretty());
    }
}

fn num_usize(j: &Json) -> Option<usize> {
    let n = j.as_num()?;
    if n < 0.0 || n.fract() != 0.0 || n > usize::MAX as f64 {
        return None;
    }
    Some(n as usize)
}

fn num_u64(j: &Json) -> Option<u64> {
    let n = j.as_num()?;
    if n < 0.0 || n.fract() != 0.0 {
        return None;
    }
    Some(n as u64)
}

/// Serialises a pool as `[[name, kind…], …]` in allocation order
/// (`["a0","i",word,bit]`, `["s3","d",iteration]`, `["K0","k"]`).
pub fn pool_to_json(pool: &VarPool) -> Json {
    Json::Arr(
        pool.iter()
            .map(|v| {
                let mut row = vec![Json::from(pool.name(v))];
                match pool.kind(v) {
                    VarKind::Input { word, bit } => {
                        row.push(Json::from("i"));
                        row.push(Json::from(word));
                        row.push(Json::from(bit));
                    }
                    VarKind::Derived { iteration } => {
                        row.push(Json::from("d"));
                        row.push(Json::from(iteration as usize));
                    }
                    VarKind::Selector => row.push(Json::from("k")),
                }
                Json::Arr(row)
            })
            .collect(),
    )
}

/// Inverse of [`pool_to_json`]; indices come back identical because
/// allocation order is index order ([`VarPool::from_parts`]).
pub fn pool_from_json(j: &Json) -> Option<VarPool> {
    let rows = j.as_arr()?;
    let mut entries = Vec::with_capacity(rows.len());
    for row in rows {
        let row = row.as_arr()?;
        let name = row.first()?.as_str()?.to_owned();
        let kind = match row.get(1)?.as_str()? {
            "i" => VarKind::Input {
                word: num_usize(row.get(2)?)?,
                bit: num_usize(row.get(3)?)?,
            },
            "d" => VarKind::Derived {
                iteration: u32::try_from(num_usize(row.get(2)?)?).ok()?,
            },
            "k" => VarKind::Selector,
            _ => return None,
        };
        entries.push((name, kind));
    }
    Some(VarPool::from_parts(entries))
}

/// Serialises an expression as its canonical term list: one array of
/// ascending variable indices per monomial.
pub fn anf_to_json(a: &Anf) -> Json {
    Json::Arr(
        a.terms()
            .map(|m| Json::Arr(m.vars().map(|v| Json::from(v.index())).collect()))
            .collect(),
    )
}

/// Inverse of [`anf_to_json`].
pub fn anf_from_json(j: &Json) -> Option<Anf> {
    let terms = j.as_arr()?;
    let mut out = Vec::with_capacity(terms.len());
    for t in terms {
        let vars = t.as_arr()?;
        let mut m = Vec::with_capacity(vars.len());
        for v in vars {
            m.push(Var(u32::try_from(num_usize(v)?).ok()?));
        }
        out.push(Monomial::from_vars(m));
    }
    Some(Anf::from_terms(out))
}

fn named_anfs_to_json(items: &[(String, Anf)]) -> Json {
    Json::Arr(
        items
            .iter()
            .map(|(n, e)| Json::Arr(vec![Json::from(n.as_str()), anf_to_json(e)]))
            .collect(),
    )
}

fn named_anfs_from_json(j: &Json) -> Option<Vec<(String, Anf)>> {
    j.as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            Some((
                pair.first()?.as_str()?.to_owned(),
                anf_from_json(pair.get(1)?)?,
            ))
        })
        .collect()
}

fn var_anfs_to_json(items: &[(Var, Anf)]) -> Json {
    Json::Arr(
        items
            .iter()
            .map(|(v, e)| Json::Arr(vec![Json::from(v.index()), anf_to_json(e)]))
            .collect(),
    )
}

fn var_anfs_from_json(j: &Json) -> Option<Vec<(Var, Anf)>> {
    j.as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            Some((
                Var(u32::try_from(num_usize(pair.first()?)?).ok()?),
                anf_from_json(pair.get(1)?)?,
            ))
        })
        .collect()
}

fn vars_to_json(items: &[Var]) -> Json {
    Json::Arr(items.iter().map(|v| Json::from(v.index())).collect())
}

fn vars_from_json(j: &Json) -> Option<Vec<Var>> {
    j.as_arr()?
        .iter()
        .map(|v| Some(Var(u32::try_from(num_usize(v)?).ok()?)))
        .collect()
}

/// Serialises a hierarchy. The execution trace is display-only state and
/// is deliberately dropped; a rehydrated decomposition replays with an
/// empty trace.
pub fn decomposition_to_json(d: &Decomposition) -> Json {
    Json::obj(vec![
        ("iterations", Json::from(d.iterations as usize)),
        ("pool", pool_to_json(&d.pool)),
        ("spec", named_anfs_to_json(&d.spec)),
        ("outputs", named_anfs_to_json(&d.outputs)),
        (
            "blocks",
            Json::Arr(
                d.blocks
                    .iter()
                    .map(|b| {
                        Json::obj(vec![
                            ("iteration", Json::from(b.iteration as usize)),
                            ("group", vars_to_json(&b.group)),
                            ("basis", var_anfs_to_json(&b.basis)),
                            ("passthrough", vars_to_json(&b.passthrough)),
                            ("substitutions", var_anfs_to_json(&b.substitutions)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`decomposition_to_json`].
pub fn decomposition_from_json(j: &Json) -> Option<Decomposition> {
    let mut blocks = Vec::new();
    for b in j.get("blocks")?.as_arr()? {
        blocks.push(Block {
            iteration: u32::try_from(num_usize(b.get("iteration")?)?).ok()?,
            group: vars_from_json(b.get("group")?)?,
            basis: var_anfs_from_json(b.get("basis")?)?,
            passthrough: vars_from_json(b.get("passthrough")?)?,
            substitutions: var_anfs_from_json(b.get("substitutions")?)?,
        });
    }
    Some(Decomposition {
        spec: named_anfs_from_json(j.get("spec")?)?,
        blocks,
        outputs: named_anfs_from_json(j.get("outputs")?)?,
        pool: pool_from_json(j.get("pool")?)?,
        trace: Vec::new(),
        iterations: u32::try_from(num_usize(j.get("iterations")?)?).ok()?,
    })
}

fn node_to_json(n: NodeId) -> Json {
    Json::from(n.index())
}

fn node_from_json(j: &Json) -> Option<NodeId> {
    Some(NodeId::from_index(num_usize(j)?))
}

/// Serialises a netlist positionally: one `[mnemonic, fanins…]` row per
/// node in topological order, plus the named outputs.
pub fn netlist_to_json(nl: &Netlist) -> Json {
    let gates = nl
        .iter()
        .map(|(_, g)| {
            let mut row: Vec<Json> = vec![Json::from(match g {
                Gate::Const(false) => "c0",
                Gate::Const(true) => "c1",
                _ => g.mnemonic(),
            })];
            if let Gate::Input(v) = g {
                row.push(Json::from(v.index()));
            } else {
                row.extend(g.fanins().map(node_to_json));
            }
            Json::Arr(row)
        })
        .collect();
    Json::obj(vec![
        ("gates", Json::Arr(gates)),
        (
            "outputs",
            Json::Arr(
                nl.outputs()
                    .iter()
                    .map(|(name, n)| Json::Arr(vec![Json::from(name.as_str()), node_to_json(*n)]))
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`netlist_to_json`]; node ids are replayed positionally
/// ([`Netlist::from_parts`]).
pub fn netlist_from_json(j: &Json) -> Option<Netlist> {
    let mut nodes = Vec::new();
    for row in j.get("gates")?.as_arr()? {
        let row = row.as_arr()?;
        let fanin = |i: usize| -> Option<NodeId> { node_from_json(row.get(i)?) };
        nodes.push(match row.first()?.as_str()? {
            "c0" => Gate::Const(false),
            "c1" => Gate::Const(true),
            "input" => Gate::Input(Var(u32::try_from(num_usize(row.get(1)?)?).ok()?)),
            "not" => Gate::Not(fanin(1)?),
            "and" => Gate::And(fanin(1)?, fanin(2)?),
            "or" => Gate::Or(fanin(1)?, fanin(2)?),
            "xor" => Gate::Xor(fanin(1)?, fanin(2)?),
            "mux" => Gate::Mux {
                sel: fanin(1)?,
                lo: fanin(2)?,
                hi: fanin(3)?,
            },
            "maj" => Gate::Maj(fanin(1)?, fanin(2)?, fanin(3)?),
            _ => return None,
        });
    }
    let mut outputs = Vec::new();
    for pair in j.get("outputs")?.as_arr()? {
        let pair = pair.as_arr()?;
        outputs.push((
            pair.first()?.as_str()?.to_owned(),
            node_from_json(pair.get(1)?)?,
        ));
    }
    // from_parts asserts topological order; cached entries are our own
    // writes, but a corrupted file must surface as a miss, not a panic.
    for (i, g) in nodes.iter().enumerate() {
        if !matches!(g, Gate::Input(_)) && g.fanins().any(|f| f.index() >= i) {
            return None;
        }
    }
    if outputs.iter().any(|(_, n)| n.index() >= nodes.len()) {
        return None;
    }
    Some(Netlist::from_parts(nodes, outputs))
}

fn cell_kind_name(k: CellKind) -> String {
    k.to_string()
}

fn cell_kind_from_name(name: &str) -> Option<CellKind> {
    CellKind::ALL.into_iter().find(|k| k.to_string() == name)
}

/// Serialises a mapped netlist: `[kind, [fanins…], drives]` rows in
/// topological order plus the input and output node lists.
pub fn mapped_to_json(m: &MappedNetlist) -> Json {
    Json::obj(vec![
        (
            "cells",
            Json::Arr(
                m.cells
                    .iter()
                    .map(|c| {
                        Json::Arr(vec![
                            Json::from(cell_kind_name(c.kind).as_str()),
                            Json::Arr(c.fanins.iter().map(|&f| node_to_json(f)).collect()),
                            node_to_json(c.drives),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "inputs",
            Json::Arr(m.inputs.iter().map(|&n| node_to_json(n)).collect()),
        ),
        (
            "outputs",
            Json::Arr(
                m.outputs
                    .iter()
                    .map(|(name, n)| Json::Arr(vec![Json::from(name.as_str()), node_to_json(*n)]))
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`mapped_to_json`]; the driver index is rebuilt from the
/// cell list (cell `i` drives `cells[i].drives`).
pub fn mapped_from_json(j: &Json) -> Option<MappedNetlist> {
    let mut mapped = MappedNetlist::default();
    for row in j.get("cells")?.as_arr()? {
        let row = row.as_arr()?;
        let fanins = row
            .get(1)?
            .as_arr()?
            .iter()
            .map(node_from_json)
            .collect::<Option<Vec<_>>>()?;
        let cell = MappedCell {
            kind: cell_kind_from_name(row.first()?.as_str()?)?,
            fanins,
            drives: node_from_json(row.get(2)?)?,
        };
        mapped.driver.insert(cell.drives, mapped.cells.len());
        mapped.cells.push(cell);
    }
    mapped.inputs = j
        .get("inputs")?
        .as_arr()?
        .iter()
        .map(node_from_json)
        .collect::<Option<Vec<_>>>()?;
    for pair in j.get("outputs")?.as_arr()? {
        let pair = pair.as_arr()?;
        mapped.outputs.push((
            pair.first()?.as_str()?.to_owned(),
            node_from_json(pair.get(1)?)?,
        ));
    }
    Some(mapped)
}

/// Serialises a timing report (histogram as `[kind, count]` rows).
pub fn sta_to_json(r: &AreaDelayReport) -> Json {
    Json::obj(vec![
        ("area_um2", Json::from(r.area_um2)),
        ("delay_ns", Json::from(r.delay_ns)),
        ("cell_count", Json::from(r.cell_count)),
        (
            "critical_output",
            match &r.critical_output {
                Some(s) => Json::from(s.as_str()),
                None => Json::Null,
            },
        ),
        (
            "histogram",
            Json::Arr(
                r.histogram
                    .iter()
                    .map(|(k, &n)| {
                        Json::Arr(vec![Json::from(cell_kind_name(*k).as_str()), Json::from(n)])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`sta_to_json`].
pub fn sta_from_json(j: &Json) -> Option<AreaDelayReport> {
    let mut histogram = std::collections::BTreeMap::new();
    for pair in j.get("histogram")?.as_arr()? {
        let pair = pair.as_arr()?;
        histogram.insert(
            cell_kind_from_name(pair.first()?.as_str()?)?,
            num_usize(pair.get(1)?)?,
        );
    }
    Some(AreaDelayReport {
        area_um2: j.get("area_um2")?.as_num()?,
        delay_ns: j.get("delay_ns")?.as_num()?,
        cell_count: num_usize(j.get("cell_count")?)?,
        histogram,
        critical_output: match j.get("critical_output")? {
            Json::Null => None,
            other => Some(other.as_str()?.to_owned()),
        },
    })
}

/// Inverse of [`StageReport::to_json`], for cache replay. Fields absent
/// from the document stay `None` (the writer omits unset metrics).
pub fn report_from_json(j: &Json) -> Option<StageReport> {
    let stage = StageKind::ALL
        .into_iter()
        .find(|s| Some(s.name()) == j.get("stage").and_then(Json::as_str))?;
    let mut r = StageReport::new(stage);
    r.wall_ms = j.get("wall_ms")?.as_num()?;
    r.verify_ms = j.get("verify_ms")?.as_num()?;
    r.verified = j.get("verified").and_then(Json::as_bool);
    r.verify_peak_nodes = j.get("verify_peak_nodes").and_then(num_usize);
    r.literals = j.get("literals").and_then(num_usize);
    r.gates = j.get("gates").and_then(num_usize);
    r.blocks = j.get("blocks").and_then(num_usize);
    r.cells = j.get("cells").and_then(num_usize);
    r.area_um2 = j.get("area_um2").and_then(Json::as_num);
    r.delay_ns = j.get("delay_ns").and_then(Json::as_num);
    r.critical_output = j
        .get("critical_output")
        .and_then(Json::as_str)
        .map(str::to_owned);
    r.refine_passes = j.get("refine_passes").and_then(num_usize);
    r.refine_leaders_removed = j.get("refine_leaders_removed").and_then(num_usize);
    r.refine_reuses = j.get("refine_reuses").and_then(num_usize);
    r.refine_arbitrated = j.get("refine_arbitrated").and_then(Json::as_bool);
    r.shared_divisors = j.get("shared_divisors").and_then(num_usize);
    r.divisor_reuse_count = j.get("divisor_reuse_count").and_then(num_usize);
    r.degraded = j.get("degraded").and_then(Json::as_str).map(str::to_owned);
    r.degradation_reason = j
        .get("degradation_reason")
        .and_then(Json::as_str)
        .map(str::to_owned);
    r.effort_spent = j.get("effort_spent").and_then(num_u64);
    r.cache = j.get("cache").and_then(Json::as_str).map(str::to_owned);
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_core::{PdConfig, ProgressiveDecomposer};

    fn small_decomposition() -> Decomposition {
        let mut pool = VarPool::new();
        let spec = vec![
            ("s".to_owned(), Anf::parse("a ^ b ^ c", &mut pool).unwrap()),
            (
                "co".to_owned(),
                Anf::parse("a*b ^ b*c ^ c*a", &mut pool).unwrap(),
            ),
        ];
        ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec)
    }

    #[test]
    fn pool_and_anf_round_trip() {
        let mut pool = VarPool::new();
        pool.input("a0", 0, 0);
        pool.input("b1", 1, 1);
        pool.derived("s2", 7);
        pool.fresh_selector();
        let back = pool_from_json(&pool_to_json(&pool)).unwrap();
        assert_eq!(back.len(), pool.len());
        for v in pool.iter() {
            assert_eq!(back.name(v), pool.name(v));
            assert_eq!(back.kind(v), pool.kind(v));
        }
        let mut p2 = VarPool::new();
        let e = Anf::parse("a*b ^ c ^ 1", &mut p2).unwrap();
        assert_eq!(anf_from_json(&anf_to_json(&e)).unwrap(), e);
    }

    #[test]
    fn decomposition_round_trip_preserves_netlist() {
        let d = small_decomposition();
        let back = decomposition_from_json(&decomposition_to_json(&d)).unwrap();
        assert_eq!(back.iterations, d.iterations);
        assert_eq!(back.blocks.len(), d.blocks.len());
        assert_eq!(back.outputs, d.outputs);
        // The replayed hierarchy synthesises the *same* netlist.
        let (a, b) = (d.to_netlist(), back.to_netlist());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.outputs(), b.outputs());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
    }

    #[test]
    fn netlist_and_mapped_round_trip() {
        let d = small_decomposition();
        let nl = d.to_netlist().sweep();
        let back = netlist_from_json(&netlist_to_json(&nl)).unwrap();
        assert_eq!(back.len(), nl.len());
        assert_eq!(back.outputs(), nl.outputs());
        assert!(nl.iter().zip(back.iter()).all(|(x, y)| x == y));

        let mapped = pd_cells::map::map(&nl);
        let mback = mapped_from_json(&mapped_to_json(&mapped)).unwrap();
        assert_eq!(mback.cells, mapped.cells);
        assert_eq!(mback.inputs, mapped.inputs);
        assert_eq!(mback.outputs, mapped.outputs);
        assert_eq!(mback.driver, mapped.driver);

        let lib = pd_cells::CellLibrary::umc130();
        let sta = pd_cells::report_mapped(&mapped, &lib);
        let sback = sta_from_json(&sta_to_json(&sta)).unwrap();
        assert_eq!(sback, sta);
    }

    #[test]
    fn corrupt_netlist_entries_are_misses_not_panics() {
        // A fanin pointing forward violates topological order.
        let doc = Json::parse(r#"{"gates": [["not", 1], ["c1"]], "outputs": [["y", 0]]}"#).unwrap();
        assert!(netlist_from_json(&doc).is_none());
        // An output out of range.
        let doc = Json::parse(r#"{"gates": [["c1"]], "outputs": [["y", 9]]}"#).unwrap();
        assert!(netlist_from_json(&doc).is_none());
    }

    #[test]
    fn stage_keys_chain_and_separate_configs() {
        let mut pool = VarPool::new();
        let outputs = vec![("y".to_owned(), Anf::parse("a*b ^ c", &mut pool).unwrap())];
        let cfg = FlowConfig::default();
        let keys = stage_keys(&pool, &outputs, &cfg);
        assert_eq!(keys.len(), 5);
        assert!(keys[0].ends_with(".decompose"));
        assert!(keys[4].ends_with(".sta"));
        let unique: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(unique.len(), 5, "chained keys are distinct");
        for k in &keys {
            assert!(pd_cache::valid_key(k), "{k}");
        }
        // Same inputs → same keys (the content-addressing contract)…
        assert_eq!(stage_keys(&pool, &outputs, &cfg), keys);
        // …different config → different keys from k₀ on.
        let mut other = cfg.clone();
        other.verify = false;
        let keys2 = stage_keys(&pool, &outputs, &other);
        assert!(keys.iter().zip(&keys2).all(|(a, b)| a != b));
    }

    #[test]
    fn fingerprint_covers_results_and_nothing_else() {
        let base = FlowConfig {
            budget_factor: u64::MAX,
            node_cap: pd_bdd::DEFAULT_NODE_CAP,
            fault: None,
            cache_dir: None,
            ..FlowConfig::default()
        };
        let key = config_fingerprint(&base);
        // Neither the fault plan nor the cache directory reaches a stage
        // result, so neither may split the key.
        let faulted = FlowConfig {
            fault: Some(crate::FaultPlan::parse("reduce:panic:1").unwrap()),
            cache_dir: Some("elsewhere".into()),
            ..base.clone()
        };
        assert_eq!(config_fingerprint(&faulted), key);
        // Knobs that can change a result must.
        let budgeted = FlowConfig {
            budget_factor: 7,
            ..base.clone()
        };
        assert_ne!(config_fingerprint(&budgeted), key);
        let capped = FlowConfig {
            node_cap: 4096,
            ..base.clone()
        };
        assert_ne!(config_fingerprint(&capped), key);
    }
}
