//! Circuit resolution and `pd flow` specification files.
//!
//! A flow specification is a JSON object naming the circuits to run and
//! any per-stage overrides:
//!
//! ```json
//! {
//!   "circuits": ["maj15", "counter12", "designs/alu.v"],
//!   "group_size": 4,
//!   "verify": true,
//!   "minimize": true,
//!   "factor_max_support": 12,
//!   "extract": { "max_rounds": 256, "min_gain": 1 },
//!   "budget_decompose": 100000,
//!   "budget_reduce": 100000,
//!   "budget_factor": 100000,
//!   "node_cap": 1000000,
//!   "fault": "reduce:panic:1",
//!   "out": "FLOW_STATS.json"
//! }
//! ```
//!
//! The `budget_*` keys bound per-stage effort (decomposer trials /
//! divisor candidates — deterministic counters, not wall-clock); `fault`
//! arms the deterministic fault-injection harness with the same
//! `<stage>:<mode>[:<count>]` syntax as the `PD_FAULT` environment
//! variable. `node_cap` bounds the BDD oracle's node table
//! (`PD_NODE_CAP`): each stage boundary is one check under that cap, and
//! a boundary that overflows it at a stage's final rung commits as
//! `verified: false`.
//!
//! Circuit entries are resolved by [`circuit_by_name`]: a generator name
//! with a width suffix (`maj15`, `adder8`, …) instantiates the matching
//! `pd-arith` generator; `"all"` expands to [`builtin_circuits`] (one
//! instance of **every** generator); a path ending in `.v` is imported as
//! structural Verilog through `pd-netlist` with exact Reed–Muller
//! extraction; any other existing path is read as the `pd` text format
//! (`name = expr` lines).

use crate::json::Json;
use crate::{FaultPlan, FlowConfig, FlowError, FlowInput};
use pd_anf::{Anf, VarPool};
use pd_arith::{
    Adder, Cla, Comparator, Counter, Gray, Lod, Lzd, Majority, Multiplier, Parity,
    ThreeInputAdder,
};

/// Default widths instantiating every `pd-arith` generator once — the
/// battery `"all"` expands to. Widths are chosen so the full five-stage
/// pipeline (which decomposes twice and BDD-verifies four boundaries)
/// completes in seconds per circuit.
pub const BUILTIN_CIRCUITS: [&str; 11] = [
    "adder8",
    "cla8",
    "comparator8",
    "counter8",
    "gray10",
    "lod8",
    "lzd8",
    "maj7",
    "mult3",
    "parity12",
    "three5",
];

/// Instantiates the default battery (see [`BUILTIN_CIRCUITS`]).
pub fn builtin_circuits() -> Vec<FlowInput> {
    BUILTIN_CIRCUITS
        .iter()
        .map(|name| circuit_by_name(name).expect("builtin names resolve"))
        .collect()
}

/// Splits `maj15` into (`maj`, `15`).
fn split_width(name: &str) -> Option<(&str, usize)> {
    let digits = name.trim_end_matches(|c: char| c.is_ascii_digit());
    if digits.len() == name.len() {
        return None;
    }
    name[digits.len()..].parse().ok().map(|w| (digits, w))
}

/// Resolves a generator name (`maj15`, `counter12`, `adder8`, …) to a
/// ready-to-run [`FlowInput`].
///
/// # Errors
///
/// Returns a description of the accepted names when `name` is unknown,
/// or the generator's own constraint when the width is invalid (e.g. an
/// even majority width).
pub fn circuit_by_name(name: &str) -> Result<FlowInput, String> {
    let (kind, w) = split_width(name)
        .ok_or_else(|| format!("circuit {name:?} has no width suffix (try e.g. \"maj15\")"))?;
    let input = |pool: &VarPool, spec: Vec<(String, Anf)>| {
        Ok(FlowInput::new(name, pool.clone(), spec))
    };
    match kind {
        "maj" | "majority" => {
            if w % 2 == 0 || w == 0 {
                return Err(format!("majority width must be odd and positive, got {w}"));
            }
            let g = Majority::new(w);
            input(&g.pool, g.spec())
        }
        "counter" => {
            let g = Counter::new(w);
            input(&g.pool, g.spec())
        }
        "lzd" => {
            let g = Lzd::new(w);
            input(&g.pool, g.spec())
        }
        "lod" => {
            let g = Lod::new(w);
            input(&g.pool, g.spec())
        }
        "adder" => {
            let g = Adder::new(w);
            input(&g.pool, g.spec())
        }
        "cla" => {
            let g = Cla::new(w);
            input(&g.pool, g.spec())
        }
        "comparator" | "cmp" => {
            let g = Comparator::new(w);
            input(&g.pool, g.spec())
        }
        "three" => {
            let g = ThreeInputAdder::new(w);
            input(&g.pool, g.spec())
        }
        "parity" => {
            let g = Parity::new(w);
            input(&g.pool, g.spec())
        }
        "gray" => {
            let g = Gray::new(w);
            input(&g.pool, g.decode_spec())
        }
        "mult" | "multiplier" => {
            let g = Multiplier::new(w);
            input(&g.pool, g.spec())
        }
        other => Err(format!(
            "unknown circuit kind {other:?} (known: maj, counter, lzd, lod, adder, cla, \
             comparator, three, parity, gray, mult)"
        )),
    }
}

/// Parses the `pd` text specification format: one `name = expr` line per
/// output, `#` comments, `^`/`*`/parentheses in expressions.
///
/// # Errors
///
/// Reports the first offending line.
pub fn parse_text_spec(text: &str, pool: &mut VarPool) -> Result<Vec<(String, Anf)>, String> {
    let mut outputs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (name, expr) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `name = expr`", lineno + 1))?;
        let name = name.trim();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(format!("line {}: bad output name {name:?}", lineno + 1));
        }
        let expr =
            Anf::parse(expr, pool).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        outputs.push((name.to_owned(), expr));
    }
    if outputs.is_empty() {
        return Err("specification defines no outputs".into());
    }
    Ok(outputs)
}

/// Loads a circuit from disk: `.v` files as structural Verilog (with
/// exact Reed–Muller extraction back to ANF), anything else as the text
/// specification format.
///
/// # Errors
///
/// I/O, parse, and extraction failures, each naming the path.
pub fn load_circuit(path: &str) -> Result<FlowInput, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut pool = VarPool::new();
    let outputs = if path.ends_with(".v") {
        let nl = pd_netlist::from_verilog(&text, &mut pool)
            .map_err(|e| format!("{path}: verilog: {e}"))?;
        let spec = pd_netlist::extract::extract_anf(&nl, 1 << 22)
            .ok_or_else(|| format!("{path}: Reed–Muller extraction exceeded the term cap"))?;
        if spec.is_empty() {
            return Err(format!("{path}: module declares no outputs"));
        }
        spec
    } else {
        parse_text_spec(&text, &mut pool).map_err(|e| format!("{path}: {e}"))?
    };
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_owned();
    Ok(FlowInput {
        name,
        pool,
        outputs,
    })
}

/// Resolves one `circuits` entry: `"all"`, a generator name, or a path.
///
/// # Errors
///
/// Propagates [`circuit_by_name`] / [`load_circuit`] failures; a name
/// that is neither a known generator nor an existing file reports both.
pub fn resolve_circuit(entry: &str) -> Result<Vec<FlowInput>, String> {
    if entry == "all" {
        return Ok(builtin_circuits());
    }
    if std::path::Path::new(entry).exists() {
        return load_circuit(entry).map(|c| vec![c]);
    }
    circuit_by_name(entry)
        .map(|c| vec![c])
        .map_err(|e| format!("{e}; and no file {entry:?} exists"))
}

/// A parsed `pd flow` specification: circuits plus configuration.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Unresolved circuit entries, in order.
    pub circuits: Vec<String>,
    /// The flow configuration the spec describes.
    pub config: FlowConfig,
    /// Where to write the JSON stats (`out` key), if requested.
    pub out: Option<String>,
    /// Whether unknown keys are errors (the default) or collected into
    /// [`FlowSpec::warnings`] (`"strict": false` in the document — for
    /// specs shared with newer `pd` versions that know more keys).
    pub strict: bool,
    /// Unknown keys tolerated under `"strict": false`, for the driver to
    /// surface. Empty in strict mode (unknown keys error instead).
    pub warnings: Vec<String>,
}

impl FlowSpec {
    /// Parses a specification document (see the module docs for the
    /// schema).
    ///
    /// # Errors
    ///
    /// [`FlowError::BadSpec`] for JSON syntax errors (with the byte
    /// offset), unknown keys, and type mismatches. Malformed input never
    /// panics.
    pub fn parse(text: &str) -> Result<FlowSpec, FlowError> {
        let doc = Json::parse(text).map_err(|e| FlowError::BadSpec {
            position: Some(e.pos),
            message: e.msg,
        })?;
        FlowSpec::from_json(&doc).map_err(|message| FlowError::BadSpec {
            position: None,
            message,
        })
    }

    /// The semantic half of [`FlowSpec::parse`]: schema checks over an
    /// already-parsed document.
    fn from_json(doc: &Json) -> Result<FlowSpec, String> {
        let Json::Obj(fields) = doc else {
            return Err("flow spec must be a JSON object".into());
        };
        let mut spec = FlowSpec {
            circuits: Vec::new(),
            config: FlowConfig::default(),
            out: None,
            // Scanned ahead of the main key loop: `"strict": false` must
            // soften unknown keys that *precede* it in the document.
            strict: match doc.get("strict") {
                None => true,
                Some(v) => v.as_bool().ok_or("key \"strict\" must be a boolean")?,
            },
            warnings: Vec::new(),
        };
        // `as usize` would silently clamp negatives/fractions; reject them.
        let unsigned = |v: &Json, key: &str| -> Result<usize, String> {
            let n = v
                .as_num()
                .ok_or_else(|| format!("key {key:?} must be a number"))?;
            if n < 0.0 || n.fract() != 0.0 || n > usize::MAX as f64 {
                return Err(format!("key {key:?} must be a non-negative integer, got {n}"));
            }
            Ok(n as usize)
        };
        let integer = |v: &Json, key: &str| -> Result<isize, String> {
            let n = v
                .as_num()
                .ok_or_else(|| format!("key {key:?} must be a number"))?;
            if n.fract() != 0.0 || n.abs() > isize::MAX as f64 {
                return Err(format!("key {key:?} must be an integer, got {n}"));
            }
            Ok(n as isize)
        };
        let boolean = |v: &Json, key: &str| {
            v.as_bool()
                .ok_or_else(|| format!("key {key:?} must be a boolean"))
        };
        for (key, value) in fields {
            match key.as_str() {
                "circuits" => {
                    let arr = value
                        .as_arr()
                        .ok_or("key \"circuits\" must be an array of names")?;
                    for item in arr {
                        spec.circuits.push(
                            item.as_str()
                                .ok_or("circuit entries must be strings")?
                                .to_owned(),
                        );
                    }
                }
                "group_size" => {
                    let k = unsigned(value, key)?;
                    if k == 0 {
                        return Err("group_size must be positive".into());
                    }
                    spec.config.pd.group_size = k;
                }
                "verify" => spec.config.verify = boolean(value, key)?,
                "minimize" => spec.config.minimize = boolean(value, key)?,
                // Effort budgets: usize is enough headroom for any spec a
                // human writes; unset keys stay unlimited.
                "budget_decompose" => {
                    spec.config.budget_decompose = unsigned(value, key)? as u64;
                }
                "budget_reduce" => {
                    spec.config.budget_reduce = unsigned(value, key)? as u64;
                }
                "budget_factor" => {
                    spec.config.budget_factor = unsigned(value, key)? as u64;
                }
                "fault" => {
                    let text = value
                        .as_str()
                        .ok_or("key \"fault\" must be a string like \"reduce:panic:2\"")?;
                    spec.config.fault =
                        Some(FaultPlan::parse(text).map_err(|e| format!("key \"fault\": {e}"))?);
                }
                "node_cap" => {
                    let n = unsigned(value, key)?;
                    if n == 0 {
                        return Err("node_cap must be positive".into());
                    }
                    spec.config.node_cap = n;
                }
                "factor_max_support" => {
                    spec.config.factor_max_support = unsigned(value, key)?;
                }
                "extract" => {
                    let Json::Obj(ex) = value else {
                        return Err("key \"extract\" must be an object".into());
                    };
                    for (k2, v2) in ex {
                        match k2.as_str() {
                            "max_kernels_per_node" => {
                                spec.config.extract.max_kernels_per_node =
                                    unsigned(v2, k2)?;
                            }
                            "max_rounds" => {
                                spec.config.extract.max_rounds = unsigned(v2, k2)?;
                            }
                            "cube_divisors" => {
                                spec.config.extract.cube_divisors = boolean(v2, k2)?;
                            }
                            // A negative minimum gain is meaningful (accept
                            // literal-increasing extractions), so only the
                            // integer-ness is enforced here.
                            "min_gain" => {
                                spec.config.extract.min_gain = integer(v2, k2)?;
                            }
                            other => {
                                if spec.strict {
                                    return Err(format!("unknown extract key {other:?}"));
                                }
                                spec.warnings
                                    .push(format!("ignoring unknown extract key {other:?}"));
                            }
                        }
                    }
                }
                "out" => {
                    spec.out = Some(
                        value
                            .as_str()
                            .ok_or("key \"out\" must be a string path")?
                            .to_owned(),
                    );
                }
                "strict" => {} // consumed by the pre-scan above
                other => {
                    if spec.strict {
                        return Err(format!("unknown flow-spec key {other:?}"));
                    }
                    spec.warnings
                        .push(format!("ignoring unknown flow-spec key {other:?}"));
                }
            }
        }
        if spec.circuits.is_empty() {
            return Err("flow spec names no circuits".into());
        }
        Ok(spec)
    }

    /// Resolves every circuit entry (see [`resolve_circuit`]).
    ///
    /// # Errors
    ///
    /// Propagates the first entry that fails to resolve.
    pub fn resolve(&self) -> Result<Vec<FlowInput>, String> {
        let mut inputs = Vec::new();
        for entry in &self.circuits {
            inputs.extend(resolve_circuit(entry)?);
        }
        Ok(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_resolves_with_a_nonempty_spec() {
        let all = builtin_circuits();
        assert_eq!(all.len(), BUILTIN_CIRCUITS.len());
        for c in &all {
            assert!(!c.outputs.is_empty(), "{}", c.name);
        }
    }

    #[test]
    fn names_with_widths_resolve() {
        assert!(circuit_by_name("maj15").is_ok());
        assert!(circuit_by_name("counter12").is_ok());
        assert!(circuit_by_name("maj4").is_err(), "even majority rejected");
        assert!(circuit_by_name("maj").is_err(), "width required");
        assert!(circuit_by_name("warp9").is_err(), "unknown kind");
    }

    #[test]
    fn spec_parses_and_overrides_config() {
        let spec = FlowSpec::parse(
            r#"{
                "circuits": ["maj7", "counter8"],
                "group_size": 3,
                "verify": false,
                "extract": { "max_rounds": 7, "min_gain": 2 },
                "out": "stats.json"
            }"#,
        )
        .unwrap();
        assert_eq!(spec.circuits, vec!["maj7", "counter8"]);
        assert_eq!(spec.config.pd.group_size, 3);
        assert!(!spec.config.verify);
        assert_eq!(spec.config.extract.max_rounds, 7);
        assert_eq!(spec.config.extract.min_gain, 2);
        assert_eq!(spec.out.as_deref(), Some("stats.json"));
        assert_eq!(spec.resolve().unwrap().len(), 2);
    }

    #[test]
    fn spec_rejects_unknown_keys_and_empty_circuits() {
        assert!(FlowSpec::parse(r#"{"circuits": ["maj7"], "bogus": 1}"#).is_err());
        assert!(FlowSpec::parse(r#"{"circuits": []}"#).is_err());
        assert!(FlowSpec::parse("[1,2]").is_err());
    }

    #[test]
    fn non_strict_spec_downgrades_unknown_keys_to_warnings() {
        // `strict` softens unknown keys everywhere in the document, even
        // ones that precede it, and even inside the `extract` object.
        let spec = FlowSpec::parse(
            r#"{
                "bogus": 1,
                "circuits": ["maj7"],
                "extract": { "warp_drive": true },
                "strict": false
            }"#,
        )
        .unwrap();
        assert!(!spec.strict);
        assert_eq!(spec.warnings.len(), 2, "{:?}", spec.warnings);
        assert!(spec.warnings[0].contains("\"bogus\""));
        assert!(spec.warnings[1].contains("\"warp_drive\""));
        assert_eq!(spec.circuits, vec!["maj7"]);

        // Known keys still type-check, and structural errors still error.
        assert!(FlowSpec::parse(
            r#"{"circuits": ["maj7"], "strict": false, "verify": "yes"}"#
        )
        .is_err());
        assert!(FlowSpec::parse(r#"{"circuits": [], "strict": false}"#).is_err());
        assert!(FlowSpec::parse(r#"{"circuits": ["maj7"], "strict": 1}"#).is_err());

        // Explicit strict: true behaves like the default.
        let strict = FlowSpec::parse(r#"{"circuits": ["maj7"], "strict": true}"#).unwrap();
        assert!(strict.strict && strict.warnings.is_empty());
    }

    #[test]
    fn removed_path_selectors_are_unknown_keys() {
        // Picking a Reduce or Factor path is the ladders' job, so no
        // spec key selects one.
        for key in ["full_reduce", "local_factor"] {
            let doc = format!(r#"{{"circuits": ["maj7"], "{key}": true}}"#);
            let e = FlowSpec::parse(&doc).unwrap_err();
            assert!(
                matches!(&e, FlowError::BadSpec { position: None, message } if message.contains(key)),
                "{e}"
            );
            let lax = format!(r#"{{"circuits": ["maj7"], "{key}": true, "strict": false}}"#);
            let spec = FlowSpec::parse(&lax).unwrap();
            assert_eq!(spec.warnings.len(), 1, "{:?}", spec.warnings);
            assert!(spec.warnings[0].contains(key), "{:?}", spec.warnings);
        }
    }

    #[test]
    fn spec_rejects_negative_and_fractional_knobs() {
        let bad = [
            r#"{"circuits": ["maj7"], "factor_max_support": -12}"#,
            r#"{"circuits": ["maj7"], "group_size": 2.5}"#,
            r#"{"circuits": ["maj7"], "extract": {"max_rounds": -5}}"#,
            r#"{"circuits": ["maj7"], "extract": {"min_gain": 0.5}}"#,
        ];
        for doc in bad {
            assert!(FlowSpec::parse(doc).is_err(), "{doc}");
        }
        // min_gain may be negative (accept literal-increasing extractions).
        let ok = FlowSpec::parse(r#"{"circuits": ["maj7"], "extract": {"min_gain": -3}}"#)
            .unwrap();
        assert_eq!(ok.config.extract.min_gain, -3);
    }

    #[test]
    fn spec_parses_budgets_and_fault() {
        use crate::{FaultMode, StageKind};
        let spec = FlowSpec::parse(
            r#"{"circuits": ["maj7"], "budget_reduce": 500, "fault": "factor:mismatch:2"}"#,
        )
        .unwrap();
        assert_eq!(spec.config.budget_reduce, 500);
        assert_eq!(spec.config.budget_decompose, u64::MAX, "unset stays unlimited");
        assert_eq!(
            spec.config.fault,
            Some(FaultPlan {
                stage: StageKind::Factor,
                mode: FaultMode::Mismatch,
                fires: 2
            })
        );
        assert!(FlowSpec::parse(r#"{"circuits": ["maj7"], "fault": "warp:panic"}"#).is_err());
        assert!(FlowSpec::parse(r#"{"circuits": ["maj7"], "fault": "reduce:panic:0"}"#).is_err());
        assert!(FlowSpec::parse(r#"{"circuits": ["maj7"], "budget_reduce": -1}"#).is_err());
    }

    #[test]
    fn spec_parses_oracle_capacity_key() {
        let spec = FlowSpec::parse(r#"{"circuits": ["maj7"], "node_cap": 4096}"#).unwrap();
        assert_eq!(spec.config.node_cap, 4096);
        let unset = FlowSpec::parse(r#"{"circuits": ["maj7"]}"#).unwrap();
        assert_eq!(unset.config.node_cap, pd_bdd::DEFAULT_NODE_CAP);
        for doc in [
            r#"{"circuits": ["maj7"], "node_cap": 0}"#,
            r#"{"circuits": ["maj7"], "node_cap": -5}"#,
            r#"{"circuits": ["maj7"], "node_cap": 2.5}"#,
            // `dvo` is an unknown key: the oracle has no order policy.
            r#"{"circuits": ["maj7"], "dvo": "off"}"#,
        ] {
            assert!(FlowSpec::parse(doc).is_err(), "{doc}");
        }
    }

    #[test]
    fn bad_spec_errors_are_typed_with_positions() {
        // Syntax errors carry the byte offset of the failure…
        let e = FlowSpec::parse("{\"circuits\": [").unwrap_err();
        assert!(
            matches!(e, FlowError::BadSpec { position: Some(_), .. }),
            "{e}"
        );
        // …semantic errors name the offending key.
        let e = FlowSpec::parse(r#"{"circuits": ["maj7"], "bogus": 1}"#).unwrap_err();
        assert!(
            matches!(&e, FlowError::BadSpec { position: None, message } if message.contains("bogus")),
            "{e}"
        );
        // Previously-panicking malformed inputs now parse to errors.
        for doc in ["1e999", "[".repeat(5000).as_str()] {
            assert!(FlowSpec::parse(doc).is_err(), "{doc:?}");
        }
    }

    #[test]
    fn text_spec_parses_named_outputs() {
        let mut pool = VarPool::new();
        let spec = parse_text_spec("# fa\nsum = a ^ b\ncarry = a*b\n", &mut pool).unwrap();
        assert_eq!(spec.len(), 2);
        assert_eq!(spec[0].0, "sum");
        assert!(parse_text_spec("junk\n", &mut VarPool::new()).is_err());
    }
}
