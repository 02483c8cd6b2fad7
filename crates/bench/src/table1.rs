//! Regeneration of the paper's Table 1.
//!
//! Every section runs the paper's "Unoptimised" description, the manual
//! baselines, and Progressive Decomposition through the same synthesis
//! flow (`pd-cells`), verifying each netlist against the Reed–Muller
//! specification before timing it.

use pd_anf::Anf;
use pd_arith::{Adder, Comparator, Counter, Lod, Lzd, Majority, ThreeInputAdder};
use pd_cells::{report, AreaDelayReport, CellLibrary};
use pd_core::{PdConfig, ProgressiveDecomposer};
use pd_netlist::{sim, Netlist};

/// One measured variant of one circuit.
#[derive(Clone, Debug)]
pub struct Row {
    /// Circuit section (e.g. "16-bit LZD").
    pub circuit: String,
    /// Variant within the section (e.g. "Progressive Decomposition").
    pub variant: String,
    /// Measured cell area, µm² (synthetic library).
    pub area_um2: f64,
    /// Measured critical-path delay, ns (synthetic library).
    pub delay_ns: f64,
    /// Cell instances.
    pub cells: usize,
    /// The paper's reported (area, delay), if this variant appears in
    /// Table 1.
    pub paper: Option<(f64, f64)>,
    /// Whether the netlist was verified against the specification.
    pub verified: bool,
}

impl Row {
    /// The row as a JSON object (the offline stand-in for serde).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj(vec![
            ("circuit", Json::from(self.circuit.as_str())),
            ("variant", Json::from(self.variant.as_str())),
            ("area_um2", Json::from(self.area_um2)),
            ("delay_ns", Json::from(self.delay_ns)),
            ("cells", Json::from(self.cells)),
            (
                "paper",
                match self.paper {
                    Some((a, d)) => Json::Arr(vec![Json::from(a), Json::from(d)]),
                    None => Json::Null,
                },
            ),
            ("verified", Json::from(self.verified)),
        ])
    }
}

/// Serialises measurement rows as a pretty-printed JSON array.
pub fn rows_to_json(rows: &[Row]) -> String {
    crate::json::Json::Arr(rows.iter().map(Row::to_json).collect()).pretty()
}

/// Knobs for the Table 1 run.
#[derive(Clone, Debug)]
pub struct Table1Options {
    /// Comparator width (paper: 15). The RM form grows ~3^w; the width is
    /// reduced automatically if the spec exceeds `spec_term_cap`.
    pub comparator_width: usize,
    /// Three-input adder width (paper: 12), reduced like the comparator.
    pub three_input_width: usize,
    /// Hard cap on specification polynomial size.
    pub spec_term_cap: usize,
    /// Random verification rounds for circuits too wide for exhaustive
    /// checking.
    pub verify_rounds: usize,
    /// Skip expensive equivalence checks entirely (for quick timing runs).
    pub skip_verification: bool,
}

impl Default for Table1Options {
    fn default() -> Self {
        Table1Options {
            comparator_width: 15,
            three_input_width: 12,
            spec_term_cap: 40_000_000,
            verify_rounds: 128,
            skip_verification: false,
        }
    }
}

impl Table1Options {
    /// A configuration small enough for debug-mode tests.
    pub fn quick() -> Self {
        Table1Options {
            comparator_width: 8,
            three_input_width: 5,
            spec_term_cap: 1_000_000,
            verify_rounds: 64,
            skip_verification: false,
        }
    }
}

fn measure(
    circuit: &str,
    variant: &str,
    nl: &Netlist,
    spec: &[(String, Anf)],
    paper: Option<(f64, f64)>,
    lib: &CellLibrary,
    opts: &Table1Options,
) -> Row {
    let verified = if opts.skip_verification {
        false
    } else {
        // Evaluating a multi-million-term Reed–Muller spec dominates the
        // random rounds; scale the round count down for huge specs (small
        // widths of the same circuits are verified exhaustively in the
        // test suite).
        let total_terms: usize = spec.iter().map(|(_, e)| e.term_count()).sum();
        let rounds = if total_terms > 2_000_000 {
            (opts.verify_rounds / 8).max(16)
        } else {
            opts.verify_rounds
        };
        sim::check_equiv_anf(nl, spec, rounds, 0xC0FFEE).is_none()
    };
    let r: AreaDelayReport = report(nl, lib);
    Row {
        circuit: circuit.to_owned(),
        variant: variant.to_owned(),
        area_um2: r.area_um2,
        delay_ns: r.delay_ns,
        cells: r.cell_count,
        paper,
        verified: verified || opts.skip_verification,
    }
}

fn pd_netlist(pool: pd_anf::VarPool, spec: &[(String, Anf)]) -> (Netlist, pd_core::Decomposition) {
    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec.to_vec());
    (d.to_netlist(), d)
}

/// 16-bit LZD (Table 1 section 1).
pub fn lzd_rows(width: usize, lib: &CellLibrary, opts: &Table1Options) -> Vec<Row> {
    let circuit = format!("{width}-bit LZD");
    let lzd = Lzd::new(width);
    let spec = lzd.spec();
    let paper = if width == 16 {
        (Some((426.8, 0.36)), Some((392.3, 0.30)))
    } else {
        (None, None)
    };
    let mut rows = vec![measure(
        &circuit,
        "Unoptimised (SOP)",
        &lzd.sop_netlist(),
        &spec,
        paper.0,
        lib,
        opts,
    )];
    let (nl, _d) = pd_netlist(lzd.pool.clone(), &spec);
    rows.push(measure(
        &circuit,
        "Progressive Decomposition",
        &nl,
        &spec,
        paper.1,
        lib,
        opts,
    ));
    if width.is_multiple_of(4) {
        rows.push(measure(
            &circuit,
            "Oklobdzija [8] (manual)",
            &lzd.oklobdzija_netlist(),
            &spec,
            None,
            lib,
            opts,
        ));
    }
    rows
}

/// 32-bit LOD (Table 1 section 2).
pub fn lod_rows(width: usize, lib: &CellLibrary, opts: &Table1Options) -> Vec<Row> {
    let circuit = format!("{width}-bit LOD");
    let lod = Lod::new(width);
    let spec = lod.spec();
    let paper = if width == 32 {
        (Some((1691.7, 0.54)), Some((1062.7, 0.43)))
    } else {
        (None, None)
    };
    let mut rows = vec![measure(
        &circuit,
        "Unoptimised (SOP)",
        &lod.sop_netlist(),
        &spec,
        paper.0,
        lib,
        opts,
    )];
    let (nl, _d) = pd_netlist(lod.pool.clone(), &spec);
    rows.push(measure(
        &circuit,
        "Progressive Decomposition",
        &nl,
        &spec,
        paper.1,
        lib,
        opts,
    ));
    rows
}

/// 15-bit majority (Table 1 section 3).
pub fn majority_rows(n: usize, lib: &CellLibrary, opts: &Table1Options) -> Vec<Row> {
    let circuit = format!("{n}-bit Majority function");
    let m = Majority::new(n);
    let spec = m.spec();
    let paper = if n == 15 {
        (Some((2353.5, 0.79)), Some((765.5, 0.58)))
    } else {
        (None, None)
    };
    let mut rows = vec![measure(
        &circuit,
        "Unoptimised (SOP)",
        &m.sop_netlist(),
        &spec,
        paper.0,
        lib,
        opts,
    )];
    let (nl, _d) = pd_netlist(m.pool.clone(), &spec);
    rows.push(measure(
        &circuit,
        "Progressive Decomposition",
        &nl,
        &spec,
        paper.1,
        lib,
        opts,
    ));
    rows
}

/// 16-bit counter (Table 1 section 4).
pub fn counter_rows(n: usize, lib: &CellLibrary, opts: &Table1Options) -> Vec<Row> {
    let circuit = format!("{n}-bit Counter");
    let c = Counter::new(n);
    let spec = c.spec();
    let paper = if n == 16 {
        (
            Some((1251.1, 0.86)),
            Some((1427.3, 0.74)),
            Some((1066.2, 0.71)),
        )
    } else {
        (None, None, None)
    };
    let mut rows = vec![measure(
        &circuit,
        "Unoptimised (using adder tree)",
        &c.adder_tree_netlist(),
        &spec,
        paper.0,
        lib,
        opts,
    )];
    let (nl, _d) = pd_netlist(c.pool.clone(), &spec);
    rows.push(measure(
        &circuit,
        "Progressive Decomposition",
        &nl,
        &spec,
        paper.1,
        lib,
        opts,
    ));
    rows.push(measure(
        &circuit,
        "TGA",
        &c.tga_netlist(),
        &spec,
        paper.2,
        lib,
        opts,
    ));
    rows
}

/// 16-bit adder (Table 1 section 5).
pub fn adder_rows(width: usize, lib: &CellLibrary, opts: &Table1Options) -> Vec<Row> {
    let circuit = format!("{width}-bit Adder");
    let a = Adder::new(width);
    let spec = a.spec();
    let paper = if width == 16 {
        (
            Some((1866.2, 0.56)),
            Some((1836.9, 0.54)),
            Some((1375.5, 0.58)),
        )
    } else {
        (None, None, None)
    };
    let mut rows = vec![measure(
        &circuit,
        "Unoptimised (Ripple Carry Adder)",
        &a.rca_netlist(),
        &spec,
        paper.0,
        lib,
        opts,
    )];
    let (nl, _d) = pd_netlist(a.pool.clone(), &spec);
    rows.push(measure(
        &circuit,
        "Progressive Decomposition",
        &nl,
        &spec,
        paper.1,
        lib,
        opts,
    ));
    rows.push(measure(
        &circuit,
        "DesignWare",
        &a.designware_netlist(),
        &spec,
        paper.2,
        lib,
        opts,
    ));
    rows
}

/// 15-bit comparator (Table 1 section 6). Width auto-reduces if the RM
/// spec exceeds the cap.
pub fn comparator_rows(
    requested_width: usize,
    lib: &CellLibrary,
    opts: &Table1Options,
) -> Vec<Row> {
    let mut width = requested_width;
    let (cmp, spec) = loop {
        let cmp = Comparator::new(width);
        if let Some(spec) = cmp.spec_capped(opts.spec_term_cap) {
            break (cmp, spec);
        }
        width -= 1;
        assert!(width >= 4, "comparator spec cap too small");
    };
    let circuit = format!("{width}-bit Comparator");
    let paper = if width == 15 {
        (
            Some((514.9, 0.40)),
            Some((466.6, 0.33)),
            Some((577.2, 0.40)),
        )
    } else {
        (None, None, None)
    };
    let mut rows = vec![measure(
        &circuit,
        "Unoptimised (progressive comparator)",
        &cmp.progressive_netlist(),
        &spec,
        paper.0,
        lib,
        opts,
    )];
    let (nl, _d) = pd_netlist(cmp.pool.clone(), &spec);
    rows.push(measure(
        &circuit,
        "Progressive Decomposition",
        &nl,
        &spec,
        paper.1,
        lib,
        opts,
    ));
    rows.push(measure(
        &circuit,
        "Carry out of Subtracter",
        &cmp.subtracter_netlist(),
        &spec,
        paper.2,
        lib,
        opts,
    ));
    rows
}

/// 12-bit three-input adder (Table 1 section 7). Width auto-reduces if
/// the RM spec exceeds the cap.
pub fn three_input_rows(
    requested_width: usize,
    lib: &CellLibrary,
    opts: &Table1Options,
) -> Vec<Row> {
    let mut width = requested_width;
    let (t, spec) = loop {
        let t = ThreeInputAdder::new(width);
        if let Some(spec) = t.spec_capped(opts.spec_term_cap) {
            break (t, spec);
        }
        width -= 1;
        assert!(width >= 3, "three-input spec cap too small");
    };
    let circuit = format!("{width}-bit Three-Input Adder");
    let paper = if width == 12 {
        (
            Some((2058.0, 1.09)),
            Some((2426.1, 1.11)),
            Some((1772.8, 0.75)),
            Some((1646.8, 0.70)),
        )
    } else {
        (None, None, None, None)
    };
    let flat = pd_netlist_direct(&spec);
    let mut rows = vec![measure(
        &circuit,
        "Unoptimised (A + B + C)",
        &flat,
        &spec,
        paper.0,
        lib,
        opts,
    )];
    rows.push(measure(
        &circuit,
        "RCA(RCA(A, B), C)",
        &t.rca_rca_netlist(),
        &spec,
        paper.1,
        lib,
        opts,
    ));
    let (nl, _d) = pd_netlist(t.pool.clone(), &spec);
    rows.push(measure(
        &circuit,
        "Progressive Decomposition",
        &nl,
        &spec,
        paper.2,
        lib,
        opts,
    ));
    rows.push(measure(
        &circuit,
        "CSA + Adder",
        &t.csa_adder_netlist(),
        &spec,
        paper.3,
        lib,
        opts,
    ));
    rows
}

/// Direct synthesis of a flat specification (the behavioural "A + B + C"
/// description handed straight to the flow).
fn pd_netlist_direct(spec: &[(String, Anf)]) -> Netlist {
    pd_netlist::synthesize_outputs(spec)
}

/// Runs all Table 1 sections.
pub fn table1(opts: &Table1Options) -> Vec<Row> {
    let lib = CellLibrary::umc130();
    let mut rows = Vec::new();
    rows.extend(lzd_rows(16, &lib, opts));
    rows.extend(lod_rows(32, &lib, opts));
    rows.extend(majority_rows(15, &lib, opts));
    rows.extend(counter_rows(16, &lib, opts));
    rows.extend(adder_rows(16, &lib, opts));
    rows.extend(comparator_rows(opts.comparator_width, &lib, opts));
    rows.extend(three_input_rows(opts.three_input_width, &lib, opts));
    rows
}

/// Pretty-prints rows in the paper's layout, paper numbers alongside.
pub fn print_rows(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut last_circuit = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>8}   {:>10} {:>8}  ok",
        "variant", "area/µm²", "delay/ns", "paper/µm²", "paper/ns"
    );
    for r in rows {
        if r.circuit != last_circuit {
            let _ = writeln!(out, "--- {} ---", r.circuit);
            last_circuit = r.circuit.clone();
        }
        let (pa, pd) = match r.paper {
            Some((a, d)) => (format!("{a:.1}"), format!("{d:.2}")),
            None => ("-".into(), "-".into()),
        };
        let _ = writeln!(
            out,
            "{:<34} {:>10.1} {:>8.3}   {:>10} {:>8}  {}",
            r.variant,
            r.area_um2,
            r.delay_ns,
            pa,
            pd,
            if r.verified { "✓" } else { "✗" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_lzd_section_verifies() {
        let opts = Table1Options::quick();
        let lib = CellLibrary::umc130();
        let rows = lzd_rows(8, &lib, &opts);
        assert!(rows.iter().all(|r| r.verified), "{rows:?}");
        let sop = &rows[0];
        let pd = &rows[1];
        // The robust direction at small widths is area; delay parity is
        // only expected at the paper's full 16-bit size.
        assert!(
            pd.area_um2 < sop.area_um2,
            "PD should be smaller than flat SOP"
        );
    }

    #[test]
    fn quick_counter_section_verifies() {
        let opts = Table1Options::quick();
        let lib = CellLibrary::umc130();
        let rows = counter_rows(8, &lib, &opts);
        assert!(rows.iter().all(|r| r.verified), "{rows:?}");
    }

    #[test]
    fn quick_adder_section_verifies() {
        let opts = Table1Options::quick();
        let lib = CellLibrary::umc130();
        let rows = adder_rows(8, &lib, &opts);
        assert!(rows.iter().all(|r| r.verified), "{rows:?}");
        // DesignWare (FA macros) must be denser than the discrete RCA.
        let rca = rows.iter().find(|r| r.variant.contains("Ripple")).unwrap();
        let dw = rows.iter().find(|r| r.variant == "DesignWare").unwrap();
        assert!(dw.area_um2 < rca.area_um2);
    }

    #[test]
    fn print_format_contains_sections() {
        let rows = vec![Row {
            circuit: "test".into(),
            variant: "v".into(),
            area_um2: 1.0,
            delay_ns: 0.5,
            cells: 3,
            paper: Some((2.0, 0.6)),
            verified: true,
        }];
        let s = print_rows(&rows);
        assert!(s.contains("--- test ---"));
        assert!(s.contains("2.0"));
    }
}
