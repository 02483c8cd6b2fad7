//! The paper's §2 comparison, quantified: classical algebraic
//! factorisation (kernel extraction over SOP covers, `pd-factor`) versus
//! Progressive Decomposition on the same circuits.
//!
//! Three implementations are synthesised and timed for each benchmark:
//!
//! 1. **flat SOP** — the two-level description synthesised directly
//!    (the paper's "Unoptimised" columns),
//! 2. **kernel extraction** — the SOP restructured by greedy common
//!    divisor extraction and quick-factoring (the state of the art §2
//!    describes),
//! 3. **Progressive Decomposition** — the paper's contribution, working
//!    on the Reed–Muller form.
//!
//! On AND/OR-structured circuits (LZD/LOD) extraction recovers much of
//! the hierarchy; on XOR-dominated circuits (parity, Gray decode,
//! majority) it barely moves the exponential SOP, which is precisely the
//! weakness of algebraic division the paper calls out.

use pd_anf::{Anf, VarPool};
use pd_arith::{Gray, Lod, Lzd, Majority, Parity};
use pd_cells::{report, CellLibrary};
use pd_core::{PdConfig, ProgressiveDecomposer};
use pd_factor::{ExtractConfig, FactorNetwork};
use pd_netlist::{sim::check_equiv_anf, Netlist, Sop};

/// One circuit's comparison row.
#[derive(Clone, Debug)]
pub struct FxRow {
    /// Circuit name.
    pub circuit: String,
    /// Literal count of the flat SOP description.
    pub sop_literals: usize,
    /// Network literal count after kernel extraction.
    pub extracted_literals: usize,
    /// Number of divisors the extraction found.
    pub divisors: usize,
    /// (area µm², delay ns) of the flat SOP netlist.
    pub flat: (f64, f64),
    /// (area µm², delay ns) after kernel extraction + quick factor.
    pub factored: (f64, f64),
    /// (area µm², delay ns) of the Progressive Decomposition netlist.
    pub pd: (f64, f64),
    /// All three netlists verified against the Reed–Muller spec.
    pub verified: bool,
}

fn sop_netlist(sops: &[(String, Sop)]) -> Netlist {
    let mut nl = Netlist::new();
    for (name, sop) in sops {
        let node = sop.synthesize(&mut nl);
        nl.set_output(name, node);
    }
    nl
}

fn run_circuit(
    circuit: &str,
    pool: &VarPool,
    sops: Vec<(String, Sop)>,
    spec: Vec<(String, Anf)>,
    lib: &CellLibrary,
) -> FxRow {
    let flat_nl = sop_netlist(&sops);

    let mut fx_pool = pool.clone();
    let mut network = FactorNetwork::from_sops(&sops);
    let sop_literals = network.literal_count();
    let stats = network.extract(
        &mut fx_pool,
        &ExtractConfig {
            max_kernels_per_node: 128,
            ..ExtractConfig::default()
        },
    );
    let fx_nl = network.synthesize();

    let pd_nl = ProgressiveDecomposer::new(PdConfig::default())
        .decompose(pool.clone(), spec.clone())
        .to_netlist();

    let verified = check_equiv_anf(&flat_nl, &spec, 64, 41).is_none()
        && check_equiv_anf(&fx_nl, &spec, 64, 43).is_none()
        && check_equiv_anf(&pd_nl, &spec, 64, 47).is_none();

    let m = |nl: &Netlist| {
        let r = report(nl, lib);
        (r.area_um2, r.delay_ns)
    };
    FxRow {
        circuit: circuit.to_owned(),
        sop_literals,
        extracted_literals: stats.literals_after,
        divisors: stats.rounds,
        flat: m(&flat_nl),
        factored: m(&fx_nl),
        pd: m(&pd_nl),
        verified,
    }
}

/// Runs the full comparison and returns the rows.
pub fn factorisation_rows() -> Vec<FxRow> {
    let lib = CellLibrary::umc130();
    let mut rows = Vec::new();

    let lzd = Lzd::new(16);
    rows.push(run_circuit("lzd16", &lzd.pool, lzd.sop(), lzd.spec(), &lib));

    let lod = Lod::new(16);
    rows.push(run_circuit("lod16", &lod.pool, lod.sop(), lod.spec(), &lib));

    // Full Table 1 width: the 32-bit LOD row.
    let lod32 = Lod::new(32);
    rows.push(run_circuit(
        "lod32",
        &lod32.pool,
        lod32.sop(),
        lod32.spec(),
        &lib,
    ));

    let m = Majority::new(13);
    rows.push(run_circuit(
        "maj13",
        &m.pool,
        vec![("maj".to_owned(), m.sop())],
        m.spec(),
        &lib,
    ));

    for n in [8usize, 10, 12] {
        let p = Parity::new(n);
        rows.push(run_circuit(
            &format!("parity{n}"),
            &p.pool,
            vec![("p".to_owned(), p.sop())],
            p.spec(),
            &lib,
        ));
    }

    let g = Gray::new(10);
    rows.push(run_circuit(
        "gray10",
        &g.pool,
        g.decode_sop(),
        g.decode_spec(),
        &lib,
    ));

    rows
}

/// Formats the rows as the bench's report.
pub fn print_fx_rows(rows: &[FxRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "=== algebraic factorisation (kernel extraction) vs Progressive Decomposition ===\n",
    );
    out.push_str(&format!(
        "{:<9} {:>9} {:>9} {:>5}   {:>22} {:>22} {:>22}  ok\n",
        "circuit",
        "SOP lits",
        "fx lits",
        "divs",
        "flat SOP",
        "kernel extraction",
        "progressive dec."
    ));
    for r in rows {
        let cell = |(a, d): (f64, f64)| format!("{a:>11.1}µm² {d:>5.3}ns");
        out.push_str(&format!(
            "{:<9} {:>9} {:>9} {:>5}   {} {} {}  {}\n",
            r.circuit,
            r.sop_literals,
            r.extracted_literals,
            r.divisors,
            cell(r.flat),
            cell(r.factored),
            cell(r.pd),
            if r.verified { "✓" } else { "✗" },
        ));
    }
    out.push_str(
        "\nReading: kernel extraction collapses the exponential SOPs by recursively\n\
         sharing Shannon-style cofactor pairs (cube divisors on both literal\n\
         phases), but — unable to see XOR structure — it renders every shared\n\
         block in AND/OR/NOT logic. On the pure-XOR circuits (parity, Gray\n\
         decode) its results stay ~3-5x larger and ~2-3x slower than Progressive\n\
         Decomposition's ring-level decomposition; on the priority circuits\n\
         (lzd/lod) it trails PD on both metrics; on the majority function the\n\
         two land close (PD's qualitative win there — discovering the hidden\n\
         parallel counters — is Table 1's 15-bit row). That XOR gap is the\n\
         paper's §2 argument, quantified.\n",
    );
    out
}
