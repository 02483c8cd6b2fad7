//! The paper's motivating example: the 16-bit Leading Zero Detector.
//!
//! Builds the flat Fig. 1 description, Oklobdzija's manual Fig. 2 design
//! and Progressive Decomposition's output, compares their structure and
//! their area/delay, and shows that PD discovers the 4-bit `(V, P1, P0)`
//! blocks without being told anything about the circuit.
//!
//! Run with: `cargo run --release --example lzd_hierarchy`

use progressive_decomposition::arith::Lzd;
use progressive_decomposition::netlist::stats;
use progressive_decomposition::prelude::*;

fn main() {
    let lzd = Lzd::new(16);
    let spec = lzd.spec();
    let lib = CellLibrary::umc130();

    let flat = lzd.sop_netlist().sweep();
    let manual = lzd.oklobdzija_netlist().sweep();
    let d =
        ProgressiveDecomposer::new(PdConfig::default()).decompose(lzd.pool.clone(), spec.clone());
    assert!(d.check_equivalence(512, 1).is_none());
    let pd = d.to_netlist().sweep();

    println!("16-bit LZD — three architectures\n");
    for (name, nl) in [
        ("flat SOP (Fig. 1)", &flat),
        ("Oklobdzija (Fig. 2)", &manual),
        ("Progressive Decomposition", &pd),
    ] {
        let s = stats::stats(nl);
        let r = report(nl, &lib);
        println!("{name:<28} {r}   [{s}]");
    }

    println!("\nPD's first-level blocks (paper: identical to Oklobdzija's):");
    for b in d.blocks.iter().filter(|b| b.iteration <= 4) {
        let group: Vec<&str> = b.group.iter().map(|&v| d.pool.name(v)).collect();
        println!(
            "  group {{{}}} -> {} leaders",
            group.join(", "),
            b.basis.len() + b.passthrough.len()
        );
        for (v, e) in &b.basis {
            println!("    {} = {}", d.pool.name(*v), e.display(&d.pool));
        }
    }
}
