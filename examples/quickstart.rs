//! Quickstart: decompose a hand-written expression and inspect the
//! resulting hierarchy.
//!
//! Run with: `cargo run --example quickstart`

use progressive_decomposition::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's §4 example expression:
    //   X = (a⊕b)(p⊕cd) ⊕ (c⊕d)(p⊕ab)
    // Algebraic factorisation cannot touch it; the Boolean ring can.
    let mut pool = VarPool::new();
    let x = Anf::parse("(a^b)*(p^c*d) ^ (c^d)*(p^a*b)", &mut pool)?;
    println!("input (canonical Reed–Muller): {}", x.display(&pool));
    println!(
        "  {} terms, {} literals\n",
        x.term_count(),
        x.literal_count()
    );

    // Decompose with the paper's configuration (k = 4).
    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, vec![("x".into(), x)]);

    // Machine-check the hierarchy against the specification.
    assert!(d.check_equivalence(256, 42).is_none(), "must be equivalent");

    println!("hierarchy:\n{}", d.hierarchy_report());

    // Emit gates and run the synthesis flow (tech map + timing).
    let netlist = d.to_netlist();
    let lib = CellLibrary::umc130();
    let report = report(&netlist, &lib);
    println!("synthesis: {report}");

    // Compare against synthesising the flat expression directly.
    let flat = synthesize_outputs(&d.spec);
    let flat_report = progressive_decomposition::cells::report(&flat, &lib);
    println!("flat     : {flat_report}");
    Ok(())
}
