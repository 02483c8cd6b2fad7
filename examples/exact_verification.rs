//! Exact verification with BDDs: decompose the 32-bit LOD — whose 32
//! inputs put it far beyond exhaustive simulation — and prove the
//! emitted netlist equivalent to its specification, then demonstrate
//! that an injected fault is caught with a concrete counterexample.
//!
//! Run with: `cargo run --release --example exact_verification`

use progressive_decomposition::arith::Lod;
use progressive_decomposition::bdd::verify::{check_equal_interleaved, check_netlist_vs_anf};
use progressive_decomposition::prelude::*;

fn main() {
    let lod = Lod::new(32);
    let spec = lod.spec();
    println!(
        "32-bit LOD: {} outputs over 32 inputs (2^32 assignments — not simulatable)",
        spec.len()
    );

    let d =
        ProgressiveDecomposer::new(PdConfig::default()).decompose(lod.pool.clone(), spec.clone());
    let netlist = d.to_netlist();
    println!(
        "decomposed: {} iterations, {} blocks",
        d.iterations,
        d.blocks.len()
    );

    // Exact check: netlist vs Reed–Muller spec, via canonical BDDs under
    // an interleaved variable order.
    let order = interleaved_order(&lod.pool);
    match check_netlist_vs_anf(&netlist, &spec, &order).expect("LOD BDDs are small") {
        None => println!("exact verification: PD netlist ≡ specification ✓"),
        Some(m) => panic!("unexpected mismatch on {}", m.output),
    }

    // Fault injection: flip one output and watch the checker produce a
    // witness assignment.
    let mut faulty = netlist.clone();
    let (name, node) = faulty.outputs()[2].clone();
    let flipped = faulty.not(node);
    faulty.set_output(&name, flipped);
    let mismatch = check_equal_interleaved(&lod.pool, &netlist, &faulty)
        .expect("BDDs are small")
        .expect("the fault must be detected");
    let ones: Vec<String> = mismatch
        .assignment
        .iter()
        .filter(|&&(_, b)| b)
        .map(|&(v, _)| lod.pool.name(v).to_owned())
        .collect();
    let witness = if ones.is_empty() {
        "all inputs low".to_owned()
    } else {
        format!("{{{}}} high", ones.join(", "))
    };
    println!(
        "fault injection  : output {:?} differs, e.g. with {witness}",
        mismatch.output
    );
}
