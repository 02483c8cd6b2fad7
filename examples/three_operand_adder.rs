//! The paper's flagship Boolean-division case: `A + B + C`.
//!
//! Design-Compiler-style local synthesis cannot restructure a three-input
//! adder (its algebraic kernels are useless), but Progressive
//! Decomposition rediscovers the carry-save architecture from the flat
//! Reed–Muller specification alone.
//!
//! Run with: `cargo run --release --example three_operand_adder`

use progressive_decomposition::arith::ThreeInputAdder;
use progressive_decomposition::prelude::*;

fn main() {
    let width = 8;
    let t = ThreeInputAdder::new(width);
    let spec = t.spec();
    let lib = CellLibrary::umc130();

    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(t.pool.clone(), spec.clone());
    assert!(d.check_equivalence(512, 3).is_none());

    // The first blocks should be 3:2 counters on {a_i, b_i, c_i}.
    println!("first-level blocks discovered by PD:");
    for b in d.blocks.iter().take(width.min(4)) {
        let group: Vec<&str> = b.group.iter().map(|&v| d.pool.name(v)).collect();
        let leaders: Vec<String> = b
            .basis
            .iter()
            .map(|(v, e)| format!("{} = {}", d.pool.name(*v), e.display(&d.pool)))
            .collect();
        println!("  {{{}}} -> {}", group.join(", "), leaders.join(";  "));
    }

    println!("\n{width}-bit three-input adder");
    println!(
        "  flat A+B+C        : {}",
        report(&synthesize_outputs(&spec), &lib)
    );
    println!(
        "  RCA(RCA(A,B),C)   : {}",
        report(&t.rca_rca_netlist(), &lib)
    );
    println!("  PD                : {}", report(&d.to_netlist(), &lib));
    println!(
        "  CSA + adder       : {}",
        report(&t.csa_adder_netlist(), &lib)
    );
}
