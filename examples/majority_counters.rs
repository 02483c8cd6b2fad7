//! Fig. 6 live: Progressive Decomposition finds the parallel counters
//! hidden inside the majority function.
//!
//! Run with: `cargo run --release --example majority_counters`

use progressive_decomposition::arith::Majority;
use progressive_decomposition::prelude::*;

fn main() {
    let m = Majority::new(7);
    let spec = m.spec();
    println!(
        "majority-7 in Reed–Muller form: {} terms (all 4-subsets of 7 inputs)\n",
        spec[0].1.term_count()
    );

    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(m.pool.clone(), spec.clone());
    assert!(d.check_equivalence(512, 7).is_none());

    // Walk the trace like the paper's Fig. 6.
    for ev in &d.trace {
        match ev {
            TraceEvent::IterationStart {
                iteration, group, ..
            } => {
                let names: Vec<&str> = group.iter().map(|&v| d.pool.name(v)).collect();
                println!("iteration {iteration}: group {{{}}}", names.join(", "));
            }
            TraceEvent::IdentityFound(e) => {
                println!("  identity    {} = 0", e.display(&d.pool));
            }
            TraceEvent::Substitution(v, e) => {
                println!(
                    "  substitution {} := {}   (basis shrinks — hidden counter found)",
                    d.pool.name(*v),
                    e.display(&d.pool)
                );
            }
            TraceEvent::BasisFinal(basis, _) => {
                for (v, e) in basis {
                    println!("  leader      {} = {}", d.pool.name(*v), e.display(&d.pool));
                }
            }
            _ => {}
        }
    }

    let lib = CellLibrary::umc130();
    println!("\nPD:   {}", report(&d.to_netlist(), &lib));
    println!("flat: {}", report(&m.sop_netlist(), &lib));
}
