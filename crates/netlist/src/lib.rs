//! # pd-netlist — gate-level networks
//!
//! A hash-consed, append-only gate DAG with:
//!
//! * local folding and commutative canonicalisation on construction,
//! * cost-driven multi-level synthesis from [`pd_anf::Anf`] expressions
//!   ([`Synthesizer`]),
//! * literal synthesis of two-level SOP descriptions ([`Sop`]) for the
//!   paper's "Unoptimised" baselines,
//! * 64-way bit-parallel simulation and spec equivalence checking
//!   ([`sim`]),
//! * exact ANF extraction for polynomial-sized cones ([`extract`]),
//! * structural statistics quantifying the paper's fan-in/fan-out argument
//!   ([`stats`]), and DOT/Verilog export ([`export`]).
//!
//! ## Example
//!
//! ```
//! use pd_anf::{Anf, VarPool};
//! use pd_netlist::{synthesize_outputs, sim::check_equiv_anf};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pool = VarPool::new();
//! let carry = Anf::parse("a*b ^ b*c ^ c*a", &mut pool)?;
//! let outputs = vec![("carry".to_owned(), carry)];
//! let netlist = synthesize_outputs(&outputs);
//! assert!(check_equiv_anf(&netlist, &outputs, 64, 0).is_none());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fxhash;
mod gate;
mod netlist;
mod sop;
mod synth;

pub mod export;
pub mod extract;
pub mod sim;
pub mod stats;
pub mod verilog;

pub use gate::{FaninIter, Gate, NodeId};
pub use netlist::{Netlist, TopologyError};
pub use sop::{Cube, Sop};
pub use stats::NetlistStats;
pub use synth::{synthesize_outputs, Synthesizer};
pub use verilog::{from_verilog, ParseVerilogError};
