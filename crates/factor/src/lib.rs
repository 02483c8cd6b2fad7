//! # pd-factor — the algebraic-factorisation baseline
//!
//! A compact re-implementation of classical multi-level logic synthesis
//! over sum-of-products covers: weak (algebraic) division, kernel and
//! cokernel enumeration (Brayton–McMullen), greedy common-divisor
//! extraction across a multi-output network, and quick-factor emission
//! into a [`pd_netlist::Netlist`].
//!
//! The Progressive Decomposition paper's §2 positions exactly this flow
//! as the state of the art it improves on: *"the method for kernel
//! extraction is based on algebraic division applied to Boolean functions
//! in sum-of-product form. Most arithmetic circuits, in contrast, are
//! XOR-dominated, exposing a weakness of algebraic division."* This crate
//! lets the benches quantify that claim — run the same Table 1 circuits
//! through kernel extraction and through Progressive Decomposition and
//! compare (see the `factorisation` bench).
//!
//! ## Example
//!
//! ```
//! use pd_anf::VarPool;
//! use pd_factor::{divide, kernels, Cover, Cube, Lit};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pool = VarPool::new();
//! let v: Vec<_> = ["a", "b", "c", "d", "e"]
//!     .iter()
//!     .map(|n| pool.var_or_input(n))
//!     .collect();
//! let cube = |ix: &[usize]| Cube::new(ix.iter().map(|&i| Lit::pos(v[i])));
//! // f = ac + ad + bc + bd + e
//! let f = Cover::from_cubes([
//!     cube(&[0, 2]), cube(&[0, 3]), cube(&[1, 2]), cube(&[1, 3]), cube(&[4]),
//! ]);
//! // Kernel extraction sees the divisor a + b …
//! let ks = kernels(&f);
//! assert!(ks.iter().any(|k| k.kernel == Cover::from_cubes([cube(&[0]), cube(&[1])])));
//! // … and division factors f into (a + b)(c + d) + e.
//! let (q, r) = divide(&f, &Cover::from_cubes([cube(&[0]), cube(&[1])]));
//! assert_eq!(q, Cover::from_cubes([cube(&[2]), cube(&[3])]));
//! assert_eq!(r, Cover::from_cubes([cube(&[4])]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cover;
mod factor;
mod global;
mod kernel;
mod network;

pub mod divide;
pub mod library;
pub mod minimize;

pub use cover::{Cover, Cube, Lit};
pub use divide::{anf_divide, divide, divide_cube, recompose};
pub use factor::{quick_factor, FactorTree};
pub use global::{canonical_terms, DivisorEntry, DivisorTable, GlobalConfig, GlobalNetwork, GlobalStats};
pub use kernel::{kernels, kernels_capped, KernelPair};
pub use minimize::{minimize_cover, minimum_cover, prime_implicants, Implicant};
pub use network::{factor_and_synthesize, ExtractConfig, ExtractStats, FactorNetwork};
