//! # pd-core — Progressive Decomposition
//!
//! Implementation of *Progressive Decomposition: A Heuristic to Structure
//! Arithmetic Circuits* (Verma, Brisk, Ienne — DAC 2007). The algorithm
//! takes the Reed–Muller (ANF) expressions of a circuit and iteratively
//! abstracts groups of `k` variables behind minimal sets of *leader
//! expressions*, producing a hierarchical, low-fan-in implementation:
//!
//! * [`group`] — group selection (§5.1),
//! * [`pairs`] — the `findBasis` pair list with algebraic and
//!   null-space-driven merges (§5.2, §4),
//! * [`lindep`] — basis minimisation by GF(2) linear dependence (§5.3),
//! * [`size_reduce`] — local literal-count reduction (§5.4),
//! * [`identities`] — identity discovery and reuse (§5.5),
//! * [`refine`] — incremental in-place refinement of a finished
//!   hierarchy: the §5.3/§5.4 passes driven by a dirty-block worklist
//!   instead of a from-scratch re-decomposition,
//! * [`ProgressiveDecomposer`] — the main loop (Fig. 5), with a full
//!   execution trace, netlist emission and equivalence checking,
//! * [`online`] — the constructive side of Theorem 1 (Fig. 4): any
//!   effective online algorithm yields a hierarchical implementation.
//!
//! ```
//! use pd_anf::{Anf, VarPool};
//! use pd_core::{PdConfig, ProgressiveDecomposer};
//! let mut pool = VarPool::new();
//! let maj7 = pd_core::examples::majority_anf(&mut pool, 7);
//! let d = ProgressiveDecomposer::new(PdConfig::default())
//!     .decompose(pool, vec![("maj".into(), maj7)]);
//! assert!(d.check_equivalence(128, 1).is_none());
//! println!("{}", d.hierarchy_report());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod decompose;

pub mod group;
pub mod identities;
pub mod lindep;
pub mod online;
pub mod pairs;
pub mod refine;
pub mod size_reduce;

pub use config::PdConfig;
pub use decompose::{examples, Block, Decomposition, ProgressiveDecomposer, TraceEvent};
pub use refine::{refine, refine_metered, refine_with_library, RefineStats};
