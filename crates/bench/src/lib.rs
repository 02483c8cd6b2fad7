//! # pd-bench — experiment harness
//!
//! Regenerates every table and figure of the paper:
//!
//! * [`table1()`] — all seven circuit sections of Table 1, with the paper's
//!   reported numbers alongside the measured ones;
//! * [`figures`] — Fig. 1 vs Fig. 2 interconnect statistics, the Fig. 3
//!   hierarchy report, the Fig. 4 online construction, and the Fig. 6
//!   execution trace on the 7-bit majority function;
//! * ablations (in `benches/ablations.rs`) over `k` and the individual
//!   optimisations;
//! * [`factorisation`] — the §2 comparison against classical kernel
//!   extraction (`pd-factor`), including XOR-dominated circuits;
//! * [`futurework`] — the §7 "ring representation that does not blow
//!   up", measured with the ZDD-backed ANF of `pd-bdd` on the 32-bit
//!   LZD that §6 reports as intractable in explicit Reed–Muller form.
//!
//! Absolute µm²/ns values come from the synthetic `pd-cells` library, so
//! they differ from the paper's UMC 0.13 µm numbers; the reproduction
//! target is the *ordering and rough factors* between architectures
//! (see DESIGN.md §2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod factorisation;
pub mod figures;
pub mod futurework;
pub mod table1;

/// The JSON writer/parser, re-exported from its home in `pd-flow` (it
/// moved there when the flow pipeline needed to read specifications).
pub use pd_flow::json;

pub use factorisation::{factorisation_rows, print_fx_rows, FxRow};
pub use table1::{print_rows, rows_to_json, table1, Row, Table1Options};
