//! # pd-bdd — decision diagrams for exact verification and compact ANF
//!
//! Two canonical DAG representations complementing the explicit
//! Reed–Muller engine of [`pd_anf`]:
//!
//! * [`Bdd`] — reduced ordered binary decision diagrams with an ITE
//!   cache, used by [`verify`] for *exact* equivalence checking of
//!   [`pd_netlist::Netlist`] circuits beyond the 20-input exhaustive
//!   limit of bit-parallel simulation (the paper's 32-bit LOD, 15-bit
//!   comparator, 12-bit three-operand adder);
//! * [`Zdd`] — zero-suppressed decision diagrams whose paths are ANF
//!   monomials: a canonical Boolean-*ring* representation that does not
//!   blow up with the explicit term count, i.e. precisely the
//!   representation the paper's conclusion (§7) asks for. The 32-bit
//!   LZD, whose explicit Reed–Muller form is astronomically large, stays
//!   polynomial here (see the `futurework` bench).
//!
//! ## Example
//!
//! ```
//! use pd_anf::VarPool;
//! use pd_bdd::{verify::check_equal_interleaved, Bdd};
//! use pd_netlist::Netlist;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pool = VarPool::new();
//! let a = pool.input("a", 0, 0);
//! let b = pool.input("b", 0, 1);
//! let mut nl1 = Netlist::new();
//! let (na, nb) = (nl1.input(a), nl1.input(b));
//! let x = nl1.xor(na, nb);
//! nl1.set_output("y", x);
//! let mut nl2 = Netlist::new();
//! let (na, nb) = (nl2.input(a), nl2.input(b));
//! let o = nl2.or(na, nb);
//! let an = nl2.and(na, nb);
//! let nan = nl2.not(an);
//! let y = nl2.and(o, nan);
//! nl2.set_output("y", y);
//! assert!(check_equal_interleaved(&pool, &nl1, &nl2)?.is_none());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdd;
mod davio;
mod zdd;

pub mod dvo;
pub mod static_ordering;
pub mod verify;

pub use bdd::{interleaved_order, Bdd, BddRef, CapacityError, DEFAULT_NODE_CAP};
pub use dvo::{sift, DvoMode, SiftSchedule, SiftStats};
pub use static_ordering::{force_order, hyperedges_from_netlist};
pub use verify::{ExactMismatch, VerifyContext};
pub use zdd::{Zdd, ZddRef};
