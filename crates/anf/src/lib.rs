//! # pd-anf — the Boolean ring engine
//!
//! Canonical Reed–Muller (XOR-of-products, *algebraic normal form*)
//! expressions over GF(2)[x₀,…]/(xᵢ²=xᵢ), as used by the Progressive
//! Decomposition heuristic of Verma, Brisk and Ienne (DAC 2007, §4):
//!
//! * [`Anf`] — canonical expressions with exact ring arithmetic,
//! * [`Monomial`] / [`VarSet`] — compact product terms and variable groups,
//! * [`TruthTable`] — exhaustive enumeration over small supports,
//! * [`gf2`] — GF(2) Gaussian elimination with combination tracking,
//! * [`NullSpace`] — conservative null-space rings and the
//!   `Y₁⊕Y₂ ∈ N(X₁)⊕N(X₂)` membership test enabling Boolean-division
//!   merges.
//!
//! The Reed–Muller form is *unique* for a Boolean function, which gives
//! Progressive Decomposition its input-description independence; it also
//! makes expressions a ring under XOR/AND, which is what all the linear
//! algebra in this crate exploits.
//!
//! ## Kernel complexity
//!
//! Expressions are canonical sorted term vectors. A [`Monomial`] is 32
//! bytes: every variable index below 192 is stored inline in three `u64`
//! words, and only a product with a larger index keeps a sorted index
//! slice, so the re-decompositions of Reduce's close rounds and
//! arbitration, whose leaders sit past index 128, stay inline too.
//! Products with all indices below 128 — every term of every circuit the
//! paper measures — are *mask monomials*, whose `u128` masks order
//! exactly as the monomials do; on all-mask operands the kernel works on
//! raw keys (see `expr` module docs for the dispatch rules):
//!
//! | operation | cost | notes |
//! |---|---|---|
//! | [`Anf::xor`] | `O(n + m)` | sorted merge, cancellation |
//! | [`Anf::xor_assign`] | `O(n + m)` | in-place back-merge, no realloc |
//! | [`Anf::xor_all`] | `O(N log k)` / `O(N log N)` | tournament / flat key sort |
//! | [`Anf::and`] | `O(nm log(nm))` or `O(nm)` expected | key sort below 2¹⁴ products, hash parity map above |
//! | [`Anf::xor_literal_count`] | `O(n + m)` | prices a XOR without building it |
//! | [`Anf::substitute`] | one partition + `and` + `xor` | |
//! | [`TruthTable::from_anf`]/[`TruthTable::to_anf`] | `O(t·d + 2ⁿ·n/64)` | word-level zeta transform |
//!
//! Large tables and scans parallelise through `pd-par` (worker count:
//! `PD_THREADS`, default = available cores; results are identical to the
//! sequential engine). The `kernel_equivalence` property tests compare
//! every operation against references written from the ring definitions.
//!
//! ## Example
//!
//! ```
//! use pd_anf::{Anf, VarPool};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pool = VarPool::new();
//! // The paper's §4 example: X = (a⊕b)(p⊕cd) ⊕ (c⊕d)(p⊕ab)
//! let x = Anf::parse("(a^b)*(p^c*d) ^ (c^d)*(p^a*b)", &mut pool)?;
//! let factored = Anf::parse("(a^b^c^d)*(p^a*b^c*d)", &mut pool)?;
//! assert_eq!(x, factored); // canonical forms agree
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expr;
mod monomial;
mod parse;
mod truth;
mod var;
mod varset;

pub mod canon;
pub mod gf2;
pub mod nullspace;

pub use expr::{Anf, DisplayAnf};
pub use monomial::Monomial;
pub use nullspace::{sum_contains, sum_membership, NullSpace, SumSplit};
pub use parse::ParseAnfError;
pub use truth::TruthTable;
pub use var::{Var, VarKind, VarPool};
pub use varset::VarSet;
