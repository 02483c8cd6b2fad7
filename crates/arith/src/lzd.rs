//! Leading Zero Detector (paper §1, Figs. 1–2; Table 1 rows 1–2).
//!
//! The LZD takes a `w`-bit integer `a[w-1..0]` (bit `w-1` is the leftmost)
//! and outputs the 0-based position, counted from the left, of the first
//! `1` bit; all-zero inputs yield 0 (as in the paper's Fig. 1, which has
//! no `x` term for that case).
//!
//! Three implementations:
//! * [`Lzd::spec`] — the Reed–Muller form of the straightforward
//!   description (input to Progressive Decomposition);
//! * [`Lzd::sop_netlist`] — the flat Fig. 1 structure (the paper's
//!   "Unoptimised (SOP)" baseline);
//! * [`Lzd::oklobdzija_netlist`] — the hierarchical 4-bit-block design of
//!   Fig. 2, against which the paper qualitatively compares PD's output.

use crate::words::word;
use pd_anf::{Anf, Var, VarPool};
use pd_netlist::{Cube, Netlist, NodeId, Sop};

/// Leading-zero-detector benchmark with its variable pool.
#[derive(Clone, Debug)]
pub struct Lzd {
    /// Input width in bits.
    pub width: usize,
    /// Variable pool holding the input word.
    pub pool: VarPool,
    /// Input bits, LSB first (`bits[width-1]` is the leftmost bit).
    pub bits: Vec<Var>,
}

impl Lzd {
    /// Creates the benchmark for a given width.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2`.
    pub fn new(width: usize) -> Self {
        assert!(width >= 2, "LZD needs at least two bits");
        let mut pool = VarPool::new();
        let bits = word(&mut pool, "a", 0, width);
        Lzd { width, pool, bits }
    }

    /// Number of output bits (`⌈log₂ width⌉`).
    pub fn out_bits(&self) -> usize {
        usize::BITS as usize - (self.width - 1).leading_zeros() as usize
    }

    /// The "leading one at position `i` from the left" cube `x_i`:
    /// complement literals on all higher bits, positive on the bit itself.
    fn x_cube(&self, i: usize) -> Cube {
        let w = self.width;
        let mut lits = Vec::with_capacity(i + 1);
        for j in 0..i {
            lits.push((self.bits[w - 1 - j], false));
        }
        lits.push((self.bits[w - 1 - i], true));
        Cube(lits)
    }

    /// SOP description of each output bit (Fig. 1): `z_b` is the OR of the
    /// disjoint cubes `x_i` with bit `b` of `i` set.
    pub fn sop(&self) -> Vec<(String, Sop)> {
        (0..self.out_bits())
            .map(|b| {
                let cubes = (0..self.width)
                    .filter(|i| i >> b & 1 == 1)
                    .map(|i| self.x_cube(i))
                    .collect();
                (format!("z{b}"), Sop(cubes))
            })
            .collect()
    }

    /// The Reed–Muller specification (cubes are disjoint, so OR = XOR).
    pub fn spec(&self) -> Vec<(String, Anf)> {
        self.sop()
            .into_iter()
            .map(|(name, sop)| (name, sop.to_anf_disjoint()))
            .collect()
    }

    /// The flat Fig. 1 netlist: shared `x_i` cones, OR trees per output.
    pub fn sop_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        for (name, sop) in self.sop() {
            let node = sop.synthesize(&mut nl);
            nl.set_output(&name, node);
        }
        nl
    }

    /// Oklobdzija's hierarchical design (Fig. 2): 4-bit blocks computing
    /// `(V, P1, P0)`, combined by a priority mux network.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is a positive multiple of 4.
    pub fn oklobdzija_netlist(&self) -> Netlist {
        assert!(
            self.width.is_multiple_of(4) && self.width >= 4,
            "the Fig. 2 construction uses 4-bit blocks"
        );
        let w = self.width;
        let mut nl = Netlist::new();
        let n_blocks = w / 4;
        // Block q covers bits a[w-1-4q] (leftmost of block) .. a[w-4-4q].
        let mut v_nodes = Vec::with_capacity(n_blocks);
        let mut p0_nodes = Vec::with_capacity(n_blocks);
        let mut p1_nodes = Vec::with_capacity(n_blocks);
        for q in 0..n_blocks {
            let b: Vec<NodeId> = (0..4)
                .map(|j| nl.input(self.bits[w - 1 - 4 * q - j]))
                .collect();
            // b[0] is the block's leftmost bit.
            let or01 = nl.or(b[0], b[1]);
            let or23 = nl.or(b[2], b[3]);
            let v = nl.or(or01, or23);
            // P1P0 = position of leading one inside the block.
            let n0 = nl.not(b[0]);
            let n1 = nl.not(b[1]);
            let n2 = nl.not(b[2]);
            // P1 = ¬b0·¬b1·(b2 ∨ b3)  (leading one in the right half)
            let right_any = nl.or(b[2], b[3]);
            let n0n1 = nl.and(n0, n1);
            let p1 = nl.and(n0n1, right_any);
            // P0 = ¬b0·(b1 ∨ ¬b2·b3)
            let n2b3 = nl.and(n2, b[3]);
            let inner = nl.or(b[1], n2b3);
            let p0 = nl.and(n0, inner);
            v_nodes.push(v);
            p0_nodes.push(p0);
            p1_nodes.push(p1);
        }
        // Priority selection across blocks: first valid block wins.
        // Block index bits (z from bit 2 upward) and P mux chains.
        let mut z_hi: Vec<NodeId> = Vec::new();
        let idx_bits = usize::BITS as usize - (n_blocks - 1).leading_zeros() as usize;
        let zero = nl.constant(false);
        for bit in 0..idx_bits.max(1) {
            if n_blocks == 1 {
                z_hi.push(zero);
                continue;
            }
            // Priority encoder: value of block-index bit for the first
            // valid block, 0 if none.
            let mut acc = zero;
            for q in (0..n_blocks).rev() {
                let bit_val = if q >> bit & 1 == 1 {
                    nl.constant(true)
                } else {
                    zero
                };
                acc = nl.mux(v_nodes[q], acc, bit_val);
            }
            z_hi.push(acc);
        }
        // Low two bits: P of the first valid block.
        let mut z0 = zero;
        let mut z1 = zero;
        for q in (0..n_blocks).rev() {
            z0 = nl.mux(v_nodes[q], z0, p0_nodes[q]);
            z1 = nl.mux(v_nodes[q], z1, p1_nodes[q]);
        }
        nl.set_output("z0", z0);
        nl.set_output("z1", z1);
        for (i, &z) in z_hi.iter().enumerate() {
            if 2 + i < self.out_bits() {
                nl.set_output(&format!("z{}", 2 + i), z);
            }
        }
        nl
    }

    /// Reference model: position from the left of the first 1 bit (0 for
    /// all-zero inputs).
    pub fn reference(&self, value: u64) -> u64 {
        for i in 0..self.width {
            if value >> (self.width - 1 - i) & 1 == 1 {
                return i as u64;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::run_ints;
    use pd_netlist::sim::check_equiv_anf;

    #[test]
    fn spec_matches_reference_exhaustively() {
        let lzd = Lzd::new(8);
        let spec = lzd.spec();
        for value in 0..256u64 {
            let want = lzd.reference(value);
            let mut got = 0u64;
            for (b, (_, expr)) in spec.iter().enumerate() {
                if expr.eval(|v| {
                    let idx = lzd.bits.iter().position(|&q| q == v).unwrap();
                    value >> idx & 1 == 1
                }) {
                    got |= 1 << b;
                }
            }
            assert_eq!(got, want, "value {value:#010b}");
        }
    }

    #[test]
    fn sop_netlist_equals_spec() {
        let lzd = Lzd::new(16);
        let nl = lzd.sop_netlist();
        assert_eq!(check_equiv_anf(&nl, &lzd.spec(), 64, 3), None);
    }

    #[test]
    fn oklobdzija_matches_reference() {
        let lzd = Lzd::new(16);
        let nl = lzd.oklobdzija_netlist();
        let inputs: Vec<u64> = (0..64).map(|i| (1u64 << (i % 16)) | (i as u64)).collect();
        let got = run_ints(
            &nl,
            &[&lzd.bits],
            std::slice::from_ref(&inputs),
            "z",
            lzd.out_bits(),
        );
        for (lane, &v) in inputs.iter().enumerate() {
            let masked = v & 0xFFFF;
            assert_eq!(got[lane], lzd.reference(masked), "input {masked:#018b}");
        }
    }

    #[test]
    fn oklobdzija_equals_spec_exhaustively() {
        let lzd = Lzd::new(16);
        let nl = lzd.oklobdzija_netlist();
        assert_eq!(check_equiv_anf(&nl, &lzd.spec(), 64, 5), None);
    }

    #[test]
    fn spec_size_grows_like_the_paper_says() {
        // The RM form of the LZD grows exponentially (the reason the
        // paper cannot run the 32-bit LZD).
        let small: usize = Lzd::new(8).spec().iter().map(|(_, e)| e.term_count()).sum();
        let big: usize = Lzd::new(16)
            .spec()
            .iter()
            .map(|(_, e)| e.term_count())
            .sum();
        assert!(big > 16 * small);
    }

    #[test]
    fn out_bits() {
        assert_eq!(Lzd::new(16).out_bits(), 4);
        assert_eq!(Lzd::new(32).out_bits(), 5);
        assert_eq!(Lzd::new(8).out_bits(), 3);
    }
}
