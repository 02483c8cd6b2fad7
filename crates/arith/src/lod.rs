//! Leading One Detector (Table 1 rows 1 & 2–3).
//!
//! Per the paper's §6: the LOD "looks for the first zero bit from the
//! left". Its cubes are products of *positive* literals with one
//! complement, so the Reed–Muller form has only two terms per position —
//! which is exactly why the paper can push the LOD to 32 bits while the
//! 32-bit LZD's RM form blows up.

use crate::words::word;
use pd_anf::{Anf, Var, VarPool};
use pd_netlist::{Cube, Netlist, Sop};

/// Leading-one-detector benchmark (first **zero** from the left).
#[derive(Clone, Debug)]
pub struct Lod {
    /// Input width in bits.
    pub width: usize,
    /// Variable pool holding the input word.
    pub pool: VarPool,
    /// Input bits, LSB first.
    pub bits: Vec<Var>,
}

impl Lod {
    /// Creates the benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2`.
    pub fn new(width: usize) -> Self {
        assert!(width >= 2, "LOD needs at least two bits");
        let mut pool = VarPool::new();
        let bits = word(&mut pool, "a", 0, width);
        Lod { width, pool, bits }
    }

    /// Number of output bits.
    pub fn out_bits(&self) -> usize {
        usize::BITS as usize - (self.width - 1).leading_zeros() as usize
    }

    /// Cube `x_i`: bits left of position `i` are 1, bit `i` is 0.
    fn x_cube(&self, i: usize) -> Cube {
        let w = self.width;
        let mut lits = Vec::with_capacity(i + 1);
        for j in 0..i {
            lits.push((self.bits[w - 1 - j], true));
        }
        lits.push((self.bits[w - 1 - i], false));
        Cube(lits)
    }

    /// SOP description per output bit (disjoint cubes).
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

    /// Reed–Muller specification. Each `x_i` contributes only two
    /// monomials (`∏a_j ⊕ ∏a_j·a_i`), keeping the spec small even at
    /// 32 bits.
    pub fn spec(&self) -> Vec<(String, Anf)> {
        self.sop()
            .into_iter()
            .map(|(name, sop)| (name, sop.to_anf_disjoint()))
            .collect()
    }

    /// The flat SOP baseline netlist.
    pub fn sop_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        for (name, sop) in self.sop() {
            let node = sop.synthesize(&mut nl);
            nl.set_output(&name, node);
        }
        nl
    }

    /// Reference: position from the left of the first 0 bit (0 if none —
    /// consistent with the missing all-ones cube, as in the LZD).
    pub fn reference(&self, value: u64) -> u64 {
        for i in 0..self.width {
            if value >> (self.width - 1 - i) & 1 == 0 {
                return i as u64;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_netlist::sim::check_equiv_anf;

    #[test]
    fn spec_matches_reference_exhaustively() {
        let lod = Lod::new(8);
        let spec = lod.spec();
        for value in 0..256u64 {
            let want = lod.reference(value);
            let mut got = 0u64;
            for (b, (_, expr)) in spec.iter().enumerate() {
                if expr.eval(|v| {
                    let idx = lod.bits.iter().position(|&q| q == v).unwrap();
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
        let lod = Lod::new(16);
        let nl = lod.sop_netlist();
        assert_eq!(check_equiv_anf(&nl, &lod.spec(), 64, 3), None);
    }

    #[test]
    fn rm_form_stays_small_at_32_bits() {
        let lod = Lod::new(32);
        let total: usize = lod.spec().iter().map(|(_, e)| e.term_count()).sum();
        assert!(
            total < 200,
            "paper: the 32-bit LOD RM form is tractable (got {total} terms)"
        );
    }

    #[test]
    fn lzd_vs_lod_asymmetry() {
        // Same width: LZD's RM form must be far larger than LOD's.
        let lod: usize = Lod::new(16)
            .spec()
            .iter()
            .map(|(_, e)| e.term_count())
            .sum();
        let lzd: usize = crate::lzd::Lzd::new(16)
            .spec()
            .iter()
            .map(|(_, e)| e.term_count())
            .sum();
        assert!(lzd > 100 * lod);
    }
}
