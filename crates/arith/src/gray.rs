//! Binary ↔ Gray-code converters.
//!
//! Gray-to-binary is a *prefix-XOR*: `bᵢ = gₙ₋₁ ⊕ … ⊕ gᵢ`, so bit 0 is
//! the parity of the whole word — an XOR-dominated, high-fan-in circuit
//! with an effective online algorithm (Theorem 1 applies: scan from the
//! MSB holding one bit of state). Its Reed–Muller form is linear in the
//! width while any SOP description of the low bits explodes, making it a
//! second witness (besides parity) for the paper's argument against
//! algebraic division.

use crate::words::word;
use pd_anf::{Anf, Monomial, Var, VarPool};
use pd_netlist::{Cube, Netlist, Sop};

/// Gray-code benchmark for `width`-bit words.
#[derive(Clone, Debug)]
pub struct Gray {
    /// Word width.
    pub width: usize,
    /// Variable pool.
    pub pool: VarPool,
    /// The Gray-coded input bits (LSB first).
    pub bits: Vec<Var>,
}

impl Gray {
    /// Creates the benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 63.
    pub fn new(width: usize) -> Self {
        assert!(width > 0 && width < 64, "width must be in 1..64");
        let mut pool = VarPool::new();
        let bits = word(&mut pool, "g", 0, width);
        Gray { width, pool, bits }
    }

    /// Gray→binary Reed–Muller spec: `bᵢ = ⊕_{j ≥ i} gⱼ`.
    pub fn decode_spec(&self) -> Vec<(String, Anf)> {
        (0..self.width)
            .map(|i| {
                let terms: Vec<Monomial> =
                    self.bits[i..].iter().map(|&v| Monomial::var(v)).collect();
                (format!("b{i}"), Anf::from_terms(terms))
            })
            .collect()
    }

    /// Binary→Gray Reed–Muller spec over the same input bits read as a
    /// binary word: `gᵢ = bᵢ ⊕ bᵢ₊₁` (MSB passes through).
    pub fn encode_spec(&self) -> Vec<(String, Anf)> {
        (0..self.width)
            .map(|i| {
                let mut e = Anf::var(self.bits[i]);
                if i + 1 < self.width {
                    e = e.xor(&Anf::var(self.bits[i + 1]));
                }
                (format!("g{i}"), e)
            })
            .collect()
    }

    /// Two-level SOP description of the decoder: bit `i` is the parity
    /// of the top `width − i` Gray bits, so its minterm SOP needs
    /// `2^(width−i−1)` cubes — the exponential description algebraic
    /// flows are stuck with.
    ///
    /// # Panics
    ///
    /// Panics for `width > 16` (the description would not fit in memory).
    pub fn decode_sop(&self) -> Vec<(String, Sop)> {
        assert!(
            self.width <= 16,
            "minterm SOP of a {}-bit Gray decoder is infeasible",
            self.width
        );
        (0..self.width)
            .map(|i| {
                let tail = &self.bits[i..];
                let cubes = (0..1u64 << tail.len())
                    .filter(|m| m.count_ones() % 2 == 1)
                    .map(|m| {
                        Cube(
                            tail.iter()
                                .enumerate()
                                .map(|(j, &v)| (v, m >> j & 1 == 1))
                                .collect(),
                        )
                    })
                    .collect();
                (format!("b{i}"), Sop(cubes))
            })
            .collect()
    }

    /// The serial decoder: an MSB-to-LSB XOR chain (the online
    /// algorithm's direct transcription, depth = width − 1).
    pub fn ripple_decode_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let mut acc = nl.constant(false);
        for i in (0..self.width).rev() {
            let g = nl.input(self.bits[i]);
            acc = nl.xor(acc, g);
            nl.set_output(&format!("b{i}"), acc);
        }
        nl
    }

    /// The parallel-prefix decoder (Sklansky recursion on XOR): depth
    /// ⌈log₂ width⌉ — the hierarchical design Theorem 1 promises.
    pub fn prefix_decode_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        // prefix[i] = XOR of bits i..width; build by halving.
        let mut prefix: Vec<_> = self.bits.iter().map(|&b| nl.input(b)).collect();
        let mut stride = 1usize;
        while stride < self.width {
            for i in 0..self.width {
                if i + stride < self.width {
                    let other = prefix[i + stride];
                    prefix[i] = nl.xor(prefix[i], other);
                }
            }
            stride *= 2;
        }
        for (i, &p) in prefix.iter().enumerate() {
            nl.set_output(&format!("b{i}"), p);
        }
        nl
    }

    /// The encoder netlist (`gᵢ = bᵢ ⊕ bᵢ₊₁`), depth 1.
    pub fn encode_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        for i in 0..self.width {
            let lo = nl.input(self.bits[i]);
            let g = if i + 1 < self.width {
                let hi = nl.input(self.bits[i + 1]);
                nl.xor(lo, hi)
            } else {
                lo
            };
            nl.set_output(&format!("g{i}"), g);
        }
        nl
    }

    /// Reference decoder: Gray word → binary word.
    pub fn reference_decode(&self, gray: u64) -> u64 {
        let mut b = gray & ((1u64 << self.width) - 1);
        let mut shift = 1;
        while shift < self.width {
            b ^= b >> shift;
            shift *= 2;
        }
        b
    }

    /// Reference encoder: binary word → Gray word.
    pub fn reference_encode(&self, binary: u64) -> u64 {
        let b = binary & ((1u64 << self.width) - 1);
        b ^ (b >> 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_netlist::sim::check_equiv_anf;

    #[test]
    fn decode_spec_matches_reference() {
        let g = Gray::new(6);
        let spec = g.decode_spec();
        for gray in 0..64u64 {
            let want = g.reference_decode(gray);
            for (i, (_, expr)) in spec.iter().enumerate() {
                let got = expr.eval(|v| {
                    let idx = g.bits.iter().position(|&q| q == v).unwrap();
                    gray >> idx & 1 == 1
                });
                assert_eq!(got, want >> i & 1 == 1, "gray {gray:#08b} bit {i}");
            }
        }
    }

    #[test]
    fn encode_and_decode_are_inverse() {
        let g = Gray::new(8);
        for value in 0..256u64 {
            assert_eq!(g.reference_decode(g.reference_encode(value)), value);
            assert_eq!(g.reference_encode(g.reference_decode(value)), value);
        }
    }

    #[test]
    fn decoder_netlists_match_spec() {
        let g = Gray::new(10);
        for nl in [g.ripple_decode_netlist(), g.prefix_decode_netlist()] {
            assert_eq!(check_equiv_anf(&nl, &g.decode_spec(), 64, 7), None);
        }
    }

    #[test]
    fn encoder_netlist_matches_spec() {
        let g = Gray::new(10);
        assert_eq!(
            check_equiv_anf(&g.encode_netlist(), &g.encode_spec(), 64, 9),
            None
        );
    }

    #[test]
    fn prefix_is_logarithmic_ripple_is_linear() {
        let g = Gray::new(16);
        let depth = |nl: &Netlist| {
            let lv = nl.levels();
            nl.outputs()
                .iter()
                .map(|&(_, n)| lv[n.index()])
                .max()
                .unwrap()
        };
        assert_eq!(depth(&g.prefix_decode_netlist()), 4);
        assert_eq!(depth(&g.ripple_decode_netlist()), 15);
    }

    #[test]
    fn rm_form_is_quadratic_at_worst() {
        // Total decode-spec literals = width + (width-1) + … + 1.
        let g = Gray::new(16);
        let total: usize = g.decode_spec().iter().map(|(_, e)| e.literal_count()).sum();
        assert_eq!(total, 16 * 17 / 2);
    }

    #[test]
    fn decode_sop_matches_spec() {
        let g = Gray::new(6);
        let sops = g.decode_sop();
        let spec = g.decode_spec();
        assert_eq!(sops[0].1 .0.len(), 32); // 2^(6-1) minterms for bit 0
        let mut nl = Netlist::new();
        for (name, sop) in &sops {
            let node = sop.synthesize(&mut nl);
            nl.set_output(name, node);
        }
        assert_eq!(check_equiv_anf(&nl, &spec, 64, 21), None);
    }

    #[test]
    fn width_one_decodes_to_itself() {
        let g = Gray::new(1);
        let spec = g.decode_spec();
        assert_eq!(spec[0].1, Anf::var(g.bits[0]));
        assert_eq!(
            check_equiv_anf(&g.prefix_decode_netlist(), &spec, 8, 2),
            None
        );
    }
}
