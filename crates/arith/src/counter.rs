//! The n-bit parallel counter / popcount (Table 1 row 4).
//!
//! Outputs the binary count of ones among `n` input bits. By Lucas'
//! theorem over GF(2), output bit `j` is the elementary symmetric
//! polynomial `e_{2^j}` of the inputs — which is exactly the Reed–Muller
//! specification fed to Progressive Decomposition. Baselines: the paper's
//! "adder tree" description and the TGA compressor tree.

use crate::compressor::{tga_reduce, BitMatrix};
use crate::words::word;
use pd_anf::{Anf, Var, VarPool};
use pd_netlist::{Netlist, NodeId};

/// Parallel-counter benchmark.
#[derive(Clone, Debug)]
pub struct Counter {
    /// Number of input bits.
    pub n: usize,
    /// Variable pool.
    pub pool: VarPool,
    /// The input bits.
    pub bits: Vec<Var>,
}

/// Elementary symmetric polynomials `e_0..e_k` of `vars` over GF(2),
/// computed by the DP `e_j(x₁..xᵢ) = e_j ⊕ xᵢ·e_{j-1}`.
pub fn elementary_symmetric(vars: &[Var], k: usize) -> Vec<Anf> {
    let mut e: Vec<Anf> = vec![Anf::zero(); k + 1];
    e[0] = Anf::one();
    for &v in vars {
        let x = Anf::var(v);
        for j in (1..=k).rev() {
            let shifted = e[j - 1].and(&x);
            e[j] = e[j].xor(&shifted);
        }
    }
    e
}

impl Counter {
    /// Creates the benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        let mut pool = VarPool::new();
        let bits = word(&mut pool, "a", 0, n);
        Counter { n, pool, bits }
    }

    /// Number of output bits (`⌊log₂ n⌋ + 1`).
    pub fn out_bits(&self) -> usize {
        usize::BITS as usize - self.n.leading_zeros() as usize
    }

    /// Reed–Muller specification: output `j` is `e_{2^j}` (Lucas).
    pub fn spec(&self) -> Vec<(String, Anf)> {
        let top = 1usize << (self.out_bits() - 1);
        let e = elementary_symmetric(&self.bits, top);
        (0..self.out_bits())
            .map(|j| (format!("z{j}"), e[1 << j].clone()))
            .collect()
    }

    /// The paper's "unoptimised" description: a balanced tree of ripple
    /// adders summing the bits pairwise (1-bit + 1-bit → 2-bit, …).
    pub fn adder_tree_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        // Each operand is a little-endian vector of nodes.
        let mut operands: Vec<Vec<NodeId>> = self.bits.iter().map(|&v| vec![nl.input(v)]).collect();
        while operands.len() > 1 {
            let mut next = Vec::with_capacity(operands.len() / 2 + 1);
            let mut it = operands.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(ripple_add(&mut nl, &a, &b)),
                    None => next.push(a),
                }
            }
            operands = next;
        }
        let result = operands.pop().expect("n > 0");
        for j in 0..self.out_bits() {
            let node = result.get(j).copied().unwrap_or_else(|| nl.constant(false));
            nl.set_output(&format!("z{j}"), node);
        }
        nl
    }

    /// The TGA compressor-tree implementation.
    pub fn tga_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let mut m = BitMatrix::new();
        for &b in &self.bits {
            let node = nl.input(b);
            m.push(0, node);
        }
        let sums = tga_reduce(&mut nl, m, self.out_bits());
        for (j, &s) in sums.iter().enumerate() {
            nl.set_output(&format!("z{j}"), s);
        }
        nl
    }

    /// Reference popcount.
    pub fn reference(&self, value: u64) -> u64 {
        u64::from((value & ((1u64 << self.n) - 1)).count_ones())
    }
}

/// Ripple-adds two little-endian operands of arbitrary widths (discrete
/// gates with shared propagate XOR — the "described RTL" flavour).
pub(crate) fn ripple_add(nl: &mut Netlist, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let width = a.len().max(b.len()) + 1;
    let zero = nl.constant(false);
    let mut carry = zero;
    let mut out = Vec::with_capacity(width);
    for i in 0..width - 1 {
        let x = a.get(i).copied().unwrap_or(zero);
        let y = b.get(i).copied().unwrap_or(zero);
        // Shared-propagate structure: p = x⊕y, s = p⊕c,
        // c' = x·y ⊕ p·c (blocks FA-macro absorption, as discrete RTL
        // synthesis would).
        let p = nl.xor(x, y);
        let s = nl.xor(p, carry);
        let g = nl.and(x, y);
        let pc = nl.and(p, carry);
        carry = nl.or(g, pc);
        out.push(s);
    }
    out.push(carry);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::{random_operands, run_ints};
    use pd_netlist::sim::check_equiv_anf;

    #[test]
    fn spec_is_lucas() {
        let c = Counter::new(7);
        let spec = c.spec();
        assert_eq!(spec.len(), 3);
        for value in 0..128u64 {
            let mut got = 0u64;
            for (j, (_, e)) in spec.iter().enumerate() {
                if e.eval(|v| {
                    let idx = c.bits.iter().position(|&q| q == v).unwrap();
                    value >> idx & 1 == 1
                }) {
                    got |= 1 << j;
                }
            }
            assert_eq!(got, c.reference(value), "value {value:#09b}");
        }
    }

    #[test]
    fn spec_term_counts() {
        let c = Counter::new(16);
        let spec = c.spec();
        assert_eq!(spec[0].1.term_count(), 16); // e1
        assert_eq!(spec[1].1.term_count(), 120); // e2 = C(16,2)
        assert_eq!(spec[4].1.term_count(), 1); // e16
    }

    #[test]
    fn adder_tree_is_correct() {
        let c = Counter::new(16);
        let nl = c.adder_tree_netlist();
        let inputs = random_operands(5, 16, 64);
        let got = run_ints(
            &nl,
            &[&c.bits],
            std::slice::from_ref(&inputs),
            "z",
            c.out_bits(),
        );
        for (lane, &v) in inputs.iter().enumerate() {
            assert_eq!(got[lane], c.reference(v));
        }
    }

    #[test]
    fn tga_matches_spec_exhaustively_at_8() {
        let c = Counter::new(8);
        let nl = c.tga_netlist();
        assert_eq!(check_equiv_anf(&nl, &c.spec(), 64, 3), None);
    }

    #[test]
    fn adder_tree_matches_spec_exhaustively_at_8() {
        let c = Counter::new(8);
        let nl = c.adder_tree_netlist();
        assert_eq!(check_equiv_anf(&nl, &c.spec(), 64, 4), None);
    }

    #[test]
    fn elementary_symmetric_small() {
        let mut pool = VarPool::new();
        let v = word(&mut pool, "x", 0, 3);
        let e = elementary_symmetric(&v, 3);
        assert!(e[0].is_one());
        assert_eq!(e[1].term_count(), 3);
        assert_eq!(e[2].term_count(), 3);
        assert_eq!(e[3].term_count(), 1);
    }
}
