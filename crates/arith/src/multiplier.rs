//! Small multipliers (extension experiment; paper references \[10\], \[13\]).
//!
//! Wallace's multiplier and Stelling et al.'s optimal partial-product
//! compressors motivate the paper's compressor-tree comparisons. This
//! module provides `w×w` multipliers as an *extension* benchmark:
//! Progressive Decomposition is fed the exact Reed–Muller form of the
//! product bits (tractable for small `w`) and compared against an array
//! multiplier and a Wallace/TGA-style compressor-tree multiplier.

use crate::compressor::{tga_reduce, BitMatrix};
use crate::words::word;
use pd_anf::{Anf, Var, VarPool};
use pd_netlist::{Netlist, NodeId};

/// `w × w` unsigned multiplier benchmark.
#[derive(Clone, Debug)]
pub struct Multiplier {
    /// Operand width.
    pub width: usize,
    /// Variable pool.
    pub pool: VarPool,
    /// Operand A bits, LSB first.
    pub a: Vec<Var>,
    /// Operand B bits, LSB first.
    pub b: Vec<Var>,
}

impl Multiplier {
    /// Creates the benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0);
        let mut pool = VarPool::new();
        let a = word(&mut pool, "a", 0, width);
        let b = word(&mut pool, "b", 1, width);
        Multiplier { width, pool, a, b }
    }

    /// Number of product bits (`2w`).
    pub fn out_bits(&self) -> usize {
        2 * self.width
    }

    /// Reed–Muller specification of every product bit, via symbolic
    /// accumulation of the partial products (exponential in `w`; intended
    /// for `w ≤ 6`).
    pub fn spec(&self) -> Vec<(String, Anf)> {
        // Accumulate partial products column by column with symbolic
        // carries: columns[c] = list of ANF addends of weight 2^c.
        let w = self.width;
        let mut columns: Vec<Vec<Anf>> = vec![Vec::new(); 2 * w];
        for i in 0..w {
            for j in 0..w {
                columns[i + j].push(Anf::var(self.a[i]).and(&Anf::var(self.b[j])));
            }
        }
        let mut out = Vec::with_capacity(2 * w);
        for c in 0..2 * w {
            // Reduce the column with full-adder algebra, pushing carries.
            while columns[c].len() > 2 {
                let x = columns[c].remove(0);
                let y = columns[c].remove(0);
                let z = columns[c].remove(0);
                let sum = x.xor(&y).xor(&z);
                let carry = x.and(&y).xor(&y.and(&z)).xor(&z.and(&x));
                columns[c].push(sum);
                if c + 1 < 2 * w {
                    columns[c + 1].push(carry);
                }
            }
            let bit = match columns[c].len() {
                0 => Anf::zero(),
                1 => columns[c][0].clone(),
                _ => {
                    let x = columns[c][0].clone();
                    let y = columns[c][1].clone();
                    if c + 1 < 2 * w {
                        columns[c + 1].push(x.and(&y));
                    }
                    x.xor(&y)
                }
            };
            out.push((format!("p{c}"), bit));
        }
        out
    }

    /// Array multiplier: rows of partial products added by ripple adders.
    pub fn array_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let w = self.width;
        let a: Vec<NodeId> = self.a.iter().map(|&v| nl.input(v)).collect();
        let b: Vec<NodeId> = self.b.iter().map(|&v| nl.input(v)).collect();
        // Accumulator starts as row 0, then adds shifted rows serially.
        let zero = nl.constant(false);
        let mut acc: Vec<NodeId> = vec![zero; 2 * w];
        for j in 0..w {
            // Row j: a·b_j << j
            let mut carry = zero;
            for i in 0..w {
                let pp = nl.and(a[i], b[j]);
                let (s, co) = nl.full_adder(acc[i + j], pp, carry);
                acc[i + j] = s;
                carry = co;
            }
            // Propagate the final carry into the next position.
            let (s, co) = nl.half_adder(acc[j + w], carry);
            acc[j + w] = s;
            if j + w + 1 < 2 * w {
                let (s2, _) = nl.half_adder(acc[j + w + 1], co);
                acc[j + w + 1] = s2;
            }
        }
        for (c, &bit) in acc.iter().enumerate() {
            nl.set_output(&format!("p{c}"), bit);
        }
        nl
    }

    /// Wallace/TGA-style multiplier: all partial products into a bit
    /// matrix, greedy compressor tree, final adder.
    pub fn wallace_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let w = self.width;
        let a: Vec<NodeId> = self.a.iter().map(|&v| nl.input(v)).collect();
        let b: Vec<NodeId> = self.b.iter().map(|&v| nl.input(v)).collect();
        let mut m = BitMatrix::new();
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let pp = nl.and(ai, bj);
                m.push(i + j, pp);
            }
        }
        let sums = tga_reduce(&mut nl, m, 2 * w);
        for (c, &bit) in sums.iter().enumerate() {
            nl.set_output(&format!("p{c}"), bit);
        }
        nl
    }

    /// Reference model.
    pub fn reference(&self, a: u64, b: u64) -> u64 {
        a * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::{random_operands, run_ints};
    use pd_netlist::sim::check_equiv_anf;

    fn check(nl: &Netlist, m: &Multiplier, seed: u64) {
        let av = random_operands(seed, m.width, 64);
        let bv = random_operands(seed + 5, m.width, 64);
        let got = run_ints(
            nl,
            &[&m.a, &m.b],
            &[av.clone(), bv.clone()],
            "p",
            m.out_bits(),
        );
        for lane in 0..64 {
            assert_eq!(got[lane], av[lane] * bv[lane], "lane {lane}");
        }
    }

    #[test]
    fn array_multiplier_is_correct() {
        let m = Multiplier::new(6);
        check(&m.array_netlist(), &m, 61);
    }

    #[test]
    fn wallace_multiplier_is_correct() {
        let m = Multiplier::new(6);
        check(&m.wallace_netlist(), &m, 67);
    }

    #[test]
    fn spec_matches_netlists_exhaustively_at_4() {
        let m = Multiplier::new(4);
        let spec = m.spec();
        assert_eq!(check_equiv_anf(&m.array_netlist(), &spec, 64, 3), None);
        assert_eq!(check_equiv_anf(&m.wallace_netlist(), &spec, 64, 5), None);
    }

    #[test]
    fn wallace_is_shallower_than_array() {
        let m = Multiplier::new(8);
        let depth = |nl: &Netlist| {
            let lv = nl.levels();
            nl.outputs()
                .iter()
                .map(|&(_, n)| lv[n.index()])
                .max()
                .unwrap()
        };
        assert!(depth(&m.wallace_netlist()) < depth(&m.array_netlist()));
    }

    #[test]
    fn spec_bit_counts_are_plausible() {
        // p0 = a0·b0 single term; top bit small; middle bits large.
        let m = Multiplier::new(4);
        let spec = m.spec();
        assert_eq!(spec[0].1.term_count(), 1);
        let mid = spec[4].1.term_count();
        assert!(mid > 4, "middle product bits are complex: {mid}");
    }
}
