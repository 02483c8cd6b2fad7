//! The three-input adder `A + B + C` (Table 1 row 7).
//!
//! The paper's flagship case for Boolean division: Design Compiler cannot
//! restructure `A + B + C` (its algebraic kernels are useless here), so
//! direct synthesis is ~50% slower and 1.5× larger than Progressive
//! Decomposition's output, which rediscovers the carry-save form — on par
//! with the manual CSA + adder design.

use crate::counter::ripple_add;
use crate::words::word;
use pd_anf::{Anf, Var, VarPool};
use pd_netlist::{Netlist, NodeId};

/// Three-operand adder benchmark: `s = a + b + c`.
#[derive(Clone, Debug)]
pub struct ThreeInputAdder {
    /// Operand width.
    pub width: usize,
    /// Variable pool.
    pub pool: VarPool,
    /// Operand A bits, LSB first.
    pub a: Vec<Var>,
    /// Operand B bits, LSB first.
    pub b: Vec<Var>,
    /// Operand C bits, LSB first.
    pub c: Vec<Var>,
}

impl ThreeInputAdder {
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
        let c = word(&mut pool, "c", 2, width);
        ThreeInputAdder {
            width,
            pool,
            a,
            b,
            c,
        }
    }

    /// Number of sum outputs (`width + 2`).
    pub fn out_bits(&self) -> usize {
        self.width + 2
    }

    /// Reed–Muller specification of every sum bit, computed via the exact
    /// carry-save recursion (canonical, so the construction route does not
    /// matter).
    pub fn spec(&self) -> Vec<(String, Anf)> {
        self.spec_capped(usize::MAX).expect("uncapped")
    }

    /// Like [`ThreeInputAdder::spec`], aborting when any intermediate
    /// polynomial exceeds `term_cap` XOR terms.
    pub fn spec_capped(&self, term_cap: usize) -> Option<Vec<(String, Anf)>> {
        // Column sums/carries: s_i = a⊕b⊕c, t_i (weight i+1) = maj(a,b,c).
        let mut s: Vec<Anf> = Vec::with_capacity(self.width);
        let mut t: Vec<Anf> = Vec::with_capacity(self.width);
        for i in 0..self.width {
            let (ai, bi, ci) = (
                Anf::var(self.a[i]),
                Anf::var(self.b[i]),
                Anf::var(self.c[i]),
            );
            s.push(ai.xor(&bi).xor(&ci));
            t.push(ai.and(&bi).xor(&bi.and(&ci)).xor(&ci.and(&ai)));
        }
        // Final addition S + (T << 1) with the standard carry recursion.
        let mut out = Vec::with_capacity(self.out_bits());
        let zero = Anf::zero();
        let mut carry = Anf::zero();
        for i in 0..self.out_bits() - 1 {
            let x = s.get(i).unwrap_or(&zero);
            let y = if i == 0 {
                &zero
            } else {
                t.get(i - 1).unwrap_or(&zero)
            };
            let p = x.xor(y);
            out.push((format!("s{i}"), p.xor(&carry)));
            carry = x.and(y).xor(&p.and(&carry));
            if carry.term_count() > term_cap {
                return None;
            }
        }
        out.push((format!("s{}", self.out_bits() - 1), carry));
        Some(out)
    }

    /// Baseline `RCA(RCA(A,B),C)`: two chained ripple adders.
    pub fn rca_rca_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let a: Vec<NodeId> = self.a.iter().map(|&v| nl.input(v)).collect();
        let b: Vec<NodeId> = self.b.iter().map(|&v| nl.input(v)).collect();
        let c: Vec<NodeId> = self.c.iter().map(|&v| nl.input(v)).collect();
        let ab = ripple_add(&mut nl, &a, &b);
        let sum = ripple_add(&mut nl, &ab, &c);
        for i in 0..self.out_bits() {
            let node = sum.get(i).copied().unwrap_or_else(|| nl.constant(false));
            nl.set_output(&format!("s{i}"), node);
        }
        nl
    }

    /// The manual design: one carry-save stage (full-adder macros per
    /// column) followed by a ripple adder of full-adder macros.
    pub fn csa_adder_netlist(&self) -> Netlist {
        let mut nl = Netlist::new();
        let a: Vec<NodeId> = self.a.iter().map(|&v| nl.input(v)).collect();
        let b: Vec<NodeId> = self.b.iter().map(|&v| nl.input(v)).collect();
        let c: Vec<NodeId> = self.c.iter().map(|&v| nl.input(v)).collect();
        let mut s = Vec::with_capacity(self.width);
        let mut t = Vec::with_capacity(self.width);
        for i in 0..self.width {
            let (si, ti) = nl.full_adder(a[i], b[i], c[i]);
            s.push(si);
            t.push(ti);
        }
        // S + (T << 1) with FA macros.
        let zero = nl.constant(false);
        let mut carry = zero;
        for i in 0..self.out_bits() - 1 {
            let x = s.get(i).copied().unwrap_or(zero);
            let y = if i == 0 {
                zero
            } else {
                t.get(i - 1).copied().unwrap_or(zero)
            };
            let (sum, co) = nl.full_adder(x, y, carry);
            nl.set_output(&format!("s{i}"), sum);
            carry = co;
        }
        nl.set_output(&format!("s{}", self.out_bits() - 1), carry);
        nl
    }

    /// Reference model.
    pub fn reference(&self, a: u64, b: u64, c: u64) -> u64 {
        a + b + c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::{random_operands, run_ints};
    use pd_netlist::sim::check_equiv_anf;

    fn check(nl: &Netlist, t: &ThreeInputAdder, seed: u64) {
        let av = random_operands(seed, t.width, 64);
        let bv = random_operands(seed + 1, t.width, 64);
        let cv = random_operands(seed + 2, t.width, 64);
        let got = run_ints(
            nl,
            &[&t.a, &t.b, &t.c],
            &[av.clone(), bv.clone(), cv.clone()],
            "s",
            t.out_bits(),
        );
        for lane in 0..64 {
            assert_eq!(got[lane], av[lane] + bv[lane] + cv[lane], "lane {lane}");
        }
    }

    #[test]
    fn rca_rca_is_correct() {
        let t = ThreeInputAdder::new(12);
        check(&t.rca_rca_netlist(), &t, 21);
    }

    #[test]
    fn csa_adder_is_correct() {
        let t = ThreeInputAdder::new(12);
        check(&t.csa_adder_netlist(), &t, 23);
    }

    #[test]
    fn spec_matches_netlists_exhaustively_at_4() {
        // 12 variables total: exhaustive.
        let t = ThreeInputAdder::new(4);
        let spec = t.spec();
        assert_eq!(check_equiv_anf(&t.rca_rca_netlist(), &spec, 64, 3), None);
        assert_eq!(check_equiv_anf(&t.csa_adder_netlist(), &spec, 64, 5), None);
    }

    #[test]
    fn csa_is_shallower_than_chained_rcas() {
        let t = ThreeInputAdder::new(12);
        let depth = |nl: &Netlist| {
            let lv = nl.levels();
            nl.outputs()
                .iter()
                .map(|&(_, n)| lv[n.index()])
                .max()
                .unwrap()
        };
        assert!(depth(&t.csa_adder_netlist()) < depth(&t.rca_rca_netlist()));
    }
}
