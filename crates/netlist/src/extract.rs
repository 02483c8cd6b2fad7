//! Exact ANF extraction from a netlist.
//!
//! Converts every output of a gate network back into canonical Reed–Muller
//! form, enabling *exact* equivalence checks between independently built
//! circuits whenever the intermediate polynomials stay manageable. Above
//! the supplied cap the extraction aborts (callers then fall back on
//! simulation-based checking, as the paper notes Reed–Muller forms can be
//! exponentially large).

use crate::gate::Gate;
use crate::netlist::Netlist;
use pd_anf::Anf;

/// Extracts the ANF of every named output.
///
/// Returns `None` if any node's polynomial exceeds `term_cap` XOR terms.
pub fn extract_anf(netlist: &Netlist, term_cap: usize) -> Option<Vec<(String, Anf)>> {
    let mut exprs: Vec<Anf> = Vec::with_capacity(netlist.len());
    let live = netlist.live_mask();
    for (id, gate) in netlist.iter() {
        if !live[id.index()] {
            // Dead logic is skipped (placeholder keeps indexing aligned).
            exprs.push(Anf::zero());
            continue;
        }
        let e = match gate {
            Gate::Const(false) => Anf::zero(),
            Gate::Const(true) => Anf::one(),
            Gate::Input(v) => Anf::var(v),
            Gate::Not(a) => exprs[a.index()].not(),
            Gate::And(a, b) => exprs[a.index()].and(&exprs[b.index()]),
            Gate::Or(a, b) => exprs[a.index()].or(&exprs[b.index()]),
            Gate::Xor(a, b) => exprs[a.index()].xor(&exprs[b.index()]),
            Gate::Mux { sel, lo, hi } => {
                let s = &exprs[sel.index()];
                // lo ⊕ s·lo ⊕ s·hi
                let lo_e = &exprs[lo.index()];
                let hi_e = &exprs[hi.index()];
                lo_e.xor(&s.and(lo_e)).xor(&s.and(hi_e))
            }
            Gate::Maj(a, b, c) => {
                let (x, y, z) = (&exprs[a.index()], &exprs[b.index()], &exprs[c.index()]);
                x.and(y).xor(&y.and(z)).xor(&z.and(x))
            }
        };
        if e.term_count() > term_cap {
            return None;
        }
        exprs.push(e);
    }
    Some(
        netlist
            .outputs()
            .iter()
            .map(|(name, n)| (name.clone(), exprs[n.index()].clone()))
            .collect(),
    )
}

/// Checks two netlists for exact functional equivalence via ANF extraction.
///
/// Outputs are matched by name. Returns `None` if either extraction
/// exceeds `term_cap` (undecided), `Some(true)` when every common output
/// matches and the output name sets agree, `Some(false)` otherwise.
pub fn equiv_by_extraction(a: &Netlist, b: &Netlist, term_cap: usize) -> Option<bool> {
    let ea = extract_anf(a, term_cap)?;
    let eb = extract_anf(b, term_cap)?;
    if ea.len() != eb.len() {
        return Some(false);
    }
    for (name, expr) in &ea {
        match eb.iter().find(|(n, _)| n == name) {
            Some((_, other)) if other == expr => {}
            _ => return Some(false),
        }
    }
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::{Anf, VarPool};

    #[test]
    fn extraction_round_trips_synthesis() {
        let mut pool = VarPool::new();
        let spec = Anf::parse("a*b ^ c ^ a*c*d ^ 1", &mut pool).unwrap();
        let outputs = vec![("y".to_owned(), spec.clone())];
        let nl = crate::synth::synthesize_outputs(&outputs);
        let got = extract_anf(&nl, 1 << 12).unwrap();
        assert_eq!(got, outputs);
    }

    #[test]
    fn different_structures_same_function() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        // Netlist 1: a XOR b. Netlist 2: (a OR b) AND NOT(a AND b).
        let mut n1 = Netlist::new();
        let (x, y) = (n1.input(a), n1.input(b));
        let r1 = n1.xor(x, y);
        n1.set_output("y", r1);
        let mut n2 = Netlist::new();
        let (x, y) = (n2.input(a), n2.input(b));
        let o = n2.or(x, y);
        let an = n2.and(x, y);
        let nan = n2.not(an);
        let r2 = n2.and(o, nan);
        n2.set_output("y", r2);
        assert_eq!(equiv_by_extraction(&n1, &n2, 1 << 10), Some(true));
    }

    #[test]
    fn detects_inequivalence() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let mut n1 = Netlist::new();
        let (x, y) = (n1.input(a), n1.input(b));
        let r1 = n1.xor(x, y);
        n1.set_output("y", r1);
        let mut n2 = Netlist::new();
        let (x, y) = (n2.input(a), n2.input(b));
        let r2 = n2.and(x, y);
        n2.set_output("y", r2);
        assert_eq!(equiv_by_extraction(&n1, &n2, 1 << 10), Some(false));
    }

    #[test]
    fn cap_aborts() {
        // A wide XOR-of-ANDs has a big polynomial at the OR node.
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..10)
            .map(|i| pool.input(&format!("x{i}"), 0, i))
            .collect();
        let mut nl = Netlist::new();
        let nodes: Vec<_> = vars.iter().map(|&v| nl.input(v)).collect();
        let r = nl.or_many(&nodes);
        nl.set_output("y", r);
        assert!(extract_anf(&nl, 8).is_none());
        assert!(extract_anf(&nl, 1 << 12).is_some());
    }

    #[test]
    fn mux_and_maj_extract_correctly() {
        let mut pool = VarPool::new();
        let s = pool.input("s", 0, 0);
        let a = pool.input("a", 0, 1);
        let b = pool.input("b", 0, 2);
        let mut nl = Netlist::new();
        let (ns, na, nb) = (nl.input(s), nl.input(a), nl.input(b));
        let m = nl.mux(ns, na, nb);
        let j = nl.maj(ns, na, nb);
        nl.set_output("mux", m);
        nl.set_output("maj", j);
        let got = extract_anf(&nl, 64).unwrap();
        let mux_spec = Anf::parse("a ^ s*a ^ s*b", &mut pool).unwrap();
        let maj_spec = Anf::parse("s*a ^ a*b ^ b*s", &mut pool).unwrap();
        assert_eq!(got[0], ("mux".to_owned(), mux_spec));
        assert_eq!(got[1], ("maj".to_owned(), maj_spec));
    }
}
