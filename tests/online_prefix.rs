//! Integration coverage for the Theorem-1 construction
//! (`pd_core::online::build_prefix_states`): the parallel-prefix netlist
//! it builds must agree bit-for-bit with a serial (ripple) reference and
//! with what Progressive Decomposition produces for the same generators.

use progressive_decomposition::core::online::{build_prefix_states, OnlineStep};
use progressive_decomposition::prelude::*;

/// Serial reference: fold the conditioned pairs left to right in ANF.
/// `next = f0 ⊕ state·(f0 ⊕ f1)`, i.e. `mux(state, f0, f1)`. Returns the
/// state entering every step plus the final state (`steps.len() + 1`
/// entries), matching `build_prefix_states`' contract.
fn serial_states(steps: &[OnlineStep], initial: bool) -> Vec<Anf> {
    let mut state = if initial { Anf::one() } else { Anf::zero() };
    let mut out = vec![state.clone()];
    for s in steps {
        state = s.f0.xor(&state.and(&s.f0.xor(&s.f1)));
        out.push(state.clone());
    }
    out
}

/// Ripple-carry adder generators: state = carry, step i consumes
/// `(a_i, b_i)` with `f0 = a·b`, `f1 = a ∨ b`.
fn adder_steps(pool: &mut VarPool, width: usize) -> Vec<OnlineStep> {
    let a = pool.input_word("a", 0, width);
    let b = pool.input_word("b", 1, width);
    (0..width)
        .map(|i| {
            let ai = Anf::var(a[i]);
            let bi = Anf::var(b[i]);
            OnlineStep {
                f0: ai.and(&bi),
                f1: ai.or(&bi),
            }
        })
        .collect()
}

/// LSB-first magnitude comparator generators (A > B): `f0 = a·¬b`,
/// `f1 = a ∨ ¬b`.
fn comparator_steps(pool: &mut VarPool, width: usize) -> Vec<OnlineStep> {
    let a = pool.input_word("a", 0, width);
    let b = pool.input_word("b", 1, width);
    (0..width)
        .map(|i| {
            let ai = Anf::var(a[i]);
            let nbi = Anf::var(b[i]).not();
            OnlineStep {
                f0: ai.and(&nbi),
                f1: ai.or(&nbi),
            }
        })
        .collect()
}

/// Builds the prefix netlist for `steps` with every state exported as an
/// output named `s{i}`, plus the matching serial-reference spec.
fn prefix_netlist(steps: &[OnlineStep], initial: bool) -> (Netlist, Vec<(String, Anf)>) {
    let mut nl = Netlist::new();
    let mut synth = Synthesizer::new();
    let states = build_prefix_states(&mut nl, &mut synth, steps, initial);
    assert_eq!(states.len(), steps.len() + 1);
    for (i, &s) in states.iter().enumerate() {
        nl.set_output(&format!("s{i}"), s);
    }
    let spec: Vec<(String, Anf)> = serial_states(steps, initial)
        .into_iter()
        .enumerate()
        .map(|(i, f)| (format!("s{i}"), f))
        .collect();
    (nl, spec)
}

#[test]
fn adder_prefix_states_match_the_serial_reference() {
    let mut pool = VarPool::new();
    let steps = adder_steps(&mut pool, 7);
    let (nl, spec) = prefix_netlist(&steps, false);
    assert_eq!(
        pd_netlist::sim::check_equiv_anf(&nl, &spec, 64, 0xAD0),
        None
    );
}

#[test]
fn comparator_prefix_states_match_the_serial_reference() {
    let mut pool = VarPool::new();
    let steps = comparator_steps(&mut pool, 6);
    let (nl, spec) = prefix_netlist(&steps, false);
    assert_eq!(
        pd_netlist::sim::check_equiv_anf(&nl, &spec, 64, 0xC3A),
        None
    );
}

#[test]
fn initial_state_true_is_respected() {
    // Parity with an odd seed: f0 = x, f1 = ¬x starting from 1 computes
    // the complement of the XOR of all bits consumed so far.
    let mut pool = VarPool::new();
    let xs = pool.input_word("x", 0, 6);
    let steps: Vec<OnlineStep> = xs
        .iter()
        .map(|&x| OnlineStep {
            f0: Anf::var(x),
            f1: Anf::var(x).not(),
        })
        .collect();
    let (nl, spec) = prefix_netlist(&steps, true);
    assert_eq!(spec[0].1, Anf::one());
    assert_eq!(pd_netlist::sim::check_equiv_anf(&nl, &spec, 64, 0x1D), None);
}

#[test]
fn empty_step_list_yields_just_the_initial_state() {
    for initial in [false, true] {
        let mut nl = Netlist::new();
        let mut synth = Synthesizer::new();
        let states = build_prefix_states(&mut nl, &mut synth, &[], initial);
        assert_eq!(states.len(), 1);
        nl.set_output("s0", states[0]);
        let spec = vec![(
            "s0".to_owned(),
            if initial { Anf::one() } else { Anf::zero() },
        )];
        assert_eq!(pd_netlist::sim::check_equiv_anf(&nl, &spec, 8, 7), None);
    }
}

#[test]
fn prefix_construction_agrees_with_progressive_decomposition_exactly() {
    // The paper's §6 point: Progressive Decomposition rediscovers the
    // hierarchical structure Theorem 1 constructs. Pin the two against
    // each other with a canonical BDD check, not just simulation.
    for (name, width) in [("adder", 6usize), ("comparator", 5usize)] {
        let mut pool = VarPool::new();
        let steps = match name {
            "adder" => adder_steps(&mut pool, width),
            _ => comparator_steps(&mut pool, width),
        };
        let (prefix_nl, spec) = prefix_netlist(&steps, false);
        let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool.clone(), spec);
        assert_eq!(d.check_equivalence(64, 0xB0B), None, "{name}: pd vs spec");
        let pd_nl = d.to_netlist();
        let verdict = progressive_decomposition::bdd::verify::check_equal_interleaved(
            &pool, &prefix_nl, &pd_nl,
        )
        .expect("small generators fit comfortably under the node cap");
        assert_eq!(
            verdict, None,
            "{name}: prefix netlist vs decomposed netlist"
        );
    }
}

#[test]
fn random_generators_match_the_serial_reference_and_decomposition() {
    // Seeded property-style smoke: random conditioned pairs over two
    // fresh variables per step. A splitmix-style generator keeps the
    // sequence deterministic across platforms.
    let mut state: u64 = 0x9E3779B97F4A7C15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u16
    };
    for round in 0..8u64 {
        let n_steps = 2 + (next() as usize % 4);
        let mut pool = VarPool::new();
        let steps: Vec<OnlineStep> = (0..n_steps)
            .map(|i| {
                let vars = pool.input_word(&format!("v{i}"), i, 2);
                // A random ANF over {x, y}: each of the four monomials
                // (1, x, y, xy) is present iff its mask bit is set.
                let random_anf = |mask: u16| {
                    let terms = (0..4)
                        .filter(|j| mask >> j & 1 == 1)
                        .map(|j| {
                            Monomial::from_vars((0..2).filter(|k| j >> k & 1 == 1).map(|k| vars[k]))
                        })
                        .collect();
                    Anf::from_terms(terms)
                };
                let (m0, m1) = (next() & 0xF, next() & 0xF);
                OnlineStep {
                    f0: random_anf(m0),
                    f1: random_anf(m1),
                }
            })
            .collect();
        let initial = next() & 1 == 1;
        let (nl, spec) = prefix_netlist(&steps, initial);
        assert_eq!(
            pd_netlist::sim::check_equiv_anf(&nl, &spec, 64, 0x5EED + round),
            None,
            "round {round}: prefix netlist vs serial reference"
        );
        let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(pool, spec);
        assert_eq!(
            d.check_equivalence(64, 0xDEC0 + round),
            None,
            "round {round}: decomposition vs serial reference"
        );
    }
}
