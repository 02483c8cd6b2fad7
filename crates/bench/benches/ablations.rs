//! `cargo bench --bench ablations` — design-choice ablations called out
//! in DESIGN.md:
//!
//! * group size `k` ∈ {2, 3, 4, 5, 6} (the paper fixes k = 4),
//! * each optimisation toggled off individually
//!   (null-space merging / linear minimisation / size reduction /
//!   identities),
//! * Progressive Decomposition vs the exhaustive optimum on small
//!   circuits (the paper's [12] — exhaustive architecture enumeration is
//!   only feasible for tiny inputs, which is PD's raison d'être).

use pd_anf::Anf;
use pd_arith::{Adder, Counter, Lzd, Majority};
use pd_cells::{report, CellLibrary};
use pd_core::{PdConfig, ProgressiveDecomposer};

fn run(name: &str, cfg: PdConfig) {
    let lib = CellLibrary::umc130();
    let mut line = format!("{name:<26}");
    // Representative circuits, kept moderate so the sweep is fast.
    type Case = (&'static str, pd_anf::VarPool, Vec<(String, Anf)>);
    let cases: Vec<Case> = vec![
        ("lzd12", Lzd::new(12).pool.clone(), Lzd::new(12).spec()),
        (
            "maj11",
            Majority::new(11).pool.clone(),
            Majority::new(11).spec(),
        ),
        (
            "cnt12",
            Counter::new(12).pool.clone(),
            Counter::new(12).spec(),
        ),
        ("add10", Adder::new(10).pool.clone(), Adder::new(10).spec()),
    ];
    for (cname, pool, spec) in cases {
        let d = ProgressiveDecomposer::new(cfg.clone()).decompose(pool, spec.clone());
        let ok = d.check_equivalence(128, 5).is_none();
        assert!(ok, "{name}/{cname} must stay correct");
        let r = report(&d.to_netlist(), &lib);
        line.push_str(&format!(
            "  {cname}: {:>7.1}µm² {:>5.3}ns",
            r.area_um2, r.delay_ns
        ));
    }
    println!("{line}");
}

fn exhaustive_reference() {
    // For ≤5-input single-output functions, compare PD's gate count
    // against the optimum over all Shannon decomposition orders
    // (a miniature of the paper's reference [12]).
    use pd_anf::{TruthTable, Var, VarPool};
    use std::collections::HashMap;
    fn optimum_gates(tt: &TruthTable, vars: &[Var], memo: &mut HashMap<Vec<u64>, usize>) -> usize {
        let key: Vec<u64> = (0..tt.len()).map(|i| u64::from(tt.get(i))).collect();
        if let Some(&c) = memo.get(&key) {
            return c;
        }
        let anf = tt.to_anf(vars);
        if anf.is_constant() || anf.as_literal().is_some() {
            memo.insert(key, 0);
            return 0;
        }
        // Try Shannon on every *support* variable (cofactoring on an
        // independent variable would recurse on the same function).
        let support = anf.support();
        let mut best = usize::MAX;
        for (j, v) in vars.iter().enumerate() {
            if !support.contains(*v) {
                continue;
            }
            let mut lo = TruthTable::zero(tt.n_vars());
            let mut hi = TruthTable::zero(tt.n_vars());
            for i in 0..tt.len() {
                let v = tt.get(i);
                if i >> j & 1 == 0 {
                    lo.set(i, v);
                    lo.set(i | (1 << j), v);
                } else {
                    hi.set(i, v);
                    hi.set(i & !(1 << j), v);
                }
            }
            let c = 1 + optimum_gates(&lo, vars, memo) + optimum_gates(&hi, vars, memo);
            best = best.min(c);
        }
        memo.insert(key, best);
        best
    }
    println!("\nPD vs exhaustive Shannon optimum (mux-count metric, 5 inputs):");
    let mut pool = VarPool::new();
    let vars = pool.input_word("x", 0, 5);
    let maj5 =
        pd_core::examples::majority_anf(&mut VarPool::new(), 5).map_vars(|v| vars[v.index()]);
    let mut functions: Vec<(&str, Anf)> = vec![("maj5", maj5)];
    functions.push((
        "xor5",
        Anf::parse("x0 ^ x1 ^ x2 ^ x3 ^ x4", &mut pool).expect("parsable"),
    ));
    functions.push((
        "chain",
        Anf::parse("x0*x1 ^ x1*x2 ^ x2*x3 ^ x3*x4", &mut pool).expect("parsable"),
    ));
    for (name, expr) in functions {
        let tt = TruthTable::from_anf(&expr, &vars);
        let mut memo = HashMap::new();
        let opt = optimum_gates(&tt, &vars, &mut memo);
        let d = ProgressiveDecomposer::new(PdConfig::default())
            .decompose(pool.clone(), vec![(name.to_owned(), expr)]);
        assert!(d.check_equivalence(64, 9).is_none());
        let nl = d.to_netlist().sweep();
        let gates = pd_netlist::stats::stats(&nl).gates;
        println!("  {name:<6} exhaustive-optimum(mux) = {opt:>3}   PD gates = {gates:>3}");
    }
}

fn extensions() {
    // Extension benchmarks beyond Table 1: multipliers (paper refs
    // [10],[13]) and the variable-group CLA (paper ref [7]).
    use pd_arith::{Cla, Multiplier};
    let lib = CellLibrary::umc130();
    println!("\n=== extensions: 6x6 multiplier ===");
    let m = Multiplier::new(6);
    let spec = m.spec();
    println!("  array   : {}", report(&m.array_netlist(), &lib));
    println!("  wallace : {}", report(&m.wallace_netlist(), &lib));
    let d = ProgressiveDecomposer::new(PdConfig::default()).decompose(m.pool.clone(), spec);
    assert!(d.check_equivalence(128, 3).is_none());
    println!("  PD      : {}", report(&d.to_netlist(), &lib));
    println!("\n=== extensions: 16-bit CLA group-size sweep (ref [7]) ===");
    let cla = Cla::new(16);
    for g in [1usize, 2, 4, 8] {
        println!("  group {g}: {}", report(&cla.netlist(g), &lib));
    }
}

fn main() {
    println!("=== ablation: group size k ===");
    for k in 2..=6usize {
        run(&format!("k = {k}"), PdConfig::default().with_group_size(k));
    }
    println!("\n=== ablation: optimisations off one at a time ===");
    run("all enabled", PdConfig::default());
    run(
        "no null-space merging",
        PdConfig {
            enable_nullspace_merging: false,
            ..PdConfig::default()
        },
    );
    run(
        "no linear minimisation",
        PdConfig {
            enable_linear_minimisation: false,
            ..PdConfig::default()
        },
    );
    run(
        "no size reduction",
        PdConfig {
            enable_size_reduction: false,
            ..PdConfig::default()
        },
    );
    run(
        "no identities",
        PdConfig {
            enable_identities: false,
            ..PdConfig::default()
        },
    );
    run("bare", PdConfig::default().bare());
    exhaustive_reference();
    extensions();
}
