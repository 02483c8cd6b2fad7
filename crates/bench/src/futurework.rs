//! The paper's §7 future work, realised: a ring representation that does
//! not blow up.
//!
//! §6 reports that the 32-bit LZD "cannot be handled … due to its large
//! size in Reed–Muller form"; §7 asks for "a representation for Boolean
//! expressions which does not blow up the size of the original expression
//! but also follows the properties of a ring". The ZDD-backed ANF of
//! `pd-bdd` is such a representation: canonical, ring operations directly
//! on the DAG, and polynomial-sized for every width of the LZD and the
//! majority function whose explicit Reed–Muller forms are astronomical.
//!
//! This bench builds the specifications *entirely inside the ZDD* (using
//! ring XOR/MUL, never materialising the explicit form), cross-checks the
//! construction against the explicit generators at small widths, and then
//! reports explicit term count vs DAG node count as width grows.

use pd_anf::{Var, VarPool};
use pd_arith::{Lzd, Majority};
use pd_bdd::{Zdd, ZddRef};

/// One scaling data point.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Circuit name (with width).
    pub circuit: String,
    /// Input count.
    pub inputs: usize,
    /// Explicit Reed–Muller term count over all outputs (saturating).
    pub rm_terms: u128,
    /// ZDD nodes over all outputs (shared structure counted once).
    pub zdd_nodes: usize,
}

/// Builds the LZD output-bit expressions purely with ZDD ring
/// operations: `xᵢ = aₙ₋₁₋ᵢ · ∏_{j<i}(1 ⊕ aₙ₋₁₋ⱼ)`, `z_b = ⊕ xᵢ` over
/// positions with bit `b` set.
pub fn lzd_zdd(width: usize) -> (Zdd, Vec<ZddRef>) {
    let mut pool = VarPool::new();
    let bits = pool.input_word("a", 0, width);
    let mut zdd = Zdd::new();
    let mut prefix = ZddRef::ONE;
    let mut xs = Vec::with_capacity(width);
    for i in 0..width {
        let bit = zdd.var(bits[width - 1 - i]);
        xs.push(zdd.mul(prefix, bit));
        let nb = zdd.not(bit);
        prefix = zdd.mul(prefix, nb);
    }
    let out_bits = usize::BITS as usize - (width - 1).leading_zeros() as usize;
    let zs = (0..out_bits)
        .map(|b| {
            let mut acc = ZddRef::ZERO;
            for (i, &x) in xs.iter().enumerate() {
                if i >> b & 1 == 1 {
                    acc = zdd.xor(acc, x);
                }
            }
            acc
        })
        .collect();
    (zdd, zs)
}

/// Builds the majority-n Reed–Muller form as a ZDD: the XOR over the
/// Lucas-selected subset sizes of the canonical "all s-subsets"
/// families, each O(n·s) nodes.
pub fn majority_zdd(n: usize) -> (Zdd, ZddRef) {
    let mut pool = VarPool::new();
    let bits = pool.input_word("a", 0, n);
    let mut zdd = Zdd::new();
    for &b in &bits {
        zdd.var(b); // fix the level order to input order
    }
    let k = n.div_ceil(2);
    let mut memo = std::collections::HashMap::new();
    let mut root = ZddRef::ZERO;
    for s in (k..=n).filter(|&s| (k..=s).filter(|&j| j & s == j).count() % 2 == 1) {
        let family = subsets(&mut zdd, &bits, 0, s, &mut memo);
        root = zdd.xor(root, family);
    }
    (zdd, root)
}

fn subsets(
    zdd: &mut Zdd,
    vars: &[Var],
    from: usize,
    k: usize,
    memo: &mut std::collections::HashMap<(usize, usize), ZddRef>,
) -> ZddRef {
    if k == 0 {
        return ZddRef::ONE;
    }
    if vars.len() - from < k {
        return ZddRef::ZERO;
    }
    if let Some(&r) = memo.get(&(from, k)) {
        return r;
    }
    // Families: either var[from] is absent (choose k from the rest) or
    // present (choose k−1 from the rest).
    let lo = subsets(zdd, vars, from + 1, k, memo);
    let hi = subsets(zdd, vars, from + 1, k - 1, memo);
    let v = zdd.var(vars[from]);
    let with_v = zdd.mul(v, hi);
    let r = zdd.xor(lo, with_v);
    memo.insert((from, k), r);
    r
}

/// Cross-checks the ZDD constructions against the explicit generators at
/// a width where the explicit form is comfortable.
///
/// # Panics
///
/// Panics if the ZDD-built expressions differ from the explicit specs —
/// the canonical-handle comparison that makes this check O(1) per output.
pub fn cross_check() {
    let lzd = Lzd::new(12);
    let (mut zdd, zs) = lzd_zdd(12);
    for ((name, expr), &z) in lzd.spec().iter().zip(&zs) {
        let direct = zdd.from_anf(expr);
        assert_eq!(direct, z, "LZD-12 output {name} differs");
    }
    let m = Majority::new(13);
    let (mut zdd, root) = majority_zdd(13);
    let direct = zdd.from_anf(&m.spec()[0].1);
    assert_eq!(direct, root, "majority-13 differs");
}

/// Generates the scaling table.
pub fn scaling_rows() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for width in [8usize, 16, 24, 32, 48, 64] {
        let (zdd, zs) = lzd_zdd(width);
        let rm_terms = zs
            .iter()
            .map(|&z| zdd.term_count(z))
            .fold(0u128, u128::saturating_add);
        rows.push(ScalingRow {
            circuit: format!("lzd{width}"),
            inputs: width,
            rm_terms,
            zdd_nodes: zdd.node_count_many(&zs),
        });
    }
    for n in [7usize, 15, 23, 31, 63] {
        let (zdd, root) = majority_zdd(n);
        rows.push(ScalingRow {
            circuit: format!("maj{n}"),
            inputs: n,
            rm_terms: zdd.term_count(root),
            zdd_nodes: zdd.node_count(root),
        });
    }
    rows
}

/// Formats the report.
pub fn print_scaling(rows: &[ScalingRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "=== future work (§7): explicit Reed–Muller size vs ZDD ring representation ===\n",
    );
    out.push_str(&format!(
        "{:<8} {:>7} {:>26} {:>10}\n",
        "circuit", "inputs", "explicit RM terms", "ZDD nodes"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>7} {:>26} {:>10}\n",
            r.circuit, r.inputs, r.rm_terms, r.zdd_nodes
        ));
    }
    out.push_str(
        "\nThe explicit form of the 32-bit LZD (the case §6 reports as intractable)\n\
         needs billions of monomials; its canonical ZDD stays in the hundreds of\n\
         nodes while still supporting the Boolean-ring operations (XOR, AND) that\n\
         Progressive Decomposition's algebra relies on.\n",
    );
    out
}
