//! Single-function factoring: turning a flat cover into a factored
//! AND/OR tree (the "quick factor" of classical multi-level synthesis).
//!
//! The recursion divides by the most frequent literal, pulling out the
//! common cube first, which is exactly the algebraic restructuring a
//! conventional synthesis flow performs on each network node before
//! technology mapping.

use crate::cover::{Cover, Cube, Lit};
use crate::divide::divide_cube;
use pd_anf::Var;
use pd_netlist::{Netlist, NodeId};

/// A factored combinational form over literals.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FactorTree {
    /// A constant.
    Const(bool),
    /// A single literal.
    Lit(Lit),
    /// Conjunction of the children.
    And(Vec<FactorTree>),
    /// Disjunction of the children.
    Or(Vec<FactorTree>),
}

impl FactorTree {
    /// Number of literal leaves — the classical factored-form cost.
    pub fn literal_count(&self) -> usize {
        match self {
            FactorTree::Const(_) => 0,
            FactorTree::Lit(_) => 1,
            FactorTree::And(children) | FactorTree::Or(children) => {
                children.iter().map(FactorTree::literal_count).sum()
            }
        }
    }

    /// Evaluates the tree under a point assignment.
    pub fn eval(&self, assignment: &impl Fn(Var) -> bool) -> bool {
        match self {
            FactorTree::Const(b) => *b,
            FactorTree::Lit(l) => assignment(l.var()) == l.is_positive(),
            FactorTree::And(children) => children.iter().all(|c| c.eval(assignment)),
            FactorTree::Or(children) => children.iter().any(|c| c.eval(assignment)),
        }
    }

    /// Emits the tree into a netlist. `resolve` maps each variable to its
    /// driving node (a primary input or an already-emitted divisor).
    pub fn synthesize(
        &self,
        nl: &mut Netlist,
        resolve: &mut impl FnMut(&mut Netlist, Var) -> NodeId,
    ) -> NodeId {
        match self {
            FactorTree::Const(b) => nl.constant(*b),
            FactorTree::Lit(l) => {
                let n = resolve(nl, l.var());
                if l.is_positive() {
                    n
                } else {
                    nl.not(n)
                }
            }
            FactorTree::And(children) => {
                let nodes: Vec<NodeId> =
                    children.iter().map(|c| c.synthesize(nl, resolve)).collect();
                nl.and_many(&nodes)
            }
            FactorTree::Or(children) => {
                let nodes: Vec<NodeId> =
                    children.iter().map(|c| c.synthesize(nl, resolve)).collect();
                nl.or_many(&nodes)
            }
        }
    }
}

/// Factors a cover into an AND/OR tree by recursive division on the most
/// frequent literal (quick factor).
///
/// # Examples
///
/// ```
/// use pd_anf::VarPool;
/// use pd_factor::{quick_factor, Cover, Cube, Lit};
/// let mut pool = VarPool::new();
/// let v: Vec<_> = ["a", "b", "c"].iter().map(|n| pool.var_or_input(n)).collect();
/// // ab + ac factors as a(b + c): 3 literals instead of 4.
/// let f = Cover::from_cubes([
///     Cube::new([Lit::pos(v[0]), Lit::pos(v[1])]),
///     Cube::new([Lit::pos(v[0]), Lit::pos(v[2])]),
/// ]);
/// assert_eq!(quick_factor(&f).literal_count(), 3);
/// ```
pub fn quick_factor(f: &Cover) -> FactorTree {
    if f.is_zero() {
        return FactorTree::Const(false);
    }
    if f.has_one_cube() {
        return FactorTree::Const(true);
    }
    if f.cube_count() == 1 {
        return cube_tree(&f.cubes()[0]);
    }
    let cc = f.common_cube();
    if !cc.is_one() {
        let (core, _) = divide_cube(f, &cc);
        let mut children: Vec<FactorTree> = cc.lits().iter().map(|&l| FactorTree::Lit(l)).collect();
        children.push(quick_factor(&core));
        return FactorTree::And(children);
    }
    // Most frequent literal, if any repeats.
    let best = f
        .lit_counts()
        .into_iter()
        .max_by_key(|&(l, count)| (count, std::cmp::Reverse(l)));
    match best {
        Some((l, count)) if count >= 2 => {
            let (q, r) = divide_cube(f, &Cube::new([l]));
            let with_l = FactorTree::And(vec![FactorTree::Lit(l), quick_factor(&q)]);
            if r.is_zero() {
                with_l
            } else {
                FactorTree::Or(vec![with_l, quick_factor(&r)])
            }
        }
        _ => FactorTree::Or(f.cubes().iter().map(cube_tree).collect()),
    }
}

fn cube_tree(c: &Cube) -> FactorTree {
    match c.len() {
        0 => FactorTree::Const(true),
        1 => FactorTree::Lit(c.lits()[0]),
        _ => FactorTree::And(c.lits().iter().map(|&l| FactorTree::Lit(l)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_anf::VarPool;

    fn cover(pool: &mut VarPool, s: &str) -> Cover {
        Cover::from_cubes(s.split('+').map(|part| {
            let part = part.trim();
            let mut lits = Vec::new();
            let mut neg = false;
            for ch in part.chars() {
                if ch == '!' {
                    neg = true;
                    continue;
                }
                let name = ch.to_string();
                let v = pool.find(&name).unwrap_or_else(|| pool.var_or_input(&name));
                lits.push(Lit::new(v, !neg));
                neg = false;
            }
            Cube::new(lits)
        }))
    }

    fn check_function_preserved(pool: &VarPool, f: &Cover, t: &FactorTree) {
        let vars: Vec<Var> = pool.iter().collect();
        assert!(vars.len() <= 16, "test helper is exhaustive");
        for bits in 0u32..(1 << vars.len()) {
            let assign = |v: Var| {
                let i = vars.iter().position(|&q| q == v).unwrap();
                bits >> i & 1 == 1
            };
            assert_eq!(t.eval(&assign), f.eval(assign), "bits {bits:b}");
        }
    }

    #[test]
    fn factors_shared_literal() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "ab + ac + ad");
        let t = quick_factor(&f);
        assert_eq!(t.literal_count(), 4); // a(b + c + d)
        check_function_preserved(&pool, &f, &t);
    }

    #[test]
    fn common_cube_is_pulled_out() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "xyab + xycd");
        let t = quick_factor(&f);
        assert_eq!(t.literal_count(), 6); // xy(ab + cd)
        check_function_preserved(&pool, &f, &t);
    }

    #[test]
    fn textbook_example_reduces() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "ac + ad + bc + bd + e");
        let t = quick_factor(&f);
        // Literal division yields a(c+d) + b(c+d) + e = 7 literals
        // (the optimal (a+b)(c+d)+e = 5 needs kernel-level factoring).
        assert!(t.literal_count() <= 7, "got {}", t.literal_count());
        check_function_preserved(&pool, &f, &t);
    }

    #[test]
    fn constants_and_single_cubes() {
        let mut pool = VarPool::new();
        assert_eq!(quick_factor(&Cover::zero()), FactorTree::Const(false));
        assert_eq!(quick_factor(&Cover::one()), FactorTree::Const(true));
        let f = cover(&mut pool, "a!bc");
        let t = quick_factor(&f);
        assert_eq!(t.literal_count(), 3);
        check_function_preserved(&pool, &f, &t);
        let lone = cover(&mut pool, "d");
        assert_eq!(
            quick_factor(&lone),
            FactorTree::Lit(Lit::pos(pool.find("d").unwrap()))
        );
    }

    #[test]
    fn disjoint_covers_stay_flat() {
        let mut pool = VarPool::new();
        // Parity minterms share no structure algebra can see.
        let f = cover(&mut pool, "a!b + !ab");
        let t = quick_factor(&f);
        assert_eq!(t.literal_count(), 4, "no algebraic savings available");
        check_function_preserved(&pool, &f, &t);
    }

    #[test]
    fn synthesized_tree_matches_cover() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "ab + a!c + bd");
        let t = quick_factor(&f);
        let mut nl = Netlist::new();
        let root = t.synthesize(&mut nl, &mut |nl, v| nl.input(v));
        nl.set_output("y", root);
        let spec = vec![("y".to_owned(), f.to_anf(1 << 16).unwrap())];
        assert_eq!(pd_netlist::sim::check_equiv_anf(&nl, &spec, 8, 5), None);
    }
}
