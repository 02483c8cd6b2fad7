//! A multi-output Boolean network of SOP nodes with greedy common-divisor
//! extraction — a compact re-implementation of the classical multi-level
//! synthesis loop (SIS's `fx`/`gkx` style) that the paper's §2 describes
//! as the state of the art.
//!
//! Each round collects kernel (multi-cube) and cokernel (single-cube)
//! divisor candidates from every node, scores each candidate by the total
//! literal count saved if it were extracted into a fresh intermediate
//! variable and substituted everywhere, extracts the best one, and stops
//! when no candidate saves anything. Because the scoring is purely
//! *algebraic*, XOR-dominated functions — most arithmetic — offer it
//! almost nothing to extract; Table 1's comparison columns quantify that.

use crate::cover::{Cover, Cube, Lit};
use crate::divide::{divide, divide_cube};
use crate::factor::quick_factor;
use crate::kernel::kernels_capped;
use pd_anf::{Var, VarPool};
use pd_netlist::{Netlist, NodeId, Sop};
use std::collections::{BTreeMap, HashMap};

/// Tuning knobs for [`FactorNetwork::extract`].
#[derive(Clone, Debug)]
pub struct ExtractConfig {
    /// Kernel-enumeration cap per node per round.
    pub max_kernels_per_node: usize,
    /// Maximum extraction rounds (each round adds one divisor).
    pub max_rounds: usize,
    /// Also consider single-cube (cokernel) divisors.
    pub cube_divisors: bool,
    /// Minimum total literal saving for an extraction to proceed.
    pub min_gain: isize,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig {
            max_kernels_per_node: 512,
            max_rounds: 512,
            cube_divisors: true,
            min_gain: 1,
        }
    }
}

/// Summary of an extraction run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtractStats {
    /// Rounds executed (= divisors extracted).
    pub rounds: usize,
    /// Network literal count before extraction.
    pub literals_before: usize,
    /// Network literal count after extraction.
    pub literals_after: usize,
}

#[derive(Clone, Debug)]
enum NodeKind {
    /// A primary output with its name.
    Output(String),
    /// An extracted divisor, visible to other nodes as `var`.
    Divisor(Var),
}

#[derive(Clone, Debug)]
struct NetNode {
    kind: NodeKind,
    cover: Cover,
}

/// A multi-output network of SOP nodes supporting algebraic extraction
/// and synthesis into a gate-level netlist.
///
/// # Examples
///
/// ```
/// use pd_anf::VarPool;
/// use pd_factor::{ExtractConfig, FactorNetwork};
/// use pd_netlist::{Cube, Sop};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pool = VarPool::new();
/// let v: Vec<_> = ["a", "b", "c", "d"].iter().map(|n| pool.var_or_input(n)).collect();
/// // y = ac + ad + bc + bd: extraction finds the divisor (c + d).
/// let sop = Sop(vec![
///     Cube(vec![(v[0], true), (v[2], true)]),
///     Cube(vec![(v[0], true), (v[3], true)]),
///     Cube(vec![(v[1], true), (v[2], true)]),
///     Cube(vec![(v[1], true), (v[3], true)]),
/// ]);
/// let mut net = FactorNetwork::from_sops(&[("y".to_owned(), sop)]);
/// let stats = net.extract(&mut pool, &ExtractConfig::default());
/// assert!(stats.literals_after < stats.literals_before);
/// let netlist = net.synthesize();
/// assert_eq!(netlist.outputs().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FactorNetwork {
    nodes: Vec<NetNode>,
}

impl FactorNetwork {
    /// Builds a network with one node per named output.
    pub fn from_sops(outputs: &[(String, Sop)]) -> Self {
        FactorNetwork {
            nodes: outputs
                .iter()
                .map(|(name, sop)| NetNode {
                    kind: NodeKind::Output(name.clone()),
                    cover: Cover::from_sop(sop).minimize_containment(),
                })
                .collect(),
        }
    }

    /// Builds a network from ANF expressions via their minterm covers.
    ///
    /// Returns `None` when any expression's support exceeds `max_support`
    /// variables (see [`Cover::from_anf`]). The flow pipeline uses this to
    /// hand each decomposition block's leaders — small-support functions by
    /// construction — to the algebraic extraction loop.
    pub fn from_anf_outputs(outputs: &[(String, pd_anf::Anf)], max_support: usize) -> Option<Self> {
        let covers = outputs
            .iter()
            .map(|(name, expr)| Cover::from_anf(expr, max_support).map(|c| (name.clone(), c)))
            .collect::<Option<Vec<_>>>()?;
        Some(Self::from_covers(&covers))
    }

    /// Builds a network directly from covers.
    pub fn from_covers(outputs: &[(String, Cover)]) -> Self {
        FactorNetwork {
            nodes: outputs
                .iter()
                .map(|(name, cover)| NetNode {
                    kind: NodeKind::Output(name.clone()),
                    cover: cover.minimize_containment(),
                })
                .collect(),
        }
    }

    /// Total SOP literal count over all nodes — the cost the extraction
    /// loop minimises.
    pub fn literal_count(&self) -> usize {
        self.nodes.iter().map(|n| n.cover.literal_count()).sum()
    }

    /// Number of extracted divisor nodes.
    pub fn divisor_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Divisor(_)))
            .count()
    }

    /// The cover of output `name`, if present.
    pub fn output_cover(&self, name: &str) -> Option<&Cover> {
        self.nodes.iter().find_map(|n| match &n.kind {
            NodeKind::Output(n2) if n2 == name => Some(&n.cover),
            _ => None,
        })
    }

    /// Greedy common-divisor extraction; fresh divisor variables are
    /// allocated from `pool`.
    pub fn extract(&mut self, pool: &mut VarPool, config: &ExtractConfig) -> ExtractStats {
        let literals_before = self.literal_count();
        let mut rounds = 0usize;
        while rounds < config.max_rounds {
            let Some((divisor, gain)) = self.best_divisor(config) else {
                break;
            };
            if gain < config.min_gain {
                break;
            }
            let x = pool.fresh_derived(rounds as u32);
            self.substitute_divisor(&divisor, x);
            self.nodes.push(NetNode {
                kind: NodeKind::Divisor(x),
                cover: divisor,
            });
            rounds += 1;
        }
        ExtractStats {
            rounds,
            literals_before,
            literals_after: self.literal_count(),
        }
    }

    /// Collects candidates and returns the best `(divisor, gain)`.
    fn best_divisor(&self, config: &ExtractConfig) -> Option<(Cover, isize)> {
        let mut candidates: BTreeMap<Cover, ()> = BTreeMap::new();
        for node in &self.nodes {
            for k in kernels_capped(&node.cover, config.max_kernels_per_node) {
                if k.kernel.cube_count() >= 2 {
                    candidates.insert(k.kernel, ());
                }
                if config.cube_divisors && k.cokernel.len() >= 2 {
                    candidates.insert(Cover::from_cubes([k.cokernel]), ());
                }
            }
        }
        let mut best: Option<(Cover, isize)> = None;
        for candidate in candidates.keys() {
            let gain = self.gain_of(candidate);
            if best.as_ref().is_none_or(|(_, g)| gain > *g) {
                best = Some((candidate.clone(), gain));
            }
        }
        best
    }

    /// Total literal saving if `divisor` became a new node substituted
    /// into every cover it divides.
    fn gain_of(&self, divisor: &Cover) -> isize {
        let mut saved = 0isize;
        for node in &self.nodes {
            let (q, r) = self.divide_by(&node.cover, divisor);
            if q.is_zero() {
                continue;
            }
            let old = node.cover.literal_count() as isize;
            let new =
                q.literal_count() as isize + q.cube_count() as isize + r.literal_count() as isize;
            saved += old - new;
        }
        saved - divisor.literal_count() as isize
    }

    fn divide_by(&self, f: &Cover, divisor: &Cover) -> (Cover, Cover) {
        if divisor.cube_count() == 1 {
            divide_cube(f, &divisor.cubes()[0])
        } else {
            divide(f, divisor)
        }
    }

    fn substitute_divisor(&mut self, divisor: &Cover, x: Var) {
        let x_cube = Cube::new([Lit::pos(x)]);
        for node in &mut self.nodes {
            let (q, r) = if divisor.cube_count() == 1 {
                divide_cube(&node.cover, &divisor.cubes()[0])
            } else {
                divide(&node.cover, divisor)
            };
            if q.is_zero() {
                continue;
            }
            node.cover = q.mul_cube(&x_cube).or(&r);
        }
    }

    /// Runs exact two-level minimisation on every node function whose
    /// support fits `max_support` variables (the espresso step of a
    /// classical flow).
    ///
    /// This preserves each node's *function* but not its cube set, so
    /// [`FactorNetwork::flatten`] afterwards reproduces the original
    /// outputs only pointwise, not cube-for-cube.
    pub fn minimize_nodes(&mut self, max_support: usize) {
        for node in &mut self.nodes {
            node.cover = crate::minimize::minimize_cover(&node.cover, max_support);
        }
    }

    /// Divisor node indexes in dependency order: a divisor is listed
    /// after every divisor its cover references.
    ///
    /// Creation order is *not* sufficient: a later round may substitute
    /// its new variable into an earlier divisor's cover, so the
    /// reference graph must be walked explicitly.
    ///
    /// # Panics
    ///
    /// Panics if the divisor dependency graph contains a cycle, which
    /// the extraction rewrite rules cannot produce.
    fn divisor_topo_order(&self) -> Vec<usize> {
        let index_of_var: HashMap<Var, usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n.kind {
                NodeKind::Divisor(v) => Some((v, i)),
                NodeKind::Output(_) => None,
            })
            .collect();
        let mut order = Vec::with_capacity(index_of_var.len());
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut state = vec![0u8; self.nodes.len()];
        let mut stack: Vec<(usize, bool)> = index_of_var.values().map(|&i| (i, false)).collect();
        while let Some((i, expanded)) = stack.pop() {
            if expanded {
                if state[i] == 1 {
                    state[i] = 2;
                    order.push(i);
                }
                continue;
            }
            if state[i] != 0 {
                continue;
            }
            state[i] = 1;
            stack.push((i, true));
            for cube in self.nodes[i].cover.cubes() {
                for l in cube.lits() {
                    if let Some(&j) = index_of_var.get(&l.var()) {
                        assert!(state[j] != 1, "divisor dependency cycle");
                        if state[j] == 0 {
                            stack.push((j, false));
                        }
                    }
                }
            }
        }
        order
    }

    /// Expands every divisor back into the outputs, returning flat covers
    /// — the inverse of extraction, used to validate that restructuring
    /// preserved each function *algebraically* (the flattened cube sets
    /// equal the originals exactly).
    pub fn flatten(&self) -> Vec<(String, Cover)> {
        // Fully expanded divisor covers, built in dependency order so
        // each expansion only meets already-flat divisors.
        let mut expanded: HashMap<Var, Cover> = HashMap::new();
        for i in self.divisor_topo_order() {
            let NodeKind::Divisor(v) = self.nodes[i].kind else {
                unreachable!("topo order only lists divisors");
            };
            let flat = expand_cover(&self.nodes[i].cover, &expanded);
            expanded.insert(v, flat);
        }
        self.nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Output(name) => Some((name.clone(), expand_cover(&n.cover, &expanded))),
                NodeKind::Divisor(_) => None,
            })
            .collect()
    }

    /// Emits the network as a gate-level netlist: every node is
    /// quick-factored into an AND/OR tree, with divisor nodes shared.
    pub fn synthesize(&self) -> Netlist {
        let mut nl = Netlist::new();
        let mut divisor_nodes: HashMap<Var, NodeId> = HashMap::new();
        for i in self.divisor_topo_order() {
            let NodeKind::Divisor(v) = self.nodes[i].kind else {
                unreachable!("topo order only lists divisors");
            };
            let tree = quick_factor(&self.nodes[i].cover);
            let root = tree.synthesize(&mut nl, &mut |nl, q| match divisor_nodes.get(&q) {
                Some(&n) => n,
                None => nl.input(q),
            });
            divisor_nodes.insert(v, root);
        }
        for node in &self.nodes {
            if let NodeKind::Output(name) = &node.kind {
                let tree = quick_factor(&node.cover);
                let root = tree.synthesize(&mut nl, &mut |nl, q| match divisor_nodes.get(&q) {
                    Some(&n) => n,
                    None => nl.input(q),
                });
                nl.set_output(name, root);
            }
        }
        nl
    }
}

/// Substitutes every divisor variable occurring in `cover` with its
/// (already fully expanded) cover from `expanded`.
fn expand_cover(cover: &Cover, expanded: &HashMap<Var, Cover>) -> Cover {
    let mut cur = cover.clone();
    loop {
        let next_var = cur.cubes().iter().find_map(|c| {
            c.lits()
                .iter()
                .find(|l| l.is_positive() && expanded.contains_key(&l.var()))
                .map(|l| l.var())
        });
        let Some(v) = next_var else {
            return cur;
        };
        cur = substitute_var(&cur, v, &expanded[&v]);
    }
}

/// Substitutes the cover `d` for every *positive* occurrence of `v`
/// (divisor variables are only ever used positively).
fn substitute_var(f: &Cover, v: Var, d: &Cover) -> Cover {
    let lit = Lit::pos(v);
    let mut out = Cover::zero();
    let mut kept = Vec::new();
    for cube in f.cubes() {
        if cube.contains(lit) {
            let rest = Cube::new(cube.lits().iter().copied().filter(|&l| l != lit));
            out = out.or(&d.mul_cube(&rest));
        } else {
            kept.push(cube.clone());
        }
    }
    out.or(&Cover::from_cubes(kept))
}

/// One-call flow: build a network from SOP descriptions, extract common
/// divisors, and synthesize the multi-level netlist.
///
/// This is the drop-in "state of the art" baseline the benches compare
/// Progressive Decomposition against.
pub fn factor_and_synthesize(
    outputs: &[(String, Sop)],
    pool: &mut VarPool,
    config: &ExtractConfig,
) -> Netlist {
    let mut net = FactorNetwork::from_sops(outputs);
    net.extract(pool, config);
    net.synthesize()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn extracts_shared_kernel_across_outputs() {
        let mut pool = VarPool::new();
        // Both outputs contain the divisor (c + d).
        let f = cover(&mut pool, "ac + ad");
        let g = cover(&mut pool, "bc + bd + e");
        let mut net = FactorNetwork::from_covers(&[("f".to_owned(), f), ("g".to_owned(), g)]);
        let before = net.literal_count();
        let stats = net.extract(&mut pool, &ExtractConfig::default());
        assert!(stats.rounds >= 1);
        assert!(stats.literals_after < before);
        assert!(net.divisor_count() >= 1);
        // f = a·x, g = b·x + e with x = c + d: 2 + 4 + 2 + 1 = at most 9… the
        // concrete optimum here is f:2  g:3  x:2 = 7 literals.
        assert_eq!(net.literal_count(), 7);
    }

    #[test]
    fn flatten_restores_original_cube_sets() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "ac + ad + bc + bd + e");
        let g = cover(&mut pool, "ac + ad + x");
        let mut net =
            FactorNetwork::from_covers(&[("f".to_owned(), f.clone()), ("g".to_owned(), g.clone())]);
        net.extract(&mut pool, &ExtractConfig::default());
        let flat: HashMap<String, Cover> = net.flatten().into_iter().collect();
        assert_eq!(flat["f"], f);
        assert_eq!(flat["g"], g);
    }

    #[test]
    fn no_gain_means_no_extraction() {
        let mut pool = VarPool::new();
        // Disjoint minterm cover of XOR: nothing to share algebraically.
        let f = cover(&mut pool, "a!b + !ab");
        let mut net = FactorNetwork::from_covers(&[("y".to_owned(), f)]);
        let stats = net.extract(&mut pool, &ExtractConfig::default());
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.literals_before, stats.literals_after);
        assert_eq!(net.divisor_count(), 0);
    }

    #[test]
    fn synthesized_network_is_equivalent() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "ac + ad + bc + bd + e");
        let g = cover(&mut pool, "ab + ac + ad");
        let spec = vec![
            ("f".to_owned(), f.to_anf(1 << 16).unwrap()),
            ("g".to_owned(), g.to_anf(1 << 16).unwrap()),
        ];
        let mut net = FactorNetwork::from_covers(&[("f".to_owned(), f), ("g".to_owned(), g)]);
        net.extract(&mut pool, &ExtractConfig::default());
        let nl = net.synthesize();
        assert_eq!(pd_netlist::sim::check_equiv_anf(&nl, &spec, 16, 9), None);
    }

    #[test]
    fn divisor_in_divisor_extraction() {
        let mut pool = VarPool::new();
        // (a+b)(c+d) appears twice over different tails; extraction can
        // nest: first (c+d) (or (a+b)), then reuse it.
        let f = cover(&mut pool, "ac + ad + bc + bd + e");
        let g = cover(&mut pool, "ac + ad + bc + bd + h");
        let mut net =
            FactorNetwork::from_covers(&[("f".to_owned(), f.clone()), ("g".to_owned(), g.clone())]);
        net.extract(&mut pool, &ExtractConfig::default());
        // The shared block costs at most (2+2) once plus 2 uses + tails.
        assert!(net.literal_count() <= 12, "got {}", net.literal_count());
        let flat: HashMap<String, Cover> = net.flatten().into_iter().collect();
        assert_eq!(flat["f"], f);
        assert_eq!(flat["g"], g);
    }

    #[test]
    fn cube_divisor_extraction_can_be_disabled() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "abc + abd");
        let mut net = FactorNetwork::from_covers(&[("y".to_owned(), f)]);
        let cfg = ExtractConfig {
            cube_divisors: false,
            ..ExtractConfig::default()
        };
        // Only kernel (c + d) is available; with cubes enabled the common
        // cube ab would also be a candidate.
        let stats = net.extract(&mut pool, &cfg);
        let _ = stats;
        let nl = net.synthesize();
        assert_eq!(nl.outputs().len(), 1);
    }

    #[test]
    fn from_sops_minimises_containment() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "a + ab");
        let net = FactorNetwork::from_covers(&[("y".to_owned(), f)]);
        assert_eq!(net.literal_count(), 1);
    }

    #[test]
    fn from_anf_outputs_round_trips_through_synthesis() {
        let mut pool = VarPool::new();
        let maj = pd_anf::Anf::parse("a*b ^ b*c ^ c*a", &mut pool).unwrap();
        let sum = pd_anf::Anf::parse("a ^ b ^ c", &mut pool).unwrap();
        let spec = vec![("co".to_owned(), maj), ("s".to_owned(), sum)];
        let mut net = FactorNetwork::from_anf_outputs(&spec, 8).expect("support fits");
        net.minimize_nodes(8);
        net.extract(&mut pool, &ExtractConfig::default());
        let nl = net.synthesize();
        assert_eq!(pd_netlist::sim::check_equiv_anf(&nl, &spec, 16, 13), None);
        // Support above the cap is rejected, not mis-built.
        let mut wide_pool = VarPool::new();
        let wide = parity_anf(&mut wide_pool, 9);
        assert!(FactorNetwork::from_anf_outputs(&[("p".to_owned(), wide)], 8).is_none());
    }

    fn parity_anf(pool: &mut VarPool, n: usize) -> pd_anf::Anf {
        let mut e = pd_anf::Anf::zero();
        for i in 0..n {
            e = e.xor(&pd_anf::Anf::var(pool.input(&format!("p{i}"), 0, i)));
        }
        e
    }

    #[test]
    fn one_call_flow_runs_end_to_end() {
        let mut pool = VarPool::new();
        let f = cover(&mut pool, "ac + ad + bc + bd");
        let sop = f.to_sop();
        let nl = factor_and_synthesize(
            &[("y".to_owned(), sop)],
            &mut pool,
            &ExtractConfig::default(),
        );
        let spec = vec![("y".to_owned(), f.to_anf(1 << 12).unwrap())];
        assert_eq!(pd_netlist::sim::check_equiv_anf(&nl, &spec, 8, 3), None);
    }
}
