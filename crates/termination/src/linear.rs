//! Exact chase-termination decision for **linear** TGDs (paper, Theorems 1–3).
//!
//! # The procedure: critical weak/rich acyclicity
//!
//! For linear TGDs (single body atom), the chase's behaviour on an atom
//! depends only on the atom's `Shape` (see [`crate::shape`]) pattern — its constants
//! and null-equality pattern. The procedure:
//!
//! 1. computes all shapes **reachable** from the critical instance
//!    (Marnette: termination on the critical instance ⇔ termination on all
//!    instances, for the o- and so-chase);
//! 2. overlays the weak/rich-acyclicity position graph *on reachable shapes
//!    only*: nodes are `(shape, position)` pairs; **regular** edges follow a
//!    frontier variable from its body position into its head positions;
//!    **special** edges connect trigger-identity positions to the
//!    existential positions of the produced shapes — frontier-variable
//!    positions for the semi-oblivious chase, every universal-variable
//!    position for the oblivious chase (mirroring the WA/RA distinction);
//! 3. answers *non-terminating* iff some cycle passes through a special
//!    edge.
//!
//! **Soundness** (dangerous reachable cycle ⇒ divergence): traverse the
//! cycle; the null born at the special edge's target propagates along the
//! regular path back to the special edge's source position, where it is
//! consumed by a trigger-identity variable — so each traversal is a *new*
//! trigger minting a *fresh* null, forever.
//!
//! **Completeness** (divergence ⇒ dangerous reachable cycle): an infinite
//! chase applies infinitely many distinct triggers over finitely many
//! shapes, so some rule fires with unboundedly many distinct nulls at an
//! identity position; following each such null to its birth (an existential
//! position) and the birth trigger to the older null it consumed yields an
//! infinite genealogy over finitely many `(shape, position)` pairs — which
//! must close a cycle through a special (birth) edge, and every pair on it
//! is reachable because the atoms actually existed.
//!
//! On constant-free **simple linear** rules every position of the (plain)
//! dependency graph is realizable, so this procedure coincides with plain
//! weak/rich acyclicity — exactly the paper's Theorem 1. With constants or
//! repeated body variables, plain WA/RA over-approximate and the shape
//! refinement is strictly sharper (Theorem 2; see the tests).

use chasekit_acyclicity::DiGraph;
use chasekit_core::{
    ConstId, FxHashMap, Program, RuleClass, Term, Tgd, VarId,
};
use chasekit_engine::ChaseVariant;

use crate::shape::{Label, Shape, ShapeInterner};

/// Errors of the linear analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinearError {
    /// The rule set is not linear.
    NotLinear,
    /// The analysis only covers the oblivious and semi-oblivious chase.
    UnsupportedVariant,
}

impl std::fmt::Display for LinearError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinearError::NotLinear => write!(f, "the rule set is not linear"),
            LinearError::UnsupportedVariant => {
                write!(f, "linear analysis supports the oblivious and semi-oblivious chase only")
            }
        }
    }
}

impl std::error::Error for LinearError {}

/// Outcome of the linear analysis.
#[derive(Debug, Clone)]
pub struct LinearDecision {
    /// Whether the chase (of the requested variant) terminates on **all**
    /// databases.
    pub terminates: bool,
    /// Number of reachable shapes explored.
    pub shapes: usize,
    /// Number of `(shape, position)` nodes in the overlay graph.
    pub position_nodes: usize,
    /// Number of overlay edges.
    pub position_edges: usize,
}

/// A matched rule application at the shape level.
struct ShapeStep {
    from: u32,
    /// Children: `(child shape id, per-head-atom info)`.
    children: Vec<ChildInfo>,
    /// Body positions holding frontier variables.
    frontier_positions: Vec<usize>,
    /// Body positions holding any universal variable.
    universal_positions: Vec<usize>,
}

struct ChildInfo {
    to: u32,
    /// `(body position, head position)` pairs for frontier propagation.
    regular: Vec<(usize, usize)>,
    /// Positions of the child holding freshly minted nulls.
    existential_positions: Vec<usize>,
}

/// Pre-canonical label id space for child construction: shape classes keep
/// their ids; fresh existential nulls get ids above this base.
const FRESH_BASE: u32 = 1 << 24;

/// Matches a linear rule's body atom against a shape, returning the
/// variable binding. Shared with the restricted-chase analysis.
pub(crate) fn match_body(
    body: &chasekit_core::Atom,
    shape: &Shape,
) -> Option<FxHashMap<VarId, Label>> {
    if body.pred != shape.pred {
        return None;
    }
    debug_assert_eq!(body.arity(), shape.arity());
    let mut binding: FxHashMap<VarId, Label> = FxHashMap::default();
    for (t, &label) in body.args.iter().zip(&shape.labels) {
        match *t {
            Term::Const(c) => {
                if label != Label::Const(c) {
                    return None;
                }
            }
            Term::Var(v) => match binding.get(&v) {
                Some(&bound) => {
                    if bound != label {
                        return None;
                    }
                }
                None => {
                    binding.insert(v, label);
                }
            },
            Term::Null(_) => unreachable!("rules contain no nulls"),
        }
    }
    Some(binding)
}

/// Applies a matched rule to a shape, producing the child shapes and the
/// propagation bookkeeping.
fn apply_rule(
    rule: &Tgd,
    from: u32,
    binding: &FxHashMap<VarId, Label>,
    interner: &mut ShapeInterner,
    worklist: &mut Vec<u32>,
) -> ShapeStep {
    let body = &rule.body()[0];

    let mut frontier_positions = Vec::new();
    let mut universal_positions = Vec::new();
    for (i, t) in body.args.iter().enumerate() {
        if let Term::Var(v) = *t {
            universal_positions.push(i);
            if rule.is_frontier(v) {
                frontier_positions.push(i);
            }
        }
    }

    let mut children = Vec::with_capacity(rule.head().len());
    for head_atom in rule.head() {
        let mut raw: Vec<Label> = Vec::with_capacity(head_atom.arity());
        let mut existential_positions = Vec::new();
        for (j, t) in head_atom.args.iter().enumerate() {
            match *t {
                Term::Const(c) => raw.push(Label::Const(c)),
                Term::Var(v) => {
                    if rule.is_universal(v) {
                        raw.push(binding[&v]);
                    } else {
                        raw.push(Label::Null(FRESH_BASE + v.0));
                        existential_positions.push(j);
                    }
                }
                Term::Null(_) => unreachable!("rules contain no nulls"),
            }
        }
        let child = Shape::canonicalize(head_atom.pred, &raw);
        let (to, is_new) = interner.intern(child);
        if is_new {
            worklist.push(to);
        }

        // Frontier propagation: body position i of frontier v -> head
        // position j of the same v.
        let mut regular = Vec::new();
        for (i, bt) in body.args.iter().enumerate() {
            let Term::Var(v) = *bt else { continue };
            if !rule.is_frontier(v) {
                continue;
            }
            for (j, ht) in head_atom.args.iter().enumerate() {
                if *ht == Term::Var(v) {
                    regular.push((i, j));
                }
            }
        }

        children.push(ChildInfo { to, regular, existential_positions });
    }

    ShapeStep { from, children, frontier_positions, universal_positions }
}

/// Full analysis result, exposing the reachable shape graph for diagnostics
/// and benchmarks.
pub struct LinearAnalysis {
    interner: ShapeInterner,
    steps: Vec<ShapeStep>,
}

impl LinearAnalysis {
    /// Explores all shapes reachable from the critical instance of
    /// `program`. `standard` switches to the paper's standard-database
    /// critical instance (adds constants 0 and 1 and the reserved facts).
    ///
    /// Fails unless the rule set is linear.
    pub fn explore(program: &Program, standard: bool) -> Result<LinearAnalysis, LinearError> {
        if !matches!(program.class(), RuleClass::SimpleLinear | RuleClass::Linear) {
            return Err(LinearError::NotLinear);
        }

        // Critical constant pool: rule constants plus the fresh ⋆ (plus 0/1
        // when standard). The pool only needs ids that are distinct from
        // each other, so the fresh ones are interned into a clone-free
        // local namespace: ids beyond the program's constant count.
        let mut pool: Vec<ConstId> = program.rule_constants();
        let star = ConstId::from_index(program.vocab.const_count());
        pool.push(star);
        let (zero, one) = if standard {
            let zero = program
                .vocab
                .constant("0")
                .unwrap_or(ConstId::from_index(program.vocab.const_count() + 1));
            let one = program
                .vocab
                .constant("1")
                .unwrap_or(ConstId::from_index(program.vocab.const_count() + 2));
            for c in [zero, one] {
                if !pool.contains(&c) {
                    pool.push(c);
                }
            }
            (Some(zero), Some(one))
        } else {
            (None, None)
        };

        let mut interner = ShapeInterner::new();
        let mut worklist: Vec<u32> = Vec::new();

        // Initial shapes: every predicate of the rules filled with every
        // combination of pool constants; reserved predicates 0/1 (when they
        // exist in the program and standard mode is on) carry exactly their
        // reserved fact.
        let reserved: Vec<(chasekit_core::PredId, ConstId)> = if standard {
            let mut r = Vec::new();
            if let Some(p) = program.vocab.pred("0") {
                if program.vocab.arity(p) == 1 {
                    r.push((p, zero.unwrap()));
                }
            }
            if let Some(p) = program.vocab.pred("1") {
                if program.vocab.arity(p) == 1 {
                    r.push((p, one.unwrap()));
                }
            }
            r
        } else {
            Vec::new()
        };

        for pred in program.rule_predicates() {
            if let Some(&(_, c)) = reserved.iter().find(|(p, _)| *p == pred) {
                let (id, is_new) = interner.intern(Shape {
                    pred,
                    labels: vec![Label::Const(c)],
                });
                if is_new {
                    worklist.push(id);
                }
                continue;
            }
            let arity = program.vocab.arity(pred);
            let mut combo = vec![0usize; arity];
            'combos: loop {
                let labels: Vec<Label> = combo.iter().map(|&i| Label::Const(pool[i])).collect();
                let (id, is_new) = interner.intern(Shape { pred, labels });
                if is_new {
                    worklist.push(id);
                }
                let mut k = arity;
                loop {
                    if k == 0 {
                        break 'combos;
                    }
                    k -= 1;
                    combo[k] += 1;
                    if combo[k] < pool.len() {
                        break;
                    }
                    combo[k] = 0;
                }
            }
        }

        // BFS over shapes.
        let mut steps: Vec<ShapeStep> = Vec::new();
        while let Some(shape_id) = worklist.pop() {
            for rule in program.rules() {
                let shape = interner.get(shape_id).clone();
                let Some(binding) = match_body(&rule.body()[0], &shape) else {
                    continue;
                };
                let step =
                    apply_rule(rule, shape_id, &binding, &mut interner, &mut worklist);
                steps.push(step);
            }
        }

        Ok(LinearAnalysis { interner, steps })
    }

    /// Number of reachable shapes.
    pub fn shape_count(&self) -> usize {
        self.interner.len()
    }

    /// Number of shape-level rule applications.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Builds the `(shape, position)` overlay graph for a variant, together
    /// with the dense-offset table.
    fn overlay(&self, variant: ChaseVariant) -> Result<(DiGraph, Vec<usize>), LinearError> {
        if variant == ChaseVariant::Restricted {
            return Err(LinearError::UnsupportedVariant);
        }
        // Dense (shape, position) numbering.
        let mut offsets = Vec::with_capacity(self.interner.len());
        let mut total = 0usize;
        for id in 0..self.interner.len() {
            offsets.push(total);
            total += self.interner.get(id as u32).arity();
        }
        let node = |shape: u32, pos: usize| offsets[shape as usize] + pos;

        let mut g = DiGraph::new(total);
        for step in &self.steps {
            let sources = match variant {
                ChaseVariant::Oblivious => &step.universal_positions,
                ChaseVariant::SemiOblivious => &step.frontier_positions,
                ChaseVariant::Restricted => unreachable!(),
            };
            for child in &step.children {
                for &(i, j) in &child.regular {
                    g.add_edge(node(step.from, i), node(child.to, j), false);
                }
                for &i in sources {
                    for &j in &child.existential_positions {
                        g.add_edge(node(step.from, i), node(child.to, j), true);
                    }
                }
            }
        }
        Ok((g, offsets))
    }

    /// Decides termination for the given chase variant by overlaying the
    /// position graph and searching for a dangerous cycle.
    pub fn decide(&self, variant: ChaseVariant) -> Result<LinearDecision, LinearError> {
        let (g, _) = self.overlay(variant)?;
        Ok(LinearDecision {
            terminates: !g.has_special_cycle(),
            shapes: self.interner.len(),
            position_nodes: g.node_count(),
            position_edges: g.edge_count(),
        })
    }

    /// Like [`LinearAnalysis::decide`], but on a negative answer also
    /// returns the witnessing special edge: the null-consuming
    /// `(shape, position)` and the null-creating `(shape, position)` lying
    /// on a dangerous cycle.
    pub fn decide_with_witness(
        &self,
        variant: ChaseVariant,
    ) -> Result<(LinearDecision, Option<DangerousWitness>), LinearError> {
        let (g, offsets) = self.overlay(variant)?;
        let witness = g.find_special_cycle_edge().map(|(u, v)| {
            let locate = |dense: usize| {
                // Last offset <= dense.
                let shape_idx = match offsets.binary_search(&dense) {
                    Ok(i) => i,
                    Err(i) => i - 1,
                };
                (self.interner.get(shape_idx as u32).clone(), dense - offsets[shape_idx])
            };
            let (from_shape, from_pos) = locate(u);
            let (to_shape, to_pos) = locate(v);
            DangerousWitness { from_shape, from_pos, to_shape, to_pos }
        });
        let decision = LinearDecision {
            terminates: witness.is_none(),
            shapes: self.interner.len(),
            position_nodes: g.node_count(),
            position_edges: g.edge_count(),
        };
        Ok((decision, witness))
    }
}

/// A dangerous-cycle witness of the linear analysis: a special edge on a
/// cycle, i.e. a trigger-identity position that is (transitively) fed by
/// the very null it causes to be created.
#[derive(Debug, Clone)]
pub struct DangerousWitness {
    /// Shape whose trigger-identity position consumes the null.
    pub from_shape: Shape,
    /// The consuming position.
    pub from_pos: usize,
    /// Shape in which the fresh null is created.
    pub to_shape: Shape,
    /// The existential position holding the fresh null.
    pub to_pos: usize,
}

/// One-shot: does the chase of the linear rule set terminate on all
/// databases under `variant`?
pub fn decide_linear(
    program: &Program,
    variant: ChaseVariant,
    standard: bool,
) -> Result<LinearDecision, LinearError> {
    LinearAnalysis::explore(program, standard)?.decide(variant)
}

/// Critical weak acyclicity: the exact characterization of `CTˢ° ∩ L`
/// (paper, Theorem 2, semi-oblivious side).
pub fn is_critically_weakly_acyclic(program: &Program) -> Result<bool, LinearError> {
    Ok(decide_linear(program, ChaseVariant::SemiOblivious, false)?.terminates)
}

/// Critical rich acyclicity: the exact characterization of `CT° ∩ L`
/// (paper, Theorem 2, oblivious side).
pub fn is_critically_richly_acyclic(program: &Program) -> Result<bool, LinearError> {
    Ok(decide_linear(program, ChaseVariant::Oblivious, false)?.terminates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chasekit_acyclicity::{is_richly_acyclic, is_weakly_acyclic};

    fn parse(src: &str) -> Program {
        Program::parse(src).unwrap()
    }

    fn so(src: &str) -> bool {
        decide_linear(&parse(src), ChaseVariant::SemiOblivious, false).unwrap().terminates
    }
    fn ob(src: &str) -> bool {
        decide_linear(&parse(src), ChaseVariant::Oblivious, false).unwrap().terminates
    }

    #[test]
    fn example1_diverges_both() {
        let src = "person(X) -> hasFather(X, Y), person(Y).";
        assert!(!so(src));
        assert!(!ob(src));
    }

    #[test]
    fn example2_diverges_both() {
        let src = "p(X, Y) -> p(Y, Z).";
        assert!(!so(src));
        assert!(!ob(src));
    }

    #[test]
    fn classic_separator_terminates_so_only() {
        let src = "r(X, Y) -> r(X, Z).";
        assert!(so(src));
        assert!(!ob(src));
    }

    #[test]
    fn copy_rule_terminates_both() {
        let src = "p(X, Y) -> q(X, Y).";
        assert!(so(src));
        assert!(ob(src));
    }

    #[test]
    fn feedback_without_null_growth_terminates() {
        let src = "p(X) -> q(X, Z). q(X, Z) -> p(X).";
        assert!(so(src));
        assert!(ob(src));
    }

    #[test]
    fn feedback_with_growing_nulls_diverges() {
        let src = "p(X) -> q(X, Z). q(X, Z) -> p(Z).";
        assert!(!so(src));
        assert!(!ob(src));
    }

    /// Repeated body variable blocks the dangerous cycle: plain WA rejects,
    /// the shape-refined (critical) analysis accepts — Theorem 2's point.
    #[test]
    fn repeated_variable_makes_wa_overapproximate() {
        let src = "s(X) -> e(X, Z). e(X, X) -> s(X).";
        let p = parse(src);
        assert!(!is_weakly_acyclic(&p));
        assert!(so(src), "critical-WA must see the unrealizable cycle");
        assert!(ob(src));
    }

    /// Rule constants block the dangerous cycle: the null never reaches a
    /// shape where the body constant `a` matches.
    #[test]
    fn constants_make_wa_overapproximate() {
        let src = "s(X) -> e(X, Z). e(a, X) -> s(X).";
        let p = parse(src);
        assert!(!is_weakly_acyclic(&p));
        assert!(so(src));
        assert!(ob(src));
    }

    /// ... but a realizable constant cycle fires for real.
    #[test]
    fn realizable_constant_cycle_diverges() {
        // e(a, ⋆, z1) arises, feeds s(z1), regenerates with a fresh null.
        let src = "s(X) -> e(a, X, Z). e(a, X, Y) -> s(Y).";
        assert!(!so(src));
        assert!(!ob(src));
    }

    /// A head constant with an empty frontier separates the variants: the
    /// semi-oblivious trigger identity is the empty tuple (one application,
    /// ever), while the oblivious chase sees a new homomorphism per atom.
    #[test]
    fn empty_frontier_constant_cycle_separates_variants() {
        let src = "s(X) -> e(a, Z). e(a, X) -> s(X).";
        assert!(so(src), "so applies the empty-frontier trigger once");
        assert!(!ob(src), "o refires on every new s-atom");
    }

    /// Theorem 1: on constant-free simple linear rules, the critical
    /// analysis coincides with plain weak/rich acyclicity.
    #[test]
    fn theorem1_coincidence_on_simple_linear() {
        let samples = [
            "p(X, Y) -> p(Y, Z).",
            "r(X, Y) -> r(X, Z).",
            "p(X, Y) -> q(X, Y).",
            "p(X) -> q(X, Z). q(X, Z) -> p(X).",
            "p(X) -> q(X, Z). q(X, Z) -> p(Z).",
            "a(X) -> b(X, Y). b(X, Y) -> c(Y). c(X) -> a(X).",
            "a(X) -> b(X, Y). b(X, Y) -> c(Y). c(X) -> d(X).",
            "person(X) -> hasFather(X, Y), person(Y).",
            "e(X, Y) -> e(Y, X).",
            "p(X, Y) -> p(X, Y).",
        ];
        for src in samples {
            let p = parse(src);
            assert_eq!(p.class(), RuleClass::SimpleLinear, "{src}");
            assert_eq!(so(src), is_weakly_acyclic(&p), "so vs WA on {src}");
            assert_eq!(ob(src), is_richly_acyclic(&p), "o vs RA on {src}");
        }
    }

    #[test]
    fn swap_rule_terminates() {
        // e(X, Y) -> e(Y, X): no existential at all.
        assert!(so("e(X, Y) -> e(Y, X)."));
        assert!(ob("e(X, Y) -> e(Y, X)."));
    }

    #[test]
    fn multi_head_shared_existential() {
        // The same existential in two head atoms; divergence flows through
        // the second head atom's predicate.
        let src = "p(X) -> q(X, Z), r(Z). r(X) -> p(X).";
        assert!(!so(src));
        assert!(!ob(src));
    }

    #[test]
    fn non_linear_input_is_rejected() {
        let p = parse("p(X), q(X) -> r(X).");
        assert_eq!(
            LinearAnalysis::explore(&p, false).err(),
            Some(LinearError::NotLinear)
        );
    }

    #[test]
    fn restricted_variant_is_rejected() {
        let p = parse("p(X) -> q(X).");
        let a = LinearAnalysis::explore(&p, false).unwrap();
        assert_eq!(a.decide(ChaseVariant::Restricted).err(), Some(LinearError::UnsupportedVariant));
    }

    #[test]
    fn shape_counts_are_reported() {
        let d = decide_linear(&parse("p(X, Y) -> p(Y, Z)."), ChaseVariant::SemiOblivious, false)
            .unwrap();
        // Shapes: p(⋆,⋆), p(⋆,n), p(n,m) — and p(n,n)? p(Y,Z) from p(n,m)
        // binds Y to class of position 1 and mints Z: p(m, fresh) = p(n,m)
        // again. From p(⋆,⋆): p(⋆,n). From p(⋆,n): p(n,m).
        assert_eq!(d.shapes, 3);
        assert!(!d.terminates);
    }

    #[test]
    fn standard_mode_adds_constants() {
        let p = parse("p(X, Y) -> p(Y, Z).");
        let plain = LinearAnalysis::explore(&p, false).unwrap();
        let std_ = LinearAnalysis::explore(&p, true).unwrap();
        assert!(std_.shape_count() > plain.shape_count());
        // Decision unchanged for this rule set.
        assert!(!std_.decide(ChaseVariant::SemiOblivious).unwrap().terminates);
    }

    /// A rule whose body can only match the critical all-star shape but
    /// whose head walks through fresh shapes without cycling.
    #[test]
    fn finite_shape_chain_terminates() {
        let src = "a(X) -> b(X, Y). b(X, Y) -> c(Y, Z). c(X, Y) -> d(Y).";
        assert!(so(src));
        assert!(ob(src));
    }

    /// Oblivious divergence driven by a non-frontier variable in a
    /// *non-simple* rule: the repeated variable must not confuse the
    /// oblivious special sources.
    #[test]
    fn oblivious_nonfrontier_feed_in_nonsimple_rule() {
        // t(X, Y, Y) -> t(X, X, Z)? Body t(X,Y,Y): on all-star shape binds
        // X,Y to ⋆; head t(X,X,Z) = shape t(⋆,⋆,n). Body match on
        // t(⋆,⋆,n): X→⋆, Y must equal both ⋆ and n: fails. So only one
        // application; terminates under both.
        let src = "t(X, Y, Y) -> t(X, X, Z).";
        assert!(so(src));
        assert!(ob(src));
    }
}

#[cfg(test)]
mod witness_tests {
    use super::*;
    use crate::shape::Label;

    #[test]
    fn witness_identifies_the_dangerous_positions() {
        // p(X, Y) -> p(Y, Z): the dangerous edge consumes at position 1 of
        // the all-null shape and creates at position 1.
        let p = Program::parse("p(X, Y) -> p(Y, Z).").unwrap();
        let analysis = LinearAnalysis::explore(&p, false).unwrap();
        let (decision, witness) =
            analysis.decide_with_witness(ChaseVariant::SemiOblivious).unwrap();
        assert!(!decision.terminates);
        let w = witness.expect("diverging analysis must produce a witness");
        assert_eq!(w.from_pos, 1, "Y sits at position 1");
        assert_eq!(w.to_pos, 1, "Z sits at position 1");
        assert!(w.from_shape.labels.iter().any(|l| l.is_null()));
    }

    #[test]
    fn terminating_analysis_has_no_witness() {
        let p = Program::parse("p(X, Y) -> q(X, Y).").unwrap();
        let analysis = LinearAnalysis::explore(&p, false).unwrap();
        let (decision, witness) =
            analysis.decide_with_witness(ChaseVariant::SemiOblivious).unwrap();
        assert!(decision.terminates);
        assert!(witness.is_none());
    }

    #[test]
    fn witness_shapes_respect_constants() {
        // s(X) -> e(a, X, Z). e(a, X, Y) -> s(Y). — the witness shapes keep
        // the constant a at position 0.
        let p = Program::parse("s(X) -> e(a, X, Z). e(a, X, Y) -> s(Y).").unwrap();
        let a = p.vocab.constant("a").unwrap();
        let analysis = LinearAnalysis::explore(&p, false).unwrap();
        let (_, witness) = analysis.decide_with_witness(ChaseVariant::SemiOblivious).unwrap();
        let w = witness.expect("diverges");
        // One of the two witness shapes is the e-shape with the constant.
        let has_const = |s: &Shape| s.labels.first() == Some(&Label::Const(a));
        assert!(has_const(&w.from_shape) || has_const(&w.to_shape));
    }
}
