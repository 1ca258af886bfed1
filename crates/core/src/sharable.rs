//! The *sharable streams* relation `~` of §3.2.
//!
//! Two streams are sharable iff they are "the result of the same query
//! plans, modulo any selection operators anywhere in the plan, applied to
//! the same input streams". The paper defines `~` inductively (base cases
//! for identical streams and sharable-labeled sources, inductive cases over
//! unary/binary operators, selection transparency, symmetry, transitivity).
//!
//! We compute `~` by assigning each stream a *structural signature*:
//!
//! * a source stream's signature is its source's sharable label;
//! * a selection's output signature equals its input's signature
//!   (selection transparency);
//! * any other member output's signature is the interned pair of its
//!   operator definition and its inputs' signatures — where an
//!   aggregate's definition is taken *without its window*.
//!
//! Two streams are sharable iff their signatures are interned to the same
//! id — which makes `~` "very efficient to compute and store" exactly as
//! the paper requires, and an equivalence relation by construction.
//!
//! **Why aggregate windows are normalized.** Rule sα keeps aggregates that
//! differ only in `RANGE` in one m-op (one window buffer, per-member
//! eviction), and that m-op emits one channel tuple for every member whose
//! row is equal. Its outputs are therefore the same stream "modulo the
//! window" in exactly the sense the channel rules need: identical
//! downstream operators over them (the rename projection every aliased
//! aggregate query carries) merge under the existing cπ/cσ/… into one
//! channel m-op that runs once per channel tuple. Membership keeps the
//! per-window results exact, so this only widens what may share, as the
//! channel rules' own `normalize_window` does for `;` and `µ`.

use std::collections::HashMap;

use rumor_types::StreamId;

use crate::logical::{AggSpec, OpDef};
use crate::plan::PlanGraph;

/// Interned signature id; equal ids ⟺ sharable streams.
pub type SigId = u32;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SigNode {
    Source(String),
    Op(OpDef, Vec<SigId>),
}

/// The computed sharability analysis for a plan snapshot.
#[derive(Debug, Default)]
pub struct Sharability {
    sig_of_stream: HashMap<StreamId, SigId>,
}

impl Sharability {
    /// Analyzes the plan and computes every live stream's signature.
    pub fn analyze(plan: &PlanGraph) -> Self {
        let mut intern: HashMap<SigNode, SigId> = HashMap::new();
        let mut sig_of_stream: HashMap<StreamId, SigId> = HashMap::new();
        let intern_node = |node: SigNode, table: &mut HashMap<SigNode, SigId>| -> SigId {
            let next = table.len() as SigId;
            *table.entry(node).or_insert(next)
        };

        // Source streams first. All streams of a channel source share the
        // source's label (§3.2 base case 2).
        for src in plan.sources() {
            let sig = intern_node(SigNode::Source(src.sharable_label.clone()), &mut intern);
            for &stream in &src.streams {
                sig_of_stream.insert(stream, sig);
            }
        }

        // Member outputs in topological order (producers precede consumers).
        let Ok(order) = plan.topo_order() else {
            return Sharability { sig_of_stream };
        };
        for mid in order {
            let node = plan.mop(mid);
            for member in &node.members {
                let input_sigs: Option<Vec<SigId>> = member
                    .inputs
                    .iter()
                    .map(|s| sig_of_stream.get(s).copied())
                    .collect();
                let Some(input_sigs) = input_sigs else {
                    continue;
                };
                let sig = if member.def.is_select() {
                    // Special case for selection (§3.2): σ(T) ~ T.
                    input_sigs[0]
                } else {
                    intern_node(
                        SigNode::Op(without_window(&member.def), input_sigs),
                        &mut intern,
                    )
                };
                sig_of_stream.insert(member.output, sig);
            }
        }
        Sharability { sig_of_stream }
    }

    /// The signature of a stream, if it was reachable during analysis.
    pub fn signature(&self, stream: StreamId) -> Option<SigId> {
        self.sig_of_stream.get(&stream).copied()
    }

    /// Whether two streams are sharable (`S1 ~ S2`).
    pub fn sharable(&self, a: StreamId, b: StreamId) -> bool {
        match (self.signature(a), self.signature(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

/// The definition as `~` sees it: an aggregate's window is zeroed (see the
/// module doc); every other operator is compared as defined.
fn without_window(def: &OpDef) -> OpDef {
    match def {
        OpDef::Aggregate(spec) => OpDef::Aggregate(AggSpec {
            window: 0,
            ..spec.clone()
        }),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::AggFunc;
    use rumor_expr::{Expr, Predicate};
    use rumor_types::Schema;

    fn agg(window: u64) -> OpDef {
        OpDef::Aggregate(AggSpec {
            func: AggFunc::Sum,
            input: Expr::col(0),
            group_by: vec![],
            window,
        })
    }

    #[test]
    fn stream_sharable_with_itself() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(1), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let sh = Sharability::analyze(&p);
        assert!(sh.sharable(s, s));
    }

    #[test]
    fn selection_outputs_sharable_with_input() {
        // §3.2 special case: σ(T) ~ T, so two selections with different
        // predicates over the same stream are sharable with each other.
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(1), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let (_, o1) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 1i64)), vec![s])
            .unwrap();
        let (_, o2) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 2i64)), vec![s])
            .unwrap();
        let sh = Sharability::analyze(&p);
        assert!(sh.sharable(o1, s));
        assert!(sh.sharable(o1, o2));
    }

    #[test]
    fn same_plan_modulo_selections_is_sharable() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(1), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        // α(σ1(S)) vs α(σ2(S)): same aggregation over sharable inputs.
        let (_, f1) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 1i64)), vec![s])
            .unwrap();
        let (_, f2) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 2i64)), vec![s])
            .unwrap();
        let (_, a1) = p.add_op(agg(10), vec![f1]).unwrap();
        let (_, a2) = p.add_op(agg(10), vec![f2]).unwrap();
        let sh = Sharability::analyze(&p);
        assert!(sh.sharable(a1, a2));
        // But not sharable with the raw stream or the filters.
        assert!(!sh.sharable(a1, s));
        assert!(!sh.sharable(a1, f1));
    }

    #[test]
    fn different_definitions_not_sharable() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let with = |f: fn(&mut AggSpec)| {
            let OpDef::Aggregate(mut spec) = agg(10) else {
                unreachable!()
            };
            f(&mut spec);
            OpDef::Aggregate(spec)
        };
        let (_, base) = p.add_op(agg(10), vec![s]).unwrap();
        let (_, wider) = p.add_op(agg(20), vec![s]).unwrap();
        let (_, func) = p.add_op(with(|a| a.func = AggFunc::Max), vec![s]).unwrap();
        let (_, input) = p.add_op(with(|a| a.input = Expr::col(1)), vec![s]).unwrap();
        let (_, grouped) = p.add_op(with(|a| a.group_by = vec![1]), vec![s]).unwrap();
        let sh = Sharability::analyze(&p);
        assert!(sh.sharable(base, wider), "aggregate windows are free");
        for other in [func, input, grouped] {
            assert!(
                !sh.sharable(base, other),
                "func, input, group-by still differ"
            );
        }
    }

    #[test]
    fn labeled_sources_are_sharable() {
        let mut p = PlanGraph::new();
        p.add_source("S1", Schema::ints(1), Some("grp".into()))
            .unwrap();
        p.add_source("S2", Schema::ints(1), Some("grp".into()))
            .unwrap();
        p.add_source("T", Schema::ints(1), None).unwrap();
        let s1 = p.source_by_name("S1").unwrap().stream;
        let s2 = p.source_by_name("S2").unwrap().stream;
        let t = p.source_by_name("T").unwrap().stream;
        let sh = Sharability::analyze(&p);
        assert!(sh.sharable(s1, s2));
        assert!(!sh.sharable(s1, t));
        // Inductive case over unary ops: α(S1) ~ α(S2).
        let mut p2 = p.clone();
        let (_, a1) = p2.add_op(agg(10), vec![s1]).unwrap();
        let (_, a2) = p2.add_op(agg(10), vec![s2]).unwrap();
        let sh2 = Sharability::analyze(&p2);
        assert!(sh2.sharable(a1, a2));
    }

    #[test]
    fn binary_inductive_case() {
        use crate::logical::SeqSpec;
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(1), None).unwrap();
        p.add_source("T", Schema::ints(1), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let t = p.source_by_name("T").unwrap().stream;
        let (_, l1) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 1i64)), vec![s])
            .unwrap();
        let (_, l2) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 2i64)), vec![s])
            .unwrap();
        let seq = |p: &mut PlanGraph, l, r| {
            p.add_op(
                OpDef::Sequence(SeqSpec {
                    predicate: Predicate::True,
                    window: 5,
                }),
                vec![l, r],
            )
            .unwrap()
            .1
        };
        let q1 = seq(&mut p, l1, t);
        let q2 = seq(&mut p, l2, t);
        let sh = Sharability::analyze(&p);
        assert!(
            sh.sharable(q1, q2),
            "same ; over sharable left and identical right inputs"
        );
    }
}
