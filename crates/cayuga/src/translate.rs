//! Translating Cayuga automata into RUMOR query plans (§4.2).
//!
//! "Automaton states can be mapped to operators while automaton edges
//! correspond to streams": a forward edge becomes a selection (its
//! predicate) followed by a schema-map projection; a filter-only state
//! becomes the `;` operator; a state with filter and rebind edges becomes
//! `µ`.
//!
//! Because our engine implements the deterministic match-consumption
//! sequence semantics (§5.2) on both sides, the `;` operator carries the
//! forward edge's *pairwise* predicate and duration directly; the
//! event-only conjuncts are subsequently pushed below the operator by the
//! `seq_pushdown` rewrite rule, where rule sσ turns them into the predicate
//! index that mirrors Cayuga's AN/FR indexes.
//!
//! Scope: chains of sequence states terminated by an optional µ state with
//! rebind emission — the automaton shapes of the paper's workloads
//! (§5.2). Forward edges leaving a µ state are not translated (Cayuga
//! resubscription).

use std::collections::HashMap;

use rumor_core::{IterSpec, LogicalPlan, SeqSpec};
use rumor_expr::{SchemaMap, Side};
use rumor_types::{QueryId, Result, RumorError, Schema};

use crate::automaton::{Automaton, StateId};

/// Translates an automaton into one logical plan per completed query.
pub fn translate(
    automaton: &Automaton,
    schemas: &HashMap<String, Schema>,
) -> Result<Vec<(QueryId, LogicalPlan)>> {
    let start = automaton
        .states
        .first()
        .filter(|s| s.is_start)
        .ok_or_else(|| RumorError::plan("automaton must begin with a start state".to_string()))?;
    let input_schema = schemas
        .get(&start.input)
        .ok_or_else(|| RumorError::unknown(format!("stream `{}`", start.input)))?;

    let mut outputs = Vec::new();
    for (edge, query) in &start.forward {
        // Start edges are unary over the arriving event.
        let mut plan = LogicalPlan::source(&start.input).select(edge.predicate.clone());
        let mut schema = input_schema.clone();
        if !edge.map.is_identity_for(&schema) {
            schema = edge.map.output_schema(&schema, None)?;
            plan = plan.project(edge.map.clone());
        }
        match edge.target {
            Some(target) => {
                translate_state(automaton, schemas, target, plan, schema, &mut outputs)?
            }
            None => {
                let q = query
                    .ok_or_else(|| RumorError::plan("final edge without a query".to_string()))?;
                outputs.push((q, plan));
            }
        }
    }
    Ok(outputs)
}

fn translate_state(
    automaton: &Automaton,
    schemas: &HashMap<String, Schema>,
    sid: StateId,
    left: LogicalPlan,
    left_schema: Schema,
    outputs: &mut Vec<(QueryId, LogicalPlan)>,
) -> Result<()> {
    let state = &automaton.states[sid];
    let event_schema = schemas
        .get(&state.input)
        .ok_or_else(|| RumorError::unknown(format!("stream `{}`", state.input)))?;

    if let Some(rebind) = &state.rebind {
        if !state.forward.is_empty() {
            return Err(RumorError::plan(
                "translation of forward edges out of µ states (resubscription) is unsupported"
                    .to_string(),
            ));
        }
        let spec = IterSpec {
            filter: state.filter.clone(),
            rebind: rebind.predicate.clone(),
            rebind_map: rebind.map.clone(),
            window: rebind.dur,
        };
        let plan = left.iterate(LogicalPlan::source(&state.input), spec);
        let q = rebind
            .emit
            .ok_or_else(|| RumorError::plan("µ state without an emitting query".to_string()))?;
        outputs.push((q, plan));
        return Ok(());
    }

    for (edge, query) in &state.forward {
        let spec = SeqSpec {
            predicate: edge.predicate.clone(),
            window: edge.dur,
        };
        let mut plan = left
            .clone()
            .followed_by(LogicalPlan::source(&state.input), spec);
        let concat_schema = left_schema.concat(event_schema);
        let mut schema = concat_schema.clone();
        // The edge map ranges over (instance, event); in the plan it becomes
        // a unary projection over the concatenated pair.
        let concat_map = SchemaMap::concat(&left_schema, event_schema);
        if edge.map != concat_map {
            let unary = SchemaMap::new(
                edge.map
                    .outputs
                    .iter()
                    .map(|ne| {
                        rumor_expr::NamedExpr::new(
                            ne.name.clone(),
                            ne.expr
                                .shift_side(Side::Right, left_schema.len(), Side::Left),
                        )
                    })
                    .collect(),
            );
            schema = unary.output_schema(&concat_schema, None)?;
            plan = plan.project(unary);
        }
        match edge.target {
            Some(target) => translate_state(automaton, schemas, target, plan, schema, outputs)?,
            None => {
                let q = query
                    .ok_or_else(|| RumorError::plan("final edge without a query".to_string()))?;
                outputs.push((q, plan));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::OpDef;
    use rumor_expr::{CmpOp, Expr, Predicate};

    fn schemas() -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert("S".to_string(), Schema::ints(2));
        m.insert("T".to_string(), Schema::ints(2));
        m
    }

    #[test]
    fn sequence_translates_to_select_then_seq() {
        let a = Automaton::sequence(
            "S",
            &Schema::ints(2),
            Predicate::attr_eq_const(0, 1i64),
            "T",
            &Schema::ints(2),
            Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
            100,
            QueryId(0),
        );
        let out = translate(&a, &schemas()).unwrap();
        assert_eq!(out.len(), 1);
        let (q, plan) = &out[0];
        assert_eq!(*q, QueryId(0));
        // Plan shape: σθ1(S) ; T — the identity store map and the concat
        // output map introduce no π nodes (Figure 5 with trivial maps).
        match plan {
            LogicalPlan::Sequence { left, right, spec } => {
                assert!(matches!(**left, LogicalPlan::Select { .. }));
                assert!(matches!(**right, LogicalPlan::Source(_)));
                assert_eq!(spec.window, 100);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn iterate_translates_to_mu() {
        let a = Automaton::iterate(
            "S",
            &Schema::ints(2),
            Predicate::attr_eq_const(0, 7i64),
            "T",
            Predicate::cmp(CmpOp::Ne, Expr::col(0), Expr::rcol(0)),
            Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
            SchemaMap::identity(2),
            50,
            QueryId(2),
        );
        let out = translate(&a, &schemas()).unwrap();
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            LogicalPlan::Iterate { spec, .. } => {
                assert_eq!(spec.window, 50);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn translated_plan_registers_and_validates() {
        use rumor_core::PlanGraph;
        let a = Automaton::sequence(
            "S",
            &Schema::ints(2),
            Predicate::attr_eq_const(0, 1i64),
            "T",
            &Schema::ints(2),
            Predicate::cmp(CmpOp::Eq, Expr::rcol(1), Expr::lit(5i64)),
            100,
            QueryId(0),
        );
        let out = translate(&a, &schemas()).unwrap();
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_source("T", Schema::ints(2), None).unwrap();
        p.add_query(&out[0].1).unwrap();
        p.validate().unwrap();
        assert!(p
            .mops()
            .any(|n| matches!(n.members[0].def, OpDef::Sequence(_))));
    }

    #[test]
    fn unknown_stream_is_error() {
        let a = Automaton::sequence(
            "X",
            &Schema::ints(2),
            Predicate::True,
            "T",
            &Schema::ints(2),
            Predicate::True,
            1,
            QueryId(0),
        );
        assert!(translate(&a, &schemas()).is_err());
    }
}
