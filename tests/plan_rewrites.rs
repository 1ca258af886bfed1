//! Plan-rewrite walkthroughs reproducing the paper's worked figures:
//! Figure 1 (selection m-op + channel over shared aggregation inputs),
//! Figure 6 (the n-instance Query 2 pipeline), and Figure 8 (prefix state
//! merging as common subexpression elimination).

use rumor::{
    AggFunc, AggSpec, LogicalPlan, MopKind, Optimizer, OptimizerConfig, PlanGraph, Predicate,
    Schema, SeqSpec,
};
use rumor_expr::{CmpOp, Expr};

/// Figure 1: Q1 = α1(σ1(S)), Q2 = α1(σ2(S)).
#[test]
fn figure1_selection_mop_and_channel() {
    let mut plan = PlanGraph::new();
    plan.add_source("S", Schema::ints(2), None).unwrap();
    let alpha = AggSpec {
        func: AggFunc::Sum,
        input: Expr::col(1),
        group_by: vec![],
        window: 10,
    };
    for c in [1i64, 2] {
        plan.add_query(
            &LogicalPlan::source("S")
                .select(Predicate::attr_eq_const(0, c))
                .aggregate(alpha.clone()),
        )
        .unwrap();
    }

    // Figure 1(a) → 1(b): rule sσ merges σ1, σ2 into σ{1,2}.
    let mut without_channels = plan.clone();
    Optimizer::new(OptimizerConfig::without_channels())
        .optimize(&mut without_channels)
        .unwrap();
    let sel = without_channels
        .mops()
        .find(|n| n.kind == MopKind::IndexedSelect)
        .expect("σ{1,2} exists");
    assert_eq!(sel.members.len(), 2);
    // Two output streams, two separate α operators (Figure 1(b)).
    assert_eq!(without_channels.mop_count(), 3);

    // Figure 1(b) → 1(c): the channel rule merges the aggregations into
    // α{1,1} reading a channel (the dashed arrow).
    Optimizer::new(OptimizerConfig::default())
        .optimize(&mut plan)
        .unwrap();
    assert_eq!(plan.mop_count(), 2);
    let frag = plan
        .mops()
        .find(|n| n.kind == MopKind::FragmentAggregate)
        .expect("α{1,1} exists");
    let ch = plan.channel_of(frag.members[0].inputs[0]);
    assert_eq!(plan.channel(ch).capacity(), 2, "σ{{1,2}} outputs encoded");
    plan.validate().unwrap();
}

/// Figure 8: two queries sharing the prefix `σθ1(S1) ;θf S2`; the suffix
/// selections θ2 and θ2' differ. CSE merges the prefix (s; on identical
/// sequences), and sσ then indexes the suffix selections — the FR index.
#[test]
fn figure8_prefix_merging_is_cse() {
    let mut plan = PlanGraph::new();
    plan.add_source("S1", Schema::ints(2), None).unwrap();
    plan.add_source("S2", Schema::ints(2), None).unwrap();
    let prefix = |_: i64| {
        LogicalPlan::source("S1")
            .select(Predicate::attr_eq_const(0, 5i64))
            .followed_by(
                LogicalPlan::source("S2"),
                SeqSpec {
                    predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                    window: 100,
                },
            )
    };
    // Suffix selections over the sequence output (positions 2,3 are the S2
    // half of the concatenated schema).
    let q1 = prefix(0).select(Predicate::attr_eq_const(2, 1i64));
    let q2 = prefix(0).select(Predicate::attr_eq_const(2, 2i64));
    let a = plan.add_query(&q1).unwrap();
    let b = plan.add_query(&q2).unwrap();
    let trace = Optimizer::new(OptimizerConfig::default())
        .optimize(&mut plan)
        .unwrap();

    // The duplicated σθ1 and ;θf collapsed (CSE via merge deduplication).
    assert!(trace.count("s_sigma") >= 1);
    assert_eq!(trace.count("s_seq"), 1, "shared ; prefix (Figure 8(c))");
    let seqs: Vec<_> = plan
        .mops()
        .filter(|n| {
            n.members
                .iter()
                .any(|m| matches!(m.def, rumor::OpDef::Sequence(_)))
        })
        .collect();
    assert_eq!(seqs.len(), 1);
    assert_eq!(seqs[0].members.len(), 1, "one shared ; member");
    // Suffix selections merged over the single ; output: the FR index.
    let fr = plan
        .mops()
        .find(|n| n.kind == MopKind::IndexedSelect && n.members.len() == 2)
        .expect("σθ2/σθ2' share one indexed m-op");
    assert_eq!(
        fr.members[0].inputs[0], fr.members[1].inputs[0],
        "both read the shared ; output stream"
    );
    assert_ne!(plan.query_output(a), plan.query_output(b));
    plan.validate().unwrap();
}

/// The duality of Figures 2 and 3: sτ merges a row (same stream, many
/// operators), cτ merges a column (same definition, sharable streams).
#[test]
fn figure2_and_3_duality() {
    let alpha = |input, window| AggSpec {
        func: AggFunc::Sum,
        input: Expr::col(input),
        group_by: vec![],
        window,
    };
    let grid = |defs: [AggSpec; 2]| {
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(2), None).unwrap();
        // A 2x2 grid: two sharable input streams (σ1, σ2 over S) × two
        // aggregation definitions.
        for c in [1i64, 2] {
            for def in &defs {
                plan.add_query(
                    &LogicalPlan::source("S")
                        .select(Predicate::attr_eq_const(0, c))
                        .aggregate(def.clone()),
                )
                .unwrap();
            }
        }
        Optimizer::new(OptimizerConfig::default())
            .optimize(&mut plan)
            .unwrap();
        plan.validate().unwrap();
        plan
    };
    let count = |plan: &PlanGraph, kind| plan.mops().filter(|n| n.kind == kind).count();

    // Rows that differ in the aggregated input: sα cannot merge a row, cα
    // merges each column across the two streams — one σ m-op plus one
    // channel m-op per definition (the columns of Figure 3).
    let columns = grid([alpha(0, 10), alpha(1, 10)]);
    assert_eq!(columns.mop_count(), 3);
    assert_eq!(count(&columns, MopKind::FragmentAggregate), 2);

    // Rows that differ only in the window: sα merges each row (Figure 2),
    // one window buffer per stream serving both RANGEs.
    let rows = grid([alpha(1, 10), alpha(1, 20)]);
    assert_eq!(rows.mop_count(), 3);
    assert_eq!(count(&rows, MopKind::SharedAggregate), 2);
    assert!(rows
        .mops()
        .filter(|n| n.kind == MopKind::SharedAggregate)
        .all(|n| n.members.len() == 2));
}

/// Rule-application order produces the documented deterministic plan: the
/// rewrite trace lists every merge with its rule name (§7's conflict
/// resolution, implemented via priorities).
#[test]
fn rewrite_trace_is_deterministic() {
    let build = || {
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(2), None).unwrap();
        for c in 0..4i64 {
            plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, c)))
                .unwrap();
        }
        let trace = Optimizer::new(OptimizerConfig::default())
            .optimize(&mut plan)
            .unwrap();
        trace
            .entries
            .iter()
            .map(|e| (e.rule, e.group.clone(), e.target))
            .collect::<Vec<_>>()
    };
    assert_eq!(build(), build());
}
