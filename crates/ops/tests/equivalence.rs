//! Property-based I/O-equivalence tests.
//!
//! §2.2 of the paper defines m-op semantics as the one-by-one execution of
//! the member operators and requires every optimized implementation to
//! "guarantee the same input-output behavior". These tests enforce exactly
//! that: for random member sets and random input streams, each shared
//! implementation must produce the same per-member output multiset as
//! [`rumor_ops::naive::NaiveMop`] over the same members.

use std::collections::HashMap;

use proptest::prelude::*;

use rumor_core::logical::{AggFunc, AggSpec, IterSpec, JoinSpec, OpDef, SeqSpec};
use rumor_core::{ChannelTuple, MopContext, MopKind, MultiOp, PlanGraph, VecEmit};
use rumor_expr::{CmpOp, Expr, NamedExpr, Predicate, SchemaMap};
use rumor_ops::{instantiate, naive::NaiveMop};
use rumor_types::{Membership, PortId, Schema, StreamId, Tuple, Value};

/// An input event for the m-op under test.
#[derive(Debug, Clone)]
struct Event {
    port: usize,
    tuple: Tuple,
    /// Membership over the port-0 channel (ignored in solo mode).
    membership: Vec<usize>,
}

/// Builds a plan containing the given member defs merged into one m-op of
/// `kind`, with the port-0 inputs optionally channel-encoded over `n_left`
/// sharable streams. Returns the context of the merged node.
fn build_ctx(defs: &[OpDef], kind: MopKind, channel_left: bool) -> MopContext {
    let arity = defs[0].arity();
    let mut p = PlanGraph::new();
    p.add_source("S", Schema::ints(3), None).unwrap();
    let s = p.source_by_name("S").unwrap().stream;
    let t = if arity == 2 {
        p.add_source("T", Schema::ints(3), None).unwrap();
        Some(p.source_by_name("T").unwrap().stream)
    } else {
        None
    };

    let left_streams: Vec<StreamId> = if channel_left {
        // n_left sharable streams = outputs of one merged selection m-op.
        let mut ups = Vec::new();
        let mut outs = Vec::new();
        for i in 0..defs.len() {
            let (id, o) = p
                .add_op(
                    OpDef::Select(Predicate::attr_eq_const(2, i as i64)),
                    vec![s],
                )
                .unwrap();
            ups.push(id);
            outs.push(o);
        }
        p.merge_mops(&ups, MopKind::IndexedSelect).unwrap();
        outs
    } else {
        vec![s; defs.len()]
    };

    let nodes: Vec<_> = defs
        .iter()
        .enumerate()
        .map(|(i, def)| {
            let mut inputs = vec![left_streams[i]];
            if let Some(t) = t {
                inputs.push(t);
            }
            p.add_op(def.clone(), inputs).unwrap().0
        })
        .collect();
    if channel_left {
        p.encode_channel(&left_streams).unwrap();
    }
    let merged = p.merge_mops(&nodes, kind).unwrap();
    if channel_left {
        let outs: Vec<_> = p.mop(merged).output_streams().collect();
        if outs.len() >= 2 {
            p.encode_channel(&outs).unwrap();
        }
    }
    p.validate().unwrap();
    MopContext::build(&p, merged).unwrap()
}

/// Runs an implementation over the events and collects, per member, the
/// sorted multiset of output tuples.
fn run(
    op: &mut dyn MultiOp,
    ctx: &MopContext,
    events: &[Event],
    channel_left: bool,
) -> Vec<Vec<String>> {
    let mut sink = VecEmit::default();
    for ev in events {
        let membership = if ev.port == 0 && channel_left {
            Membership::from_indices(ev.membership.iter().copied())
        } else {
            Membership::singleton(0)
        };
        let ct = ChannelTuple::new(ev.tuple.clone(), membership);
        op.process(PortId(ev.port as u8), &ct, &mut sink);
    }
    // Attribute each emission to members via (channel, position).
    let mut by_target: HashMap<(rumor_types::ChannelId, usize), Vec<String>> = HashMap::new();
    for (ch, tuple, membership) in &sink.out {
        for pos in membership.iter() {
            by_target
                .entry((*ch, pos))
                .or_default()
                .push(format!("{tuple}"));
        }
    }
    let mut per_member = Vec::with_capacity(ctx.members.len());
    for m in &ctx.members {
        let mut v = by_target
            .remove(&(m.out_channel, m.out_position))
            .unwrap_or_default();
        v.sort();
        per_member.push(v);
    }
    per_member
}

/// Asserts shared ≡ naive over the same members and inputs.
fn assert_equivalent(defs: Vec<OpDef>, kind: MopKind, channel_left: bool, events: Vec<Event>) {
    let shared_ctx = build_ctx(&defs, kind, channel_left);
    let naive_ctx = build_ctx(&defs, MopKind::Naive, channel_left);
    // Plan-level CSE may have deduplicated identical members; the shared and
    // naive plans deduplicate identically, so member lists still align.
    assert_eq!(shared_ctx.members.len(), naive_ctx.members.len());
    let mut shared = instantiate(&shared_ctx).unwrap();
    let mut naive = NaiveMop::new(&naive_ctx).unwrap();
    let got = run(shared.as_mut(), &shared_ctx, &events, channel_left);
    let want = run(&mut naive, &naive_ctx, &events, channel_left);
    assert_eq!(
        got, want,
        "shared {kind:?} diverges from reference for members {defs:?}"
    );
}

// ----------------------------------------------------------------------
// Strategies
// ----------------------------------------------------------------------

/// Timestamp-ordered events with small attribute domains (to force
/// collisions) on the given ports.
fn events(n_ports: usize, len: usize, n_left: usize) -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (
            0..n_ports,
            prop::collection::vec(0i64..5, 3),
            1u64..4,
            prop::collection::vec(0usize..n_left.max(1), 1..=n_left.max(1)),
        ),
        1..len,
    )
    .prop_map(|items| {
        let mut ts = 0u64;
        items
            .into_iter()
            .map(|(port, vals, dt, membership)| {
                ts += dt;
                Event {
                    port,
                    tuple: Tuple::ints(ts, &vals),
                    membership,
                }
            })
            .collect()
    })
}

/// Aggregate inputs that `events` never produces: Float and Null
/// aggregated values on `a2` (so a group that empties must come back with a
/// fresh float sum and `all_int`) and tied timestamps (`dt = 0`, the
/// `window = 0` boundary). Group-by columns `a0`, `a1` stay small ints.
fn agg_events(len: usize) -> impl Strategy<Value = Vec<Event>> {
    let value = prop_oneof![
        (0i64..5).prop_map(Value::Int),
        // 0.1-steps do not sum exactly; 1e16 absorbs them.
        (1i64..4).prop_map(|k| Value::Float(k as f64 / 10.0)),
        Just(Value::Float(1e16)),
        Just(Value::Null),
    ];
    prop::collection::vec((0i64..4, 0i64..3, value, 0u64..3), 1..len).prop_map(|items| {
        let mut ts = 0u64;
        items
            .into_iter()
            .map(|(a0, a1, a2, dt)| {
                ts += dt;
                Event {
                    port: 0,
                    tuple: Tuple::new(ts, vec![Value::Int(a0), Value::Int(a1), a2]),
                    membership: vec![0],
                }
            })
            .collect()
    })
}

fn eq_pred() -> impl Strategy<Value = Predicate> {
    (0usize..3, 0i64..5).prop_map(|(a, c)| Predicate::attr_eq_const(a, c))
}

fn any_pred() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        eq_pred(),
        (0usize..3, 0i64..5).prop_map(|(a, c)| Predicate::cmp(
            CmpOp::Lt,
            Expr::col(a),
            Expr::lit(c)
        )),
        (0usize..3, 0i64..5, 0i64..5).prop_map(|(a, c, d)| Predicate::and(vec![
            Predicate::attr_eq_const(a, c),
            Predicate::cmp(CmpOp::Gt, Expr::col((a + 1) % 3), Expr::lit(d)),
        ])),
        Just(Predicate::True),
    ]
}

fn agg_func() -> impl Strategy<Value = AggFunc> {
    prop_oneof![
        Just(AggFunc::Count),
        Just(AggFunc::Sum),
        Just(AggFunc::Avg),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
    ]
}

fn group_by() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![Just(vec![]), Just(vec![0]), Just(vec![1]), Just(vec![0, 1]),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_select_equals_naive(
        preds in prop::collection::vec(any_pred(), 1..8),
        evs in events(1, 40, 1),
    ) {
        let defs: Vec<OpDef> = preds.into_iter().map(OpDef::Select).collect();
        assert_equivalent(defs, MopKind::IndexedSelect, false, evs);
    }

    #[test]
    fn channel_select_equals_naive(
        pred in any_pred(),
        n in 2usize..6,
        evs in events(1, 30, 5),
    ) {
        let defs: Vec<OpDef> = (0..n).map(|_| OpDef::Select(pred.clone())).collect();
        assert_equivalent(defs, MopKind::ChannelSelect, true, evs);
    }

    #[test]
    fn shared_project_equals_naive(
        muls in prop::collection::vec(1i64..4, 1..5),
        evs in events(1, 30, 1),
    ) {
        let defs: Vec<OpDef> = muls
            .into_iter()
            .map(|k| {
                OpDef::Project(SchemaMap::new(vec![NamedExpr::new(
                    "x",
                    Expr::col(0).mul(Expr::lit(k)),
                )]))
            })
            .collect();
        assert_equivalent(defs, MopKind::SharedProject, false, evs);
    }

    #[test]
    fn channel_project_equals_naive(
        k in 1i64..4,
        n in 2usize..6,
        evs in events(1, 30, 5),
    ) {
        let map = SchemaMap::new(vec![NamedExpr::new("x", Expr::col(0).mul(Expr::lit(k)))]);
        let defs: Vec<OpDef> = (0..n).map(|_| OpDef::Project(map.clone())).collect();
        assert_equivalent(defs, MopKind::ChannelProject, true, evs);
    }

    #[test]
    fn shared_aggregate_equals_naive(
        func in agg_func(),
        groups in prop::collection::vec(group_by(), 1..5),
        window in 1u64..20,
        evs in events(1, 40, 1),
    ) {
        let defs: Vec<OpDef> = groups
            .into_iter()
            .map(|g| OpDef::Aggregate(AggSpec {
                func,
                input: Expr::col(2),
                group_by: g,
                window,
            }))
            .collect();
        assert_equivalent(defs, MopKind::SharedAggregate, false, evs);
    }

    /// sα across RANGEs: members with mixed group-bys and windows 0..12
    /// (equal group-bys at different windows share group ids and emit
    /// equal rows once) over floats, nulls and tied timestamps.
    #[test]
    fn shared_aggregate_across_windows_equals_naive(
        func in agg_func(),
        members in prop::collection::vec((group_by(), 0u64..13), 1..=6),
        evs in agg_events(60),
    ) {
        let defs: Vec<OpDef> = members
            .into_iter()
            .map(|(g, window)| OpDef::Aggregate(AggSpec {
                func,
                input: Expr::col(2),
                group_by: g,
                window,
            }))
            .collect();
        assert_equivalent(defs, MopKind::SharedAggregate, false, evs);
    }

    #[test]
    fn fragment_aggregate_equals_naive(
        func in agg_func(),
        g in group_by(),
        window in 1u64..20,
        n in 2usize..5,
        evs in events(1, 35, 4),
    ) {
        let spec = AggSpec { func, input: Expr::col(2), group_by: g, window };
        let defs: Vec<OpDef> = (0..n).map(|_| OpDef::Aggregate(spec.clone())).collect();
        assert_equivalent(defs, MopKind::FragmentAggregate, true, evs);
    }

    #[test]
    fn shared_join_equals_naive(
        windows in prop::collection::vec(1u64..15, 1..5),
        residual_const in 0i64..5,
        evs in events(2, 40, 1),
    ) {
        let pred = Predicate::and(vec![
            Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
            Predicate::cmp(CmpOp::Lt, Expr::rcol(1), Expr::lit(residual_const)),
        ]);
        let defs: Vec<OpDef> = windows
            .into_iter()
            .map(|w| OpDef::Join(JoinSpec { predicate: pred.clone(), window: w }))
            .collect();
        assert_equivalent(defs, MopKind::SharedJoin, false, evs);
    }

    #[test]
    fn precision_join_equals_naive(
        window in 1u64..15,
        n in 2usize..5,
        evs in events(2, 35, 4),
    ) {
        let pred = Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0));
        let defs: Vec<OpDef> = (0..n)
            .map(|_| OpDef::Join(JoinSpec { predicate: pred.clone(), window }))
            .collect();
        assert_equivalent(defs, MopKind::PrecisionJoin, true, evs);
    }

    #[test]
    fn shared_sequence_equals_naive(
        windows in prop::collection::vec(1u64..15, 1..5),
        keyed in any::<bool>(),
        evs in events(2, 40, 1),
    ) {
        let pred = if keyed {
            Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0))
        } else {
            Predicate::cmp(CmpOp::Le, Expr::col(0), Expr::rcol(0))
        };
        let defs: Vec<OpDef> = windows
            .into_iter()
            .map(|w| OpDef::Sequence(SeqSpec { predicate: pred.clone(), window: w }))
            .collect();
        assert_equivalent(defs, MopKind::SharedSequence, false, evs);
    }

    #[test]
    fn channel_sequence_equals_naive(
        window in 1u64..15,
        n in 2usize..5,
        evs in events(2, 35, 4),
    ) {
        let pred = Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0));
        let defs: Vec<OpDef> = (0..n)
            .map(|_| OpDef::Sequence(SeqSpec { predicate: pred.clone(), window }))
            .collect();
        assert_equivalent(defs, MopKind::ChannelSequence, true, evs);
    }

    /// The c; generalization: members share the predicate but carry
    /// *different* duration windows (Workload 3's Zipf windows); emission
    /// is membership ∩ window-eligible members via the prefix-mask path.
    #[test]
    fn channel_sequence_with_mixed_windows_equals_naive(
        windows in prop::collection::vec(1u64..15, 2..5),
        evs in events(2, 35, 4),
    ) {
        let pred = Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0));
        let defs: Vec<OpDef> = windows
            .into_iter()
            .map(|w| OpDef::Sequence(SeqSpec { predicate: pred.clone(), window: w }))
            .collect();
        assert_equivalent(defs, MopKind::ChannelSequence, true, evs);
    }

    #[test]
    fn shared_iterate_equals_naive(
        windows in prop::collection::vec(1u64..15, 1..4),
        filter_kind in 0u8..3,
        evs in events(2, 35, 1),
    ) {
        let filter = match filter_kind {
            0 => Predicate::cmp(CmpOp::Ne, Expr::col(0), Expr::rcol(0)),
            1 => Predicate::True,
            _ => Predicate::cmp(CmpOp::Lt, Expr::rcol(1), Expr::lit(3i64)), // scan mode
        };
        let rebind = Predicate::and(vec![
            Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
            Predicate::cmp(CmpOp::Gt, Expr::rcol(1), Expr::col(1)),
        ]);
        let map = SchemaMap::new(vec![
            NamedExpr::new("a0", Expr::col(0)),
            NamedExpr::new("a1", Expr::rcol(1)),
            NamedExpr::new("a2", Expr::col(2)),
        ]);
        let defs: Vec<OpDef> = windows
            .into_iter()
            .map(|w| OpDef::Iterate(IterSpec {
                filter: filter.clone(),
                rebind: rebind.clone(),
                rebind_map: map.clone(),
                window: w,
            }))
            .collect();
        assert_equivalent(defs, MopKind::SharedIterate, false, evs);
    }

    #[test]
    fn channel_iterate_equals_naive(
        window in 1u64..15,
        n in 2usize..5,
        evs in events(2, 30, 4),
    ) {
        let spec = IterSpec {
            filter: Predicate::cmp(CmpOp::Ne, Expr::col(0), Expr::rcol(0)),
            rebind: Predicate::and(vec![
                Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                Predicate::cmp(CmpOp::Gt, Expr::rcol(1), Expr::col(1)),
            ]),
            rebind_map: SchemaMap::new(vec![
                NamedExpr::new("a0", Expr::col(0)),
                NamedExpr::new("a1", Expr::rcol(1)),
                NamedExpr::new("a2", Expr::col(2)),
            ]),
            window,
        };
        let defs: Vec<OpDef> = (0..n).map(|_| OpDef::Iterate(spec.clone())).collect();
        assert_equivalent(defs, MopKind::ChannelIterate, true, evs);
    }

    /// cµ with per-member windows (same rebind evolution, emissions
    /// filtered by window coverage).
    #[test]
    fn channel_iterate_with_mixed_windows_equals_naive(
        windows in prop::collection::vec(1u64..15, 2..5),
        evs in events(2, 30, 4),
    ) {
        let defs: Vec<OpDef> = windows
            .into_iter()
            .map(|w| OpDef::Iterate(IterSpec {
                filter: Predicate::cmp(CmpOp::Ne, Expr::col(0), Expr::rcol(0)),
                rebind: Predicate::and(vec![
                    Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                    Predicate::cmp(CmpOp::Gt, Expr::rcol(1), Expr::col(1)),
                ]),
                rebind_map: SchemaMap::new(vec![
                    NamedExpr::new("a0", Expr::col(0)),
                    NamedExpr::new("a1", Expr::rcol(1)),
                    NamedExpr::new("a2", Expr::col(2)),
                ]),
                window: w,
            }))
            .collect();
        assert_equivalent(defs, MopKind::ChannelIterate, true, evs);
    }
}
