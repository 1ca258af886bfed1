//! The standard m-rule catalogue — Table 1 of the paper, plus the
//! sequence-predicate pushdown rewrite that exposes Cayuga's AN index as a
//! predicate-indexing opportunity (§4.3).
//!
//! | rule      | input operators                                             | target m-op |
//! |-----------|-------------------------------------------------------------|-------------|
//! | `s_sigma` | selections reading the same stream                          | predicate indexing \[10,16\] |
//! | `s_pi`    | projections reading the same stream                         | shared projection |
//! | `s_alpha` | aggregations, same stream/func/input (≠ group-by, window)   | shared aggregate evaluation \[22\] |
//! | `s_join`  | joins, same streams, same predicate (≠ windows)             | shared join evaluation \[12\] |
//! | `s_seq`   | `;` ops, same streams, same predicate                       | CSE / shared sequence (§4.3) |
//! | `s_mu`    | `µ` ops, same streams, same definition                      | CSE / shared iteration (§4.3) |
//! | `c_sigma` | selections, same def, sharable inputs from one m-op         | channel select |
//! | `c_pi`    | projections, same def, sharable inputs from one m-op        | channel project (§3.1 example) |
//! | `c_alpha` | aggregations, same def, sharable inputs from one m-op       | shared fragment aggregation \[15\] |
//! | `c_join`  | joins, same def, sharable left inputs + same right stream   | precision sharing join \[14\] |
//! | `c_seq`   | `;` ops, same def, sharable left inputs + same right stream | channel-based MQO (§4.4) |
//! | `c_mu`    | `µ` ops, same def, sharable left inputs + same right stream | channel-based MQO (§4.4) |

use std::collections::HashMap;

use rumor_expr::{Expr, Predicate, SchemaMap, Side};
use rumor_types::{MopId, Result, RumorError, StreamId};

use crate::logical::{AggFunc, OpDef, SeqSpec};
use crate::plan::{MopKind, MopNode, PlanGraph, Producer};
use crate::rules::{MRule, OptimizerConfig};
use crate::sharable::{Sharability, SigId};

/// Builds the standard rule set for a configuration.
pub fn standard_rules(config: &OptimizerConfig) -> Vec<Box<dyn MRule>> {
    let mut rules: Vec<Box<dyn MRule>> = Vec::new();
    if config.enable_pushdown {
        rules.push(Box::new(SeqPushdown));
    }
    if config.enable_sharing {
        rules.push(merge_rule(
            "s_sigma",
            10,
            MopKind::IndexedSelect,
            false,
            classify_s_sigma,
        ));
        rules.push(merge_rule(
            "s_pi",
            11,
            MopKind::SharedProject,
            false,
            classify_s_pi,
        ));
        rules.push(merge_rule(
            "s_alpha",
            12,
            MopKind::SharedAggregate,
            false,
            classify_s_alpha,
        ));
        rules.push(merge_rule(
            "s_join",
            13,
            MopKind::SharedJoin,
            false,
            classify_s_join,
        ));
        rules.push(merge_rule(
            "s_seq",
            14,
            MopKind::SharedSequence,
            false,
            classify_s_seq,
        ));
        rules.push(merge_rule(
            "s_mu",
            15,
            MopKind::SharedIterate,
            false,
            classify_s_mu,
        ));
    }
    if config.enable_channels {
        rules.push(merge_rule(
            "c_sigma",
            20,
            MopKind::ChannelSelect,
            true,
            classify_c_sigma,
        ));
        rules.push(merge_rule(
            "c_pi",
            21,
            MopKind::ChannelProject,
            true,
            classify_c_pi,
        ));
        rules.push(merge_rule(
            "c_alpha",
            22,
            MopKind::FragmentAggregate,
            true,
            classify_c_alpha,
        ));
        rules.push(merge_rule(
            "c_join",
            23,
            MopKind::PrecisionJoin,
            true,
            classify_c_join,
        ));
        rules.push(merge_rule(
            "c_seq",
            24,
            MopKind::ChannelSequence,
            true,
            classify_c_seq,
        ));
        rules.push(merge_rule(
            "c_mu",
            25,
            MopKind::ChannelIterate,
            true,
            classify_c_mu,
        ));
    }
    rules
}

// ----------------------------------------------------------------------
// Generic keyed merge rule
// ----------------------------------------------------------------------

/// Grouping keys: two m-ops may merge under a rule iff they classify to the
/// same key. Keys embed everything the rule's condition depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    /// sσ / sπ: same input stream (operator type fixed by the rule).
    SameStream(StreamId),
    /// sα: same stream + same function and input expression — group-bys
    /// and windows free: one window buffer at the widest window with a
    /// per-member eviction cursor serves every `RANGE` \[22\].
    SameStreamAgg(StreamId, AggFunc, Expr),
    /// s⋈ / s;: same stream pair + same predicate — windows free \[12\].
    SamePairPred(StreamId, StreamId, Predicate),
    /// sµ: same stream pair + same (filter, rebind, rebind map) — windows free.
    SamePairIter(StreamId, StreamId, Predicate, Predicate, SchemaMap),
    /// cσ/cπ/cα: same definition + sharable inputs from the same producer.
    ChannelUnary(OpDef, ProducerKey, SigId),
    /// c⋈/c;/cµ: same definition + sharable left inputs from the same
    /// producer + identical right stream.
    ChannelBinary(OpDef, ProducerKey, SigId, StreamId),
}

/// Where a group of sharable streams originates. The §3.2 criterion (b)
/// requires one producing m-op (so identical tuples are available at the
/// same time for encoding); streams of a *channel source* are already
/// encoded by the external feeder, which satisfies the same requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ProducerKey {
    Mop(MopId),
    SourceChannel(rumor_types::ChannelId),
}

type Classify = fn(&PlanGraph, &Sharability, &MopNode) -> Option<GroupKey>;

struct MergeRule {
    name: &'static str,
    priority: u32,
    kind: MopKind,
    channel: bool,
    classify: Classify,
}

fn merge_rule(
    name: &'static str,
    priority: u32,
    kind: MopKind,
    channel: bool,
    classify: Classify,
) -> Box<dyn MRule> {
    Box::new(MergeRule {
        name,
        priority,
        kind,
        channel,
        classify,
    })
}

impl MRule for MergeRule {
    fn name(&self) -> &'static str {
        self.name
    }

    fn priority(&self) -> u32 {
        self.priority
    }

    fn find_groups(&self, plan: &PlanGraph, sharable: &Sharability) -> Vec<Vec<MopId>> {
        let mut by_key: HashMap<GroupKey, Vec<MopId>> = HashMap::new();
        for node in plan.mops() {
            // Never regroup a node that is already the target kind on its
            // own; it can still join a group with new nodes.
            if let Some(key) = (self.classify)(plan, sharable, node) {
                by_key.entry(key).or_default().push(node.id);
            }
        }
        // Canonical ordering: sort members and groups by structural key
        // (registration-order independent), falling back to id order only
        // between structurally identical nodes — otherwise the plan shape
        // would depend on the order queries were registered in.
        let canon = plan.structural_keys();
        let key_of = |id: MopId| canon.get(&id).map(String::as_str).unwrap_or("");
        let mut groups: Vec<Vec<MopId>> = by_key
            .into_values()
            .filter(|g| g.len() >= 2)
            .map(|mut g| {
                g.sort_by(|&a, &b| key_of(a).cmp(key_of(b)).then(a.cmp(&b)));
                g
            })
            .collect();
        groups.sort_by(|a, b| key_of(a[0]).cmp(key_of(b[0])).then(a[0].cmp(&b[0])));
        groups
    }

    fn condition(&self, plan: &PlanGraph, sharable: &Sharability, group: &[MopId]) -> bool {
        if group.len() < 2 {
            return false;
        }
        let keys: Option<Vec<GroupKey>> = group
            .iter()
            .map(|&id| {
                plan.mop_opt(id)
                    .and_then(|n| (self.classify)(plan, sharable, n))
            })
            .collect();
        let Some(keys) = keys else { return false };
        if keys.windows(2).any(|w| w[0] != w[1]) {
            return false;
        }
        if self.channel {
            channel_precondition(plan, group)
        } else {
            true
        }
    }

    fn apply(&self, plan: &mut PlanGraph, group: &[MopId]) -> Result<MopId> {
        if self.channel {
            channel_apply(plan, group, self.kind)
        } else {
            plan.merge_mops(group, self.kind)
        }
    }

    fn encodes_channels(&self) -> bool {
        self.channel
    }
}

/// Channel rules may only fire when the member input streams can actually be
/// encoded into one channel: union-compatible schemas, and either all in
/// singleton channels or already encoded together.
fn channel_precondition(plan: &PlanGraph, group: &[MopId]) -> bool {
    let streams = port_streams(plan, group, 0);
    if streams.len() >= 2 {
        let first_schema = &plan.stream(streams[0]).schema;
        if !streams
            .iter()
            .all(|&s| plan.stream(s).schema.union_compatible(first_schema))
        {
            return false;
        }
        let first_channel = plan.channel_of(streams[0]);
        let all_same = streams.iter().all(|&s| plan.channel_of(s) == first_channel);
        let all_singleton = streams
            .iter()
            .all(|&s| plan.channel(plan.channel_of(s)).capacity() == 1);
        if !(all_same || all_singleton) {
            return false;
        }
    }
    true
}

/// Distinct member input streams on a port, in first-seen order.
fn port_streams(plan: &PlanGraph, group: &[MopId], port: usize) -> Vec<StreamId> {
    let mut streams = Vec::new();
    for &id in group {
        for m in &plan.mop(id).members {
            let s = m.inputs[port];
            if !streams.contains(&s) {
                streams.push(s);
            }
        }
    }
    streams
}

fn encode_if_needed(plan: &mut PlanGraph, streams: &[StreamId]) -> Result<()> {
    if streams.len() < 2 {
        return Ok(());
    }
    let first = plan.channel_of(streams[0]);
    if streams.iter().all(|&s| plan.channel_of(s) == first) {
        return Ok(()); // already encoded together
    }
    plan.encode_channel(streams)?;
    Ok(())
}

/// The action of every channel rule: encode the (sharable) port-0 input
/// streams into a channel, merge the group, then encode the target's output
/// streams into a channel as well (§4.4: "...and again encode their output
/// streams with a channel D").
fn channel_apply(plan: &mut PlanGraph, group: &[MopId], kind: MopKind) -> Result<MopId> {
    let left_streams = port_streams(plan, group, 0);
    encode_if_needed(plan, &left_streams)?;
    let target = plan.merge_mops(group, kind)?;
    let outs: Vec<StreamId> = plan.mop(target).output_streams().collect();
    let all_singleton = outs
        .iter()
        .all(|&s| plan.channel(plan.channel_of(s)).capacity() == 1);
    if all_singleton {
        encode_if_needed(plan, &outs)?;
    }
    Ok(target)
}

// ----------------------------------------------------------------------
// Classifiers: s-rules
// ----------------------------------------------------------------------

/// All members read the same port-`p` stream; returns it.
fn uniform_port_stream(node: &MopNode, port: usize) -> Option<StreamId> {
    let first = node.members.first()?.inputs.get(port).copied()?;
    node.members
        .iter()
        .all(|m| m.inputs.get(port) == Some(&first))
        .then_some(first)
}

fn classify_s_sigma(_: &PlanGraph, _: &Sharability, node: &MopNode) -> Option<GroupKey> {
    node.members
        .iter()
        .all(|m| matches!(m.def, OpDef::Select(_)))
        .then(|| uniform_port_stream(node, 0))
        .flatten()
        .map(GroupKey::SameStream)
}

fn classify_s_pi(_: &PlanGraph, _: &Sharability, node: &MopNode) -> Option<GroupKey> {
    node.members
        .iter()
        .all(|m| matches!(m.def, OpDef::Project(_)))
        .then(|| uniform_port_stream(node, 0))
        .flatten()
        .map(GroupKey::SameStream)
}

fn classify_s_alpha(_: &PlanGraph, _: &Sharability, node: &MopNode) -> Option<GroupKey> {
    let stream = uniform_port_stream(node, 0)?;
    let mut shared: Option<(AggFunc, &Expr)> = None;
    for m in &node.members {
        let OpDef::Aggregate(spec) = &m.def else {
            return None;
        };
        let key = spec.shared_key();
        match &shared {
            None => shared = Some(key),
            Some(k) if *k == key => {}
            Some(_) => return None,
        }
    }
    let (func, input) = shared?;
    Some(GroupKey::SameStreamAgg(stream, func, input.clone()))
}

fn classify_s_join(_: &PlanGraph, _: &Sharability, node: &MopNode) -> Option<GroupKey> {
    let l = uniform_port_stream(node, 0)?;
    let r = uniform_port_stream(node, 1)?;
    let mut pred: Option<&Predicate> = None;
    for m in &node.members {
        let OpDef::Join(spec) = &m.def else {
            return None;
        };
        match pred {
            None => pred = Some(&spec.predicate),
            Some(p) if *p == spec.predicate => {}
            Some(_) => return None,
        }
    }
    Some(GroupKey::SamePairPred(l, r, pred?.clone()))
}

fn classify_s_seq(_: &PlanGraph, _: &Sharability, node: &MopNode) -> Option<GroupKey> {
    let l = uniform_port_stream(node, 0)?;
    let r = uniform_port_stream(node, 1)?;
    let mut pred: Option<&Predicate> = None;
    for m in &node.members {
        let OpDef::Sequence(spec) = &m.def else {
            return None;
        };
        match pred {
            None => pred = Some(&spec.predicate),
            Some(p) if *p == spec.predicate => {}
            Some(_) => return None,
        }
    }
    Some(GroupKey::SamePairPred(l, r, pred?.clone()))
}

fn classify_s_mu(_: &PlanGraph, _: &Sharability, node: &MopNode) -> Option<GroupKey> {
    let l = uniform_port_stream(node, 0)?;
    let r = uniform_port_stream(node, 1)?;
    let mut def: Option<(&Predicate, &Predicate, &SchemaMap)> = None;
    for m in &node.members {
        let OpDef::Iterate(spec) = &m.def else {
            return None;
        };
        let key = (&spec.filter, &spec.rebind, &spec.rebind_map);
        match &def {
            None => def = Some(key),
            Some(k) if *k == key => {}
            Some(_) => return None,
        }
    }
    let (f, r_, m) = def?;
    Some(GroupKey::SamePairIter(
        l,
        r,
        f.clone(),
        r_.clone(),
        m.clone(),
    ))
}

// ----------------------------------------------------------------------
// Classifiers: c-rules
// ----------------------------------------------------------------------

/// All members share one definition; returns it.
fn uniform_def(node: &MopNode) -> Option<&OpDef> {
    let first = &node.members.first()?.def;
    node.members
        .iter()
        .all(|m| &m.def == first)
        .then_some(first)
}

/// All members' port-`p` input streams share a signature and a producing
/// m-op (§3.2 criteria (a) and (b)); returns `(producer, signature)`.
fn uniform_port_class(
    plan: &PlanGraph,
    sharable: &Sharability,
    node: &MopNode,
    port: usize,
) -> Option<(ProducerKey, SigId)> {
    let mut result: Option<(ProducerKey, SigId)> = None;
    for m in &node.members {
        let s = *m.inputs.get(port)?;
        let producer = match plan.stream(s).producer {
            Producer::Mop { mop, .. } => ProducerKey::Mop(mop),
            Producer::Source(_) => {
                // Only streams of a channel source qualify: they are
                // already encoded together by the external feeder.
                let ch = plan.channel_of(s);
                if plan.channel(ch).capacity() < 2 {
                    return None;
                }
                ProducerKey::SourceChannel(ch)
            }
        };
        let sig = sharable.signature(s)?;
        match &result {
            None => result = Some((producer, sig)),
            Some(r) if *r == (producer, sig) => {}
            Some(_) => return None,
        }
    }
    result
}

fn classify_c_unary(
    plan: &PlanGraph,
    sharable: &Sharability,
    node: &MopNode,
    is_type: fn(&OpDef) -> bool,
) -> Option<GroupKey> {
    let def = uniform_def(node)?;
    if !is_type(def) {
        return None;
    }
    let (producer, sig) = uniform_port_class(plan, sharable, node, 0)?;
    Some(GroupKey::ChannelUnary(def.clone(), producer, sig))
}

fn classify_c_binary(
    plan: &PlanGraph,
    sharable: &Sharability,
    node: &MopNode,
    is_type: fn(&OpDef) -> bool,
) -> Option<GroupKey> {
    // The `;`/`µ` channel m-ops support per-member duration windows (like
    // rule s⋈ does for joins), so the grouping definition ignores windows.
    let mut defs = node.members.iter().map(|m| normalize_window(&m.def));
    let def = defs.next()?;
    if defs.any(|d| d != def) || !is_type(&def) {
        return None;
    }
    let (producer, sig) = uniform_port_class(plan, sharable, node, 0)?;
    let right = uniform_port_stream(node, 1)?;
    Some(GroupKey::ChannelBinary(def, producer, sig, right))
}

/// Zeroes the duration window of `;`/`µ` definitions for grouping purposes.
fn normalize_window(def: &OpDef) -> OpDef {
    match def {
        OpDef::Sequence(spec) => OpDef::Sequence(SeqSpec {
            predicate: spec.predicate.clone(),
            window: 0,
        }),
        OpDef::Iterate(spec) => {
            let mut spec = spec.clone();
            spec.window = 0;
            OpDef::Iterate(spec)
        }
        other => other.clone(),
    }
}

fn classify_c_sigma(p: &PlanGraph, sh: &Sharability, n: &MopNode) -> Option<GroupKey> {
    classify_c_unary(p, sh, n, |d| matches!(d, OpDef::Select(_)))
}

fn classify_c_pi(p: &PlanGraph, sh: &Sharability, n: &MopNode) -> Option<GroupKey> {
    classify_c_unary(p, sh, n, |d| matches!(d, OpDef::Project(_)))
}

fn classify_c_alpha(p: &PlanGraph, sh: &Sharability, n: &MopNode) -> Option<GroupKey> {
    classify_c_unary(p, sh, n, |d| matches!(d, OpDef::Aggregate(_)))
}

fn classify_c_join(p: &PlanGraph, sh: &Sharability, n: &MopNode) -> Option<GroupKey> {
    classify_c_binary(p, sh, n, |d| matches!(d, OpDef::Join(_)))
}

fn classify_c_seq(p: &PlanGraph, sh: &Sharability, n: &MopNode) -> Option<GroupKey> {
    classify_c_binary(p, sh, n, |d| matches!(d, OpDef::Sequence(_)))
}

fn classify_c_mu(p: &PlanGraph, sh: &Sharability, n: &MopNode) -> Option<GroupKey> {
    classify_c_binary(p, sh, n, |d| matches!(d, OpDef::Iterate(_)))
}

// ----------------------------------------------------------------------
// Sequence predicate pushdown
// ----------------------------------------------------------------------

/// Pushes the event-only (right-side constant) conjuncts of a `;` predicate
/// below the operator as a selection on the second input stream.
///
/// This is the rewrite that turns Cayuga's AN index into an ordinary
/// predicate-indexing opportunity: after pushdown, the per-query event
/// predicates θ3 of Workload 1 (§5.2) become selections that all read the
/// same stream T, so rule sσ merges them into one hash-indexed m-op.
///
/// Safe for `;` because sequence instances are only deleted on a *match*;
/// events that fail the pushed conjunct could never match, so filtering
/// them early is unobservable. (It would be unsound for `µ` whose filter
/// edge can delete instances on non-matching events.)
struct SeqPushdown;

impl SeqPushdown {
    fn pushable(node: &MopNode) -> Option<(SeqSpec, Vec<Predicate>, Vec<Predicate>)> {
        if node.members.len() != 1 {
            return None;
        }
        let OpDef::Sequence(spec) = &node.members[0].def else {
            return None;
        };
        let conjuncts: Vec<Predicate> = match &spec.predicate {
            Predicate::And(ps) => ps.clone(),
            Predicate::True => return None,
            p => vec![p.clone()],
        };
        let (push, keep): (Vec<Predicate>, Vec<Predicate>) = conjuncts
            .into_iter()
            .partition(|c| c.references(Side::Right) && !c.references(Side::Left));
        if push.is_empty() {
            return None;
        }
        Some((spec.clone(), push, keep))
    }
}

impl MRule for SeqPushdown {
    fn name(&self) -> &'static str {
        "seq_pushdown"
    }

    fn priority(&self) -> u32 {
        5
    }

    fn min_group(&self) -> usize {
        1
    }

    fn find_groups(&self, plan: &PlanGraph, _: &Sharability) -> Vec<Vec<MopId>> {
        let canon = plan.structural_keys();
        let key_of = |id: MopId| canon.get(&id).map(String::as_str).unwrap_or("");
        let mut groups: Vec<Vec<MopId>> = plan
            .mops()
            .filter(|n| SeqPushdown::pushable(n).is_some())
            .map(|n| vec![n.id])
            .collect();
        groups.sort_by(|a, b| key_of(a[0]).cmp(key_of(b[0])).then(a[0].cmp(&b[0])));
        groups
    }

    fn condition(&self, plan: &PlanGraph, _: &Sharability, group: &[MopId]) -> bool {
        group.len() == 1
            && plan
                .mop_opt(group[0])
                .is_some_and(|n| SeqPushdown::pushable(n).is_some())
    }

    fn apply(&self, plan: &mut PlanGraph, group: &[MopId]) -> Result<MopId> {
        let id = group[0];
        let node = plan.mop(id);
        let (spec, push, keep) = SeqPushdown::pushable(node)
            .ok_or_else(|| RumorError::rule("pushdown no longer applicable".to_string()))?;
        let right_stream = node.members[0].inputs[1];
        // Rewrite the pushed conjuncts from binary (instance, event) space
        // into unary predicates over the event stream.
        let select_pred = Predicate::and(
            push.iter()
                .map(|c| c.shift_side(Side::Right, 0, Side::Left))
                .collect(),
        );
        let (sel_id, sel_out) = plan.add_op(OpDef::Select(select_pred), vec![right_stream])?;
        plan.rewire_member_input(id, 0, 1, sel_out)?;
        plan.set_member_def(
            id,
            0,
            OpDef::Sequence(SeqSpec {
                predicate: Predicate::and(keep),
                window: spec.window,
            }),
        )?;
        Ok(sel_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggSpec, IterSpec, JoinSpec, LogicalPlan};
    use crate::rules::Optimizer;
    use rumor_expr::CmpOp;
    use rumor_types::Schema;

    fn setup_st() -> PlanGraph {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(3), None).unwrap();
        p.add_source("T", Schema::ints(3), None).unwrap();
        p
    }

    /// Table 1: the full catalogue registers all nine paper rules (plus the
    /// extensions), in the documented priority order.
    #[test]
    fn table1_rule_catalogue_registered() {
        let opt = Optimizer::new(OptimizerConfig::default());
        let names = opt.rule_names();
        for required in [
            "s_sigma", "s_alpha", "s_join", "s_seq", "s_mu", // same-stream rules
            "c_alpha", "c_join", "c_seq", "c_mu", // channel rules
        ] {
            assert!(names.contains(&required), "missing rule {required}");
        }
        // Priority order: pushdown, then s-rules, then c-rules.
        let pos = |n: &str| names.iter().position(|&x| x == n).unwrap();
        assert!(pos("seq_pushdown") < pos("s_sigma"));
        assert!(pos("s_sigma") < pos("c_sigma"));
        assert!(pos("s_mu") < pos("c_mu"));
    }

    #[test]
    fn s_sigma_merges_same_stream_selections() {
        let mut p = setup_st();
        for c in 0..5i64 {
            p.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, c)))
                .unwrap();
        }
        let opt = Optimizer::new(OptimizerConfig::default());
        let trace = opt.optimize(&mut p).unwrap();
        assert_eq!(trace.count("s_sigma"), 1);
        assert_eq!(p.mop_count(), 1);
        let node = p.mops().next().unwrap();
        assert_eq!(node.kind, MopKind::IndexedSelect);
        assert_eq!(node.members.len(), 5);
        p.validate().unwrap();
    }

    #[test]
    fn s_sigma_dedupes_identical_queries() {
        let mut p = setup_st();
        let q = LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 7i64));
        let q1 = p.add_query(&q).unwrap();
        let q2 = p.add_query(&q).unwrap();
        let opt = Optimizer::new(OptimizerConfig::default());
        opt.optimize(&mut p).unwrap();
        assert_eq!(p.mop_count(), 1);
        assert_eq!(p.mops().next().unwrap().members.len(), 1, "CSE dedup");
        assert_eq!(p.query_output(q1), p.query_output(q2));
        p.validate().unwrap();
    }

    #[test]
    fn s_alpha_requires_same_function() {
        let mut p = setup_st();
        let agg = |func, group_by: Vec<usize>| {
            LogicalPlan::source("S").aggregate(AggSpec {
                func,
                input: Expr::col(1),
                group_by,
                window: 10,
            })
        };
        p.add_query(&agg(AggFunc::Sum, vec![0])).unwrap();
        p.add_query(&agg(AggFunc::Sum, vec![0, 2])).unwrap();
        p.add_query(&agg(AggFunc::Max, vec![0])).unwrap();
        let opt = Optimizer::new(OptimizerConfig::default());
        let trace = opt.optimize(&mut p).unwrap();
        assert_eq!(trace.count("s_alpha"), 1);
        // Sum group merged; Max stays alone.
        assert_eq!(p.mop_count(), 2);
        let shared = p
            .mops()
            .find(|n| n.kind == MopKind::SharedAggregate)
            .unwrap();
        assert_eq!(shared.members.len(), 2);
        p.validate().unwrap();
    }

    #[test]
    fn s_alpha_shares_across_windows() {
        let mut p = setup_st();
        let agg = |input, window| {
            LogicalPlan::source("S").aggregate(AggSpec {
                func: AggFunc::Sum,
                input: Expr::col(input),
                group_by: vec![0],
                window,
            })
        };
        for w in [5, 10, 20] {
            p.add_query(&agg(1, w)).unwrap();
        }
        p.add_query(&agg(2, 10)).unwrap();
        let opt = Optimizer::new(OptimizerConfig::default());
        let trace = opt.optimize(&mut p).unwrap();
        assert_eq!(trace.count("s_alpha"), 1);
        // The three RANGEs share one m-op; a different input stays alone.
        assert_eq!(p.mop_count(), 2);
        let shared = p
            .mops()
            .find(|n| n.kind == MopKind::SharedAggregate)
            .unwrap();
        assert_eq!(shared.members.len(), 3);
        p.validate().unwrap();
    }

    #[test]
    fn s_join_shares_across_windows() {
        let mut p = setup_st();
        let join = |w| {
            LogicalPlan::source("S").join(
                LogicalPlan::source("T"),
                JoinSpec {
                    predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                    window: w,
                },
            )
        };
        p.add_query(&join(10)).unwrap();
        p.add_query(&join(100)).unwrap();
        p.add_query(&join(1000)).unwrap();
        let opt = Optimizer::new(OptimizerConfig::default());
        let trace = opt.optimize(&mut p).unwrap();
        assert_eq!(trace.count("s_join"), 1);
        let node = p.mops().next().unwrap();
        assert_eq!(node.kind, MopKind::SharedJoin);
        assert_eq!(
            node.members.len(),
            3,
            "different windows stay distinct members"
        );
        p.validate().unwrap();
    }

    #[test]
    fn seq_pushdown_extracts_event_predicate() {
        let mut p = setup_st();
        // σθ1(S) ;θ3,win T with θ3 = T.a0 = 5 — the Workload 1 template.
        let q = LogicalPlan::source("S")
            .select(Predicate::attr_eq_const(0, 1i64))
            .followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::cmp(CmpOp::Eq, Expr::rcol(0), Expr::lit(5i64)),
                    window: 50,
                },
            );
        p.add_query(&q).unwrap();
        let opt = Optimizer::new(OptimizerConfig::default());
        let trace = opt.optimize(&mut p).unwrap();
        assert_eq!(trace.count("seq_pushdown"), 1);
        // The ; now has a trivial predicate and reads a new selection on T.
        let seq = p
            .mops()
            .find(|n| matches!(n.members[0].def, OpDef::Sequence(_)))
            .unwrap();
        let OpDef::Sequence(spec) = &seq.members[0].def else {
            unreachable!()
        };
        assert_eq!(spec.predicate, Predicate::True);
        let t = p.source_by_name("T").unwrap().stream;
        let sel = p
            .mops()
            .find(|n| matches!(n.members[0].def, OpDef::Select(_)) && n.members[0].inputs[0] == t)
            .unwrap();
        let OpDef::Select(sp) = &sel.members[0].def else {
            unreachable!()
        };
        assert_eq!(sp, &Predicate::attr_eq_const(0, 5i64));
        p.validate().unwrap();
    }

    #[test]
    fn workload1_shape_full_rewrite() {
        // Many σθ1(S) ;θ3 T queries: expect one indexed select on S (FR
        // index), one indexed select on T (AN index via pushdown), and the
        // remaining per-query ; ops.
        let mut p = setup_st();
        let n = 6i64;
        for c in 0..n {
            let q = LogicalPlan::source("S")
                .select(Predicate::attr_eq_const(0, c))
                .followed_by(
                    LogicalPlan::source("T"),
                    SeqSpec {
                        predicate: Predicate::cmp(CmpOp::Eq, Expr::rcol(0), Expr::lit(c)),
                        window: 100,
                    },
                );
            p.add_query(&q).unwrap();
        }
        let opt = Optimizer::new(OptimizerConfig::default());
        let trace = opt.optimize(&mut p).unwrap();
        assert_eq!(trace.count("seq_pushdown"), n as usize);
        assert_eq!(trace.count("s_sigma"), 2, "one index on S, one on T");
        // 2 indexed selects + n sequence m-ops.
        assert_eq!(p.mop_count(), 2 + n as usize);
        p.validate().unwrap();
    }

    #[test]
    fn s_seq_cse_merges_identical_sequences() {
        let mut p = setup_st();
        let q = LogicalPlan::source("S").followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                window: 10,
            },
        );
        let a = p.add_query(&q).unwrap();
        let b = p.add_query(&q).unwrap();
        let opt = Optimizer::new(OptimizerConfig::default());
        let trace = opt.optimize(&mut p).unwrap();
        assert_eq!(trace.count("s_seq"), 1);
        assert_eq!(p.mop_count(), 1);
        assert_eq!(p.query_output(a), p.query_output(b), "CSE aliased outputs");
        p.validate().unwrap();
    }

    #[test]
    fn c_alpha_builds_channel_over_selection_outputs() {
        // Example 1 / Figure 1(c): σ1, σ2 on S feeding two identical
        // aggregations. Expect: sσ merges the selections, then cα encodes
        // their outputs into a channel and merges the aggregations.
        let mut p = setup_st();
        let agg = AggSpec {
            func: AggFunc::Sum,
            input: Expr::col(1),
            group_by: vec![],
            window: 10,
        };
        for c in 0..2i64 {
            let q = LogicalPlan::source("S")
                .select(Predicate::attr_eq_const(0, c))
                .aggregate(agg.clone());
            p.add_query(&q).unwrap();
        }
        let opt = Optimizer::new(OptimizerConfig::default());
        let trace = opt.optimize(&mut p).unwrap();
        assert_eq!(trace.count("s_sigma"), 1);
        assert_eq!(trace.count("c_alpha"), 1);
        assert_eq!(p.mop_count(), 2);
        let frag = p
            .mops()
            .find(|n| n.kind == MopKind::FragmentAggregate)
            .unwrap();
        // Its two member inputs share one channel of capacity 2.
        let ch = p.channel_of(frag.members[0].inputs[0]);
        assert_eq!(p.channel(ch).capacity(), 2);
        assert_eq!(frag.inputs[0], ch);
        // Output streams also encoded as a channel.
        let out_ch = p.channel_of(frag.members[0].output);
        assert_eq!(p.channel(out_ch).capacity(), 2);
        p.validate().unwrap();
    }

    #[test]
    fn channels_disabled_keeps_streams_plain() {
        let mut p = setup_st();
        let agg = AggSpec {
            func: AggFunc::Sum,
            input: Expr::col(1),
            group_by: vec![],
            window: 10,
        };
        for c in 0..2i64 {
            p.add_query(
                &LogicalPlan::source("S")
                    .select(Predicate::attr_eq_const(0, c))
                    .aggregate(agg.clone()),
            )
            .unwrap();
        }
        let opt = Optimizer::new(OptimizerConfig::without_channels());
        let trace = opt.optimize(&mut p).unwrap();
        assert_eq!(trace.count("c_alpha"), 0);
        assert!(p.channels().all(|c| c.capacity() == 1));
        p.validate().unwrap();
    }

    #[test]
    fn c_mu_full_query2_pipeline() {
        // The n-instance Query 2 plan of Figure 6: α shared, starting
        // conditions σsi merged by sσ, µ merged by cµ over a channel,
        // stopping conditions merged by cσ.
        let mut p = PlanGraph::new();
        p.add_source("CPU", Schema::ints(2), None).unwrap();
        let smoothed = LogicalPlan::source("CPU").aggregate(AggSpec {
            func: AggFunc::Avg,
            input: Expr::col(1),
            group_by: vec![0],
            window: 5,
        });
        let n = 4i64;
        for c in 0..n {
            // Starting condition differs per query; the rest is identical.
            let start =
                smoothed
                    .clone()
                    .select(Predicate::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(c * 10)));
            let mu = start.iterate(
                smoothed.clone(),
                IterSpec {
                    filter: Predicate::cmp(CmpOp::Ne, Expr::col(0), Expr::rcol(0)),
                    rebind: Predicate::and(vec![
                        Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                        Predicate::cmp(CmpOp::Gt, Expr::rcol(1), Expr::col(1)),
                    ]),
                    rebind_map: SchemaMap::new(vec![
                        rumor_expr::NamedExpr::new("a0", Expr::col(0)),
                        rumor_expr::NamedExpr::new("avg", Expr::rcol(1)),
                    ]),
                    window: 100,
                },
            );
            let q = mu.select(Predicate::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(90i64)));
            p.add_query(&q).unwrap();
        }
        let opt = Optimizer::new(OptimizerConfig::default());
        let trace = opt.optimize(&mut p).unwrap();
        assert!(trace.count("s_alpha") >= 1, "smoothing aggregate shared");
        assert_eq!(trace.count("s_sigma"), 1, "starting conditions indexed");
        assert_eq!(trace.count("c_mu"), 1, "µ ops merged over channel");
        assert_eq!(trace.count("c_sigma"), 1, "stopping conditions merged");
        // Final plan: α, σ{s}, µ{1..n}, σ{e} — four m-ops.
        assert_eq!(p.mop_count(), 4);
        p.validate().unwrap();
    }
}
