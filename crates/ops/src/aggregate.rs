//! Shared window-aggregation m-ops.
//!
//! * [`SharedAggregate`] — rule sα \[22\]: aggregations with the same
//!   function and input expression over one stream, with *different
//!   group-by specifications and windows*. One ring of `(ts, value)` holds
//!   every input tuple as long as the widest window needs it; each member
//!   keeps an eviction cursor into it and per-group running states. Input
//!   evaluation, group-key hashing (once per distinct group-by) and the
//!   buffer are shared, and members whose row for an event is equal emit
//!   one tuple on one channel tuple.
//! * [`FragmentAggregate`] — rule cα \[15\]: *identical* aggregations over
//!   sharable streams encoded by a channel. Partial aggregates are kept per
//!   (group, membership-fragment); a member's aggregate is the combination
//!   of the fragments its stream participates in, so tuples shared by many
//!   streams are stored and folded exactly once.

use std::collections::{HashMap, VecDeque};

use rumor_core::logical::{AggFunc, AggSpec};
use rumor_core::{ChannelTuple, Emit, MopContext, MultiOp};
use rumor_expr::{EvalCtx, Expr};
use rumor_types::{Membership, PortId, Result, RumorError, Timestamp, Tuple, Value, ValueKey};

use crate::emitgroup::OutputGroups;
use crate::single::{group_key, GroupState};

fn extract_agg(ctx: &MopContext) -> Result<Vec<AggSpec>> {
    ctx.members
        .iter()
        .map(|m| match &m.def {
            rumor_core::OpDef::Aggregate(spec) => Ok(spec.clone()),
            other => Err(RumorError::exec(format!(
                "aggregate m-op given non-aggregate member {other}"
            ))),
        })
        .collect()
}

fn output_row(tuple: &Tuple, group_by: &[usize], result: Value) -> Tuple {
    let mut values = Vec::with_capacity(group_by.len() + 1);
    for &i in group_by {
        values.push(tuple.value(i).cloned().unwrap_or(Value::Null));
    }
    values.push(result);
    Tuple::new(tuple.ts, values)
}

/// One distinct group-by of an sα m-op: groups are interned to dense ids,
/// and the states of its members live in one flat `Vec` indexed by
/// `(id, slot)`. An id lives while some ring entry carries it, then is
/// recycled.
struct GroupBy {
    cols: Vec<usize>,
    ids: HashMap<Vec<ValueKey>, u32>,
    /// Per id: the group key and how many ring entries carry the id.
    keys: Vec<(Vec<ValueKey>, usize)>,
    free: Vec<u32>,
    /// Members using this group-by.
    slots: usize,
    /// State of `(id, slot)` at `id * slots + slot`.
    states: Vec<GroupState>,
}

impl GroupBy {
    fn intern(&mut self, tuple: &Tuple, func: AggFunc, scratch: &mut Vec<ValueKey>) -> u32 {
        scratch.clear();
        scratch.extend(
            self.cols
                .iter()
                .map(|&i| tuple.value(i).map_or(ValueKey::Null, Value::group_key)),
        );
        let id = match self.ids.get(scratch.as_slice()) {
            Some(&id) => id,
            None => {
                let id = match self.free.pop() {
                    Some(id) => {
                        self.keys[id as usize].0.clone_from(scratch);
                        id
                    }
                    None => {
                        self.keys.push((scratch.clone(), 0));
                        let n = self.keys.len() * self.slots;
                        self.states.resize_with(n, || GroupState::new(func));
                        (self.keys.len() - 1) as u32
                    }
                };
                self.ids.insert(scratch.clone(), id);
                id
            }
        };
        self.keys[id as usize].1 += 1;
        id
    }

    /// A ring entry carrying `id` left the ring.
    fn release(&mut self, id: u32) {
        let (key, refs) = &mut self.keys[id as usize];
        *refs -= 1;
        if *refs == 0 {
            self.ids.remove(key.as_slice());
            self.free.push(id);
        }
    }

    fn state(&mut self, id: u32, slot: usize) -> &mut GroupState {
        &mut self.states[id as usize * self.slots + slot]
    }
}

/// One sα member: which group-by it uses (and its slot there), its window,
/// and the absolute ring index of its oldest live entry.
struct Member {
    group_by: usize,
    slot: usize,
    window: u64,
    cursor: usize,
}

/// Shared aggregate evaluation across group-bys and windows (rule sα).
pub struct SharedAggregate {
    func: AggFunc,
    input: Expr,
    in_position: usize,
    group_bys: Vec<GroupBy>,
    members: Vec<Member>,
    /// The shared window buffer: `(ts, aggregated value)` per input tuple,
    /// kept until every member has evicted it.
    ring: VecDeque<(Timestamp, Value)>,
    /// Per ring entry, its group id under each group-by (stride
    /// `group_bys.len()`).
    ring_ids: VecDeque<u32>,
    /// Absolute index of `ring[0]`.
    base: usize,
    outputs: OutputGroups,
    /// Per-event scratch: the distinct rows `(group-by, result, members)`;
    /// only the first `n` entries are live. The member lists keep their
    /// capacity across events — rebuilding them cost ≈ 10 % of `keyed_agg`
    /// throughput (6/6 A/B pairs).
    rows: Vec<(usize, Value, Vec<usize>)>,
    key: Vec<ValueKey>,
}

impl SharedAggregate {
    /// Builds the shared aggregation.
    pub fn new(ctx: &MopContext) -> Result<Self> {
        let specs = extract_agg(ctx)?;
        let first = specs
            .first()
            .ok_or_else(|| RumorError::exec("empty aggregate m-op".to_string()))?;
        if specs.iter().any(|s| s.shared_key() != first.shared_key()) {
            return Err(RumorError::exec(
                "sα members must share function and input".to_string(),
            ));
        }
        let in_position = ctx.members[0].input_positions[0];
        if ctx
            .members
            .iter()
            .any(|m| m.input_positions[0] != in_position)
        {
            return Err(RumorError::exec(
                "sα members must read the same stream".to_string(),
            ));
        }
        let mut group_bys: Vec<GroupBy> = Vec::new();
        let mut members = Vec::with_capacity(specs.len());
        for spec in &specs {
            let group_by = match group_bys.iter().position(|g| g.cols == spec.group_by) {
                Some(d) => d,
                None => {
                    group_bys.push(GroupBy {
                        cols: spec.group_by.clone(),
                        ids: HashMap::new(),
                        keys: Vec::new(),
                        free: Vec::new(),
                        slots: 0,
                        states: Vec::new(),
                    });
                    group_bys.len() - 1
                }
            };
            members.push(Member {
                group_by,
                slot: group_bys[group_by].slots,
                window: spec.window,
                cursor: 0,
            });
            group_bys[group_by].slots += 1;
        }
        Ok(SharedAggregate {
            func: first.func,
            input: first.input.clone(),
            in_position,
            group_bys,
            members,
            ring: VecDeque::new(),
            ring_ids: VecDeque::new(),
            base: 0,
            outputs: OutputGroups::new(&ctx.members),
            rows: Vec::new(),
            key: Vec::new(),
        })
    }
}

impl MultiOp for SharedAggregate {
    fn process(&mut self, _port: PortId, input: &ChannelTuple, out: &mut dyn Emit) {
        if !input.belongs_to(self.in_position) {
            return;
        }
        let tuple = &input.tuple;
        let now = tuple.ts;
        let func = self.func;
        let stride = self.group_bys.len();
        // The input expression is evaluated, and the group key hashed, once
        // for all members.
        let v = self.input.eval(&EvalCtx::unary(tuple));
        for gb in &mut self.group_bys {
            let id = gb.intern(tuple, func, &mut self.key);
            self.ring_ids.push_back(id);
        }
        let newest = self.base + self.ring.len();
        self.ring.push_back((now, v));
        let v = &self.ring[newest - self.base].1;

        let mut n = 0;
        for (idx, m) in self.members.iter_mut().enumerate() {
            let gb = &mut self.group_bys[m.group_by];
            // Evict what left this member's window: `ts < now - window`,
            // or everything before this tuple when `window = 0`.
            while m.cursor < newest {
                let i = m.cursor - self.base;
                let (ts, old) = &self.ring[i];
                if m.window != 0 && now.saturating_sub(m.window) <= *ts {
                    break;
                }
                let state = gb.state(self.ring_ids[i * stride + m.group_by], m.slot);
                state.remove(old);
                if state.is_empty() {
                    *state = GroupState::new(func);
                }
                m.cursor += 1;
            }
            let id = self.ring_ids[(newest - self.base) * stride + m.group_by];
            let state = gb.state(id, m.slot);
            state.add(v);
            let result = state.result(func);
            let key = result.group_key();
            match self.rows[..n]
                .iter_mut()
                .find(|(d, r, _)| *d == m.group_by && r.group_key() == key)
            {
                Some((_, _, members)) => members.push(idx),
                None => {
                    if n == self.rows.len() {
                        self.rows.push((m.group_by, result, vec![idx]));
                    } else {
                        let row = &mut self.rows[n];
                        row.0 = m.group_by;
                        row.1 = result;
                        row.2.clear();
                        row.2.push(idx);
                    }
                    n += 1;
                }
            }
        }
        for (d, result, members) in &self.rows[..n] {
            let row = output_row(tuple, &self.group_bys[*d].cols, result.clone());
            self.outputs.emit_members(out, &row, members);
        }

        // Drop the prefix every member has evicted, releasing its ids.
        let oldest = self
            .members
            .iter()
            .map(|m| m.cursor)
            .min()
            .unwrap_or(newest);
        while self.base < oldest {
            self.ring.pop_front();
            for gb in &mut self.group_bys {
                gb.release(self.ring_ids.pop_front().expect("ids per ring entry"));
            }
            self.base += 1;
        }
    }

    fn partition_keys(&self) -> rumor_core::PartitionKeys {
        // A group's state depends only on the tuples of that group (eviction
        // is a pure per-member ts horizon), so any hash key that every
        // member's group-by refines keeps each group whole: report the
        // intersection of the members' group-by attribute sets.
        let mut common: Vec<usize> = self.group_bys[0].cols.clone();
        common.sort_unstable();
        common.dedup();
        for gb in &self.group_bys[1..] {
            common.retain(|a| gb.cols.contains(a));
        }
        if common.is_empty() {
            rumor_core::PartitionKeys::Opaque
        } else {
            rumor_core::PartitionKeys::Grouped { group_by: common }
        }
    }

    fn state_size(&self) -> usize {
        self.ring.len()
            + self
                .group_bys
                .iter()
                .map(|g| g.keys.len() - g.free.len())
                .sum::<usize>()
    }

    fn name(&self) -> &'static str {
        "shared-aggregate"
    }
}

/// Shared fragment aggregation over a channel (rule cα).
pub struct FragmentAggregate {
    spec: AggSpec,
    in_positions: Vec<usize>,
    window: VecDeque<(Timestamp, Tuple, Value, Membership)>,
    /// group key → fragments: (membership, partial state).
    fragments: HashMap<Vec<ValueKey>, Vec<(Membership, GroupState)>>,
    outputs: OutputGroups,
}

impl FragmentAggregate {
    /// Builds the fragment aggregation.
    pub fn new(ctx: &MopContext) -> Result<Self> {
        let specs = extract_agg(ctx)?;
        let first = specs
            .first()
            .ok_or_else(|| RumorError::exec("empty aggregate m-op".to_string()))?
            .clone();
        if specs.iter().any(|s| *s != first) {
            return Err(RumorError::exec(
                "cα members must have identical definitions".to_string(),
            ));
        }
        Ok(FragmentAggregate {
            spec: first,
            in_positions: ctx.members.iter().map(|m| m.input_positions[0]).collect(),
            window: VecDeque::new(),
            fragments: HashMap::new(),
            outputs: OutputGroups::new(&ctx.members),
        })
    }

    fn evict(&mut self, now: Timestamp) {
        while let Some((ts, _, _, _)) = self.window.front() {
            if now.saturating_sub(self.spec.window) > *ts || self.spec.window == 0 {
                let (_, tuple, v, membership) = self.window.pop_front().expect("checked front");
                let key = group_key(&tuple, &self.spec.group_by);
                if let Some(frags) = self.fragments.get_mut(&key) {
                    if let Some((_, g)) = frags.iter_mut().find(|(m, _)| *m == membership) {
                        g.remove(&v);
                    }
                    frags.retain(|(_, g)| !g.is_empty());
                    if frags.is_empty() {
                        self.fragments.remove(&key);
                    }
                }
            } else {
                break;
            }
        }
    }

    /// Current number of fragments for diagnostics.
    pub fn fragment_count(&self) -> usize {
        self.fragments.values().map(|v| v.len()).sum()
    }
}

impl MultiOp for FragmentAggregate {
    fn process(&mut self, _port: PortId, input: &ChannelTuple, out: &mut dyn Emit) {
        // Restrict the membership to the streams our members actually read.
        let mut relevant: Vec<usize> = Vec::new();
        for (m, &pos) in self.in_positions.iter().enumerate() {
            if input.belongs_to(pos) {
                relevant.push(m);
            }
        }
        if relevant.is_empty() {
            return;
        }
        let tuple = &input.tuple;
        self.evict(tuple.ts);
        let v = self.spec.input.eval(&EvalCtx::unary(tuple));
        let key = group_key(tuple, &self.spec.group_by);
        // Fold the tuple into its (group, fragment) partial exactly once —
        // this is the space and computation sharing of [15].
        let frags = self.fragments.entry(key.clone()).or_default();
        match frags.iter_mut().find(|(m, _)| *m == input.membership) {
            Some((_, g)) => g.add(&v),
            None => {
                let mut g = GroupState::new(self.spec.func);
                g.add(&v);
                frags.push((input.membership.clone(), g));
            }
        }
        self.window
            .push_back((tuple.ts, tuple.clone(), v, input.membership.clone()));

        // Emit the refreshed aggregate for each member that received the
        // tuple, grouping members with equal results into one channel tuple.
        let frags = &self.fragments[&key];
        let mut by_result: Vec<(ValueKey, Value, Vec<usize>)> = Vec::new();
        for &m in &relevant {
            let pos = self.in_positions[m];
            let mut combined = GroupState::new(self.spec.func);
            for (membership, g) in frags {
                if membership.contains(pos) {
                    combined.merge_from(g);
                }
            }
            let result = combined.result(self.spec.func);
            let rk = result.group_key();
            match by_result.iter_mut().find(|(k, _, _)| *k == rk) {
                Some((_, _, members)) => members.push(m),
                None => by_result.push((rk, result, vec![m])),
            }
        }
        for (_, result, members) in by_result {
            let row = output_row(tuple, &self.spec.group_by, result);
            self.outputs.emit_members(out, &row, &members);
        }
    }

    fn partition_keys(&self) -> rumor_core::PartitionKeys {
        if self.spec.group_by.is_empty() {
            rumor_core::PartitionKeys::Opaque
        } else {
            let mut group_by = self.spec.group_by.clone();
            group_by.sort_unstable();
            group_by.dedup();
            rumor_core::PartitionKeys::Grouped { group_by }
        }
    }

    fn state_size(&self) -> usize {
        self.window.len() + self.fragment_count()
    }

    fn name(&self) -> &'static str {
        "fragment-aggregate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::logical::{AggFunc, OpDef};
    use rumor_core::{MopKind, PlanGraph, VecEmit};
    use rumor_expr::{Expr, Predicate};
    use rumor_types::Schema;

    fn spec(func: AggFunc, group_by: Vec<usize>, window: u64) -> AggSpec {
        AggSpec {
            func,
            input: Expr::col(1),
            group_by,
            window,
        }
    }

    #[test]
    fn shared_aggregate_two_group_bys() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(3), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let (a, _) = p
            .add_op(OpDef::Aggregate(spec(AggFunc::Sum, vec![0], 10)), vec![s])
            .unwrap();
        let (b, _) = p
            .add_op(OpDef::Aggregate(spec(AggFunc::Sum, vec![], 10)), vec![s])
            .unwrap();
        let merged = p.merge_mops(&[a, b], MopKind::SharedAggregate).unwrap();
        let ctx = MopContext::build(&p, merged).unwrap();
        let mut op = SharedAggregate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(0, &[7, 10, 0])),
            &mut sink,
        );
        op.process(
            PortId::LEFT,
            &ChannelTuple::solo(Tuple::ints(1, &[8, 5, 0])),
            &mut sink,
        );
        // Member 0 groups by a0: sums 10 then 5. Member 1 has no group-by:
        // sums 10 then 15.
        assert_eq!(sink.out.len(), 4);
        assert_eq!(sink.out[0].1, Tuple::ints(0, &[7, 10]));
        assert_eq!(sink.out[1].1, Tuple::ints(0, &[10]));
        assert_eq!(sink.out[2].1, Tuple::ints(1, &[8, 5]));
        assert_eq!(sink.out[3].1, Tuple::ints(1, &[15]));
    }

    #[test]
    fn shared_aggregate_eviction() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let (a, _) = p
            .add_op(OpDef::Aggregate(spec(AggFunc::Sum, vec![], 2)), vec![s])
            .unwrap();
        let ctx = MopContext::build(&p, a).unwrap();
        let mut op = SharedAggregate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        for (ts, v) in [(0, 10), (1, 20), (4, 5)] {
            op.process(
                PortId::LEFT,
                &ChannelTuple::solo(Tuple::ints(ts, &[0, v])),
                &mut sink,
            );
        }
        // At ts=4 both earlier tuples expired.
        assert_eq!(sink.out[2].1, Tuple::ints(4, &[5]));
    }

    #[test]
    fn shared_aggregate_across_windows_emits_equal_rows_once() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(3), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let mut ids = Vec::new();
        let mut outs = Vec::new();
        for w in [1, 3, 10] {
            let (id, o) = p
                .add_op(OpDef::Aggregate(spec(AggFunc::Sum, vec![0], w)), vec![s])
                .unwrap();
            ids.push(id);
            outs.push(o);
        }
        let merged = p.merge_mops(&ids, MopKind::SharedAggregate).unwrap();
        p.encode_channel(&outs).unwrap();
        let ctx = MopContext::build(&p, merged).unwrap();
        let mut op = SharedAggregate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        for (ts, v) in [(0, 10), (2, 5), (5, 1)] {
            op.process(
                PortId::LEFT,
                &ChannelTuple::solo(Tuple::ints(ts, &[7, v, 0])),
                &mut sink,
            );
        }
        let got: Vec<_> = sink
            .out
            .iter()
            .map(|(_, t, m)| (t.clone(), m.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                // Every window holds the one tuple: one row for all three.
                (Tuple::ints(0, &[7, 10]), Membership::all(3)),
                // Window 1 lost ts 0; windows 3 and 10 agree.
                (Tuple::ints(2, &[7, 5]), Membership::singleton(0)),
                (Tuple::ints(2, &[7, 15]), Membership::from_indices([1, 2])),
                // Each window differs now.
                (Tuple::ints(5, &[7, 1]), Membership::singleton(0)),
                (Tuple::ints(5, &[7, 6]), Membership::singleton(1)),
                (Tuple::ints(5, &[7, 16]), Membership::singleton(2)),
            ]
        );
        // The ring is as long as the widest window needs.
        assert_eq!(op.ring.len(), 3);
    }

    #[test]
    fn group_leaving_every_window_returns_fresh_with_a_recycled_id() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let ids: Vec<_> = [2, 5]
            .into_iter()
            .map(|w| {
                let def = OpDef::Aggregate(AggSpec {
                    func: AggFunc::Sum,
                    input: Expr::col(1),
                    group_by: vec![0],
                    window: w,
                });
                p.add_op(def, vec![s]).unwrap().0
            })
            .collect();
        let merged = p.merge_mops(&ids, MopKind::SharedAggregate).unwrap();
        let ctx = MopContext::build(&p, merged).unwrap();
        let mut op = SharedAggregate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        let mut push = |op: &mut SharedAggregate, ts, group, v| {
            let t = Tuple::new(ts, vec![Value::Int(group), v]);
            op.process(PortId::LEFT, &ChannelTuple::solo(t), &mut sink);
            sink.out.last().unwrap().1.clone()
        };
        // Group 7 carries a float, then leaves both windows while group 8
        // arrives; group 7's id is released with the last ring entry.
        push(&mut op, 0, 7, Value::Float(0.1));
        push(&mut op, 20, 8, Value::Int(1));
        assert_eq!(op.group_bys[0].free, vec![0]);
        assert_eq!(op.state_size(), 1 + 1, "one ring entry, one live group");
        // Group 7 returns: the freed id is reused and its state is fresh —
        // an integer sum, not a float one left over from 0.1.
        let row = push(&mut op, 21, 7, Value::Int(3));
        assert_eq!(row, Tuple::ints(21, &[7, 3]));
        assert!(op.group_bys[0].free.is_empty());
        assert_eq!(op.group_bys[0].keys.len(), 2, "id recycled, not grown");
        assert_eq!(op.group_bys[0].ids[&vec![ValueKey::Int(7)]], 0);
    }

    fn fragment_setup(n: usize) -> (PlanGraph, MopContext) {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(3), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        let mut ups = Vec::new();
        let mut outs = Vec::new();
        for i in 0..n {
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
        let aggs: Vec<_> = outs
            .iter()
            .map(|&o| {
                p.add_op(OpDef::Aggregate(spec(AggFunc::Sum, vec![], 10)), vec![o])
                    .unwrap()
                    .0
            })
            .collect();
        p.encode_channel(&outs).unwrap();
        let merged = p.merge_mops(&aggs, MopKind::FragmentAggregate).unwrap();
        let down_outs: Vec<_> = p.mop(merged).output_streams().collect();
        p.encode_channel(&down_outs).unwrap();
        let ctx = MopContext::build(&p, merged).unwrap();
        (p, ctx)
    }

    #[test]
    fn fragment_aggregate_shares_common_tuples() {
        let (_, ctx) = fragment_setup(3);
        let mut op = FragmentAggregate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        // Tuple belongs to all three streams: one fragment, one emission.
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(0, &[0, 10, 0]), Membership::all(3)),
            &mut sink,
        );
        assert_eq!(op.fragment_count(), 1);
        assert_eq!(sink.out.len(), 1, "equal results grouped");
        assert_eq!(sink.out[0].2, Membership::all(3));
        assert_eq!(sink.out[0].1.value(0), Some(&Value::Int(10)));

        // Tuple belonging only to stream 1: results now diverge.
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(1, &[0, 5, 0]), Membership::singleton(1)),
            &mut sink,
        );
        assert_eq!(op.fragment_count(), 2);
        // Member 1 sees 15, but members 0 and 2 did not receive this tuple,
        // so only member 1 emits.
        assert_eq!(sink.out.len(), 2);
        assert_eq!(sink.out[1].1.value(0), Some(&Value::Int(15)));
        assert_eq!(sink.out[1].2, Membership::singleton(1));

        // A third tuple on all streams: member 1 = 10+5+10 = 25,
        // members 0/2 = 10+10 = 20.
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(2, &[0, 10, 0]), Membership::all(3)),
            &mut sink,
        );
        let last_two = &sink.out[2..];
        assert_eq!(last_two.len(), 2);
        let m1 = last_two
            .iter()
            .find(|(_, _, m)| *m == Membership::singleton(1))
            .unwrap();
        assert_eq!(m1.1.value(0), Some(&Value::Int(25)));
        let m02 = last_two
            .iter()
            .find(|(_, _, m)| *m == Membership::from_indices([0, 2]))
            .unwrap();
        assert_eq!(m02.1.value(0), Some(&Value::Int(20)));
    }

    #[test]
    fn fragment_aggregate_eviction() {
        let (_, ctx) = fragment_setup(2);
        let mut op = FragmentAggregate::new(&ctx).unwrap();
        let mut sink = VecEmit::default();
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(0, &[0, 10, 0]), Membership::all(2)),
            &mut sink,
        );
        // Window is 10; at ts=20 the first tuple is gone.
        op.process(
            PortId::LEFT,
            &ChannelTuple::new(Tuple::ints(20, &[0, 1, 0]), Membership::all(2)),
            &mut sink,
        );
        assert_eq!(op.fragment_count(), 1);
        assert_eq!(sink.out[1].1.value(0), Some(&Value::Int(1)));
    }
}
