//! The push-based executor.
//!
//! The engine mirrors the paper's prototype: a single-threaded, push-based
//! interpreter that feeds externally-arriving tuples (in global timestamp
//! order) through the optimized m-op DAG. M-ops are "the basic scheduling
//! and execution units in the engine" (§2.1); routing between them is by
//! channel.

use std::collections::HashMap;

use rumor_core::{ChannelTuple, Emit, MopContext, MultiOp, PartitionKeys, PlanGraph};
use rumor_ops::instantiate;
use rumor_types::{
    ChannelId, Membership, MopId, PortId, QueryId, Result, RumorError, SourceId, Tuple,
};

use crate::stats::{ExecStatsReport, OpCounters, OpStats};

/// Receives query results during execution, as they are produced.
///
/// A sink sees every result exactly once, in production order. A
/// [`crate::Session`] passes its own per-query router as the sink of its
/// single-threaded engine, so results are routed to subscriptions and the
/// catch-all right at the tap, with no intermediate buffer.
pub trait QuerySink {
    /// Called once per (query, result tuple).
    fn on_result(&mut self, query: QueryId, tuple: &Tuple);

    /// One result tuple for each of `queries`, in order — how the executor
    /// delivers a query tap: one call per channel tuple and tap position
    /// instead of one dynamic call per query. Defaults to
    /// [`QuerySink::on_result`] per query, statically dispatched.
    fn on_results(&mut self, queries: &[QueryId], tuple: &Tuple) {
        for &q in queries {
            self.on_result(q, tuple);
        }
    }

    /// Whether the sink needs the per-query [`QuerySink::on_result`] calls.
    /// Counting sinks return `false` and receive [`QuerySink::on_batch`]
    /// instead, letting the engine deliver one *channel tuple* shared by
    /// many queries in O(1) — the channel delivery granularity the paper's
    /// throughput numbers assume (one output event per channel tuple, not
    /// one per query).
    fn wants_tuples(&self) -> bool {
        true
    }

    /// Batch notification: `n` query results materialized by one channel
    /// tuple. Only called when [`QuerySink::wants_tuples`] is `false`.
    fn on_batch(&mut self, n: u64, _tuple: &Tuple) {
        let _ = n;
    }
}

/// Discards results (throughput measurements).
#[derive(Debug, Default)]
pub struct DiscardSink;

impl QuerySink for DiscardSink {
    fn on_result(&mut self, _query: QueryId, _tuple: &Tuple) {}

    fn wants_tuples(&self) -> bool {
        false
    }
}

/// Counts results per query.
///
/// Query ids are dense plan indices, so the per-query counters live in a
/// plain `Vec` indexed by [`QueryId`] — this sink sits on the result hot
/// path of every throughput run, and the previous `HashMap` paid a hash
/// per result.
#[derive(Debug, Default)]
pub struct CountingSink {
    counts: Vec<u64>,
    /// Total results across queries.
    pub total: u64,
}

impl CountingSink {
    /// Result count for one query.
    pub fn count(&self, query: QueryId) -> u64 {
        self.counts.get(query.index()).copied().unwrap_or(0)
    }
}

impl QuerySink for CountingSink {
    fn on_result(&mut self, query: QueryId, _tuple: &Tuple) {
        let i = query.index();
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    fn wants_tuples(&self) -> bool {
        false
    }

    fn on_batch(&mut self, n: u64, _tuple: &Tuple) {
        self.total += n;
    }
}

/// Collects `(query, tuple)` pairs — integration tests compare these.
#[derive(Debug, Default)]
pub struct CollectingSink {
    /// Results in arrival order.
    pub results: Vec<(QueryId, Tuple)>,
}

impl CollectingSink {
    /// The results of one query, in order.
    pub fn of(&self, query: QueryId) -> Vec<&Tuple> {
        self.results
            .iter()
            .filter(|(q, _)| *q == query)
            .map(|(_, t)| t)
            .collect()
    }

    /// Folds another collecting sink into this one, re-establishing a
    /// deterministic global order (by timestamp, then query id — the order
    /// is independent of how results were distributed across sharded
    /// workers; the sort is stable, so same-key results keep their
    /// per-worker arrival order, worker 0 first). The worker pool folds
    /// every worker's sink into an empty one this way, so even a single
    /// worker's output leaves in this order. Repeated folds stay cheap:
    /// the stable sort is adaptive, and after the first fold each call
    /// merges two already-sorted runs in near-linear time.
    pub fn merge(&mut self, other: CollectingSink) {
        self.results.extend(other.results);
        self.results.sort_by_key(|(q, t)| (t.ts, *q));
    }
}

impl QuerySink for CollectingSink {
    fn on_result(&mut self, query: QueryId, tuple: &Tuple) {
        self.results.push((query, tuple.clone()));
    }
}

/// Source events per drain wave of [`ExecutablePlan::push_batch`] on a
/// stateless plan: large enough to amortize routing and dispatch over
/// long channel runs, small enough that a wave's level buffers stay in
/// cache. A plan with any stateful m-op drains one source event per wave.
const BATCH_CHUNK: usize = 1024;

/// A batch event as a staged source tuple.
fn solo((source, tuple): &(SourceId, Tuple)) -> (SourceId, ChannelTuple) {
    (*source, ChannelTuple::solo(tuple.clone()))
}

/// One side of the drain's double buffer: parallel channel/tuple vectors,
/// so a run of same-channel events forms a contiguous `&[ChannelTuple]`
/// slice for [`rumor_core::MultiOp::process_batch`].
#[derive(Debug, Default)]
struct EventBuf {
    chans: Vec<ChannelId>,
    tuples: Vec<ChannelTuple>,
}

impl EventBuf {
    fn push(&mut self, channel: ChannelId, tuple: ChannelTuple) {
        self.chans.push(channel);
        self.tuples.push(tuple);
    }

    fn clear(&mut self) {
        self.chans.clear();
        self.tuples.clear();
    }

    fn is_empty(&self) -> bool {
        self.chans.is_empty()
    }
}

/// Emit adapter appending into the *next* level's [`EventBuf`].
struct BufEmit<'a> {
    buf: &'a mut EventBuf,
}

impl Emit for BufEmit<'_> {
    fn emit(&mut self, channel: ChannelId, tuple: Tuple, membership: Membership) {
        self.buf.push(channel, ChannelTuple::new(tuple, membership));
    }
}

/// The compiled, executable form of a plan.
pub struct ExecutablePlan {
    ops: Vec<Box<dyn rumor_core::MultiOp>>,
    /// Parallel to `ops`: the plan node each op implements (diagnostics).
    op_ids: Vec<MopId>,
    /// Parallel to `ops`: each op's resolved compile context. Hot swap
    /// ([`ExecutablePlan::apply_delta`]) carries an instance — and its
    /// state — across a plan change exactly when the rebuilt context
    /// compares equal to this one.
    op_ctxs: Vec<MopContext>,
    /// Parallel to `ops`: per-op dispatch counters for the introspection
    /// layer (see [`crate::stats`]). Carried across hot swaps for
    /// surviving op ids, like `events_in`.
    op_counters: Vec<OpCounters>,
    /// channel index → (exec index, port) consumers, in topological order.
    consumers: Vec<Vec<(usize, PortId)>>,
    /// channel index → [(position, queries listening on that stream)].
    query_taps: Vec<Vec<(usize, Vec<QueryId>)>>,
    /// channel index → (positions-with-queries mask, queries per position if
    /// uniform) — the O(1) batch-delivery fast path for counting sinks.
    tap_masks: Vec<Option<(Membership, Option<u64>)>>,
    /// source index → its base stream's channel.
    source_channels: Vec<ChannelId>,
    /// Every compiled op is stateless (see
    /// [`rumor_core::MultiOp::is_stateless`]) — the one plan-shape fact
    /// the drain reads: a stateless plan drains [`BATCH_CHUNK`]-event
    /// waves in runs as long as the channel allows; any stateful op makes
    /// every wave one source event and every run one tuple.
    batch_safe: bool,
    /// Double buffers of the drain, reused across calls.
    cur: EventBuf,
    nxt: EventBuf,
    /// Total tuples pushed.
    pub events_in: u64,
}

impl ExecutablePlan {
    /// Compiles a plan: instantiates every m-op and builds routing tables.
    pub fn new(plan: &PlanGraph) -> Result<Self> {
        let order = plan.topo_order()?;
        let mut ops = Vec::with_capacity(order.len());
        let mut op_ctxs = Vec::with_capacity(order.len());
        for &id in &order {
            let ctx = MopContext::build(plan, id)?;
            ops.push(instantiate(&ctx)?);
            op_ctxs.push(ctx);
        }
        Ok(Self::assemble(plan, order, op_ctxs, ops))
    }

    /// Hot-swaps this compiled plan for `plan` without losing operator
    /// state: every m-op whose resolved context is unchanged keeps its
    /// existing instance — windows, sequence/iteration instance indexes,
    /// aggregate buckets and all — while added or rewired m-ops compile
    /// cold and retired ones are dropped. Routing tables and the dispatch
    /// choice are rebuilt from scratch for the new plan. `events_in`
    /// carries over.
    ///
    /// Call between pushes only (the engine fully drains every push
    /// entry point before returning, so there is never buffered work to
    /// lose). Compiled per-query results are unaffected for queries whose
    /// operator chain the [`rumor_core::PlanDelta`] does not touch. On
    /// error the engine is left exactly as it was (everything fallible
    /// runs before any state moves).
    pub fn apply_delta(&mut self, plan: &PlanGraph) -> Result<()> {
        debug_assert!(self.cur.is_empty());
        // Phase 1 — fallible, `self` untouched: resolve the new plan's
        // contexts and compile cold instances for every op that cannot
        // carry over.
        let order = plan.topo_order()?;
        let old_index: HashMap<MopId, usize> = self
            .op_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let mut op_ctxs = Vec::with_capacity(order.len());
        let mut cold: HashMap<MopId, Box<dyn MultiOp>> = HashMap::new();
        for &id in &order {
            let ctx = MopContext::build(plan, id)?;
            let reusable = old_index.get(&id).is_some_and(|&i| self.op_ctxs[i] == ctx);
            if !reusable {
                cold.insert(id, instantiate(&ctx)?);
            }
            op_ctxs.push(ctx);
        }
        // Phase 2 — infallible: move the reusable instances out of the
        // old engine and assemble the new one around them.
        let mut survivors: HashMap<MopId, Box<dyn MultiOp>> = self
            .op_ids
            .iter()
            .copied()
            .zip(std::mem::take(&mut self.ops))
            .collect();
        let ops: Vec<Box<dyn MultiOp>> = order
            .iter()
            .map(|id| match cold.remove(id) {
                Some(op) => op,
                None => survivors.remove(id).expect("reusable instance present"),
            })
            .collect();
        let mut fresh = Self::assemble(plan, order, op_ctxs, ops);
        fresh.events_in = self.events_in;
        // Stats counters are cumulative for the engine's life: surviving
        // ops keep theirs (cold-compiled replacements start at zero).
        for (i, id) in fresh.op_ids.iter().enumerate() {
            if let Some(&j) = old_index.get(id) {
                fresh.op_counters[i] = self.op_counters[j];
            }
        }
        *self = fresh;
        Ok(())
    }

    /// Builds the routing tables and dispatch choice around compiled
    /// operators (`ops`/`op_ctxs` parallel to the topological
    /// `order`). Infallible: callers finish all fallible work first so
    /// hot swaps cannot leave an engine half-built.
    fn assemble(
        plan: &PlanGraph,
        order: Vec<MopId>,
        op_ctxs: Vec<MopContext>,
        ops: Vec<Box<dyn MultiOp>>,
    ) -> Self {
        let exec_index: HashMap<MopId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();

        // Channel consumer lists: an m-op consumes channel `c` on port `p`
        // iff its node lists `c` at that port.
        let mut consumers: Vec<Vec<(usize, PortId)>> = vec![Vec::new(); plan.channel_slots()];
        for &id in &order {
            let node = plan.mop(id);
            for (p, &ch) in node.inputs.iter().enumerate() {
                consumers[ch.index()].push((exec_index[&id], PortId(p as u8)));
            }
        }
        for list in &mut consumers {
            list.sort_by_key(|&(idx, port)| (idx, port));
            list.dedup();
        }

        // Query taps: (channel, position) → queries.
        let mut query_taps: Vec<Vec<(usize, Vec<QueryId>)>> =
            vec![Vec::new(); plan.channel_slots()];
        for &(q, stream) in plan.query_outputs() {
            let ch = plan.channel_of(stream);
            let pos = plan.position_in_channel(stream);
            let taps = &mut query_taps[ch.index()];
            match taps.iter_mut().find(|(p, _)| *p == pos) {
                Some((_, qs)) => qs.push(q),
                None => taps.push((pos, vec![q])),
            }
        }

        let source_channels: Vec<ChannelId> = plan
            .sources()
            .iter()
            .map(|s| plan.channel_of(s.stream))
            .collect();

        let tap_masks = query_taps
            .iter()
            .map(|taps| {
                if taps.is_empty() {
                    return None;
                }
                let mask = Membership::from_indices(taps.iter().map(|(p, _)| *p));
                let first = taps[0].1.len() as u64;
                let uniform = taps
                    .iter()
                    .all(|(_, qs)| qs.len() as u64 == first)
                    .then_some(first);
                Some((mask, uniform))
            })
            .collect();

        let batch_safe = ops.iter().all(|op| op.is_stateless());

        ExecutablePlan {
            op_counters: vec![OpCounters::default(); ops.len()],
            ops,
            op_ids: order,
            op_ctxs,
            consumers,
            query_taps,
            tap_masks,
            source_channels,
            batch_safe,
            cur: EventBuf::default(),
            nxt: EventBuf::default(),
            events_in: 0,
        }
    }

    /// Number of compiled m-ops.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Names of the compiled implementations in topological order.
    pub fn op_names(&self) -> Vec<(MopId, &'static str)> {
        self.op_ids
            .iter()
            .zip(&self.ops)
            .map(|(&id, op)| (id, op.name()))
            .collect()
    }

    /// Pushes one channel tuple on a channel source (Workload 3's input
    /// shape): the membership says which of the source's streams the tuple
    /// belongs to.
    pub fn push_channel(
        &mut self,
        source: SourceId,
        tuple: Tuple,
        membership: Membership,
        sink: &mut dyn QuerySink,
    ) -> Result<()> {
        let staged = ChannelTuple::new(tuple, membership);
        self.run_chunk(std::iter::once((source, staged)), sink)
    }

    /// Pushes one source tuple through the plan, draining all downstream
    /// work before returning. Tuples must arrive in global timestamp order.
    pub fn push(&mut self, source: SourceId, tuple: Tuple, sink: &mut dyn QuerySink) -> Result<()> {
        self.run_chunk(std::iter::once((source, ChannelTuple::solo(tuple))), sink)
    }

    /// Whether the drain runs this plan in multi-event waves and
    /// multi-tuple runs (all compiled m-ops are stateless).
    pub fn is_batch_safe(&self) -> bool {
        self.batch_safe
    }

    /// Per-m-op partitioning key reports (see
    /// [`rumor_core::MultiOp::partition_keys`]), the physical input to
    /// [`rumor_core::partition::analyze`].
    pub fn partition_reports(&self) -> Vec<(MopId, PartitionKeys)> {
        self.op_ids
            .iter()
            .zip(&self.ops)
            .map(|(&id, op)| (id, op.partition_keys()))
            .collect()
    }

    /// A point-in-time introspection report for this executor: per-op
    /// dispatch counters (cumulative since construction, hot swaps
    /// included) plus sampled state-size gauges. Partition-parallel
    /// runtimes fold one report per worker with
    /// [`ExecStatsReport::absorb`].
    pub fn stats_report(&self) -> ExecStatsReport {
        let ops = self
            .op_ids
            .iter()
            .zip(&self.ops)
            .zip(&self.op_counters)
            .map(|((&mop, op), c)| OpStats {
                mop,
                name: op.name().to_string(),
                events_in: c.events_in,
                events_out: c.events_out,
                batch_calls: c.batch_calls,
                event_calls: c.event_calls,
                state_size: op.state_size() as u64,
                sampled_nanos: c.sampled_nanos,
                sampled_calls: c.sampled_calls,
                sampled_events: c.sampled_events,
            })
            .collect();
        ExecStatsReport { ops }
    }

    /// Pushes a timestamp-ordered slice of source events through the plan.
    ///
    /// Per-query results are identical to pushing the events one at a time
    /// with [`ExecutablePlan::push`]: both run the same drain, and only the
    /// plan's shape sets its granularity. On a fully stateless plan (see
    /// [`ExecutablePlan::is_batch_safe`]) a drain wave takes up to 1024
    /// events and consecutive same-channel events form one
    /// [`rumor_core::MultiOp::process_batch`] call per consumer, amortizing
    /// routing and dispatch over the run. A plan with any stateful m-op
    /// drains one event per wave and one tuple per call, in order, exactly
    /// as [`ExecutablePlan::push`] would.
    pub fn push_batch(
        &mut self,
        events: &[(SourceId, Tuple)],
        sink: &mut dyn QuerySink,
    ) -> Result<()> {
        for chunk in events.chunks(self.wave_len()) {
            self.run_chunk(chunk.iter().map(solo), sink)?;
        }
        Ok(())
    }

    /// [`ExecutablePlan::push_batch`] over a *selection* of `events`:
    /// processes `events[i]` for each `i` in `indices`, in order. This is
    /// the worker-side half of shared-batch delivery — partition-parallel
    /// runtimes ship one shared event slice plus a per-worker index list
    /// instead of materializing per-worker event runs, and each worker
    /// feeds its selection through the same dispatch as a contiguous
    /// batch.
    pub fn push_batch_indexed(
        &mut self,
        events: &[(SourceId, Tuple)],
        indices: &[u32],
        sink: &mut dyn QuerySink,
    ) -> Result<()> {
        for chunk in indices.chunks(self.wave_len()) {
            self.run_chunk(chunk.iter().map(|&i| solo(&events[i as usize])), sink)?;
        }
        Ok(())
    }

    /// Source events per drain wave. Stateless plans drain in bounded
    /// chunks so the level buffers stay cache-resident (one wave over a
    /// whole input would materialize every derived level in full);
    /// stateful plans take one event at a time.
    fn wave_len(&self) -> usize {
        if self.batch_safe {
            BATCH_CHUNK
        } else {
            1
        }
    }

    /// Stages one wave — what every push entry point hands over — and
    /// drains it. On an unknown source the valid prefix is fully processed
    /// (drained, counted) before the error, so no staged events leak into
    /// a later call.
    fn run_chunk<I>(&mut self, chunk: I, sink: &mut dyn QuerySink) -> Result<()>
    where
        I: Iterator<Item = (SourceId, ChannelTuple)>,
    {
        let mut staged = Ok(());
        for (source, tuple) in chunk {
            let Some(&channel) = self.source_channels.get(source.index()) else {
                staged = Err(RumorError::exec(format!("unknown source {source}")));
                break;
            };
            self.cur.push(channel, tuple);
            self.events_in += 1;
        }
        self.drain(sink);
        staged
    }

    /// The one drain: level order over the staged buffer. Each level is
    /// cut into *runs* — consecutive same-channel tuples, at most one
    /// tuple long unless the plan is stateless — and each run goes to the
    /// channel's query taps, then to every consumer in topological order,
    /// with all emissions collected into the next level; then the buffers
    /// swap. A FIFO queue visits events in exactly this level order, so
    /// with runs of one every m-op sees the per-event order a stateful
    /// m-op needs; longer runs only regroup same-channel work, which
    /// stateless consumers and query delivery cannot observe.
    fn drain(&mut self, sink: &mut dyn QuerySink) {
        let detailed = sink.wants_tuples();
        while !self.cur.is_empty() {
            // Split the borrow: the ops read `cur` while emitting into
            // `nxt` through the adapter.
            let cur = std::mem::take(&mut self.cur);
            let mut i = 0;
            while i < cur.chans.len() {
                let ch = cur.chans[i];
                let mut j = i + 1;
                if self.batch_safe {
                    while j < cur.chans.len() && cur.chans[j] == ch {
                        j += 1;
                    }
                }
                let run = &cur.tuples[i..j];
                self.deliver_taps(ch, run, detailed, sink);
                for k in 0..self.consumers[ch.index()].len() {
                    let (idx, port) = self.consumers[ch.index()][k];
                    self.dispatch(idx, port, run);
                }
                i = j;
            }
            // Recycle the consumed buffer's allocation, then promote the
            // freshly emitted level.
            self.cur = cur;
            self.cur.clear();
            std::mem::swap(&mut self.cur, &mut self.nxt);
        }
    }

    /// The one m-op dispatch site: feeds `run` to op `idx` on `port`,
    /// collecting its emissions into the next level, and keeps the op's
    /// counters. A run of one is a [`MultiOp::process`] call, a longer run
    /// one [`MultiOp::process_batch`] call.
    #[inline(always)]
    fn dispatch(&mut self, idx: usize, port: PortId, run: &[ChannelTuple]) {
        let before = self.nxt.chans.len();
        let t0 = self.op_counters[idx].sample_start();
        let mut emit = BufEmit { buf: &mut self.nxt };
        if let [ct] = run {
            self.ops[idx].process(port, ct, &mut emit);
            self.op_counters[idx].record_event((self.nxt.chans.len() - before) as u64);
        } else {
            self.ops[idx].process_batch(port, run, &mut emit);
            self.op_counters[idx]
                .record_batch(run.len() as u64, (self.nxt.chans.len() - before) as u64);
        }
        self.op_counters[idx].record_time(t0, run.len() as u64);
    }

    /// Query-tap delivery for one run, tuple by tuple.
    fn deliver_taps(
        &self,
        ch: ChannelId,
        run: &[ChannelTuple],
        detailed: bool,
        sink: &mut dyn QuerySink,
    ) {
        if detailed {
            let taps = &self.query_taps[ch.index()];
            if taps.is_empty() {
                return;
            }
            for ct in run {
                for (pos, queries) in taps {
                    if ct.belongs_to(*pos) {
                        sink.on_results(queries, &ct.tuple);
                    }
                }
            }
        } else if let Some((mask, uniform)) = &self.tap_masks[ch.index()] {
            for ct in run {
                let hits = ct.membership.intersect(mask);
                if !hits.is_empty() {
                    let n = match uniform {
                        Some(per_pos) => hits.len() as u64 * per_pos,
                        None => self.query_taps[ch.index()]
                            .iter()
                            .filter(|(p, _)| hits.contains(*p))
                            .map(|(_, qs)| qs.len() as u64)
                            .sum(),
                    };
                    sink.on_batch(n, &ct.tuple);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::{JoinSpec, LogicalPlan, MopKind, Optimizer, OptimizerConfig, SeqSpec};
    use rumor_expr::{CmpOp, Expr, Predicate};
    use rumor_types::Schema;

    fn feed_interleaved(
        exec: &mut ExecutablePlan,
        s: SourceId,
        t: SourceId,
        n: u64,
        sink: &mut impl QuerySink,
    ) {
        // S gets even timestamps, T odd — the paper's §5.1 interleaving.
        for ts in 0..n {
            let src = if ts % 2 == 0 { s } else { t };
            exec.push(src, Tuple::ints(ts, &[(ts % 5) as i64, ts as i64]), sink)
                .unwrap();
        }
    }

    #[test]
    fn selection_query_end_to_end() {
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(2), None).unwrap();
        let q = plan
            .add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 3i64)))
            .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CollectingSink::default();
        for ts in 0..10u64 {
            exec.push(s, Tuple::ints(ts, &[(ts % 5) as i64, 0]), &mut sink)
                .unwrap();
        }
        // a0 == 3 at ts 3 and 8.
        let got = sink.of(q);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].ts, 3);
        assert_eq!(got[1].ts, 8);
        assert_eq!(exec.events_in, 10);
    }

    #[test]
    fn optimized_and_naive_plans_agree() {
        // Two identical queries + one different; the optimized plan must
        // produce exactly the same per-query results.
        let build = || {
            let mut plan = PlanGraph::new();
            plan.add_source("S", Schema::ints(2), None).unwrap();
            plan.add_source("T", Schema::ints(2), None).unwrap();
            let mk = |c: i64| {
                LogicalPlan::source("S")
                    .select(Predicate::attr_eq_const(0, c))
                    .followed_by(
                        LogicalPlan::source("T"),
                        SeqSpec {
                            predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                            window: 6,
                        },
                    )
            };
            let qs: Vec<QueryId> = (0..3)
                .map(|i| plan.add_query(&mk(i % 2)).unwrap())
                .collect();
            (plan, qs)
        };

        let (naive_plan, qs) = build();
        let (mut opt_plan, qs2) = build();
        assert_eq!(qs, qs2);
        Optimizer::new(OptimizerConfig::default())
            .optimize(&mut opt_plan)
            .unwrap();
        assert!(opt_plan.mop_count() < naive_plan.mop_count());

        let run = |plan: &PlanGraph| {
            let mut exec = ExecutablePlan::new(plan).unwrap();
            let mut sink = CollectingSink::default();
            let s = plan.source_by_name("S").unwrap().id;
            let t = plan.source_by_name("T").unwrap().id;
            feed_interleaved(&mut exec, s, t, 60, &mut sink);
            let mut per_query: Vec<Vec<String>> = Vec::new();
            for &q in &qs {
                let mut v: Vec<String> = sink.of(q).iter().map(|t| t.to_string()).collect();
                v.sort();
                per_query.push(v);
            }
            per_query
        };
        assert_eq!(run(&naive_plan), run(&opt_plan));
    }

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::default();
        sink.on_result(QueryId(0), &Tuple::ints(0, &[1]));
        sink.on_result(QueryId(0), &Tuple::ints(1, &[1]));
        sink.on_result(QueryId(1), &Tuple::ints(1, &[1]));
        assert_eq!(sink.count(QueryId(0)), 2);
        assert_eq!(sink.count(QueryId(1)), 1);
        assert_eq!(sink.count(QueryId(9)), 0);
        assert_eq!(sink.total, 3);
    }

    #[test]
    fn push_batch_matches_push_on_stateless_plan() {
        // Shared selections: stateless, so multi-tuple runs engage.
        let build = || {
            let mut plan = PlanGraph::new();
            plan.add_source("S", Schema::ints(2), None).unwrap();
            let qs: Vec<QueryId> = (0..6)
                .map(|c| {
                    plan.add_query(
                        &LogicalPlan::source("S").select(Predicate::attr_eq_const(0, c % 4)),
                    )
                    .unwrap()
                })
                .collect();
            Optimizer::new(OptimizerConfig::default())
                .optimize(&mut plan)
                .unwrap();
            (plan, qs)
        };
        let (plan, qs) = build();
        let s = plan.source_by_name("S").unwrap().id;
        let events: Vec<(SourceId, Tuple)> = (0..200u64)
            .map(|ts| (s, Tuple::ints(ts, &[(ts % 7) as i64, ts as i64])))
            .collect();

        let mut exec_a = ExecutablePlan::new(&plan).unwrap();
        assert!(exec_a.is_batch_safe());
        let mut a = CollectingSink::default();
        for (src, t) in &events {
            exec_a.push(*src, t.clone(), &mut a).unwrap();
        }

        let mut exec_b = ExecutablePlan::new(&plan).unwrap();
        let mut b = CollectingSink::default();
        exec_b.push_batch(&events, &mut b).unwrap();

        assert_eq!(exec_a.events_in, exec_b.events_in);
        for &q in &qs {
            assert_eq!(a.of(q), b.of(q), "query {q} diverged under push_batch");
        }

        // Counting delivery agrees too.
        let mut exec_c = ExecutablePlan::new(&plan).unwrap();
        let mut c = CountingSink::default();
        exec_c.push_batch(&events, &mut c).unwrap();
        assert_eq!(c.total, a.results.len() as u64);
    }

    #[test]
    fn push_batch_falls_back_on_stateful_plan() {
        // A sequence query makes the plan stateful: push_batch must take
        // the strict per-event path and still match push exactly.
        let build = || {
            let mut plan = PlanGraph::new();
            plan.add_source("S", Schema::ints(2), None).unwrap();
            plan.add_source("T", Schema::ints(2), None).unwrap();
            let q = plan
                .add_query(
                    &LogicalPlan::source("S")
                        .select(Predicate::attr_eq_const(0, 1i64))
                        .followed_by(
                            LogicalPlan::source("T"),
                            SeqSpec {
                                predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                                window: 8,
                            },
                        ),
                )
                .unwrap();
            Optimizer::new(OptimizerConfig::default())
                .optimize(&mut plan)
                .unwrap();
            (plan, q)
        };
        let (plan, q) = build();
        let s = plan.source_by_name("S").unwrap().id;
        let t = plan.source_by_name("T").unwrap().id;
        let events: Vec<(SourceId, Tuple)> = (0..120u64)
            .map(|ts| {
                let src = if ts % 2 == 0 { s } else { t };
                (
                    src,
                    Tuple::ints(ts, &[(ts % 3) as i64, ((ts / 2) % 4) as i64]),
                )
            })
            .collect();

        let mut exec_a = ExecutablePlan::new(&plan).unwrap();
        assert!(!exec_a.is_batch_safe());
        let mut a = CollectingSink::default();
        for (src, tu) in &events {
            exec_a.push(*src, tu.clone(), &mut a).unwrap();
        }
        let mut exec_b = ExecutablePlan::new(&plan).unwrap();
        let mut b = CollectingSink::default();
        exec_b.push_batch(&events, &mut b).unwrap();
        assert!(!a.of(q).is_empty(), "workload must produce matches");
        assert_eq!(a.of(q), b.of(q));
    }

    #[test]
    fn push_batch_with_equal_timestamps_matches_push() {
        // Tied timestamps across sources: push_batch must still match push
        // exactly, including per-query result order.
        let build = || {
            let mut plan = PlanGraph::new();
            plan.add_source("S", Schema::ints(2), None).unwrap();
            plan.add_source("T", Schema::ints(2), None).unwrap();
            let q = plan
                .add_query(
                    &LogicalPlan::source("S")
                        .select(Predicate::attr_eq_const(0, 1i64))
                        .followed_by(
                            LogicalPlan::source("T"),
                            SeqSpec {
                                predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                                window: 9,
                            },
                        ),
                )
                .unwrap();
            Optimizer::new(OptimizerConfig::default())
                .optimize(&mut plan)
                .unwrap();
            (plan, q)
        };
        let (plan, q) = build();
        let s = plan.source_by_name("S").unwrap().id;
        let t = plan.source_by_name("T").unwrap().id;
        // Every timestamp occurs twice (once per source): all-tied input.
        let events: Vec<(SourceId, Tuple)> = (0..160u64)
            .map(|i| {
                let src = if i % 2 == 0 { s } else { t };
                (
                    src,
                    Tuple::ints(i / 2, &[(i % 3) as i64, ((i / 2) % 4) as i64]),
                )
            })
            .collect();

        let mut exec_a = ExecutablePlan::new(&plan).unwrap();
        let mut a = CollectingSink::default();
        for (src, tu) in &events {
            exec_a.push(*src, tu.clone(), &mut a).unwrap();
        }
        let mut exec_b = ExecutablePlan::new(&plan).unwrap();
        let mut b = CollectingSink::default();
        exec_b.push_batch(&events, &mut b).unwrap();
        assert!(!a.of(q).is_empty(), "workload must produce matches");
        assert_eq!(a.of(q), b.of(q));
        assert_eq!(exec_a.events_in, exec_b.events_in);
    }

    #[test]
    fn stateful_plans_dispatch_runs_of_one() {
        // One T arrival joins three buffered S tuples, so a single source
        // event puts three tuples j1..j3 on the inner join's channel. Two
        // selections consume that channel and feed the two ports of an
        // outer join: y on the right port (first in topological order),
        // x on the left. Per-event order hands the outer join y1, x1, y2,
        // x2, y3, x3; runs of three would hand it y1, y2, y3, x1, x2, x3
        // and reorder its output. So a stateful plan cuts every run at
        // one tuple, under `push` and `push_batch` alike.
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(2), None).unwrap();
        let t = plan.add_source("T", Schema::ints(2), None).unwrap();
        let inner = || {
            LogicalPlan::source("S").join(
                LogicalPlan::source("T"),
                JoinSpec {
                    predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                    window: 100,
                },
            )
        };
        let outer = JoinSpec {
            predicate: Predicate::True,
            window: 100,
        };
        let q = plan
            .add_query(
                &inner()
                    .select(Predicate::True)
                    .join(inner().select(Predicate::True), outer),
            )
            .unwrap();
        // The query built the inner join twice; merging the copies (CSE)
        // leaves one join whose channel both selections consume.
        let sources = [plan.source(s).stream, plan.source(t).stream];
        let copies: Vec<MopId> = plan
            .mops()
            .filter(|n| n.members[0].inputs == sources)
            .map(|n| n.id)
            .collect();
        let join = plan.merge_mops(&copies, MopKind::Naive).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.consumers_of(plan.mop(join).members[0].output).len(), 2);

        let events: Vec<(SourceId, Tuple)> = vec![
            (s, Tuple::ints(0, &[7, 1])),
            (s, Tuple::ints(1, &[7, 2])),
            (s, Tuple::ints(2, &[7, 3])),
            (t, Tuple::ints(3, &[7, 0])),
        ];
        // The per-event expectation: each outer-join arrival pairs with
        // every earlier arrival on the other port, oldest first. Pairs are
        // (x, y) by the S tuple each selection output carries.
        let want: Vec<Tuple> = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3)]
            .into_iter()
            .chain([(3, 1), (3, 2), (3, 3)])
            .map(|(x, y)| Tuple::ints(3, &[7, x, 7, 0, 7, y, 7, 0]))
            .collect();

        let mut exec = ExecutablePlan::new(&plan).unwrap();
        assert!(!exec.is_batch_safe());
        let mut pushed = CollectingSink::default();
        for (src, tu) in &events {
            exec.push(*src, tu.clone(), &mut pushed).unwrap();
        }
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut batched = CollectingSink::default();
        exec.push_batch(&events, &mut batched).unwrap();
        assert_eq!(pushed.of(q), want.iter().collect::<Vec<_>>(), "push");
        assert_eq!(batched.of(q), want.iter().collect::<Vec<_>>(), "push_batch");
    }

    #[test]
    fn apply_delta_preserves_untouched_stateful_state() {
        // A windowed sequence query must keep matching across an
        // unrelated add and remove: its compiled operator instance (and
        // the AI-index state inside it) survives both hot swaps.
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(2), None).unwrap();
        let t = plan.add_source("T", Schema::ints(2), None).unwrap();
        let seq_query = LogicalPlan::source("S")
            .select(Predicate::attr_eq_const(0, 1i64))
            .followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                    window: 40,
                },
            );
        let q_seq = plan.add_query(&seq_query).unwrap();
        let q_sel = plan
            .add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 2i64)))
            .unwrap();
        let optimizer = Optimizer::new(OptimizerConfig::default());
        optimizer.optimize(&mut plan).unwrap();
        let original = plan.clone();

        let events: Vec<(SourceId, Tuple)> = (0..150u64)
            .map(|ts| {
                let src = if ts % 2 == 0 { s } else { t };
                (
                    src,
                    Tuple::ints(ts, &[(ts % 3) as i64, ((ts / 2) % 4) as i64]),
                )
            })
            .collect();

        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut live = CollectingSink::default();
        for (src, tu) in &events[..50] {
            exec.push(*src, tu.clone(), &mut live).unwrap();
        }
        // Unrelated add: a new selection integrates into the live plan.
        let added = optimizer
            .integrate(
                &mut plan,
                &LogicalPlan::source("S").select(Predicate::attr_eq_const(1, 3i64)),
            )
            .unwrap();
        exec.apply_delta(&plan).unwrap();
        for (src, tu) in &events[50..100] {
            exec.push(*src, tu.clone(), &mut live).unwrap();
        }
        // ...and unrelated remove.
        plan.remove_query(added.query).unwrap();
        exec.apply_delta(&plan).unwrap();
        for (src, tu) in &events[100..] {
            exec.push(*src, tu.clone(), &mut live).unwrap();
        }

        // Oracle: the original plan fed the whole history in one life.
        let mut oracle_exec = ExecutablePlan::new(&original).unwrap();
        let mut oracle = CollectingSink::default();
        for (src, tu) in &events {
            oracle_exec.push(*src, tu.clone(), &mut oracle).unwrap();
        }
        assert!(!oracle.of(q_seq).is_empty(), "sequence must match");
        // The sequence query's results span both swap boundaries: pairs
        // whose S-instance arrived before a swap and whose T-event arrived
        // after it only exist if the operator state survived.
        assert!(
            oracle
                .of(q_seq)
                .iter()
                .any(|tu| (50..100).contains(&tu.ts) || tu.ts >= 100),
            "window must span the swaps for the test to mean anything"
        );
        assert_eq!(live.of(q_seq), oracle.of(q_seq));
        assert_eq!(live.of(q_sel), oracle.of(q_sel));
        // The added query saw exactly its lifetime's events.
        let added_results: Vec<&Tuple> = live.of(added.query);
        assert!(added_results.iter().all(|tu| tu.ts >= 50 && tu.ts < 100));
        assert!(!added_results.is_empty());
    }

    #[test]
    fn unknown_source_rejected() {
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(1), None).unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = DiscardSink;
        assert!(exec
            .push(SourceId(9), Tuple::ints(0, &[1]), &mut sink)
            .is_err());
    }

    #[test]
    fn push_batch_unknown_source_processes_valid_prefix_and_leaks_nothing() {
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(1), None).unwrap();
        let q = plan
            .add_query(&LogicalPlan::source("S").select(Predicate::True))
            .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        assert!(exec.is_batch_safe());
        let mut sink = CollectingSink::default();
        let events = vec![
            (s, Tuple::ints(0, &[1])),
            (SourceId(9), Tuple::ints(1, &[2])),
            (s, Tuple::ints(2, &[3])),
        ];
        assert!(exec.push_batch(&events, &mut sink).is_err());
        // The valid prefix was fully processed (matching `push` semantics)...
        assert_eq!(sink.of(q).len(), 1);
        assert_eq!(exec.events_in, 1);
        // ...and nothing from the failed call leaks into the next one.
        let mut sink2 = CollectingSink::default();
        exec.push_batch(&[(s, Tuple::ints(3, &[4]))], &mut sink2)
            .unwrap();
        assert_eq!(sink2.of(q).len(), 1);
        assert_eq!(sink2.of(q)[0].ts, 3);
        assert_eq!(exec.events_in, 2);
    }

    #[test]
    fn stats_report_tracks_per_event_dispatch() {
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(1), None).unwrap();
        plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 0i64)))
            .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CountingSink::default();
        for ts in 0..10u64 {
            exec.push(s, Tuple::ints(ts, &[(ts % 2) as i64]), &mut sink)
                .unwrap();
        }
        let report = exec.stats_report();
        assert_eq!(report.ops.len(), 1);
        if crate::stats::STATS_COMPILED {
            let op = &report.ops[0];
            assert_eq!(op.events_in, 10);
            assert_eq!(op.event_calls, 10);
            assert_eq!(op.events_out, 5, "half the tuples pass a0 = 0");
            assert_eq!(op.batch_calls, 0);
            assert!((op.selectivity() - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_report_tracks_batched_dispatch_and_state() {
        // Run length is a static function of plan shape: a stateful plan
        // runs one tuple per call even under push_batch (and keeps state
        // the report samples); a stateless plan drains whole channel runs.
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(2), None).unwrap();
        let t = plan.add_source("T", Schema::ints(2), None).unwrap();
        plan.add_query(&LogicalPlan::source("S").followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                window: 100,
            },
        ))
        .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CountingSink::default();
        let events: Vec<(SourceId, Tuple)> = (0..20u64)
            .map(|ts| {
                let src = if ts % 2 == 0 { s } else { t };
                (src, Tuple::ints(ts, &[(ts % 3) as i64, ts as i64]))
            })
            .collect();
        exec.push_batch(&events, &mut sink).unwrap();
        let stateful = exec.stats_report();

        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(2), None).unwrap();
        plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)))
            .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let events: Vec<(SourceId, Tuple)> = (0..20u64)
            .map(|ts| (s, Tuple::ints(ts, &[(ts % 3) as i64, ts as i64])))
            .collect();
        exec.push_batch(&events, &mut sink).unwrap();
        let stateless = exec.stats_report();

        if crate::stats::STATS_COMPILED {
            let calls = |r: &ExecStatsReport| -> (u64, u64) {
                r.ops
                    .iter()
                    .fold((0, 0), |(b, e), o| (b + o.batch_calls, e + o.event_calls))
            };
            let (batch, event) = calls(&stateful);
            assert_eq!(batch, 0, "stateful plans only run single tuples");
            assert!(event > 0);
            let seq = stateful
                .ops
                .iter()
                .find(|o| o.state_size > 0)
                .expect("the sequence op holds live instances");
            assert_eq!(seq.events_in, 20);
            let (batch, event) = calls(&stateless);
            assert!(batch > 0);
            assert_eq!(event, 0, "one source channel: a single 20-tuple run");
        }
    }

    #[test]
    fn stats_counters_survive_hot_swap() {
        let mut plan = PlanGraph::new();
        let s = plan.add_source("S", Schema::ints(1), None).unwrap();
        plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 0i64)))
            .unwrap();
        let mut exec = ExecutablePlan::new(&plan).unwrap();
        let mut sink = CountingSink::default();
        for ts in 0..6u64 {
            exec.push(s, Tuple::ints(ts, &[0i64]), &mut sink).unwrap();
        }
        let before = exec.stats_report();
        // Add a second query: the surviving select keeps its counters.
        plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)))
            .unwrap();
        exec.apply_delta(&plan).unwrap();
        let after = exec.stats_report();
        if crate::stats::STATS_COMPILED {
            let surviving = after
                .ops
                .iter()
                .find(|o| o.mop == before.ops[0].mop)
                .expect("original op survives the swap");
            assert_eq!(surviving.events_in, before.ops[0].events_in);
        }
        assert_eq!(exec.events_in, 6);
    }
}
