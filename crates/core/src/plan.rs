//! The physical query plan: a DAG of m-ops connected by channels.
//!
//! In RUMOR a *single* query plan implements all currently active logical
//! queries (§2.1). Nodes are physical multi-operators (m-ops, §2.2); edges
//! are channels (§3.1), which generalize streams. Streams remain the unit of
//! query semantics — every *member* operator of an m-op reads streams and
//! produces exactly one output stream — while channels are the physical
//! transport: each stream belongs to exactly one channel, and an m-op port
//! reads exactly one channel.

use std::collections::HashMap;

use rumor_types::{ChannelId, MopId, QueryId, Result, RumorError, Schema, SourceId, StreamId};

use crate::logical::{LogicalPlan, OpDef};
use crate::mop::MopContext;

/// How an m-op is implemented — chosen by the rewrite rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MopKind {
    /// Reference implementation: execute each member operator one by one
    /// (the semantics-defining implementation of §2.2).
    Naive,
    /// Predicate-indexed shared selection (rule sσ) \[10, 16\].
    IndexedSelect,
    /// Shared projection evaluation (same input stream).
    SharedProject,
    /// Shared aggregate evaluation (rule sα) \[22\].
    SharedAggregate,
    /// Shared window-join evaluation (rule s⋈) \[12\].
    SharedJoin,
    /// Shared sequence evaluation with AI instance index (rule s;).
    SharedSequence,
    /// Shared iteration evaluation (rule sµ).
    SharedIterate,
    /// Channel-based shared selection (rule cσ).
    ChannelSelect,
    /// Channel-based shared projection (rule cπ; the π example of §3.1).
    ChannelProject,
    /// Shared fragment aggregation over a channel (rule cα) \[15\].
    FragmentAggregate,
    /// Precision-sharing join over a channel (rule c⋈) \[14\].
    PrecisionJoin,
    /// Channel-based shared sequence (rule c;, §4.4).
    ChannelSequence,
    /// Channel-based shared iteration (rule cµ, §4.4).
    ChannelIterate,
}

/// What produces a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Producer {
    /// An external source feeds this base stream.
    Source(SourceId),
    /// The member `member` of m-op `mop` produces this stream.
    Mop {
        /// Producing m-op.
        mop: MopId,
        /// Member index within the m-op.
        member: usize,
    },
}

/// A registered external source.
#[derive(Debug, Clone)]
pub struct SourceDef {
    /// Source id.
    pub id: SourceId,
    /// Source name (unique).
    pub name: String,
    /// Schema of the base stream(s).
    pub schema: Schema,
    /// Sharable label (§3.2 base case 2): two sources with the same label
    /// produce sharable streams. Defaults to the source name, making a
    /// stream trivially sharable with itself (base case 1).
    pub sharable_label: String,
    /// The base stream carrying this source's tuples (the first stream for
    /// group sources).
    pub stream: StreamId,
    /// All base streams. Plain sources have one; *channel sources* (group
    /// sources) expose several streams pre-encoded into one channel — the
    /// externally-fed channel of Workload 3 (§5.2).
    pub streams: Vec<StreamId>,
}

/// A stream in the plan.
#[derive(Debug, Clone)]
pub struct StreamDef {
    /// Stream id.
    pub id: StreamId,
    /// Schema.
    pub schema: Schema,
    /// Producer (source or m-op member).
    pub producer: Producer,
}

/// A channel: an ordered set of encoded streams (§3.1). Position within
/// `streams` is the membership bit position.
#[derive(Debug, Clone)]
pub struct ChannelDef {
    /// Channel id.
    pub id: ChannelId,
    /// Encoded streams in membership order.
    pub streams: Vec<StreamId>,
}

impl ChannelDef {
    /// Channel capacity — the number of encoded streams (§5.2 Workload 3).
    pub fn capacity(&self) -> usize {
        self.streams.len()
    }

    /// Position of a stream within this channel.
    pub fn position_of(&self, stream: StreamId) -> Option<usize> {
        self.streams.iter().position(|&s| s == stream)
    }
}

/// One member operator implemented by an m-op.
#[derive(Debug, Clone)]
pub struct Member {
    /// The operator definition.
    pub def: OpDef,
    /// Input streams, one per port.
    pub inputs: Vec<StreamId>,
    /// The member's output stream.
    pub output: StreamId,
}

/// An m-op node of the plan graph.
#[derive(Debug, Clone)]
pub struct MopNode {
    /// Node id.
    pub id: MopId,
    /// Implementation kind.
    pub kind: MopKind,
    /// The set of operators this m-op implements (§2.2).
    pub members: Vec<Member>,
    /// Input channels, one per port. Invariant: for every member `m` and
    /// port `p`, `m.inputs[p]` is encoded by channel `inputs[p]`.
    pub inputs: Vec<ChannelId>,
}

impl MopNode {
    /// The operator arity (all members of an m-op share it).
    pub fn arity(&self) -> usize {
        self.inputs.len()
    }

    /// Output streams of all members, in member order.
    pub fn output_streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.members.iter().map(|m| m.output)
    }
}

/// The structural difference between two states of a plan, at m-op
/// granularity — what an incremental optimization
/// ([`crate::rules::Optimizer::integrate`]) or a query retirement
/// ([`PlanGraph::remove_query`]) actually changed.
///
/// Engines consume this (via
/// `rumor_engine::ExecutablePlan::apply_delta`) to hot-swap a compiled
/// plan: `removed` ops are dropped, `added` ops compile cold, `rewired`
/// ops — live on both sides but with a different resolved
/// [`MopContext`] — are recompiled cold, and every m-op in none of the
/// three lists keeps its existing instance *and its accumulated state*.
#[derive(Debug, Clone, Default)]
pub struct PlanDelta {
    /// m-ops live after the change but not before, ascending.
    pub added: Vec<MopId>,
    /// m-ops live before the change but retired by it, ascending.
    pub removed: Vec<MopId>,
    /// m-ops live on both sides whose resolved execution context changed
    /// (members, kinds, channel encodings, or positions), ascending.
    pub rewired: Vec<MopId>,
    /// Sources whose *direct query taps* changed, ascending. A bare
    /// source tap (`LogicalPlan::Source` as a whole query) adds or
    /// removes no m-ops, so the three lists above can all be empty while
    /// the plan still changed: the swapped-in runtime delivers that
    /// source's tuples to a different set of queries. Taps never change a
    /// source's route ([`crate::partition::reanalyze`] ignores them).
    pub retapped: Vec<SourceId>,
}

impl PlanDelta {
    /// Whether the change left every live m-op's compiled form — and
    /// every source's direct-tap set — intact.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.rewired.is_empty()
            && self.retapped.is_empty()
    }

    /// Total number of touched m-ops plus retapped sources (so
    /// `len() == 0` exactly when [`PlanDelta::is_empty`]).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len() + self.rewired.len() + self.retapped.len()
    }

    /// Whether the delta touches the given m-op.
    pub fn touches(&self, id: MopId) -> bool {
        self.added.contains(&id) || self.removed.contains(&id) || self.rewired.contains(&id)
    }
}

/// A snapshot of every live m-op's resolved execution context (plus the
/// query-tap set), taken before a plan mutation so the mutation can
/// report a [`PlanDelta`].
#[derive(Debug, Clone)]
pub struct PlanSnapshot {
    ctxs: HashMap<MopId, MopContext>,
    taps: Vec<(QueryId, StreamId)>,
}

impl PlanSnapshot {
    /// Whether the snapshot contains the m-op.
    pub fn contains(&self, id: MopId) -> bool {
        self.ctxs.contains_key(&id)
    }

    /// The delta from this snapshot to the plan's current state.
    pub fn delta(&self, plan: &PlanGraph) -> PlanDelta {
        let mut delta = PlanDelta::default();
        for node in plan.mops() {
            match self.ctxs.get(&node.id) {
                None => delta.added.push(node.id),
                Some(old) => {
                    let now = MopContext::build(plan, node.id).expect("live m-op");
                    if *old != now {
                        delta.rewired.push(node.id);
                    }
                }
            }
        }
        for &id in self.ctxs.keys() {
            if plan.mop_opt(id).is_none() {
                delta.removed.push(id);
            }
        }
        // Direct source taps that appeared or disappeared (stream defs
        // are never deleted, so producers of old taps still resolve).
        for &(_, s) in self
            .taps
            .iter()
            .filter(|t| !plan.query_outputs.contains(t))
            .chain(plan.query_outputs.iter().filter(|t| !self.taps.contains(t)))
        {
            if let Producer::Source(src) = plan.stream(s).producer {
                delta.retapped.push(src);
            }
        }
        delta.added.sort_unstable();
        delta.removed.sort_unstable();
        delta.rewired.sort_unstable();
        delta.retapped.sort_unstable();
        delta.retapped.dedup();
        delta
    }
}

/// The shared physical plan implementing all active queries.
#[derive(Debug, Clone, Default)]
pub struct PlanGraph {
    sources: Vec<SourceDef>,
    source_by_name: HashMap<String, SourceId>,
    group_stream_names: HashMap<String, StreamId>,
    streams: Vec<StreamDef>,
    channels: Vec<Option<ChannelDef>>,
    stream_channel: Vec<ChannelId>,
    mops: Vec<Option<MopNode>>,
    /// consumers[stream] = m-ops with a member reading that stream.
    consumers: Vec<Vec<MopId>>,
    query_outputs: Vec<(QueryId, StreamId)>,
    next_query: u32,
}

impl PlanGraph {
    /// Creates an empty plan.
    pub fn new() -> Self {
        PlanGraph::default()
    }

    // ------------------------------------------------------------------
    // Sources and streams
    // ------------------------------------------------------------------

    /// Registers an external source. The optional `sharable_label` marks
    /// sources whose streams are mutually sharable (§3.2, base case 2);
    /// it defaults to the source name.
    pub fn add_source(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        sharable_label: Option<String>,
    ) -> Result<SourceId> {
        let name = name.into();
        if self.source_by_name.contains_key(&name) {
            return Err(RumorError::plan(format!("duplicate source `{name}`")));
        }
        let id = SourceId::from_index(self.sources.len());
        let stream = self.new_stream(schema.clone(), Producer::Source(id));
        self.sources.push(SourceDef {
            id,
            name: name.clone(),
            schema,
            sharable_label: sharable_label.unwrap_or_else(|| name.clone()),
            stream,
            streams: vec![stream],
        });
        self.source_by_name.insert(name, id);
        Ok(id)
    }

    /// Registers a *channel source*: `k` base streams with union-compatible
    /// content, pre-encoded into a single channel whose tuples arrive from
    /// outside with an explicit membership component — the input shape of
    /// Workload 3 (§5.2), where the generator emits channel tuples
    /// belonging to all of S1..S10 at once.
    ///
    /// The member streams are named `{name}.{i}` and can be referenced from
    /// logical plans like any stream.
    pub fn add_source_group(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        k: usize,
    ) -> Result<SourceId> {
        let name = name.into();
        if self.source_by_name.contains_key(&name) {
            return Err(RumorError::plan(format!("duplicate source `{name}`")));
        }
        if k == 0 {
            return Err(RumorError::plan(
                "channel source needs >= 1 stream".to_string(),
            ));
        }
        let id = SourceId::from_index(self.sources.len());
        let mut streams = Vec::with_capacity(k);
        for i in 0..k {
            let s = self.new_stream(schema.clone(), Producer::Source(id));
            self.group_stream_names.insert(format!("{name}.{i}"), s);
            streams.push(s);
        }
        // Re-encode the member streams into one channel (they were created
        // in singleton channels).
        let new_ch = ChannelId::from_index(self.channels.len());
        self.channels.push(Some(ChannelDef {
            id: new_ch,
            streams: streams.clone(),
        }));
        for &s in &streams {
            let old = self.stream_channel[s.index()];
            self.channels[old.index()] = None;
            self.stream_channel[s.index()] = new_ch;
        }
        self.sources.push(SourceDef {
            id,
            name: name.clone(),
            schema,
            sharable_label: name.clone(),
            stream: streams[0],
            streams,
        });
        self.source_by_name.insert(name, id);
        Ok(id)
    }

    /// Resolves a `{group}.{i}` member-stream name.
    pub fn group_stream(&self, name: &str) -> Option<StreamId> {
        self.group_stream_names.get(name).copied()
    }

    /// Looks up a source by name.
    pub fn source_by_name(&self, name: &str) -> Option<&SourceDef> {
        self.source_by_name
            .get(name)
            .map(|&id| &self.sources[id.index()])
    }

    /// All sources.
    pub fn sources(&self) -> &[SourceDef] {
        &self.sources
    }

    /// Source by id.
    pub fn source(&self, id: SourceId) -> &SourceDef {
        &self.sources[id.index()]
    }

    fn new_stream(&mut self, schema: Schema, producer: Producer) -> StreamId {
        let id = StreamId::from_index(self.streams.len());
        self.streams.push(StreamDef {
            id,
            schema,
            producer,
        });
        self.consumers.push(Vec::new());
        // Every new stream starts in its own singleton channel: a plain
        // stream is a channel of capacity one.
        let cid = ChannelId::from_index(self.channels.len());
        self.channels.push(Some(ChannelDef {
            id: cid,
            streams: vec![id],
        }));
        self.stream_channel.push(cid);
        id
    }

    /// Stream definition.
    pub fn stream(&self, id: StreamId) -> &StreamDef {
        &self.streams[id.index()]
    }

    /// Number of streams ever created (ids are dense).
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The channel a stream is encoded by.
    pub fn channel_of(&self, stream: StreamId) -> ChannelId {
        self.stream_channel[stream.index()]
    }

    /// Channel definition.
    pub fn channel(&self, id: ChannelId) -> &ChannelDef {
        self.channels[id.index()]
            .as_ref()
            .expect("dangling channel id")
    }

    /// Number of channel slots (including retired ones).
    pub fn channel_slots(&self) -> usize {
        self.channels.len()
    }

    /// Live channels.
    pub fn channels(&self) -> impl Iterator<Item = &ChannelDef> {
        self.channels.iter().filter_map(|c| c.as_ref())
    }

    /// Position of a stream within its channel.
    pub fn position_in_channel(&self, stream: StreamId) -> usize {
        self.channel(self.channel_of(stream))
            .position_of(stream)
            .expect("stream_channel out of sync")
    }

    /// m-ops with a member reading `stream`.
    pub fn consumers_of(&self, stream: StreamId) -> &[MopId] {
        &self.consumers[stream.index()]
    }

    // ------------------------------------------------------------------
    // M-ops
    // ------------------------------------------------------------------

    /// Adds a single-member m-op (a traditional physical operator) reading
    /// the given input streams, and returns `(mop, output stream)`.
    pub fn add_op(&mut self, def: OpDef, inputs: Vec<StreamId>) -> Result<(MopId, StreamId)> {
        if inputs.len() != def.arity() {
            return Err(RumorError::plan(format!(
                "operator {} expects {} inputs, got {}",
                def.symbol(),
                def.arity(),
                inputs.len()
            )));
        }
        let in_schemas: Vec<&Schema> = inputs
            .iter()
            .map(|&s| {
                self.streams
                    .get(s.index())
                    .map(|d| &d.schema)
                    .ok_or_else(|| RumorError::plan(format!("unknown stream {s}")))
            })
            .collect::<Result<_>>()?;
        let out_schema = def.output_schema(&in_schemas)?;

        let id = MopId::from_index(self.mops.len());
        // Reserve the node slot before creating the output stream so the
        // producer reference is valid.
        self.mops.push(None);
        let output = self.new_stream(out_schema, Producer::Mop { mop: id, member: 0 });
        let input_channels: Vec<ChannelId> = inputs.iter().map(|&s| self.channel_of(s)).collect();
        let node = MopNode {
            id,
            kind: MopKind::Naive,
            members: vec![Member {
                def,
                inputs: inputs.clone(),
                output,
            }],
            inputs: input_channels,
        };
        self.mops[id.index()] = Some(node);
        for s in inputs {
            self.consumers[s.index()].push(id);
        }
        Ok((id, output))
    }

    /// m-op node by id (panics on retired ids — rules must not hold stale ids).
    pub fn mop(&self, id: MopId) -> &MopNode {
        self.mops[id.index()].as_ref().expect("retired m-op id")
    }

    /// m-op node by id if still live.
    pub fn mop_opt(&self, id: MopId) -> Option<&MopNode> {
        self.mops.get(id.index()).and_then(|n| n.as_ref())
    }

    /// Live m-op nodes.
    pub fn mops(&self) -> impl Iterator<Item = &MopNode> {
        self.mops.iter().filter_map(|n| n.as_ref())
    }

    /// Number of live m-ops.
    pub fn mop_count(&self) -> usize {
        self.mops.iter().filter(|n| n.is_some()).count()
    }

    /// Number of m-op id slots (including retired ones).
    pub fn mop_slots(&self) -> usize {
        self.mops.len()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Registers a logical query, building its naive (unshared) operator
    /// chain, and returns the query id. Optimization happens separately via
    /// the rule engine.
    ///
    /// Atomic: a failing registration (unknown source, schema error deep
    /// in the tree) rolls the plan back to its prior state — essential on
    /// a *live* plan, where orphaned operators would otherwise be
    /// installed by the next hot swap and consume events forever.
    pub fn add_query(&mut self, plan: &LogicalPlan) -> Result<QueryId> {
        let (n_streams, n_channels, n_mops) =
            (self.streams.len(), self.channels.len(), self.mops.len());
        match self.build_logical(plan) {
            Ok(out) => {
                let qid = QueryId(self.next_query);
                self.next_query += 1;
                self.query_outputs.push((qid, out));
                Ok(qid)
            }
            Err(e) => {
                // `build_logical` only ever appends (streams, channels,
                // m-ops, and consumer entries referencing the new m-ops),
                // so truncating to the entry marks undoes it exactly.
                self.streams.truncate(n_streams);
                self.consumers.truncate(n_streams);
                self.stream_channel.truncate(n_streams);
                self.channels.truncate(n_channels);
                self.mops.truncate(n_mops);
                for list in &mut self.consumers {
                    list.retain(|c| c.index() < n_mops);
                }
                Err(e)
            }
        }
    }

    fn build_logical(&mut self, plan: &LogicalPlan) -> Result<StreamId> {
        match plan {
            LogicalPlan::Source(name) => self
                .source_by_name(name)
                .map(|s| s.stream)
                .or_else(|| self.group_stream(name))
                .ok_or_else(|| RumorError::unknown(format!("source `{name}`"))),
            LogicalPlan::Select { input, predicate } => {
                let i = self.build_logical(input)?;
                let (_, out) = self.add_op(OpDef::Select(predicate.clone()), vec![i])?;
                Ok(out)
            }
            LogicalPlan::Project { input, map } => {
                let i = self.build_logical(input)?;
                let (_, out) = self.add_op(OpDef::Project(map.clone()), vec![i])?;
                Ok(out)
            }
            LogicalPlan::Aggregate { input, spec } => {
                let i = self.build_logical(input)?;
                let (_, out) = self.add_op(OpDef::Aggregate(spec.clone()), vec![i])?;
                Ok(out)
            }
            LogicalPlan::Join { left, right, spec } => {
                let l = self.build_logical(left)?;
                let r = self.build_logical(right)?;
                let (_, out) = self.add_op(OpDef::Join(spec.clone()), vec![l, r])?;
                Ok(out)
            }
            LogicalPlan::Sequence { left, right, spec } => {
                let l = self.build_logical(left)?;
                let r = self.build_logical(right)?;
                let (_, out) = self.add_op(OpDef::Sequence(spec.clone()), vec![l, r])?;
                Ok(out)
            }
            LogicalPlan::Iterate { left, right, spec } => {
                let l = self.build_logical(left)?;
                let r = self.build_logical(right)?;
                let (_, out) = self.add_op(OpDef::Iterate(spec.clone()), vec![l, r])?;
                Ok(out)
            }
        }
    }

    /// Registered `(query, output stream)` pairs.
    pub fn query_outputs(&self) -> &[(QueryId, StreamId)] {
        &self.query_outputs
    }

    /// Output stream of a query.
    pub fn query_output(&self, q: QueryId) -> Option<StreamId> {
        self.query_outputs
            .iter()
            .find(|(qid, _)| *qid == q)
            .map(|(_, s)| *s)
    }

    /// Snapshots every live m-op's resolved execution context (see
    /// [`PlanSnapshot::delta`]). Take one before a plan mutation to report
    /// what the mutation changed.
    pub fn snapshot(&self) -> PlanSnapshot {
        PlanSnapshot {
            ctxs: self
                .mops()
                .map(|n| {
                    (
                        n.id,
                        MopContext::build(self, n.id).expect("live m-op resolves"),
                    )
                })
                .collect(),
            taps: self.query_outputs.clone(),
        }
    }

    /// Retires a query: drops its output tap, prunes operators and
    /// channels no other query references, and un-splits stateless shared
    /// m-ops left serving a single member (their kind reverts to
    /// [`MopKind::Naive`] — no sharing apparatus for one query). Returns
    /// the [`PlanDelta`] engines need to hot-swap a compiled plan.
    ///
    /// Stateful m-ops (joins, sequences, iterations, aggregates) are only
    /// retired when *every* member is dead. A stateful m-op that still
    /// serves other queries keeps its dead members instead of being
    /// restructured: pruning them would change its compiled context, and a
    /// hot swap would then have to restart the survivors' operator state
    /// from cold. The retained members cost their per-tuple evaluation
    /// until the whole m-op dies; full re-optimization (a fresh engine)
    /// reclaims them.
    pub fn remove_query(&mut self, q: QueryId) -> Result<PlanDelta> {
        let before = self.snapshot();
        let pos = self
            .query_outputs
            .iter()
            .position(|(qid, _)| *qid == q)
            .ok_or_else(|| RumorError::unknown(format!("query {q}")))?;
        self.query_outputs.remove(pos);
        self.prune()?;
        if cfg!(debug_assertions) {
            self.validate()?;
        }
        Ok(before.delta(self))
    }

    /// Removes operators no live query (transitively) observes. See
    /// [`PlanGraph::remove_query`] for the stateless/stateful asymmetry.
    fn prune(&mut self) -> Result<()> {
        let order = self.topo_order()?;

        // Which channels feed an m-op holding stateful members: removing a
        // stream from such a channel would shift its channel-mates'
        // positions and therefore the stateful consumer's compiled
        // context, cold-starting state a hot swap must preserve.
        let mut stateful_reader = vec![false; self.channels.len()];
        for node in self.mops() {
            if node.members.iter().all(|m| m.def.is_stateless()) {
                continue;
            }
            for &ch in &node.inputs {
                stateful_reader[ch.index()] = true;
            }
        }
        // An m-op sheds dead members individually only when every member
        // is stateless *and* no member output sits in a multi-stream
        // channel read by a stateful consumer; otherwise a partially dead
        // op is kept whole (retired only once every member is dead).
        let splittable: HashMap<MopId, bool> = self
            .mops()
            .map(|node| {
                let ok = node.members.iter().all(|m| m.def.is_stateless())
                    && node.members.iter().all(|m| {
                        let ch = self.channel_of(m.output);
                        self.channel(ch).capacity() == 1 || !stateful_reader[ch.index()]
                    });
                (node.id, ok)
            })
            .collect();

        // A stream is *needed* when a query taps it or a surviving member
        // reads it. Reverse-topological pass: every consumer settles
        // before its producer. A kept-whole m-op keeps all members, so all
        // its member inputs stay needed; a splittable m-op keeps only
        // needed members, so only their inputs propagate.
        let mut needed = vec![false; self.streams.len()];
        for &(_, s) in &self.query_outputs {
            needed[s.index()] = true;
        }
        for &id in order.iter().rev() {
            let node = self.mop(id);
            if !node.members.iter().any(|m| needed[m.output.index()]) {
                continue; // fully dead: consumes nothing
            }
            for m in &node.members {
                if !splittable[&id] || needed[m.output.index()] {
                    for &s in &m.inputs {
                        needed[s.index()] = true;
                    }
                }
            }
        }

        for &id in &order {
            let node = self.mops[id.index()].as_ref().expect("live in topo order");
            let alive = node.members.iter().any(|m| needed[m.output.index()]);
            if !alive {
                let node = self.mops[id.index()].take().expect("checked live");
                for m in &node.members {
                    for &s in &m.inputs {
                        self.consumers[s.index()].retain(|&c| c != id);
                    }
                    self.drop_stream_encoding(m.output);
                }
                continue;
            }
            if !splittable[&id] || node.members.iter().all(|m| needed[m.output.index()]) {
                continue; // kept whole, or fully live
            }
            // Stateless m-op with dead members: prune them.
            let mut node = self.mops[id.index()].take().expect("checked live");
            let (kept, dead): (Vec<Member>, Vec<Member>) = node
                .members
                .drain(..)
                .partition(|m| needed[m.output.index()]);
            for m in &dead {
                for &s in &m.inputs {
                    if !kept.iter().any(|k| k.inputs.contains(&s)) {
                        self.consumers[s.index()].retain(|&c| c != id);
                    }
                }
                self.drop_stream_encoding(m.output);
                // The dead output stream dangles; point its producer at a
                // surviving member so it reads as an orphaned (aliased-away)
                // stream rather than an out-of-range member reference.
                self.streams[m.output.index()].producer = Producer::Mop { mop: id, member: 0 };
            }
            for (idx, m) in kept.iter().enumerate() {
                self.streams[m.output.index()].producer = Producer::Mop {
                    mop: id,
                    member: idx,
                };
            }
            node.members = kept;
            if node.members.len() == 1 {
                node.kind = MopKind::Naive;
            }
            self.mops[id.index()] = Some(node);
        }
        Ok(())
    }

    /// Removes a stream from its channel, dropping the channel when it
    /// becomes empty.
    fn drop_stream_encoding(&mut self, s: StreamId) {
        let cid = self.stream_channel[s.index()];
        if let Some(ch) = self.channels[cid.index()].as_mut() {
            ch.streams.retain(|&x| x != s);
            if ch.streams.is_empty() {
                self.channels[cid.index()] = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Rewrite primitives used by m-rule actions
    // ------------------------------------------------------------------

    /// Merges a set of m-ops into a single target m-op of the given kind
    /// (the generic m-rule action of §2.3). Members are concatenated in
    /// group order; members whose `(def, inputs)` coincide are deduplicated
    /// (common subexpression elimination): their output streams are aliased
    /// to the first occurrence's output, so downstream consumers are
    /// rewired automatically.
    ///
    /// Requires all nodes to agree on input channels per port.
    pub fn merge_mops(&mut self, group: &[MopId], kind: MopKind) -> Result<MopId> {
        if group.is_empty() {
            return Err(RumorError::rule("empty merge group".to_string()));
        }
        let arity = self.mop(group[0]).arity();
        let inputs = self.mop(group[0]).inputs.clone();
        for &id in group {
            let node = self.mop(id);
            if node.arity() != arity || node.inputs != inputs {
                return Err(RumorError::rule(format!(
                    "merge group disagrees on inputs: {} vs {}",
                    group[0], id
                )));
            }
        }

        // Collect members, deduplicating identical (def, inputs).
        let mut members: Vec<Member> = Vec::new();
        let mut aliases: Vec<(StreamId, StreamId)> = Vec::new();
        for &id in group {
            let node_members = self.mop(id).members.clone();
            for m in node_members {
                if let Some(existing) = members
                    .iter()
                    .find(|e| e.def == m.def && e.inputs == m.inputs)
                {
                    aliases.push((m.output, existing.output));
                } else {
                    members.push(m);
                }
            }
        }

        let new_id = MopId::from_index(self.mops.len());
        // Rewire producer references of surviving member outputs.
        for (idx, m) in members.iter().enumerate() {
            self.streams[m.output.index()].producer = Producer::Mop {
                mop: new_id,
                member: idx,
            };
        }
        // Retire old nodes and unregister their consumer entries.
        for &id in group {
            let node = self.mops[id.index()].take().expect("retired m-op id");
            for m in &node.members {
                for &s in &m.inputs {
                    self.consumers[s.index()].retain(|&c| c != id);
                }
            }
        }
        let member_inputs: Vec<Vec<StreamId>> = members.iter().map(|m| m.inputs.clone()).collect();
        self.mops.push(Some(MopNode {
            id: new_id,
            kind,
            members,
            inputs,
        }));
        for ins in member_inputs {
            for s in ins {
                if !self.consumers[s.index()].contains(&new_id) {
                    self.consumers[s.index()].push(new_id);
                }
            }
        }
        // Apply CSE aliases after the new node exists.
        for (from, to) in aliases {
            self.alias_stream(from, to)?;
        }
        Ok(new_id)
    }

    /// Redirects every consumer of `from` (m-op member inputs and query
    /// outputs) to `to`, and retires `from`. The streams must have equal
    /// schemas. This is the CSE primitive behind rules s; and sµ (§4.3).
    pub fn alias_stream(&mut self, from: StreamId, to: StreamId) -> Result<()> {
        if from == to {
            return Ok(());
        }
        if self.streams[from.index()].schema != self.streams[to.index()].schema {
            return Err(RumorError::rule(format!(
                "cannot alias {from} to {to}: schema mismatch"
            )));
        }
        let consumer_ids = std::mem::take(&mut self.consumers[from.index()]);
        for mid in consumer_ids {
            let node = self.mops[mid.index()].as_mut().expect("retired consumer");
            for m in &mut node.members {
                for (p, s) in m.inputs.iter_mut().enumerate() {
                    if *s == from {
                        *s = to;
                        node.inputs[p] = self.stream_channel[to.index()];
                    }
                }
            }
            if !self.consumers[to.index()].contains(&mid) {
                self.consumers[to.index()].push(mid);
            }
        }
        for (_, out) in self.query_outputs.iter_mut() {
            if *out == from {
                *out = to;
            }
        }
        // Remove the stream from its channel; drop the channel if empty.
        let cid = self.stream_channel[from.index()];
        if let Some(ch) = self.channels[cid.index()].as_mut() {
            ch.streams.retain(|&s| s != from);
            if ch.streams.is_empty() {
                self.channels[cid.index()] = None;
            }
        }
        Ok(())
    }

    /// Encodes a set of streams into a single new channel (the channel
    /// mapping step of §3.2). Preconditions enforced here:
    ///
    /// * at least two streams, all distinct;
    /// * union-compatible schemas;
    /// * all produced by the same m-op (criterion (b) of §3.2);
    /// * each currently in a singleton channel (no re-encoding).
    ///
    /// Consumer m-ops' port channels are rewired automatically.
    pub fn encode_channel(&mut self, streams: &[StreamId]) -> Result<ChannelId> {
        if streams.len() < 2 {
            return Err(RumorError::rule(
                "channel encoding needs at least two streams".to_string(),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for &s in streams {
            if !seen.insert(s) {
                return Err(RumorError::rule(format!("duplicate stream {s} in channel")));
            }
        }
        let first_schema = &self.streams[streams[0].index()].schema;
        let producer_of = |p: &Producer| match p {
            Producer::Mop { mop, .. } => Some(*mop),
            Producer::Source(_) => None,
        };
        let first_prod = producer_of(&self.streams[streams[0].index()].producer);
        for &s in streams {
            let def = &self.streams[s.index()];
            if !def.schema.union_compatible(first_schema) {
                return Err(RumorError::rule(format!(
                    "stream {s} is not union-compatible with {}",
                    streams[0]
                )));
            }
            if producer_of(&def.producer) != first_prod || first_prod.is_none() {
                return Err(RumorError::rule(
                    "channel streams must originate from the same m-op (§3.2)".to_string(),
                ));
            }
            let cid = self.stream_channel[s.index()];
            if self.channel(cid).capacity() != 1 {
                return Err(RumorError::rule(format!(
                    "stream {s} is already encoded by a multi-stream channel"
                )));
            }
        }

        let new_id = ChannelId::from_index(self.channels.len());
        self.channels.push(Some(ChannelDef {
            id: new_id,
            streams: streams.to_vec(),
        }));
        for &s in streams {
            let old = self.stream_channel[s.index()];
            self.channels[old.index()] = None;
            self.stream_channel[s.index()] = new_id;
        }
        // Rewire consumers' port channels.
        for &s in streams {
            for &mid in self.consumers[s.index()].clone().iter() {
                let node = self.mops[mid.index()].as_mut().expect("retired consumer");
                let member_inputs: Vec<Vec<StreamId>> =
                    node.members.iter().map(|m| m.inputs.clone()).collect();
                for (p, ch) in node.inputs.iter_mut().enumerate() {
                    if member_inputs.iter().any(|ins| ins[p] == s) {
                        *ch = new_id;
                    }
                }
            }
        }
        Ok(new_id)
    }

    /// Rewires one member's port input to a different stream (used by
    /// single-query rewrites such as predicate pushdown). The new stream
    /// must carry the same schema, and after the rewire every member of the
    /// node must still read the same channel on that port.
    pub fn rewire_member_input(
        &mut self,
        mop: MopId,
        member: usize,
        port: usize,
        new_stream: StreamId,
    ) -> Result<()> {
        let new_channel = self.channel_of(new_stream);
        let node = self.mops[mop.index()]
            .as_mut()
            .ok_or_else(|| RumorError::plan(format!("retired m-op {mop}")))?;
        let m = node
            .members
            .get_mut(member)
            .ok_or_else(|| RumorError::plan(format!("{mop}: no member {member}")))?;
        let old_stream = *m
            .inputs
            .get(port)
            .ok_or_else(|| RumorError::plan(format!("{mop}: no port {port}")))?;
        m.inputs[port] = new_stream;
        // All members must agree on the port channel.
        if node
            .members
            .iter()
            .any(|m| self.stream_channel[m.inputs[port].index()] != new_channel)
        {
            return Err(RumorError::plan(format!(
                "{mop}: port {port} members span multiple channels after rewire"
            )));
        }
        node.inputs[port] = new_channel;
        let still_used = node.members.iter().any(|m| m.inputs.contains(&old_stream));
        if !still_used {
            self.consumers[old_stream.index()].retain(|&c| c != mop);
        }
        if !self.consumers[new_stream.index()].contains(&mop) {
            self.consumers[new_stream.index()].push(mop);
        }
        if self.streams[new_stream.index()].schema != self.streams[old_stream.index()].schema {
            return Err(RumorError::plan(format!(
                "{mop}: rewired input schema mismatch"
            )));
        }
        Ok(())
    }

    /// Replaces one member's definition. The new definition must preserve
    /// the member's output schema (rewrites may only change *how* a stream
    /// is computed, never its shape).
    pub fn set_member_def(&mut self, mop: MopId, member: usize, def: OpDef) -> Result<()> {
        let node = self
            .mops
            .get(mop.index())
            .and_then(|n| n.as_ref())
            .ok_or_else(|| RumorError::plan(format!("retired m-op {mop}")))?;
        let m = node
            .members
            .get(member)
            .ok_or_else(|| RumorError::plan(format!("{mop}: no member {member}")))?;
        let in_schemas: Vec<&Schema> = m
            .inputs
            .iter()
            .map(|&s| &self.streams[s.index()].schema)
            .collect();
        let new_schema = def.output_schema(&in_schemas)?;
        if new_schema != self.streams[m.output.index()].schema {
            return Err(RumorError::plan(format!(
                "{mop}: new definition changes output schema"
            )));
        }
        let node = self.mops[mop.index()].as_mut().expect("checked above");
        node.members[member].def = def;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Structure queries & validation
    // ------------------------------------------------------------------

    /// Topological order of the live m-ops (producers before consumers).
    /// Errors if the plan has a cycle.
    pub fn topo_order(&self) -> Result<Vec<MopId>> {
        let mut indegree: HashMap<MopId, usize> = HashMap::new();
        let mut edges: HashMap<MopId, Vec<MopId>> = HashMap::new();
        for node in self.mops() {
            indegree.entry(node.id).or_insert(0);
            for m in &node.members {
                for &s in &m.inputs {
                    if let Producer::Mop { mop, .. } = self.streams[s.index()].producer {
                        edges.entry(mop).or_default().push(node.id);
                        *indegree.entry(node.id).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut ready: Vec<MopId> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        ready.sort();
        let mut order = Vec::with_capacity(indegree.len());
        while let Some(id) = ready.pop() {
            order.push(id);
            if let Some(outs) = edges.get(&id) {
                for &next in outs {
                    let d = indegree.get_mut(&next).expect("edge to unknown node");
                    *d -= 1;
                    if *d == 0 {
                        ready.push(next);
                    }
                }
            }
        }
        if order.len() != indegree.len() {
            return Err(RumorError::plan("plan graph has a cycle".to_string()));
        }
        Ok(order)
    }

    /// Registration-order-independent structural identity for every live
    /// m-op.
    ///
    /// Keys are canonical string renderings built bottom-up in topological
    /// order: a source stream renders as `src:<name>#<position>`, a member
    /// as its definition applied to its input-stream keys, and an m-op as
    /// its kind over the *sorted* member keys. Two plans holding the same
    /// operators under permuted `MopId`/`StreamId` numbering therefore
    /// assign equal keys to corresponding nodes — which is what lets the
    /// rule driver order rewrite candidates canonically instead of by
    /// registration order.
    ///
    /// Cyclic plans (no topological order) return an empty map; callers
    /// fall back to id order.
    pub fn structural_keys(&self) -> HashMap<MopId, String> {
        let Ok(order) = self.topo_order() else {
            return HashMap::new();
        };
        let mut stream_key: HashMap<StreamId, String> = HashMap::new();
        for src in &self.sources {
            for (i, &s) in src.streams.iter().enumerate() {
                stream_key.insert(s, format!("src:{}#{}", src.name, i));
            }
        }
        let mut keys = HashMap::new();
        for id in order {
            let node = self.mop(id);
            let mut member_keys = Vec::with_capacity(node.members.len());
            for m in &node.members {
                let ins: Vec<&str> = m
                    .inputs
                    .iter()
                    .map(|s| stream_key.get(s).map(String::as_str).unwrap_or("?"))
                    .collect();
                let mk = format!("{:?}({})", m.def, ins.join(","));
                stream_key.insert(m.output, mk.clone());
                member_keys.push(mk);
            }
            member_keys.sort();
            keys.insert(id, format!("{:?}[{}]", node.kind, member_keys.join(";")));
        }
        keys
    }

    /// Validates every structural invariant of the plan. Used by tests and
    /// after rule applications in debug builds; not on the data path.
    pub fn validate(&self) -> Result<()> {
        // Streams: producer references are consistent.
        for def in &self.streams {
            match def.producer {
                Producer::Source(sid) => {
                    let src = self
                        .sources
                        .get(sid.index())
                        .ok_or_else(|| RumorError::plan(format!("{}: bad source", def.id)))?;
                    if !src.streams.contains(&def.id) {
                        return Err(RumorError::plan(format!(
                            "{}: source stream mismatch",
                            def.id
                        )));
                    }
                }
                Producer::Mop { mop, member } => {
                    if let Some(node) = self.mop_opt(mop) {
                        let m = node.members.get(member).ok_or_else(|| {
                            RumorError::plan(format!("{}: bad member index", def.id))
                        })?;
                        if m.output != def.id {
                            // Stream was aliased away; it must no longer be
                            // referenced by any channel or consumer.
                            let cid = self.stream_channel[def.id.index()];
                            if self.channels[cid.index()]
                                .as_ref()
                                .is_some_and(|c| c.streams.contains(&def.id))
                            {
                                return Err(RumorError::plan(format!(
                                    "aliased stream {} still encoded",
                                    def.id
                                )));
                            }
                            continue;
                        }
                    } else {
                        continue; // producer retired; stream must be dangling
                    }
                }
            }
        }
        // Channels partition live streams; members' port channels agree.
        for ch in self.channels() {
            if ch.streams.is_empty() {
                return Err(RumorError::plan(format!("{}: empty channel", ch.id)));
            }
            for &s in &ch.streams {
                if self.stream_channel[s.index()] != ch.id {
                    return Err(RumorError::plan(format!(
                        "stream {s} channel index out of sync"
                    )));
                }
            }
            let first = &self.streams[ch.streams[0].index()].schema;
            for &s in &ch.streams[1..] {
                if !self.streams[s.index()].schema.union_compatible(first) {
                    return Err(RumorError::plan(format!(
                        "{}: union-incompatible streams",
                        ch.id
                    )));
                }
            }
        }
        // M-ops: member inputs live in the node's port channels; members
        // have matching arity; consumer index is consistent.
        for node in self.mops() {
            for m in &node.members {
                if m.inputs.len() != node.inputs.len() || m.def.arity() != node.inputs.len() {
                    return Err(RumorError::plan(format!("{}: arity mismatch", node.id)));
                }
                for (p, &s) in m.inputs.iter().enumerate() {
                    if self.stream_channel[s.index()] != node.inputs[p] {
                        return Err(RumorError::plan(format!(
                            "{}: member input {s} not in port {p} channel",
                            node.id
                        )));
                    }
                    if !self.consumers[s.index()].contains(&node.id) {
                        return Err(RumorError::plan(format!(
                            "{}: missing consumer index entry for {s}",
                            node.id
                        )));
                    }
                }
            }
        }
        // Query outputs reference live streams (producer live).
        for &(q, s) in &self.query_outputs {
            let def = &self.streams[s.index()];
            if let Producer::Mop { mop, member } = def.producer {
                let ok = self
                    .mop_opt(mop)
                    .and_then(|n| n.members.get(member))
                    .is_some_and(|m| m.output == s);
                if !ok {
                    return Err(RumorError::plan(format!(
                        "query {q} output {s} has no live producer"
                    )));
                }
            }
        }
        // Acyclicity.
        self.topo_order().map(|_| ())
    }

    /// Total number of member operators across live m-ops — the paper's
    /// measure of how much sharing the rules achieved.
    pub fn member_count(&self) -> usize {
        self.mops().map(|n| n.members.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_expr::Predicate;

    fn plan_with_source() -> (PlanGraph, StreamId) {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(3), None).unwrap();
        let s = p.source_by_name("S").unwrap().stream;
        (p, s)
    }

    #[test]
    fn add_source_creates_singleton_channel() {
        let (p, s) = plan_with_source();
        let ch = p.channel(p.channel_of(s));
        assert_eq!(ch.capacity(), 1);
        assert_eq!(ch.streams, vec![s]);
        assert_eq!(p.position_in_channel(s), 0);
        p.validate().unwrap();
    }

    #[test]
    fn duplicate_source_rejected() {
        let (mut p, _) = plan_with_source();
        assert!(p.add_source("S", Schema::ints(1), None).is_err());
    }

    #[test]
    fn add_op_wires_consumers() {
        let (mut p, s) = plan_with_source();
        let (id, out) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 1i64)), vec![s])
            .unwrap();
        assert_eq!(p.consumers_of(s), &[id]);
        assert_eq!(p.stream(out).producer, Producer::Mop { mop: id, member: 0 });
        assert_eq!(p.mop(id).kind, MopKind::Naive);
        p.validate().unwrap();
    }

    #[test]
    fn add_query_builds_chain() {
        let (mut p, _) = plan_with_source();
        let q = LogicalPlan::source("S")
            .select(Predicate::attr_eq_const(0, 5i64))
            .select(Predicate::attr_eq_const(1, 6i64));
        let qid = p.add_query(&q).unwrap();
        assert_eq!(p.mop_count(), 2);
        let out = p.query_output(qid).unwrap();
        assert_eq!(p.stream(out).schema, Schema::ints(3));
        p.validate().unwrap();
        let topo = p.topo_order().unwrap();
        assert_eq!(topo.len(), 2);
    }

    #[test]
    fn unknown_source_errors() {
        let mut p = PlanGraph::new();
        assert!(p
            .add_query(&LogicalPlan::source("nope").select(Predicate::True))
            .is_err());
    }

    #[test]
    fn failed_add_query_rolls_back_completely() {
        use crate::logical::SeqSpec;
        let (mut p, _) = plan_with_source();
        p.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)))
            .unwrap();
        let mops = p.mop_count();
        let streams = p.stream_count();
        let channels = p.channel_slots();
        // The left leg (a stateful sequence input) builds before the
        // unknown right-hand source errors: everything must roll back —
        // on a live plan the orphans would be hot-swapped into workers.
        let bad = LogicalPlan::source("S")
            .select(Predicate::attr_eq_const(1, 2i64))
            .followed_by(
                LogicalPlan::source("TYPO"),
                SeqSpec {
                    predicate: Predicate::True,
                    window: 5,
                },
            );
        assert!(p.add_query(&bad).is_err());
        assert_eq!(p.mop_count(), mops);
        assert_eq!(p.stream_count(), streams);
        assert_eq!(p.channel_slots(), channels);
        p.validate().unwrap();
        // And the plan still works afterwards.
        p.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(2, 3i64)))
            .unwrap();
        p.validate().unwrap();
    }

    #[test]
    fn merge_mops_same_stream() {
        let (mut p, s) = plan_with_source();
        let (a, out_a) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 1i64)), vec![s])
            .unwrap();
        let (b, out_b) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 2i64)), vec![s])
            .unwrap();
        let merged = p.merge_mops(&[a, b], MopKind::IndexedSelect).unwrap();
        assert_eq!(p.mop_count(), 1);
        let node = p.mop(merged);
        assert_eq!(node.members.len(), 2);
        assert_eq!(node.kind, MopKind::IndexedSelect);
        // Output streams survive with rewired producers.
        assert_eq!(
            p.stream(out_a).producer,
            Producer::Mop {
                mop: merged,
                member: 0
            }
        );
        assert_eq!(
            p.stream(out_b).producer,
            Producer::Mop {
                mop: merged,
                member: 1
            }
        );
        assert_eq!(p.consumers_of(s), &[merged]);
        p.validate().unwrap();
    }

    #[test]
    fn merge_dedupes_identical_members() {
        let (mut p, s) = plan_with_source();
        let pred = Predicate::attr_eq_const(0, 1i64);
        let (a, out_a) = p.add_op(OpDef::Select(pred.clone()), vec![s]).unwrap();
        let (b, out_b) = p.add_op(OpDef::Select(pred.clone()), vec![s]).unwrap();
        // Downstream consumer of the second output.
        let (c, _) = p
            .add_op(
                OpDef::Select(Predicate::attr_eq_const(1, 2i64)),
                vec![out_b],
            )
            .unwrap();
        let merged = p.merge_mops(&[a, b], MopKind::IndexedSelect).unwrap();
        let node = p.mop(merged);
        assert_eq!(node.members.len(), 1, "identical members deduplicated");
        // The downstream consumer now reads out_a.
        assert_eq!(p.mop(c).members[0].inputs[0], out_a);
        assert!(p.consumers_of(out_a).contains(&c));
        p.validate().unwrap();
    }

    #[test]
    fn merge_rejects_different_inputs() {
        let (mut p, s) = plan_with_source();
        let (a, out_a) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 1i64)), vec![s])
            .unwrap();
        let (b, _) = p
            .add_op(
                OpDef::Select(Predicate::attr_eq_const(0, 2i64)),
                vec![out_a],
            )
            .unwrap();
        assert!(p.merge_mops(&[a, b], MopKind::IndexedSelect).is_err());
    }

    #[test]
    fn alias_rewires_queries_and_consumers() {
        let (mut p, s) = plan_with_source();
        let pred = Predicate::attr_eq_const(0, 1i64);
        let (_, out_a) = p.add_op(OpDef::Select(pred.clone()), vec![s]).unwrap();
        let (_, out_b) = p.add_op(OpDef::Select(pred), vec![s]).unwrap();
        let (c, _) = p
            .add_op(OpDef::Select(Predicate::True), vec![out_b])
            .unwrap();
        p.query_outputs.push((QueryId(0), out_b));
        p.alias_stream(out_b, out_a).unwrap();
        assert_eq!(p.mop(c).members[0].inputs[0], out_a);
        assert_eq!(p.query_output(QueryId(0)), Some(out_a));
        p.validate().unwrap();
    }

    #[test]
    fn alias_schema_mismatch_rejected() {
        let (mut p, s) = plan_with_source();
        let (_, sel_out) = p.add_op(OpDef::Select(Predicate::True), vec![s]).unwrap();
        let (_, proj_out) = p
            .add_op(OpDef::Project(rumor_expr::SchemaMap::identity(1)), vec![s])
            .unwrap();
        assert!(p.alias_stream(sel_out, proj_out).is_err());
    }

    #[test]
    fn encode_channel_rewires_ports() {
        let (mut p, s) = plan_with_source();
        // One m-op with two members producing two streams (an IndexedSelect).
        let (a, out_a) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 1i64)), vec![s])
            .unwrap();
        let (b, out_b) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 2i64)), vec![s])
            .unwrap();
        let sel = p.merge_mops(&[a, b], MopKind::IndexedSelect).unwrap();
        let (c1, _) = p
            .add_op(
                OpDef::Select(Predicate::attr_eq_const(1, 3i64)),
                vec![out_a],
            )
            .unwrap();
        let (c2, _) = p
            .add_op(
                OpDef::Select(Predicate::attr_eq_const(1, 3i64)),
                vec![out_b],
            )
            .unwrap();
        let ch = p.encode_channel(&[out_a, out_b]).unwrap();
        assert_eq!(p.channel_of(out_a), ch);
        assert_eq!(p.channel_of(out_b), ch);
        assert_eq!(p.position_in_channel(out_b), 1);
        assert_eq!(p.mop(c1).inputs[0], ch);
        assert_eq!(p.mop(c2).inputs[0], ch);
        // The producing m-op is unaffected on the input side.
        assert_eq!(p.mop(sel).inputs[0], p.channel_of(s));
        p.validate().unwrap();
    }

    #[test]
    fn encode_channel_rejects_cross_producer() {
        let (mut p, s) = plan_with_source();
        let (_, out_a) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 1i64)), vec![s])
            .unwrap();
        let (_, out_b) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 2i64)), vec![s])
            .unwrap();
        // Different producing m-ops: must be rejected (§3.2).
        assert!(p.encode_channel(&[out_a, out_b]).is_err());
        // Base streams have no producing m-op: rejected too.
        assert!(p.encode_channel(&[s, out_a]).is_err());
        // Singleton and duplicate groups rejected.
        assert!(p.encode_channel(&[out_a]).is_err());
        assert!(p.encode_channel(&[out_a, out_a]).is_err());
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let (mut p, s) = plan_with_source();
        let (a, out_a) = p.add_op(OpDef::Select(Predicate::True), vec![s]).unwrap();
        let (b, out_b) = p
            .add_op(OpDef::Select(Predicate::True), vec![out_a])
            .unwrap();
        let (c, _) = p
            .add_op(OpDef::Select(Predicate::True), vec![out_b])
            .unwrap();
        let order = p.topo_order().unwrap();
        let pos = |id: MopId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn remove_query_prunes_dead_chain() {
        let (mut p, _) = plan_with_source();
        let q1 = p
            .add_query(
                &LogicalPlan::source("S")
                    .select(Predicate::attr_eq_const(0, 1i64))
                    .select(Predicate::attr_eq_const(1, 2i64)),
            )
            .unwrap();
        let q2 = p
            .add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(2, 3i64)))
            .unwrap();
        assert_eq!(p.mop_count(), 3);
        let delta = p.remove_query(q1).unwrap();
        assert_eq!(p.mop_count(), 1, "q1's two-op chain fully retired");
        assert_eq!(delta.removed.len(), 2);
        assert!(delta.added.is_empty() && delta.rewired.is_empty());
        assert!(p.query_output(q1).is_none());
        assert!(p.query_output(q2).is_some());
        p.validate().unwrap();
        // Removing an unknown or already-removed query errors.
        assert!(p.remove_query(q1).is_err());
        assert!(p.remove_query(QueryId(99)).is_err());
    }

    #[test]
    fn remove_query_unsplits_shared_select_to_naive() {
        let (mut p, s) = plan_with_source();
        let (a, _) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 1i64)), vec![s])
            .unwrap();
        let (b, out_b) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 2i64)), vec![s])
            .unwrap();
        let merged = p.merge_mops(&[a, b], MopKind::IndexedSelect).unwrap();
        let out_a = p.mop(merged).members[0].output;
        p.query_outputs.push((QueryId(0), out_a));
        p.query_outputs.push((QueryId(1), out_b));
        p.next_query = 2;

        let delta = p.remove_query(QueryId(1)).unwrap();
        let node = p.mop(merged);
        assert_eq!(node.members.len(), 1, "dead member pruned");
        assert_eq!(node.kind, MopKind::Naive, "single member un-splits");
        assert_eq!(delta.rewired, vec![merged]);
        assert_eq!(
            p.stream(out_a).producer,
            Producer::Mop {
                mop: merged,
                member: 0
            }
        );
        p.validate().unwrap();

        // Removing the last query retires the m-op entirely.
        let delta = p.remove_query(QueryId(0)).unwrap();
        assert_eq!(p.mop_count(), 0);
        assert_eq!(delta.removed, vec![merged]);
        p.validate().unwrap();
    }

    #[test]
    fn remove_query_keeps_cse_shared_stream() {
        let (mut p, _) = plan_with_source();
        let q = LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 7i64));
        let q1 = p.add_query(&q).unwrap();
        let q2 = p.add_query(&q).unwrap();
        // Simulate CSE: both queries tap the same output stream.
        let out = p.query_output(q1).unwrap();
        let dup = p.query_output(q2).unwrap();
        let (dup_mop, _) = match p.stream(dup).producer {
            Producer::Mop { mop, member } => (mop, member),
            _ => panic!(),
        };
        p.merge_mops(
            &[
                match p.stream(out).producer {
                    Producer::Mop { mop, .. } => mop,
                    _ => panic!(),
                },
                dup_mop,
            ],
            MopKind::IndexedSelect,
        )
        .unwrap();
        assert_eq!(p.query_output(q1), p.query_output(q2), "CSE aliased");
        let delta = p.remove_query(q1).unwrap();
        assert!(delta.removed.is_empty(), "stream still tapped by q2");
        assert!(p.query_output(q2).is_some());
        p.validate().unwrap();
    }

    #[test]
    fn remove_query_keeps_partially_dead_stateful_mop_whole() {
        use crate::logical::SeqSpec;
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(3), None).unwrap();
        p.add_source("T", Schema::ints(3), None).unwrap();
        let seq = |w| {
            LogicalPlan::source("S").followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: rumor_expr::Predicate::True,
                    window: w,
                },
            )
        };
        let q1 = p.add_query(&seq(5)).unwrap();
        let q2 = p.add_query(&seq(9)).unwrap();
        // Merge the two sequences into one shared stateful m-op.
        let ids: Vec<MopId> = p.mops().map(|n| n.id).collect();
        let merged = p.merge_mops(&ids, MopKind::SharedSequence).unwrap();
        assert_eq!(p.mop(merged).members.len(), 2);

        let delta = p.remove_query(q1).unwrap();
        // The shared stateful m-op keeps its dead member (state
        // continuity for q2's member): nothing rewired, nothing removed.
        assert!(delta.is_empty(), "{delta:?}");
        assert_eq!(p.mop(merged).members.len(), 2);
        p.validate().unwrap();

        // Once the last query goes, the whole m-op dies.
        p.remove_query(q2).unwrap();
        assert_eq!(p.mop_count(), 0);
        p.validate().unwrap();
    }

    #[test]
    fn member_count_tracks_sharing() {
        let (mut p, s) = plan_with_source();
        let (a, _) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 1i64)), vec![s])
            .unwrap();
        let (b, _) = p
            .add_op(OpDef::Select(Predicate::attr_eq_const(0, 2i64)), vec![s])
            .unwrap();
        assert_eq!(p.member_count(), 2);
        p.merge_mops(&[a, b], MopKind::IndexedSelect).unwrap();
        assert_eq!(p.member_count(), 2);
        assert_eq!(p.mop_count(), 1);
    }
}
