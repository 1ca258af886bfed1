//! The unified execution API: one [`EventRuntime`] trait over both
//! engines, one [`SessionBuilder`] to construct them, and a per-query
//! [`Subscription`] layer for result delivery.
//!
//! RUMOR's premise is that *one* shared plan serves every registered
//! query; this module makes the execution surface match. Both engines —
//! the single-threaded push engine and the persistent streaming shard
//! pool — speak the same
//! `push`/`push_batch`/`push_batch_shared`/`flush`/`finish`/`update_plan`
//! lifecycle, and a [`Session`] built by [`crate::Rumor::session`] wraps
//! whichever engine the builder selected behind one result-delivery
//! story:
//!
//! * [`Session::subscribe`] / [`Session::subscribe_named`] hand out a
//!   [`Subscription`] that receives exactly *that* query's results — the
//!   consumer-facing decomposition of the shared plan (each of many users
//!   owns a query; results route back to that user, not into one
//!   monolithic sink).
//! * [`Session::collect_all`] is the escape hatch for everything no
//!   subscriber claimed; the old pass-a-sink-at-every-call surface
//!   survives only as an internal detail beneath it.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use rumor_core::{
    render::{render_annotated, share_bar},
    PartitionScheme, PlanGraph,
};
use rumor_types::{Membership, QueryId, Result, RumorError, SourceId, Tuple};

use crate::exec::{ExecutablePlan, QuerySink};
use crate::shard::{StreamingConfig, StreamingShardedRuntime};
use crate::stats::{
    sharing_attribution, trace_json_lines, ExecStatsReport, Histogram, LatAcc, QueryStats,
    RuntimeStats, StatsSnapshot, TraceEvent, TraceRing, TIME_SAMPLE_EVERY,
};

/// The one execution lifecycle every RUMOR engine speaks.
///
/// Implemented by [`Session`], which wraps either engine — the
/// single-threaded push engine (an [`ExecutablePlan`] driven on the
/// caller's thread) or [`StreamingShardedRuntime`] (the persistent
/// worker pool) — behind the subscription layer, and by the pool itself.
/// Generic drivers (the conformance harness, the throughput bench) are
/// written once against this trait and run unchanged over every engine.
///
/// Lifecycle contract, identical across implementations:
///
/// * Events are fed with [`EventRuntime::push`] (one tuple),
///   [`EventRuntime::push_batch`] (a timestamp-ordered slice), or
///   [`EventRuntime::push_batch_shared`] (a refcounted batch the
///   streaming pool can ship zero-copy). Timestamps must be globally
///   non-decreasing across all calls.
/// * [`EventRuntime::flush`] is a barrier, not a shutdown: every event
///   accepted so far is fully processed when it returns, and the runtime
///   keeps accepting events afterwards.
/// * [`EventRuntime::finish`] ends the lifecycle. After it, *every*
///   method of this trait — including a second `finish` — returns
///   [`RumorError::Finished`]; no implementation panics or silently
///   no-ops on misuse.
/// * [`EventRuntime::update_plan`] hot-swaps the runtime onto a mutated
///   plan graph (the dynamic query lifecycle): operators untouched since
///   the last installed plan keep their state, and swaps that would
///   re-route tuples away from live stateful state are refused without
///   touching the runtime.
pub trait EventRuntime {
    /// Processes one source tuple.
    fn push(&mut self, source: SourceId, tuple: Tuple) -> Result<()>;

    /// Processes a timestamp-ordered event slice.
    fn push_batch(&mut self, events: &[(SourceId, Tuple)]) -> Result<()>;

    /// [`EventRuntime::push_batch`] with ownership handoff: engines that
    /// can use the shared allocation (the streaming pool ships stateless
    /// schemes per-worker *ranges* of it, zero-copy) do; everyone else
    /// falls back to the plain batched path.
    fn push_batch_shared(&mut self, events: Arc<Vec<(SourceId, Tuple)>>) -> Result<()> {
        self.push_batch(&events)
    }

    /// Drain barrier: blocks until every event accepted so far is fully
    /// processed. The runtime keeps accepting events afterwards.
    fn flush(&mut self) -> Result<()>;

    /// Ends the lifecycle: drains all outstanding work and shuts worker
    /// pools down. Every later call on this runtime (including a second
    /// `finish`) returns [`RumorError::Finished`].
    fn finish(&mut self) -> Result<()>;

    /// Hot-swaps the runtime onto a mutated plan graph, carrying the
    /// state of every operator the change does not touch. Refused (with
    /// an error, runtime untouched) when the change would re-route
    /// tuples away from live stateful state.
    fn update_plan(&mut self, plan: &PlanGraph) -> Result<()>;
}

// ----------------------------------------------------------------------
// The session builder.
// ----------------------------------------------------------------------

/// Plain-data description of a session's engine choice — everything
/// [`SessionBuilder`] configures, as a value. Useful for table-driven
/// harnesses that run one generic driver over many engine configurations
/// (`engine.session().config(cfg).build()?`).
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// Worker count. `None` selects the single-threaded engine; `Some(n)`
    /// the persistent streaming pool with `n` workers.
    pub workers: Option<usize>,
    /// With `workers` set: tuning for the streaming pool (staging batch
    /// size, queue depth). `None` uses the defaults.
    pub streaming: Option<StreamingConfig>,
}

/// Builds a [`Session`] over the engine's current (optimized) plan.
///
/// Constructed by [`crate::Rumor::session`]; the chain picks the engine:
///
/// ```text
/// engine.session().build()?                          // single-threaded
/// engine.session().workers(4).build()?               // streaming pool, 4 workers
/// engine.session().workers(4).streaming(cfg).build()?// ... with explicit tuning
/// ```
///
/// **Which engine should I pick?** Omit [`SessionBuilder::workers`]
/// (single-threaded) unless there are physical cores to spare: on one
/// core the worker pool only measures its routing overhead. With cores
/// available, `workers(n)` runs the *persistent streaming pool*:
/// long-lived workers behind bounded queues amortize thread costs over
/// the session's whole lifetime and give backpressure instead of
/// unbounded buffering. The shared plan is cloned per worker and tuples
/// are routed by the static partitioning analysis (round-robin for
/// stateless components, hashed on consistent keys for key-partitionable
/// ones, worker 0 for pinned ones); a stateless query on the source of a
/// keyed or pinned component goes wherever that source's tuples go.
/// Results are identical across both engines.
///
/// **Batched input.** Every entry point runs the executor's one drain,
/// whose granularity is a static function of the compiled plan's shape,
/// decided once at compile / `update_plan` time: a plan whose every m-op
/// is stateless runs [`EventRuntime::push_batch`] (and
/// `push_batch_shared`) in waves of many events, one
/// [`rumor_core::MultiOp::process_batch`] call per run of same-channel
/// events; a plan with any stateful m-op takes one event and one tuple at
/// a time, in order, exactly as repeated [`EventRuntime::push`] calls
/// would. Results never depend on which entry point delivered the events.
/// Keyed and pinned schemes ship batches to workers as index lists into
/// one shared allocation instead of per-worker tuple copies, so the
/// pool's routing cost does not scale with tuple width.
///
/// **Observability.** Every session keeps always-on runtime counters:
/// [`Session::stats`] returns a [`StatsSnapshot`] (per-m-op dispatch
/// counters and state sizes, queue pressure, per-query delivery counts,
/// sharing attribution) and
/// [`Session::explain`] renders the live plan annotated with them.
/// Snapshot semantics follow the delivery barriers: on the
/// single-threaded session counters are exact after every push; on a
/// parallel session a `stats()` call on a live pool is itself a
/// barrier-consistent read (staged deliveries are dispatched first and
/// each worker reports in queue order, so the snapshot reflects every
/// event accepted before the call), and per-query emitted counts advance
/// at the flush/finish delivery points. After [`EventRuntime::finish`]
/// the final counters stay readable indefinitely. The counters can be
/// compiled out wholesale with the engine crate's `stats-off` feature;
/// snapshots then report zeros but keep their shape.
///
/// **Time-domain sampling and overhead.** Wall-clock measurements are
/// *sampled*, never per-event: one operator dispatch in
/// [`crate::stats::TIME_SAMPLE_EVERY`] (64) is bracketed with `Instant`
/// reads, and one `push` in 64 takes an ingest mark that subsequent
/// deliveries measure latency against (batch entry points mark once per
/// batch). The unsampled fast path pays a counter mask and a branch —
/// measured overhead of the whole stats layer, timing included, is
/// within ~2% of a `stats-off` build on the hottest single-threaded
/// path (see ROADMAP's measured numbers). The trade-off: per-op time
/// attribution ([`crate::OpStats::est_nanos`]) is an estimate scaled
/// from 1/64 of dispatches, and latency histograms resolve sampled
/// queue+processing delay, not every individual tuple's — both converge
/// quickly on steady workloads. Barrier latencies (`flush`,
/// `update_plan`) are exact; they are control-plane and record even
/// under `stats-off`.
#[must_use = "a session builder does nothing until `.build()`"]
pub struct SessionBuilder<'a> {
    plan: &'a PlanGraph,
    names: HashMap<String, QueryId>,
    config: SessionConfig,
}

impl<'a> SessionBuilder<'a> {
    pub(crate) fn new(plan: &'a PlanGraph, names: HashMap<String, QueryId>) -> Self {
        SessionBuilder {
            plan,
            names,
            config: SessionConfig::default(),
        }
    }

    /// Runs the session on the persistent streaming pool with `n`
    /// workers. Omit for the single-threaded engine.
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = Some(n);
        self
    }

    /// Explicit streaming-pool tuning (staging batch size, queue depth).
    /// Requires [`SessionBuilder::workers`].
    pub fn streaming(mut self, config: StreamingConfig) -> Self {
        self.config.streaming = Some(config);
        self
    }

    /// Replaces the whole configuration at once (table-driven harnesses).
    pub fn config(mut self, config: SessionConfig) -> Self {
        self.config = config;
        self
    }

    /// Compiles the session. Fails on contradictory configuration
    /// (`streaming` without `workers`) and on plan compilation errors.
    pub fn build(self) -> Result<Session> {
        let backend = match self.config.workers {
            None => {
                if self.config.streaming.is_some() {
                    return Err(RumorError::plan(
                        "streaming(cfg) requires workers(n)".to_string(),
                    ));
                }
                Backend::Local {
                    exec: Box::new(ExecutablePlan::new(self.plan)?),
                    finished: false,
                }
            }
            Some(n) => {
                let cfg = self.config.streaming.unwrap_or_default();
                Backend::Streaming(Box::new(StreamingShardedRuntime::with_config(
                    self.plan, n, cfg,
                )?))
            }
        };
        Ok(Session {
            backend,
            names: self.names,
            delivery: Delivery::default(),
            plan: self.plan.clone(),
            ingest_mark: None,
            push_count: 0,
            flush_hist: Histogram::new(),
            update_hist: Histogram::new(),
            flight: TraceRing::default(),
        })
    }
}

// ----------------------------------------------------------------------
// The session and its subscription layer.
// ----------------------------------------------------------------------

/// The per-query buffer a [`Subscription`] handle and its session share.
struct SubChannel {
    query: QueryId,
    buf: Mutex<VecDeque<Tuple>>,
}

/// One query's slot in the session's route table.
#[derive(Default)]
struct Route {
    /// The query's subscription, if one was made. Weak: dropping the
    /// handle unsubscribes, and the tap sees it as a zero strong count.
    chan: Option<Weak<SubChannel>>,
    /// Results for the live subscription since the last hand-over.
    pending: Vec<Tuple>,
    /// Results since the last hand-over, claimed or not. Also the
    /// `touched` dedupe, so it counts under `stats-off` too.
    fresh: u64,
    /// Emitted tally and ingest→delivery latency — one per query, whether
    /// or not it is subscribed.
    lat: LatAcc,
}

impl Route {
    /// Whether a subscription handle is alive — a plain load, so a handle
    /// dropped between deliveries sends the very next result to the
    /// catch-all, in production order.
    fn live(&self) -> bool {
        self.chan.as_ref().is_some_and(|c| c.strong_count() > 0)
    }
}

/// The session's result router, indexed densely by [`QueryId::index`].
///
/// It is the [`QuerySink`] the local engine writes into, so a result is
/// routed once, at the tap: to its query's `pending` when a subscription
/// is live, otherwise straight onto the catch-all in production order.
/// [`Delivery::hand_over`] then visits only the queries that produced
/// something, once per delivery point. The pool's merged barrier output
/// goes through the same [`Delivery::route`] + `hand_over`.
#[derive(Default)]
struct Delivery {
    routes: Vec<Route>,
    /// Indices of the routes with `fresh > 0`, in first-result order.
    touched: Vec<u32>,
    /// The catch-all [`Session::collect_all`] drains.
    unclaimed: Vec<(QueryId, Tuple)>,
    /// Subscriptions to ids the session's plan does not know (yet):
    /// stale, foreign, or not installed by `update_plan` so far. They
    /// wait here so an arbitrary [`QueryId`] never sizes the table.
    parked: Vec<(QueryId, Weak<SubChannel>)>,
}

impl Delivery {
    /// Counts one result for `query` and says whether a live
    /// subscription claims it.
    #[inline]
    fn count(&mut self, query: QueryId) -> bool {
        let i = query.index();
        if i >= self.routes.len() {
            self.grow(i);
        }
        let route = &mut self.routes[i];
        if route.fresh == 0 {
            self.touched.push(query.0);
        }
        route.fresh += 1;
        route.live()
    }

    /// Extends the table to query index `i` — once per query, at its
    /// first result or subscription.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, i: usize) {
        self.routes.resize_with(i + 1, Route::default);
    }

    /// Points `query`'s route at `chan`, superseding any earlier
    /// subscription. Only ids the table already covers or the plan knows
    /// (`known`) get a route; any other waits in `parked`.
    fn attach(&mut self, query: QueryId, chan: Weak<SubChannel>, known: bool) {
        self.parked
            .retain(|(q, c)| *q != query && c.strong_count() > 0);
        let i = query.index();
        if i < self.routes.len() || known {
            if i >= self.routes.len() {
                self.grow(i);
            }
            self.routes[i].chan = Some(chan);
        } else {
            self.parked.push((query, chan));
        }
    }

    /// After a plan swap: routes the parked subscriptions whose query the
    /// new plan knows.
    fn unpark(&mut self, plan: &PlanGraph) {
        for (query, chan) in std::mem::take(&mut self.parked) {
            self.attach(query, chan, plan_knows(plan, query));
        }
    }

    /// Routes one owned result.
    fn route(&mut self, query: QueryId, tuple: Tuple) {
        if self.count(query) {
            self.routes[query.index()].pending.push(tuple);
        } else {
            self.unclaimed.push((query, tuple));
        }
    }

    /// The delivery point: counts every touched query's results, records
    /// their latency when `mark` holds a fresh ingest mark (taking it),
    /// and moves each `pending` into its subscription under one lock.
    fn hand_over(&mut self, mark: &mut Option<Instant>) {
        if self.touched.is_empty() {
            return;
        }
        let sample = mark.take().map(|m| m.elapsed().as_nanos() as u64);
        for i in self.touched.drain(..) {
            let route = &mut self.routes[i as usize];
            let n = std::mem::take(&mut route.fresh);
            if crate::stats::STATS_COMPILED {
                route.lat.note_emits(n);
                if let Some(ns) = sample {
                    route.lat.record_n(ns, n);
                }
            }
            if route.pending.is_empty() {
                continue;
            }
            match route.chan.as_ref().and_then(Weak::upgrade) {
                Some(chan) => chan
                    .buf
                    .lock()
                    .expect("subscription poisoned")
                    .extend(route.pending.drain(..)),
                // Dropped on another thread since the tap checked it.
                None => self
                    .unclaimed
                    .extend(route.pending.drain(..).map(|t| (QueryId(i), t))),
            }
        }
    }

    /// Outside a delivery point nothing waits in `pending`.
    fn debug_assert_idle(&self) {
        debug_assert!(
            self.touched.is_empty() && self.routes.iter().all(|r| r.pending.is_empty()),
            "results stranded between tap and hand-over"
        );
    }
}

fn plan_knows(plan: &PlanGraph, query: QueryId) -> bool {
    plan.query_outputs().iter().any(|&(q, _)| q == query)
}

impl QuerySink for Delivery {
    fn on_result(&mut self, query: QueryId, tuple: &Tuple) {
        self.route(query, tuple.clone());
    }

    /// A whole tap at once: every query is counted first, and when none
    /// of them is claimed — the catch-all case — the results are appended
    /// with one `extend` instead of one push per query.
    fn on_results(&mut self, queries: &[QueryId], tuple: &Tuple) {
        let mut claimed = false;
        for &q in queries {
            claimed |= self.count(q);
        }
        if !claimed {
            self.unclaimed
                .extend(queries.iter().map(|&q| (q, tuple.clone())));
            return;
        }
        for &q in queries {
            let route = &mut self.routes[q.index()];
            if route.live() {
                route.pending.push(tuple.clone());
            } else {
                self.unclaimed.push((q, tuple.clone()));
            }
        }
    }
}

/// A handle to one query's result stream (from [`Session::subscribe`]).
///
/// Results the session delivers for this query land here instead of in
/// [`Session::collect_all`]'s catch-all. The session hands them over
/// once per delivery point — one lock per subscription, however many
/// results the point carries. Drain them with [`Subscription::drain`] or
/// iterate the handle directly (the iterator is non-blocking: it ends
/// when the buffer is currently empty and resumes yielding once more
/// results are delivered).
///
/// **Unsubscribing** is dropping the handle (or calling the explicit
/// [`Subscription::unsubscribe`]): the query's further results go back
/// to the catch-all, in production order among the other queries'. At
/// most one subscription per query is live at a time — a newer
/// [`Session::subscribe`] for the same query supersedes the old handle,
/// which keeps what it already received but gets nothing new.
#[must_use = "dropping a subscription unsubscribes it; hold it to receive results"]
pub struct Subscription {
    chan: Arc<SubChannel>,
}

impl Subscription {
    /// The subscribed query.
    pub fn query(&self) -> QueryId {
        self.chan.query
    }

    /// Takes every result delivered since the last drain, in delivery
    /// order.
    pub fn drain(&mut self) -> Vec<Tuple> {
        std::mem::take(&mut *self.chan.buf.lock().expect("subscription poisoned")).into()
    }

    /// Takes the oldest undrained result, if one is buffered.
    pub fn try_next(&mut self) -> Option<Tuple> {
        self.chan
            .buf
            .lock()
            .expect("subscription poisoned")
            .pop_front()
    }

    /// Currently buffered (undrained) result count.
    pub fn len(&self) -> usize {
        self.chan.buf.lock().expect("subscription poisoned").len()
    }

    /// Whether nothing is currently buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Explicit unsubscribe — equivalent to dropping the handle: the
    /// query's further results go to [`Session::collect_all`].
    pub fn unsubscribe(self) {}
}

impl Iterator for Subscription {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        self.try_next()
    }
}

enum Backend {
    /// The single-threaded engine, run on the caller's thread: the
    /// executor (boxed: it embeds the whole compiled plan) and whether
    /// [`EventRuntime::finish`] ended its lifecycle. The session passes
    /// the executor its [`Delivery`] router as the sink.
    Local {
        exec: Box<ExecutablePlan>,
        finished: bool,
    },
    /// Boxed too: the pool carries routing state, staging buffers, and a
    /// flight-recorder ring.
    Streaming(Box<StreamingShardedRuntime>),
}

impl Backend {
    /// Barrier on a *live* engine — the mid-stream delivery point.
    /// Returns the pool's merged output since the last barrier (worker 0
    /// first, in `(ts, query)` order); the local engine routes inline, so
    /// it returns nothing. Returns the typed [`RumorError::Finished`]
    /// after `finish`, like every other lifecycle call.
    fn barrier(&mut self) -> Result<Vec<(QueryId, Tuple)>> {
        match self {
            // The liveness check is all there is on the engine whose
            // barrier is free.
            Backend::Local { finished: true, .. } => Err(RumorError::finished("flush")),
            Backend::Local { .. } => Ok(Vec::new()),
            // The streaming sink handoff is itself a drain barrier (queue
            // FIFO + blocking recv) — one cross-worker round-trip; a
            // separate flush here would pay a second one.
            Backend::Streaming(rt) => {
                if rt.is_finished() {
                    return Err(RumorError::finished("flush"));
                }
                Ok(rt.drain_sink()?.results)
            }
        }
    }
}

/// One execution session over the shared plan: an engine (selected by
/// [`SessionBuilder`]) plus the per-query result-delivery layer.
///
/// `Session` itself implements [`EventRuntime`], so generic drivers treat
/// it exactly like the bare engines; on top of the trait it adds:
///
/// * [`Session::subscribe`] — a [`Subscription`] receiving exactly one
///   query's results;
/// * [`Session::collect_all`] — the catch-all for results no live
///   subscription claimed;
/// * [`Session::update_plan`] (via the trait) — live query add/remove
///   with operator state carried across.
///
/// ## When results are delivered
///
/// Results surface to subscriptions and the catch-all at *delivery
/// points*: at the end of every push call for the single-threaded
/// session (and after every 1024-event slice of a large `push_batch`, so
/// a consumer on another thread sees results while the batch runs), and
/// at every [`EventRuntime::flush`] /
/// [`EventRuntime::finish`] barrier for the parallel sessions (worker
/// sinks are merged deterministically at the barrier — worker 0 first,
/// then `(ts, query)`-ordered within the barrier epoch). `flush()` is
/// therefore the portable "make results visible now" call.
///
/// Each result is routed once, as it is produced: the single-threaded
/// engine writes straight into the session's per-query route table, and
/// the pool's merged barrier output goes through the same table. A
/// delivery point then hands each subscribed query's results to its
/// [`Subscription`] in one step. Unclaimed results reach the catch-all in
/// production order across queries.
///
/// ## Results produced before the first subscriber
///
/// A subscription receives exactly the results *delivered after it was
/// created*. Anything delivered earlier — including everything produced
/// while no subscriber existed — stays in the catch-all, retrievable via
/// [`Session::collect_all`]; it is never retroactively moved. To see a
/// query's entire output through its subscription, subscribe before
/// pushing events. (For the parallel sessions, results of *pushed but
/// not yet flushed* events are delivered at the next barrier, so a
/// subscription created before that barrier still receives them.)
pub struct Session {
    backend: Backend,
    names: HashMap<String, QueryId>,
    /// Per-query routes, the catch-all, and per-query emitted/latency
    /// accumulators (compact [`LatAcc`]s that expand to full
    /// [`Histogram`]s only when a snapshot is assembled).
    delivery: Delivery,
    /// The plan the backend currently runs (kept in step by
    /// [`EventRuntime::update_plan`]) — what [`Session::stats`] attributes
    /// sharing against and [`Session::explain`] renders.
    plan: PlanGraph,
    /// A sampled ingest timestamp not yet measured: one `push` in
    /// [`TIME_SAMPLE_EVERY`] (every batch entry point) takes an
    /// `Instant`, and the next delivery point that hands anything over
    /// takes it back, reads the clock once, and records that latency for
    /// every result it delivers — no clock read per event.
    ingest_mark: Option<Instant>,
    /// `push` calls seen — the sampling phase counter.
    push_count: u64,
    /// Flush-barrier latency (every [`EventRuntime::flush`] and the final
    /// [`EventRuntime::finish`]), one sample per barrier.
    flush_hist: Histogram,
    /// [`EventRuntime::update_plan`] epoch latency (quiesce + install +
    /// resume), one sample per successful epoch.
    update_hist: Histogram,
    /// Session-level flight recorder: plan-swap phases and caller notes
    /// ([`Session::trace_event`]). Merged with the executor- and
    /// runtime-level recorders by [`Session::trace`].
    flight: TraceRing,
}

impl Session {
    /// Subscribes to one query's results. Supersedes any previous live
    /// subscription for the same query (see [`Subscription`]). An id the
    /// session's plan does not know yet — e.g. a query added live whose
    /// plan has not been installed with [`EventRuntime::update_plan`] —
    /// starts receiving once an `update_plan` installs it.
    pub fn subscribe(&mut self, query: QueryId) -> Subscription {
        self.delivery.debug_assert_idle();
        let chan = Arc::new(SubChannel {
            query,
            buf: Mutex::new(VecDeque::new()),
        });
        let known = plan_knows(&self.plan, query);
        self.delivery.attach(query, Arc::downgrade(&chan), known);
        Subscription { chan }
    }

    /// [`Session::subscribe`] by registered query name (`QUERY name AS
    /// ...`), resolved against the names known when the session was
    /// built. Queries added live afterwards are subscribed by the id
    /// their [`rumor_core::Integration`] reports.
    pub fn subscribe_named(&mut self, name: &str) -> Result<Subscription> {
        let query = self
            .names
            .get(name)
            .copied()
            .ok_or_else(|| RumorError::unknown(format!("query `{name}`")))?;
        Ok(self.subscribe(query))
    }

    /// Drains every result delivered so far that no live subscription
    /// claimed, in delivery order. This is the whole-plan escape hatch —
    /// the moral successor of handing one monolithic sink to every push
    /// call. Reflects deliveries up to the most recent delivery point
    /// (see the type docs); call [`EventRuntime::flush`] first to force
    /// one.
    pub fn collect_all(&mut self) -> Vec<(QueryId, Tuple)> {
        self.delivery.debug_assert_idle();
        std::mem::take(&mut self.delivery.unclaimed)
    }

    /// Source events accepted so far.
    pub fn events_in(&self) -> u64 {
        match &self.backend {
            Backend::Local { exec, .. } => exec.events_in,
            Backend::Streaming(rt) => rt.events_in(),
        }
    }

    /// Worker count of the underlying engine (1 for single-threaded).
    pub fn workers(&self) -> usize {
        match &self.backend {
            Backend::Local { .. } => 1,
            Backend::Streaming(rt) => rt.workers(),
        }
    }

    /// The partition-routing scheme in force — `None` for the
    /// single-threaded session, which routes nothing.
    pub fn scheme(&self) -> Option<&PartitionScheme> {
        match &self.backend {
            Backend::Local { .. } => None,
            Backend::Streaming(rt) => Some(rt.scheme()),
        }
    }

    /// Pushes one channel tuple on a channel-group source (Workload 3's
    /// input shape). Single-threaded sessions only: the partition router
    /// has no channel routes, so parallel sessions reject this.
    pub fn push_channel(
        &mut self,
        source: SourceId,
        tuple: Tuple,
        membership: Membership,
    ) -> Result<()> {
        let exec = match &mut self.backend {
            Backend::Local { finished: true, .. } => {
                return Err(RumorError::finished("push_channel"))
            }
            Backend::Local { exec, .. } => exec,
            Backend::Streaming(_) => {
                return Err(RumorError::exec(
                    "channel input requires a single-threaded session (omit workers)".to_string(),
                ))
            }
        };
        let res = exec.push_channel(source, tuple, membership, &mut self.delivery);
        self.delivery.hand_over(&mut self.ingest_mark);
        res
    }

    /// The pool's delivery point: routes a barrier's merged output
    /// through the same table the local engine writes into, then hands
    /// it over.
    fn deliver(&mut self, results: Vec<(QueryId, Tuple)>) {
        for (query, tuple) in results {
            self.delivery.route(query, tuple);
        }
        self.delivery.hand_over(&mut self.ingest_mark);
    }

    /// A consistent snapshot of every runtime counter the session keeps:
    /// per-m-op dispatch counters and state sizes, queue pressure and
    /// barrier latencies, per-query delivery counts, and per-query sharing
    /// attribution against the current plan.
    ///
    /// On a live parallel session this is itself a barrier-consistent
    /// read: staged deliveries are dispatched and each worker reports in
    /// queue order, so the counters reflect every event accepted before
    /// the call. After [`EventRuntime::finish`] the final counters stay
    /// readable. Snapshots are plain data — diff two with
    /// [`StatsSnapshot::diff`] to meter an interval, or serialize with
    /// [`StatsSnapshot::to_json`].
    pub fn stats(&mut self) -> Result<StatsSnapshot> {
        let (engine, report): (&'static str, ExecStatsReport) = match &mut self.backend {
            Backend::Local { exec, .. } => ("local", exec.stats_report()),
            Backend::Streaming(rt) => ("streaming", rt.exec_stats()?),
        };
        let runtime = RuntimeStats {
            queue_depth_hwm: match &self.backend {
                Backend::Streaming(rt) => rt.queue_depth_hwm().to_vec(),
                _ => Vec::new(),
            },
            blocking_sends: match &self.backend {
                Backend::Streaming(rt) => rt.blocking_sends(),
                _ => 0,
            },
            flush: self.flush_hist.clone(),
            update: self.update_hist.clone(),
        };
        // Query rows come from the plan's registration order — not from
        // the route table — so zero-emit queries appear and the snapshot
        // shape is identical across engines.
        let queries = self
            .plan
            .query_outputs()
            .iter()
            .map(|&(q, _)| {
                let lat = self.delivery.routes.get(q.index()).map(|r| &r.lat);
                QueryStats {
                    query: q,
                    emitted: lat.map_or(0, LatAcc::emitted),
                    latency: lat.map(LatAcc::to_histogram).unwrap_or_default(),
                }
            })
            .collect();
        let sharing = sharing_attribution(&self.plan, &report.ops);
        Ok(StatsSnapshot {
            engine,
            workers: self.workers(),
            events_in: self.events_in(),
            ops: report.ops,
            runtime,
            queries,
            sharing,
        })
    }

    /// Renders the optimized plan annotated with live runtime counters,
    /// followed by runtime pressure counters and per-query
    /// sharing attribution — the paper's benefit metric (events a shared
    /// m-op absorbs once instead of once per subscribed query).
    ///
    /// # Examples
    ///
    /// ```
    /// use rumor_core::OptimizerConfig;
    /// use rumor_engine::{EventRuntime, Rumor};
    /// use rumor_types::Tuple;
    ///
    /// let mut rumor = Rumor::new(OptimizerConfig::default());
    /// rumor.execute(
    ///     "CREATE STREAM s (a INT, b INT);
    ///      QUERY q0 AS SELECT * FROM s WHERE a = 0;
    ///      QUERY q1 AS SELECT * FROM s WHERE a = 1;",
    /// )?;
    /// rumor.optimize()?;
    /// let mut session = rumor.session().build()?;
    /// let src = rumor.source_id("s").unwrap();
    /// for ts in 0..10 {
    ///     session.push(src, Tuple::ints(ts, &[(ts % 2) as i64, 1]))?;
    /// }
    /// session.finish()?;
    /// let text = session.explain()?;
    /// assert!(text.contains("engine=local"));
    /// assert!(text.contains("mop op"), "annotated plan listing:\n{text}");
    /// assert!(text.contains("fan-in"), "shared m-op fan-in:\n{text}");
    /// assert!(text.contains("events saved"), "benefit metric:\n{text}");
    /// # Ok::<(), rumor_types::RumorError>(())
    /// ```
    pub fn explain(&mut self) -> Result<String> {
        let snap = self.stats()?;
        let mut by_op = HashMap::new();
        for op in &snap.ops {
            by_op.insert(op.mop, op);
        }
        let shares: HashMap<_, _> = snap.time_shares().into_iter().collect();
        let plan = &self.plan;
        let listing = render_annotated(plan, |id| {
            by_op.get(&id).map(|op| {
                let mut s = format!(
                    "in={} out={} sel={:.3} calls={}ev+{}b state={}",
                    op.events_in,
                    op.events_out,
                    op.selectivity(),
                    op.event_calls,
                    op.batch_calls,
                    op.state_size
                );
                let fan_in = plan.mop(id).members.len();
                if fan_in > 1 {
                    let _ = write!(s, " fan-in={fan_in}");
                }
                if let Some(&share) = shares.get(&id) {
                    let _ = write!(s, " time={:.1}% {}", share * 100.0, share_bar(share, 10));
                }
                s
            })
        });
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== plan (engine={}, workers={}, events_in={}) ==",
            snap.engine, snap.workers, snap.events_in
        );
        out.push_str(&listing);
        let _ = writeln!(out, "== runtime ==");
        let _ = writeln!(
            out,
            "flush_barriers={} ({}us total, p99={}us), update_epochs={} ({}us total, p99={}us), blocking_sends={}",
            snap.runtime.flush.count(),
            snap.runtime.flush.total() / 1_000,
            snap.runtime.flush.p99() / 1_000,
            snap.runtime.update.count(),
            snap.runtime.update.total() / 1_000,
            snap.runtime.update.p99() / 1_000,
            snap.runtime.blocking_sends
        );
        if !snap.runtime.queue_depth_hwm.is_empty() {
            let hwm: Vec<String> = snap
                .runtime
                .queue_depth_hwm
                .iter()
                .map(u64::to_string)
                .collect();
            let _ = writeln!(out, "queue_depth_hwm=[{}]", hwm.join(", "));
        }
        let _ = writeln!(out, "== sharing ==");
        for q in &snap.queries {
            let lat = if q.latency.is_empty() {
                String::new()
            } else {
                format!(
                    " (latency p50={}us p99={}us)",
                    q.latency.p50() / 1_000,
                    q.latency.p99() / 1_000
                )
            };
            let share = snap.sharing.iter().find(|s| s.query == q.query);
            match share.filter(|s| !s.shared.is_empty()) {
                Some(s) => {
                    let ops: Vec<String> = s
                        .shared
                        .iter()
                        .map(|r| format!("{} (fan-in {})", r.mop, r.fan_in))
                        .collect();
                    let saved_time = if s.nanos_saved > 0 {
                        format!(" (~{}us wall)", s.nanos_saved / 1_000)
                    } else {
                        String::new()
                    };
                    let _ = writeln!(
                        out,
                        "{}: emitted={}{}, shares {} — events saved vs unshared: {}{}",
                        q.query,
                        q.emitted,
                        lat,
                        ops.join(", "),
                        s.events_saved,
                        saved_time
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{}: emitted={}{}, no shared m-ops",
                        q.query, q.emitted, lat
                    );
                }
            }
        }
        let total_time = snap.total_nanos_saved();
        let _ = writeln!(
            out,
            "total events saved: {}{}",
            snap.total_events_saved(),
            if total_time > 0 {
                format!(" (~{}us wall)", total_time / 1_000)
            } else {
                String::new()
            }
        );
        Ok(out)
    }

    /// Journals one caller-level event into the session's flight
    /// recorder — e.g. a declined merge from an
    /// [`rumor_core::Integration`]'s rewrite-trace notes, or any
    /// application milestone worth seeing on the runtime's timeline.
    /// No-op under `stats-off`.
    pub fn trace_event(&mut self, kind: &'static str, detail: impl Into<String>) {
        if crate::stats::STATS_COMPILED {
            self.flight.record(kind, detail.into());
        }
    }

    /// Dumps the merged flight-recorder timeline as JSON lines (one
    /// object per line, sorted by timestamp): session-level events
    /// (plan-swap phases, [`Session::trace_event`] notes) and
    /// runtime-level events (backpressure stalls and swap phases on the
    /// streaming pool). Both recorders share one process-wide clock
    /// ([`crate::stats::trace_clock_nanos`]), so cross-thread ordering is
    /// coherent. Bounded: each recorder keeps its most recent events
    /// (oldest evicted), so the dump is a flight recorder, not a full
    /// log.
    ///
    /// Recording is compiled out under `stats-off`; the dump is then
    /// empty but the call works.
    pub fn trace(&mut self) -> Result<String> {
        let mut events: Vec<TraceEvent> = self.flight.events().cloned().collect();
        if let Backend::Streaming(rt) = &self.backend {
            events.extend(rt.trace_events());
        }
        events.sort_by_key(|e| e.at_nanos);
        Ok(trace_json_lines(&events))
    }
}

/// Events per delivery slice of a single-threaded session's `push_batch`.
/// Matches the executor's internal batch chunk, so slicing never splits a
/// dispatch unit.
const LOCAL_DELIVERY_CHUNK: usize = 1024;

/// Takes a fresh ingest mark — the batch entry points always mark (one
/// clock read amortized over the whole batch).
fn mark_ingest(mark: &mut Option<Instant>) {
    if crate::stats::STATS_COMPILED {
        *mark = Some(Instant::now());
    }
}

impl EventRuntime for Session {
    fn push(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        if crate::stats::STATS_COMPILED {
            // Sampled ingest mark: one clock read in TIME_SAMPLE_EVERY
            // pushes keeps the latency histograms honest without a
            // per-event `Instant::now` on the hottest path.
            if self.push_count & (TIME_SAMPLE_EVERY - 1) == 0 {
                self.ingest_mark = Some(Instant::now());
            }
            self.push_count += 1;
        }
        let exec = match &mut self.backend {
            Backend::Local { finished: true, .. } => return Err(RumorError::finished("push")),
            Backend::Local { exec, .. } => exec,
            Backend::Streaming(rt) => return rt.push(source, tuple),
        };
        // Hand over even on error: what the call produced is delivered.
        let res = exec.push(source, tuple, &mut self.delivery);
        self.delivery.hand_over(&mut self.ingest_mark);
        res
    }

    fn push_batch(&mut self, events: &[(SourceId, Tuple)]) -> Result<()> {
        mark_ingest(&mut self.ingest_mark);
        let exec = match &mut self.backend {
            Backend::Local { finished: true, .. } => {
                return Err(RumorError::finished("push_batch"))
            }
            Backend::Local { exec, .. } => exec,
            Backend::Streaming(rt) => return rt.push_batch(events),
        };
        // One delivery point per slice: results reach subscribers every
        // LOCAL_DELIVERY_CHUNK events, while the slice is still
        // cache-resident, and `pending` never holds more than one slice.
        for chunk in events.chunks(LOCAL_DELIVERY_CHUNK) {
            let res = exec.push_batch(chunk, &mut self.delivery);
            self.delivery.hand_over(&mut self.ingest_mark);
            res?;
        }
        Ok(())
    }

    fn push_batch_shared(&mut self, events: Arc<Vec<(SourceId, Tuple)>>) -> Result<()> {
        match &mut self.backend {
            Backend::Local { .. } => self.push_batch(&events),
            Backend::Streaming(rt) => {
                mark_ingest(&mut self.ingest_mark);
                rt.push_batch_shared(events)
            }
        }
    }

    fn flush(&mut self) -> Result<()> {
        // The backend barrier is the flush (for the pool, the sink
        // handoff), so no separate flush round-trip.
        let t = Instant::now();
        let results = self.backend.barrier()?;
        self.deliver(results);
        // Barriers are control-plane (rare by construction), so their
        // latency histogram records even under `stats-off` — preserving
        // the barrier-count semantics the scalar counters always had.
        self.flush_hist.record(t.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        let t = Instant::now();
        let results = match &mut self.backend {
            Backend::Local { finished: true, .. } => return Err(RumorError::finished("finish")),
            Backend::Local { finished, .. } => {
                *finished = true;
                Vec::new()
            }
            Backend::Streaming(rt) => {
                rt.finish()?;
                rt.take_final_sink().results
            }
        };
        self.deliver(results);
        self.flush_hist.record(t.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn update_plan(&mut self, plan: &PlanGraph) -> Result<()> {
        let t = Instant::now();
        if crate::stats::STATS_COMPILED {
            self.flight.record(
                "swap_begin",
                format!("quiesce for plan with {} m-ops", plan.mop_count()),
            );
        }
        let swapped = match &mut self.backend {
            Backend::Local { finished: true, .. } => Err(RumorError::finished("update_plan")),
            Backend::Local { exec, .. } => exec.apply_delta(plan),
            Backend::Streaming(rt) => rt.update_plan(plan),
        };
        if let Err(e) = swapped {
            if crate::stats::STATS_COMPILED {
                self.flight.record("swap_refused", e.to_string());
            }
            return Err(e);
        }
        let nanos = t.elapsed().as_nanos() as u64;
        self.update_hist.record(nanos);
        if crate::stats::STATS_COMPILED {
            self.flight.record(
                "swap_complete",
                format!("installed and resumed in {}us", nanos / 1_000),
            );
        }
        self.plan = plan.clone();
        self.delivery.unpark(&self.plan);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rumor;
    use rumor_core::OptimizerConfig;

    fn engine() -> Rumor {
        let mut rumor = Rumor::new(OptimizerConfig::default());
        rumor
            .execute(
                "CREATE STREAM s (a INT, b INT);
                 QUERY q0 AS SELECT * FROM s WHERE a = 0;
                 QUERY q1 AS SELECT * FROM s WHERE a = 1;",
            )
            .unwrap();
        rumor.optimize().unwrap();
        rumor
    }

    fn events(n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|ts| Tuple::ints(ts, &[(ts % 3) as i64, ts as i64]))
            .collect()
    }

    /// Every engine configuration the builder can produce.
    fn all_configs() -> Vec<SessionConfig> {
        vec![
            SessionConfig::default(),
            SessionConfig {
                workers: Some(2),
                streaming: None,
            },
            SessionConfig {
                workers: Some(2),
                streaming: Some(StreamingConfig {
                    batch_size: 4,
                    queue_depth: 2,
                }),
            },
        ]
    }

    #[test]
    fn builder_rejects_contradictory_configs() {
        let rumor = engine();
        assert!(rumor
            .session()
            .streaming(StreamingConfig::default())
            .build()
            .is_err());
        assert!(rumor.session().workers(0).build().is_err());
    }

    #[test]
    fn lifecycle_misuse_returns_the_same_typed_error_on_every_engine() {
        let rumor = engine();
        let s = rumor.source_id("s").unwrap();
        for cfg in all_configs() {
            let mut session = rumor.session().config(cfg.clone()).build().unwrap();
            session.push(s, Tuple::ints(0, &[0, 0])).unwrap();
            session.finish().unwrap();
            // Push-after-finish, flush-after-finish, double-finish,
            // update-after-finish: all the *same* typed error.
            for err in [
                session.push(s, Tuple::ints(1, &[0, 0])),
                session.push_batch(&[]),
                session.push_batch_shared(Arc::new(Vec::new())),
                session.flush(),
                session.finish(),
                session.update_plan(rumor.plan()),
            ] {
                assert!(
                    matches!(err, Err(RumorError::Finished(_))),
                    "{cfg:?}: {err:?}"
                );
            }
            // The already-delivered results stay retrievable.
            assert_eq!(session.collect_all().len(), 1);
        }
    }

    #[test]
    fn subscriptions_route_per_query_on_every_engine() {
        let rumor = engine();
        let s = rumor.source_id("s").unwrap();
        let q0 = rumor.query_id("q0").unwrap();
        let q1 = rumor.query_id("q1").unwrap();
        for cfg in all_configs() {
            let mut session = rumor.session().config(cfg.clone()).build().unwrap();
            let mut sub = session.subscribe(q0);
            let batch: Vec<_> = events(30).into_iter().map(|t| (s, t)).collect();
            session.push_batch(&batch).unwrap();
            session.finish().unwrap();
            let got = sub.drain();
            assert_eq!(got.len(), 10, "{cfg:?}");
            assert!(got.iter().all(|t| t.ts % 3 == 0));
            let rest = session.collect_all();
            assert!(rest.iter().all(|(q, _)| *q == q1), "{cfg:?}: {rest:?}");
            assert_eq!(rest.len(), 10, "{cfg:?}");
        }
    }

    #[test]
    fn results_before_first_subscriber_stay_in_collect_all() {
        let rumor = engine();
        let s = rumor.source_id("s").unwrap();
        let q0 = rumor.query_id("q0").unwrap();
        let mut session = rumor.session().build().unwrap();
        session.push(s, Tuple::ints(0, &[0, 0])).unwrap();
        session.flush().unwrap();
        // Everything delivered so far predates the subscription: it is
        // never retroactively moved.
        let mut sub = session.subscribe(q0);
        session.push(s, Tuple::ints(3, &[0, 1])).unwrap();
        session.finish().unwrap();
        assert_eq!(sub.drain().len(), 1);
        assert_eq!(session.collect_all().len(), 1);
    }

    #[test]
    fn dropping_a_subscription_unsubscribes() {
        let rumor = engine();
        let s = rumor.source_id("s").unwrap();
        let q0 = rumor.query_id("q0").unwrap();
        let mut session = rumor.session().build().unwrap();
        let sub = session.subscribe(q0);
        drop(sub);
        session.push(s, Tuple::ints(0, &[0, 0])).unwrap();
        session.finish().unwrap();
        assert_eq!(session.collect_all().len(), 1, "routed to the catch-all");
    }

    #[test]
    fn newer_subscription_supersedes_older() {
        let rumor = engine();
        let s = rumor.source_id("s").unwrap();
        let q0 = rumor.query_id("q0").unwrap();
        let mut session = rumor.session().build().unwrap();
        let mut old = session.subscribe(q0);
        session.push(s, Tuple::ints(0, &[0, 0])).unwrap();
        let mut new = session.subscribe(q0);
        session.push(s, Tuple::ints(3, &[0, 1])).unwrap();
        session.finish().unwrap();
        // The old handle keeps what it already received, nothing more.
        assert_eq!(old.drain().len(), 1);
        assert_eq!(new.drain().len(), 1);
        assert!(session.collect_all().is_empty());
    }

    #[test]
    fn unknown_query_ids_do_not_size_the_route_table() {
        let rumor = engine();
        let s = rumor.source_id("s").unwrap();
        let q0 = rumor.query_id("q0").unwrap();
        for cfg in all_configs() {
            let mut session = rumor.session().config(cfg.clone()).build().unwrap();
            let mut foreign = session.subscribe(QueryId(u32::MAX));
            let _stale = session.subscribe(QueryId(1 << 20));
            assert!(session.delivery.routes.len() <= 2, "{cfg:?}");
            let mut sub = session.subscribe(q0);
            let batch: Vec<_> = events(9).into_iter().map(|t| (s, t)).collect();
            session.push_batch(&batch).unwrap();
            session.finish().unwrap();
            assert!(foreign.drain().is_empty(), "{cfg:?}");
            assert_eq!(sub.drain().len(), 3, "{cfg:?}");
            assert_eq!(session.collect_all().len(), 3, "{cfg:?}");
        }
    }

    #[test]
    fn subscription_before_update_plan_receives_once_installed() {
        let mut rumor = engine();
        let s = rumor.source_id("s").unwrap();
        let mut session = rumor.session().build().unwrap();
        let (added, _) = rumor
            .execute_live("QUERY q2 AS SELECT * FROM s WHERE a = 2;")
            .unwrap();
        // Subscribed while the session still runs the old plan.
        let mut sub = session.subscribe(added[0]);
        session.update_plan(rumor.plan()).unwrap();
        let batch: Vec<_> = events(9).into_iter().map(|t| (s, t)).collect();
        session.push_batch(&batch).unwrap();
        session.finish().unwrap();
        assert_eq!(sub.drain().len(), 3);
        assert!(session.collect_all().iter().all(|(q, _)| *q != added[0]));
    }

    #[test]
    fn large_batches_hand_over_per_slice() {
        let rumor = engine();
        let s = rumor.source_id("s").unwrap();
        let q0 = rumor.query_id("q0").unwrap();
        let mut session = rumor.session().build().unwrap();
        let mut sub = session.subscribe(q0);
        let n = 3 * LOCAL_DELIVERY_CHUNK as u64 + 7;
        let batch: Vec<_> = events(n).into_iter().map(|t| (s, t)).collect();
        session.push_batch(&batch).unwrap();
        let got = sub.drain();
        assert_eq!(got.len() as u64, n.div_ceil(3));
        assert!(got.windows(2).all(|w| w[0].ts < w[1].ts), "in order");
        // Only the first slice's delivery carries the batch's ingest mark.
        if crate::stats::STATS_COMPILED {
            let snap = session.stats().unwrap();
            let row = snap.queries.iter().find(|r| r.query == q0).unwrap();
            assert_eq!(row.emitted, n.div_ceil(3));
            assert_eq!(row.latency.count(), LOCAL_DELIVERY_CHUNK.div_ceil(3) as u64);
        }
    }

    #[test]
    fn subscription_iterates_nonblocking() {
        let rumor = engine();
        let s = rumor.source_id("s").unwrap();
        let mut session = rumor.session().build().unwrap();
        let mut sub = session.subscribe_named("q1").unwrap();
        assert!(session.subscribe_named("nope").is_err());
        let batch: Vec<_> = events(9).into_iter().map(|t| (s, t)).collect();
        session.push_batch(&batch).unwrap();
        session.flush().unwrap();
        assert_eq!(sub.len(), 3);
        assert!(!sub.is_empty());
        let drained: Vec<Tuple> = sub.by_ref().collect();
        assert_eq!(drained.len(), 3);
        assert!(sub.next().is_none(), "iterator ends when buffer is empty");
        session.finish().unwrap();
    }

    #[test]
    fn stats_shape_is_identical_across_engines() {
        let rumor = engine();
        let s = rumor.source_id("s").unwrap();
        let q0 = rumor.query_id("q0").unwrap();
        let q1 = rumor.query_id("q1").unwrap();
        let mut shapes: Vec<(Vec<_>, Vec<_>, Vec<_>)> = Vec::new();
        for cfg in all_configs() {
            let mut session = rumor.session().config(cfg.clone()).build().unwrap();
            // q0 subscribed, q1 on the catch-all: both routes are counted.
            let _sub = session.subscribe(q0);
            let batch: Vec<_> = events(30).into_iter().map(|t| (s, t)).collect();
            session.push_batch(&batch[..17]).unwrap();
            session.push_batch(&batch[17..]).unwrap();
            session.finish().unwrap();
            let snap = session.stats().unwrap();
            assert_eq!(snap.events_in, 30, "{cfg:?}");
            if crate::stats::STATS_COMPILED {
                let total_in: u64 = snap.ops.iter().map(|o| o.events_in).sum();
                assert!(total_in >= 30, "{cfg:?}: {total_in}");
                // q0 matches a%3==0 (10 events), q1 matches a%3==1 (10).
                for (q, want) in [(q0, 10), (q1, 10)] {
                    let got = snap.queries.iter().find(|r| r.query == q).unwrap();
                    assert_eq!(got.emitted, want, "{cfg:?} {q}");
                    // Every batch entry point marks ingest, so on a
                    // push_batch-only feed every delivery is sampled.
                    assert_eq!(got.latency.count(), got.emitted, "{cfg:?} {q}");
                }
            }
            // Barrier latency histograms cover the finish barrier (these
            // record even under `stats-off` — control-plane, rare).
            assert!(snap.runtime.flush.count() >= 1, "{cfg:?}");
            assert!(
                snap.runtime.flush.p50() <= snap.runtime.flush.max(),
                "{cfg:?}"
            );
            shapes.push((
                snap.ops.iter().map(|o| o.mop).collect(),
                snap.queries.iter().map(|r| r.query).collect(),
                snap.queries.iter().map(|r| r.emitted).collect(),
            ));
        }
        // Same plan → same snapshot shape and per-query emitted counts on
        // every engine.
        for shape in &shapes[1..] {
            assert_eq!(shape, &shapes[0]);
        }
    }

    #[test]
    fn streaming_stats_work_live_and_after_finish() {
        let rumor = engine();
        let s = rumor.source_id("s").unwrap();
        let mut session = rumor
            .session()
            .workers(2)
            .streaming(StreamingConfig {
                batch_size: 4,
                queue_depth: 2,
            })
            .build()
            .unwrap();
        let batch: Vec<_> = events(40).into_iter().map(|t| (s, t)).collect();
        session.push_batch(&batch).unwrap();
        // Live snapshot: a barrier-consistent read on a running pool.
        let live = session.stats().unwrap();
        assert_eq!(live.engine, "streaming");
        assert_eq!(live.workers, 2);
        assert_eq!(live.events_in, 40);
        if crate::stats::STATS_COMPILED {
            let total_in: u64 = live.ops.iter().map(|o| o.events_in).sum();
            assert!(total_in >= 40, "{total_in}");
        }
        session.finish().unwrap();
        let fin = session.stats().unwrap();
        assert_eq!(fin.events_in, 40);
        assert_eq!(
            fin.ops.iter().map(|o| o.mop).collect::<Vec<_>>(),
            live.ops.iter().map(|o| o.mop).collect::<Vec<_>>()
        );
        // The tiny queue saw at least one dispatch; the high-water mark
        // is recorded per worker.
        assert_eq!(fin.runtime.queue_depth_hwm.len(), 2);
        let diff = fin.diff(&live);
        assert_eq!(diff.events_in, 0, "all events were in before the barrier");
    }

    #[test]
    fn explain_mentions_sharing_and_counters() {
        let rumor = engine();
        let s = rumor.source_id("s").unwrap();
        let mut session = rumor.session().build().unwrap();
        let batch: Vec<_> = events(12).into_iter().map(|t| (s, t)).collect();
        session.push_batch(&batch).unwrap();
        session.finish().unwrap();
        let text = session.explain().unwrap();
        assert!(text.contains("engine=local"), "{text}");
        assert!(text.contains("mop op"), "{text}");
        assert!(text.contains("== sharing =="), "{text}");
        assert!(text.contains("total events saved:"), "{text}");
        // The two eq-selects on `a` share one σ-index m-op: fan-in shows.
        assert!(text.contains("fan-in"), "{text}");
    }

    #[test]
    fn push_channel_requires_single_threaded_session() {
        let mut rumor = Rumor::new(OptimizerConfig::default());
        let c = rumor
            .add_source_group("C", rumor_types::Schema::ints(2), 3)
            .unwrap();
        // Group member streams are plan-level names; register via the
        // logical-plan path.
        rumor
            .register(&rumor_core::LogicalPlan::source("C.0"))
            .unwrap();
        rumor.optimize().unwrap();
        let mut local = rumor.session().build().unwrap();
        local
            .push_channel(c, Tuple::ints(0, &[1, 2]), Membership::all(3))
            .unwrap();
        local.finish().unwrap();
        assert_eq!(local.collect_all().len(), 1);
        let mut parallel = rumor.session().workers(2).build().unwrap();
        assert!(parallel
            .push_channel(c, Tuple::ints(1, &[1, 2]), Membership::all(3))
            .is_err());
        parallel.finish().unwrap();
    }
}
