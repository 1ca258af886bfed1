//! # RUMOR — Rule-Based Multi-Query Optimization
//!
//! A from-scratch Rust implementation of the RUMOR framework from
//! *Rule-Based Multi-Query Optimization* (Hong, Riedewald, Koch, Gehrke,
//! Demers — EDBT 2009): a stream-processing engine in which **one** query
//! plan implements **all** registered continuous queries, and a rule-based
//! optimizer merges operators that can share state and computation.
//!
//! ## The three RUMOR abstractions (Table 2 of the paper)
//!
//! | traditional          | RUMOR                            |
//! |----------------------|----------------------------------|
//! | physical operator    | physical multi-operator (m-op)   |
//! | transformation rule  | multi-query rule (m-rule)        |
//! | stream               | channel (+ membership component) |
//!
//! ## Quick start
//!
//! One shared plan, many query owners: each owner subscribes to *their*
//! query and receives exactly its results; everything unclaimed lands in
//! the session-wide [`Session::collect_all`] catch-all.
//!
//! ```
//! use rumor::{EventRuntime, OptimizerConfig, Rumor, Tuple};
//!
//! let mut engine = Rumor::new(OptimizerConfig::default());
//! engine
//!     .execute(
//!         "CREATE STREAM sensors (station INT, temp INT);
//!          QUERY hot  AS SELECT * FROM sensors WHERE temp > 35;
//!          QUERY s7   AS SELECT * FROM sensors WHERE station = 7;
//!          QUERY s9   AS SELECT * FROM sensors WHERE station = 9;",
//!     )
//!     .unwrap();
//! // One predicate-indexed m-op now serves all three selections.
//! let trace = engine.optimize().unwrap();
//! assert_eq!(trace.count("s_sigma"), 1);
//!
//! let mut session = engine.session().build().unwrap();
//! let mut hot = session.subscribe_named("hot").unwrap();
//! let src = engine.source_id("sensors").unwrap();
//! session.push(src, Tuple::ints(0, &[7, 40])).unwrap();
//! session.finish().unwrap();
//! assert_eq!(hot.drain().len(), 1);          // `hot` fired for its owner
//! assert_eq!(session.collect_all().len(), 1); // unsubscribed `s7` fired too
//! ```
//!
//! ## Crate map
//!
//! * `rumor-types` — values, tuples, schemas, membership bit vectors.
//! * `rumor-expr` — expressions, predicates, schema maps.
//! * `rumor-core` — plan graph, m-ops, channels, the m-rule optimizer.
//! * `rumor-lang` — the CQL-style + event-pattern query language.
//! * `rumor-ops` — physical implementations of every shared m-op.
//! * `rumor-engine` — the push-based runtime ([`Rumor`] facade, the
//!   [`EventRuntime`] session API).
//! * `rumor-server` — the std-only TCP front door multiplexing many
//!   network clients onto one shared session (see [`server`]).
//! * `rumor-cayuga` — the Cayuga-style automaton baseline engine (§4/§5).
//! * `rumor-workloads` — the paper's benchmark workloads (§5).
//! * `rumor-bench` — regenerates the paper's evaluation figures (§5,
//!   Figures 9–11). Engine throughput is measured by `benchmark/`
//!   against `BENCHMARK.json`.
//!
//! ## One execution API: sessions
//!
//! All execution goes through [`Rumor::session`]: the builder picks the
//! engine, the resulting [`Session`] speaks the uniform [`EventRuntime`]
//! lifecycle (`push` / `push_batch` / `push_batch_shared` / `flush` /
//! `finish` / `update_plan`), and results route to per-query
//! [`Subscription`]s. Every configuration produces identical per-query
//! results — the differential conformance harness (`tests/conformance.rs`)
//! pins that byte-for-byte:
//!
//! * `session().build()?` — the single-threaded push engine.
//! * `session().workers(n).build()?` — the persistent streaming shard
//!   pool ([`StreamingShardedRuntime`] underneath): the shared plan is
//!   cloned across `n` long-lived workers behind bounded queues with
//!   backpressure; tuples are routed by the static partitioning analysis
//!   ([`rumor_core::partition::analyze`]) — round-robin for stateless
//!   components, hashed on consistent keys for key-partitionable ones,
//!   worker 0 for pinned ones; each tuple goes to one worker whole. Tune
//!   with [`SessionBuilder::streaming`] ([`StreamingConfig`]).
//!
//! Both engines run the same compiled plan through one drain, whose
//! granularity is a static function of the plan's shape: a plan whose
//! every m-op is stateless drains [`EventRuntime::push_batch`] input at
//! channel-run granularity; a plan with any stateful m-op runs one event
//! and one tuple at a time, in timestamp order, whichever entry point
//! delivered the events.
//!
//! See the [`SessionBuilder`] docs for when to pick which engine.
//! Subscriptions are delivered at *delivery points* — immediately for
//! the single-threaded session, at `flush`/`finish` barriers for the
//! worker pool — and anything produced while a query had no live
//! subscriber stays retrievable via [`Session::collect_all`].
//!
//! ## Observability
//!
//! Every session keeps always-on runtime counters (compile them out with
//! the engine crate's `stats-off` feature). [`Session::stats`] returns a
//! [`StatsSnapshot`] — per-m-op events in/out and selectivity, dispatch
//! style (batched vs per-event calls), operator state sizes, queue
//! pressure and barrier latencies on the worker pool, per-query
//! delivery counts, and per-query *sharing
//! attribution*: which m-ops each query shares, their fan-in, and the
//! events saved versus running every query on a private plan — the
//! paper's benefit metric. Snapshots are plain data: diff two with
//! [`StatsSnapshot::diff`] to meter an interval, or serialize with
//! [`StatsSnapshot::to_json`]. [`Session::explain`] renders the live
//! plan annotated with the same counters:
//!
//! ```
//! use rumor::{EventRuntime, OptimizerConfig, Rumor, Tuple};
//!
//! let mut engine = Rumor::new(OptimizerConfig::default());
//! engine
//!     .execute(
//!         "CREATE STREAM sensors (station INT, temp INT);
//!          QUERY s7 AS SELECT * FROM sensors WHERE station = 7;
//!          QUERY s9 AS SELECT * FROM sensors WHERE station = 9;",
//!     )
//!     .unwrap();
//! engine.optimize().unwrap();
//! let mut session = engine.session().build().unwrap();
//! let src = engine.source_id("sensors").unwrap();
//! for ts in 0..20 {
//!     session.push(src, Tuple::ints(ts, &[(ts % 3) as i64 + 7, 30])).unwrap();
//! }
//! session.finish().unwrap();
//!
//! let stats = session.stats().unwrap();
//! assert_eq!(stats.events_in, 20);
//! // Both selections ride one shared σ-index m-op: 20 events enter it
//! // once instead of twice — 20 events saved, attributed to each query.
//! assert!(stats.sharing.iter().any(|q| !q.shared.is_empty()));
//! println!("{}", session.explain().unwrap());
//! println!("{}", stats.to_json());
//! ```
//!
//! ### Time domain: latency, per-m-op time share, metering, tracing
//!
//! The same snapshot carries the time domain: per-query ingest→delivery
//! latency [`Histogram`]s (log-bucketed, mergeable, p50/p90/p99/max),
//! flush-barrier and plan-swap epoch latencies, and sampled per-m-op
//! wall-time attribution (one dispatch in [`TIME_SAMPLE_EVERY`] is
//! timed), which `explain` renders as a per-op time-share bar and the
//! sharing attribution converts into *time saved*. For continuous
//! monitoring, a [`Meter`] diffs successive snapshots and emits one JSON
//! line per interval to a pluggable [`MeterSink`]:
//!
//! ```
//! use rumor::{CollectingMeterSink, EventRuntime, Meter, OptimizerConfig, Rumor, Tuple};
//!
//! let mut engine = Rumor::new(OptimizerConfig::default());
//! engine
//!     .execute(
//!         "CREATE STREAM sensors (station INT, temp INT);
//!          QUERY s7 AS SELECT * FROM sensors WHERE station = 7;",
//!     )
//!     .unwrap();
//! engine.optimize().unwrap();
//! let mut session = engine.session().build().unwrap();
//! let src = engine.source_id("sensors").unwrap();
//! let mut meter = Meter::new(CollectingMeterSink::default());
//!
//! // First tick establishes the baseline; each later tick emits the
//! // interval diff as one JSON line.
//! assert!(!meter.tick(session.stats().unwrap()));
//! for ts in 0..10 {
//!     session.push(src, Tuple::ints(ts, &[7, 30])).unwrap();
//! }
//! session.flush().unwrap();
//! assert!(meter.tick(session.stats().unwrap()));
//! let lines = meter.into_sink().lines;
//! assert_eq!(lines.len(), 1);
//! assert!(lines[0].contains("\"events_in\": 10"), "{}", lines[0]);
//! session.finish().unwrap();
//! ```
//!
//! When something *changed* — a swap stalled, backpressure engaged —
//! [`Session::trace`] dumps the bounded flight recorder as JSON lines:
//! timestamped runtime transitions journaled across the session and the
//! streaming pool, merged on one process-wide clock:
//!
//! ```
//! use rumor::{EventRuntime, OptimizerConfig, Rumor, Tuple};
//!
//! let mut engine = Rumor::new(OptimizerConfig::default());
//! engine
//!     .execute(
//!         "CREATE STREAM sensors (station INT, temp INT);
//!          QUERY s7 AS SELECT * FROM sensors WHERE station = 7;",
//!     )
//!     .unwrap();
//! engine.optimize().unwrap();
//! let mut session = engine.session().build().unwrap();
//! let src = engine.source_id("sensors").unwrap();
//! session.push(src, Tuple::ints(0, &[7, 30])).unwrap();
//! // Journal an application milestone onto the same timeline, then add
//! // a query live: the swap phases land in the trace around it.
//! session.trace_event("app_note", "warmup done");
//! engine
//!     .execute("QUERY s9 AS SELECT * FROM sensors WHERE station = 9;")
//!     .unwrap();
//! session.update_plan(engine.plan()).unwrap();
//! session.finish().unwrap();
//! let trace = session.trace().unwrap();
//! if rumor::STATS_COMPILED {
//!     assert!(trace.contains("\"kind\": \"app_note\""), "{trace}");
//!     assert!(trace.contains("\"kind\": \"swap_complete\""), "{trace}");
//! }
//! ```
//!
//! ## Serving sessions over the network
//!
//! The sharing benefit the paper measures grows with the *concurrent
//! query population*, and a realistic population comes from many
//! independent clients. The [`server`] module (crate `rumor-server`)
//! puts one engine + [`Session`] behind a TCP front door: clients speak
//! a small length-prefixed binary protocol (`HELLO` / `REGISTER` /
//! `PUSH` / `FLUSH` / `STATS` / `EXPLAIN` / `BYE`), registrations from
//! any connection integrate into the one shared plan live, and results
//! stream back on each registrant's own connection. One ingest thread
//! owns the session — queries from different tenants share m-ops exactly
//! as if one process had registered them all. Slow consumers shed from
//! their own bounded outbox (reported via `SHED` and the stats
//! envelope), never stalling the engine; shutdown is a graceful drain
//! that delivers every buffered result before `GOODBYE`. The in-crate
//! blocking [`server::Client`] mirrors the embedded session API, and the
//! loopback conformance suite pins server-vs-embedded results
//! byte-for-byte:
//!
//! ```
//! use rumor::server::{Client, Server, ServerConfig};
//! use rumor::{OptimizerConfig, Rumor, Tuple};
//!
//! let mut engine = Rumor::new(OptimizerConfig::default());
//! engine
//!     .execute("CREATE STREAM sensors (station INT, temp INT);")
//!     .unwrap();
//! let server = Server::spawn(engine, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! client.register("s7", "SELECT * FROM sensors WHERE station = 7").unwrap();
//! let src = client.source("sensors").unwrap();
//! client.push(src, Tuple::ints(0, &[7, 30])).unwrap();
//! client.push(src, Tuple::ints(1, &[9, 31])).unwrap();
//! client.flush().unwrap(); // barrier: results now buffered locally
//! assert_eq!(client.drain("s7"), vec![Tuple::ints(0, &[7, 30])]);
//! client.bye().unwrap();
//! server.shutdown().unwrap();
//! ```
//!
//! The `tenant_tcp` workload of `BENCHMARK.json` measures this path end to
//! end, on the same queries and events as the embedded `shared_selects`.
//!
//! ## Dynamic query lifecycle
//!
//! Queries can be added and removed *while sessions are live*:
//! [`Rumor::add_query`] merges a new query into the optimized shared plan
//! incrementally (`Optimizer::integrate`, scoped m-rule application with
//! a [`RewriteTrace`] per integration), [`Rumor::remove_query`] — or a
//! `DROP QUERY name;` statement — prunes a retired query's operators, and
//! [`EventRuntime::update_plan`] hot-swaps the live session in place
//! (epoch protocol on the worker pool: quiesce at a flush barrier,
//! install, resume). Operators untouched by the delta keep their state —
//! a windowed sequence keeps matching straight through an unrelated
//! add/remove; the churn conformance suite pins this byte-identically.

#![warn(missing_docs)]

pub use rumor_cayuga::{Automaton, CayugaEngine};
pub use rumor_core::{
    estimate_cost, estimate_cost_with, AggFunc, AggSpec, ChannelTuple, Integration, IterSpec,
    JoinSpec, LogicalPlan, MopCost, MopKind, OpDef, Optimizer, OptimizerConfig, PartitionKeys,
    PartitionScheme, PlanCost, PlanDelta, PlanGraph, RewriteTrace, SearchStrategy,
    SelectivityModel, SeqSpec, SourceRoute, Verdict,
};
pub use rumor_engine::{
    trace_clock_nanos, trace_json_lines, CollectingMeterSink, CollectingSink, CountingSink,
    DiscardSink, EventRuntime, ExecStatsReport, ExecutablePlan, FileMeterSink, Histogram, Meter,
    MeterSink, OpStats, QuerySharing, QuerySink, QueryStats, Rumor, RuntimeStats, Session,
    SessionBuilder, SessionConfig, SharedOpRef, StatsSnapshot, StderrMeterSink, StreamingConfig,
    StreamingShardedRuntime, Subscription, TraceEvent, TraceRing, STATS_COMPILED,
    TIME_SAMPLE_EVERY,
};
pub use rumor_expr::{CmpOp, EvalCtx, Expr, NamedExpr, Predicate, SchemaMap};
pub use rumor_types::{
    ChannelId, Field, Membership, MopId, QueryId, RumorError, Schema, SourceId, StreamId,
    Timestamp, Tuple, Value, ValueType,
};

/// The TCP session server and its blocking client (crate
/// `rumor-server`): many network clients multiplexed onto one shared
/// plan. See the crate-level "Serving sessions over the network"
/// section.
pub mod server {
    pub use rumor_server::{Client, Reply, Request, Server, ServerConfig, PROTOCOL_VERSION};
}

/// Workload generators for the paper's evaluation (re-exported for
/// examples and downstream experimentation).
pub mod workloads {
    pub use rumor_workloads::*;
}

/// The query language layer (parsing and lowering).
pub mod lang {
    pub use rumor_lang::*;
}
