//! Engine-path throughput comparison: every execution-engine
//! configuration, driven through the *same* session API the rest of the
//! system uses — one generic measurement loop over [`EventRuntime`] and a
//! table of [`SessionConfig`]s, instead of one hand-rolled harness per
//! runtime type.
//!
//! This is the harness behind `BENCH_throughput.json` (regenerated by the
//! `throughput` binary): the perf trajectory of the execution layer, as
//! opposed to the paper-figure harnesses in `fig9`/`fig10`/`fig11` which
//! compare *plans*. Three workloads:
//!
//! * `shared_selects` — the paper's headline case: many selection queries
//!   merged into one predicate-indexed m-op. Stateless, so the batched
//!   drain takes channel-run granularity and the worker pool
//!   round-robins tuples. Also carries the `subscriptions/*` row: the same
//!   batched feed with every query individually subscribed, measuring the
//!   per-query dispatch overhead against the `collect_all` catch-all.
//! * `select_chain` — three-deep selection chains; the shape where the
//!   retired depth-staged pipelined runner measurably lost to
//!   single-threaded execution, now covered by the shard paths.
//! * `stateful_seq` — sequence queries; a stateful plan, so the batched
//!   entry point feeds it per event, and the worker pool hash-partitions
//!   on the sequences' AI-index key.
//! * `keyed_agg` — grouped aggregates over many queries; the whole plan
//!   is one keyed component, so the worker pool routes every tuple by
//!   group hash (the index-list shared-batch delivery path).
//!
//! Every workload is also measured on the worker pool:
//! `sharded_stream/nK` (`session().workers(n)`, the persistent streaming
//! pool), with K worker clones of the plan routed per the static
//! partitioning analysis.
//!
//! All rows collect results through the session delivery path (the
//! consumer-facing contract): result tuples are materialized and routed,
//! not merely counted.

use std::time::Instant;

use rumor_core::{AggFunc, AggSpec, LogicalPlan, OptimizerConfig, SeqSpec, Verdict};
use rumor_engine::exec::ExecutablePlan;
use rumor_engine::{EventRuntime, Rumor, SessionConfig, StreamingConfig, Subscription};
use rumor_expr::{CmpOp, Expr, Predicate};
use rumor_types::{QueryId, Schema, SourceId, Tuple};

use crate::Scale;

/// How often each path is run: untimed warmup passes (caches and
/// allocators settle), then measured repetitions.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Warmup passes over the input before measuring.
    pub warmup_runs: usize,
    /// Measured repetitions (the best is reported).
    pub measured_runs: usize,
}

/// Throughput of one execution path over one workload.
#[derive(Debug, Clone)]
pub struct PathStat {
    /// Path label (`per_event`, `push_batch`, `sharded_stream/...`).
    pub path: String,
    /// Input events per second — the *best* measured run (host-load
    /// bursts on the shared measurement host only ever slow a run down,
    /// so the best run is the robust per-path estimate).
    pub events_per_sec: f64,
    /// Query results produced per run (sanity: identical across paths).
    pub results_out: u64,
}

/// All measured paths over one workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload label.
    pub name: String,
    /// Registered query count.
    pub queries: usize,
    /// Input events per run.
    pub events: usize,
    /// m-ops in the optimized plan.
    pub mops: usize,
    /// Whether the compiled plan drains in multi-tuple runs (all m-ops stateless).
    pub batch_safe: bool,
    /// Component verdicts of the partitioning analysis, e.g.
    /// `"stateless=1 keyed=0 pinned=0"` (what the `sharded_stream/*`
    /// paths route by).
    pub partitioning: String,
    /// Per-path stats, `per_event` first.
    pub paths: Vec<PathStat>,
}

impl WorkloadReport {
    /// Throughput of `path` relative to `per_event`.
    pub fn speedup(&self, path: &str) -> Option<f64> {
        let base = self.paths.iter().find(|p| p.path == "per_event")?;
        let other = self.paths.iter().find(|p| p.path == path)?;
        Some(other.events_per_sec / base.events_per_sec)
    }
}

/// `n` selection queries `a0 = c` over one stream, optimized into a single
/// predicate-indexed m-op. Returns the engine plus the registered query
/// ids (the subscription row subscribes to each).
pub fn selection_engine(n_queries: usize, domain: i64) -> (Rumor, Vec<QueryId>) {
    selection_engine_with(n_queries, domain, OptimizerConfig::default())
}

/// [`selection_engine`] under an explicit optimizer configuration — the
/// plan-quality rows build the same workload once per search strategy.
pub fn selection_engine_with(
    n_queries: usize,
    domain: i64,
    config: OptimizerConfig,
) -> (Rumor, Vec<QueryId>) {
    let mut engine = Rumor::new(config);
    engine.add_source("S", Schema::ints(3), None).unwrap();
    let queries = (0..n_queries)
        .map(|i| {
            engine
                .register(
                    &LogicalPlan::source("S")
                        .select(Predicate::attr_eq_const(0, i as i64 % domain)),
                )
                .unwrap()
        })
        .collect();
    engine.optimize().unwrap();
    (engine, queries)
}

/// `n` three-deep selection chains `σ(a0=c) ∘ σ(a1=d) ∘ σ(a2=e)` over one
/// stream. The constants are decorrelated (`i%64`, `(i/64)%4`,
/// `(i/256)%2`) so each event fires a bounded number of queries rather
/// than a constant fraction of all of them.
pub fn chain_engine(n_queries: usize) -> Rumor {
    let mut engine = Rumor::new(OptimizerConfig::default());
    engine.add_source("S", Schema::ints(3), None).unwrap();
    for i in 0..n_queries as i64 {
        engine
            .register(
                &LogicalPlan::source("S")
                    .select(Predicate::attr_eq_const(0, i % 64))
                    .select(Predicate::attr_eq_const(1, (i / 64) % 4))
                    .select(Predicate::attr_eq_const(2, (i / 256) % 2)),
            )
            .unwrap();
    }
    engine.optimize().unwrap();
    engine
}

/// `n` sequence queries (stateful: exercises the per-event fallback of the
/// batched entry point and the keyed shard routes).
pub fn seq_engine(n_queries: usize) -> Rumor {
    let mut engine = Rumor::new(OptimizerConfig::default());
    engine.add_source("S", Schema::ints(3), None).unwrap();
    engine.add_source("T", Schema::ints(3), None).unwrap();
    for i in 0..n_queries as i64 {
        engine
            .register(
                &LogicalPlan::source("S")
                    .select(Predicate::attr_eq_const(0, i % 8))
                    .followed_by(
                        LogicalPlan::source("T"),
                        SeqSpec {
                            predicate: Predicate::cmp(CmpOp::Eq, Expr::col(1), Expr::rcol(1)),
                            window: 50,
                        },
                    ),
            )
            .unwrap();
    }
    engine.optimize().unwrap();
    engine
}

/// `n` grouped aggregate queries over one stream (keyed stateful: the
/// group-by attribute keys the whole component, so the worker pool
/// hash-routes every tuple).
/// Windows vary across queries so the optimizer shares window *fragments*
/// (rule cα) rather than collapsing everything into one operator.
pub fn agg_engine(n_queries: usize) -> Rumor {
    let mut engine = Rumor::new(OptimizerConfig::default());
    engine.add_source("S", Schema::ints(3), None).unwrap();
    for i in 0..n_queries as i64 {
        engine
            .register(&LogicalPlan::source("S").aggregate(AggSpec {
                func: AggFunc::Sum,
                input: Expr::col(2),
                group_by: vec![0],
                window: 8 + (i % 16) as u64,
            }))
            .unwrap();
    }
    engine.optimize().unwrap();
    engine
}

/// Distinct `a0 = c` constants in the *small* overlapping aggregate
/// family (queries repeat over this domain — sharing in the paper's
/// multi-query workloads comes from exactly this kind of overlap).
pub const OVERLAP_SMALL_DOMAIN: i64 = 8;

/// Distinct constants in the *big* family; the first
/// [`OVERLAP_SMALL_DOMAIN`] of them reuse the small family's selections.
pub const OVERLAP_BIG_DOMAIN: i64 = 24;

/// The plan-shape workload where search order decides sharing: a small
/// family of `SUM(a1)` aggregates and a big family of `SUM(a2)` aggregates
/// over partially *overlapping* CSE-shared selection outputs. Greedy rule
/// order merges the small cα family first, which encodes the shared
/// selection outputs into a channel and leaves the big family spanning
/// mixed channels — permanently blocked by the channel precondition. The
/// cost-based search commits the big merge first and then collapses the
/// small family inside the big channel, so the two optimizer modes end at
/// very different m-op counts over identical queries and results.
pub fn overlapping_aggs_engine(small: usize, big: usize, config: OptimizerConfig) -> Rumor {
    let mut engine = Rumor::new(config);
    engine.add_source("S", Schema::ints(3), None).unwrap();
    let agg = |col: usize| AggSpec {
        func: AggFunc::Sum,
        input: Expr::col(col),
        group_by: vec![],
        window: 8,
    };
    for i in 0..small as i64 {
        engine
            .register(
                &LogicalPlan::source("S")
                    .select(Predicate::attr_eq_const(0, i % OVERLAP_SMALL_DOMAIN))
                    .aggregate(agg(1)),
            )
            .unwrap();
    }
    for i in 0..big as i64 {
        engine
            .register(
                &LogicalPlan::source("S")
                    .select(Predicate::attr_eq_const(0, i % OVERLAP_BIG_DOMAIN))
                    .aggregate(agg(2)),
            )
            .unwrap();
    }
    engine.optimize().unwrap();
    engine
}

/// Deterministic single-source input (ts-ordered; `a0` cycles through
/// `domain` so the shared selections fire uniformly).
pub fn single_source_events(engine: &Rumor, n: usize, domain: i64) -> Vec<(SourceId, Tuple)> {
    let s = engine.source_id("S").unwrap();
    (0..n as u64)
        .map(|ts| {
            (
                s,
                Tuple::ints(
                    ts,
                    &[
                        (ts as i64) % domain.max(1),
                        (ts % 4) as i64,
                        (ts % 2) as i64,
                    ],
                ),
            )
        })
        .collect()
}

/// Deterministic interleaved S/T input for the stateful workload.
pub fn interleaved_events(engine: &Rumor, n: usize) -> Vec<(SourceId, Tuple)> {
    let s = engine.source_id("S").unwrap();
    let t = engine.source_id("T").unwrap();
    (0..n as u64)
        .map(|ts| {
            let src = if ts % 2 == 0 { s } else { t };
            (
                src,
                Tuple::ints(
                    ts,
                    &[(ts % 8) as i64, ((ts / 2) % 5) as i64, (ts % 2) as i64],
                ),
            )
        })
        .collect()
}

/// How one measured path feeds its session.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// One `push` call per event.
    PerEvent,
    /// The whole input in one `push_batch` call.
    Batch,
    /// `push_batch` per arrival chunk — the continuous-arrival pattern the
    /// shard engines exist for.
    Chunked(usize),
}

/// The one measurement loop every path goes through: build a session from
/// the config, optionally subscribe, feed, `finish`, count. The timed
/// window covers feeding through `finish` (routing, staging, queue
/// transfer, worker processing, the final delivery barrier); session
/// construction — pool spawn included — stays outside, matching the
/// paper's protocol of measuring only event processing.
fn measure_path(
    engine: &Rumor,
    events: &[(SourceId, Tuple)],
    protocol: &Protocol,
    label: &str,
    cfg: &SessionConfig,
    feed: Feed,
    subscribe: Option<&[QueryId]>,
) -> PathStat {
    let run_once = || -> (f64, u64) {
        let mut session = engine
            .session()
            .config(cfg.clone())
            .build()
            .expect("session builds");
        let mut subs: Vec<Subscription> = subscribe
            .map(|qs| qs.iter().map(|&q| session.subscribe(q)).collect())
            .unwrap_or_default();
        let start = Instant::now();
        match feed {
            Feed::PerEvent => {
                for (src, t) in events {
                    session.push(*src, t.clone()).expect("push");
                }
            }
            Feed::Batch => session.push_batch(events).expect("push_batch"),
            Feed::Chunked(chunk) => {
                for c in events.chunks(chunk) {
                    session.push_batch(c).expect("push_batch");
                }
            }
        }
        session.finish().expect("finish");
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        let mut results = session.collect_all().len() as u64;
        for sub in &mut subs {
            results += sub.drain().len() as u64;
        }
        (events.len() as f64 / elapsed, results)
    };
    let mut results_out = 0;
    for _ in 0..protocol.warmup_runs {
        results_out = run_once().1;
    }
    let mut best = 0.0f64;
    for _ in 0..protocol.measured_runs.max(1) {
        let (rate, r) = run_once();
        best = best.max(rate);
        results_out = r;
    }
    PathStat {
        path: label.to_string(),
        events_per_sec: best,
        results_out,
    }
}

/// Shard worker counts measured per workload (n=2 and n=4 rows are
/// committed to `BENCH_throughput.json`).
pub const SHARD_WORKERS: [usize; 2] = [2, 4];

/// Events per arrival chunk for the shard paths: the pool is fed a
/// chunked stream (a continuous-arrival pattern, not one preassembled
/// mega-batch).
pub const SHARD_FEED_CHUNK: usize = 2048;

/// Streaming-pool tuning used by the benchmark rows.
fn stream_cfg() -> StreamingConfig {
    StreamingConfig {
        batch_size: 8192,
        queue_depth: 4,
    }
}

fn report(
    name: &str,
    engine: &Rumor,
    events: Vec<(SourceId, Tuple)>,
    queries: usize,
    protocol: &Protocol,
    subscribe: Option<&[QueryId]>,
) -> WorkloadReport {
    let compiled = ExecutablePlan::new(engine.plan()).expect("plan compiles");
    let local = SessionConfig::default();
    let mut paths = vec![
        measure_path(
            engine,
            &events,
            protocol,
            "per_event",
            &local,
            Feed::PerEvent,
            None,
        ),
        measure_path(
            engine,
            &events,
            protocol,
            "push_batch",
            &local,
            Feed::Batch,
            None,
        ),
    ];
    if let Some(qs) = subscribe {
        // The subscription row: identical feed to `push_batch`, but every
        // query individually subscribed — the delta is pure per-query
        // dispatch overhead.
        paths.push(measure_path(
            engine,
            &events,
            protocol,
            &format!("subscriptions/q{}", qs.len()),
            &local,
            Feed::Batch,
            Some(qs),
        ));
    }
    for n in SHARD_WORKERS {
        let streaming = SessionConfig {
            workers: Some(n),
            streaming: Some(stream_cfg()),
        };
        paths.push(measure_path(
            engine,
            &events,
            protocol,
            &format!("sharded_stream/n{n}"),
            &streaming,
            Feed::Chunked(SHARD_FEED_CHUNK),
            None,
        ));
    }
    let scheme = rumor_core::analyze_partitioning(engine.plan(), &compiled.partition_reports())
        .expect("partition analysis");
    let partitioning = format!(
        "stateless={} keyed={} pinned={}",
        scheme.count(Verdict::Stateless),
        scheme.count(Verdict::Keyed),
        scheme.count(Verdict::Pinned)
    );
    WorkloadReport {
        name: name.to_string(),
        queries,
        events: events.len(),
        mops: engine.plan().mop_count(),
        batch_safe: compiled.is_batch_safe(),
        partitioning,
        paths,
    }
}

/// Runs the full comparison at the given scale.
pub fn run_all(scale: Scale) -> Vec<WorkloadReport> {
    let (n_events, n_queries, protocol) = match scale {
        Scale::Quick => (
            50_000usize,
            1024usize,
            Protocol {
                warmup_runs: 1,
                measured_runs: 5,
            },
        ),
        Scale::Full => (
            200_000usize,
            16_384usize,
            Protocol {
                warmup_runs: 2,
                measured_runs: 5,
            },
        ),
    };
    let mut reports = Vec::new();

    let (sel, sel_queries) = selection_engine(n_queries, n_queries as i64);
    let events = single_source_events(&sel, n_events, n_queries as i64);
    reports.push(report(
        "shared_selects",
        &sel,
        events,
        n_queries,
        &protocol,
        Some(&sel_queries),
    ));

    let chain_queries = 512usize;
    let chain = chain_engine(chain_queries);
    let events = single_source_events(&chain, n_events, 64);
    reports.push(report(
        "select_chain",
        &chain,
        events,
        chain_queries,
        &protocol,
        None,
    ));

    let seq = seq_engine(64);
    let events = interleaved_events(&seq, n_events.min(60_000));
    reports.push(report("stateful_seq", &seq, events, 64, &protocol, None));

    let agg = agg_engine(64);
    let events = single_source_events(&agg, n_events.min(60_000), 64);
    reports.push(report("keyed_agg", &agg, events, 64, &protocol, None));

    reports
}

// ----------------------------------------------------------------------
// Plan quality: greedy vs cost-based search over the same query sets.
// ----------------------------------------------------------------------

/// One workload built twice — once per [`rumor_core::SearchStrategy`] —
/// comparing the optimized plan's m-op count and its measured
/// `push_batch` throughput. The m-op columns are the plan-quality signal
/// (machine-independent); the throughput columns show what the smaller
/// plan buys at runtime.
#[derive(Debug, Clone)]
pub struct PlanQualityReport {
    /// Workload label.
    pub workload: String,
    /// Registered query count (identical under both strategies).
    pub queries: usize,
    /// m-ops in the greedily optimized plan.
    pub greedy_mops: usize,
    /// m-ops under the cost-based search.
    pub cost_mops: usize,
    /// `push_batch` input events per second of the greedy plan.
    pub greedy_events_per_sec: f64,
    /// `push_batch` input events per second of the cost-based plan.
    pub cost_events_per_sec: f64,
    /// Whether both plans produced the same number of results over the
    /// identical feed (byte-level equivalence is pinned by the
    /// conformance suite; the harness sanity-checks the counts).
    pub results_match: bool,
}

/// Registered queries in every plan-quality workload (both strategies see
/// the identical set).
pub const PLAN_QUALITY_QUERIES: usize = 1024;

fn plan_quality_one(
    workload: &str,
    queries: usize,
    greedy: &Rumor,
    cost: &Rumor,
    events: &[(SourceId, Tuple)],
    protocol: &Protocol,
) -> PlanQualityReport {
    let local = SessionConfig::default();
    let g = measure_path(
        greedy,
        events,
        protocol,
        "push_batch",
        &local,
        Feed::Batch,
        None,
    );
    let c = measure_path(
        cost,
        events,
        protocol,
        "push_batch",
        &local,
        Feed::Batch,
        None,
    );
    PlanQualityReport {
        workload: workload.to_string(),
        queries,
        greedy_mops: greedy.plan().mop_count(),
        cost_mops: cost.plan().mop_count(),
        greedy_events_per_sec: g.events_per_sec,
        cost_events_per_sec: c.events_per_sec,
        results_match: g.results_out == c.results_out,
    }
}

/// Runs the plan-quality comparison at the given scale: each workload is
/// built at [`PLAN_QUALITY_QUERIES`] registered queries under both the
/// greedy driver and [`OptimizerConfig::cost_based`], then measured over
/// the identical batched feed. `shared_selects` is the control row (one
/// fully mergeable family — both strategies must land on the same plan);
/// `overlapping_aggs` is the order-sensitive row where greedy locks
/// itself out of the larger merge.
pub fn run_plan_quality(scale: Scale) -> Vec<PlanQualityReport> {
    let (n_events, protocol) = match scale {
        Scale::Quick => (
            50_000usize,
            Protocol {
                warmup_runs: 1,
                measured_runs: 3,
            },
        ),
        Scale::Full => (
            200_000usize,
            Protocol {
                warmup_runs: 2,
                measured_runs: 5,
            },
        ),
    };
    let n_queries = PLAN_QUALITY_QUERIES;
    let mut out = Vec::new();

    let (greedy, _) =
        selection_engine_with(n_queries, n_queries as i64, OptimizerConfig::default());
    let (cost, _) =
        selection_engine_with(n_queries, n_queries as i64, OptimizerConfig::cost_based());
    let events = single_source_events(&greedy, n_events, n_queries as i64);
    out.push(plan_quality_one(
        "shared_selects",
        n_queries,
        &greedy,
        &cost,
        &events,
        &protocol,
    ));

    let small = n_queries / 4;
    let big = n_queries - small;
    let greedy = overlapping_aggs_engine(small, big, OptimizerConfig::default());
    let cost = overlapping_aggs_engine(small, big, OptimizerConfig::cost_based());
    let events = single_source_events(&greedy, n_events.min(60_000), OVERLAP_BIG_DOMAIN);
    out.push(plan_quality_one(
        "overlapping_aggs",
        n_queries,
        &greedy,
        &cost,
        &events,
        &protocol,
    ));

    out
}

/// One latency-distribution row of the committed bench document: a named
/// metric (`delivery`, `flush_barrier`, `update_epoch`) with its sample
/// count and percentile bounds in microseconds.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Metric name (unique within the section; `bench_diff` keys on it).
    pub metric: String,
    /// Samples recorded (0 under `stats-off` for gated metrics).
    pub count: u64,
    /// p50 lower bound, microseconds.
    pub p50_us: f64,
    /// p90 lower bound, microseconds.
    pub p90_us: f64,
    /// p99 lower bound, microseconds.
    pub p99_us: f64,
    /// Largest observed sample, microseconds.
    pub max_us: f64,
}

/// One per-m-op time-attribution row of the committed bench document:
/// where the measured wall time went, from sampled per-op timing.
#[derive(Debug, Clone)]
pub struct TimeAttributionRow {
    /// Stable m-op label (`m<index>`; `bench_diff` keys on it).
    pub mop: String,
    /// The operator implementation's name.
    pub op: String,
    /// Events fed into this op.
    pub events_in: u64,
    /// Estimated total wall nanoseconds (sampled rate × events).
    pub est_nanos: u64,
    /// This op's fraction of all attributed wall time.
    pub time_share: f64,
}

/// Everything one representative observability run yields: the final
/// snapshot JSON (`--stats` artifact), the interval-metering JSONL stream
/// (a [`rumor_engine::Meter`] ticked once per arrival chunk), and the
/// derived latency / time-attribution rows for the bench document.
#[derive(Debug, Clone)]
pub struct ObservabilityRun {
    /// Final [`rumor_engine::StatsSnapshot`] as JSON.
    pub snapshot_json: String,
    /// One JSON line per metering interval (empty if only the baseline
    /// tick happened).
    pub meter_jsonl: String,
    /// Latency distributions: delivery, flush barrier, update epoch.
    pub latency: Vec<LatencyRow>,
    /// Per-m-op wall-time attribution, busiest first.
    pub time_attribution: Vec<TimeAttributionRow>,
}

fn latency_row(metric: &str, h: &rumor_engine::Histogram) -> LatencyRow {
    LatencyRow {
        metric: metric.to_string(),
        count: h.count(),
        p50_us: h.p50() as f64 / 1_000.0,
        p90_us: h.p90() as f64 / 1_000.0,
        p99_us: h.p99() as f64 / 1_000.0,
        max_us: h.max() as f64 / 1_000.0,
    }
}

/// How many time-attribution rows the bench document keeps (busiest
/// first; the snapshot artifact retains the full table).
const TIME_ATTRIBUTION_ROWS: usize = 8;

/// Runs the representative `shared_selects` workload once through a
/// streaming session — chunked arrival with a [`rumor_engine::Meter`]
/// ticked per chunk — and returns the final snapshot JSON, the metering
/// stream, and the latency / time-attribution rows `render_json` folds
/// into the committed document. One run, not a measurement: the
/// distribution shapes and the attribution ranking are the interesting
/// part, not the absolute numbers.
pub fn run_observability(scale: Scale) -> ObservabilityRun {
    let (n_events, n_queries) = match scale {
        Scale::Quick => (50_000usize, 1024usize),
        Scale::Full => (200_000usize, 16_384usize),
    };
    observability_with(n_events, n_queries)
}

fn observability_with(n_events: usize, n_queries: usize) -> ObservabilityRun {
    use rumor_engine::{CollectingMeterSink, Meter};

    let (engine, _) = selection_engine(n_queries, n_queries as i64);
    let events = single_source_events(&engine, n_events, n_queries as i64);
    let mut session = engine
        .session()
        .workers(2)
        .streaming(StreamingConfig::default())
        .build()
        .expect("build stats session");

    let mut meter = Meter::new(CollectingMeterSink::default());
    meter.tick(session.stats().expect("baseline snapshot"));
    let chunk = (events.len() / 8).max(1);
    for part in events.chunks(chunk) {
        session.push_batch(part).expect("feed stats session");
        session.flush().expect("flush stats session");
        meter.tick(session.stats().expect("interval snapshot"));
    }
    session.finish().expect("finish stats session");

    let snap = session.stats().expect("collect stats snapshot");
    let mut delivery = rumor_engine::Histogram::default();
    for q in &snap.queries {
        delivery.absorb(&q.latency);
    }
    let latency = vec![
        latency_row("delivery", &delivery),
        latency_row("flush_barrier", &snap.runtime.flush),
        latency_row("update_epoch", &snap.runtime.update),
    ];

    let shares: std::collections::HashMap<_, _> = snap.time_shares().into_iter().collect();
    let mut attribution: Vec<TimeAttributionRow> = snap
        .ops
        .iter()
        .filter(|o| o.est_nanos() > 0)
        .map(|o| TimeAttributionRow {
            mop: format!("m{}", o.mop.index()),
            op: o.name.clone(),
            events_in: o.events_in,
            est_nanos: o.est_nanos(),
            time_share: shares.get(&o.mop).copied().unwrap_or(0.0),
        })
        .collect();
    attribution.sort_by(|a, b| b.est_nanos.cmp(&a.est_nanos).then(a.mop.cmp(&b.mop)));
    attribution.truncate(TIME_ATTRIBUTION_ROWS);

    ObservabilityRun {
        snapshot_json: snap.to_json(),
        meter_jsonl: meter.into_sink().lines.join("\n"),
        latency,
        time_attribution: attribution,
    }
}

/// The final-snapshot half of [`run_observability`] — kept as the
/// `--stats` artifact entry point.
pub fn stats_snapshot_json(scale: Scale) -> String {
    run_observability(scale).snapshot_json
}

// ----------------------------------------------------------------------
// The `churn` mode: dynamic query lifecycle latency and throughput.
// ----------------------------------------------------------------------

/// One churn measurement at a given resident-set size: how fast a query
/// can be added to / removed from a *running* streaming session
/// (integrate + hot-swap, no pool restart), and the session's
/// steady-state throughput while queries keep coming and going
/// mid-stream.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Selection queries resident in the shared plan throughout.
    pub resident_queries: usize,
    /// Best-of-rounds wall time of one incremental add:
    /// [`Rumor::add_query`] + [`EventRuntime::update_plan`] (quiesce,
    /// install on every worker, resume).
    pub integrate_ms: f64,
    /// Best-of-rounds wall time of one removal: [`Rumor::remove_query`]
    /// + the same hot-swap.
    pub remove_ms: f64,
    /// Input events per second while one add/remove pair lands every
    /// fourth arrival chunk.
    pub churn_events_per_sec: f64,
    /// Query results produced during the churn run (sanity).
    pub results_out: u64,
}

/// Resident-set sizes the churn mode measures.
pub const CHURN_RESIDENTS: [usize; 3] = [128, 512, 1024];

/// Lifecycle rounds per resident size for the latency numbers.
const CHURN_ROUNDS: usize = 8;

fn churn_one(resident: usize, n_events: usize) -> ChurnReport {
    let (mut engine, _) = selection_engine(resident, resident as i64);
    let events = single_source_events(&engine, n_events, resident as i64);
    let mut session = engine
        .session()
        .workers(2)
        .streaming(stream_cfg())
        .build()
        .expect("churn session");

    // Lifecycle latency: add/remove round-trips against the live session.
    // Best-of (as elsewhere in this harness): host-load bursts only ever
    // slow a round down.
    let mut integrate_ms = f64::MAX;
    let mut remove_ms = f64::MAX;
    for round in 0..CHURN_ROUNDS {
        let query =
            LogicalPlan::source("S").select(Predicate::attr_eq_const(1, (round % 4) as i64));
        let start = Instant::now();
        let integration = engine.add_query(&query).expect("integrate");
        session.update_plan(engine.plan()).expect("hot swap");
        integrate_ms = integrate_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        engine.remove_query(integration.query).expect("remove");
        session.update_plan(engine.plan()).expect("hot swap");
        remove_ms = remove_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }

    // Steady-state throughput during churn: chunked arrival with one
    // add/remove pair every fourth chunk, timed through `finish`.
    let start = Instant::now();
    let mut pending: Option<QueryId> = None;
    for (i, chunk) in events.chunks(SHARD_FEED_CHUNK).enumerate() {
        if i % 4 == 0 {
            if let Some(q) = pending.take() {
                engine.remove_query(q).expect("remove");
                session.update_plan(engine.plan()).expect("hot swap");
            }
            let query =
                LogicalPlan::source("S").select(Predicate::attr_eq_const(1, ((i / 4) % 4) as i64));
            let integration = engine.add_query(&query).expect("integrate");
            session.update_plan(engine.plan()).expect("hot swap");
            pending = Some(integration.query);
        }
        session.push_batch(chunk).expect("churn push");
    }
    session.finish().expect("churn finish");
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let results_out = session.collect_all().len() as u64;

    ChurnReport {
        resident_queries: resident,
        integrate_ms,
        remove_ms,
        churn_events_per_sec: events.len() as f64 / elapsed,
        results_out,
    }
}

/// Runs the churn mode at the given scale.
pub fn run_churn(scale: Scale) -> Vec<ChurnReport> {
    let n_events = match scale {
        Scale::Quick => 50_000usize,
        Scale::Full => 200_000usize,
    };
    CHURN_RESIDENTS
        .iter()
        .map(|&resident| churn_one(resident, n_events))
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the reports as the committed `BENCH_throughput.json` document.
/// The `plan_quality`, `latency`, and `time_attribution` sections are all
/// emitted *before* `churn`: the `bench_diff` parser reads the document
/// top-down and treats the churn array as its terminator.
pub fn render_json(
    reports: &[WorkloadReport],
    plan_quality: &[PlanQualityReport],
    latency: &[LatencyRow],
    time_attribution: &[TimeAttributionRow],
    multi_tenant: &[crate::multi_tenant::MultiTenantReport],
    churn: &[ChurnReport],
    scale: Scale,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"generated_by\": \"cargo run --release -p rumor-bench --bin throughput\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    ));
    out.push_str("  \"throughput_unit\": \"input events per second\",\n");
    out.push_str(&format!(
        "  \"stats_compiled\": {},\n",
        rumor_engine::STATS_COMPILED
    ));
    out.push_str("  \"workloads\": [\n");
    for (wi, w) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", json_escape(&w.name)));
        out.push_str(&format!("      \"queries\": {},\n", w.queries));
        out.push_str(&format!("      \"events\": {},\n", w.events));
        out.push_str(&format!("      \"optimized_mops\": {},\n", w.mops));
        out.push_str(&format!("      \"batch_safe\": {},\n", w.batch_safe));
        out.push_str(&format!(
            "      \"partitioning\": \"{}\",\n",
            json_escape(&w.partitioning)
        ));
        out.push_str("      \"paths\": [\n");
        for (pi, p) in w.paths.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"path\": \"{}\", \"events_per_sec\": {:.1}, \"results_out\": {}, \"speedup_vs_per_event\": {:.3}}}{}\n",
                json_escape(&p.path),
                p.events_per_sec,
                p.results_out,
                w.speedup(&p.path).unwrap_or(1.0),
                if pi + 1 == w.paths.len() { "" } else { "," }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if wi + 1 == reports.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"plan_quality\": [\n");
    for (qi, q) in plan_quality.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"queries\": {}, \"greedy_mops\": {}, \"cost_mops\": {}, \"greedy_events_per_sec\": {:.1}, \"cost_events_per_sec\": {:.1}, \"results_match\": {}}}{}\n",
            json_escape(&q.workload),
            q.queries,
            q.greedy_mops,
            q.cost_mops,
            q.greedy_events_per_sec,
            q.cost_events_per_sec,
            q.results_match,
            if qi + 1 == plan_quality.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"latency\": [\n");
    for (li, l) in latency.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"metric\": \"{}\", \"count\": {}, \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}}}{}\n",
            json_escape(&l.metric),
            l.count,
            l.p50_us,
            l.p90_us,
            l.p99_us,
            l.max_us,
            if li + 1 == latency.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"time_attribution\": [\n");
    for (ti, t) in time_attribution.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mop\": \"{}\", \"op\": \"{}\", \"events_in\": {}, \"est_nanos\": {}, \"time_share\": {:.4}}}{}\n",
            json_escape(&t.mop),
            json_escape(&t.op),
            t.events_in,
            t.est_nanos,
            t.time_share,
            if ti + 1 == time_attribution.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    // NOTE: every parsed section must precede "churn" — bench_diff's
    // line-oriented parser stops there.
    out.push_str("  \"multi_tenant\": [\n");
    for (mi, m) in multi_tenant.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"clients\": {}, \"registered\": {}, \"distinct_bodies\": {}, \"events\": {}, \"events_per_sec\": {:.1}, \"results_out\": {}, \"delivery_p50_us\": {:.1}, \"delivery_p90_us\": {:.1}, \"delivery_p99_us\": {:.1}, \"delivery_max_us\": {:.1}, \"shed_results\": {}, \"events_saved\": {}}}{}\n",
            json_escape(&m.scenario),
            m.clients,
            m.queries,
            m.distinct_bodies,
            m.events,
            m.events_per_sec,
            m.results_out,
            m.delivery_p50_us,
            m.delivery_p90_us,
            m.delivery_p99_us,
            m.delivery_max_us,
            m.shed_results,
            m.events_saved,
            if mi + 1 == multi_tenant.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"churn\": [\n");
    for (ci, c) in churn.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"resident_queries\": {}, \"integrate_ms\": {:.3}, \"remove_ms\": {:.3}, \"churn_events_per_sec\": {:.1}, \"results_out\": {}}}{}\n",
            c.resident_queries,
            c.integrate_ms,
            c.remove_ms,
            c.churn_events_per_sec,
            c.results_out,
            if ci + 1 == churn.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_agree_on_result_counts() {
        let (engine, queries) = selection_engine(64, 64);
        let events = single_source_events(&engine, 2000, 64);
        let protocol = Protocol {
            warmup_runs: 0,
            measured_runs: 1,
        };
        let w = report("t", &engine, events, 64, &protocol, Some(&queries));
        assert!(w.batch_safe);
        let counts: Vec<u64> = w.paths.iter().map(|p| p.results_out).collect();
        assert!(counts.windows(2).all(|c| c[0] == c[1]), "counts {counts:?}");
        assert!(w.speedup("push_batch").is_some());
        assert!(w.speedup("subscriptions/q64").is_some());
        for n in SHARD_WORKERS {
            assert!(w.speedup(&format!("sharded_stream/n{n}")).is_some());
        }
    }

    #[test]
    fn session_paths_agree_on_chain_plan() {
        let engine = chain_engine(64);
        let events = single_source_events(&engine, 2000, 64);
        let protocol = Protocol {
            warmup_runs: 0,
            measured_runs: 1,
        };
        let w = report("t", &engine, events, 64, &protocol, None);
        let counts: Vec<u64> = w.paths.iter().map(|p| p.results_out).collect();
        assert!(counts.windows(2).all(|c| c[0] == c[1]), "counts {counts:?}");
    }

    #[test]
    fn session_paths_agree_on_stateful_plan() {
        let engine = seq_engine(16);
        let events = interleaved_events(&engine, 2000);
        let protocol = Protocol {
            warmup_runs: 0,
            measured_runs: 1,
        };
        let w = report("t", &engine, events, 16, &protocol, None);
        let counts: Vec<u64> = w.paths.iter().map(|p| p.results_out).collect();
        assert!(counts.windows(2).all(|c| c[0] == c[1]), "counts {counts:?}");
    }

    #[test]
    fn session_paths_agree_on_keyed_agg_plan() {
        let engine = agg_engine(16);
        let events = single_source_events(&engine, 2000, 16);
        let protocol = Protocol {
            warmup_runs: 0,
            measured_runs: 1,
        };
        let w = report("t", &engine, events, 16, &protocol, None);
        assert!(w.partitioning.contains("keyed=1"), "{}", w.partitioning);
        let counts: Vec<u64> = w.paths.iter().map(|p| p.results_out).collect();
        assert!(counts.windows(2).all(|c| c[0] == c[1]), "counts {counts:?}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let (engine, queries) = selection_engine(8, 8);
        let events = single_source_events(&engine, 500, 8);
        let protocol = Protocol {
            warmup_runs: 0,
            measured_runs: 1,
        };
        let w = report("sel", &engine, events, 8, &protocol, Some(&queries));
        let churn = vec![ChurnReport {
            resident_queries: 8,
            integrate_ms: 0.5,
            remove_ms: 0.25,
            churn_events_per_sec: 1000.0,
            results_out: 42,
        }];
        let quality = vec![PlanQualityReport {
            workload: "overlapping_aggs".to_string(),
            queries: 8,
            greedy_mops: 7,
            cost_mops: 3,
            greedy_events_per_sec: 1000.0,
            cost_events_per_sec: 1500.0,
            results_match: true,
        }];
        let latency = vec![LatencyRow {
            metric: "delivery".to_string(),
            count: 420,
            p50_us: 8.2,
            p90_us: 32.8,
            p99_us: 131.1,
            max_us: 262.1,
        }];
        let attribution = vec![TimeAttributionRow {
            mop: "m3".to_string(),
            op: "filter".to_string(),
            events_in: 500,
            est_nanos: 120_000,
            time_share: 0.61,
        }];
        let multi_tenant = vec![crate::multi_tenant::MultiTenantReport {
            scenario: "zipf_selects_200c_1024q".to_string(),
            clients: 200,
            queries: 1024,
            distinct_bodies: 60,
            events: 20_000,
            events_per_sec: 12_345.6,
            results_out: 9_999,
            delivery_p50_us: 100.0,
            delivery_p90_us: 200.0,
            delivery_p99_us: 400.0,
            delivery_max_us: 800.0,
            shed_results: 0,
            events_saved: 7_777,
        }];
        let json = render_json(
            &[w],
            &quality,
            &latency,
            &attribution,
            &multi_tenant,
            &churn,
            Scale::Quick,
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"per_event\""));
        assert!(json.contains("\"push_batch\""));
        assert!(json.contains("\"subscriptions/q8\""));
        assert!(json.contains("\"sharded_stream/n2\""));
        assert!(json.contains("\"churn\""));
        assert!(json.contains("\"integrate_ms\""));
        // Every parsed section must precede churn: bench_diff stops there.
        let churn_at = json.find("\"churn\"").unwrap();
        let pq = json.find("\"plan_quality\"").expect("plan_quality section");
        assert!(pq < churn_at);
        let lat = json.find("\"latency\"").expect("latency section");
        assert!(lat < churn_at);
        let ta = json
            .find("\"time_attribution\"")
            .expect("time_attribution section");
        assert!(ta < churn_at);
        let mt = json.find("\"multi_tenant\"").expect("multi_tenant section");
        assert!(mt < churn_at);
        assert!(json.contains("\"scenario\": \"zipf_selects_200c_1024q\""));
        assert!(json.contains("\"events_saved\": 7777"));
        assert!(json.contains("\"greedy_mops\": 7"));
        assert!(json.contains("\"metric\": \"delivery\""));
        assert!(json.contains("\"p99_us\": 131.1"));
        assert!(json.contains("\"mop\": \"m3\""));
        assert!(json.contains("\"time_share\": 0.6100"));
    }

    #[test]
    fn observability_run_produces_meter_stream_and_rows() {
        let obs = observability_with(3000, 64);
        assert!(obs.snapshot_json.contains("\"engine\": \"streaming\""));
        let metrics: Vec<&str> = obs.latency.iter().map(|l| l.metric.as_str()).collect();
        assert_eq!(metrics, ["delivery", "flush_barrier", "update_epoch"]);
        // Flush barriers record unconditionally (control-plane, rare):
        // 8 arrival chunks × flush + finish.
        let flush = &obs.latency[1];
        assert!(flush.count >= 8, "flush count {}", flush.count);
        assert!(flush.p50_us <= flush.max_us);
        if rumor_engine::STATS_COMPILED {
            let delivery = &obs.latency[0];
            assert!(delivery.count > 0, "no delivery latency samples");
            assert!(delivery.p50_us <= delivery.p99_us);
            // One meter line per post-baseline tick that saw activity.
            assert!(!obs.meter_jsonl.is_empty());
            assert!(obs.meter_jsonl.lines().count() >= 1);
            assert!(obs.meter_jsonl.contains("\"events_in\""));
        } else {
            assert!(obs.time_attribution.is_empty());
        }
    }

    #[test]
    fn plan_quality_cost_based_beats_greedy_on_overlapping_aggs() {
        // Small-scale version of the bench row: identical queries, same
        // feed, strictly fewer m-ops under the cost-based search, same
        // result count out of both plans.
        let greedy = overlapping_aggs_engine(8, 24, OptimizerConfig::default());
        let cost = overlapping_aggs_engine(8, 24, OptimizerConfig::cost_based());
        let events = single_source_events(&greedy, 2000, OVERLAP_BIG_DOMAIN);
        let protocol = Protocol {
            warmup_runs: 0,
            measured_runs: 1,
        };
        let q = plan_quality_one("overlap", 32, &greedy, &cost, &events, &protocol);
        assert!(
            q.cost_mops < q.greedy_mops,
            "cost-based {} m-ops vs greedy {}",
            q.cost_mops,
            q.greedy_mops
        );
        assert!(q.results_match, "result counts diverged across strategies");
    }

    #[test]
    fn churn_mode_measures_lifecycle_against_live_session() {
        // Small-scale smoke: the churn harness must complete with every
        // event accounted for and sane latency numbers.
        let report = churn_one(32, 3000);
        assert_eq!(report.resident_queries, 32);
        assert!(report.integrate_ms > 0.0 && report.integrate_ms < f64::MAX);
        assert!(report.remove_ms > 0.0 && report.remove_ms < f64::MAX);
        assert!(report.churn_events_per_sec > 0.0);
        assert!(report.results_out > 0);
    }
}
