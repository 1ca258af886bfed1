//! What both kinds of run share: building the system under test, feeding
//! it the way the load shape prescribes, the open-loop schedule, and the
//! reference computation. Every call into a layer goes through here and is
//! bracketed by a span (a no-op when tracing is off).

use std::time::Instant;

use rumor_core::{LogicalPlan, OptimizerConfig, RewriteTrace};
use rumor_engine::{EventRuntime, Rumor, Session};
use rumor_lang::{parse_script, LoweredStatement, Lowerer};
use rumor_server::{Client, Server, ServerConfig};
use rumor_types::{QueryId, SourceId, Tuple};

use crate::gen::Workload;
use crate::stats::{nproc, process_cpu_s, Digest};
use crate::trace::{Tracer, NO_CHUNK};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;
pub type Event = (SourceId, Tuple);

/// Continuous arrival: events reach the system in chunks of this many.
pub const CHUNK: usize = 2048;
/// Open-loop arrivals are finer so a stall queues many chunks behind it.
pub const OPEN_LOOP_CHUNK: usize = 256;
/// A churn workload swaps one query in and one out every this many chunks.
pub const CHURN_EVERY: usize = 4;
/// Workers of the streaming pool in the sharded configuration.
pub const SHARD_WORKERS: usize = 2;
/// Marks a result of a query that is not one of the workload's residents.
const NOT_RESIDENT: u32 = u32::MAX;

/// Result accounting for one pass: always a count, optionally the digest
/// of the resident queries' results.
pub struct Results<'a> {
    /// `QueryId::index()` → position in `Workload::queries`.
    resident: &'a [u32],
    pub digest: Option<Digest>,
    pub count: u64,
}

impl<'a> Results<'a> {
    pub fn counting() -> Results<'static> {
        Results {
            resident: &[],
            digest: None,
            count: 0,
        }
    }

    pub fn digesting(resident: &'a [u32]) -> Results<'a> {
        Results {
            resident,
            digest: Some(Digest::default()),
            count: 0,
        }
    }

    /// Results as a session hands them over.
    fn take_pairs(&mut self, results: &[(QueryId, Tuple)]) {
        self.count += results.len() as u64;
        if self.digest.is_some() {
            for (q, t) in results {
                self.digest_one(*q, t);
            }
        }
    }

    /// Results as a client hands them over.
    fn take(&mut self, query: QueryId, tuples: &[Tuple]) {
        self.count += tuples.len() as u64;
        for t in tuples {
            self.digest_one(query, t);
        }
    }

    fn digest_one(&mut self, query: QueryId, tuple: &Tuple) {
        let idx = self.resident.get(query.index()).copied();
        if let (Some(d), Some(idx)) = (&mut self.digest, idx.filter(|&i| i != NOT_RESIDENT)) {
            d.add(idx, tuple);
        }
    }
}

/// `QueryId::index()` → position in registration order.
pub fn resident_map(ids: &[QueryId]) -> Vec<u32> {
    let len = ids.iter().map(|q| q.index() + 1).max().unwrap_or(0);
    let mut map = vec![NOT_RESIDENT; len];
    for (i, q) in ids.iter().enumerate() {
        map[q.index()] = i as u32;
    }
    map
}

/// One session flavour: which engine `SessionBuilder` picks, and the span
/// names that keep local and pool time in their own layers.
pub struct Flavor {
    pub pool: bool,
    pub build: &'static str,
    pub push: &'static str,
    pub flush: &'static str,
    pub collect: &'static str,
    pub finish: &'static str,
    pub update: &'static str,
    pub stats: &'static str,
    pub drop: &'static str,
}

pub const LOCAL: Flavor = Flavor {
    pool: false,
    build: "session.build",
    push: "session.push_batch",
    flush: "session.flush",
    collect: "session.collect",
    finish: "session.finish",
    update: "session.update_plan",
    stats: "session.stats",
    drop: "session.drop",
};

pub const SHARD: Flavor = Flavor {
    pool: true,
    build: "shard.build",
    push: "shard.push_batch",
    flush: "shard.flush",
    collect: "shard.collect",
    finish: "shard.finish",
    update: "shard.update_plan",
    stats: "shard.stats",
    drop: "shard.drop",
};

pub fn build_session(engine: &Rumor, flavor: &Flavor, tr: &mut Tracer) -> Res<Session> {
    let span = tr.begin(flavor.build, NO_CHUNK);
    let builder = engine.session();
    let session = if flavor.pool {
        builder.workers(SHARD_WORKERS).build()?
    } else {
        builder.build()?
    };
    tr.end(span);
    Ok(session)
}

/// The lifecycle queries of a workload, lowered ahead of time so a timed
/// `add_query` pays for integration, not for parsing.
pub struct Lifecycle {
    plans: Vec<LogicalPlan>,
    next: usize,
}

impl Lifecycle {
    pub fn new(w: &Workload) -> Res<Lifecycle> {
        let mut lowerer = Lowerer::new();
        for stmt in parse_script(&w.prelude)? {
            lowerer.lower(&stmt)?;
        }
        let mut plans = Vec::new();
        for body in &w.lifecycle {
            for stmt in parse_script(&format!("{body};"))? {
                if let LoweredStatement::Register { plan, .. } = lowerer.lower(&stmt)? {
                    plans.push(plan);
                }
            }
        }
        if plans.is_empty() {
            return Err("workload has no lifecycle queries".into());
        }
        Ok(Lifecycle { plans, next: 0 })
    }

    pub fn next_plan(&mut self) -> &LogicalPlan {
        self.next += 1;
        &self.plans[(self.next - 1) % self.plans.len()]
    }
}

/// The lifecycle calls a system has served.
#[derive(Default)]
pub struct LifecycleTimes {
    /// Milliseconds of each `add_query` + `update_plan` (over the wire:
    /// `REGISTER`) not yet taken by the caller.
    pub integrate_ms: Vec<f64>,
    /// Adds and removes so far, each an attempted operation.
    pub calls: u64,
}

impl LifecycleTimes {
    fn integrated(&mut self, since: Instant) {
        self.integrate_ms.push(since.elapsed().as_secs_f64() * 1e3);
        self.calls += 1;
    }
}

/// One timed window: wall and process-CPU seconds over `events` inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    pub events: u64,
    pub results: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Window {
    pub fn add(&mut self, other: Window) {
        self.events += other.events;
        self.results += other.results;
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }

    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-12)
    }

    pub fn ns_per_event(&self) -> f64 {
        self.wall_s * 1e9 / self.events.max(1) as f64
    }

    pub fn cpu_ns_per_event(&self) -> f64 {
        self.cpu_s * 1e9 / self.events.max(1) as f64
    }
}

pub struct WindowClock {
    wall: Instant,
    cpu: f64,
}

impl WindowClock {
    pub fn start() -> WindowClock {
        WindowClock {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    pub fn stop(self, events: u64, results: u64) -> Window {
        Window {
            events,
            results,
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu,
        }
    }
}

/// A system under test the generator can stream chunks into: an embedded
/// session or a server behind its clients.
pub trait Sut {
    /// Readies the system for a stream whose timestamps start over (a
    /// fresh session where state would otherwise see time run backwards).
    /// Outside every timed window.
    fn open(&mut self, tr: &mut Tracer) -> Res<()>;
    /// Pushes one arrival chunk and returns with its results consumed.
    fn deliver(
        &mut self,
        chunk: &[Event],
        id: u32,
        out: &mut Results<'_>,
        tr: &mut Tracer,
    ) -> Res<()>;
    /// Ends the stream: final barrier, last results consumed.
    fn close_stream(&mut self, out: &mut Results<'_>, tr: &mut Tracer) -> Res<()>;
    /// Adds, then removes, one lifecycle query against the open stream.
    fn lifecycle_round(&mut self, tr: &mut Tracer) -> Res<()>;
    fn times(&mut self) -> &mut LifecycleTimes;
    /// `QueryId::index()` → position in `Workload::queries`.
    fn resident(&self) -> Vec<u32>;
    /// Results the system dropped instead of delivering.
    fn shed(&self) -> u64;
    /// Stops and joins everything the set-up started.
    fn shutdown(self: Box<Self>) -> Res<()>;
}

/// One closed-loop pass: the feed in arrival chunks, each chunk's results
/// consumed before the next is pushed. The window opens at the first push
/// and closes when the last result is in hand.
pub fn pass(
    sut: &mut dyn Sut,
    feed: &[Event],
    out: &mut Results<'_>,
    tr: &mut Tracer,
) -> Res<Window> {
    sut.open(tr)?;
    let before = out.count;
    let clock = WindowClock::start();
    for (i, chunk) in feed.chunks(CHUNK).enumerate() {
        sut.deliver(chunk, i as u32, out, tr)?;
    }
    sut.close_stream(out, tr)?;
    Ok(clock.stop(feed.len() as u64, out.count - before))
}

/// The embedded system: one engine, one session per stream.
pub struct EmbeddedSut<'w> {
    w: &'w Workload,
    pub engine: Rumor,
    pub ids: Vec<QueryId>,
    pub rewrites: RewriteTrace,
    pub flavor: &'static Flavor,
    pub session: Option<Session>,
    life: Lifecycle,
    times: LifecycleTimes,
    /// Events pushed into the open stream, and the count at which the
    /// next churn swap falls due.
    pushed: usize,
    next_churn: usize,
    pending: Option<QueryId>,
}

impl<'w> EmbeddedSut<'w> {
    /// Empty engine → queries registered, plan optimized, first session
    /// built: ready for the first event.
    pub fn setup(
        w: &'w Workload,
        script: &str,
        config: OptimizerConfig,
        tr: &mut Tracer,
    ) -> Res<Self> {
        let mut engine = Rumor::new(config);
        let span = tr.begin("rumor.execute", NO_CHUNK);
        let ids = engine.execute(script)?;
        tr.end(span);
        let span = tr.begin("rumor.optimize", NO_CHUNK);
        let rewrites = engine.optimize()?;
        tr.end(span);
        let session = build_session(&engine, &LOCAL, tr)?;
        for (i, name) in w.streams.iter().enumerate() {
            if engine.source_id(name) != Some(SourceId::from_index(i)) {
                return Err(format!("stream `{name}` is not source {i}").into());
            }
        }
        Ok(EmbeddedSut {
            w,
            engine,
            ids,
            rewrites,
            flavor: &LOCAL,
            session: Some(session),
            life: Lifecycle::new(w)?,
            times: LifecycleTimes::default(),
            pushed: 0,
            next_churn: 0,
            pending: None,
        })
    }

    pub fn live(&mut self) -> Res<&mut Session> {
        self.session.as_mut().ok_or_else(|| "no open stream".into())
    }

    /// `Rumor::add_query` of the next lifecycle query, no session swap.
    pub fn add_lifecycle_query(&mut self, tr: &mut Tracer) -> Res<QueryId> {
        let span = tr.begin("rumor.add_query", NO_CHUNK);
        let query = self.engine.add_query(self.life.next_plan())?.query;
        tr.end(span);
        Ok(query)
    }

    /// `Rumor::remove_query`, no session swap.
    pub fn remove_lifecycle_query(&mut self, query: QueryId, tr: &mut Tracer) -> Res<()> {
        let span = tr.begin("rumor.remove_query", NO_CHUNK);
        self.engine.remove_query(query)?;
        tr.end(span);
        Ok(())
    }

    fn integrate(&mut self, tr: &mut Tracer) -> Res<QueryId> {
        let start = Instant::now();
        let query = self.add_lifecycle_query(tr)?;
        self.swap(tr)?;
        self.times.integrated(start);
        Ok(query)
    }

    fn retire(&mut self, query: QueryId, tr: &mut Tracer) -> Res<()> {
        self.remove_lifecycle_query(query, tr)?;
        self.swap(tr)?;
        self.times.calls += 1;
        Ok(())
    }

    fn swap(&mut self, tr: &mut Tracer) -> Res<()> {
        let span = tr.begin(self.flavor.update, NO_CHUNK);
        let session = self.session.as_mut().ok_or("no open stream")?;
        session.update_plan(self.engine.plan())?;
        tr.end(span);
        Ok(())
    }

    /// Takes, counts and releases what the session has delivered; giving
    /// the tuples back to the allocator is part of consuming them.
    fn collect(&mut self, id: u32, out: &mut Results<'_>, tr: &mut Tracer) -> Res<()> {
        let span = tr.begin(self.flavor.collect, id);
        let results = self.live()?.collect_all();
        out.take_pairs(&results);
        drop(results);
        tr.end(span);
        Ok(())
    }
}

impl Sut for EmbeddedSut<'_> {
    fn open(&mut self, tr: &mut Tracer) -> Res<()> {
        let span = tr.begin(self.flavor.drop, NO_CHUNK);
        self.session = None;
        tr.end(span);
        self.session = Some(build_session(&self.engine, self.flavor, tr)?);
        self.pushed = 0;
        self.next_churn = 0;
        // Every stream churns through the same lifecycle queries, so
        // every pass over a feed produces the same results.
        self.life.next = 0;
        Ok(())
    }

    fn deliver(
        &mut self,
        chunk: &[Event],
        id: u32,
        out: &mut Results<'_>,
        tr: &mut Tracer,
    ) -> Res<()> {
        if self.w.churn && self.pushed >= self.next_churn {
            if let Some(q) = self.pending.take() {
                self.retire(q, tr)?;
            }
            self.pending = Some(self.integrate(tr)?);
            self.next_churn += CHURN_EVERY * CHUNK;
        }
        let flavor = self.flavor;
        let span = tr.begin(flavor.push, id);
        self.live()?.push_batch(chunk)?;
        tr.end(span);
        self.pushed += chunk.len();
        // A worker pool only surfaces results at a barrier, so consuming
        // them per chunk means flushing per chunk; the local engine
        // delivers on push and its flush is the (cheap) same contract.
        let span = tr.begin(flavor.flush, id);
        self.live()?.flush()?;
        tr.end(span);
        self.collect(id, out, tr)
    }

    fn close_stream(&mut self, out: &mut Results<'_>, tr: &mut Tracer) -> Res<()> {
        if let Some(q) = self.pending.take() {
            self.retire(q, tr)?;
        }
        let span = tr.begin(self.flavor.finish, NO_CHUNK);
        self.live()?.finish()?;
        tr.end(span);
        self.collect(NO_CHUNK, out, tr)
    }

    fn lifecycle_round(&mut self, tr: &mut Tracer) -> Res<()> {
        let q = self.integrate(tr)?;
        self.retire(q, tr)
    }

    fn times(&mut self) -> &mut LifecycleTimes {
        &mut self.times
    }

    fn resident(&self) -> Vec<u32> {
        resident_map(&self.ids)
    }

    fn shed(&self) -> u64 {
        0
    }

    fn shutdown(self: Box<Self>) -> Res<()> {
        Ok(())
    }
}

/// The unoptimized plan fed one event at a time over the reference
/// prefix: the computation every other configuration must agree with.
pub fn reference_digest(w: &Workload, script: &str) -> Res<Digest> {
    let mut tr = Tracer::new(false);
    let mut unshared = EmbeddedSut::setup(w, script, OptimizerConfig::unoptimized(), &mut tr)?;
    let resident = resident_map(&unshared.ids);
    let mut out = Results::digesting(&resident);
    for (source, tuple) in &w.feed[..w.reference_prefix] {
        unshared.live()?.push(*source, tuple.clone())?;
    }
    unshared.live()?.finish()?;
    unshared.collect(NO_CHUNK, &mut out, &mut tr)?;
    Ok(out.digest.unwrap_or_default())
}

/// One server on loopback, one feeder connection, and the tenant
/// connections holding the queries round-robin — all driven from the one
/// generator thread.
pub struct Tcp<'w> {
    w: &'w Workload,
    server: Server,
    feeder: Client,
    tenants: Vec<Client>,
    resident: Vec<u32>,
    pub register_ms: Vec<f64>,
    times: LifecycleTimes,
    lifecycle_seq: usize,
}

/// Tenant connections: `min(nproc, 4) - 1`, but at least one.
pub fn tenant_count() -> usize {
    (nproc().min(4) - 1).max(1)
}

impl<'w> Tcp<'w> {
    /// Empty engine → server listening, every client connected and every
    /// query registered through the live-integrate path.
    pub fn setup(w: &'w Workload, tr: &mut Tracer) -> Res<Self> {
        let mut engine = Rumor::new(OptimizerConfig::default());
        let span = tr.begin("rumor.execute", NO_CHUNK);
        engine.execute(&w.prelude)?;
        tr.end(span);
        let span = tr.begin("server.spawn", NO_CHUNK);
        let server = Server::spawn(engine, ServerConfig::default())?;
        tr.end(span);
        let span = tr.begin("client.connect", NO_CHUNK);
        let feeder = Client::connect(server.addr())?;
        let mut tenants = Vec::new();
        for _ in 0..tenant_count() {
            tenants.push(Client::connect(server.addr())?);
        }
        tr.end(span);
        for (i, name) in w.streams.iter().enumerate() {
            if feeder.source(name) != Some(SourceId::from_index(i)) {
                return Err(format!("stream `{name}` is not source {i}").into());
            }
        }
        let mut ids = Vec::with_capacity(w.queries.len());
        let mut register_ms = Vec::with_capacity(w.queries.len());
        let n_tenants = tenants.len();
        for (i, body) in w.queries.iter().enumerate() {
            let start = Instant::now();
            let span = tr.begin("client.register", NO_CHUNK);
            ids.push(tenants[i % n_tenants].register(&format!("q{i}"), body)?);
            tr.end(span);
            register_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        Ok(Tcp {
            w,
            server,
            feeder,
            tenants,
            resident: resident_map(&ids),
            register_ms,
            times: LifecycleTimes::default(),
            lifecycle_seq: 0,
        })
    }
}

impl Sut for Tcp<'_> {
    /// The one server keeps serving: its plan is stateless on the TCP
    /// workload, so a feed replayed from timestamp 0 is harmless, and a
    /// fresh server per pass would cost a full registration round.
    fn open(&mut self, _tr: &mut Tracer) -> Res<()> {
        Ok(())
    }

    /// Feeder `PUSH_BATCH` + `FLUSH`, then every tenant `FLUSH` +
    /// `take_results`.
    fn deliver(
        &mut self,
        chunk: &[Event],
        id: u32,
        out: &mut Results<'_>,
        tr: &mut Tracer,
    ) -> Res<()> {
        let span = tr.begin("client.push_batch", id);
        self.feeder.push_batch(chunk.to_vec())?;
        tr.end(span);
        let span = tr.begin("client.flush", id);
        self.feeder.flush()?;
        tr.end(span);
        for tenant in &mut self.tenants {
            let span = tr.begin("client.tenant_flush", id);
            tenant.flush()?;
            tr.end(span);
            let span = tr.begin("client.take_results", id);
            let results = tenant.take_results();
            for (q, tuples) in &results {
                out.take(*q, tuples);
            }
            drop(results);
            tr.end(span);
        }
        Ok(())
    }

    fn close_stream(&mut self, _out: &mut Results<'_>, _tr: &mut Tracer) -> Res<()> {
        Ok(())
    }

    /// `REGISTER` (timed through its reply) then `DROP` on a tenant
    /// connection.
    fn lifecycle_round(&mut self, tr: &mut Tracer) -> Res<()> {
        let body = &self.w.lifecycle[self.lifecycle_seq % self.w.lifecycle.len()];
        let name = format!("life{}", self.lifecycle_seq);
        self.lifecycle_seq += 1;
        let tenant = &mut self.tenants[0];
        let start = Instant::now();
        let span = tr.begin("client.register", NO_CHUNK);
        tenant.register(&name, body)?;
        tr.end(span);
        self.times.integrated(start);
        let span = tr.begin("client.drop_query", NO_CHUNK);
        tenant.drop_query(&name)?;
        tr.end(span);
        self.times.calls += 1;
        Ok(())
    }

    fn times(&mut self) -> &mut LifecycleTimes {
        &mut self.times
    }

    fn resident(&self) -> Vec<u32> {
        self.resident.clone()
    }

    /// Result frames the server shed across all connections.
    fn shed(&self) -> u64 {
        self.feeder.shed() + self.tenants.iter().map(Client::shed).sum::<u64>()
    }

    /// `BYE` on every connection, then the server's graceful drain, which
    /// joins every server thread.
    fn shutdown(self: Box<Self>) -> Res<()> {
        let Tcp {
            server,
            feeder,
            tenants,
            ..
        } = *self;
        feeder.bye()?;
        for tenant in tenants {
            tenant.bye()?;
        }
        server.shutdown()?;
        Ok(())
    }
}

/// A fixed piece of harness-only arithmetic timed over and over: how fast
/// is this host *right now*? On shared hardware a core loses a third of
/// its speed for ten to forty seconds whenever a neighbour occupies its
/// sibling thread; a run cannot stop that, but it can tell which of its
/// timed units were taken on a quiet core. Every unit is tagged with the
/// slower of a probe before and a probe after it, and at the end only
/// units within [`QUIET_FACTOR`] of the run's usual probe are reported
/// (all of them when fewer than three qualify).
pub struct HostProbe {
    enabled: bool,
    /// Every probe taken, ns per step.
    samples: Vec<f64>,
}

/// A unit counts as quiet when its probe is within this factor of the
/// run's first-quartile probe; the busy-sibling state measures 1.25–1.4.
pub const QUIET_FACTOR: f64 = 1.15;

impl HostProbe {
    pub fn new() -> HostProbe {
        HostProbe {
            enabled: true,
            samples: Vec::new(),
        }
    }

    /// A probe that measures nothing and tags every unit as quiet.
    pub fn off() -> HostProbe {
        HostProbe {
            enabled: false,
            samples: Vec::new(),
        }
    }

    /// ns per step of the fastest of three short splitmix64 loops (one
    /// interrupt must not read as a slow host); about 0.4 ms in all.
    pub fn sample(&mut self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        const STEPS: u32 = 100_000;
        let mut fastest = f64::INFINITY;
        for round in 0..3 {
            let mut rng = crate::gen::SplitMix64::new(round);
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..STEPS {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc);
            fastest = fastest.min(start.elapsed().as_secs_f64() * 1e9 / STEPS as f64);
        }
        self.samples.push(fastest);
        fastest
    }

    /// Times `unit` between two probes.
    pub fn tag<T>(&mut self, unit: impl FnOnce() -> Res<T>) -> Res<Tagged<T>> {
        let before = self.sample();
        let value = unit()?;
        Ok(Tagged {
            probe_ns: before.max(self.sample()),
            value,
        })
    }

    /// The run's usual probe on a quiet host: the first quartile of all
    /// probes, which holds as long as the host was quiet for a quarter of
    /// the run. (The minimum is a rare turbo moment, not the usual state.)
    pub fn reference_ns(&self) -> f64 {
        crate::stats::quartiles(&self.samples).0
    }

    /// The units taken on a quiet host — all of them if fewer than three
    /// were.
    pub fn quiet_only<T>(&self, units: Vec<Tagged<T>>) -> Vec<T> {
        let limit = self.reference_ns() * QUIET_FACTOR;
        let quiet = units.iter().filter(|u| u.probe_ns <= limit).count();
        units
            .into_iter()
            .filter(|u| quiet < 3 || u.probe_ns <= limit)
            .map(|u| u.value)
            .collect()
    }
}

/// A timed unit with the host-speed probe taken around it.
pub struct Tagged<T> {
    pub probe_ns: f64,
    pub value: T,
}

/// Time source of the open-loop schedule; tests substitute a virtual one.
pub trait Clock {
    /// Seconds since the clock's origin.
    fn now(&self) -> f64;
    /// Returns no earlier than `t`.
    fn wait_until(&self, t: f64);
}

pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Spins: a sleeping generator wakes late by a scheduler quantum.
    fn wait_until(&self, t: f64) {
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

#[derive(Default)]
pub struct OpenLoop {
    /// Per chunk: results in hand minus the time the chunk was *due*.
    pub latency_us: Vec<f64>,
    /// Chunks the generator sent late although it was idle when they fell
    /// due — its own fault, not backlog.
    pub late: u64,
    /// Seconds the generator spent waiting for the next due time.
    pub idle_s: f64,
}

impl OpenLoop {
    pub fn absorb(&mut self, other: OpenLoop) {
        self.latency_us.extend(other.latency_us);
        self.late += other.late;
        self.idle_s += other.idle_s;
    }

    pub fn late_share(&self) -> f64 {
        self.late as f64 / self.latency_us.len().max(1) as f64
    }
}

/// Sends chunk `i` at `origin + i * interval`, never early. A chunk whose
/// predecessor is still being served goes out as soon as that returns and
/// is still timed from its due time, so a stall charges every chunk
/// queued behind it.
pub fn open_loop<C: Clock>(
    clock: &C,
    chunks: usize,
    interval_s: f64,
    out: &mut OpenLoop,
    mut deliver: impl FnMut(usize) -> Res<()>,
) -> Res<()> {
    let origin = clock.now();
    let tolerance = (interval_s * 0.1).max(20e-6);
    let mut idle_since = origin;
    for i in 0..chunks {
        let due = origin + i as f64 * interval_s;
        clock.wait_until(due);
        let sent = clock.now();
        out.idle_s += sent - idle_since;
        if idle_since <= due && sent - due > tolerance {
            out.late += 1;
        }
        deliver(i)?;
        idle_since = clock.now();
        out.latency_us.push((idle_since - due) * 1e6);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Virtual time: waiting jumps to the target, service advances it.
    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn wait_until(&self, t: f64) {
            if self.0.get() < t {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn a_stall_charges_the_chunks_queued_behind_it() {
        let clock = FakeClock(Cell::new(0.0));
        let mut out = OpenLoop::default();
        // Due every 1 ms, service 0.2 ms — except chunk 2 stalls for 3.2 ms.
        open_loop(&clock, 8, 1e-3, &mut out, |i| {
            let service = if i == 2 { 3.2e-3 } else { 0.2e-3 };
            clock.0.set(clock.0.get() + service);
            Ok(())
        })
        .unwrap();
        let us: Vec<i64> = out.latency_us.iter().map(|l| l.round() as i64).collect();
        // Chunk 2 is due at 2 ms and done at 5.2 ms; chunks 3..5 were due
        // at 3, 4, 5 ms but leave at 5.2, 5.4, 5.6 ms.
        assert_eq!(us, vec![200, 200, 3200, 2400, 1600, 800, 200, 200]);
        assert_eq!(
            out.late, 0,
            "backlog is the system's fault, not the generator's"
        );
    }

    #[test]
    fn a_generator_that_oversleeps_is_counted_late() {
        /// Wakes 0.5 ms past every fourth deadline.
        struct Oversleeper(Cell<f64>, Cell<u32>);
        impl Clock for Oversleeper {
            fn now(&self) -> f64 {
                self.0.get()
            }
            fn wait_until(&self, t: f64) {
                self.1.set(self.1.get() + 1);
                let slip = if self.1.get().is_multiple_of(4) {
                    0.5e-3
                } else {
                    0.0
                };
                self.0.set(self.0.get().max(t) + slip);
            }
        }
        let clock = Oversleeper(Cell::new(0.0), Cell::new(0));
        let mut out = OpenLoop::default();
        open_loop(&clock, 8, 1e-3, &mut out, |_| Ok(())).unwrap();
        assert_eq!(out.late, 2);
        assert!((out.late_share() - 0.25).abs() < 1e-12);
        // The slip still shows in the latency of the chunks it hit.
        assert_eq!(out.latency_us.iter().filter(|&&l| l > 400.0).count(), 2);
    }

    #[test]
    fn only_units_from_a_quiet_host_are_kept() {
        let probe = HostProbe {
            enabled: true,
            samples: vec![1.0, 1.0, 1.0, 1.0, 1.4],
        };
        assert_eq!(probe.reference_ns(), 1.0);
        let unit = |probe_ns, value| Tagged { probe_ns, value };
        let units = vec![
            unit(1.0, 'a'),
            unit(1.35, 'b'),
            unit(1.1, 'c'),
            unit(1.14, 'd'),
        ];
        assert_eq!(probe.quiet_only(units), vec!['a', 'c', 'd']);
        // Too few quiet units to report a median of: keep everything.
        let units = vec![unit(1.0, 'a'), unit(1.4, 'b'), unit(1.5, 'c')];
        assert_eq!(probe.quiet_only(units), vec!['a', 'b', 'c']);
        // A disabled probe tags and keeps everything.
        let mut off = HostProbe::off();
        let tagged = off.tag(|| Ok(7)).unwrap();
        assert_eq!(off.quiet_only(vec![tagged]), vec![7]);
        // A live probe finds a finite speed.
        let mut live = HostProbe::new();
        assert!(live.sample() > 0.0 && live.reference_ns() > 0.0);
    }

    #[test]
    fn resident_map_marks_gaps() {
        let ids = [QueryId::from_index(2), QueryId::from_index(0)];
        assert_eq!(resident_map(&ids), vec![1, NOT_RESIDENT, 0]);
        assert!(resident_map(&[]).is_empty());
    }
}
