//! The traced run of one workload: the same calls as the end-to-end run
//! with spans on, plus isolation passes that time one layer's public
//! functions alone. Yields the per-layer ledger; gated numbers never come
//! from here.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::time::Instant;

use rumor_core::{OpDef, OptimizerConfig};
use rumor_engine::{DiscardSink, EventRuntime, ExecutablePlan, StatsSnapshot};
use rumor_lang::{parse_script, Lowerer};
use rumor_server::frame::{read_frame, write_frame};
use rumor_server::{Reply, Request};
use rumor_types::QueryId;

use crate::gen::Workload;
use crate::harness::{
    pass, reference_digest, EmbeddedSut, HostProbe, Res, Results, Sut, Tcp, Window, CHUNK, LOCAL,
    SHARD,
};
use crate::run::{lifecycle_phase, open_loop_phase, pooled, Ledger, Report, RunConfig};
use crate::stats::{iqr_share, median, percentile, supported_tail, Stat};
use crate::trace::{Tracer, NO_CHUNK};

const OP_KINDS: [&str; 6] = [
    "select",
    "project",
    "aggregate",
    "join",
    "sequence",
    "iterate",
];

fn kind_of(def: &OpDef) -> &'static str {
    match def {
        OpDef::Select(_) => "select",
        OpDef::Project(_) => "project",
        OpDef::Aggregate(_) => "aggregate",
        OpDef::Join(_) => "join",
        OpDef::Sequence(_) => "sequence",
        OpDef::Iterate(_) => "iterate",
    }
}

/// Runs `f` at least once and until `budget_s` has passed.
fn until(budget_s: f64, mut f: impl FnMut() -> Res<()>) -> Res<()> {
    let start = Instant::now();
    loop {
        f()?;
        if start.elapsed().as_secs_f64() >= budget_s {
            return Ok(());
        }
    }
}

fn eps(windows: &[Window]) -> Vec<f64> {
    windows.iter().map(Window::events_per_s).collect()
}

fn median_ms(durations_s: &[f64]) -> f64 {
    median(&durations_s.iter().map(|d| d * 1e3).collect::<Vec<_>>())
}

/// The tail percentile the sample supports (p99 from 1000 samples up).
fn tail_us(latency_us: &mut [f64]) -> f64 {
    latency_us.sort_by(f64::total_cmp);
    percentile(latency_us, supported_tail(latency_us.len()))
}

#[derive(Default)]
struct Metrics(Vec<(String, Stat)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_n(name, value, unit, 1);
    }

    fn put_n(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        let mut stat = Stat::one(value, unit);
        stat.n = n;
        self.0.push((name.to_string(), stat));
    }

    fn put_stat(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.0.push((name.to_string(), Stat::of(samples, unit)));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| s.value)
    }
}

/// The state one traced run threads through its layers.
struct Traced<'w> {
    w: &'w Workload,
    /// Seconds the embedded passes share; each layer takes a fraction.
    s: f64,
    /// The optimized engine, the system every embedded pass runs on.
    emb: EmbeddedSut<'w>,
    tr: Tracer,
    /// A disabled tracer for calls that must leave no spans.
    off: Tracer,
    m: Metrics,
    ledger: Ledger,
    notes: Vec<(String, String)>,
    /// Seconds open-loop generators spent waiting for a due time.
    idle_s: f64,
    /// Switched off: per-layer numbers have no bound to protect, and the
    /// probes would only add to the harness's share of the ledger.
    host: HostProbe,
}

impl<'w> Traced<'w> {
    /// `lang` and `core`: set-up with every call bracketed.
    fn setup(w: &'w Workload, script: &str, s: f64, mut tr: Tracer) -> Res<Self> {
        let mut m = Metrics::default();
        let mut statements = 0;
        for _ in 0..5 {
            let span = tr.begin("lang.parse_and_lower", NO_CHUNK);
            let parsed = parse_script(script)?;
            let mut lowerer = Lowerer::new();
            for stmt in &parsed {
                lowerer.lower(stmt)?;
            }
            tr.end(span);
            statements = parsed.len();
        }
        let lang_s = median(&tr.durations_s("lang.parse_and_lower"));
        let per_stmt = lang_s * 1e6 / statements.max(1) as f64;
        m.put_n("lang.parse_us_per_stmt", per_stmt, "us", statements);

        let emb = EmbeddedSut::setup(w, script, OptimizerConfig::default(), &mut tr)?;
        let register_s = (tr.total_s("rumor.execute") - lang_s).max(0.0);
        m.put("core.register_s", register_s, "s");
        m.put("core.optimize_s", tr.total_s("rumor.optimize"), "s");
        m.put("session.build_s", tr.total_s("session.build"), "s");
        let plan = emb.engine.plan();
        m.put("core.mops_shared", plan.mop_count() as f64, "count");
        let rewrites = emb.rewrites.entries.len();
        m.put("core.rewrites_applied", rewrites as f64, "count");
        Ok(Traced {
            w,
            s,
            emb,
            tr,
            off: Tracer::new(false),
            m,
            ledger: Ledger::default(),
            notes: Vec::new(),
            idle_s: 0.0,
            host: HostProbe::off(),
        })
    }

    /// `exec` alone: `ExecutablePlan::push` / `push_batch` into a
    /// `DiscardSink` — dispatch and operators, no result delivery.
    fn exec_layer(&mut self) -> Res<()> {
        let w = self.w;
        let (plan, feed, tr) = (self.emb.engine.plan(), &w.feed, &mut self.tr);
        let compile = |tr: &mut Tracer| -> Res<ExecutablePlan> {
            let span = tr.begin("exec.compile", NO_CHUNK);
            let exec = ExecutablePlan::new(plan)?;
            tr.end(span);
            Ok(exec)
        };
        let compiled = compile(tr)?;
        self.m
            .put("exec.compile_s", tr.total_s("exec.compile"), "s");
        let span = tr.begin("partition.analyze", NO_CHUNK);
        rumor_core::partition::analyze(plan, &compiled.partition_reports())?;
        tr.end(span);
        let partition_s = tr.total_s("partition.analyze");
        self.m.put("core.partition_s", partition_s, "s");
        drop(compiled);

        let mut sink = DiscardSink;
        let (mut per_event, mut batched) = (Vec::new(), Vec::new());
        let (mut calls_per_event, mut batch_share) = (0.0, 0.0);
        until(0.1 * self.s, || {
            let mut exec = compile(tr)?;
            let start = Instant::now();
            let span = tr.begin("exec.push", NO_CHUNK);
            for (source, tuple) in feed {
                exec.push(*source, tuple.clone(), &mut sink)?;
            }
            tr.end(span);
            per_event.push(start.elapsed().as_secs_f64() * 1e9 / feed.len() as f64);

            let mut exec = compile(tr)?;
            let start = Instant::now();
            let span = tr.begin("exec.push_batch", NO_CHUNK);
            for chunk in feed.chunks(CHUNK) {
                exec.push_batch(chunk, &mut sink)?;
            }
            tr.end(span);
            batched.push(start.elapsed().as_secs_f64() * 1e9 / feed.len() as f64);
            let report = exec.stats_report();
            let batch_calls: u64 = report.ops.iter().map(|o| o.batch_calls).sum();
            let event_calls: u64 = report.ops.iter().map(|o| o.event_calls).sum();
            calls_per_event = (batch_calls + event_calls) as f64 / feed.len() as f64;
            batch_share = batch_calls as f64 / (batch_calls + event_calls).max(1) as f64;
            let span = tr.begin("exec.drop", NO_CHUNK);
            drop(exec);
            tr.end(span);
            Ok(())
        })?;
        let m = &mut self.m;
        m.put_stat("exec.push_ns_per_event", &per_event, "ns");
        m.put_stat("exec.push_batch_ns_per_event", &batched, "ns");
        m.put("exec.mop_calls_per_event", calls_per_event, "1/ev");
        m.put("exec.batch_call_share", batch_share, "share");
        Ok(())
    }

    /// `session`: traced and untraced passes alternate, so the tracing
    /// overhead is a difference between neighbours, not between runs.
    fn session_layer(&mut self) -> Res<()> {
        let feed = &self.w.feed;
        self.ledger.full_pass(&mut self.emb, feed, &mut self.off)?;
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        until(0.15 * self.s, || {
            let span = self.tr.begin("session.untraced_pass", NO_CHUNK);
            untraced.push(self.ledger.full_pass(&mut self.emb, feed, &mut self.off)?);
            self.tr.end(span);
            traced.push(self.ledger.full_pass(&mut self.emb, feed, &mut self.tr)?);
            Ok(())
        })?;
        let (tr, m) = (&self.tr, &mut self.m);
        let events: u64 = traced.iter().map(|w| w.events).sum();
        let results: u64 = traced.iter().map(|w| w.results).sum();
        let in_session = tr.total_s("session.push_batch")
            + tr.total_s("session.flush")
            + tr.total_s("session.finish");
        let overhead = in_session * 1e9 / events as f64 - m.get("exec.push_batch_ns_per_event");
        m.put("session.overhead_ns_per_event", overhead, "ns");
        let drain = tr.total_s("session.collect") * 1e9 / results.max(1) as f64;
        m.put("session.drain_ns_per_result", drain, "ns");
        let flush_us: Vec<f64> = tr.durations_s("session.flush");
        let flush_us: Vec<f64> = flush_us.iter().map(|d| d * 1e6).collect();
        m.put_stat("session.flush_us_p50", &flush_us, "us");
        m.put(
            "exec.results_per_event",
            results as f64 / events as f64,
            "1/ev",
        );
        let overhead_pct = (median(&eps(&untraced)) / median(&eps(&traced)) - 1.0) * 100.0;
        m.put("bench.trace_overhead_pct", overhead_pct, "%");
        let spread = iqr_share(&eps(&untraced)) * 100.0;
        m.put_n(
            "bench.repeat_iqr_pct.events_per_s",
            spread,
            "%",
            untraced.len(),
        );
        let cpu: Vec<f64> = untraced.iter().map(Window::cpu_ns_per_event).collect();
        let spread = iqr_share(&cpu) * 100.0;
        m.put_n(
            "bench.repeat_iqr_pct.cpu_ns_per_event",
            spread,
            "%",
            cpu.len(),
        );
        Ok(())
    }

    /// One whole-feed stream with a stats snapshot taken before the final
    /// barrier, while operator state is still resident.
    fn snapshot_pass(&mut self) -> Res<StatsSnapshot> {
        let (emb, tr) = (&mut self.emb, &mut self.tr);
        let mut out = Results::counting();
        emb.open(tr)?;
        for (i, chunk) in self.w.feed.chunks(CHUNK).enumerate() {
            emb.deliver(chunk, i as u32, &mut out, tr)?;
        }
        let span = tr.begin(emb.flavor.stats, NO_CHUNK);
        let snap = emb.live()?.stats()?;
        tr.end(span);
        emb.close_stream(&mut out, tr)?;
        self.ledger.events += self.w.feed.len() as u64;
        Ok(snap)
    }

    /// `ops`: exact per-kind operator counts and the sampled busy share.
    fn ops_layer(&mut self) -> Res<()> {
        let snap = self.snapshot_pass()?;
        let plan = self.emb.engine.plan();
        let mut per_kind: BTreeMap<&str, [f64; 4]> = BTreeMap::new();
        for op in &snap.ops {
            let Some(member) = plan.mop_opt(op.mop).and_then(|n| n.members.first()) else {
                continue;
            };
            let e = per_kind.entry(kind_of(&member.def)).or_default();
            e[0] += op.events_in as f64;
            e[1] += op.events_out as f64;
            e[2] += op.state_size as f64;
            e[3] += op.est_nanos() as f64;
        }
        let busy: f64 = per_kind.values().map(|e| e[3]).sum();
        let m = &mut self.m;
        for kind in OP_KINDS {
            let e = per_kind.get(kind).copied().unwrap_or_default();
            m.put(&format!("ops.{kind}.events_in"), e[0], "count");
            m.put(&format!("ops.{kind}.events_out"), e[1], "count");
            m.put(&format!("ops.{kind}.state_size"), e[2], "count");
            let share = if busy > 0.0 { e[3] / busy } else { 0.0 };
            m.put(&format!("ops.{kind}.est_busy_share"), share, "share");
        }
        // The paper's benefit metric: operator inputs sharing saved, as a
        // share of what the unshared plan would have processed.
        let processed: u64 = snap.ops.iter().map(|o| o.events_in).sum();
        let saved = snap.total_events_saved();
        let ratio = saved as f64 / (saved + processed).max(1) as f64;
        m.put("core.work_saved_ratio", ratio, "share");
        Ok(())
    }

    /// The same feed with every query individually subscribed and drained
    /// after each chunk: what delivery through subscriptions costs per
    /// result, over and above the executor's own time.
    fn subscription_layer(&mut self) -> Res<()> {
        let (emb, tr, feed) = (&mut self.emb, &mut self.tr, &self.w.feed);
        let ids: Vec<QueryId> = emb.ids.clone();
        emb.open(tr)?;
        let session = emb.live()?;
        let span = tr.begin("session.subscribe", NO_CHUNK);
        let mut subs: Vec<_> = ids.iter().map(|&q| session.subscribe(q)).collect();
        tr.end(span);
        let start = Instant::now();
        let mut results = 0u64;
        for (i, chunk) in feed.chunks(CHUNK).enumerate() {
            let span = tr.begin("session.push_batch", i as u32);
            session.push_batch(chunk)?;
            tr.end(span);
            let span = tr.begin("session.subscription_drain", i as u32);
            results += subs.iter_mut().map(|s| s.drain().len() as u64).sum::<u64>();
            tr.end(span);
        }
        let span = tr.begin("session.finish", NO_CHUNK);
        session.finish()?;
        tr.end(span);
        let span = tr.begin("session.subscription_drain", NO_CHUNK);
        results += subs.iter_mut().map(|s| s.drain().len() as u64).sum::<u64>();
        tr.end(span);
        let spent_s = start.elapsed().as_secs_f64();
        self.ledger.events += feed.len() as u64;
        let exec_s = self.m.get("exec.push_batch_ns_per_event") * 1e-9 * feed.len() as f64;
        let per_result = (spent_s - exec_s) * 1e9 / results.max(1) as f64;
        self.m.put_n(
            "session.subscribe_ns_per_result",
            per_result,
            "ns",
            results as usize,
        );
        Ok(())
    }

    /// `shard`: the 2-worker streaming pool, seen from the caller.
    fn shard_layer(&mut self) -> Res<()> {
        self.emb.flavor = &SHARD;
        let mut sharded = Vec::new();
        until(0.12 * self.s, || {
            let win = self
                .ledger
                .full_pass(&mut self.emb, &self.w.feed, &mut self.tr)?;
            sharded.push(win);
            Ok(())
        })?;
        let events: u64 = sharded.iter().map(|w| w.events).sum();
        let wall: f64 = sharded.iter().map(|w| w.wall_s).sum();
        let push_ns = self.tr.total_s("shard.push_batch") * 1e9 / events as f64;
        let flush_share = self.tr.total_s("shard.flush") / wall;
        let snap = self.snapshot_pass()?;
        self.emb.flavor = &LOCAL;
        let m = &mut self.m;
        m.put_stat("sharded_events_per_s", &eps(&sharded), "ev/s");
        m.put("shard.push_ns_per_event", push_ns, "ns");
        m.put("shard.flush_wait_share", flush_share, "share");
        let blocking = snap.runtime.blocking_sends;
        m.put("shard.blocking_sends", blocking as f64, "count");
        let hwm = snap.runtime.queue_depth_hwm.iter().max().copied();
        m.put("shard.queue_depth_hwm", hwm.unwrap_or(0) as f64, "count");
        Ok(())
    }

    /// Sharing speed-up: the optimized plan against the unoptimized one,
    /// both fed the reference prefix in arrival chunks, alternating.
    fn sharing_layer(&mut self, script: &str) -> Res<()> {
        let span = self.tr.begin("rumor.setup_unshared", NO_CHUNK);
        let config = OptimizerConfig::unoptimized();
        let mut unshared = EmbeddedSut::setup(self.w, script, config, &mut self.off)?;
        self.tr.end(span);
        let mops = unshared.engine.plan().mop_count();
        self.m.put("core.mops_unshared", mops as f64, "count");
        let prefix = &self.w.feed[..self.w.reference_prefix];
        let (mut shared_eps, mut unshared_eps) = (Vec::new(), Vec::new());
        until(0.12 * self.s, || {
            for (sut, eps) in [
                (&mut self.emb, &mut shared_eps),
                (&mut unshared, &mut unshared_eps),
            ] {
                let win = pass(sut, prefix, &mut Results::counting(), &mut self.tr)?;
                self.ledger.events += win.events;
                eps.push(win.events_per_s());
            }
            Ok(())
        })?;
        let speedup = median(&shared_eps) / median(&unshared_eps);
        self.m
            .put_n("sharing_speedup", speedup, "x", shared_eps.len());
        let span = self.tr.begin("session.drop", NO_CHUNK);
        drop(unshared);
        self.tr.end(span);
        Ok(())
    }

    /// Lifecycle: core's share of an add/remove, then each runtime's hot
    /// swap — local session, pool epoch, bare `apply_delta`.
    fn lifecycle_layer(&mut self) -> Res<()> {
        let budget = 0.04 * self.s;
        for flavor in [&LOCAL, &SHARD] {
            self.emb.flavor = flavor;
            lifecycle_phase(
                &mut self.emb,
                self.w,
                budget,
                &mut self.host,
                &mut self.ledger,
                &mut self.tr,
            )?;
        }
        self.emb.flavor = &LOCAL;
        let mut exec = ExecutablePlan::new(self.emb.engine.plan())?;
        until(0.02 * self.s, || {
            let q = self.emb.add_lifecycle_query(&mut self.off)?;
            let span = self.tr.begin("exec.apply_delta", NO_CHUNK);
            exec.apply_delta(self.emb.engine.plan())?;
            self.tr.end(span);
            self.emb.remove_lifecycle_query(q, &mut self.off)?;
            let span = self.tr.begin("exec.apply_delta", NO_CHUNK);
            exec.apply_delta(self.emb.engine.plan())?;
            self.tr.end(span);
            Ok(())
        })?;
        for (metric, span) in [
            ("core.add_query_ms_p50", "rumor.add_query"),
            ("core.remove_query_ms_p50", "rumor.remove_query"),
            ("session.update_plan_ms_p50", "session.update_plan"),
            ("shard.update_epoch_ms_p50", "shard.update_plan"),
            ("exec.apply_delta_ms_p50", "exec.apply_delta"),
        ] {
            let durations = self.tr.durations_s(span);
            self.m
                .put_n(metric, median_ms(&durations), "ms", durations.len());
        }
        // One lifecycle call went with every timed `apply_delta`.
        self.ledger.events += self.tr.durations_s("exec.apply_delta").len() as u64;
        Ok(())
    }

    /// Open loop against the local session.
    fn delivery_layer(&mut self) -> Res<()> {
        let passes = open_loop_phase(
            &mut self.emb,
            self.w,
            0.12 * self.s,
            &mut self.host,
            &mut self.ledger,
            &mut self.tr,
        )?;
        let mut ol = pooled(self.host.quiet_only(passes));
        self.idle_s += ol.idle_s;
        let n = ol.latency_us.len();
        let tail = tail_us(&mut ol.latency_us);
        self.m.put_n("session.delivery_p99_us", tail, "us", n);
        self.m
            .put("bench.generator_late_share", ol.late_share(), "share");
        let percentile = supported_tail(n).to_string();
        self.notes
            .push(("delivery_tail_percentile".into(), percentile));
        Ok(())
    }

    /// `server.proto` and `server.frame` alone, on the run's real chunks
    /// and the real results of the reference prefix.
    fn wire_layer(&mut self) -> Res<()> {
        let (emb, tr, m) = (&mut self.emb, &mut self.tr, &mut self.m);
        let prefix = &self.w.feed[..self.w.reference_prefix];
        emb.open(tr)?;
        let span = tr.begin("session.prefix_results", NO_CHUNK);
        let session = emb.live()?;
        session.push_batch(prefix)?;
        session.finish()?;
        let mut by_query: BTreeMap<QueryId, Vec<_>> = BTreeMap::new();
        for (q, t) in session.collect_all() {
            by_query.entry(q).or_default().push(t);
        }
        tr.end(span);
        let results: usize = by_query.values().map(Vec::len).sum();
        let requests: Vec<Request> = prefix
            .chunks(CHUNK)
            .map(|c| Request::PushBatch { events: c.to_vec() })
            .collect();
        let replies: Vec<Reply> = by_query
            .into_iter()
            .map(|(query, tuples)| Reply::Results { query, tuples })
            .collect();

        let span = tr.begin("proto.encode", NO_CHUNK);
        let request_bytes: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
        let reply_bytes: Vec<Vec<u8>> = replies.iter().map(Reply::encode).collect();
        tr.end(span);
        let span = tr.begin("proto.decode", NO_CHUNK);
        for bytes in &request_bytes {
            std::hint::black_box(Request::decode(bytes)?);
        }
        for bytes in &reply_bytes {
            std::hint::black_box(Reply::decode(bytes)?);
        }
        tr.end(span);
        let events = prefix.len() as f64;
        let encode_ns = tr.total_s("proto.encode") * 1e9 / events;
        let decode_ns = tr.total_s("proto.decode") * 1e9 / events;
        m.put("server.proto.encode_ns_per_event", encode_ns, "ns");
        m.put("server.proto.decode_ns_per_event", decode_ns, "ns");
        let pushed: usize = request_bytes.iter().map(Vec::len).sum();
        let returned: usize = reply_bytes.iter().map(Vec::len).sum();
        m.put("server.proto.bytes_per_event", pushed as f64 / events, "B");
        let per_result = returned as f64 / results.max(1) as f64;
        m.put("server.proto.result_bytes_per_result", per_result, "B");

        let span = tr.begin("frame.write_read", NO_CHUNK);
        let mut wire = Vec::new();
        for payload in request_bytes.iter().chain(&reply_bytes) {
            write_frame(&mut wire, payload)?;
        }
        let mut cursor = Cursor::new(&wire);
        let mut frames = 0usize;
        while let Some(payload) = read_frame(&mut cursor)? {
            std::hint::black_box(payload);
            frames += 1;
        }
        tr.end(span);
        let per_frame = tr.total_s("frame.write_read") * 1e9 / frames.max(1) as f64;
        m.put_n("server.frame.rw_ns_per_frame", per_frame, "ns", frames);
        self.ledger.events += prefix.len() as u64;
        Ok(())
    }

    /// `tenant_tcp` only: the server behind its clients, traced from the
    /// client side. Every metric here reads 0 on an embedded workload.
    fn server_layer(&mut self, budget_s: f64) -> Res<Option<Box<Tcp<'w>>>> {
        const NAMES: [(&str, &str); 7] = [
            ("server.client.push_ns_per_event", "ns"),
            ("server.client.flush_rtt_us_p50", "us"),
            ("server.client.flush_rtt_us_p99", "us"),
            ("server.register_ms_p50", "ms"),
            ("server.shed_results", "count"),
            ("server.delivery_p99_us", "us"),
            ("server.residual_ns_per_event", "ns"),
        ];
        let (w, tr, m, ledger) = (self.w, &mut self.tr, &mut self.m, &mut self.ledger);
        let host = &mut self.host;
        if !w.tcp {
            for (name, unit) in NAMES {
                m.put(name, 0.0, unit);
            }
            return Ok(None);
        }
        let mut tcp = Box::new(Tcp::setup(w, tr)?);
        let registrations = tcp.register_ms.len();
        let register_ms = median(&tcp.register_ms);
        m.put_n("server.register_ms_p50", register_ms, "ms", registrations);
        let mut windows = Vec::new();
        until(budget_s * 0.6, || {
            windows.push(ledger.full_pass(tcp.as_mut(), &w.feed, tr)?);
            Ok(())
        })?;
        let events: u64 = windows.iter().map(|w| w.events).sum();
        let push_ns = tr.total_s("client.push_batch") * 1e9 / events as f64;
        m.put("server.client.push_ns_per_event", push_ns, "ns");
        let mut rtt_us: Vec<f64> = tr.durations_s("client.flush");
        rtt_us.iter_mut().for_each(|d| *d *= 1e6);
        rtt_us.sort_by(f64::total_cmp);
        let (n, tail) = (rtt_us.len(), supported_tail(rtt_us.len()));
        m.put_n(
            "server.client.flush_rtt_us_p50",
            percentile(&rtt_us, 50.0),
            "us",
            n,
        );
        m.put_n(
            "server.client.flush_rtt_us_p99",
            percentile(&rtt_us, tail),
            "us",
            n,
        );
        let passes = open_loop_phase(tcp.as_mut(), w, budget_s * 0.3, host, ledger, tr)?;
        let mut ol = pooled(host.quiet_only(passes));
        self.idle_s += ol.idle_s;
        let n = ol.latency_us.len();
        m.put_n(
            "server.delivery_p99_us",
            tail_us(&mut ol.latency_us),
            "us",
            n,
        );
        lifecycle_phase(tcp.as_mut(), w, budget_s * 0.1, host, ledger, tr)?;
        m.put("server.shed_results", tcp.shed() as f64, "count");
        // What the isolation passes cannot see: queue wait, outbox,
        // syscalls, lock-step round trips.
        let wall_ns = median(&windows.iter().map(Window::ns_per_event).collect::<Vec<_>>());
        let explained = m.get("server.proto.encode_ns_per_event")
            + m.get("server.proto.decode_ns_per_event")
            + m.get("exec.push_batch_ns_per_event")
            + m.get("session.overhead_ns_per_event");
        m.put("server.residual_ns_per_event", wall_ns - explained, "ns");
        Ok(Some(tcp))
    }

    /// Every configuration must agree with the unoptimized reference.
    /// Returns `(correct, results shed)`.
    fn verify(&mut self, script: &str, tcp: Option<Box<Tcp<'w>>>) -> Res<(bool, u64)> {
        let prefix = &self.w.feed[..self.w.reference_prefix];
        let span = self.tr.begin("session.reference_run", NO_CHUNK);
        let reference = reference_digest(self.w, script)?;
        self.tr.end(span);
        let mut correct = self.ledger.mismatches == 0;
        let (tr, notes, ledger) = (&mut self.tr, &mut self.notes, &mut self.ledger);
        let mut check = |label: &str, sut: &mut dyn Sut| -> Res<()> {
            let resident = sut.resident();
            let mut out = Results::digesting(&resident);
            pass(sut, prefix, &mut out, tr)?;
            ledger.events += prefix.len() as u64;
            if out.digest != Some(reference) {
                let found = format!("{label}: {:?} vs reference {reference:?}", out.digest);
                notes.push(("MISMATCH".into(), found));
                correct = false;
            }
            Ok(())
        };
        check("local", &mut self.emb)?;
        self.emb.flavor = &SHARD;
        check("sharded", &mut self.emb)?;
        self.emb.flavor = &LOCAL;
        let mut shed = 0;
        if let Some(mut tcp) = tcp {
            check("tcp", tcp.as_mut())?;
            shed = tcp.shed();
            self.ledger.events += tcp.times().calls;
            let span = self.tr.begin("server.shutdown", NO_CHUNK);
            tcp.shutdown()?;
            self.tr.end(span);
        }
        self.ledger.events += prefix.len() as u64 + self.emb.times().calls;
        Ok((correct, shed))
    }

    /// The ledger: every layer's self time, and what the harness itself
    /// spent between calls (the `bench` remainder). Time an open-loop
    /// generator spent waiting for a due time is neither a layer's nor the
    /// harness's work, so it leaves both sides.
    fn close_ledger(&mut self) {
        let wall = self.tr.total_s("bench.run") - self.idle_s;
        let layers = self.tr.layer_self_s();
        let self_s = |layer: &str| layers.get(layer).copied().unwrap_or(0.0);
        for layer in ["lang", "core", "exec", "session", "shard", "server"] {
            self.m
                .put(&format!("{layer}.self_ms"), self_s(layer) * 1e3, "ms");
        }
        self.m.put("bench.traced_wall_ms", wall * 1e3, "ms");
        let residual = (self_s("bench") - self.idle_s) / wall * 100.0;
        self.m.put("bench.ledger_residual_pct", residual, "%");
    }
}

pub fn per_layer(w: &Workload, cfg: &RunConfig) -> Res<Report> {
    // The TCP workload spends part of the run on the wire.
    let s = cfg.seconds * if w.tcp { 0.6 } else { 1.0 };
    let script = w.script();
    let mut tr = Tracer::new(true);
    let root = tr.begin("bench.run", NO_CHUNK);
    let mut run = Traced::setup(w, &script, s, tr)?;
    run.exec_layer()?;
    run.session_layer()?;
    run.ops_layer()?;
    run.subscription_layer()?;
    run.shard_layer()?;
    run.sharing_layer(&script)?;
    run.lifecycle_layer()?;
    run.delivery_layer()?;
    run.wire_layer()?;
    let tcp = run.server_layer(cfg.seconds * 0.4)?;
    let (correct, shed) = run.verify(&script, tcp)?;
    let span = run.tr.begin("session.drop", NO_CHUNK);
    run.emb.session = None;
    run.tr.end(span);
    run.tr.end(root);
    run.close_ledger();

    let trace_file = format!("benchmark/out/trace-{}.json", w.name);
    std::fs::create_dir_all("benchmark/out")?;
    std::fs::write(&trace_file, run.tr.to_json(w.name))?;
    run.notes.push(("trace_file".into(), trace_file));
    let attempted = run.ledger.events;
    Ok(Report {
        correct,
        attempted,
        failed: shed + if correct { 0 } else { attempted },
        metrics: run.m.0,
        notes: run.notes,
    })
}
