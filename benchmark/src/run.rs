//! The end-to-end run of one workload, tracing off: set-up (several times)
//! → warm-up pass → timed closed-loop repeats → lifecycle calls →
//! open-loop latency phase → reference check.

use std::time::Instant;

use rumor_core::OptimizerConfig;

use crate::gen::{Scale, Workload};
use crate::harness::{
    open_loop, pass, reference_digest, tenant_count, EmbeddedSut, Event, HostProbe, OpenLoop, Res,
    Results, Sut, Tagged, Tcp, WallClock, Window, CHUNK, CHURN_EVERY, OPEN_LOOP_CHUNK,
};
use crate::stats::{nproc, proc_status_mb, Digest, Stat};
use crate::trace::Tracer;

/// Full-feed result count and digest of the resident queries at seed 1,
/// full scale — pinned so a change of *results* cannot hide behind a
/// reference that changed with it.
const PINS: [(&str, u64, u64); 6] = [
    ("shared_selects", 274_286, 0x58d2_8928_0573_5137),
    ("tenant_tcp", 133_461, 0x5c41_844e_20a0_c8f9),
    ("select_chain", 263_507, 0x185d_e16f_859e_fa1d),
    ("w1_patterns", 729, 0x91de_6c46_5158_83f1),
    ("keyed_agg", 1_048_576, 0xbd39_1c00_5242_6e09),
    ("query_churn", 274_515, 0x58d2_8928_0573_5137),
];

/// The generator refuses to report delivery latencies when it sent more
/// than this share of chunks late through its own fault.
const MAX_LATE_SHARE: f64 = 0.05;

/// Whether `late` of `chunks` shows a late share above [`MAX_LATE_SHARE`].
/// A few hundred chunks cannot resolve a few per cent — a handful of
/// preemptions of the spinning generator would trip it — so the count
/// must clear the limit by three standard deviations of a Poisson count
/// at the limit.
pub fn too_late(late: u64, chunks: usize) -> bool {
    let limit = MAX_LATE_SHARE * chunks as f64;
    late as f64 > limit + 3.0 * limit.sqrt()
}

pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    pub scale: Scale,
}

impl RunConfig {
    pub fn pinned(&self) -> bool {
        self.seed == 1 && self.scale == Scale::Full
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, Stat)>,
    /// Free-form facts about the run (thread budget, sizes, digests).
    pub notes: Vec<(String, String)>,
}

/// Empty engine → ready for the first event: register, optimize,
/// compile, build — or spawn, connect and register over the wire.
pub fn setup<'w>(w: &'w Workload, script: &str, tr: &mut Tracer) -> Res<Box<dyn Sut + 'w>> {
    if w.tcp {
        let connections = 1 + tenant_count();
        if connections > nproc().max(2) {
            return Err(format!("{connections} connections exceed nproc {}", nproc()).into());
        }
        return Ok(Box::new(Tcp::setup(w, tr)?));
    }
    let config = OptimizerConfig::default();
    Ok(Box::new(EmbeddedSut::setup(w, script, config, tr)?))
}

/// Events pushed and passes checked against each other across a run.
#[derive(Default)]
pub struct Ledger {
    pub events: u64,
    full_feed_results: Option<u64>,
    pub mismatches: u64,
}

impl Ledger {
    /// One closed-loop pass over the whole feed; every such pass must
    /// produce the same number of results.
    pub fn full_pass(&mut self, sut: &mut dyn Sut, feed: &[Event], tr: &mut Tracer) -> Res<Window> {
        let mut out = Results::counting();
        let win = pass(sut, feed, &mut out, tr)?;
        self.events += win.events;
        if *self.full_feed_results.get_or_insert(out.count) != out.count {
            self.mismatches += 1;
        }
        Ok(win)
    }

    pub fn full_feed_results(&self) -> u64 {
        self.full_feed_results.unwrap_or(0)
    }
}

/// Streams the first quarter of the feed, then times add + remove rounds
/// against the live system until `budget_s` is spent (at least five).
/// Returns each round's integrate time in ms.
pub fn lifecycle_phase(
    sut: &mut dyn Sut,
    w: &Workload,
    budget_s: f64,
    host: &mut HostProbe,
    ledger: &mut Ledger,
    tr: &mut Tracer,
) -> Res<Vec<Tagged<f64>>> {
    let mut out = Results::counting();
    sut.open(tr)?;
    let quarter = &w.feed[..w.feed.len() / 4];
    for (i, chunk) in quarter.chunks(CHUNK).enumerate() {
        sut.deliver(chunk, i as u32, &mut out, tr)?;
    }
    ledger.events += quarter.len() as u64;
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        rounds.push(host.tag(|| {
            sut.lifecycle_round(tr)?;
            let last = sut.times().integrate_ms.last().copied();
            last.ok_or_else(|| "lifecycle round recorded no time".into())
        })?);
    }
    sut.close_stream(&mut out, tr)?;
    Ok(rounds)
}

/// Open-loop passes until `budget_s` is spent: chunks of 256 events due
/// every `256 / rate` seconds, each pass a fresh stream on a fresh
/// schedule over the first 0.3 s worth of the feed (at least 64 chunks).
pub fn open_loop_phase(
    sut: &mut dyn Sut,
    w: &Workload,
    budget_s: f64,
    host: &mut HostProbe,
    ledger: &mut Ledger,
    tr: &mut Tracer,
) -> Res<Vec<Tagged<OpenLoop>>> {
    let interval = OPEN_LOOP_CHUNK as f64 / w.open_loop_rate;
    let chunks: Vec<&[Event]> = w.feed.chunks(OPEN_LOOP_CHUNK).collect();
    let per_pass = ((0.3 / interval) as usize).clamp(64.min(chunks.len()), chunks.len());
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        let mut out = Results::counting();
        sut.open(tr)?;
        passes.push(host.tag(|| {
            let mut ol = OpenLoop::default();
            let clock = WallClock::start();
            open_loop(&clock, per_pass, interval, &mut ol, |i| {
                sut.deliver(chunks[i], i as u32, &mut out, tr)
            })?;
            Ok(ol)
        })?);
        sut.close_stream(&mut out, tr)?;
        ledger.events += (per_pass * OPEN_LOOP_CHUNK).min(w.feed.len()) as u64;
    }
    Ok(passes)
}

/// Pools the passes of an open-loop phase.
pub fn pooled(passes: Vec<OpenLoop>) -> OpenLoop {
    let mut all = OpenLoop::default();
    for pass in passes {
        all.absorb(pass);
    }
    all
}

/// Optimized results over the reference prefix against the unoptimized
/// per-event reference, and (seed 1, full scale) the pinned full-feed
/// count and digest. Returns whether everything agreed.
pub fn verify(
    sut: &mut dyn Sut,
    resident: &[u32],
    w: &Workload,
    script: &str,
    cfg: &RunConfig,
    ledger: &mut Ledger,
    notes: &mut Vec<(String, String)>,
) -> Res<bool> {
    let mut tr = Tracer::new(false);
    let digest_of = |sut: &mut dyn Sut, feed: &[Event], tr: &mut Tracer| -> Res<(Digest, u64)> {
        let mut out = Results::digesting(resident);
        pass(sut, feed, &mut out, tr)?;
        Ok((out.digest.unwrap_or_default(), out.count))
    };
    let reference = reference_digest(w, script)?;
    let (got, _) = digest_of(sut, &w.feed[..w.reference_prefix], &mut tr)?;
    ledger.events += 2 * w.reference_prefix as u64;
    let mut ok = got == reference && ledger.mismatches == 0;
    notes.push(("reference_results".into(), reference.count.to_string()));
    notes.push(("reference_digest".into(), format!("{:016x}", reference.sum)));
    if got != reference {
        notes.push((
            "MISMATCH".into(),
            format!("optimized prefix gave {got:?}, reference {reference:?}"),
        ));
    }
    if ledger.mismatches > 0 {
        notes.push((
            "MISMATCH".into(),
            "full-feed passes disagree on result count".into(),
        ));
    }
    if cfg.pinned() {
        let (full, count) = digest_of(sut, &w.feed, &mut tr)?;
        ledger.events += w.feed.len() as u64;
        notes.push(("results_out".into(), count.to_string()));
        notes.push(("results_digest".into(), format!("{:016x}", full.sum)));
        let pin = PINS
            .iter()
            .find(|p| p.0 == w.name)
            .ok_or("workload has no pin")?;
        if (count, full.sum) != (pin.1, pin.2) {
            notes.push((
                "MISMATCH".into(),
                format!("pinned {} / {:016x}", pin.1, pin.2),
            ));
            ok = false;
        }
    }
    Ok(ok)
}

pub fn end_to_end(w: &Workload, cfg: &RunConfig) -> Res<Report> {
    let s = cfg.seconds;
    let mut tr = Tracer::new(false);
    let mut host = HostProbe::new();
    let script = w.script();
    let mut ledger = Ledger::default();
    let mut notes = Vec::new();
    let rss_before = proc_status_mb("VmRSS");

    // Set-up, repeated so its median means something: at least three
    // times, and up to 25 while that stays cheap next to the run.
    let mut setups: Vec<Tagged<f64>> = Vec::new();
    let mut built: Option<Box<dyn Sut>> = None;
    let clock = Instant::now();
    while setups.len() < 3 || (setups.len() < 25 && clock.elapsed().as_secs_f64() < 0.3 * s) {
        if let Some(previous) = built.take() {
            previous.shutdown()?;
        }
        setups.push(host.tag(|| {
            let start = Instant::now();
            built = Some(setup(w, &script, &mut tr)?);
            Ok(start.elapsed().as_secs_f64())
        })?);
    }
    let mut built = built.ok_or("no set-up ran")?;
    let resident = built.resident();
    let sut = built.as_mut();

    // Warm-up: caches, allocator arenas, the adaptive gate's first probes.
    ledger.full_pass(sut, &w.feed, &mut tr)?;
    sut.times().integrate_ms.clear();

    // Closed-loop repeats. A repeat is as many whole passes as it takes
    // to fill its minimum length, each through a fresh stream built
    // outside the window. A churn workload times its lifecycle calls
    // inside these passes, so they travel with the repeat.
    let measure = Instant::now();
    let throughput_s = s * if w.churn { 0.7 } else { 0.5 };
    let repeat_min_s = s / 40.0;
    let mut repeats: Vec<Tagged<Window>> = Vec::new();
    let mut integrations: Vec<Tagged<Vec<f64>>> = Vec::new();
    while measure.elapsed().as_secs_f64() < throughput_s {
        let repeat = host.tag(|| {
            let mut win = Window::default();
            while win.wall_s < repeat_min_s {
                win.add(ledger.full_pass(sut, &w.feed, &mut tr)?);
            }
            Ok(win)
        })?;
        integrations.push(Tagged {
            probe_ns: repeat.probe_ns,
            value: std::mem::take(&mut sut.times().integrate_ms),
        });
        repeats.push(repeat);
    }
    if !w.churn {
        let rounds = lifecycle_phase(sut, w, 0.2 * s, &mut host, &mut ledger, &mut tr)?;
        integrations = rounds
            .into_iter()
            .map(|r| Tagged {
                probe_ns: r.probe_ns,
                value: vec![r.value],
            })
            .collect();
    }

    let left = (s - measure.elapsed().as_secs_f64()).max(0.1 * s);
    let passes = open_loop_phase(sut, w, left, &mut host, &mut ledger, &mut tr)?;
    let measured_s = measure.elapsed().as_secs_f64();
    let peak_rss_mb = proc_status_mb("VmHWM") - rss_before;

    // Only what was measured on a quiet host is reported.
    let counts = (
        setups.len(),
        repeats.len(),
        integrations.len(),
        passes.len(),
    );
    let setup_s = host.quiet_only(setups);
    let repeats = host.quiet_only(repeats);
    let integrate_ms = host.quiet_only(integrations).concat();
    let quiet_passes = host.quiet_only(passes);
    let quiet = (setup_s.len(), repeats.len(), quiet_passes.len());
    let mut ol = pooled(quiet_passes);
    if too_late(ol.late, ol.latency_us.len()) {
        return Err(format!(
            "generator sent {:.2}% of open-loop chunks late; delivery latencies withheld",
            ol.late_share() * 100.0
        )
        .into());
    }

    let correct = verify(sut, &resident, w, &script, cfg, &mut ledger, &mut notes)?;
    let attempted = ledger.events + sut.times().calls;
    let shed = built.shed();
    built.shutdown()?;

    let per_repeat = |f: fn(&Window) -> f64| repeats.iter().map(f).collect::<Vec<f64>>();
    ol.latency_us.sort_by(f64::total_cmp);
    let mut note = |key: &str, value: String| notes.push((key.to_string(), value));
    note("measured_s", format!("{measured_s:.3}"));
    note(
        "host_probe_reference_ns",
        format!("{:.4}", host.reference_ns()),
    );
    note("quiet_setups", format!("{} of {}", quiet.0, counts.0));
    note("quiet_repeats", format!("{} of {}", quiet.1, counts.1));
    note(
        "quiet_integrate_units",
        format!("{} samples of {} units", integrate_ms.len(), counts.2),
    );
    note(
        "quiet_open_loop_passes",
        format!("{} of {}", quiet.2, counts.3),
    );
    note("repeat_min_s", format!("{repeat_min_s:.3}"));
    note("feed_events", w.feed.len().to_string());
    note("queries", w.queries.len().to_string());
    note("full_feed_results", ledger.full_feed_results().to_string());
    note("open_loop_rate_ev_s", w.open_loop_rate.to_string());
    note("generator_late_share", format!("{:.5}", ol.late_share()));
    note("churn_swap_every_events", (CHURN_EVERY * CHUNK).to_string());
    Ok(Report {
        correct,
        attempted,
        failed: shed + if correct { 0 } else { attempted },
        metrics: vec![
            ("setup_s".into(), Stat::of(&setup_s, "s")),
            (
                "events_per_s".into(),
                Stat::of(&per_repeat(Window::events_per_s), "ev/s"),
            ),
            (
                "cpu_ns_per_event".into(),
                Stat::of(&per_repeat(Window::cpu_ns_per_event), "ns"),
            ),
            ("delivery_p50_us".into(), Stat::of(&ol.latency_us, "us")),
            ("integrate_ms".into(), Stat::of(&integrate_ms, "ms")),
            ("peak_rss_mb".into(), Stat::one(peak_rss_mb, "MB")),
        ],
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_guard_needs_evidence_not_three_preemptions() {
        // 5 % of 400 chunks is 20; a few more late chunks are noise.
        assert!(!too_late(20, 400));
        assert!(!too_late(33, 400));
        assert!(too_late(34, 400));
        // With enough chunks the guard closes in on the limit itself.
        assert!(!too_late(1_000, 20_000));
        assert!(too_late(1_100, 20_000));
        assert!(!too_late(0, 0));
    }
}
