//! # rumor-bench
//!
//! The harness that regenerates every figure of the paper's evaluation
//! (§5): Figure 9 (Workload 1, RUMOR vs Cayuga, normalized throughput),
//! Figure 10 (Workload 2 AI-index queries and Workload 3 channel sharing),
//! and Figure 11 (hybrid queries over the simulated performance-counter
//! dataset).
//!
//! Binaries: `fig9`, `fig10`, `fig11` (one per figure; pass the panel
//! letter), and `run_all` which regenerates everything and prints one
//! markdown table per panel.
//!
//! This crate reproduces the paper's figures only; throughput claims about
//! the engine itself are measured by `benchmark/` against `BENCHMARK.json`,
//! which reports a spread for every number.
//!
//! The measurement protocol follows §5: warmup passes first, then repeated
//! measured runs whose throughputs are averaged; cross-system comparisons
//! report *normalized* throughput (each series divided by its own
//! lightest-workload value), within-system comparisons report absolute
//! events/second.

#![warn(missing_docs)]

pub mod fig10;
pub mod fig11;
pub mod fig9;

use std::time::Instant;

use rumor_cayuga::{Automaton, CayugaEngine};
use rumor_core::{Optimizer, OptimizerConfig, PlanGraph};
use rumor_engine::exec::{CountingSink, ExecutablePlan};
use rumor_types::{Membership, SourceId, Tuple};

/// How big the sweeps are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale: smaller query counts and inputs; minutes, not hours.
    Quick,
    /// The paper's parameters (§5.1: 100k+ tuples, up to 100k queries).
    Full,
}

impl Scale {
    /// Parses `quick` / `full`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Query-count sweep for Figures 9(a) and 10.
    pub fn query_counts(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1, 10, 100, 1000, 10_000],
            Scale::Full => vec![1, 10, 100, 1000, 10_000, 100_000],
        }
    }

    /// Domain-size sweep for Figures 9(b) and 9(c).
    pub fn domains(&self) -> Vec<i64> {
        vec![10, 100, 1000, 10_000, 100_000]
    }

    /// Zipf sweep for Figure 9(d).
    pub fn zipfs(&self) -> Vec<f64> {
        vec![1.2, 1.4, 1.6, 1.8, 2.0]
    }

    /// Input size per run.
    pub fn tuples(&self) -> usize {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 100_000,
        }
    }

    /// Measured repetitions (the paper uses ten).
    pub fn runs(&self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Full => 10,
        }
    }

    /// Perfmon trace horizon in seconds. The paper records 24 hours; the
    /// full scale here uses a 4-hour slice — the horizon only scales run
    /// length (9M vs 1.5M tuples), not per-event work, and 4 hours already
    /// exercises hundreds of ramp episodes per process.
    pub fn perfmon_secs(&self) -> u64 {
        match self {
            Scale::Quick => 1200,
            Scale::Full => 14_400,
        }
    }
}

/// One prepared input event for a RUMOR run.
#[derive(Debug, Clone)]
pub enum FeedEvent {
    /// A plain source tuple.
    Plain(SourceId, Tuple),
    /// A channel-source tuple with explicit membership (Workload 3).
    Channel(SourceId, Tuple, Membership),
}

/// Measured throughput (input events per second) and output count.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Input events per second.
    pub throughput: f64,
    /// Query results produced per run.
    pub results: u64,
}

/// Runs a compiled plan over the feed with the §5 protocol.
pub fn measure_rumor(
    plan: &PlanGraph,
    events: &[FeedEvent],
    warmup: usize,
    runs: usize,
) -> RunStats {
    let mut results = 0;
    for _ in 0..warmup {
        let (_, r) = run_rumor_once(plan, events);
        results = r;
    }
    let mut acc = 0.0;
    let runs = runs.max(1);
    for _ in 0..runs {
        let (rate, r) = run_rumor_once(plan, events);
        acc += rate;
        results = r;
    }
    RunStats {
        throughput: acc / runs as f64,
        results,
    }
}

fn run_rumor_once(plan: &PlanGraph, events: &[FeedEvent]) -> (f64, u64) {
    let mut exec = ExecutablePlan::new(plan).expect("plan compiles");
    let mut sink = CountingSink::default();
    // Throughput denominators count *stream* tuples: a channel tuple
    // belonging to k streams is logically k stream tuples (§3.1, "a channel
    // is equivalent to the union of a set of streams"). This is what makes
    // the Workload 3 comparison fair — both feeds carry the same logical
    // content — and what Figure 10(d) measures when capacity grows.
    let mut logical_events = 0u64;
    let start = Instant::now();
    for ev in events {
        match ev {
            FeedEvent::Plain(src, tuple) => {
                logical_events += 1;
                exec.push(*src, tuple.clone(), &mut sink).expect("push")
            }
            FeedEvent::Channel(src, tuple, membership) => {
                logical_events += membership.len() as u64;
                exec.push_channel(*src, tuple.clone(), membership.clone(), &mut sink)
                    .expect("push channel")
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    (logical_events as f64 / elapsed, sink.total)
}

/// Runs the Cayuga engine over `(stream, tuple)` events with the same
/// protocol. The engine (and its instance state) is rebuilt per run.
pub fn measure_cayuga(
    automata: &[Automaton],
    events: &[(&'static str, Tuple)],
    warmup: usize,
    runs: usize,
) -> RunStats {
    let run_once = || {
        let mut engine = CayugaEngine::new();
        for a in automata {
            engine.add_automaton(a);
        }
        let mut results = 0u64;
        let start = Instant::now();
        for (stream, tuple) in events {
            engine.on_event(stream, tuple, &mut |_, _| results += 1);
        }
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        (events.len() as f64 / elapsed, results)
    };
    let mut results = 0;
    for _ in 0..warmup {
        results = run_once().1;
    }
    let mut acc = 0.0;
    let runs = runs.max(1);
    for _ in 0..runs {
        let (rate, r) = run_once();
        acc += rate;
        results = r;
    }
    RunStats {
        throughput: acc / runs as f64,
        results,
    }
}

/// Builds and optimizes a plan for a set of logical queries.
pub fn optimized_plan(
    mut plan: PlanGraph,
    queries: impl IntoIterator<Item = rumor_core::LogicalPlan>,
    config: OptimizerConfig,
) -> PlanGraph {
    for q in queries {
        plan.add_query(&q).expect("register query");
    }
    Optimizer::new(config)
        .optimize(&mut plan)
        .expect("optimize");
    plan
}

/// Normalizes a series by its first (lightest-workload) value — the
/// normalization used throughout §5.2, after SASE \[21\].
pub fn normalize(series: &[f64]) -> Vec<f64> {
    let base = series.first().copied().unwrap_or(1.0).max(1e-9);
    series.iter().map(|v| v / base).collect()
}

/// Prints a markdown table: one row per x value, one column per series.
pub fn print_table(title: &str, xlabel: &str, xs: &[String], series: &[(String, Vec<f64>)]) {
    println!("\n### {title}\n");
    print!("| {xlabel} |");
    for (name, _) in series {
        print!(" {name} |");
    }
    println!();
    print!("|---|");
    for _ in series {
        print!("---|");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("| {x} |");
        for (_, vals) in series {
            match vals.get(i) {
                Some(v) if *v >= 100.0 => print!(" {v:.0} |"),
                Some(v) => print!(" {v:.3} |"),
                None => print!(" - |"),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_uses_first_point() {
        let n = normalize(&[200.0, 100.0, 50.0]);
        assert_eq!(n, vec![1.0, 0.5, 0.25]);
        assert!(normalize(&[]).is_empty());
    }

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("x"), None);
        assert!(Scale::Full.query_counts().contains(&100_000));
        assert!(!Scale::Quick.query_counts().contains(&100_000));
    }
}
