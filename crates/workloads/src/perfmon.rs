//! Simulated performance-counter datasets.
//!
//! The paper's §5.3 uses two proprietary traces collected with the Windows
//! Vista Performance Monitor: D1 (104 long-running processes on an office
//! machine, 24 hours, one CPU reading per process per second) and D2 (28
//! processes on a home machine). Those traces are unavailable, so this
//! module generates synthetic equivalents that preserve the properties the
//! hybrid-query experiment exercises:
//!
//! * one `CPU(pid, load; ts)` tuple per process per second;
//! * a mostly-idle baseline with bursty episodes (so the stopping condition
//!   `load > 10` has realistic selectivity);
//! * injected monotone ramp-up episodes (so the µ pattern builds real event
//!   sequences);
//! * loads spread over `0..=100` (so the `sel`-controlled starting
//!   conditions hit their intended selectivities).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rumor_types::Tuple;

/// Configuration for a simulated trace.
#[derive(Debug, Clone)]
pub struct PerfmonConfig {
    /// Number of monitored processes (D1: 104, D2: 28).
    pub processes: usize,
    /// Trace duration in seconds.
    pub duration_secs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl PerfmonConfig {
    /// The D1-shaped dataset (104 processes). The duration defaults to a
    /// laptop-scale slice; benchmarks pass larger horizons.
    pub fn d1(duration_secs: u64) -> Self {
        PerfmonConfig {
            processes: 104,
            duration_secs,
            seed: 0xD1,
        }
    }

    /// The D2-shaped dataset (28 processes).
    pub fn d2(duration_secs: u64) -> Self {
        PerfmonConfig {
            processes: 28,
            duration_secs,
            seed: 0xD2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Low, jittery load.
    Idle,
    /// Sustained elevated load.
    Busy,
    /// Monotone ramp-up — the pattern Query 1 hunts for.
    Ramp { step: i64 },
}

/// Generates the trace: tuples `(pid, load)` with one reading per process
/// per second, timestamps `0..duration`, process-major within each second.
pub fn generate(cfg: &PerfmonConfig) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut load: Vec<i64> = (0..cfg.processes).map(|_| rng.gen_range(0..8)).collect();
    let mut phase: Vec<Phase> = vec![Phase::Idle; cfg.processes];
    let mut out = Vec::with_capacity(cfg.processes * cfg.duration_secs as usize);
    for ts in 0..cfg.duration_secs {
        for pid in 0..cfg.processes {
            // Phase transitions.
            phase[pid] = match phase[pid] {
                Phase::Idle => match rng.gen_range(0..100) {
                    0..=2 => Phase::Ramp {
                        step: rng.gen_range(2..9),
                    },
                    3..=7 => Phase::Busy,
                    _ => Phase::Idle,
                },
                Phase::Busy => {
                    if rng.gen_range(0..100) < 15 {
                        Phase::Idle
                    } else {
                        Phase::Busy
                    }
                }
                Phase::Ramp { step } => {
                    if load[pid] >= 95 {
                        Phase::Idle
                    } else {
                        Phase::Ramp { step }
                    }
                }
            };
            // Load evolution.
            load[pid] = match phase[pid] {
                Phase::Idle => (load[pid] + rng.gen_range(-3..=3)).clamp(0, 15),
                Phase::Busy => (load[pid] + rng.gen_range(-10..=12)).clamp(20, 90),
                Phase::Ramp { step } => (load[pid] + step).min(100),
            };
            out.push(Tuple::ints(ts, &[pid as i64, load[pid]]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_coverage() {
        let cfg = PerfmonConfig::d2(200);
        let trace = generate(&cfg);
        assert_eq!(trace.len(), 28 * 200);
        // Process-major per second, timestamps non-decreasing.
        assert_eq!(trace[0].ts, 0);
        assert_eq!(trace[27].ts, 0);
        assert_eq!(trace[28].ts, 1);
        for t in &trace {
            let load = t.value(1).unwrap().as_int().unwrap();
            assert!((0..=100).contains(&load));
        }
    }

    #[test]
    fn contains_ramps_and_idle() {
        let cfg = PerfmonConfig::d1(400);
        let trace = generate(&cfg);
        // Some process must reach a high load via a ramp...
        assert!(trace
            .iter()
            .any(|t| t.value(1).unwrap().as_int().unwrap() > 90));
        // ...and idle readings must dominate enough for selective starts.
        let idle = trace
            .iter()
            .filter(|t| t.value(1).unwrap().as_int().unwrap() <= 15)
            .count();
        assert!(idle * 2 > trace.len(), "idle should be the common case");
    }

    #[test]
    fn monotone_run_exists() {
        let cfg = PerfmonConfig::d1(300);
        let trace = generate(&cfg);
        // Find a per-process strictly increasing run of length >= 4.
        let mut best = 0;
        for pid in 0..cfg.processes as i64 {
            let loads: Vec<i64> = trace
                .iter()
                .filter(|t| t.value(0).unwrap().as_int() == Some(pid))
                .map(|t| t.value(1).unwrap().as_int().unwrap())
                .collect();
            let mut run = 1;
            for w in loads.windows(2) {
                if w[1] > w[0] {
                    run += 1;
                    best = best.max(run);
                } else {
                    run = 1;
                }
            }
        }
        assert!(best >= 4, "longest monotone run {best}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = PerfmonConfig::d2(50);
        assert_eq!(generate(&cfg), generate(&cfg));
    }
}
