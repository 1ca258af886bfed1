//! The harness's own maths: order statistics, the order-insensitive result
//! digest, and the process-level clocks and memory gauges.

use rumor_types::{Tuple, Value};

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives
/// them, because that is what the acceptance check computes spreads with.
/// One sample is its own quartiles; none gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |k: usize| {
                // Position k(n+1)/4 on a 1-based axis; like Python, the
                // interval is clamped to the ends but the weight is not,
                // so tiny samples extrapolate.
                let j = (k * (n + 1) / 4).clamp(1, n - 1);
                let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (at(1), at(2), at(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median — the spread the
/// acceptance check and `compare` use.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The `p`-th percentile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of 99/95/90/75/50 that leaves at least ten samples beyond
/// it: a tail percentile with fewer is one outlier, not a measurement.
pub fn supported_tail(n: usize) -> f64 {
    [99usize, 95, 90, 75]
        .into_iter()
        .find(|p| n * (100 - p) >= 1000)
        .map_or(50.0, |p| p as f64)
}

/// One reported number with the spread of the samples behind it.
#[derive(Debug, Clone)]
pub struct Stat {
    pub value: f64,
    pub unit: &'static str,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stat {
    /// The median of `samples`.
    pub fn of(samples: &[f64], unit: &'static str) -> Stat {
        let (q1, value, q3) = quartiles(samples);
        Stat {
            value,
            unit,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A single measured or counted value.
    pub fn one(value: f64, unit: &'static str) -> Stat {
        Stat {
            value,
            unit,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Count plus an order-insensitive digest of `(query, tuple)` results:
/// each result hashes on its own and the hashes are summed, so any
/// interleaving of the same multiset digests alike.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, query: u32, tuple: &Tuple) {
        let mut h = mix(query as u64 ^ 0x9E37_79B9_7F4A_7C15);
        h = mix(h ^ tuple.ts);
        for v in tuple.values() {
            let bits = match v {
                Value::Null => 0x6e75_6c6c,
                Value::Int(i) => *i as u64,
                Value::Float(f) => f.to_bits(),
                Value::Bool(b) => 2 + *b as u64,
                Value::Str(s) => s.bytes().fold(0u64, |a, b| mix(a ^ b as u64)),
            };
            h = mix(h ^ bits);
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds consumed by every thread of this process, living or
/// exited (`CLOCK_PROCESS_CPUTIME_ID`). `/proc/self/stat` reports the
/// same quantity, but in 10 ms ticks — too coarse for sub-second windows.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`-layout struct (two
    // 64-bit fields on every 64-bit Linux target) and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A `kB` gauge from `/proc/self/status` (`VmRSS`, `VmHWM`), in MB.
pub fn proc_status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 4.0);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_need_enough_samples_beyond_them() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(999), 95.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(40), 75.0);
        assert_eq!(supported_tail(39), 50.0);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = Tuple::ints(1, &[1, 2]);
        let b = Tuple::ints(2, &[3, 4]);
        let mut fwd = Digest::default();
        fwd.add(0, &a);
        fwd.add(1, &b);
        let mut rev = Digest::default();
        rev.add(1, &b);
        rev.add(0, &a);
        assert_eq!(fwd, rev);
        let mut swapped = Digest::default();
        swapped.add(1, &a);
        swapped.add(0, &b);
        assert_ne!(fwd, swapped, "query attribution is part of the digest");
        let mut dup = fwd;
        dup.add(0, &a);
        assert_ne!(fwd, dup, "multiplicity is part of the digest");
    }

    #[test]
    fn process_clocks_and_gauges_read() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_s() > before);
        assert!(proc_status_mb("VmRSS") > 0.0);
        assert!(proc_status_mb("VmHWM") >= proc_status_mb("VmRSS") * 0.5);
        assert!(nproc() >= 1);
    }
}
