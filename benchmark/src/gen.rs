//! The load generator's inputs: a splitmix64 PRNG, a Zipf sampler, and the
//! six workloads as query *texts* plus an event feed. Everything here is a
//! pure function of `--seed`; the program under test only ever sees the
//! generated statements and events.

use rumor_types::{SourceId, Tuple};

/// Paper Table 3: constants and windows are drawn from a domain of 1000
/// with Zipf parameter 1.5; streams carry 10 integer attributes.
const DOMAIN: usize = 1000;
const ZIPF_S: f64 = 1.5;
const ATTRS: usize = 10;
/// `w1_patterns` emits this many S events, then as many T events, and so on.
const W1_HALF_BLOCK: u64 = 512;

/// splitmix64 (Steele, Lea, Flood 2014): one u64 of state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these `n` is < 2^-40).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf over ranks `0..n` with exponent `s`, sampled by inverting the
/// precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One workload: what to register and what to feed.
pub struct Workload {
    pub name: &'static str,
    /// `CREATE STREAM` (and `DEFINE`) statements executed before any query.
    pub prelude: String,
    /// Query bodies — what follows `QUERY <name> AS` — one statement each.
    pub queries: Vec<String>,
    /// Bodies for the lifecycle calls: `lifecycle[i % len]` is added and
    /// removed against the live session.
    pub lifecycle: Vec<String>,
    /// Timestamp-ordered input. Source ids are declaration-order indices.
    pub feed: Vec<(SourceId, Tuple)>,
    /// Stream names in declaration order (`feed` ids index into this).
    pub streams: Vec<&'static str>,
    /// How many leading feed events the unoptimized reference runs over.
    pub reference_prefix: usize,
    /// Open-loop arrival rate in events/s: a constant frozen at roughly a
    /// third of what the seed commit sustains in 256-event chunks on the
    /// reference host at its *slow* end (the host's speed drifts by half),
    /// rounded to 2 s.f.; never re-derived at run time.
    pub open_loop_rate: f64,
    /// Add + remove one query every 4th chunk while the feed streams.
    pub churn: bool,
    /// Drive the feed through `Server`/`Client` on loopback.
    pub tcp: bool,
}

impl Workload {
    /// The whole registration as one script for `Rumor::execute`.
    pub fn script(&self) -> String {
        let mut s = self.prelude.clone();
        for (i, q) in self.queries.iter().enumerate() {
            s.push_str(&format!("QUERY q{i} AS {q};\n"));
        }
        s
    }
}

pub const WORKLOADS: [&str; 6] = [
    "shared_selects",
    "tenant_tcp",
    "select_chain",
    "w1_patterns",
    "keyed_agg",
    "query_churn",
];

/// Sizes of one workload: as specified, or cut down for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn queries(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Smoke => (n / 16).max(4),
        }
    }

    fn events(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Smoke => (n / 32).max(4096),
        }
    }
}

fn create_stream(name: &str) -> String {
    let cols: Vec<String> = (0..ATTRS).map(|i| format!("a{i} INT")).collect();
    format!("CREATE STREAM {name} ({});\n", cols.join(", "))
}

fn uniform_tuple(rng: &mut SplitMix64, ts: u64, domain: u64) -> Tuple {
    let mut vals = [0i64; ATTRS];
    for v in &mut vals {
        *v = rng.below(domain) as i64;
    }
    Tuple::ints(ts, &vals)
}

/// Builds the named workload for `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    // Each workload draws from its own stream of the seed so adding one
    // never shifts another's inputs.
    let salt = WORKLOADS.iter().position(|w| *w == name)? as u64;
    let shared = name == "tenant_tcp" || name == "query_churn";
    let mut rng =
        SplitMix64::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ if shared { 0 } else { salt });
    let zipf = Zipf::new(DOMAIN, ZIPF_S);
    let src = SourceId::from_index;
    let w = match name {
        // tenant_tcp and query_churn reuse shared_selects' queries and
        // events on purpose: same plan, different front door / lifecycle.
        "shared_selects" | "tenant_tcp" | "query_churn" => {
            let queries = (0..scale.queries(1024))
                .map(|_| format!("SELECT * FROM s WHERE a0 = {}", zipf.sample(&mut rng)))
                .collect();
            let n = scale.events(if name == "tenant_tcp" {
                131_072
            } else {
                262_144
            });
            let feed = (0..n as u64)
                .map(|ts| (src(0), uniform_tuple(&mut rng, ts, DOMAIN as u64)))
                .collect();
            Workload {
                name: WORKLOADS[salt as usize],
                prelude: create_stream("s"),
                queries,
                lifecycle: (0..64)
                    .map(|i| format!("SELECT * FROM s WHERE a1 = {}", i * 7 % DOMAIN))
                    .collect(),
                feed,
                streams: vec!["s"],
                reference_prefix: scale.events(8_192),
                open_loop_rate: match name {
                    "tenant_tcp" => 100_000.0,
                    "query_churn" => 600_000.0,
                    _ => 3_000_000.0,
                },
                churn: name == "query_churn",
                tcp: name == "tenant_tcp",
            }
        }
        "select_chain" => {
            // Three-deep chains via DEFINEd intermediate streams; the
            // constants are decorrelated (64 x 4 x 2 combinations) so each
            // event fires a bounded number of queries.
            let mut prelude = create_stream("s");
            for c in 0..64 {
                prelude.push_str(&format!("DEFINE d{c} AS SELECT * FROM s WHERE a0 = {c};\n"));
                for d in 0..4 {
                    prelude.push_str(&format!(
                        "DEFINE d{c}_{d} AS SELECT * FROM d{c} WHERE a1 = {d};\n"
                    ));
                }
            }
            let queries = (0..scale.queries(512))
                .map(|_| {
                    let (c, d, e) = (rng.below(64), rng.below(4), rng.below(2));
                    format!("SELECT * FROM d{c}_{d} WHERE a2 = {e}")
                })
                .collect();
            let n = scale.events(262_144);
            let feed = (0..n as u64)
                .map(|ts| {
                    let mut vals = [0i64; ATTRS];
                    vals[0] = rng.below(64) as i64;
                    vals[1] = rng.below(4) as i64;
                    vals[2] = rng.below(2) as i64;
                    for v in &mut vals[3..] {
                        *v = rng.below(DOMAIN as u64) as i64;
                    }
                    (src(0), Tuple::ints(ts, &vals))
                })
                .collect();
            Workload {
                name: "select_chain",
                prelude,
                queries,
                lifecycle: (0..64)
                    .map(|i| format!("SELECT * FROM d{}_{} WHERE a3 = {i}", i % 64, i % 4))
                    .collect(),
                feed,
                streams: vec!["s"],
                reference_prefix: scale.events(8_192),
                open_loop_rate: 1_100_000.0,
                churn: false,
                tcp: false,
            }
        }
        "w1_patterns" => {
            // Paper Workload 1: sigma_theta1(S) ; theta2 ^ theta3 T.
            let queries = (0..scale.queries(2000))
                .map(|_| {
                    let c1 = zipf.sample(&mut rng);
                    let c3 = zipf.sample(&mut rng);
                    let window = zipf.sample(&mut rng) + 1;
                    format!(
                        "PATTERN s AS x WHERE x.a0 = {c1} THEN t AS y WHERE y.a0 = {c3} WITHIN {window}"
                    )
                })
                .collect();
            // S and T alternate in half-blocks: within every aligned block
            // of 1024 events the 512 S events precede the 512 T events.
            // Finer interleaving is off the table at the seed commit: its
            // batched drain runs a block's S arrivals before its T events
            // and evicts instances against the *last* S timestamp, so a T
            // event followed by an S arrival inside one engine batch loses
            // matches, and results then depend on which mode the adaptive
            // gate happened to time faster (see README, "Seed defect").
            let n = scale.events(131_072);
            let feed = (0..n as u64)
                .map(|ts| {
                    (
                        src((ts / W1_HALF_BLOCK % 2) as usize),
                        uniform_tuple(&mut rng, ts, DOMAIN as u64),
                    )
                })
                .collect();
            Workload {
                name: "w1_patterns",
                prelude: create_stream("s") + &create_stream("t"),
                queries,
                lifecycle: (0..64)
                    .map(|i| format!("SELECT * FROM s WHERE a1 = {}", i * 7 % DOMAIN))
                    .collect(),
                feed,
                streams: vec!["s", "t"],
                reference_prefix: scale.events(8_192),
                open_loop_rate: 1_500_000.0,
                churn: false,
                tcp: false,
            }
        }
        "keyed_agg" => {
            // 64 grouped SUMs with windows 8..=23 over one group-by key:
            // every input event produces one result per query.
            // The seed rotates which query gets which window; every window
            // length stays equally represented so the plan's size does not
            // depend on the seed.
            let rot = rng.below(16);
            let queries = (0..scale.queries(64) as u64)
                .map(|i| {
                    format!(
                        "SELECT a0, SUM(a2) AS total FROM s [RANGE {}] GROUP BY a0",
                        8 + (i + rot) % 16
                    )
                })
                .collect();
            let n = scale.events(16_384);
            let feed = (0..n as u64)
                .map(|ts| (src(0), uniform_tuple(&mut rng, ts, 64)))
                .collect();
            Workload {
                name: "keyed_agg",
                prelude: create_stream("s"),
                queries,
                lifecycle: (0..64)
                    .map(|i| format!("SELECT * FROM s WHERE a1 = {i}"))
                    .collect(),
                feed,
                streams: vec!["s"],
                reference_prefix: scale.events(4_096),
                open_loop_rate: 30_000.0,
                churn: false,
                tcp: false,
            }
        }
        _ => return None,
    };
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_and_zipf_repeat_per_seed() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            let z = Zipf::new(1000, 1.5);
            (0..64).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // splitmix64's published first output for seed 0.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = SplitMix64::new(1);
        let z = Zipf::new(1000, 1.5);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1000));
        let top = draws.iter().filter(|&&r| r == 0).count();
        // P(rank 0) = 1/zeta_1000(1.5) ~ 0.39.
        assert!((3_500..4_300).contains(&top), "rank-0 share {top}");
    }

    #[test]
    fn workloads_repeat_per_seed_and_differ_across_seeds() {
        for name in WORKLOADS {
            let a = build(name, 3, Scale::Smoke).unwrap();
            let b = build(name, 3, Scale::Smoke).unwrap();
            let c = build(name, 4, Scale::Smoke).unwrap();
            assert_eq!(a.queries, b.queries, "{name}");
            assert_eq!(a.feed, b.feed, "{name}");
            assert_ne!(a.feed, c.feed, "{name}");
            assert!(a.feed.windows(2).all(|p| p[0].1.ts < p[1].1.ts), "{name}");
        }
        assert!(build("nope", 1, Scale::Smoke).is_none());
    }

    #[test]
    fn tcp_and_churn_share_the_selects_queries() {
        let base = build("shared_selects", 5, Scale::Smoke).unwrap();
        for other in ["tenant_tcp", "query_churn"] {
            let w = build(other, 5, Scale::Smoke).unwrap();
            assert_eq!(w.queries, base.queries);
            let n = w.feed.len().min(base.feed.len());
            assert_eq!(w.feed[..n], base.feed[..n]);
        }
    }
}
