//! Rule sα across `RANGE`s, end to end: a `keyed_agg`-shaped script (32
//! grouped SUMs over 8 windows, 4 duplicates each) optimizes to one shared
//! aggregate plus one channel projection, and every query's results are
//! byte-identical to the unoptimized plan's — per event, batched, on a
//! worker pool, and across a live add/remove of a ninth window.

use std::collections::HashMap;

use rumor::{EventRuntime, MopKind, OptimizerConfig, QueryId, Rumor, SourceId, Tuple};

const WINDOWS: [u64; 8] = [0, 1, 3, 4, 8, 9, 15, 23];

fn query(name: &str, window: u64) -> String {
    format!("QUERY {name} AS SELECT a0, SUM(a2) AS total FROM s [RANGE {window}] GROUP BY a0;\n")
}

fn engine(config: OptimizerConfig) -> Rumor {
    let mut script = String::from("CREATE STREAM s (a0 INT, a1 INT, a2 INT);\n");
    for dup in 0..4 {
        for (i, w) in WINDOWS.iter().enumerate() {
            script.push_str(&query(&format!("q{i}_{dup}"), *w));
        }
    }
    let mut r = Rumor::new(config);
    r.execute(&script).unwrap();
    r.optimize().unwrap();
    r.plan().validate().unwrap();
    r
}

/// Non-decreasing timestamps with ties, 6 groups, signed values.
fn feed(r: &Rumor, n: u64) -> Vec<(SourceId, Tuple)> {
    let s = r.source_id("s").unwrap();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut ts = 0;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ts += x % 3 / 2; // one tie in three
            let vals = [(x >> 8) % 6, (x >> 16) % 4, (x >> 24) % 16];
            (s, Tuple::ints(ts, &vals.map(|v| v as i64 - 5)))
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Push,
    PushBatch,
    Workers,
}

/// Per-query results, in delivery order, keyed by query name. With
/// `ninth`, query `q8` (a window no other query uses) is added live after
/// the first third of the feed and removed after the second.
fn run(r: &mut Rumor, mode: Mode, ninth: bool) -> HashMap<String, Vec<String>> {
    let events = feed(r, 900);
    let mut builder = r.session();
    if let Mode::Workers = mode {
        builder = builder.workers(2);
    }
    let mut session = builder.build().unwrap();
    let mut names: HashMap<QueryId, String> = HashMap::new();
    let mut results = Vec::new();
    for (i, part) in events.chunks(300).enumerate() {
        if ninth && i == 1 {
            r.execute(&query("q8", 5)).unwrap();
            session.update_plan(r.plan()).unwrap();
        }
        if ninth && i == 2 {
            names.insert(r.query_id("q8").unwrap(), "q8".into());
            r.remove_query_named("q8").unwrap();
            session.update_plan(r.plan()).unwrap();
        }
        match mode {
            Mode::Push => {
                for (s, t) in part {
                    session.push(*s, t.clone()).unwrap();
                }
            }
            Mode::PushBatch | Mode::Workers => {
                for chunk in part.chunks(64) {
                    session.push_batch(chunk).unwrap();
                }
            }
        }
        session.flush().unwrap();
        results.extend(session.collect_all());
    }
    session.finish().unwrap();
    results.extend(session.collect_all());
    for dup in 0..4 {
        for i in 0..WINDOWS.len() {
            let name = format!("q{i}_{dup}");
            names.insert(r.query_id(&name).unwrap(), name);
        }
    }
    let mut per_query: HashMap<String, Vec<String>> = HashMap::new();
    for (q, t) in results {
        per_query
            .entry(names[&q].clone())
            .or_default()
            .push(format!("{} {t}", t.ts));
    }
    per_query
}

#[test]
fn keyed_agg_shape_is_one_shared_aggregate_and_one_channel_projection() {
    let r = engine(OptimizerConfig::default());
    let plan = r.plan();
    assert_eq!(plan.mop_count(), 2);
    let alpha = plan
        .mops()
        .find(|n| n.kind == MopKind::SharedAggregate)
        .expect("one α-shared m-op");
    assert_eq!(
        alpha.members.len(),
        WINDOWS.len(),
        "CSE leaves one per RANGE"
    );
    let pi = plan
        .mops()
        .find(|n| n.kind == MopKind::ChannelProject)
        .expect("one π-channel m-op");
    assert_eq!(pi.members.len(), WINDOWS.len());
    // The α outputs are one channel: equal rows travel as one tuple.
    let ch = plan.channel_of(alpha.members[0].output);
    assert_eq!(plan.channel(ch).capacity(), WINDOWS.len());
}

/// The definition, brute force: event `i`'s row for window `w` sums `a2`
/// over the events of its group up to `i` with `ts >= ts_i - w` — only
/// event `i` itself when `w = 0`.
fn oracle(events: &[(SourceId, Tuple)], w: u64) -> Vec<String> {
    let int = |t: &Tuple, i| t.value(i).unwrap().as_int().unwrap();
    (0..events.len())
        .map(|i| {
            let now = &events[i].1;
            let sum: i64 = events[..=i]
                .iter()
                .enumerate()
                .filter(|(j, (_, t))| {
                    int(t, 0) == int(now, 0)
                        && if w == 0 {
                            *j == i
                        } else {
                            t.ts >= now.ts.saturating_sub(w)
                        }
                })
                .map(|(_, (_, t))| int(t, 2))
                .sum();
            let row = Tuple::ints(now.ts, &[int(now, 0), sum]);
            format!("{} {row}", row.ts)
        })
        .collect()
}

#[test]
fn shared_windows_match_unoptimized_in_every_mode() {
    // The unoptimized plan runs each α alone through the same m-op
    // implementation, so it is checked against the definition first — per
    // event, where a query's results keep arrival order even within one
    // timestamp (a pool orders those by worker).
    let events = feed(&engine(OptimizerConfig::unoptimized()), 900);
    for mode in [Mode::Push, Mode::PushBatch, Mode::Workers] {
        let want = run(&mut engine(OptimizerConfig::unoptimized()), mode, false);
        assert_eq!(want.len(), 32);
        if let Mode::Push = mode {
            for (i, &w) in WINDOWS.iter().enumerate() {
                assert_eq!(want[&format!("q{i}_0")], oracle(&events, w), "RANGE {w}");
            }
        }
        let got = run(&mut engine(OptimizerConfig::default()), mode, false);
        assert_eq!(got, want, "{mode:?}");
    }
}

#[test]
fn shared_windows_match_unoptimized_across_a_live_ninth_range() {
    for mode in [Mode::Push, Mode::PushBatch, Mode::Workers] {
        let want = run(&mut engine(OptimizerConfig::unoptimized()), mode, true);
        let got = run(&mut engine(OptimizerConfig::default()), mode, true);
        assert_eq!(want["q8"].len(), 300, "q8 lives for one third of the feed");
        assert_eq!(got, want, "{mode:?}");
    }
}
