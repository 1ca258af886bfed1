//! Routing equivalence: subscribing, superseding and dropping handles
//! mid-stream only *partitions* a query's results — it never reorders,
//! loses or duplicates them.
//!
//! For each engine feed, one unsubscribed run segment by segment gives the
//! reference: per segment, `collect_all` in production order. The
//! subscribed run applies a timeline of subscription changes between
//! segments. Every handle must then hold exactly the reference results of
//! its query over the segments it was the live subscription, in order,
//! and the catch-all must hold everything else in the reference's order —
//! interleaved across queries, including the queries whose handle was
//! dropped.

use std::collections::HashMap;

use rumor::{EventRuntime, OptimizerConfig, QueryId, Rumor, SessionConfig, Subscription, Tuple};
use rumor_types::SourceId;

const SEGMENT: usize = 12;

/// Two streams, six queries: shared selections on each stream (one
/// index m-op per stream), a windowed aggregate that makes the plan
/// stateful, and a duplicate of q0 that shares its query tap, so one tap
/// carries a subscribed and an unsubscribed query.
fn engine() -> Rumor {
    let mut rumor = Rumor::new(OptimizerConfig::default());
    rumor
        .execute(
            "CREATE STREAM s (a INT, b INT);
             CREATE STREAM t (a INT, b INT);
             QUERY q0 AS SELECT * FROM s WHERE a = 0;
             QUERY q1 AS SELECT * FROM s WHERE a = 1;
             QUERY q2 AS SELECT * FROM t WHERE a = 0;
             QUERY q3 AS SELECT a, SUM(b) AS total FROM s [RANGE 5] GROUP BY a;
             QUERY q4 AS SELECT * FROM t WHERE b > 2;
             QUERY q5 AS SELECT * FROM s WHERE a = 0;",
        )
        .unwrap();
    rumor.optimize().unwrap();
    rumor
}

fn feed(rumor: &Rumor) -> Vec<(SourceId, Tuple)> {
    let (s, t) = (rumor.source_id("s").unwrap(), rumor.source_id("t").unwrap());
    (0..SEGMENT as u64 * 6)
        .map(|ts| {
            let src = if ts % 3 == 1 { t } else { s };
            (
                src,
                Tuple::ints(ts, &[(ts % 2) as i64, (ts * 7 % 5) as i64]),
            )
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Feed {
    Push,
    PushBatch,
}

/// A change applied before a segment is pushed.
#[derive(Debug, Clone, Copy)]
enum Change {
    /// Subscribe, superseding any live handle for the query.
    Subscribe(usize),
    /// Drop the query's live handle.
    Drop(usize),
    /// Call `unsubscribe` on the query's live handle.
    Unsubscribe(usize),
}

/// Changes before each segment. Every query is subscribed at some point
/// and left at another, handles are superseded, and dropped queries keep
/// producing while others stay subscribed or never subscribe.
fn timeline() -> Vec<Vec<Change>> {
    use Change::*;
    vec![
        vec![Subscribe(0), Subscribe(3)],
        vec![Subscribe(1), Subscribe(0)],
        vec![Drop(0), Subscribe(2)],
        vec![Unsubscribe(3), Subscribe(1)],
        vec![Subscribe(0), Drop(2), Subscribe(4)],
        vec![Drop(1)],
    ]
}

fn push_segment(session: &mut rumor::Session, segment: &[(SourceId, Tuple)], feed: Feed) {
    match feed {
        Feed::Push => {
            for (src, t) in segment {
                session.push(*src, t.clone()).unwrap();
            }
        }
        Feed::PushBatch => session.push_batch(segment).unwrap(),
    }
    session.flush().unwrap();
}

/// One unsubscribed run: per segment, the catch-all in production order.
fn reference(rumor: &Rumor, cfg: &SessionConfig, feed: Feed) -> Vec<Vec<(QueryId, Tuple)>> {
    let mut session = rumor.session().config(cfg.clone()).build().unwrap();
    let events = self::feed(rumor);
    let mut per_segment: Vec<_> = events
        .chunks(SEGMENT)
        .map(|segment| {
            push_segment(&mut session, segment, feed);
            session.collect_all()
        })
        .collect();
    session.finish().unwrap();
    per_segment
        .last_mut()
        .unwrap()
        .extend(session.collect_all());
    per_segment
}

/// Every handle ever made, with what it received and what it should have.
struct Handle {
    query: QueryId,
    sub: Option<Subscription>,
    got: Vec<Tuple>,
    want: Vec<Tuple>,
}

fn check(rumor: &Rumor, name: &str, cfg: SessionConfig, feed: Feed) {
    let queries: Vec<QueryId> = (0..6)
        .map(|i| rumor.query_id(&format!("q{i}")).unwrap())
        .collect();
    let reference = reference(rumor, &cfg, feed);
    let mut session = rumor.session().config(cfg).build().unwrap();
    let events = self::feed(rumor);
    let mut handles: Vec<Handle> = Vec::new();
    let mut live: HashMap<QueryId, usize> = HashMap::new();
    let mut want_rest: Vec<(QueryId, Tuple)> = Vec::new();
    for (k, (segment, changes)) in events.chunks(SEGMENT).zip(timeline()).enumerate() {
        for change in changes {
            match change {
                Change::Subscribe(i) => {
                    let q = queries[i];
                    live.insert(q, handles.len());
                    handles.push(Handle {
                        query: q,
                        sub: Some(session.subscribe(q)),
                        got: Vec::new(),
                        want: Vec::new(),
                    });
                }
                Change::Drop(i) | Change::Unsubscribe(i) => {
                    let h = &mut handles[live.remove(&queries[i]).unwrap()];
                    let mut sub = h.sub.take().unwrap();
                    h.got.extend(sub.drain());
                    match change {
                        Change::Unsubscribe(_) => sub.unsubscribe(),
                        _ => drop(sub),
                    }
                }
            }
        }
        push_segment(&mut session, segment, feed);
        if k + 1 == reference.len() {
            session.finish().unwrap();
        }
        for (q, t) in &reference[k] {
            match live.get(q) {
                Some(&h) => handles[h].want.push(t.clone()),
                None => want_rest.push((*q, t.clone())),
            }
        }
    }
    for h in &mut handles {
        if let Some(sub) = &mut h.sub {
            h.got.extend(sub.drain());
        }
        assert_eq!(h.got, h.want, "{name}: subscription to {}", h.query);
    }
    assert_eq!(session.collect_all(), want_rest, "{name}: catch-all");
    // The timeline leaves results on both paths, so both were checked.
    assert!(
        handles.iter().all(|h| !h.want.is_empty()),
        "{name}: idle handle"
    );
    assert!(!want_rest.is_empty(), "{name}: empty catch-all");
}

#[test]
fn subscription_changes_partition_the_unsubscribed_result_stream() {
    let rumor = engine();
    check(&rumor, "local push", SessionConfig::default(), Feed::Push);
    check(
        &rumor,
        "local push_batch",
        SessionConfig::default(),
        Feed::PushBatch,
    );
    let pool = SessionConfig {
        workers: Some(2),
        streaming: None,
    };
    check(&rumor, "workers(2) push_batch", pool, Feed::PushBatch);
}
