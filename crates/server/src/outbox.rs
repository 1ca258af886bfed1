//! Bounded per-client outboxes: the dispatcher half of the fan-out.
//!
//! The ingest thread (see [`crate::ingest`]) never writes to a socket.
//! Each connection owns an `Outbox` — a bounded queue of wire-ready
//! bytes drained by that connection's dedicated writer thread. The unit
//! of work on both sides is the **delivery pass**, not the result frame:
//!
//! * **Producer.** One pass over a client's subscriptions encodes every
//!   `RESULTS` frame it yields back to back into a `Bundle`, which
//!   enters the queue as *one* entry carrying its frame count — one
//!   lock and one writer wake-up per client per pass, however many
//!   queries produced results. A bundle is cut at `BUNDLE_CUT` bytes so
//!   memory and shed granularity stay bounded under a result flood.
//! * **Consumer.** The writer takes *everything* queued under one lock
//!   (`Outbox::take_all`) and puts it on the socket with one write.
//!
//! This is what keeps one slow client from stalling the shared engine:
//!
//! * **Control frames** (`REGISTERED`, `FLUSHED`, `ERROR`, `GOODBYE`, …)
//!   always enqueue and keep their queue position. They are few, small,
//!   and request-driven, so they cannot grow without bound.
//! * **Result entries** count their *frames* against the configured
//!   capacity. When a client is further behind than that — its writer is
//!   blocked on a socket the client is not reading — the *oldest queued
//!   result entry for that client* is shed whole and its frame count is
//!   added to the per-client shed counter. The engine thread never
//!   blocks; other clients never notice. Shedding is reported back to
//!   the affected client as a `SHED` notice (in frames) at its next
//!   flush barrier, and in the `STATS` server envelope.
//!
//! This mirrors the bounded-queue admission semantics the in-process
//! engines already use ([`rumor_engine::StreamingConfig`]'s
//! `queue_depth`): the bound is per-participant and overload is resolved
//! locally, at the edge, not by backpressuring the shared plan.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use rumor_types::{QueryId, Tuple};

use crate::frame::append_frame;
use crate::proto::{put_results, Reply};

/// Max tuples per `RESULTS` frame; larger drains are chunked.
const RESULTS_CHUNK: usize = 4096;

/// A bundle that has reached this many bytes is queued and a new one
/// started, so one pass over a result flood is shed (and buffered) in
/// pieces rather than as one unbounded entry.
const BUNDLE_CUT: usize = 64 * 1024;

/// Length-prefixed frames queued for one client, tagged with their shed
/// class.
#[derive(Debug)]
enum Entry {
    /// One control frame; never shed.
    Control(Vec<u8>),
    /// The `RESULTS` frames of one delivery pass (or one cut of it),
    /// back to back. `frames` count against capacity; the oldest entry
    /// is shed first on overflow.
    Results { bytes: Vec<u8>, frames: usize },
}

#[derive(Debug, Default)]
struct State {
    entries: VecDeque<Entry>,
    /// Result frames currently queued, over all `Results` entries.
    frames_queued: usize,
    counters: Counters,
    /// Result frames shed since the last `SHED` notice was emitted.
    shed_unreported: u64,
    closed: bool,
}

/// One connection's lifetime totals, for the `STATS` server envelope.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counters {
    /// Result frames shed.
    pub(crate) shed: u64,
    /// Result frames handed to the writer.
    pub(crate) result_frames: u64,
    /// Socket writes the writer issued — one per [`Outbox::take_all`];
    /// `result_frames / socket_writes` is the coalescing ratio.
    pub(crate) socket_writes: u64,
}

/// Handle to one client's bounded outbox; cloned between the ingest
/// thread (producer) and the connection's writer thread (consumer).
#[derive(Debug, Clone)]
pub(crate) struct Outbox {
    shared: Arc<Shared>,
    capacity: usize,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    cond: Condvar,
}

impl Outbox {
    pub(crate) fn new(capacity: usize) -> Self {
        Outbox {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                cond: Condvar::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.shared.state.lock().expect("outbox lock poisoned")
    }

    /// Enqueues a control frame (unbounded, never shed). A reply too
    /// large to frame goes out as the `ERROR` saying so.
    pub(crate) fn push_control(&self, reply: &Reply) {
        let mut frame = Vec::new();
        if let Err(e) = append_frame(&mut frame, |out| reply.encode_into(out)) {
            let message = e.to_string();
            append_frame(&mut frame, |out| Reply::Error { message }.encode_into(out))
                .expect("an error message fits a frame");
        }
        let mut st = self.lock();
        if st.closed {
            return;
        }
        st.entries.push_back(Entry::Control(frame));
        drop(st); // wake the writer into a free lock
        self.shared.cond.notify_one();
    }

    /// Starts the bundle of one delivery pass for this client.
    pub(crate) fn bundle(&self) -> Bundle<'_> {
        Bundle {
            outbox: self,
            bytes: Vec::new(),
            frames: 0,
        }
    }

    /// Result frames shed since the last call; used to emit `SHED`
    /// notices at flush barriers.
    pub(crate) fn take_unreported_shed(&self) -> u64 {
        std::mem::take(&mut self.lock().shed_unreported)
    }

    /// Lifetime totals (for the `STATS` server envelope).
    pub(crate) fn counters(&self) -> Counters {
        self.lock().counters
    }

    /// Marks the outbox closed: the writer drains what is queued, then
    /// exits and closes the socket. Producers become no-ops.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.shared.cond.notify_all();
    }

    /// Blocks until anything is queued, then moves *all* of it into
    /// `buf` (cleared first) in queue order — the bytes of one socket
    /// write. `false` means closed *and* drained: the writer should exit.
    pub(crate) fn take_all(&self, buf: &mut Vec<u8>) -> bool {
        let mut st = self.lock();
        while st.entries.is_empty() {
            if st.closed {
                return false;
            }
            st = self.shared.cond.wait(st).expect("outbox lock poisoned");
        }
        let entries = std::mem::take(&mut st.entries);
        st.counters.result_frames += std::mem::take(&mut st.frames_queued) as u64;
        st.counters.socket_writes += 1;
        drop(st);
        buf.clear();
        for entry in &entries {
            let (Entry::Control(bytes) | Entry::Results { bytes, .. }) = entry;
            buf.extend_from_slice(bytes);
        }
        true
    }
}

/// The `RESULTS` frames one delivery pass yields for one client, encoded
/// in place (no per-frame buffer, no copy of the tuples) and queued as
/// one outbox entry by [`Bundle::send`].
pub(crate) struct Bundle<'a> {
    outbox: &'a Outbox,
    bytes: Vec<u8>,
    frames: usize,
}

impl Bundle<'_> {
    /// Appends `query`'s results as `RESULTS` frames of at most
    /// `RESULTS_CHUNK` tuples. A frame over [`crate::frame::MAX_FRAME`]
    /// cannot be delivered and is counted as shed instead.
    pub(crate) fn add(&mut self, query: QueryId, tuples: &[Tuple]) {
        for chunk in tuples.chunks(RESULTS_CHUNK) {
            if self.bytes.capacity() == 0 {
                // Room for a whole bundle, plus slack for the frame that
                // crosses the cut, up front (trimmed to size by `send`),
                // so encoding does not regrow its way there.
                self.bytes.reserve_exact(BUNDLE_CUT + BUNDLE_CUT / 16);
            }
            match append_frame(&mut self.bytes, |out| put_results(out, query, chunk)) {
                Ok(()) => self.frames += 1,
                Err(_) => self.outbox.lock().shed(1),
            }
            if self.bytes.len() >= BUNDLE_CUT {
                self.send();
            }
        }
    }

    /// Queues what the pass produced so far as one entry (an empty pass
    /// queues nothing), first shedding the oldest queued result entries
    /// while the client is more than `capacity` frames behind.
    pub(crate) fn send(&mut self) {
        if self.frames == 0 {
            return;
        }
        let (mut bytes, frames) = (std::mem::take(&mut self.bytes), self.frames);
        self.frames = 0;
        bytes.shrink_to_fit();
        let mut st = self.outbox.lock();
        if st.closed {
            return;
        }
        while st.frames_queued + frames > self.outbox.capacity {
            let oldest = st
                .entries
                .iter()
                .position(|e| matches!(e, Entry::Results { .. }));
            // A bundle larger than the whole bound still goes out.
            let Some(Entry::Results { frames: shed, .. }) =
                oldest.and_then(|i| st.entries.remove(i))
            else {
                break;
            };
            st.frames_queued -= shed;
            st.shed(shed);
        }
        st.entries.push_back(Entry::Results { bytes, frames });
        st.frames_queued += frames;
        drop(st); // wake the writer into a free lock
        self.outbox.shared.cond.notify_one();
    }
}

impl State {
    fn shed(&mut self, frames: usize) {
        self.counters.shed += frames as u64;
        self.shed_unreported += frames as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use rumor_types::Value;

    fn control(n: u64) -> Reply {
        Reply::Shed { dropped: n }
    }

    /// A bundle of `frames` one-tuple frames for queries `base..`.
    fn push_frames(ob: &Outbox, base: u32, frames: u32) {
        let mut bundle = ob.bundle();
        for q in base..base + frames {
            bundle.add(QueryId(q), &[Tuple::ints(u64::from(q), &[1])]);
        }
        bundle.send();
    }

    /// What `write_frame` puts on the wire for the same replies.
    fn wire(replies: &[Reply]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in replies {
            write_frame(&mut out, &r.encode()).unwrap();
        }
        out
    }

    fn results(base: u32, frames: u32) -> Vec<Reply> {
        (base..base + frames)
            .map(|q| Reply::Results {
                query: QueryId(q),
                tuples: vec![Tuple::ints(u64::from(q), &[1])],
            })
            .collect()
    }

    #[test]
    fn control_frames_never_shed() {
        let ob = Outbox::new(2);
        let replies: Vec<Reply> = (0..10).map(control).collect();
        for r in &replies {
            ob.push_control(r);
        }
        ob.close();
        let mut buf = Vec::new();
        assert!(ob.take_all(&mut buf));
        assert_eq!(buf, wire(&replies));
        assert!(!ob.take_all(&mut buf));
        assert_eq!(ob.counters().shed, 0);
    }

    #[test]
    fn result_overflow_sheds_oldest_result_entry_only() {
        let ob = Outbox::new(5);
        push_frames(&ob, 10, 3);
        ob.push_control(&control(100));
        push_frames(&ob, 20, 2);
        push_frames(&ob, 30, 2); // 7 > capacity 5 → sheds the 3-frame entry
        assert_eq!(ob.counters().shed, 3);
        assert_eq!(ob.take_unreported_shed(), 3);
        assert_eq!(ob.take_unreported_shed(), 0);
        ob.close();
        let mut buf = Vec::new();
        assert!(ob.take_all(&mut buf));
        // Control frame kept its queue position; oldest result entry gone.
        let mut want = vec![control(100)];
        want.extend(results(20, 2));
        want.extend(results(30, 2));
        assert_eq!(buf, wire(&want));
        let c = ob.counters();
        assert_eq!((c.result_frames, c.socket_writes), (4, 1));
    }

    #[test]
    fn bundle_larger_than_capacity_is_queued_then_shed_whole() {
        let ob = Outbox::new(2);
        push_frames(&ob, 0, 5);
        assert_eq!(ob.counters().shed, 0, "nothing older to shed");
        push_frames(&ob, 5, 1);
        assert_eq!(ob.counters().shed, 5);
        let mut buf = Vec::new();
        assert!(ob.take_all(&mut buf));
        assert_eq!(buf, wire(&results(5, 1)));
    }

    #[test]
    fn close_drains_then_stops() {
        let ob = Outbox::new(8);
        push_frames(&ob, 7, 2);
        ob.close();
        let mut buf = Vec::new();
        assert!(ob.take_all(&mut buf));
        assert_eq!(buf, wire(&results(7, 2)));
        assert!(!ob.take_all(&mut buf));
        // Pushes after close are dropped.
        push_frames(&ob, 9, 1);
        ob.push_control(&control(1));
        assert!(!ob.take_all(&mut buf));
    }

    #[test]
    fn a_long_pass_is_cut_into_bounded_entries() {
        let ob = Outbox::new(usize::MAX);
        let wide = Tuple::new(0, vec![Value::Str("x".repeat(BUNDLE_CUT / 4).into())]);
        let mut bundle = ob.bundle();
        for q in 0..8 {
            bundle.add(QueryId(q), std::slice::from_ref(&wide));
        }
        bundle.send();
        let st = ob.lock();
        assert_eq!(st.frames_queued, 8);
        assert_eq!(st.entries.len(), 2, "cut once the bundle reached 64 KiB");
    }
}
