//! Wire protocol: the payload structure inside [`crate::frame`] frames.
//!
//! # Message catalogue
//!
//! Client → server ([`Request`], tag byte in parentheses):
//!
//! | message | tag | fields |
//! |---|---|---|
//! | `HELLO` | `0x01` | protocol version (`u32`) |
//! | `REGISTER` | `0x02` | query name (`str`), query body (`str`) |
//! | `DROP` | `0x03` | query name (`str`) |
//! | `PUSH` | `0x04` | source id (`u32`), tuple |
//! | `PUSH_BATCH` | `0x05` | count (`u32`), then `count` × (source id, tuple) |
//! | `FLUSH` | `0x06` | — |
//! | `STATS` | `0x07` | — |
//! | `EXPLAIN` | `0x08` | — |
//! | `BYE` | `0x09` | — |
//!
//! Server → client ([`Reply`]):
//!
//! | message | tag | fields |
//! |---|---|---|
//! | `WELCOME` | `0x81` | version (`u32`), source count (`u32`), then (name `str`, id `u32`) pairs |
//! | `REGISTERED` | `0x82` | query name (`str`), query id (`u32`) |
//! | `DROPPED` | `0x83` | query name (`str`) |
//! | `RESULTS` | `0x84` | query id (`u32`), count (`u32`), then `count` tuples |
//! | `FLUSHED` | `0x85` | — |
//! | `STATS_JSON` | `0x86` | JSON document (`str`) |
//! | `EXPLAIN_TEXT` | `0x87` | rendered plan (`str`) |
//! | `ERROR` | `0x88` | message (`str`) — the [`RumorError`] display form |
//! | `SHED` | `0x89` | dropped result frames since last notice (`u64`) |
//! | `GOODBYE` | `0x8A` | — |
//!
//! # Primitive encodings
//!
//! All integers are big-endian. A `str` is a `u32` byte length followed
//! by UTF-8 bytes. A tuple is its timestamp (`u64`), an arity (`u32`),
//! and that many values; a value is a one-byte type tag — `0` null,
//! `1` int (`i64`), `2` float (`f64` bit pattern), `3` bool (one byte),
//! `4` string (`str`) — followed by the payload.
//!
//! Structured replies (`STATS_JSON`) carry the engine's own hand-rolled
//! JSON ([`StatsSnapshot::to_json`](rumor_engine::StatsSnapshot::to_json))
//! verbatim inside a `str` field, wrapped in a small envelope that adds
//! server-side counters; no JSON parser exists on either side of the
//! wire, by design.
//!
//! Decoding is strict: unknown tags, truncated fields, invalid UTF-8,
//! and trailing bytes after a complete message are all
//! [`RumorError::Io`] errors — the connection that produced them is
//! answered with `ERROR` and closed (see [`crate::ingest`]).

use rumor_types::{QueryId, Result, RumorError, SourceId, Tuple, Value};

/// Protocol version spoken by this build; `HELLO`/`WELCOME` must agree.
pub const PROTOCOL_VERSION: u32 = 1;

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the conversation; must be the first message on a connection.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Registers a continuous query under a client-scoped name.
    Register {
        /// Client-visible query name (an identifier; unique per client).
        name: String,
        /// Query body — everything after `AS` in the query language, e.g.
        /// `SELECT * FROM s WHERE a = 3`.
        body: String,
    },
    /// Drops a query previously registered on this connection.
    Drop {
        /// The name passed to `REGISTER`.
        name: String,
    },
    /// Pushes one event into the shared session.
    Push {
        /// Source, resolved from the `WELCOME` source table.
        source: SourceId,
        /// The event.
        tuple: Tuple,
    },
    /// Pushes many events in one frame.
    PushBatch {
        /// The events, in arrival order.
        events: Vec<(SourceId, Tuple)>,
    },
    /// Barrier: makes all results of previously pushed events visible and
    /// answers with `FLUSHED` *after* those result frames.
    Flush,
    /// Requests the stats snapshot (server envelope + session JSON).
    Stats,
    /// Requests the rendered live plan.
    Explain,
    /// Graceful close: the server drains this client's buffered results,
    /// drops its queries, answers `GOODBYE`, and closes the connection.
    Bye,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to `HELLO`.
    Welcome {
        /// Server's [`PROTOCOL_VERSION`].
        version: u32,
        /// The engine's source table: name → id, for `PUSH` routing.
        sources: Vec<(String, SourceId)>,
    },
    /// Successful `REGISTER`.
    Registered {
        /// The client-visible name.
        name: String,
        /// The engine-assigned query id results are tagged with.
        query: QueryId,
    },
    /// Successful `DROP`.
    Dropped {
        /// The client-visible name.
        name: String,
    },
    /// A batch of result tuples for one registered query.
    Results {
        /// The query id from `REGISTERED`.
        query: QueryId,
        /// The result tuples, in delivery order.
        tuples: Vec<Tuple>,
    },
    /// Answer to `FLUSH`, ordered after the result frames it flushed.
    Flushed,
    /// Answer to `STATS`.
    StatsJson {
        /// `{"server": {...}, "session": <StatsSnapshot::to_json>}`.
        json: String,
    },
    /// Answer to `EXPLAIN`.
    ExplainText {
        /// [`Session::explain`](rumor_engine::Session::explain) output.
        text: String,
    },
    /// Any request-level failure; the connection stays open unless the
    /// error was a protocol violation.
    Error {
        /// Rendered [`RumorError`].
        message: String,
    },
    /// Backpressure notice: this client's outbox overflowed and `dropped`
    /// result frames were shed since the last notice.
    Shed {
        /// Number of shed result frames.
        dropped: u64,
    },
    /// Answer to `BYE` (and the final frame of a server shutdown drain).
    Goodbye,
}

// --- encoding -------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_be_bytes());
        }
        Value::Bool(b) => {
            out.push(3);
            out.push(u8::from(*b));
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
    }
}

fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    out.extend_from_slice(&t.ts.to_be_bytes());
    out.extend_from_slice(&(t.values().len() as u32).to_be_bytes());
    for v in t.values() {
        put_value(out, v);
    }
}

impl Request {
    /// Serializes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Appends the payload [`Request::encode`] returns to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello { version } => {
                out.push(0x01);
                out.extend_from_slice(&version.to_be_bytes());
            }
            Request::Register { name, body } => {
                out.push(0x02);
                put_str(out, name);
                put_str(out, body);
            }
            Request::Drop { name } => {
                out.push(0x03);
                put_str(out, name);
            }
            Request::Push { source, tuple } => {
                out.push(0x04);
                out.extend_from_slice(&source.0.to_be_bytes());
                put_tuple(out, tuple);
            }
            Request::PushBatch { events } => {
                out.push(0x05);
                out.extend_from_slice(&(events.len() as u32).to_be_bytes());
                for (src, tuple) in events {
                    out.extend_from_slice(&src.0.to_be_bytes());
                    put_tuple(out, tuple);
                }
            }
            Request::Flush => out.push(0x06),
            Request::Stats => out.push(0x07),
            Request::Explain => out.push(0x08),
            Request::Bye => out.push(0x09),
        }
    }

    /// Parses a frame payload; strict (see module docs).
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            0x01 => Request::Hello { version: c.u32()? },
            0x02 => Request::Register {
                name: c.str()?,
                body: c.str()?,
            },
            0x03 => Request::Drop { name: c.str()? },
            0x04 => Request::Push {
                source: SourceId(c.u32()?),
                tuple: c.tuple()?,
            },
            0x05 => {
                let (n, cap) = c.count(MIN_EVENT)?;
                let mut events = Vec::with_capacity(cap);
                for _ in 0..n {
                    let src = SourceId(c.u32()?);
                    let tuple = c.tuple()?;
                    events.push((src, tuple));
                }
                Request::PushBatch { events }
            }
            0x06 => Request::Flush,
            0x07 => Request::Stats,
            0x08 => Request::Explain,
            0x09 => Request::Bye,
            tag => return Err(RumorError::io(format!("unknown request tag 0x{tag:02x}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

/// Appends a `RESULTS` payload encoded straight from a borrowed slice —
/// the bytes `Reply::Results { query, tuples }.encode()` produces, without
/// owning the tuples.
pub(crate) fn put_results(out: &mut Vec<u8>, query: QueryId, tuples: &[Tuple]) {
    out.push(0x84);
    out.extend_from_slice(&query.0.to_be_bytes());
    out.extend_from_slice(&(tuples.len() as u32).to_be_bytes());
    for t in tuples {
        put_tuple(out, t);
    }
}

impl Reply {
    /// Serializes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Appends the payload [`Reply::encode`] returns to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Welcome { version, sources } => {
                out.push(0x81);
                out.extend_from_slice(&version.to_be_bytes());
                out.extend_from_slice(&(sources.len() as u32).to_be_bytes());
                for (name, id) in sources {
                    put_str(out, name);
                    out.extend_from_slice(&id.0.to_be_bytes());
                }
            }
            Reply::Registered { name, query } => {
                out.push(0x82);
                put_str(out, name);
                out.extend_from_slice(&query.0.to_be_bytes());
            }
            Reply::Dropped { name } => {
                out.push(0x83);
                put_str(out, name);
            }
            Reply::Results { query, tuples } => put_results(out, *query, tuples),
            Reply::Flushed => out.push(0x85),
            Reply::StatsJson { json } => {
                out.push(0x86);
                put_str(out, json);
            }
            Reply::ExplainText { text } => {
                out.push(0x87);
                put_str(out, text);
            }
            Reply::Error { message } => {
                out.push(0x88);
                put_str(out, message);
            }
            Reply::Shed { dropped } => {
                out.push(0x89);
                out.extend_from_slice(&dropped.to_be_bytes());
            }
            Reply::Goodbye => out.push(0x8A),
        }
    }

    /// Parses a frame payload; strict (see module docs).
    pub fn decode(payload: &[u8]) -> Result<Reply> {
        let mut c = Cursor::new(payload);
        let reply = match c.u8()? {
            0x81 => {
                let version = c.u32()?;
                let n = c.u32()? as usize;
                let mut sources = Vec::new();
                for _ in 0..n {
                    let name = c.str()?;
                    let id = SourceId(c.u32()?);
                    sources.push((name, id));
                }
                Reply::Welcome { version, sources }
            }
            0x82 => Reply::Registered {
                name: c.str()?,
                query: QueryId(c.u32()?),
            },
            0x83 => Reply::Dropped { name: c.str()? },
            0x84 => {
                let query = QueryId(c.u32()?);
                let (n, cap) = c.count(MIN_TUPLE)?;
                let mut tuples = Vec::with_capacity(cap);
                for _ in 0..n {
                    tuples.push(c.tuple()?);
                }
                Reply::Results { query, tuples }
            }
            0x85 => Reply::Flushed,
            0x86 => Reply::StatsJson { json: c.str()? },
            0x87 => Reply::ExplainText { text: c.str()? },
            0x88 => Reply::Error { message: c.str()? },
            0x89 => Reply::Shed { dropped: c.u64()? },
            0x8A => Reply::Goodbye,
            tag => return Err(RumorError::io(format!("unknown reply tag 0x{tag:02x}"))),
        };
        c.finish()?;
        Ok(reply)
    }
}

// --- decoding cursor ------------------------------------------------------

/// Smallest encodings of the counted elements, in bytes: a value is at
/// least its tag, a tuple its timestamp + arity, an event a source id +
/// tuple.
const MIN_VALUE: usize = 1;
const MIN_TUPLE: usize = 12;
const MIN_EVENT: usize = 4 + MIN_TUPLE;

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                RumorError::io(format!(
                    "truncated message: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len().saturating_sub(self.pos)
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32` element count and the capacity to allocate for it:
    /// the declared count clamped by how many `min_item`-byte elements
    /// the rest of the payload could hold. Well-formed input allocates
    /// once at exact size; a hostile `0xFFFF_FFFF` reserves nothing and
    /// fails as truncated on the first missing element.
    fn count(&mut self, min_item: usize) -> Result<(usize, usize)> {
        let n = self.u32()? as usize;
        Ok((n, n.min((self.buf.len() - self.pos) / min_item)))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| RumorError::io("invalid UTF-8 in string field"))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(f64::from_bits(self.u64()?)),
            3 => Value::Bool(self.u8()? != 0),
            4 => Value::Str(self.str()?.into()),
            tag => return Err(RumorError::io(format!("unknown value tag {tag}"))),
        })
    }

    fn tuple(&mut self) -> Result<Tuple> {
        let ts = self.u64()?;
        let (arity, cap) = self.count(MIN_VALUE)?;
        let mut values = Vec::with_capacity(cap);
        for _ in 0..arity {
            values.push(self.value()?);
        }
        Ok(Tuple::new(ts, values))
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(RumorError::io(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn roundtrip_reply(reply: Reply) {
        assert_eq!(Reply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip_req(Request::Register {
            name: "watch".into(),
            body: "SELECT * FROM s WHERE a = 3".into(),
        });
        roundtrip_req(Request::Drop {
            name: "watch".into(),
        });
        roundtrip_req(Request::Push {
            source: SourceId(2),
            tuple: Tuple::new(
                7,
                vec![
                    Value::Int(-3),
                    Value::Float(1.5),
                    Value::Bool(true),
                    Value::Str("ok".into()),
                    Value::Null,
                ],
            ),
        });
        roundtrip_req(Request::PushBatch {
            events: vec![
                (SourceId(0), Tuple::ints(0, &[1, 2])),
                (SourceId(1), Tuple::ints(1, &[3])),
            ],
        });
        roundtrip_req(Request::Flush);
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Explain);
        roundtrip_req(Request::Bye);
    }

    #[test]
    fn reply_roundtrips() {
        roundtrip_reply(Reply::Welcome {
            version: 1,
            sources: vec![("s".into(), SourceId(0)), ("t".into(), SourceId(1))],
        });
        roundtrip_reply(Reply::Registered {
            name: "watch".into(),
            query: QueryId(4),
        });
        roundtrip_reply(Reply::Dropped {
            name: "watch".into(),
        });
        roundtrip_reply(Reply::Results {
            query: QueryId(4),
            tuples: vec![Tuple::ints(3, &[1, 2, 3])],
        });
        roundtrip_reply(Reply::Flushed);
        roundtrip_reply(Reply::StatsJson {
            json: "{\"x\": 1}".into(),
        });
        roundtrip_reply(Reply::ExplainText {
            text: "plan".into(),
        });
        roundtrip_reply(Reply::Error {
            message: "nope".into(),
        });
        roundtrip_reply(Reply::Shed { dropped: 9 });
        roundtrip_reply(Reply::Goodbye);
    }

    /// Hostile counts over a short payload: the pre-allocation is clamped
    /// by the bytes left, so each of these fails as truncated at once
    /// instead of reserving gigabytes first.
    #[test]
    fn hostile_counts_fail_as_truncated_without_reserving() {
        let truncated = |r: Result<()>| match r {
            Err(RumorError::Io(m)) => assert!(m.contains("truncated message"), "{m}"),
            other => panic!("expected a truncated-message Io error, got {other:?}"),
        };
        let mut push_batch = vec![0x05];
        push_batch.extend_from_slice(&u32::MAX.to_be_bytes());
        push_batch.extend_from_slice(&[0; 7]);
        truncated(Request::decode(&push_batch).map(drop));

        let mut results = vec![0x84];
        results.extend_from_slice(&3u32.to_be_bytes()); // query id
        results.extend_from_slice(&u32::MAX.to_be_bytes());
        results.extend_from_slice(&[0; 11]);
        truncated(Reply::decode(&results).map(drop));

        let mut wide = vec![0x04];
        wide.extend_from_slice(&0u32.to_be_bytes()); // source
        wide.extend_from_slice(&0u64.to_be_bytes()); // ts
        wide.extend_from_slice(&u32::MAX.to_be_bytes()); // arity
        wide.extend_from_slice(&[0, 0, 0]); // three nulls, then nothing
        truncated(Request::decode(&wide).map(drop));

        let mut c = Cursor::new(&push_batch[1..]);
        assert_eq!(c.count(MIN_EVENT).unwrap(), (u32::MAX as usize, 0));
    }

    #[test]
    fn garbage_and_truncation_rejected() {
        assert!(Request::decode(&[]).is_err(), "empty payload");
        assert!(Request::decode(&[0xFF, 1, 2]).is_err(), "unknown tag");
        assert!(Reply::decode(&[0x42]).is_err(), "unknown reply tag");
        // REGISTER with a string length pointing past the end.
        let mut buf = vec![0x02];
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(Request::decode(&buf).is_err(), "overlong string length");
        // Trailing bytes after a complete message.
        let mut buf = Request::Flush.encode();
        buf.push(0);
        assert!(Request::decode(&buf).is_err(), "trailing bytes");
        // Invalid UTF-8 in a name.
        let mut buf = vec![0x03];
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xC0, 0xC1]);
        assert!(Request::decode(&buf).is_err(), "invalid utf-8");
        // Unknown value tag inside a tuple.
        let mut buf = vec![0x04];
        buf.extend_from_slice(&0u32.to_be_bytes()); // source
        buf.extend_from_slice(&0u64.to_be_bytes()); // ts
        buf.extend_from_slice(&1u32.to_be_bytes()); // arity
        buf.push(9); // bogus value tag
        assert!(Request::decode(&buf).is_err(), "unknown value tag");
    }
}
