//! A blocking client speaking the same framing as the server.
//!
//! The client mirrors the embedded API shape on purpose: `register` ↔
//! `Rumor::add_query` + `Session::subscribe`, `push`/`push_batch` ↔
//! [`EventRuntime`](rumor_engine::EventRuntime), `flush` ↔ the portable
//! make-results-visible-now barrier, `drain` ↔
//! [`Subscription::drain`](rumor_engine::Subscription). The loopback
//! conformance suite leans on that symmetry: the same driver runs
//! against a `Client` and an embedded `Session` and asserts identical
//! results.
//!
//! Results arrive asynchronously on the one connection; any blocking
//! read (`flush`, `register`, …) buffers `RESULTS` frames it encounters
//! into per-query queues, which [`Client::drain`] empties. `FLUSHED` is
//! ordered after the result frames it flushed, so after `flush()`
//! returns, every result of previously pushed events is locally
//! drainable — the same delivery-point contract the embedded session
//! documents.
//!
//! Each request leaves as a single `write`: length prefix and payload
//! are encoded into one buffer first, so on the `TCP_NODELAY` socket a
//! large `PUSH_BATCH` never sends its 4-byte prefix as a segment of its
//! own. Replies are read through a 64 KiB buffer — the server writes the
//! `RESULTS` frames of a whole delivery pass back to back. Both frame
//! buffers are reused from message to message up to
//! `frame::REUSE_CAP`.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use rumor_types::{QueryId, Result, RumorError, SourceId, Tuple};

use crate::frame;
use crate::proto::{Reply, Request, PROTOCOL_VERSION};

/// Read-buffer size: room for the frames of a typical delivery pass.
const READ_BUFFER: usize = 64 * 1024;

/// Blocking connection to a [`crate::Server`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The outgoing frame under construction, reused across requests.
    out: Vec<u8>,
    /// The incoming frame's payload, reused across replies.
    payload: Vec<u8>,
    sources: Vec<(String, SourceId)>,
    queries: HashMap<String, QueryId>,
    results: HashMap<QueryId, Vec<Tuple>>,
    shed: u64,
    goodbye: bool,
}

impl Client {
    /// Connects and completes the `HELLO`/`WELCOME` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::with_capacity(READ_BUFFER, stream.try_clone()?);
        let mut client = Client {
            reader,
            writer: stream,
            out: Vec::new(),
            payload: Vec::new(),
            sources: Vec::new(),
            queries: HashMap::new(),
            results: HashMap::new(),
            shed: 0,
            goodbye: false,
        };
        client.send(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match client.read_until(|r| matches!(r, Reply::Welcome { .. }))? {
            Reply::Welcome { version, sources } => {
                if version != PROTOCOL_VERSION {
                    return Err(RumorError::io(format!(
                        "protocol version mismatch: server {version}, client {PROTOCOL_VERSION}"
                    )));
                }
                client.sources = sources;
            }
            _ => unreachable!("read_until matched Welcome"),
        }
        Ok(client)
    }

    /// The server's source table (name, id), from `WELCOME`.
    pub fn sources(&self) -> &[(String, SourceId)] {
        &self.sources
    }

    /// Source id by name.
    pub fn source(&self, name: &str) -> Option<SourceId> {
        self.sources
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, id)| id)
    }

    /// Query id of a query registered on this connection.
    pub fn query(&self, name: &str) -> Option<QueryId> {
        self.queries.get(name).copied()
    }

    /// Registers `name AS body` (e.g. body `"SELECT * FROM s WHERE a = 1"`)
    /// and returns the engine-assigned query id.
    pub fn register(&mut self, name: &str, body: &str) -> Result<QueryId> {
        self.send(&Request::Register {
            name: name.to_string(),
            body: body.to_string(),
        })?;
        match self.read_until(|r| matches!(r, Reply::Registered { .. }))? {
            Reply::Registered { name, query } => {
                self.queries.insert(name, query);
                self.results.entry(query).or_default();
                Ok(query)
            }
            _ => unreachable!("read_until matched Registered"),
        }
    }

    /// Drops a query registered on this connection. Results it produced
    /// before the drop stay locally drainable.
    pub fn drop_query(&mut self, name: &str) -> Result<()> {
        self.send(&Request::Drop {
            name: name.to_string(),
        })?;
        self.read_until(|r| matches!(r, Reply::Dropped { .. }))?;
        // The name→id mapping is kept so results the query produced
        // before the drop stay drainable; a later `register` under the
        // same name simply overwrites it.
        Ok(())
    }

    /// Pushes one event. Fire-and-forget: errors the engine reports for
    /// the push surface on the next blocking call (e.g. [`Client::flush`]).
    pub fn push(&mut self, source: SourceId, tuple: Tuple) -> Result<()> {
        self.send(&Request::Push { source, tuple })
    }

    /// Pushes a batch of events in one frame.
    pub fn push_batch(&mut self, events: Vec<(SourceId, Tuple)>) -> Result<()> {
        self.send(&Request::PushBatch { events })
    }

    /// Barrier: returns once every result of previously pushed events has
    /// been received and buffered locally.
    pub fn flush(&mut self) -> Result<()> {
        self.send(&Request::Flush)?;
        self.read_until(|r| matches!(r, Reply::Flushed))?;
        Ok(())
    }

    /// Takes the buffered results of a query registered under `name`.
    pub fn drain(&mut self, name: &str) -> Vec<Tuple> {
        match self.queries.get(name) {
            Some(&qid) => self.drain_query(qid),
            None => Vec::new(),
        }
    }

    /// Takes the buffered results of a query by id.
    pub fn drain_query(&mut self, query: QueryId) -> Vec<Tuple> {
        self.results
            .get_mut(&query)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Takes every buffered result at once, keyed by query id. Useful
    /// for fan-in consumers (the multi-tenant bench) that only need
    /// counts or bulk processing.
    pub fn take_results(&mut self) -> HashMap<QueryId, Vec<Tuple>> {
        let drained: HashMap<QueryId, Vec<Tuple>> = self
            .results
            .iter_mut()
            .map(|(q, v)| (*q, std::mem::take(v)))
            .collect();
        drained.into_iter().filter(|(_, v)| !v.is_empty()).collect()
    }

    /// The stats document: `{"server": {...}, "session": <snapshot>}`.
    pub fn stats_json(&mut self) -> Result<String> {
        self.send(&Request::Stats)?;
        match self.read_until(|r| matches!(r, Reply::StatsJson { .. }))? {
            Reply::StatsJson { json } => Ok(json),
            _ => unreachable!("read_until matched StatsJson"),
        }
    }

    /// The rendered live plan (shared m-ops annotated with runtime
    /// counters), straight from [`Session::explain`](rumor_engine::Session::explain).
    pub fn explain(&mut self) -> Result<String> {
        self.send(&Request::Explain)?;
        match self.read_until(|r| matches!(r, Reply::ExplainText { .. }))? {
            Reply::ExplainText { text } => Ok(text),
            _ => unreachable!("read_until matched ExplainText"),
        }
    }

    /// Result frames the server shed for this client (slow-consumer
    /// overflow), as reported by `SHED` notices seen so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// True once the server has announced shutdown (`GOODBYE` seen while
    /// waiting for some other reply). The final results delivered by the
    /// drain remain drainable.
    pub fn server_closed(&self) -> bool {
        self.goodbye
    }

    /// Graceful close: the server drains this client's pending results
    /// (buffered here until the handle drops), drops its queries, and
    /// confirms with `GOODBYE`.
    pub fn bye(mut self) -> Result<()> {
        self.send(&Request::Bye)?;
        self.read_until(|r| matches!(r, Reply::Goodbye))?;
        Ok(())
    }

    /// Like [`Client::bye`], but returns the final buffered results so a
    /// caller can consume everything the drain delivered.
    pub fn bye_with_results(mut self) -> Result<HashMap<QueryId, Vec<Tuple>>> {
        self.send(&Request::Bye)?;
        self.read_until(|r| matches!(r, Reply::Goodbye))?;
        Ok(std::mem::take(&mut self.results))
    }

    /// Blocks until the server announces shutdown (`GOODBYE`) or closes
    /// the connection, buffering every result frame the graceful drain
    /// delivers on the way. After this returns, [`Client::drain`] yields
    /// everything the engine produced for this client.
    pub fn wait_server_close(&mut self) -> Result<()> {
        if self.goodbye {
            return Ok(());
        }
        loop {
            if !frame::read_frame_into(&mut self.reader, &mut self.payload)? {
                return Ok(()); // EOF without GOODBYE: abrupt but closed
            }
            match Reply::decode(&self.payload)? {
                Reply::Results { query, tuples } => {
                    self.results.entry(query).or_default().extend(tuples);
                }
                Reply::Shed { dropped } => self.shed += dropped,
                Reply::Goodbye => {
                    self.goodbye = true;
                    return Ok(());
                }
                _ => {}
            }
        }
    }

    fn send(&mut self, req: &Request) -> Result<()> {
        self.out.clear();
        frame::append_frame(&mut self.out, |out| req.encode_into(out))?;
        self.writer.write_all(&self.out)?;
        if self.out.capacity() > frame::REUSE_CAP {
            self.out = Vec::new(); // a big batch does not pin its buffer
        }
        Ok(())
    }

    /// Reads replies, buffering `RESULTS` and `SHED`, until `want`
    /// matches. `ERROR` frames fail the pending call; an EOF before the
    /// awaited reply is an [`RumorError::Io`] — unless the server is
    /// draining and sends `GOODBYE` first, which also ends the wait (the
    /// pending call then reports the shutdown).
    fn read_until(&mut self, want: impl Fn(&Reply) -> bool) -> Result<Reply> {
        loop {
            if !frame::read_frame_into(&mut self.reader, &mut self.payload)? {
                return Err(RumorError::io(
                    "server closed the connection before replying",
                ));
            }
            let reply = Reply::decode(&self.payload)?;
            if want(&reply) {
                return Ok(reply);
            }
            match reply {
                Reply::Results { query, tuples } => {
                    self.results.entry(query).or_default().extend(tuples);
                }
                Reply::Shed { dropped } => self.shed += dropped,
                Reply::Error { message } => {
                    return Err(RumorError::io(format!("server error: {message}")))
                }
                Reply::Goodbye => {
                    self.goodbye = true;
                    return Err(RumorError::io(
                        "server shut down (GOODBYE received) before the awaited reply",
                    ));
                }
                // Unsolicited control replies are protocol noise; skip.
                _ => {}
            }
        }
    }
}
