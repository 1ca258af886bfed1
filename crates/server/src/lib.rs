//! RUMOR over the network: a multi-tenant TCP front door for one shared
//! engine session.
//!
//! The paper's economics (one shared plan amortized over the whole
//! registered query population) only materialize when many independent
//! query *owners* reach one engine. This crate is that front door: a
//! long-running server ([`Server`]) multiplexing many client
//! connections onto a single [`rumor_engine::Session`], plus a blocking
//! [`Client`] speaking the same wire format.
//!
//! Deliberately std-only: `std::net::TcpListener` + threads, binary
//! frames, and the engine's hand-rolled JSON for structured replies. No
//! async runtime, no serialization framework.
//!
//! # Wire protocol
//!
//! Transport: TCP, both directions carrying length-prefixed frames — a
//! 4-byte big-endian payload length (capped at
//! [`frame::MAX_FRAME`]) then the payload ([`frame`]). Payloads are
//! tagged binary messages ([`proto`]): `HELLO` / `REGISTER` / `DROP` /
//! `PUSH` / `PUSH_BATCH` / `FLUSH` / `STATS` / `EXPLAIN` / `BYE` from
//! the client; `WELCOME` / `REGISTERED` / `DROPPED` / `RESULTS` /
//! `FLUSHED` / `STATS_JSON` / `EXPLAIN_TEXT` / `ERROR` / `SHED` /
//! `GOODBYE` from the server. See [`proto`] for the field-level layout
//! of every message.
//!
//! A conversation:
//!
//! ```text
//! client                                server
//!   │ HELLO v1                            │
//!   │ ◀── WELCOME v1 + source table       │
//!   │ REGISTER watch AS SELECT…           │  engine.execute → integrate
//!   │ ◀── REGISTERED watch = q7           │  session.update_plan (epoch swap)
//!   │ PUSH src0 @3 [1,2,3]                │  session.push
//!   │ ◀── RESULTS q7: @3 [1,2,3]          │  subscription drain → outbox
//!   │ FLUSH                               │  session.flush (barrier)
//!   │ ◀── FLUSHED                         │  ordered AFTER the results
//!   │ BYE                                 │  drop queries, drain, close
//!   │ ◀── GOODBYE, then EOF               │
//! ```
//!
//! # Architecture
//!
//! One **ingest thread** owns the engine and session outright — no
//! locks on the shared plan ([`ingest`]). Per-connection **reader
//! threads** decode frames into commands and feed a *bounded* command
//! queue; the blocking send is the admission-control point, mirroring
//! the bounded staging queues of [`rumor_engine::StreamingConfig`]. A
//! delivery pass fans subscription results out into bounded per-client
//! **outboxes** ([`outbox`]) — all `RESULTS` frames a client earned in
//! the pass as one entry — drained by per-connection writer threads
//! with one socket write per wake-up; a slow client sheds its *own*
//! oldest results (and is told so via `SHED`), never stalling the
//! engine or its neighbours.
//! Queries registered over the wire go through the live
//! `Optimizer::integrate` path, so every tenant's queries land in the
//! one shared plan — `EXPLAIN` from any client shows the m-ops their
//! queries share with everyone else's.
//!
//! Shutdown is a graceful drain — stop accepting, flush barrier,
//! deliver all buffered results, `GOODBYE`, close — specified
//! step-by-step in [`drain`].
//!
//! # Example
//!
//! ```
//! use rumor_engine::Rumor;
//! use rumor_core::OptimizerConfig;
//! use rumor_server::{Client, Server, ServerConfig};
//! use rumor_types::Tuple;
//!
//! let mut engine = Rumor::new(OptimizerConfig::default());
//! engine.execute("CREATE STREAM s (a INT, b INT);")?;
//! let server = Server::spawn(engine, ServerConfig::default())?;
//!
//! let mut client = Client::connect(server.addr())?;
//! client.register("watch", "SELECT * FROM s WHERE a = 1")?;
//! let src = client.source("s").expect("source table from WELCOME");
//! client.push(src, Tuple::ints(0, &[1, 10]))?;
//! client.push(src, Tuple::ints(1, &[2, 20]))?;
//! client.flush()?;
//! assert_eq!(client.drain("watch"), vec![Tuple::ints(0, &[1, 10])]);
//! client.bye()?;
//! server.shutdown()?;
//! # Ok::<(), rumor_types::RumorError>(())
//! ```

pub mod client;
pub mod drain;
pub mod frame;
pub mod ingest;
pub mod outbox;
pub mod proto;
pub mod server;

pub use client::Client;
pub use proto::{Reply, Request, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig};
