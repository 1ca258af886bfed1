//! The ingest thread: single owner of the shared engine and session.
//!
//! Every connection's reader thread decodes frames into `Command`s and
//! sends them down one *bounded* command queue (see
//! [`crate::server::ServerConfig::command_queue_depth`]). The blocking
//! send is the protocol's admission control: a client that pushes faster
//! than the engine drains stalls *its own* reader (and therefore its own
//! TCP window), exactly like a producer hitting the bounded staging
//! queues of [`rumor_engine::StreamingConfig`] — the shared plan itself
//! is never contended.
//!
//! The thread owns both halves of the engine:
//!
//! * the [`Rumor`] optimizer handle, so `REGISTER`/`DROP` go through the
//!   live [`Optimizer::integrate`](rumor_core::Optimizer) path
//!   (`Rumor::execute` → incremental integration → plan delta) followed
//!   by a [`Session::update_plan`](rumor_engine::EventRuntime::update_plan)
//!   epoch swap;
//! * the [`Session`] itself, plus one [`Subscription`] per registered
//!   query.
//!
//! Results leave in **delivery passes**: one scan over every client's
//! subscriptions, in which all `RESULTS` frames a client earned are
//! encoded in place into one `Bundle` ([`crate::outbox`]) and
//! handed to its outbox as a single entry — one lock and one writer
//! wake-up per client per pass, not per query. A pass runs at every
//! `FLUSH` barrier (so `FLUSHED` is queued after the results it
//! flushed) and once after a command batch that touched the session
//! since the last pass; `DROP`, `BYE` and the shutdown drain deliver
//! through the same bundle encoder.
//!
//! Queries are namespaced per connection (`__c<id>__<name>`), so two
//! clients registering the *same* query text hold distinct `QueryId`s —
//! and the optimizer merges their plans into shared m-ops, which is the
//! entire point of the paper: sharing across independent tenants.

use std::collections::HashMap;

use crossbeam_channel::Receiver;
use rumor_engine::{EventRuntime, Rumor, Session, SessionConfig, Subscription};
use rumor_types::{QueryId, Result, RumorError, SourceId};

use crate::outbox::Outbox;
use crate::proto::{Reply, Request, PROTOCOL_VERSION};

/// One unit of work for the ingest thread.
#[derive(Debug)]
pub(crate) enum Command {
    /// A connection was accepted; registers its outbox.
    Connect { client: u64, outbox: Outbox },
    /// A decoded request from a connection.
    Request { client: u64, req: Request },
    /// The connection produced an undecodable frame; reply with an error
    /// and close it.
    Malformed { client: u64, message: String },
    /// The connection is gone (EOF, I/O error, or write failure).
    Disconnect { client: u64 },
    /// Begin the graceful drain and exit the thread.
    Shutdown,
}

struct ClientState {
    outbox: Outbox,
    /// `HELLO` seen; all other requests are rejected until then.
    greeted: bool,
    /// Client-visible name → engine query id.
    queries: HashMap<String, QueryId>,
    /// Engine query id → live subscription.
    subs: Vec<(QueryId, Subscription)>,
}

impl ClientState {
    /// This client's share of a delivery pass: every subscription's
    /// pending results, bundled into one outbox entry.
    fn deliver(&mut self) {
        let mut bundle = self.outbox.bundle();
        for (qid, sub) in &mut self.subs {
            bundle.add(*qid, &sub.drain());
        }
        bundle.send();
    }
}

pub(crate) struct Ingest {
    engine: Rumor,
    session: Session,
    clients: HashMap<u64, ClientState>,
    next_query_seq: u64,
    /// A command ran since the last delivery pass, so subscriptions may
    /// hold results no client has been sent yet.
    undelivered: bool,
}

impl Ingest {
    /// Builds the shared session. Runs on the ingest thread itself so the
    /// compiled runtime never crosses a thread boundary.
    pub(crate) fn new(mut engine: Rumor, session_config: SessionConfig) -> Result<Ingest> {
        // The live add/remove path (`Optimizer::integrate`) requires an
        // optimized plan; running the optimizer on an already-optimized
        // plan is a fixpoint no-op.
        engine.optimize()?;
        let session = engine.session().config(session_config).build()?;
        Ok(Ingest {
            engine,
            session,
            clients: HashMap::new(),
            next_query_seq: 0,
            undelivered: false,
        })
    }

    /// The source table sent in `WELCOME`.
    pub(crate) fn source_table(&self) -> Vec<(String, SourceId)> {
        self.engine
            .plan()
            .sources()
            .iter()
            .map(|s| (s.name.clone(), s.id))
            .collect()
    }

    /// Main loop: drain the command queue in batches, then run one
    /// delivery pass — unless the batch ended in a `FLUSH`, whose own
    /// pass already covered it. Returns when `Shutdown` is processed or
    /// every sender hangs up.
    pub(crate) fn run(mut self, rx: Receiver<Command>) {
        // The loop ends when every sender hangs up (server handle
        // dropped without shutdown) or a Shutdown command arrives.
        while let Ok(first) = rx.recv() {
            let mut batch = vec![first];
            batch.extend(rx.try_iter());
            let mut shutting_down = false;
            for cmd in batch {
                if matches!(cmd, Command::Shutdown) {
                    shutting_down = true;
                    break;
                }
                self.undelivered = true;
                self.handle(cmd);
            }
            if self.undelivered {
                self.deliver();
            }
            if shutting_down {
                self.drain_and_close();
                return;
            }
        }
        self.drain_and_close();
    }

    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::Connect { client, outbox } => {
                self.clients.insert(
                    client,
                    ClientState {
                        outbox,
                        greeted: false,
                        queries: HashMap::new(),
                        subs: Vec::new(),
                    },
                );
            }
            Command::Request { client, req } => self.handle_request(client, req),
            Command::Malformed { client, message } => {
                if let Some(state) = self.clients.get(&client) {
                    state.outbox.push_control(&Reply::Error {
                        message: RumorError::io(message).to_string(),
                    });
                }
                self.remove_client(client, false);
            }
            Command::Disconnect { client } => self.remove_client(client, false),
            Command::Shutdown => unreachable!("filtered by run()"),
        }
    }

    fn handle_request(&mut self, client: u64, req: Request) {
        let Some(state) = self.clients.get(&client) else {
            return; // already removed (e.g. writer died first)
        };
        if !state.greeted && !matches!(req, Request::Hello { .. }) {
            state.outbox.push_control(&Reply::Error {
                message: RumorError::io("HELLO required before any other request").to_string(),
            });
            return;
        }
        match req {
            Request::Hello { version } => {
                if version != PROTOCOL_VERSION {
                    state.outbox.push_control(&Reply::Error {
                        message: RumorError::io(format!(
                            "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                        ))
                        .to_string(),
                    });
                    self.remove_client(client, false);
                    return;
                }
                let welcome = Reply::Welcome {
                    version: PROTOCOL_VERSION,
                    sources: self.source_table(),
                };
                let state = self.clients.get_mut(&client).expect("checked above");
                state.greeted = true;
                state.outbox.push_control(&welcome);
            }
            Request::Register { name, body } => {
                let reply = match self.register(client, &name, &body) {
                    Ok(query) => Reply::Registered { name, query },
                    Err(e) => Reply::Error {
                        message: e.to_string(),
                    },
                };
                if let Some(state) = self.clients.get(&client) {
                    state.outbox.push_control(&reply);
                }
            }
            Request::Drop { name } => {
                let reply = match self.drop_query(client, &name) {
                    Ok(()) => Reply::Dropped { name },
                    Err(e) => Reply::Error {
                        message: e.to_string(),
                    },
                };
                if let Some(state) = self.clients.get(&client) {
                    state.outbox.push_control(&reply);
                }
            }
            Request::Push { source, tuple } => {
                if let Err(e) = self.session.push(source, tuple) {
                    self.reply_error(client, e);
                }
            }
            Request::PushBatch { events } => {
                if let Err(e) = self.session.push_batch(&events) {
                    self.reply_error(client, e);
                }
            }
            Request::Flush => {
                if let Err(e) = self.session.flush() {
                    self.reply_error(client, e);
                    return;
                }
                self.deliver();
                if let Some(state) = self.clients.get(&client) {
                    let shed = state.outbox.take_unreported_shed();
                    if shed > 0 {
                        state.outbox.push_control(&Reply::Shed { dropped: shed });
                    }
                    state.outbox.push_control(&Reply::Flushed);
                }
            }
            Request::Stats => {
                let reply = match self.stats_json() {
                    Ok(json) => Reply::StatsJson { json },
                    Err(e) => Reply::Error {
                        message: e.to_string(),
                    },
                };
                if let Some(state) = self.clients.get(&client) {
                    state.outbox.push_control(&reply);
                }
            }
            Request::Explain => {
                let reply = match self.session.explain() {
                    Ok(text) => Reply::ExplainText { text },
                    Err(e) => Reply::Error {
                        message: e.to_string(),
                    },
                };
                if let Some(state) = self.clients.get(&client) {
                    state.outbox.push_control(&reply);
                }
            }
            Request::Bye => self.remove_client(client, true),
        }
    }

    fn reply_error(&self, client: u64, e: RumorError) {
        if let Some(state) = self.clients.get(&client) {
            state.outbox.push_control(&Reply::Error {
                message: e.to_string(),
            });
        }
    }

    /// Registers `name AS body` for `client` through the live integrate
    /// path, hot-swaps the session, and subscribes.
    fn register(&mut self, client: u64, name: &str, body: &str) -> Result<QueryId> {
        validate_identifier(name)?;
        // The body is spliced into a script; a statement separator inside
        // it could smuggle extra statements past per-client accounting.
        if body.contains(';') {
            return Err(RumorError::io(
                "query body must not contain ';' (single statement per REGISTER)",
            ));
        }
        let state = self
            .clients
            .get(&client)
            .ok_or_else(|| RumorError::unknown(format!("client {client}")))?;
        if state.queries.contains_key(name) {
            return Err(RumorError::schema(format!(
                "query `{name}` already registered on this connection"
            )));
        }
        // Engine-side names must be globally unique and survive a client
        // re-registering a name it dropped earlier, so a monotonic
        // sequence number joins the client id in the internal name.
        let seq = self.next_query_seq;
        self.next_query_seq += 1;
        let internal = format!("__c{client}_{seq}_{name}");
        let qids = self
            .engine
            .execute(&format!("QUERY {internal} AS {body};"))?;
        debug_assert_eq!(qids.len(), 1, "single-statement script");
        let qid = qids[0];
        if let Err(e) = self.session.update_plan(self.engine.plan()) {
            // The session refused the swap (e.g. live keyed state would be
            // re-routed). Roll the registration back so engine and session
            // stay consistent, and surface the refusal to the client.
            let _ = self.engine.remove_query(qid);
            let _ = self.session.update_plan(self.engine.plan());
            return Err(e);
        }
        let sub = self.session.subscribe(qid);
        let state = self.clients.get_mut(&client).expect("present above");
        state.queries.insert(name.to_string(), qid);
        state.subs.push((qid, sub));
        Ok(qid)
    }

    fn drop_query(&mut self, client: u64, name: &str) -> Result<()> {
        let state = self
            .clients
            .get_mut(&client)
            .ok_or_else(|| RumorError::unknown(format!("client {client}")))?;
        let qid = state
            .queries
            .remove(name)
            .ok_or_else(|| RumorError::unknown(format!("query `{name}`")))?;
        // Deliver anything the query produced before it disappears.
        if let Some(idx) = state.subs.iter().position(|(q, _)| *q == qid) {
            let (_, mut sub) = state.subs.remove(idx);
            let mut bundle = state.outbox.bundle();
            bundle.add(qid, &sub.drain());
            bundle.send();
        }
        self.engine.remove_query(qid)?;
        self.session.update_plan(self.engine.plan())
    }

    /// One delivery pass: drains every subscription and hands each client
    /// everything it earned as one outbox entry.
    fn deliver(&mut self) {
        for state in self.clients.values_mut() {
            state.deliver();
        }
        self.undelivered = false;
    }

    /// `{"server": {...}, "session": <snapshot JSON>}` — the envelope
    /// follows the hand-rolled JSON conventions of `rumor_engine::stats`.
    fn stats_json(&mut self) -> Result<String> {
        let snapshot = self.session.stats()?;
        let registered: usize = self.clients.values().map(|c| c.queries.len()).sum();
        let (mut shed, mut frames, mut writes) = (0, 0, 0);
        for c in self.clients.values().map(|c| c.outbox.counters()) {
            shed += c.shed;
            frames += c.result_frames;
            writes += c.socket_writes;
        }
        Ok(format!(
            "{{\"server\": {{\"clients\": {}, \"registered_queries\": {}, \"shed_results\": {shed}, \"result_frames\": {frames}, \"socket_writes\": {writes}}}, \"session\": {}}}",
            self.clients.len(),
            registered,
            snapshot.to_json()
        ))
    }

    /// Tears a client down: drains its pending results, removes its
    /// queries from the shared plan, optionally says goodbye, and closes
    /// the outbox so the writer drains and exits.
    fn remove_client(&mut self, client: u64, graceful: bool) {
        let Some(mut state) = self.clients.remove(&client) else {
            return;
        };
        if graceful {
            // A BYE must not lose results already earned: barrier, then
            // deliver this client's subscriptions one last time.
            let _ = self.session.flush();
        }
        if graceful {
            state.deliver();
        }
        state.subs.clear();
        let mut plan_dirty = false;
        for (_, qid) in state.queries.drain() {
            if self.engine.remove_query(qid).is_ok() {
                plan_dirty = true;
            }
        }
        if plan_dirty {
            let _ = self.session.update_plan(self.engine.plan());
        }
        if graceful {
            let shed = state.outbox.take_unreported_shed();
            if shed > 0 {
                state.outbox.push_control(&Reply::Shed { dropped: shed });
            }
            state.outbox.push_control(&Reply::Goodbye);
        }
        state.outbox.close();
    }

    /// Graceful drain on shutdown: flush barrier, final delivery, then a
    /// `GOODBYE` and outbox close for every remaining client. Writers
    /// finish sending everything queued before their sockets close, so
    /// no buffered result is lost.
    fn drain_and_close(&mut self) {
        let _ = self.session.flush();
        self.deliver();
        let _ = self.session.finish();
        self.deliver();
        for state in self.clients.values() {
            let shed = state.outbox.take_unreported_shed();
            if shed > 0 {
                state.outbox.push_control(&Reply::Shed { dropped: shed });
            }
            state.outbox.push_control(&Reply::Goodbye);
            state.outbox.close();
        }
        self.clients.clear();
    }
}

fn validate_identifier(name: &str) -> Result<()> {
    let mut chars = name.chars();
    let ok = match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(RumorError::io(format!(
            "invalid query name `{name}`: expected an identifier"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifier_validation() {
        assert!(validate_identifier("watch_1").is_ok());
        assert!(validate_identifier("_x").is_ok());
        assert!(validate_identifier("").is_err());
        assert!(validate_identifier("1abc").is_err());
        assert!(validate_identifier("a b").is_err());
        assert!(validate_identifier("x;DROP").is_err());
    }
}
