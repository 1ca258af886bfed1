//! Shutdown coordination: how a running server stops without losing
//! buffered results.
//!
//! The drain protocol, in order:
//!
//! 1. `Lifecycle::request_stop` flips the stop flag, then dials the
//!    server's own listening address once. The accept loop blocks in
//!    `TcpListener::accept`; the self-connection wakes it, it observes
//!    the flag and exits without handing the connection to a reader —
//!    **no new clients are admitted from this point**.
//! 2. `Lifecycle::quiesce_readers` shuts down the *read* half of every
//!    live connection. That wakes a reader parked in `read`, but bytes a
//!    client has already delivered to the socket are still returned
//!    first: each reader decodes and enqueues what is there without
//!    blocking for more, then sees EOF, recognises it as the drain
//!    (stop flag set — no `Disconnect`, the client keeps its results)
//!    and exits. Joining the reader is its acknowledgement.
//! 3. Only then does the server send `Command::Shutdown` down the (still
//!    live) command queue, so it sits behind every push, register and
//!    flush a client had sent before the stop — shutdown neither jumps
//!    the admission queue nor races requests still sitting in a socket.
//! 4. The ingest thread runs its drain: a `flush` barrier, a final
//!    delivery pass, `finish`, one more pass, then a `GOODBYE` frame
//!    and an outbox close per client ([`crate::ingest`]).
//! 5. Each writer thread drains its outbox to the socket — every
//!    buffered `RESULTS` frame is written before the `GOODBYE` — then
//!    shuts the socket down.
//! 6. `Lifecycle::join_writers` joins every writer thread.
//!
//! The result: a client that connects, pushes, and then sees the server
//! shut down still receives every result the engine produced for it,
//! finished off by a `GOODBYE`, and then a clean EOF.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// A live connection's reader: its socket, to end its input at
/// shutdown, and its thread, to wait for.
type Reader = (Arc<TcpStream>, JoinHandle<()>);

/// Shared stop flag plus the registry of per-connection threads.
#[derive(Clone)]
pub(crate) struct Lifecycle {
    stop: Arc<AtomicBool>,
    readers: Arc<Mutex<HashMap<u64, Reader>>>,
    writers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Lifecycle {
    pub(crate) fn new() -> Self {
        Lifecycle {
            stop: Arc::new(AtomicBool::new(false)),
            readers: Arc::default(),
            writers: Arc::default(),
        }
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Step 1 of the drain: stop admitting and wake the accept loop.
    pub(crate) fn request_stop(&self, addr: SocketAddr) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept; the connection is discarded on sight.
        if let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
            drop(stream);
        }
    }

    /// The readers still running, by client id. The accept loop holds
    /// this lock across spawn + insert; a reader removes its own entry as
    /// its last act, so a closed connection's socket is not kept open
    /// until shutdown.
    pub(crate) fn readers(&self) -> MutexGuard<'_, HashMap<u64, Reader>> {
        self.readers.lock().expect("lifecycle lock poisoned")
    }

    /// Registers a writer thread for the final join.
    pub(crate) fn adopt_writer(&self, handle: JoinHandle<()>) {
        self.writers
            .lock()
            .expect("lifecycle lock poisoned")
            .push(handle);
    }

    /// Step 2 of the drain: end every live reader's input and wait until
    /// each has enqueued what its socket already held.
    pub(crate) fn quiesce_readers(&self) {
        let live: Vec<Reader> = self.readers().drain().map(|(_, r)| r).collect();
        for (stream, _) in &live {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, handle) in live {
            let _ = handle.join();
        }
    }

    /// Step 6 of the drain: wait for every writer thread.
    pub(crate) fn join_writers(&self) {
        let handles = std::mem::take(&mut *self.writers.lock().expect("lifecycle lock poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}
