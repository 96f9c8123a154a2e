//! The frame server `pacds-serve` and the `pacds-cluster` coordinator
//! both run, and the one length-prefixed frame reader.
//!
//! * **Threads.** One acceptor feeds accepted connections into a
//!   **bounded** `sync_channel`; each worker owns a [`Handler`] (the
//!   service's retained scratch) plus retained request/response buffers,
//!   and serves every frame of a connection before taking the next.
//!   Connection-per-worker keeps a client's requests ordered and its
//!   worker's scratch hot. A frame costs one prefix read, one payload read
//!   and one `write_all`.
//! * **Backpressure.** A full queue is answered at once with a
//!   pre-encoded `Rejected` frame and the connection is dropped — a typed
//!   "try later", never an unbounded queue or a silent stall. The depth is
//!   `queue` (0 = `4 × workers`).
//! * **Shutdown.** [`FrameServer::shutdown`] sets a flag and nudges the
//!   listeners awake. The acceptor stops; workers **drain**: queued
//!   connections are still served, a frame whose first byte has arrived is
//!   answered, and connections close at the next frame boundary. The flag
//!   is checked between frames and polled while a connection is idle, so
//!   neither a keep-alive nor a continuously streaming peer holds the
//!   server open.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{encode_error, ErrorCode, DEFAULT_MAX_FRAME_LEN, LEN_PREFIX};

/// How often a blocked worker or idle connection re-checks the shutdown
/// flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Socket write timeout on handed-off push connections: a stalled
/// subscriber's TCP buffer fills, the write times out, and the subscriber
/// is retired — it can never wedge its push thread.
pub const PUSH_WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// What the connection loop does after a [`Handler`] answered a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Write the response; keep serving the connection.
    KeepOpen,
    /// Write the response, then close (framing lost, or the peer behind
    /// the answer is closing its end).
    CloseAfterReply,
    /// The handler took the connection over (a push stream); the loop
    /// writes nothing and releases the worker.
    HandedOff,
}

/// One worker's per-frame logic and retained scratch.
pub trait Handler: Send + 'static {
    /// Answers one request `frame` (length prefix included) by filling
    /// `resp` with one complete response frame. `conn` is the client
    /// connection, for a handler that hands it off ([`hand_off`]).
    fn handle(&mut self, frame: &[u8], resp: &mut Vec<u8>, conn: &TcpStream) -> Outcome;
}

/// Writes the acknowledgement `ack` on `conn`, then runs `push` on a
/// thread named `name` with its own handle to the connection, write
/// timeout [`PUSH_WRITE_TIMEOUT`] set. The handler then returns
/// [`Outcome::HandedOff`].
pub fn hand_off(
    conn: &TcpStream,
    ack: &[u8],
    name: String,
    push: impl FnOnce(TcpStream) + Send + 'static,
) -> io::Result<()> {
    (&*conn).write_all(ack)?;
    let conn = conn.try_clone()?;
    conn.set_write_timeout(Some(PUSH_WRITE_TIMEOUT))?;
    std::thread::Builder::new()
        .name(name)
        .spawn(move || push(conn))?;
    Ok(())
}

/// What the frame server reports back to the service it runs.
pub trait Service: Send + Sync + 'static {
    /// Thread-name prefix: `{NAME}-accept`, `{NAME}-{i}`.
    const NAME: &'static str;
    /// Message carried by the `Rejected` frame a full queue answers.
    const BUSY: &'static str;
    /// A connection was refused with `Rejected` (queue full).
    fn rejected(&self);
    /// A frame declared a length over [`DEFAULT_MAX_FRAME_LEN`]; it was
    /// answered `Oversized` and the connection closed.
    fn oversized(&self);
    /// The accept-queue fill gauge, for a service that reports one.
    fn queue_depth(&self) -> Option<&AtomicU64> {
        None
    }
}

/// Reads one length-prefixed frame into `buf`, **prefix retained** so it
/// can be forwarded verbatim. A declared length over
/// [`DEFAULT_MAX_FRAME_LEN`] fails with `InvalidData` and leaves the
/// payload unread (the stream is then unsynchronised).
///
/// With `stop`, read timeouts are poll ticks: the read waits them out, but
/// once the flag is set a tick before the frame's first byte fails the
/// read (shutdown while idle); a begun frame drains. Without `stop`, a
/// read timeout fails the read: the socket's timeout bounds the wait.
pub fn read_frame(
    mut conn: impl Read,
    buf: &mut Vec<u8>,
    stop: Option<&AtomicBool>,
) -> io::Result<()> {
    let mut prefix = [0u8; LEN_PREFIX];
    fill(&mut conn, &mut prefix, stop, true)?;
    let len = u32::from_le_bytes(prefix);
    if len > DEFAULT_MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds maximum length",
        ));
    }
    buf.clear();
    buf.extend_from_slice(&prefix);
    buf.resize(LEN_PREFIX + len as usize, 0);
    fill(&mut conn, &mut buf[LEN_PREFIX..], stop, false)
}

/// Fills `out`; `idle` marks the read of a frame's first bytes.
fn fill(
    conn: &mut impl Read,
    out: &mut [u8],
    stop: Option<&AtomicBool>,
    idle: bool,
) -> io::Result<()> {
    let mut got = 0usize;
    while got < out.len() {
        // With a stop flag a timeout is a poll tick: keep waiting, unless
        // shutdown came before the frame's first byte.
        let keep_waiting = |s: &AtomicBool| got > 0 || !idle || !s.load(Ordering::SeqCst);
        match conn.read(&mut out[got..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && stop.is_some_and(keep_waiting) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A running frame server. Dropping it (or calling
/// [`shutdown`](FrameServer::shutdown)) stops it.
#[derive(Debug)]
pub struct FrameServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Listener addresses to nudge awake on shutdown (ours first).
    wake: Vec<SocketAddr>,
    /// The acceptor, the workers, then auxiliary threads.
    threads: Vec<JoinHandle<()>>,
}

impl FrameServer {
    /// Serves `listener` with `workers` handlers built by `make` (given
    /// the stop flag) behind a connection queue of depth `queue`.
    pub fn spawn<S: Service, H: Handler>(
        listener: TcpListener,
        service: &Arc<S>,
        workers: usize,
        queue: usize,
        mut make: impl FnMut(&Arc<AtomicBool>) -> H,
    ) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let queue = if queue == 0 { workers * 4 } else { queue };
        let (tx, rx) = sync_channel::<TcpStream>(queue);
        let rx = Arc::new(Mutex::new(rx));
        let mut server = Self {
            addr,
            stop: Arc::new(AtomicBool::new(false)),
            wake: vec![addr],
            threads: Vec::new(),
        };
        let svc = Arc::clone(service);
        server.spawn_aux(format!("{}-accept", S::NAME), None, move |stop| {
            accept_loop(&listener, &tx, &*svc, stop)
        })?;
        for i in 0..workers {
            let (rx, service) = (Arc::clone(&rx), Arc::clone(service));
            let handler = make(&server.stop);
            server.spawn_aux(format!("{}-{i}", S::NAME), None, move |stop| {
                worker_loop(&rx, &*service, handler, stop)
            })?;
        }
        Ok(server)
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs `body` on a thread that [`shutdown`](Self::shutdown) joins;
    /// `body` returns once the stop flag is set. A `body` blocked in
    /// `accept` names its listener as `wake`, to be nudged awake.
    /// (The acceptor and the workers are such threads too.)
    pub fn spawn_aux(
        &mut self,
        name: String,
        wake: Option<SocketAddr>,
        body: impl FnOnce(&AtomicBool) + Send + 'static,
    ) -> io::Result<()> {
        let stop = Arc::clone(&self.stop);
        self.threads.push(
            std::thread::Builder::new()
                .name(name)
                .spawn(move || body(&stop))?,
        );
        self.wake.extend(wake);
        Ok(())
    }

    /// Stops accepting, drains queued and in-flight work, joins all
    /// threads. Idempotent. (Detached push threads observe the flag within
    /// one poll interval and exit on their own.)
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Nudge blocking accept() calls awake; they observe the flag.
        for addr in &self.wake {
            let _ = TcpStream::connect(addr);
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Queues accepted connections until shutdown; a full queue gets the
/// pre-encoded `Rejected` reply. Returning drops the sender, so workers
/// drain the queue, then exit.
fn accept_loop<S: Service>(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    service: &S,
    stop: &AtomicBool,
) {
    let mut busy = Vec::new();
    encode_error(&mut busy, ErrorCode::Rejected, S::BUSY);
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(conn) = conn else { continue };
        match tx.try_send(conn) {
            Ok(()) => {
                if let Some(depth) = service.queue_depth() {
                    depth.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(TrySendError::Full(mut conn)) => {
                service.rejected();
                let _ = conn.write_all(&busy);
                let _ = conn.flush();
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

fn worker_loop<S: Service, H: Handler>(
    rx: &Mutex<Receiver<TcpStream>>,
    service: &S,
    mut handler: H,
    stop: &AtomicBool,
) {
    let mut frame = Vec::new();
    let mut resp = Vec::new();
    loop {
        // Hold the receiver lock only long enough to take one connection.
        let conn = {
            let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv_timeout(POLL_INTERVAL)
        };
        match conn {
            Ok(conn) => {
                if let Some(depth) = service.queue_depth() {
                    depth.fetch_sub(1, Ordering::Relaxed);
                }
                serve_connection(conn, service, &mut handler, &mut frame, &mut resp, stop);
            }
            // Idle tick; during shutdown the sender is dropped, so the
            // next recv on the drained queue returns Disconnected.
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves frames on one connection until the client closes, the framing
/// breaks, shutdown is seen between frames, or the handler takes over.
fn serve_connection<S: Service, H: Handler>(
    conn: TcpStream,
    service: &S,
    handler: &mut H,
    frame: &mut Vec<u8>,
    resp: &mut Vec<u8>,
    stop: &AtomicBool,
) {
    let _ = conn.set_nodelay(true);
    let _ = conn.set_read_timeout(Some(POLL_INTERVAL));
    loop {
        match read_frame(&conn, frame, Some(stop)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // The declared length is unreadable garbage or an attack;
                // answer typed, then drop (framing cannot be recovered).
                service.oversized();
                encode_error(resp, ErrorCode::Oversized, "frame exceeds maximum length");
                let _ = (&conn).write_all(resp);
                return;
            }
            Err(_) => return,
        }
        let outcome = handler.handle(frame, resp, &conn);
        if outcome == Outcome::HandedOff || (&conn).write_all(resp).is_err() {
            return;
        }
        // A continuously streaming peer (a pooled relay, a prober) is never
        // idle, so `read_frame`'s idle check alone would let it pin this
        // worker past `shutdown()`.
        if outcome == Outcome::CloseAfterReply || stop.load(Ordering::SeqCst) {
            return;
        }
    }
}
