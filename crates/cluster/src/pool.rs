//! Per-backend bounded connection pools with byte-for-byte frame relay.
//!
//! The coordinator never re-encodes: a request frame is forwarded to the
//! backend exactly as received, and the backend's response frame is
//! returned exactly as sent (length prefix included), so every protocol
//! property — cache-hit flags, typed errors, versioning — passes through
//! untouched. Cache coherence survives proxying because the backends key
//! on canonical *content* (`pacds_serve::keys`), not wire bytes.
//!
//! Pooling is deliberately simple: at most `max_idle` idle sockets are
//! retained per backend (extras are closed on check-in), and a relay
//! failure on a *pooled* socket is retried once on a freshly dialed one —
//! idle connections go stale whenever a backend restarts, and that
//! staleness must not masquerade as a dead backend. Only a fresh dial's
//! verdict escalates to the caller.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use pacds_serve::frame::read_frame;
use pacds_serve::protocol::{response_is_fatal_error, LEN_PREFIX};

/// A bounded pool of connections to one backend.
#[derive(Debug)]
pub struct ConnPool {
    addr: String,
    idle: Mutex<Vec<TcpStream>>,
    max_idle: usize,
    connect_timeout: Duration,
    /// Per-read socket timeout while awaiting a backend response; bounds
    /// how long a wedged (not dead) backend can pin a coordinator worker.
    relay_timeout: Option<Duration>,
}

impl ConnPool {
    /// A pool dialing `addr`.
    pub fn new(
        addr: String,
        max_idle: usize,
        connect_timeout: Duration,
        relay_timeout: Option<Duration>,
    ) -> Self {
        Self {
            addr,
            idle: Mutex::new(Vec::new()),
            max_idle,
            connect_timeout,
            relay_timeout,
        }
    }

    /// The backend address this pool dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn resolve(&self) -> io::Result<SocketAddr> {
        self.addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))
    }

    /// Dials a fresh connection (also used directly for Subscribe relays,
    /// which own their socket for the subscription's lifetime and never
    /// return it to the pool).
    pub fn dial(&self) -> io::Result<TcpStream> {
        let conn = TcpStream::connect_timeout(&self.resolve()?, self.connect_timeout)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(self.relay_timeout)?;
        Ok(conn)
    }

    fn pop_idle(&self) -> Option<TcpStream> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    fn put_idle(&self, conn: TcpStream) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if idle.len() < self.max_idle {
            idle.push(conn);
        }
        // Over the bound: drop — the socket closes, the backend reaps it.
    }

    /// Closes all idle connections (called when the backend flips down, so
    /// a recovery starts from fresh sockets instead of a graveyard).
    pub fn clear_idle(&self) {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Forwards one complete request frame and reads one complete response
    /// frame into `resp` (length prefix included, relayable verbatim).
    ///
    /// A failure on a pooled socket falls through to one fresh dial; a
    /// failure on the fresh socket is the backend's answer and surfaces as
    /// the error. On success the socket is pooled again — unless the
    /// response is a connection-fatal error frame, after which the backend
    /// closes its end.
    pub fn round_trip(&self, frame: &[u8], resp: &mut Vec<u8>) -> io::Result<()> {
        if let Some(mut conn) = self.pop_idle() {
            if self.relay(&mut conn, frame, resp).is_ok() {
                self.maybe_reuse(conn, resp);
                return Ok(());
            }
        }
        let mut conn = self.dial()?;
        self.relay(&mut conn, frame, resp)?;
        self.maybe_reuse(conn, resp);
        Ok(())
    }

    /// One write + one framed read on an established connection. A
    /// response that breaks framing is treated like a dead backend by the
    /// caller (fail over), which is safe — the request is simply
    /// re-answered by a sane one.
    fn relay(&self, conn: &mut TcpStream, frame: &[u8], resp: &mut Vec<u8>) -> io::Result<()> {
        conn.write_all(frame)?;
        read_frame(&*conn, resp, None)?;
        if resp.len() < LEN_PREFIX + 2 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "backend response shorter than a header",
            ));
        }
        Ok(())
    }

    /// A backend closes its end after a connection-fatal error, so such a
    /// socket is not pooled.
    fn maybe_reuse(&self, conn: TcpStream, resp: &[u8]) {
        if !response_is_fatal_error(resp) {
            self.put_idle(conn);
        }
    }
}
