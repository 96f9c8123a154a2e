//! A small blocking client for the serve protocol.
//!
//! One [`Client`] wraps one TCP connection and reuses its request/response
//! buffers, so a tight request loop (the load generator, the conformance
//! harness) allocates only on mask materialisation. All methods send one
//! frame and block for one response frame; server-side typed errors come
//! back as [`ClientError::Wire`].

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use pacds_core::CdsConfig;

use crate::frame::read_frame;
use crate::protocol::{
    self, decode_cds_result, decode_error, decode_graph_opened, decode_mutate_result,
    decode_stats_result, decode_tile_result, CdsResult, DecodeError, FlipEvent, GenComputeRequest,
    GraphOpened, MutateResult, ResponseKind, StatsDelta, StatsFormat, StatsResult, SubscribeAck,
    TileResult, WireError, WireEvent, LEN_PREFIX, PROTOCOL_VERSION,
};

/// One frame pushed by the server to a subscribed connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Push {
    /// A periodic stats window ([`crate::protocol::SUB_STATS`]).
    Stats(StatsDelta),
    /// A per-refresh gateway-flip event ([`crate::protocol::SUB_FLIPS`]).
    Flip(FlipEvent),
}

/// Client-side failure.
///
/// The variants split along the axis a caller actually routes on:
/// [`ConnectionLost`](ClientError::ConnectionLost) means *the backend is
/// gone* (retry elsewhere, or just issue the next request — the client
/// reconnects once on its own); `Decode`/`Unexpected` mean *the peer
/// violated the protocol* (retrying the same bytes cannot help); `Wire` is
/// the server speaking — a typed, in-protocol error.
#[derive(Debug)]
pub enum ClientError {
    /// The connection died under the request: the socket failed mid-write
    /// or mid-read (includes the server dropping a connection after a
    /// fatal protocol error, and backpressure REJECTED closes). The client
    /// is now stale; the next request transparently reconnects once.
    ConnectionLost(io::Error),
    /// Other socket-level failure (not tied to a dead connection).
    Io(io::Error),
    /// The server's response bytes failed to parse: a protocol violation,
    /// never cured by reconnecting and resending.
    Decode(DecodeError),
    /// The server answered with a typed error frame.
    Wire(WireError),
    /// The server answered with an unexpected (but valid) response kind.
    Unexpected(u8),
}

impl ClientError {
    /// Whether this failure means "backend gone" (a reconnect — to this
    /// backend or another — may succeed) rather than a protocol violation
    /// or an in-protocol server answer.
    pub fn is_connection_lost(&self) -> bool {
        matches!(self, ClientError::ConnectionLost(_))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::ConnectionLost(e) => write!(f, "connection lost: {e}"),
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Decode(e) => write!(f, "bad response: {e}"),
            ClientError::Wire(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected(k) => write!(f, "unexpected response kind {k:#04x}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// A blocking protocol client over one connection.
///
/// The client remembers its resolved address. When a request dies with
/// [`ClientError::ConnectionLost`] the client marks itself **stale**, and
/// the *next* request transparently re-dials once before sending — so a
/// loop that just keeps issuing requests rides out a backend restart with
/// exactly one surfaced error, no connection babysitting. A reconnect
/// failure surfaces as `ConnectionLost` again (and the client stays
/// stale); protocol violations never trigger a resend.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: TcpStream,
    req: Vec<u8>,
    resp: Vec<u8>,
    stale: bool,
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(Self {
            addr,
            conn,
            req: Vec::new(),
            resp: Vec::new(),
            stale: false,
            read_timeout: None,
        })
    }

    /// Sets (or clears) the socket read timeout, e.g. for liveness tests.
    /// Reapplied automatically after a reconnect.
    pub fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.read_timeout = dur;
        self.conn.set_read_timeout(dur)
    }

    /// The resolved server address this client (re)connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the connection is known dead; the next request will re-dial
    /// once before sending.
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// Drops the current socket and dials the remembered address again.
    /// Called implicitly by the next request after a
    /// [`ClientError::ConnectionLost`]; public for callers that want to
    /// re-establish eagerly (e.g. a pool health-checking an idle slot).
    pub fn reconnect(&mut self) -> io::Result<()> {
        let conn = TcpStream::connect(self.addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(self.read_timeout)?;
        self.conn = conn;
        self.stale = false;
        Ok(())
    }

    /// Computes the gateway set of an explicit topology.
    pub fn compute_cds(
        &mut self,
        cfg: &CdsConfig,
        n: u32,
        edges: &[(u32, u32)],
        energy: Option<&[u64]>,
        flags: u8,
        deadline_ms: u32,
    ) -> Result<CdsResult, ClientError> {
        protocol::encode_compute_cds(&mut self.req, flags, deadline_ms, cfg, n, edges, energy);
        self.call(ResponseKind::CdsResult, decode_cds_result)
    }

    /// Asks the server to generate a topology and compute on it.
    pub fn gen_compute(&mut self, req: &GenComputeRequest) -> Result<CdsResult, ClientError> {
        req.encode(&mut self.req);
        self.call(ResponseKind::CdsResult, decode_cds_result)
    }

    /// Fetches server statistics.
    pub fn stats(&mut self, format: StatsFormat) -> Result<StatsResult, ClientError> {
        protocol::encode_stats_request(&mut self.req, format);
        self.call(ResponseKind::StatsResult, decode_stats_result)
    }

    /// The cheap health probe: counters only ([`StatsFormat::Health`]),
    /// no obs snapshot rendering on the server.
    pub fn health(&mut self) -> Result<StatsResult, ClientError> {
        self.stats(StatsFormat::Health)
    }

    /// Opens a persistent named graph for mutation.
    #[allow(clippy::too_many_arguments)]
    pub fn open_graph(
        &mut self,
        name: &str,
        cfg: &CdsConfig,
        shards: u32,
        radius: f64,
        bounds: (f64, f64, f64, f64),
        points: &[(f64, f64)],
        energy: &[u64],
    ) -> Result<GraphOpened, ClientError> {
        protocol::encode_open_graph(
            &mut self.req,
            name,
            cfg,
            shards,
            radius,
            bounds,
            points,
            energy,
        );
        self.call(ResponseKind::GraphOpened, decode_graph_opened)
    }

    /// Applies a batch of mutation events to an open graph.
    pub fn mutate(
        &mut self,
        name: &str,
        events: &[WireEvent],
    ) -> Result<MutateResult, ClientError> {
        protocol::encode_mutate(&mut self.req, name, events);
        self.call(ResponseKind::MutateResult, decode_mutate_result)
    }

    /// Closes (forgets) an open graph.
    pub fn close_graph(&mut self, name: &str) -> Result<(), ClientError> {
        protocol::encode_close_graph(&mut self.req, name);
        self.call(ResponseKind::GraphClosed, |_| Ok(()))
    }

    /// Fetches one tile's per-node verdicts from an open graph.
    pub fn query_tile(&mut self, name: &str, tile: u32) -> Result<TileResult, ClientError> {
        protocol::encode_query_tile(&mut self.req, name, tile);
        self.call(ResponseKind::TileResult, decode_tile_result)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        protocol::encode_ping(&mut self.req);
        self.call(ResponseKind::Pong, |_| Ok(()))
    }

    /// Flips this connection into push mode: subscribes to periodic stats
    /// windows and/or gateway-flip events (see the `SUB_*` flags). After
    /// the ack, the connection only carries server pushes — drain them
    /// with [`next_push`](Client::next_push).
    pub fn subscribe(
        &mut self,
        flags: u8,
        interval_ms: u32,
        graph: Option<&str>,
    ) -> Result<SubscribeAck, ClientError> {
        protocol::encode_subscribe(&mut self.req, flags, interval_ms, graph);
        self.call(ResponseKind::SubscribeAck, protocol::decode_subscribe_ack)
    }

    /// Blocks for the next pushed frame on a subscribed connection. A
    /// server-side retirement (e.g. [`ErrorCode::SubscriberLagged`]
    /// (crate::protocol::ErrorCode::SubscriberLagged)) surfaces as
    /// [`ClientError::Wire`]; a clean close as [`ClientError::Io`].
    pub fn next_push(&mut self) -> Result<Push, ClientError> {
        let payload = self.read_frame()?;
        match ResponseKind::from_wire(payload[1]) {
            Some(ResponseKind::StatsDelta) => {
                Ok(Push::Stats(protocol::decode_stats_delta(&payload[2..])?))
            }
            Some(ResponseKind::FlipEvent) => {
                Ok(Push::Flip(protocol::decode_flip_event(&payload[2..])?))
            }
            Some(ResponseKind::Error) => Err(ClientError::Wire(decode_error(&payload[2..])?)),
            _ => Err(ClientError::Unexpected(payload[1])),
        }
    }

    /// Sends `self.req` and decodes the `want` response with `decode`; an
    /// Error frame becomes [`ClientError::Wire`].
    fn call<T>(
        &mut self,
        want: ResponseKind,
        decode: impl FnOnce(&[u8]) -> Result<T, DecodeError>,
    ) -> Result<T, ClientError> {
        let payload = self.round_trip()?;
        match ResponseKind::from_wire(payload[1]) {
            Some(ResponseKind::Error) => Err(ClientError::Wire(decode_error(&payload[2..])?)),
            Some(kind) if kind == want => Ok(decode(&payload[2..])?),
            _ => Err(ClientError::Unexpected(payload[1])),
        }
    }

    /// Sends `self.req` (a complete frame) and reads one response frame,
    /// returning its payload. Reused buffers; no allocation at steady
    /// state once the buffers reach their high-water marks. If the client
    /// is stale from a previous `ConnectionLost`, re-dials once first.
    fn round_trip(&mut self) -> Result<&[u8], ClientError> {
        if self.stale {
            self.reconnect().map_err(ClientError::ConnectionLost)?;
        }
        if let Err(e) = self.conn.write_all(&self.req) {
            self.stale = true;
            return Err(ClientError::ConnectionLost(e));
        }
        self.read_frame()
    }

    /// Reads one frame into the retained response buffer and returns its
    /// payload (version byte included). Any failure here poisons the
    /// connection (a short read leaves the stream mid-frame; a framing
    /// violation leaves it unsynchronised), so all errors mark the client
    /// stale — but only socket deaths are typed `ConnectionLost`.
    fn read_frame(&mut self) -> Result<&[u8], ClientError> {
        let read = read_frame(&self.conn, &mut self.resp, None);
        let payload = self.resp.get(LEN_PREFIX..).unwrap_or_default();
        let bad_length = ClientError::Decode(DecodeError::Bad("response length"));
        let err = match read {
            Err(e) if e.kind() == io::ErrorKind::InvalidData => bad_length,
            Err(e) => ClientError::ConnectionLost(e),
            Ok(()) if payload.len() < 2 => bad_length,
            Ok(()) if payload[0] != PROTOCOL_VERSION => {
                ClientError::Decode(DecodeError::Bad("response version"))
            }
            Ok(()) => return Ok(payload),
        };
        self.stale = true;
        Err(err)
    }

    /// Sends raw pre-encoded bytes (tests exercising malformed frames) and
    /// reads one response payload.
    pub fn send_raw(&mut self, frame: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.req.clear();
        self.req.extend_from_slice(frame);
        Ok(self.round_trip()?.to_vec())
    }
}
