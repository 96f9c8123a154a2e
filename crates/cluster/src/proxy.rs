//! The coordinator proxy: request classification, routing, and relay.
//!
//! The coordinator *is* a protocol server — it just answers most frames
//! by asking someone else — so it runs on the same frame server as a
//! backend ([`pacds_serve::frame`]: acceptor, bounded queue with a typed
//! `Rejected` reply, worker pool, drain on shutdown). This module
//! supplies the per-frame handler, the health prober, and the subscribe
//! pump.
//!
//! Per frame kind:
//!
//! * `ComputeCds` / `GenCompute` — decoded just far enough to derive the
//!   canonical request digest (`pacds_serve::keys`), then relayed verbatim
//!   to the ring owner. The digest is the backends' cache key, so the ring
//!   and the backend LRUs agree by construction.
//! * `OpenGraph` / `Mutate` / `CloseGraph` / `QueryTile` — routed by the
//!   graph-*name* digest: a named graph and all frames touching it pin to
//!   one backend for the graph's lifetime.
//! * `Subscribe` — pinned like the other stateful frames (stats-only
//!   subscriptions route by a fixed key); on ack the connection pair is
//!   handed to a dedicated relay thread that pumps backend pushes to the
//!   client byte-for-byte.
//! * `Ping` / `Stats` — answered locally: a coordinator's liveness and
//!   counters are its own, not some backend's.
//!
//! Failover is retry-once: a relay that dies on its fresh connection marks
//! the backend down, and the request is re-sent to the next distinct
//! backend clockwise — at most one such hop, then a typed `Rejected`.
//! Retrying is always safe: a backend that died took its state with it
//! (there is nothing half-applied to double-apply), and a stateful frame
//! failing over to a backend that never saw the graph gets a typed
//! `UnknownGraph` — **cold, never wrong**.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pacds_serve::frame::{
    hand_off, read_frame, FrameServer, Handler, Outcome, Service, POLL_INTERVAL,
};
use pacds_serve::keys;
use pacds_serve::protocol::{
    self, encode_error, response_is_fatal_error, ComputeCdsRequest, DecodeError, ErrorCode,
    GenComputeRequest, RequestKind, ResponseKind, StatsFormat, LEN_PREFIX,
};

use crate::health::{probe_all, Backend};
use crate::pool::ConnPool;
use crate::ring::{HashRing, DEFAULT_VNODES, MAX_BACKENDS};
use crate::{BackendSpec, ClusterStats};

/// Routing key for stats-only subscriptions (no graph name to pin by).
const SUBSCRIBE_STATS_KEY: u128 = 0;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Proxy worker threads (0 = 4).
    pub workers: usize,
    /// Accept-queue depth (0 = 4 × workers).
    pub queue: usize,
    /// Virtual nodes per backend on the ring (0 = [`DEFAULT_VNODES`]).
    pub vnodes: u32,
    /// Idle connections retained per backend pool.
    pub max_idle: usize,
    /// Backend connect timeout.
    pub connect_timeout: Duration,
    /// Per-read timeout while awaiting a backend response (None = wait
    /// forever; the health prober still reaps wedged backends).
    pub relay_timeout: Option<Duration>,
    /// Health-probe cadence.
    pub probe_interval: Duration,
    /// Consecutive failed probes before a healthy backend is marked down.
    pub fail_threshold: u32,
    /// Consecutive successful probes before a down backend is marked up.
    pub rise_threshold: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue: 0,
            vnodes: 0,
            max_idle: 2,
            connect_timeout: Duration::from_secs(2),
            relay_timeout: Some(Duration::from_secs(30)),
            probe_interval: Duration::from_millis(200),
            fail_threshold: 2,
            rise_threshold: 2,
        }
    }
}

/// Shared coordinator state.
#[derive(Debug)]
pub struct ClusterState {
    /// Configured backends, ring-member order.
    pub backends: Vec<Arc<Backend>>,
    /// The consistent-hash ring over backend ids.
    pub ring: HashRing,
    /// Always-on coordinator counters.
    pub stats: ClusterStats,
}

impl ClusterState {
    /// First available backend clockwise from `key`, skipping `exclude`.
    pub fn owner(&self, key: u128, exclude: Option<u32>) -> Option<&Arc<Backend>> {
        let idx = self
            .ring
            .owner(key, |b| self.backends[b as usize].available(), exclude)?;
        Some(&self.backends[idx as usize])
    }

    /// Starts draining the backend with `id`: it stops receiving new
    /// requests (its arcs fall to their clockwise successors), while
    /// requests already relaying on its sockets run to completion — the
    /// drain severs nothing. Returns `false` for an unknown id.
    pub fn drain(&self, id: &str) -> bool {
        let Some(b) = self.backends.iter().find(|b| b.id == id) else {
            return false;
        };
        b.set_draining(true);
        self.stats.drains.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Reverses a drain: the backend resumes exactly its old arcs (ring
    /// positions depend only on ids).
    pub fn undrain(&self, id: &str) -> bool {
        let Some(b) = self.backends.iter().find(|b| b.id == id) else {
            return false;
        };
        b.set_draining(false);
        true
    }
}

/// A running coordinator. Dropping it shuts it down.
#[derive(Debug)]
pub struct ClusterHandle {
    state: Arc<ClusterState>,
    server: FrameServer,
}

impl ClusterHandle {
    /// The bound coordinator address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Shared coordinator state (ring, backends, counters).
    pub fn state(&self) -> &Arc<ClusterState> {
        &self.state
    }

    /// Starts draining the backend with `id` — see [`ClusterState::drain`].
    pub fn drain(&self, id: &str) -> bool {
        self.state.drain(id)
    }

    /// Reverses a drain — see [`ClusterState::undrain`].
    pub fn undrain(&self, id: &str) -> bool {
        self.state.undrain(id)
    }

    /// Stops accepting, drains queued and in-flight work, joins all
    /// threads. Idempotent. (Detached subscribe-relay threads observe the
    /// flag within one poll interval and exit on their own.)
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Binds `addr` and starts coordinating `backends`. Returns once the
/// listener is live (backends may still be down: the ring starts
/// optimistic and the prober/data path converge it).
pub fn cluster(
    addr: &str,
    backends: &[BackendSpec],
    cfg: ClusterConfig,
) -> io::Result<ClusterHandle> {
    if backends.is_empty() || backends.len() > MAX_BACKENDS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cluster needs 1..=64 backends",
        ));
    }
    for (i, b) in backends.iter().enumerate() {
        if b.id.is_empty() || backends[..i].iter().any(|o| o.id == b.id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "backend ids must be non-empty and distinct",
            ));
        }
    }
    let listener = TcpListener::bind(addr)?;
    let workers = if cfg.workers == 0 { 4 } else { cfg.workers };
    let vnodes = if cfg.vnodes == 0 {
        DEFAULT_VNODES
    } else {
        cfg.vnodes
    };

    let members: Vec<Arc<Backend>> = backends
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            Arc::new(Backend::new(
                spec.id.clone(),
                spec.addr.clone(),
                i as u32,
                ConnPool::new(
                    spec.addr.clone(),
                    cfg.max_idle,
                    cfg.connect_timeout,
                    cfg.relay_timeout,
                ),
            ))
        })
        .collect();
    let ids: Vec<&str> = backends.iter().map(|b| b.id.as_str()).collect();
    let state = Arc::new(ClusterState {
        backends: members,
        ring: HashRing::build(&ids, vnodes),
        stats: ClusterStats::default(),
    });
    let mut server =
        FrameServer::spawn(listener, &state, workers, cfg.queue, |stop| ProxyWorker {
            state: Arc::clone(&state),
            stop: Arc::clone(stop),
            edges: Vec::new(),
        })?;
    let prober = Arc::clone(&state);
    let (interval, fail_t, rise_t) = (cfg.probe_interval, cfg.fail_threshold, cfg.rise_threshold);
    server.spawn_aux("pacds-cluster-probe".into(), None, move |stop| {
        let mut clients = Vec::new();
        clients.resize_with(prober.backends.len(), || None);
        while !stop.load(Ordering::SeqCst) {
            let backends = &prober.backends;
            probe_all(backends, &mut clients, fail_t, rise_t, &prober.stats);
            // Stop-aware sleep in small steps.
            let until = Instant::now() + interval;
            while Instant::now() < until && !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(25).min(interval));
            }
        }
    })?;
    Ok(ClusterHandle { state, server })
}

impl Service for ClusterState {
    const NAME: &'static str = "pacds-cluster";
    const BUSY: &'static str = "coordinator queue full; retry later";

    fn rejected(&self) {
        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
    }

    fn oversized(&self) {
        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// One proxy worker: the shared state plus its retained buffers.
struct ProxyWorker {
    state: Arc<ClusterState>,
    stop: Arc<AtomicBool>,
    /// Canonicalised edge buffer for compute-key derivation.
    edges: Vec<(u32, u32)>,
}

impl Handler for ProxyWorker {
    /// Classifies one request frame and answers it — locally, or by
    /// relaying it to the routed backend.
    fn handle(&mut self, frame: &[u8], resp: &mut Vec<u8>, conn: &TcpStream) -> Outcome {
        let state = &*self.state;
        state.stats.requests.fetch_add(1, Ordering::Relaxed);
        let route_timer = pacds_obs::phase_timer(pacds_obs::Phase::ClusterRoute);
        let (kind, body) = match protocol::request_header(&frame[LEN_PREFIX..]) {
            Ok(header) => header,
            Err((code, msg)) => return protocol_error(state, resp, code, msg),
        };
        let keyed = match kind {
            RequestKind::Ping => {
                state.stats.local_answers.fetch_add(1, Ordering::Relaxed);
                protocol::encode_pong(resp);
                return Outcome::KeepOpen;
            }
            RequestKind::Stats => return local_stats(state, body, resp),
            RequestKind::ComputeCds => {
                compute_key_of(&mut self.edges, body).map(|key| (key, false))
            }
            RequestKind::GenCompute => {
                GenComputeRequest::decode(body).map(|req| (keys::gen_key(&req), false))
            }
            RequestKind::OpenGraph
            | RequestKind::Mutate
            | RequestKind::CloseGraph
            | RequestKind::QueryTile => {
                // Every stateful body starts with the graph name — all the
                // coordinator needs; the pinned backend performs the full
                // decode and answers any deeper malformation itself.
                protocol::graph_name_of(body).map(|name| (keys::graph_name_key(name), true))
            }
            RequestKind::Subscribe => protocol::decode_subscribe(body).map(|req| {
                (
                    req.graph.map_or(SUBSCRIBE_STATS_KEY, keys::graph_name_key),
                    false,
                )
            }),
        };
        let (key, stateful) = match keyed {
            Ok(keyed) => keyed,
            Err(e) => return decode_failed(state, resp, &e),
        };
        drop(route_timer);
        if kind == RequestKind::Subscribe {
            return relay_subscribe(&self.state, key, frame, resp, conn, &self.stop);
        }
        relay(state, key, stateful, frame, resp)
    }
}

/// Relays `frame` to the ring owner of `key`, failing over at most once.
fn relay(
    state: &ClusterState,
    key: u128,
    stateful: bool,
    frame: &[u8],
    resp: &mut Vec<u8>,
) -> Outcome {
    let _relay_timer = pacds_obs::phase_timer(pacds_obs::Phase::ClusterRelay);
    let relayed = try_owners(state, key, |backend| {
        let t0 = Instant::now();
        backend.pool.round_trip(frame, resp)?;
        backend.record_relay_ns(t0.elapsed().as_nanos() as u64);
        Ok(())
    });
    if relayed.is_none() {
        return no_backend(state, resp);
    }
    if stateful {
        state.stats.routed_stateful.fetch_add(1, Ordering::Relaxed);
    }
    // A fatal typed error means the backend is closing its end; mirror
    // that to our client — the relayed frame still carries the error that
    // explains why.
    relayed_outcome(resp)
}

/// Relays a Subscribe frame to the pinned backend on a dedicated
/// connection; on a successful ack the `(backend, client)` socket pair is
/// handed to a detached pump thread and the worker is released.
fn relay_subscribe(
    state: &Arc<ClusterState>,
    key: u128,
    frame: &[u8],
    resp: &mut Vec<u8>,
    conn: &TcpStream,
    stop: &Arc<AtomicBool>,
) -> Outcome {
    // Subscriptions own their socket for their whole lifetime; they bypass
    // the pool (and never return to it).
    let dialed = try_owners(state, key, |backend| {
        let mut up = backend.pool.dial()?;
        up.write_all(frame)?;
        read_frame(&up, resp, None)?;
        Ok(up)
    });
    let Some(upstream) = dialed else {
        return no_backend(state, resp);
    };
    if resp.get(LEN_PREFIX + 1) != Some(&(ResponseKind::SubscribeAck as u8)) {
        // The backend declined (typed error — e.g. UnknownGraph after a
        // failover); relay its answer, stay in request mode.
        return relayed_outcome(resp);
    }
    let (pump_state, stop) = (Arc::clone(state), Arc::clone(stop));
    let pump = move |client| pump_pushes(upstream, client, &pump_state, &stop);
    if hand_off(conn, resp, "pacds-cluster-push".into(), pump).is_ok() {
        state.stats.subscriptions.fetch_add(1, Ordering::Relaxed);
    }
    Outcome::HandedOff
}

/// Runs `attempt` on the ring owner of `key`, failing over at most once:
/// an attempt that fails on a fresh connection means the backend is gone
/// right now, so it is marked down and the next distinct backend
/// clockwise answers instead (cold at worst, never wrong). Counts the
/// successful relay.
fn try_owners<T>(
    state: &ClusterState,
    key: u128,
    mut attempt: impl FnMut(&Backend) -> io::Result<T>,
) -> Option<T> {
    let mut exclude = None;
    while let Some(backend) = state.owner(key, exclude) {
        match attempt(backend) {
            Ok(t) => {
                backend.routed.fetch_add(1, Ordering::Relaxed);
                state.stats.routed.fetch_add(1, Ordering::Relaxed);
                pacds_obs::inc(pacds_obs::Counter::ClusterRouted);
                if exclude.is_some() {
                    state.stats.failed_over.fetch_add(1, Ordering::Relaxed);
                    pacds_obs::inc(pacds_obs::Counter::ClusterFailedOver);
                }
                return Some(t);
            }
            Err(_) => {
                backend.data_failure(&state.stats);
                if exclude.is_some() {
                    break;
                }
                exclude = Some(backend.index);
            }
        }
    }
    None
}

/// How the client connection continues after a relayed response.
fn relayed_outcome(resp: &[u8]) -> Outcome {
    if response_is_fatal_error(resp) {
        Outcome::CloseAfterReply
    } else {
        Outcome::KeepOpen
    }
}

/// The typed answer when no backend is available for a key.
fn no_backend(state: &ClusterState, resp: &mut Vec<u8>) -> Outcome {
    state.stats.no_backend.fetch_add(1, Ordering::Relaxed);
    pacds_obs::inc(pacds_obs::Counter::ClusterNoBackend);
    encode_error(resp, ErrorCode::Rejected, "no healthy backend");
    Outcome::KeepOpen
}

/// Pumps pushed frames backend → client, one retained buffer, no queue:
/// the socket pair provides all the backpressure there is, and a client
/// that stalls past the push write timeout is disconnected instead of
/// buffered for — the coordinator's subscribe path is O(1) memory per
/// subscriber by construction. A backend-side lag NACK
/// ([`ErrorCode::SubscriberLagged`]) is just another frame here: relayed
/// verbatim, then both sockets close (the backend closed its end).
fn pump_pushes(
    upstream: TcpStream,
    mut client: TcpStream,
    state: &ClusterState,
    stop: &AtomicBool,
) {
    let _ = upstream.set_read_timeout(Some(POLL_INTERVAL));
    let mut buf = Vec::new();
    // Ends when the server stops or the backend closes (incl. after a lag
    // NACK).
    while read_frame(&upstream, &mut buf, Some(stop)).is_ok() {
        if client.write_all(&buf).is_err() {
            return;
        }
        state.stats.push_relayed.fetch_add(1, Ordering::Relaxed);
        pacds_obs::inc(pacds_obs::Counter::ClusterPushRelayed);
    }
}

/// Answers a Stats request with the coordinator's own counters (global +
/// per-backend), in the standard StatsResult frame shape. The text block
/// renders the same table/JSONL/Prometheus forms a backend would, from
/// the coordinator's obs snapshot; the Health form leaves it empty.
fn local_stats(state: &ClusterState, body: &[u8], resp: &mut Vec<u8>) -> Outcome {
    let format = match protocol::decode_stats_request(body) {
        Ok(format) => format,
        Err(e) => return decode_failed(state, resp, &e),
    };
    state.stats.local_answers.fetch_add(1, Ordering::Relaxed);
    let entries = state.stats.entries(&state.backends);
    let mut text = Vec::new();
    match format {
        StatsFormat::Health => {}
        StatsFormat::Table => {
            for (name, value) in &entries {
                text.extend_from_slice(format!("{name:<32} {value}\n").as_bytes());
            }
        }
        StatsFormat::Jsonl => {
            let _ = pacds_obs::write_jsonl(&pacds_obs::Snapshot::capture(), &mut text);
        }
        StatsFormat::Prometheus => {
            let _ = pacds_obs::write_prometheus(&pacds_obs::Snapshot::capture(), &mut text);
        }
    }
    let entries: Vec<(&str, u64)> = entries
        .iter()
        .map(|(name, v)| (name.as_str(), *v))
        .collect();
    protocol::encode_stats_result(resp, &entries, &text);
    Outcome::KeepOpen
}

/// Derives the canonical compute key, canonicalising the edge list into
/// `edges` exactly as a backend would.
fn compute_key_of(edges: &mut Vec<(u32, u32)>, body: &[u8]) -> Result<u128, DecodeError> {
    let req = ComputeCdsRequest::decode(body)?;
    req.canonical_edges(edges)?;
    Ok(keys::compute_key(&req.cfg, req.energy_raw, req.n, edges))
}

/// Counts and answers a client protocol failure; connection-fatal codes
/// close the connection after the reply.
fn protocol_error(state: &ClusterState, resp: &mut Vec<u8>, code: ErrorCode, msg: &str) -> Outcome {
    state.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    encode_error(resp, code, msg);
    if code.is_connection_fatal() {
        Outcome::CloseAfterReply
    } else {
        Outcome::KeepOpen
    }
}

/// Answers a decode failure with the backend's own mapping
/// ([`DecodeError::wire_error`]).
fn decode_failed(state: &ClusterState, resp: &mut Vec<u8>, err: &DecodeError) -> Outcome {
    let (code, msg) = err.wire_error();
    protocol_error(state, resp, code, msg)
}
