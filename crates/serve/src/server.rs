//! The `pacds-serve` TCP server: the shared [`frame`](crate::frame)
//! server running [`handle_payload`], plus the Prometheus scrape listener
//! and the Subscribe push handoff.
//!
//! Threading, backpressure and shutdown are the frame server's (see
//! [`crate::frame`]); each pool worker owns a long-lived [`WorkerScratch`]
//! (workspace + retained buffers — the zero-allocation steady state). A
//! `Subscribe` frame hands its connection to a dedicated push thread, so
//! a subscriber never occupies a pool worker.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::frame::{
    hand_off, FrameServer, Handler, Outcome, Service, POLL_INTERVAL, PUSH_WRITE_TIMEOUT,
};
use crate::handler::{handle_payload, HandleOutcome, ServeState, ShardPolicy, WorkerScratch};
use crate::hub::Subscription;
use crate::protocol::{self, encode_error, ErrorCode, StatsDelta, LEN_PREFIX, SUB_STATS};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker thread count (minimum 1).
    pub workers: usize,
    /// Bounded connection-queue depth; 0 = `4 × workers`.
    pub queue: usize,
    /// Result-cache budget in bytes.
    pub cache_bytes: usize,
    /// When compute requests route through the sharded engine (the
    /// responses are bit-identical either way; see [`ShardPolicy`]).
    pub shard: ShardPolicy,
    /// When set, a second listener on this address answers every HTTP GET
    /// with the Prometheus text rendering of the obs snapshot (a minimal
    /// line-based scrape endpoint; `"127.0.0.1:0"` picks a port).
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(4, |p| p.get()),
            queue: 0,
            cache_bytes: 64 << 20,
            shard: ShardPolicy::default(),
            metrics_addr: None,
        }
    }
}

/// A running server; dropping it (or calling [`shutdown`]) stops it.
///
/// [`shutdown`]: ServerHandle::shutdown
#[derive(Debug)]
pub struct ServerHandle {
    metrics_addr: Option<SocketAddr>,
    state: Arc<ServeState>,
    server: FrameServer,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The bound metrics-scrape address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Shared server state (stats, cache).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops accepting, drains queued and in-flight work, joins all
    /// threads. Idempotent. (Detached push threads observe the flag within
    /// one poll interval and exit on their own.)
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
/// accepting. Returns once the listener is live.
pub fn serve(addr: &str, cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let workers = cfg.workers.max(1);
    let mut st = ServeState::new(cfg.cache_bytes);
    st.shard = cfg.shard;
    st.workers.store(workers as u64, Ordering::Relaxed);
    let state = Arc::new(st);
    let mut server = FrameServer::spawn(listener, &state, workers, cfg.queue, |stop| Worker {
        state: Arc::clone(&state),
        scratch: WorkerScratch::new(),
        stop: Arc::clone(stop),
    })?;
    let metrics_addr = match &cfg.metrics_addr {
        Some(maddr) => {
            let listener = TcpListener::bind(maddr.as_str())?;
            let bound = listener.local_addr()?;
            server.spawn_aux("pacds-serve-metrics".into(), Some(bound), move |stop| {
                metrics_loop(&listener, stop)
            })?;
            Some(bound)
        }
        None => None,
    };
    Ok(ServerHandle {
        metrics_addr,
        state,
        server,
    })
}

impl Service for ServeState {
    const NAME: &'static str = "pacds-serve";
    const BUSY: &'static str = "server queue full; retry later";

    fn rejected(&self) {
        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
        pacds_obs::inc(pacds_obs::Counter::ServeRejected);
    }

    fn oversized(&self) {
        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        pacds_obs::inc(pacds_obs::Counter::ServeProtocolErrors);
    }

    fn queue_depth(&self) -> Option<&AtomicU64> {
        Some(&self.queue_depth)
    }
}

/// One pool worker: its retained scratch, plus what a Subscribe handoff
/// needs.
struct Worker {
    state: Arc<ServeState>,
    scratch: WorkerScratch,
    stop: Arc<AtomicBool>,
}

impl Handler for Worker {
    fn handle(&mut self, frame: &[u8], resp: &mut Vec<u8>, conn: &TcpStream) -> Outcome {
        let (state, received) = (&self.state, Instant::now());
        let payload = &frame[LEN_PREFIX..];
        match handle_payload(state, &mut self.scratch, payload, resp, received) {
            HandleOutcome::KeepOpen => Outcome::KeepOpen,
            HandleOutcome::Close => Outcome::CloseAfterReply,
            HandleOutcome::Subscribe {
                id,
                flags,
                interval_ms,
                graph,
            } => {
                // Register with the hub *before* writing the ack: an event
                // published between the ack and registration would
                // otherwise be silently missed, breaking the "every flip
                // after the ack" delivery promise.
                let sub = state.hub.register(id, flags, graph);
                let push_state = Arc::clone(state);
                let stop = Arc::clone(&self.stop);
                let push =
                    move |conn| push_loop(conn, &push_state, &sub, flags, interval_ms, &stop);
                if hand_off(conn, resp, format!("pacds-serve-push-{id}"), push).is_err() {
                    state.hub.unregister(id, false);
                }
                Outcome::HandedOff
            }
        }
    }
}

/// The Prometheus scrape listener: a deliberately minimal HTTP/1.0
/// responder — read whatever request arrived, answer with the text
/// rendering of the current obs snapshot, close. No routing, no
/// keep-alive; exactly what a line-based scraper needs and nothing more.
fn metrics_loop(listener: &TcpListener, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut conn) = conn else { continue };
        let _ = conn.set_read_timeout(Some(POLL_INTERVAL));
        let _ = conn.set_write_timeout(Some(PUSH_WRITE_TIMEOUT));
        // Drain the request head (best effort; scrape bodies are empty).
        let mut buf = [0u8; 1024];
        let _ = conn.read(&mut buf);
        let mut body = Vec::new();
        let _ = pacds_obs::write_prometheus(&pacds_obs::Snapshot::capture(), &mut body);
        let head = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let _ = conn.write_all(head.as_bytes());
        let _ = conn.write_all(&body);
    }
}

/// Drains one subscriber's push queue onto its socket and emits periodic
/// stats-delta frames. Runs on a dedicated thread (never a pool worker);
/// exits — always unregistering — when the client hangs up, the server
/// stops, or the hub marks the subscriber lagged (answered with a typed
/// [`ErrorCode::SubscriberLagged`] before closing).
fn push_loop(
    mut conn: TcpStream,
    state: &ServeState,
    sub: &Subscription,
    flags: u8,
    interval_ms: u32,
    stop: &AtomicBool,
) {
    let mut buf = Vec::new();
    let want_stats = flags & SUB_STATS != 0;
    // Windows are tracked per subscriber, so each receives deltas relative
    // to its own subscription epoch regardless of other subscribers.
    let mut tracker = pacds_obs::SeriesTracker::new(pacds_obs::Phase::ServeCompute);
    let interval = Duration::from_millis(u64::from(interval_ms.max(1)));
    let mut next_stats = Instant::now() + interval;
    let was_lagged = loop {
        if stop.load(Ordering::SeqCst) {
            break false;
        }
        if sub.lagged.load(Ordering::Relaxed) {
            // The publisher overflowed our queue: rather than silently
            // delivering a gappy event stream, retire with a typed NACK.
            encode_error(
                &mut buf,
                ErrorCode::SubscriberLagged,
                "subscriber queue overflowed; events were dropped",
            );
            let _ = conn.write_all(&buf);
            break true;
        }
        let wait = if want_stats {
            next_stats
                .saturating_duration_since(Instant::now())
                .min(POLL_INTERVAL)
        } else {
            POLL_INTERVAL
        };
        match sub.rx.recv_timeout(wait) {
            Ok(frame) => {
                if conn.write_all(&frame).is_err() {
                    break false;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break false,
        }
        if want_stats && Instant::now() >= next_stats {
            let w = tracker.tick();
            let delta = StatsDelta {
                seq: w.seq,
                dt_us: (w.dt_s * 1e6) as u64,
                requests: w.requests,
                samples: w.samples,
                p50_ns: w.p50_ns,
                p99_ns: w.p99_ns,
                gateway_flips: w.gateway_flips,
                tiles_resolved: w.tiles_resolved,
                refreshes: w.refreshes,
                push_dropped: state.hub.dropped(),
            };
            protocol::encode_stats_delta(&mut buf, &delta);
            if conn.write_all(&buf).is_err() {
                break false;
            }
            pacds_obs::inc(pacds_obs::Counter::ServePushFrames);
            next_stats += interval;
        }
    };
    state.hub.unregister(sub.id, was_lagged);
}
