//! The subscriber hub: fan-out of pushed telemetry frames.
//!
//! Subscriptions ride the normal request protocol (a [`Subscribe`] frame
//! flips the connection into push mode), but their delivery must never be
//! able to slow a Mutate or ComputeCds down. The hub enforces that with
//! three rules:
//!
//! 1. **Fast path is one atomic load.** `publish_flip` checks a
//!    flip-subscriber count before touching the lock; with nobody
//!    subscribed, the data path pays a single relaxed load.
//! 2. **Publication is a bounded `try_send`.** Each subscriber owns a
//!    bounded queue ([`SUBSCRIBER_QUEUE`]); a full queue drops the frame,
//!    counts it, and marks the subscriber lagged — the publisher never
//!    blocks, never waits on a socket.
//! 3. **The socket write happens on the subscriber's own connection
//!    thread**, which drains its queue at whatever pace the client can
//!    take and retires itself (with a [`SubscriberLagged`] error frame)
//!    once marked lagged.
//!
//! Frames are encoded once per publication and shared among subscribers
//! via `Arc`.
//!
//! [`Subscribe`]: crate::protocol::RequestKind::Subscribe
//! [`SubscriberLagged`]: crate::protocol::ErrorCode::SubscriberLagged

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

use crate::protocol::{self, SUB_FLIPS};

/// Push frames a subscriber may have in flight before it counts as
/// lagging. At the default stats cadence this is multiple seconds of
/// buffered telemetry.
pub const SUBSCRIBER_QUEUE: usize = 64;

/// One registered subscriber.
struct SubEntry {
    id: u64,
    flags: u8,
    /// Flip events are filtered to this graph; `None` = all graphs.
    graph: Option<String>,
    tx: SyncSender<Arc<Vec<u8>>>,
    lagged: Arc<AtomicBool>,
}

/// A registration handle: the connection thread drains `rx` and checks
/// `lagged` between frames.
pub struct Subscription {
    /// The hub-assigned subscriber id.
    pub id: u64,
    /// Pushed frames, ready to write to the socket verbatim.
    pub rx: Receiver<Arc<Vec<u8>>>,
    /// Set by the publisher when this subscriber's queue overflowed.
    pub lagged: Arc<AtomicBool>,
}

/// Server-wide subscriber registry. See the module docs for the
/// backpressure contract.
#[derive(Default)]
pub struct SubscriberHub {
    inner: Mutex<Vec<SubEntry>>,
    next_id: AtomicU64,
    /// Registered subscribers with [`SUB_FLIPS`] — the publish fast path.
    flip_subs: AtomicUsize,
    /// Push frames dropped to full subscriber queues (lifetime).
    dropped: AtomicU64,
    /// Subscribers retired for lagging (lifetime).
    lagged_total: AtomicU64,
}

impl SubscriberHub {
    /// Reserves a subscriber id without registering (the ack frame carries
    /// the id before the connection enters push mode).
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers subscriber `id` and returns its drain handle.
    pub fn register(&self, id: u64, flags: u8, graph: Option<String>) -> Subscription {
        let (tx, rx) = std::sync::mpsc::sync_channel(SUBSCRIBER_QUEUE);
        let lagged = Arc::new(AtomicBool::new(false));
        let mut subs = self.inner.lock().expect("hub poisoned");
        if flags & SUB_FLIPS != 0 {
            self.flip_subs.fetch_add(1, Ordering::Relaxed);
        }
        subs.push(SubEntry {
            id,
            flags,
            graph,
            tx,
            lagged: Arc::clone(&lagged),
        });
        Subscription { id, rx, lagged }
    }

    /// Removes subscriber `id` (idempotent). `was_lagged` records whether
    /// the connection is retiring the subscriber for falling behind.
    pub fn unregister(&self, id: u64, was_lagged: bool) {
        let mut subs = self.inner.lock().expect("hub poisoned");
        if let Some(i) = subs.iter().position(|s| s.id == id) {
            let entry = subs.swap_remove(i);
            if entry.flags & SUB_FLIPS != 0 {
                self.flip_subs.fetch_sub(1, Ordering::Relaxed);
            }
            if was_lagged {
                self.lagged_total.fetch_add(1, Ordering::Relaxed);
                pacds_obs::inc(pacds_obs::Counter::ServeSubscribersLagged);
            }
        }
    }

    /// Registered subscriber count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("hub poisoned").len()
    }

    /// Whether no subscribers are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime count of push frames dropped to full queues.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Lifetime count of subscribers retired for lagging.
    pub fn lagged_total(&self) -> u64 {
        self.lagged_total.load(Ordering::Relaxed)
    }

    /// Publishes one refresh's gateway-flip event to every matching
    /// [`SUB_FLIPS`] subscriber. Called from the Mutate data path: with no
    /// flip subscribers this is a single atomic load, and it never blocks
    /// regardless of subscriber state.
    pub fn publish_flip(
        &self,
        name: &str,
        refresh_seq: u64,
        gateway_flips: u64,
        gateways: u32,
        tiles: &[u32],
    ) {
        if self.flip_subs.load(Ordering::Relaxed) == 0 {
            return;
        }
        let subs = self.inner.lock().expect("hub poisoned");
        let mut frame: Option<Arc<Vec<u8>>> = None;
        for sub in subs.iter() {
            if sub.flags & SUB_FLIPS == 0 || sub.graph.as_deref().is_some_and(|g| g != name) {
                continue;
            }
            let frame = frame.get_or_insert_with(|| {
                let mut buf = Vec::new();
                protocol::encode_flip_event(
                    &mut buf,
                    name,
                    refresh_seq,
                    gateway_flips,
                    gateways,
                    tiles,
                );
                Arc::new(buf)
            });
            self.offer(sub, Arc::clone(frame));
        }
    }

    /// Queues an already-encoded frame to subscriber `id` (used by the
    /// stats push loop, which encodes per-subscriber windows).
    pub fn offer_to(&self, id: u64, frame: Arc<Vec<u8>>) {
        let subs = self.inner.lock().expect("hub poisoned");
        if let Some(sub) = subs.iter().find(|s| s.id == id) {
            self.offer(sub, frame);
        }
    }

    fn offer(&self, sub: &SubEntry, frame: Arc<Vec<u8>>) {
        match sub.tx.try_send(frame) {
            Ok(()) => {
                pacds_obs::inc(pacds_obs::Counter::ServePushFrames);
            }
            Err(TrySendError::Full(_)) => {
                sub.lagged.store(true, Ordering::Relaxed);
                self.dropped.fetch_add(1, Ordering::Relaxed);
                pacds_obs::inc(pacds_obs::Counter::ServePushDropped);
            }
            // The connection already hung up; unregistration is on its way.
            Err(TrySendError::Disconnected(_)) => {}
        }
    }
}

impl std::fmt::Debug for SubscriberHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriberHub")
            .field("subscribers", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SUB_STATS;

    fn sub(hub: &SubscriberHub, flags: u8, graph: Option<&str>) -> Subscription {
        let id = hub.allocate_id();
        hub.register(id, flags, graph.map(str::to_owned))
    }

    #[test]
    fn publish_reaches_matching_subscribers_only() {
        let hub = SubscriberHub::default();
        let all = sub(&hub, SUB_FLIPS, None);
        let named = sub(&hub, SUB_FLIPS, Some("fleet-a"));
        let other = sub(&hub, SUB_FLIPS, Some("fleet-b"));
        let stats_only = sub(&hub, SUB_STATS, None);
        hub.publish_flip("fleet-a", 1, 5, 100, &[2, 4]);
        for s in [&all, &named] {
            let frame = s.rx.try_recv().expect("matching subscriber got the frame");
            let ev = protocol::decode_flip_event(&frame[protocol::LEN_PREFIX + 2..]).unwrap();
            assert_eq!(ev.name, "fleet-a");
            assert_eq!(ev.tiles, vec![2, 4]);
        }
        assert!(other.rx.try_recv().is_err(), "other graph filtered out");
        assert!(stats_only.rx.try_recv().is_err(), "stats-only filtered out");
    }

    #[test]
    fn full_queue_drops_and_marks_lagged_without_blocking() {
        let hub = SubscriberHub::default();
        let s = sub(&hub, SUB_FLIPS, None);
        for i in 0..(SUBSCRIBER_QUEUE as u64 + 3) {
            hub.publish_flip("g", i, 0, 0, &[]);
        }
        assert_eq!(hub.dropped(), 3);
        assert!(s.lagged.load(Ordering::Relaxed));
        // The queued prefix is still drainable.
        let mut drained = 0;
        while s.rx.try_recv().is_ok() {
            drained += 1;
        }
        assert_eq!(drained, SUBSCRIBER_QUEUE);
        hub.unregister(s.id, true);
        assert_eq!(hub.lagged_total(), 1);
        assert!(hub.is_empty());
    }

    #[test]
    fn unregister_is_idempotent_and_clears_fast_path() {
        let hub = SubscriberHub::default();
        let s = sub(&hub, SUB_FLIPS, None);
        hub.unregister(s.id, false);
        hub.unregister(s.id, false);
        assert_eq!(hub.len(), 0);
        assert_eq!(hub.lagged_total(), 0);
        // Fast path: publishing with no subscribers must not encode.
        hub.publish_flip("g", 1, 1, 1, &[0]);
        assert_eq!(hub.dropped(), 0);
    }
}
