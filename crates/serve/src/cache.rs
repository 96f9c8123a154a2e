//! Sharded LRU result cache, keyed by 128-bit canonical request digests.
//!
//! Values are fully-encoded response payloads (version, kind, body), so a
//! hit is a hash lookup plus one `memcpy` into the caller's retained buffer
//! — no re-encoding, no allocation on the hot path. Keys are 128-bit
//! digests (`pacds_graph::digest::Digest128`) of the canonical topology + configuration + energy (see the
//! handler's keying), so the key *is* the
//! identity and the map needs no separate equality probe beyond the `u128`.
//!
//! The cache is split into [`SHARDS`] independently-locked shards selected
//! by the key's low bits; each shard runs a classic intrusive doubly-linked
//! LRU over a slot arena. Capacity is budgeted in bytes (value length plus
//! a fixed per-entry overhead), divided evenly across shards; inserting
//! into a full shard evicts from the tail until the new entry fits.
//!
//! Lookups are **single-flight** per key ([`ShardedCache::get_or_claim`]):
//! the first miss claims the key and computes it; requests for the same key
//! arriving meanwhile wait on the shard's condvar, each under its own
//! deadline, and copy the frame once it is inserted. N concurrent cold
//! requests for one digest therefore cost one compute, one miss and N − 1
//! hits.
//!
//! Hit/miss/eviction counts are kept in always-on relaxed atomics (they
//! feed the Stats response) and mirrored into `pacds-obs` counters when the
//! `obs` feature is enabled.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Number of shards (power of two; key low bits select the shard).
pub const SHARDS: usize = 16;

/// Accounting overhead charged per entry on top of the value bytes (slot,
/// map entry, links — an estimate, deliberately on the generous side).
pub const ENTRY_OVERHEAD: usize = 96;

const NIL: u32 = u32::MAX;

/// Aggregated cache statistics (monotone except `entries`/`bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts skipped because the value alone exceeds a shard's budget.
    pub uncacheable: u64,
    /// Live entries.
    pub entries: u64,
    /// Live bytes (values + per-entry overhead).
    pub bytes: u64,
}

#[derive(Debug)]
struct Slot {
    key: u128,
    val: Vec<u8>,
    prev: u32,
    next: u32,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u128, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    bytes: usize,
    /// Keys claimed by a computing request and not yet released.
    inflight: Vec<u128>,
}

impl Shard {
    fn new() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            ..Self::default()
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old = self.head;
        {
            let s = &mut self.slots[i as usize];
            s.prev = NIL;
            s.next = old;
        }
        if old != NIL {
            self.slots[old as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Removes the LRU entry; returns its byte cost, or `None` if empty.
    fn evict_tail(&mut self) -> Option<usize> {
        let i = self.tail;
        if i == NIL {
            return None;
        }
        self.unlink(i);
        let slot = &mut self.slots[i as usize];
        let cost = slot.val.len() + ENTRY_OVERHEAD;
        self.map.remove(&slot.key);
        slot.val = Vec::new(); // drop the payload now, keep the slot
        self.free.push(i);
        self.bytes -= cost;
        Some(cost)
    }
}

/// What [`ShardedCache::get_or_claim`] found.
#[derive(Debug)]
pub enum Lookup<'a> {
    /// The value was copied into the caller's buffer.
    Hit,
    /// The caller computes the value and stores it with
    /// [`Claim::insert`]; dropping the claim releases any waiters.
    Miss(Claim<'a>),
}

/// A miss's duty to compute one key. The first miss for a key owns it:
/// requests for that key wait until the owner inserts or drops its claim.
#[derive(Debug)]
pub struct Claim<'a> {
    cache: &'a ShardedCache,
    key: u128,
    owner: bool,
}

impl Claim<'_> {
    /// Stores the computed value, then wakes the waiters to copy it.
    pub fn insert(self, val: &[u8]) {
        self.cache.insert(self.key, val);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.owner {
            let i = shard_index(self.key);
            self.cache.lock(i).inflight.retain(|&k| k != self.key);
            self.cache.ready[i].notify_all();
        }
    }
}

#[inline]
fn shard_index(key: u128) -> usize {
    (key as usize) & (SHARDS - 1)
}

/// The sharded LRU. See the module docs for the design.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    /// Signalled when a claim on one of the shard's keys is released.
    ready: Vec<Condvar>,
    max_bytes_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    uncacheable: AtomicU64,
}

impl ShardedCache {
    /// A cache budgeted at `max_bytes` total (split evenly across
    /// [`SHARDS`]). A zero budget disables storage: every lookup misses
    /// and every insert is dropped, which keeps the serving path uniform.
    pub fn new(max_bytes: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            ready: (0..SHARDS).map(|_| Condvar::new()).collect(),
            max_bytes_per_shard: max_bytes / SHARDS,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
        }
    }

    fn lock(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks `key` up; on a hit copies the value into `out` (cleared
    /// first), promotes the entry to most-recently-used, and returns
    /// `true`. Allocation-free once `out`'s capacity covers the value.
    pub fn get_into(&self, key: u128, out: &mut Vec<u8>) -> bool {
        let hit = Self::copy_hit(&mut self.lock(shard_index(key)), key, out);
        self.count(hit);
        hit
    }

    /// [`get_into`](Self::get_into), single-flight: a miss on a key that
    /// another request is computing waits (until `deadline`, if any) for
    /// that request to insert or give up, instead of computing it again.
    /// A waiter that then finds the value counts as a hit; one that finds
    /// nothing (the owner gave up, the value was uncacheable, or the
    /// deadline passed) computes without claiming.
    pub fn get_or_claim(
        &self,
        key: u128,
        out: &mut Vec<u8>,
        deadline: Option<Instant>,
    ) -> Lookup<'_> {
        let i = shard_index(key);
        let mut shard = self.lock(i);
        let waiting = |s: &mut Shard| s.inflight.contains(&key);
        let owner = !waiting(&mut shard);
        if !owner {
            shard = match deadline {
                None => self.ready[i]
                    .wait_while(shard, waiting)
                    .unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    let woken = self.ready[i].wait_timeout_while(shard, left, waiting);
                    woken.unwrap_or_else(|e| e.into_inner()).0
                }
            };
        }
        let hit = Self::copy_hit(&mut shard, key, out);
        if !hit && owner {
            shard.inflight.push(key);
        }
        drop(shard);
        self.count(hit);
        if hit {
            return Lookup::Hit;
        }
        Lookup::Miss(Claim {
            cache: self,
            key,
            owner,
        })
    }

    fn copy_hit(shard: &mut Shard, key: u128, out: &mut Vec<u8>) -> bool {
        let Some(&i) = shard.map.get(&key) else {
            return false;
        };
        if shard.head != i {
            shard.unlink(i);
            shard.push_front(i);
        }
        out.clear();
        out.extend_from_slice(&shard.slots[i as usize].val);
        true
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            pacds_obs::inc(pacds_obs::Counter::ServeCacheHits);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            pacds_obs::inc(pacds_obs::Counter::ServeCacheMisses);
        }
    }

    /// Inserts (or replaces) `key → val`, evicting LRU entries until the
    /// shard's byte budget holds it. Values that cannot fit even an empty
    /// shard are counted and dropped.
    pub fn insert(&self, key: u128, val: &[u8]) {
        let cost = val.len() + ENTRY_OVERHEAD;
        if cost > self.max_bytes_per_shard {
            self.uncacheable.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut evicted = 0u64;
        {
            let mut shard = self.lock(shard_index(key));
            if let Some(&i) = shard.map.get(&key) {
                // Replace in place and promote.
                let old_len = self.replace_slot(&mut shard, i, val);
                shard.bytes = shard.bytes - old_len + val.len();
                if shard.head != i {
                    shard.unlink(i);
                    shard.push_front(i);
                }
            } else {
                while shard.bytes + cost > self.max_bytes_per_shard {
                    if shard.evict_tail().is_none() {
                        break;
                    }
                    evicted += 1;
                }
                let i = match shard.free.pop() {
                    Some(i) => {
                        let slot = &mut shard.slots[i as usize];
                        slot.key = key;
                        slot.val = val.to_vec();
                        i
                    }
                    None => {
                        let i = shard.slots.len() as u32;
                        shard.slots.push(Slot {
                            key,
                            val: val.to_vec(),
                            prev: NIL,
                            next: NIL,
                        });
                        i
                    }
                };
                shard.map.insert(key, i);
                shard.push_front(i);
                shard.bytes += cost;
            }
            // Evict down to budget in case a replace grew the entry.
            while shard.bytes > self.max_bytes_per_shard {
                if shard.evict_tail().is_none() {
                    break;
                }
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            pacds_obs::add(pacds_obs::Counter::ServeCacheEvictions, evicted);
        }
    }

    fn replace_slot(&self, shard: &mut Shard, i: u32, val: &[u8]) -> usize {
        let slot = &mut shard.slots[i as usize];
        let old_len = slot.val.len();
        slot.val.clear();
        slot.val.extend_from_slice(val);
        old_len
    }

    /// Point-in-time statistics across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(|e| e.into_inner());
            entries += s.map.len() as u64;
            bytes += s.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn val(key: u128, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (key as u8).wrapping_add(i as u8))
            .collect()
    }

    #[test]
    fn hit_miss_and_contents() {
        let c = ShardedCache::new(1 << 20);
        let mut out = Vec::new();
        assert!(!c.get_into(7, &mut out));
        c.insert(7, &val(7, 100));
        assert!(c.get_into(7, &mut out));
        assert_eq!(out, val(7, 100));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.bytes, 100 + ENTRY_OVERHEAD as u64);
    }

    #[test]
    fn replace_updates_value_and_bytes() {
        let c = ShardedCache::new(1 << 20);
        c.insert(3, &val(3, 50));
        c.insert(3, &val(9, 80));
        let mut out = Vec::new();
        assert!(c.get_into(3, &mut out));
        assert_eq!(out, val(9, 80));
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 80 + ENTRY_OVERHEAD as u64);
    }

    #[test]
    fn lru_eviction_order() {
        // Keys in one shard (same low bits); budget fits exactly 3 entries.
        let entry = 100 + ENTRY_OVERHEAD;
        let c = ShardedCache::new(entry * 3 * SHARDS);
        let k = |i: u128| i * SHARDS as u128; // all map to shard 0
        for i in 0..3 {
            c.insert(k(i), &val(i, 100));
        }
        // Touch k(0) so k(1) becomes LRU.
        let mut out = Vec::new();
        assert!(c.get_into(k(0), &mut out));
        c.insert(k(3), &val(3, 100));
        assert!(!c.get_into(k(1), &mut out), "LRU entry evicted");
        for i in [0u128, 2, 3] {
            assert!(c.get_into(k(i), &mut out), "key {i} retained");
        }
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_values_are_uncacheable() {
        let c = ShardedCache::new(SHARDS * 256);
        c.insert(1, &val(1, 10_000));
        assert!(!c.get_into(1, &mut Vec::new()));
        let s = c.stats();
        assert_eq!(s.uncacheable, 1);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn zero_budget_disables_storage() {
        let c = ShardedCache::new(0);
        c.insert(5, &val(5, 8));
        assert!(!c.get_into(5, &mut Vec::new()));
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn get_into_reuses_caller_capacity() {
        let c = ShardedCache::new(1 << 20);
        c.insert(11, &val(11, 64));
        let mut out = Vec::with_capacity(64);
        let ptr = out.as_ptr();
        assert!(c.get_into(11, &mut out));
        assert_eq!(out.as_ptr(), ptr, "no reallocation when capacity suffices");
    }

    #[test]
    fn concurrent_hammer_is_consistent() {
        // 8 threads × mixed get/insert over a small key space with a tight
        // budget: the cache must never serve a value that does not match
        // its key, and the counters must balance exactly.
        let c = Arc::new(ShardedCache::new(SHARDS * (3 * (64 + ENTRY_OVERHEAD))));
        let threads = 8;
        let ops = 4_000u64;
        let keyspace = 64u128;
        let mut handles = Vec::new();
        for t in 0..threads {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                let mut local_gets = 0u64;
                let mut state = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for _ in 0..ops {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = u128::from(state >> 32) % keyspace;
                    if state & 1 == 0 {
                        c.insert(key, &val(key, 64));
                    } else {
                        local_gets += 1;
                        if c.get_into(key, &mut out) {
                            assert_eq!(out, val(key, 64), "value matches key");
                        }
                    }
                }
                local_gets
            }));
        }
        let total_gets: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let s = c.stats();
        assert_eq!(s.hits + s.misses, total_gets, "every lookup counted once");
        assert!(s.evictions > 0, "tight budget must evict under the hammer");
        assert!(s.bytes <= (SHARDS * 3 * (64 + ENTRY_OVERHEAD)) as u64);
        // Post-hammer: every retained entry still reads back correctly.
        let mut out = Vec::new();
        let mut live = 0;
        for key in 0..keyspace {
            if c.get_into(key, &mut out) {
                assert_eq!(out, val(key, 64));
                live += 1;
            }
        }
        assert_eq!(live as u64, s.entries);
    }
}
