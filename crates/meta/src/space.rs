//! The [`MetaSpace`]: slice store, GC, sync vars, thread registry.

use crate::slice::{SliceRec, SliceRef};
use crate::stats::AtomicStats;
use crate::syncvar::{SyncKey, SyncVar};
use parking_lot::{Mutex, RwLock};
use rfdet_vclock::{Tid, VClock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// A shared handle to one sync var. Contexts cache these per key, so the
/// steady-state acquire path locks only the var itself — never the table.
pub type SyncVarRef = Arc<Mutex<SyncVar>>;

/// Shard count of the sync-var table (a power of two: the shard index is
/// a hash masked by `SYNC_SHARDS - 1`). Sixteen shards keep the expected
/// collision probability low at the 4–16 thread counts the paper
/// evaluates.
pub const SYNC_SHARDS: usize = 16;
const _: () = assert!(SYNC_SHARDS.is_power_of_two());

/// Live-slice GC trigger of [`MetaSpace::new`]. The paper's metadata
/// pressure comes mostly from 4 KiB page snapshots, so its byte threshold
/// fires early; sealed slices here store only byte diffs, so a pure byte
/// threshold would let slice-pointer lists grow until the Figure-5 scan
/// dominates. Bounding live slices keeps propagation amortized-O(live
/// slices) exactly as in the paper.
pub const MAX_LIVE_SLICES: usize = 1024;

/// A slice-pointer list with a monotone count of prefix-pruned entries,
/// so consumers can keep *absolute* cursors across GC.
///
/// Key structural invariant (*release-prefix closure*): for any release
/// time `U` of the owning thread, the entries with `time ≤ U` form a
/// prefix of the list — anything that happened before the release was, by
/// the completeness invariant, already merged (hence appended) before the
/// release executed, and everything appended later is causally newer.
/// Propagation exploits this with per-source cursors and early exit.
#[derive(Debug, Default)]
pub struct SliceList {
    /// Live entries, in deterministic propagation order.
    pub entries: Vec<SliceRef>,
    /// Entries removed from the front by GC since the beginning of time.
    /// `pruned + entries.len()` is the list's absolute length.
    pub pruned: u64,
}

/// Per-thread metadata visible to every other thread.
#[derive(Debug)]
pub struct ThreadMeta {
    /// Deterministic thread ID.
    pub tid: Tid,
    /// The thread's *slice pointers* list (paper §4.3): every slice that
    /// happens-before the thread's current point, in deterministic
    /// propagation order. Other threads scan this at acquires.
    pub slice_list: Mutex<SliceList>,
    /// The thread's vector clock as of its last synchronization operation.
    /// Published *after* the corresponding propagation completes, so a
    /// published time of `t` guarantees the thread's memory reflects every
    /// slice ≤ `t` (the GC safety condition).
    pub published_vc: Mutex<VClock>,
    /// The vector clock the thread's last synchronization operation
    /// *decided on*, published inside the Kendo turn (before the
    /// propagation work runs). Reads of this value from other turns are
    /// deterministic, which is what the *prelock* bound needs; it may run
    /// ahead of `published_vc` while propagation is still applying.
    pub turn_vc: Mutex<VClock>,
    /// Cleared when the thread exits (finished threads do not hold back
    /// GC).
    pub alive: AtomicBool,
    /// The thread's output stream.
    pub output: Mutex<Vec<u8>>,
}

impl ThreadMeta {
    fn new(tid: Tid) -> Self {
        Self {
            tid,
            slice_list: Mutex::new(SliceList::default()),
            published_vc: Mutex::new(VClock::new()),
            turn_vc: Mutex::new(VClock::new()),
            alive: AtomicBool::new(true),
            output: Mutex::new(Vec::new()),
        }
    }

    /// Publishes this thread's vector clock — call only after the memory
    /// reflects every slice ≤ `vc`.
    pub fn set_published_vc(&self, vc: &VClock) {
        self.published_vc.lock().clone_from(vc);
    }

    /// Reads this thread's published vector clock.
    #[must_use]
    pub fn get_published_vc(&self) -> VClock {
        self.published_vc.lock().clone()
    }

    /// Publishes this thread's in-turn decided clock (see
    /// [`ThreadMeta::turn_vc`]).
    pub fn set_turn_vc(&self, vc: &VClock) {
        self.turn_vc.lock().clone_from(vc);
    }

    /// Joins extra time into the in-turn clock — used by wakers that
    /// extend a blocked thread's eventual acquire (§4.5 prelock bound).
    pub fn join_turn_vc(&self, extra: &VClock) {
        self.turn_vc.lock().join(extra);
    }

    /// Reads this thread's in-turn decided clock.
    #[must_use]
    pub fn get_turn_vc(&self) -> VClock {
        self.turn_vc.lock().clone()
    }

    /// The Figure-5 filter over this thread's slice list; see
    /// [`MetaSpace::filter_list_from`] for the cursor/prefix contract.
    /// Exposed on `ThreadMeta` so consumers holding a cached handle skip
    /// the registry lookup on every propagation.
    #[must_use]
    pub fn filter_slices_from(
        &self,
        upper: &VClock,
        lower: &VClock,
        cursor: u64,
        prefix_closed: bool,
    ) -> (Vec<SliceRef>, u64, u64) {
        let list = self.slice_list.lock();
        let mut batch = Vec::new();
        let mut redundant = 0;
        let start = cursor.saturating_sub(list.pruned) as usize;
        let mut new_cursor = cursor.max(list.pruned);
        for s in list.entries.iter().skip(start) {
            if s.time.leq(upper) {
                if s.time.leq(lower) {
                    redundant += 1;
                } else {
                    batch.push(Arc::clone(s));
                }
                new_cursor += 1;
            } else if prefix_closed {
                break;
            }
            // (non-prefix-closed callers do not advance past gaps)
        }
        (batch, redundant, new_cursor)
    }

    /// Appends propagated slices to this thread's list (transitive
    /// propagation, paper Figure 5 line 8).
    pub fn append_slices(&self, slices: &[SliceRef]) {
        self.slice_list
            .lock()
            .entries
            .extend(slices.iter().cloned());
    }
}

/// Result of one garbage-collection pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Slices removed from the store.
    pub reclaimed_slices: u64,
    /// Metadata bytes freed.
    pub reclaimed_bytes: u64,
}

/// The shared metadata space.
///
/// Sized like the paper's reserved shared-memory region: publication
/// charges each slice's footprint against `capacity_bytes`, and crossing
/// `gc_trigger_bytes` makes the *publishing* thread run a GC pass
/// (§4.5 "Garbage Collection").
#[derive(Debug)]
pub struct MetaSpace {
    threads: RwLock<Vec<Arc<ThreadMeta>>>,
    /// All live (not yet collected) slices, for GC scanning.
    store: Mutex<Vec<SliceRef>>,
    usage: AtomicUsize,
    live_slices: AtomicUsize,
    capacity_bytes: usize,
    gc_trigger_bytes: usize,
    max_slices: usize,
    /// Adaptive slice-count floor for the next GC trigger: raised after a
    /// pass that could not reclaim much (some thread lags behind), so an
    /// uncollectable backlog does not cause a GC scan per publish.
    gc_floor: AtomicUsize,
    /// The glb of the last pass that scanned the store. Published clocks
    /// only grow, so a pass whose glb is not above it would rescan the
    /// store under its lock and find nothing new to reclaim.
    last_glb: Mutex<Option<VClock>>,
    /// The sync-var table, sharded by key hash so independent sync
    /// objects never serialize on one table lock. Entries are `Arc`ed out
    /// and never removed, so contexts cache the handles and the shard
    /// lock is only taken on a key's first touch per thread.
    sync_vars: [Mutex<HashMap<SyncKey, SyncVarRef>>; SYNC_SHARDS],
    /// Shared profiling counters for the run.
    pub stats: AtomicStats,
}

impl MetaSpace {
    /// Creates a metadata space with the given capacity and GC threshold
    /// (fraction of capacity, the paper uses 0.9). GC also triggers when
    /// live slices exceed [`MAX_LIVE_SLICES`].
    #[must_use]
    pub fn new(capacity_bytes: usize, gc_threshold: f64) -> Self {
        Self::with_max_slices(capacity_bytes, gc_threshold, MAX_LIVE_SLICES)
    }

    /// [`MetaSpace::new`] with an explicit live-slice GC trigger.
    #[must_use]
    pub fn with_max_slices(capacity_bytes: usize, gc_threshold: f64, max_slices: usize) -> Self {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let trigger = (capacity_bytes as f64 * gc_threshold) as usize;
        Self {
            threads: RwLock::new(Vec::new()),
            store: Mutex::new(Vec::new()),
            usage: AtomicUsize::new(0),
            live_slices: AtomicUsize::new(0),
            capacity_bytes,
            gc_trigger_bytes: trigger,
            max_slices,
            gc_floor: AtomicUsize::new(max_slices),
            last_glb: Mutex::new(None),
            sync_vars: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            stats: AtomicStats::default(),
        }
    }

    /// Registers the next thread; IDs are dense and sequential, so callers
    /// must invoke this under a deterministic order (the runtime does so
    /// inside the parent's Kendo turn).
    pub fn register_thread(&self) -> Arc<ThreadMeta> {
        let mut threads = self.threads.write();
        let tid = threads.len() as Tid;
        let meta = Arc::new(ThreadMeta::new(tid));
        threads.push(Arc::clone(&meta));
        meta
    }

    /// Looks up a thread's metadata.
    ///
    /// # Panics
    /// Panics if `tid` was never registered.
    #[must_use]
    pub fn thread(&self, tid: Tid) -> Arc<ThreadMeta> {
        Arc::clone(&self.threads.read()[tid as usize])
    }

    /// Number of registered threads (alive or not).
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.threads.read().len()
    }

    /// Current metadata usage in bytes.
    #[must_use]
    pub fn usage_bytes(&self) -> usize {
        self.usage.load(Relaxed)
    }

    /// Configured capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Publishes a sealed slice: stores it, appends it to the owner's
    /// slice-pointer list, accounts usage, and reports whether the GC
    /// trigger was crossed.
    pub fn publish_slice(&self, rec: SliceRec) -> (SliceRef, bool) {
        let owner = self.thread(rec.tid);
        self.publish_slice_for(&owner, rec)
    }

    /// [`MetaSpace::publish_slice`] for a caller already holding the
    /// owner's handle — the hot path, which must not touch the thread
    /// registry lock.
    pub fn publish_slice_for(&self, owner: &ThreadMeta, rec: SliceRec) -> (SliceRef, bool) {
        debug_assert_eq!(owner.tid, rec.tid, "slice published to wrong owner");
        let bytes = rec.heap_bytes();
        let slice: SliceRef = Arc::new(rec);
        self.store.lock().push(Arc::clone(&slice));
        owner.slice_list.lock().entries.push(Arc::clone(&slice));
        let new_usage = self.usage.fetch_add(bytes, Relaxed) + bytes;
        let live = self.live_slices.fetch_add(1, Relaxed) + 1;
        self.stats.note_meta_bytes(new_usage as u64);
        (
            slice,
            new_usage > self.gc_trigger_bytes || live > self.gc_floor.load(Relaxed),
        )
    }

    /// Snapshot of a thread's slice-pointer list, in list order.
    #[must_use]
    pub fn snapshot_list(&self, tid: Tid) -> Vec<SliceRef> {
        self.thread(tid).slice_list.lock().entries.clone()
    }

    /// The Figure-5 filter executed under the source list's lock: returns
    /// the slices with `time ≤ upper` and `¬(time ≤ lower)`, in list
    /// order, plus the number filtered as already-seen.
    ///
    /// `cursor` is the caller's absolute position in this list: entries
    /// before it were fully processed under an earlier (≤) upper limit
    /// and are skipped outright. When `upper` is a release time of
    /// `from`, release-prefix closure additionally allows stopping at the
    /// first entry above the limit (`prefix_closed`). Returns the new
    /// cursor alongside the batch.
    #[must_use]
    pub fn filter_list_from(
        &self,
        from: Tid,
        upper: &VClock,
        lower: &VClock,
        cursor: u64,
        prefix_closed: bool,
    ) -> (Vec<SliceRef>, u64, u64) {
        self.thread(from)
            .filter_slices_from(upper, lower, cursor, prefix_closed)
    }

    /// Cursor-less variant of [`MetaSpace::filter_list_from`] for callers
    /// without a stable upper-limit ordering (barrier merges, tests).
    #[must_use]
    pub fn filter_list(&self, from: Tid, upper: &VClock, lower: &VClock) -> (Vec<SliceRef>, u64) {
        let (batch, redundant, _) = self.filter_list_from(from, upper, lower, 0, false);
        (batch, redundant)
    }

    /// Appends propagated slices to `tid`'s list (transitive propagation,
    /// paper Figure 5 line 8).
    pub fn append_to_list(&self, tid: Tid, slices: &[SliceRef]) {
        self.thread(tid).append_slices(slices);
    }

    /// Publishes `tid`'s vector clock — call only after the memory
    /// reflects every slice ≤ `vc`.
    pub fn publish_vc(&self, tid: Tid, vc: &VClock) {
        self.thread(tid).set_published_vc(vc);
    }

    /// Reads a thread's published vector clock.
    #[must_use]
    pub fn published_vc(&self, tid: Tid) -> VClock {
        self.thread(tid).get_published_vc()
    }

    /// Publishes `tid`'s in-turn decided clock (see [`ThreadMeta::turn_vc`]).
    pub fn publish_turn_vc(&self, tid: Tid, vc: &VClock) {
        self.thread(tid).set_turn_vc(vc);
    }

    /// Joins extra time into `tid`'s in-turn clock — used by wakers that
    /// extend a blocked thread's eventual acquire (§4.5 prelock bound).
    pub fn join_turn_vc(&self, tid: Tid, extra: &VClock) {
        self.thread(tid).join_turn_vc(extra);
    }

    /// Reads a thread's in-turn decided clock.
    #[must_use]
    pub fn turn_vc(&self, tid: Tid) -> VClock {
        self.thread(tid).get_turn_vc()
    }

    /// Marks a thread dead (it stops holding back GC).
    pub fn mark_dead(&self, tid: Tid) {
        self.thread(tid).alive.store(false, Relaxed);
    }

    /// Runs one GC pass: computes the greatest lower bound of every live
    /// thread's published clock and drops all slices at or below it
    /// ("such slices have already been merged into the local memory
    /// spaces of all threads", §4.5).
    ///
    /// A pass whose glb has not advanced past the last scanned one skips
    /// the store scan and list pruning and reports 0 reclaimed. A slice
    /// is published before any other live thread's published clock can
    /// cover it, so the last scan already dropped everything at or below
    /// that glb. The one exception, a sole live thread's open slice, is
    /// published before its owner's next pass, whose glb has advanced.
    pub fn run_gc(&self) -> GcOutcome {
        let glb = {
            let threads = self.threads.read();
            let mut live = threads.iter().filter(|t| t.alive.load(Relaxed));
            let Some(first) = live.next() else {
                return GcOutcome::default();
            };
            let mut glb = first.published_vc.lock().clone();
            for t in live {
                glb.meet(&t.published_vc.lock());
            }
            glb
        };
        let advanced = {
            let mut last = self.last_glb.lock();
            if last.as_ref().is_some_and(|l| glb.leq(l)) {
                false
            } else {
                *last = Some(glb.clone());
                true
            }
        };

        let mut outcome = GcOutcome::default();
        if advanced {
            let mut store = self.store.lock();
            store.retain(|s| {
                if s.time.leq(&glb) {
                    outcome.reclaimed_slices += 1;
                    outcome.reclaimed_bytes += s.heap_bytes() as u64;
                    false
                } else {
                    true
                }
            });
            drop(store);
            // Prune every thread's slice-pointer list so the Arcs actually
            // drop. Only the longest collectible *prefix* is removed: that
            // keeps consumers' absolute cursors valid (entries never move
            // to a smaller absolute index) and is almost as effective,
            // because old slices cluster at the front.
            for t in self.threads.read().iter() {
                let mut list = t.slice_list.lock();
                let cut = list.entries.iter().take_while(|s| s.time.leq(&glb)).count();
                if cut > 0 {
                    list.entries.drain(..cut);
                    list.pruned += cut as u64;
                }
            }
        }
        self.usage
            .fetch_sub(outcome.reclaimed_bytes as usize, Relaxed);
        let live_after = self
            .live_slices
            .fetch_sub(outcome.reclaimed_slices as usize, Relaxed)
            - outcome.reclaimed_slices as usize;
        // Re-arm the count trigger above whatever could not be collected,
        // with a minimum slack so an uncollectable backlog never causes a
        // GC request per publish.
        let slack = (self.max_slices / 4).max(4);
        self.gc_floor
            .store(self.max_slices.max(live_after + slack), Relaxed);
        self.stats.gc_count.fetch_add(1, Relaxed);
        self.stats
            .gc_reclaimed_slices
            .fetch_add(outcome.reclaimed_slices, Relaxed);
        outcome
    }

    /// The shard a key lives in: a SplitMix64-style mix of the variant
    /// tag and payload, masked to [`SYNC_SHARDS`]. Cheaper
    /// and better-spread than SipHash for these tiny keys, and stable
    /// across runs (not that determinism depends on it — shard choice
    /// only affects which physical lock is taken).
    fn shard_index(&self, key: SyncKey) -> usize {
        let (tag, val): (u64, u64) = match key {
            SyncKey::Mutex(v) => (1, u64::from(v)),
            SyncKey::Cond(v) => (2, u64::from(v)),
            SyncKey::Barrier(v) => (3, u64::from(v)),
            SyncKey::Thread(t) => (4, u64::from(t)),
            SyncKey::Atomic(a) => (5, a),
        };
        let mut x = val ^ (tag << 56) ^ 0x9e37_79b9_7f4a_7c15;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        #[allow(clippy::cast_possible_truncation)]
        let idx = (x as usize) & (SYNC_SHARDS - 1);
        idx
    }

    /// Hands out the shared handle for `key`'s sync var, creating it on
    /// first touch. Touches exactly one shard lock; callers cache the
    /// returned [`SyncVarRef`] so repeat acquires skip even that.
    #[must_use]
    pub fn sync_var(&self, key: SyncKey) -> SyncVarRef {
        let shard = &self.sync_vars[self.shard_index(key)];
        let mut table = match shard.try_lock() {
            Some(g) => g,
            None => {
                self.stats.shard_lock_contended.fetch_add(1, Relaxed);
                shard.lock()
            }
        };
        Arc::clone(table.entry(key).or_default())
    }

    /// Runs `f` with exclusive access to the internal sync var for `key`,
    /// creating it on first touch. Convenience wrapper over
    /// [`MetaSpace::sync_var`] for cold paths and tests.
    pub fn with_sync_var<R>(&self, key: SyncKey, f: impl FnOnce(&mut SyncVar) -> R) -> R {
        let var = self.sync_var(key);
        let mut guard = var.lock();
        f(&mut guard)
    }

    /// Every sync var with a recorded release, as `(key, lastTid,
    /// lastTime)` sorted by key — the deterministic table projection
    /// checkpoints capture and the capture-eligibility check scans.
    /// Called only from inside a Kendo turn (no concurrent releases), so
    /// the per-shard locking cannot tear the view.
    #[must_use]
    pub fn sync_var_entries(&self) -> Vec<(SyncKey, Tid, VClock)> {
        let mut out = Vec::new();
        for shard in self.sync_vars.iter() {
            for (key, var) in shard.lock().iter() {
                let v = var.lock();
                if let Some(tid) = v.last_tid {
                    out.push((*key, tid, v.last_time.clone()));
                }
            }
        }
        out.sort_unstable_by_key(|&(key, _, _)| key);
        out
    }

    /// Appends bytes to a thread's output stream.
    pub fn emit(&self, tid: Tid, bytes: &[u8]) {
        self.thread(tid).output.lock().extend_from_slice(bytes);
    }

    /// Concatenates all output streams in thread-ID order.
    #[must_use]
    pub fn collect_output(&self) -> Vec<u8> {
        let threads = self.threads.read();
        let mut out = Vec::new();
        for t in threads.iter() {
            out.extend_from_slice(&t.output.lock());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_mem::ModRun;

    fn meta() -> MetaSpace {
        MetaSpace::new(10_000, 0.5)
    }

    fn slice(tid: Tid, seq: u64, time: &[u64], nbytes: usize) -> SliceRec {
        SliceRec::new(
            tid,
            seq,
            VClock::from_components(time.to_vec()),
            vec![ModRun::new(0, vec![1; nbytes].into())],
        )
    }

    #[test]
    fn register_assigns_dense_tids() {
        let m = meta();
        assert_eq!(m.register_thread().tid, 0);
        assert_eq!(m.register_thread().tid, 1);
        assert_eq!(m.num_threads(), 2);
        assert_eq!(m.thread(1).tid, 1);
    }

    #[test]
    fn publish_accounts_usage_and_triggers_gc_flag() {
        let m = meta();
        m.register_thread();
        let (_, gc1) = m.publish_slice(slice(0, 0, &[1], 100));
        assert!(!gc1);
        assert!(m.usage_bytes() > 100);
        let (_, gc2) = m.publish_slice(slice(0, 1, &[2], 6000));
        assert!(gc2, "crossing 50% of 10k must request GC");
    }

    #[test]
    fn publish_appends_to_owner_list() {
        let m = meta();
        m.register_thread();
        m.register_thread();
        m.publish_slice(slice(1, 0, &[0, 1], 4));
        assert_eq!(m.snapshot_list(1).len(), 1);
        assert!(m.snapshot_list(0).is_empty());
    }

    #[test]
    fn gc_reclaims_only_globally_seen_slices() {
        let m = meta();
        m.register_thread();
        m.register_thread();
        let (s_old, _) = m.publish_slice(slice(0, 0, &[1], 10));
        let (_s_new, _) = m.publish_slice(slice(0, 1, &[5], 10));
        // Thread 0 has seen everything; thread 1 only up to [2].
        m.publish_vc(0, &VClock::from_components(vec![9, 9]));
        m.publish_vc(1, &VClock::from_components(vec![2, 3]));
        let before = m.usage_bytes();
        let out = m.run_gc();
        assert_eq!(out.reclaimed_slices, 1, "only the [1] slice is ≤ glb=[2,3]");
        assert!(m.usage_bytes() < before);
        // The old slice is gone from the owner's list too.
        assert!(!m.snapshot_list(0).iter().any(|s| Arc::ptr_eq(s, &s_old)));
        assert_eq!(m.snapshot_list(0).len(), 1);
    }

    #[test]
    fn dead_threads_do_not_hold_back_gc() {
        let m = meta();
        m.register_thread();
        m.register_thread();
        m.publish_slice(slice(0, 0, &[1], 10));
        m.publish_vc(0, &VClock::from_components(vec![9, 9]));
        m.publish_vc(1, &VClock::new()); // never saw anything
        assert_eq!(m.run_gc().reclaimed_slices, 0);
        m.mark_dead(1);
        assert_eq!(m.run_gc().reclaimed_slices, 1);
    }

    #[test]
    fn gc_skips_the_scan_while_the_glb_stands_still() {
        let m = meta();
        m.register_thread();
        m.register_thread();
        m.publish_slice(slice(0, 0, &[1], 10));
        m.publish_vc(0, &VClock::from_components(vec![9, 9]));
        m.publish_vc(1, &VClock::from_components(vec![2, 3]));
        assert_eq!(m.run_gc().reclaimed_slices, 1);
        // A collectible slice the last scan did not see (time ≤ glb).
        // The runtime only publishes one right before its own pass with
        // an advanced glb; a pass with the same glb must not rescan.
        m.publish_slice(slice(0, 1, &[2], 10));
        let before = m.usage_bytes();
        assert_eq!(m.run_gc(), GcOutcome::default(), "glb unchanged: no scan");
        assert_eq!(m.usage_bytes(), before);
        assert_eq!(m.snapshot_list(0).len(), 1, "lists are not pruned either");
        assert_eq!(
            m.stats.snapshot().gc_count,
            2,
            "the skipped pass still counts"
        );
        // Once the glb advances, the next pass scans again.
        m.publish_vc(1, &VClock::from_components(vec![3, 3]));
        assert_eq!(m.run_gc().reclaimed_slices, 1);
        assert!(m.snapshot_list(0).is_empty());
    }

    #[test]
    fn gc_with_no_threads_is_noop() {
        let m = meta();
        assert_eq!(m.run_gc(), GcOutcome::default());
    }

    #[test]
    fn sync_var_table_is_keyed() {
        let m = meta();
        m.with_sync_var(SyncKey::Mutex(3), |v| {
            v.record_release(2, VClock::from_components(vec![0, 0, 7]));
        });
        let needs = m.with_sync_var(SyncKey::Mutex(3), |v| v.needs_propagation(0));
        assert!(needs);
        let fresh = m.with_sync_var(SyncKey::Mutex(4), |v| v.last_tid);
        assert_eq!(fresh, None);
    }

    #[test]
    fn sync_var_handles_are_stable_per_key() {
        let m = meta();
        let a = m.sync_var(SyncKey::Mutex(7));
        let b = m.sync_var(SyncKey::Mutex(7));
        assert!(Arc::ptr_eq(&a, &b), "same key must hand out one var");
        let c = m.sync_var(SyncKey::Cond(7));
        assert!(!Arc::ptr_eq(&a, &c), "different key class, different var");
        // Mutating through one handle is visible through the other.
        a.lock().record_release(3, VClock::from_components(vec![1]));
        assert_eq!(b.lock().last_tid, Some(3));
    }

    #[test]
    fn publish_slice_for_matches_publish_slice() {
        let m = meta();
        let owner = m.register_thread();
        let (s, _) = m.publish_slice_for(&owner, slice(0, 0, &[1], 4));
        assert_eq!(m.snapshot_list(0).len(), 1);
        assert!(Arc::ptr_eq(&m.snapshot_list(0)[0], &s));
    }

    #[test]
    fn output_collected_in_tid_order() {
        let m = meta();
        m.register_thread();
        m.register_thread();
        m.emit(1, b"world");
        m.emit(0, b"hello ");
        m.emit(1, b"!");
        assert_eq!(m.collect_output(), b"hello world!");
    }

    #[test]
    fn published_vc_roundtrip() {
        let m = meta();
        m.register_thread();
        let vc = VClock::from_components(vec![4, 2]);
        m.publish_vc(0, &vc);
        assert_eq!(m.published_vc(0), vc);
    }
}
