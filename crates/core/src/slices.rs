//! Slice lifecycle (paper §4.2).
//!
//! A *slice* is a synchronization-free interval of one thread's execution.
//! Every synchronization operation ends the current slice: the pages
//! snapshotted by the store instrumentation are diffed byte-by-byte
//! against their current contents, the resulting modification list is
//! sealed into a [`rfdet_meta::SliceRec`] stamped with the slice's vector
//! time, and the record is published to the metadata space.

use crate::ctx::RfdetCtx;
use rfdet_api::obs::Phase;
use rfdet_api::MonitorMode;
use rfdet_mem::{diff, PageFlags};
use rfdet_meta::SliceRec;

/// Capacity of the per-thread snapshot buffer pool, in page buffers.
/// `end_slice` recycles snapshot buffers here after diffing, so
/// steady-state slices take page snapshots with zero allocations.
pub(crate) const SNAP_POOL_PAGES: usize = 256;

impl RfdetCtx {
    /// Ends the current slice: diff, seal, publish. Runs GC if the
    /// publication crossed the metadata threshold (§4.5). Snapshot
    /// buffers are recycled into the bounded pool after diffing, so the
    /// next slice's first writes snapshot allocation-free.
    pub(crate) fn end_slice(&mut self) {
        // One clock read serves as the end of the *previous* boundary
        // phase (WaitTurn, usually), the slice-wall end, and the diff
        // start (clock reads dominate observation cost on sync-dense
        // runs, so adjacent phase boundaries share them).
        let diff_t0 = self.obs_boundary_start();
        if let (Some(t0), Some(now)) = (self.slice_t0.take(), diff_t0) {
            let ops = (self.stats.loads + self.stats.stores).saturating_sub(self.slice_ops_base);
            self.obs_count(Phase::SliceOps, ops);
            self.obs_count(Phase::SliceWall, now.duration_since(t0).as_nanos() as u64);
        }
        let mut mods = Vec::new();
        let snapshots = std::mem::take(&mut self.snapshots);
        // BTreeMap iteration is page-index order — the deterministic
        // modification order within a slice.
        for (page, snap) in snapshots {
            if let Some(current) = self.space.page(page) {
                diff::diff_page(
                    self.space.page_base(page),
                    &snap,
                    current.bytes(),
                    &mut mods,
                );
                self.stats.diff_bytes_scanned += self.shared.cfg.page_size;
            }
            // else: snapshot taken but page never materialized —
            // impossible through the write path, and harmless (no diff).
            if self.snap_pool.len() < SNAP_POOL_PAGES {
                self.snap_pool.push(snap);
            }
        }
        self.stats.slices += 1;
        self.obs_since_boundary(Phase::Diff, diff_t0);
        // Race detection seals the slice's word-read set alongside the
        // diff. Read-only slices must then publish too — a remote read
        // can race a write, and the detecting thread only sees accesses
        // that reach it as published slices. Their empty mod list applies
        // as a no-op everywhere, so propagation results are unchanged.
        let reads = if self.track_reads {
            self.read_set.seal(self.shared.cfg.page_size)
        } else {
            Vec::new()
        };
        if !mods.is_empty() || !reads.is_empty() {
            let mut rec = SliceRec::new(self.tid, self.slice_seq, self.slice_start.clone(), mods);
            if self.track_reads {
                rec = rec.with_access(reads, self.sync_ops, self.in_atomic);
            }
            // Main's own slices never come back to it through propagation
            // — observe them at the seal (the detector lives on tid 0).
            if let Some(det) = self.detect.as_mut() {
                det.observe_slice(&rec);
            }
            let (_slice, gc_needed) = self.shared.meta.publish_slice_for(&self.meta_thread, rec);
            // Defer the pass itself: end_slice runs inside the Kendo
            // turn, and a GC scan there would serialize every thread.
            self.gc_pending |= gc_needed;
        }
        self.slice_seq += 1;
    }

    /// Runs a deferred GC pass (call off-turn). A pass that reclaims
    /// nothing is pinned by some thread's stale published clock, usually
    /// a parked joiner or lock waiter: nudge the parked threads so their
    /// prelock pre-merge advances it now rather than at the next idle
    /// re-check (§4.4).
    pub(crate) fn run_pending_gc(&mut self) {
        if self.gc_pending {
            self.gc_pending = false;
            if self.shared.meta.run_gc().reclaimed_slices == 0 {
                self.shared.kendo.nudge_blocked();
            }
        }
    }

    /// Starts a new slice at the current vector clock. In `pf` mode this
    /// re-protects the whole space so first writes fault (§4.2: "protect
    /// shared memory with no write permission at the beginning of each
    /// slice").
    pub(crate) fn begin_slice(&mut self) {
        // Consume (not re-store) the boundary: the new slice starts at
        // the previous phase's end read, and whatever runs next is user
        // code, not an adjacent instrumented phase.
        self.slice_t0 = self.obs_boundary_start();
        self.slice_ops_base = self.stats.loads + self.stats.stores;
        self.slice_start = self.vc.clone();
        debug_assert!(self.snapshots.is_empty(), "begin_slice with open snapshots");
        if self.shared.cfg.rfdet.monitor == MonitorMode::Pf {
            self.flags.protect_all(PageFlags::WRITE_PROTECT);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::shared::RuntimeShared;
    use crate::RfdetCtx;
    use rfdet_api::{DmtBackend as _, DmtCtx as _, DmtCtxExt, MonitorMode, RunConfig};
    use std::sync::Arc;

    fn ctx_with(monitor: MonitorMode) -> RfdetCtx {
        let mut cfg = RunConfig::small();
        cfg.rfdet.monitor = monitor;
        cfg.rfdet.fault_cost_spins = 0;
        RfdetCtx::new_main(Arc::new(RuntimeShared::new(cfg)))
    }

    #[test]
    fn first_write_snapshots_page_ci() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        ctx.write::<u64>(100, 7);
        assert_eq!(ctx.stats.stores_with_copy, 1);
        ctx.write::<u64>(108, 8); // same page: no second snapshot
        assert_eq!(ctx.stats.stores_with_copy, 1);
        ctx.write::<u64>(5000, 9); // second page
        assert_eq!(ctx.stats.stores_with_copy, 2);
        assert_eq!(ctx.stats.stores, 3);
    }

    #[test]
    fn pf_mode_counts_faults() {
        let mut ctx = ctx_with(MonitorMode::Pf);
        ctx.write::<u64>(100, 7);
        ctx.write::<u64>(108, 8);
        assert_eq!(ctx.stats.page_faults, 1, "one fault per page per slice");
        assert_eq!(ctx.stats.stores_with_copy, 1);
    }

    #[test]
    fn end_slice_publishes_byte_diffs() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        ctx.write::<u32>(16, 0xAABBCCDD);
        ctx.end_slice();
        let list = ctx.shared.meta.snapshot_list(0);
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].mod_bytes(), 4);
        assert_eq!(list[0].tid, 0);
        assert_eq!(list[0].time, ctx.vc, "slice stamped with its start time");
    }

    #[test]
    fn redundant_writes_publish_nothing() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        // Write zero over fresh (zero) memory — §4.6: the slice must be
        // empty and is not published.
        ctx.write::<u64>(64, 0);
        ctx.end_slice();
        assert!(ctx.shared.meta.snapshot_list(0).is_empty());
        assert_eq!(ctx.stats.slices, 1, "the slice still happened");
    }

    #[test]
    fn slice_seq_advances_and_snapshots_reset() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        ctx.write::<u8>(0, 1);
        ctx.end_slice();
        ctx.begin_slice();
        ctx.write::<u8>(1, 2);
        assert_eq!(
            ctx.stats.stores_with_copy, 2,
            "same page snapshots again in a new slice"
        );
        ctx.end_slice();
        let list = ctx.shared.meta.snapshot_list(0);
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].seq, 0);
        assert_eq!(list[1].seq, 1);
    }

    #[test]
    fn pf_reprotects_each_slice() {
        let mut ctx = ctx_with(MonitorMode::Pf);
        ctx.write::<u8>(0, 1);
        ctx.end_slice();
        ctx.begin_slice();
        ctx.write::<u8>(0, 2);
        assert_eq!(ctx.stats.page_faults, 2);
    }

    #[test]
    fn steady_state_slices_hit_the_snapshot_pool() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        // First slice: cold pool, one miss per snapshotted page.
        ctx.write::<u64>(0, 1);
        ctx.write::<u64>(4096, 2);
        assert_eq!(ctx.stats.snapshot_pool_misses, 2);
        assert_eq!(ctx.stats.snapshot_pool_hits, 0);
        ctx.end_slice();
        ctx.begin_slice();
        // Steady state: both buffers come back from the pool.
        ctx.write::<u64>(0, 3);
        ctx.write::<u64>(4096, 4);
        assert_eq!(ctx.stats.snapshot_pool_hits, 2);
        assert_eq!(ctx.stats.snapshot_pool_misses, 2);
        let page = ctx.shared.cfg.page_size;
        assert_eq!(ctx.stats.snapshot_bytes_copied, 4 * page);
        ctx.end_slice();
        assert_eq!(ctx.stats.diff_bytes_scanned, 4 * page);
    }

    #[test]
    fn reads_do_not_snapshot() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        let _: u64 = ctx.read(128);
        assert_eq!(ctx.stats.stores_with_copy, 0);
        assert_eq!(ctx.stats.loads, 1);
        ctx.end_slice();
        assert!(ctx.shared.meta.snapshot_list(0).is_empty());
    }

    /// Peak metadata bytes of a run where main parks in `join` while its
    /// only worker publishes `slices` one-write slices.
    fn joiner_peak_meta_bytes(prelock: bool, slices: u32) -> u64 {
        let mut cfg = RunConfig::small();
        cfg.rfdet.fault_cost_spins = 0;
        cfg.rfdet.prelock = prelock;
        // Room for every slice below the byte trigger: only the
        // live-slice count triggers GC.
        cfg.meta_capacity_bytes = 64 << 20;
        // One published slice per unlock, not one merged slice per run.
        cfg.rfdet.slice_merging = false;
        let out = crate::RfdetBackend::ci().run_expect(
            &cfg,
            Box::new(move |ctx| {
                let h = ctx.spawn(Box::new(move |ctx| {
                    let m = rfdet_api::MutexId(1);
                    for i in 0..slices {
                        ctx.lock(m);
                        ctx.write::<u64>(8 * u64::from(i % 64), u64::from(i) + 1);
                        ctx.unlock(m);
                    }
                }));
                ctx.join(h);
            }),
        );
        out.stats.peak_meta_bytes
    }

    #[test]
    fn gc_nudges_keep_a_parked_joiner_from_pinning_metadata() {
        // Main's published clock pins the glb until it pre-merges. Without
        // prelock it never does, so every slice stays live: that run is
        // the yardstick. With prelock, each GC pass that reclaims nothing
        // nudges main to pre-merge at once, instead of at its next
        // 20 ms idle re-check (long after this worker has finished).
        let slices = 12 * rfdet_meta::MAX_LIVE_SLICES as u32;
        let pinned = joiner_peak_meta_bytes(false, slices);
        let nudged = joiner_peak_meta_bytes(true, slices);
        assert!(
            nudged * 2 < pinned,
            "a nudged joiner must unpin GC: peak {nudged} B vs {pinned} B pinned"
        );
    }

    #[test]
    fn alloc_tracks_shared_bytes() {
        let mut ctx = ctx_with(MonitorMode::Ci);
        let a = ctx.alloc(100, 8);
        assert!(a >= rfdet_mem::heap_base(ctx.shared.cfg.space_bytes));
        assert_eq!(ctx.stats.shared_bytes, 100);
        ctx.dealloc(a);
    }
}
