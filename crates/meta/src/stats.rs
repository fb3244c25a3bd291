//! Lock-free profiling counters.

use rfdet_api::Stats;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

macro_rules! atomic_stats {
    ($($field:ident),* $(,)?) => {
        /// Shared, lock-free mirror of [`rfdet_api::Stats`].
        ///
        /// Hot paths keep thread-local `Stats` and flush them here at
        /// thread exit; slow paths (GC, fences) update directly.
        #[derive(Debug, Default)]
        pub struct AtomicStats {
            $(
                #[doc = concat!("See [`Stats::", stringify!($field), "`].")]
                pub $field: AtomicU64,
            )*
            /// See [`Stats::peak_meta_bytes`]. Updated via `fetch_max`.
            pub peak_meta_bytes: AtomicU64,
        }

        impl AtomicStats {
            /// Adds a thread-local `Stats` into the shared aggregate.
            pub fn merge(&self, s: &Stats) {
                $( self.$field.fetch_add(s.$field, Relaxed); )*
                self.peak_meta_bytes.fetch_max(s.peak_meta_bytes, Relaxed);
            }

            /// Reads out a consistent-enough snapshot (run has quiesced).
            #[must_use]
            pub fn snapshot(&self) -> Stats {
                Stats {
                    $( $field: self.$field.load(Relaxed), )*
                    peak_meta_bytes: self.peak_meta_bytes.load(Relaxed),
                }
            }

            /// Raises the metadata-usage peak.
            pub fn note_meta_bytes(&self, bytes: u64) {
                self.peak_meta_bytes.fetch_max(bytes, Relaxed);
            }
        }
    };
}

atomic_stats!(
    locks,
    unlocks,
    waits,
    signals,
    forks,
    joins,
    barriers,
    atomics,
    loads,
    stores,
    stores_with_copy,
    page_faults,
    shared_bytes,
    gc_count,
    gc_reclaimed_slices,
    slices,
    slices_merged,
    slices_propagated,
    slices_filtered_redundant,
    mod_bytes_applied,
    prelock_premerged,
    lazy_deferred_bytes,
    lazy_elided_bytes,
    lazy_protect_calls,
    diff_bytes_scanned,
    snapshot_bytes_copied,
    snapshot_pool_hits,
    snapshot_pool_misses,
    global_fences,
    serial_commits,
    private_pages,
    sync_var_cache_hits,
    sync_var_cache_misses,
    shard_lock_contended,
    queue_lock_contended,
    checkpoints_contributed,
    app_retries,
    app_shed,
    handoff_scans,
    handoff_wakes,
    turn_parks,
    gc_nudges,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_snapshot() {
        let a = AtomicStats::default();
        let s1 = Stats {
            locks: 3,
            stores: 10,
            peak_meta_bytes: 100,
            ..Stats::default()
        };
        let s2 = Stats {
            locks: 2,
            peak_meta_bytes: 50,
            private_pages: 7,
            ..Stats::default()
        };
        a.merge(&s1);
        a.merge(&s2);
        let out = a.snapshot();
        assert_eq!(out.locks, 5);
        assert_eq!(out.stores, 10);
        assert_eq!(out.peak_meta_bytes, 100, "peaks take max");
        assert_eq!(out.private_pages, 7);
    }

    #[test]
    fn note_peaks_monotone() {
        let a = AtomicStats::default();
        a.note_meta_bytes(10);
        a.note_meta_bytes(5);
        let s = a.snapshot();
        assert_eq!(s.peak_meta_bytes, 10);
    }
}
