//! The [`RfdetBackend`] entry point.

use crate::ctx::RfdetCtx;
use crate::shared::RuntimeShared;
use rfdet_api::{DmtBackend, MonitorMode, RunConfig, RunOutput, ThreadFn, TracedRun};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The RFDet deterministic-multithreading backend.
///
/// Each [`DmtBackend::run`] call builds a fresh isolated runtime:
/// metadata space, Kendo arbitration state, and a main-thread context on
/// the calling thread. Worker threads are real OS threads; determinism
/// comes from the DLRC protocol, not from scheduling control.
#[derive(Clone, Copy, Debug, Default)]
pub struct RfdetBackend {
    /// Optional monitor-mode override applied on top of the run config
    /// (`Some(Ci)` → "RFDet-ci", `Some(Pf)` → "RFDet-pf").
    pub monitor_override: Option<MonitorMode>,
}

impl RfdetBackend {
    /// Backend preconfigured for compile-time-instrumentation monitoring.
    #[must_use]
    pub fn ci() -> Self {
        Self {
            monitor_override: Some(MonitorMode::Ci),
        }
    }

    /// Backend preconfigured for page-protection monitoring.
    #[must_use]
    pub fn pf() -> Self {
        Self {
            monitor_override: Some(MonitorMode::Pf),
        }
    }

    /// The configuration a run actually executes under: `cfg` with the
    /// monitor override applied and, when detecting races, slice merging
    /// off. Race detection's logical coordinates ride the sync-op
    /// counter and must mean the same thing on every backend: one sealed
    /// slice per sync op, no merged slices spanning several ops. The
    /// adjustment is semantics-neutral — the schedule and every digest
    /// are unchanged — which is what lets a detecting run stand in for a
    /// plain one. Checkpoints record this effective config, so fresh and
    /// resumed runs must both derive it here.
    pub(crate) fn effective_config(&self, cfg: &RunConfig) -> RunConfig {
        let mut cfg = cfg.clone();
        if let Some(m) = self.monitor_override {
            cfg.rfdet.monitor = m;
        }
        if cfg.detect_races {
            cfg.rfdet.slice_merging = false;
        }
        cfg
    }
}

impl DmtBackend for RfdetBackend {
    fn name(&self) -> String {
        match self.monitor_override {
            Some(MonitorMode::Ci) => "RFDet-ci".to_owned(),
            Some(MonitorMode::Pf) => "RFDet-pf".to_owned(),
            None => "RFDet".to_owned(),
        }
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn supports_lazy_writes(&self) -> bool {
        true
    }

    fn supports_checkpoints(&self) -> bool {
        true
    }

    fn supports_race_detection(&self) -> bool {
        true
    }

    fn run_traced(&self, cfg: &RunConfig, root: ThreadFn) -> TracedRun {
        let mut shared = RuntimeShared::new(self.effective_config(cfg));
        shared.backend_name = self.name();
        let shared = Arc::new(shared);
        let mut main = RfdetCtx::new_main(Arc::clone(&shared));
        let result = catch_unwind(AssertUnwindSafe(|| {
            root(&mut main);
            main.on_exit();
        }));
        if let Err(payload) = result {
            main.record_unwind(payload);
        }
        teardown(&self.name(), &shared, main)
    }
}

/// The shared tail of every core-backend run (fresh or resumed): harvest
/// workers, assemble the result, finish the trace and metrics, and drain
/// the checkpoint collector.
pub(crate) fn teardown(name: &str, shared: &Arc<RuntimeShared>, mut main: RfdetCtx) -> TracedRun {
    rfdet_api::join_workers(|| shared.os_handles.lock().drain().map(|(_, h)| h).collect());
    // Harvest the detector (main-thread state) before dropping the
    // context. By this point every joined worker's slices have been
    // applied at main, so the report list is sealed.
    let (races, races_truncated) = match main.detect.take() {
        Some(det) => {
            let (races, truncated) = det.finish();
            (races, truncated)
        }
        None => (Vec::new(), false),
    };
    // Flush the main context's trace buffer before assembling the
    // trace (worker buffers flushed when their contexts dropped).
    drop(main);
    let mut result = match shared.failure.take_run_error(name) {
        Some(err) => Err(err),
        None => Ok(RunOutput {
            output: shared.meta.collect_output(),
            stats: {
                let mut stats = shared.meta.stats.snapshot();
                // Arbitration counters live on the Kendo state, not
                // the per-thread contexts: fold them in here.
                (stats.handoff_scans, stats.handoff_wakes, stats.turn_parks) =
                    shared.kendo.handoff_counters();
                stats.gc_nudges = shared.kendo.gc_nudges();
                stats
            },
            metrics: None,
            races,
        }),
    };
    let trace = rfdet_api::finish_trace(name, &shared.cfg, shared.trace_sink.as_ref(), &mut result);
    rfdet_api::finish_metrics(name, shared.obs.as_ref(), &mut result);
    let (checkpoints, mut warnings) = shared.ckpt.take_results();
    if races_truncated {
        warnings.push(format!(
            "race reports truncated at {} — distinct racy pairs beyond the cap were not materialized",
            rfdet_mem::race::RaceCollector::DEFAULT_CAP
        ));
    }
    if let Err(e) = &mut result {
        e.report_mut().warnings.extend(warnings.iter().cloned());
    }
    TracedRun {
        result,
        trace,
        checkpoints,
        warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_api::{DmtCtx as _, DmtCtxExt, MutexId, RunError};

    fn small() -> RunConfig {
        let mut cfg = RunConfig::small();
        cfg.rfdet.fault_cost_spins = 0;
        cfg
    }

    #[test]
    fn names_reflect_monitor_mode() {
        assert_eq!(RfdetBackend::ci().name(), "RFDet-ci");
        assert_eq!(RfdetBackend::pf().name(), "RFDet-pf");
        assert_eq!(RfdetBackend::default().name(), "RFDet");
        assert!(RfdetBackend::ci().is_deterministic());
    }

    #[test]
    fn single_threaded_run_produces_output() {
        let out = RfdetBackend::ci().run_expect(
            &small(),
            Box::new(|ctx| {
                ctx.write::<u64>(128, 9);
                let v: u64 = ctx.read(128);
                ctx.emit_str(&format!("v={v}"));
            }),
        );
        assert_eq!(out.output, b"v=9");
        assert_eq!(out.stats.stores, 1);
        assert_eq!(out.stats.loads, 1);
    }

    #[test]
    fn spawn_join_propagates_child_writes() {
        let out = RfdetBackend::ci().run_expect(
            &small(),
            Box::new(|ctx| {
                let h = ctx.spawn(Box::new(|ctx| {
                    ctx.write::<u64>(256, 1234);
                }));
                ctx.join(h);
                let v: u64 = ctx.read(256);
                ctx.emit_str(&format!("{v}"));
            }),
        );
        assert_eq!(out.output, b"1234");
        assert_eq!(out.stats.forks, 1);
        assert_eq!(out.stats.joins, 1);
    }

    #[test]
    fn child_inherits_parent_memory_at_fork() {
        let out = RfdetBackend::ci().run_expect(
            &small(),
            Box::new(|ctx| {
                ctx.write::<u64>(64, 77);
                let h = ctx.spawn(Box::new(|ctx| {
                    let v: u64 = ctx.read(64);
                    ctx.emit_str(&format!("child={v};"));
                }));
                ctx.write::<u64>(64, 88); // after fork: child must not see
                ctx.join(h);
                ctx.emit_str("done;");
            }),
        );
        // Output streams concatenate in tid order: main (0) then child (1).
        assert_eq!(out.output, b"done;child=77;");
    }

    #[test]
    fn mutex_critical_sections_compose() {
        let out = RfdetBackend::ci().run_expect(
            &small(),
            Box::new(|ctx| {
                let m = MutexId(1);
                let handles: Vec<_> = (0..3)
                    .map(|_| {
                        ctx.spawn(Box::new(move |ctx| {
                            for _ in 0..50 {
                                ctx.lock(m);
                                let v: u64 = ctx.read(512);
                                ctx.tick(5);
                                ctx.write(512, v + 1);
                                ctx.unlock(m);
                            }
                        }))
                    })
                    .collect();
                for h in handles {
                    ctx.join(h);
                }
                let v: u64 = ctx.read(512);
                ctx.emit_str(&format!("{v}"));
            }),
        );
        assert_eq!(out.output, b"150");
        assert_eq!(out.stats.locks, 150);
        assert_eq!(out.stats.unlocks, 150);
    }

    /// Runs a mixed locked/racy workload on a hand-built runtime (the
    /// backend doesn't expose its `RuntimeShared`) and returns the full
    /// published slice stream as `(tid, seq, mods)` triples.
    fn published_mods(seed: Option<u64>) -> Vec<(u32, u64, Vec<rfdet_mem::ModRun>)> {
        let mut cfg = small();
        cfg.jitter_seed = seed;
        cfg.jitter_max_us = 20;
        cfg.meta_capacity_bytes = 64 << 20; // headroom: no GC pruning mid-run
        let shared = Arc::new(RuntimeShared::new(cfg));
        let mut main = RfdetCtx::new_main(Arc::clone(&shared));
        let m = MutexId(3);
        let handles: Vec<_> = (0..3u64)
            .map(|i| {
                main.spawn(Box::new(move |ctx| {
                    for k in 0..40u64 {
                        ctx.lock(m);
                        let v: u64 = ctx.read(2048);
                        ctx.write(2048, v.wrapping_mul(31).wrapping_add(i + k));
                        ctx.unlock(m);
                        // Racy unlocked traffic on a second page.
                        ctx.write(6144 + 8 * i, k + 1);
                        ctx.tick(i + 1);
                    }
                }))
            })
            .collect();
        for h in handles {
            main.join(h);
        }
        main.on_exit();
        loop {
            let hs: Vec<_> = {
                let mut map = shared.os_handles.lock();
                map.drain().map(|(_, h)| h).collect()
            };
            if hs.is_empty() {
                break;
            }
            for h in hs {
                let _ = h.join();
            }
        }
        let mut all = Vec::new();
        for tid in 0..4 {
            for s in shared.meta.snapshot_list(tid) {
                all.push((s.tid, s.seq, s.mods.to_vec()));
            }
        }
        all
    }

    /// Determinism at the metadata layer: the published `ModRun` stream —
    /// not just program output — must be bit-identical across jittered
    /// schedules. Identical output can mask divergent propagation;
    /// identical run lists cannot. This also pins the chunked diff kernel
    /// and snapshot pooling as schedule-independent.
    #[test]
    fn published_mod_run_lists_are_identical_across_jittered_schedules() {
        let baseline = published_mods(None);
        assert!(
            baseline.len() > 100,
            "workload must publish a real slice stream, got {} slices",
            baseline.len()
        );
        for seed in [4u64, 5, 42] {
            assert_eq!(
                published_mods(Some(seed)),
                baseline,
                "jitter seed {seed} changed the published ModRun stream"
            );
        }
    }

    #[test]
    fn worker_panic_becomes_typed_error() {
        let err = RfdetBackend::ci()
            .run(
                &small(),
                Box::new(|ctx| {
                    let h = ctx.spawn(Box::new(|_ctx| {
                        panic!("worker exploded");
                    }));
                    ctx.join(h);
                }),
            )
            .expect_err("worker panic must fail the run");
        assert!(matches!(err, RunError::WorkerPanicked(_)));
        let r = err.report();
        assert_eq!(r.tid, 1, "the worker, not the joining main thread");
        assert_eq!(r.message, "worker exploded");
        assert!(r.culprit.is_some(), "culprit state captured");
    }
}
