//! The [`DthreadsBackend`] entry point and the shared lockstep driver.

use crate::ctx::DtCtx;
use crate::engine::{Engine, EngineMode};
use rfdet_api::{DmtBackend, RunConfig, RunOutput, ThreadFn, TracedRun};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Drives one complete run of the lockstep engine in `mode`. Shared by
/// the DThreads and quantum backends (`backend` names the caller in
/// failure reports).
pub fn run_lockstep(cfg: &RunConfig, mode: EngineMode, backend: &str, root: ThreadFn) -> TracedRun {
    let engine = Arc::new(Engine::new(cfg, mode));
    let (tid, image) = engine.register_main();
    let mut main = DtCtx::new(Arc::clone(&engine), tid, image);
    let result = catch_unwind(AssertUnwindSafe(|| {
        root(&mut main);
        main.exit();
    }));
    if let Err(payload) = result {
        main.record_unwind(payload);
    }
    rfdet_api::join_workers(|| engine.handles.lock().drain().map(|(_, h)| h).collect());
    // Flush the main context's trace buffer before assembly (worker
    // buffers flushed when their contexts dropped).
    drop(main);
    let (races, races_truncated) = engine.take_races();
    let mut warnings = Vec::new();
    if races_truncated {
        warnings.push(format!(
            "race reports truncated at {} — epoch checks continued, but later races went unrecorded",
            rfdet_mem::race::RaceCollector::DEFAULT_CAP
        ));
    }
    let mut result = match engine.failure.take_run_error(backend) {
        Some(err) => Err(err),
        None => {
            // Report the global store's materialized size as the run's
            // shared footprint (workloads lay data out directly, so
            // allocator byte counts alone would under-report).
            engine.meta.stats.shared_bytes.fetch_add(
                engine.global_store_bytes(),
                std::sync::atomic::Ordering::Relaxed,
            );
            Ok(RunOutput {
                output: engine.meta.collect_output(),
                stats: engine.meta.stats.snapshot(),
                metrics: None,
                races,
            })
        }
    };
    let trace = rfdet_api::finish_trace(backend, cfg, engine.trace_sink.as_ref(), &mut result);
    rfdet_api::finish_metrics(backend, engine.obs.as_ref(), &mut result);
    TracedRun {
        result,
        trace,
        checkpoints: Vec::new(),
        warnings,
    }
}

/// The DThreads-model backend: strong determinism via isolated threads,
/// a global fence at every synchronization operation, and serial
/// token-order commits (paper §2; compared against throughout §5).
#[derive(Clone, Copy, Debug, Default)]
pub struct DthreadsBackend;

impl DmtBackend for DthreadsBackend {
    fn name(&self) -> String {
        "DThreads".to_owned()
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn supports_race_detection(&self) -> bool {
        true
    }

    fn run_traced(&self, cfg: &RunConfig, root: ThreadFn) -> TracedRun {
        run_lockstep(cfg, EngineMode::SyncOnly, &self.name(), root)
    }
}
