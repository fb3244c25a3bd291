//! The [`NativeBackend`] entry point.

use crate::ctx::{NativeCtx, NativeShared};
use rfdet_api::{DmtBackend, RunConfig, RunOutput, ThreadFn, TracedRun};
use std::sync::Arc;

/// Conventional nondeterministic multithreading ("pthreads" in the
/// paper's figures).
#[derive(Clone, Copy, Debug, Default)]
pub struct NativeBackend;

impl DmtBackend for NativeBackend {
    fn name(&self) -> String {
        "pthreads".to_owned()
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn run_traced(&self, cfg: &RunConfig, root: ThreadFn) -> TracedRun {
        let shared = Arc::new(NativeShared::new(cfg));
        let mut main = NativeCtx::new(Arc::clone(&shared));
        main.run(|main| root(main));
        // Harvest leaked (never-joined) threads so the run quiesces.
        rfdet_api::join_workers(|| shared.handles.lock().drain().map(|(_, h)| h).collect());
        // Flush the main context's trace buffer before assembly (worker
        // buffers flushed when their contexts dropped).
        drop(main);
        let mut result = match shared.sup.failure.take_run_error(&self.name()) {
            Some(err) => Err(err),
            None => Ok(RunOutput {
                output: shared.meta.collect_output(),
                stats: shared.meta.stats.snapshot(),
                metrics: None,
                races: Vec::new(),
            }),
        };
        let trace =
            rfdet_api::finish_trace(&self.name(), cfg, shared.trace_sink.as_ref(), &mut result);
        rfdet_api::finish_metrics(&self.name(), shared.obs.as_ref(), &mut result);
        TracedRun {
            result,
            trace,
            checkpoints: Vec::new(),
            warnings: Vec::new(),
        }
    }
}
