//! Poison-based run supervision for the native baseline.
//!
//! The native backend has no arbitration protocol to abort, so
//! supervision is cooperative: a failed run flips the poison flag, and
//! every blocking wait polls it on a short period (`POLL`). A panic is
//! therefore observed by parked peers within ~10ms; runs that stall
//! without a panic trip the wall-clock wedge fallback
//! (`RunConfig::deadlock_after_ms`). Unlike the deterministic backends
//! there is no structural deadlock detector — without a logical clock
//! the blocked-set scan cannot be made stable — so deadlocks surface as
//! `Wedged` here.

use parking_lot::Mutex;
use rfdet_api::{FailureKind, FailureReport, FaultPlan, RunConfig, RunError, ThreadReport, Tid};
use std::collections::BTreeMap;
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::{Duration, Instant};

/// Poll period of every supervised wait loop.
pub(crate) const POLL: Duration = Duration::from_millis(10);

/// Panic token used to tear down peers once the run is poisoned.
pub(crate) struct Poisoned;

/// Shared supervision state (one per run).
pub(crate) struct Supervision {
    pub fault_plan: FaultPlan,
    wedge_after: Option<Duration>,
    poisoned: AtomicBool,
    /// The root-cause failure. First writer wins; `backend` is filled
    /// in at teardown.
    failure: Mutex<Option<FailureReport>>,
    /// Best-effort states of threads that unwound after the root cause
    /// (excluded from the report digest).
    peers: Mutex<BTreeMap<Tid, ThreadReport>>,
}

impl Supervision {
    pub fn new(cfg: &RunConfig) -> Self {
        Self {
            fault_plan: cfg.fault_plan.clone(),
            wedge_after: cfg.deadlock_after(),
            poisoned: AtomicBool::new(false),
            failure: Mutex::new(None),
            peers: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(SeqCst)
    }

    /// Unwinds with a [`Poisoned`] token if the run has failed.
    pub fn check_poison(&self) {
        if self.is_poisoned() {
            panic_any(Poisoned);
        }
    }

    /// Deadline for the wedge fallback, armed when a wait starts.
    pub fn wedge_deadline(&self) -> Option<Instant> {
        self.wedge_after.map(|d| Instant::now() + d)
    }

    pub fn deadline_passed(deadline: Option<Instant>) -> bool {
        deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Records the run's root-cause failure (first writer wins) and
    /// poisons the run so every polling wait unwinds.
    fn record_failure(
        &self,
        kind: FailureKind,
        tid: Tid,
        message: String,
        culprit: Option<ThreadReport>,
    ) {
        {
            let mut slot = self.failure.lock();
            if slot.is_none() {
                *slot = Some(FailureReport {
                    backend: String::new(),
                    kind,
                    tid,
                    message,
                    culprit,
                    wait_graph: Vec::new(),
                    cycle: Vec::new(),
                    peers: Vec::new(),
                    trace_path: None,
                    warnings: Vec::new(),
                });
            } else if let Some(c) = culprit {
                self.peers.lock().entry(tid).or_insert(c);
            }
        }
        self.poisoned.store(true, SeqCst);
    }

    /// A worker (or the root) unwound. [`Poisoned`] tokens are the
    /// secondary unwinds of an already-failed run and only contribute
    /// peer diagnostics; anything else is a root-cause panic.
    pub fn record_worker_panic(
        &self,
        tid: Tid,
        payload: Box<dyn std::any::Any + Send>,
        report: ThreadReport,
    ) {
        if payload.is::<Poisoned>() {
            self.peers.lock().entry(tid).or_insert(report);
            return;
        }
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_owned()
        };
        self.record_failure(FailureKind::Panic, tid, message, Some(report));
    }

    /// A wait loop outlived the wall-clock bound.
    pub fn record_wedge(&self, tid: Tid, message: String) {
        self.record_failure(FailureKind::Wedged, tid, message, None);
    }

    /// Assembles the final [`RunError`] at teardown, if the run failed.
    pub fn take_run_error(&self, backend: &str) -> Option<RunError> {
        let mut f = self.failure.lock().take()?;
        f.backend = backend.to_owned();
        let tid = f.tid;
        f.peers = std::mem::take(&mut *self.peers.lock())
            .into_iter()
            .filter(|&(t, _)| t != tid)
            .map(|(_, r)| r)
            .collect();
        Some(RunError::from_report(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_failure_wins_and_poisons() {
        let sup = Supervision::new(&RunConfig::small());
        sup.record_worker_panic(1, Box::new("boom"), ThreadReport::default());
        sup.record_wedge(0, "late wedge".into());
        assert!(sup.is_poisoned());
        let err = sup.take_run_error("pthreads").expect("failure recorded");
        let r = err.report();
        assert_eq!(r.kind, FailureKind::Panic);
        assert_eq!(r.message, "boom");
        assert_eq!(r.backend, "pthreads");
    }

    #[test]
    fn poisoned_tokens_only_add_peer_diagnostics() {
        let sup = Supervision::new(&RunConfig::small());
        sup.record_worker_panic(2, Box::new(Poisoned), ThreadReport::default());
        assert!(!sup.is_poisoned(), "a secondary unwind is not a root cause");
        assert!(sup.take_run_error("pthreads").is_none());
    }

    #[test]
    #[should_panic]
    fn check_poison_unwinds_once_poisoned() {
        let sup = Supervision::new(&RunConfig::small());
        sup.record_wedge(0, "stuck".into());
        sup.check_poison();
    }
}
