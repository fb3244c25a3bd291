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

use parking_lot::{Condvar, MutexGuard};
use rfdet_api::{FailureKind, FailureSlot, FaultPlan, RunConfig, Tid};
use std::time::{Duration, Instant};

/// Poll period of every supervised wait loop.
const POLL: Duration = Duration::from_millis(10);

/// Shared supervision state (one per run).
pub(crate) struct Supervision {
    pub fault_plan: FaultPlan,
    wedge_after: Option<Duration>,
    /// The root-cause failure; its poison bit is what every polling
    /// wait checks.
    pub failure: FailureSlot,
}

impl Supervision {
    pub fn new(cfg: &RunConfig) -> Self {
        Self {
            fault_plan: cfg.fault_plan.clone(),
            wedge_after: cfg.deadlock_after(),
            failure: FailureSlot::default(),
        }
    }

    /// Waits on `cv` while `blocked` holds for the guarded state,
    /// polling every [`POLL`]: unwinds with a `Poisoned` token once the
    /// run has failed, and records a wedge (`tid` stuck `what`) once the
    /// wait outlives the wall-clock bound.
    pub fn wait_while<T>(
        &self,
        cv: &Condvar,
        g: &mut MutexGuard<'_, T>,
        tid: Tid,
        what: &str,
        blocked: impl Fn(&T) -> bool,
    ) {
        let deadline = self.wedge_after.map(|d| Instant::now() + d);
        while blocked(g) {
            self.failure.check_poison();
            let timed_out = cv.wait_for(g, POLL).timed_out();
            if timed_out && blocked(g) && deadline.is_some_and(|d| Instant::now() >= d) {
                self.record_wedge(tid, format!("native: thread {tid} stuck {what}"));
            }
        }
    }

    /// A wait loop outlived the wall-clock bound.
    pub fn record_wedge(&self, tid: Tid, message: String) {
        self.failure.record(
            FailureKind::Wedged,
            tid,
            message,
            None,
            Vec::new(),
            Vec::new(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn check_poison_unwinds_once_poisoned() {
        let sup = Supervision::new(&RunConfig::small());
        sup.record_wedge(0, "stuck".into());
        sup.failure.check_poison();
    }
}
