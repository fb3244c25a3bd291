//! Run supervision: panics, deadlocks and wedges become typed failures.
//!
//! The supervisor turns the three ways a deterministic run can die into
//! a [`RunError`] with every parked thread woken in bounded time:
//!
//! * **Panic** — the unwinding thread records its payload and
//!   deterministic state here, then flips the Kendo abort flag, which
//!   wakes every thread spinning in `wait_for_turn` or parked on a slot
//!   condvar. First panic wins; the secondary "run aborted" unwinds it
//!   triggers in peers only contribute best-effort peer diagnostics.
//! * **Deadlock** — parked threads periodically run [`RuntimeShared::
//!   check_deadlock`] from their idle callback. An epoch-stable Kendo
//!   scan showing *every* live thread `Blocked` proves a stable
//!   deadlock (a blocked thread never wakes another, so the state can
//!   only persist); the wait-for graph is then read off the
//!   deterministic sync queues — no wall clock involved.
//! * **Wedge** — the wall-clock fallback (`deadlock_after_ms`) still
//!   exists for runs that starve without a provable deadlock; the
//!   kendo timeout panic is classified here by its message prefix.

use crate::ctx::RfdetCtx;
use crate::shared::RuntimeShared;
use parking_lot::Mutex;
use rfdet_api::{FailureKind, FailureReport, RunError, ThreadReport, Tid, WaitEdge, WaitTarget};
use std::collections::BTreeMap;

/// A failure recorded mid-run, before it is assembled into a
/// [`FailureReport`] at teardown.
#[derive(Debug)]
pub(crate) struct PendingFailure {
    pub kind: FailureKind,
    pub tid: Tid,
    pub message: String,
    pub culprit: Option<ThreadReport>,
    pub wait_graph: Vec<WaitEdge>,
    pub cycle: Vec<Tid>,
}

/// Shared supervision state (one per run).
#[derive(Debug, Default)]
pub(crate) struct Supervisor {
    /// The root cause. First writer wins.
    pub failure: Mutex<Option<PendingFailure>>,
    /// Best-effort states of threads that unwound *after* the root
    /// cause was recorded (excluded from the report digest).
    pub peers: Mutex<BTreeMap<Tid, ThreadReport>>,
}

/// Extracts a printable message from a panic payload.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Classifies a panic message into a root-cause kind, or `None` for the
/// secondary unwinds the abort flag itself produces.
fn classify(message: &str) -> Option<FailureKind> {
    if message.starts_with("kendo: run aborted") {
        None
    } else if message.starts_with("kendo: thread") {
        // The wall-clock starvation/park timeouts.
        Some(FailureKind::Wedged)
    } else {
        Some(FailureKind::Panic)
    }
}

impl RuntimeShared {
    /// Records a thread's unwind (first root cause wins) and aborts the
    /// arbitration protocol so every other thread wakes and unwinds too.
    pub fn record_panic(
        &self,
        tid: Tid,
        payload: Box<dyn std::any::Any + Send>,
        state: Option<ThreadReport>,
    ) {
        let message = payload_message(payload.as_ref());
        {
            let mut slot = self.supervisor.failure.lock();
            match (slot.is_none(), classify(&message)) {
                (true, Some(kind)) => {
                    *slot = Some(PendingFailure {
                        kind,
                        tid,
                        message,
                        culprit: state,
                        wait_graph: Vec::new(),
                        cycle: Vec::new(),
                    });
                }
                _ => {
                    // Secondary unwind: keep the state as a diagnostic.
                    if let Some(s) = state {
                        self.supervisor.peers.lock().entry(tid).or_insert(s);
                    }
                }
            }
        }
        self.kendo.set_abort();
        self.kendo.finish_forced(tid);
    }

    /// Structural deadlock detection, run by parked threads from their
    /// park-idle callback. Cheap when the run is alive: one epoch-stable
    /// status scan that bails at the first `Active` thread.
    pub fn check_deadlock(&self) {
        if self.kendo.aborted() {
            return;
        }
        let Some(blocked) = self.kendo.blocked_snapshot() else {
            return;
        };
        // Every live thread is provably, permanently blocked. Read the
        // wait-for graph off the deterministic queues: this state is a
        // pure function of the schedule, so the resulting report (and
        // its digest) reproduces across reruns.
        let wait_graph = self.wait_graph();
        let cycle = FailureReport::find_cycle(&wait_graph);
        let tid = blocked.first().copied().unwrap_or(0);
        let message = if cycle.is_empty() {
            format!(
                "all {} live threads blocked with no possible waker",
                blocked.len()
            )
        } else {
            let cyc: Vec<String> = cycle.iter().map(|t| format!("t{t}")).collect();
            format!("wait-for cycle {}", cyc.join(" -> "))
        };
        {
            let mut slot = self.supervisor.failure.lock();
            if slot.is_none() {
                *slot = Some(PendingFailure {
                    kind: FailureKind::Deadlock,
                    tid,
                    message,
                    culprit: None,
                    wait_graph,
                    cycle,
                });
            }
        }
        self.kendo.set_abort();
    }

    /// One wait-for edge per blocked thread, read from the sync queues,
    /// sorted by waiter tid. Only sound once `blocked_snapshot`
    /// succeeded (the queues are then quiescent).
    fn wait_graph(&self) -> Vec<WaitEdge> {
        let mut edges = Vec::new();
        {
            let mxs = self.queues.mutexes.lock();
            let mut ids: Vec<u32> = mxs.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let mx = &mxs[&id];
                for &w in &mx.queue {
                    edges.push(WaitEdge {
                        waiter: w,
                        target: WaitTarget::Mutex {
                            id,
                            holder: mx.owner,
                        },
                    });
                }
            }
        }
        {
            let conds = self.queues.conds.lock();
            let mut ids: Vec<u32> = conds.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                for &(w, _) in &conds[&id] {
                    edges.push(WaitEdge {
                        waiter: w,
                        target: WaitTarget::Cond { id },
                    });
                }
            }
        }
        {
            let barriers = self.queues.barriers.lock();
            let mut ids: Vec<u32> = barriers.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                for &(w, _) in barriers[&id].arrivals.iter() {
                    edges.push(WaitEdge {
                        waiter: w,
                        target: WaitTarget::Barrier { id },
                    });
                }
            }
        }
        {
            let joins = self.queues.joins.lock();
            let mut targets: Vec<Tid> = joins.waiters.keys().copied().collect();
            targets.sort_unstable();
            for target in targets {
                for &w in &joins.waiters[&target] {
                    edges.push(WaitEdge {
                        waiter: w,
                        target: WaitTarget::Join { target },
                    });
                }
            }
        }
        edges.sort_by_key(|e| e.waiter);
        edges
    }

    /// Assembles the final [`RunError`] at teardown, if the run failed.
    pub fn take_run_error(&self, backend: &str) -> Option<RunError> {
        let f = self.supervisor.failure.lock().take()?;
        let peers = std::mem::take(&mut *self.supervisor.peers.lock());
        Some(RunError::from_report(FailureReport {
            backend: backend.to_owned(),
            kind: f.kind,
            tid: f.tid,
            message: f.message,
            culprit: f.culprit,
            wait_graph: f.wait_graph,
            cycle: f.cycle,
            peers: peers
                .into_iter()
                .filter(|&(t, _)| t != f.tid)
                .map(|(_, r)| r)
                .collect(),
            trace_path: None,
            warnings: Vec::new(),
        }))
    }
}

impl RfdetCtx {
    /// Entry hook of every synchronization operation: counts the op,
    /// remembers it for failure reports, and applies any fault the
    /// configured [`rfdet_api::FaultPlan`] attaches to this point.
    /// Runs *before* `wait_for_turn`, so an injected panic lands at a
    /// deterministic point of this thread's execution regardless of the
    /// global turn order.
    pub(crate) fn fault_point(&mut self, kind: &'static str, arg: Option<u64>) {
        let op = self.sync_ops;
        self.sync_ops += 1;
        self.last_op = Some((kind, arg));
        if let Some(buf) = &mut self.trace {
            // The clock read here is deterministic: a thread's clock
            // changes only through its own ticks and deterministic wake
            // handoffs, so its value at a program point is schedule-pure.
            // Recorded *before* plan jitter ticks, so recorded and
            // replayed streams key to the same pre-fault clocks.
            buf.push(rfdet_api::trace::TraceEvent {
                tid: self.tid,
                op,
                kind: rfdet_api::trace::op::code(kind),
                arg,
                clock: self.kendo.clock(),
            });
        }
        let plan = &self.shared.cfg.fault_plan;
        if !plan.is_empty() {
            let f = plan.on_sync_op(self.tid, op);
            if f.jitter_ticks > 0 {
                self.shared.kendo.tick_off_turn(&self.kendo, f.jitter_ticks);
            }
            if f.panic {
                panic!("{}", rfdet_api::FaultPlan::panic_message(self.tid, op));
            }
        }
    }

    /// Allocation hook for `FaultPlan::fail_alloc`.
    pub(crate) fn alloc_fault_point(&mut self) {
        let nth = self.allocs;
        self.allocs += 1;
        if let Some(buf) = &mut self.trace {
            buf.push(rfdet_api::trace::TraceEvent {
                tid: self.tid,
                op: nth,
                kind: rfdet_api::trace::op::ALLOC,
                arg: None,
                clock: self.kendo.clock(),
            });
        }
        if !self.shared.cfg.fault_plan.is_empty()
            && self.shared.cfg.fault_plan.on_alloc(self.tid, nth)
        {
            panic!(
                "{}",
                rfdet_api::FaultPlan::alloc_panic_message(self.tid, nth)
            );
        }
    }

    /// This thread's deterministic progress summary for failure reports.
    pub(crate) fn thread_report(&self) -> ThreadReport {
        ThreadReport {
            tid: self.tid,
            vc: self.vc.clone(),
            slices: self.slice_seq,
            sync_ops: self.sync_ops,
            last_op: self.last_op.map(|(k, a)| match a {
                Some(a) => format!("{k}({a})"),
                None => k.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdet_api::RunConfig;

    fn shared() -> RuntimeShared {
        let mut cfg = RunConfig::small();
        cfg.rfdet.fault_cost_spins = 0;
        RuntimeShared::new(cfg)
    }

    #[test]
    fn first_panic_wins_later_ones_become_peer_diagnostics() {
        let s = shared();
        let _h = s.kendo.register(0);
        let _h2 = s.kendo.register(1);
        s.record_panic(0, Box::new("first"), None);
        s.record_panic(
            1,
            Box::new("second".to_owned()),
            Some(ThreadReport {
                tid: 1,
                ..ThreadReport::default()
            }),
        );
        assert!(s.kendo.aborted());
        let err = s.take_run_error("test").expect("failure recorded");
        let r = err.report();
        assert_eq!(r.kind, FailureKind::Panic);
        assert_eq!(r.tid, 0);
        assert_eq!(r.message, "first");
        assert_eq!(r.peers.len(), 1, "second panic kept as diagnostic");
        assert_eq!(r.peers[0].tid, 1);
    }

    #[test]
    fn secondary_abort_unwinds_are_not_root_causes() {
        let s = shared();
        let _h = s.kendo.register(0);
        s.record_panic(
            0,
            Box::new(
                "kendo: run aborted by supervisor (peer panic, deadlock, or wedge)".to_owned(),
            ),
            None,
        );
        assert!(s.kendo.aborted(), "abort still propagates");
        assert!(
            s.take_run_error("test").is_none(),
            "no root cause recorded from a secondary unwind"
        );
    }

    #[test]
    fn kendo_timeout_classifies_as_wedged() {
        let s = shared();
        let _h = s.kendo.register(0);
        s.record_panic(
            0,
            Box::new("kendo: thread 0 starved waiting for its turn".to_owned()),
            None,
        );
        let err = s.take_run_error("test").expect("wedge recorded");
        assert!(matches!(err, RunError::Wedged(_)));
    }

    #[test]
    fn check_deadlock_builds_graph_and_cycle_from_queues() {
        let s = shared();
        let a = s.kendo.register(0);
        let b = s.kendo.register(1);
        // AB-BA: t0 owns mutex 0 and queues on 1; t1 owns 1, queues on 0.
        {
            let mut mxs = s.queues.mutexes.lock();
            let m0 = mxs.entry(0).or_default();
            m0.owner = Some(0);
            m0.queue.push_back(1);
            let m1 = mxs.entry(1).or_default();
            m1.owner = Some(1);
            m1.queue.push_back(0);
        }
        s.kendo.block(&a);
        s.kendo.block(&b);
        s.check_deadlock();
        let err = s.take_run_error("test").expect("deadlock detected");
        let r = err.report().clone();
        assert!(matches!(err, RunError::Deadlock(_)));
        assert_eq!(r.cycle, vec![0, 1]);
        assert_eq!(r.wait_graph.len(), 2);
        assert!(s.kendo.aborted());
    }

    #[test]
    fn check_deadlock_is_a_noop_while_threads_are_active() {
        let s = shared();
        let _a = s.kendo.register(0);
        s.check_deadlock();
        assert!(!s.kendo.aborted());
        assert!(s.take_run_error("test").is_none());
    }
}
