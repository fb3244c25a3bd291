//! Per-thread operation probe and per-run failure slot, shared by every
//! backend.
//!
//! Every backend observes the same stream of operations: each thread's
//! synchronization ops and allocations, counted in program order. That
//! count is the coordinate system of a [`FaultPlan`], of the flight
//! recorder's events and of failure reports, so it lives here once.
//! [`OpProbe`] is the per-thread half: it counts, records the
//! [`TraceEvent`], consults the plan and times the `SyncOp` envelope.
//! [`FailureSlot`] is the per-run half: first root cause wins, later
//! unwinds become peer diagnostics, and teardown turns the slot into a
//! [`RunError`].
//!
//! What stays with each backend: how plan jitter is charged (Kendo
//! ticks, the lockstep quantum, a spin), how parked peers are woken once
//! the slot is filled (Kendo abort, the engine condvar, the native poll)
//! and how a deadlock's wait-for graph is read off its queues.

use crate::{FailureKind, FailureReport, FaultPlan, RunError, ThreadReport, Tid, WaitEdge};
use rfdet_obs::{ObsRecorder, ObsSink, Phase};
use rfdet_trace::{op, TraceBuf, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// The fault a plan attaches to one sync op, as returned by
/// [`OpProbe::sync_op`]. The backend charges [`Self::jitter_ticks`] in
/// its own currency first and then calls [`Self::fire`], so a plan that
/// jitters and panics at the same op perturbs the schedule before the
/// panic, on every backend alike.
#[must_use = "charge the jitter, then call `fire`"]
#[derive(Debug, Default)]
pub struct OpFault {
    /// Extra logical-clock ticks to charge before the op.
    pub jitter_ticks: u64,
    /// `(tid, op)` of an injected panic, if the plan asks for one.
    panic: Option<(Tid, u64)>,
}

impl OpFault {
    /// Raises the injected panic, if any, with
    /// [`FaultPlan::panic_message`].
    #[inline]
    pub fn fire(self) {
        if let Some((tid, op)) = self.panic {
            panic!("{}", FaultPlan::panic_message(tid, op));
        }
    }
}

/// One thread's operation counters, flight-recorder buffer and metrics
/// recorder. Both buffers flush to their run-wide sinks on drop, which
/// covers panic unwinds: contexts outlive the `catch_unwind` around the
/// thread body.
#[derive(Debug)]
pub struct OpProbe {
    tid: Tid,
    /// Synchronization operations started (the [`FaultPlan`] trigger
    /// coordinate and the `sync_ops` field of failure reports).
    pub sync_ops: u64,
    /// The last sync op started, as `(kind, argument)`.
    last_op: Option<(&'static str, Option<u64>)>,
    /// Allocations performed (the [`FaultPlan::fail_alloc`] coordinate).
    pub allocs: u64,
    trace: Option<TraceBuf>,
    /// Timing read while this is `Some` flows only into the recorder,
    /// never into a scheduling decision.
    obs: Option<ObsRecorder>,
}

impl OpProbe {
    /// A fresh probe for thread `tid`, recording into whichever sinks
    /// the run has turned on.
    #[must_use]
    pub fn new(tid: Tid, trace: Option<&Arc<TraceSink>>, obs: Option<&Arc<ObsSink>>) -> Self {
        Self {
            tid,
            sync_ops: 0,
            last_op: None,
            allocs: 0,
            trace: trace.map(|s| TraceBuf::new(Arc::clone(s))),
            obs: obs.map(|s| ObsRecorder::new(Arc::clone(s))),
        }
    }

    /// Entry of every synchronization operation: counts the op,
    /// remembers it for failure reports, records it when tracing, and
    /// returns what `plan` attaches to this point. Op indices are
    /// per-thread program order, so a plan written against one backend
    /// triggers at the same source point on every backend.
    ///
    /// `clock` is read only when tracing is on. Backends with a logical
    /// clock pass it; the value must be schedule-pure (a thread's clock
    /// changes only through its own ticks and deterministic wake
    /// handoffs). It is read before plan jitter is charged, so recorded
    /// and replayed streams key to the same pre-fault clocks.
    #[inline]
    pub fn sync_op(
        &mut self,
        kind: &'static str,
        arg: Option<u64>,
        clock: impl FnOnce() -> u64,
        plan: &FaultPlan,
    ) -> OpFault {
        let op = self.sync_ops;
        self.sync_ops += 1;
        self.last_op = Some((kind, arg));
        if let Some(buf) = &mut self.trace {
            buf.push(TraceEvent {
                tid: self.tid,
                op,
                kind: op::code(kind),
                arg,
                clock: clock(),
            });
        }
        if plan.is_empty() {
            return OpFault::default();
        }
        let f = plan.on_sync_op(self.tid, op);
        OpFault {
            jitter_ticks: f.jitter_ticks,
            panic: f.panic.then_some((self.tid, op)),
        }
    }

    /// Allocation hook: counts the allocation, records it when tracing
    /// (`clock` as in [`Self::sync_op`]) and panics with
    /// [`FaultPlan::alloc_panic_message`] when `plan` fails it.
    #[inline]
    pub fn alloc(&mut self, clock: impl FnOnce() -> u64, plan: &FaultPlan) {
        let nth = self.allocs;
        self.allocs += 1;
        if let Some(buf) = &mut self.trace {
            buf.push(TraceEvent {
                tid: self.tid,
                op: nth,
                kind: op::ALLOC,
                arg: None,
                clock: clock(),
            });
        }
        if !plan.is_empty() && plan.on_alloc(self.tid, nth) {
            panic!("{}", FaultPlan::alloc_panic_message(self.tid, nth));
        }
    }

    /// This thread's progress summary for failure reports. Backends with
    /// vector clocks and slices fill in `vc` and `slices`.
    #[must_use]
    pub fn report(&self) -> ThreadReport {
        ThreadReport {
            tid: self.tid,
            sync_ops: self.sync_ops,
            last_op: self.last_op.map(|(k, a)| match a {
                Some(a) => format!("{k}({a})"),
                None => k.to_owned(),
            }),
            ..ThreadReport::default()
        }
    }

    /// `Instant::now()` iff the run is collecting metrics — the only
    /// gate under which a backend reads the wall clock. Pair with
    /// [`Self::obs_since`].
    #[inline]
    #[must_use]
    pub fn obs_start(&self) -> Option<Instant> {
        self.obs.as_ref().map(|_| Instant::now())
    }

    /// Records the nanoseconds elapsed since `t0` into `phase`.
    #[inline]
    pub fn obs_since(&mut self, phase: Phase, t0: Option<Instant>) {
        if let (Some(obs), Some(t0)) = (self.obs.as_mut(), t0) {
            obs.record(phase, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Records a raw value into `phase` (metrics on only).
    #[inline]
    pub fn obs_count(&mut self, phase: Phase, value: u64) {
        if let Some(obs) = self.obs.as_mut() {
            obs.record(phase, value);
        }
    }
}

/// A per-thread context that carries an [`OpProbe`].
pub trait Probed: Sized {
    /// The context's probe.
    fn probe(&mut self) -> &mut OpProbe;

    /// Called with the envelope's start instant (`Some` iff metrics are
    /// on) before the op body runs. The default does nothing; a backend
    /// that times adjacent phases can reuse the read as its first
    /// boundary.
    #[inline]
    fn envelope_started(&mut self, _t0: Option<Instant>) {}

    /// Runs one sync operation under the end-to-end
    /// [`Phase::SyncOp`] envelope.
    #[inline]
    fn timed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = self.probe().obs_start();
        self.envelope_started(t0);
        let r = f(self);
        self.probe().obs_since(Phase::SyncOp, t0);
        r
    }
}

/// Panic payload that tears down the peers of a failed run. Its unwinds
/// are the secondary effect of a recorded root cause, so
/// [`FailureSlot::record_unwind`] keeps them as peer diagnostics only.
#[derive(Debug)]
pub struct Poisoned;

/// A printable message for a panic payload.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The run's root-cause failure. The first recorded failure wins; a
/// later culprit, and every [`Poisoned`] unwind, is kept as a
/// best-effort peer diagnostic (excluded from the report digest).
/// Recording a root cause sets the poison bit; how parked peers learn
/// of it is up to the backend.
#[derive(Debug, Default)]
pub struct FailureSlot {
    failure: Mutex<Option<FailureReport>>,
    peers: Mutex<BTreeMap<Tid, ThreadReport>>,
    poisoned: AtomicBool,
}

impl FailureSlot {
    /// Records a root cause (first writer wins) and poisons the run. A
    /// later call's culprit becomes a peer diagnostic.
    pub fn record(
        &self,
        kind: FailureKind,
        tid: Tid,
        message: String,
        culprit: Option<ThreadReport>,
        wait_graph: Vec<WaitEdge>,
        cycle: Vec<Tid>,
    ) {
        {
            let mut slot = lock(&self.failure);
            if slot.is_none() {
                *slot = Some(FailureReport {
                    backend: String::new(),
                    kind,
                    tid,
                    message,
                    culprit,
                    wait_graph,
                    cycle,
                    peers: Vec::new(),
                    trace_path: None,
                    warnings: Vec::new(),
                });
            } else if let Some(c) = culprit {
                self.record_peer(tid, c);
            }
        }
        self.poisoned.store(true, SeqCst);
    }

    /// Records a structural deadlock among `blocked` live threads, none
    /// of which can wake another: `tid` is the culprit (the smallest
    /// blocked tid) and `wait_graph` the backend's wait-for edges read
    /// off its deterministic queues. The cycle and message derive from
    /// the graph, so the report reproduces across reruns.
    pub fn record_deadlock(&self, tid: Tid, blocked: usize, wait_graph: Vec<WaitEdge>) {
        let cycle = FailureReport::find_cycle(&wait_graph);
        let message = if cycle.is_empty() {
            format!("all {blocked} live threads blocked with no possible waker")
        } else {
            let cyc: Vec<String> = cycle.iter().map(|t| format!("t{t}")).collect();
            format!("wait-for cycle {}", cyc.join(" -> "))
        };
        self.record(FailureKind::Deadlock, tid, message, None, wait_graph, cycle);
    }

    /// Keeps `report` as thread `tid`'s peer diagnostic (the first one
    /// per thread wins).
    pub fn record_peer(&self, tid: Tid, report: ThreadReport) {
        lock(&self.peers).entry(tid).or_insert(report);
    }

    /// A thread unwound with `payload`. A [`Poisoned`] token only adds a
    /// peer diagnostic; anything else is a root-cause panic.
    pub fn record_unwind(
        &self,
        tid: Tid,
        payload: Box<dyn std::any::Any + Send>,
        report: ThreadReport,
    ) {
        if payload.is::<Poisoned>() {
            self.record_peer(tid, report);
        } else {
            let message = panic_message(payload.as_ref());
            self.record(
                FailureKind::Panic,
                tid,
                message,
                Some(report),
                Vec::new(),
                Vec::new(),
            );
        }
    }

    /// `true` once a root cause is recorded.
    #[inline]
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(SeqCst)
    }

    /// Unwinds with a [`Poisoned`] token if the run has failed.
    #[inline]
    pub fn check_poison(&self) {
        if self.is_poisoned() {
            panic_any(Poisoned);
        }
    }

    /// Assembles the final [`RunError`] at teardown, if the run failed:
    /// stamps `backend` and attaches the peer diagnostics of every
    /// thread but the culprit.
    #[must_use]
    pub fn take_run_error(&self, backend: &str) -> Option<RunError> {
        let mut f = lock(&self.failure).take()?;
        f.backend = backend.to_owned();
        let tid = f.tid;
        f.peers = std::mem::take(&mut *lock(&self.peers))
            .into_iter()
            .filter(|&(t, _)| t != tid)
            .map(|(_, r)| r)
            .collect();
        Some(RunError::from_report(f))
    }
}

/// Joins every worker of a finished run. Children may keep spawning
/// while earlier ones are joined, so `drain` (which empties the
/// backend's handle map) is called until it comes back empty. Workers
/// never unwind out of their closure — every unwind is recorded in the
/// run's [`FailureSlot`] — so these joins cannot fail.
pub fn join_workers(mut drain: impl FnMut() -> Vec<JoinHandle<()>>) {
    loop {
        let handles = drain();
        if handles.is_empty() {
            return;
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn peer(tid: Tid) -> ThreadReport {
        ThreadReport {
            tid,
            ..ThreadReport::default()
        }
    }

    fn panic_text(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("expected a panic");
        panic_message(payload.as_ref())
    }

    #[test]
    fn first_writer_wins_and_poisons() {
        let slot = FailureSlot::default();
        assert!(!slot.is_poisoned());
        slot.record_unwind(1, Box::new("boom"), peer(1));
        slot.record_deadlock(0, 2, Vec::new());
        assert!(slot.is_poisoned());
        let err = slot.take_run_error("pthreads").expect("failure recorded");
        let r = err.report();
        assert!(matches!(err, RunError::WorkerPanicked(_)));
        assert_eq!(r.kind, FailureKind::Panic);
        assert_eq!((r.tid, r.message.as_str()), (1, "boom"));
        assert_eq!(r.backend, "pthreads", "backend is stamped at teardown");
        assert_eq!(r.culprit.as_ref().map(|c| c.tid), Some(1));
        assert!(slot.take_run_error("pthreads").is_none(), "taken once");
    }

    #[test]
    fn later_culprits_and_poisoned_unwinds_become_peer_diagnostics() {
        let slot = FailureSlot::default();
        slot.record_unwind(0, Box::new("first"), peer(0));
        slot.record_unwind(1, Box::new("second".to_owned()), peer(1));
        slot.record_unwind(2, Box::new(Poisoned), peer(2));
        // The culprit's own secondary unwind is filtered out of `peers`.
        slot.record_unwind(0, Box::new(Poisoned), peer(0));
        let err = slot.take_run_error("test").expect("failure recorded");
        let r = err.report();
        assert_eq!(r.message, "first");
        let peers: Vec<Tid> = r.peers.iter().map(|p| p.tid).collect();
        assert_eq!(peers, vec![1, 2]);
    }

    #[test]
    fn poisoned_tokens_alone_are_not_a_root_cause() {
        let slot = FailureSlot::default();
        slot.record_unwind(2, Box::new(Poisoned), peer(2));
        assert!(
            !slot.is_poisoned(),
            "a secondary unwind is not a root cause"
        );
        assert!(slot.take_run_error("pthreads").is_none());
    }

    #[test]
    fn check_poison_unwinds_with_the_token_once_poisoned() {
        let slot = FailureSlot::default();
        slot.check_poison();
        slot.record_deadlock(0, 1, Vec::new());
        let payload = std::panic::catch_unwind(|| slot.check_poison()).expect_err("unwinds");
        assert!(payload.is::<Poisoned>());
    }

    #[test]
    fn deadlocks_derive_cycle_and_message_from_the_graph() {
        let edge = |waiter, holder| WaitEdge {
            waiter,
            target: crate::WaitTarget::Mutex {
                id: 0,
                holder: Some(holder),
            },
        };
        let slot = FailureSlot::default();
        slot.record_deadlock(1, 2, vec![edge(1, 2), edge(2, 1)]);
        let err = slot.take_run_error("test").expect("deadlock recorded");
        assert!(matches!(err, RunError::Deadlock(_)));
        assert_eq!(err.report().cycle, vec![1, 2]);
        assert_eq!(err.report().message, "wait-for cycle t1 -> t2");
        slot.record_deadlock(0, 3, Vec::new());
        let err = slot.take_run_error("test").expect("deadlock recorded");
        assert_eq!(
            err.report().message,
            "all 3 live threads blocked with no possible waker"
        );
    }

    #[test]
    fn panic_payloads_render_as_messages() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&"owned".to_owned()), "owned");
        assert_eq!(panic_message(&42_u32), "panic with non-string payload");
    }

    #[test]
    fn probe_reads_the_clock_only_when_tracing() {
        let reads = Cell::new(0);
        let clock = || {
            reads.set(reads.get() + 1);
            7
        };
        let plan = FaultPlan::new();
        let mut off = OpProbe::new(1, None, None);
        off.sync_op("lock", Some(7), clock, &plan).fire();
        off.alloc(clock, &plan);
        assert_eq!(reads.get(), 0, "no clock read with tracing off");
        assert!(off.obs_start().is_none());

        let sink = Arc::new(TraceSink::default());
        let mut on = OpProbe::new(1, Some(&sink), None);
        on.sync_op("lock", Some(7), clock, &plan).fire();
        on.alloc(clock, &plan);
        assert_eq!(reads.get(), 2);
        drop(on);
        let events = sink.drain_sorted();
        assert_eq!(events.len(), 2, "buffer flushes on drop");
        assert!(events.iter().all(|e| e.tid == 1 && e.clock == 7));
    }

    #[test]
    fn probe_counts_and_formats_the_last_op() {
        let plan = FaultPlan::new();
        let mut p = OpProbe::new(3, None, None);
        assert_eq!(p.report().last_op, None);
        p.sync_op("lock", Some(7), || 0, &plan).fire();
        p.alloc(|| 0, &plan);
        let r = p.report();
        assert_eq!((r.tid, r.sync_ops), (3, 1));
        assert_eq!(r.last_op.as_deref(), Some("lock(7)"));
        p.sync_op("exit", None, || 0, &plan).fire();
        assert_eq!(p.report().last_op.as_deref(), Some("exit"));
        assert_eq!((p.sync_ops, p.allocs), (2, 1));
    }

    #[test]
    fn probe_applies_the_plan_at_its_coordinates() {
        let plan = FaultPlan::new()
            .jitter_at(1, 1, 9)
            .panic_at(1, 1)
            .fail_alloc(1, 1);
        let mut p = OpProbe::new(1, None, None);
        let f = p.sync_op("lock", Some(0), || 0, &plan);
        assert_eq!(f.jitter_ticks, 0);
        f.fire();
        let f = p.sync_op("unlock", Some(0), || 0, &plan);
        assert_eq!(f.jitter_ticks, 9, "jitter is handed out before the panic");
        assert_eq!(panic_text(|| f.fire()), FaultPlan::panic_message(1, 1));
        p.alloc(|| 0, &plan);
        assert_eq!(
            panic_text(|| p.alloc(|| 0, &plan)),
            FaultPlan::alloc_panic_message(1, 1)
        );
    }
}
