//! The per-thread DThreads context.

use crate::engine::{ChildSeed, Engine, EngineMode, PendingOp};
use rfdet_api::{
    Addr, BarrierId, CondId, DmtCtx, FaultPlan, MutexId, Stats, ThreadFn, ThreadHandle,
    ThreadReport, Tid,
};
use rfdet_mem::race::{ReadRun, ReadTracker};
use rfdet_mem::{diff, ModRun, PrivateSpace, ThreadHeap};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-thread context: a private view of the global store plus the store
/// instrumentation that collects the interval's diff.
pub(crate) struct DtCtx {
    pub engine: Arc<Engine>,
    pub tid: Tid,
    pub space: PrivateSpace,
    /// Pages snapshotted this parallel interval (first-write snapshot, as
    /// in RFDet's `ci` monitoring — DThreads itself uses `mprotect`
    /// twins; the collected diff is identical).
    snapshots: BTreeMap<usize, Box<[u8]>>,
    /// Remaining tick budget in quantum mode.
    budget: u64,
    /// Whether the engine is detecting races (word-read sets are sealed
    /// into every arrival). One branch per load when off.
    track_reads: bool,
    /// Word-granular read set of the current parallel interval.
    reads: ReadTracker,
    /// Cached page size for the read tracker's bitmap geometry.
    page_size: u64,
    /// Tid of the child created by the most recent `Spawn` op.
    last_spawned_tid: Option<Tid>,
    pub heap: ThreadHeap,
    pub stats: Stats,
    /// Sync ops executed, in program order — the trigger index for
    /// [`FaultPlan`] and the progress metric in failure reports.
    sync_ops: u64,
    last_op: Option<(&'static str, Option<u64>)>,
    allocs: u64,
    /// Flight-recorder buffer; flushed to the engine sink on drop.
    trace: Option<rfdet_api::trace::TraceBuf>,
    /// Metrics recorder; flushed to the engine sink on drop. Timing is
    /// read only when this is `Some` and never feeds a decision.
    obs: Option<rfdet_api::obs::ObsRecorder>,
}

impl DtCtx {
    pub fn new(engine: Arc<Engine>, tid: Tid, space: PrivateSpace) -> Self {
        let heap = engine.strips.heap_for(tid);
        let budget = match engine.mode {
            EngineMode::SyncOnly => u64::MAX,
            EngineMode::Quantum(q) => q,
        };
        let trace = engine
            .trace_sink
            .as_ref()
            .map(|s| rfdet_api::trace::TraceBuf::new(Arc::clone(s)));
        let obs = engine
            .obs
            .as_ref()
            .map(|s| rfdet_api::obs::ObsRecorder::new(Arc::clone(s)));
        let track_reads = engine.detect_races;
        let page_size = space.page_size() as u64;
        Self {
            engine,
            tid,
            space,
            snapshots: BTreeMap::new(),
            budget,
            track_reads,
            reads: ReadTracker::new(),
            page_size,
            last_spawned_tid: None,
            heap,
            stats: Stats::default(),
            sync_ops: 0,
            last_op: None,
            allocs: 0,
            trace,
            obs,
        }
    }

    /// `Instant::now()` iff the run is collecting metrics — the only
    /// gate under which this backend reads the clock.
    #[inline]
    fn obs_start(&self) -> Option<std::time::Instant> {
        self.obs.as_ref().map(|_| std::time::Instant::now())
    }

    /// Records the elapsed nanoseconds since `t0` into `phase`.
    #[inline]
    fn obs_since(&mut self, phase: rfdet_api::obs::Phase, t0: Option<std::time::Instant>) {
        if let (Some(obs), Some(t0)) = (self.obs.as_mut(), t0) {
            obs.record(phase, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Runs one sync operation under the end-to-end
    /// [`Phase::SyncOp`](rfdet_api::obs::Phase::SyncOp) envelope.
    #[inline]
    fn sync_timed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = self.obs_start();
        let r = f(self);
        self.obs_since(rfdet_api::obs::Phase::SyncOp, t0);
        r
    }

    /// Entry hook of every synchronization operation: counts the op,
    /// remembers it for failure reports, and applies any matching
    /// [`FaultPlan`] entry. Op indices are per-thread program order, so
    /// a plan written against one backend triggers at the same source
    /// point on every backend. Jitter ticks are charged to the quantum
    /// budget, deterministically perturbing round boundaries in
    /// quantum mode.
    fn fault_point(&mut self, kind: &'static str, arg: Option<u64>) {
        let op = self.sync_ops;
        self.sync_ops += 1;
        self.last_op = Some((kind, arg));
        if let Some(trace) = self.trace.as_mut() {
            // The lockstep engine has no logical clock; per-thread op
            // indices alone order each thread's stream.
            trace.push(rfdet_api::trace::TraceEvent {
                tid: self.tid,
                op,
                kind: rfdet_api::trace::op::code(kind),
                arg,
                clock: 0,
            });
        }
        if !self.engine.fault_plan.is_empty() {
            let f = self.engine.fault_plan.on_sync_op(self.tid, op);
            if f.jitter_ticks > 0 {
                self.charge(f.jitter_ticks);
            }
            if f.panic {
                panic!("{}", FaultPlan::panic_message(self.tid, op));
            }
        }
    }

    /// Allocation hook for `FaultPlan::fail_alloc`.
    fn alloc_fault_point(&mut self) {
        let nth = self.allocs;
        self.allocs += 1;
        if let Some(trace) = self.trace.as_mut() {
            trace.push(rfdet_api::trace::TraceEvent {
                tid: self.tid,
                op: nth,
                kind: rfdet_api::trace::op::ALLOC,
                arg: None,
                clock: 0,
            });
        }
        if !self.engine.fault_plan.is_empty() && self.engine.fault_plan.on_alloc(self.tid, nth) {
            panic!("{}", FaultPlan::alloc_panic_message(self.tid, nth));
        }
    }

    /// This thread's deterministic progress summary for failure reports
    /// (the lockstep engine keeps no vector clocks or slice counts).
    pub(crate) fn thread_report(&self) -> ThreadReport {
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

    /// Ends the parallel interval: diff all snapshotted pages.
    fn take_diff(&mut self) -> Vec<ModRun> {
        let t0 = self.obs_start();
        let mut mods = Vec::new();
        for (page, snap) in std::mem::take(&mut self.snapshots) {
            if let Some(current) = self.space.page(page) {
                diff::diff_page(
                    self.space.page_base(page),
                    &snap,
                    current.bytes(),
                    &mut mods,
                );
            }
        }
        self.obs_since(rfdet_api::obs::Phase::Diff, t0);
        mods
    }

    /// Seals the current interval's word-read set (empty when detection
    /// is off).
    fn take_reads(&mut self) -> Vec<ReadRun> {
        if self.track_reads {
            self.reads.seal(self.page_size)
        } else {
            Vec::new()
        }
    }

    /// Arrives at a synchronization point and re-bases on the returned
    /// global image.
    fn sync_point(&mut self, op: PendingOp) -> Option<u64> {
        let diff = self.take_diff();
        let reads = self.take_reads();
        // The fence stall: from arrival to the serial phase releasing us.
        let t0 = self.obs_start();
        let (image, seed, value) = self.engine.arrive(self.tid, op, diff, reads, self.sync_ops);
        self.obs_since(rfdet_api::obs::Phase::FenceWait, t0);
        if let Some(img) = image {
            self.space = img;
        }
        if let Some(seed) = seed {
            self.spawn_seed(seed);
        }
        if let EngineMode::Quantum(q) = self.engine.mode {
            self.budget = q;
        }
        value
    }

    fn spawn_seed(&mut self, seed: ChildSeed) {
        let engine = Arc::clone(&self.engine);
        let ChildSeed { tid, space, entry } = seed;
        self.last_spawned_tid = Some(tid);
        let handle = std::thread::Builder::new()
            .name(format!("dthreads-{tid}"))
            .spawn(move || {
                let mut child = DtCtx::new(Arc::clone(&engine), tid, space);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    entry(&mut child);
                    child.exit();
                }));
                if let Err(payload) = result {
                    // Root-cause panics poison the engine (waking every
                    // parked peer); Poisoned tokens just add diagnostics.
                    let report = child.thread_report();
                    child.engine.record_worker_panic(tid, payload, report);
                    child.engine.force_exit(tid);
                }
            })
            .expect("failed to spawn OS thread");
        self.engine.handles.lock().insert(tid, handle);
    }

    pub fn exit(&mut self) {
        self.fault_point("exit", None);
        let diff = self.take_diff();
        let reads = self.take_reads();
        let (_, _, _) = self
            .engine
            .arrive(self.tid, PendingOp::Exit, diff, reads, self.sync_ops);
        self.stats.private_pages = self.space.materialized_pages() as u64;
        self.engine.meta.stats.merge(&self.stats);
    }

    #[inline]
    fn charge(&mut self, n: u64) {
        if self.budget != u64::MAX {
            self.budget = self.budget.saturating_sub(n);
            if self.budget == 0 {
                // Quantum expired: lockstep round even without sync —
                // the Figure-1 behaviour of CoreDet/DMP.
                let _ = self.sync_point(PendingOp::QuantumBreak);
            }
        }
    }

    fn record_store(&mut self, addr: Addr, len: usize) {
        let first = self.space.page_of(addr);
        let last = self.space.page_of(addr + len.saturating_sub(1) as u64);
        for page in first..=last {
            if !self.snapshots.contains_key(&page) {
                let snap = self.space.snapshot_page(page);
                self.snapshots.insert(page, snap);
                self.stats.stores_with_copy += 1;
            }
        }
    }
}

impl DmtCtx for DtCtx {
    fn tid(&self) -> Tid {
        self.tid
    }

    fn tick(&mut self, n: u64) {
        self.charge(n);
    }

    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.stats.loads += 1;
        self.charge(1);
        if self.track_reads {
            self.reads.mark(addr, buf.len() as u64, self.page_size);
        }
        self.space.read(addr, buf);
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        self.stats.stores += 1;
        self.charge(1);
        if data.is_empty() {
            return;
        }
        self.record_store(addr, data.len());
        self.space.write(addr, data);
    }

    fn lock(&mut self, m: MutexId) {
        self.sync_timed(|ctx| {
            ctx.fault_point("lock", Some(u64::from(m.0)));
            ctx.stats.locks += 1;
            let _ = ctx.sync_point(PendingOp::Lock(m.0));
        });
    }

    fn unlock(&mut self, m: MutexId) {
        self.sync_timed(|ctx| {
            ctx.fault_point("unlock", Some(u64::from(m.0)));
            ctx.stats.unlocks += 1;
            let _ = ctx.sync_point(PendingOp::Unlock(m.0));
        });
    }

    fn cond_wait(&mut self, c: CondId, m: MutexId) {
        self.sync_timed(|ctx| {
            ctx.fault_point("cond_wait", Some(u64::from(c.0)));
            ctx.stats.waits += 1;
            let _ = ctx.sync_point(PendingOp::Wait(c.0, m.0));
        });
    }

    fn cond_signal(&mut self, c: CondId) {
        self.sync_timed(|ctx| {
            ctx.fault_point("cond_signal", Some(u64::from(c.0)));
            ctx.stats.signals += 1;
            let _ = ctx.sync_point(PendingOp::Signal(c.0, false));
        });
    }

    fn cond_broadcast(&mut self, c: CondId) {
        self.sync_timed(|ctx| {
            ctx.fault_point("cond_broadcast", Some(u64::from(c.0)));
            ctx.stats.signals += 1;
            let _ = ctx.sync_point(PendingOp::Signal(c.0, true));
        });
    }

    fn barrier(&mut self, b: BarrierId, parties: usize) {
        self.sync_timed(|ctx| {
            ctx.fault_point("barrier", Some(u64::from(b.0)));
            ctx.stats.barriers += 1;
            let _ = ctx.sync_point(PendingOp::Barrier(b.0, parties));
        });
    }

    fn spawn(&mut self, f: ThreadFn) -> ThreadHandle {
        self.sync_timed(|ctx| {
            ctx.fault_point("spawn", None);
            ctx.stats.forks += 1;
            let _ = ctx.sync_point(PendingOp::Spawn(f));
            ThreadHandle(
                ctx.last_spawned_tid
                    .take()
                    .expect("spawn must produce a child"),
            )
        })
    }

    fn join(&mut self, h: ThreadHandle) {
        self.sync_timed(|ctx| {
            ctx.fault_point("join", Some(u64::from(h.0)));
            ctx.stats.joins += 1;
            let _ = ctx.sync_point(PendingOp::Join(h.0));
        });
    }

    fn alloc(&mut self, size: u64, align: u64) -> Addr {
        self.alloc_fault_point();
        self.stats.shared_bytes += size;
        self.heap.alloc(size, align)
    }

    fn dealloc(&mut self, addr: Addr) {
        self.heap.dealloc(addr);
    }

    fn emit(&mut self, bytes: &[u8]) {
        self.engine.meta.emit(self.tid, bytes);
    }

    fn atomic_rmw(&mut self, addr: Addr, op: rfdet_api::AtomicOp) -> u64 {
        self.sync_timed(|ctx| {
            ctx.fault_point("atomic", Some(addr));
            ctx.stats.atomics += 1;
            ctx.sync_point(PendingOp::Atomic {
                addr,
                op: Some(op),
                store: None,
            })
            .expect("atomic op returns a value")
        })
    }

    fn atomic_load(&mut self, addr: Addr) -> u64 {
        self.sync_timed(|ctx| {
            ctx.fault_point("atomic", Some(addr));
            ctx.stats.atomics += 1;
            ctx.sync_point(PendingOp::Atomic {
                addr,
                op: None,
                store: None,
            })
            .expect("atomic op returns a value")
        })
    }

    fn atomic_store(&mut self, addr: Addr, value: u64) {
        self.sync_timed(|ctx| {
            ctx.fault_point("atomic", Some(addr));
            ctx.stats.atomics += 1;
            ctx.sync_point(PendingOp::Atomic {
                addr,
                op: None,
                store: Some(value),
            });
        });
    }

    fn count_app_events(&mut self, retries: u64, shed: u64) {
        self.stats.app_retries += retries;
        self.stats.app_shed += shed;
    }
}
