//! The per-thread DThreads context.

use crate::engine::{ChildSeed, Engine, EngineMode, PendingOp};
use rfdet_api::{
    Addr, BarrierId, CondId, DmtCtx, MutexId, OpProbe, Probed, Stats, ThreadFn, ThreadHandle, Tid,
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
    /// Sync-op and allocation counters, flight-recorder buffer and
    /// metrics recorder.
    probe: OpProbe,
}

impl DtCtx {
    pub fn new(engine: Arc<Engine>, tid: Tid, space: PrivateSpace) -> Self {
        let heap = engine.strips.heap_for(tid);
        let budget = match engine.mode {
            EngineMode::SyncOnly => u64::MAX,
            EngineMode::Quantum(q) => q,
        };
        let probe = OpProbe::new(tid, engine.trace_sink.as_ref(), engine.obs.as_ref());
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
            probe,
        }
    }

    /// Entry of every synchronization operation (see
    /// [`OpProbe::sync_op`]). The lockstep engine has no logical clock;
    /// per-thread op indices alone order each thread's trace stream.
    /// Plan jitter is charged to the quantum budget, deterministically
    /// perturbing round boundaries in quantum mode.
    fn op_entry(&mut self, kind: &'static str, arg: Option<u64>) {
        let fault = self.probe.sync_op(kind, arg, || 0, &self.engine.fault_plan);
        if fault.jitter_ticks > 0 {
            self.charge(fault.jitter_ticks);
        }
        fault.fire();
    }

    /// One synchronization operation under the `SyncOp` envelope: the
    /// entry hook, the `count` stat bump, then arrival with `op`.
    fn sync(
        &mut self,
        kind: &'static str,
        arg: Option<u64>,
        count: fn(&mut Stats),
        op: PendingOp,
    ) -> Option<u64> {
        self.timed(|ctx| {
            ctx.op_entry(kind, arg);
            count(&mut ctx.stats);
            ctx.sync_point(op)
        })
    }

    /// Records this thread's unwind (see [`FailureSlot::record_unwind`])
    /// and removes it from the fence, waking every parked peer.
    ///
    /// [`FailureSlot::record_unwind`]: rfdet_api::FailureSlot::record_unwind
    pub(crate) fn record_unwind(&self, payload: Box<dyn std::any::Any + Send>) {
        self.engine
            .failure
            .record_unwind(self.tid, payload, self.probe.report());
        self.engine.force_exit(self.tid);
    }

    /// Ends the parallel interval: diff all snapshotted pages.
    fn take_diff(&mut self) -> Vec<ModRun> {
        let t0 = self.probe.obs_start();
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
        self.probe.obs_since(rfdet_api::obs::Phase::Diff, t0);
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
        let t0 = self.probe.obs_start();
        let (image, seed, value) =
            self.engine
                .arrive(self.tid, op, diff, reads, self.probe.sync_ops);
        self.probe.obs_since(rfdet_api::obs::Phase::FenceWait, t0);
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
                    child.record_unwind(payload);
                }
            })
            .expect("failed to spawn OS thread");
        self.engine.handles.lock().insert(tid, handle);
    }

    pub fn exit(&mut self) {
        self.op_entry("exit", None);
        let diff = self.take_diff();
        let reads = self.take_reads();
        let (_, _, _) =
            self.engine
                .arrive(self.tid, PendingOp::Exit, diff, reads, self.probe.sync_ops);
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

    /// An atomic on the global store, executed in the serial phase
    /// (`op` None = pure load; `store` Some = plain release store).
    fn atomic(&mut self, addr: Addr, op: Option<rfdet_api::AtomicOp>, store: Option<u64>) -> u64 {
        let atomic = PendingOp::Atomic { addr, op, store };
        self.sync("atomic", Some(addr), |s| s.atomics += 1, atomic)
            .expect("atomic op returns a value")
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

impl Probed for DtCtx {
    #[inline]
    fn probe(&mut self) -> &mut OpProbe {
        &mut self.probe
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
        let arg = Some(u64::from(m.0));
        self.sync("lock", arg, |s| s.locks += 1, PendingOp::Lock(m.0));
    }

    fn unlock(&mut self, m: MutexId) {
        let arg = Some(u64::from(m.0));
        self.sync("unlock", arg, |s| s.unlocks += 1, PendingOp::Unlock(m.0));
    }

    fn cond_wait(&mut self, c: CondId, m: MutexId) {
        let arg = Some(u64::from(c.0));
        self.sync(
            "cond_wait",
            arg,
            |s| s.waits += 1,
            PendingOp::Wait(c.0, m.0),
        );
    }

    fn cond_signal(&mut self, c: CondId) {
        let (arg, op) = (Some(u64::from(c.0)), PendingOp::Signal(c.0, false));
        self.sync("cond_signal", arg, |s| s.signals += 1, op);
    }

    fn cond_broadcast(&mut self, c: CondId) {
        let (arg, op) = (Some(u64::from(c.0)), PendingOp::Signal(c.0, true));
        self.sync("cond_broadcast", arg, |s| s.signals += 1, op);
    }

    fn barrier(&mut self, b: BarrierId, parties: usize) {
        let (arg, op) = (Some(u64::from(b.0)), PendingOp::Barrier(b.0, parties));
        self.sync("barrier", arg, |s| s.barriers += 1, op);
    }

    fn spawn(&mut self, f: ThreadFn) -> ThreadHandle {
        self.sync("spawn", None, |s| s.forks += 1, PendingOp::Spawn(f));
        let child = self.last_spawned_tid.take();
        ThreadHandle(child.expect("spawn must produce a child"))
    }

    fn join(&mut self, h: ThreadHandle) {
        let arg = Some(u64::from(h.0));
        self.sync("join", arg, |s| s.joins += 1, PendingOp::Join(h.0));
    }

    fn alloc(&mut self, size: u64, align: u64) -> Addr {
        self.probe.alloc(|| 0, &self.engine.fault_plan);
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
        self.atomic(addr, Some(op), None)
    }

    fn atomic_load(&mut self, addr: Addr) -> u64 {
        self.atomic(addr, None, None)
    }

    fn atomic_store(&mut self, addr: Addr, value: u64) {
        self.atomic(addr, None, Some(value));
    }

    fn count_app_events(&mut self, retries: u64, shed: u64) {
        self.stats.app_retries += retries;
        self.stats.app_shed += shed;
    }
}
