//! The native per-thread context.

use crate::supervise::Supervision;
use crate::sync::{BarrierVar, CondVar, LockVar, Registry};
use parking_lot::Mutex;
use rfdet_api::{
    Addr, BarrierId, CondId, DmtCtx, FaultPlan, MutexId, RunConfig, Stats, ThreadFn, ThreadHandle,
    ThreadReport, Tid,
};
use rfdet_mem::{StripAllocator, ThreadHeap};
use rfdet_meta::MetaSpace;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::Arc;

/// Shared state of one native run.
pub(crate) struct NativeShared {
    /// The shared memory: one atomic cell per byte, accessed `Relaxed`.
    /// Races are memory-safe but nondeterministic — faithful pthreads.
    pub mem: Vec<AtomicU8>,
    pub locks: Registry<LockVar>,
    pub conds: Registry<CondVar>,
    pub barriers: Registry<BarrierVar>,
    pub strips: StripAllocator,
    /// Reused for thread registration, output streams and stats.
    pub meta: MetaSpace,
    pub handles: Mutex<HashMap<Tid, std::thread::JoinHandle<()>>>,
    /// Striped locks making 8-byte atomics atomic over the byte-cell
    /// memory (§4.6 extension).
    pub atomic_stripes: Vec<Mutex<()>>,
    /// Failure recording and poison-based teardown (see `supervise`).
    pub sup: Supervision,
    /// Flight-recorder sink, `Some` iff `cfg.trace` is on. Events carry
    /// no logical clocks here (the backend has none); per-thread op
    /// indices order each stream.
    pub trace_sink: Option<Arc<rfdet_api::trace::TraceSink>>,
    /// Metrics sink, `Some` iff `cfg.metrics` is on. Native has no
    /// deterministic decision path to protect, but it reports the same
    /// phase histograms so A/B comparisons against the deterministic
    /// backends line up.
    pub obs: Option<Arc<rfdet_api::obs::ObsSink>>,
}

impl NativeShared {
    pub fn new(cfg: &RunConfig) -> Self {
        cfg.validate();
        let heap_base = rfdet_mem::heap_base(cfg.space_bytes);
        Self {
            mem: (0..cfg.space_bytes).map(|_| AtomicU8::new(0)).collect(),
            locks: Registry::default(),
            conds: Registry::default(),
            barriers: Registry::default(),
            strips: StripAllocator::new(heap_base, cfg.space_bytes - heap_base),
            meta: MetaSpace::new(cfg.meta_capacity_bytes as usize, cfg.gc_threshold),
            handles: Mutex::new(HashMap::new()),
            atomic_stripes: (0..64).map(|_| Mutex::new(())).collect(),
            sup: Supervision::new(cfg),
            trace_sink: rfdet_api::trace_sink(cfg),
            obs: rfdet_api::obs_sink(cfg),
        }
    }
}

/// Per-thread context for the native backend.
pub(crate) struct NativeCtx {
    pub shared: Arc<NativeShared>,
    pub tid: Tid,
    pub heap: ThreadHeap,
    pub stats: Stats,
    /// Sync ops executed, in program order — the trigger index for
    /// [`FaultPlan`] and the progress metric in failure reports.
    sync_ops: u64,
    last_op: Option<(&'static str, Option<u64>)>,
    allocs: u64,
    /// Flight-recorder buffer; flushes to the sink on drop (covers panic
    /// unwinds — the context outlives the thread body's `catch_unwind`).
    trace: Option<rfdet_api::trace::TraceBuf>,
    /// Metrics recorder; flushes to the sink on drop.
    obs: Option<rfdet_api::obs::ObsRecorder>,
}

impl NativeCtx {
    pub fn new(shared: Arc<NativeShared>) -> Self {
        let tid = shared.meta.register_thread().tid;
        let heap = shared.strips.heap_for(tid);
        let trace = shared
            .trace_sink
            .as_ref()
            .map(|s| rfdet_api::trace::TraceBuf::new(Arc::clone(s)));
        let obs = shared
            .obs
            .as_ref()
            .map(|s| rfdet_api::obs::ObsRecorder::new(Arc::clone(s)));
        Self {
            shared,
            tid,
            heap,
            stats: Stats::default(),
            sync_ops: 0,
            last_op: None,
            allocs: 0,
            trace,
            obs,
        }
    }

    /// Runs one sync operation under the end-to-end
    /// [`Phase::SyncOp`](rfdet_api::obs::Phase::SyncOp) envelope. The
    /// clock is read only when metrics are on.
    #[inline]
    fn sync_timed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = self.obs.as_ref().map(|_| std::time::Instant::now());
        let r = f(self);
        if let (Some(obs), Some(t0)) = (self.obs.as_mut(), t0) {
            obs.record(
                rfdet_api::obs::Phase::SyncOp,
                t0.elapsed().as_nanos() as u64,
            );
        }
        r
    }

    /// Entry hook of every synchronization operation: counts the op,
    /// remembers it for failure reports, and applies any matching
    /// [`FaultPlan`] entry. Op indices are per-thread program order, so
    /// a plan written against a deterministic backend triggers at the
    /// same source point here. Jitter ticks become a short spin — the
    /// closest native analogue of perturbing a logical clock.
    fn fault_point(&mut self, kind: &'static str, arg: Option<u64>) {
        let op = self.sync_ops;
        self.sync_ops += 1;
        self.last_op = Some((kind, arg));
        if let Some(buf) = &mut self.trace {
            buf.push(rfdet_api::trace::TraceEvent {
                tid: self.tid,
                op,
                kind: rfdet_api::trace::op::code(kind),
                arg,
                clock: 0,
            });
        }
        if !self.shared.sup.fault_plan.is_empty() {
            let f = self.shared.sup.fault_plan.on_sync_op(self.tid, op);
            for _ in 0..f.jitter_ticks {
                std::hint::spin_loop();
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
        if let Some(buf) = &mut self.trace {
            buf.push(rfdet_api::trace::TraceEvent {
                tid: self.tid,
                op: nth,
                kind: rfdet_api::trace::op::ALLOC,
                arg: None,
                clock: 0,
            });
        }
        if !self.shared.sup.fault_plan.is_empty()
            && self.shared.sup.fault_plan.on_alloc(self.tid, nth)
        {
            panic!("{}", FaultPlan::alloc_panic_message(self.tid, nth));
        }
    }

    /// This thread's progress summary for failure reports (the native
    /// backend keeps no vector clocks or slice counts).
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

    pub fn flush_stats(&mut self) {
        self.shared.meta.stats.merge(&self.stats);
        self.stats = Stats::default();
    }

    fn check_range(&self, addr: Addr, len: usize) {
        assert!(
            addr as usize + len <= self.shared.mem.len(),
            "shared-memory access out of bounds: addr={addr:#x} len={len}"
        );
    }
}

impl DmtCtx for NativeCtx {
    fn tid(&self) -> Tid {
        self.tid
    }

    fn tick(&mut self, _n: u64) {
        // No logical clocks: native threads run free.
    }

    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.stats.loads += 1;
        self.check_range(addr, buf.len());
        let base = addr as usize;
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.shared.mem[base + i].load(Relaxed);
        }
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        self.stats.stores += 1;
        self.check_range(addr, data.len());
        let base = addr as usize;
        for (i, &b) in data.iter().enumerate() {
            self.shared.mem[base + i].store(b, Relaxed);
        }
    }

    fn lock(&mut self, m: MutexId) {
        self.sync_timed(|ctx| {
            ctx.fault_point("lock", Some(u64::from(m.0)));
            ctx.stats.locks += 1;
            ctx.shared.locks.get(m.0).lock(&ctx.shared.sup, ctx.tid);
        });
    }

    fn unlock(&mut self, m: MutexId) {
        self.sync_timed(|ctx| {
            ctx.fault_point("unlock", Some(u64::from(m.0)));
            ctx.stats.unlocks += 1;
            ctx.shared.locks.get(m.0).unlock();
        });
    }

    fn cond_wait(&mut self, c: CondId, m: MutexId) {
        self.sync_timed(|ctx| {
            ctx.fault_point("cond_wait", Some(u64::from(c.0)));
            ctx.stats.waits += 1;
            let cond = ctx.shared.conds.get(c.0);
            let mutex = ctx.shared.locks.get(m.0);
            cond.wait(&mutex, &ctx.shared.sup, ctx.tid);
        });
    }

    fn cond_signal(&mut self, c: CondId) {
        self.sync_timed(|ctx| {
            ctx.fault_point("cond_signal", Some(u64::from(c.0)));
            ctx.stats.signals += 1;
            ctx.shared.conds.get(c.0).signal();
        });
    }

    fn cond_broadcast(&mut self, c: CondId) {
        self.sync_timed(|ctx| {
            ctx.fault_point("cond_broadcast", Some(u64::from(c.0)));
            ctx.stats.signals += 1;
            ctx.shared.conds.get(c.0).broadcast();
        });
    }

    fn barrier(&mut self, b: BarrierId, parties: usize) {
        self.sync_timed(|ctx| {
            ctx.fault_point("barrier", Some(u64::from(b.0)));
            ctx.stats.barriers += 1;
            ctx.shared
                .barriers
                .get(b.0)
                .wait(parties, &ctx.shared.sup, ctx.tid);
        });
    }

    fn spawn(&mut self, f: ThreadFn) -> ThreadHandle {
        let t0 = self.obs.as_ref().map(|_| std::time::Instant::now());
        self.fault_point("spawn", None);
        self.stats.forks += 1;
        let shared = Arc::clone(&self.shared);
        let mut child = NativeCtx::new(Arc::clone(&shared));
        let tid = child.tid;
        let handle = std::thread::Builder::new()
            .name(format!("native-{tid}"))
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    f(&mut child);
                    child.flush_stats();
                }));
                if let Err(payload) = result {
                    // Root-cause panics poison the run (unparking every
                    // polling waiter); Poisoned tokens add diagnostics.
                    let report = child.thread_report();
                    child.shared.sup.record_worker_panic(tid, payload, report);
                }
            })
            .expect("failed to spawn OS thread");
        self.shared.handles.lock().insert(tid, handle);
        if let (Some(obs), Some(t0)) = (self.obs.as_mut(), t0) {
            obs.record(
                rfdet_api::obs::Phase::SyncOp,
                t0.elapsed().as_nanos() as u64,
            );
        }
        ThreadHandle(tid)
    }

    fn join(&mut self, h: ThreadHandle) {
        self.sync_timed(|ctx| {
            ctx.fault_point("join", Some(u64::from(h.0)));
            ctx.stats.joins += 1;
            let handle = ctx
                .shared
                .handles
                .lock()
                .remove(&h.0)
                .unwrap_or_else(|| panic!("join of unknown or already-joined thread {}", h.0));
            // The child caught its own panic (recording it as the root
            // cause), so the join itself cannot fail — but if the run is
            // now poisoned the joiner must unwind too.
            let _ = handle.join();
            ctx.shared.sup.check_poison();
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
        self.shared.meta.emit(self.tid, bytes);
    }

    fn atomic_rmw(&mut self, addr: Addr, op: rfdet_api::AtomicOp) -> u64 {
        self.sync_timed(|ctx| {
            ctx.fault_point("atomic", Some(addr));
            ctx.shared.sup.check_poison();
            ctx.stats.atomics += 1;
            ctx.check_range(addr, 8);
            let stripe = &ctx.shared.atomic_stripes[(addr >> 3) as usize % 64];
            let _guard = stripe.lock();
            let base = addr as usize;
            let mut buf = [0u8; 8];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = ctx.shared.mem[base + i].load(Relaxed);
            }
            let old = u64::from_le_bytes(buf);
            for (i, b) in op.apply(old).to_le_bytes().iter().enumerate() {
                ctx.shared.mem[base + i].store(*b, Relaxed);
            }
            old
        })
    }

    fn atomic_load(&mut self, addr: Addr) -> u64 {
        self.sync_timed(|ctx| {
            ctx.fault_point("atomic", Some(addr));
            ctx.shared.sup.check_poison();
            ctx.stats.atomics += 1;
            ctx.check_range(addr, 8);
            let stripe = &ctx.shared.atomic_stripes[(addr >> 3) as usize % 64];
            let _guard = stripe.lock();
            let base = addr as usize;
            let mut buf = [0u8; 8];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = ctx.shared.mem[base + i].load(Relaxed);
            }
            u64::from_le_bytes(buf)
        })
    }

    fn atomic_store(&mut self, addr: Addr, value: u64) {
        self.sync_timed(|ctx| {
            ctx.fault_point("atomic", Some(addr));
            ctx.shared.sup.check_poison();
            ctx.stats.atomics += 1;
            ctx.check_range(addr, 8);
            let stripe = &ctx.shared.atomic_stripes[(addr >> 3) as usize % 64];
            let _guard = stripe.lock();
            let base = addr as usize;
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                ctx.shared.mem[base + i].store(*b, Relaxed);
            }
        });
    }

    fn count_app_events(&mut self, retries: u64, shed: u64) {
        self.stats.app_retries += retries;
        self.stats.app_shed += shed;
    }
}
