//! The native per-thread context.

use crate::supervise::Supervision;
use crate::sync::{BarrierVar, CondVar, LockVar, Registry};
use parking_lot::Mutex;
use rfdet_api::{
    Addr, AtomicOp, BarrierId, CondId, DmtCtx, MutexId, OpProbe, Probed, RunConfig, Stats,
    ThreadFn, ThreadHandle, Tid,
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
    /// Sync-op and allocation counters, flight-recorder buffer and
    /// metrics recorder.
    probe: OpProbe,
}

impl NativeCtx {
    pub fn new(shared: Arc<NativeShared>) -> Self {
        let tid = shared.meta.register_thread().tid;
        let heap = shared.strips.heap_for(tid);
        let probe = OpProbe::new(tid, shared.trace_sink.as_ref(), shared.obs.as_ref());
        Self {
            shared,
            tid,
            heap,
            stats: Stats::default(),
            probe,
        }
    }

    /// Entry of every synchronization operation (see
    /// [`OpProbe::sync_op`]). Jitter ticks become a short spin — the
    /// closest native analogue of perturbing a logical clock.
    fn op_entry(&mut self, kind: &'static str, arg: Option<u64>) {
        let fault = self
            .probe
            .sync_op(kind, arg, || 0, &self.shared.sup.fault_plan);
        for _ in 0..fault.jitter_ticks {
            std::hint::spin_loop();
        }
        fault.fire();
    }

    /// One synchronization operation under the `SyncOp` envelope: the
    /// entry hook, then `f`.
    fn sync<R>(
        &mut self,
        kind: &'static str,
        arg: Option<u64>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.timed(|ctx| {
            ctx.op_entry(kind, arg);
            f(ctx)
        })
    }

    /// Runs the thread's `body`, then its exit op (counted at the same
    /// source point as on every other backend, so a plan entry there
    /// fires here too) and the stats flush. An unwind — the body
    /// panicking or the exit op's injected fault — is recorded as a
    /// failure of the run, which poisons it and so unparks every
    /// polling waiter; `Poisoned` tokens only add peer diagnostics.
    pub fn run(&mut self, body: impl FnOnce(&mut Self)) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            body(self);
            self.op_entry("exit", None);
            self.shared.meta.stats.merge(&self.stats);
        }));
        if let Err(payload) = result {
            let report = self.probe.report();
            self.shared
                .sup
                .failure
                .record_unwind(self.tid, payload, report);
        }
    }

    /// An atomic on the 8-byte cell at `addr`, made atomic over the
    /// byte-cell memory by the cell's stripe lock: `update` maps the old
    /// value to the one to store (`None` leaves the cell as is). Returns
    /// the old value.
    fn atomic(&mut self, addr: Addr, update: impl FnOnce(u64) -> Option<u64>) -> u64 {
        self.sync("atomic", Some(addr), |ctx| {
            ctx.shared.sup.failure.check_poison();
            ctx.stats.atomics += 1;
            ctx.check_range(addr, 8);
            let stripe = &ctx.shared.atomic_stripes[(addr >> 3) as usize % 64];
            let _guard = stripe.lock();
            let cells = &ctx.shared.mem[addr as usize..addr as usize + 8];
            let mut buf = [0u8; 8];
            for (b, cell) in buf.iter_mut().zip(cells) {
                *b = cell.load(Relaxed);
            }
            let old = u64::from_le_bytes(buf);
            if let Some(new) = update(old) {
                for (b, cell) in new.to_le_bytes().iter().zip(cells) {
                    cell.store(*b, Relaxed);
                }
            }
            old
        })
    }

    fn check_range(&self, addr: Addr, len: usize) {
        assert!(
            addr as usize + len <= self.shared.mem.len(),
            "shared-memory access out of bounds: addr={addr:#x} len={len}"
        );
    }
}

impl Probed for NativeCtx {
    #[inline]
    fn probe(&mut self) -> &mut OpProbe {
        &mut self.probe
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
        self.sync("lock", Some(u64::from(m.0)), |ctx| {
            ctx.stats.locks += 1;
            ctx.shared.locks.get(m.0).lock(&ctx.shared.sup, ctx.tid);
        });
    }

    fn unlock(&mut self, m: MutexId) {
        self.sync("unlock", Some(u64::from(m.0)), |ctx| {
            ctx.stats.unlocks += 1;
            ctx.shared.locks.get(m.0).unlock();
        });
    }

    fn cond_wait(&mut self, c: CondId, m: MutexId) {
        self.sync("cond_wait", Some(u64::from(c.0)), |ctx| {
            ctx.stats.waits += 1;
            let cond = ctx.shared.conds.get(c.0);
            let mutex = ctx.shared.locks.get(m.0);
            cond.wait(&mutex, &ctx.shared.sup, ctx.tid);
        });
    }

    fn cond_signal(&mut self, c: CondId) {
        self.sync("cond_signal", Some(u64::from(c.0)), |ctx| {
            ctx.stats.signals += 1;
            ctx.shared.conds.get(c.0).signal();
        });
    }

    fn cond_broadcast(&mut self, c: CondId) {
        self.sync("cond_broadcast", Some(u64::from(c.0)), |ctx| {
            ctx.stats.signals += 1;
            ctx.shared.conds.get(c.0).broadcast();
        });
    }

    fn barrier(&mut self, b: BarrierId, parties: usize) {
        self.sync("barrier", Some(u64::from(b.0)), |ctx| {
            ctx.stats.barriers += 1;
            let barrier = ctx.shared.barriers.get(b.0);
            barrier.wait(parties, &ctx.shared.sup, ctx.tid);
        });
    }

    fn spawn(&mut self, f: ThreadFn) -> ThreadHandle {
        self.sync("spawn", None, |ctx| {
            ctx.stats.forks += 1;
            let mut child = NativeCtx::new(Arc::clone(&ctx.shared));
            let tid = child.tid;
            let handle = std::thread::Builder::new()
                .name(format!("native-{tid}"))
                .spawn(move || child.run(|child| f(child)))
                .expect("failed to spawn OS thread");
            ctx.shared.handles.lock().insert(tid, handle);
            ThreadHandle(tid)
        })
    }

    fn join(&mut self, h: ThreadHandle) {
        self.sync("join", Some(u64::from(h.0)), |ctx| {
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
            ctx.shared.sup.failure.check_poison();
        });
    }

    fn alloc(&mut self, size: u64, align: u64) -> Addr {
        self.probe.alloc(|| 0, &self.shared.sup.fault_plan);
        self.stats.shared_bytes += size;
        self.heap.alloc(size, align)
    }

    fn dealloc(&mut self, addr: Addr) {
        self.heap.dealloc(addr);
    }

    fn emit(&mut self, bytes: &[u8]) {
        self.shared.meta.emit(self.tid, bytes);
    }

    fn atomic_rmw(&mut self, addr: Addr, op: AtomicOp) -> u64 {
        self.atomic(addr, |old| Some(op.apply(old)))
    }

    fn atomic_load(&mut self, addr: Addr) -> u64 {
        self.atomic(addr, |_| None)
    }

    fn atomic_store(&mut self, addr: Addr, value: u64) {
        self.atomic(addr, |_| Some(value));
    }

    fn count_app_events(&mut self, retries: u64, shed: u64) {
        self.stats.app_retries += retries;
        self.stats.app_shed += shed;
    }
}
