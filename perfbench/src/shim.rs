//! Timing shims over [`DmtCtx`]: the benchmark observes the runtime from
//! the outside, at the API boundary a program calls through.
//!
//! * [`instrument`] wraps a root [`ThreadFn`] (and re-wraps every thread
//!   it spawns), times each call by class and times the compute gaps
//!   between calls. Only the traced run's instrumented executions use it.
//! * [`time_rounds`] wraps a root only and timestamps tid 0's barrier
//!   returns, giving barrier-to-barrier round latency. It is the only
//!   shim on the timed executions, and only on the ledger, the one
//!   program that calls `barrier`.
//!
//! Both forward every call unchanged and record into buffers nothing
//! reads back during the run, so observation never feeds a decision.

use rfdet_api::obs::Histogram;
use rfdet_api::{Addr, AtomicOp, BarrierId, CondId, DmtCtx, MutexId, ThreadFn, ThreadHandle, Tid};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Synchronization call classes, timed on every call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `lock`.
    Lock,
    /// `unlock`.
    Unlock,
    /// `cond_wait`.
    CondWait,
    /// `cond_signal` and `cond_broadcast`.
    Signal,
    /// `barrier`.
    Barrier,
    /// `spawn`.
    Spawn,
    /// `join`.
    Join,
    /// `atomic_rmw`, `atomic_load` and `atomic_store`.
    Atomic,
}

impl Class {
    /// Every class, in index order.
    pub const ALL: [Class; 8] = [
        Class::Lock,
        Class::Unlock,
        Class::CondWait,
        Class::Signal,
        Class::Barrier,
        Class::Spawn,
        Class::Join,
        Class::Atomic,
    ];

    /// Metric-name stem.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Class::Lock => "lock",
            Class::Unlock => "unlock",
            Class::CondWait => "cond_wait",
            Class::Signal => "signal",
            Class::Barrier => "barrier",
            Class::Spawn => "spawn",
            Class::Join => "join",
            Class::Atomic => "atomic",
        }
    }
}

/// Reads, writes and the remaining cheap calls (`tick`, `alloc`,
/// `dealloc`, `emit`, `count_app_events`) are too frequent to time
/// every call: one call in this many is timed, and the class total is
/// extrapolated from the sampled mean.
pub const SAMPLE_EVERY: u64 = 32;

/// A sampled interval longer than this was descheduled: it is left out
/// of the sampled mean, so one preemption is not multiplied by
/// [`SAMPLE_EVERY`], and its time shows in the residue.
pub const PREEMPTED_NS: u64 = 50_000;

/// What timing an empty call reads: the clock's own cost, taken off
/// every timed interval. Measured once, before the first instrumented
/// run.
fn timer_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut v: Vec<u64> = (0..1001)
            .map(|_| {
                let t0 = Instant::now();
                nanos(t0)
            })
            .collect();
        v.sort_unstable();
        v[v.len() / 2]
    })
}

/// Totals for one timed class.
#[derive(Clone, Debug, Default)]
pub struct ClassTotals {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds inside the calls.
    pub ns: u64,
    /// Per-call latency distribution.
    pub hist: Histogram,
}

/// Totals for one sampled class of calls, or of compute gaps.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sampled {
    /// Calls made (unused for gaps).
    pub calls: u64,
    /// Intervals timed and not preempted.
    pub timed: u64,
    /// Nanoseconds inside those intervals.
    pub timed_ns: u64,
    /// Timed intervals longer than [`PREEMPTED_NS`].
    pub preempted: u64,
}

impl Sampled {
    /// Estimated nanoseconds inside all calls.
    #[must_use]
    pub fn est_ns(&self) -> f64 {
        self.extrapolate(self.calls)
    }

    /// Adds one timed sample, or counts it as preempted.
    fn record(&mut self, ns: u64) {
        if ns > PREEMPTED_NS {
            self.preempted += 1;
        } else {
            self.timed += 1;
            self.timed_ns += ns;
        }
    }

    /// The mean of the timed samples times `population`.
    fn extrapolate(&self, population: u64) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns as f64 * population as f64 / self.timed as f64
        }
    }

    fn merge(&mut self, o: &Sampled) {
        self.calls += o.calls;
        self.timed += o.timed;
        self.timed_ns += o.timed_ns;
        self.preempted += o.preempted;
    }
}

/// What [`instrument`] recorded, summed over threads.
#[derive(Clone, Debug, Default)]
pub struct ApiTotals {
    /// Per-class totals, indexed like [`Class::ALL`].
    pub classes: [ClassTotals; 8],
    /// `read_bytes` calls.
    pub reads: Sampled,
    /// `write_bytes` calls.
    pub writes: Sampled,
    /// `tick`, `alloc`, `dealloc`, `emit` and `count_app_events` calls.
    pub other: Sampled,
    /// Compute time measured exactly: from thread start to the first
    /// call, and from each timed-class call's return to the next call.
    pub gaps_exact_ns: u64,
    /// Compute time after sampled-class calls: the gap from a timed
    /// sampled call's return to the next call, one per timed call.
    pub gaps: Sampled,
    /// Thread wall time, body entry to body return, summed over threads.
    pub thread_wall_ns: u64,
    /// Threads that ran to completion under the shim.
    pub threads: u64,
}

impl ApiTotals {
    /// Folds another thread's or run's totals into these.
    pub fn merge(&mut self, o: &ApiTotals) {
        for (a, b) in self.classes.iter_mut().zip(&o.classes) {
            a.calls += b.calls;
            a.ns += b.ns;
            a.hist.merge(&b.hist);
        }
        self.reads.merge(&o.reads);
        self.writes.merge(&o.writes);
        self.other.merge(&o.other);
        self.gaps_exact_ns += o.gaps_exact_ns;
        self.gaps.merge(&o.gaps);
        self.thread_wall_ns += o.thread_wall_ns;
        self.threads += o.threads;
    }

    /// The class totals for `c`.
    #[must_use]
    pub fn class(&self, c: Class) -> &ClassTotals {
        &self.classes[c as usize]
    }

    /// Nanoseconds inside API calls: timed classes exactly, sampled
    /// classes by estimate.
    #[must_use]
    pub fn calls_ns(&self) -> f64 {
        let timed: u64 = self.classes.iter().map(|c| c.ns).sum();
        timed as f64 + self.reads.est_ns() + self.writes.est_ns() + self.other.est_ns()
    }

    /// `app.compute_ns`: time between API calls, measured on its own —
    /// exactly after timed-class calls, by sample after the others.
    #[must_use]
    pub fn compute_ns(&self) -> f64 {
        let after_sampled = self.reads.calls + self.writes.calls + self.other.calls;
        self.gaps_exact_ns as f64 + self.gaps.extrapolate(after_sampled)
    }

    /// Thread wall minus every measured part: the sampling error plus
    /// the preempted samples left out of the means.
    #[must_use]
    pub fn residue_ns(&self) -> f64 {
        self.thread_wall_ns as f64 - self.calls_ns() - self.compute_ns()
    }
}

/// Where shimmed threads deposit their records when their body returns.
#[derive(Debug, Default)]
pub struct Sink {
    api: Mutex<ApiTotals>,
    rounds: Mutex<Vec<u64>>,
}

impl Sink {
    /// The API totals of every thread that has finished so far.
    ///
    /// # Panics
    /// Panics when a shimmed thread panicked while depositing.
    #[must_use]
    pub fn api(&self) -> ApiTotals {
        self.api.lock().expect("sink poisoned").clone()
    }

    /// Tid 0's barrier-to-barrier intervals, in nanoseconds.
    ///
    /// # Panics
    /// Panics when a shimmed thread panicked while depositing.
    #[must_use]
    pub fn rounds(&self) -> Vec<u64> {
        self.rounds.lock().expect("sink poisoned").clone()
    }
}

/// Wraps `f` so that it, and every thread it spawns, times its API calls
/// into `sink`.
#[must_use]
pub fn instrument(f: ThreadFn, sink: &Arc<Sink>) -> ThreadFn {
    timer_overhead_ns();
    wrap(f, sink, true)
}

/// Wraps the root `f` so that tid 0's barrier returns are timestamped
/// into `sink`. Spawned threads run unwrapped.
#[must_use]
pub fn time_rounds(f: ThreadFn, sink: &Arc<Sink>) -> ThreadFn {
    wrap(f, sink, false)
}

fn wrap(f: ThreadFn, sink: &Arc<Sink>, api: bool) -> ThreadFn {
    let sink = Arc::clone(sink);
    Box::new(move |ctx: &mut dyn DmtCtx| {
        let start = Instant::now();
        let mut shim = Shim {
            inner: ctx,
            sink: Arc::clone(&sink),
            api: api.then(ApiTotals::default),
            last_barrier: None,
            rounds: Vec::new(),
            gap_from: Some((start, false)),
        };
        f(&mut shim);
        shim.enter();
        if let Some(mut t) = shim.api.take() {
            t.thread_wall_ns = nanos(start);
            t.threads = 1;
            sink.api.lock().expect("sink poisoned").merge(&t);
        }
        if !shim.rounds.is_empty() {
            sink.rounds
                .lock()
                .expect("sink poisoned")
                .extend_from_slice(&shim.rounds);
        }
    })
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A timed interval, the clock's own cost taken off.
fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos())
        .unwrap_or(u64::MAX)
        .saturating_sub(timer_overhead_ns())
}

struct Shim<'a> {
    inner: &'a mut dyn DmtCtx,
    sink: Arc<Sink>,
    /// `Some` in instrumenting mode.
    api: Option<ApiTotals>,
    last_barrier: Option<Instant>,
    rounds: Vec<u64>,
    /// Where the compute gap now running started, and whether it follows
    /// a sampled-class call. `None` while the gap is not being timed.
    gap_from: Option<(Instant, bool)>,
}

impl Shim<'_> {
    /// Marks a call's entry: closes the compute gap being timed, if any,
    /// and returns the entry time in instrumenting mode.
    fn enter(&mut self) -> Option<Instant> {
        let api = self.api.as_mut()?;
        let now = Instant::now();
        if let Some((from, sampled)) = self.gap_from.take() {
            let ns = ns_between(from, now);
            if sampled {
                api.gaps.record(ns);
            } else {
                api.gaps_exact_ns += ns;
            }
        }
        Some(now)
    }

    fn end(&mut self, c: Class, t0: Option<Instant>) {
        if let (Some(api), Some(t0)) = (self.api.as_mut(), t0) {
            let now = Instant::now();
            let ns = ns_between(t0, now);
            let slot = &mut api.classes[c as usize];
            slot.calls += 1;
            slot.ns += ns;
            slot.hist.record(ns);
            self.gap_from = Some((now, false));
        }
    }

    /// Runs a sampled call, timing one in [`SAMPLE_EVERY`].
    fn sampled<R>(
        &mut self,
        pick: fn(&mut ApiTotals) -> &mut Sampled,
        call: impl FnOnce(&mut dyn DmtCtx) -> R,
    ) -> R {
        let Some(api) = self.api.as_mut() else {
            return call(self.inner);
        };
        let s = pick(api);
        s.calls += 1;
        let timed = s.calls.is_multiple_of(SAMPLE_EVERY);
        if !timed && self.gap_from.is_none() {
            return call(self.inner);
        }
        let t0 = self.enter().expect("instrumenting");
        if !timed {
            return call(self.inner);
        }
        let r = call(self.inner);
        let now = Instant::now();
        pick(self.api.as_mut().expect("instrumenting")).record(ns_between(t0, now));
        self.gap_from = Some((now, true));
        r
    }
}

impl DmtCtx for Shim<'_> {
    fn tid(&self) -> Tid {
        self.inner.tid()
    }

    fn tick(&mut self, n: u64) {
        self.sampled(|a| &mut a.other, |c| c.tick(n));
    }

    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.sampled(|a| &mut a.reads, |c| c.read_bytes(addr, buf));
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        self.sampled(|a| &mut a.writes, |c| c.write_bytes(addr, data));
    }

    fn lock(&mut self, m: MutexId) {
        let t = self.enter();
        self.inner.lock(m);
        self.end(Class::Lock, t);
    }

    fn unlock(&mut self, m: MutexId) {
        let t = self.enter();
        self.inner.unlock(m);
        self.end(Class::Unlock, t);
    }

    fn cond_wait(&mut self, c: CondId, m: MutexId) {
        let t = self.enter();
        self.inner.cond_wait(c, m);
        self.end(Class::CondWait, t);
    }

    fn cond_signal(&mut self, c: CondId) {
        let t = self.enter();
        self.inner.cond_signal(c);
        self.end(Class::Signal, t);
    }

    fn cond_broadcast(&mut self, c: CondId) {
        let t = self.enter();
        self.inner.cond_broadcast(c);
        self.end(Class::Signal, t);
    }

    fn barrier(&mut self, b: BarrierId, parties: usize) {
        let t = self.enter();
        self.inner.barrier(b, parties);
        self.end(Class::Barrier, t);
        if self.api.is_none() {
            let now = Instant::now();
            if let Some(prev) = self.last_barrier.replace(now) {
                let ns = now.duration_since(prev).as_nanos();
                self.rounds.push(u64::try_from(ns).unwrap_or(u64::MAX));
            }
        }
    }

    fn spawn(&mut self, f: ThreadFn) -> ThreadHandle {
        let t = self.enter();
        let f = if self.api.is_some() {
            instrument(f, &self.sink)
        } else {
            f
        };
        let h = self.inner.spawn(f);
        self.end(Class::Spawn, t);
        h
    }

    fn join(&mut self, h: ThreadHandle) {
        let t = self.enter();
        self.inner.join(h);
        self.end(Class::Join, t);
    }

    fn alloc(&mut self, size: u64, align: u64) -> Addr {
        self.sampled(|a| &mut a.other, |c| c.alloc(size, align))
    }

    fn dealloc(&mut self, addr: Addr) {
        self.sampled(|a| &mut a.other, |c| c.dealloc(addr));
    }

    fn emit(&mut self, bytes: &[u8]) {
        self.sampled(|a| &mut a.other, |c| c.emit(bytes));
    }

    fn atomic_rmw(&mut self, addr: Addr, op: AtomicOp) -> u64 {
        let t = self.enter();
        let v = self.inner.atomic_rmw(addr, op);
        self.end(Class::Atomic, t);
        v
    }

    fn atomic_load(&mut self, addr: Addr) -> u64 {
        let t = self.enter();
        let v = self.inner.atomic_load(addr);
        self.end(Class::Atomic, t);
        v
    }

    fn atomic_store(&mut self, addr: Addr, value: u64) {
        let t = self.enter();
        self.inner.atomic_store(addr, value);
        self.end(Class::Atomic, t);
    }

    fn count_app_events(&mut self, retries: u64, shed: u64) {
        self.sampled(|a| &mut a.other, |c| c.count_app_events(retries, shed));
    }
}
