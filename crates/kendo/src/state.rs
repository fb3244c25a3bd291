//! The arbitration state machine: successor handoff.
//!
//! The turn holder alone computes the next minimal `(clock, tid)` when
//! it releases the turn and publishes it in a packed [`AtomicU64`]
//! baton. Waiters check one uncontended load; non-designated waiters
//! park on their own slot condvar and are woken by a targeted notify.
//! One O(T) scan per turn *transition*, by one thread.
//!
//! The turn is always granted to the unique minimal `(clock, tid)` over
//! `Active` threads — a pure function of the logical clocks. Debug
//! builds check every grant against that predicate (`has_turn`), and the
//! tests pin the admitted sequence against a pure simulation.

use parking_lot::{Condvar, Mutex, RwLock};
use rfdet_vclock::Tid;
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicU8, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Pads a value to its own cache line so per-thread slots never falsely
/// share one (the only piece of `crossbeam` this crate used; inlined so
/// the workspace builds offline).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Thread status in the arbitration protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Participates in turn arbitration; other threads wait for its clock.
    Active = 0,
    /// Physically blocked (on a lock queue, condition variable, join or
    /// barrier); skipped by the minimum computation. May only be set by
    /// the thread itself during its own turn, and cleared by a waker
    /// during *its* turn.
    Blocked = 1,
    /// Exited; never returns to the protocol.
    Finished = 2,
}

impl Status {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => Status::Active,
            1 => Status::Blocked,
            2 => Status::Finished,
            _ => unreachable!("invalid status byte"),
        }
    }
}

#[derive(Debug)]
struct Slot {
    clock: CachePadded<AtomicU64>,
    status: CachePadded<AtomicU8>,
    /// Parking support for blocked threads and non-designated
    /// turn-waiters.
    park_lock: Mutex<()>,
    park_cv: Condvar,
    /// Set by [`KendoState::nudge_blocked`]: the parked thread should run
    /// its idle callback now rather than at the next idle re-check.
    nudged: AtomicBool,
    /// Set (under `park_lock`) while the owner may sleep on `park_cv`.
    /// A notifier that publishes its state change and then reads this
    /// `false` may skip the lock and the notify: the owner re-checks
    /// that state after setting the flag, before it sleeps.
    sleeping: AtomicBool,
}

impl Slot {
    /// Wakes the owner if it may be sleeping on its condvar. Call after
    /// publishing the state the owner waits for (SeqCst): either the
    /// owner sees that state before sleeping, or this sees `sleeping`.
    fn notify_if_sleeping(&self) -> bool {
        if !self.sleeping.load(SeqCst) {
            return false;
        }
        let _guard = self.park_lock.lock();
        self.park_cv.notify_all();
        true
    }

    fn new(clock: u64, status: Status) -> Self {
        Self {
            clock: CachePadded::new(AtomicU64::new(clock)),
            status: CachePadded::new(AtomicU8::new(status as u8)),
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
            nudged: AtomicBool::new(false),
            sleeping: AtomicBool::new(false),
        }
    }
}

/// Maximum threads per run: the baton packs the tid into its low byte
/// and reserves `0xFF` for the NONE sentinel.
pub const MAX_THREADS: usize = 255;

/// Baton value meaning "no active thread is designated" (terminal:
/// every registered thread is blocked or finished). Its low byte is
/// `0xFF`, which no valid tid can match.
const BATON_NONE: u64 = u64::MAX;

/// Period of a parked thread's idle re-check: how long a blocked thread
/// sleeps between looking for its wakeup (or the abort flag) when no one
/// has signalled it, and the cadence of the idle callback. Purely a
/// liveness/latency constant — wakeups themselves are deterministic.
const IDLE_POLL: Duration = Duration::from_millis(20);

#[inline]
fn pack(clock: u64, tid: Tid) -> u64 {
    debug_assert!(clock < 1 << 56, "kendo clock overflows the baton");
    (clock << 8) | u64::from(tid) & 0xFF
}

#[inline]
fn baton_tid(b: u64) -> Tid {
    (b & 0xFF) as Tid
}

#[inline]
fn baton_clock(b: u64) -> u64 {
    b >> 8
}

/// `RFDET_KENDO_TRACE` looked up once per process — the wait loop used
/// to call `env::var_os` every 1000 spins.
fn kendo_trace_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("RFDET_KENDO_TRACE").is_some())
}

/// Grow-only lock-free slot table: a fixed array of `OnceLock` cells
/// plus a published length. Readers on the hot path (`has_turn`, the
/// handoff scan, `status_of`, `finish_forced`) take no lock at all;
/// writers (`register`) are serialized by the registration mutex and
/// publish the new length with `Release` so a reader that observes index
/// `i` also observes slot `i` initialized.
struct SlotTable {
    slots: Box<[OnceLock<Arc<Slot>>]>,
    len: AtomicUsize,
}

impl SlotTable {
    fn new() -> Self {
        Self {
            slots: (0..MAX_THREADS).map(|_| OnceLock::new()).collect(),
            len: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len.load(Acquire)
    }

    /// Appends a slot; caller must hold the registration lock.
    fn push(&self, slot: Arc<Slot>) -> usize {
        let i = self.len.load(Acquire);
        assert!(i < MAX_THREADS, "kendo: more than {MAX_THREADS} threads");
        assert!(self.slots[i].set(slot).is_ok(), "slot {i} registered twice");
        self.len.store(i + 1, Release);
        i
    }

    #[inline]
    fn get(&self, i: usize) -> &Arc<Slot> {
        self.slots[i]
            .get()
            .expect("slot index past registered length")
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = (usize, &Arc<Slot>)> {
        (0..self.len()).map(move |i| (i, self.get(i)))
    }
}

/// A thread's cached handle to its own slot (keeps the hot `tick` path to
/// one uncontended atomic add).
#[derive(Clone, Debug)]
pub struct KendoHandle {
    slot: Arc<Slot>,
    tid: Tid,
}

impl KendoHandle {
    /// The thread this handle belongs to.
    #[must_use]
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Advances this thread's logical clock by `n`.
    #[inline]
    pub fn tick(&self, n: u64) {
        self.slot.clock.fetch_add(n, SeqCst);
    }

    /// This thread's current logical clock.
    #[inline]
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.slot.clock.load(SeqCst)
    }
}

/// How aggressively waiters spin before parking (see
/// `KendoState::spin_tier`). Purely a wall-clock policy: affects *when*
/// a waiter sleeps, never *which* thread is admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SpinTier {
    /// Threads ≤ CPUs: long yield phases, parking is the exception.
    Dedicated,
    /// Mild oversubscription (≤ 8×): short yield phases.
    Shared,
    /// Heavy oversubscription (≥ 8×): park after a token yield phase.
    Saturated,
}

/// A tier's wait budget, in loop iterations. Every waiter runs `spins`
/// iterations of `spin_loop`, then yields until its cap, then parks on
/// its slot condvar.
struct SpinBudget {
    /// Leading `spin_loop` iterations (the rest of each phase yields).
    spins: u32,
    /// Iterations a non-designated turn-waiter spends before parking.
    turn_wait: u32,
    /// Iterations a blocked thread polls its status before sleeping.
    block_poll: u32,
}

impl SpinTier {
    /// The per-tier budgets, measured in DESIGN.md §4.10. Only a
    /// dedicated host spins: with more threads than CPUs, every
    /// `pause`-spinning waiter holds a CPU the designated successor may
    /// be queued for, while a yield hands it over. At 8×
    /// oversubscription any yield phase in a blocked park costs 30-50%
    /// wall time (the condvar, whose waiters cost the waker nothing,
    /// carries the wait); at 2-4× a short yield phase still beats the
    /// futex round trip.
    const fn budget(self) -> SpinBudget {
        match self {
            SpinTier::Dedicated => SpinBudget {
                spins: 64,
                turn_wait: 256,
                block_poll: 20_000,
            },
            SpinTier::Shared => SpinBudget {
                spins: 0,
                turn_wait: 96,
                block_poll: 192,
            },
            SpinTier::Saturated => SpinBudget {
                spins: 0,
                turn_wait: 64,
                block_poll: 64,
            },
        }
    }
}

/// Observer of deterministic wakeups, set by the runtime's flight
/// recorder: called with `(woken tid, its new clock)` from inside the
/// waker's turn — a deterministic point of the schedule, which is what
/// makes wake events recordable at all.
pub type WakeTap = Box<dyn Fn(Tid, u64) + Send + Sync>;

/// The global arbitration state shared by all threads of one run.
pub struct KendoState {
    slots: SlotTable,
    /// Serializes `register` (a cold path; runtime registrations happen
    /// inside the parent's turn anyway, but tests register freely).
    register_lock: Mutex<()>,
    /// The handoff baton: `(clock << 8) | tid` of the thread currently
    /// designated to hold (or next take) the turn, or [`BATON_NONE`].
    ///
    /// Ownership invariant: only the thread named by the baton may scan
    /// and republish it. While a turn is in progress the baton holds the
    /// holder's `(arrival clock, tid)`; the holder's release tick makes
    /// that pair stale against its own clock, and the holder then runs
    /// the successor scan and hands the baton off. Scans are sound
    /// without an epoch guard because status changes (block, wake,
    /// finish, register) happen only inside turns — which cannot run
    /// concurrently with the unique baton owner's scan — and clocks are
    /// monotone, so an observed minimum stays a minimum.
    baton: CachePadded<AtomicU64>,
    /// How long a parked thread waits between deadlock scans.
    deadlock_after: Option<Duration>,
    /// Period of a parked thread's idle re-check: [`IDLE_POLL`] outside
    /// unit tests.
    idle_poll: Duration,
    /// Set when some thread panicked: every waiter unwinds instead of
    /// spinning forever on a protocol that will never advance.
    abort: AtomicBool,
    /// Bumped on every non-monotone event (wake, register). The
    /// `has_turn` scan is not atomic; ticks are monotone so stale reads
    /// only make the scan conservative, but a *wake* can re-activate a
    /// blocked thread with a lower clock. Requiring the epoch to be
    /// unchanged across the scan makes a successful scan sound: any
    /// wake that lands after a clean scan must come from a turn-holder
    /// whose clock the scan already saw (and rejected, had it been
    /// smaller).
    wake_epoch: AtomicU64,
    /// Successor scans run (one per turn transition).
    handoff_scans: AtomicU64,
    /// Targeted unparks issued to a designated successor asleep on its
    /// condvar (a successor still polling reads the baton itself).
    handoff_wakes: AtomicU64,
    /// Times a non-designated turn-waiter gave up spinning and parked.
    turn_parks: AtomicU64,
    /// Blocked threads flagged by [`KendoState::nudge_blocked`].
    gc_nudges: AtomicU64,
    /// Host parallelism, read once at construction. Purely a spin-length
    /// hint: when registered threads exceed it, waiters shorten their
    /// yield phases and park early — a runnable waiter on an
    /// oversubscribed host steals quanta from the turn holder, so the
    /// yield storm costs more than the condvar round trip it avoids.
    /// Never consulted for any scheduling *decision*.
    cpus: usize,
    /// Flight-recorder wake observer. Cold: read under an uncontended
    /// `RwLock` only on the wake path (already a slow path), `None` when
    /// recording is off.
    wake_tap: RwLock<Option<WakeTap>>,
}

impl std::fmt::Debug for KendoState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KendoState")
            .field("threads", &self.num_threads())
            .field("deadlock_after", &self.deadlock_after)
            .field("aborted", &self.aborted())
            .field("state", &self.debug_state())
            .finish_non_exhaustive()
    }
}

impl Default for KendoState {
    fn default() -> Self {
        Self::new()
    }
}

impl KendoState {
    /// Creates an empty arbitration state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: SlotTable::new(),
            register_lock: Mutex::new(()),
            baton: CachePadded::new(AtomicU64::new(BATON_NONE)),
            deadlock_after: Some(Duration::from_secs(30)),
            idle_poll: IDLE_POLL,
            abort: AtomicBool::new(false),
            wake_epoch: AtomicU64::new(0),
            handoff_scans: AtomicU64::new(0),
            handoff_wakes: AtomicU64::new(0),
            turn_parks: AtomicU64::new(0),
            gc_nudges: AtomicU64::new(0),
            cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            wake_tap: RwLock::new(None),
        }
    }

    /// Spin-length tier, from the registered-threads : host-CPUs ratio.
    /// Spinning is a latency win only while the spinner does not steal
    /// the quantum the waker needs; the more oversubscribed the host,
    /// the sooner a waiter should be off the run queue (budgets in
    /// [`SpinTier::budget`]).
    fn spin_tier(&self) -> SpinTier {
        let t = self.slots.len();
        if t >= 8 * self.cpus {
            SpinTier::Saturated
        } else if t > self.cpus {
            SpinTier::Shared
        } else {
            SpinTier::Dedicated
        }
    }

    /// Installs the wake observer (see [`WakeTap`]). The runtime sets
    /// this once at run start, before any thread can wake another.
    pub fn set_wake_tap(&self, tap: WakeTap) {
        *self.wake_tap.write() = Some(tap);
    }

    /// Aborts the run: all threads waiting in [`KendoState::wait_for_turn`]
    /// or [`KendoState::park_until_active`] panic promptly. Used to
    /// propagate a panic out of one thread without deadlocking the rest.
    pub fn set_abort(&self) {
        self.abort.store(true, SeqCst);
        // Kick every parked thread — blocked parkers and turn-waiters
        // alike share the slot condvar — so they observe the flag.
        for (_, slot) in self.slots.iter() {
            let _guard = slot.park_lock.lock();
            slot.park_cv.notify_all();
        }
    }

    /// `true` once the run has been aborted.
    #[must_use]
    pub fn aborted(&self) -> bool {
        self.abort.load(SeqCst)
    }

    fn check_abort(&self) {
        assert!(
            !self.aborted(),
            "kendo: run aborted by supervisor (peer panic, deadlock, or wedge)"
        );
    }

    /// Overrides the deadlock-detection timeout (`None` disables it).
    #[must_use]
    pub fn with_deadlock_timeout(mut self, t: Option<Duration>) -> Self {
        self.deadlock_after = t;
        self
    }

    /// Shortens the idle re-check period so a test can observe idle
    /// wakeups quickly.
    #[cfg(test)]
    fn with_idle_poll(mut self, period: Duration) -> Self {
        self.idle_poll = period;
        self
    }

    /// Handoff-protocol counters: `(successor scans, targeted unparks,
    /// turn-waiter parks)`.
    #[must_use]
    pub fn handoff_counters(&self) -> (u64, u64, u64) {
        (
            self.handoff_scans.load(Relaxed),
            self.handoff_wakes.load(Relaxed),
            self.turn_parks.load(Relaxed),
        )
    }

    /// Blocked threads nudged by [`KendoState::nudge_blocked`] so far.
    #[must_use]
    pub fn gc_nudges(&self) -> u64 {
        self.gc_nudges.load(Relaxed)
    }

    /// Asks every parked `Blocked` thread to run its idle callback now.
    ///
    /// The runtime calls this when a GC pass reclaimed nothing: the
    /// glb is pinned by some thread's stale published clock, typically
    /// a joiner or lock-queued thread whose prelock pre-merge would
    /// advance it but otherwise runs only once per idle re-check. A
    /// nudged parker runs its callback immediately (stage 2) or before
    /// it first sleeps (a nudge landing in the poll stage is kept in the
    /// slot flag). Wall-clock only: an idle callback may run at any
    /// time by contract, and no thread's status or clock changes here.
    pub fn nudge_blocked(&self) {
        for (_, slot) in self.slots.iter() {
            if Status::from_u8(slot.status.load(SeqCst)) != Status::Blocked {
                continue;
            }
            // Flag before the notify: the parker checks the flag under
            // its park lock before sleeping, so the nudge cannot be lost.
            slot.nudged.store(true, SeqCst);
            slot.notify_if_sleeping();
            self.gc_nudges.fetch_add(1, Relaxed);
        }
    }

    /// Epoch-stable stable-deadlock scan: `Some(blocked tids)` iff at
    /// least one registered thread is `Blocked` and **every** registered,
    /// non-`Finished` thread is `Blocked` — verified with `wake_epoch`
    /// unchanged across the scan, exactly like `has_turn`.
    ///
    /// Why a clean scan proves a *stable* deadlock: a `Blocked` thread
    /// never wakes another thread (wakes happen only inside a waker's
    /// turn, and only `Active` threads take turns), so once every live
    /// thread is observed `Blocked` under one epoch, no future wake can
    /// originate inside the run. The state is permanent — no wall clock
    /// needed. A mid-scan register or wake bumps the epoch and the scan
    /// reports `None` (caller retries later).
    #[must_use]
    pub fn blocked_snapshot(&self) -> Option<Vec<Tid>> {
        let epoch_before = self.wake_epoch.load(SeqCst);
        let mut blocked = Vec::new();
        for (i, s) in self.slots.iter() {
            match Status::from_u8(s.status.load(SeqCst)) {
                Status::Active => return None,
                Status::Blocked => blocked.push(i as Tid),
                Status::Finished => {}
            }
        }
        if blocked.is_empty() || self.wake_epoch.load(SeqCst) != epoch_before {
            return None;
        }
        Some(blocked)
    }

    /// Registers the next thread with an initial clock and returns its
    /// slot handle. Thread IDs are dense and sequential; callers must
    /// invoke this under a deterministic order (inside the parent's turn).
    pub fn register(&self, initial_clock: u64) -> KendoHandle {
        let guard = self.register_lock.lock();
        let slot = Arc::new(Slot::new(initial_clock, Status::Active));
        let tid = self.slots.push(Arc::clone(&slot)) as Tid;
        // Seed or lower the baton when the newcomer is the minimum. A
        // runtime registration happens inside the parent's turn, where
        // the child's clock (parent + 1) can never undercut the holder's
        // baton pair — so this fires only for the first thread and for
        // pre-run test registration, where no turn is in progress and
        // re-aiming the baton at the true minimum is exactly right.
        let packed = pack(initial_clock, tid);
        if packed < self.baton.load(SeqCst) {
            self.baton.store(packed, SeqCst);
        }
        drop(guard);
        self.wake_epoch.fetch_add(1, SeqCst);
        KendoHandle { slot, tid }
    }

    /// Number of registered threads.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.slots.len()
    }

    /// A thread's current clock.
    #[must_use]
    pub fn clock_of(&self, tid: Tid) -> u64 {
        self.slots.get(tid as usize).clock.load(SeqCst)
    }

    /// A thread's current status.
    #[must_use]
    pub fn status_of(&self, tid: Tid) -> Status {
        Status::from_u8(self.slots.get(tid as usize).status.load(SeqCst))
    }

    /// `true` iff `(clock, tid)` is minimal over all `Active` threads —
    /// verified by an epoch-stable scan (see `wake_epoch`). The pure turn
    /// predicate every baton grant is `debug_assert!`ed against.
    fn has_turn(&self, me: &KendoHandle) -> bool {
        let epoch_before = self.wake_epoch.load(SeqCst);
        let my_clock = me.clock();
        for (i, s) in self.slots.iter() {
            if i as Tid == me.tid {
                continue;
            }
            if Status::from_u8(s.status.load(SeqCst)) != Status::Active {
                continue;
            }
            let c = s.clock.load(SeqCst);
            if (c, i as Tid) < (my_clock, me.tid) {
                return false;
            }
        }
        // A wake or register slipped in mid-scan: the snapshot may be
        // inconsistent (a thread observed Blocked may now be Active with
        // a smaller clock). Retry.
        self.wake_epoch.load(SeqCst) == epoch_before
    }

    /// The successor scan: one O(T) pass over the slot table computing
    /// the minimal `(clock, tid)` over `Active` threads, published into
    /// the baton. Returns `true` iff the caller itself is the minimum
    /// (it then holds the turn); otherwise the designated successor is
    /// unparked with a targeted notify.
    ///
    /// Soundness: only the baton owner calls this, so no turn body — and
    /// therefore no block/wake/finish/register — runs concurrently.
    /// Statuses are frozen for the duration of the scan and clocks only
    /// grow, so the observed minimum is the true minimum at publication
    /// time. (A designated thread that ticks past the observed clock
    /// before reading the baton sees the stale pair, becomes the unique
    /// scanner by the same ownership rule, and repairs the designation.)
    fn scan_and_publish(&self, me: &KendoHandle) -> bool {
        self.handoff_scans.fetch_add(1, Relaxed);
        let mut best: Option<(u64, Tid)> = None;
        for (i, s) in self.slots.iter() {
            if Status::from_u8(s.status.load(SeqCst)) != Status::Active {
                continue;
            }
            let cand = (s.clock.load(SeqCst), i as Tid);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        match best {
            None => {
                // Terminal: everyone blocked or finished. Parked blocked
                // threads own deadlock detection from here.
                self.baton.store(BATON_NONE, SeqCst);
                false
            }
            Some((clock, tid)) => {
                // Publish before the notify: a parker sets its `sleeping`
                // flag and then re-checks the baton under its park lock
                // before sleeping, so lost wakeups are impossible.
                self.baton.store(pack(clock, tid), SeqCst);
                if tid == me.tid {
                    return true;
                }
                // A successor still polling reads the baton itself; the
                // lock and the condvar's futex syscall are paid only for
                // a parked one.
                if self.slots.get(tid as usize).notify_if_sleeping() {
                    self.handoff_wakes.fetch_add(1, Relaxed);
                }
                false
            }
        }
    }

    /// Releases the turn after a sync operation: advances the caller's
    /// clock by `n` and runs the successor scan. The caller must hold the
    /// turn.
    pub fn release_turn(&self, me: &KendoHandle, n: u64) {
        me.tick(n);
        self.scan_and_publish(me);
    }

    /// Off-turn clock advance with stale-designation repair.
    ///
    /// The paper's §3.1 no-blocking property: a thread that never
    /// synchronizes must not delay threads that do. Under handoff, the
    /// successor scan can designate a compute-bound thread (minimal
    /// clock, `Active`) that is nowhere near the arbiter; if that thread
    /// only ever advanced its clock through the plain [`KendoHandle::tick`],
    /// waiters it has since ticked past would stay parked until it next
    /// entered a sync op — potentially forever. So off-turn ticks route
    /// here: whenever the clock crosses a 64-unit boundary, the thread
    /// checks one baton load and, if it is named with a now-stale clock,
    /// repairs the designation by rescanning.
    ///
    /// Soundness: a stale designation can never be *taken* (admission
    /// requires the baton clock to equal the thread's current clock, and
    /// clocks are monotone), so the named thread is the unique legal
    /// scanner whether it notices in the arbiter or out here. Statuses
    /// still only change inside turn bodies, and no turn body can start
    /// while the baton names this thread, so the scan's frozen-status
    /// argument carries over unchanged.
    ///
    /// Liveness of the amortization: if the designated thread stops
    /// ticking entirely its clock is frozen, so by the admission rule
    /// every waiter must wait for it regardless — no repair could help.
    /// If it keeps ticking, it crosses a boundary within 64 units and
    /// repairs. Wall-clock only: which thread is admitted next is still
    /// exactly the minimal `(clock, tid)`, whenever the scan runs.
    pub fn tick_off_turn(&self, me: &KendoHandle, n: u64) {
        let old = me.slot.clock.fetch_add(n, SeqCst);
        let new = old + n;
        if (old >> 6) == (new >> 6) {
            return;
        }
        let b = self.baton.load(SeqCst);
        if b != BATON_NONE && baton_tid(b) == me.tid && baton_clock(b) < new {
            self.scan_and_publish(me);
        }
    }

    /// Blocks until the calling thread holds the turn.
    ///
    /// On return the caller is the unique minimal active thread and stays
    /// so until it ticks; everything it does in between is serialized
    /// against every other turn body, in deterministic order.
    ///
    /// One uncontended baton load per check. The designated successor
    /// takes the turn (or repairs a stale designation); everyone else
    /// spins briefly and then parks until the targeted unpark.
    pub fn wait_for_turn(&self, me: &KendoHandle) {
        let start = Instant::now();
        let mut spins: u32 = 0;
        loop {
            // Abort check must precede the fast-path return: a thread
            // that is always the designated leader would otherwise never
            // observe the abort.
            self.check_abort();
            let b = self.baton.load(SeqCst);
            if baton_tid(b) == me.tid {
                let my_clock = me.clock();
                let bc = baton_clock(b);
                if bc == my_clock {
                    debug_assert!(
                        self.has_turn(me),
                        "baton grant disagrees with the turn predicate: t{} clock={} state={}",
                        me.tid,
                        my_clock,
                        self.debug_state()
                    );
                    return;
                }
                // Stale designation: we ticked past the clock the scan
                // observed (off-turn memory ticks). Clock monotonicity
                // means the baton can only lag, never lead.
                debug_assert!(
                    bc < my_clock,
                    "baton clock {bc} ahead of its owner t{} at {my_clock}",
                    me.tid
                );
                // We are the unique baton owner: rescan and either take
                // the turn or hand off to the real minimum.
                if self.scan_and_publish(me) {
                    debug_assert!(
                        self.has_turn(me),
                        "post-rescan grant fails the turn predicate"
                    );
                    return;
                }
                spins = 0;
                continue;
            }
            if b == BATON_NONE {
                // No designated thread, yet we are Active: a state only
                // test harnesses can construct (the runtime's last active
                // thread always republishes before anyone new can wait).
                // Safe to scan — with no turn in progress, statuses are
                // frozen and any published minimum is valid.
                if self.scan_and_publish(me) {
                    return;
                }
            }
            spins += 1;
            // Oversubscribed hosts park almost immediately: the targeted
            // unpark makes spinning pure overhead once the CPUs are full
            // of peers that all want the quantum we are burning.
            let budget = self.spin_tier().budget();
            if spins < budget.spins {
                std::hint::spin_loop();
            } else if spins < budget.turn_wait {
                std::thread::yield_now();
            } else {
                // Not designated: park. The successor scan that picks us
                // will publish our exact pair (a parked thread's clock is
                // frozen) and notify our condvar.
                self.park_for_baton(me, start);
                spins = 0;
            }
        }
    }

    /// Parks a non-designated turn-waiter on its own slot condvar until
    /// the baton names it (or the run aborts / the starvation bound
    /// trips). Wakeup sources: the targeted handoff notify, the
    /// `set_abort` sweep, and the `idle_poll` timeout for re-checks.
    fn park_for_baton(&self, me: &KendoHandle, start: Instant) {
        self.turn_parks.fetch_add(1, Relaxed);
        let mut guard = me.slot.park_lock.lock();
        me.slot.sleeping.store(true, SeqCst);
        loop {
            self.check_abort();
            if baton_tid(self.baton.load(SeqCst)) == me.tid {
                me.slot.sleeping.store(false, Relaxed);
                return;
            }
            me.slot.park_cv.wait_for(&mut guard, self.idle_poll);
            if kendo_trace_enabled() {
                eprintln!(
                    "[kendo-trace] t{} parked for turn at clock {}: {}",
                    me.tid,
                    me.clock(),
                    self.debug_state()
                );
            }
            if let Some(limit) = self.deadlock_after {
                if start.elapsed() > limit {
                    // Abort first so every *other* waiter (parked or
                    // spinning) wakes and unwinds too, instead of only
                    // the thread that noticed.
                    drop(guard);
                    self.set_abort();
                    panic!(
                        "kendo: thread {} starved waiting for its turn for {:?} \
                         (parked; clock={}, state={})",
                        me.tid,
                        limit,
                        me.clock(),
                        self.debug_state()
                    );
                }
            }
        }
    }

    /// Marks the calling thread blocked. **Must be called while holding
    /// the turn**, immediately before the final tick of a blocking
    /// operation.
    pub fn block(&self, me: &KendoHandle) {
        debug_assert!(
            self.has_turn(me),
            "block() outside of turn: t{} clock={} state={}",
            me.tid,
            me.clock(),
            self.debug_state()
        );
        me.slot.status.store(Status::Blocked as u8, SeqCst);
    }

    /// Marks the calling thread finished. Must be called while holding
    /// the turn; the turn is implicitly released (finished threads are
    /// skipped by arbitration), so this also runs the successor scan.
    pub fn finish(&self, me: &KendoHandle) {
        debug_assert!(self.has_turn(me), "finish() outside of turn");
        me.slot.status.store(Status::Finished as u8, SeqCst);
        self.scan_and_publish(me);
    }

    /// Marks a thread finished without the turn assertion. Only for panic
    /// cleanup after [`KendoState::set_abort`] (no baton repair needed:
    /// every waiter is already unwinding on the abort flag) and for
    /// checkpoint-restore registration of already-dead threads (the
    /// restorer calls [`KendoState::reseed_baton`] afterwards).
    pub fn finish_forced(&self, tid: Tid) {
        self.slots
            .get(tid as usize)
            .status
            .store(Status::Finished as u8, SeqCst);
    }

    /// Re-aims the baton at the true minimal `(clock, tid)` over `Active`
    /// threads (or [`BATON_NONE`] when none remain). For checkpoint
    /// restore, **before the run starts**: `register` seeds the baton
    /// with the minimum over *all* registrations, but restore also
    /// registers already-finished threads (tids must stay dense), and
    /// `finish_forced` never republishes — without the reseed the baton
    /// could name a `Finished` thread forever and the resumed run would
    /// hang at its first turn. Not for concurrent use: no thread may be
    /// waiting yet (no notify is issued).
    pub fn reseed_baton(&self) {
        let mut best: Option<(u64, Tid)> = None;
        for (i, s) in self.slots.iter() {
            if Status::from_u8(s.status.load(SeqCst)) != Status::Active {
                continue;
            }
            let cand = (s.clock.load(SeqCst), i as Tid);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        let packed = best.map_or(BATON_NONE, |(c, t)| pack(c, t));
        self.baton.store(packed, SeqCst);
    }

    /// Reactivates a blocked thread with a deterministic new clock.
    ///
    /// **Must be called from inside the waker's turn**, and `new_clock`
    /// must be strictly greater than the waker's current clock — this
    /// keeps the waker minimal until its own tick and makes the order of
    /// the wakeup deterministic. (The waker's release scan then decides
    /// whether the woken thread is the next successor.)
    pub fn wake(&self, target: Tid, new_clock: u64) {
        let slot = Arc::clone(self.slots.get(target as usize));
        debug_assert_eq!(
            Status::from_u8(slot.status.load(SeqCst)),
            Status::Blocked,
            "wake of a non-blocked thread {target}"
        );
        // Clock first, then status: a concurrent has_turn() that observes
        // Active will also observe the new clock or a larger one.
        slot.clock.store(new_clock, SeqCst);
        slot.status.store(Status::Active as u8, SeqCst);
        slot.notify_if_sleeping();
        self.wake_epoch.fetch_add(1, SeqCst);
        if let Some(tap) = self.wake_tap.read().as_ref() {
            tap(target, new_clock);
        }
    }

    /// Parks the calling thread until some waker flips it back to
    /// `Active`. Call after [`KendoState::block`] + the final tick of the
    /// blocking operation.
    ///
    /// Two-stage wait: a yield-polling stage first — a yielding thread
    /// keeps a tiny vruntime, so the scheduler runs it promptly after the
    /// waker's store even when a compute-bound thread saturates the CPU
    /// (futex wakeups on a loaded single CPU otherwise cost a scheduler
    /// granule per lock handoff, serializing handoff-heavy programs) —
    /// then a condvar sleep for long parks so join-style waits do not
    /// burn cycles.
    pub fn park_until_active(&self, me: &KendoHandle) {
        self.park_until_active_with(me, || {});
    }

    /// [`KendoState::park_until_active`] with an idle callback, invoked
    /// periodically while still parked, and at once when the thread is
    /// nudged ([`KendoState::nudge_blocked`]). RFDet uses this to run
    /// prelock pre-merging off the critical path (§4.5) and to keep a
    /// blocked thread's published clock advancing so it does not pin
    /// garbage collection.
    ///
    /// Returns the number of *idle wakeups*: sleep timeouts (one per
    /// idle re-check period, 20 ms) that expired while the thread was
    /// still parked. Nudges and spurious returns are not counted. The
    /// metrics layer histograms this so spurious-wakeup regressions are
    /// visible; the count must never feed back into scheduling.
    pub fn park_until_active_with(&self, me: &KendoHandle, mut on_idle: impl FnMut()) -> u64 {
        let start = Instant::now();
        // Stage 1: poll. Typical lock/condvar handoffs land here; a
        // yielding thread keeps a tiny vruntime so the scheduler runs it
        // promptly after the waker's store even on a saturated CPU. On an
        // oversubscribed host that logic inverts — every yielding blocked
        // thread competes with the waker for the quantum it needs to
        // reach the wake call — so the poll stage is cut short (see
        // `SpinTier::budget`) and the condvar carries the wait.
        let budget = self.spin_tier().budget();
        let mut polls: u32 = 0;
        while Status::from_u8(me.slot.status.load(SeqCst)) != Status::Active {
            self.check_abort();
            // A dedicated host polls for up to milliseconds: act on a
            // nudge here rather than only once the sleep stage begins.
            if me.slot.nudged.load(Relaxed) && me.slot.nudged.swap(false, SeqCst) {
                on_idle();
            }
            polls += 1;
            if polls < budget.spins {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            if polls > budget.block_poll {
                break; // long park: fall through to sleeping
            }
        }
        // Stage 2: sleep on the slot condvar, doing idle work between
        // timeouts and on nudges.
        let mut idle_wakeups: u64 = 0;
        let mut guard = me.slot.park_lock.lock();
        me.slot.sleeping.store(true, SeqCst);
        let mut next_idle = Instant::now() + self.idle_poll;
        while Status::from_u8(me.slot.status.load(SeqCst)) != Status::Active {
            self.check_abort();
            // Checked under the park lock before sleeping, so a nudge
            // that lands at any point (poll stage, previous callback, or
            // the sleep itself) runs the callback on this iteration or
            // the next instead of waiting out a full period.
            let nudged = me.slot.nudged.swap(false, SeqCst);
            if !nudged {
                if me
                    .slot
                    .park_cv
                    .wait_for(&mut guard, self.idle_poll)
                    .timed_out()
                {
                    idle_wakeups += 1;
                }
                if Status::from_u8(me.slot.status.load(SeqCst)) == Status::Active {
                    break;
                }
            }
            if nudged || Instant::now() >= next_idle {
                // Run the callback without the park lock so wakers are
                // never blocked on it.
                drop(guard);
                on_idle();
                guard = me.slot.park_lock.lock();
                next_idle = Instant::now() + self.idle_poll;
            }
            if let Some(limit) = self.deadlock_after {
                if start.elapsed() > limit
                    && Status::from_u8(me.slot.status.load(SeqCst)) != Status::Active
                {
                    // Wake-all before unwinding: peers parked on other
                    // slots must not be left behind.
                    drop(guard);
                    self.set_abort();
                    panic!(
                        "kendo: thread {} parked for {:?} without wakeup — \
                         likely an application deadlock (state={})",
                        me.tid,
                        limit,
                        self.debug_state()
                    );
                }
            }
        }
        me.slot.sleeping.store(false, Relaxed);
        idle_wakeups
    }

    /// Snapshot of all slots for diagnostics.
    #[must_use]
    pub fn debug_state(&self) -> String {
        let mut s = String::new();
        for (i, slot) in self.slots.iter() {
            use std::fmt::Write;
            let _ = write!(
                s,
                "[t{} {:?}@{}]",
                i,
                Status::from_u8(slot.status.load(SeqCst)),
                slot.clock.load(SeqCst)
            );
        }
        let b = self.baton.load(SeqCst);
        use std::fmt::Write;
        if b == BATON_NONE {
            let _ = write!(s, " baton=none");
        } else {
            let _ = write!(s, " baton=t{}@{}", baton_tid(b), baton_clock(b));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn register_assigns_sequential_tids() {
        let k = KendoState::new();
        assert_eq!(k.register(0).tid(), 0);
        assert_eq!(k.register(1).tid(), 1);
        assert_eq!(k.num_threads(), 2);
    }

    #[test]
    fn tick_and_clock() {
        let k = KendoState::new();
        let h = k.register(5);
        assert_eq!(h.clock(), 5);
        h.tick(3);
        assert_eq!(h.clock(), 8);
        assert_eq!(k.clock_of(0), 8);
    }

    #[test]
    fn single_thread_always_has_turn() {
        let k = KendoState::new();
        let h = k.register(0);
        k.wait_for_turn(&h); // returns immediately
        k.release_turn(&h, 1);
        k.wait_for_turn(&h);
    }

    #[test]
    fn lower_clock_wins_tie_by_tid() {
        let k = KendoState::new();
        let a = k.register(10);
        let b = k.register(10);
        // Equal clocks: tid 0 is minimal.
        assert!(k.has_turn(&a));
        assert!(!k.has_turn(&b));
        a.tick(1);
        assert!(k.has_turn(&b));
        assert!(!k.has_turn(&a));
    }

    #[test]
    fn blocked_threads_are_skipped() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(100);
        assert!(!k.has_turn(&b));
        k.block(&a); // a has the turn (clock 0) and blocks itself
        assert!(k.has_turn(&b));
    }

    #[test]
    fn finished_threads_are_skipped() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(100);
        k.finish(&a);
        assert!(k.has_turn(&b));
    }

    #[test]
    fn finish_hands_the_baton_to_the_survivor() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(100);
        k.finish(&a);
        // The successor scan must have designated b: its wait returns
        // without any other thread running.
        k.wait_for_turn(&b);
    }

    #[test]
    fn release_turn_designates_the_next_minimum() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(3);
        k.wait_for_turn(&a);
        k.release_turn(&a, 5); // a: 0 -> 5; b (3) is now minimal
        k.wait_for_turn(&b);
        k.release_turn(&b, 5); // b: 3 -> 8; a (5) minimal again
        k.wait_for_turn(&a);
        let (scans, wakes, _) = k.handoff_counters();
        assert!(scans >= 2, "each release runs one successor scan");
        assert_eq!(wakes, 0, "no successor was asleep: no unpark issued");
    }

    #[test]
    fn stale_designation_is_repaired_by_the_owner() {
        let k = Arc::new(KendoState::new());
        let a = k.register(0);
        let b = k.register(3);
        k.wait_for_turn(&a);
        k.release_turn(&a, 1); // a: 0 -> 1, still minimal: baton = (1, a)
        a.tick(10); // off-turn ticks make the designation stale (a=11 > b=3)
        let k2 = Arc::clone(&k);
        let t = std::thread::spawn(move || {
            // Stranded on the stale baton until the owner's next wait
            // repairs the designation — the runtime analogue is the
            // holder's next sync op.
            k2.wait_for_turn(&b);
            k2.release_turn(&b, 20); // b: 3 -> 23; a (11) minimal again
        });
        k.wait_for_turn(&a); // owner rescans, hands off to b, then waits
        t.join().unwrap();
    }

    #[test]
    fn wake_restores_participation_with_new_clock() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(50);
        k.block(&a);
        assert!(k.has_turn(&b));
        k.wake(0, 60);
        assert_eq!(k.clock_of(0), 60);
        assert_eq!(k.status_of(0), Status::Active);
        assert!(k.has_turn(&b), "b (50) still beats rewoken a (60)");
        b.tick(11);
        assert!(k.has_turn(&a));
    }

    #[test]
    fn park_returns_after_wake() {
        let k = Arc::new(KendoState::new());
        let a = k.register(0);
        let _b = k.register(10);
        k.block(&a);
        let k2 = Arc::clone(&k);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            k2.wake(0, 42);
        });
        k.park_until_active(&a);
        assert_eq!(a.clock(), 42);
        waker.join().unwrap();
    }

    #[test]
    fn idle_poll_knob_counts_idle_wakeups() {
        let k = Arc::new(KendoState::new().with_idle_poll(Duration::from_millis(5)));
        let a = k.register(0);
        let _b = k.register(10);
        k.block(&a);
        let k2 = Arc::clone(&k);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            k2.wake(0, 42);
        });
        let idles = k.park_until_active_with(&a, || {});
        waker.join().unwrap();
        assert_eq!(a.clock(), 42);
        assert!(
            idles >= 1,
            "a 200 ms park polling every 5 ms must observe idle wakeups, got {idles}"
        );
    }

    /// Parks `a` (blocked, tid 0) on a thread whose idle callback reports
    /// on a channel; returns the parker and the callback receiver.
    fn spawn_parker(
        k: &Arc<KendoState>,
        a: KendoHandle,
    ) -> (std::thread::JoinHandle<u64>, std::sync::mpsc::Receiver<()>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let k2 = Arc::clone(k);
        let parker = std::thread::spawn(move || {
            k2.park_until_active_with(&a, || {
                let _ = tx.send(());
            })
        });
        (parker, rx)
    }

    #[test]
    fn nudge_runs_the_idle_callback_promptly() {
        // A 10 s idle period: without the nudge the callback would not
        // run within the test's 5 s bound.
        let k = Arc::new(KendoState::new().with_idle_poll(Duration::from_secs(10)));
        let a = k.register(0);
        let _b = k.register(10);
        k.block(&a);
        let (parker, rx) = spawn_parker(&k, a);
        // Usually asleep on its condvar by now; a nudge must also reach
        // a parker still in the poll stage, so either way is a pass.
        std::thread::sleep(Duration::from_millis(100));
        k.nudge_blocked();
        assert!(
            rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "a nudged parker must run its idle callback now"
        );
        assert_eq!(k.gc_nudges(), 1);
        k.wake(0, 42);
        assert_eq!(parker.join().unwrap(), 0, "a nudge is not an idle timeout");
    }

    #[test]
    fn nudge_before_the_sleep_stage_is_not_lost() {
        let k = Arc::new(KendoState::new().with_idle_poll(Duration::from_secs(10)));
        let a = k.register(0);
        let _b = k.register(10);
        k.block(&a);
        // Nudged before the parker even starts polling: the flag must
        // survive the poll stage and fire before the first sleep.
        k.nudge_blocked();
        let (parker, rx) = spawn_parker(&k, a);
        assert!(
            rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "a nudge issued before the sleep stage must not be lost"
        );
        k.wake(0, 42);
        assert_eq!(parker.join().unwrap(), 0);
    }

    #[test]
    fn nudge_skips_threads_that_are_not_blocked() {
        let k = KendoState::new();
        let a = k.register(0);
        let _b = k.register(10);
        k.nudge_blocked();
        assert_eq!(k.gc_nudges(), 0, "no thread is blocked");
        k.block(&a);
        k.nudge_blocked();
        assert_eq!(k.gc_nudges(), 1);
    }

    /// N threads each take `rounds` turns appending their tid, ticking by
    /// a schedule-determined amount; returns the admission order.
    fn contended_order(k: Arc<KendoState>, n: u64, rounds: u64) -> Vec<Tid> {
        let order = Arc::new(Mutex::new(Vec::new()));
        let started = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let k = Arc::clone(&k);
                let order = Arc::clone(&order);
                let started = Arc::clone(&started);
                let h = k.register(0);
                std::thread::spawn(move || {
                    started.fetch_add(1, SeqCst);
                    while started.load(SeqCst) < n as usize {
                        std::hint::spin_loop();
                    }
                    for round in 0..rounds {
                        k.wait_for_turn(&h);
                        order.lock().push(h.tid());
                        // Uneven, deterministic progress per thread.
                        k.release_turn(&h, 1 + (i + round) % 3);
                    }
                    k.wait_for_turn(&h);
                    k.finish(&h);
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        Arc::try_unwrap(order).unwrap().into_inner()
    }

    #[test]
    fn turn_order_is_deterministic_under_contention() {
        let run = || contended_order(Arc::new(KendoState::new()), 4, 50);
        let a = run();
        let b = run();
        let c = run();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.len(), 200);
    }

    /// The admission order [`contended_order`] must produce, computed
    /// without threads: repeatedly admit the minimal `(clock, tid)` among
    /// threads with rounds left and advance its clock by the same
    /// schedule.
    fn simulated_order(n: u64, rounds: u64) -> Vec<Tid> {
        let mut clock = vec![0u64; n as usize];
        let mut round = vec![0u64; n as usize];
        let mut order = Vec::new();
        while let Some(i) = (0..n as usize)
            .filter(|&i| round[i] < rounds)
            .min_by_key(|&i| (clock[i], i))
        {
            order.push(i as Tid);
            clock[i] += 1 + (i as u64 + round[i]) % 3;
            round[i] += 1;
        }
        order
    }

    #[test]
    fn handoff_admits_the_simulated_turn_sequence() {
        // The turn order is a pure function of `(clock, tid)`: the
        // threaded handoff must admit exactly the simulated order.
        for n in [2u64, 4, 8, 16] {
            let rounds = 30;
            let handoff = contended_order(Arc::new(KendoState::new()), n, rounds);
            assert_eq!(
                handoff,
                simulated_order(n, rounds),
                "divergence at {n} threads"
            );
            assert_eq!(handoff.len() as u64, n * rounds);
        }
    }

    #[test]
    fn parked_turn_waiter_observes_abort() {
        let k = Arc::new(KendoState::new().with_deadlock_timeout(None));
        let _a = k.register(0); // designated leader; never progresses
        let b = k.register(10);
        let k2 = Arc::clone(&k);
        let waiter = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k2.wait_for_turn(&b))).is_err()
        });
        // Give b time to pass the spin stage and park on its condvar.
        std::thread::sleep(Duration::from_millis(50));
        let (_, _, parks) = k.handoff_counters();
        assert!(parks >= 1, "non-designated waiter must park, not spin");
        k.set_abort();
        assert!(
            waiter.join().unwrap(),
            "abort must unwind a parked turn-waiter"
        );
    }

    #[test]
    fn wake_tap_observes_wakes_inside_the_waker_turn() {
        let k = KendoState::new();
        let a = k.register(0);
        let _b = k.register(50);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        k.set_wake_tap(Box::new(move |tid, clock| seen2.lock().push((tid, clock))));
        k.block(&a);
        k.wake(0, 60);
        assert_eq!(*seen.lock(), vec![(0, 60)]);
        assert_eq!(a.clock(), 60, "tap observation does not perturb the wake");
    }

    #[test]
    fn blocked_snapshot_only_when_every_live_thread_is_blocked() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(1);
        assert!(k.blocked_snapshot().is_none(), "both threads active");
        k.block(&a);
        assert!(k.blocked_snapshot().is_none(), "b still active");
        k.block(&b);
        assert_eq!(k.blocked_snapshot(), Some(vec![0, 1]));
    }

    #[test]
    fn blocked_snapshot_skips_finished_threads() {
        let k = KendoState::new();
        let a = k.register(0);
        let b = k.register(1);
        k.block(&a);
        k.finish(&b);
        assert_eq!(k.blocked_snapshot(), Some(vec![0]));
    }

    #[test]
    fn blocked_snapshot_none_when_all_finished_or_empty() {
        let k = KendoState::new();
        assert!(k.blocked_snapshot().is_none());
        let a = k.register(0);
        k.finish(&a);
        assert!(k.blocked_snapshot().is_none());
    }

    #[test]
    fn timeout_aborts_the_whole_run_not_just_the_scanner() {
        let k = Arc::new(KendoState::new().with_deadlock_timeout(Some(Duration::from_millis(100))));
        let _a = k.register(10); // minimal active thread; never progresses
        let b = k.register(10); // loses the tid tie-break: starves
        let c = k.register(0); // will park
        k.block(&c); // c holds the turn (clock 0) and blocks itself
        let k2 = Arc::clone(&k);
        let starved = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k2.wait_for_turn(&b))).is_err()
        });
        // b's starvation timeout must flip the global abort so c — parked
        // on a different slot, with no wakeup ever coming — unwinds too.
        let res =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.park_until_active(&c)));
        assert!(res.is_err(), "abort must reach parked peers");
        assert!(k.aborted());
        assert!(starved.join().unwrap());
    }

    #[test]
    #[should_panic(expected = "starved")]
    fn starvation_detector_fires() {
        let k = KendoState::new().with_deadlock_timeout(Some(Duration::from_millis(150)));
        let _a = k.register(0); // never ticks, never blocked
        let b = k.register(10);
        k.wait_for_turn(&b); // can never win
    }

    /// §3.1 repair: a compute-bound thread that the successor scan
    /// designated (minimal clock, never entering the arbiter) must hand
    /// the baton onward from its off-turn ticks once it passes the
    /// waiter — without this, the waiter parks until the compute
    /// thread's next sync op, which may be arbitrarily far away.
    #[test]
    fn off_turn_ticks_repair_stale_designation() {
        let k = Arc::new(KendoState::new().with_deadlock_timeout(Some(Duration::from_secs(30))));
        let a = k.register(0);
        let compute = k.register(0);
        // a takes and releases its turn; the scan designates `compute`
        // (clock 0 beats a's post-release clock).
        k.wait_for_turn(&a);
        k.release_turn(&a, 1);
        assert_eq!(baton_tid(k.baton.load(SeqCst)), compute.tid());
        let k2 = Arc::clone(&k);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            // Parks: the baton names `compute`, whose clock is below a's.
            k2.wait_for_turn(&a);
            tx.send(()).unwrap();
        });
        // The compute thread never calls wait_for_turn; its off-turn
        // ticks alone must republish the baton to `a` once they cross a
        // 64-unit boundary past a's clock.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            k.tick_off_turn(&compute, 64);
            match rx.try_recv() {
                Ok(()) => break,
                Err(_) => assert!(Instant::now() < deadline, "waiter still parked"),
            }
            std::thread::yield_now();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn reseed_baton_skips_finished_registrations() {
        // Restore registers dead threads too (dense tids); the baton may
        // then name a Finished thread. Reseed must re-aim it at the live
        // minimum.
        let k = KendoState::new();
        let dead = k.register(0);
        let live = k.register(7);
        k.finish_forced(dead.tid());
        assert_eq!(baton_tid(k.baton.load(SeqCst)), dead.tid(), "stale seed");
        k.reseed_baton();
        assert_eq!(baton_tid(k.baton.load(SeqCst)), live.tid());
        k.wait_for_turn(&live); // returns: the designation is repaired
    }

    #[test]
    fn reseed_baton_with_no_active_threads_is_none() {
        let k = KendoState::new();
        let a = k.register(0);
        k.finish_forced(a.tid());
        k.reseed_baton();
        assert_eq!(k.baton.load(SeqCst), BATON_NONE);
    }

    #[test]
    fn baton_packing_round_trips() {
        let b = pack(123_456, 17);
        assert_eq!(baton_tid(b), 17);
        assert_eq!(baton_clock(b), 123_456);
        // Tuple order is preserved by integer order on the packed form.
        assert!(pack(5, 0) < pack(5, 1));
        assert!(pack(5, 200) < pack(6, 0));
        assert!(pack(6, 0) < BATON_NONE);
    }
}
