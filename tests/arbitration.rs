//! Turn-arbitration properties.
//!
//! Successor handoff must be *invisible*: which thread is admitted next
//! is a pure function of logical clocks, and arbitration only changes
//! when the winner finds out (a baton handoff + targeted unpark). These
//! properties pin that: every terminal digest is identical under two
//! different physical jitter schedules, on every deterministic backend,
//! across thread counts and under random fault plans. The kendo crate
//! pins the raw turn *sequence* against a pure simulation at the unit
//! level; here the whole runtime — wakes, blocks, mailboxes,
//! propagation — rides on top.

use proptest::prelude::*;
use rfdet::workloads::{chaos, stress, Params, Size};
use rfdet::{
    all_backends, DmtBackend, FaultPlan, RfdetBackend, RunConfig, RunError, RunOutput, ThreadFn,
};

fn cfg(plan: FaultPlan, seed: Option<u64>) -> RunConfig {
    let mut c = RunConfig::small();
    c.rfdet.fault_cost_spins = 0;
    c.fault_plan = plan;
    c.jitter_seed = seed;
    // Plenty for a Size::Test workload; short enough that a handoff
    // liveness bug fails the suite instead of hanging it.
    c.deadlock_after_ms = Some(20_000);
    c
}

/// The terminal digest of a run, whichever way it ended (same shape as
/// tests/metrics.rs): clean runs compare `output_digest()`, failing runs
/// `report_digest()`, and the bool keeps the two from aliasing.
fn terminal_digest(result: &Result<RunOutput, RunError>) -> (bool, u64) {
    match result {
        Ok(out) => (true, out.output_digest()),
        Err(err) => (false, err.report_digest()),
    }
}

fn sync_heavy(threads: usize) -> ThreadFn {
    stress::sync_heavy(Params::new(threads, Size::Test))
}

proptest! {
    // Every case runs {2,4,8,16} threads × two jitter schedules on each
    // deterministic backend — keep the case count modest.
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// Handoff arbitration lands on the same terminal digest under two
    /// different jittered physical schedules for the sync-dense
    /// adversary at every thread count, under randomized fault plans
    /// (panics + logical jitter).
    #[test]
    fn handoff_outcome_is_jitter_stable_on_all_backends(
        jitter_seed in 0u64..1_000,
        plan_seed in 0u64..1_000,
        faults in 1usize..4,
    ) {
        for threads in [2usize, 4, 8, 16] {
            let plan = FaultPlan::random(plan_seed, threads as u32, 40, faults);
            for backend in all_backends().into_iter().filter(|b| b.is_deterministic()) {
                let name = backend.name();
                let a = backend
                    .run(&cfg(plan.clone(), Some(jitter_seed)), sync_heavy(threads));
                let b = backend
                    .run(&cfg(plan.clone(), Some(jitter_seed + 1_000)), sync_heavy(threads));
                prop_assert_eq!(
                    terminal_digest(&a),
                    terminal_digest(&b),
                    "{}@{}t: the physical schedule changed the outcome",
                    &name,
                    threads
                );
            }
        }
    }
}

/// The handoff machinery actually engages on the RFDet backend: turn
/// transitions run successor scans.
#[test]
fn handoff_counters_report_engagement() {
    let out = RfdetBackend::ci()
        .run(&cfg(FaultPlan::new(), None), sync_heavy(8))
        .expect("clean run");
    assert!(
        out.stats.handoff_scans > 0,
        "handoff mode must run successor scans"
    );
}

/// Structural deadlock detection still fires promptly when the
/// non-successor waiters are *parked* (not spinning): an AB-BA deadlock
/// under handoff is typed and carries the same reproducible digest as a
/// rerun.
#[test]
fn parked_waiters_do_not_mask_deadlock_detection() {
    let threads = 2;
    let mk = || chaos::abba_deadlock(Params::new(threads, Size::Test));
    let backend = RfdetBackend::ci();
    let t0 = std::time::Instant::now();
    let first = backend.run(&cfg(FaultPlan::new(), None), mk());
    let elapsed = t0.elapsed();
    let rerun = backend.run(&cfg(FaultPlan::new(), None), mk());
    let (a, b) = match (&first, &rerun) {
        (Err(a @ RunError::Deadlock(_)), Err(b @ RunError::Deadlock(_))) => (a, b),
        other => panic!("expected two Deadlock errors, got {other:?}"),
    };
    assert_eq!(a.report_digest(), b.report_digest());
    assert!(
        elapsed < std::time::Duration::from_secs(15),
        "structural detection must beat the wall-clock fallback (took {elapsed:?})"
    );
}
