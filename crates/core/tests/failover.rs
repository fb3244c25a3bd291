//! Crash-failover convergence (DESIGN.md §4.12): kill a worker at a
//! FaultPlan coordinate mid-stream, restore the last checkpoint, replay
//! the input tail, and require the recovered replica's digest to be
//! byte-identical to an unfaulted replica's — at 2, 4 and 8 threads.

use rfdet_api::{FailureKind, FaultPlan, RunConfig};
use rfdet_core::{run_failover, RfdetBackend};
use rfdet_workloads::{service, Params, Size};

/// Checkpoint cadence in barrier episodes. Test scale runs 7 episodes
/// (init + 6 request rounds), so checkpoints seal at epochs 2, 4, 6.
const EVERY: u64 = 2;

fn cfg_for(workers: usize, plan: FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.rfdet.fault_cost_spins = 0;
    cfg.deadlock_after_ms = Some(10_000);
    cfg.checkpoint_every = EVERY;
    cfg.trace = Some(format!("service.ledger@{workers}"));
    cfg.fault_plan = plan;
    cfg
}

/// A sync-op index inside the *last* request round for a worker: past
/// the epoch-6 checkpoint, so recovery restores epoch 6 and replays
/// exactly one round.
fn late_crash_op(workers: usize) -> u64 {
    service::OPS_INIT_ROUND + 5 * service::ops_per_request_round(workers) + 2
}

fn report_for(workers: usize, plan: FaultPlan) -> rfdet_core::FailoverReport {
    let p = Params::new(workers, Size::Test);
    let bodies = service::ledger_resume(p);
    run_failover(
        &RfdetBackend::ci(),
        &cfg_for(workers, plan),
        &move || service::ledger(p),
        &*bodies,
    )
}

#[test]
fn late_crash_recovers_from_the_last_checkpoint_and_converges() {
    for workers in [2usize, 4, 8] {
        let victim = 2u32;
        let plan = FaultPlan::new().panic_at(victim, late_crash_op(workers));
        let r = report_for(workers, plan);
        let crash = r.crash.as_ref().unwrap_or_else(|| {
            panic!(
                "fault must fire at {workers} threads (op {})",
                late_crash_op(workers)
            )
        });
        assert_eq!(crash.kind, FailureKind::Panic, "{workers} threads");
        assert_eq!(crash.tid, victim, "{workers} threads");
        assert_eq!(
            r.recovered_from_epoch,
            Some(6),
            "{workers} threads: crash in round 6 recovers from epoch 6"
        );
        assert!(
            r.converged,
            "{workers} threads: recovered digest {:016x} != reference {:016x}",
            r.recovered_digest, r.reference_digest
        );
    }
}

#[test]
fn crash_before_the_first_checkpoint_recovers_from_scratch() {
    // Op 2 is the first lock of request round 1 — before epoch 2 seals.
    let plan = FaultPlan::new().panic_at(1, 2);
    let r = report_for(4, plan);
    assert!(r.crash.is_some(), "early fault must fire");
    assert_eq!(r.recovered_from_epoch, None, "no checkpoint existed yet");
    assert!(r.converged, "from-scratch replay still converges");
}

#[test]
fn plan_past_the_end_of_the_run_is_a_clean_convergent_noop() {
    let plan = FaultPlan::new().panic_at(2, 1_000_000);
    let r = report_for(4, plan);
    assert!(r.crash.is_none(), "coordinate never reached");
    assert!(r.converged);
    assert_eq!(r.recovered_digest, r.reference_digest);
}

#[test]
fn failover_recovers_through_persisted_checkpoints_too() {
    let workers = 4usize;
    let dir = std::env::temp_dir().join(format!("rfdet-failover-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let mut cfg = cfg_for(
        workers,
        FaultPlan::new().panic_at(2, late_crash_op(workers)),
    );
    cfg.persist_checkpoints = true;
    cfg.checkpoint_dir = Some(dir.clone());
    let p = Params::new(workers, Size::Test);
    let bodies = service::ledger_resume(p);
    let r = run_failover(
        &RfdetBackend::ci(),
        &cfg,
        &move || service::ledger(p),
        &*bodies,
    );
    std::fs::remove_dir_all(&dir).ok();
    assert!(r.crash.is_some());
    assert_eq!(r.recovered_from_epoch, Some(6));
    assert!(r.converged, "on-disk recovery path converges");
}

#[test]
fn late_crash_with_race_detection_resumes_under_the_recorded_config() {
    // Detection turns slice merging off for the run, and checkpoints
    // record that effective config: resume must derive the same one from
    // the config as passed (default `slice_merging = true`).
    let workers = 4usize;
    let mut cfg = cfg_for(
        workers,
        FaultPlan::new().panic_at(2, late_crash_op(workers)),
    );
    cfg.detect_races = true;
    assert!(cfg.rfdet.slice_merging);
    let p = Params::new(workers, Size::Test);
    let bodies = service::ledger_resume(p);
    let r = run_failover(
        &RfdetBackend::ci(),
        &cfg,
        &move || service::ledger(p),
        &*bodies,
    );
    assert!(r.crash.is_some(), "fault must fire");
    assert_eq!(r.recovered_from_epoch, Some(6));
    assert!(
        r.converged,
        "recovered digest {:016x} != reference {:016x}",
        r.recovered_digest, r.reference_digest
    );
}
