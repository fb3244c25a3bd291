//! The repository benchmark: named workloads run on RFDet-ci against
//! the pthreads baseline, timed from outside the runtime. `README.md`
//! in this directory records what each workload is for and what each
//! metric should move; `src/main.rs` is the command.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod sample;
pub mod shim;

use rfdet_api::{FaultPlan, RunConfig, ThreadFn, Tid};
use rfdet_workloads::{service, Params, Size};

/// The workloads `--workload` accepts.
pub const WORKLOADS: [&str; 4] = ["sync_dense", "mem_dense", "ledger", "ledger_observed"];

/// The ledger service program both ledger workloads run.
pub const LEDGER: &str = "service.ledger.bench";

/// The registered programs a workload runs, in cycle order.
#[must_use]
pub fn programs(workload: &str) -> Option<&'static [&'static str]> {
    match workload {
        "sync_dense" => Some(&["dedup", "ferret", "water-ns"]),
        "mem_dense" => Some(&["wordcount", "ocean", "linear_regression"]),
        "ledger" | "ledger_observed" => Some(&[LEDGER]),
        _ => None,
    }
}

/// Whether the workload turns on the flight recorder, in-memory
/// checkpoints and race detection, and runs crash-failover cycles.
#[must_use]
pub fn is_observed(workload: &str) -> bool {
    workload == "ledger_observed"
}

/// A registered program's root for the given parameters.
///
/// # Panics
/// Panics on a name the workload registry does not know.
#[must_use]
pub fn root(program: &str, p: Params) -> ThreadFn {
    let w = rfdet_workloads::by_name(program).expect("benchmark programs are registered");
    (w.factory)(p)
}

/// The parameters every execution uses: `threads` workers at bench
/// scale, inputs generated from `seed`.
#[must_use]
pub fn params(threads: usize, seed: u64) -> Params {
    Params {
        threads,
        size: Size::Bench,
        seed,
    }
}

/// Requests one execution of `program` serves (0 for batch programs).
#[must_use]
pub fn requests(program: &str, threads: usize) -> u64 {
    if program == LEDGER {
        service::requests_per_run(threads, Size::Bench)
    } else {
        0
    }
}

/// The run configuration of a workload's RFDet executions:
/// `RunConfig::default()`, plus, on `ledger_observed`, the flight
/// recorder, a checkpoint at every eighth of the request rounds (kept
/// in memory) and race detection.
#[must_use]
pub fn run_config(workload: &str, threads: usize) -> RunConfig {
    let mut cfg = RunConfig::default();
    if is_observed(workload) {
        cfg.trace = Some(format!("{LEDGER}@{threads}"));
        cfg.checkpoint_every = checkpoint_every(threads);
        cfg.persist_checkpoints = false;
        cfg.detect_races = true;
        // Race detection turns slice merging off inside `run_traced`,
        // and checkpoints record that effective setting, but
        // `run_resumed` compares them with the config as passed. Saying
        // it here changes nothing about the run and lets failover
        // resume from those checkpoints.
        cfg.rfdet.slice_merging = false;
    }
    cfg
}

fn checkpoint_every(threads: usize) -> u64 {
    (service::request_rounds_per_run(threads, Size::Bench) / 8).max(2)
}

/// The crash a failover cycle injects: the last worker panics in the
/// request round whose barrier would seal the eighth checkpoint, the
/// worst case for the cadence (recovery restores the seventh and
/// replays everything after it).
#[must_use]
pub fn failover_plan(threads: usize) -> FaultPlan {
    let workers = threads.max(1);
    let round = 8 * checkpoint_every(workers) - 1;
    let op = service::OPS_INIT_ROUND + (round - 1) * service::ops_per_request_round(workers) + 2;
    let tid = Tid::try_from(workers).expect("worker count fits a tid");
    FaultPlan::new().panic_at(tid, op)
}
