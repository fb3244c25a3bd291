//! The timing shim observes without deciding, and the seed reaches the
//! input generator of every workload.

use rfdet_api::{DmtBackend, RunConfig, RunOutput, Stats};
use rfdet_core::RfdetBackend;
use rfdet_perfbench::shim::{self, Class, Sink};
use rfdet_perfbench::{programs, root, run_config, LEDGER, WORKLOADS};
use rfdet_workloads::{Params, Size};
use std::collections::BTreeSet;
use std::sync::Arc;

fn test_params(seed: u64) -> Params {
    Params {
        threads: 2,
        size: Size::Test,
        seed,
    }
}

fn run(cfg: &RunConfig, program: &str, p: Params, sink: Option<&Arc<Sink>>) -> RunOutput {
    let mut f = root(program, p);
    if let Some(sink) = sink {
        f = shim::instrument(f, sink);
    }
    RfdetBackend::ci().run_expect(cfg, f)
}

fn calls(s: &Stats, c: Class) -> u64 {
    match c {
        Class::Lock => s.locks,
        Class::Unlock => s.unlocks,
        Class::CondWait => s.waits,
        Class::Signal => s.signals,
        Class::Barrier => s.barriers,
        Class::Spawn => s.forks,
        Class::Join => s.joins,
        Class::Atomic => s.atomics,
    }
}

#[test]
fn shim_counts_match_stats_and_leave_digests_alone() {
    // The ledger at test scale: `service.ledger` runs the same body as
    // the bench-pinned `service.ledger.bench`.
    let names = [
        "dedup",
        "ferret",
        "water-ns",
        "wordcount",
        "ocean",
        "linear_regression",
        "service.ledger",
    ];
    let cfg = RunConfig::default();
    for name in names {
        let p = test_params(7);
        let plain = run(&cfg, name, p, None);
        let sink = Arc::new(Sink::default());
        let shimmed = run(&cfg, name, p, Some(&sink));
        assert_eq!(
            plain.output, shimmed.output,
            "{name}: the shim must not change the output"
        );
        let api = sink.api();
        for c in Class::ALL {
            assert_eq!(
                api.class(c).calls,
                calls(&shimmed.stats, c),
                "{name}: {} calls",
                c.name()
            );
        }
        assert_eq!(
            api.threads,
            shimmed.stats.forks + 1,
            "{name}: every thread shimmed"
        );
        assert!(
            api.reads.calls > 0 && api.writes.calls > 0,
            "{name}: accesses counted"
        );
        assert!(api.compute_ns() > 0.0, "{name}: compute gaps timed");
        let parts = api.calls_ns() + api.compute_ns() + api.residue_ns();
        assert!(
            (parts - api.thread_wall_ns as f64).abs() < 1.0,
            "{name}: parts and residue sum to the wall"
        );
    }
}

#[test]
fn round_shim_times_every_request_round() {
    let p = test_params(7);
    let sink = Arc::new(Sink::default());
    let plain = run(&RunConfig::default(), "service.ledger", p, None);
    let out = RfdetBackend::ci().run_expect(
        &RunConfig::default(),
        shim::time_rounds(root("service.ledger", p), &sink),
    );
    assert_eq!(plain.output, out.output);
    let rounds = rfdet_workloads::service::request_rounds_per_run(2, Size::Test);
    assert_eq!(sink.rounds().len() as u64, rounds);
}

#[test]
fn observed_config_keeps_the_ledger_digest() {
    let p = test_params(7);
    let plain = run(&RunConfig::default(), "service.ledger", p, None);
    let observed =
        RfdetBackend::ci().run_traced(&run_config("ledger_observed", 2), root("service.ledger", p));
    let out = observed.result.expect("observed ledger runs clean");
    assert_eq!(plain.output, out.output, "observers are digest-neutral");
    assert!(out.races.is_empty(), "the ledger is race-free");
    assert!(observed.trace.is_some());
}

#[test]
fn seeds_reach_every_workload() {
    let cfg = RunConfig::default();
    for w in WORKLOADS {
        for &name in programs(w).expect("listed") {
            // The bench-pinned ledger always runs at bench scale; its
            // test-scale twin runs the same body.
            let name = if name == LEDGER {
                "service.ledger"
            } else {
                name
            };
            let digest = |seed| run(&cfg, name, test_params(seed), None).output_digest();
            let a = digest(1);
            assert_eq!(a, digest(1), "{w}/{name}: same seed, same digest");
            let seeds: BTreeSet<u64> = [a, digest(2)].into_iter().collect();
            assert_eq!(seeds.len(), 2, "{w}/{name}: two seeds, two digests");
        }
    }
}
