//! One benchmark run: `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! A run sets up (warm-up executions, repeated and timed), then runs a
//! closed loop for `--seconds`: each cycle executes every program of the
//! workload once on RFDet-ci and once on pthreads, in alternating order,
//! and checks every output. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` instruments the RFDet executions (API shim plus
//! `cfg.metrics`) and prints the per-layer metrics. The last stdout line
//! is the JSON result.

use rfdet_api::obs::{Phase, NUM_PHASES};
use rfdet_api::trace::Checkpoint;
use rfdet_api::{DmtBackend, RunConfig, RunTrace, Stats, TracedRun};
use rfdet_bench::{geomean, render_table};
use rfdet_core::{run_failover, RfdetBackend};
use rfdet_native::NativeBackend;
use rfdet_perfbench::sample::{bucket_quantile, median, percentile, tail, tail_pct};
use rfdet_perfbench::shim::{self, ApiTotals, Class, Sink};
use rfdet_perfbench::{host, is_observed, programs, LEDGER, WORKLOADS};
use rfdet_workloads::Params;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <sync_dense|mem_dense|ledger|ledger_observed> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// `ledger_observed` runs a crash-failover cycle every this many cycles.
const FAILOVER_EVERY: u64 = 2;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value.as_str())
                        .ok_or_else(|| bad("unknown workload"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected an integer"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("expected 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One program of the workload and its samples.
struct Prog {
    name: &'static str,
    params: Params,
    /// Requests one execution serves; 0 for batch programs.
    requests: u64,
    /// The digest every execution must reproduce (batch programs: on
    /// both backends; the ledger: on RFDet, whose schedule it encodes).
    expected: Option<u64>,
    /// Uninstrumented RFDet executions.
    rfdet_ms: Vec<f64>,
    /// Traced run only: the instrumented executions, for the tracing
    /// overhead.
    traced_ms: Vec<f64>,
    native_ms: Vec<f64>,
    footprint_mb: Vec<f64>,
    runtime_threads: u64,
}

impl Prog {
    /// Operations one execution counts for: its requests, or itself.
    fn ops(&self) -> u64 {
        self.requests.max(1)
    }
}

/// One phase's histogram, merged over executions.
#[derive(Clone, Default)]
struct PhaseAgg {
    sum: u64,
    buckets: BTreeMap<u64, u64>,
}

/// Per-layer totals over the traced run's instrumented executions.
#[derive(Default)]
struct Layers {
    execs: u64,
    stats: Stats,
    api: ApiTotals,
    phases: Vec<PhaseAgg>,
    trace_events: u64,
    trace_bytes: u64,
    ckpts: u64,
    ckpt_bytes: u64,
    races: u64,
    trace_encode_ns: u64,
    ckpt_encode_ns: u64,
    ckpt_decode_ns: u64,
}

/// What one RFDet execution produced.
struct Outcome {
    wall_ms: f64,
    ok: bool,
    shed: u64,
}

struct Bench {
    workload: &'static str,
    traced: bool,
    threads: usize,
    cfg: RunConfig,
    native_cfg: RunConfig,
    rfdet: RfdetBackend,
    progs: Vec<Prog>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    op_s: f64,
    op_count: u64,
    rounds_ns: Vec<u64>,
    recovery_ms: Vec<f64>,
    failover_full_ms: Vec<f64>,
    failovers: u64,
    converged: u64,
    layers: Layers,
}

impl Bench {
    fn new(args: &Args, threads: usize) -> Self {
        let names = programs(args.workload).expect("parsed workloads are known");
        let progs = names
            .iter()
            .map(|&name| Prog {
                name,
                params: rfdet_perfbench::params(threads, args.seed),
                requests: rfdet_perfbench::requests(name, threads),
                expected: None,
                rfdet_ms: Vec::new(),
                traced_ms: Vec::new(),
                native_ms: Vec::new(),
                footprint_mb: Vec::new(),
                runtime_threads: 0,
            })
            .collect();
        Self {
            workload: args.workload,
            traced: args.trace,
            threads,
            cfg: rfdet_perfbench::run_config(args.workload, threads),
            native_cfg: RunConfig::default(),
            rfdet: RfdetBackend::ci(),
            progs,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            op_s: 0.0,
            op_count: 0,
            rounds_ns: Vec::new(),
            recovery_ms: Vec::new(),
            failover_full_ms: Vec::new(),
            failovers: 0,
            converged: 0,
            layers: Layers {
                phases: vec![PhaseAgg::default(); NUM_PHASES],
                ..Layers::default()
            },
        }
    }

    fn violation(&mut self, what: String) {
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// Checks an output's digest against the program's expected one,
    /// adopting it when none is set yet.
    fn digest_ok(&mut self, i: usize, backend: &str, digest: u64) -> bool {
        let p = &mut self.progs[i];
        match p.expected {
            None => {
                p.expected = Some(digest);
                true
            }
            Some(d) if d == digest => true,
            Some(d) => {
                let msg = format!("{}: {backend} digest {digest:016x} != {d:016x}", p.name);
                self.violation(msg);
                false
            }
        }
    }

    /// The ledger's own audit line.
    fn audit_ok(&mut self, i: usize, backend: &str, output: &[u8]) -> bool {
        let ok = String::from_utf8_lossy(output).contains("conserve=ok");
        if !ok {
            self.violation(format!("{}: {backend} audit failed", self.progs[i].name));
        }
        ok
    }

    /// One RFDet execution of program `i`. `instrument` turns on the API
    /// shim and `cfg.metrics`; `record` keeps its samples (warm-up
    /// executions are checked but not sampled).
    fn rfdet_exec(&mut self, i: usize, instrument: bool, record: bool) -> Outcome {
        let (name, params, requests) = {
            let p = &self.progs[i];
            (p.name, p.params, p.requests)
        };
        let sink = Arc::new(Sink::default());
        let mut root = rfdet_perfbench::root(name, params);
        if instrument {
            root = shim::instrument(root, &sink);
        } else if requests > 0 {
            root = shim::time_rounds(root, &sink);
        }
        let mut cfg = self.cfg.clone();
        cfg.metrics = instrument;
        let t0 = Instant::now();
        let run = self.rfdet.run_traced(&cfg, root);
        let wall = t0.elapsed();
        // An operation's time includes shipping its record.
        let ship = Instant::now();
        let shipped = self.ship(&run, instrument);
        let op_s = wall.as_secs_f64() + ship.elapsed().as_secs_f64();
        let mut out = Outcome {
            wall_ms: wall.as_secs_f64() * 1e3,
            ok: false,
            shed: 0,
        };
        let result = match run.result {
            Ok(r) => r,
            Err(e) => {
                self.violation(format!("{name}: RFDet run failed: {}", e.report().render()));
                return out;
            }
        };
        let mut ok = self.digest_ok(i, "RFDet-ci", result.output_digest()) && shipped;
        if requests > 0 {
            ok &= self.audit_ok(i, "RFDet-ci", &result.output);
        }
        if is_observed(self.workload) && !result.races.is_empty() {
            let n = result.races.len();
            self.violation(format!("{name}: {n} race reports"));
            ok = false;
        }
        out.ok = ok;
        out.shed = result.stats.app_shed;
        let s = &result.stats;
        self.progs[i].runtime_threads = s.forks + 1;
        if !record {
            return out;
        }
        if instrument {
            let l = &mut self.layers;
            l.execs += 1;
            l.stats += result.stats;
            l.api.merge(&sink.api());
            l.races += result.races.len() as u64;
            if let Some(m) = &result.metrics {
                for (agg, ph) in l.phases.iter_mut().zip(&m.phases) {
                    agg.sum += ph.sum;
                    for &(ub, c) in &ph.buckets {
                        *agg.buckets.entry(ub).or_default() += c;
                    }
                }
            }
        } else {
            let page = cfg.page_size as f64;
            let bytes = s.private_pages as f64 * page + s.peak_meta_bytes as f64;
            self.progs[i].footprint_mb.push(bytes / f64::from(1 << 20));
            self.rounds_ns.extend(sink.rounds());
            self.op_s += op_s;
            self.op_count += self.progs[i].ops();
        }
        out
    }

    /// `ledger_observed` ships each execution's record the way a primary
    /// streams it to a standby: encode the trace and every checkpoint,
    /// decode them again and check the round trip. Elsewhere a no-op.
    fn ship(&mut self, run: &TracedRun, instrument: bool) -> bool {
        if !is_observed(self.workload) {
            return true;
        }
        let Some(trace) = run.trace.as_deref() else {
            self.violation("observed execution recorded no trace".into());
            return false;
        };
        let t = Instant::now();
        let bytes = trace.encode();
        let trace_ns = t.elapsed();
        let mut ok = RunTrace::decode(&bytes).is_ok_and(|d| d == *trace);
        let (mut enc, mut dec, mut ckpt_bytes) = (Duration::ZERO, Duration::ZERO, 0);
        for c in &run.checkpoints {
            let t = Instant::now();
            let b = c.encode();
            enc += t.elapsed();
            let t = Instant::now();
            ok &= Checkpoint::decode(&b).is_ok_and(|d| d == *c);
            dec += t.elapsed();
            ckpt_bytes += b.len() as u64;
        }
        if run.checkpoints.is_empty() {
            self.violation("observed execution sealed no checkpoint".into());
            ok = false;
        }
        if !ok {
            self.violation("trace or checkpoint codec round trip failed".into());
        }
        if instrument {
            let l = &mut self.layers;
            l.trace_events += trace.events.len() as u64;
            l.trace_bytes += bytes.len() as u64;
            l.ckpts += run.checkpoints.len() as u64;
            l.ckpt_bytes += ckpt_bytes;
            l.trace_encode_ns += dur_ns(trace_ns);
            l.ckpt_encode_ns += dur_ns(enc);
            l.ckpt_decode_ns += dur_ns(dec);
        }
        ok
    }

    /// One pthreads execution of program `i`; returns whether its output
    /// is correct.
    fn native_exec(&mut self, i: usize, record: bool) -> bool {
        let p = &self.progs[i];
        let (name, requests) = (p.name, p.requests);
        let root = rfdet_perfbench::root(name, p.params);
        let t0 = Instant::now();
        let result = NativeBackend.run(&self.native_cfg, root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                self.violation(format!(
                    "{name}: pthreads run failed: {}",
                    e.report().render()
                ));
                return false;
            }
        };
        if record {
            self.progs[i].native_ms.push(ms);
        }
        if requests > 0 {
            // The ledger's digest encodes the lock order, which
            // pthreads does not fix: only its audit must pass.
            self.audit_ok(i, "pthreads", &out.output)
        } else {
            self.digest_ok(i, "pthreads", out.output_digest())
        }
    }

    /// Counts an RFDet execution, paired with the native execution of
    /// the same cycle, as attempted operations.
    fn tally(&mut self, i: usize, o: &Outcome, native_ok: bool) {
        let ops = self.progs[i].ops();
        self.attempted += ops;
        self.failed += if o.ok && native_ok {
            o.shed.min(ops)
        } else {
            ops
        };
    }

    /// One cycle: every program once on each backend (twice on RFDet in
    /// the traced run: instrumented and not), native first on odd
    /// cycles.
    fn cycle(&mut self, n: u64, record: bool) {
        for i in 0..self.progs.len() {
            let native_first = n % 2 == 1;
            let mut native_ok = true;
            if native_first {
                native_ok = self.native_exec(i, record);
            }
            let traced = self.traced.then(|| self.rfdet_exec(i, true, record));
            let plain = self.rfdet_exec(i, false, record);
            if !native_first {
                native_ok = self.native_exec(i, record);
            }
            self.tally(i, &plain, native_ok);
            if record {
                self.progs[i].rfdet_ms.push(plain.wall_ms);
            }
            if let Some(t) = traced {
                self.tally(i, &t, native_ok);
                if record {
                    self.progs[i].traced_ms.push(t.wall_ms);
                }
            }
        }
        if record && is_observed(self.workload) && n.is_multiple_of(FAILOVER_EVERY) {
            self.failover();
        }
    }

    /// One crash-failover cycle on the observed ledger configuration.
    fn failover(&mut self) {
        let params = self.progs[0].params;
        let requests = self.progs[0].requests;
        let mut cfg = self.cfg.clone();
        cfg.fault_plan = rfdet_perfbench::failover_plan(self.threads);
        let bodies = rfdet_workloads::resume_bodies(LEDGER, params).expect("the ledger resumes");
        let r = run_failover(
            &self.rfdet,
            &cfg,
            &move || rfdet_perfbench::root(LEDGER, params),
            &*bodies,
        );
        let ok = r.crash.is_some() && r.recovered_from_epoch.is_some() && r.converged;
        self.failovers += 1;
        self.attempted += requests;
        if ok {
            self.converged += 1;
        } else {
            self.failed += requests;
            self.violation(format!(
                "failover: crash={} epoch={:?} converged={}",
                r.crash.is_some(),
                r.recovered_from_epoch,
                r.converged
            ));
        }
        self.recovery_ms.push(r.recovery_ms);
        self.failover_full_ms.push(r.full_run_ms);
    }
}

fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn end_to_end(b: &Bench, setup_s: f64) -> Vec<Metric> {
    let p50s: Vec<f64> = b.progs.iter().map(|p| median(&p.rfdet_ms)).collect();
    let exec_p50 = geomean(&p50s);
    let exec_tail = geomean(
        &b.progs
            .iter()
            .map(|p| tail(&p.rfdet_ms).value)
            .collect::<Vec<_>>(),
    );
    let slowdown = geomean(
        &b.progs
            .iter()
            .map(|p| median(&p.rfdet_ms) / median(&p.native_ms))
            .collect::<Vec<_>>(),
    );
    let footprint = geomean(
        &b.progs
            .iter()
            .map(|p| median(&p.footprint_mb))
            .collect::<Vec<_>>(),
    );
    // Programs without barrier rounds have one round: the execution.
    let (round_p50, round_tail) = if b.rounds_ns.is_empty() {
        (exec_p50, exec_tail)
    } else {
        let r: Vec<f64> = b.rounds_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        (median(&r), tail(&r).value)
    };
    // Without checkpoints, recovering from a crash is re-executing.
    let recovery = if b.recovery_ms.is_empty() {
        exec_p50
    } else {
        median(&b.recovery_ms)
    };
    vec![
        metric("setup_s", setup_s, "s"),
        metric("exec_ms_p50", exec_p50, "ms"),
        metric("exec_ms_tail", exec_tail, "ms"),
        metric("slowdown_x", slowdown, "x"),
        metric("req_per_s", ratio(b.op_count as f64, b.op_s), "1/s"),
        metric("round_ms_p50", round_p50, "ms"),
        metric("round_ms_tail", round_tail, "ms"),
        metric("recovery_ms", recovery, "ms"),
        metric("footprint_mb", footprint, "MiB"),
    ]
}

fn per_layer(b: &Bench, cpu_per_wall: f64) -> Vec<Metric> {
    let l = &b.layers;
    // Counts and times are per cycle: one execution of every program.
    let per = (l.execs as f64 / b.progs.len() as f64).max(1.0);
    let c = |v: u64| v as f64 / per;
    let s = &l.stats;
    let ph = |p: Phase| &l.phases[p.idx()];
    let api = &l.api;
    let wall = api.thread_wall_ns as f64;
    let mut m = Vec::new();
    for cl in Class::ALL {
        let (t, name) = (api.class(cl), cl.name());
        m.push(metric(format!("api.{name}.calls"), c(t.calls), "count"));
        m.push(metric(
            format!("api.{name}.wall_frac"),
            ratio(t.ns as f64, wall),
            "frac",
        ));
    }
    for (name, sm) in [
        ("read", &api.reads),
        ("write", &api.writes),
        ("other", &api.other),
    ] {
        m.push(metric(format!("api.{name}.calls"), c(sm.calls), "count"));
        m.push(metric(
            format!("api.{name}.wall_frac"),
            ratio(sm.est_ns(), wall),
            "frac",
        ));
    }

    let (wait, arb, prop, diff, sync) = (
        ph(Phase::WaitTurn),
        ph(Phase::Arbitration),
        ph(Phase::Propagation),
        ph(Phase::Diff),
        ph(Phase::SyncOp),
    );
    let attributed = (wait.sum + arb.sum + prop.sum + diff.sum) as f64;
    let slice_ops = &ph(Phase::SliceOps).buckets;
    let empty = slice_ops.get(&0).copied().unwrap_or(0) as f64;
    let slices_recorded = slice_ops.values().sum::<u64>() as f64;
    let cache = (s.sync_var_cache_hits + s.sync_var_cache_misses) as f64;
    let pool = (s.snapshot_pool_hits + s.snapshot_pool_misses) as f64;
    let threads = b.progs.iter().map(|p| p.runtime_threads).max().unwrap_or(0);
    let native = geomean(
        &b.progs
            .iter()
            .map(|p| median(&p.native_ms))
            .collect::<Vec<_>>(),
    );
    let overhead = geomean(
        &b.progs
            .iter()
            .map(|p| median(&p.traced_ms) / median(&p.rfdet_ms))
            .collect::<Vec<_>>(),
    ) - 1.0;
    m.extend([
        metric("api.thread_wall_ns", wall / per, "ns"),
        metric("api.residue_frac", ratio(api.residue_ns(), wall), "frac"),
        metric("app.compute_ns", api.compute_ns() / per, "ns"),
        metric("app.compute_frac", ratio(api.compute_ns(), wall), "frac"),
        metric("kendo.wait_turn_ns_sum", c(wait.sum), "ns"),
        metric(
            "kendo.wait_turn_ns_p99",
            bucket_quantile(&wait.buckets, 0.99) as f64,
            "ns",
        ),
        metric("kendo.arbitration_ns_sum", c(arb.sum), "ns"),
        metric("kendo.handoff_scans", c(s.handoff_scans), "count"),
        metric("kendo.handoff_wakes", c(s.handoff_wakes), "count"),
        metric("kendo.turn_parks", c(s.turn_parks), "count"),
        metric("kendo.idle_wakeups", c(ph(Phase::IdleWakeups).sum), "count"),
        metric("core.sync_op_ns_sum", c(sync.sum), "ns"),
        metric(
            "core.sync_unattributed_frac",
            1.0 - ratio(attributed, sync.sum as f64),
            "frac",
        ),
        metric("core.slices", c(s.slices), "count"),
        metric("core.slices_merged", c(s.slices_merged), "count"),
        metric(
            "core.empty_slice_frac",
            ratio(empty, slices_recorded),
            "frac",
        ),
        metric("core.propagation_ns_sum", c(prop.sum), "ns"),
        metric("core.slices_propagated", c(s.slices_propagated), "count"),
        metric(
            "core.slices_filtered_redundant",
            c(s.slices_filtered_redundant),
            "count",
        ),
        metric("core.mod_bytes_applied", c(s.mod_bytes_applied), "bytes"),
        metric("core.prelock_premerged", c(s.prelock_premerged), "count"),
        metric(
            "core.sync_var_cache_hit_frac",
            ratio(s.sync_var_cache_hits as f64, cache),
            "frac",
        ),
        metric(
            "core.lock_contended",
            c(s.shard_lock_contended + s.queue_lock_contended),
            "count",
        ),
        metric("mem.diff_ns_sum", c(diff.sum), "ns"),
        metric("mem.diff_bytes_scanned", c(s.diff_bytes_scanned), "bytes"),
        metric("mem.snapshot_ns_sum", c(ph(Phase::Snapshot).sum), "ns"),
        metric(
            "mem.snapshot_bytes_copied",
            c(s.snapshot_bytes_copied),
            "bytes",
        ),
        metric(
            "mem.snapshot_pool_hit_frac",
            ratio(s.snapshot_pool_hits as f64, pool),
            "frac",
        ),
        metric("mem.private_pages", c(s.private_pages), "count"),
        metric("mem.stores_with_copy", c(s.stores_with_copy), "count"),
        metric("mem.page_faults", c(s.page_faults), "count"),
        metric("meta.gc_count", c(s.gc_count), "count"),
        metric(
            "meta.gc_reclaimed_slices",
            c(s.gc_reclaimed_slices),
            "count",
        ),
        metric("meta.peak_bytes", s.peak_meta_bytes as f64, "bytes"),
        metric("trace.events", c(l.trace_events), "count"),
        metric("trace.bytes", c(l.trace_bytes), "bytes"),
        metric("trace.checkpoints", c(l.ckpts), "count"),
        metric("trace.checkpoint_bytes", c(l.ckpt_bytes), "bytes"),
        metric("race.reports", c(l.races), "count"),
        metric("failover.cycles", b.failovers as f64, "count"),
        metric("failover.converged", b.converged as f64, "count"),
        metric("service.retries", c(s.app_retries), "count"),
        metric("service.shed", c(s.app_shed), "count"),
        metric("host.cpu_per_wall", cpu_per_wall, "ratio"),
        metric(
            "host.peak_rss_mb",
            host::peak_rss_mb().unwrap_or(0.0),
            "MiB",
        ),
        metric("host.runtime_threads", threads as f64, "count"),
        metric("native.exec_ms_p50", native, "ms"),
        metric("trace.overhead_frac", overhead, "frac"),
    ]);
    m
}

fn print_header(b: &Bench, args: &Args) {
    let cwd = std::env::current_dir().unwrap_or_default();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        b.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host nproc={} cpu={:?} sched_base_slice_ns={} git={}",
        b.threads,
        host::cpu_model().unwrap_or_else(|| "unknown".into()),
        host::sched_slice_ns().map_or_else(|| "unreadable".into(), |v| v.to_string()),
        host::git_revision(&cwd).unwrap_or_else(|| "unknown".into()),
    );
    let observers = if is_observed(b.workload) {
        format!(
            " + trace, checkpoint_every={} (in memory), detect_races; failover every {FAILOVER_EVERY} cycles",
            b.cfg.checkpoint_every
        )
    } else {
        String::new()
    };
    println!(
        "# config: RFDet-ci RunConfig::default(){observers}; closed loop, threads=nproc={}",
        b.threads
    );
    let shim = if b.progs.iter().any(|p| p.requests > 0) {
        "rounds (tid 0 barrier returns only)"
    } else {
        "off"
    };
    println!("# timed executions: cfg.metrics=off shim={shim}");
    if args.trace {
        println!("# traced executions, one per timed one: cfg.metrics=on shim=api (every thread)");
    }
    let threads: Vec<String> = b
        .progs
        .iter()
        .map(|p| format!("{}={}", p.name, p.runtime_threads))
        .collect();
    println!("# runtime threads: {}", threads.join(" "));
}

fn print_programs(b: &Bench) {
    let rows: Vec<Vec<String>> = b
        .progs
        .iter()
        .map(|p| {
            let t = tail(&p.rfdet_ms);
            let (lo, hi) = (percentile(&p.rfdet_ms, 25), percentile(&p.rfdet_ms, 75));
            vec![
                p.name.to_owned(),
                p.runtime_threads.to_string(),
                p.rfdet_ms.len().to_string(),
                format!("{:.2}", median(&p.rfdet_ms)),
                format!("{lo:.2}..{hi:.2}"),
                format!("{:.2} (p{})", t.value, t.pct),
                format!("{:.2}", median(&p.native_ms)),
                format!("{:.2}", median(&p.rfdet_ms) / median(&p.native_ms)),
                format!("{:.2}", median(&p.footprint_mb)),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "program",
                "threads",
                "n",
                "exec_ms_p50",
                "p25..p75",
                "exec_ms_tail",
                "native_ms_p50",
                "slowdown_x",
                "footprint_mb"
            ],
            &rows
        )
    );
    for p in &b.progs {
        println!(
            "workloads.{}.exec_ms_p50 {} ms",
            p.name,
            median(&p.rfdet_ms)
        );
        println!("native.{}.exec_ms_p50 {} ms", p.name, median(&p.native_ms));
    }
    if !b.rounds_ns.is_empty() {
        let r: Vec<f64> = b.rounds_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        let t = tail(&r);
        println!("rounds: n={} tail=p{} ({:.3} ms)", r.len(), t.pct, t.value);
    }
    if !b.recovery_ms.is_empty() {
        println!(
            "failover: cycles={} converged={} recovery_ms_p50={:.2} full_run_ms_p50={:.2}",
            b.failovers,
            b.converged,
            median(&b.recovery_ms),
            median(&b.failover_full_ms)
        );
    }
}

/// The traced run's API-class table: the parts of the thread wall.
fn print_api(b: &Bench) {
    let api = &b.layers.api;
    let wall = api.thread_wall_ns as f64;
    let mut rows: Vec<Vec<String>> = Class::ALL
        .iter()
        .map(|&cl| {
            let t = api.class(cl);
            let tl = if t.calls > 0 {
                let pct = tail_pct(usize::try_from(t.calls).unwrap_or(usize::MAX));
                format!("{} (p{pct})", t.hist.quantile(pct as f64 / 100.0))
            } else {
                "-".into()
            };
            vec![
                cl.name().to_owned(),
                t.calls.to_string(),
                t.ns.to_string(),
                t.hist.quantile(0.5).to_string(),
                tl,
                format!("{:.4}", ratio(t.ns as f64, wall)),
            ]
        })
        .collect();
    for (name, sm) in [
        ("read", &api.reads),
        ("write", &api.writes),
        ("other", &api.other),
    ] {
        rows.push(vec![
            name.to_owned(),
            sm.calls.to_string(),
            format!(
                "{:.0} (1/{} sampled, {} preempted)",
                sm.est_ns(),
                shim::SAMPLE_EVERY,
                sm.preempted
            ),
            "-".into(),
            "-".into(),
            format!("{:.4}", ratio(sm.est_ns(), wall)),
        ]);
    }
    rows.push(vec![
        "app.compute".into(),
        "-".into(),
        format!("{:.0}", api.compute_ns()),
        "-".into(),
        "-".into(),
        format!("{:.4}", ratio(api.compute_ns(), wall)),
    ]);
    println!(
        "api parts over {} shimmed threads ({} executions):",
        api.threads, b.layers.execs
    );
    print!(
        "{}",
        render_table(
            &["class", "calls", "ns_sum", "ns_p50", "ns_tail", "wall_frac"],
            &rows
        )
    );
    println!(
        "api.thread_wall_ns {} = parts {:.0} + residue {:.0}",
        api.thread_wall_ns,
        api.calls_ns() + api.compute_ns(),
        api.residue_ns()
    );
    let l = &b.layers;
    if l.trace_events > 0 {
        println!(
            "codec: trace encode {} ns, checkpoint encode {} ns, decode {} ns (sums over {} executions)",
            l.trace_encode_ns, l.ckpt_encode_ns, l.ckpt_decode_ns, l.execs
        );
    }
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        // Non-finite values are reported as violations; JSON has no NaN.
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Failover cycles panic a worker on purpose; print one line per
    // panic instead of a backtrace.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: {info}")));
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut b = Bench::new(&args, threads);

    // Set-up: warm-up cycles, timed; the first from process start.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut t = process_start;
    for rep in 0..SETUP_REPS {
        b.cycle(rep as u64, false);
        setups.push(t.elapsed().as_secs_f64());
        t = Instant::now();
    }
    let setup_s = median(&setups);

    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let mut n = 0;
    while t0.elapsed() < Duration::from_secs(args.seconds) {
        b.cycle(n, true);
        n += 1;
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let cpu_per_wall = match (cpu0, host::cpu_seconds()) {
        (Some(a), Some(z)) => (z - a) / loop_s,
        _ => 0.0,
    };

    print_header(&b, &args);
    println!("setup: {SETUP_REPS} reps {setups:.3?} s; measured {n} cycles in {loop_s:.2} s");
    print_programs(&b);
    let metrics = if args.trace {
        print_api(&b);
        per_layer(&b, cpu_per_wall)
    } else {
        end_to_end(&b, setup_s)
    };
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
        if !value.is_finite() {
            b.violation(format!("metric {name} is not a finite number"));
        }
    }
    println!(
        "failed_frac {} (failed {} / attempted {} operations)",
        ratio(b.failed as f64, b.attempted as f64),
        b.failed,
        b.attempted
    );
    for v in &b.violations {
        println!("VIOLATION {v}");
    }
    let correct = b.violations.is_empty();
    println!("{}", json_result(correct, b.attempted, b.failed, &metrics));
    ExitCode::SUCCESS
}
