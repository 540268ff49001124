//! `perfbench`: the repository's performance benchmark.
//!
//! ```text
//! perfbench --workload <router_paper|fabric_dragonfly|churn_chaos>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one simulation thread. The workload is run again and again
//! at the given seed until `--seconds` have passed. Every run's outputs are
//! checked, and every run's simulated metrics must match the first run's
//! bit for bit. Host-time metrics are medians over the runs.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics. With `--trace 1` untraced and traced runs
//! alternate (plus an unaudited traced companion on `churn_chaos`), and the
//! JSON holds the per-layer metrics. A human-readable report precedes the
//! JSON either way. A failed check prints no metric and exits with code 1.

mod calib;
mod churn_chaos;
mod fabric_dragonfly;
mod rep;
mod router_paper;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use mmr_sim::FlitTiming;
use rep::Rep;
use trace::{Layer, LayerStats, Stopwatch, Tracer};

/// Fewest runs per invocation (medians and the same-seed comparison need
/// more than one).
const MIN_RUNS: usize = 3;

/// The end-to-end metrics of the final JSON line, as in `BENCHMARK.json`:
/// the host metrics. The simulated end-to-end metrics are printed in the
/// report; they are exact for a seed but spread from seed to seed beyond
/// any regression bound, so they are guarded by bit-identity instead.
const END_TO_END: [&str; 3] = ["router_cycles_per_s", "setup_s", "peak_rss_mib"];

/// The per-layer metrics of the final JSON line, as in `BENCHMARK.json`.
/// Each is measured on every workload; a layer a workload never calls
/// reads 0. Per-call latencies of layers only some workloads call are in
/// the human-readable report.
const PER_LAYER: [&str; 32] = [
    "sim.record_ns_per_flit",
    "trace.overhead",
    "core.step_share",
    "core.step_calls_per_cycle",
    "core.flits_per_step",
    "core.reconfigurations",
    "core.bank_conflicts",
    "core.heap_bytes_per_router",
    "core.vc_banks_materialized",
    "net.footprint_bytes_per_router",
    "net.step_share",
    "net.flits_switched_per_cycle",
    "net.establish_denied_ratio",
    "net.inject_refused",
    "admission.accepted",
    "admission.degraded",
    "admission.rejected",
    "admission.preempted",
    "admission.upgrades",
    "recovery.faults",
    "recovery.recovered",
    "recovery.retries",
    "recovery.permanently_failed",
    "recovery.partitioned",
    "fault.events",
    "llr.flits_retransmitted",
    "llr.flits_corrupted",
    "llr.flits_dropped",
    "llr.undetected_corruptions",
    "audit.checks",
    "audit.violations",
    "audit.step_overhead_share",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RouterPaper,
    FabricDragonfly,
    ChurnChaos,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "router_paper" => Some(Workload::RouterPaper),
            "fabric_dragonfly" => Some(Workload::FabricDragonfly),
            "churn_chaos" => Some(Workload::ChurnChaos),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::RouterPaper => "router_paper",
            Workload::FabricDragonfly => "fabric_dragonfly",
            Workload::ChurnChaos => "churn_chaos",
        }
    }

    /// A seed kept out of tuning: a later claim must also hold on it.
    fn held_out_seed(self) -> u64 {
        match self {
            Workload::RouterPaper => 0x00D1_5EA5_E001,
            Workload::FabricDragonfly => 0x00D1_5EA5_E002,
            Workload::ChurnChaos => 0x00D1_5EA5_E003,
        }
    }

    /// The measured run (auditor as the workload defines it).
    fn run(self, seed: u64, tr: &mut Tracer) -> Rep {
        match self {
            Workload::RouterPaper => router_paper::run(seed, tr),
            Workload::FabricDragonfly => fabric_dragonfly::run(seed, tr),
            Workload::ChurnChaos => churn_chaos::run(seed, tr, true),
        }
    }

    /// The workload's configuration block.
    fn config(self, seed: u64) -> Vec<(&'static str, String)> {
        let (auditor, llr, shape) = match self {
            Workload::RouterPaper => (
                "off (no network layer)",
                "off (no links)",
                format!(
                    "single 8x8 router, 256 VCs/port, 1.24 Gbps, 128-bit flits, biased-priority \
                     arbiter, {} candidates; 9-rate CBR ladder at offered loads {:?}; {} warm-up + \
                     {} measured cycles per point",
                    router_paper::CANDIDATES,
                    router_paper::LOADS,
                    router_paper::WARMUP,
                    router_paper::MEASURE
                ),
            ),
            Workload::FabricDragonfly => (
                "off",
                "off",
                format!(
                    "{} ({} nodes), group-minimal routing, 4 candidates; {} sessions of {} Mbps \
                     CBR set up by EPB; {} cycles, a third torn down and re-established at each \
                     third, {}-cycle drains, final drain + teardown",
                    fabric_dragonfly::FABRIC.name(),
                    fabric_dragonfly::FABRIC.nodes(),
                    fabric_dragonfly::SESSIONS,
                    fabric_dragonfly::RATE_MBPS,
                    fabric_dragonfly::CYCLES,
                    fabric_dragonfly::DRAIN
                ),
            ),
            Workload::ChurnChaos => (
                "record, every cycle (unaudited companion in traced mode)",
                "on",
                format!(
                    "{} ({} nodes), up*/down* routing, 24 VCs/port, 4 candidates; diurnal churn \
                     tape at {} peak arrivals/kcycle, 55/120 Mbps rungs, 25% best effort; \
                     admission controls on; {} link fail/repair + {} transient faults; {} warm-up \
                     + {} measured cycles, final drain + teardown",
                    churn_chaos::TOPOLOGY.name(),
                    churn_chaos::TOPOLOGY.nodes(),
                    churn_chaos::ARRIVALS_PER_KCYCLE,
                    churn_chaos::LINK_FAULTS,
                    churn_chaos::TRANSIENTS,
                    churn_chaos::WARMUP,
                    churn_chaos::MEASURE
                ),
            ),
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release (lto = thin, opt-level 3)"
        };
        vec![
            ("workload", self.name().to_string()),
            ("shape", shape),
            ("auditor", auditor.to_string()),
            ("engine", "event".to_string()),
            ("llr", llr.to_string()),
            ("sim_threads", "1".to_string()),
            ("nproc", nproc.to_string()),
            ("build_profile", profile.to_string()),
            ("seed", seed.to_string()),
            ("held_out_seed", self.held_out_seed().to_string()),
            ("commit", git_commit()),
        ]
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, not {value}")),
                })
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

/// The commit of the checkout, when the working directory is the top of a
/// git work tree.
fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cwd = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top = git(&["rev-parse", "--show-toplevel"])
        .and_then(|t| std::path::PathBuf::from(t).canonicalize().ok());
    match (cwd, top) {
        (Some(cwd), Some(top)) if cwd == top => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown (not a git checkout)".into(),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric; `value` is `None` when this workload cannot
/// measure it from outside the program, with the reason in `note`.
struct Metric {
    name: String,
    unit: &'static str,
    value: Option<f64>,
    note: String,
}

impl Metric {
    fn new(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: Some(value),
            note: note.into(),
        }
    }
}

/// The simulated end-to-end metrics (workload-specific ones included).
const E2E_SIM: [&str; 7] = [
    "sim_delay_mean_cycles",
    "sim_delay_p99_cycles",
    "sim_jitter_mean_cycles",
    "sim_utilization",
    "admit_ratio",
    "qos_miss_ratio",
    "failed_ratio",
];

/// Checks every run's outputs and the bit-identity of simulated values
/// across runs; returns the failures.
fn verify(groups: &[(&str, &[Rep])], reference: &Rep) -> Vec<String> {
    let mut failures = Vec::new();
    for (label, reps) in groups {
        for (i, r) in reps.iter().enumerate() {
            failures.extend(r.failures.iter().map(|f| format!("{label} run {i}: {f}")));
            if let Some(m) = reference.sim_mismatch(r) {
                failures.push(format!("{label} run {i} differs from the first run: {m}"));
            }
            if let Some(bad) = r.sim.iter().find(|s| !s.value.is_finite()) {
                failures.push(format!("{label} run {i}: {} is not finite", bad.name));
            }
        }
    }
    failures
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <router_paper|fabric_dragonfly|churn_chaos> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // MMR_AUDIT turns the auditor on inside every NetworkSim; numbers
    // measured that way must never pass for auditor-off numbers.
    if std::env::var_os("MMR_AUDIT").is_some() {
        eprintln!("perfbench: refusing to measure with MMR_AUDIT set; unset it");
        return ExitCode::from(2);
    }
    let wl = args.workload;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in wl.config(args.seed) {
        println!("config.{k} = {v}");
    }
    if args.trace {
        traced(wl, &args)
    } else {
        untraced(wl, &args)
    }
}

/// Runs until the budget is spent and at least `min` runs are done.
fn repeat(budget_s: u64, min: usize, mut body: impl FnMut()) -> usize {
    let clock = Stopwatch::start();
    let mut n = 0;
    while n < min || clock.secs() < budget_s as f64 {
        body();
        n += 1;
    }
    n
}

fn untraced(wl: Workload, args: &Args) -> ExitCode {
    let mut reps = Vec::new();
    // The calibration kernel runs before the first run and after each; the
    // first call only warms it up.
    calib::kernel_s();
    let mut kernel = vec![calib::kernel_s()];
    repeat(args.seconds, MIN_RUNS, || {
        reps.push(wl.run(args.seed, &mut Tracer::off()));
        kernel.push(calib::kernel_s());
    });
    let failures = verify(&[("untraced", &reps)], &reps[0]);
    if !finish_checks(&failures, reps.len()) {
        return ExitCode::from(1);
    }
    println!(
        "side channel: {} untraced runs at seed {} bit-identical",
        reps.len(),
        args.seed
    );

    // Each run's host times in reference-host seconds (see `calib`).
    let scale: Vec<f64> = kernel
        .windows(2)
        .map(|k| calib::REFERENCE_S * 2.0 / (k[0] + k[1]))
        .collect();
    let scaled = |f: fn(&Rep) -> f64| -> Vec<f64> {
        reps.iter().zip(&scale).map(|(r, s)| f(r) * s).collect()
    };
    let (run_s, setup_s) = (scaled(|r| r.run_s), scaled(|r| r.setup_s));
    let raw_run_s = median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let raw_setup_s = median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let first = &reps[0];
    let cycles = first.router_cycles as f64;
    let mut metrics = vec![
        Metric::new(
            "router_cycles_per_s",
            "1/s",
            cycles / median(&run_s),
            format!(
                "{} modelled router-cycles / median run phase {:.4} reference-host s (n={})",
                first.router_cycles,
                median(&run_s),
                run_s.len()
            ),
        ),
        Metric::new(
            "setup_s",
            "s",
            median(&setup_s),
            format!("median of {} set-ups, reference-host s", setup_s.len()),
        ),
        Metric::new(
            "peak_rss_mib",
            "MiB",
            peak_rss_mib().unwrap_or(0.0),
            "VmHWM of the process",
        ),
        Metric::new(
            "host.router_cycles_per_s_raw",
            "1/s",
            cycles / raw_run_s,
            "unscaled host time",
        ),
        Metric::new("host.setup_s_raw", "s", raw_setup_s, "unscaled host time"),
        Metric::new(
            "host.kernel_s",
            "s",
            median(&kernel),
            format!(
                "calibration kernel, median of {} (reference {} s)",
                kernel.len(),
                calib::REFERENCE_S
            ),
        ),
    ];
    let (e2e, other): (Vec<_>, Vec<_>) = first
        .sim
        .iter()
        .partition(|s| E2E_SIM.contains(&s.name.as_str()));
    metrics.extend(
        e2e.iter()
            .map(|s| Metric::new(&s.name, s.unit, s.value, "simulated")),
    );
    print_metrics("metric", &metrics);
    if wl == Workload::RouterPaper {
        print_paper_reference(first);
    }
    for s in other {
        println!("sim {} = {} {}", s.name, s.value, s.unit);
    }
    print_result(reps.len(), &END_TO_END, &metrics);
    ExitCode::SUCCESS
}

/// The paper's §5.2 figures beside the simulated ones, for information.
fn print_paper_reference(r: &Rep) {
    let get = |n: &str| r.get(n).unwrap_or(0.0);
    let jitter = get("sim_jitter_mean_cycles");
    println!(
        "paper T1.iii jitter @80%: paper 0.168 cycles, simulated {jitter:.3} cycles, error {:+.1}%",
        (jitter / 0.168 - 1.0) * 100.0
    );
    let delay_us = FlitTiming::paper_default()
        .cycles_f64_to_time(get("sim_delay_mean_cycles"))
        .us();
    let off = if delay_us < 0.4 {
        delay_us / 0.4 - 1.0
    } else {
        (delay_us / 0.6 - 1.0).max(0.0)
    };
    println!(
        "paper T1.ii delay @80%: paper 0.4-0.6 us, simulated {delay_us:.3} us, error {:+.1}% (from the band)",
        off * 100.0
    );
    let util = get("sim_utilization");
    let offered = get("point@0.95.offered_load");
    println!(
        "paper T1.iv no saturation before 95%: simulated utilization {util:.4} at offered {offered:.4}, \
         shortfall {:+.1}%",
        (util / offered - 1.0) * 100.0
    );
}

/// Prints the failed checks; true when there are none.
fn finish_checks(failures: &[String], runs: usize) -> bool {
    if failures.is_empty() {
        println!("checks: all output checks passed on {runs} runs");
        return true;
    }
    for f in failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!(
        "{{\"correct\": false, \"attempted\": {runs}, \"failed\": {}, \"metrics\": {{}}}}",
        failures.len()
    );
    false
}

/// Prints one line per metric.
fn print_metrics(prefix: &str, metrics: &[Metric]) {
    for m in metrics {
        match m.value {
            Some(v) => println!("{prefix} {} = {v} {}  ({})", m.name, m.unit, m.note),
            None => println!("{prefix} {} = n/a  ({})", m.name, m.note),
        }
    }
}

/// Prints the final JSON line with the `wanted` metrics; one this
/// workload cannot measure reads 0.
fn print_result(runs: usize, wanted: &[&str], metrics: &[Metric]) {
    let body: Vec<String> = wanted
        .iter()
        .map(|&n| {
            let m = metrics
                .iter()
                .find(|m| m.name == n)
                .expect("every listed metric is derived");
            let v = m.value.unwrap_or(0.0);
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {runs}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn traced(wl: Workload, args: &Args) -> ExitCode {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut companions = Vec::new();
    let mut layers: BTreeMap<Layer, LayerStats> = BTreeMap::new();
    let mut step_audited = Vec::new();
    let mut step_unaudited = Vec::new();
    let mut last = Tracer::off();
    let step_ns =
        |s: &BTreeMap<Layer, LayerStats>| s.get(&Layer::NetStep).map_or(0, |l| l.total_ns);
    repeat(args.seconds, 2, || {
        plain.push(wl.run(args.seed, &mut Tracer::off()));
        let mut tr = Tracer::on();
        traced.push(wl.run(args.seed, &mut tr));
        let summary = tr.summarize();
        step_audited.push(step_ns(&summary) as f64);
        for (layer, stats) in summary {
            layers.entry(layer).or_default().absorb(stats);
        }
        last = tr;
        if wl == Workload::ChurnChaos {
            let mut tr = Tracer::on();
            companions.push(churn_chaos::run(args.seed, &mut tr, false));
            step_unaudited.push(step_ns(&tr.summarize()) as f64);
        }
    });
    let runs = plain.len() + traced.len() + companions.len();
    let failures = verify(
        &[
            ("untraced", &plain),
            ("traced", &traced),
            ("unaudited", &companions),
        ],
        &plain[0],
    );
    if !finish_checks(&failures, runs) {
        return ExitCode::from(1);
    }
    println!(
        "side channel: {} untraced, {} traced{} runs at seed {} bit-identical in every simulated value",
        plain.len(),
        traced.len(),
        if companions.is_empty() {
            String::new()
        } else {
            format!(" and {} unaudited", companions.len())
        },
        args.seed
    );

    let out_dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench-trace");
    let path = out_dir.join(format!("{}.tsv", wl.name()));
    match last.write_tsv(&path) {
        Ok(()) => println!(
            "trace: {} spans of the last traced run written to {}",
            last.spans().len(),
            path.display()
        ),
        Err(e) => println!("trace: spans not written to {}: {e}", path.display()),
    }

    let plain_cps = median(&plain.iter().map(Rep::cycles_per_s).collect::<Vec<_>>());
    let traced_cps = median(&traced.iter().map(Rep::cycles_per_s).collect::<Vec<_>>());
    let audit_share = if step_unaudited.is_empty() {
        0.0
    } else {
        let a = median(&step_audited);
        (a - median(&step_unaudited)) / a
    };
    let report = per_layer(
        &traced[0],
        &mut layers,
        plain_cps / traced_cps - 1.0,
        audit_share,
    );
    print_layer_table(&mut layers);
    print_metrics("layer", &report);
    print_result(runs, &PER_LAYER, &report);
    ExitCode::SUCCESS
}

/// What a per-layer metric reads from a layer's spans.
#[derive(Clone, Copy)]
enum Stat {
    P50,
    P99,
    Mean,
    PerItem,
    Share,
}

/// Derives every per-layer metric from the pooled spans and the simulated
/// counts of one traced run.
fn per_layer(
    rep: &Rep,
    layers: &mut BTreeMap<Layer, LayerStats>,
    overhead: f64,
    audit_share: f64,
) -> Vec<Metric> {
    let run_ns = layers.get(&Layer::Run).map_or(0, |l| l.total_ns) as f64;
    let mut out = Vec::new();
    let spans = [
        ("traffic.pump_ns_per_cycle", "ns", Layer::Pump, Stat::Mean),
        ("sim.record_ns_per_flit", "ns", Layer::Record, Stat::PerItem),
        ("core.step_ns_p50", "ns", Layer::CoreStep, Stat::P50),
        ("core.step_ns_p99", "ns", Layer::CoreStep, Stat::P99),
        ("core.step_share", "share", Layer::CoreStep, Stat::Share),
        (
            "net.topology_build_s",
            "s",
            Layer::TopologyBuild,
            Stat::Mean,
        ),
        ("net.routing_build_s", "s", Layer::RoutingBuild, Stat::Mean),
        ("net.establish_us_p50", "us", Layer::Establish, Stat::P50),
        ("net.establish_us_p99", "us", Layer::Establish, Stat::P99),
        ("net.teardown_us_p50", "us", Layer::Teardown, Stat::P50),
        ("net.step_us_p50", "us", Layer::NetStep, Stat::P50),
        ("net.step_us_p99", "us", Layer::NetStep, Stat::P99),
        ("net.step_share", "share", Layer::NetStep, Stat::Share),
        ("net.inject_ns", "ns", Layer::Inject, Stat::Mean),
        (
            "admission.request_us_p50",
            "us",
            Layer::AdmRequest,
            Stat::P50,
        ),
        (
            "admission.request_us_p99",
            "us",
            Layer::AdmRequest,
            Stat::P99,
        ),
        ("admission.close_us_p50", "us", Layer::AdmClose, Stat::P50),
        (
            "admission.service_us_p50",
            "us",
            Layer::AdmService,
            Stat::P50,
        ),
        ("fault.poll_us_p50", "us", Layer::FaultPoll, Stat::P50),
    ];
    for (name, unit, layer, stat) in spans {
        let scale = match unit {
            "us" => 1e-3,
            "s" => 1e-9,
            _ => 1.0,
        };
        out.push(match layers.get_mut(&layer).filter(|s| s.calls > 0) {
            Some(s) => {
                let value = match stat {
                    Stat::P50 => s.quantile_ns(0.50) * scale,
                    Stat::P99 => s.quantile_ns(0.99) * scale,
                    Stat::Mean => s.total_ns as f64 / s.calls as f64 * scale,
                    Stat::PerItem => s.ns_per_item() * scale,
                    Stat::Share => s.total_ns as f64 / run_ns,
                };
                Metric::new(
                    name,
                    unit,
                    value,
                    format!("{} spans of {}", s.calls, layer.name()),
                )
            }
            None => Metric {
                name: name.into(),
                unit,
                value: None,
                note: format!("{} is never called directly by this workload", layer.name()),
            },
        });
    }

    let no_core = "only router_paper calls Router::step_into directly";
    let no_sizing = "this workload does not size its routers";
    let no_net = "this workload has no network";
    let no_adm = "only churn_chaos admits sessions through AdmissionController";
    let no_fault = "only churn_chaos injects faults and runs LLR";
    let counts = [
        ("core.step_calls_per_cycle", "ratio", no_core),
        ("core.flits_per_step", "ratio", no_core),
        ("core.reconfigurations", "count", ""),
        ("core.bank_conflicts", "count", ""),
        ("core.heap_bytes_per_router", "bytes", no_sizing),
        ("core.vc_banks_materialized", "count", no_sizing),
        ("net.footprint_bytes_per_router", "bytes", no_sizing),
        ("net.flits_switched_per_cycle", "ratio", no_net),
        (
            "net.establish_denied_ratio",
            "ratio",
            "only fabric_dragonfly calls NetworkSim::establish",
        ),
        ("net.inject_refused", "count", no_net),
        ("admission.accepted", "count", no_adm),
        ("admission.degraded", "count", no_adm),
        ("admission.rejected", "count", no_adm),
        ("admission.preempted", "count", no_adm),
        ("admission.upgrades", "count", no_adm),
        ("recovery.faults", "count", no_adm),
        ("recovery.recovered", "count", no_adm),
        ("recovery.retries", "count", no_adm),
        ("recovery.permanently_failed", "count", no_adm),
        ("recovery.partitioned", "count", no_adm),
        ("fault.events", "count", no_fault),
        ("llr.flits_retransmitted", "count", no_fault),
        ("llr.flits_corrupted", "count", no_fault),
        ("llr.flits_dropped", "count", no_fault),
        ("llr.undetected_corruptions", "count", no_fault),
    ];
    for (name, unit, why) in counts {
        let value = rep.get(name);
        let note = if value.is_some() { "simulated" } else { why };
        out.push(Metric {
            name: name.into(),
            unit,
            value,
            note: note.into(),
        });
    }

    let audit = rep.audit;
    let note = if audit.is_some() {
        "auditor"
    } else {
        "the auditor is off on this workload"
    };
    out.push(Metric {
        name: "audit.checks".into(),
        unit: "count",
        value: audit.map(|(checks, _)| checks as f64),
        note: note.into(),
    });
    out.push(Metric {
        name: "audit.violations".into(),
        unit: "count",
        value: audit.map(|(_, violations)| violations as f64),
        note: note.into(),
    });
    out.push(Metric {
        name: "audit.step_overhead_share".into(),
        unit: "share",
        value: audit.map(|_| audit_share),
        note: if audit.is_some() {
            "NetworkSim::step time of the audited traced run minus the unaudited one, \
             over the audited one"
        } else {
            note
        }
        .into(),
    });
    out.push(Metric::new(
        "trace.overhead",
        "ratio",
        overhead,
        "untraced over traced router_cycles_per_s, minus 1 (medians)",
    ));
    out
}

/// Prints every traced layer's calls, total and self time, and share of
/// the run phase.
fn print_layer_table(layers: &mut BTreeMap<Layer, LayerStats>) {
    let run_ns = layers.get(&Layer::Run).map_or(0, |l| l.total_ns).max(1) as f64;
    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>10} {:>10} {:>7}",
        "span", "calls", "total_ms", "self_ms", "p50_ns", "p99_ns", "share"
    );
    for (layer, s) in layers.iter_mut() {
        let (p50, p99) = (s.quantile_ns(0.5), s.quantile_ns(0.99));
        println!(
            "{:<26} {:>10} {:>12.3} {:>12.3} {:>10.0} {:>10.0} {:>7.4}",
            layer.name(),
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            p50,
            p99,
            s.self_ns as f64 / run_ns
        );
    }
}
