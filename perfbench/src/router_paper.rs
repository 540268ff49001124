//! `router_paper`: the paper's single 8×8 router under the 9-rate CBR
//! ladder at three offered loads (§5's measurement procedure).
//!
//! The loop is the one `mmr_traffic::driver::Experiment::run` runs, event
//! skip included, with spans around each call into the traffic, core and
//! stats layers. Only `mmr-core`, `mmr-bitvec`, `mmr-traffic` and
//! `mmr-sim` do work here; the network layer and the auditor are absent.

use mmr_bench::sweep::point_seed;
use mmr_core::arbiter::ArbiterKind;
use mmr_core::router::{Router, RouterConfig, StepReport};
use mmr_sim::{Cycles, DelayJitterRecorder, SeededRng, Warmup};
use mmr_traffic::{paper_rate_ladder, CbrWorkload};

use crate::rep::{ratio, sim, Checks, Rep};
use crate::trace::{Layer, Stopwatch, Tracer};

/// Offered loads: mostly event skip, the paper's 80 % point, saturation.
pub const LOADS: [f64; 3] = [0.3, 0.8, 0.95];
/// Warm-up cycles per point.
pub const WARMUP: u64 = 20_000;
/// Measured cycles per point (the paper's ≈100,000).
pub const MEASURE: u64 = 100_000;
/// Switch candidates per output (the paper's 8C configuration).
pub const CANDIDATES: usize = 8;

/// Index of the 80 % point in [`LOADS`].
const AT_80: usize = 1;
/// Index of the 95 % point in [`LOADS`].
const AT_95: usize = 2;

struct Point {
    router: Router,
    workload: CbrWorkload,
    offered_load: f64,
}

/// What one load point measured.
#[derive(Debug, Default)]
struct PointResult {
    offered_load: f64,
    connections: usize,
    delay_mean: f64,
    delay_p99: f64,
    jitter_mean: f64,
    utilization: f64,
    flits_measured: u64,
    injected: u64,
    transmitted: u64,
    steps: u64,
}

/// One seeded run: builds the three points, then simulates them in turn.
pub fn run(seed: u64, tr: &mut Tracer) -> Rep {
    let setup_clock = Stopwatch::start();
    let mut points: Vec<Point> = tr.span(Layer::Setup, |tr| {
        LOADS
            .iter()
            .enumerate()
            .map(|(i, &load)| {
                let s = point_seed(seed, i);
                let mut router = tr.span(Layer::RouterBuild, |_| {
                    RouterConfig::paper_default()
                        .arbiter(ArbiterKind::BiasedPriority)
                        .candidates(CANDIDATES)
                        .seed(s ^ 0xA5A5_5A5A)
                        .build()
                });
                let mut rng = SeededRng::new(s);
                let workload = tr.span(Layer::CbrBuild, |_| {
                    CbrWorkload::build(&mut router, &paper_rate_ladder(), load, &mut rng)
                });
                let offered_load = workload.offered_load(&router);
                Point {
                    router,
                    workload,
                    offered_load,
                }
            })
            .collect()
    });
    let setup_s = setup_clock.secs();

    let run_clock = Stopwatch::start();
    let results: Vec<PointResult> = tr.span(Layer::Run, |tr| {
        points.iter_mut().map(|p| run_point(p, tr)).collect()
    });
    let run_s = run_clock.secs();

    let mut checks = Checks::default();
    for (p, r) in points.iter().zip(&results) {
        checks.expect(r.flits_measured > 0, || {
            format!("load {:.2}: no flit measured", r.offered_load)
        });
        checks.expect(r.transmitted <= r.injected, || {
            format!(
                "load {:.2}: {} flits sent of {} injected",
                r.offered_load, r.transmitted, r.injected
            )
        });
        // Below saturation a CBR population carries its offered load.
        if p.offered_load < 0.9 {
            checks.expect((r.utilization - r.offered_load).abs() < 0.08, || {
                format!(
                    "load {:.2}: utilization {:.4}",
                    r.offered_load, r.utilization
                )
            });
        }
    }

    let stats: Vec<_> = points.iter().map(|p| p.router.stats()).collect();
    let at80 = &results[AT_80];
    let steps: u64 = results.iter().map(|r| r.steps).sum();
    let transmitted: u64 = results.iter().map(|r| r.transmitted).sum();
    let mut out = vec![
        sim("sim_delay_mean_cycles", "cycles", at80.delay_mean),
        sim("sim_delay_p99_cycles", "cycles", at80.delay_p99),
        sim("sim_jitter_mean_cycles", "cycles", at80.jitter_mean),
        sim("sim_utilization", "ratio", results[AT_95].utilization),
        sim(
            "core.step_calls_per_cycle",
            "ratio",
            ratio(steps, LOADS.len() as u64 * (WARMUP + MEASURE)),
        ),
        sim("core.flits_per_step", "ratio", ratio(transmitted, steps)),
        sim(
            "core.reconfigurations",
            "count",
            stats.iter().map(|s| s.reconfigurations).sum::<u64>() as f64,
        ),
        sim(
            "core.bank_conflicts",
            "count",
            stats.iter().map(|s| s.bank_conflicts).sum::<u64>() as f64,
        ),
        sim(
            "core.heap_bytes_per_router",
            "bytes",
            points.iter().map(|p| p.router.heap_bytes()).sum::<usize>() as f64
                / points.len() as f64,
        ),
        sim(
            "core.vc_banks_materialized",
            "count",
            points
                .iter()
                .map(|p| p.router.materialized_vc_banks())
                .sum::<usize>() as f64,
        ),
    ];
    for (r, load) in results.iter().zip(LOADS) {
        let at = |what: &str| format!("point@{load:.2}.{what}");
        out.push(sim(at("offered_load"), "ratio", r.offered_load));
        out.push(sim(at("connections"), "count", r.connections as f64));
        out.push(sim(at("delay_mean_cycles"), "cycles", r.delay_mean));
        out.push(sim(at("delay_p99_cycles"), "cycles", r.delay_p99));
        out.push(sim(at("jitter_mean_cycles"), "cycles", r.jitter_mean));
        out.push(sim(at("utilization"), "ratio", r.utilization));
        out.push(sim(at("core_steps"), "count", r.steps as f64));
    }
    Rep {
        setup_s,
        run_s,
        router_cycles: LOADS.len() as u64 * (WARMUP + MEASURE),
        sim: out,
        audit: None,
        failures: checks.0,
    }
}

/// Simulates one point: warm-up, then the measured window.
fn run_point(p: &mut Point, tr: &mut Tracer) -> PointResult {
    let mut r = PointResult {
        offered_load: p.offered_load,
        connections: p.workload.connections().len(),
        ..PointResult::default()
    };
    let warmup = Warmup::until(Cycles(WARMUP));
    let total = WARMUP + MEASURE;
    let mut recorder = DelayJitterRecorder::new();
    let mut report = StepReport::default();
    let (router, workload) = (&mut p.router, &mut p.workload);
    let mut t = 0u64;
    while t < total {
        let now = Cycles(t);
        r.injected += u64::from(tr.span(Layer::Pump, |_| workload.pump(router, now)));
        tr.span(Layer::CoreStep, |_| router.step_into(now, &mut report));
        r.steps += 1;
        r.transmitted += report.transmitted.len() as u64;
        tr.span(Layer::NoteTransmitted, |_| {
            workload.note_transmitted(&report.transmitted)
        });
        if warmup.measuring(now) && !report.transmitted.is_empty() {
            let n = report.transmitted.len();
            tr.span_n(Layer::Record, n as u32, |_| {
                for tx in &report.transmitted {
                    recorder.record(tx.conn.raw(), tx.delay);
                }
            });
            r.flits_measured += n as u64;
        }
        t += 1;
        // Event skip, as in `Experiment::run`: with the router quiescent
        // and no source due before `due`, the cycles in between are no-ops.
        if report.transmitted.is_empty() && router.is_quiescent() {
            match workload.next_due_cycle() {
                Some(due) if due > t => {
                    let until = due.min(total);
                    router.note_idle_cycles(until - t);
                    t = until;
                }
                Some(_) => {}
                None => {
                    router.note_idle_cycles(total - t);
                    break;
                }
            }
        }
    }
    r.delay_mean = recorder.mean_delay_cycles();
    r.delay_p99 = recorder.delay_tail().map_or(0.0, |tail| tail.p99);
    r.jitter_mean = recorder.mean_jitter_cycles();
    r.utilization = r.flits_measured as f64 / (MEASURE as f64 * router.config().ports() as f64);
    r
}
