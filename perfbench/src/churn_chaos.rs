//! `churn_chaos`: the `irregular12` fabric under a diurnal churn tape at
//! the overload intensity, with the admission controls on, the auditor in
//! record mode every cycle, LLR on, and a seeded chaos plan of link
//! fail/repair plus transient corrupt/drop faults.
//!
//! Control-plane writes (admission, EPB setup, teardown, shedding, recovery
//! reroutes) run beside the data plane. This is the only workload that
//! exercises `fault`, `recovery` and `llr`. The same run without the
//! auditor is the companion that prices the audit pass.

use mmr_bench::faults::CampaignTopology;
use mmr_core::conn::QosClass;
use mmr_core::{AuditConfig, LlrConfig};
use mmr_net::{
    AdmissionController, AdmitPolicy, AdmitVerdict, FaultInjector, FaultPlan, NetworkSim, NodeId,
    SessionId,
};
use mmr_sim::{Cycles, DelayJitterRecorder, SeededRng};
use mmr_traffic::{ChurnConfig, ChurnEventKind, ChurnSchedule, DiurnalCurve, SessionClass};
use std::collections::BTreeMap;

use crate::rep::{ratio, sim, Checks, Rep};
use crate::trace::{Layer, Stopwatch, Tracer};

/// The fabric.
pub const TOPOLOGY: CampaignTopology = CampaignTopology::Irregular12;
/// Peak session arrivals per 1000 cycles (the churn grid's overload row).
pub const ARRIVALS_PER_KCYCLE: f64 = 800.0;
/// Cycles before the measured window.
pub const WARMUP: u64 = 1_000;
/// Measured cycles.
pub const MEASURE: u64 = 8_000;
/// Permanent link faults (each failed, then repaired).
pub const LINK_FAULTS: usize = 3;
/// Transient wire faults (corrupt/drop, seeded 50/50).
pub const TRANSIENTS: usize = 16;
/// Cycles the sources stay quiet before the final teardown.
const DRAIN: u64 = 400;
/// Cycles stepped after the final teardown.
const TAIL: u64 = 64;

struct Pacer {
    session: SessionId,
    next: f64,
    interarrival: f64,
}

#[derive(Debug, Default)]
struct Counts {
    arrivals: u64,
    accepted: u64,
    degraded: u64,
    rejected: u64,
    injected: u64,
    slots_due: u64,
    refused: u64,
    flits_switched: u64,
    fault_events: u64,
}

/// One seeded run; `audited` turns the auditor on (record mode).
pub fn run(seed: u64, tr: &mut Tracer, audited: bool) -> Rep {
    let mut checks = Checks::default();
    let horizon = WARMUP + MEASURE;
    let setup_clock = Stopwatch::start();
    let (mut net, tape, injector) = tr.span(Layer::Setup, |tr| {
        let topology = tr.span(Layer::TopologyBuild, |_| TOPOLOGY.build(seed));
        // 24 VCs per port, as in the churn campaigns: the binding resources
        // are the bandwidth books and the NI injection ceiling.
        let router = mmr_core::router::RouterConfig::paper_default()
            .vcs_per_port(24)
            .candidates(4)
            .seed(seed ^ 0xD07);
        let mut net = tr.span(Layer::RoutingBuild, |_| NetworkSim::new(topology, router));
        if audited {
            net.enable_audit(AuditConfig::default());
        }
        net.enable_llr(LlrConfig::default());
        let tape = tr.span(Layer::ChurnTape, |_| {
            let mut cfg =
                ChurnConfig::new(ARRIVALS_PER_KCYCLE / 1_000.0, TOPOLOGY.nodes(), horizon);
            cfg.median_holding = (horizon / 2) as f64;
            cfg.holding_sigma = 0.8;
            cfg.rungs = (7, 8);
            cfg.best_effort_fraction = 0.25;
            cfg.diurnal = DiurnalCurve::day_night(0.25, horizon as f64);
            ChurnSchedule::generate(&cfg, seed)
        });
        // Link faults strike in the first half of the measured window and
        // are repaired within it; transients land across that half.
        let injector = tr.span(Layer::FaultPlan, |_| {
            let window = WARMUP..WARMUP + MEASURE / 2;
            let plan = FaultPlan::seeded_chaos_campaign(
                net.topology(),
                seed,
                LINK_FAULTS,
                TRANSIENTS,
                window,
                Cycles(MEASURE / 8),
            );
            FaultInjector::new(plan)
        });
        (net, tape, injector)
    });
    let setup_s = setup_clock.secs();
    let mut injector = match injector {
        Ok(inj) => inj,
        Err(e) => {
            checks.0.push(format!("seeded fault plan rejected: {e}"));
            FaultInjector::new(FaultPlan::new()).expect("the empty plan is consistent")
        }
    };
    checks.expect(audited == net.auditor().is_some(), || {
        format!(
            "auditor present = {}, wanted {audited}",
            net.auditor().is_some()
        )
    });

    let timing = net.router(NodeId(0)).config().timing();
    let mut ctl = AdmissionController::new(AdmitPolicy::default());
    let mut pacers: Vec<Pacer> = Vec::new();
    let mut live: BTreeMap<u32, SessionId> = BTreeMap::new();
    let mut phase_rng = SeededRng::new(seed ^ 0x9A5E);
    let mut recorder = DelayJitterRecorder::new();
    let mut c = Counts::default();
    let mut event_idx = 0usize;
    let mut upgrades_seen = 0u64;

    let run_clock = Stopwatch::start();
    let mut t = 0u64;
    tr.span(Layer::Run, |tr| {
        while t < horizon + DRAIN {
            let now = Cycles(t);
            let sources_on = t < horizon;
            let measuring = (WARMUP..horizon).contains(&t);
            let tick = tr.span(Layer::FaultPoll, |_| injector.poll(&mut net, now));
            c.fault_events += (tick.failed.len()
                + tick.repaired.len()
                + tick.nodes_failed.len()
                + tick.nodes_repaired.len()
                + tick.transients_armed) as u64;
            if !tick.broken.is_empty() {
                tr.span(Layer::OnFaults, |_| {
                    ctl.sessions_mut().on_faults(&tick.broken, now)
                });
            }

            // Play the tape up to now.
            while let Some(ev) = tape.events.get(event_idx).filter(|_| sources_on) {
                if ev.at > now {
                    break;
                }
                event_idx += 1;
                let Some(plan) = tape.sessions.get(ev.session as usize) else {
                    continue;
                };
                match ev.kind {
                    ChurnEventKind::Arrival => {
                        c.arrivals += 1;
                        let class = match plan.class {
                            SessionClass::Cbr { .. } => QosClass::Cbr {
                                rate: plan.class.rate(),
                            },
                            SessionClass::BestEffort => QosClass::BestEffort,
                        };
                        let (src, dst) = (NodeId(plan.src as u16), NodeId(plan.dst as u16));
                        let verdict = tr.span(Layer::AdmRequest, |_| {
                            ctl.request(&mut net, src, dst, class)
                        });
                        match verdict {
                            AdmitVerdict::Accepted { .. } => c.accepted += 1,
                            AdmitVerdict::Degraded { .. } => c.degraded += 1,
                            AdmitVerdict::Rejected { .. } => c.rejected += 1,
                        }
                        if let Some(session) = verdict.session() {
                            live.insert(plan.id, session);
                            if let Some(QosClass::Cbr { rate }) = ctl.sessions().class(session) {
                                let interarrival = timing.interarrival_cycles(rate);
                                pacers.push(Pacer {
                                    session,
                                    next: now.as_f64() + phase_rng.uniform(0.0, interarrival),
                                    interarrival,
                                });
                            }
                        }
                    }
                    ChurnEventKind::Departure => {
                        if let Some(session) = live.remove(&plan.id) {
                            pacers.retain(|p| p.session != session);
                            tr.span(Layer::AdmClose, |_| ctl.close(&mut net, session));
                        }
                    }
                }
            }

            // Live CBR sessions pace their slots; a refused slot is a miss.
            for p in &mut pacers {
                let Some(conn) = ctl.sessions().conn(p.session) else {
                    p.next = p.next.max(now.as_f64());
                    continue;
                };
                while p.next <= now.as_f64() {
                    p.next += p.interarrival;
                    if !sources_on {
                        continue;
                    }
                    if measuring {
                        c.slots_due += 1;
                    }
                    match tr.span(Layer::Inject, |_| net.inject(conn, now)) {
                        Ok(()) => c.injected += 1,
                        Err(_) if measuring => c.refused += 1,
                        Err(_) => {}
                    }
                }
            }

            let report = tr.span(Layer::NetStep, |_| net.step(now));
            c.flits_switched += report.flits_switched as u64;
            if measuring && !report.delivered.is_empty() {
                tr.span_n(Layer::Record, report.delivered.len() as u32, |_| {
                    for d in &report.delivered {
                        recorder.record(d.conn.0, d.latency);
                    }
                });
            }
            let (events, preempted) =
                tr.span(Layer::AdmService, |_| ctl.service(&mut net, &report, now));
            for v in &preempted {
                pacers.retain(|p| p.session != v.session);
                live.retain(|_, s| *s != v.session);
            }
            // Recovery degradations and load-recede upgrades change rates.
            let upgrades = ctl.stats().upgrades;
            if !events.is_empty() || upgrades != upgrades_seen {
                upgrades_seen = upgrades;
                for p in &mut pacers {
                    if let Some(QosClass::Cbr { rate }) = ctl.sessions().class(p.session) {
                        p.interarrival = timing.interarrival_cycles(rate);
                    }
                }
            }
            t += 1;
        }
        // Final teardown of every live session, then a short tail.
        for &session in live.values() {
            tr.span(Layer::AdmClose, |_| ctl.close(&mut net, session));
        }
        for _ in 0..TAIL {
            let now = Cycles(t);
            tr.span(Layer::NetStep, |_| net.step(now));
            t += 1;
        }
    });
    let run_s = run_clock.secs();

    let stats = net.stats();
    let failed = stats.flits_lost + stats.out_of_order + stats.undetected_corruptions;
    checks.expect(
        c.injected == stats.flits_delivered + stats.flits_lost,
        || {
            format!(
                "conservation: injected {} != delivered {} + lost {}",
                c.injected, stats.flits_delivered, stats.flits_lost
            )
        },
    );
    checks.expect(stats.out_of_order == 0, || {
        format!("{} flits out of order", stats.out_of_order)
    });
    checks.expect(stats.undetected_corruptions == 0, || {
        format!(
            "{} corruptions went undetected with LLR on",
            stats.undetected_corruptions
        )
    });
    checks.expect(c.fault_events > 0, || "the chaos plan never struck".into());
    let audit = net.auditor().map(|a| (a.checks(), a.violation_count()));
    if let Some((audit_checks, violations)) = audit {
        checks.expect(audit_checks > 0, || "the auditor never ran".into());
        checks.expect(violations == 0, || {
            format!("auditor recorded {violations} violations")
        });
    }

    let nodes = TOPOLOGY.nodes();
    let core = (0..nodes).map(|n| net.router(NodeId(n as u16)).stats());
    let (reconfigurations, bank_conflicts) = core.fold((0, 0), |(r, b), s| {
        (r + s.reconfigurations, b + s.bank_conflicts)
    });
    let adm = ctl.stats();
    let rec = ctl.sessions().stats();
    let out = vec![
        sim(
            "sim_delay_mean_cycles",
            "cycles",
            recorder.mean_delay_cycles(),
        ),
        sim(
            "sim_delay_p99_cycles",
            "cycles",
            recorder.delay_tail().map_or(0.0, |t| t.p99),
        ),
        sim(
            "sim_jitter_mean_cycles",
            "cycles",
            recorder.mean_jitter_cycles(),
        ),
        sim(
            "admit_ratio",
            "ratio",
            ratio(c.accepted + c.degraded, c.arrivals),
        ),
        sim("qos_miss_ratio", "ratio", ratio(c.refused, c.slots_due)),
        sim("failed_ratio", "ratio", ratio(failed, c.injected)),
        sim("flits.injected", "count", c.injected as f64),
        sim("flits.delivered", "count", stats.flits_delivered as f64),
        sim("flits.lost", "count", stats.flits_lost as f64),
        sim("core.reconfigurations", "count", reconfigurations as f64),
        sim("core.bank_conflicts", "count", bank_conflicts as f64),
        sim(
            "net.flits_switched_per_cycle",
            "ratio",
            ratio(c.flits_switched, t),
        ),
        sim("net.inject_refused", "count", c.refused as f64),
        sim("admission.accepted", "count", adm.accepted as f64),
        sim("admission.degraded", "count", adm.degraded as f64),
        sim(
            "admission.rejected",
            "count",
            (adm.rejected_saturated + adm.rejected_resources + adm.rejected_other) as f64,
        ),
        sim(
            "admission.preempted",
            "count",
            (adm.preempted_best_effort + adm.preempted_cbr) as f64,
        ),
        sim("admission.upgrades", "count", adm.upgrades as f64),
        sim("recovery.faults", "count", rec.faults as f64),
        sim("recovery.recovered", "count", rec.recovered as f64),
        sim("recovery.retries", "count", rec.retries as f64),
        sim(
            "recovery.permanently_failed",
            "count",
            rec.permanently_failed as f64,
        ),
        sim("recovery.partitioned", "count", rec.partitioned as f64),
        sim("fault.events", "count", c.fault_events as f64),
        sim(
            "llr.flits_retransmitted",
            "count",
            stats.flits_retransmitted as f64,
        ),
        sim("llr.flits_corrupted", "count", stats.flits_corrupted as f64),
        sim("llr.flits_dropped", "count", stats.flits_dropped as f64),
        sim(
            "llr.undetected_corruptions",
            "count",
            stats.undetected_corruptions as f64,
        ),
    ];
    Rep {
        setup_s,
        run_s,
        router_cycles: nodes as u64 * t,
        sim: out,
        audit,
        failures: checks.0,
    }
}
