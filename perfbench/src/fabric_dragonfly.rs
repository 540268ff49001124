//! `fabric_dragonfly`: the 1056-node dragonfly `(a=32, p=1, h=1)` with
//! group-minimal routing, in the `scalebench` shape lengthened to a
//! multi-second run.
//!
//! 8 Mbps CBR sessions are set up through EPB and paced open-loop at their
//! reserved rate (a refused slot is counted, not deferred). At the
//! one-third marks the fabric drains, a third of the sessions are torn
//! down and the population is refilled. The run ends with a drain and a
//! full teardown, so flit conservation must close exactly. The event
//! engine runs with the auditor and LLR off: the `network`, `topology`,
//! `routing` and `setup` layers dominate, per-router core work is light.

use mmr_bench::scale::ScaleFabric;
use mmr_core::router::RouterConfig;
use mmr_net::setup::cbr_mbps;
use mmr_net::{NetConnectionId, NetworkSim, NodeId, SetupStrategy};
use mmr_sim::{Bandwidth, Cycles, DelayJitterRecorder, SeededRng};

use crate::rep::{ratio, sim, Checks, Rep};
use crate::trace::{Layer, Stopwatch, Tracer};

/// The fabric.
pub const FABRIC: ScaleFabric = ScaleFabric::Dragonfly1056;
/// CBR sessions held open.
pub const SESSIONS: usize = 256;
/// Reserved (and paced) rate of every session, in Mbps.
pub const RATE_MBPS: f64 = 8.0;
/// Simulated cycles of the churn window.
pub const CYCLES: u64 = 24_000;
/// Cycles of each drain before a teardown.
pub const DRAIN: u64 = 400;
/// Cycles stepped after the final teardown.
const TAIL: u64 = 64;

struct Session {
    conn: NetConnectionId,
    next: f64,
}

#[derive(Debug, Default)]
struct Counts {
    attempts: u64,
    established: u64,
    injected: u64,
    slots_due: u64,
    refused: u64,
    flits_switched: u64,
}

struct Fabric {
    net: NetworkSim,
    rng: SeededRng,
    live: Vec<Session>,
    interarrival: f64,
    recorder: DelayJitterRecorder,
    c: Counts,
    t: u64,
}

impl Fabric {
    /// Opens sessions between random node pairs until `SESSIONS` are live
    /// (at most four attempts per wanted session, as `scalebench` does).
    fn refill(&mut self, tr: &mut Tracer) {
        let nodes = FABRIC.nodes();
        let want = SESSIONS - self.live.len();
        let mut attempts = 0;
        while self.live.len() < SESSIONS && attempts < want * 4 {
            attempts += 1;
            let src = NodeId(self.rng.index(nodes) as u16);
            let dst = NodeId(self.rng.index(nodes) as u16);
            if src == dst {
                continue;
            }
            self.c.attempts += 1;
            let net = &mut self.net;
            let made = tr.span(Layer::Establish, |_| {
                net.establish(src, dst, cbr_mbps(RATE_MBPS), SetupStrategy::Epb)
            });
            if let Ok(conn) = made {
                self.c.established += 1;
                let phase = self.rng.uniform(0.0, self.interarrival);
                self.live.push(Session {
                    conn,
                    next: self.t as f64 + phase,
                });
            }
        }
    }

    /// One cycle: due CBR slots inject, the fabric steps, deliveries are
    /// recorded.
    fn cycle(&mut self, tr: &mut Tracer, inject: bool) {
        let now = Cycles(self.t);
        let at = self.t as f64;
        for s in &mut self.live {
            while s.next <= at {
                s.next += self.interarrival;
                if !inject {
                    continue;
                }
                self.c.slots_due += 1;
                let net = &mut self.net;
                match tr.span(Layer::Inject, |_| net.inject(s.conn, now)) {
                    Ok(()) => self.c.injected += 1,
                    Err(_) => self.c.refused += 1,
                }
            }
        }
        let net = &mut self.net;
        let report = tr.span(Layer::NetStep, |_| net.step(now));
        self.c.flits_switched += report.flits_switched as u64;
        if !report.delivered.is_empty() {
            let recorder = &mut self.recorder;
            tr.span_n(Layer::Record, report.delivered.len() as u32, |_| {
                for d in &report.delivered {
                    recorder.record(d.conn.0, d.latency);
                }
            });
        }
        self.t += 1;
    }

    /// Steps `cycles` cycles with the sources quiet.
    fn drain(&mut self, tr: &mut Tracer, cycles: u64) {
        for _ in 0..cycles {
            self.cycle(tr, false);
        }
    }

    /// Tears down the first `n` live sessions.
    fn close(&mut self, tr: &mut Tracer, n: usize) -> Result<(), String> {
        for s in self.live.drain(..n) {
            let net = &mut self.net;
            tr.span(Layer::Teardown, |_| net.teardown(s.conn))
                .map_err(|e| format!("teardown of a live session failed: {e}"))?;
        }
        Ok(())
    }
}

/// One seeded run.
pub fn run(seed: u64, tr: &mut Tracer) -> Rep {
    let mut checks = Checks::default();
    let setup_clock = Stopwatch::start();
    let mut f = tr.span(Layer::Setup, |tr| {
        let topology = tr.span(Layer::TopologyBuild, |_| FABRIC.build());
        let router = RouterConfig::paper_default()
            .candidates(4)
            .seed(seed ^ 0x5CA1E);
        let net = tr.span(Layer::RoutingBuild, |_| {
            NetworkSim::with_routing(topology, router, FABRIC.routing())
        });
        let timing = net.router(NodeId(0)).config().timing();
        let mut f = Fabric {
            net,
            rng: SeededRng::new(seed),
            live: Vec::new(),
            interarrival: timing.interarrival_cycles(Bandwidth::from_mbps(RATE_MBPS)),
            recorder: DelayJitterRecorder::new(),
            c: Counts::default(),
            t: 0,
        };
        f.refill(tr);
        f
    });
    let setup_s = setup_clock.secs();
    checks.expect(f.net.auditor().is_none(), || {
        "the auditor is on after construction; fabric_dragonfly measures it off".into()
    });

    let run_clock = Stopwatch::start();
    let (footprint, heap, banks) = tr.span(Layer::Run, |tr| {
        let marks = [CYCLES / 3, 2 * CYCLES / 3];
        while f.t < CYCLES {
            if marks.contains(&f.t) {
                f.drain(tr, DRAIN);
                let third = f.live.len() / 3;
                if let Err(e) = f.close(tr, third) {
                    checks.0.push(e);
                }
                f.refill(tr);
            }
            f.cycle(tr, true);
        }
        // Steady-state footprint, read while the population is open.
        let net = &f.net;
        let (footprint, heap, banks) = tr.span(Layer::Footprint, |_| {
            let routers = (0..FABRIC.nodes()).map(|n| net.router(NodeId(n as u16)));
            let (heap, banks) = routers.fold((0, 0), |(h, b), r| {
                (h + r.heap_bytes(), b + r.materialized_vc_banks())
            });
            (net.memory_footprint(), heap, banks)
        });
        f.drain(tr, DRAIN);
        let all = f.live.len();
        if let Err(e) = f.close(tr, all) {
            checks.0.push(e);
        }
        f.drain(tr, TAIL);
        (footprint, heap, banks)
    });
    let run_s = run_clock.secs();

    let nodes = FABRIC.nodes();
    let stats = f.net.stats();
    let c = &f.c;
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
    checks.expect(
        footprint / nodes <= FABRIC.bytes_per_router_budget(),
        || {
            format!(
                "{} bytes per router over the {} budget",
                footprint / nodes,
                FABRIC.bytes_per_router_budget()
            )
        },
    );
    checks.expect(c.injected > 0 && stats.flits_delivered > 0, || {
        "no traffic flowed".into()
    });

    let core = (0..nodes).map(|n| f.net.router(NodeId(n as u16)).stats());
    let (reconfigurations, bank_conflicts) = core.fold((0, 0), |(r, b), s| {
        (r + s.reconfigurations, b + s.bank_conflicts)
    });
    let total_cycles = f.t;
    let out = vec![
        sim(
            "sim_delay_mean_cycles",
            "cycles",
            f.recorder.mean_delay_cycles(),
        ),
        sim(
            "sim_delay_p99_cycles",
            "cycles",
            f.recorder.delay_tail().map_or(0.0, |t| t.p99),
        ),
        sim(
            "sim_jitter_mean_cycles",
            "cycles",
            f.recorder.mean_jitter_cycles(),
        ),
        sim("admit_ratio", "ratio", ratio(c.established, c.attempts)),
        sim("qos_miss_ratio", "ratio", ratio(c.refused, c.slots_due)),
        sim("failed_ratio", "ratio", ratio(failed, c.injected)),
        sim("sessions.established", "count", c.established as f64),
        sim("flits.injected", "count", c.injected as f64),
        sim("flits.delivered", "count", stats.flits_delivered as f64),
        sim("flits.lost", "count", stats.flits_lost as f64),
        sim("core.reconfigurations", "count", reconfigurations as f64),
        sim("core.bank_conflicts", "count", bank_conflicts as f64),
        sim(
            "core.heap_bytes_per_router",
            "bytes",
            heap as f64 / nodes as f64,
        ),
        sim("core.vc_banks_materialized", "count", banks as f64),
        sim(
            "net.footprint_bytes_per_router",
            "bytes",
            footprint as f64 / nodes as f64,
        ),
        sim(
            "net.establish_denied_ratio",
            "ratio",
            ratio(c.attempts - c.established, c.attempts),
        ),
        sim(
            "net.flits_switched_per_cycle",
            "ratio",
            ratio(c.flits_switched, total_cycles),
        ),
        sim("net.inject_refused", "count", c.refused as f64),
    ];
    Rep {
        setup_s,
        run_s,
        router_cycles: nodes as u64 * total_cycles,
        sim: out,
        audit: None,
        failures: checks.0,
    }
}
