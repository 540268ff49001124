//! Thousand-node scale campaigns: dragonfly and butterfly fabrics under
//! CBR churn, with measured memory footprints.
//!
//! Each point builds an HPC-scale fabric with its structured routing
//! algorithm (group-minimal on the dragonfly, destination-tag on the
//! butterfly), opens a population of CBR sessions, drives churn (periodic
//! teardown + re-establishment) through a bounded run, then tears
//! everything down and reads the fabric's steady-state heap footprint
//! ([`NetworkSim::memory_footprint`]). The bytes-per-router figure is the
//! scale wall's guardrail: it proves lazy VC-bank allocation and the
//! compact scheduler tables keep 1k+ routers affordable.
//!
//! Every field of [`ScaleResult`] is a pure function of the point and its
//! seed — the rendered table is byte-identical at any `--jobs` value.
//! Wall-clock timings are measured by the `scalebench` example *around*
//! these functions and live only in the JSON (under `wall_*` keys, which
//! CI strips before comparing).

use mmr_core::router::RouterConfig;
use mmr_net::setup::cbr_mbps;
use mmr_net::{
    AuditMode, Butterfly, Dragonfly, MinimalSpec, NetConnectionId, NetworkSim, NodeId, RoutingSpec,
    SetupStrategy, Topology,
};
use mmr_sim::{Cycles, SeededRng};

use crate::sweep::{point_seed, SweepOptions};
use crate::FIGURE_SEED;

/// Base seed of the scale campaigns (decorrelated from the other sweeps).
pub const SCALE_SEED: u64 = FIGURE_SEED ^ 0x5CA1_EAB1;

/// Fabrics the scale wall exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleFabric {
    /// Balanced dragonfly `(a=32, p=1, h=1)`: 33 groups × 32 routers =
    /// 1056 nodes, group-minimal routing.
    Dragonfly1056,
    /// 2-ary 8-fly butterfly: 8 stages × 128 rows = 1024 nodes,
    /// destination-tag routing.
    Butterfly1024,
    /// Reduced dragonfly `(a=16, h=1, 16 groups)`: 256 nodes — the CI
    /// smoke configuration (`--quick`).
    DragonflyQuick256,
}

impl ScaleFabric {
    /// Stable series name.
    pub fn name(&self) -> &'static str {
        match self {
            ScaleFabric::Dragonfly1056 => "dragonfly-1056",
            ScaleFabric::Butterfly1024 => "butterfly-1024",
            ScaleFabric::DragonflyQuick256 => "dragonfly-quick-256",
        }
    }

    /// Node count of the fabric.
    pub fn nodes(&self) -> usize {
        match self {
            ScaleFabric::Dragonfly1056 => 1056,
            ScaleFabric::Butterfly1024 => 1024,
            ScaleFabric::DragonflyQuick256 => 256,
        }
    }

    /// Builds the wired topology.
    pub fn build(&self) -> Topology {
        match self {
            ScaleFabric::Dragonfly1056 => Topology::dragonfly(32, 1, 1),
            ScaleFabric::Butterfly1024 => Topology::butterfly(2, 8),
            ScaleFabric::DragonflyQuick256 => {
                Dragonfly::with_groups(16, 1, 1, 16).build()
            }
        }
        .expect("scale fabrics wire within the port budget")
    }

    /// The structured routing algorithm matching the fabric.
    pub fn routing(&self) -> RoutingSpec {
        let minimal = match self {
            ScaleFabric::Dragonfly1056 => {
                MinimalSpec::Dragonfly(Dragonfly::balanced(32, 1, 1))
            }
            ScaleFabric::Butterfly1024 => MinimalSpec::Butterfly(Butterfly::new(2, 8)),
            ScaleFabric::DragonflyQuick256 => {
                MinimalSpec::Dragonfly(Dragonfly::with_groups(16, 1, 1, 16))
            }
        };
        RoutingSpec { minimal, valiant_salt: None }
    }

    /// Heap budget per router (bytes): measured steady-state figures plus
    /// ~40% headroom, asserted by `scalebench` and CI. A regression that
    /// re-eagers the VC banks or fattens the per-port tables trips this.
    pub fn bytes_per_router_budget(&self) -> usize {
        match self {
            // 33 ports/router at 256 VCs each dominates; lazy banks keep
            // the VCM term to the handful of ports that carried traffic.
            // Measured ≈ 247 KiB/router.
            ScaleFabric::Dragonfly1056 => 352 * 1024,
            // 5 ports/router: the butterfly is an order of magnitude
            // leaner. Measured ≈ 39 KiB/router.
            ScaleFabric::Butterfly1024 => 56 * 1024,
            // 17 ports/router. Measured ≈ 128 KiB/router.
            ScaleFabric::DragonflyQuick256 => 184 * 1024,
        }
    }

    /// CBR sessions held open at steady state.
    pub fn sessions(&self) -> usize {
        match self {
            ScaleFabric::Dragonfly1056 | ScaleFabric::Butterfly1024 => 64,
            ScaleFabric::DragonflyQuick256 => 24,
        }
    }

    /// Simulated cycles of the churn window (teardown + drain excluded).
    pub fn cycles(&self) -> u64 {
        match self {
            ScaleFabric::Dragonfly1056 | ScaleFabric::Butterfly1024 => 6_000,
            ScaleFabric::DragonflyQuick256 => 3_000,
        }
    }
}

/// Deterministic outcome of one scale point (everything the byte-compared
/// table renders).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleResult {
    /// Fabric node count.
    pub nodes: usize,
    /// Fabric wire count.
    pub links: usize,
    /// Sessions successfully established over the whole run (incl. churn
    /// replacements).
    pub established: u64,
    /// Establishment attempts the fabric denied (admission or probe
    /// failure); the campaign over-draws pairs, so nonzero is not an error.
    pub denied: u64,
    /// Flits injected at the sources.
    pub injected: u64,
    /// Flits delivered end to end.
    pub delivered: u64,
    /// Flits lost (must stay zero — nothing faults in this campaign).
    pub lost: u64,
    /// Router flit cycles actually stepped (awake routers only).
    pub router_cycles: u64,
    /// Steady-state fabric heap footprint in bytes, read after the churn
    /// window while the session population is still open.
    pub footprint_bytes: usize,
    /// `footprint_bytes / nodes`.
    pub bytes_per_router: usize,
    /// Lazily materialized VC queue banks across the fabric (the eager
    /// alternative would be `ports × vcs/32` per router).
    pub materialized_vc_banks: usize,
    /// How the conservation auditor ran: off unless `MMR_AUDIT=1` turned
    /// it on (enforce mode). Throughput under different modes is not
    /// comparable, so the record states it.
    pub auditor: AuditMode,
    /// Whether the conservation auditor finished clean; `true` when the
    /// auditor was off.
    pub auditor_clean: bool,
}

/// Runs one seeded scale point: establish → CBR churn → teardown.
pub fn run_point(fabric: ScaleFabric, seed: u64) -> ScaleResult {
    run_point_timed(fabric, seed).0
}

/// [`run_point`] with wall-clock `(build_secs, run_secs)` measured around
/// the fabric construction and the simulation loop. The timings never
/// influence the [`ScaleResult`]; they only feed the JSON's `wall_*`
/// fields.
pub fn run_point_timed(fabric: ScaleFabric, seed: u64) -> (ScaleResult, f64, f64) {
    let build_start = std::time::Instant::now();
    let topology = fabric.build();
    let links = topology.wires().len();
    let router = RouterConfig::paper_default().candidates(4).seed(seed ^ 0x5CA1E);
    let mut net = NetworkSim::with_routing(topology, router, fabric.routing());
    let build_secs = build_start.elapsed().as_secs_f64();
    let run_start = std::time::Instant::now();

    let mut rng = SeededRng::new(seed);
    let nodes = fabric.nodes();
    let mut live: Vec<NetConnectionId> = Vec::new();
    let mut established = 0u64;
    let mut denied = 0u64;
    let mut injected = 0u64;

    let mut open_sessions = |net: &mut NetworkSim,
                             rng: &mut SeededRng,
                             live: &mut Vec<NetConnectionId>,
                             want: usize| {
        let mut attempts = 0;
        while live.len() < want && attempts < want * 4 {
            attempts += 1;
            let src = NodeId(rng.index(nodes) as u16);
            let dst = NodeId(rng.index(nodes) as u16);
            if src == dst {
                continue;
            }
            match net.establish(src, dst, cbr_mbps(8.0), SetupStrategy::Epb) {
                Ok(c) => {
                    live.push(c);
                    established += 1;
                }
                Err(_) => denied += 1,
            }
        }
    };

    open_sessions(&mut net, &mut rng, &mut live, fabric.sessions());

    // Churn window: inject on every live session each 16 cycles; at the
    // one-third marks, drain in-flight traffic, close a third of the
    // population, and refill it. The drain keeps teardown from discarding
    // flits still crossing the fabric — nothing faults here, so `lost`
    // must close at zero.
    let total = fabric.cycles();
    let churn_at = [total / 3, 2 * total / 3];
    let mut t = 0u64;
    let drain = |net: &mut NetworkSim, t: &mut u64| {
        for _ in 0..400 {
            net.step(Cycles(*t));
            *t += 1;
        }
    };
    while t < total {
        if churn_at.contains(&t) {
            drain(&mut net, &mut t);
            let closing = live.len() / 3;
            for c in live.drain(..closing) {
                net.teardown(c).expect("tracked as live");
            }
            open_sessions(&mut net, &mut rng, &mut live, fabric.sessions());
        }
        if t.is_multiple_of(16) {
            for &c in &live {
                if net.can_inject(c) {
                    net.inject(c, Cycles(t)).expect("checked");
                    injected += 1;
                }
            }
        }
        net.step(Cycles(t));
        t += 1;
    }

    // Steady-state footprint: the churn population is still open, queues
    // hold whatever the traffic materialized.
    let footprint_bytes = net.memory_footprint();
    let materialized_vc_banks =
        (0..nodes).map(|n| net.router(NodeId(n as u16)).materialized_vc_banks()).sum();

    // Drain the tail, then teardown: conservation must close exactly.
    drain(&mut net, &mut t);
    for c in live.drain(..) {
        net.teardown(c).expect("tracked as live");
    }
    for _ in 0..64 {
        net.step(Cycles(t));
        t += 1;
    }

    let run_secs = run_start.elapsed().as_secs_f64();
    let stats = net.stats().clone();
    let router_cycles = (0..nodes).map(|n| net.router(NodeId(n as u16)).stats().cycles).sum();
    let auditor = net.audit_mode();
    let auditor_clean = net.auditor().is_none_or(|a| a.is_clean());
    let result = ScaleResult {
        nodes,
        links,
        established,
        denied,
        injected,
        delivered: stats.flits_delivered,
        lost: stats.flits_lost,
        router_cycles,
        footprint_bytes,
        bytes_per_router: footprint_bytes / nodes,
        materialized_vc_banks,
        auditor,
        auditor_clean,
    };
    (result, build_secs, run_secs)
}

/// The campaign grid: the CI smoke point under `--quick`, the two
/// thousand-node fabrics otherwise.
pub fn scale_grid(quick: bool) -> Vec<ScaleFabric> {
    if quick {
        vec![ScaleFabric::DragonflyQuick256]
    } else {
        vec![ScaleFabric::Dragonfly1056, ScaleFabric::Butterfly1024]
    }
}

/// Runs the grid through the deterministic sweep harness; each point is
/// seeded by its position, so the [`ScaleResult`]s are byte-identical at
/// any job count. The trailing `(build_secs, run_secs)` pair is wall
/// clock and never enters the table.
pub fn run_scale(
    grid: &[ScaleFabric],
    opts: &SweepOptions,
) -> Vec<(ScaleFabric, ScaleResult, (f64, f64))> {
    opts.run_indexed(grid.len(), |i| {
        let fabric = grid.get(i).copied().expect("index from grid length");
        let (result, build_secs, run_secs) = run_point_timed(fabric, point_seed(SCALE_SEED, i));
        (fabric, result, (build_secs, run_secs))
    })
}

/// Renders the human-readable scale table (`results/scale.txt`) —
/// deterministic content only (the wall-clock element is ignored).
pub fn render_table(cells: &[(ScaleFabric, ScaleResult, (f64, f64))]) -> String {
    let mut out = String::new();
    out.push_str("MMR scale wall: thousand-node fabrics under CBR churn\n");
    out.push_str(&format!(
        "{:<20} {:>6} {:>6} {:>5} {:>6} {:>9} {:>9} {:>5} {:>12} {:>8} {:>7} {:>6}\n",
        "fabric",
        "nodes",
        "links",
        "sess",
        "denied",
        "injected",
        "delivered",
        "lost",
        "bytes/router",
        "vcbanks",
        "auditor",
        "clean"
    ));
    for (fabric, r, _) in cells {
        out.push_str(&format!(
            "{:<20} {:>6} {:>6} {:>5} {:>6} {:>9} {:>9} {:>5} {:>12} {:>8} {:>7} {:>6}\n",
            fabric.name(),
            r.nodes,
            r.links,
            r.established,
            r.denied,
            r.injected,
            r.delivered,
            r.lost,
            r.bytes_per_router,
            r.materialized_vc_banks,
            r.auditor.label(),
            r.auditor_clean
        ));
    }
    out
}

/// Renders `BENCH_scale.json`. The per-point wall-clock seconds are
/// emitted under `wall_`-prefixed keys so CI can strip them before
/// byte-comparing serial and parallel runs.
pub fn render_json(cells: &[(ScaleFabric, ScaleResult, (f64, f64))]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"points\": [\n");
    for (i, (fabric, r, (build_secs, run_secs))) in cells.iter().enumerate() {
        let cps = if *run_secs > 0.0 { r.router_cycles as f64 / run_secs } else { 0.0 };
        out.push_str("    {\n");
        out.push_str(&format!("      \"fabric\": \"{}\",\n", fabric.name()));
        out.push_str(&format!("      \"nodes\": {},\n", r.nodes));
        out.push_str(&format!("      \"links\": {},\n", r.links));
        out.push_str(&format!("      \"routing\": \"{}\",\n", fabric.routing().label()));
        out.push_str(&format!("      \"established\": {},\n", r.established));
        out.push_str(&format!("      \"denied\": {},\n", r.denied));
        out.push_str(&format!("      \"injected\": {},\n", r.injected));
        out.push_str(&format!("      \"delivered\": {},\n", r.delivered));
        out.push_str(&format!("      \"lost\": {},\n", r.lost));
        out.push_str(&format!("      \"router_cycles\": {},\n", r.router_cycles));
        out.push_str(&format!("      \"footprint_bytes\": {},\n", r.footprint_bytes));
        out.push_str(&format!("      \"bytes_per_router\": {},\n", r.bytes_per_router));
        out.push_str(&format!(
            "      \"bytes_per_router_budget\": {},\n",
            fabric.bytes_per_router_budget()
        ));
        out.push_str(&format!(
            "      \"within_budget\": {},\n",
            r.bytes_per_router <= fabric.bytes_per_router_budget()
        ));
        out.push_str(&format!(
            "      \"materialized_vc_banks\": {},\n",
            r.materialized_vc_banks
        ));
        out.push_str(&format!("      \"auditor\": \"{}\",\n", r.auditor.label()));
        out.push_str(&format!("      \"auditor_clean\": {},\n", r.auditor_clean));
        out.push_str(&format!("      \"wall_build_secs\": {build_secs:.3},\n"));
        out.push_str(&format!("      \"wall_run_secs\": {run_secs:.3},\n"));
        out.push_str(&format!("      \"wall_router_cycles_per_sec\": {cps:.0}\n"));
        out.push_str(if i + 1 == cells.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_point_is_clean_and_within_budget() {
        let fabric = ScaleFabric::DragonflyQuick256;
        let r = run_point(fabric, point_seed(SCALE_SEED, 0));
        assert_eq!(r.nodes, 256);
        assert!(r.established >= fabric.sessions() as u64);
        assert!(r.delivered > 0, "CBR traffic flowed");
        assert_eq!(r.lost, 0, "nothing faults in the scale campaign");
        assert!(r.auditor_clean);
        // The record names the auditor mode it ran in: only `MMR_AUDIT=1`
        // turns the auditor on here, and then it enforces.
        let audited = std::env::var("MMR_AUDIT").is_ok_and(|v| !v.is_empty() && v != "0");
        assert_eq!(r.auditor, if audited { AuditMode::Enforce } else { AuditMode::Off });
        let json = render_json(&[(fabric, r, (0.0, 0.0))]);
        assert!(json.contains(&format!("\"auditor\": \"{}\",", r.auditor.label())), "{json}");
        assert!(
            r.bytes_per_router <= fabric.bytes_per_router_budget(),
            "bytes/router {} over budget {}",
            r.bytes_per_router,
            fabric.bytes_per_router_budget()
        );
        // Lazy banks: the fabric materialized only a sliver of the eager
        // worst case (ports × vcs/32 banks per router).
        let eager = 256 * 17 * (256 / 32);
        assert!(
            r.materialized_vc_banks * 10 < eager,
            "{} banks materialized vs {} eager",
            r.materialized_vc_banks,
            eager
        );
    }

    #[test]
    fn scale_points_are_deterministic() {
        let fabric = ScaleFabric::DragonflyQuick256;
        let a = run_point(fabric, 7);
        let b = run_point(fabric, 7);
        assert_eq!(a, b);
    }
}
