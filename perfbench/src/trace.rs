//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public functions
//! (no instrumentation lives inside the program). Each span records its
//! layer, its parent span, a start/end pair and how many items of work the
//! call covered (flits recorded, for example). With tracing off,
//! [`Tracer::span`] calls the closure and reads no clock, so the untraced
//! runs that give the end-to-end metrics carry no tracing cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
// mmr-lint: allow(D-TIME, reason="the benchmark measures host time; nothing simulated reads it")
use std::time::Instant;

/// A host-time stopwatch: with the spans, the benchmark's only clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant); // mmr-lint: allow(D-TIME, reason="host-time stopwatch")

impl Stopwatch {
    /// Starts the stopwatch.
    pub fn start() -> Self {
        // mmr-lint: allow(D-TIME, reason="host-time measurement around the simulation")
        Stopwatch(Instant::now())
    }

    /// Seconds since the start.
    pub fn secs(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// A layer boundary the benchmark crosses. The name is `<module>.<call>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Everything before the first simulated cycle.
    Setup,
    /// The simulated cycles, drains and teardowns.
    Run,
    /// `Topology::dragonfly` / `Topology::irregular`.
    TopologyBuild,
    /// `NetworkSim::with_routing` / `NetworkSim::new` (routers + routing).
    RoutingBuild,
    /// `RouterConfig::build` of the single router.
    RouterBuild,
    /// `CbrWorkload::build`.
    CbrBuild,
    /// `ChurnSchedule::generate`.
    ChurnTape,
    /// `FaultPlan::seeded_chaos_campaign` + `FaultInjector::new`.
    FaultPlan,
    /// `CbrWorkload::pump`.
    Pump,
    /// `CbrWorkload::note_transmitted`.
    NoteTransmitted,
    /// `Router::step_into`.
    CoreStep,
    /// `DelayJitterRecorder::record`, one span per batch of flits.
    Record,
    /// `NetworkSim::establish` (EPB).
    Establish,
    /// `NetworkSim::teardown`.
    Teardown,
    /// `NetworkSim::inject`.
    Inject,
    /// `NetworkSim::step`.
    NetStep,
    /// `NetworkSim::memory_footprint` + per-router heap reads.
    Footprint,
    /// `AdmissionController::request`.
    AdmRequest,
    /// `AdmissionController::close`.
    AdmClose,
    /// `AdmissionController::service`.
    AdmService,
    /// `RecoveryManager::on_faults`.
    OnFaults,
    /// `FaultInjector::poll`.
    FaultPoll,
}

impl Layer {
    /// Stable span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "phase.setup",
            Layer::Run => "phase.run",
            Layer::TopologyBuild => "net.topology_build",
            Layer::RoutingBuild => "net.routing_build",
            Layer::RouterBuild => "core.router_build",
            Layer::CbrBuild => "traffic.cbr_build",
            Layer::ChurnTape => "traffic.churn_tape",
            Layer::FaultPlan => "fault.plan_build",
            Layer::Pump => "traffic.pump",
            Layer::NoteTransmitted => "traffic.note_transmitted",
            Layer::CoreStep => "core.step",
            Layer::Record => "sim.record",
            Layer::Establish => "net.establish",
            Layer::Teardown => "net.teardown",
            Layer::Inject => "net.inject",
            Layer::NetStep => "net.step",
            Layer::Footprint => "net.footprint",
            Layer::AdmRequest => "admission.request",
            Layer::AdmClose => "admission.close",
            Layer::AdmService => "admission.service",
            Layer::OnFaults => "recovery.on_faults",
            Layer::FaultPoll => "fault.poll",
        }
    }
}

/// One recorded span. Times are nanoseconds from the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary crossed.
    pub layer: Layer,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Items of work the call covered (1 unless stated).
    pub items: u32,
    /// Start, in ns from the origin.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Records spans when on; a pass-through when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    // mmr-lint: allow(D-TIME, reason="span origin; host time only")
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing and reads no clock.
    pub fn off() -> Self {
        Tracer {
            on: false,
            // mmr-lint: allow(D-TIME, reason="span origin; host time only")
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Runs `f` inside a span of `layer` covering one item of work.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_n(layer, 1, f)
    }

    /// Runs `f` inside a span of `layer` covering `items` items of work.
    #[inline]
    pub fn span_n<R>(&mut self, layer: Layer, items: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied();
        self.spans.push(Span {
            layer,
            parent,
            items,
            start_ns: 0,
            dur_ns: 0,
        });
        self.open.push(idx);
        let start = Instant::now(); // mmr-lint: allow(D-TIME, reason="span start; host time only")
        let out = f(self);
        let end = Instant::now(); // mmr-lint: allow(D-TIME, reason="span end; host time only")
        self.open.pop();
        let span = &mut self.spans[idx as usize];
        span.start_ns = nanos(start.duration_since(self.origin));
        span.dur_ns = nanos(end.duration_since(start));
        out
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer aggregates of the recorded spans.
    pub fn summarize(&self) -> BTreeMap<Layer, LayerStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<Layer, LayerStats> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let st = out.entry(s.layer).or_default();
            st.calls += 1;
            st.items += u64::from(s.items);
            st.total_ns += s.dur_ns;
            st.self_ns += s.dur_ns.saturating_sub(children);
            st.durs.push(s.dur_ns);
        }
        out
    }

    /// Writes the spans as tab-separated lines: index, layer, parent
    /// index (-1 for roots), items, start ns, duration ns.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "idx\tlayer\tparent\titems\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.layer.name(),
                s.items,
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Aggregate of one layer's spans, pooled over the traced runs.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Spans recorded.
    pub calls: u64,
    /// Items of work the spans covered.
    pub items: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their child spans cover.
    pub self_ns: u64,
    /// Every span duration, for percentiles.
    pub durs: Vec<u64>,
}

impl LayerStats {
    /// Pools another run's aggregate into this one.
    pub fn absorb(&mut self, other: LayerStats) {
        self.calls += other.calls;
        self.items += other.items;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.durs.extend(other.durs);
    }

    /// The `q` quantile of the span durations in ns (nearest rank), or 0
    /// with no spans.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.durs.is_empty() {
            return 0.0;
        }
        self.durs.sort_unstable();
        let rank = ((q * self.durs.len() as f64).ceil() as usize).clamp(1, self.durs.len());
        self.durs[rank - 1] as f64
    }

    /// Mean ns per item of work, or 0 with no items.
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.items as f64
        }
    }
}
