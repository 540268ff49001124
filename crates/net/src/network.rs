//! The multi-router network simulator.
//!
//! [`NetworkSim`] instantiates one [`Router`] per topology node, wires their
//! ports per the [`Topology`], and moves flits across links with one flit
//! cycle of wire latency and credit-based link-level flow control (§3.2's
//! "flits_available / credits_available" machinery operating across real
//! router boundaries). Established connections span multiple routers via
//! pinned virtual channels — the direct/reverse channel mappings of §3.5 —
//! and single-flit VCT packets (control / best-effort) hop through the
//! network under up*/down* adaptive routing (§3.4–§3.5).

use std::collections::{BTreeMap, VecDeque};

use mmr_core::audit::{AuditConfig, AuditViolation, Auditor};
use mmr_core::conn::QosClass;
use mmr_core::flit::{Flit, FlitKind};
use mmr_core::ids::{ConnectionId, PortId, VcIndex, VcRef};
use mmr_bitvec::StatusBits;
use mmr_core::llr::{LlrConfig, LlrFrame, LlrReceiver, LlrSender, LlrSignal, RxOutcome};
use mmr_core::router::{InjectError, PacketError, PacketOutcome, Router, RouterConfig, StepReport};
use mmr_sim::{Accumulator, Bandwidth, Cycles, SeededRng};

use crate::routing::{MinimalRouting, RouteCtx, Routing, RoutingAlgorithm, RoutingSpec};
use crate::setup::{ProbeMachine, ProbeStep, SetupError, SetupStrategy};
use crate::topology::{NodeId, Topology};
use crate::updown::UpDownRouting;

/// Errors from the fallible [`NetworkSim`] entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The node index is out of range for this topology.
    UnknownNode {
        /// The offending node.
        node: NodeId,
    },
    /// The port index is out of range for this topology.
    InvalidPort {
        /// The node the port was addressed on.
        node: NodeId,
        /// The offending port.
        port: PortId,
    },
    /// The port is a terminal (network-interface) port — NIs cannot fail or
    /// be repaired; only inter-router wires can.
    TerminalPort {
        /// The node owning the port.
        node: NodeId,
        /// The terminal port.
        port: PortId,
    },
    /// The wire is already failed (double [`NetworkSim::fail_link`]).
    LinkAlreadyFailed {
        /// The node owning the port.
        node: NodeId,
        /// The port whose wire is already down.
        port: PortId,
    },
    /// The wire is operational ([`NetworkSim::repair_link`] of a live link).
    LinkNotFailed {
        /// The node owning the port.
        node: NodeId,
        /// The port whose wire is up.
        port: PortId,
    },
    /// The node is already failed (double [`NetworkSim::fail_node`]).
    NodeAlreadyFailed {
        /// The node that is already down.
        node: NodeId,
    },
    /// The node is operational ([`NetworkSim::repair_node`] of a live node).
    NodeNotFailed {
        /// The node that is up.
        node: NodeId,
    },
    /// The connection id is not live in this network.
    UnknownConnection(NetConnectionId),
    /// [`NetworkSim::send_packet`] with a stream flit kind — VCT packets are
    /// control or best-effort only.
    NotAPacketKind(FlitKind),
    /// The node has no terminal (network-interface) port, so it cannot
    /// source or sink end-to-end traffic.
    NoTerminalPort {
        /// The node lacking an NI.
        node: NodeId,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownNode { node } => write!(f, "node {node} does not exist"),
            NetError::InvalidPort { node, port } => {
                write!(f, "port {port} does not exist on node {node}")
            }
            NetError::TerminalPort { node, port } => {
                write!(f, "{node}.{port} is a terminal port; only inter-router wires can fail")
            }
            NetError::LinkAlreadyFailed { node, port } => {
                write!(f, "the wire at {node}.{port} is already failed")
            }
            NetError::LinkNotFailed { node, port } => {
                write!(f, "the wire at {node}.{port} is operational; nothing to repair")
            }
            NetError::NodeAlreadyFailed { node } => {
                write!(f, "node {node} is already failed")
            }
            NetError::NodeNotFailed { node } => {
                write!(f, "node {node} is operational; nothing to repair")
            }
            NetError::UnknownConnection(id) => write!(f, "connection {id} is not live"),
            NetError::NotAPacketKind(kind) => {
                write!(f, "{kind:?} flits are not VCT packets (control/best-effort only)")
            }
            NetError::NoTerminalPort { node } => {
                write!(f, "node {node} has no terminal port; it cannot source or sink traffic")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// A network-wide connection identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetConnectionId(pub u32);

impl std::fmt::Display for NetConnectionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// A network-wide packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// Handle for an in-flight asynchronous connection setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeToken(pub u64);

/// Completion of an asynchronous setup (see
/// [`NetworkSim::request_connection`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetupEvent {
    /// The probe that finished.
    pub token: ProbeToken,
    /// The established connection, or why setup failed.
    pub result: Result<NetConnectionId, SetupError>,
    /// Cycles from the request to this event (probe travel + ack return).
    pub latency: Cycles,
    /// Probe hops consumed (forward + backtrack moves).
    pub probe_hops: u32,
}

/// One hop of an established connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// The router this hop crosses.
    pub node: NodeId,
    /// The router-local connection.
    pub local: ConnectionId,
}

/// An established end-to-end connection.
#[derive(Debug, Clone)]
pub struct NetConnection {
    /// Network-wide id.
    pub id: NetConnectionId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Service class.
    pub class: QosClass,
    /// Per-router hops, source first.
    pub hops: Vec<Hop>,
    /// Flits delivered at the destination NI.
    pub delivered: u64,
    /// Next expected sequence number (in-order check).
    pub next_seq: u64,
}

/// A flit that exited at its destination network interface this cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveredFlit {
    /// The owning end-to-end connection.
    pub conn: NetConnectionId,
    /// The flit, with its original sequence number and injection time.
    pub flit: Flit,
    /// End-to-end latency in flit cycles.
    pub latency: Cycles,
    /// Whether the flit arrived in sequence order.
    pub in_order: bool,
}

/// A VCT packet that reached its destination this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredPacket {
    /// The packet.
    pub packet: PacketId,
    /// Destination node.
    pub at: NodeId,
    /// Hops traversed.
    pub hops: u32,
    /// End-to-end latency in flit cycles.
    pub latency: Cycles,
}

/// The result of one network flit cycle.
#[derive(Debug, Clone, Default)]
pub struct NetStepReport {
    /// Stream flits delivered at their destination NIs.
    pub delivered: Vec<DeliveredFlit>,
    /// VCT packets delivered at their destination nodes.
    pub packets: Vec<DeliveredPacket>,
    /// Asynchronous setups that completed this cycle.
    pub setups: Vec<SetupEvent>,
    /// Flits transmitted by any router this cycle.
    pub flits_switched: usize,
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// End-to-end stream-flit latency (flit cycles).
    pub latency: Accumulator,
    /// End-to-end packet latency (flit cycles).
    pub packet_latency: Accumulator,
    /// Stream flits delivered.
    pub flits_delivered: u64,
    /// Packets delivered.
    pub packets_delivered: u64,
    /// Out-of-order stream deliveries (must stay zero).
    pub out_of_order: u64,
    /// Stream flits and packets destroyed by link failures (flits on the
    /// failed wire plus flits still buffered inside routers on paths torn
    /// down by the fault), plus flits still queued on a path closed by a
    /// voluntary [`NetworkSim::teardown`] (session departure, preemption).
    pub flits_lost: u64,
    /// Inter-router wires failed so far ([`NetworkSim::fail_link`]).
    pub links_failed: u64,
    /// Failed wires spliced back so far ([`NetworkSim::repair_link`]).
    pub links_repaired: u64,
    /// Whole routers failed so far ([`NetworkSim::fail_node`]).
    pub nodes_failed: u64,
    /// Failed routers brought back so far ([`NetworkSim::repair_node`]).
    pub nodes_repaired: u64,
    /// Setup attempts that resolved [`SetupError::Unreachable`]: the
    /// destination is in a different partition of the surviving topology.
    /// The typed partition signal — callers park the session until the
    /// topology changes instead of retrying into the same wall.
    pub partitioned_sessions: u64,
    /// Stream flits damaged on a wire by a transient fault (payload bit
    /// flip; the CRC no longer matches).
    pub flits_corrupted: u64,
    /// Stream flits dropped on a wire by a transient fault.
    pub flits_dropped: u64,
    /// Flits retransmitted by the link-level retry layer (go-back-N rewinds
    /// and timeout replays). Zero when LLR is off.
    pub flits_retransmitted: u64,
    /// Corrupted flits that reached their destination NI with a bad CRC —
    /// the silent-corruption count. Zero when LLR is on (every damaged flit
    /// is caught and replayed at the link); nonzero under corruption
    /// campaigns when LLR is off.
    pub undetected_corruptions: u64,
    /// Release or routing operations that named state no longer present (a
    /// hop torn down twice, a probe reservation that vanished, a packet
    /// offered to an invalid port). Previously hot-path panics; now counted
    /// and skipped, leaving the invariant auditor to flag real damage.
    pub ghost_releases: u64,
}

/// What a transient wire fault does to the one flit it strikes (see
/// [`NetworkSim::arm_transient`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientKind {
    /// Flip a payload bit; the flit keeps moving with a stale CRC.
    Corrupt,
    /// The flit vanishes on the wire.
    Drop,
}

/// A flit crossing one wire, as the link-level retry layer sees it: the
/// [`Flit`] plus the wire-local metadata that must survive a replay.
#[derive(Debug, Clone)]
struct WireFrame {
    /// Target VC on the receiving port.
    vc: VcIndex,
    /// The end-to-end connection the flit belonged to when it was queued —
    /// replayed frames whose connection has since been torn down are
    /// discarded at delivery rather than injected into a reused VC.
    net_conn: Option<NetConnectionId>,
    flit: Flit,
}

impl LlrFrame for WireFrame {
    fn link_seq(&self) -> u32 {
        self.flit.link_seq
    }

    fn stamp(&mut self, seq: u32) {
        self.flit.link_seq = seq;
    }

    fn intact(&self) -> bool {
        self.flit.crc_ok()
    }
}

/// Both protocol ends of one directed wire (keyed by receiver endpoint).
#[derive(Debug)]
struct LlrLink {
    sender: LlrSender<WireFrame>,
    receiver: LlrReceiver,
}

impl LlrLink {
    fn new(cfg: LlrConfig) -> Self {
        LlrLink { sender: LlrSender::new(cfg), receiver: LlrReceiver::new() }
    }

    /// Frames handed to the sender that the receiver has not delivered:
    /// backlog plus unacknowledged replay entries at or past the receiver's
    /// expected sequence number. Replay entries below it are already
    /// buffered downstream.
    fn undelivered(&self) -> impl Iterator<Item = &WireFrame> {
        let expected = self.receiver.expected();
        let unacked = self
            .sender
            .iter_unacked()
            .filter(move |f| f.flit.link_seq.wrapping_sub(expected) < 1 << 31);
        self.sender.iter_backlog().chain(unacked)
    }
}

/// Link-level retransmission state for the whole network: one protocol pair
/// per directed wire (created lazily), plus the reverse-channel signal
/// queue.
#[derive(Debug)]
struct LlrState {
    cfg: LlrConfig,
    /// Directed links keyed by their *receiving* endpoint.
    links: BTreeMap<(NodeId, PortId), LlrLink>,
    /// In-flight ack/nack feedback: `(deliver_at, receiver key, signal)`.
    signals: Vec<(Cycles, (NodeId, PortId), LlrSignal)>,
}

/// Frames still owed to downstream input VCs, indexed once per audited
/// cycle so the credit-conservation pass does one lookup per hop. Both
/// lists hold one sorted key per owed frame; their capacity persists across
/// cycles.
#[derive(Debug, Default)]
struct PendingIndex {
    /// Retry-layer frames the receiver has not delivered
    /// ([`LlrLink::undelivered`]), keyed by receiving endpoint and
    /// connection.
    llr: Vec<((NodeId, PortId), NetConnectionId)>,
    /// Flits on a wire, keyed by receiving endpoint and VC.
    wire: Vec<(NodeId, PortId, VcIndex)>,
}

impl PendingIndex {
    /// Re-indexes the retry layer's buffers and the wires.
    fn rebuild(&mut self, llr: Option<&LlrState>, in_flight: &[InFlightFlit]) {
        self.llr.clear();
        self.wire.clear();
        for (&key, link) in llr.iter().flat_map(|l| l.links.iter()) {
            for conn in link.undelivered().filter_map(|f| f.net_conn) {
                // mmr-lint: allow(A-PUSH, reason="amortized: the index keeps its capacity across cycles")
                self.llr.push((key, conn));
            }
        }
        for f in in_flight {
            // mmr-lint: allow(A-PUSH, reason="amortized: the index keeps its capacity across cycles")
            self.wire.push((f.to, f.port, f.vc));
        }
        self.llr.sort_unstable();
        self.wire.sort_unstable();
    }

    /// Frames owed to input VC `vc` of `(node, port)` on behalf of `conn`.
    fn owed(&self, node: NodeId, port: PortId, vc: VcIndex, conn: NetConnectionId) -> usize {
        count_sorted(&self.llr, &((node, port), conn)) + count_sorted(&self.wire, &(node, port, vc))
    }
}

/// Occurrences of `key` in the sorted slice `v`.
fn count_sorted<T: Ord>(v: &[T], key: &T) -> usize {
    let start = v.partition_point(|x| x < key);
    v.get(start..).map_or(0, |rest| rest.partition_point(|x| x == key))
}

#[derive(Debug, Clone)]
struct InFlightFlit {
    deliver_at: Cycles,
    to: NodeId,
    port: PortId,
    vc: VcIndex,
    /// The end-to-end connection at transmit time (stale-delivery guard).
    net_conn: Option<NetConnectionId>,
    flit: Flit,
}

#[derive(Debug, Clone)]
struct PacketState {
    dst: NodeId,
    kind: FlitKind,
    hops: u32,
    injected_at: Cycles,
    /// Per-packet routing state (up*/down* phase, butterfly walk segment,
    /// Valiant intermediate — whatever the active algorithm carries).
    ctx: RouteCtx,
}

#[derive(Debug)]
enum ProbePhase {
    /// The probe is still searching/reserving, one move per cycle.
    Searching(ProbeMachine),
    /// The path is fully reserved; the acknowledgment is returning to the
    /// source along the reverse channel mappings, one link per cycle.
    Acking {
        machine: ProbeMachine,
        remaining: usize,
    },
}

#[derive(Debug)]
struct ActiveProbe {
    token: ProbeToken,
    phase: ProbePhase,
    started_at: Cycles,
}

#[derive(Debug, Clone)]
struct PacketArrival {
    deliver_at: Cycles,
    node: NodeId,
    entry: PortId,
    packet: PacketId,
}

/// How a [`NetworkSim`]'s invariant auditor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// No auditor.
    Off,
    /// Violations accumulate ([`NetworkSim::enable_audit`]).
    Record,
    /// The first violation panics (the `MMR_AUDIT=1` environment switch).
    Enforce,
}

impl AuditMode {
    /// `"off"`, `"record"` or `"enforce"`.
    pub fn label(self) -> &'static str {
        match self {
            AuditMode::Off => "off",
            AuditMode::Record => "record",
            AuditMode::Enforce => "enforce",
        }
    }
}

/// The multi-router simulator.
#[derive(Debug)]
pub struct NetworkSim {
    topology: Topology,
    /// The surviving graph after failures (routing decisions use this).
    live_topology: Topology,
    routing: Routing,
    /// The configured routing description; faults fall back to up*/down*
    /// over the survivor graph, full repair restores this.
    routing_spec: RoutingSpec,
    routers: Vec<Router>,
    conns: BTreeMap<NetConnectionId, NetConnection>,
    /// (node, local connection) → network connection, for delivery lookup.
    local_index: BTreeMap<(NodeId, ConnectionId), NetConnectionId>,
    /// (node, local connection) → in-transit packet.
    packet_index: BTreeMap<(NodeId, ConnectionId), PacketId>,
    packets: BTreeMap<PacketId, PacketState>,
    in_flight: Vec<InFlightFlit>,
    arrivals: Vec<PacketArrival>,
    /// Packets blocked at a node awaiting a free VC, retried each cycle.
    blocked_packets: Vec<(NodeId, PortId, PacketId)>,
    pending_packet_deliveries: Vec<DeliveredPacket>,
    active_probes: Vec<ActiveProbe>,
    /// Ports whose attached wire has failed (both endpoints are listed).
    failed_ports: std::collections::BTreeSet<(NodeId, PortId)>,
    /// Nodes whose whole router has failed (quarantined). Kept separate
    /// from `failed_ports` so link faults on a dead node's wires compose
    /// independently; a wire is operational only if neither its endpoints
    /// nor their owning nodes are failed.
    failed_nodes: std::collections::BTreeSet<NodeId>,
    /// Monotonic counter bumped by every topology change (link or node,
    /// fail or repair). Recovery parks partitioned sessions against the
    /// epoch they were rejected in and re-probes only when it moves.
    topology_epoch: u64,
    /// Probes aborted by a node failure, reported as
    /// [`SetupError::Aborted`] completions by the next
    /// [`NetworkSim::step`]: `(token, started_at, probe_hops)`.
    aborted_setups: Vec<(ProbeToken, Cycles, u32)>,
    next_conn: u32,
    next_packet: u64,
    next_probe: u64,
    pub(crate) rng: SeededRng,
    stats: NetStats,
    /// Link-level retransmission, when enabled ([`NetworkSim::enable_llr`]).
    llr: Option<LlrState>,
    /// Armed transient wire faults, keyed by receiving endpoint; each entry
    /// strikes one arriving flit, in arming order.
    armed_transients: BTreeMap<(NodeId, PortId), VecDeque<TransientKind>>,
    /// The invariant auditor, when enabled ([`NetworkSim::enable_audit`] or
    /// the `MMR_AUDIT=1` environment switch).
    auditor: Option<Auditor>,
    /// Escalate any violation to a panic (set by `MMR_AUDIT=1`; cleared by
    /// an explicit [`NetworkSim::enable_audit`], which records instead).
    audit_enforce: bool,
    /// The event-driven engine's wake mask: bit *n* set means router *n*
    /// must be examined on the next [`NetworkSim::step`]. A clear bit is a
    /// proof obligation — the router is quiescent and nothing has touched
    /// it since it went to sleep — maintained by routing every router
    /// mutation through a waking accessor (see [`NetworkSim::wake`]).
    awake: StatusBits,
    /// Scratch for draining the wake mask (capacity persists across cycles).
    awake_scratch: Vec<usize>,
    /// First cycle not yet settled into router *n*'s cycle counter; the
    /// cycles a sleeping router is skipped over are accounted lazily when
    /// it next wakes ([`Router::note_idle_cycles`]).
    idle_from: Vec<u64>,
    /// Step every router every cycle, ignoring the wake mask — the dense
    /// reference engine for differential testing
    /// ([`NetworkSim::set_dense_stepping`]).
    dense_stepping: bool,
    /// Reusable router step report (capacity persists across cycles).
    step_scratch: StepReport,
    /// Scratch for the wire-delivery pass (capacity persists across cycles).
    in_flight_scratch: Vec<InFlightFlit>,
    /// Scratch for the packet-arrival pass (capacity persists across cycles).
    arrivals_scratch: Vec<PacketArrival>,
    /// Scratch for the blocked-packet retry pass (capacity persists).
    blocked_scratch: Vec<(NodeId, PortId, PacketId)>,
    /// The audit pass's index of owed frames (capacity persists).
    pending: PendingIndex,
}

impl NetworkSim {
    /// Builds a network of routers over `topology`. The router configuration
    /// is applied per node with credit tracking forced on (links are real
    /// here) and per-node seeds derived from the configuration seed.
    ///
    /// # Panics
    ///
    /// Panics if the topology needs more ports than the configuration has.
    pub fn new(topology: Topology, router_cfg: RouterConfig) -> Self {
        Self::with_routing(topology, router_cfg, RoutingSpec::up_down())
    }

    /// Builds the network with an explicit routing description. Structured
    /// specs (dimension-order, dragonfly, butterfly) carry no per-network
    /// tables, which is what lets thousand-router fabrics fit in memory;
    /// `RoutingSpec::up_down()` reproduces [`NetworkSim::new`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if the topology needs more ports than the configuration has
    /// or does not match the declared routing shape.
    pub fn with_routing(
        topology: Topology,
        router_cfg: RouterConfig,
        spec: RoutingSpec,
    ) -> Self {
        let audit_env =
            std::env::var("MMR_AUDIT").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
        let mut seed_rng = SeededRng::new(0x4E45_5457 ^ 0x1999);
        let routers: Vec<Router> = (0..topology.nodes())
            .map(|n| {
                router_cfg
                    .clone()
                    .ports(topology.ports_per_node())
                    .track_output_credits(true)
                    .seed(seed_rng.next_u64() ^ n as u64)
                    .build()
            })
            .collect();
        let routing = Routing::build(spec, &topology);
        let nodes = routers.len();
        NetworkSim {
            routing,
            routing_spec: spec,
            live_topology: topology.clone(),
            routers,
            conns: BTreeMap::new(),
            local_index: BTreeMap::new(),
            packet_index: BTreeMap::new(),
            packets: BTreeMap::new(),
            in_flight: Vec::new(),
            arrivals: Vec::new(),
            blocked_packets: Vec::new(),
            pending_packet_deliveries: Vec::new(),
            active_probes: Vec::new(),
            failed_ports: std::collections::BTreeSet::new(),
            failed_nodes: std::collections::BTreeSet::new(),
            topology_epoch: 0,
            aborted_setups: Vec::new(),
            next_conn: 0,
            next_packet: 0,
            next_probe: 0,
            rng: SeededRng::new(0x4E45_5457),
            topology,
            stats: NetStats::default(),
            llr: None,
            armed_transients: BTreeMap::new(),
            // MMR_AUDIT=1 turns every simulation self-checking: the auditor
            // runs in enforce mode and panics on the first broken invariant
            // (the CI tier-1 suite runs once this way).
            auditor: audit_env.then(Auditor::default),
            audit_enforce: audit_env,
            // Every router starts awake; each goes to sleep the first time
            // it is examined and found quiescent.
            awake: StatusBits::ones(nodes),
            awake_scratch: Vec::with_capacity(nodes),
            idle_from: vec![0; nodes],
            dense_stepping: false,
            step_scratch: StepReport::default(),
            in_flight_scratch: Vec::new(),
            arrivals_scratch: Vec::new(),
            blocked_scratch: Vec::new(),
            pending: PendingIndex::default(),
        }
    }

    /// Selects the stepping engine: `true` forces the dense reference
    /// engine (every router stepped every cycle), `false` — the default —
    /// uses the event-driven wake set. Both engines produce byte-identical
    /// results; the dense engine exists as the oracle for differential
    /// tests (DESIGN.md §9). Switching wakes every router so no pending
    /// idle bookkeeping is stranded.
    pub fn set_dense_stepping(&mut self, dense: bool) {
        self.dense_stepping = dense;
        self.awake.set_all();
    }

    /// Marks a router for examination on the next step. Every mutation of
    /// router state outside the step loop itself must pass through here (or
    /// through [`NetworkSim::router_mut`], which calls it): the event-driven
    /// engine's correctness rests on "bit clear ⇒ untouched since proven
    /// quiescent". Waking a router that stays quiescent is harmless — it
    /// costs one examination that puts it straight back to sleep.
    #[inline]
    fn wake(&mut self, node: NodeId) {
        self.awake.set(node.index(), true);
    }

    /// Turns on link-level retransmission for every wire: per-flit CRC
    /// checking at the receiver, per-link sequence numbers, and a bounded
    /// go-back-N replay buffer per directed link. Fault-free traffic is
    /// byte-identical with LLR on or off (the wire still carries at most
    /// one flit per cycle per link, delivered on the same cycle); the layer
    /// earns its keep under transient faults (see
    /// [`NetworkSim::arm_transient`]).
    pub fn enable_llr(&mut self, cfg: LlrConfig) {
        self.llr =
            Some(LlrState { cfg, links: BTreeMap::new(), signals: Vec::new() });
    }

    /// Whether link-level retransmission is on.
    pub fn llr_enabled(&self) -> bool {
        self.llr.is_some()
    }

    /// Turns on the cycle-accurate invariant auditor in *record* mode:
    /// violations accumulate in [`NetworkSim::auditor`] instead of
    /// panicking. (The `MMR_AUDIT=1` environment switch enables *enforce*
    /// mode instead, which panics on the first violation; an explicit call
    /// here overrides it.)
    pub fn enable_audit(&mut self, cfg: AuditConfig) {
        self.auditor = Some(Auditor::new(cfg));
        self.audit_enforce = false;
    }

    /// The invariant auditor, when enabled.
    pub fn auditor(&self) -> Option<&Auditor> {
        self.auditor.as_ref()
    }

    /// Whether the auditor is off, recording, or enforcing.
    pub fn audit_mode(&self) -> AuditMode {
        match (&self.auditor, self.audit_enforce) {
            (None, _) => AuditMode::Off,
            (Some(_), false) => AuditMode::Record,
            (Some(_), true) => AuditMode::Enforce,
        }
    }

    /// Arms a transient wire fault: the next stream flit delivered into
    /// `(node, port)` is corrupted or dropped. Multiple armed transients on
    /// the same endpoint strike successive flits in arming order; an armed
    /// transient persists until a flit consumes it. VCT packets and probes
    /// are not affected (transients model data-plane wire noise).
    ///
    /// # Errors
    ///
    /// [`NetError::TerminalPort`] for NI ports and
    /// [`NetError::UnknownNode`]/[`NetError::InvalidPort`] for out-of-range
    /// addresses.
    pub fn arm_transient(
        &mut self,
        node: NodeId,
        port: PortId,
        kind: TransientKind,
    ) -> Result<(), NetError> {
        self.wire_endpoint(node, port)?;
        self.armed_transients.entry((node, port)).or_default().push_back(kind);
        Ok(())
    }

    /// Test-only fault hook: toggles the [`Router::return_credit`]
    /// saturation clamp on every router in the network. Disabling the clamp
    /// resurrects the historical phantom-capacity bug (a late credit return
    /// onto a re-leased VC minted buffer capacity the downstream router
    /// does not have) so the conformance harness can prove its oracle
    /// catches the bug class. Production code never calls this.
    #[doc(hidden)]
    pub fn set_credit_clamp(&mut self, clamp: bool) {
        for r in &mut self.routers {
            r.set_credit_clamp(clamp);
        }
        self.awake.set_all();
    }

    /// Test-only fault hook: delivers one *stale* credit return for hop
    /// `hop` of connection `id`, as if a duplicated credit signal crossed
    /// the reverse channel. With the production clamp in place the spurious
    /// credit saturates harmlessly at the buffer depth; with the clamp
    /// disabled ([`NetworkSim::set_credit_clamp`]) it mints phantom
    /// capacity, and the upstream router over-runs the downstream buffer.
    /// Returns `false` when the connection or hop does not exist.
    #[doc(hidden)]
    pub fn inject_stale_credit(&mut self, id: NetConnectionId, hop: usize) -> bool {
        let Some(conn) = self.conns.get(&id) else { return false };
        let Some(h) = conn.hops.get(hop) else { return false };
        let node = h.node;
        let local = h.local;
        let Some(state) = self.routers[node.index()].connection(local) else { return false };
        let output_vc = state.output_vc;
        self.routers[node.index()].return_credit(output_vc);
        self.wake(node);
        true
    }

    /// The physical topology (as built, including failed wires).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The operational topology (failed wires removed); routing decisions
    /// use this view.
    pub fn live_topology(&self) -> &Topology {
        &self.live_topology
    }

    /// The active routing engine (the configured algorithm, or the
    /// up*/down* fault fallback while parts of the fabric are down).
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// The routing description the network was built with.
    pub fn routing_spec(&self) -> RoutingSpec {
        self.routing_spec
    }

    /// A node's router (read access for assertions and stats).
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.index()]
    }

    pub(crate) fn router_mut(&mut self, node: NodeId) -> &mut Router {
        // Mutable access may change anything, so the router must be
        // re-examined — this is the single wake choke point for all of the
        // probe/setup machinery.
        self.wake(node);
        &mut self.routers[node.index()]
    }

    /// Number of live end-to-end connections.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Estimated heap bytes of the fabric's steady-state structures: every
    /// router's [`Router::heap_bytes`] plus the routing engine's tables.
    /// `scalebench` divides this by the router count for its
    /// bytes-per-router figure, so the number reflects what actually grows
    /// with fabric size (lazy VC banks, status vectors, routing state) and
    /// not transient traffic.
    pub fn memory_footprint(&self) -> usize {
        let routers: usize = self.routers.iter().map(Router::heap_bytes).sum();
        routers + self.routing.heap_bytes()
    }

    /// A connection's state.
    pub fn connection(&self, id: NetConnectionId) -> Option<&NetConnection> {
        self.conns.get(&id)
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Records a release that named state no longer present (see
    /// [`NetStats::ghost_releases`]); used by the probe machinery.
    pub(crate) fn note_ghost_release(&mut self) {
        self.stats.ghost_releases += 1;
    }

    pub(crate) fn register_connection(&mut self, mut conn: NetConnection) -> NetConnectionId {
        let id = NetConnectionId(self.next_conn);
        self.next_conn += 1;
        conn.id = id;
        for hop in &conn.hops {
            // mmr-lint: allow(A-TRANS, reason="per-connection-setup bookkeeping (control plane), not the per-flit data path")
            self.local_index.insert((hop.node, hop.local), id);
        }
        self.conns.insert(id, conn); // mmr-lint: allow(A-TRANS, reason="per-connection-setup bookkeeping (control plane), not the per-flit data path")
        id
    }

    /// Tears down an end-to-end connection, releasing every hop. Flits
    /// still queued on the path are dropped with the connection and counted
    /// into [`NetStats::flits_lost`], so the conservation identity
    /// `injected = delivered + lost` survives session churn and preemption.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownConnection`] if the id is not live.
    pub fn teardown(&mut self, id: NetConnectionId) -> Result<(), NetError> {
        let dropped = self.teardown_counting(id)?;
        self.stats.flits_lost += dropped;
        Ok(())
    }

    /// [`NetworkSim::teardown`] returning the number of flits still queued
    /// inside routers on the path (dropped with the connection).
    fn teardown_counting(&mut self, id: NetConnectionId) -> Result<u64, NetError> {
        let conn = self.conns.remove(&id).ok_or(NetError::UnknownConnection(id))?;
        let mut dropped = 0u64;
        for hop in &conn.hops {
            self.local_index.remove(&(hop.node, hop.local));
            self.awake.set(hop.node.index(), true);
            match self.routers[hop.node.index()].teardown(hop.local) {
                Ok(n) => dropped += n as u64,
                // A hop released twice (e.g. the router side already torn
                // down by a fault) is counted, not fatal.
                Err(_) => self.stats.ghost_releases += 1,
            }
        }
        // The stream ends here by design; the auditor must not flag the cut.
        if let Some(aud) = self.auditor.as_mut() {
            aud.stream_closed(u64::from(id.0));
        }
        Ok(dropped)
    }

    /// Injects the next flit of `conn` at its source NI.
    ///
    /// # Errors
    ///
    /// [`InjectError`] on backpressure (source buffer full) or unknown ids.
    pub fn inject(&mut self, id: NetConnectionId, now: Cycles) -> Result<(), InjectError> {
        let conn = self
            .conns
            .get(&id)
            .ok_or(InjectError::UnknownConnection(ConnectionId(id.0)))?;
        // A registered connection always holds at least one hop; an empty
        // path would make the id as unusable as an unknown one.
        let first = conn
            .hops
            .first()
            .ok_or(InjectError::UnknownConnection(ConnectionId(id.0)))?;
        let (node, local) = (first.node, first.local);
        self.awake.set(node.index(), true);
        self.routers[node.index()].inject(local, now)
    }

    /// Whether the source NI can inject another flit this cycle.
    pub fn can_inject(&self, id: NetConnectionId) -> bool {
        self.conns
            .get(&id)
            .and_then(|c| c.hops.first())
            .is_some_and(|first| self.routers[first.node.index()].can_inject(first.local))
    }

    /// Whether the wire attached to `(node, port)` is operational.
    pub fn link_ok(&self, node: NodeId, port: PortId) -> bool {
        !self.failed_ports.contains(&(node, port))
    }

    /// Guaranteed-bandwidth load factors over the operational inter-router
    /// wires, reduced to `(peak, mean)`. Each wire direction contributes
    /// its output [`LinkBandwidthBook`](mmr_core::bandwidth::LinkBandwidthBook)
    /// occupancy; `(0.0, 0.0)` when no wire is up. This is the congestion
    /// signal the admission controller throttles and sheds on.
    pub fn link_load(&self) -> (f64, f64) {
        let mut peak = 0.0f64;
        let mut sum = 0.0f64;
        let mut n = 0u32;
        for w in self.live_topology.wires() {
            for (node, port) in [w.a, w.b] {
                let load = self.routers[node.index()].bandwidth_book(port).load_factor();
                peak = peak.max(load);
                sum += load;
                n += 1;
            }
        }
        if n == 0 {
            (0.0, 0.0)
        } else {
            (peak, sum / f64::from(n))
        }
    }

    /// The flit rate of one physical link. Also the injection ceiling of a
    /// node's NI input port: the crossbar matches each input port to at
    /// most one output per flit cycle, so a node whose *own* sessions
    /// reserve more aggregate egress than this cannot be served — the one
    /// oversubscription the per-output bandwidth books do not catch, and
    /// the reason the admission controller tracks per-source egress.
    pub fn link_rate(&self) -> Bandwidth {
        self.routers
            .first()
            .map_or(Bandwidth::ZERO, |r| r.config().timing().link_rate())
    }

    /// Validates that `(node, port)` addresses an inter-router wire and
    /// returns its far endpoint.
    fn wire_endpoint(&self, node: NodeId, port: PortId) -> Result<(NodeId, PortId), NetError> {
        if node.index() >= self.topology.nodes() {
            return Err(NetError::UnknownNode { node });
        }
        if port.index() >= usize::from(self.topology.ports_per_node()) {
            return Err(NetError::InvalidPort { node, port });
        }
        self.topology.peer_of(node, port).ok_or(NetError::TerminalPort { node, port })
    }

    /// Rebuilds the operational topology and the routing engine from the
    /// physical topology minus the currently failed wires and the wires
    /// attached to failed nodes. Structured algorithms assume the intact
    /// regular fabric, so any failure swaps routing to up*/down* over the
    /// survivor graph; once everything is repaired the configured
    /// algorithm is restored.
    fn rebuild_routing(&mut self) {
        if self.failed_ports.is_empty() && self.failed_nodes.is_empty() {
            self.routing = Routing::build(self.routing_spec, &self.topology);
            self.live_topology = self.topology.clone();
            return;
        }
        let mut survivor = Topology::new(self.topology.nodes(), self.topology.ports_per_node());
        for w in self.topology.wires() {
            let dead = self.failed_ports.contains(&w.a)
                || self.failed_ports.contains(&w.b)
                || self.failed_nodes.contains(&w.a.0)
                || self.failed_nodes.contains(&w.b.0);
            if !dead {
                survivor.connect(w.a, w.b);
            }
        }
        // Root migration: the spanning tree hangs from the lowest-id live
        // node, so the default root (node 0) dying re-roots the orientation
        // deterministically instead of leveling from a dead router.
        let root = (0..self.topology.nodes() as u16)
            .map(NodeId)
            .find(|n| !self.failed_nodes.contains(n))
            .unwrap_or(NodeId(0));
        self.routing =
            Routing::Minimal(MinimalRouting::UpDown(UpDownRouting::with_root(&survivor, root)));
        self.live_topology = survivor;
    }

    /// Fails the wire attached to `(node, port)` — the fault-injection hook
    /// behind the fault campaigns. Both endpoints stop carrying traffic,
    /// flits currently on the wire are lost, routing recomputes around the
    /// break, and every established connection crossing it is torn down.
    ///
    /// Returns the torn-down connections so callers (such as
    /// [`crate::recovery::RecoveryManager`]) can re-establish them — the
    /// recovery pattern of the fault-tolerant protocols the MMR's EPB
    /// descends from.
    ///
    /// # Errors
    ///
    /// [`NetError::TerminalPort`] for NI ports (they cannot fail here),
    /// [`NetError::LinkAlreadyFailed`] for a wire that is already down, and
    /// [`NetError::UnknownNode`]/[`NetError::InvalidPort`] for out-of-range
    /// addresses. The network is unchanged on error.
    pub fn fail_link(
        &mut self,
        node: NodeId,
        port: PortId,
    ) -> Result<Vec<NetConnectionId>, NetError> {
        let (peer, peer_port) = self.wire_endpoint(node, port)?;
        if !self.link_ok(node, port) {
            return Err(NetError::LinkAlreadyFailed { node, port });
        }
        self.failed_ports.insert((node, port));
        self.failed_ports.insert((peer, peer_port));
        self.stats.links_failed += 1;

        // Flits and probe packets on the wire are lost.
        let mut lost = 0u64;

        // The wire's link-level retry state dies with it: frames the
        // receiver never delivered are lost, and a repaired wire starts a
        // fresh protocol instance at sequence 0 on both sides. Armed
        // transients on the wire are discarded too.
        for key in [(node, port), (peer, peer_port)] {
            if let Some(llr) = self.llr.as_mut() {
                if let Some(link) = llr.links.remove(&key) {
                    lost += link.undelivered().count() as u64;
                }
                llr.signals.retain(|(_, k, _)| *k != key);
            }
            self.armed_transients.remove(&key);
        }
        self.in_flight.retain(|f| {
            let dead = (f.to == peer && f.port == peer_port) || (f.to == node && f.port == port);
            if dead {
                lost += 1;
            }
            !dead
        });
        self.arrivals.retain(|a| {
            let dead = (a.node == peer && a.entry == peer_port)
                || (a.node == node && a.entry == port);
            if dead {
                self.packets.remove(&a.packet);
                lost += 1;
            }
            !dead
        });

        // Routing recomputes on the surviving graph.
        self.rebuild_routing();

        // Tear down every connection crossing the failed wire; flits still
        // buffered along those paths are lost with them.
        let broken: Vec<NetConnectionId> = self
            .conns
            .values()
            .filter(|c| {
                c.hops.iter().any(|h| {
                    self.routers[h.node.index()]
                        .connection(h.local)
                        .is_some_and(|state| {
                            (h.node == node && state.output_vc.port == port)
                                || (h.node == peer && state.output_vc.port == peer_port)
                                || (h.node == node && state.input_vc.port == port)
                                || (h.node == peer && state.input_vc.port == peer_port)
                        })
                })
            })
            .map(|c| c.id)
            .collect();
        for id in &broken {
            match self.teardown_counting(*id) {
                Ok(n) => lost += n,
                // The id came from the live table above; a miss here means
                // a duplicate in `broken` — count it rather than panic.
                Err(_) => self.stats.ghost_releases += 1,
            }
        }
        self.stats.flits_lost += lost;
        // Both endpoints must observe the break even if asleep: the fault
        // changed their world (lost frames, dead neighbor) and the wake-set
        // invariant demands re-examination.
        self.wake(node);
        self.wake(peer);
        self.topology_epoch += 1;
        Ok(broken)
    }

    /// Repairs the wire attached to `(node, port)`: both endpoints are
    /// spliced back into the operational topology and the up*/down* routing
    /// relation is recomputed over the restored graph. Connections torn
    /// down by the failure are *not* resurrected — re-establish them (or
    /// let a [`crate::recovery::RecoveryManager`] do it).
    ///
    /// # Errors
    ///
    /// [`NetError::LinkNotFailed`] when the wire is operational,
    /// [`NetError::TerminalPort`] for NI ports, and
    /// [`NetError::UnknownNode`]/[`NetError::InvalidPort`] for out-of-range
    /// addresses. The network is unchanged on error.
    pub fn repair_link(&mut self, node: NodeId, port: PortId) -> Result<(), NetError> {
        let (peer, peer_port) = self.wire_endpoint(node, port)?;
        if self.link_ok(node, port) {
            return Err(NetError::LinkNotFailed { node, port });
        }
        self.failed_ports.remove(&(node, port));
        self.failed_ports.remove(&(peer, peer_port));
        self.stats.links_repaired += 1;
        self.rebuild_routing();
        // Both endpoints may have been asleep; the restored wire is a state
        // change they must observe.
        self.wake(node);
        self.wake(peer);
        self.topology_epoch += 1;
        Ok(())
    }

    /// Whether the router at `node` is operational (not quarantined by
    /// [`NetworkSim::fail_node`]).
    pub fn node_ok(&self, node: NodeId) -> bool {
        !self.failed_nodes.contains(&node)
    }

    /// Monotonic counter bumped by every topology change — link or node,
    /// fail or repair. A session parked on [`SetupError::Unreachable`]
    /// compares epochs to decide when re-probing could possibly succeed.
    pub fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    /// Records a setup attempt that resolved `Unreachable` (see
    /// [`NetStats::partitioned_sessions`]); called from the synchronous
    /// establishment path in `setup.rs`.
    pub(crate) fn note_partition(&mut self) {
        self.stats.partitioned_sessions += 1;
    }

    /// Fails the whole router at `node` — the node-fault hook behind the
    /// fault campaigns. The router is quarantined: every connection
    /// crossing it is torn down (neighbors' VC slots, credits, and
    /// bandwidth reservations released through their live ledgers), its
    /// buffered flits are drained and counted lost, in-flight flits and
    /// VCT packets on its attached wires are lost, the wires' LLR state is
    /// reconciled rather than leaked, active setup probes whose path
    /// touches the router abort (surfacing as [`SetupError::Aborted`]
    /// completions on the next step), and up*/down* routing recomputes over
    /// the surviving topology — migrating the spanning-tree root when the
    /// root died.
    ///
    /// Attached wires are *not* marked link-failed: they come back with the
    /// node on [`NetworkSim::repair_node`], while independently failed
    /// links stay failed.
    ///
    /// Returns the torn-down connections so callers (such as
    /// [`crate::recovery::RecoveryManager`]) can evacuate the sessions.
    ///
    /// # Errors
    ///
    /// [`NetError::NodeAlreadyFailed`] for a node that is already down and
    /// [`NetError::UnknownNode`] for out-of-range addresses. The network is
    /// unchanged on error.
    pub fn fail_node(&mut self, node: NodeId) -> Result<Vec<NetConnectionId>, NetError> {
        if node.index() >= self.topology.nodes() {
            return Err(NetError::UnknownNode { node });
        }
        if self.failed_nodes.contains(&node) {
            return Err(NetError::NodeAlreadyFailed { node });
        }
        self.failed_nodes.insert(node);
        self.stats.nodes_failed += 1;

        let mut lost = 0u64;

        // Abort in-flight setup probes whose stack touches the dying router
        // *before* quarantining it, so their partial reservations release
        // through live ledgers. Completions surface as `Aborted` setup
        // events on the next step.
        let mut probes = std::mem::take(&mut self.active_probes);
        probes.retain_mut(|probe| {
            let machine = match &mut probe.phase {
                ProbePhase::Searching(m) | ProbePhase::Acking { machine: m, .. } => m,
            };
            if machine.visits(node) {
                let hops = machine.probe_hops();
                machine.abort(self);
                self.aborted_setups.push((probe.token, probe.started_at, hops));
                false
            } else {
                true
            }
        });
        self.active_probes = probes;

        // Tear down every connection crossing the router while it is still
        // live, so each hop — on the dying node and its neighbors alike —
        // releases through the normal teardown path with exact accounting.
        let broken: Vec<NetConnectionId> = self
            .conns
            .values()
            .filter(|c| c.hops.iter().any(|h| h.node == node))
            .map(|c| c.id)
            .collect();
        for id in &broken {
            match self.teardown_counting(*id) {
                Ok(n) => lost += n,
                Err(_) => self.stats.ghost_releases += 1,
            }
        }

        // Every attached wire stops carrying traffic: its link-level retry
        // state dies with it (undelivered frames are lost; a repaired node
        // restarts each wire's protocol at sequence 0), armed transients
        // are discarded, and flits or packet arrivals on the wire — in
        // either direction — are lost. The far endpoints wake: a sleeping
        // neighbor must observe its dead peer.
        for (port, peer, peer_port) in self.topology.neighbors(node) {
            for key in [(node, port), (peer, peer_port)] {
                if let Some(llr) = self.llr.as_mut() {
                    if let Some(link) = llr.links.remove(&key) {
                        lost += link.undelivered().count() as u64;
                    }
                    llr.signals.retain(|(_, k, _)| *k != key);
                }
                self.armed_transients.remove(&key);
            }
            self.in_flight.retain(|f| {
                let dead =
                    (f.to == node && f.port == port) || (f.to == peer && f.port == peer_port);
                if dead {
                    lost += 1;
                }
                !dead
            });
            self.arrivals.retain(|a| {
                let dead = (a.node == node && a.entry == port)
                    || (a.node == peer && a.entry == peer_port);
                if dead {
                    self.packets.remove(&a.packet);
                    lost += 1;
                }
                !dead
            });
            self.wake(peer);
        }

        // VCT packets stranded at the dead router: entries buffered in its
        // VCs are drained by the quarantine below (counted there), packets
        // blocked awaiting a VC evaporate with the node.
        let stale: Vec<(NodeId, ConnectionId)> =
            self.packet_index.keys().filter(|(n, _)| *n == node).copied().collect();
        for key in stale {
            if let Some(pid) = self.packet_index.remove(&key) {
                self.packets.remove(&pid);
            }
        }
        self.blocked_packets.retain(|&(n, _, pid)| {
            if n == node {
                self.packets.remove(&pid);
                lost += 1;
                false
            } else {
                true
            }
        });

        // Quarantine last: any connection still registered on the router
        // (none, after the teardowns above) is drained with its flits
        // counted, and establishment is refused until repair.
        lost += self.routers[node.index()].quarantine() as u64;
        self.wake(node);

        self.rebuild_routing();
        self.topology_epoch += 1;
        self.stats.flits_lost += lost;
        Ok(broken)
    }

    /// Repairs the router at `node`: the quarantine lifts, its attached
    /// wires (minus any independently failed links) rejoin the operational
    /// topology, and up*/down* routing recomputes. Connections torn down by
    /// the failure are *not* resurrected — re-establish them (or let a
    /// [`crate::recovery::RecoveryManager`] do it).
    ///
    /// # Errors
    ///
    /// [`NetError::NodeNotFailed`] when the node is operational and
    /// [`NetError::UnknownNode`] for out-of-range addresses. The network is
    /// unchanged on error.
    pub fn repair_node(&mut self, node: NodeId) -> Result<(), NetError> {
        if node.index() >= self.topology.nodes() {
            return Err(NetError::UnknownNode { node });
        }
        if !self.failed_nodes.remove(&node) {
            return Err(NetError::NodeNotFailed { node });
        }
        self.stats.nodes_repaired += 1;
        self.routers[node.index()].lift_quarantine();
        self.rebuild_routing();
        self.topology_epoch += 1;
        // The revived router and its neighbors all gained usable wires.
        self.wake(node);
        for (_, peer, _) in self.topology.neighbors(node) {
            self.wake(peer);
        }
        Ok(())
    }

    /// Starts an *asynchronous* connection setup: the routing probe departs
    /// from `src`'s NI and moves one router per flit cycle (reserving,
    /// backtracking, or failing), and on success the acknowledgment returns
    /// to the source along the reverse channel mappings, one link per cycle
    /// (§4.2). The completion — with its measured setup latency — appears in
    /// a later [`NetStepReport::setups`].
    pub fn request_connection(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: QosClass,
        strategy: SetupStrategy,
        now: Cycles,
    ) -> ProbeToken {
        let token = ProbeToken(self.next_probe);
        self.next_probe += 1;
        let machine = ProbeMachine::new(self, src, dst, class, strategy);
        self.active_probes.push(ActiveProbe {
            token,
            phase: ProbePhase::Searching(machine),
            started_at: now,
        });
        token
    }

    /// Number of setups still in flight.
    pub fn probes_in_flight(&self) -> usize {
        self.active_probes.len()
    }

    fn advance_probes(&mut self, now: Cycles, report: &mut NetStepReport) {
        // Probes torn down by a node failure complete as `Aborted` here,
        // with latency measured like any other completion.
        for (token, started_at, probe_hops) in std::mem::take(&mut self.aborted_setups) {
            // mmr-lint: allow(A-TRANS, reason="per-step report handed to the caller by value; setup completions are control-plane rare")
            report.setups.push(SetupEvent { // mmr-lint: allow(A-TRANS, reason="per-step report handed to the caller by value; setup completions are control-plane rare")
                token,
                result: Err(SetupError::Aborted),
                latency: now.since(started_at),
                probe_hops,
            });
        }
        let mut probes = std::mem::take(&mut self.active_probes);
        let mut still_active = Vec::with_capacity(probes.len()); // mmr-lint: allow(A-TRANS, reason="probe advancement is a control-plane event; the scratch list is per setup round, not per flit")
        for probe in probes.drain(..) {
            // Destructure so each phase owns its machine by value; the
            // probe is rebuilt when it stays active.
            let ActiveProbe { token, phase, started_at } = probe;
            match phase {
                ProbePhase::Searching(mut machine) => match machine.advance(self) {
                    ProbeStep::Advanced | ProbeStep::Backtracked => still_active.push(ActiveProbe { // mmr-lint: allow(A-TRANS, reason="probe bookkeeping is a control-plane (setup) event, not the per-flit data path")
                        token,
                        phase: ProbePhase::Searching(machine),
                        started_at,
                    }),
                    ProbeStep::Reserved => {
                        // The ack crosses every inter-router link on the
                        // reserved path, one per cycle.
                        let remaining = machine.path_len().saturating_sub(1);
                        still_active.push(ActiveProbe { // mmr-lint: allow(A-TRANS, reason="probe bookkeeping is a control-plane (setup) event, not the per-flit data path")
                            token,
                            phase: ProbePhase::Acking { machine, remaining },
                            started_at,
                        });
                    }
                    ProbeStep::Failed(e) => {
                        if e == SetupError::Unreachable {
                            self.stats.partitioned_sessions += 1;
                        }
                        report.setups.push(SetupEvent { // mmr-lint: allow(A-TRANS, reason="per-step report handed to the caller by value; setup completions are control-plane rare")
                            token,
                            result: Err(e),
                            latency: now.since(started_at),
                            probe_hops: machine.probe_hops(),
                        });
                    }
                },
                ProbePhase::Acking { machine, remaining } => {
                    if remaining == 0 {
                        let probe_hops = machine.probe_hops();
                        let result = machine.commit(self).map(|receipt| receipt.conn);
                        report.setups.push(SetupEvent { // mmr-lint: allow(A-TRANS, reason="per-step report handed to the caller by value; setup completions are control-plane rare")
                            token,
                            result,
                            latency: now.since(started_at),
                            probe_hops,
                        });
                    } else {
                        still_active.push(ActiveProbe { // mmr-lint: allow(A-TRANS, reason="probe bookkeeping is a control-plane (setup) event, not the per-flit data path")
                            token,
                            phase: ProbePhase::Acking { machine, remaining: remaining - 1 },
                            started_at,
                        });
                    }
                }
            }
        }
        self.active_probes = still_active;
    }

    /// Sends a single-flit VCT packet from `src` toward `dst`.
    ///
    /// Control packets may cut through idle routers; blocked packets wait at
    /// their current node and are retried every cycle, per §3.4.
    ///
    /// # Errors
    ///
    /// [`NetError::NotAPacketKind`] for stream flit kinds (only control and
    /// best-effort flits travel as VCT packets), [`NetError::UnknownNode`]
    /// for out-of-range endpoints.
    pub fn send_packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: FlitKind,
        now: Cycles,
    ) -> Result<PacketId, NetError> {
        if !matches!(kind, FlitKind::Control | FlitKind::BestEffort) {
            return Err(NetError::NotAPacketKind(kind));
        }
        for node in [src, dst] {
            if node.index() >= self.topology.nodes() {
                return Err(NetError::UnknownNode { node });
            }
        }
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let ctx = self.routing.initial_ctx(src, dst, id.0);
        self.packets.insert(id, PacketState { dst, kind, hops: 0, injected_at: now, ctx });
        let Some(entry) = self.topology.terminal_port(src) else {
            self.packets.remove(&id);
            return Err(NetError::NoTerminalPort { node: src });
        };
        self.offer_packet(src, entry, id, now);
        Ok(id)
    }

    /// Offers a packet to a node; on `Blocked` it queues for retry.
    fn offer_packet(&mut self, node: NodeId, entry: PortId, packet: PacketId, now: Cycles) {
        // A packet that vanished (torn down by a fault mid-retry) has
        // nothing left to offer.
        let Some(state) = self.packets.get(&packet).cloned() else { return };
        // Next output: terminal port when at the destination, else the
        // routing engine's next hop (the packet's routing context — e.g.
        // the up*/down* descent phase — is sticky).
        let (output, next_ctx) = if node == state.dst {
            let Some(ni) = self.topology.terminal_port(node) else {
                // No NI to deliver into: the packet cannot exit; drop it.
                self.packets.remove(&packet);
                self.stats.ghost_releases += 1;
                return;
            };
            (ni, None)
        } else {
            match self.routing.next_hop(&self.live_topology, node, state.dst, state.ctx) {
                Some(hop) => (hop.port, Some(hop.ctx)),
                None => {
                    // Unreachable destination: drop the packet.
                    self.packets.remove(&packet);
                    return;
                }
            }
        };
        self.wake(node);
        match self.routers[node.index()].inject_packet(entry, output, state.kind, now) {
            Ok(PacketOutcome::CutThrough) => {
                if let (Some(c), Some(state)) = (next_ctx, self.packets.get_mut(&packet)) {
                    state.ctx = c;
                }
                // The packet crossed this router within the cycle; it is now
                // on the output wire (or delivered, at the destination).
                self.forward_packet(node, output, packet, now);
            }
            Ok(PacketOutcome::Buffered(local)) => {
                if let (Some(c), Some(state)) = (next_ctx, self.packets.get_mut(&packet)) {
                    state.ctx = c;
                }
                // mmr-lint: allow(A-TRANS, reason="per-packet index entry, bounded by the admission-controlled in-flight packet population")
                self.packet_index.insert((node, local), packet);
            }
            Err(PacketError::Blocked) => {
                self.blocked_packets.push((node, entry, packet)); // mmr-lint: allow(A-TRANS, reason="bounded by the in-flight packet population; the list keeps its capacity across cycles")
            }
            Err(PacketError::InvalidPort { .. }) => {
                // Ports came from the topology/routing tables; a mismatch
                // means those tables and the router disagree. Drop the
                // packet and count it rather than panic mid-campaign.
                self.packets.remove(&packet);
                self.stats.ghost_releases += 1;
            }
        }
    }

    /// Moves a packet from `node`'s `output` port onto the wire (or records
    /// delivery when the output is a terminal).
    fn forward_packet(&mut self, node: NodeId, output: PortId, packet: PacketId, now: Cycles) {
        match self.topology.peer_of(node, output) {
            Some((peer, peer_port)) => {
                if let Some(state) = self.packets.get_mut(&packet) {
                    state.hops += 1;
                }
                // mmr-lint: allow(A-TRANS, reason="amortized: the arrival buffer keeps its capacity across cycles (scratch-swap delivery pass)")
                self.arrivals.push(PacketArrival {
                    deliver_at: now + Cycles(1),
                    node: peer,
                    entry: peer_port,
                    packet,
                });
            }
            None => {
                let Some(state) = self.packets.remove(&packet) else { return };
                debug_assert_eq!(node, state.dst, "packets exit only at their destination");
                let latency = now.since(state.injected_at);
                self.stats.packet_latency.record(latency.as_f64());
                self.stats.packets_delivered += 1;
                self.pending_packet_deliveries.push(DeliveredPacket { // mmr-lint: allow(A-TRANS, reason="per-step delivery report handed to the caller; growth amortizes over the step's own deliveries")
                    packet,
                    at: node,
                    hops: state.hops,
                    latency,
                });
            }
        }
    }

    /// Runs one network flit cycle.
    ///
    /// Routers are stepped through an event-driven wake set rather than a
    /// dense `0..nodes` scan: a router examined and found quiescent (no
    /// buffered flits, no busy outputs, idle crossbar) goes to sleep, and
    /// stays unexamined until some event — an arriving flit, a probe
    /// reservation, a packet offer, a returned credit — wakes it. Skipping
    /// a sleeping router is a provable no-op, so every emitted series is
    /// byte-identical to dense stepping; see DESIGN.md §9 for the wake
    /// rules and the identity argument. [`NetworkSim::set_dense_stepping`]
    /// forces the dense reference engine for differential tests.
    // mmr-lint: hot
    pub fn step(&mut self, now: Cycles) -> NetStepReport {
        let mut report = NetStepReport::default();

        // Deliver link-level ack/nack feedback that finished crossing its
        // reverse channel (generated during last cycle's wire deliveries).
        // Retained in place: the signal queue keeps its capacity across
        // cycles instead of reallocating a fresh buffer every step.
        if let Some(llr) = self.llr.as_mut() {
            let LlrState { links, signals, .. } = llr;
            signals.retain(|&(at, key, sig)| {
                if at > now {
                    return true;
                }
                if let Some(link) = links.get_mut(&key) {
                    link.sender.on_signal(sig, now);
                }
                false
            });
        }

        // Move in-flight setup probes and acknowledgments.
        self.advance_probes(now, &mut report);

        // Retry packets blocked waiting for a free VC, strictly in
        // first-blocked order: offers run oldest-first and a still-blocked
        // packet re-queues before anything that blocks later in the cycle,
        // so VC allocation can never depend on buffer churn (regression:
        // `blocked_packets_retry_in_fifo_order`). The scratch swap keeps
        // both buffers' capacity across cycles.
        let mut blocked = std::mem::take(&mut self.blocked_scratch);
        std::mem::swap(&mut blocked, &mut self.blocked_packets);
        for &(node, entry, packet) in &blocked {
            self.offer_packet(node, entry, packet, now);
        }
        blocked.clear();
        self.blocked_scratch = blocked;

        // Step the routers: dense mode examines all of them, the
        // event-driven engine only the awake set — drained in ascending
        // node order, matching the dense loop's visit order. The drain
        // clears the mask; each router that is actually stepped re-arms its
        // own bit (it may hold work for the next cycle), while one found
        // quiescent stays dark until an external event wakes it.
        if self.dense_stepping {
            self.awake.set_all();
        }
        let mut awake = std::mem::take(&mut self.awake_scratch);
        self.awake.drain_set_into(&mut awake);
        let mut rep = std::mem::take(&mut self.step_scratch);
        for &n in &awake {
            if !self.dense_stepping && self.routers[n].is_quiescent() {
                // Provably a no-op cycle: leave the router asleep, its
                // skipped cycles unsettled until something wakes it.
                continue;
            }
            // Settle the cycles this router slept through since it was
            // last stepped; `step_into` accounts for the current one.
            let owed = now.count().saturating_sub(self.idle_from[n]);
            if owed > 0 {
                self.routers[n].note_idle_cycles(owed);
            }
            self.idle_from[n] = now.count() + 1;
            self.routers[n].step_into(now, &mut rep);
            self.awake.set(n, true);
            let node = NodeId(n as u16);
            report.flits_switched += rep.transmitted.len();
            for &t in &rep.transmitted {
                // Return a credit upstream: this router freed an input slot.
                // The upstream router is woken for form's sake — a credit
                // alone cannot make a quiescent router non-quiescent (it
                // has no flits to spend it on), but the invariant "every
                // router mutation wakes" is cheaper to keep than to argue
                // around.
                if let Some((up, up_port)) = self.topology.peer_of(node, t.input_vc.port) {
                    self.awake.set(up.index(), true);
                    self.routers[up.index()]
                        .return_credit(VcRef { port: up_port, vc: t.input_vc.vc });
                }

                if let Some(packet) = self.packet_index.remove(&(node, t.conn)) {
                    // Packet connections tear down on transmit inside the
                    // router; move the packet along.
                    self.forward_packet(node, t.output_vc.port, packet, now);
                    continue;
                }

                match self.topology.peer_of(node, t.output_vc.port) {
                    Some((peer, peer_port)) => {
                        let net_conn = self.local_index.get(&(node, t.conn)).copied();
                        if let Some(llr) = self.llr.as_mut() {
                            // The retry layer owns the wire: the frame waits
                            // in the sender until pumped (normally the same
                            // cycle) and stays replayable until acked.
                            let cfg = llr.cfg;
                            llr.links
                                .entry((peer, peer_port))
                                .or_insert_with(|| LlrLink::new(cfg))
                                .sender
                                .enqueue(WireFrame {
                                    vc: t.output_vc.vc,
                                    net_conn,
                                    flit: t.flit,
                                });
                        } else {
                            // mmr-lint: allow(A-PUSH, reason="amortized: the wire buffer keeps its capacity across cycles (scratch-swap delivery pass)")
                            self.in_flight.push(InFlightFlit {
                                deliver_at: now + Cycles(1),
                                to: peer,
                                port: peer_port,
                                vc: t.output_vc.vc,
                                net_conn,
                                flit: t.flit,
                            });
                        }
                    }
                    None => {
                        // Terminal port: the NI consumes the flit at once and
                        // returns the credit.
                        self.routers[n].return_credit(t.output_vc);
                        if let Some(&net_id) = self.local_index.get(&(node, t.conn)) {
                            let Some(conn) = self.conns.get_mut(&net_id) else {
                                // Index and table disagree (stale index
                                // entry): count and drop the delivery.
                                self.stats.ghost_releases += 1;
                                continue;
                            };
                            let in_order = t.flit.seq == conn.next_seq;
                            conn.next_seq = t.flit.seq + 1;
                            conn.delivered += 1;
                            let latency = now.since(t.flit.injected_at);
                            self.stats.latency.record(latency.as_f64());
                            self.stats.flits_delivered += 1;
                            if !in_order {
                                self.stats.out_of_order += 1;
                            }
                            // End-to-end integrity: a flit corrupted on some
                            // wire and never caught at a link check exits
                            // here with a stale CRC.
                            if !t.flit.crc_ok() {
                                self.stats.undetected_corruptions += 1;
                            }
                            if let Some(aud) = self.auditor.as_mut() {
                                aud.observe_delivery(u64::from(net_id.0), t.flit.seq);
                            }
                            // mmr-lint: allow(A-PUSH, reason="per-step report handed to the caller by value; growth amortizes over the step's own deliveries")
                            report.delivered.push(DeliveredFlit {
                                conn: net_id,
                                flit: t.flit,
                                latency,
                                in_order,
                            });
                        }
                    }
                }
            }
        }

        awake.clear();
        self.awake_scratch = awake;
        self.step_scratch = rep;

        // Pump each link-level sender: one frame per directed wire per
        // cycle. In the fault-free case the frame enqueued above leaves at
        // once, so baseline timing is identical with or without LLR. This
        // loop stays dense: retransmission timers tick inside the senders
        // whether or not any router has work.
        if let Some(llr) = self.llr.as_mut() {
            for (&(to, port), link) in llr.links.iter_mut() {
                if let Some((frame, is_retx)) = link.sender.pump(now) {
                    if is_retx {
                        self.stats.flits_retransmitted += 1;
                    }
                    // mmr-lint: allow(A-PUSH, reason="amortized: the wire buffer keeps its capacity across cycles (scratch-swap delivery pass)")
                    self.in_flight.push(InFlightFlit {
                        deliver_at: now + Cycles(1),
                        to,
                        port,
                        vc: frame.vc,
                        net_conn: frame.net_conn,
                        flit: frame.flit,
                    });
                }
            }
        }

        // Deliver stream flits that finished crossing a wire. The keepers
        // are rebuilt through a scratch buffer so both Vecs retain their
        // capacity across cycles; the rebuilt order is the encounter order,
        // exactly as before.
        let mut crossing = std::mem::take(&mut self.in_flight_scratch);
        std::mem::swap(&mut crossing, &mut self.in_flight);
        for mut f in crossing.drain(..) {
            if f.deliver_at > now + Cycles(1) {
                // mmr-lint: allow(A-PUSH, reason="amortized: the wire buffer keeps its capacity across cycles (scratch-swap delivery pass)")
                self.in_flight.push(f);
                continue;
            }
            let key = (f.to, f.port);

            // An armed transient fault strikes the next flit crossing this
            // wire endpoint, in arming order.
            if let Some(kind) = self.armed_transients.get_mut(&key).and_then(|q| q.pop_front()) {
                if self.armed_transients.get(&key).is_some_and(|q| q.is_empty()) {
                    self.armed_transients.remove(&key);
                }
                match kind {
                    TransientKind::Drop => {
                        self.stats.flits_dropped += 1;
                        if self.llr.is_none() {
                            // No retry layer: the flit (and its credit)
                            // are gone for good.
                            self.stats.flits_lost += 1;
                        }
                        continue;
                    }
                    TransientKind::Corrupt => {
                        self.stats.flits_corrupted += 1;
                        // Deterministic bit choice: derived from the
                        // corruption count, never from wall clock.
                        let bit = (self.stats.flits_corrupted as u32).wrapping_mul(13) % 64;
                        f.flit.corrupt_payload_bit(bit);
                    }
                }
            }

            // The link-level receiver checks CRC + sequence; only clean,
            // in-order frames pass through. Feedback crosses the reverse
            // channel and reaches the sender next cycle.
            if let Some(llr) = self.llr.as_mut() {
                let cfg = llr.cfg;
                let link = llr.links.entry(key).or_insert_with(|| LlrLink::new(cfg));
                let (outcome, signal) = link.receiver.receive(WireFrame {
                    vc: f.vc,
                    net_conn: f.net_conn,
                    flit: f.flit,
                });
                if let Some(sig) = signal {
                    // mmr-lint: allow(A-PUSH, reason="amortized: the signal queue keeps its capacity across cycles (retain-based drain)")
                    llr.signals.push((f.deliver_at, key, sig));
                }
                match outcome {
                    RxOutcome::Deliver(frame) => {
                        f.vc = frame.vc;
                        f.net_conn = frame.net_conn;
                        f.flit = frame.flit;
                    }
                    RxOutcome::Discard(_) => continue,
                }
            }

            // Stale-delivery guard: a replayed frame can outlive its
            // connection (recovery tears the circuit down while copies sit
            // in the replay buffer). Discard it here rather than injecting
            // it into a VC the slot may since have been re-leased to.
            if let Some(id) = f.net_conn {
                if !self.conns.contains_key(&id) {
                    self.stats.flits_lost += 1;
                    continue;
                }
            }

            let node = f.to;
            let Some(local) =
                self.routers[node.index()].connection_by_input_vc(VcRef { port: f.port, vc: f.vc })
            else {
                // The VC mapping disappeared mid-flight (teardown raced the
                // wire). Under faults this is survivable, not fatal.
                self.stats.flits_lost += 1;
                continue;
            };
            // An arriving flit is the canonical wake event: the router has
            // buffered work for next cycle whether or not accept succeeds.
            self.awake.set(node.index(), true);
            if self.routers[node.index()].accept(local, f.flit, f.deliver_at).is_err() {
                self.stats.flits_lost += 1;
            }
        }
        self.in_flight_scratch = crossing;

        // Deliver packets that finished crossing a wire (same scratch-swap
        // discipline as the stream flits above).
        let mut arriving = std::mem::take(&mut self.arrivals_scratch);
        std::mem::swap(&mut arriving, &mut self.arrivals);
        for a in arriving.drain(..) {
            if a.deliver_at > now + Cycles(1) {
                // mmr-lint: allow(A-PUSH, reason="amortized: the arrival buffer keeps its capacity across cycles (scratch-swap delivery pass)")
                self.arrivals.push(a);
                continue;
            }
            if self.packets.contains_key(&a.packet) {
                self.offer_packet(a.node, a.entry, a.packet, a.deliver_at);
            }
        }
        self.arrivals_scratch = arriving;

        // mmr-lint: allow(A-PUSH, reason="per-step report handed to the caller by value; append drains the pending queue without reallocating it")
        report.packets.append(&mut self.pending_packet_deliveries);

        // Cycle-accurate invariant pass over the settled end-of-cycle state.
        if self.auditor.is_some() {
            self.run_audit(now);
        }
        report
    }

    /// The end-of-cycle invariant pass: per-router structural checks plus
    /// the cross-router credit-conservation equation for every live stream
    /// hop (credits held upstream + flits buffered downstream + frames owed
    /// by the retry layer and the wires must equal the VC depth).
    ///
    /// Cost: O(routers + live connections) for the router checks, plus
    /// O(F log F) to index the F owed frames once and O(log F) per hop.
    // mmr-lint: hot
    fn run_audit(&mut self, now: Cycles) {
        let Some(mut aud) = self.auditor.take() else { return };
        for (n, r) in self.routers.iter().enumerate() {
            aud.check_router(n as u16, r, now);
        }
        self.pending.rebuild(self.llr.as_ref(), &self.in_flight);
        for conn in self.conns.values() {
            for pair in conn.hops.windows(2) {
                let (up, down) = (&pair[0], &pair[1]);
                let (Some(up_router), Some(down_router)) =
                    (self.routers.get(up.node.index()), self.routers.get(down.node.index()))
                else {
                    continue;
                };
                if !up_router.credits_tracked() {
                    continue;
                }
                let (Some(up_state), Some(down_state)) =
                    (up_router.connection(up.local), down_router.connection(down.local))
                else {
                    continue;
                };
                let credits = up_router.output_credit(up_state.output_vc);
                let input = down_state.input_vc;
                let buffered = down_router.vcm(input.port).occupancy(input.vc);
                let in_layer = self.pending.owed(down.node, input.port, input.vc, conn.id);
                let depth = up_router.vc_depth();
                if credits as usize + buffered + in_layer != depth {
                    aud.report(AuditViolation::CreditConservation {
                        router: up.node.0,
                        conn: up.local,
                        credits,
                        buffered,
                        in_flight: in_layer,
                        depth,
                    });
                }
            }
        }
        if self.audit_enforce && !aud.is_clean() {
            // mmr-lint: allow(P-PANIC, reason="MMR_AUDIT=1 opt-in enforcement: aborting the campaign on an invariant breach is the auditor's contract")
            panic!("MMR_AUDIT: invariant violated at cycle {}: {}", now.count(), aud.summary());
        }
        self.auditor = Some(aud);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SetupStrategy;
    use mmr_sim::Bandwidth;

    fn mesh_net() -> NetworkSim {
        let topology = Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget");
        let cfg = RouterConfig::paper_default().vcs_per_port(16).vc_depth(4).candidates(4);
        NetworkSim::new(topology, cfg)
    }

    fn cbr(mbps: f64) -> QosClass {
        QosClass::Cbr { rate: Bandwidth::from_mbps(mbps) }
    }

    #[test]
    fn stream_flows_end_to_end_in_order() {
        let mut net = mesh_net();
        // 620 Mbps reserves half of each link, so one flit per 4 cycles is
        // comfortably inside the per-round quota.
        let id = net
            .establish(NodeId(0), NodeId(8), cbr(620.0), SetupStrategy::Epb)
            .expect("path exists");
        let mut delivered = 0;
        for t in 0..200u64 {
            if t % 4 == 0 && net.can_inject(id) {
                net.inject(id, Cycles(t)).expect("room");
            }
            let rep = net.step(Cycles(t));
            for d in &rep.delivered {
                assert!(d.in_order, "stream stays in order");
                assert_eq!(d.conn, id);
                // 0->8 on a 3x3 mesh crosses 5 routers: latency >= hops.
                assert!(d.latency >= Cycles(4), "latency {:?}", d.latency);
                delivered += 1;
            }
        }
        assert!(delivered >= 40, "sustained delivery: {delivered}");
        assert_eq!(net.stats().out_of_order, 0);
    }

    #[test]
    fn credits_bound_inflight_flits() {
        let mut net = mesh_net();
        let id = net
            .establish(NodeId(0), NodeId(2), cbr(1240.0), SetupStrategy::Epb)
            .expect("path exists");
        // Inject as fast as possible; credits must throttle, never overflow.
        let mut injected = 0u64;
        let mut delivered = 0u64;
        for t in 0..300u64 {
            while net.can_inject(id) && injected < 250 {
                net.inject(id, Cycles(t)).expect("checked");
                injected += 1;
            }
            delivered += net.step(Cycles(t)).delivered.len() as u64;
        }
        // Drain.
        for t in 300..400u64 {
            delivered += net.step(Cycles(t)).delivered.len() as u64;
        }
        assert_eq!(injected, delivered, "conservation across the network");
    }

    #[test]
    fn teardown_releases_every_hop() {
        let mut net = mesh_net();
        let before: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
        let id = net
            .establish(NodeId(0), NodeId(8), cbr(10.0), SetupStrategy::Epb)
            .expect("path exists");
        let during: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
        assert!(during >= before + 5, "a 0->8 path spans at least 5 routers");
        net.teardown(id).expect("live");
        let after: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
        assert_eq!(after, before);
        assert_eq!(net.teardown(id), Err(NetError::UnknownConnection(id)));
    }

    #[test]
    fn voluntary_teardown_counts_queued_flits_as_lost() {
        let mut net = mesh_net();
        let id = net
            .establish(NodeId(0), NodeId(8), cbr(10.0), SetupStrategy::Epb)
            .expect("path exists");
        // Inject without stepping: the flits sit queued at the source NI.
        for _ in 0..3 {
            net.inject(id, Cycles(0)).expect("source buffer has room");
        }
        net.teardown(id).expect("live");
        let stats = net.stats();
        assert_eq!(stats.flits_delivered, 0);
        assert_eq!(stats.flits_lost, 3, "queued flits are accounted, not vanished");
    }

    #[test]
    fn link_load_tracks_reservations() {
        let mut net = mesh_net();
        assert_eq!(net.link_load(), (0.0, 0.0), "idle fabric has zero load");
        let id = net
            .establish(NodeId(0), NodeId(8), cbr(620.0), SetupStrategy::Epb)
            .expect("path exists");
        let (peak, mean) = net.link_load();
        assert!(peak > 0.3, "a half-link-rate stream shows up in the peak: {peak}");
        assert!(mean > 0.0 && mean <= peak, "mean {mean} peak {peak}");
        net.teardown(id).expect("live");
        assert_eq!(net.link_load(), (0.0, 0.0), "teardown releases the books");
    }

    #[test]
    fn packets_reach_their_destination() {
        let mut net = mesh_net();
        let mut got = Vec::new();
        net.send_packet(NodeId(0), NodeId(8), FlitKind::Control, Cycles(0)).expect("valid");
        net.send_packet(NodeId(3), NodeId(5), FlitKind::BestEffort, Cycles(0)).expect("valid");
        for t in 0..100u64 {
            let rep = net.step(Cycles(t));
            got.extend(rep.packets);
        }
        assert_eq!(got.len(), 2, "both packets delivered: {got:?}");
        assert_eq!(net.stats().packets_delivered, 2);
        for p in &got {
            assert!(p.hops >= 1);
        }
    }

    #[test]
    fn control_packets_cut_through_an_idle_network() {
        let mut net = mesh_net();
        net.send_packet(NodeId(0), NodeId(2), FlitKind::Control, Cycles(0)).expect("valid");
        let mut latency = None;
        for t in 0..50u64 {
            if let Some(p) = net.step(Cycles(t)).packets.first() {
                latency = Some(p.latency);
                break;
            }
        }
        let latency = latency.expect("delivered");
        // Two wire hops with cut-through at intermediate routers: a handful
        // of cycles, far below the buffered worst case.
        assert!(latency <= Cycles(6), "cut-through latency {latency}");
        let cut_throughs: u64 = (0..9).map(|n| net.router(NodeId(n)).stats().cut_throughs).sum();
        assert!(cut_throughs >= 1);
    }

    #[test]
    fn many_packets_with_small_vc_pool_eventually_deliver() {
        let topology = Topology::mesh2d(2, 2, 6).expect("topology wires within the port budget");
        let cfg = RouterConfig::paper_default().vcs_per_port(4).candidates(2).vc_depth(2);
        let mut net = NetworkSim::new(topology, cfg);
        for i in 0..20 {
            net.send_packet(NodeId(i % 4), NodeId((i + 1) % 4), FlitKind::BestEffort, Cycles(0))
                .expect("valid");
        }
        for t in 0..500u64 {
            net.step(Cycles(t));
        }
        assert_eq!(net.stats().packets_delivered, 20, "blocked packets retry until done");
    }

    /// Guards the retry-order invariant documented in [`NetworkSim::step`]:
    /// blocked packets win freed VCs strictly in first-blocked order, and a
    /// still-blocked packet re-queues ahead of anything that blocks later
    /// in the same cycle.
    #[test]
    fn blocked_packets_retry_in_fifo_order() {
        // Tiny VC pool so a same-cycle burst down one path saturates it and
        // the tail lands in the blocked queue.
        let topology = Topology::mesh2d(2, 2, 6).expect("topology wires within the port budget");
        let cfg = RouterConfig::paper_default().vcs_per_port(2).candidates(2).vc_depth(2);
        let mut net = NetworkSim::new(topology, cfg);
        let ids: Vec<PacketId> = (0..12)
            .map(|_| {
                net.send_packet(NodeId(0), NodeId(1), FlitKind::BestEffort, Cycles(0))
                    .expect("valid")
            })
            .collect();
        // Whatever failed to win a VC at injection queued in send order, and
        // it is exactly the latest sends (the head of the burst got the VCs).
        let blocked: Vec<PacketId> = net.blocked_packets.iter().map(|&(_, _, p)| p).collect();
        assert!(!blocked.is_empty(), "burst saturates the VC pool");
        assert!(ids.ends_with(&blocked), "blocked tail {blocked:?} in send order of {ids:?}");

        let mut prev = blocked;
        for t in 0..500u64 {
            net.step(Cycles(t));
            let cur: Vec<PacketId> = net.blocked_packets.iter().map(|&(_, _, p)| p).collect();
            // Survivors are the packets blocked both before and after the
            // cycle. FIFO retries mean (a) whatever left the queue was its
            // oldest entries — survivors are a suffix of the old queue —
            // and (b) survivors re-queued before anything newly blocked
            // this cycle — they are a prefix of the new queue.
            let survivors: Vec<PacketId> =
                cur.iter().copied().filter(|p| prev.contains(p)).collect();
            assert!(
                prev.ends_with(&survivors),
                "cycle {t}: retries must drain oldest-first; {prev:?} -> {cur:?}"
            );
            assert!(
                cur.starts_with(&survivors),
                "cycle {t}: still-blocked packets re-queue first; {prev:?} -> {cur:?}"
            );
            prev = cur;
            if net.stats().packets_delivered == ids.len() as u64 {
                break;
            }
        }
        assert_eq!(net.stats().packets_delivered, 12, "all packets deliver via FIFO retries");
    }
}

#[cfg(test)]
mod fault_plane_tests {
    use super::*;
    use crate::setup::SetupStrategy;
    use mmr_core::{AuditConfig, LlrConfig};
    use mmr_sim::Bandwidth;

    fn mesh_net() -> NetworkSim {
        let topology = Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget");
        let cfg = RouterConfig::paper_default().vcs_per_port(16).vc_depth(4).candidates(4);
        NetworkSim::new(topology, cfg)
    }

    fn cbr(mbps: f64) -> QosClass {
        QosClass::Cbr { rate: Bandwidth::from_mbps(mbps) }
    }

    /// The receiving wire endpoint of the connection's `hop`-th router
    /// (hop 0 is the source, so pass 1+ to land on an inter-router wire).
    fn wire_endpoint(net: &NetworkSim, id: NetConnectionId, hop: usize) -> (NodeId, PortId) {
        let conn = net.connection(id).expect("live connection");
        let h = &conn.hops[hop];
        let state = net.router(h.node).connection(h.local).expect("hop is mapped");
        (h.node, state.input_vc.port)
    }

    /// Drives `net` for `cycles`, injecting one flit every 4 cycles on `id`;
    /// returns (injected, delivered, out-of-order observed).
    fn drive(net: &mut NetworkSim, id: NetConnectionId, cycles: u64) -> (u64, u64) {
        let mut injected = 0;
        let mut delivered = 0;
        for t in 0..cycles {
            if t % 4 == 0 && net.can_inject(id) {
                net.inject(id, Cycles(t)).expect("room");
                injected += 1;
            }
            delivered += net.step(Cycles(t)).delivered.len() as u64;
        }
        (injected, delivered)
    }

    #[test]
    fn llr_leaves_fault_free_timing_untouched() {
        let run = |llr: bool| {
            let mut net = mesh_net();
            if llr {
                net.enable_llr(LlrConfig::default());
            }
            let id = net
                .establish(NodeId(0), NodeId(8), cbr(620.0), SetupStrategy::Epb)
                .expect("path exists");
            let mut log = Vec::new();
            for t in 0..300u64 {
                if t % 4 == 0 && net.can_inject(id) {
                    net.inject(id, Cycles(t)).expect("room");
                }
                for d in net.step(Cycles(t)).delivered {
                    log.push((d.flit.seq, d.latency));
                }
            }
            log
        };
        assert_eq!(run(false), run(true), "LLR is timing-transparent without faults");
    }

    #[test]
    fn unprotected_corruption_reaches_the_destination() {
        let mut net = mesh_net();
        let id = net
            .establish(NodeId(0), NodeId(2), cbr(620.0), SetupStrategy::Epb)
            .expect("path exists");
        let (node, port) = wire_endpoint(&net, id, 1);
        for _ in 0..3 {
            net.arm_transient(node, port, TransientKind::Corrupt).expect("wire endpoint");
        }
        let (injected, delivered) = drive(&mut net, id, 200);
        assert_eq!(injected, delivered, "corrupt flits still arrive, just damaged");
        assert_eq!(net.stats().flits_corrupted, 3);
        assert_eq!(net.stats().undetected_corruptions, 3, "no LLR: silent corruption");
    }

    #[test]
    fn llr_catches_and_replays_corrupted_flits() {
        let mut net = mesh_net();
        net.enable_llr(LlrConfig::default());
        let id = net
            .establish(NodeId(0), NodeId(2), cbr(620.0), SetupStrategy::Epb)
            .expect("path exists");
        let (node, port) = wire_endpoint(&net, id, 1);
        for _ in 0..3 {
            net.arm_transient(node, port, TransientKind::Corrupt).expect("wire endpoint");
        }
        let (injected, delivered) = drive(&mut net, id, 240);
        assert_eq!(injected, delivered, "every flit eventually delivered");
        assert_eq!(net.stats().undetected_corruptions, 0, "link CRC caught every hit");
        assert_eq!(net.stats().out_of_order, 0, "go-back-N preserves order");
        assert!(net.stats().flits_retransmitted >= 3, "each hit forced a replay");
    }

    #[test]
    fn llr_recovers_dropped_flits() {
        let mut net = mesh_net();
        net.enable_llr(LlrConfig::default());
        let id = net
            .establish(NodeId(0), NodeId(2), cbr(620.0), SetupStrategy::Epb)
            .expect("path exists");
        let (node, port) = wire_endpoint(&net, id, 1);
        for _ in 0..4 {
            net.arm_transient(node, port, TransientKind::Drop).expect("wire endpoint");
        }
        let (injected, delivered) = drive(&mut net, id, 300);
        assert_eq!(injected, delivered, "drops are replayed, nothing lost");
        assert_eq!(net.stats().flits_dropped, 4);
        assert_eq!(net.stats().flits_lost, 0);
        assert_eq!(net.stats().out_of_order, 0);
    }

    #[test]
    fn auditor_stays_clean_on_a_healthy_run() {
        let mut net = mesh_net();
        net.enable_audit(AuditConfig::default());
        let id = net
            .establish(NodeId(0), NodeId(8), cbr(620.0), SetupStrategy::Epb)
            .expect("path exists");
        drive(&mut net, id, 300);
        let aud = net.auditor().expect("enabled");
        assert!(aud.checks() > 0, "the auditor actually ran");
        assert!(aud.is_clean(), "healthy run: {}", aud.summary());
    }

    #[test]
    fn auditor_flags_the_credit_leak_of_an_unprotected_drop() {
        let mut net = mesh_net();
        net.enable_audit(AuditConfig::default());
        let id = net
            .establish(NodeId(0), NodeId(2), cbr(620.0), SetupStrategy::Epb)
            .expect("path exists");
        let (node, port) = wire_endpoint(&net, id, 1);
        net.arm_transient(node, port, TransientKind::Drop).expect("wire endpoint");
        drive(&mut net, id, 200);
        let aud = net.auditor().expect("enabled");
        assert!(!aud.is_clean(), "a dropped flit without LLR leaks a credit forever");
        assert!(
            aud.violations()
                .iter()
                .any(|v| matches!(v, AuditViolation::CreditConservation { .. })),
            "the leak shows up as a conservation break: {}",
            aud.summary()
        );
    }

    #[test]
    fn llr_keeps_the_conservation_audit_clean_under_faults() {
        let mut net = mesh_net();
        net.enable_llr(LlrConfig::default());
        net.enable_audit(AuditConfig::default());
        let id = net
            .establish(NodeId(0), NodeId(2), cbr(620.0), SetupStrategy::Epb)
            .expect("path exists");
        let (node, port) = wire_endpoint(&net, id, 1);
        net.arm_transient(node, port, TransientKind::Drop).expect("wire endpoint");
        net.arm_transient(node, port, TransientKind::Corrupt).expect("wire endpoint");
        drive(&mut net, id, 300);
        let aud = net.auditor().expect("enabled");
        assert!(aud.is_clean(), "the retry layer conserves credits: {}", aud.summary());
        assert_eq!(net.stats().undetected_corruptions, 0);
    }

    /// Brute-force recount of the frames owed to input VC `vc` of
    /// `(node, port)` for `conn`: scans the link's retry buffers and every
    /// wire (the reference for [`PendingIndex::owed`]).
    fn owed_recount(
        net: &NetworkSim,
        node: NodeId,
        port: PortId,
        vc: VcIndex,
        conn: NetConnectionId,
    ) -> usize {
        let in_llr = net.llr.as_ref().and_then(|l| l.links.get(&(node, port))).map_or(0, |link| {
            let expected = link.receiver.expected();
            let backlog = link.sender.iter_backlog().filter(|f| f.net_conn == Some(conn)).count();
            let unacked = link
                .sender
                .iter_unacked()
                .filter(|f| {
                    f.net_conn == Some(conn) && f.flit.link_seq.wrapping_sub(expected) < 1 << 31
                })
                .count();
            backlog + unacked
        });
        let on_wire =
            net.in_flight.iter().filter(|f| f.to == node && f.port == port && f.vc == vc).count();
        in_llr + on_wire
    }

    #[test]
    fn pending_index_matches_a_brute_force_recount_under_replays() {
        let mut net = mesh_net();
        net.enable_llr(LlrConfig::default());
        net.enable_audit(AuditConfig::default());
        let ids = [
            net.establish(NodeId(0), NodeId(2), cbr(620.0), SetupStrategy::Epb).expect("path"),
            net.establish(NodeId(0), NodeId(8), cbr(310.0), SetupStrategy::Epb).expect("path"),
        ];
        for (hop, kinds) in [
            (1, [TransientKind::Drop, TransientKind::Corrupt, TransientKind::Drop]),
            (2, [TransientKind::Corrupt, TransientKind::Drop, TransientKind::Corrupt]),
        ] {
            for id in ids {
                let (node, port) = wire_endpoint(&net, id, hop);
                for kind in kinds {
                    net.arm_transient(node, port, kind).expect("wire endpoint");
                }
            }
        }
        let (mut replay_cycles, mut owed_seen) = (0, 0);
        for t in 0..400u64 {
            for id in ids {
                if net.can_inject(id) {
                    net.inject(id, Cycles(t)).expect("room");
                }
            }
            net.step(Cycles(t));
            let llr = net.llr.as_ref().expect("enabled");
            if llr.links.values().all(|l| l.sender.iter_unacked().next().is_none()) {
                continue;
            }
            replay_cycles += 1;
            for conn in net.conns.values() {
                for down in conn.hops.iter().skip(1) {
                    let state = net.router(down.node).connection(down.local).expect("mapped");
                    let input = state.input_vc;
                    let indexed = net.pending.owed(down.node, input.port, input.vc, conn.id);
                    let recount = owed_recount(&net, down.node, input.port, input.vc, conn.id);
                    assert_eq!(indexed, recount, "cycle {t}, {:?} hop at {:?}", conn.id, down.node);
                    owed_seen += indexed;
                }
            }
        }
        assert!(replay_cycles > 100, "replay frames were outstanding ({replay_cycles} cycles)");
        assert!(owed_seen > 0, "the retry layer owed frames at some audit");
        assert!(net.stats().flits_retransmitted > 0, "the transients forced replays");
        assert!(net.auditor().expect("enabled").is_clean());
    }

    #[test]
    fn transients_on_a_terminal_port_are_rejected() {
        let mut net = mesh_net();
        let terminal = net.topology().terminal_port(NodeId(0)).expect("terminal exists");
        assert!(net.arm_transient(NodeId(0), terminal, TransientKind::Drop).is_err());
    }
}

#[cfg(test)]
mod async_setup_tests {
    use super::*;
    use crate::setup::cbr_mbps;
    use mmr_core::router::RouterConfig;

    fn mesh_net() -> NetworkSim {
        NetworkSim::new(
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(16).candidates(4),
        )
    }

    #[test]
    fn async_setup_takes_probe_plus_ack_cycles() {
        let mut net = mesh_net();
        let token =
            net.request_connection(NodeId(0), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb, Cycles(0));
        assert_eq!(net.probes_in_flight(), 1);
        let mut event = None;
        for t in 0..40u64 {
            if let Some(e) = net.step(Cycles(t)).setups.first().copied() {
                event = Some(e);
                break;
            }
        }
        let event = event.expect("setup completes");
        assert_eq!(event.token, token);
        let conn = event.result.expect("resources abundant");
        // Probe: 4 forward moves; ack: 4 links back => ~9 cycles.
        assert!(
            event.latency >= Cycles(8) && event.latency <= Cycles(12),
            "round-trip latency {:?}",
            event.latency
        );
        assert_eq!(event.probe_hops, 4);
        assert_eq!(net.probes_in_flight(), 0);
        // The established connection carries traffic end to end.
        net.inject(conn, Cycles(50)).expect("live");
        let mut delivered = 0;
        for t in 50..80u64 {
            delivered += net.step(Cycles(t)).delivered.len();
        }
        assert_eq!(delivered, 1);
    }

    #[test]
    fn async_setup_failure_is_reported_with_latency() {
        let mut net = mesh_net();
        // Saturate node 0's network-interface link so the probe must fail.
        net.establish(NodeId(0), NodeId(1), cbr_mbps(620.0), SetupStrategy::Epb).expect("block");
        net.establish(NodeId(0), NodeId(3), cbr_mbps(620.0), SetupStrategy::Epb).expect("block");
        net.request_connection(NodeId(0), NodeId(8), cbr_mbps(620.0), SetupStrategy::Epb, Cycles(0));
        let mut result = None;
        for t in 0..100u64 {
            if let Some(e) = net.step(Cycles(t)).setups.first().copied() {
                result = Some(e.result);
                break;
            }
        }
        assert!(matches!(result, Some(Err(SetupError::Exhausted { .. }))), "{result:?}");
        // No reservations leaked.
        let total: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
        assert_eq!(total, 4, "only the two blocking connections' hops remain");
    }

    #[test]
    fn concurrent_probes_compete_for_resources() {
        let mut net = NetworkSim::new(
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(4).candidates(2),
        );
        // Launch many probes at once; they race for VCs.
        let n_probes = 12;
        for i in 0..n_probes {
            let src = NodeId(i % 9);
            let dst = NodeId((i + 4) % 9);
            net.request_connection(src, dst, cbr_mbps(124.0), SetupStrategy::Epb, Cycles(0));
        }
        let mut ok = 0;
        let mut failed = 0;
        for t in 0..300u64 {
            for e in net.step(Cycles(t)).setups {
                match e.result {
                    Ok(_) => ok += 1,
                    Err(_) => failed += 1,
                }
            }
        }
        assert_eq!(ok + failed, u32::from(n_probes), "every probe resolves");
        assert!(ok >= 6, "most setups succeed: {ok}");
    }

    #[test]
    fn async_and_atomic_setups_reserve_identically() {
        // The same request through both APIs yields the same path length.
        let mut a = mesh_net();
        let mut b = mesh_net();
        let atomic = a
            .establish(NodeId(0), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("ok");
        let token =
            b.request_connection(NodeId(0), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb, Cycles(0));
        let mut got = None;
        for t in 0..50u64 {
            if let Some(e) = b.step(Cycles(t)).setups.first().copied() {
                assert_eq!(e.token, token);
                got = Some(e.result.expect("ok"));
                break;
            }
        }
        let async_conn = got.expect("completes");
        assert_eq!(
            a.connection(atomic).expect("live").hops.len(),
            b.connection(async_conn).expect("live").hops.len()
        );
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::setup::cbr_mbps;
    use crate::setup::SetupStrategy;
    use mmr_core::router::RouterConfig;

    fn mesh_net() -> NetworkSim {
        NetworkSim::new(
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(16).candidates(4),
        )
    }

    /// The wired port from `a` toward `b`, if adjacent.
    fn port_toward(net: &NetworkSim, a: NodeId, b: NodeId) -> PortId {
        net.topology()
            .neighbors(a)
            .into_iter()
            .find(|&(_, peer, _)| peer == b)
            .map(|(port, _, _)| port)
            .expect("adjacent")
    }

    #[test]
    fn failing_a_link_tears_down_crossing_connections() {
        let mut net = mesh_net();
        let through = net
            .establish(NodeId(0), NodeId(2), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("path exists");
        let elsewhere = net
            .establish(NodeId(6), NodeId(8), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("path exists");
        // A 0->2 path on the top row crosses 0-1 and 1-2; fail whichever
        // wire the connection actually took.
        let conn = net.connection(through).expect("live").clone();
        let first_hop = &conn.hops[0];
        let out_port = net
            .router(first_hop.node)
            .connection(first_hop.local)
            .expect("live")
            .output_vc
            .port;
        let broken = net.fail_link(first_hop.node, out_port).expect("inter-router wire");
        assert_eq!(broken, vec![through], "only the crossing connection breaks");
        assert!(net.connection(through).is_none());
        assert!(net.connection(elsewhere).is_some(), "unrelated connection survives");
        // No local reservations leaked.
        let total: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
        assert_eq!(total, net.connection(elsewhere).expect("live").hops.len());
    }

    #[test]
    fn epb_reroutes_around_a_failed_link() {
        let mut net = mesh_net();
        // Fail the 0-1 wire; 0 -> 2 must go around (0-3-4-1-2 or similar).
        let p = port_toward(&net, NodeId(0), NodeId(1));
        net.fail_link(NodeId(0), p).expect("inter-router wire");
        let conn = net
            .establish(NodeId(0), NodeId(2), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("alternative path exists");
        let hops = net.connection(conn).expect("live").hops.len();
        assert!(hops >= 3, "0->2 is no longer two hops: {hops} routers");
        // Traffic still flows end to end.
        net.inject(conn, Cycles(0)).expect("live");
        let mut delivered = 0;
        for t in 0..40u64 {
            delivered += net.step(Cycles(t)).delivered.len();
        }
        assert_eq!(delivered, 1);
    }

    #[test]
    fn packets_route_around_failures() {
        let mut net = mesh_net();
        let p = port_toward(&net, NodeId(0), NodeId(1));
        net.fail_link(NodeId(0), p).expect("inter-router wire");
        net.send_packet(NodeId(0), NodeId(2), FlitKind::BestEffort, Cycles(0)).expect("valid");
        let mut delivered = 0;
        for t in 0..100u64 {
            delivered += net.step(Cycles(t)).packets.len();
        }
        assert_eq!(delivered, 1, "packet detours around the break");
    }

    #[test]
    fn disconnection_is_reported_as_unreachable() {
        // Ring of 4: failing two opposite wires splits the ring.
        let mut net = NetworkSim::new(
            Topology::ring(4, 4).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(8).candidates(2),
        );
        let p01 = port_toward(&net, NodeId(0), NodeId(1));
        let p23 = port_toward(&net, NodeId(2), NodeId(3));
        net.fail_link(NodeId(0), p01).expect("inter-router wire");
        net.fail_link(NodeId(2), p23).expect("inter-router wire");
        let err = net
            .establish(NodeId(0), NodeId(2), cbr_mbps(1.0), SetupStrategy::Epb)
            .expect_err("0 and 2 are in different fragments");
        assert_eq!(err, crate::setup::SetupError::Unreachable);
    }

    #[test]
    fn recovery_reestablishes_broken_streams() {
        let mut net = mesh_net();
        let conn = net
            .establish(NodeId(0), NodeId(8), cbr_mbps(124.0), SetupStrategy::Epb)
            .expect("path exists");
        // Find and fail a wire the stream crosses.
        let hops = net.connection(conn).expect("live").hops.clone();
        let mid = &hops[1];
        let out = net.router(mid.node).connection(mid.local).expect("live").output_vc.port;
        let broken = net.fail_link(mid.node, out).expect("inter-router wire");
        assert_eq!(broken, vec![conn]);
        // The fault-tolerant recovery pattern: re-establish with EPB.
        let recovered = net
            .establish(NodeId(0), NodeId(8), cbr_mbps(124.0), SetupStrategy::Epb)
            .expect("a 3x3 mesh survives one link failure");
        net.inject(recovered, Cycles(0)).expect("live");
        let mut delivered = 0;
        for t in 0..60u64 {
            delivered += net.step(Cycles(t)).delivered.len();
        }
        assert_eq!(delivered, 1);
    }
}

#[cfg(test)]
mod node_fault_tests {
    use super::*;
    use crate::setup::{cbr_mbps, SetupError};
    use mmr_core::router::RouterConfig;

    fn mesh_net() -> NetworkSim {
        NetworkSim::new(
            Topology::mesh2d(3, 3, 8).expect("topology wires within the port budget"),
            RouterConfig::paper_default().vcs_per_port(16).candidates(4),
        )
    }

    #[test]
    fn failing_a_node_tears_down_crossing_connections_and_quarantines() {
        let mut net = mesh_net();
        // 3 -> 5 on the middle row is forced through the centre router.
        let through = net
            .establish(NodeId(3), NodeId(5), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("path exists");
        let elsewhere = net
            .establish(NodeId(0), NodeId(2), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("path exists");
        let broken = net.fail_node(NodeId(4)).expect("operational");
        assert_eq!(broken, vec![through], "only the crossing connection breaks");
        assert!(!net.node_ok(NodeId(4)));
        assert!(net.router(NodeId(4)).is_quarantined());
        assert!(net.connection(elsewhere).is_some(), "top-row connection survives");
        assert_eq!(net.stats().nodes_failed, 1);
        assert_eq!(
            net.fail_node(NodeId(4)),
            Err(NetError::NodeAlreadyFailed { node: NodeId(4) }),
            "double fail is a typed error"
        );
        // Re-establishment detours around the dead router.
        let detour = net
            .establish(NodeId(3), NodeId(5), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("the mesh minus its centre is still connected");
        let hops = net.connection(detour).expect("live").hops.clone();
        assert!(hops.len() >= 5, "3->5 without node 4 takes the long way: {hops:?}");
        assert!(hops.iter().all(|h| h.node != NodeId(4)), "never through the corpse");
        net.inject(detour, Cycles(0)).expect("live");
        let mut delivered = 0;
        for t in 0..60u64 {
            delivered += net.step(Cycles(t)).delivered.len();
        }
        assert_eq!(delivered, 1);
        // The dead router itself is a typed partition, not a retry loop.
        let err = net
            .establish(NodeId(0), NodeId(4), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect_err("a failed node terminates no sessions");
        assert_eq!(err, SetupError::Unreachable);
        assert_eq!(net.stats().partitioned_sessions, 1);
        // No reservations leaked anywhere, the dead router included.
        let expected = net.connection(elsewhere).expect("live").hops.len()
            + net.connection(detour).expect("live").hops.len();
        let total: usize = (0..9).map(|n| net.router(NodeId(n)).connections()).sum();
        assert_eq!(total, expected);
        assert_eq!(net.router(NodeId(4)).connections(), 0);
    }

    #[test]
    fn repair_restores_the_node_and_its_reachability() {
        let mut net = mesh_net();
        assert_eq!(
            net.repair_node(NodeId(4)),
            Err(NetError::NodeNotFailed { node: NodeId(4) }),
            "repairing a healthy node is a typed error"
        );
        net.fail_node(NodeId(4)).expect("operational");
        let epoch_failed = net.topology_epoch();
        net.repair_node(NodeId(4)).expect("was failed");
        assert!(net.node_ok(NodeId(4)));
        assert!(!net.router(NodeId(4)).is_quarantined());
        assert!(net.topology_epoch() > epoch_failed, "repair moves the epoch");
        assert_eq!(net.stats().nodes_repaired, 1);
        // Direct middle-row routing is back.
        let conn = net
            .establish(NodeId(3), NodeId(5), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("path exists again");
        assert_eq!(net.connection(conn).expect("live").hops.len(), 3, "3-4-5 direct");
        net.inject(conn, Cycles(0)).expect("live");
        let mut delivered = 0;
        for t in 0..40u64 {
            delivered += net.step(Cycles(t)).delivered.len();
        }
        assert_eq!(delivered, 1);
    }

    #[test]
    fn routing_root_migrates_off_a_dead_root_and_returns_on_repair() {
        let mut net = mesh_net();
        assert_eq!(net.routing().root(), NodeId(0), "root starts at the lowest id");
        net.fail_node(NodeId(0)).expect("operational");
        assert_eq!(net.routing().root(), NodeId(1), "lowest surviving id takes over");
        // The re-rooted up*/down* graph still routes between survivors.
        let conn = net
            .establish(NodeId(6), NodeId(2), cbr_mbps(10.0), SetupStrategy::Epb)
            .expect("survivors stay connected");
        net.inject(conn, Cycles(0)).expect("live");
        let mut delivered = 0;
        for t in 0..60u64 {
            delivered += net.step(Cycles(t)).delivered.len();
        }
        assert_eq!(delivered, 1);
        net.repair_node(NodeId(0)).expect("was failed");
        assert_eq!(net.routing().root(), NodeId(0), "repair restores the canonical root");
    }

    #[test]
    fn node_fail_repair_cycle_conserves_flits_and_stays_audit_clean() {
        let mut net = mesh_net();
        net.enable_audit(AuditConfig::default());
        let mid = net
            .establish(NodeId(3), NodeId(5), cbr_mbps(310.0), SetupStrategy::Epb)
            .expect("path exists");
        let cross = net
            .establish(NodeId(0), NodeId(8), cbr_mbps(310.0), SetupStrategy::Epb)
            .expect("path exists");
        let mut injected = 0u64;
        for t in 0..120u64 {
            for id in [mid, cross] {
                if t % 4 == 0 && net.connection(id).is_some() && net.can_inject(id) {
                    net.inject(id, Cycles(t)).expect("checked");
                    injected += 1;
                }
            }
            if t == 60 {
                // The centre dies mid-stream: buffered and in-flight flits
                // around it are destroyed, with exact accounting.
                let broken = net.fail_node(NodeId(4)).expect("operational");
                assert!(broken.contains(&mid), "3->5 crossed the centre");
            }
            if t == 90 {
                net.repair_node(NodeId(4)).expect("was failed");
            }
            net.step(Cycles(t));
        }
        // Re-establish over the healed topology and drain everything.
        let again = net
            .establish(NodeId(3), NodeId(5), cbr_mbps(310.0), SetupStrategy::Epb)
            .expect("healed");
        for t in 120..240u64 {
            if t % 4 == 0 && net.can_inject(again) {
                net.inject(again, Cycles(t)).expect("checked");
                injected += 1;
            }
            net.step(Cycles(t));
        }
        for t in 240..400u64 {
            net.step(Cycles(t));
        }
        let stats = net.stats().clone();
        assert_eq!(
            stats.flits_delivered + stats.flits_lost,
            injected,
            "every flit is delivered or accounted lost across the fail/repair cycle"
        );
        assert_eq!(stats.ghost_releases, 0, "no release named missing state");
        let aud = net.auditor().expect("enabled");
        assert!(aud.checks() > 0, "the auditor actually ran");
        assert!(aud.is_clean(), "zero conservation violations: {}", aud.summary());
    }

    #[test]
    fn sleeping_neighbors_observe_node_faults_identically_across_engines() {
        // Same scenario on both stepping engines: traffic pinned to the
        // bottom row lets the top rows go quiescent; the node fault then
        // strikes next to sleeping routers, which must wake and detour the
        // follow-up packets identically.
        let run = |dense: bool| -> (Vec<String>, String) {
            let mut net = mesh_net();
            net.set_dense_stepping(dense);
            let stream = net
                .establish(NodeId(6), NodeId(8), cbr_mbps(310.0), SetupStrategy::Epb)
                .expect("path exists");
            let mut frames = Vec::new();
            for t in 0..240u64 {
                if t < 60 && t % 4 == 0 && net.can_inject(stream) {
                    net.inject(stream, Cycles(t)).expect("checked");
                }
                if t == 100 {
                    // Routers 0, 1, 2 have been idle for 40+ cycles.
                    net.fail_node(NodeId(1)).expect("operational");
                    net.send_packet(NodeId(0), NodeId(2), FlitKind::BestEffort, Cycles(t))
                        .expect("valid");
                }
                if t == 170 {
                    net.repair_node(NodeId(1)).expect("was failed");
                    net.send_packet(NodeId(0), NodeId(2), FlitKind::BestEffort, Cycles(t))
                        .expect("valid");
                }
                frames.push(format!("{:?}", net.step(Cycles(t))));
            }
            assert_eq!(net.stats().packets_delivered, 2, "both probes detoured/arrived");
            (frames, format!("{:?}", net.stats()))
        };
        let (event_frames, event_stats) = run(false);
        let (dense_frames, dense_stats) = run(true);
        for (t, (e, d)) in event_frames.iter().zip(&dense_frames).enumerate() {
            assert_eq!(e, d, "engines diverge at cycle {t}");
        }
        assert_eq!(event_stats, dense_stats, "identical aggregate statistics");
    }
}
