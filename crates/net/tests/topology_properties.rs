//! Property wall for the HPC-scale topology builders: seeded parameter
//! sweeps of dragonfly, butterfly, and hypercube fabrics check closed-form
//! node/link counts, degree bounds, wire symmetry, connectivity, and that
//! the BFS diameter never exceeds the builder's documented bound. The
//! duplicate-link rejection satellite is covered at the bottom.

use mmr_net::{Butterfly, Dragonfly, Hypercube, NodeId, Topology, TopologyError};
use mmr_sim::SeededRng;
use proptest::prelude::*;

/// BFS eccentricity of `from` (max hop distance to any reachable node).
fn eccentricity(t: &Topology, from: NodeId) -> usize {
    let mut dist = vec![usize::MAX; t.nodes()];
    if let Some(d) = dist.get_mut(from.index()) {
        *d = 0;
    }
    let mut queue = std::collections::VecDeque::from([from]);
    let mut max = 0;
    while let Some(n) = queue.pop_front() {
        let base = dist.get(n.index()).copied().unwrap_or(usize::MAX);
        for (_, peer, _) in t.neighbors_iter(n) {
            if dist.get(peer.index()).copied() == Some(usize::MAX) {
                if let Some(d) = dist.get_mut(peer.index()) {
                    *d = base + 1;
                    max = max.max(base + 1);
                }
                queue.push_back(peer);
            }
        }
    }
    max
}

/// Checks the invariants every structured fabric shares: expected counts,
/// full symmetry of the wire list, a terminal port on every router,
/// connectivity, and the closed-form diameter bound.
fn check_fabric(t: &Topology, nodes: usize, links: usize, diameter_bound: usize) {
    assert_eq!(t.nodes(), nodes, "node count");
    assert_eq!(t.wires().len(), links, "link count");
    assert!(t.is_connected(), "fabric is connected");
    for w in t.wires() {
        let (na, pa) = w.a;
        let (nb, pb) = w.b;
        // Every wire is visible from both endpoints on the same ports.
        assert!(
            t.neighbors_iter(na).any(|(p, peer, pp)| p == pa && peer == nb && pp == pb),
            "wire {na}:{pa} -> {nb}:{pb} missing from a-side adjacency"
        );
        assert!(
            t.neighbors_iter(nb).any(|(p, peer, pp)| p == pb && peer == na && pp == pa),
            "wire {nb}:{pb} -> {na}:{pa} missing from b-side adjacency"
        );
    }
    for n in 0..nodes {
        let node = NodeId(n as u16);
        assert!(t.terminal_port(node).is_some(), "router {n} keeps a terminal port");
        assert!(
            t.degree(node) < usize::from(t.ports_per_node()),
            "router {n} degree leaves room for its terminal"
        );
    }
    // Exact diameter from a BFS at every node — the sweeps keep fabrics
    // small enough for the quadratic scan.
    let diameter =
        (0..nodes).map(|n| eccentricity(t, NodeId(n as u16))).max().unwrap_or(0);
    assert!(
        diameter <= diameter_bound,
        "BFS diameter {diameter} exceeds closed-form bound {diameter_bound}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Balanced and reduced-group dragonflies: `g·a` routers, local links
    /// `g·a(a-1)/2`, one global link per group pair, degree `a-1+h`
    /// bounded, diameter ≤ 3.
    #[test]
    fn dragonfly_sweeps_hold_closed_forms(
        a in 2u16..7,
        h in 1u16..3,
        p in 1u16..3,
        group_fraction in 0.0f64..1.0,
    ) {
        let max_groups = a * h + 1;
        // Sweep the full balanced shape and reduced group counts alike.
        let groups = 2 + ((f64::from(max_groups - 2) * group_fraction) as u16);
        let shape = Dragonfly::with_groups(a, p, h, groups);
        let t = shape.build().expect("dragonfly wires within budget");
        let g = usize::from(groups);
        let ra = usize::from(a);
        check_fabric(
            &t,
            g * ra,
            g * ra * (ra - 1) / 2 + g * (g - 1) / 2,
            shape.diameter_bound(),
        );
        for n in 0..t.nodes() {
            let deg = t.degree(NodeId(n as u16));
            prop_assert!(
                deg <= ra - 1 + usize::from(h),
                "router degree {deg} exceeds a-1+h"
            );
            prop_assert!(deg >= ra - 1, "local group is fully connected");
        }
    }

    /// k-ary n-fly butterflies: `stages · k^(stages-1)` switches,
    /// `(stages-1) · rows · k` wires, boundary degree `k`, interior `2k`,
    /// diameter ≤ 2(stages-1).
    #[test]
    fn butterfly_sweeps_hold_closed_forms(k in 2u16..5, stages in 2u16..5) {
        let shape = Butterfly::new(k, stages);
        let t = shape.build().expect("butterfly wires within budget");
        check_fabric(&t, shape.nodes(), shape.links(), shape.diameter_bound());
        for s in 0..usize::from(stages) {
            for row in 0..shape.rows() {
                let deg = t.degree(shape.node(s, row));
                let expected = if s == 0 || s + 1 == usize::from(stages) {
                    usize::from(k)
                } else {
                    2 * usize::from(k)
                };
                prop_assert_eq!(deg, expected, "stage {} degree", s);
            }
        }
    }

    /// Hypercubes: `2^dim` routers of degree `dim`, `dim · 2^(dim-1)`
    /// wires, diameter ≤ dim.
    #[test]
    fn hypercube_sweeps_hold_closed_forms(dim in 1u32..8) {
        let shape = Hypercube::new(dim);
        let t = shape.build().expect("hypercube wires within budget");
        check_fabric(&t, 1 << dim, usize::try_from(dim).unwrap() << (dim - 1), shape.diameter_bound());
        for n in 0..t.nodes() {
            prop_assert_eq!(t.degree(NodeId(n as u16)), dim as usize);
        }
    }

    /// The irregular builder (and `connect_next_free` generally) rejects a
    /// second wire between the same pair with the typed error instead of
    /// silently double-wiring.
    #[test]
    fn duplicate_links_are_rejected(seed in any::<u64>()) {
        let mut rng = SeededRng::new(seed);
        let mut t = Topology::irregular(10, 8, 3, &mut rng).expect("irregular fabric builds");
        // Every existing wire is a duplicate now, whatever free ports remain.
        let wires: Vec<_> = t.wires().to_vec();
        for w in wires.iter().take(4) {
            let (a, b) = (w.a.0, w.b.0);
            prop_assert_eq!(
                t.connect_next_free(a, b),
                Err(TopologyError::DuplicateLink { a, b })
            );
            // Symmetric: order of endpoints does not matter.
            prop_assert_eq!(
                t.connect_next_free(b, a),
                Err(TopologyError::DuplicateLink { a: b, b: a })
            );
        }
    }
}

/// The three convenience constructors agree with their builder structs.
#[test]
fn convenience_constructors_match_builders() {
    let a = Topology::dragonfly(4, 1, 1).expect("builds");
    let b = Dragonfly::balanced(4, 1, 1).build().expect("builds");
    assert_eq!(a.nodes(), b.nodes());
    assert_eq!(a.wires().len(), b.wires().len());

    let a = Topology::butterfly(2, 4).expect("builds");
    let b = Butterfly::new(2, 4).build().expect("builds");
    assert_eq!(a.nodes(), b.nodes());
    assert_eq!(a.wires().len(), b.wires().len());

    let a = Topology::hypercube(5).expect("builds");
    let b = Hypercube::new(5).build().expect("builds");
    assert_eq!(a.nodes(), b.nodes());
    assert_eq!(a.wires().len(), b.wires().len());
}

/// The thousand-node shapes the scale wall simulates wire correctly; the
/// full BFS sweep is reserved for the small shapes above, but counts,
/// symmetry spot checks, and connectivity still hold at size.
#[test]
fn thousand_node_shapes_wire_within_budget() {
    let d = Dragonfly::balanced(32, 1, 1);
    let t = d.build().expect("1056-node dragonfly builds");
    assert_eq!(t.nodes(), 1056);
    assert_eq!(t.wires().len(), d.local_links() + d.global_links());
    assert!(t.is_connected());

    let b = Butterfly::new(2, 8);
    let t = b.build().expect("1024-node butterfly builds");
    assert_eq!(t.nodes(), 1024);
    assert_eq!(t.wires().len(), b.links());
    assert!(t.is_connected());
}

/// A shape that needs more ports per router than a router supports is
/// refused with a typed error by its builder, instead of panicking later
/// when `NetworkSim::new` builds the routers. The largest legal shapes
/// still build and simulate.
#[test]
fn shapes_beyond_the_router_port_limit_are_typed_errors() {
    use mmr_core::router::{RouterConfig, MAX_PORTS};
    let too_many = TopologyError::TooManyPorts { ports: MAX_PORTS + 1, max: MAX_PORTS };
    // a = 64: 63 local + 1 global + 1 terminal port.
    assert_eq!(Topology::dragonfly(64, 1, 1).err(), Some(too_many));
    assert_eq!(Dragonfly::balanced(64, 1, 1).build().err(), Some(too_many));
    assert_eq!(Topology::mesh2d(2, 2, 65).err(), Some(too_many));
    assert_eq!(Topology::torus2d(2, 2, 65).err(), Some(too_many));
    assert_eq!(Topology::ring(3, 65).err(), Some(too_many));
    assert_eq!(Hypercube::with_terminals(4, 61).build().err(), Some(too_many));
    assert_eq!(Butterfly::with_terminals(2, 2, 61).build().err(), Some(too_many));
    assert!(too_many.to_string().contains("65 ports"), "{too_many}");

    let edge = Topology::mesh2d(2, 2, 64).expect("64 ports is the limit, not past it");
    let cfg = RouterConfig::paper_default().vcs_per_port(4).candidates(2);
    let net = mmr_net::NetworkSim::new(edge, cfg);
    assert_eq!(net.topology().ports_per_node(), 64);
    let d = Dragonfly::balanced(63, 1, 1);
    assert_eq!(usize::from(d.ports_per_node()), MAX_PORTS);
}
