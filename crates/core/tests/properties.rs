//! Property tests over the router core invariants.

use mmr_core::arbiter::ArbiterKind;
use mmr_core::conn::{ConnectionRequest, QosClass};
use mmr_core::flit::{CommandWord, FlitKind};
use mmr_core::ids::{ConnectionId, PortId, VcIndex};
use mmr_core::router::{EstablishError, PacketOutcome, RouterConfig};
use mmr_core::switchsched::is_valid_matching;
use mmr_core::vcm::VirtualChannelMemory;
use mmr_core::{Candidate, Flit, ServicePhase, SwitchScheduler};
use mmr_sim::{Bandwidth, Cycles, SeededRng};
use proptest::prelude::*;

/// Arbitrary candidate lists for a 8×8 switch.
fn candidate_lists() -> impl Strategy<Value = Vec<Vec<Candidate>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..8, 0u16..32, 0.0f64..100.0), 0..10),
        8,
    )
    .prop_map(|per_input| {
        per_input
            .into_iter()
            .enumerate()
            .map(|(i, cands)| {
                let mut seen = std::collections::BTreeSet::new();
                cands
                    .into_iter()
                    .filter(|(_, vc, _)| seen.insert(*vc))
                    .map(|(out, vc, prio)| Candidate {
                        input: PortId(i as u8),
                        vc: VcIndex(vc),
                        output: PortId(out),
                        conn: ConnectionId(u32::from(vc)),
                        phase: ServicePhase::CbrGuaranteed,
                        priority: prio,
                    })
                    .collect()
            })
            .collect()
    })
}

fn arbiter_kinds() -> impl Strategy<Value = ArbiterKind> {
    prop_oneof![
        Just(ArbiterKind::FixedPriority),
        Just(ArbiterKind::BiasedPriority),
        Just(ArbiterKind::RoundRobin),
        Just(ArbiterKind::Autonet { iterations: 4 }),
        Just(ArbiterKind::Islip { iterations: 4 }),
    ]
}

proptest! {
    /// Every non-perfect scheme produces a valid one-to-one matching that
    /// only uses offered candidates.
    #[test]
    fn matchings_are_valid((lists, kind, seed) in (candidate_lists(), arbiter_kinds(), any::<u64>())) {
        let mut sched = SwitchScheduler::new(kind, 8);
        let mut rng = SeededRng::new(seed);
        let pairs = sched.schedule(&lists, 0, &mut rng);
        prop_assert!(is_valid_matching(&pairs, 8, false));
        for p in &pairs {
            prop_assert!(lists[p.input.index()]
                .iter()
                .any(|c| c.vc == p.vc && c.output == p.output));
        }
    }

    /// Blocked outputs are never matched by any scheme.
    #[test]
    fn blocked_outputs_never_matched(
        (lists, kind, seed, blocked_mask) in
            (candidate_lists(), arbiter_kinds(), any::<u64>(), any::<u8>())
    ) {
        let mut sched = SwitchScheduler::new(kind, 8);
        let mut rng = SeededRng::new(seed);
        let pairs = sched.schedule(&lists, u64::from(blocked_mask), &mut rng);
        for p in &pairs {
            prop_assert!(blocked_mask & (1 << p.output.index()) == 0, "matched a blocked output");
        }
    }

    /// Priority matching is *maximal*: no unmatched input holds a candidate
    /// for an unmatched output.
    #[test]
    fn priority_matching_is_maximal((lists, seed) in (candidate_lists(), any::<u64>())) {
        let mut sched = SwitchScheduler::new(ArbiterKind::BiasedPriority, 8);
        let mut rng = SeededRng::new(seed);
        let pairs = sched.schedule(&lists, 0, &mut rng);
        let mut in_used = [false; 8];
        let mut out_used = [false; 8];
        for p in &pairs {
            in_used[p.input.index()] = true;
            out_used[p.output.index()] = true;
        }
        for (i, list) in lists.iter().enumerate() {
            if in_used[i] {
                continue;
            }
            for c in list {
                prop_assert!(
                    out_used[c.output.index()],
                    "input {i} could still send to output {}",
                    c.output.index()
                );
            }
        }
    }

    /// The VCM never loses or duplicates flits under random push/pop
    /// sequences.
    #[test]
    fn vcm_conserves_flits(ops in prop::collection::vec((0u16..8, any::<bool>()), 1..200)) {
        let mut vcm = VirtualChannelMemory::new(8, 4, 4);
        let mut model: Vec<std::collections::VecDeque<u64>> =
            (0..8).map(|_| std::collections::VecDeque::new()).collect();
        let mut seq = 0u64;
        for (t, (vc, is_push)) in ops.into_iter().enumerate() {
            let now = Cycles(t as u64);
            if is_push {
                let flit = Flit::data(ConnectionId(0), seq, now);
                match vcm.push(VcIndex(vc), flit, now) {
                    Ok(()) => {
                        model[usize::from(vc)].push_back(seq);
                        seq += 1;
                    }
                    Err(_) => prop_assert_eq!(model[usize::from(vc)].len(), 4),
                }
            } else {
                let got = vcm.pop(VcIndex(vc), now).map(|f| f.seq);
                prop_assert_eq!(got, model[usize::from(vc)].pop_front());
            }
        }
        let total_model: usize = model.iter().map(std::collections::VecDeque::len).sum();
        prop_assert_eq!(vcm.total_occupancy(), total_model);
        for vc in 0..8u16 {
            prop_assert_eq!(
                vcm.flits_available().get(usize::from(vc)),
                !model[usize::from(vc)].is_empty()
            );
        }
    }

    /// Admission control never over-commits a link: the sum of admitted CBR
    /// rates stays at or below the link rate, whatever the request order.
    #[test]
    fn admission_never_overcommits(rates in prop::collection::vec(1.0f64..600.0, 1..40)) {
        let mut router = RouterConfig::paper_default()
            .ports(2)
            .vcs_per_port(64)
            .seed(1)
            .build();
        let mut admitted = Bandwidth::ZERO;
        for mbps in rates {
            let rate = Bandwidth::from_mbps(mbps);
            match router.establish(ConnectionRequest {
                input: PortId(0),
                output: PortId(1),
                class: QosClass::Cbr { rate },
            }) {
                Ok(_) => admitted += rate,
                Err(EstablishError::Admission(_)) => {
                    prop_assert!(
                        admitted.bits_per_sec() + rate.bits_per_sec() > 1.24e9 * 0.999,
                        "rejected a request that would have fit: {admitted} + {rate}"
                    );
                }
                Err(EstablishError::NoFreeInputVc | EstablishError::NoFreeOutputVc) => {}
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
        prop_assert!(admitted.bits_per_sec() <= 1.24e9 * (1.0 + 1e-9));
    }

    /// Router steps conserve flits: injected = transmitted + still queued,
    /// for every arbitration scheme.
    #[test]
    fn router_conserves_flits(
        (kind, seed, pattern) in
            (arbiter_kinds(), any::<u64>(), prop::collection::vec(0usize..4, 10..120))
    ) {
        let mut router = RouterConfig::paper_default()
            .ports(4)
            .vcs_per_port(8)
            .candidates(4)
            .enforce_round_quota(false)
            .arbiter(kind)
            .seed(seed)
            .build();
        let conns: Vec<_> = (0..4u8)
            .map(|i| {
                router
                    .establish(ConnectionRequest {
                        input: PortId(i),
                        output: PortId((i + 1) % 4),
                        class: QosClass::Cbr { rate: Bandwidth::from_mbps(310.0) },
                    })
                    .expect("admits")
            })
            .collect();
        let mut injected = 0u64;
        let mut transmitted = 0u64;
        for (cycle, pick) in pattern.iter().enumerate() {
            let now = Cycles(cycle as u64);
            if router.can_inject(conns[*pick]) {
                router.inject(conns[*pick], now).expect("checked");
                injected += 1;
            }
            transmitted += router.step(now).transmitted.len() as u64;
        }
        // Drain.
        for cycle in pattern.len()..pattern.len() + 50 {
            transmitted += router.step(Cycles(cycle as u64)).transmitted.len() as u64;
        }
        prop_assert_eq!(injected, transmitted, "all injected flits eventually leave");
    }
}

/// Folds the ports satisfying `pred` into a port mask.
fn mask_of(ports: u8, pred: impl Fn(PortId) -> bool) -> u64 {
    (0..ports).filter(|&p| pred(PortId(p))).fold(0, |m, p| m | 1 << p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The router's port masks always equal a brute-force recount from the
    /// per-VC state, and `is_quiescent` equals its old four-scan definition
    /// (no VC with a flit, no armed cut-through, no output busy last cycle,
    /// no connected crosspoint), under random establish / inject / accept /
    /// VCT packet / step / credit return / teardown / `AbortFrame` /
    /// quarantine sequences on 2- to 64-port routers. `cut_through` and
    /// `busy` have no per-VC source, so the test models them itself.
    #[test]
    fn port_masks_match_a_per_vc_recount(
        (ports, seed, track_credits, ops) in (
            prop_oneof![Just(2u8), Just(8u8), Just(33u8), Just(64u8)],
            any::<u64>(),
            any::<bool>(),
            prop::collection::vec((0u8..16, any::<u16>(), any::<u16>()), 1..400),
        )
    ) {
        let mut r = RouterConfig::paper_default()
            .ports(ports)
            .vcs_per_port(8)
            .vc_depth(3)
            .candidates(2)
            // 16-cycle rounds: quotas latch and reset often. Half of each
            // round is reserved for best effort, so outputs close to
            // guaranteed traffic after 8 flits.
            .round_k(2)
            .best_effort_reserve(0.5)
            .track_output_credits(track_credits)
            .seed(seed)
            .build();
        let port = |x: u16| PortId((x % u16::from(ports)) as u8);
        let mut conns: Vec<ConnectionId> = Vec::new();
        let (mut cut_through, mut busy) = (0u64, 0u64);
        let mut now = 0u64;
        for (op, a, b) in ops {
            let t = Cycles(now);
            let picked = (!conns.is_empty()).then(|| conns[usize::from(a) % conns.len()]);
            match (op, picked) {
                (0..=2, _) => {
                    let mbps = |m: f64| Bandwidth::from_mbps(m);
                    let class = match b % 4 {
                        0 => QosClass::Vbr { permanent: mbps(124.0), peak: mbps(248.0), priority: 1 },
                        1 => QosClass::Cbr { rate: mbps(124.0) },
                        2 => QosClass::Cbr { rate: mbps(310.0) },
                        _ => QosClass::Cbr { rate: mbps(620.0) },
                    };
                    let req = ConnectionRequest { input: port(a), output: port(b / 4), class };
                    if let Ok(id) = r.establish(req) {
                        conns.push(id);
                    }
                }
                (3..=5, Some(c)) => {
                    let _ = r.inject(c, t);
                }
                (6, Some(c)) => {
                    let _ = r.accept(c, Flit::data(ConnectionId(u32::MAX), u64::from(b), t), t);
                }
                (7, Some(c)) => {
                    // An abort followed by as much data as fits: when the
                    // command word crosses the switch it flushes the rest.
                    let abort = FlitKind::Command(CommandWord::AbortFrame);
                    if r.inject_kind(c, abort, t).is_ok() {
                        while r.inject(c, t).is_ok() {}
                    }
                }
                (8, _) => {
                    let kind = if b % 2 == 0 { FlitKind::Control } else { FlitKind::BestEffort };
                    let output = port(b / 2);
                    if let Ok(PacketOutcome::CutThrough) = r.inject_packet(port(a), output, kind, t) {
                        cut_through |= 1 << output.index();
                    }
                }
                (9..=12, _) => {
                    let report = r.step(t);
                    busy = report
                        .transmitted
                        .iter()
                        .fold(cut_through, |m, x| m | 1 << x.output_vc.port.index());
                    cut_through = 0;
                    now += 1;
                    if r.is_quiescent() {
                        // Skip ahead as an event-driven engine would,
                        // sometimes across round boundaries.
                        now += u64::from(a % 40);
                    }
                }
                (13, Some(c)) => {
                    if let Some(out) = r.connection(c).map(|s| s.output_vc) {
                        r.return_credit(out);
                    }
                }
                (14, Some(_)) => {
                    let _ = r.teardown(conns.swap_remove(usize::from(a) % conns.len()));
                }
                (15, _) => {
                    if r.is_quarantined() {
                        r.lift_quarantine();
                    } else {
                        r.quarantine();
                        conns.clear();
                    }
                }
                _ => {}
            }

            let masks = r.port_masks();
            let recount = r.recount_port_masks();
            prop_assert_eq!(masks, recount, "after op {} at cycle {}", op, now);
            prop_assert_eq!(masks.cut_through, cut_through);
            prop_assert_eq!(masks.busy, busy);
            prop_assert_eq!(masks.flits, mask_of(ports, |p| r.vcm(p).flits_available().any()));
            let routed = mask_of(ports, |p| r.crossbar().route_of(p).is_some());
            prop_assert_eq!(r.crossbar().connected_inputs(), routed);
            let old_quiescent =
                recount.flits == 0 && cut_through == 0 && busy == 0 && routed == 0;
            prop_assert_eq!(r.is_quiescent(), old_quiescent);
        }
    }
}
