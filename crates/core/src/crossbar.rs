//! The multiplexed crossbar model.
//!
//! §3.3: "The MMR uses a multiplexed crossbar where the internal switch is a
//! crossbar with as many ports as communication links. It reduces silicon
//! area by V and V², respectively, with respect to a partially multiplexed
//! and a fully de-multiplexed crossbar." Buffers are not required at the
//! output side; reconfiguration takes one clock cycle and is hidden by
//! overlapping with arbitration (§3.4); serialization is required when the
//! internal datapath is wider than the physical link.
//!
//! Behaviourally the crossbar just carries the matched flits; this module
//! keeps the *accounting* the architecture sections reason about — port
//! constraints, reconfiguration counts, serialization factor, and the
//! silicon-area comparison across crossbar organisations.

use crate::ids::PortId;
use crate::router::MAX_PORTS;
use crate::switchsched::MatchedPair;
use crate::table::mask_ports;

/// Crossbar organisations compared in §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossbarOrganization {
    /// One crossbar port per physical link (the MMR's choice).
    Multiplexed,
    /// One crossbar input per VC, one output per link.
    PartiallyDemultiplexed,
    /// One crossbar port per VC on both sides.
    FullyDemultiplexed,
}

impl CrossbarOrganization {
    /// Relative silicon area for `links` physical links with `vcs` virtual
    /// channels each, normalised to the multiplexed organisation (area
    /// ∝ inputs × outputs).
    pub fn relative_area(self, vcs: usize) -> f64 {
        match self {
            CrossbarOrganization::Multiplexed => 1.0,
            CrossbarOrganization::PartiallyDemultiplexed => vcs as f64,
            CrossbarOrganization::FullyDemultiplexed => (vcs as f64) * (vcs as f64),
        }
    }
}

/// Configuration and cycle-accounting state of the internal switch.
#[derive(Debug, Clone)]
pub struct Crossbar {
    ports: usize,
    /// Phits per flit on the internal datapath (serialization factor when
    /// the datapath is narrower than a flit).
    phits_per_flit: u16,
    /// Current input→output configuration; `None` = disconnected.
    config: Vec<Option<PortId>>,
    /// Inputs with a connected crosspoint: bit `i` ⇔ `config[i].is_some()`.
    /// [`Crossbar::apply`] touches only these and the matched inputs, and
    /// [`Crossbar::is_idle`] is one word test.
    connected: u64,
    reconfigurations: u64,
    flits_switched: u64,
}

impl Crossbar {
    /// Creates a disconnected `ports`×`ports` multiplexed crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `ports` or `phits_per_flit` is zero, or if `ports` exceeds
    /// [`MAX_PORTS`].
    pub fn new(ports: usize, phits_per_flit: u16) -> Self {
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(ports > 0, "crossbar needs at least one port");
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(ports <= MAX_PORTS, "the crossbar's connected-input mask supports up to 64 ports");
        // mmr-lint: allow(P-PANIC, reason="construction-time config validation (documented # Panics contract), not on the flit-cycle path")
        assert!(phits_per_flit > 0, "a flit is at least one phit");
        Crossbar {
            ports,
            phits_per_flit,
            config: vec![None; ports],
            connected: 0,
            reconfigurations: 0,
            flits_switched: 0,
        }
    }

    /// Number of ports (equal to physical links — the multiplexed design).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Serialization factor: internal phit transfers per flit.
    pub fn phits_per_flit(&self) -> u16 {
        self.phits_per_flit
    }

    /// Applies a matching as the configuration for the next flit cycle and
    /// counts a reconfiguration whenever the setting changed (§3.4: "Once
    /// the current flit transmission has finished, the switch is
    /// reconfigured. This operation requires one clock cycle.").
    ///
    /// Returns the number of flits carried this cycle.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the matching violates the one-flit-per-input-port
    /// constraint of a multiplexed crossbar.
    // mmr-lint: hot
    pub fn apply(&mut self, pairs: &[MatchedPair]) -> usize {
        // Only matched inputs and previously connected ones can change, so
        // the comparison with the old setting costs O(pairs), not O(ports).
        let mut next: u64 = 0;
        let mut changed = false;
        for p in pairs {
            let bit = 1u64 << p.input.index();
            debug_assert!(next & bit == 0, "multiplexed crossbar carries one flit per input port");
            next |= bit;
            let slot = &mut self.config[p.input.index()];
            changed |= *slot != Some(p.output);
            *slot = Some(p.output);
        }
        let released = self.connected & !next;
        for i in mask_ports(released) {
            self.config[i] = None;
        }
        self.connected = next;
        if changed || released != 0 {
            self.reconfigurations += 1;
        }
        self.flits_switched += pairs.len() as u64;
        pairs.len()
    }

    /// Whether every crosspoint is disconnected — applying an empty matching
    /// to an idle crossbar is a no-op, which lets a quiescent router skip
    /// reconfiguration accounting entirely.
    pub fn is_idle(&self) -> bool {
        self.connected == 0
    }

    /// The inputs with a connected crosspoint, as a port mask.
    pub fn connected_inputs(&self) -> u64 {
        self.connected
    }

    /// The output currently connected to `input`, if any.
    pub fn route_of(&self, input: PortId) -> Option<PortId> {
        self.config.get(input.index()).copied().flatten()
    }

    /// Total reconfigurations performed.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Total flits carried.
    pub fn flits_switched(&self) -> u64 {
        self.flits_switched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ConnectionId, VcIndex};

    fn pair(i: u8, o: u8) -> MatchedPair {
        MatchedPair {
            input: PortId(i),
            vc: VcIndex(0),
            output: PortId(o),
            conn: ConnectionId(0),
        }
    }

    #[test]
    fn area_scaling_matches_paper() {
        // "It reduces silicon area by V and V², respectively."
        let v = 256;
        let mux = CrossbarOrganization::Multiplexed.relative_area(v);
        let partial = CrossbarOrganization::PartiallyDemultiplexed.relative_area(v);
        let full = CrossbarOrganization::FullyDemultiplexed.relative_area(v);
        assert_eq!(mux, 1.0);
        assert_eq!(partial / mux, 256.0);
        assert_eq!(full / mux, 65_536.0);
    }

    #[test]
    fn apply_tracks_routes_and_reconfigurations() {
        let mut xb = Crossbar::new(4, 1);
        assert_eq!(xb.apply(&[pair(0, 2), pair(1, 3)]), 2);
        assert_eq!(xb.route_of(PortId(0)), Some(PortId(2)));
        assert_eq!(xb.route_of(PortId(2)), None);
        assert_eq!(xb.reconfigurations(), 1);
        // Same configuration again: no reconfiguration needed.
        xb.apply(&[pair(0, 2), pair(1, 3)]);
        assert_eq!(xb.reconfigurations(), 1);
        // Different configuration: reconfigure.
        xb.apply(&[pair(0, 3)]);
        assert_eq!(xb.reconfigurations(), 2);
        assert_eq!(xb.flits_switched(), 5);
    }

    #[test]
    fn idle_tracks_configuration() {
        let mut xb = Crossbar::new(4, 1);
        assert!(xb.is_idle());
        xb.apply(&[pair(0, 2)]);
        assert!(!xb.is_idle());
        // One empty application clears the configuration (and counts the
        // reconfiguration); further empty applications are no-ops.
        xb.apply(&[]);
        assert!(xb.is_idle());
        let reconfs = xb.reconfigurations();
        xb.apply(&[]);
        assert_eq!(xb.reconfigurations(), reconfs);
    }

    #[test]
    fn mask_apply_counts_exactly_the_full_config_changes() {
        // Reference model: the whole old-vs-new configuration comparison
        // the crossbar did before it kept a connected-input mask.
        let ports = 33;
        let mut rng = mmr_sim::SeededRng::new(0xC0FFEE);
        let mut xb = Crossbar::new(ports, 1);
        let mut model: Vec<Option<PortId>> = vec![None; ports];
        let mut model_reconfs = 0u64;
        let mut last: Vec<MatchedPair> = Vec::new();
        for step in 0..4000 {
            let pairs: Vec<MatchedPair> = match step % 5 {
                // An empty matching.
                0 => Vec::new(),
                // The same matching twice.
                1 => last.clone(),
                // A shrinking input set: drop a random tail of the last one.
                2 => last[..rng.index(last.len() + 1)].to_vec(),
                // A fresh random matching: random inputs, random outputs.
                _ => {
                    let mut inputs: Vec<usize> = (0..ports).collect();
                    rng.shuffle(&mut inputs);
                    inputs.truncate(rng.index(ports + 1));
                    inputs.iter().map(|&i| pair(i as u8, rng.index(ports) as u8)).collect()
                }
            };
            let mut next: Vec<Option<PortId>> = vec![None; ports];
            for p in &pairs {
                next[p.input.index()] = Some(p.output);
            }
            if next != model {
                model_reconfs += 1;
                model = next;
            }
            xb.apply(&pairs);
            assert_eq!(xb.reconfigurations(), model_reconfs, "step {step}");
            for (i, &route) in model.iter().enumerate() {
                assert_eq!(xb.route_of(PortId(i as u8)), route, "step {step}, input {i}");
            }
            assert_eq!(xb.is_idle(), model.iter().all(Option::is_none), "step {step}");
            last = pairs;
        }
        assert!(model_reconfs > 1000, "the walk exercised reconfigurations: {model_reconfs}");
    }

    #[test]
    fn serialization_factor_is_recorded() {
        // 128-bit flits over a 32-bit internal datapath: 4 phits per flit.
        let xb = Crossbar::new(8, 4);
        assert_eq!(xb.phits_per_flit(), 4);
        assert_eq!(xb.ports(), 8);
    }
}
