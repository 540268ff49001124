//! The outcome of one run of a workload.

/// One simulated quantity. Simulated quantities are pure functions of the
/// workload seed, so two runs at one seed must agree bit for bit.
#[derive(Debug, Clone)]
pub struct Sim {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Shorthand constructor for [`Sim`].
pub fn sim(name: impl Into<String>, unit: &'static str, value: f64) -> Sim {
    Sim {
        name: name.into(),
        unit,
        value,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What one run of a workload produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds before the first simulated cycle.
    pub setup_s: f64,
    /// Host seconds of the simulated cycles, drains and teardowns.
    pub run_s: f64,
    /// Modelled router-cycles: routers × simulated cycles, skipped cycles
    /// included.
    pub router_cycles: u64,
    /// Simulated metrics and counts, compared bit for bit across runs.
    pub sim: Vec<Sim>,
    /// Auditor `(checks, violations)` when the auditor ran. Kept out of
    /// [`Rep::sim`]: the unaudited companion run has none.
    pub audit: Option<(u64, u64)>,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
}

impl Rep {
    /// The simulated value named `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.sim.iter().find(|s| s.name == name).map(|s| s.value)
    }

    /// Host router-cycles per second of the run phase.
    pub fn cycles_per_s(&self) -> f64 {
        self.router_cycles as f64 / self.run_s
    }

    /// The first simulated quantity on which `self` and `other` differ
    /// (by bit pattern), if any.
    pub fn sim_mismatch(&self, other: &Rep) -> Option<String> {
        if self.sim.len() != other.sim.len() {
            return Some(format!(
                "{} vs {} simulated values",
                self.sim.len(),
                other.sim.len()
            ));
        }
        self.sim.iter().zip(&other.sim).find_map(|(a, b)| {
            (a.name != b.name || a.value.to_bits() != b.value.to_bits())
                .then(|| format!("{} = {} vs {} = {}", a.name, a.value, b.name, b.value))
        })
    }
}

/// Collects failed output checks.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    /// Records `what` as failed unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}
