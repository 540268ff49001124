//! Host-speed calibration.
//!
//! The benchmark's host is a shared virtual machine whose throughput drifts
//! by up to ±30 % over tens of minutes; raw host times from runs minutes
//! apart spread more than any regression bound allows. A fixed kernel that
//! depends on nothing in the repository is timed between the workload's
//! runs, and each run's host times are scaled by
//! [`REFERENCE_S`] / (the mean of the kernel times around it), which
//! expresses them in seconds of a host on which the kernel takes
//! [`REFERENCE_S`]. Code changes in the repository move the workload's time
//! and not the kernel's, so they show in the scaled figures; machine-wide
//! drift moves both and largely cancels.
//!
//! Changing the kernel or [`REFERENCE_S`] changes every scaled figure: it
//! is a change of the benchmark, not of the program.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::trace::Stopwatch;

/// The kernel's host seconds on the reference host (the 2-vCPU Xeon VM the
/// benchmark was defined on, median over many runs).
pub const REFERENCE_S: f64 = 0.145;

/// Runs the kernel once and returns its host seconds: rounds of
/// ordered-map inserts and lookups plus a sort, so that it leans on caches
/// and branches as the simulator does. Its working set stays near 1 MiB,
/// below every workload's own, so it does not raise `peak_rss_mib`.
pub fn kernel_s() -> f64 {
    let clock = Stopwatch::start();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        let mut map = BTreeMap::new();
        for i in 0..16_384u64 {
            map.insert(next() % 65_521, i);
        }
        for _ in 0..65_536 {
            if let Some(v) = map.get(&(next() % 65_521)) {
                acc = acc.wrapping_add(*v);
            }
        }
        let mut v: Vec<u64> = (0..32_768).map(|_| next() ^ acc).collect();
        v.sort_unstable();
        acc = acc.wrapping_add(black_box(&v)[v.len() / 2]);
    }
    black_box(acc);
    clock.secs()
}

/// Kernel rounds: about [`REFERENCE_S`] on the reference host.
const ROUNDS: usize = 16;
