//! Host-speed calibration.
//!
//! On a shared host the whole machine slows down and speeds up for tens
//! of seconds at a time, by 30% and more, which swamps a single run's
//! median. The benchmark therefore times a fixed reference kernel — its
//! own code, untouched by any change to the crates under test — next to
//! every measured pass, and rescales the pass's wall time by
//! `REFERENCE_NOMINAL_S / reference time`. Slowdowns that hit the whole
//! machine cancel; a change that makes the program slower does not,
//! because it does not touch the kernel.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's wall time on an idle 2-core x86-64 host; the
/// calibrated seconds of a pass are on that host's scale.
pub const REFERENCE_NOMINAL_S: f64 = 0.06;

/// Wall seconds of one run of the reference kernel: ordered-map inserts
/// and lookups and a float sort, the simulator's own staple operations.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    black_box(reference_kernel(black_box(0x9E37_79B9_7F4A_7C15)));
    start.elapsed().as_secs_f64()
}

fn reference_kernel(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for i in 0..60_000u64 {
        map.insert(next() % 1_000_000, i);
    }
    let mut acc = 0u64;
    for _ in 0..300_000 {
        if let Some(v) = map.get(&(next() % 1_000_000)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut floats: Vec<f64> = (0..200_000).map(|i| (f64::from(i) * 1.618).sin()).collect();
    floats.sort_by(f64::total_cmp);
    acc.wrapping_add(floats[1000].to_bits())
}

/// Calibrated seconds of a pass that took `wall_s` next to a reference
/// run that took `reference_s`.
pub fn calibrated(wall_s: f64, reference_s: f64) -> f64 {
    wall_s * REFERENCE_NOMINAL_S / reference_s
}
