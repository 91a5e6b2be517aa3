//! The benchmark's single wall-clock read.
//!
//! `clippy.toml` bans `Instant::now` outside sanctioned sites, because the
//! simulation crates must measure simulated cycles only. Every host-time
//! number this benchmark reports comes from [`now`], so the one allow
//! below is the whole of its wall-clock surface.

use std::time::Instant;

/// The current instant.
#[allow(clippy::disallowed_methods)] // the benchmark's one sanctioned wall-clock read
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(now().duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}
