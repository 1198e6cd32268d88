//! Configurable retry of `Failed` rows in the parallel scheduler
//! (DESIGN.md §9).
//!
//! The original resilience layer retried a panicked row exactly once, with
//! no delay — the right default for in-process transients (a poisoned
//! thread-local heals immediately), but not a policy a service can tune.
//! [`RetryPolicy`] generalizes it: a bounded number of attempts per row
//! and an exponential backoff between attempts whose jitter is drawn from
//! a seeded splitmix64 stream, so two runs with the same policy sleep the
//! same schedule — retries stay inside the repo's determinism discipline
//! (the same discipline as [`FaultPlan`](crate::repair::fault) seeding and
//! the trace sampler).
//!
//! The scheduler ([`parallel_repair`](crate::repair::parallel)) drives the
//! policy: after each pass drains, rows still `Failed` are re-claimed by a
//! further pass until they heal or the attempt cap is reached. Every
//! retry attempt is counted in
//! [`ResilienceReport::retried`](crate::repair::resilience::ResilienceReport)
//! and in the `retry_attempts_total{attempt}` metric, which therefore
//! reconcile exactly.

use std::time::Duration;

/// Retry/backoff configuration for `Failed` rows.
///
/// The default reproduces the pre-policy behavior bit for bit: two total
/// attempts (one retry) with zero backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per row, including the first (min 1 — `0` is
    /// normalized to 1, i.e. no retry at all).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles every further attempt.
    /// `ZERO` (the default) sleeps never, whatever the attempt count.
    pub base_backoff: Duration,
    /// Hard ceiling on any single backoff sleep (applied before jitter).
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// Fixed jitter fraction: a backoff sleeps between 100% and 150% of its
/// exponential target. Enough spread to de-correlate retry stampedes,
/// small enough that the cap in [`RetryPolicy::max_backoff`] stays
/// meaningful (the ceiling after jitter is 1.5 × `max_backoff`).
const JITTER_FRACTION: f64 = 0.5;

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// A policy with `max_attempts` total attempts and no backoff.
    pub fn with_attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            ..Self::default()
        }
    }

    /// Builder: exponential backoff starting at `base` (doubling per
    /// attempt, capped at `max`).
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    /// Builder: jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total attempts, normalized to at least one.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// How many retry passes this policy allows beyond the first attempt.
    pub fn max_retries(&self) -> u32 {
        self.attempts() - 1
    }

    /// The backoff to sleep before re-running `row` on attempt `attempt`
    /// (attempts are 1-based; the first retry is attempt 2). Pure function
    /// of `(policy, row, attempt)`: exponential doubling from
    /// [`base_backoff`](Self::base_backoff), capped at
    /// [`max_backoff`](Self::max_backoff), plus 0–50% deterministic jitter
    /// drawn from the seeded splitmix64 stream.
    pub fn backoff(&self, row: usize, attempt: u32) -> Duration {
        if self.base_backoff.is_zero() || attempt < 2 {
            return Duration::ZERO;
        }
        let doublings = (attempt - 2).min(32);
        let target = self
            .base_backoff
            .saturating_mul(1u32 << doublings.min(31))
            .min(self.max_backoff);
        // splitmix64 over (seed, row, attempt): reproducible jitter that
        // still differs per row and per attempt.
        let word = splitmix64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(row as u64)
                .wrapping_add((attempt as u64) << 32),
        );
        let frac = (word >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        target.mul_f64(1.0 + JITTER_FRACTION * frac)
    }
}

/// The splitmix64 mixer (same constants as the trace sampler in `dr-obs`).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_legacy_one_shot_retry() {
        let p = RetryPolicy::default();
        assert_eq!(p.attempts(), 2);
        assert_eq!(p.max_retries(), 1);
        assert_eq!(p.backoff(7, 2), Duration::ZERO, "zero base never sleeps");
    }

    #[test]
    fn zero_attempts_normalizes_to_one() {
        let p = RetryPolicy::with_attempts(0);
        assert_eq!(p.attempts(), 1);
        assert_eq!(p.max_retries(), 0);
        assert!(RetryPolicy::none().max_retries() == 0);
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let p = RetryPolicy::with_attempts(6)
            .with_backoff(Duration::from_millis(10), Duration::from_millis(80))
            .with_seed(42);
        for attempt in 2..=6 {
            for row in [0usize, 3, 999] {
                assert_eq!(
                    p.backoff(row, attempt),
                    p.backoff(row, attempt),
                    "same (seed,row,attempt) must sleep the same"
                );
                // Never below the exponential target, never above cap + 50%.
                let floor = Duration::from_millis(10 << (attempt - 2).min(3));
                let floor = floor.min(Duration::from_millis(80));
                let b = p.backoff(row, attempt);
                assert!(b >= floor, "attempt {attempt} row {row}: {b:?} < {floor:?}");
                assert!(b <= Duration::from_millis(120), "{b:?} breaches cap*1.5");
            }
        }
        // Different seeds give different jitter (with overwhelming odds).
        let q = p.with_seed(43);
        assert_ne!(p.backoff(1, 2), q.backoff(1, 2));
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RetryPolicy::with_attempts(8)
            .with_backoff(Duration::from_millis(4), Duration::from_secs(60));
        // Strip jitter by comparing lower bounds: the target doubles.
        let floor = |attempt: u32| Duration::from_millis(4u64 << (attempt - 2));
        for attempt in 2..=5 {
            let b = p.backoff(0, attempt);
            assert!(b >= floor(attempt), "attempt {attempt}: {b:?}");
            assert!(b < floor(attempt).mul_f64(1.5) + Duration::from_nanos(1));
        }
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let p = RetryPolicy::with_attempts(u32::MAX)
            .with_backoff(Duration::from_secs(1), Duration::from_secs(5));
        let b = p.backoff(usize::MAX, u32::MAX);
        assert!(b <= Duration::from_millis(7500));
    }
}
