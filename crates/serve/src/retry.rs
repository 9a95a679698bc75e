//! Deterministic retry/backoff policy for the resilient job lifecycle.
//!
//! The delay schedule is a *pure function* of the policy, the job id
//! and the attempt number — no clock reads, no shared RNG — so the
//! decision path is unit-testable and a retried run's timing behavior
//! replays exactly. Only the *wait* consults real time (and it does so
//! cancellably, in the service).
//!
//! Shape: classic capped exponential growth with deterministic
//! "equal jitter" — attempt `n` draws uniformly (from a splitmix64 hash
//! of `(job, attempt)`) in the upper half of `min(base · 2ⁿ⁻¹, max)`,
//! so concurrent retries of different jobs decorrelate while every
//! delay stays within `[cap/2, cap] ⊆ [0, max]`.

/// Bounded-retry knobs, embedded in
/// [`crate::ServeConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many times a retryable failure is retried before the job
    /// fails with [`crate::JobError::RetriesExhausted`]. 0 disables
    /// retries.
    pub max_retries: u32,
    /// First-retry backoff cap in milliseconds (doubles per attempt).
    pub base_ms: u64,
    /// Upper bound on any single backoff delay, in milliseconds.
    pub max_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_ms: 50,
            max_ms: 2_000,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry `attempt` (1-based: 1 = first retry) of
    /// `job`, in milliseconds. Pure — see the module docs.
    ///
    /// Returns 0 when the policy's `base_ms` is 0 (immediate retries,
    /// the shape chaos tests use to stay fast) and caps the exponential
    /// at `max_ms` otherwise.
    pub fn backoff_ms(&self, job: u64, attempt: u32) -> u64 {
        if self.base_ms == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(1).min(63);
        let cap = self
            .base_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_ms.max(self.base_ms));
        // Equal jitter: uniform over the upper half [cap - cap/2, cap].
        let span = cap / 2 + 1;
        let draw = splitmix64(job.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt)) % span;
        cap - draw
    }

    /// Whether retry `attempt` (1-based) is within budget.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt <= self.max_retries
    }
}

/// splitmix64 finalizer — the jitter hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Growth is bounded: every delay lies in [cap/2, cap] for the
        /// attempt's exponential cap, and never exceeds `max_ms`.
        #[test]
        fn backoff_is_bounded_exponential(
            base_ms in 1u64..500,
            max_ms in 1u64..10_000,
            job in 0u64..u64::MAX,
            attempt in 1u32..100
        ) {
            let policy = RetryPolicy { max_retries: 10, base_ms, max_ms };
            let delay = policy.backoff_ms(job, attempt);
            let cap = base_ms
                .saturating_mul(1u64 << attempt.saturating_sub(1).min(63))
                .min(max_ms.max(base_ms));
            prop_assert!(delay <= cap, "delay {delay} over cap {cap}");
            prop_assert!(delay >= cap - cap / 2, "delay {delay} under half-cap floor of {cap}");
            prop_assert!(delay <= max_ms.max(base_ms), "delay {delay} escaped max_ms {max_ms}");
        }

        /// The jitter is a pure function of (job, attempt): same inputs,
        /// same delay — and different jobs decorrelate somewhere in the
        /// schedule.
        #[test]
        fn jitter_is_deterministic_per_job(job in 0u64..u64::MAX) {
            let policy = RetryPolicy { max_retries: 8, base_ms: 100, max_ms: 5_000, };
            for attempt in 1..=8 {
                prop_assert_eq!(
                    policy.backoff_ms(job, attempt),
                    policy.backoff_ms(job, attempt),
                    "replay diverged"
                );
            }
            let other = job.wrapping_add(1);
            let differs = (1..=8).any(|a| policy.backoff_ms(job, a) != policy.backoff_ms(other, a));
            prop_assert!(differs, "adjacent jobs share the whole schedule");
        }

        /// The budget gate is exact: attempts 1..=max_retries pass, the
        /// next is refused — which is what turns the last retryable
        /// failure into the typed terminal error.
        #[test]
        fn retry_budget_exhausts_exactly(max_retries in 0u32..20) {
            let policy = RetryPolicy { max_retries, base_ms: 1, max_ms: 10 };
            for attempt in 1..=max_retries {
                prop_assert!(policy.allows(attempt));
            }
            prop_assert!(!policy.allows(max_retries + 1));
        }
    }

    #[test]
    fn zero_base_means_immediate_retries() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_ms: 0,
            max_ms: 1_000,
        };
        for attempt in 1..=10 {
            assert_eq!(policy.backoff_ms(7, attempt), 0);
        }
    }

    /// The doubling shape is visible through the jitter: per-attempt
    /// caps are monotone until `max_ms` pins them.
    #[test]
    fn schedule_grows_until_the_cap_pins_it() {
        let policy = RetryPolicy {
            max_retries: 16,
            base_ms: 10,
            max_ms: 320,
        };
        let caps: Vec<u64> = (1u32..=8)
            .map(|a| 10u64.saturating_mul(1 << (a - 1)).min(320))
            .collect();
        assert_eq!(caps, vec![10, 20, 40, 80, 160, 320, 320, 320]);
        for (i, &cap) in caps.iter().enumerate() {
            let d = policy.backoff_ms(42, i as u32 + 1);
            assert!(
                d <= cap && d >= cap - cap / 2,
                "attempt {i}: {d} vs cap {cap}"
            );
        }
    }
}
