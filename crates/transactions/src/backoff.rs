//! Binary exponential backoff for transaction retry (§5.3.1).
//!
//! "An aborted transaction is delayed for a randomly chosen interval
//! before being retried. If successive retries are required, the mean
//! delay is doubled each time."

use simnet::{Duration, SimRng};

/// The first retry's window, suited to the 1985 testbed's ~50 ms calls.
const BASE: Duration = Duration::from_millis(100);
/// The widest window.
const CAP: Duration = Duration::from_secs(10);

/// Retry-delay generator: delays are uniform in `[0, BASE·2^attempt)`,
/// windows capped at `CAP`.
#[derive(Clone, Debug, Default)]
pub struct Backoff {
    attempt: u32,
}

impl Backoff {
    /// Samples the next delay and doubles the window.
    pub fn next_delay(&mut self, rng: &mut SimRng) -> Duration {
        let exp = self.attempt.min(20);
        self.attempt += 1;
        let window = BASE.saturating_mul(1u64 << exp).min(CAP).as_micros().max(1);
        Duration::from_micros(rng.below(window))
    }

    /// Resets after a success.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_double() {
        // Max delay over many samples grows roughly with the window.
        let max_at_attempt = |attempt: u32| -> Duration {
            let mut max = Duration::ZERO;
            for seed in 0..300 {
                let mut b = Backoff { attempt };
                let mut r = SimRng::new(seed);
                max = max.max(b.next_delay(&mut r));
            }
            max
        };
        let m0 = max_at_attempt(0);
        let m2 = max_at_attempt(2);
        let m4 = max_at_attempt(4);
        assert!(m2 > m0, "window should grow: {m0} vs {m2}");
        assert!(m4 > m2, "window should keep growing: {m2} vs {m4}");
    }

    #[test]
    fn delays_within_window() {
        let mut b = Backoff::default();
        let mut rng = SimRng::new(2);
        let d = b.next_delay(&mut rng);
        assert!(d < BASE);
        let d = b.next_delay(&mut rng);
        assert!(d < BASE.saturating_mul(2));
    }

    #[test]
    fn cap_limits_window() {
        // From the eighth retry on, BASE·2^attempt passes the cap.
        let mut b = Backoff::default();
        let mut rng = SimRng::new(3);
        for _ in 0..30 {
            assert!(b.next_delay(&mut rng) < CAP);
        }
        assert!(BASE.saturating_mul(1 << 7) > CAP);
    }

    #[test]
    fn reset_restarts() {
        let mut b = Backoff::default();
        let mut rng = SimRng::new(4);
        b.next_delay(&mut rng);
        b.next_delay(&mut rng);
        assert_eq!(b.attempt, 2);
        b.reset();
        assert_eq!(b.attempt, 0);
    }
}
