//! The wedge lease shared by the three replicated services.

use simnet::{Duration, Time};

/// How long a wedge (§6.4.1's quiescence for state transfer) holds
/// without being released. A crashed reconfiguration must not leave the
/// troupe refusing work forever; the wedge lapses and service resumes.
/// Generous against a healthy transfer: wedge + get_state +
/// add_troupe_member + unwedge completes in well under a second of
/// simulated time on a quiet troupe.
const WEDGE_TTL: Duration = Duration::from_micros(12_000_000);

/// A member's wedge for a membership change: held from `engage` until
/// `release`, or until [`WEDGE_TTL`] has passed. The TTL is applied
/// lazily, by the next `active` or `engage`. Transient — deliberately
/// not part of any service's `get_state`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Wedge {
    since: Option<Time>,
}

impl Wedge {
    /// Takes the lease at `now` unless a live one is held (which keeps
    /// its start time). `true` if this call took it.
    pub(crate) fn engage(&mut self, now: Time) -> bool {
        if self.active(now) {
            return false;
        }
        self.since = Some(now);
        true
    }

    /// Whether the member is wedged at `now`; an expired lease lapses
    /// here.
    pub(crate) fn active(&mut self, now: Time) -> bool {
        if self.since.is_some_and(|at| now.since(at) > WEDGE_TTL) {
            self.since = None;
        }
        self.since.is_some()
    }

    /// Whether a lease is held, expired or not.
    pub(crate) fn held(&self) -> bool {
        self.since.is_some()
    }

    /// Drops the lease.
    pub(crate) fn release(&mut self) {
        self.since = None;
    }
}
