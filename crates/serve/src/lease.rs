//! The one lease rule, shared by each open question of a
//! [`CampaignEngine`](crate::CampaignEngine) (up to `per_question`
//! workers) and each shard of a `/scale` job (one worker):
//!
//! * a lease granted or renewed at `now_ms` ends at
//!   `now_ms.saturating_add(lease_ms)`, so no length overflows;
//! * a lease is live iff its deadline is after `now_ms` — an answer
//!   arriving exactly on the deadline is late.
//!
//! No clocks: every call takes `now_ms`, so expiry is exactly testable.

use crate::wire::ServeError;

/// Rejects `lease_ms: 0`: such a lease expires the moment it is
/// granted, so no answer or shard result could land under it.
pub(crate) fn check_lease_ms(lease_ms: u64) -> Result<(), ServeError> {
    if lease_ms == 0 {
        return Err(ServeError::bad_request("bad_policy", "lease_ms must be at least 1"));
    }
    Ok(())
}

/// Leases, each `(holder, deadline_ms)`, in grant order.
#[derive(Clone, Debug, Default)]
pub(crate) struct Leases {
    held: Vec<(String, u64)>,
}

/// Whether a lease ending at `deadline_ms` is still live at `now_ms`.
fn live(deadline_ms: u64, now_ms: u64) -> bool {
    deadline_ms > now_ms
}

impl Leases {
    /// Grants `holder` a lease from `now_ms` and returns its deadline.
    /// The caller decides eligibility.
    pub(crate) fn grant(&mut self, holder: &str, now_ms: u64, lease_ms: u64) -> u64 {
        let deadline_ms = now_ms.saturating_add(lease_ms);
        self.held.push((holder.to_owned(), deadline_ms));
        deadline_ms
    }

    /// Drops every lease that is no longer live at `now_ms` and
    /// returns how many expired.
    pub(crate) fn prune(&mut self, now_ms: u64) -> usize {
        let before = self.held.len();
        self.held.retain(|&(_, deadline_ms)| live(deadline_ms, now_ms));
        before - self.held.len()
    }

    /// Whether `holder` holds a live lease at `now_ms`.
    pub(crate) fn holds(&self, holder: &str, now_ms: u64) -> bool {
        self.held.iter().any(|(h, deadline_ms)| h == holder && live(*deadline_ms, now_ms))
    }

    /// Restarts `holder`'s live lease at `now_ms`; `false`, changing
    /// nothing, when `holder` holds no live lease.
    pub(crate) fn renew(&mut self, holder: &str, now_ms: u64, lease_ms: u64) -> bool {
        match self.held.iter_mut().find(|(h, d)| h == holder && live(*d, now_ms)) {
            Some((_, deadline_ms)) => {
                *deadline_ms = now_ms.saturating_add(lease_ms);
                true
            }
            None => false,
        }
    }

    /// Ends `holder`'s lease; `false` when `holder` holds none.
    pub(crate) fn release(&mut self, holder: &str) -> bool {
        match self.held.iter().position(|(h, _)| h == holder) {
            Some(i) => {
                self.held.remove(i);
                true
            }
            None => false,
        }
    }

    /// Leases held, counting any expired since the last
    /// [`prune`](Self::prune).
    pub(crate) fn len(&self) -> usize {
        self.held.len()
    }

    /// Whether no lease is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// The soonest deadline among the held leases.
    pub(crate) fn earliest_deadline(&self) -> Option<u64> {
        self.held.iter().map(|&(_, deadline_ms)| deadline_ms).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lease_ends_on_its_deadline_which_saturates() {
        let mut leases = Leases::default();
        assert_eq!(leases.grant("w0", 100, 50), 150);
        assert!(leases.holds("w0", 149) && !leases.holds("w0", 150) && !leases.holds("w1", 0));
        assert!(!leases.renew("w0", 150, 50), "an expired lease cannot be renewed");
        assert_eq!(leases.grant("w1", 1_000, u64::MAX), u64::MAX);
        assert!(leases.renew("w1", 2_000, u64::MAX));
        assert_eq!((leases.prune(150), leases.len()), (1, 1));
    }
}
