//! The client's retry-and-forward rule: one step every simulated world
//! takes, each with its own [`RetryPolicy`].
//!
//! A try that a server answers [`crate::AppResponse::Forward`] follows
//! the forward to the named server while the try has forwards left.
//! Every other try that is not served — no route, a message the net
//! ate, a `NotMine`, a forward past the limit — is a failed try: the
//! request routes afresh after the policy's backoff, until its tries
//! are spent. [`Try::next`] answers that rule as a [`Step`], and the
//! world schedules the answer; nothing here runs on its own.

use sm_sim::SimDuration;
use sm_types::ServerId;

/// How one world's clients retry.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryPolicy {
    /// Tries per request, the first one included.
    pub(crate) attempts: u32,
    /// Pause before each retry; for a message the net ate it is also
    /// the client's timeout.
    pub(crate) backoff: SimDuration,
    /// Forwards one try may follow.
    pub(crate) max_hops: u8,
}

/// What a request does after a try that was not served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Follow the forward: the same try goes on to this server.
    Send(ServerId),
    /// Route afresh and try again after this pause.
    After(SimDuration),
    /// The tries are spent: the request failed.
    GiveUp,
}

/// One request's progress through its policy: the tries it has failed
/// and the forwards the try under way has followed. A new request's is
/// the default.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Try {
    /// Tries failed so far.
    failed: u32,
    /// Forwards the try under way has followed.
    pub(crate) hops: u8,
}

impl Try {
    /// The step after a try that was not served. `forward` is the server
    /// a `Forward` named; `None` is every other miss.
    pub(crate) fn next(&mut self, policy: &RetryPolicy, forward: Option<ServerId>) -> Step {
        match forward {
            Some(server) if self.hops < policy.max_hops => {
                self.hops += 1;
                Step::Send(server)
            }
            _ if self.failed + 1 < policy.attempts => {
                self.failed += 1;
                self.hops = 0;
                Step::After(policy.backoff)
            }
            _ => Step::GiveUp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every world's policy beside what it must hold: tries per request,
    /// backoff in ms, and the forwards one try follows.
    fn worlds() -> [(&'static str, RetryPolicy, u32, u64, u8); 3] {
        [
            // The first try and five retries.
            ("figure", crate::harness::RETRY, 6, 150, 4),
            ("chaos", crate::chaos::RETRY, 120, 500, 4),
            ("split", crate::split::RETRY, 40, 500, 6),
        ]
    }

    #[test]
    fn a_request_gets_its_policy_tries_each_after_the_backoff() {
        for (world, policy, tries, backoff_ms, _) in worlds() {
            let mut t = Try::default();
            let mut taken = 1;
            loop {
                match t.next(&policy, None) {
                    Step::After(d) => {
                        assert_eq!(d, SimDuration::from_millis(backoff_ms), "{world}");
                        taken += 1;
                    }
                    Step::GiveUp => break,
                    Step::Send(s) => panic!("{world}: a miss sent to {s}"),
                }
            }
            assert_eq!(taken, tries, "{world}");
            // The last try still follows its forwards.
            assert_eq!(t.next(&policy, Some(ServerId(1))), Step::Send(ServerId(1)));
        }
    }

    #[test]
    fn a_forward_past_the_hop_limit_is_a_failed_try() {
        for (world, policy, _, backoff_ms, hops) in worlds() {
            let mut t = Try::default();
            for hop in 0..hops {
                let to = ServerId(u32::from(hop));
                assert_eq!(t.next(&policy, Some(to)), Step::Send(to), "{world}");
            }
            let failed = Step::After(SimDuration::from_millis(backoff_ms));
            assert_eq!(t.next(&policy, Some(ServerId(9))), failed, "{world}");
            // The retry starts with every forward back.
            assert_eq!(t.hops, 0, "{world}");
            assert_eq!(t.next(&policy, Some(ServerId(9))), Step::Send(ServerId(9)));
            // On the last try, a forward past the limit spends the request.
            let (failed, hops) = (policy.attempts - 1, policy.max_hops);
            let mut last = Try { failed, hops };
            assert_eq!(
                last.next(&policy, Some(ServerId(9))),
                Step::GiveUp,
                "{world}"
            );
        }
    }
}
