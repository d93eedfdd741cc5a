//! The idempotent control-plane RPC exchange.
//!
//! The orchestrator's [`ServerRpc`]s cross a network that may drop,
//! delay, or duplicate them, and §3.2's at-most-one-primary promise
//! survives that only if three rules hold at the two ends of the wire:
//!
//! - **control side** — every transmission carries a fresh correlation
//!   id, and an outstanding id resolves *exactly once*: the first of
//!   ack, nack, or give-up wins ([`RpcExchange::resolve`]); a duplicate
//!   result, or one arriving after the give-up timer already failed the
//!   step, is ignored;
//! - **host side, dedup** — an id is applied *at most once*; a
//!   duplicated copy is answered with the recorded outcome instead of
//!   re-dispatching (a late duplicate of an `AddShard` landing after a
//!   subsequent `DropShard` would otherwise re-create hosting state the
//!   orchestrator believes is gone);
//! - **host side, fencing** — a fenced host ([`Host::Fenced`]) refuses
//!   every grant: its lease lapsed, so accepting an `AddShard` the
//!   control plane sent an instant before declaring it down would
//!   resurrect an unleased primary.
//!
//! [`RpcExchange`] holds both halves. A process that is only one end of
//! the wire uses only its half; a simulation world, which owns both
//! ends, uses one value for all its hosts (ids are unique across them).
//!
//! The dedup table is bounded by what is in flight, not by history:
//! each [`RpcCall`] says how many copies of it the network carries, and
//! the recorded outcome retires when the last copy has been delivered.

use crate::api::{ServerRpc, ShardServer};
use sm_types::ServerId;
use std::collections::BTreeMap;

/// One transmission of a control-plane RPC — what travels on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpcCall {
    /// Correlation id, unique per transmission.
    pub id: u64,
    /// Copies of this transmission in flight (0 when the network ate
    /// it; more than 1 when it duplicated it).
    pub copies: u8,
    /// Destination server.
    pub server: ServerId,
    /// The call.
    pub rpc: ServerRpc,
}

/// What a delivered copy finds at its destination.
pub enum Host<'a, H: ?Sized> {
    /// A live, leased server: the RPC is dispatched onto it.
    Serving(&'a mut H),
    /// The server's lease lapsed (§3.2) — or the connection otherwise
    /// fails fast: nack without dispatching.
    Fenced,
    /// Nothing answers (dead process): the copy is consumed, nothing is
    /// recorded, and only the control side's give-up timer resolves it.
    Down,
}

/// The host's answer to one delivered copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    /// Ack (true) or nack (false) to send back to the control plane.
    pub ok: bool,
    /// True when *this* delivery dispatched the RPC and it took effect
    /// — the instant the server's hosting state changed.
    pub applied: bool,
}

/// A recorded outcome awaiting the rest of its transmission's copies.
struct Slot {
    left: u8,
    outcome: Option<bool>,
}

/// Both ends of the idempotent exchange (see the module docs).
#[derive(Default)]
pub struct RpcExchange {
    next_id: u64,
    /// Control side: correlation ids awaiting an answer.
    outstanding: BTreeMap<u64, (ServerId, ServerRpc)>,
    /// Host side: ids with further copies still in flight.
    recorded: BTreeMap<u64, Slot>,
}

impl RpcExchange {
    /// Control side: mints the correlation id for a transmission the
    /// network turned into `copies` in-flight copies, and books it as
    /// outstanding (a transmission with zero copies still is — the
    /// give-up timer reaps it).
    pub fn send(&mut self, server: ServerId, rpc: ServerRpc, copies: usize) -> RpcCall {
        self.next_id += 1;
        self.outstanding.insert(self.next_id, (server, rpc));
        RpcCall {
            id: self.next_id,
            copies: u8::try_from(copies).unwrap_or(u8::MAX),
            server,
            rpc,
        }
    }

    /// Control side: resolves `id` if it is still outstanding, handing
    /// back the RPC to report to the orchestrator. The first ack, nack,
    /// or give-up wins; every later one gets `None` and must be ignored.
    pub fn resolve(&mut self, id: u64) -> Option<(ServerId, ServerRpc)> {
        self.outstanding.remove(&id)
    }

    /// Host side: one copy of `call` arrived. `host` is consulted only
    /// when the id has no recorded outcome yet. Returns the reply to
    /// send back, or `None` when nothing answers ([`Host::Down`]).
    pub fn deliver<'a, H: ShardServer + ?Sized + 'a>(
        &mut self,
        call: &RpcCall,
        host: impl FnOnce() -> Host<'a, H>,
    ) -> Option<Reply> {
        let apply = |host: Host<'a, H>| match host {
            Host::Serving(server) => Some(call.rpc.dispatch(server).is_ok()),
            Host::Fenced => Some(false),
            Host::Down => None,
        };
        let fresh = |ok| Reply { ok, applied: ok };
        if call.copies <= 1 {
            // The sole copy: no duplicate can follow, nothing to record.
            return apply(host()).map(fresh);
        }
        let slot = self.recorded.entry(call.id).or_insert(Slot {
            left: call.copies,
            outcome: None,
        });
        let reply = match slot.outcome {
            Some(ok) => Some(Reply { ok, applied: false }),
            None => {
                slot.outcome = apply(host());
                slot.outcome.map(fresh)
            }
        };
        slot.left = slot.left.saturating_sub(1);
        if slot.left == 0 {
            self.recorded.remove(&call.id);
        }
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::{LoadVector, ReplicaRole, ShardId, SmError};
    use std::collections::VecDeque;

    /// Counts dispatches; refuses `change_role`.
    #[derive(Default)]
    struct Counting {
        adds: u32,
        drops: u32,
    }

    impl ShardServer for Counting {
        fn add_shard(&mut self, _: ShardId, _: ReplicaRole) -> Result<(), SmError> {
            self.adds += 1;
            Ok(())
        }
        fn drop_shard(&mut self, _: ShardId) -> Result<(), SmError> {
            self.drops += 1;
            Ok(())
        }
        fn change_role(
            &mut self,
            _: ShardId,
            _: ReplicaRole,
            _: ReplicaRole,
        ) -> Result<(), SmError> {
            Err(SmError::conflict("role mismatch"))
        }
        fn prepare_add_shard(
            &mut self,
            _: ShardId,
            _: ServerId,
            _: ReplicaRole,
        ) -> Result<(), SmError> {
            Ok(())
        }
        fn prepare_drop_shard(
            &mut self,
            _: ShardId,
            _: ServerId,
            _: ReplicaRole,
        ) -> Result<(), SmError> {
            Ok(())
        }
        fn report_load(&self) -> Vec<(ShardId, LoadVector)> {
            Vec::new()
        }
    }

    const ADD: ServerRpc = ServerRpc::AddShard {
        shard: ShardId(1),
        role: ReplicaRole::Primary,
    };

    #[test]
    fn duplicate_delivery_replays_the_recorded_outcome_without_redispatching() {
        let mut x = RpcExchange::default();
        let mut host = Counting::default();
        let call = x.send(ServerId(0), ADD, 2);
        let first = x.deliver(&call, || Host::Serving(&mut host));
        assert_eq!(
            first,
            Some(Reply {
                ok: true,
                applied: true
            })
        );
        // The duplicate lands after a later drop: it must not re-add.
        let drop = x.send(ServerId(0), ServerRpc::DropShard { shard: ShardId(1) }, 1);
        x.deliver(&drop, || Host::Serving(&mut host));
        let dup = x.deliver(&call, || -> Host<'_, Counting> {
            unreachable!("a recorded id never consults the host")
        });
        assert_eq!(
            dup,
            Some(Reply {
                ok: true,
                applied: false
            })
        );
        assert_eq!((host.adds, host.drops), (1, 1));
        // A recorded nack replays as a nack.
        let role = ServerRpc::ChangeRole {
            shard: ShardId(1),
            current: ReplicaRole::Primary,
            new: ReplicaRole::Secondary,
        };
        let call = x.send(ServerId(0), role, 2);
        for _ in 0..2 {
            let r = x.deliver(&call, || Host::Serving(&mut host));
            assert_eq!(r.map(|r| r.ok), Some(false));
        }
    }

    #[test]
    fn fenced_host_nacks_add_shard_and_a_down_host_stays_silent() {
        let mut x = RpcExchange::default();
        let mut host = Counting::default();
        let call = x.send(ServerId(3), ADD, 2);
        let refused = x.deliver(&call, || Host::<Counting>::Fenced);
        assert_eq!(
            refused,
            Some(Reply {
                ok: false,
                applied: false
            })
        );
        // The refusal is the id's outcome: the second copy, arriving
        // after the host re-registered, still gets the nack.
        let late = x.deliver(&call, || Host::Serving(&mut host));
        assert_eq!(late.map(|r| r.ok), Some(false));
        assert_eq!(host.adds, 0, "a fenced host never dispatches a grant");

        // A dead process answers nothing and records nothing: a later
        // copy finding it alive is applied normally.
        let call = x.send(ServerId(3), ADD, 2);
        assert_eq!(x.deliver(&call, || Host::<Counting>::Down), None);
        let r = x.deliver(&call, || Host::Serving(&mut host));
        assert_eq!(r.map(|r| r.applied), Some(true));
        assert_eq!(host.adds, 1);
    }

    #[test]
    fn first_resolution_wins_and_a_result_after_give_up_is_ignored() {
        let mut x = RpcExchange::default();
        let call = x.send(ServerId(5), ADD, 1);
        assert_eq!(x.outstanding.len(), 1);
        // Give-up timer fires first...
        assert_eq!(x.resolve(call.id), Some((ServerId(5), ADD)));
        // ...so the late ack (and any duplicate of it) finds nothing.
        assert_eq!(x.resolve(call.id), None);
        assert_eq!(x.resolve(call.id), None);
        assert!(x.outstanding.is_empty());
        // Ids are never reused.
        assert_ne!(x.send(ServerId(5), ADD, 1).id, call.id);
    }

    #[test]
    fn dedup_table_is_bounded_by_the_in_flight_window_not_by_rpc_count() {
        // 10 000 RPCs over a net that drops ~10% and duplicates ~30%,
        // each copy delivered `WINDOW` arrivals after it was sent.
        const WINDOW: usize = 32;
        let mut x = RpcExchange::default();
        let mut host = Counting::default();
        let mut wire: VecDeque<RpcCall> = VecDeque::new();
        let mut lcg = 0x2545_f491_4f6c_dd1d_u64;
        let (mut sent_copies, mut peak) = (0u32, 0usize);
        let mut arrive = |x: &mut RpcExchange, call: RpcCall| {
            x.deliver(&call, || Host::Serving(&mut host));
            peak = peak.max(x.recorded.len());
        };
        for _ in 0..10_000 {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let copies = match (lcg >> 33) % 10 {
                0 => 0,
                1..=3 => 2,
                _ => 1,
            };
            let call = x.send(ServerId(0), ADD, copies);
            for _ in 0..copies {
                // Duplicates interleave with later traffic.
                let at = wire.len().saturating_sub((lcg >> 40) as usize % 4);
                wire.insert(at, call);
                sent_copies += 1;
            }
            while wire.len() > WINDOW {
                arrive(&mut x, wire.pop_front().expect("non-empty"));
            }
        }
        while let Some(call) = wire.pop_front() {
            arrive(&mut x, call);
        }
        assert!(sent_copies > 10_000, "duplication must be exercised");
        assert!(host.adds < sent_copies, "duplicates must not re-dispatch");
        assert!(peak <= WINDOW, "peak {peak} exceeds the in-flight window");
        assert!(peak > 0, "the table must have been used");
        assert!(x.recorded.is_empty(), "every outcome retired");
    }
}
