//! Known gaps, pinned as they stand (tier-1).
//!
//! Each test here reproduces a defect DESIGN.md lists under "Known
//! gaps" and asserts today's (wrong) behaviour, so the gap cannot
//! silently change shape. The fix inverts the assertions its doc names.

use shard_manager::apps::kit::{default_orch_config, loc};
use shard_manager::apps::{AppResponse, ShardHost};
use shard_manager::core::{OrchCommand, Orchestrator, ServerRpc};
use shard_manager::types::{AppId, AppPolicy, LoadVector, Metric, ServerId, ShardId};
use std::collections::BTreeMap;

/// Applies one control-plane RPC to a host (`ShardHost` is the
/// bookkeeping, not a `ShardServer`).
fn apply(host: &mut ShardHost, rpc: ServerRpc) {
    let applied = match rpc {
        ServerRpc::AddShard { shard, role } => host.add_shard(shard, role),
        ServerRpc::DropShard { shard } => host.drop_shard(shard),
        ServerRpc::ChangeRole {
            shard,
            current,
            new,
        } => host.change_role(shard, current, new),
        ServerRpc::PrepareAddShard {
            shard,
            current_owner,
            role,
        } => host.prepare_add_shard(shard, current_owner, role),
        ServerRpc::PrepareDropShard {
            shard,
            new_owner,
            role,
        } => host.prepare_drop_shard(shard, new_owner, role),
        ServerRpc::SplitForward { .. } | ServerRpc::MergeForward { .. } => {
            panic!("no reshard in this repro: {rpc:?}")
        }
    };
    applied.unwrap_or_else(|e| panic!("{rpc:?}: {e}"));
}

/// Delivers every pending command and acks it, except the RPCs `fail`
/// picks, which are answered with `rpc_failed` and never applied.
fn settle(
    cp: &mut Orchestrator,
    hosts: &mut BTreeMap<ServerId, ShardHost>,
    mut fail: impl FnMut(ServerId, ServerRpc) -> bool,
) {
    for _ in 0..100 {
        let cmds = cp.take_commands();
        if cmds.is_empty() {
            return;
        }
        for cmd in cmds {
            let OrchCommand::Rpc { server, rpc } = cmd else {
                continue;
            };
            if fail(server, rpc) {
                cp.rpc_failed(server, rpc);
            } else {
                apply(hosts.entry(server).or_default(), rpc);
                cp.rpc_acked(server, rpc);
            }
        }
    }
    panic!("the orchestrator never went quiet");
}

/// §4.3's black hole: a graceful move whose step-3 `AddShard` fails is
/// aborted and its target reclaimed, but the source is never told to
/// resume, so it keeps forwarding to a server that refuses the shard.
///
/// The fix (ROADMAP item 1: a resume ordered behind the target's
/// reclaim ack) inverts the assertions after the control plane's: the
/// host block and the repair check. `srv0` serves `shard0` again
/// instead of forwarding it into `srv1`'s `NotMine`, so there is
/// nothing left to repair.
#[test]
fn an_aborted_graceful_move_black_holes_its_shard() {
    let (srv0, srv1, srv2) = (ServerId(0), ServerId(1), ServerId(2));
    let shard0 = ShardId(0);
    let capacity = || LoadVector::single(Metric::ShardCount.id(), 1000.0);
    let mut cp = Orchestrator::new(AppId(0), AppPolicy::primary_only(), default_orch_config());
    let mut hosts = BTreeMap::new();

    // srv0 alone takes all four shards.
    cp.register_server(srv0, loc(0), capacity());
    cp.register_shards((0..4).map(ShardId));
    cp.run_emergency();
    settle(&mut cp, &mut hosts, |_, _| false);
    assert_eq!(cp.assignment().primary_of(shard0), Some(srv0));

    // Two empty servers join; draining srv0 moves every shard off it
    // gracefully. The first AddShard of shard0 (step 3, to srv1) fails.
    cp.register_server(srv1, loc(1), capacity());
    cp.register_server(srv2, loc(2), capacity());
    assert!(cp.drain_server(srv0) > 0);
    let mut failed = None;
    settle(&mut cp, &mut hosts, |server, rpc| {
        let first =
            failed.is_none() && matches!(rpc, ServerRpc::AddShard { shard, .. } if shard == shard0);
        if first {
            failed = Some(server);
        }
        first
    });
    assert_eq!(failed, Some(srv1), "shard0's step 3 went to srv1");

    // The control plane believes all is well: srv0 is shard0's primary
    // and nothing is in flight.
    assert_eq!(cp.assignment().primary_of(shard0), Some(srv0));
    assert_eq!(cp.in_flight_migrations(), 0);

    // The hosts disagree: srv0 still forwards (its step-2 rule stands)
    // to srv1, which holds nothing for shard0 and refuses it either way.
    assert_eq!(
        hosts[&srv0].admit(shard0, false),
        AppResponse::Forward(srv1)
    );
    assert_eq!(hosts[&srv1].admit(shard0, false), AppResponse::NotMine);
    assert_eq!(hosts[&srv1].admit(shard0, true), AppResponse::NotMine);

    // Nothing repairs it: the shard has its assigned primary, so an
    // emergency run plans nothing and sends nothing.
    assert_eq!(cp.run_emergency(), 0);
    assert!(cp.take_commands().is_empty());
}
