#![warn(missing_docs)]
//! Example applications built on the SM programming model, plus the
//! integrated simulation harness that powers the paper's experiments.
//!
//! The applications mirror the workloads the paper names:
//!
//! - [`kv`] — a Laser-like soft-state key-value store with prefix scans
//!   (§3.1), data rebuilt from an external store on `add_shard`.
//! - `queue` — a primary-only queue service guaranteeing in-order
//!   delivery (§8.2's production example), reached through
//!   [`harness::AppKind::Queue`].
//! - [`replstore`] — a ZippyDB-like primary-secondary store over a
//!   compact replicated log ([`replication`]).
//!
//! [`forwarding`] implements the server-side states of the graceful
//! primary migration protocol (§4.3) shared by all of them, `client`
//! the one retry-and-forward step every simulated client takes, and
//! [`harness`] wires applications, the cluster manager, ZooKeeper,
//! the orchestrator, the TaskController, and service discovery into one
//! deterministic simulation world.
//!
//! The seeded chaos worlds are scenarios on one world kit:
//!
//! - [`kit`] — the single copy of the chaos-world plumbing: the
//!   simulated net, the idempotent control-plane RPC exchange
//!   ([`sm_core::exchange`]), the fault applier and failure detector,
//!   the run driver [`run`], [`shrink`], [`run_grid`], the reproducer
//!   codec, and the [`Report`] — generic over a small, statically
//!   dispatched [`Scenario`] trait.
//! - [`chaos`] — the ZooKeeper-backed HA control plane under mini-SM
//!   crashes, session expiries, partitions and lossy nets (its
//!   [`ChaosConfig::dst`] shape is the DST swarm's cell).
//! - `reconfig` — joint-consensus membership changes under
//!   drain/undrain churn.
//! - [`split`] — adaptive shard splitting and merging under a skew
//!   storm.
//! - [`dst`] — the ddmin plan-shrinking core and the JSON primitives
//!   the kit's `shrink` and codec build on.

pub mod chaos;
mod client;
pub mod dst;
pub mod forwarding;
pub mod harness;
pub mod kit;
pub mod kv;
pub(crate) mod queue;
pub(crate) mod reconfig;
pub mod replication;
pub mod replstore;
pub mod split;

pub use chaos::{run_chaos, Chaos, ChaosConfig, ChaosReport};
pub use forwarding::{AppResponse, ShardHost};
pub use harness::{ExperimentConfig, SimWorld, WorldEvent};
pub use kit::{repro_from_json, repro_to_json, run, run_grid, shrink, Report, Scenario};
pub use kv::{ExternalStore, KvServer};
pub use reconfig::{
    run_reconfig, Reconfig, ReconfigConfig, ReconfigEvent, ReconfigReport, ReconfigStats,
};
pub use replstore::ReplStoreServer;
pub use split::{run_split, Split, SplitConfig, SplitReport};
