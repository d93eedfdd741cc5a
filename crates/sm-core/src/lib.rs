#![warn(missing_docs)]
//! Shard Manager's control plane — the paper's primary contribution.
//!
//! - `api` — the programming model (Figure 11): the five callbacks an
//!   application server implements (`add_shard`, `drop_shard`,
//!   `change_role`, `prepare_add_shard`, `prepare_drop_shard`) and the
//!   RPC/command vocabulary the orchestrator speaks.
//! - [`orchestrator`] — per-partition shard orchestration: desired
//!   assignment, the five-step graceful primary migration (§4.3),
//!   failure-driven emergency re-placement, load collection, periodic
//!   load balancing, and drain execution.
//! - `books` — the orchestrator's authoritative state and every index
//!   derived from it, written by four event calls and rebuilt on
//!   restore.
//! - `taskcontroller` — the TaskControl endpoint (§4.1): reviews
//!   pending container operations from *all* regional cluster managers
//!   and approves the maximal subset that keeps every shard within its
//!   availability caps, requesting drains first where policy demands.
//! - [`control_plane`] — the ZooKeeper-free half of the scale-out
//!   architecture (Figure 14): the application manager (partitioning)
//!   and the partition registry.
//! - [`exchange`] — the idempotent control-plane RPC exchange: one
//!   correlation id per transmission resolved exactly once, host-side
//!   at-most-once apply with outcome replay, and the §3.2 rule that a
//!   fenced host refuses every grant.
//! - [`ha`] — the running half of Figure 14 and its fault tolerance
//!   (§3.2, §6.2): `HaControlPlane` holds the application registry
//!   (its policies), the read service (its two indices), the frontend
//!   (its ack and watch routing) and the `MiniSm`s, with fenced state
//!   persistence in ZooKeeper znodes, ephemeral-node liveness for
//!   mini-SMs and servers, watch-driven failure detection, and
//!   partition failover with snapshot bootstrap.
//! - `splitter` — the adaptive shard splitter (beyond the paper):
//!   key-range split/merge decisions the orchestrator executes with a
//!   generalized (1→2, 2→1) graceful migration.

pub(crate) mod api;
mod books;
mod change;
pub mod control_plane;
pub mod exchange;
pub mod ha;
pub mod orchestrator;
mod rev;
pub(crate) mod splitter;
mod taskcontroller;

pub use api::{OrchCommand, ServerRpc, ShardServer};
pub use control_plane::{ApplicationManager, Partition, PartitionRegistry};
pub use exchange::RpcExchange;
pub use ha::{HaControlPlane, HaStats, MiniSm, ServerLease, ZkLease};
pub use orchestrator::{Orchestrator, OrchestratorConfig};
pub use splitter::{SplitScaler, SplitScalerConfig};
pub use taskcontroller::{AvailabilityView, TaskController, TcReview};
