#![warn(missing_docs)]
//! The SM allocator: shard placement and load balancing (§5).
//!
//! This layer turns Shard Manager's placement state — servers with
//! capacities, shards with replica loads and policies — into a
//! constraint-solver problem (`sm-solver`), runs it, and diffs the
//! result into an [`AllocationPlan`] of replica moves. It implements the
//! §5.1 contract:
//!
//! **Hard constraints**: server capacity on every balanced metric; no
//! two replicas of a shard on one server; and system-stability caps on
//! concurrent moves (enforced at plan-execution time by
//! [`MoveScheduler`]).
//!
//! **Soft goals, high to low priority**: (1) region preference,
//! (2) spread of replicas across region/data-center/rack, (3) draining
//! servers with pending maintenance, (4) the utilization threshold,
//! (5) load balancing.
//!
//! Allocations run in one of two modes (§5.1): the **emergency** mode
//! places unassigned replicas as fast as possible while honoring hard
//! constraints (it may temporarily worsen soft goals); the **periodic**
//! mode optimizes everything under the full goal list.

pub mod input;
pub mod plan;
pub(crate) mod runner;
pub(crate) mod throttle;

pub use input::{AllocConfig, AllocInput, PlacementSource, ServerInfo, ShardPlacement};
pub use plan::{AllocationPlan, ReplicaMove};
pub use runner::{Allocator, PeriodicProblem};
pub use throttle::{MoveCaps, MoveScheduler};
