#![warn(missing_docs)]
//! Shared domain vocabulary for the Shard Manager reproduction.
//!
//! This crate defines the identifiers, key-space abstractions, topology
//! model, load metrics, application policies, and assignment structures
//! used by every other crate in the workspace. It is dependency-light by
//! design: substrates (`sm-sim`, `sm-cluster`, ...) and the control plane
//! (`sm-core`) all speak these types.
//!
//! The modelling follows the paper's *app-key, app-sharding* abstraction
//! (§3.1): applications define shards as non-overlapping key ranges and
//! the framework never splits or merges them.

pub mod assignment;
pub(crate) mod error;
pub mod ids;
pub mod keys;
pub mod load;
pub mod policy;
pub(crate) mod table;
pub(crate) mod topology;

pub use assignment::{Assignment, ReplicaAssignment, ShardMap, ShardMapEntry};
pub use error::SmError;
pub use ids::{
    AppId, ContainerId, MachineId, MiniSmId, PartitionId, RegionId, ReplicaRole, ServerId, ShardId,
};
pub use keys::{AppKey, KeyRange, ShardingSpec};
pub use load::{Fixed, LoadVector, Metric, MetricId, METRIC_COUNT};
pub use policy::{
    AppPolicy, DataPersistency, DeploymentMode, DrainPolicy, LoadBalancePolicy, ReplicationMode,
};
pub use table::ShardTable;
pub use topology::{FaultDomain, Location};
