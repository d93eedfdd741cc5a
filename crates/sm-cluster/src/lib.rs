#![warn(missing_docs)]
//! A Twine-like regional cluster manager.
//!
//! Shard Manager interacts with Facebook's cluster manager Twine through
//! a narrow surface (§3.2, §4.1): Twine deploys applications as groups
//! of containers, periodically notifies SM's TaskController of pending
//! container lifecycle operations, executes the subset the controller
//! approves, and gives advance notice of non-negotiable maintenance
//! events. This crate reproduces exactly that surface:
//!
//! - [`machine`] — machine fleet state (up, failed, in maintenance).
//! - [`container`] — containers (tasks) hosting application servers.
//! - [`ops`] — container lifecycle operations and maintenance events,
//!   with the planned/unplanned distinction that drives Figure 1.
//! - [`manager`] — the per-region [`ClusterManager`]: job deployment,
//!   rolling upgrades, failure injection, the TaskControl negotiation
//!   loop, and planned/unplanned stop accounting.
//!
//! Like the other substrates, the manager is a deterministic synchronous
//! state machine: mutating calls return the actions that must complete
//! later (e.g. "container X is down until +30 s"), and the embedding
//! simulation schedules those completions.

pub mod container;
pub mod machine;
pub(crate) mod manager;
pub mod ops;

pub use machine::Machine;
pub use manager::{ClusterManager, CmEvent, StopCounters};
pub use ops::{ContainerOp, MaintenanceEvent, MaintenanceImpact, OpId, OpKind, OpReason};
