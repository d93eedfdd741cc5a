#![warn(missing_docs)]
//! Deterministic discrete-event simulation substrate.
//!
//! Every experiment in this workspace runs on the same single-threaded
//! event loop with a seeded RNG, so each figure is exactly reproducible
//! from its seed. This crate substitutes for the paper's production
//! testbed (§8): the evaluation figures are all *shapes over time* —
//! request success rate, latency, violation counts — which a
//! deterministic simulator reproduces faithfully.
//!
//! The pieces:
//!
//! - [`time`] — simulated clock types ([`SimTime`], [`SimDuration`]).
//! - `engine` — the event loop: a [`Simulation`] drives a user-defined
//!   [`World`] by delivering timestamped events in order.
//! - [`rng`] — a seeded RNG with the sampling helpers components need.
//! - [`net`] — a region-pair latency model (the FRC/PRN/ODN geometry of
//!   §8.3 ships as a preset) plus [`SimNet`], a message-level network
//!   with seeded partitions, drops, and duplication for DST runs.
//! - [`faults`] — seeded fault plans (crashes, session expiries,
//!   partitions, lossy-net windows) and the named [`FaultProfile`]s the
//!   swarm runner sweeps.
//! - [`oracle`] — the always-on invariant [`Oracle`] checking the
//!   paper's safety claims continuously during a run.
//! - [`trace`] — time-series recording for the figure harness.
//! - [`stats`] — percentiles and windowed counters.

pub(crate) mod engine;
pub mod faults;
pub mod net;
pub mod oracle;
mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Ctx, Simulation, World};
pub use faults::{fault_plan, Fault, FaultPlanConfig, FaultProfile};
pub use net::{CopySet, Endpoint, LatencyModel, NetStats, PartitionSpec, SimNet, Transmission};
pub use oracle::{InvariantKind, Oracle, OracleViolation};
pub use rng::SimRng;
pub use stats::percentile;
pub use time::{SimDuration, SimTime};
pub use trace::{Series, TraceLog};
