#![warn(missing_docs)]
//! Service discovery and client-side request routing (§3.2).
//!
//! The orchestrator publishes versioned shard maps into the
//! [`DiscoveryService`], which fans them out to subscribed routers
//! through a multi-level distribution tree — modelled here by a per-
//! subscriber propagation delay that grows with tree depth. A client
//! (the paper's Service Router library) resolves an application key to
//! the owning shard by the app's sharding spec, then picks a server
//! from the latest shard map it has received. Because dissemination is
//! asynchronous, clients can be stale; the protocols in `sm-core`
//! (request forwarding during graceful migration) are what keep that
//! staleness from turning into dropped requests.
//!
//! Routing is the [`ResolvedMap`] kernel's — an immutable, dense,
//! allocation-free form of one app's spec + shard map, built once per
//! published version; whoever holds a kernel routes by it (primary
//! first, round robin over secondaries, or nearest replica). One
//! front-end shares kernels: [`ConcurrentRouter`] / [`RouterHandle`]
//! keep one epoch-swapped kernel set for N real threads with zero
//! read-side locks (see DESIGN.md, "Request-plane throughput").

pub mod concurrent;
pub mod discovery;
pub mod hashing;
pub mod resolved;

pub use concurrent::{ConcurrentRouter, RouterHandle};
pub use discovery::{DiscoveryService, SubscriberId};
pub use hashing::{ConsistentHashRing, StaticSharding};
pub use resolved::{ResolvedMap, RouteDecision};
