#![warn(missing_docs)]
//! A ReBalancer-like generic constraint solver (§5.2–§5.3).
//!
//! The solver assigns *entities* (shard replicas) to *bins* (servers)
//! subject to hard capacity constraints and a prioritized list of soft
//! goals, expressed through a high-level spec API mirroring Figure 13 of
//! the paper. Internally it runs local search: starting from the current
//! assignment, it repeatedly moves entities off the bins whose
//! constraint/goal violations hurt the objective most, keeping the best
//! evaluated move each round.
//!
//! The scalability techniques of §5.3 are all implemented, each behind a
//! switch so the Figure 22 ablation can toggle them:
//!
//! - **Equivalence classes** — entities with identical loads and
//!   placement preferences are deduplicated when enumerating candidate
//!   moves ("reuses the computation for equivalent shards").
//! - **Incremental objective tree** — per-bin penalties are leaves
//!   under a maintained sum, so a move re-evaluates only the touched
//!   bins and the total objective updates in O(1) per bin ("a tree of
//!   variables ... O(log(n)) complexity").
//! - **Swap moves** — two-way swaps are considered when single moves
//!   stall.
//! - **Grouped target sampling** — candidate destination bins are
//!   sampled across property groups (region × utilization band) instead
//!   of uniformly at random, which finds feasible targets for region
//!   preference and spread goals much faster.
//! - **Goal batching** — goals are activated in priority batches,
//!   earlier batches getting longer search budgets.
//! - **Large-shards-first** — entities on a hot bin are evaluated in
//!   decreasing load order.

pub(crate) mod eval;
pub(crate) mod parallel;
pub mod penalty_tree;
pub(crate) mod problem;
pub(crate) mod search;
pub(crate) mod specs;

pub use eval::{Evaluator, ViolationStats};
pub use parallel::ParallelSearch;
pub use problem::{Bin, BinId, Entity, EntityId, GroupId, Problem};
pub use search::{LocalSearch, SearchConfig, SearchStats};
pub use specs::{
    AffinitySpec, BalanceSpec, CapacitySpec, DrainSpec, ExclusionSpec, Scope, Spec, SpecSet,
    UtilizationCapSpec,
};
