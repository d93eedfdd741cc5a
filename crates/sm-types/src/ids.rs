//! Strongly-typed identifiers.
//!
//! Every entity in the system gets its own newtype so that an
//! application id can never be confused with a shard id at a call site.
//! All ids are small `Copy` integers; human-readable names live in the
//! registries that mint them.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw integer value.
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// A sharded application registered with Shard Manager.
    AppId,
    u32,
    "app"
);
id_type!(
    /// A shard within one application (application-chosen, §3.1).
    ShardId,
    u64,
    "shard"
);
id_type!(
    /// An application server process: a container hosting shards.
    ServerId,
    u32,
    "srv"
);
id_type!(
    /// A container managed by the cluster manager. In this reproduction a
    /// container and the application server inside it share the same
    /// numeric id, so `ContainerId(n)` hosts `ServerId(n)`.
    ContainerId,
    u32,
    "ctr"
);
id_type!(
    /// A physical machine.
    MachineId,
    u32,
    "m"
);
id_type!(
    /// A geographic region (e.g. FRC, PRN, ODN in §8.3).
    RegionId,
    u16,
    "region"
);
id_type!(
    /// A partition of a large application (§6.1): a set of servers and
    /// shards managed together by one mini-SM.
    PartitionId,
    u32,
    "part"
);
id_type!(
    /// One mini-SM instance in the scale-out control plane (§6.1).
    MiniSmId,
    u32,
    "minism"
);

/// The role a shard replica plays (§2.2.3).
///
/// A shard has at most one primary plus any number of secondaries. The
/// primary typically handles writes and is migrated gracefully (§4.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ReplicaRole {
    /// The single leader replica of a shard.
    Primary,
    /// A follower replica; a shard may have many.
    Secondary,
}

impl ReplicaRole {
    /// Returns true for [`ReplicaRole::Primary`].
    pub const fn is_primary(self) -> bool {
        matches!(self, ReplicaRole::Primary)
    }
}

impl fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaRole::Primary => write!(f, "primary"),
            ReplicaRole::Secondary => write!(f, "secondary"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_use_prefixes() {
        assert_eq!(AppId(7).to_string(), "app7");
        assert_eq!(ShardId(42).to_string(), "shard42");
        assert_eq!(ServerId(3).to_string(), "srv3");
        assert_eq!(RegionId(1).to_string(), "region1");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(ShardId(1) < ShardId(2));
        assert!(AppId(0) < AppId(1));
    }

    #[test]
    fn raw_round_trips() {
        assert_eq!(MachineId::from(5).raw(), 5);
        assert_eq!(ContainerId(9).raw(), 9);
    }

    #[test]
    fn roles() {
        assert!(ReplicaRole::Primary.is_primary());
        assert!(!ReplicaRole::Secondary.is_primary());
        assert_eq!(ReplicaRole::Primary.to_string(), "primary");
    }
}
