//! The shared request plane: one router, N routing threads.
//!
//! A [`ConcurrentRouter`] holds the latest [`ResolvedMap`] kernel of
//! every app in a table behind a `RwLock`, sorted by app id. No route
//! reads that table: each thread routes through its own
//! [`RouterHandle`], which caches the kernels it has used — as the
//! paper's client library caches its shard map — and revalidates them
//! with one atomic load of the router's stamp. Only a handle whose
//! stamp is stale takes the read lock, to clone its app's `Arc`s: once
//! per published version, so a route takes no lock while its handle's
//! kernel is current.
//!
//! Writers serialize on a writer mutex. A writer reads its app's entry,
//! builds the next kernel outside the table lock, holds the write lock
//! only to store the entry, then bumps the stamp. Reads never wait for
//! each other or for a build; the stamp is loaded before the entry is
//! read and bumped after it is stored, so a racing publish leaves a
//! cache conservatively stale, never falsely fresh.
//!
//! What an install costs: a stale or duplicate version, a lock and a
//! compare; a new one, the ranges of the shards in leaves the new map and
//! the held one do not share ([`ResolvedMap::with_map`]) — the spec's
//! columns stay, the kernel takes the map it is handed (sharing every
//! leaf), and the replaced map frees only the leaves nothing else reads. A full
//! [`ResolvedMap::build`] is `register_app`'s and an app's first map's.
//!
//! Each handle also owns the per-thread route state the paper's client
//! library keeps thread-local: a round-robin cursor for secondary-only
//! shards.

use crate::resolved::{ResolvedMap, RouteDecision};
use sm_types::{AppId, AppKey, ShardId, ShardMap, ShardingSpec, SmError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// One app's installed state, which a writer replaces whole.
#[derive(Clone)]
struct AppEntry {
    app: AppId,
    spec: Option<Arc<ShardingSpec>>,
    /// The kernel of the installed map, which holds that map.
    resolved: Option<Arc<ResolvedMap>>,
}

/// The entry for `app` in `apps` (sorted by app id), if any.
fn app_entry(apps: &[AppEntry], app: AppId) -> Option<&AppEntry> {
    let idx = apps.partition_point(|e| e.app < app);
    apps.get(idx).filter(|e| e.app == app)
}

/// A shard-map router shared by N threads: reads from per-handle
/// caches, serialized writes. Threads route through per-thread
/// [`RouterHandle`]s obtained from [`ConcurrentRouter::handle`].
pub struct ConcurrentRouter {
    /// Every app's entry, sorted by app id: read-locked by a stale
    /// handle's refresh, write-locked only to store a built entry.
    table: RwLock<Vec<AppEntry>>,
    /// Cache-invalidation stamp for handles; bumped after each store.
    stamp: AtomicU64,
    /// Serializes writers, so no install checks its version against an
    /// entry another writer is about to replace.
    writer: Mutex<()>,
}

impl ConcurrentRouter {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self {
            table: RwLock::new(Vec::new()),
            stamp: AtomicU64::new(0),
            writer: Mutex::new(()),
        }
    }

    /// Returns a per-thread handle. Never fails: a handle claims no
    /// shared resource.
    pub fn handle(self: &Arc<Self>) -> Result<RouterHandle, SmError> {
        Ok(RouterHandle {
            router: Arc::clone(self),
            rr_cursor: 0,
            apps: Vec::new(),
        })
    }

    /// Registers (or replaces) `app`'s sharding spec; an already
    /// installed map is re-resolved against the new spec.
    pub fn register_app(&self, app: AppId, spec: ShardingSpec) {
        let _writer = self.writer_guard();
        let spec = Arc::new(spec);
        let mut entry = self.entry(app);
        entry.resolved = entry
            .resolved
            .map(|kernel| Arc::new(ResolvedMap::build(Some(&spec), kernel.map())));
        entry.spec = Some(spec);
        self.store(entry);
    }

    /// Installs a shard map for `app`. An app that already has a kernel
    /// gets [`ResolvedMap::with_map`] of it — the kernel in place was
    /// resolved against `entry.spec`, which only `register_app` writes,
    /// and that re-resolves — so an install re-reads the primaries of
    /// the ranges whose shards changed and keeps the spec's columns.
    ///
    /// Returns `false` (and publishes nothing) when `app` already has a
    /// map at the same or a newer version — a stale or out-of-order
    /// dissemination never replaces a newer map, and costs a lock and a
    /// compare.
    pub fn install_map(&self, app: AppId, map: ShardMap) -> bool {
        let _writer = self.writer_guard();
        let mut entry = self.entry(app);
        if entry
            .resolved
            .as_ref()
            .is_some_and(|held| map.version <= held.version())
        {
            return false;
        }
        let resolved = match &entry.resolved {
            Some(kernel) => kernel.with_map(map),
            None => ResolvedMap::build(entry.spec.as_deref(), &map),
        };
        entry.resolved = Some(Arc::new(resolved));
        self.store(entry);
        true
    }

    /// The installed map version for `app` (0 when none), read from the
    /// table — a convenience for tests and tooling, not the read path.
    pub fn map_version(&self, app: AppId) -> u64 {
        app_entry(&self.read_table(), app)
            .and_then(|e| e.resolved.as_ref())
            .map_or(0, |kernel| kernel.version())
    }

    /// Replaced kernels awaiting reclamation (diagnostics): always 0, as
    /// a replaced kernel is freed with its last `Arc`.
    pub fn retired_backlog(&self) -> usize {
        0
    }

    /// Acquires the writer mutex, recovering from poisoning: a panicked
    /// writer stores whole entries, so it cannot leave a torn one.
    fn writer_guard(&self) -> MutexGuard<'_, ()> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Read-locks the table, recovering from poisoning as above.
    fn read_table(&self) -> RwLockReadGuard<'_, Vec<AppEntry>> {
        self.table.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// `app`'s entry with its `Arc`s cloned, or an empty one.
    fn entry(&self, app: AppId) -> AppEntry {
        app_entry(&self.read_table(), app)
            .cloned()
            .unwrap_or(AppEntry {
                app,
                spec: None,
                resolved: None,
            })
    }

    /// Stores `entry` in the table, then bumps the stamp so every
    /// handle revalidates. Caller holds the writer mutex.
    fn store(&self, entry: AppEntry) {
        let replaced = {
            let mut apps = self.table.write().unwrap_or_else(PoisonError::into_inner);
            let idx = apps.partition_point(|e| e.app < entry.app);
            match apps.get_mut(idx) {
                Some(slot) if slot.app == entry.app => Some(std::mem::replace(slot, entry)),
                _ => {
                    apps.insert(idx, entry);
                    None
                }
            }
        };
        self.stamp.fetch_add(1, Ordering::Release);
        // Outside the lock: freeing a replaced 16K-shard kernel must not
        // hold up a refreshing reader.
        drop(replaced);
    }

    /// A stale handle's refresh: `app`'s state, cloned under the read
    /// lock.
    fn read_app(&self, app: AppId) -> CachedApp {
        // Loaded *before* the table so a store racing past us leaves the
        // cached stamp conservatively stale (never falsely fresh).
        let stamp = self.stamp.load(Ordering::Acquire);
        let apps = self.read_table();
        let entry = app_entry(&apps, app);
        CachedApp {
            app,
            stamp,
            registered: entry.is_some_and(|e| e.spec.is_some()),
            resolved: entry.and_then(|e| e.resolved.clone()),
        }
    }
}

impl Default for ConcurrentRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ConcurrentRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentRouter")
            .field("stamp", &self.stamp.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// One app's cached read-side state inside a handle.
struct CachedApp {
    app: AppId,
    /// The router stamp at (or before) the read that produced this
    /// entry; a differing live stamp forces a refresh.
    stamp: u64,
    /// Whether a sharding spec is registered (key routing requires one).
    registered: bool,
    resolved: Option<Arc<ResolvedMap>>,
}

/// A per-thread routing handle: routing takes `&mut self`, but all
/// mutation is thread-local (round-robin cursor, per-app kernel
/// cache). The fast path is one atomic stamp load plus the kernel's
/// binary search — no lock, no allocation, no shared write; a stale
/// cache entry is refreshed under the router's read lock, once per
/// published version.
pub struct RouterHandle {
    router: Arc<ConcurrentRouter>,
    rr_cursor: u64,
    /// Cached per-app state, sorted by app id.
    apps: Vec<CachedApp>,
}

impl RouterHandle {
    /// Index of a validated cache entry for `app`, refreshing it from
    /// the router's table when the router stamp has moved.
    fn fresh_entry(&mut self, app: AppId) -> usize {
        let now = self.router.stamp.load(Ordering::Acquire);
        let idx = self.apps.partition_point(|e| e.app < app);
        let fresh = self
            .apps
            .get(idx)
            .is_some_and(|e| e.app == app && e.stamp == now);
        if fresh {
            return idx;
        }
        let entry = self.router.read_app(app);
        match self.apps.get_mut(idx) {
            Some(cached) if cached.app == app => *cached = entry,
            _ => self.apps.insert(idx, entry),
        }
        idx
    }

    /// Routes `key` within `app`: primary preferred, secondary-only
    /// shards round-robined with this handle's cursor.
    ///
    /// Errors: `app` has no registered spec → `NotFound`; `key` falls
    /// in a gap of the spec → `NotFound`; no map installed yet →
    /// `Unavailable` (retryable).
    pub fn route(&mut self, app: AppId, key: &AppKey) -> Result<RouteDecision, SmError> {
        let idx = self.fresh_entry(app);
        let entry = self
            .apps
            .get(idx)
            .ok_or_else(|| SmError::not_found(format!("app {app} not registered")))?;
        if !entry.registered {
            return Err(SmError::not_found(format!("app {app} not registered")));
        }
        match &entry.resolved {
            Some(resolved) => resolved.route(key, &mut self.rr_cursor),
            None => Err(SmError::Unavailable(format!("no shard map for {app}"))),
        }
    }

    /// Routes directly to `shard` within `app`.
    pub fn route_shard(&mut self, app: AppId, shard: ShardId) -> Result<RouteDecision, SmError> {
        let idx = self.fresh_entry(app);
        match self.apps.get(idx).and_then(|e| e.resolved.as_ref()) {
            Some(resolved) => resolved.route_shard(shard, &mut self.rr_cursor),
            None => Err(SmError::Unavailable(format!("no shard map for {app}"))),
        }
    }

    /// The map version this handle currently routes `app` with (0 when
    /// no map is installed).
    pub fn map_version(&mut self, app: AppId) -> u64 {
        let idx = self.fresh_entry(app);
        self.apps
            .get(idx)
            .and_then(|e| e.resolved.as_ref())
            .map(|r| r.version())
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for RouterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHandle")
            .field("rr_cursor", &self.rr_cursor)
            .field("cached_apps", &self.apps.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_types::{Assignment, KeyRange, ReplicaRole, ServerId};

    fn map(version: u64, shards: u64) -> ShardMap {
        let mut a = Assignment::new();
        for s in 0..shards {
            a.add_replica(
                ShardId(s),
                ServerId((version + s) as u32),
                ReplicaRole::Primary,
            )
            .unwrap();
        }
        ShardMap::from_assignment(version, &a)
    }

    #[test]
    fn a_handle_routes_by_the_installed_map() {
        let router = Arc::new(ConcurrentRouter::new());
        router.register_app(AppId(1), ShardingSpec::uniform_u64(8));
        assert!(router.install_map(AppId(1), map(3, 8)));
        let mut h = router.handle().unwrap();
        let d = h.route(AppId(1), &AppKey::from_u64(0)).unwrap();
        assert_eq!(d.shard, ShardId(0));
        assert_eq!(d.server, ServerId(3));
        assert_eq!(d.map_version, 3);
        assert_eq!(h.map_version(AppId(1)), 3);
        assert_eq!(router.map_version(AppId(1)), 3);
    }

    #[test]
    fn unregistered_is_not_found_and_mapless_is_unavailable() {
        let router = Arc::new(ConcurrentRouter::new());
        let mut h = router.handle().unwrap();
        let e = h.route(AppId(9), &AppKey::from_u64(0)).unwrap_err();
        assert!(matches!(e, SmError::NotFound(_)), "{e}");

        router.register_app(AppId(9), ShardingSpec::uniform_u64(2));
        let e = h.route(AppId(9), &AppKey::from_u64(0)).unwrap_err();
        assert!(matches!(e, SmError::Unavailable(_)), "{e}");
        assert!(e.is_retryable());
        assert!(e.to_string().contains("no shard map"), "{e}");

        // Registered and mapped, but the spec leaves the key uncovered.
        let range = KeyRange::new(AppKey::from_u64(10), AppKey::from_u64(20));
        router.register_app(
            AppId(9),
            ShardingSpec::new(vec![(range, ShardId(0))]).unwrap(),
        );
        assert!(router.install_map(AppId(9), map(1, 1)));
        assert!(h.route(AppId(9), &AppKey::from_u64(15)).is_ok());
        let e = h.route(AppId(9), &AppKey::from_u64(25)).unwrap_err();
        assert!(matches!(e, SmError::NotFound(_)), "{e}");
    }

    #[test]
    fn stale_installs_are_rejected_and_version_zero_installs() {
        let router = Arc::new(ConcurrentRouter::new());
        // A first map at version 0 must install on an empty entry.
        assert!(router.install_map(AppId(1), map(0, 2)));
        assert!(router.install_map(AppId(1), map(5, 2)));
        assert!(!router.install_map(AppId(1), map(5, 2)), "same version");
        assert!(!router.install_map(AppId(1), map(4, 2)), "older version");
        assert_eq!(router.map_version(AppId(1)), 5);
    }

    #[test]
    fn spec_after_map_resolves_keys() {
        let router = Arc::new(ConcurrentRouter::new());
        assert!(router.install_map(AppId(1), map(1, 4)));
        let mut h = router.handle().unwrap();
        // Map but no spec: shard routing works, key routing is NotFound.
        assert!(h.route_shard(AppId(1), ShardId(2)).is_ok());
        assert!(h.route(AppId(1), &AppKey::from_u64(0)).is_err());
        router.register_app(AppId(1), ShardingSpec::uniform_u64(4));
        let d = h.route(AppId(1), &AppKey::from_u64(0)).unwrap();
        assert_eq!(d.shard, ShardId(0));
    }

    #[test]
    fn a_respecified_app_reroutes_keys_after_a_split() {
        // Before the split shard 0 owns the low quarter of the key
        // space, served (at version 1) from server 1.
        let router = Arc::new(ConcurrentRouter::new());
        let spec = ShardingSpec::uniform_u64(4);
        router.register_app(AppId(1), spec.clone());
        assert!(router.install_map(AppId(1), map(1, 4)));
        let mut h = router.handle().unwrap();
        let key = AppKey::from_u64(1);
        let d = h.route(AppId(1), &key).unwrap();
        assert_eq!((d.shard, d.server), (ShardId(0), ServerId(1)));

        // The control plane splits shard 0 into shards 4 and 5 and
        // publishes the rewritten spec plus the map that first carries
        // the children.
        let at = spec.range_of(ShardId(0)).unwrap().midpoint().unwrap();
        let spec = spec
            .split_shard(ShardId(0), &at, ShardId(4), ShardId(5))
            .unwrap();
        let mut a = Assignment::new();
        for (shard, server) in [(1, 3), (2, 4), (3, 5), (4, 20), (5, 21)] {
            a.add_replica(ShardId(shard), ServerId(server), ReplicaRole::Primary)
                .unwrap();
        }
        router.register_app(AppId(1), spec);
        assert!(router.install_map(AppId(1), ShardMap::from_assignment(2, &a)));

        // Low half of the old range → left child, high half → right,
        // untouched shards unchanged.
        let d = h.route(AppId(1), &key).unwrap();
        assert_eq!((d.shard, d.server), (ShardId(4), ServerId(20)));
        let d = h
            .route(AppId(1), &AppKey::from_u64(u64::MAX / 4 - 1))
            .unwrap();
        assert_eq!((d.shard, d.server), (ShardId(5), ServerId(21)));
        let d = h.route(AppId(1), &AppKey::from_u64(u64::MAX)).unwrap();
        assert_eq!((d.shard, d.server), (ShardId(3), ServerId(5)));
    }

    #[test]
    fn handle_cache_sees_new_installs() {
        let router = Arc::new(ConcurrentRouter::new());
        router.register_app(AppId(1), ShardingSpec::uniform_u64(2));
        router.install_map(AppId(1), map(1, 2));
        let mut h = router.handle().unwrap();
        assert_eq!(
            h.route(AppId(1), &AppKey::from_u64(0)).unwrap().map_version,
            1
        );
        router.install_map(AppId(1), map(2, 2));
        assert_eq!(
            h.route(AppId(1), &AppKey::from_u64(0)).unwrap().map_version,
            2
        );
    }

    #[test]
    fn multi_app_cache_stays_coherent_across_single_app_installs() {
        let router = Arc::new(ConcurrentRouter::new());
        for app in [1u32, 2] {
            router.register_app(AppId(app), ShardingSpec::uniform_u64(2));
            router.install_map(AppId(app), map(1, 2));
        }
        let mut h = router.handle().unwrap();
        assert_eq!(h.map_version(AppId(1)), 1);
        assert_eq!(h.map_version(AppId(2)), 1);
        // Installing for app 1 must not leave app 2's cache pinned stale
        // forever: both entries revalidate against the global stamp.
        router.install_map(AppId(1), map(7, 2));
        router.install_map(AppId(2), map(9, 2));
        assert_eq!(h.map_version(AppId(1)), 7);
        assert_eq!(h.map_version(AppId(2)), 9);
    }
}
