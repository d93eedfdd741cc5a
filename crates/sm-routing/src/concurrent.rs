//! The shared, lock-free-read request plane.
//!
//! A [`ConcurrentRouter`] holds the latest [`ResolvedMap`] kernels for
//! every app behind a hand-rolled epoch-swap cell (arc-swap style, std
//! only): readers pin an epoch, load the current core through an
//! `AtomicPtr`, clone the `Arc`s they need and unpin — never taking a
//! lock. Writers serialize behind a `Mutex`, publish a rebuilt core by
//! pointer swap, and reclaim retired cores once no reader can still
//! hold them (epoch-based reclamation; see `publish_locked`).
//!
//! What an install costs: a stale or duplicate version, a lock and a
//! compare; a new one, the app list, one flat pass over the map and one
//! over the ranges ([`ResolvedMap::with_map`]) — the spec's key columns
//! stay, and the replaced map frees only the leaves nothing else reads.
//! A full [`ResolvedMap::build`] is `register_app`'s and an app's first
//! map's.
//!
//! Each thread routes through its own [`RouterHandle`], which owns the
//! per-thread route state the paper's client library keeps thread-local:
//! a round-robin cursor for secondary-only shards and a per-app cache of
//! the last-seen kernel, revalidated with a single atomic stamp load.
//!
//! # Epoch-swap protocol
//!
//! Reader pin (per [`ConcurrentRouter::read_app`]):
//! 1. `e = epoch.load(SeqCst)`; `slot.pinned.store(e, SeqCst)`;
//!    re-check `epoch.load(SeqCst) == e`, retry on mismatch;
//! 2. `core = current.load(SeqCst)` — safe to dereference (below);
//! 3. clone the needed `Arc`s; `slot.pinned.store(IDLE, Release)`.
//!
//! Writer publish (under the writer mutex):
//! 1. `old = current.swap(new, SeqCst)`;
//! 2. `tag = epoch.fetch_add(1, SeqCst)` — `old` was current while the
//!    epoch read `tag`;
//! 3. park `(tag, old)` on the garbage list; bump the cache stamp;
//! 4. scan `min_pinned` over all reader slots (`SeqCst`) and free every
//!    parked core with `tag < min_pinned`.
//!
//! Reclamation argument: a reader whose re-check succeeded at epoch `e`
//! dereferences a core that was still current at some instant when the
//! epoch was ≥ `e`, and the core current during epoch `t` is retired
//! with tag exactly `t` — so the reader's core has tag ≥ `e`. In the
//! `SeqCst` total order the reader's `pinned.store(e)` precedes its
//! successful epoch re-check, which precedes any `fetch_add` moving the
//! epoch past `e`, which precedes that publish's `min_pinned` scan;
//! hence any writer retiring a tag ≥ `e` core observes `pinned = e` and
//! keeps every parked core with tag ≥ `e` alive. Freeing tags below
//! `min_pinned` can therefore never free a core a reader still holds.

use crate::resolved::{ResolvedMap, RouteDecision};
use sm_types::{AppId, AppKey, ShardId, ShardMap, ShardingSpec, SmError};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// "Not pinned" sentinel: no real epoch reaches `u64::MAX`.
const IDLE: u64 = u64::MAX;

/// Default reader-slot count — an upper bound on concurrently live
/// [`RouterHandle`]s, sized far above any realistic thread count.
const DEFAULT_SLOTS: usize = 128;

/// One reader's pin slot: claimed for the lifetime of a handle, pinned
/// only inside a read-side critical section.
struct ReaderSlot {
    claimed: AtomicBool,
    pinned: AtomicU64,
}

/// One app's installed state inside a core snapshot.
struct AppEntry {
    app: AppId,
    spec: Option<Arc<ShardingSpec>>,
    raw: Option<Arc<ShardMap>>,
    resolved: Option<Arc<ResolvedMap>>,
}

/// An immutable snapshot of every app's routing state; swapped wholesale
/// on each write and shared with readers by pointer.
struct RouterCore {
    /// Entries sorted by app id (binary-searched on the read path).
    apps: Vec<AppEntry>,
}

impl RouterCore {
    /// The entry for `app`, if any.
    // sm-lint: hot-path
    fn app_entry(&self, app: AppId) -> Option<&AppEntry> {
        let idx = self.apps.partition_point(|e| e.app < app);
        match self.apps.get(idx) {
            Some(e) if e.app == app => Some(e),
            _ => None,
        }
    }
}

/// Writer-only state, serialized behind the writer mutex.
struct WriterState {
    /// Retired cores awaiting reclamation, tagged with the epoch during
    /// which they were current.
    garbage: Vec<(u64, Arc<RouterCore>)>,
}

/// A shard-map router shared by N threads: zero-lock reads, serialized
/// writes, epoch-based reclamation. Threads route through per-thread
/// [`RouterHandle`]s obtained from [`ConcurrentRouter::handle`].
pub struct ConcurrentRouter {
    /// The live core, published by pointer swap. Always a valid pointer
    /// produced by `Arc::into_raw`; retired (and eventually dropped)
    /// only by `publish_locked` under the writer mutex.
    current: AtomicPtr<RouterCore>,
    /// Advances by one at each publish; readers pin it.
    epoch: AtomicU64,
    /// Cache-invalidation stamp for handles; bumped after each publish.
    stamp: AtomicU64,
    /// Fixed reader-slot array (index = handle's slot).
    slots: Vec<ReaderSlot>,
    writer: Mutex<WriterState>,
}

impl ConcurrentRouter {
    /// Creates an empty router with the default reader-slot capacity.
    pub fn new() -> Self {
        Self::with_slots(DEFAULT_SLOTS)
    }

    /// Creates an empty router with capacity for `slots` concurrent
    /// handles (at least one).
    pub(crate) fn with_slots(slots: usize) -> Self {
        let n = if slots == 0 { 1 } else { slots };
        let core: Arc<RouterCore> = Arc::new(RouterCore { apps: Vec::new() });
        let mut slot_vec = Vec::with_capacity(n);
        for _ in 0..n {
            slot_vec.push(ReaderSlot {
                claimed: AtomicBool::new(false),
                pinned: AtomicU64::new(IDLE),
            });
        }
        Self {
            current: AtomicPtr::new(Arc::into_raw(core) as *mut RouterCore),
            epoch: AtomicU64::new(0),
            stamp: AtomicU64::new(0),
            slots: slot_vec,
            writer: Mutex::new(WriterState {
                garbage: Vec::new(),
            }),
        }
    }

    /// Claims a reader slot and returns a per-thread handle.
    ///
    /// Fails with [`SmError::Rejected`] when every slot is claimed by a
    /// live handle; a dropped handle frees its slot.
    pub fn handle(self: &Arc<Self>) -> Result<RouterHandle, SmError> {
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .claimed
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(RouterHandle {
                    router: Arc::clone(self),
                    slot: i,
                    rr_cursor: 0,
                    apps: Vec::new(),
                });
            }
        }
        Err(SmError::Rejected(format!(
            "all {} reader slots claimed",
            self.slots.len()
        )))
    }

    /// Registers (or replaces) `app`'s sharding spec; an already
    /// installed map is re-resolved against the new spec.
    pub fn register_app(&self, app: AppId, spec: ShardingSpec) {
        let mut w = self.writer_guard();
        let spec = Arc::new(spec);
        let mut apps = self.clone_apps_locked();
        let idx = apps.partition_point(|e| e.app < app);
        match apps.get_mut(idx) {
            Some(entry) if entry.app == app => {
                entry.resolved = entry
                    .raw
                    .as_ref()
                    .map(|m| Arc::new(ResolvedMap::build(Some(&spec), m)));
                entry.spec = Some(spec);
            }
            _ => apps.insert(
                idx,
                AppEntry {
                    app,
                    spec: Some(spec),
                    raw: None,
                    resolved: None,
                },
            ),
        }
        self.publish_locked(&mut w, RouterCore { apps });
    }

    /// Installs a shard map for `app`. An app that already has a kernel
    /// gets [`ResolvedMap::with_map`] of it — the kernel in place was
    /// resolved against `entry.spec`, which only `register_app` writes,
    /// and that re-resolves — so an install re-reads the table and the
    /// ranges' primaries and keeps the spec's key columns.
    ///
    /// Returns `false` (and publishes nothing) when `app` already has a
    /// map at the same or a newer version — a stale or out-of-order
    /// dissemination never replaces a newer map, and costs a lock and a
    /// compare.
    pub fn install_map(&self, app: AppId, map: ShardMap) -> bool {
        let mut w = self.writer_guard();
        if self
            .version_locked(app)
            .is_some_and(|held| map.version <= held)
        {
            return false;
        }
        let mut apps = self.clone_apps_locked();
        let idx = apps.partition_point(|e| e.app < app);
        match apps.get_mut(idx) {
            Some(entry) if entry.app == app => {
                let resolved = match &entry.resolved {
                    Some(kernel) => kernel.with_map(&map),
                    None => ResolvedMap::build(entry.spec.as_deref(), &map),
                };
                entry.resolved = Some(Arc::new(resolved));
                entry.raw = Some(Arc::new(map));
            }
            _ => {
                let resolved = Some(Arc::new(ResolvedMap::build(None, &map)));
                apps.insert(
                    idx,
                    AppEntry {
                        app,
                        spec: None,
                        raw: Some(Arc::new(map)),
                        resolved,
                    },
                );
            }
        }
        self.publish_locked(&mut w, RouterCore { apps });
        true
    }

    /// The installed map version for `app` (0 when none) — a writer-side
    /// convenience for tests and tooling, not the read path.
    pub fn map_version(&self, app: AppId) -> u64 {
        let _w = self.writer_guard();
        self.version_locked(app).unwrap_or(0)
    }

    /// The version of `app`'s installed map, if it has one. Caller must
    /// hold the writer mutex.
    fn version_locked(&self, app: AppId) -> Option<u64> {
        // SAFETY: retirement of the current core only happens inside
        // `publish_locked`, which the held writer lock excludes;
        // `current` always points at a live `Arc::into_raw` core.
        let core = unsafe { &*self.current.load(Ordering::SeqCst) };
        Some(core.app_entry(app)?.raw.as_ref()?.version)
    }

    /// Number of retired cores still awaiting reclamation (diagnostics;
    /// bounded by the number of publishes since the oldest live pin).
    pub fn retired_backlog(&self) -> usize {
        self.writer_guard().garbage.len()
    }

    /// Acquires the writer mutex, recovering from poisoning (a panicked
    /// writer leaves only unreclaimed garbage, never a torn core).
    fn writer_guard(&self) -> MutexGuard<'_, WriterState> {
        match self.writer.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Clones the live core's app list for copy-on-write mutation.
    /// Caller must hold the writer mutex.
    fn clone_apps_locked(&self) -> Vec<AppEntry> {
        // SAFETY: as in `version_locked` — the writer lock excludes
        // retirement, so the pointer is valid for the borrow's duration.
        let core = unsafe { &*self.current.load(Ordering::SeqCst) };
        let mut out = Vec::with_capacity(core.apps.len() + 1);
        for e in core.apps.iter() {
            out.push(AppEntry {
                app: e.app,
                spec: e.spec.clone(),
                raw: e.raw.clone(),
                resolved: e.resolved.clone(),
            });
        }
        out
    }

    /// Publishes `core` as the new live snapshot and reclaims every
    /// retired core no reader can still hold (protocol in the module
    /// docs). Caller passes the held writer guard.
    fn publish_locked(&self, w: &mut MutexGuard<'_, WriterState>, core: RouterCore) {
        let fresh = Arc::into_raw(Arc::new(core)) as *mut RouterCore;
        let old = self.current.swap(fresh, Ordering::SeqCst);
        let tag = self.epoch.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `old` was produced by `Arc::into_raw` (in `with_slots`
        // or a previous publish) and is reclaimed exactly once, here.
        let old = unsafe { Arc::from_raw(old) };
        w.garbage.push((tag, old));
        self.stamp.fetch_add(1, Ordering::Release);
        let min_pinned = self.min_pinned();
        w.garbage.retain(|(t, _)| *t >= min_pinned);
    }

    /// The smallest pinned epoch across reader slots ([`IDLE`] = none).
    fn min_pinned(&self) -> u64 {
        let mut min = IDLE;
        for slot in self.slots.iter() {
            let p = slot.pinned.load(Ordering::SeqCst);
            if p < min {
                min = p;
            }
        }
        min
    }

    /// The lock-free read-side critical section: pin, load the current
    /// core, clone `app`'s state, unpin.
    // sm-lint: hot-path
    fn read_app(&self, slot: usize, app: AppId) -> CachedApp {
        // Loaded *before* the core so a publish racing past us leaves
        // the cached stamp conservatively stale (never falsely fresh).
        let stamp = self.stamp.load(Ordering::Acquire);
        let Some(pin) = self.slots.get(slot) else {
            // Unreachable: handles only hold indices from `handle()`.
            return CachedApp {
                app,
                stamp,
                registered: false,
                resolved: None,
            };
        };
        loop {
            let e = self.epoch.load(Ordering::SeqCst);
            pin.pinned.store(e, Ordering::SeqCst);
            if self.epoch.load(Ordering::SeqCst) == e {
                break;
            }
        }
        // SAFETY: this slot is pinned at an epoch ≤ the retirement tag
        // of whatever core we now load, so `publish_locked` keeps it
        // alive until we unpin (module-level reclamation argument).
        let core = unsafe { &*self.current.load(Ordering::SeqCst) };
        let entry = core.app_entry(app);
        let out = CachedApp {
            app,
            stamp,
            registered: entry.is_some_and(|e| e.spec.is_some()),
            resolved: entry.and_then(|e| e.resolved.clone()),
        };
        pin.pinned.store(IDLE, Ordering::Release);
        out
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
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("slots", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl Drop for ConcurrentRouter {
    fn drop(&mut self) {
        // SAFETY: `&mut self` excludes readers and writers; reclaim the
        // live core (parked garbage drops with the writer state).
        unsafe {
            drop(Arc::from_raw(*self.current.get_mut()));
        }
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
/// cache). The fast path is one atomic stamp load plus the
/// kernel's binary search — no locks, no allocation, no shared writes.
pub struct RouterHandle {
    router: Arc<ConcurrentRouter>,
    slot: usize,
    rr_cursor: u64,
    /// Cached per-app state, sorted by app id.
    apps: Vec<CachedApp>,
}

impl RouterHandle {
    /// Index of a validated cache entry for `app`, refreshing it from
    /// the shared core when the router stamp has moved.
    // sm-lint: hot-path
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
        let entry = self.router.read_app(self.slot, app);
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
    // sm-lint: hot-path
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
    // sm-lint: hot-path
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
            .field("slot", &self.slot)
            .field("rr_cursor", &self.rr_cursor)
            .field("cached_apps", &self.apps.len())
            .finish_non_exhaustive()
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if let Some(slot) = self.router.slots.get(self.slot) {
            slot.pinned.store(IDLE, Ordering::Release);
            slot.claimed.store(false, Ordering::Release);
        }
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

    #[test]
    fn slots_exhaust_and_recycle() {
        let router = Arc::new(ConcurrentRouter::with_slots(2));
        let h1 = router.handle().unwrap();
        let h2 = router.handle().unwrap();
        let e = router.handle().unwrap_err();
        assert!(matches!(e, SmError::Rejected(_)), "{e}");
        drop(h1);
        let _h3 = router.handle().expect("slot recycled after drop");
        drop(h2);
    }

    #[test]
    fn retired_cores_are_reclaimed_when_no_reader_pins() {
        let router = Arc::new(ConcurrentRouter::new());
        router.register_app(AppId(1), ShardingSpec::uniform_u64(2));
        for v in 1..=50 {
            router.install_map(AppId(1), map(v, 2));
        }
        // With every slot idle, each publish frees all parked cores.
        assert_eq!(router.retired_backlog(), 0);
    }
}
