//! The znode tree, sessions, ephemerals, and watches.

use sm_types::SmError;
use std::collections::{BTreeMap, BTreeSet};

/// A client session; ephemeral nodes die with it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionId(pub u64);

/// How a znode is created.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CreateMode {
    /// A durable node.
    Persistent,
    /// Deleted automatically when its owning session expires.
    Ephemeral,
    /// Durable, with a monotonically increasing suffix appended to the
    /// requested path (e.g. `/locks/lock-` becomes `/locks/lock-0000000003`).
    PersistentSequential,
}

/// Node metadata returned by reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stat {
    /// Data version, incremented on every set.
    pub version: u64,
    /// Number of children.
    pub num_children: usize,
    /// Whether the node is ephemeral.
    pub ephemeral: bool,
}

/// What a fired watch observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WatchKind {
    /// The watched node was created.
    Created,
    /// The watched node's data changed.
    DataChanged,
    /// The watched node was deleted.
    Deleted,
    /// The watched node's child set changed.
    ChildrenChanged,
}

/// A fired watch: delivered to `watcher` about `path`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WatchEvent {
    /// The session that registered the watch.
    pub watcher: SessionId,
    /// The watched path.
    pub path: String,
    /// What happened.
    pub kind: WatchKind,
}

#[derive(Clone, Debug)]
struct Znode {
    data: Vec<u8>,
    version: u64,
    owner: Option<SessionId>,
    children: BTreeSet<String>,
    seq_counter: u64,
}

impl Znode {
    fn new(data: Vec<u8>, owner: Option<SessionId>) -> Self {
        Self {
            data,
            version: 0,
            owner,
            children: BTreeSet::new(),
            seq_counter: 0,
        }
    }
}

/// The coordination store.
///
/// # Examples
///
/// ```
/// use sm_zk::{CreateMode, ZkStore};
///
/// let mut zk = ZkStore::new();
/// let session = zk.connect();
/// zk.create(session, "/apps", b"".to_vec(), CreateMode::Persistent).unwrap();
/// zk.create(session, "/apps/kv", b"policy".to_vec(), CreateMode::Persistent).unwrap();
/// assert_eq!(zk.get("/apps/kv").unwrap().0, b"policy");
/// ```
#[derive(Clone, Debug, Default)]
pub struct ZkStore {
    nodes: BTreeMap<String, Znode>,
    next_session: u64,
    live_sessions: BTreeSet<SessionId>,
    /// One-shot data watches: path -> watching sessions.
    data_watches: BTreeMap<String, BTreeSet<SessionId>>,
    /// One-shot child watches: path -> watching sessions.
    child_watches: BTreeMap<String, BTreeSet<SessionId>>,
}

impl ZkStore {
    /// Creates an empty store containing only the root node `/`.
    pub fn new() -> Self {
        let mut store = Self::default();
        store
            .nodes
            .insert("/".to_string(), Znode::new(Vec::new(), None));
        store
    }

    /// Opens a new session.
    pub fn connect(&mut self) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.live_sessions.insert(id);
        id
    }

    /// Returns true if the session is live.
    pub fn session_alive(&self, session: SessionId) -> bool {
        self.live_sessions.contains(&session)
    }

    /// Expires a session: its pending watches are discarded, then its
    /// ephemeral nodes are deleted (firing the survivors' watches).
    ///
    /// Ordering matters: the expiring session's own watches must be
    /// dropped *before* its ephemerals are reaped, or it would be
    /// delivered events about its own death — real ZooKeeper never
    /// notifies an expired session. Surviving sessions watching the
    /// ephemerals (`watch_exists` on a node owned by the dying session)
    /// do get their `Deleted`/`ChildrenChanged` events.
    pub fn expire_session(&mut self, session: SessionId) -> Vec<WatchEvent> {
        self.live_sessions.remove(&session);
        for watches in self.data_watches.values_mut() {
            watches.remove(&session);
        }
        for watches in self.child_watches.values_mut() {
            watches.remove(&session);
        }
        let doomed: Vec<String> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.owner == Some(session))
            .map(|(p, _)| p.clone())
            .collect();
        let mut events = Vec::new();
        for path in doomed {
            // The node may already be gone if a parent ephemeral was
            // removed first (ephemerals cannot have children in real ZK;
            // we keep the same rule, so this is just defensive).
            if self.nodes.contains_key(&path) {
                events.extend(self.delete_unchecked(&path));
            }
        }
        events
    }

    fn validate_path(path: &str) -> Result<(), SmError> {
        if !path.starts_with('/') || (path.len() > 1 && path.ends_with('/')) {
            return Err(SmError::InvalidArgument(format!("bad path {path:?}")));
        }
        if path.contains("//") {
            return Err(SmError::InvalidArgument(format!("bad path {path:?}")));
        }
        Ok(())
    }

    // sm-lint: allow(P1) — rfind returns a char boundary inside path
    fn parent_of(path: &str) -> &str {
        match path.rfind('/') {
            Some(0) => "/",
            Some(i) => &path[..i],
            None => "/",
        }
    }

    /// Creates a node. Returns the actual path (which differs from the
    /// requested one for sequential nodes) plus fired watches.
    ///
    /// Fails if the node exists, the parent is missing, the parent is
    /// ephemeral, or the session is dead.
    pub fn create(
        &mut self,
        session: SessionId,
        path: &str,
        data: Vec<u8>,
        mode: CreateMode,
    ) -> Result<(String, Vec<WatchEvent>), SmError> {
        Self::validate_path(path)?;
        if !self.session_alive(session) {
            return Err(SmError::Unavailable(format!("session {session:?} expired")));
        }
        if path == "/" {
            return Err(SmError::Conflict("root already exists".into()));
        }
        let parent = Self::parent_of(path).to_string();
        let actual = {
            let parent_node = self
                .nodes
                .get_mut(&parent)
                .ok_or_else(|| SmError::not_found(format!("parent {parent}")))?;
            if parent_node.owner.is_some() {
                return Err(SmError::InvalidArgument(format!(
                    "ephemeral parent {parent} cannot have children"
                )));
            }
            match mode {
                CreateMode::PersistentSequential => {
                    let seq = parent_node.seq_counter;
                    parent_node.seq_counter += 1;
                    format!("{path}{seq:010}")
                }
                _ => path.to_string(),
            }
        };
        if self.nodes.contains_key(&actual) {
            return Err(SmError::conflict(format!("{actual} exists")));
        }
        let owner = match mode {
            CreateMode::Ephemeral => Some(session),
            _ => None,
        };
        self.nodes
            .get_mut(&parent)
            .ok_or_else(|| SmError::not_found(format!("parent {parent}")))?
            .children
            .insert(actual.clone());
        self.nodes.insert(actual.clone(), Znode::new(data, owner));
        let mut events = self.fire_data_watches(&actual, WatchKind::Created);
        events.extend(self.fire_child_watches(&parent));
        Ok((actual, events))
    }

    /// Reads a node's data and stat.
    pub fn get(&self, path: &str) -> Result<(Vec<u8>, Stat), SmError> {
        let node = self
            .nodes
            .get(path)
            .ok_or_else(|| SmError::not_found(path))?;
        Ok((
            node.data.clone(),
            Stat {
                version: node.version,
                num_children: node.children.len(),
                ephemeral: node.owner.is_some(),
            },
        ))
    }

    /// Returns true if the node exists.
    pub fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(path)
    }

    /// Overwrites a node's data. `expected_version` of `Some(v)` makes
    /// the write conditional (compare-and-set).
    pub fn set(
        &mut self,
        path: &str,
        data: Vec<u8>,
        expected_version: Option<u64>,
    ) -> Result<(u64, Vec<WatchEvent>), SmError> {
        let node = self
            .nodes
            .get_mut(path)
            .ok_or_else(|| SmError::not_found(path))?;
        if let Some(expected) = expected_version {
            if node.version != expected {
                return Err(SmError::conflict(format!(
                    "{path}: version {} != expected {expected}",
                    node.version
                )));
            }
        }
        node.data = data;
        node.version += 1;
        let version = node.version;
        let events = self.fire_data_watches(path, WatchKind::DataChanged);
        Ok((version, events))
    }

    /// Session-checked conditional write — the control-plane fencing
    /// primitive (§6.2). Like [`Self::set`], but the write is rejected
    /// with `Unavailable` when the writer's session has expired, before
    /// the version is even compared. A stale mini-SM that lost its
    /// session (or whose cached version was overtaken by a successor's
    /// write) therefore gets an [`SmError`] and the znode is untouched:
    /// it can degrade, but never clobber.
    pub fn set_as(
        &mut self,
        session: SessionId,
        path: &str,
        data: Vec<u8>,
        expected_version: Option<u64>,
    ) -> Result<(u64, Vec<WatchEvent>), SmError> {
        if !self.session_alive(session) {
            return Err(SmError::Unavailable(format!("session {session:?} expired")));
        }
        self.set(path, data, expected_version)
    }

    fn delete_unchecked(&mut self, path: &str) -> Vec<WatchEvent> {
        self.nodes.remove(path);
        let parent = Self::parent_of(path).to_string();
        if let Some(p) = self.nodes.get_mut(&parent) {
            p.children.remove(path);
        }
        let mut events = self.fire_data_watches(path, WatchKind::Deleted);
        events.extend(self.fire_child_watches(&parent));
        events
    }

    /// Lists a node's children (full paths), sorted.
    pub fn children(&self, path: &str) -> Result<Vec<String>, SmError> {
        let node = self
            .nodes
            .get(path)
            .ok_or_else(|| SmError::not_found(path))?;
        Ok(node.children.iter().cloned().collect())
    }

    /// Registers a one-shot watch on a node's existence/data. The node
    /// need not exist yet (a creation fires the watch).
    pub fn watch_data(&mut self, session: SessionId, path: &str) {
        self.data_watches
            .entry(path.to_string())
            .or_default()
            .insert(session);
    }

    /// Registers a one-shot existence watch: fires `Created` when the
    /// node appears, `Deleted` when it disappears — including the
    /// ephemeral reaping performed by [`Self::expire_session`] — and
    /// `DataChanged` on writes. Mechanically identical to
    /// [`Self::watch_data`]; the separate name documents the
    /// `exists`-style usage where the watcher tracks liveness of a node
    /// owned by *another* session.
    pub fn watch_exists(&mut self, session: SessionId, path: &str) {
        self.watch_data(session, path);
    }

    /// Registers a one-shot watch on a node's child set.
    pub fn watch_children(&mut self, session: SessionId, path: &str) {
        self.child_watches
            .entry(path.to_string())
            .or_default()
            .insert(session);
    }

    fn fire_data_watches(&mut self, path: &str, kind: WatchKind) -> Vec<WatchEvent> {
        let Some(watchers) = self.data_watches.remove(path) else {
            return Vec::new();
        };
        // BTreeSet iteration is already session-ordered.
        watchers
            .into_iter()
            .map(|watcher| WatchEvent {
                watcher,
                path: path.to_string(),
                kind,
            })
            .collect()
    }

    fn fire_child_watches(&mut self, path: &str) -> Vec<WatchEvent> {
        let Some(watchers) = self.child_watches.remove(path) else {
            return Vec::new();
        };
        watchers
            .into_iter()
            .map(|watcher| WatchEvent {
                watcher,
                path: path.to_string(),
                kind: WatchKind::ChildrenChanged,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (ZkStore, SessionId) {
        let mut zk = ZkStore::new();
        let s = zk.connect();
        (zk, s)
    }

    #[test]
    fn create_get_set_round_trip() {
        let (mut zk, s) = store();
        zk.create(s, "/a", b"1".to_vec(), CreateMode::Persistent)
            .unwrap();
        let (data, stat) = zk.get("/a").unwrap();
        assert_eq!(data, b"1");
        assert_eq!(stat.version, 0);
        assert!(!stat.ephemeral);

        let (v, _) = zk.set("/a", b"2".to_vec(), None).unwrap();
        assert_eq!(v, 1);
        assert_eq!(zk.get("/a").unwrap().0, b"2");
    }

    #[test]
    fn create_requires_parent() {
        let (mut zk, s) = store();
        let err = zk.create(s, "/a/b", vec![], CreateMode::Persistent);
        assert!(matches!(err, Err(SmError::NotFound(_))));
    }

    #[test]
    fn duplicate_create_conflicts() {
        let (mut zk, s) = store();
        zk.create(s, "/a", vec![], CreateMode::Persistent).unwrap();
        assert!(matches!(
            zk.create(s, "/a", vec![], CreateMode::Persistent),
            Err(SmError::Conflict(_))
        ));
    }

    #[test]
    fn conditional_set_checks_version() {
        let (mut zk, s) = store();
        zk.create(s, "/a", b"x".to_vec(), CreateMode::Persistent)
            .unwrap();
        assert!(zk.set("/a", b"y".to_vec(), Some(1)).is_err());
        zk.set("/a", b"y".to_vec(), Some(0)).unwrap();
        assert_eq!(zk.get("/a").unwrap().1.version, 1);
    }

    #[test]
    fn ephemeral_dies_with_session() {
        let mut zk = ZkStore::new();
        let s1 = zk.connect();
        let s2 = zk.connect();
        zk.create(s1, "/servers", vec![], CreateMode::Persistent)
            .unwrap();
        zk.create(s1, "/servers/srv1", vec![], CreateMode::Ephemeral)
            .unwrap();
        zk.create(s2, "/servers/srv2", vec![], CreateMode::Ephemeral)
            .unwrap();
        zk.expire_session(s1);
        assert!(!zk.exists("/servers/srv1"));
        assert!(zk.exists("/servers/srv2"));
        assert!(!zk.session_alive(s1));
        assert!(zk.session_alive(s2));
    }

    #[test]
    fn expired_session_cannot_create() {
        let (mut zk, s) = store();
        zk.expire_session(s);
        assert!(matches!(
            zk.create(s, "/a", vec![], CreateMode::Persistent),
            Err(SmError::Unavailable(_))
        ));
    }

    #[test]
    fn ephemeral_cannot_have_children() {
        let (mut zk, s) = store();
        zk.create(s, "/e", vec![], CreateMode::Ephemeral).unwrap();
        assert!(zk
            .create(s, "/e/child", vec![], CreateMode::Persistent)
            .is_err());
    }

    #[test]
    fn sequential_nodes_get_increasing_suffixes() {
        let (mut zk, s) = store();
        zk.create(s, "/q", vec![], CreateMode::Persistent).unwrap();
        let (p1, _) = zk
            .create(s, "/q/item-", vec![], CreateMode::PersistentSequential)
            .unwrap();
        let (p2, _) = zk
            .create(s, "/q/item-", vec![], CreateMode::PersistentSequential)
            .unwrap();
        assert_eq!(p1, "/q/item-0000000000");
        assert_eq!(p2, "/q/item-0000000001");
        assert!(p1 < p2);
        assert_eq!(zk.children("/q").unwrap(), vec![p1, p2]);
    }

    #[test]
    fn data_watch_fires_once_on_change() {
        let (mut zk, s) = store();
        let watcher = zk.connect();
        zk.create(s, "/a", vec![], CreateMode::Persistent).unwrap();
        zk.watch_data(watcher, "/a");
        let (_, events) = zk.set("/a", b"1".to_vec(), None).unwrap();
        assert_eq!(
            events,
            vec![WatchEvent {
                watcher,
                path: "/a".to_string(),
                kind: WatchKind::DataChanged
            }]
        );
        // One-shot: second change fires nothing.
        let (_, events) = zk.set("/a", b"2".to_vec(), None).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn watch_on_missing_node_fires_on_create() {
        let (mut zk, s) = store();
        let watcher = zk.connect();
        zk.watch_data(watcher, "/later");
        let (_, events) = zk
            .create(s, "/later", vec![], CreateMode::Persistent)
            .unwrap();
        assert_eq!(events[0].kind, WatchKind::Created);
    }

    #[test]
    fn delete_fires_data_and_child_watches() {
        let (mut zk, s) = store();
        let watcher = zk.connect();
        zk.create(s, "/parent", vec![], CreateMode::Persistent)
            .unwrap();
        zk.create(s, "/parent/kid", vec![], CreateMode::Ephemeral)
            .unwrap();
        zk.watch_data(watcher, "/parent/kid");
        zk.watch_children(watcher, "/parent");
        let events = zk.expire_session(s);
        let kinds: Vec<WatchKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&WatchKind::Deleted));
        assert!(kinds.contains(&WatchKind::ChildrenChanged));
    }

    #[test]
    fn expire_drops_pending_watches_of_that_session() {
        let (mut zk, s) = store();
        let watcher = zk.connect();
        zk.create(s, "/a", vec![], CreateMode::Persistent).unwrap();
        zk.watch_data(watcher, "/a");
        zk.expire_session(watcher);
        let (_, events) = zk.set("/a", b"1".to_vec(), None).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn exists_watch_expiry_notifies_survivors_only() {
        // Session A watches a node owned by session B; B also watches
        // its own node. When B expires, A (the survivor) must get the
        // Deleted event and B — already expired — must get nothing.
        let mut zk = ZkStore::new();
        let root = zk.connect();
        let a = zk.connect();
        let b = zk.connect();
        zk.create(root, "/minisms", vec![], CreateMode::Persistent)
            .unwrap();
        zk.create(b, "/minisms/m1", vec![], CreateMode::Ephemeral)
            .unwrap();
        zk.watch_exists(a, "/minisms/m1");
        zk.watch_exists(b, "/minisms/m1");
        zk.watch_children(a, "/minisms");
        zk.watch_children(b, "/minisms");

        let events = zk.expire_session(b);
        assert!(
            events.iter().all(|e| e.watcher != b),
            "an expired session must never be delivered watch events \
             from its own expiry: {events:?}"
        );
        let a_kinds: Vec<WatchKind> = events
            .iter()
            .filter(|e| e.watcher == a)
            .map(|e| e.kind)
            .collect();
        assert!(a_kinds.contains(&WatchKind::Deleted), "{events:?}");
        assert!(a_kinds.contains(&WatchKind::ChildrenChanged), "{events:?}");
    }

    #[test]
    fn exists_watch_sees_reregistration_after_expiry() {
        // After the Deleted event a survivor re-arms the watch and sees
        // the replacement ephemeral appear under a fresh session.
        let mut zk = ZkStore::new();
        let root = zk.connect();
        let a = zk.connect();
        let b = zk.connect();
        zk.create(root, "/servers", vec![], CreateMode::Persistent)
            .unwrap();
        zk.create(b, "/servers/srv0", vec![], CreateMode::Ephemeral)
            .unwrap();
        zk.watch_exists(a, "/servers/srv0");
        let events = zk.expire_session(b);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, WatchKind::Deleted);

        zk.watch_exists(a, "/servers/srv0"); // one-shot: re-arm
        let b2 = zk.connect();
        let (_, events) = zk
            .create(b2, "/servers/srv0", vec![], CreateMode::Ephemeral)
            .unwrap();
        assert_eq!(events[0].watcher, a);
        assert_eq!(events[0].kind, WatchKind::Created);
    }

    #[test]
    fn fenced_set_rejects_expired_session_without_writing() {
        let mut zk = ZkStore::new();
        let alive = zk.connect();
        let stale = zk.connect();
        zk.create(alive, "/state", b"v0".to_vec(), CreateMode::Persistent)
            .unwrap();
        zk.expire_session(stale);
        let err = zk.set_as(stale, "/state", b"stale".to_vec(), Some(0));
        assert!(matches!(err, Err(SmError::Unavailable(_))), "{err:?}");
        let (data, stat) = zk.get("/state").unwrap();
        assert_eq!(data, b"v0", "stale write must be absent");
        assert_eq!(stat.version, 0);
    }

    #[test]
    fn fenced_set_rejects_stale_version_without_writing() {
        let mut zk = ZkStore::new();
        let old_owner = zk.connect();
        let new_owner = zk.connect();
        zk.create(old_owner, "/state", b"v0".to_vec(), CreateMode::Persistent)
            .unwrap();
        // The new owner takes over and bumps the version.
        zk.set_as(new_owner, "/state", b"v1".to_vec(), Some(0))
            .unwrap();
        // The old owner's session is still alive (a zombie) but its
        // cached version is stale: BadVersion, znode untouched.
        let err = zk.set_as(old_owner, "/state", b"zombie".to_vec(), Some(0));
        assert!(matches!(err, Err(SmError::Conflict(_))), "{err:?}");
        assert_eq!(zk.get("/state").unwrap().0, b"v1");
    }

    #[test]
    fn path_validation() {
        let (mut zk, s) = store();
        for bad in ["a", "/a/", "//a", "/a//b"] {
            assert!(
                zk.create(s, bad, vec![], CreateMode::Persistent).is_err(),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn children_sorted_full_paths() {
        let (mut zk, s) = store();
        zk.create(s, "/d", vec![], CreateMode::Persistent).unwrap();
        zk.create(s, "/d/b", vec![], CreateMode::Persistent)
            .unwrap();
        zk.create(s, "/d/a", vec![], CreateMode::Persistent)
            .unwrap();
        assert_eq!(zk.children("/d").unwrap(), vec!["/d/a", "/d/b"]);
    }
}
