//! The Agile Object Naming Service.
//!
//! §3: *"In addition, the naming service is updated to reflect the new
//! location of the component."* Components are located by id; every
//! migration installs a new binding with a monotonically increasing version
//! so that late updates from slow migrations can never roll the registry
//! back (idempotence under message reordering).

use crate::transport::HostId;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Globally unique component identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub u64);

#[derive(Debug, Clone, Copy)]
struct Binding {
    host: HostId,
    version: u64,
}

/// Shared name service; cheap to clone.
#[derive(Debug, Clone, Default)]
pub struct NameService {
    table: Arc<RwLock<HashMap<ComponentId, Binding>>>,
}

impl NameService {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new component at `host`; returns its initial version (0).
    /// Re-registering an existing component is an error upstream and panics
    /// in debug builds.
    pub fn register(&self, id: ComponentId, host: HostId) -> u64 {
        let mut t = self.table.write().expect("naming write lock");
        debug_assert!(!t.contains_key(&id), "component {id:?} already registered");
        t.insert(id, Binding { host, version: 0 });
        0
    }

    /// Record a migration: bind `id` to `host` with `version`. Updates with
    /// a version not newer than the current binding are ignored; returns
    /// whether the update was applied.
    pub fn update(&self, id: ComponentId, host: HostId, version: u64) -> bool {
        let mut t = self.table.write().expect("naming write lock");
        match t.get_mut(&id) {
            Some(b) if version > b.version => {
                b.host = host;
                b.version = version;
                true
            }
            Some(_) => false,
            None => {
                t.insert(id, Binding { host, version });
                true
            }
        }
    }

    /// Current host of `id`, if registered.
    pub fn lookup(&self, id: ComponentId) -> Option<HostId> {
        self.table
            .read()
            .expect("naming read lock")
            .get(&id)
            .map(|b| b.host)
    }

    /// Current `(host, version)` of `id`.
    pub fn lookup_versioned(&self, id: ComponentId) -> Option<(HostId, u64)> {
        self.table
            .read()
            .expect("naming read lock")
            .get(&id)
            .map(|b| (b.host, b.version))
    }

    /// Bounded-retry lookup: wait for `id` to be bound to `host`, polling
    /// with exponential backoff (`base`, doubling, up to `tries` looks).
    ///
    /// The migration subsystem uses this after an admission commit whose
    /// *reply* timed out: if the commit actually landed, the receiving
    /// Admission Control updates the binding a moment later, so a brief
    /// retried lookup distinguishes "request lost, safe to retry" from
    /// "reply lost, component already transferred" — without which a retry
    /// would double-admit the component.
    pub fn await_binding(
        &self,
        id: ComponentId,
        host: HostId,
        tries: u32,
        base: std::time::Duration,
    ) -> bool {
        let mut backoff = base;
        for attempt in 0..tries {
            if self.lookup(id) == Some(host) {
                return true;
            }
            if attempt + 1 < tries {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
        }
        self.lookup(id) == Some(host)
    }

    /// Remove a completed component.
    pub fn unregister(&self, id: ComponentId) {
        self.table.write().expect("naming write lock").remove(&id);
    }

    /// Number of live bindings.
    pub fn len(&self) -> usize {
        self.table.read().expect("naming read lock").len()
    }

    /// True when no component is registered.
    pub fn is_empty(&self) -> bool {
        self.table.read().expect("naming read lock").is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_lookup_unregister() {
        let ns = NameService::new();
        ns.register(ComponentId(1), 3);
        assert_eq!(ns.lookup(ComponentId(1)), Some(3));
        assert_eq!(ns.len(), 1);
        ns.unregister(ComponentId(1));
        assert!(ns.is_empty());
        assert_eq!(ns.lookup(ComponentId(1)), None);
    }

    #[test]
    fn stale_updates_are_ignored() {
        let ns = NameService::new();
        ns.register(ComponentId(1), 0);
        assert!(ns.update(ComponentId(1), 5, 2));
        assert!(!ns.update(ComponentId(1), 9, 1), "older version must lose");
        assert!(!ns.update(ComponentId(1), 9, 2), "equal version must lose");
        assert_eq!(ns.lookup_versioned(ComponentId(1)), Some((5, 2)));
        assert!(ns.update(ComponentId(1), 9, 3));
        assert_eq!(ns.lookup(ComponentId(1)), Some(9));
    }

    #[test]
    fn await_binding_sees_a_late_update() {
        let ns = NameService::new();
        ns.register(ComponentId(5), 0);
        let writer = {
            let ns = ns.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                ns.update(ComponentId(5), 2, 1);
            })
        };
        assert!(ns.await_binding(ComponentId(5), 2, 8, std::time::Duration::from_millis(2)));
        writer.join().unwrap();
        // A binding that never lands reports false after the bounded looks.
        assert!(!ns.await_binding(ComponentId(5), 7, 3, std::time::Duration::from_micros(100)));
    }

    #[test]
    fn concurrent_updates_converge_to_highest_version() {
        let ns = NameService::new();
        ns.register(ComponentId(7), 0);
        let handles: Vec<_> = (1..=8u64)
            .map(|v| {
                let ns = ns.clone();
                std::thread::spawn(move || {
                    ns.update(ComponentId(7), v as HostId, v);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ns.lookup_versioned(ComponentId(7)), Some((8, 8)));
    }
}
