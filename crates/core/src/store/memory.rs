//! The in-memory [`ModelStore`] backend.

use parking_lot::Mutex;
use std::collections::BTreeMap;

use crate::metrics::StoreMetrics;

use super::ModelStore;

/// An in-memory store: state survives across campaigns within one
/// process (e.g. consecutive service sessions in a benchmark driver).
#[derive(Debug, Default)]
pub struct MemoryStore {
    entries: Mutex<BTreeMap<String, String>>,
    metrics: StoreMetrics,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the store holds no state.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

impl ModelStore for MemoryStore {
    fn save(&self, key: &str, state: &str) {
        self.metrics.record_save();
        self.entries
            .lock()
            .insert(key.to_string(), state.to_string());
    }

    fn load(&self, key: &str) -> Option<String> {
        self.metrics.record_load();
        self.entries.lock().get(key).cloned()
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_round_trips() {
        let store = MemoryStore::new();
        assert!(store.is_empty());
        assert_eq!(store.load("a"), None);
        store.save("a", "{\"x\":1}");
        store.save("a", "{\"x\":2}");
        assert_eq!(store.load("a").as_deref(), Some("{\"x\":2}"));
        assert_eq!(store.len(), 1);
        let m = store.metrics().snapshot();
        assert_eq!((m.saves, m.loads), (2, 2));
    }
}
