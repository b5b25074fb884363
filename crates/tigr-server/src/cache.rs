//! The source-keyed LRU result cache.
//!
//! Keys cover everything that determines a result: graph name, the
//! analytic, the source node, its bound, and the overlay epoch. Values are `Arc`-shared so a hit hands the
//! caller the cached array without copying. Hit / miss / eviction
//! counters feed the `stats` protocol verb.
//!
//! Cancelled (deadline-expired) runs are **never** inserted — the
//! server only caches results whose run converged, so a cached entry is
//! always a complete answer (see `tests/serve_integration.rs` for the
//! regression that pins this down).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::protocol::Algo;

/// Everything that determines a cached result.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registered graph name.
    pub graph: String,
    /// Analytic.
    pub algo: Algo,
    /// Source node (`None` for the sourceless analytics).
    pub source: Option<u32>,
    /// Algo-specific bound (`k` / `radius` / `rounds`; `None` for
    /// unlimited analytics) — part of the answer, so part of the key.
    pub limit: Option<u32>,
    /// Plan tag. Every host plan answers the same bytes (any
    /// `kernel_threads`), so the server always writes `"host"`; the
    /// member stays because `benchmark/`'s cache probe builds keys
    /// with it.
    pub plan: &'static str,
    /// Overlay generation the query was pinned to (`0` for static
    /// graphs) — a mutation bumps the epoch, so stale results are
    /// unreachable rather than invalidated.
    pub epoch: u64,
}

/// A complete cached answer.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// Final per-node values (PR ranks as `f32` bit patterns).
    pub values: Arc<Vec<u32>>,
    /// Iterations the original run took.
    pub iterations: u64,
    /// Wire checksum of `values`.
    pub checksum: u64,
}

struct Entry {
    value: CachedResult,
    /// Monotone access stamp; the smallest stamp is the LRU victim.
    stamp: u64,
}

/// Counter snapshot for the stats verb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a complete entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheCounters {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded LRU map from [`CacheKey`] to [`CachedResult`].
///
/// Eviction scans for the minimum stamp — O(capacity), which at the
/// configured sizes (hundreds of entries) is noise next to running a
/// graph analytic, and keeps the structure a single `HashMap`.
pub struct ResultCache {
    inner: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct Lru {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` results; `0` disables caching
    /// entirely (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Lru {
                map: HashMap::new(),
                clock: 0,
                capacity,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        let mut lru = self.inner.lock().unwrap();
        lru.clock += 1;
        let stamp = lru.clock;
        match lru.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = stamp;
                let value = entry.value.clone();
                drop(lru);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(lru);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `value` under `key`, evicting the least-recently-used
    /// entry if the cache is at capacity.
    pub fn insert(&self, key: CacheKey, value: CachedResult) {
        let mut lru = self.inner.lock().unwrap();
        if lru.capacity == 0 {
            return;
        }
        lru.clock += 1;
        let stamp = lru.clock;
        if !lru.map.contains_key(&key) && lru.map.len() >= lru.capacity {
            if let Some(victim) = lru
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                lru.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        lru.map.insert(key, Entry { value, stamp });
    }

    /// Current counter values.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().unwrap().map.len() as u64,
        }
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("ResultCache")
            .field("entries", &c.entries)
            .field("hits", &c.hits)
            .field("misses", &c.misses)
            .field("evictions", &c.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(graph: &str, source: u32) -> CacheKey {
        CacheKey {
            graph: graph.into(),
            algo: Algo::Bfs,
            source: Some(source),
            limit: None,
            plan: "host",
            epoch: 0,
        }
    }

    fn result(tag: u32) -> CachedResult {
        CachedResult {
            values: Arc::new(vec![tag; 4]),
            iterations: u64::from(tag),
            checksum: u64::from(tag) * 7,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = ResultCache::new(4);
        assert!(cache.get(&key("g", 0)).is_none());
        cache.insert(key("g", 0), result(1));
        let hit = cache.get(&key("g", 0)).unwrap();
        assert_eq!(*hit.values, vec![1; 4]);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions, c.entries), (1, 1, 0, 1));
        assert!((c.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.insert(key("g", 0), result(0));
        cache.insert(key("g", 1), result(1));
        // Touch 0 so 1 becomes the LRU victim.
        cache.get(&key("g", 0)).unwrap();
        cache.insert(key("g", 2), result(2));
        assert!(cache.get(&key("g", 0)).is_some());
        assert!(cache.get(&key("g", 1)).is_none(), "victim survived");
        assert!(cache.get(&key("g", 2)).is_some());
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn distinct_key_dimensions_do_not_alias() {
        let cache = ResultCache::new(8);
        cache.insert(key("g", 0), result(1));
        assert!(cache.get(&key("h", 0)).is_none(), "graph name aliased");
        let mut pr = key("g", 0);
        pr.algo = Algo::Pr;
        assert!(cache.get(&pr).is_none(), "algo aliased");
        let mut limited = key("g", 0);
        limited.algo = Algo::Khop;
        cache.insert(limited.clone(), result(2));
        let mut other_limit = limited.clone();
        other_limit.limit = Some(3);
        assert!(cache.get(&other_limit).is_none(), "limit aliased");
        let mut other_epoch = key("g", 0);
        other_epoch.epoch = 1;
        assert!(cache.get(&other_epoch).is_none(), "epoch aliased");
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResultCache::new(0);
        cache.insert(key("g", 0), result(1));
        assert!(cache.get(&key("g", 0)).is_none());
        assert_eq!(cache.counters().entries, 0);
    }

    #[test]
    fn reinsert_same_key_does_not_evict() {
        let cache = ResultCache::new(2);
        cache.insert(key("g", 0), result(0));
        cache.insert(key("g", 1), result(1));
        cache.insert(key("g", 0), result(9));
        assert_eq!(cache.counters().evictions, 0);
        assert_eq!(*cache.get(&key("g", 0)).unwrap().values, vec![9; 4]);
    }
}
