//! Per-artifact plan caches: a schedule is planned once per (artifact,
//! key) on first use and shared by every later execution.
//!
//! The mapping step depends only on the graph and the array
//! configuration, so it belongs to the prepared artifact rather than to
//! each query. A [`PreparedGraph`](crate::PreparedGraph) keeps its
//! scheduled placements here and a
//! [`ShardedPreparedGraph`](crate::ShardedPreparedGraph) its composition
//! plans. Plans are built lazily, by the first query that needs them,
//! never at preparation time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use tcim_telemetry::Counter;

/// Plans one artifact retains; beyond this the least recently used plan
/// is evicted.
pub const PLAN_CACHE_CAPACITY: usize = 8;

/// Occupancy and lookup counts of one artifact's plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Plans currently retained.
    pub plans: usize,
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that had to plan.
    pub misses: u64,
}

/// A small LRU of plans keyed by everything planning reads.
pub(crate) struct PlanCache<K, V> {
    /// Entries in least-recently-used-first order. Keys compare by
    /// value and the cache holds at most [`PLAN_CACHE_CAPACITY`], so a
    /// linear scan is the whole index. Planning runs outside the lock
    /// and no step under it can leave the list invalid, so a poisoned
    /// lock is recovered rather than propagated.
    entries: Mutex<Vec<(K, Arc<V>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Copy + PartialEq, V> PlanCache<K, V> {
    pub(crate) fn new() -> Self {
        PlanCache {
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The plan for `key`, running `plan` and inserting its result on a
    /// miss. The flag is `true` when the plan was already cached.
    /// Planning runs outside the lock; racing planners of one key agree
    /// on the first inserted plan.
    pub(crate) fn get_or_plan<E>(
        &self,
        key: K,
        plan: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        {
            let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
                let entry = entries.remove(pos);
                let found = Arc::clone(&entry.1);
                entries.push(entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((found, true));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(plan()?);
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, existing)) = entries.iter().find(|(k, _)| *k == key) {
            return Ok((Arc::clone(existing), false));
        }
        entries.push((key, Arc::clone(&built)));
        if entries.len() > PLAN_CACHE_CAPACITY {
            entries.remove(0);
        }
        Ok((built, false))
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            plans: self.entries.lock().unwrap_or_else(PoisonError::into_inner).len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl<K: Clone, V> Clone for PlanCache<K, V> {
    /// Shares the already-built plans (they describe the same artifact)
    /// with counters starting from zero: counts belong to one value.
    fn clone(&self) -> Self {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner).clone();
        PlanCache {
            entries: Mutex::new(entries),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K, V> std::fmt::Debug for PlanCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PlanCache(plans={}, hits={}, misses={})",
            self.entries.lock().unwrap_or_else(PoisonError::into_inner).len(),
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed)
        )
    }
}

/// Plan-cache lookups made through one pipeline, over every artifact it
/// executes — the `tcim_plan_cache_{hits,misses}_total` counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanLookups {
    hits: Counter,
    misses: Counter,
}

impl PlanLookups {
    pub(crate) fn record(&self, hit: bool) {
        if hit {
            self.hits.incr();
        } else {
            self.misses.incr();
        }
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits.get()
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_once_per_key_and_evicts_the_least_recently_used() {
        let cache: PlanCache<usize, usize> = PlanCache::new();
        let mut planned = 0;
        let mut get = |key: usize| {
            cache
                .get_or_plan(key, || {
                    planned += 1;
                    Ok::<_, ()>(key * 10)
                })
                .unwrap()
        };
        assert_eq!(*get(1).0, 10);
        let (again, hit) = get(1);
        assert!(hit);
        assert_eq!(*again, 10);
        for key in 2..=PLAN_CACHE_CAPACITY {
            get(key);
        }
        // Refresh 1, then overflow: 2 is the least recently used.
        get(1);
        get(PLAN_CACHE_CAPACITY + 1);
        assert!(get(1).1, "1 was refreshed, so it survived");
        assert!(!get(2).1, "2 was evicted and is planned again");
        assert_eq!(planned, PLAN_CACHE_CAPACITY + 2);
        let stats = cache.stats();
        assert_eq!(stats.plans, PLAN_CACHE_CAPACITY);
        assert_eq!(stats.misses, planned as u64);
    }

    #[test]
    fn failed_planning_caches_nothing() {
        let cache: PlanCache<u8, u8> = PlanCache::new();
        assert!(cache.get_or_plan(1, || Err::<u8, _>("invalid")).is_err());
        assert_eq!(cache.stats(), PlanCacheStats { plans: 0, hits: 0, misses: 1 });
        assert!(!cache.get_or_plan(1, || Ok::<_, ()>(7)).unwrap().1);
    }

    #[test]
    fn clones_share_plans_but_not_counts() {
        let cache: PlanCache<u8, u8> = PlanCache::new();
        let (plan, _) = cache.get_or_plan(1, || Ok::<_, ()>(7)).unwrap();
        let copy = cache.clone();
        let (shared, hit) = copy.get_or_plan(1, || Ok::<_, ()>(8)).unwrap();
        assert!(hit && Arc::ptr_eq(&plan, &shared));
        assert_eq!(copy.stats(), PlanCacheStats { plans: 1, hits: 1, misses: 0 });
    }
}
