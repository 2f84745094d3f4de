//! Content-addressed schedule memoization: the in-memory sharded cache
//! a [`CompileSession`](crate::CompileSession) consults before running a
//! scheduling pass.
//!
//! [`ScheduleCache`] maps a fingerprint to the full
//! `(Result<Schedule, SchedFailure>, DecisionStats)` a backend produced.
//! A hit clones the stored run — byte-identical to a recompute because
//! the framework is deterministic per input. The map is sharded by the
//! key's low bits so the parallel corpus pool doesn't serialize on one
//! lock.

use std::collections::HashMap;
use std::sync::Mutex;

use lsms_ir::Fingerprint;
use lsms_sched::{DecisionStats, SchedFailure, Schedule};

/// Number of independently locked shards. More than the worker count on
/// any plausible host, so corpus workers rarely contend.
const SHARDS: usize = 16;

/// What one memoized backend run stores: everything the session needs
/// to reproduce the run's observable outcome without scheduling.
#[derive(Clone, Debug)]
pub(crate) struct CachedRun {
    /// The schedule or the deterministic failure.
    pub result: Result<Schedule, SchedFailure>,
    /// The §5.2 decision tallies of the run.
    pub decisions: DecisionStats,
}

/// The sharded in-memory tier.
#[derive(Debug, Default)]
pub(crate) struct ScheduleCache {
    shards: [Mutex<HashMap<u128, CachedRun>>; SHARDS],
}

impl ScheduleCache {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn shard(&self, key: Fingerprint) -> &Mutex<HashMap<u128, CachedRun>> {
        &self.shards[(key.0 as usize) % SHARDS]
    }

    pub(crate) fn get(&self, key: Fingerprint) -> Option<CachedRun> {
        self.shard(key)
            .lock()
            .expect("schedule cache shard")
            .get(&key.0)
            .cloned()
    }

    /// Inserts a computed run. Racing inserts for the same key carry
    /// identical values (the framework is deterministic), so first-in
    /// wins and the loser's clone is simply dropped.
    pub(crate) fn insert(&self, key: Fingerprint, run: CachedRun) {
        self.shard(key)
            .lock()
            .expect("schedule cache shard")
            .entry(key.0)
            .or_insert(run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_sched::SchedStats;

    #[test]
    fn cache_round_trips_failures_too() {
        let cache = ScheduleCache::new();
        let key = Fingerprint(42);
        assert!(cache.get(key).is_none());
        cache.insert(
            key,
            CachedRun {
                result: Err(SchedFailure {
                    last_ii: 9,
                    stats: SchedStats::default(),
                    deadline_capped: false,
                    out_of_range: false,
                }),
                decisions: DecisionStats::default(),
            },
        );
        let hit = cache.get(key).expect("stored");
        assert_eq!(hit.result.unwrap_err().last_ii, 9);
    }
}
