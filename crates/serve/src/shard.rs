//! Sharded, self-healing session store — the crate's one store.
//!
//! [`ShardedStore`] spreads sessions across K directory shards (K = 1 is a
//! single-directory deployment: `ShardedStore::open(dir, ShardConfig::new(1))`).
//! Each shard directory holds the checksum-framed, write-then-rename
//! generations described in the [`crate::store`] module docs.  Routing is
//! deterministic rendezvous (highest-random-weight) hashing over the shard
//! *names*: each `(session id, shard name)` pair gets an FNV-1a score and
//! the highest score wins.  Adding or removing a shard therefore only moves
//! the sessions whose winning shard changed — every other id keeps routing
//! to the same directory, which is what makes shard-set changes safe for a
//! store that holds live state.
//!
//! # Health and degradation
//!
//! Each shard carries a health state:
//!
//! * [`ShardHealth::Healthy`] — last operation succeeded.
//! * [`ShardHealth::Degraded`] — at least one operation exhausted its
//!   retries recently; the shard still serves traffic.
//! * [`ShardHealth::Down`] — `down_after` consecutive operations exhausted
//!   their retries.  The shard's sessions are rejected up-front with
//!   [`ServeError::ShardUnavailable`] (no disk touch), while every other
//!   shard keeps serving.  A [`ShardedStore::scrub`] pass probes `Down`
//!   shards and revives the ones that answer.
//!
//! Only [`ServeError::Store`] (the transient-I/O class: EIO, ENOSPC,
//! interrupted syncs) is retried and counts against health.  Logical
//! errors — `CorruptSnapshot`, `InvalidSessionId` — pass straight through:
//! retrying cannot fix them and they say nothing about the disk.
//!
//! Retries back off with decorrelated jitter
//! (`sleep = min(cap, uniform(base, prev * 3))`), seeded so test runs are
//! reproducible.
//!
//! # One shard
//!
//! A one-shard store writes under `<root>/shard-00/` and keeps this whole
//! contract: faults are retried (by default 3 attempts, 1–20 ms apart),
//! and after `down_after` exhausted operations its only shard is `Down`
//! until a [`ShardedStore::scrub`] revives it — which
//! [`crate::BoService`] never runs on its own.  `scrub` reports a failed
//! walk through `shards_scrubbed`, not as an error; `list` fails only
//! when no shard answers, so a one-shard listing still reports its error.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ServeError;
use crate::io::{StdIo, StoreIo};
use crate::scrub::ScrubReport;
use crate::store::{fnv1a64, validate_id, LoadedSession, ShardDir, SnapshotStore};

/// Health of one directory shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardHealth {
    /// Last operation on the shard succeeded.
    #[default]
    Healthy,
    /// Recent operations exhausted retries; the shard still serves.
    Degraded,
    /// Consecutive failures crossed `down_after`; the shard's sessions are
    /// rejected without touching disk until a scrub revives it.
    Down,
}

/// Bounded-retry policy with decorrelated-jitter backoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retry).
    pub max_attempts: u32,
    /// Backoff lower bound in milliseconds (0 disables sleeping).
    pub base_backoff_ms: u64,
    /// Backoff cap in milliseconds.
    pub max_backoff_ms: u64,
    /// Seed for the jitter stream, so backoff sequences replay.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_ms: 1,
            max_backoff_ms: 20,
            seed: 0x5eed_cafe,
        }
    }
}

impl RetryPolicy {
    /// A policy that retries without sleeping — for tests, where injected
    /// faults are deterministic and waiting buys nothing.
    #[must_use]
    pub fn no_backoff(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            seed: 0x5eed_cafe,
        }
    }
}

/// Configuration for [`ShardedStore::open_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Shard names; each becomes a subdirectory of the store root and an
    /// input to rendezvous routing.  Order does not affect routing.  Names
    /// follow the session-id file-stem rule (ASCII alphanumerics, `.`, `_`,
    /// `-`, no leading `.`) and must be distinct.
    pub shards: Vec<String>,
    /// Retry/backoff policy for transient store faults.
    pub retry: RetryPolicy,
    /// Consecutive retry-exhausted failures before a shard goes `Down`.
    pub down_after: u32,
}

impl ShardConfig {
    /// `k` shards named `shard-00` … `shard-NN` with default retry policy.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            shards: (0..k).map(|i| format!("shard-{i:02}")).collect(),
            retry: RetryPolicy::default(),
            down_after: 3,
        }
    }

    /// Replaces the retry policy (builder style).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the `Down` threshold (builder style).
    #[must_use]
    pub fn with_down_after(mut self, down_after: u32) -> Self {
        self.down_after = down_after.max(1);
        self
    }
}

/// Counters describing retry/degradation activity since open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStoreStats {
    /// Operations that succeeded only after at least one retry.
    pub retried_ok: u64,
    /// Individual retry attempts performed.
    pub retries: u64,
    /// Operations that exhausted every attempt.
    pub exhausted: u64,
    /// Operations rejected up-front because the shard was `Down`.
    pub rejected_down: u64,
    /// Shard transitions into `Down`.
    pub shard_downs: u64,
    /// `Down` shards revived by a scrub probe.
    pub shard_revivals: u64,
}

#[derive(Default)]
struct StatCells {
    retried_ok: AtomicU64,
    retries: AtomicU64,
    exhausted: AtomicU64,
    rejected_down: AtomicU64,
    shard_downs: AtomicU64,
    shard_revivals: AtomicU64,
}

#[derive(Default)]
struct HealthState {
    health: ShardHealth,
    consecutive_failures: u32,
}

struct Shard {
    name: String,
    store: ShardDir,
    health: Mutex<HealthState>,
}

/// K directory shards behind rendezvous routing, bounded retries, and
/// shard-level degradation.  See the module docs for the full contract.
pub struct ShardedStore {
    root: PathBuf,
    shards: Vec<Shard>,
    retry: RetryPolicy,
    down_after: u32,
    jitter: Mutex<StdRng>,
    stats: StatCells,
}

impl ShardedStore {
    /// Opens (creating if needed) every shard under `root` with the real
    /// filesystem backend.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when a shard name is not a safe file stem or
    /// repeats another, or when a shard directory cannot be created.
    pub fn open(root: impl AsRef<Path>, config: ShardConfig) -> Result<Self, ServeError> {
        Self::open_with(root, config, |_| Arc::new(StdIo))
    }

    /// Opens the store with a caller-chosen I/O backend per shard — the
    /// fault-injection seam ([`crate::io::FaultIo`] for targeted shards,
    /// [`StdIo`] for the rest).
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when a shard name is not a safe file stem or
    /// repeats another, or when a shard directory cannot be created.
    pub fn open_with<F>(
        root: impl AsRef<Path>,
        config: ShardConfig,
        mut backend: F,
    ) -> Result<Self, ServeError>
    where
        F: FnMut(&str) -> Arc<dyn StoreIo>,
    {
        assert!(!config.shards.is_empty(), "ShardedStore needs >= 1 shard");
        let root = root.as_ref().to_path_buf();
        // Names are joined onto `root`, so an unchecked one could escape it
        // ("../x") or alias another shard's directory.
        for (i, name) in config.shards.iter().enumerate() {
            if validate_id(name).is_err() || config.shards[..i].contains(name) {
                return Err(ServeError::Store {
                    path: root.join(name).display().to_string(),
                    reason: "shard names must be distinct, safe file stems".to_string(),
                });
            }
        }
        let mut shards = Vec::with_capacity(config.shards.len());
        for name in &config.shards {
            let store = ShardDir::open(root.join(name), backend(name))?;
            shards.push(Shard {
                name: name.clone(),
                store,
                health: Mutex::new(HealthState::default()),
            });
        }
        let seed = config.retry.seed;
        Ok(Self {
            root,
            shards,
            retry: config.retry,
            down_after: config.down_after.max(1),
            jitter: Mutex::new(StdRng::seed_from_u64(seed)),
            stats: StatCells::default(),
        })
    }

    /// The store root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Shard names in configuration order.
    #[must_use]
    pub fn shard_names(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.name.as_str()).collect()
    }

    /// The shard name `id` routes to (rendezvous hash — deterministic and
    /// independent of shard order).
    #[must_use]
    pub fn shard_for(&self, id: &str) -> &str {
        &self.shards[self.route(id)].name
    }

    /// Current health of the named shard, if it exists.
    #[must_use]
    pub fn shard_health(&self, name: &str) -> Option<ShardHealth> {
        self.shards
            .iter()
            .find(|s| s.name == name)
            .map(|s| recover_lock(&s.health).health)
    }

    /// Snapshot of the retry/degradation counters.
    #[must_use]
    pub fn stats(&self) -> ShardStoreStats {
        ShardStoreStats {
            retried_ok: self.stats.retried_ok.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            exhausted: self.stats.exhausted.load(Ordering::Relaxed),
            rejected_down: self.stats.rejected_down.load(Ordering::Relaxed),
            shard_downs: self.stats.shard_downs.load(Ordering::Relaxed),
            shard_revivals: self.stats.shard_revivals.load(Ordering::Relaxed),
        }
    }

    /// Rendezvous winner: max over shards of `fnv1a64(id ‖ 0xff ‖ name)`.
    fn route(&self, id: &str) -> usize {
        let mut best = 0usize;
        let mut best_score = 0u64;
        for (i, shard) in self.shards.iter().enumerate() {
            let score = rendezvous_score(id, &shard.name);
            if i == 0 || score > best_score {
                best = i;
                best_score = score;
            }
        }
        best
    }

    /// Runs `op` against `shard` with `Down` short-circuit, bounded retry
    /// on transient store faults, and health bookkeeping.
    fn with_retry<T>(
        &self,
        shard: &Shard,
        session: &str,
        op: impl Fn(&ShardDir) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        if recover_lock(&shard.health).health == ShardHealth::Down {
            self.stats.rejected_down.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::ShardUnavailable {
                shard: shard.name.clone(),
                session: session.to_string(),
            });
        }
        let mut prev_backoff = self.retry.base_backoff_ms;
        let mut last_err = None;
        for attempt in 0..self.retry.max_attempts.max(1) {
            match op(&shard.store) {
                Ok(v) => {
                    if attempt > 0 {
                        self.stats.retried_ok.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut health = recover_lock(&shard.health);
                    health.consecutive_failures = 0;
                    health.health = ShardHealth::Healthy;
                    return Ok(v);
                }
                // Only the transient-I/O class retries; logical errors
                // (corruption, bad ids) pass through untouched.
                Err(e @ ServeError::Store { .. }) => {
                    last_err = Some(e);
                    if attempt + 1 < self.retry.max_attempts.max(1) {
                        self.stats.retries.fetch_add(1, Ordering::Relaxed);
                        prev_backoff = self.backoff(prev_backoff);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        self.stats.exhausted.fetch_add(1, Ordering::Relaxed);
        let went_down = {
            let mut health = recover_lock(&shard.health);
            health.consecutive_failures += 1;
            health.health = if health.consecutive_failures >= self.down_after {
                ShardHealth::Down
            } else {
                ShardHealth::Degraded
            };
            health.health == ShardHealth::Down
        };
        if went_down {
            self.stats.shard_downs.fetch_add(1, Ordering::Relaxed);
        }
        Err(last_err.expect("retry loop ran at least once"))
    }

    /// One decorrelated-jitter sleep; returns the drawn backoff so the next
    /// draw widens from it.
    fn backoff(&self, prev_ms: u64) -> u64 {
        let base = self.retry.base_backoff_ms;
        if base == 0 || self.retry.max_backoff_ms == 0 {
            return 0;
        }
        let hi = prev_ms.saturating_mul(3).max(base);
        let drawn = recover_lock(&self.jitter).gen_range(base..=hi);
        let sleep_ms = drawn.min(self.retry.max_backoff_ms);
        std::thread::sleep(Duration::from_millis(sleep_ms));
        sleep_ms
    }

    /// Scrubs every shard: repairs session generations, probes `Down`
    /// shards, and revives the ones that answer.  Healthy-shard scrub
    /// failures mark the shard like any other exhausted operation instead
    /// of aborting the pass, so one bad disk cannot block repairing the
    /// rest.
    ///
    /// # Errors
    ///
    /// Currently infallible: a shard whose walk or repair fails is left
    /// out of `shards_scrubbed` and marked like an exhausted operation.
    /// The `Result` keeps the seam for walk-level failures.
    pub fn scrub(&self) -> Result<ScrubReport, ServeError> {
        let mut report = ScrubReport::default();
        for shard in &self.shards {
            let was_down = recover_lock(&shard.health).health == ShardHealth::Down;
            if was_down {
                // Probe directly — the Down short-circuit in with_retry
                // would otherwise make revival impossible.
                if shard.store.list().is_err() {
                    report.shards_still_down += 1;
                    continue;
                }
                let mut health = recover_lock(&shard.health);
                health.consecutive_failures = 0;
                health.health = ShardHealth::Healthy;
                drop(health);
                self.stats.shard_revivals.fetch_add(1, Ordering::Relaxed);
                report.shards_revived += 1;
            }
            match shard.store.scrub_into(&mut report) {
                Ok(()) => report.shards_scrubbed += 1,
                Err(_) => {
                    let mut health = recover_lock(&shard.health);
                    health.consecutive_failures += 1;
                    health.health = if health.consecutive_failures >= self.down_after {
                        ShardHealth::Down
                    } else {
                        ShardHealth::Degraded
                    };
                    if health.health == ShardHealth::Down {
                        self.stats.shard_downs.fetch_add(1, Ordering::Relaxed);
                        report.shards_still_down += 1;
                    }
                }
            }
        }
        Ok(report)
    }
}

impl SnapshotStore for ShardedStore {
    fn persist(&self, id: &str, snapshot_json: &str) -> Result<(), ServeError> {
        let shard = &self.shards[self.route(id)];
        self.with_retry(shard, id, |store| store.persist(id, snapshot_json))
    }

    fn load(&self, id: &str) -> Result<Option<LoadedSession>, ServeError> {
        let shard = &self.shards[self.route(id)];
        self.with_retry(shard, id, |store| store.load(id))
    }

    /// Union of session ids across shards.  `Down` shards — and shards
    /// whose listing exhausts its retries — are skipped so the rest of the
    /// fleet stays listable; their sessions simply don't appear until the
    /// shard recovers.  When no shard answers, the last shard's error is
    /// returned instead of an empty list.
    fn list(&self) -> Result<Vec<String>, ServeError> {
        let (mut ids, mut skipped) = (Vec::new(), Vec::new());
        for shard in &self.shards {
            match self.with_retry(shard, "*", ShardDir::list) {
                Ok(mut shard_ids) => ids.append(&mut shard_ids),
                Err(e @ (ServeError::ShardUnavailable { .. } | ServeError::Store { .. })) => {
                    skipped.push(e);
                }
                Err(e) => return Err(e),
            }
        }
        if skipped.len() == self.shards.len() {
            return Err(skipped.pop().expect("a store has at least one shard"));
        }
        ids.sort();
        ids.dedup();
        Ok(ids)
    }

    fn remove(&self, id: &str) -> Result<(), ServeError> {
        let shard = &self.shards[self.route(id)];
        self.with_retry(shard, id, |store| store.remove(id))
    }

    fn health_for(&self, id: &str) -> ShardHealth {
        recover_lock(&self.shards[self.route(id)].health).health
    }

    fn placement(&self, id: &str) -> Option<String> {
        Some(self.shards[self.route(id)].name.clone())
    }

    fn repair_session(&self, id: &str) -> Result<crate::scrub::SessionScrub, ServeError> {
        let shard = &self.shards[self.route(id)];
        self.with_retry(shard, id, |store| store.scrub_session(id))
    }
}

/// Rendezvous score for one `(session id, shard name)` pair.
fn rendezvous_score(id: &str, shard: &str) -> u64 {
    let mut key = Vec::with_capacity(id.len() + 1 + shard.len());
    key.extend_from_slice(id.as_bytes());
    key.push(0xff);
    key.extend_from_slice(shard.as_bytes());
    fnv1a64(&key)
}

/// Locks a mutex, recovering the inner value if a holder panicked — shard
/// health metadata stays usable even after a poisoned lock.
fn recover_lock<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultIo, FaultKind, FaultPlan, ScriptedFault};

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nnbo-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn routing_is_deterministic_and_order_independent() {
        let root = temp_root("route");
        let store = ShardedStore::open(&root, ShardConfig::new(4)).unwrap();
        let mut reversed = ShardConfig::new(4);
        reversed.shards.reverse();
        let store_rev = ShardedStore::open(root.join("rev"), reversed).unwrap();
        for i in 0..64 {
            let id = format!("sess-{i}");
            assert_eq!(store.shard_for(&id), store.shard_for(&id));
            assert_eq!(store.shard_for(&id), store_rev.shard_for(&id));
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn routing_spreads_sessions_across_shards() {
        let root = temp_root("spread");
        let store = ShardedStore::open(&root, ShardConfig::new(4)).unwrap();
        let mut hit = std::collections::HashSet::new();
        for i in 0..64 {
            hit.insert(store.shard_for(&format!("sess-{i}")).to_string());
        }
        assert_eq!(hit.len(), 4, "64 ids should touch all 4 shards");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_sessions() {
        let root = temp_root("stable");
        let full = ShardedStore::open(&root, ShardConfig::new(4)).unwrap();
        let mut smaller_cfg = ShardConfig::new(4);
        let removed = smaller_cfg.shards.pop().unwrap();
        let smaller = ShardedStore::open(root.join("small"), smaller_cfg).unwrap();
        for i in 0..128 {
            let id = format!("sess-{i}");
            let before = full.shard_for(&id);
            if before == removed {
                assert_ne!(smaller.shard_for(&id), removed);
            } else {
                assert_eq!(smaller.shard_for(&id), before);
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unsafe_or_repeated_shard_names_are_rejected_before_any_disk_touch() {
        let base = temp_root("names");
        let root = base.join("root");
        for shards in [
            vec!["../escaped".to_string()],
            vec![String::new()],
            vec![".hidden".to_string()],
            vec!["a".to_string(), "a".to_string()],
        ] {
            let cfg = ShardConfig {
                shards: shards.clone(),
                ..ShardConfig::new(1)
            };
            assert!(
                matches!(
                    ShardedStore::open(&root, cfg),
                    Err(ServeError::Store { .. })
                ),
                "shard names {shards:?} should be rejected"
            );
        }
        assert!(!base.join("escaped").exists(), "a shard escaped the root");
        assert!(!root.exists(), "a rejected config created directories");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn transient_fault_is_retried_and_health_recovers() {
        let root = temp_root("retry");
        let cfg = ShardConfig::new(1).with_retry(RetryPolicy::no_backoff(3));
        let store = ShardedStore::open_with(&root, cfg, |_| {
            Arc::new(FaultIo::new(FaultPlan::one(0, FaultKind::TransientEio)))
        })
        .unwrap();
        store.persist("s", "{\"x\":1}").unwrap();
        assert_eq!(store.shard_health("shard-00"), Some(ShardHealth::Healthy));
        let stats = store.stats();
        assert_eq!(stats.retried_ok, 1);
        assert!(stats.retries >= 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn down_shard_rejects_only_its_own_sessions() {
        let root = temp_root("down");
        let cfg = ShardConfig::new(2)
            .with_retry(RetryPolicy::no_backoff(1))
            .with_down_after(1);
        // Crash shard-00 permanently; shard-01 stays real.
        let store = ShardedStore::open_with(&root, cfg, |name| {
            if name == "shard-00" {
                Arc::new(FaultIo::new(FaultPlan::one(0, FaultKind::TornWrite)))
            } else {
                Arc::new(StdIo)
            }
        })
        .unwrap();
        let (mut on_bad, mut on_good) = (None, None);
        for i in 0..64 {
            let id = format!("sess-{i}");
            match store.shard_for(&id) {
                "shard-00" if on_bad.is_none() => on_bad = Some(id),
                "shard-01" if on_good.is_none() => on_good = Some(id),
                _ => {}
            }
        }
        let (bad, good) = (on_bad.unwrap(), on_good.unwrap());
        // First touch crashes the shard's backend and downs the shard.
        assert!(matches!(
            store.persist(&bad, "{}"),
            Err(ServeError::Store { .. })
        ));
        assert_eq!(store.shard_health("shard-00"), Some(ShardHealth::Down));
        // Its sessions now reject without disk I/O …
        assert!(matches!(
            store.persist(&bad, "{}"),
            Err(ServeError::ShardUnavailable { .. })
        ));
        // … while the other shard keeps serving.
        store.persist(&good, "{\"ok\":true}").unwrap();
        assert!(store.load(&good).unwrap().is_some());
        // Listing skips the down shard while another one answers.
        assert_eq!(store.list().unwrap(), vec![good.clone()]);
        assert!(store.stats().rejected_down >= 1);
        assert_eq!(store.stats().shard_downs, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scrub_revives_a_down_shard_whose_disk_recovered() {
        let root = temp_root("revive");
        let cfg = ShardConfig::new(1)
            .with_retry(RetryPolicy::no_backoff(1))
            .with_down_after(1);
        // One transient fault is enough to down the shard (no retries),
        // but the underlying disk is fine afterwards.
        let store = ShardedStore::open_with(&root, cfg, |_| {
            Arc::new(FaultIo::new(FaultPlan::one(0, FaultKind::TransientEio)))
        })
        .unwrap();
        assert!(store.persist("s", "{}").is_err());
        assert_eq!(store.shard_health("shard-00"), Some(ShardHealth::Down));
        // With no shard left to answer, listing reports the outage.
        assert!(matches!(
            store.list(),
            Err(ServeError::ShardUnavailable { .. })
        ));
        let report = store.scrub().unwrap();
        assert_eq!(report.shards_revived, 1);
        assert_eq!(store.shard_health("shard-00"), Some(ShardHealth::Healthy));
        store.persist("s", "{\"x\":2}").unwrap();
        assert_eq!(store.stats().shard_revivals, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn backoff_is_bounded_and_seed_deterministic() {
        let root = temp_root("jitter");
        let retry = RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 1,
            max_backoff_ms: 2,
            seed: 7,
        };
        let cfg = ShardConfig::new(1).with_retry(retry);
        let store = ShardedStore::open_with(&root, cfg, |_| {
            Arc::new(FaultIo::new(FaultPlan::scripted(vec![
                ScriptedFault {
                    at_op: 0,
                    kind: FaultKind::TransientEio,
                },
                ScriptedFault {
                    at_op: 1,
                    kind: FaultKind::Enospc,
                },
            ])))
        })
        .unwrap();
        let start = std::time::Instant::now();
        store.persist("s", "{}").unwrap();
        // 2 retries, each capped at 2ms: well under a second even on CI.
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(store.stats().retries, 2);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
