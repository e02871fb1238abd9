//! Property-based fault-matrix suite for the injectable-I/O store layer.
//!
//! Random [`FaultPlan`]s (operation index × fault kind × shard) drive the
//! store through EIO, ENOSPC, torn writes, dropped renames, and lost
//! fsyncs, and three invariants must hold for *every* sequence:
//!
//! 1. **At most the in-flight iteration is lost**: a restarted process
//!    loads exactly the last acknowledged payload (or nothing when no
//!    persist was ever acknowledged) — never an older one, never damaged
//!    bytes.
//! 2. **Scrub is replay-neutral**: `scrub()` after any fault sequence
//!    changes nothing about what `load` returns — it only removes debris
//!    and makes the winning generation durable — so recovery replays
//!    bit-identically before and after.
//! 3. **Rendezvous routing is stable**: the same id routes to the same
//!    shard under shard-set changes, except for sessions whose shard was
//!    removed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nnbo_serve::{
    FaultIo, FaultKind, FaultPlan, RetryPolicy, ShardConfig, ShardedStore, SnapshotStore, StdIo,
};
use proptest::prelude::*;

fn scratch_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicUsize = AtomicUsize::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "nnbo-store-faults-{tag}-{}-{n}",
        std::process::id()
    ))
}

/// Strategy: a fault plan of up to three faults over the first `horizon`
/// operations, spanning every fault kind.
fn fault_plan(horizon: usize) -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec((0usize..horizon, 0usize..FaultKind::ALL.len()), 0..3).prop_map(|pairs| {
        FaultPlan::scripted(
            pairs
                .into_iter()
                .map(|(at_op, kind)| nnbo_serve::io::ScriptedFault {
                    at_op,
                    kind: FaultKind::ALL[kind],
                })
                .collect(),
        )
    })
}

/// Drives `count` persists through a faulted one-shard store; returns the
/// payloads and the index of the last acknowledged one.  One attempt per
/// persist and a shard that never goes `Down` make every persist reach the
/// backend exactly once, so each plan index names a fixed syscall.
fn run_faulted_sequence(
    dir: &PathBuf,
    plan: FaultPlan,
    count: usize,
) -> (Vec<String>, Option<usize>) {
    let cfg = ShardConfig::new(1)
        .with_retry(RetryPolicy::no_backoff(1))
        .with_down_after(u32::MAX);
    let store = ShardedStore::open_with(dir, cfg, |_| Arc::new(FaultIo::new(plan.clone())))
        .expect("store opens");
    let payloads: Vec<String> = (0..count)
        .map(|i| format!("{{\"iter\":{i},\"best\":{}}}", i * 3 + 1))
        .collect();
    let mut last_ok = None;
    for (i, p) in payloads.iter().enumerate() {
        if store.persist("s", p).is_ok() {
            last_ok = Some(i);
        }
    }
    (payloads, last_ok)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: whatever the fault sequence did, the surviving bytes
    /// resolve to an *attempted* payload no older than the last
    /// acknowledged one.  (A persist whose trailing dir-fsync faulted may
    /// land durably yet report failure — at-least-once, like a timed-out
    /// write that committed — so "newer than acked" is legal; "older than
    /// acked" or fabricated bytes never are.)
    #[test]
    fn no_fault_sequence_loses_more_than_the_in_flight_iteration(
        plan in fault_plan(40),
        count in 1usize..8,
    ) {
        let dir = scratch_dir("loss");
        let (payloads, last_ok) = run_faulted_sequence(&dir, plan, count);
        // The restarted process: same directory, clean backend.
        let survivor = ShardedStore::open(&dir, ShardConfig::new(1)).expect("reopen");
        let loaded = survivor.load("s").expect("surviving generations verify");
        match loaded {
            Some(l) => {
                let floor = last_ok.unwrap_or(0);
                prop_assert!(
                    payloads[floor..].contains(&l.snapshot_json),
                    "resumed {:?}, older than ack #{:?} (or fabricated)",
                    l.snapshot_json,
                    last_ok
                );
            }
            None => prop_assert!(
                last_ok.is_none(),
                "ack #{:?} vanished from the store",
                last_ok
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Invariant 2: scrub() never changes what recovery reads — it only
    /// deletes debris and promotes the already-winning generation.
    #[test]
    fn scrub_after_any_fault_sequence_replays_bit_identically(
        plan in fault_plan(40),
        count in 1usize..8,
    ) {
        let dir = scratch_dir("scrub");
        let _ = run_faulted_sequence(&dir, plan, count);
        let survivor = ShardedStore::open(&dir, ShardConfig::new(1)).expect("reopen");
        let before = survivor
            .load("s")
            .expect("surviving generations verify")
            .map(|l| l.snapshot_json);
        let report = survivor.scrub().expect("scrub walks the directory");
        prop_assert_eq!(report.shards_scrubbed, 1);
        prop_assert_eq!(report.shards_still_down, 0);
        prop_assert!(report.unrecoverable.is_empty(), "injected faults never corrupt acked state");
        let after = survivor
            .load("s")
            .expect("post-scrub load verifies")
            .map(|l| l.snapshot_json);
        prop_assert_eq!(before, after);
        // Debris is gone: a second scrub finds nothing to do.
        let second = survivor.scrub().expect("second scrub");
        prop_assert_eq!(second.shards_scrubbed, 1);
        prop_assert_eq!(second.shards_still_down, 0);
        prop_assert_eq!(second.tmp_removed, 0);
        prop_assert_eq!(second.backups_promoted, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Invariant 3: removing one shard only remaps that shard's sessions.
    #[test]
    fn rendezvous_routing_is_stable_under_shard_removal(
        id_nums in prop::collection::vec(0u64..1_000_000_000, 1..40),
        k in 2usize..6,
        removed_ix in 0usize..6,
    ) {
        let ids: Vec<String> = id_nums.iter().map(|n| format!("sess-{n:x}")).collect();
        let root = scratch_dir("route");
        let full_cfg = ShardConfig::new(k);
        let removed = full_cfg.shards[removed_ix % k].clone();
        let mut small_cfg = full_cfg.clone();
        small_cfg.shards.retain(|s| *s != removed);
        let full = ShardedStore::open(root.join("full"), full_cfg).expect("open full");
        let small = ShardedStore::open(root.join("small"), small_cfg).expect("open small");
        for id in &ids {
            let before = full.shard_for(id);
            let after = small.shard_for(id);
            if before == removed {
                prop_assert_ne!(after, &removed);
            } else {
                prop_assert_eq!(after, before);
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// End-to-end matrix over seeded plans and shards: one shard takes random
/// faults while the others run clean.  Non-targeted shards must serve
/// untouched, and after a scrub every acknowledged payload must load back.
#[test]
fn seeded_fault_matrix_over_shards_keeps_acked_state_and_healthy_shards() {
    for seed in 0..24u64 {
        let root = scratch_dir(&format!("matrix-{seed}"));
        let target = (seed as usize) % 3;
        let cfg = ShardConfig::new(3).with_retry(RetryPolicy::no_backoff(2));
        let shard_names: Vec<String> = cfg.shards.clone();
        let faulted_name = shard_names[target].clone();
        let store = ShardedStore::open_with(&root, cfg, |name| {
            if name == faulted_name {
                Arc::new(FaultIo::new(FaultPlan::seeded(seed, 30, 3)))
            } else {
                Arc::new(StdIo)
            }
        })
        .expect("sharded store opens");

        let mut acked: Vec<(String, String)> = Vec::new();
        for i in 0..12 {
            let id = format!("sess-{seed}-{i}");
            let payload = format!("{{\"seed\":{seed},\"i\":{i}}}");
            let on_faulted_shard = store.shard_for(&id) == faulted_name;
            match store.persist(&id, &payload) {
                Ok(()) => acked.push((id, payload)),
                Err(e) => assert!(
                    on_faulted_shard,
                    "seed {seed}: non-targeted shard failed a persist: {e}"
                ),
            }
        }

        // The restarted process: all shards clean, scrub, then recover.
        let clean = ShardedStore::open(&root, ShardConfig::new(3)).expect("reopen");
        let report = clean.scrub().expect("scrub");
        assert!(
            report.unrecoverable.is_empty(),
            "seed {seed}: scrub lost acked state: {report:?}"
        );
        for (id, payload) in &acked {
            let loaded = clean
                .load(id)
                .unwrap_or_else(|e| panic!("seed {seed}: acked {id} failed to load: {e}"))
                .unwrap_or_else(|| panic!("seed {seed}: acked {id} vanished"));
            assert_eq!(&loaded.snapshot_json, payload, "seed {seed}: {id}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
