//! Property-based durability suite for the session store: arbitrary
//! truncations and bit flips of the persisted bytes must always be
//! *detected*, recovery must always land on the last good generation, and
//! a wrong resume (returning damaged bytes as if intact) must never happen.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use nnbo_serve::{ServeError, ShardConfig, ShardedStore, SnapshotStore};
use proptest::prelude::*;

fn scratch_dir() -> PathBuf {
    static UNIQ: AtomicUsize = AtomicUsize::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("nnbo-serve-durability-{}-{n}", std::process::id()))
}

/// Strategy: a payload string over printable ASCII plus newline, tab, and a
/// multi-byte code point — newlines and frame-like text are legal payloads
/// because the frame is length-delimited.
fn payload(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..99, 1..max_len).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c {
                0..=94 => char::from_u32(c + 32).expect("printable ASCII"),
                95 => '\n',
                96 => '\t',
                97 => 'é',
                _ => '∎',
            })
            .collect()
    })
}

/// Persists two generations so `prev` holds `old` and `latest` holds `new`.
fn seeded_store(old: &str, new: &str) -> ShardedStore {
    let store = open_store();
    store.persist("s", old).expect("first persist");
    store.persist("s", new).expect("second persist");
    store
}

/// A fresh one-shard store in its own scratch directory.
fn open_store() -> ShardedStore {
    ShardedStore::open(scratch_dir(), ShardConfig::new(1)).expect("store opens")
}

fn latest_path(store: &ShardedStore) -> PathBuf {
    store.root().join(store.shard_for("s")).join("s.session")
}

fn prev_path(store: &ShardedStore) -> PathBuf {
    store
        .root()
        .join(store.shard_for("s"))
        .join("s.session.prev")
}

fn cleanup(store: ShardedStore) {
    let _ = std::fs::remove_dir_all(store.root());
}

/// Flips one bit of the byte at `offset % len`.
fn flip_bit(path: &PathBuf, offset: usize, bit: usize) {
    let mut bytes = std::fs::read(path).expect("read persisted file");
    let i = offset % bytes.len();
    bytes[i] ^= 1 << (bit % 8);
    std::fs::write(path, &bytes).expect("write damaged file");
}

/// Exhaustive (not sampled): every single-bit flip of every byte of a
/// persisted generation must be detected.  This is the check that caught
/// `from_str_radix` accepting uppercase hex, which made ASCII case flips
/// (bit 5 of a checksum letter) semantically invisible to a lax parser.
#[test]
fn every_single_bit_flip_of_prev_is_detected() {
    let store = seeded_store("old generation with a\nnewline and é", "the new generation");
    let prev = prev_path(&store);
    let pristine = std::fs::read(&prev).expect("read prev");
    // Damage latest so every load exercises the prev generation.
    flip_bit(&latest_path(&store), 5, 0);
    let mut undetected = Vec::new();
    for i in 0..pristine.len() {
        for bit in 0..8 {
            let mut damaged = pristine.clone();
            damaged[i] ^= 1 << bit;
            std::fs::write(&prev, &damaged).expect("write damaged prev");
            if store.load("s").is_ok_and(|l| l.is_some()) {
                undetected.push((i, bit));
            }
        }
    }
    assert!(
        undetected.is_empty(),
        "flips that evaded detection: {undetected:?}"
    );
    cleanup(store);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any single bit flip anywhere in the latest generation is detected,
    /// and recovery returns exactly the previous payload.
    #[test]
    fn bit_flips_always_fall_back_to_the_last_good_generation(
        old in payload(120),
        new in payload(120),
        offset in 0usize..4096,
        bit in 0usize..8,
    ) {
        let store = seeded_store(&old, &new);
        flip_bit(&latest_path(&store), offset, bit);
        let loaded = store.load("s").expect("prev is intact").expect("generations exist");
        prop_assert_eq!(&loaded.snapshot_json, &old);
        prop_assert!(loaded.recovered_from_backup);
        prop_assert!(loaded.corruption.is_some(), "the flip must be reported, not silently healed");
        cleanup(store);
    }

    /// Any truncation of the latest generation is detected (a full-length
    /// "truncation" is a no-op and keeps the newest payload).
    #[test]
    fn truncations_never_yield_a_wrong_resume(
        old in payload(120),
        new in payload(120),
        cut in 0usize..4096,
    ) {
        let store = seeded_store(&old, &new);
        let path = latest_path(&store);
        let bytes = std::fs::read(&path).expect("read persisted file");
        let keep = cut % (bytes.len() + 1);
        std::fs::write(&path, &bytes[..keep]).expect("truncate file");

        let loaded = store.load("s").expect("prev is intact").expect("generations exist");
        if keep == bytes.len() {
            prop_assert_eq!(&loaded.snapshot_json, &new);
            prop_assert!(!loaded.recovered_from_backup);
        } else {
            prop_assert_eq!(&loaded.snapshot_json, &old);
            prop_assert!(loaded.recovered_from_backup);
        }
        cleanup(store);
    }

    /// Payloads round-trip exactly, whatever characters they contain.
    #[test]
    fn arbitrary_payloads_round_trip(text in payload(200)) {
        let store = open_store();
        store.persist("s", &text).expect("persist");
        let loaded = store.load("s").expect("load").expect("exists");
        prop_assert_eq!(loaded.snapshot_json, text);
        prop_assert!(!loaded.recovered_from_backup);
        cleanup(store);
    }

    /// With both generations damaged, the store reports corruption — it
    /// never fabricates a resume from damaged bytes.
    #[test]
    fn damage_to_every_generation_is_an_error(
        old in payload(120),
        new in payload(120),
        offset_a in 0usize..4096,
        offset_b in 0usize..4096,
        bit_a in 0usize..8,
        bit_b in 0usize..8,
    ) {
        let store = seeded_store(&old, &new);
        flip_bit(&latest_path(&store), offset_a, bit_a);
        flip_bit(&prev_path(&store), offset_b, bit_b);
        let err = store.load("s").expect_err("no intact generation remains");
        prop_assert!(matches!(err, ServeError::CorruptSnapshot { .. }));
        cleanup(store);
    }
}
