//! Crash-safe persistence for session checkpoints: the on-disk format and
//! the per-directory engine behind every shard of [`crate::ShardedStore`].
//!
//! # Durability contract
//!
//! A persist makes one completed step durable per call, and guarantees
//! that **a crash at any instant leaves at least one intact, verifiable
//! snapshot on disk** (losing at most the single step being persisted).
//! Within the session's shard directory the sequence is the classic
//! write-then-rename dance:
//!
//! 1. the framed snapshot is written to `<id>.session.tmp` and fsynced;
//! 2. the current `<id>.session` (if any) is renamed to `<id>.session.prev`;
//! 3. the tmp file is renamed over `<id>.session`.
//!
//! Renames within one directory are atomic on POSIX filesystems, so every
//! crash point leaves either the new `latest`, or an intact `prev` with a
//! possibly-missing/possibly-torn `latest` — never zero intact generations.
//!
//! # Torn-write detection
//!
//! Snapshots are framed with a one-line header carrying a magic string, a
//! format version, the payload byte length, and an FNV-1a 64-bit checksum of
//! the payload:
//!
//! ```text
//! nnbo-session v1 <len> <checksum-hex>
//! <payload JSON>
//! ```
//!
//! A load verifies the frame before returning: a truncated file fails the
//! length check, and any single-bit flip fails the checksum (each FNV-1a
//! step — xor with a byte, multiply by an odd prime — is injective on the
//! 64-bit state, so two equal-length payloads differing anywhere hash
//! differently).  A damaged `latest` falls back to `prev` with the
//! corruption recorded in [`LoadedSession`]; a wrong resume is never
//! returned.
//!
//! # Fault model
//!
//! Every filesystem touch goes through an injectable [`StoreIo`] backend
//! (see the [`crate::io`] module), and the store's behaviour under each
//! disk-fault class is part of the durability contract:
//!
//! * **Transient faults (`EIO`, `ENOSPC`)** — a persist attempt fails with
//!   [`ServeError::Store`] with the previously persisted generations
//!   untouched.  These are *retryable*: [`crate::ShardedStore`] retries
//!   them with bounded decorrelated-jitter backoff before reporting
//!   failure.
//! * **Torn writes** — a crash mid-`write` leaves a short `.tmp` file; the
//!   durable generations are untouched because the tmp file is renamed into
//!   place only after its fsync succeeded.  The session repair pass
//!   ([`SnapshotStore::repair_session`]) removes the stray tmp on the next
//!   start.
//! * **Dropped renames / lost fsyncs** — a crash before the rename (or its
//!   durability barrier) reached the platter loses only the step being
//!   persisted: a persist never acknowledges success before `write`,
//!   `sync_file`, both renames *and* the directory fsync all returned —
//!   a failed directory fsync is surfaced as [`ServeError::Store`], not
//!   swallowed, so an acknowledged step is durable on every path.
//! * **Data loss** — only a fault (or bit rot) that damages *both* the
//!   `latest` and `prev` generations of a session loses data, and it is
//!   reported as [`ServeError::CorruptSnapshot`], never resumed from.
//!
//! The session repair pass is the self-healing pass over this model: it
//! deletes stray `.tmp` files, promotes an intact `prev` over a
//! corrupt-or-missing `latest` (making the fallback a load would take
//! durable on disk), and reports what it found.  A load before and after a
//! repair returns byte-identical payloads.  [`crate::ShardedStore::scrub`]
//! runs it over every session of every shard.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::ServeError;
use crate::io::StoreIo;
use crate::scrub::{ScrubAction, ScrubReport, SessionScrub};
use crate::shard::ShardHealth;

const MAGIC: &str = "nnbo-session";
const FORMAT_VERSION: u32 = 1;

/// FNV-1a 64-bit hash (the frame checksum).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A snapshot read back from disk, with provenance: whether the primary
/// generation was damaged and the verified bytes came from the backup.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedSession {
    /// The verified snapshot payload (the JSON given to `persist`).
    pub snapshot_json: String,
    /// `true` when `latest` was unreadable and `prev` supplied the payload.
    pub recovered_from_backup: bool,
    /// What the verifier found wrong with `latest`, when anything.
    pub corruption: Option<String>,
}

/// The storage surface [`crate::BoService`] persists through.
///
/// [`crate::ShardedStore`] is the store; the trait is the substitution seam
/// for wrappers that delegate to it (timing or acknowledgement probes).
pub trait SnapshotStore: Send + Sync {
    /// Persists one snapshot payload durably.
    fn persist(&self, id: &str, snapshot_json: &str) -> Result<(), ServeError>;
    /// Loads the most recent intact snapshot for `id` (`None` = unknown).
    fn load(&self, id: &str) -> Result<Option<LoadedSession>, ServeError>;
    /// Session ids with at least one on-disk generation, sorted.
    fn list(&self) -> Result<Vec<String>, ServeError>;
    /// Removes every generation of `id`.
    fn remove(&self, id: &str) -> Result<(), ServeError>;
    /// Health of the shard serving `id`.
    fn health_for(&self, id: &str) -> ShardHealth;
    /// The name of the shard `id` routes to (`None` when the store cannot
    /// name one).
    fn placement(&self, id: &str) -> Option<String>;
    /// Self-heals `id`'s on-disk generations (stray tmp removal, backup
    /// promotion) before a recovery reads them, reporting what it found.
    fn repair_session(&self, id: &str) -> Result<SessionScrub, ServeError>;
}

/// Validates a session id (or a shard name) for use as a file stem.
pub(crate) fn validate_id(id: &str) -> Result<(), ServeError> {
    let ok = !id.is_empty()
        && id.len() <= 128
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
        && !id.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(ServeError::InvalidSessionId {
            session: id.to_string(),
        })
    }
}

/// One shard's directory: crash-safe, per-session snapshot storage with no
/// retry or health tracking of its own ([`crate::ShardedStore`] adds both).
///
/// See the module docs for the durability contract and the fault model.
#[derive(Debug)]
pub(crate) struct ShardDir {
    dir: PathBuf,
    io: Arc<dyn StoreIo>,
}

impl ShardDir {
    /// Opens (creating if needed) the directory `dir` over the I/O backend
    /// `io`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when the directory cannot be created.
    pub(crate) fn open(dir: PathBuf, io: Arc<dyn StoreIo>) -> Result<Self, ServeError> {
        io.create_dir_all(&dir).map_err(|e| ServeError::Store {
            path: dir.display().to_string(),
            reason: e.to_string(),
        })?;
        Ok(ShardDir { dir, io })
    }

    fn latest_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.session"))
    }

    fn prev_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.session.prev"))
    }

    fn tmp_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.session.tmp"))
    }

    /// Persists one snapshot payload durably (see the module docs).
    ///
    /// Success is acknowledged only after the framed bytes, both renames,
    /// *and* the directory fsync (the renames' durability barrier) all
    /// completed — so an acknowledged step survives a crash at any later
    /// instant.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSessionId`] for unsafe ids and
    /// [`ServeError::Store`] when a write, sync, or rename fails; on error
    /// the previously persisted generations are untouched.
    pub(crate) fn persist(&self, id: &str, snapshot_json: &str) -> Result<(), ServeError> {
        validate_id(id)?;
        let payload = snapshot_json.as_bytes();
        let frame = format!(
            "{MAGIC} v{FORMAT_VERSION} {} {:016x}\n{snapshot_json}\n",
            payload.len(),
            fnv1a64(payload)
        );
        let tmp = self.tmp_path(id);
        let io_err = io_err();
        self.io
            .write(&tmp, frame.as_bytes())
            .map_err(|e| io_err(&tmp, e))?;
        self.io.sync_file(&tmp).map_err(|e| io_err(&tmp, e))?;
        let latest = self.latest_path(id);
        if self.io.exists(&latest).map_err(|e| io_err(&latest, e))? {
            let prev = self.prev_path(id);
            self.io
                .rename(&latest, &prev)
                .map_err(|e| io_err(&latest, e))?;
        }
        self.io
            .rename(&tmp, &latest)
            .map_err(|e| io_err(&latest, e))?;
        // The renames' durability barrier.  A failure here means the step
        // may not survive a crash, so it is a persist failure — reporting
        // success for a possibly-lost rename would break the "acknowledged
        // ⇒ durable" contract.
        self.io
            .sync_dir(&self.dir)
            .map_err(|e| io_err(&self.dir, e))?;
        Ok(())
    }

    /// Loads the most recent intact snapshot for `id`.
    ///
    /// Returns `Ok(None)` when no generation exists at all (an unknown
    /// session, not an error).
    ///
    /// # Errors
    ///
    /// [`ServeError::CorruptSnapshot`] when generations exist but none
    /// verifies, [`ServeError::Store`] for I/O failures other than
    /// not-found, and [`ServeError::InvalidSessionId`] for unsafe ids.
    pub(crate) fn load(&self, id: &str) -> Result<Option<LoadedSession>, ServeError> {
        validate_id(id)?;
        let latest = match self.read_generation(&self.latest_path(id))? {
            Generation::Ok(json) => {
                return Ok(Some(LoadedSession {
                    snapshot_json: json,
                    recovered_from_backup: false,
                    corruption: None,
                }));
            }
            other => other,
        };
        let prev = match self.read_generation(&self.prev_path(id))? {
            Generation::Ok(json) => {
                return Ok(Some(LoadedSession {
                    snapshot_json: json,
                    recovered_from_backup: true,
                    corruption: match &latest {
                        Generation::Corrupt(why) => Some(why.clone()),
                        Generation::Missing => None,
                        Generation::Ok(_) => unreachable!(),
                    },
                }));
            }
            other => other,
        };
        match (latest, prev) {
            (Generation::Missing, Generation::Missing) => Ok(None),
            (l, p) => Err(ServeError::CorruptSnapshot {
                session: id.to_string(),
                details: format!("latest: {}; prev: {}", l.describe(), p.describe()),
            }),
        }
    }

    /// Session ids with at least one on-disk generation, sorted.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when the directory cannot be read.
    pub(crate) fn list(&self) -> Result<Vec<String>, ServeError> {
        let names = self.io.list(&self.dir).map_err(|e| ServeError::Store {
            path: self.dir.display().to_string(),
            reason: e.to_string(),
        })?;
        let mut ids: Vec<String> = names
            .iter()
            .filter_map(|name| {
                name.strip_suffix(".session")
                    .or_else(|| name.strip_suffix(".session.prev"))
                    .map(str::to_string)
            })
            .collect();
        ids.sort();
        ids.dedup();
        Ok(ids)
    }

    /// Removes every generation of `id` (missing files are fine).
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when an existing file cannot be removed.
    pub(crate) fn remove(&self, id: &str) -> Result<(), ServeError> {
        validate_id(id)?;
        let io_err = io_err();
        for path in [self.latest_path(id), self.prev_path(id), self.tmp_path(id)] {
            self.io.remove_file(&path).map_err(|e| io_err(&path, e))?;
        }
        Ok(())
    }

    /// Self-heals the on-disk generations of one session (see the module
    /// docs' fault model): removes a stray `.tmp`, promotes an intact
    /// `prev` over a corrupt-or-missing `latest`, and deletes a corrupt
    /// `prev` shadowed by an intact `latest`.  [`ShardDir::load`] returns
    /// byte-identical payloads before and after.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSessionId`] for unsafe ids and
    /// [`ServeError::Store`] for I/O failures during the repair.
    pub(crate) fn scrub_session(&self, id: &str) -> Result<SessionScrub, ServeError> {
        validate_id(id)?;
        let io_err = io_err();
        let tmp = self.tmp_path(id);
        let mut scrub = SessionScrub::default();
        if self.io.exists(&tmp).map_err(|e| io_err(&tmp, e))? {
            self.io.remove_file(&tmp).map_err(|e| io_err(&tmp, e))?;
            scrub.tmp_removed = true;
        }
        let latest_path = self.latest_path(id);
        let prev_path = self.prev_path(id);
        let latest = self.read_generation(&latest_path)?;
        let prev = self.read_generation(&prev_path)?;
        scrub.latest_was_corrupt = matches!(latest, Generation::Corrupt(_));
        scrub.action = match (latest, prev) {
            (Generation::Ok(_), prev) => {
                if matches!(prev, Generation::Corrupt(_)) {
                    self.io
                        .remove_file(&prev_path)
                        .map_err(|e| io_err(&prev_path, e))?;
                    scrub.stale_backup_removed = true;
                }
                ScrubAction::Intact
            }
            (latest, Generation::Ok(_)) => {
                if !matches!(latest, Generation::Missing) {
                    self.io
                        .remove_file(&latest_path)
                        .map_err(|e| io_err(&latest_path, e))?;
                }
                self.io
                    .rename(&prev_path, &latest_path)
                    .map_err(|e| io_err(&prev_path, e))?;
                self.io
                    .sync_dir(&self.dir)
                    .map_err(|e| io_err(&self.dir, e))?;
                ScrubAction::PromotedBackup
            }
            (Generation::Missing, Generation::Missing) => ScrubAction::Missing,
            _ => ScrubAction::Unrecoverable,
        };
        Ok(scrub)
    }

    /// Scrubs every session in the directory (including sessions that left
    /// only a stray `.tmp` behind), accumulating into `report`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when the directory walk or a repair fails.
    pub(crate) fn scrub_into(&self, report: &mut ScrubReport) -> Result<(), ServeError> {
        let names = self.io.list(&self.dir).map_err(|e| ServeError::Store {
            path: self.dir.display().to_string(),
            reason: e.to_string(),
        })?;
        let mut ids: Vec<String> = names
            .iter()
            .filter_map(|name| {
                name.strip_suffix(".session.tmp")
                    .or_else(|| name.strip_suffix(".session.prev"))
                    .or_else(|| name.strip_suffix(".session"))
                    .map(str::to_string)
            })
            .collect();
        ids.sort();
        ids.dedup();
        for id in ids {
            report.record(&id, self.scrub_session(&id)?);
        }
        Ok(())
    }

    /// Reads and verifies one generation file.
    fn read_generation(&self, path: &Path) -> Result<Generation, ServeError> {
        let bytes = match self.io.read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Generation::Missing),
            Err(e) => {
                return Err(ServeError::Store {
                    path: path.display().to_string(),
                    reason: e.to_string(),
                });
            }
        };
        Ok(verify_frame(&bytes))
    }
}

/// The standard `ServeError::Store` constructor from a path and an
/// `io::Error`.
fn io_err() -> impl Fn(&Path, std::io::Error) -> ServeError {
    |path, e| ServeError::Store {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

/// Outcome of reading one on-disk generation.
enum Generation {
    Ok(String),
    Missing,
    Corrupt(String),
}

impl Generation {
    fn describe(&self) -> String {
        match self {
            Generation::Ok(_) => "intact".to_string(),
            Generation::Missing => "missing".to_string(),
            Generation::Corrupt(why) => why.clone(),
        }
    }
}

/// Verifies a framed snapshot file (see the module docs for the format).
fn verify_frame(bytes: &[u8]) -> Generation {
    let corrupt = |why: &str| Generation::Corrupt(why.to_string());
    let Some(newline) = bytes.iter().position(|&b| b == b'\n') else {
        return corrupt("no header line");
    };
    let Ok(header) = std::str::from_utf8(&bytes[..newline]) else {
        return corrupt("header is not UTF-8");
    };
    let mut fields = header.split(' ');
    if fields.next() != Some(MAGIC) {
        return corrupt("bad magic");
    }
    match fields.next() {
        Some(v) if v == format!("v{FORMAT_VERSION}") => {}
        Some(v) => return Generation::Corrupt(format!("unsupported format version {v:?}")),
        None => return corrupt("missing format version"),
    }
    let Some(len) = fields.next().and_then(parse_strict_decimal) else {
        return corrupt("bad length field");
    };
    let Some(checksum) = fields.next().and_then(parse_strict_hex64) else {
        return corrupt("bad checksum field");
    };
    if fields.next().is_some() {
        return corrupt("trailing header fields");
    }
    let body = &bytes[newline + 1..];
    // The frame ends with exactly one trailing newline after the payload.
    if body.len() != len + 1 || body[len] != b'\n' {
        return Generation::Corrupt(format!(
            "payload length {} does not match header {len} (torn write)",
            body.len().saturating_sub(1)
        ));
    }
    let payload = &body[..len];
    let actual = fnv1a64(payload);
    if actual != checksum {
        return Generation::Corrupt(format!(
            "checksum mismatch (header {checksum:016x}, payload {actual:016x})"
        ));
    }
    match std::str::from_utf8(payload) {
        Ok(s) => Generation::Ok(s.to_string()),
        Err(_) => corrupt("payload is not UTF-8"),
    }
}

/// Strict decimal parse: ASCII digits only — unlike `str::parse`, no sign
/// or whitespace tolerance, so every single-bit flip of a digit changes the
/// parsed value or fails.
fn parse_strict_decimal(field: &str) -> Option<usize> {
    if field.is_empty() || !field.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    field.parse::<usize>().ok()
}

/// Strict checksum parse: exactly 16 lowercase hex chars — `from_str_radix`
/// would also accept uppercase, making an ASCII case flip (bit 5 of a hex
/// letter) semantically invisible.
fn parse_strict_hex64(field: &str) -> Option<u64> {
    if field.len() != 16
        || !field
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(field, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch_store(tag: &str) -> ShardDir {
        static UNIQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("nnbo-serve-store-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ShardDir::open(dir, Arc::new(crate::io::StdIo)).unwrap()
    }

    #[test]
    fn persist_then_load_round_trips() {
        let store = scratch_store("roundtrip");
        store.persist("s1", "{\"x\":1}").unwrap();
        let loaded = store.load("s1").unwrap().unwrap();
        assert_eq!(loaded.snapshot_json, "{\"x\":1}");
        assert!(!loaded.recovered_from_backup);
        assert!(loaded.corruption.is_none());
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn unknown_session_loads_as_none() {
        let store = scratch_store("none");
        assert_eq!(store.load("nope").unwrap(), None);
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn truncated_latest_falls_back_to_prev() {
        let store = scratch_store("trunc");
        store.persist("s", "first").unwrap();
        store.persist("s", "second").unwrap();
        let latest = store.latest_path("s");
        let bytes = fs::read(&latest).unwrap();
        fs::write(&latest, &bytes[..bytes.len() - 3]).unwrap();
        let loaded = store.load("s").unwrap().unwrap();
        assert_eq!(loaded.snapshot_json, "first");
        assert!(loaded.recovered_from_backup);
        assert!(loaded.corruption.unwrap().contains("torn write"));
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn bit_flip_in_payload_is_detected() {
        let store = scratch_store("flip");
        store.persist("s", "first-generation").unwrap();
        store.persist("s", "second-generation").unwrap();
        let latest = store.latest_path("s");
        let mut bytes = fs::read(&latest).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[header_end + 3] ^= 0x10;
        fs::write(&latest, &bytes).unwrap();
        let loaded = store.load("s").unwrap().unwrap();
        assert_eq!(loaded.snapshot_json, "first-generation");
        assert!(loaded.recovered_from_backup);
        assert!(loaded.corruption.unwrap().contains("checksum mismatch"));
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn both_generations_damaged_is_an_error_not_a_wrong_resume() {
        let store = scratch_store("both");
        store.persist("s", "first").unwrap();
        store.persist("s", "second").unwrap();
        fs::write(store.latest_path("s"), b"garbage").unwrap();
        fs::write(store.prev_path("s"), b"also garbage").unwrap();
        let err = store.load("s").unwrap_err();
        assert!(matches!(err, ServeError::CorruptSnapshot { .. }));
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn list_and_remove() {
        let store = scratch_store("list");
        store.persist("b", "1").unwrap();
        store.persist("a", "1").unwrap();
        store.persist("a", "2").unwrap();
        assert_eq!(
            store.list().unwrap(),
            vec!["a".to_string(), "b".to_string()]
        );
        store.remove("a").unwrap();
        assert_eq!(store.list().unwrap(), vec!["b".to_string()]);
        assert_eq!(store.load("a").unwrap(), None);
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn unsafe_ids_are_rejected() {
        let store = scratch_store("ids");
        for bad in ["", "a/b", "../x", ".hidden", "a b", "x\n"] {
            assert!(
                matches!(
                    store.persist(bad, "{}"),
                    Err(ServeError::InvalidSessionId { .. })
                ),
                "id {bad:?} should be rejected"
            );
        }
        assert!(validate_id("ok-id_1.v2").is_ok());
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
