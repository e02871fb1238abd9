//! Store scrub/repair reporting.
//!
//! A scrub pass ([`crate::shard::ShardedStore::scrub`] across every shard,
//! [`crate::SnapshotStore::repair_session`] for one session) walks the
//! on-disk sessions, verifies checksum framing, and self-heals what it can:
//! stray `.session.tmp` files from torn writes are deleted, an intact
//! `.session.prev` backup is promoted over a corrupt or missing `latest`,
//! and a corrupt backup shadowed by an intact `latest` is dropped.  The
//! pass never changes what [`crate::SnapshotStore::load`] returns —
//! it only makes the already-winning generation the durable one — so
//! recovery after a scrub replays bit-identically to recovery before it.

/// What a scrub pass decided about one session's generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScrubAction {
    /// `latest` verified; nothing needed promoting.
    #[default]
    Intact,
    /// `latest` was corrupt or missing and the intact `prev` backup was
    /// renamed into its place.
    PromotedBackup,
    /// No generation of the session exists (e.g. only a stray tmp file was
    /// left behind by a first-write crash).
    Missing,
    /// Every present generation failed checksum verification; the session's
    /// durable state is lost and `recover` will surface `CorruptSnapshot`.
    Unrecoverable,
}

/// The per-session outcome of [`crate::SnapshotStore::repair_session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionScrub {
    /// What happened to the session's generations.
    pub action: ScrubAction,
    /// A stray `.session.tmp` from an interrupted write was deleted.
    pub tmp_removed: bool,
    /// A corrupt `.session.prev` shadowed by an intact `latest` was deleted.
    pub stale_backup_removed: bool,
    /// The `latest` generation failed checksum verification (as opposed to
    /// being merely absent) — true bit rot or a torn rename, not just a
    /// crash between the two renames.
    pub latest_was_corrupt: bool,
}

/// Aggregate outcome of a scrub pass over one or more shards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Sessions whose generations were examined.
    pub sessions_checked: usize,
    /// Sessions whose `latest` generation verified as-is.
    pub intact: usize,
    /// Sessions healed by promoting the `.prev` backup generation.
    pub backups_promoted: usize,
    /// Stray `.session.tmp` files removed.
    pub tmp_removed: usize,
    /// Corrupt `.session.prev` backups removed from behind an intact latest.
    pub stale_backups_removed: usize,
    /// Sessions left with only a stray artifact and no recoverable state.
    pub missing: usize,
    /// Sessions where every generation failed verification.
    pub unrecoverable: Vec<String>,
    /// Shard directories walked by the pass.
    pub shards_scrubbed: usize,
    /// Shards that were `Down` before the pass and passed the health probe.
    pub shards_revived: usize,
    /// Shards that were `Down` before the pass and failed the health probe.
    pub shards_still_down: usize,
}

impl ScrubReport {
    /// Folds one session's scrub outcome into the aggregate.
    pub fn record(&mut self, id: &str, scrub: SessionScrub) {
        self.sessions_checked += 1;
        if scrub.tmp_removed {
            self.tmp_removed += 1;
        }
        if scrub.stale_backup_removed {
            self.stale_backups_removed += 1;
        }
        match scrub.action {
            ScrubAction::Intact => self.intact += 1,
            ScrubAction::PromotedBackup => self.backups_promoted += 1,
            ScrubAction::Missing => self.missing += 1,
            ScrubAction::Unrecoverable => self.unrecoverable.push(id.to_string()),
        }
    }

    /// True when no session lost data and no shard stayed down.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.unrecoverable.is_empty() && self.shards_still_down == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tallies_each_action() {
        let mut report = ScrubReport::default();
        report.record("a", SessionScrub::default());
        report.record(
            "b",
            SessionScrub {
                action: ScrubAction::PromotedBackup,
                tmp_removed: true,
                ..SessionScrub::default()
            },
        );
        report.record(
            "c",
            SessionScrub {
                action: ScrubAction::Unrecoverable,
                stale_backup_removed: true,
                ..SessionScrub::default()
            },
        );
        report.record(
            "d",
            SessionScrub {
                action: ScrubAction::Missing,
                ..SessionScrub::default()
            },
        );
        assert_eq!(report.sessions_checked, 4);
        assert_eq!(report.intact, 1);
        assert_eq!(report.backups_promoted, 1);
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.stale_backups_removed, 1);
        assert_eq!(report.missing, 1);
        assert_eq!(report.unrecoverable, vec!["c".to_string()]);
        assert!(!report.is_clean());
    }

    #[test]
    fn clean_report_has_no_losses() {
        let mut report = ScrubReport::default();
        report.record("a", SessionScrub::default());
        report.shards_scrubbed = 2;
        assert!(report.is_clean());
        report.shards_still_down = 1;
        assert!(!report.is_clean());
    }
}
