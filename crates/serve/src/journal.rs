//! The daemon's durable lifecycle journal.
//!
//! One [`RunStore`] (at `<root>/daemon/`) holds every
//! [`EpochEvent`] the daemon has journaled, keyed by
//! [`epoch_event_key`]`(scope, epoch, stage)`. Per-`(epoch, stage)`
//! keying is the crash-safety trick: re-journaling a stage after a
//! restart overwrites the same key in the latest-wins view instead of
//! appending a duplicate, so *every stage is idempotent* — an
//! `AlertRaised` survives a kill between it and its `DriftChecked`
//! without ever becoming two alerts.
//!
//! Appends default to [`SyncPolicy::EveryRecord`]: a journal record the
//! daemon has acted on is on disk before the action's effects matter.

use std::io;
use std::path::Path;

use adcomp_core::recording::{epoch_event_key, EpochEvent, KIND_EPOCH};
use adcomp_store::{RunStore, SyncPolicy, WalOptions};

/// Where a recovered daemon should pick up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resume {
    /// Start `epoch` from the top (nothing of it is journaled).
    Fresh {
        /// Next epoch to run.
        epoch: u64,
    },
    /// `epoch` died mid-survey: re-run it. Answered queries replay
    /// from the epoch's own recording store; `attempt` is the last
    /// journaled supervision attempt.
    Survey {
        /// Epoch to resume.
        epoch: u64,
        /// Last journaled attempt.
        attempt: u32,
    },
    /// `epoch`'s survey completed and is durable; only the drift stage
    /// remains.
    Drift {
        /// Epoch to finish.
        epoch: u64,
        /// Digest journaled at completion.
        digest: u64,
        /// Estimate count journaled at completion.
        estimates: u64,
    },
}

/// Append/scan wrapper over the daemon's lifecycle store.
pub struct EpochJournal {
    store: RunStore,
    scope: String,
}

impl EpochJournal {
    /// Opens (creating if needed) the journal at `dir`.
    pub fn open(dir: impl AsRef<Path>, scope: &str, fsync: bool) -> io::Result<EpochJournal> {
        let opts = WalOptions {
            sync: if fsync {
                SyncPolicy::EveryRecord
            } else {
                SyncPolicy::Never
            },
            ..WalOptions::default()
        };
        Ok(EpochJournal {
            store: RunStore::open_with(dir, opts)?,
            scope: scope.to_string(),
        })
    }

    /// Journals `event` durably (overwriting any prior record of the
    /// same epoch and stage).
    pub fn record(&self, event: &EpochEvent) -> io::Result<()> {
        let key = epoch_event_key(&self.scope, event.epoch(), event.stage());
        self.store.append(KIND_EPOCH, key, &event.encode())
    }

    /// The journaled event of `epoch` at `stage`, if any.
    pub fn event(&self, epoch: u64, stage: u8) -> Option<EpochEvent> {
        let key = epoch_event_key(&self.scope, epoch, stage);
        match self.store.get(key) {
            Some((KIND_EPOCH, payload)) => EpochEvent::decode(&payload).ok(),
            _ => None,
        }
    }

    /// Every journaled event, sorted by `(epoch, stage)`.
    pub fn events(&self) -> Vec<EpochEvent> {
        let mut out = Vec::new();
        self.store.for_each_kind(KIND_EPOCH, |_, payload| {
            if let Ok(ev) = EpochEvent::decode(payload) {
                out.push(ev);
            }
        });
        out.sort_by_key(|ev| (ev.epoch(), ev.stage()));
        out
    }

    /// Whether anything has ever been journaled (a nonempty journal on
    /// open means this daemon is resuming, not starting).
    pub fn is_fresh(&self) -> bool {
        self.store.count_kind(KIND_EPOCH) == 0
    }

    /// Scans the journal and decides where to pick up.
    pub fn recover(&self) -> Resume {
        let events = self.events();
        let latest = match events.iter().map(EpochEvent::epoch).max() {
            None => return Resume::Fresh { epoch: 0 },
            Some(e) => e,
        };
        let stage = |s: u8| self.event(latest, s);
        // Every epoch's lifecycle ends with DriftChecked (epoch 0 gets
        // a trivial one), so its presence means the epoch is done.
        if stage(3).is_some() {
            return Resume::Fresh { epoch: latest + 1 };
        }
        if let Some(EpochEvent::Completed {
            digest, estimates, ..
        }) = stage(2)
        {
            return Resume::Drift {
                epoch: latest,
                digest,
                estimates,
            };
        }
        match stage(1) {
            Some(EpochEvent::Started { attempt, .. }) => Resume::Survey {
                epoch: latest,
                attempt,
            },
            // Only an AlertRaised/Degraded survives for this epoch —
            // can't happen through the daemon, but a truncated journal
            // should still land somewhere sane.
            _ => Resume::Survey {
                epoch: latest,
                attempt: 0,
            },
        }
    }

    /// Forces buffered appends to disk (no-op under `EveryRecord`).
    pub fn sync(&self) -> io::Result<()> {
        self.store.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path under the system temp dir unique to this call (`tag`, the
    /// pid and a per-process counter), so parallel tests never share one.
    fn tmp(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "adcomp-serve-journal-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn recovery_lands_on_the_open_stage() {
        let dir = tmp("recover");
        let j = EpochJournal::open(&dir, "serve", false).unwrap();
        assert!(j.is_fresh());
        assert_eq!(j.recover(), Resume::Fresh { epoch: 0 });

        j.record(&EpochEvent::Started {
            epoch: 0,
            attempt: 1,
        })
        .unwrap();
        assert_eq!(
            j.recover(),
            Resume::Survey {
                epoch: 0,
                attempt: 1
            }
        );

        j.record(&EpochEvent::Completed {
            epoch: 0,
            digest: 9,
            estimates: 4,
        })
        .unwrap();
        assert_eq!(
            j.recover(),
            Resume::Drift {
                epoch: 0,
                digest: 9,
                estimates: 4
            }
        );

        j.record(&EpochEvent::DriftChecked {
            epoch: 0,
            findings: 0,
            crossings: 0,
        })
        .unwrap();
        assert_eq!(j.recover(), Resume::Fresh { epoch: 1 });

        // Restart-with-retry overwrites, never duplicates: two Started
        // records for epoch 1 leave one event in the view.
        j.record(&EpochEvent::Started {
            epoch: 1,
            attempt: 1,
        })
        .unwrap();
        j.record(&EpochEvent::Started {
            epoch: 1,
            attempt: 2,
        })
        .unwrap();
        assert_eq!(
            j.recover(),
            Resume::Survey {
                epoch: 1,
                attempt: 2
            }
        );
        let started: Vec<_> = j
            .events()
            .into_iter()
            .filter(|e| matches!(e, EpochEvent::Started { epoch: 1, .. }))
            .collect();
        assert_eq!(started.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_survives_reopen() {
        let dir = tmp("reopen");
        {
            let j = EpochJournal::open(&dir, "serve", true).unwrap();
            j.record(&EpochEvent::AlertRaised {
                epoch: 2,
                crossings: 1,
                detail: "crossing".into(),
            })
            .unwrap();
            j.record(&EpochEvent::Completed {
                epoch: 2,
                digest: 1,
                estimates: 1,
            })
            .unwrap();
        }
        let j = EpochJournal::open(&dir, "serve", true).unwrap();
        assert!(!j.is_fresh());
        assert!(matches!(
            j.event(2, 4),
            Some(EpochEvent::AlertRaised { crossings: 1, .. })
        ));
        assert_eq!(
            j.recover(),
            Resume::Drift {
                epoch: 2,
                digest: 1,
                estimates: 1
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
