//! The restart journal: queued work survives `kill -9`.
//!
//! The daemon appends one line per lifecycle edge — `queued <spec>` when a
//! job is accepted, `done <hash>` when its result is safely in the store —
//! with an `fsync` after each append. On restart, replay pairs the edges:
//! any `queued` without a matching `done` is resubmitted (its result lands
//! in the content-addressed store, so a client re-submitting the same job
//! gets a warm hit). The journal is compacted on open, rewriting only the
//! still-pending lines through the same temp+rename discipline the store
//! uses.
//!
//! A torn final line (the crash happened mid-append) is ignored on
//! replay: a lost `queued` means the client never got its ACK journaled —
//! it will resubmit; a lost `done` means one redundant recompute that the
//! store turns into a no-op overwrite. Either way the journal never
//! invents work and never loses acknowledged work.

use crate::protocol::JobSpec;
use numa_gpu_bench::store::fnv1a64;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Stable identity of a journal entry: the FNV-1a hash of the spec's
/// canonical line.
pub fn spec_hash(spec: &JobSpec) -> String {
    format!("{:016x}", fnv1a64(spec.to_line().as_bytes()))
}

/// Append-only journal of accepted-but-unfinished jobs.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Opens the journal at `dir/journal.log`, replays it, compacts it to
    /// the still-pending entries, and returns those entries in their
    /// original submission order.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (a missing journal is an empty one); a
    /// malformed line, invalid UTF-8 included, is skipped (see module
    /// docs), never fatal.
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Vec<JobSpec>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("journal.log");
        let pending = match std::fs::read(&path) {
            Ok(raw) => Self::replay(&String::from_utf8_lossy(&raw)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        // Compact via temp+rename: the journal is either the old bytes or
        // the compacted bytes, never a prefix of the new ones.
        let tmp = dir.join(format!("journal.tmp.{}", std::process::id()));
        {
            let mut f = File::create(&tmp)?;
            let queued = |spec: &JobSpec| format!("queued {}\n", spec.to_line());
            f.write_all(pending.iter().map(queued).collect::<String>().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((Journal { path, file }, pending))
    }

    /// Pairs `queued`/`done` edges; unmatched `queued` lines are pending.
    fn replay(raw: &str) -> Vec<JobSpec> {
        let mut pending: Vec<(String, JobSpec)> = Vec::new();
        // A record is one `write` ending in its newline, so a tail without
        // one is torn — and could parse as a job nobody submitted.
        let whole = raw.rfind('\n').map_or("", |end| &raw[..end]);
        for line in whole.lines() {
            if let Some(spec_line) = line.strip_prefix("queued ") {
                if let Ok(spec) = JobSpec::parse(spec_line) {
                    let hash = spec_hash(&spec);
                    if !pending.iter().any(|(h, _)| *h == hash) {
                        pending.push((hash, spec));
                    }
                }
            } else if let Some(hash) = line.strip_prefix("done ") {
                pending.retain(|(h, _)| h != hash.trim());
            }
            // Anything else is damage: skip.
        }
        pending.into_iter().map(|(_, spec)| spec).collect()
    }

    /// Records that a job was accepted. Synced to disk before returning,
    /// so an ACKed job survives a crash.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn record_queued(&mut self, spec: &JobSpec) -> std::io::Result<()> {
        self.append(format!("queued {}\n", spec.to_line()))
    }

    /// Records that a job's result is durably in the store.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn record_done(&mut self, spec: &JobSpec) -> std::io::Result<()> {
        self.append(format!("done {}\n", spec_hash(spec)))
    }

    /// Appends one record in one `write`, so a crash can tear it only at
    /// its end (replay skips a torn tail), then syncs.
    fn append(&mut self, record: String) -> std::io::Result<()> {
        self.file.write_all(record.as_bytes())?;
        self.file.sync_all()
    }

    /// The journal file's path (tests inspect it directly).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("numa-gpu-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(workload: &str) -> JobSpec {
        JobSpec::parse(&format!("workload={workload}")).unwrap()
    }

    #[test]
    fn replay_returns_unfinished_jobs_in_order() {
        let dir = tmpdir("replay");
        {
            let (mut j, pending) = Journal::open(&dir).unwrap();
            assert!(pending.is_empty());
            j.record_queued(&spec("A")).unwrap();
            j.record_queued(&spec("B")).unwrap();
            j.record_queued(&spec("C")).unwrap();
            j.record_done(&spec("B")).unwrap();
            // No clean shutdown: simulate kill -9 by just dropping.
        }
        let (_j, pending) = Journal::open(&dir).unwrap();
        assert_eq!(
            pending
                .iter()
                .map(|s| s.workload.as_str())
                .collect::<Vec<_>>(),
            ["A", "C"],
            "only unfinished jobs replay, in submission order"
        );
        // Compaction rewrote the journal to exactly the pending lines.
        let raw = std::fs::read_to_string(dir.join("journal.log")).unwrap();
        assert_eq!(raw.lines().count(), 2);
        assert!(raw.lines().all(|l| l.starts_with("queued ")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_line_is_skipped_not_fatal() {
        let dir = tmpdir("torn");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.record_queued(&spec("A")).unwrap();
        }
        // Wherever a crash cuts the one write of a record, replay gives
        // the whole records before it: never a job read off a prefix
        // (`queued workload=B config=numa` is a valid spec, on 4 sockets;
        // B's append never completed, so B was never durably acknowledged),
        // and a `done` cut short of its newline un-queues nothing.
        let b = "queued workload=B config=numa sockets=8 timeline=0 scale=quick\n";
        for record in [b.to_string(), format!("done {}\n", spec_hash(&spec("A")))] {
            for cut in 1..record.len() {
                let log = OpenOptions::new()
                    .append(true)
                    .open(dir.join("journal.log"));
                let torn = &record.as_bytes()[..cut];
                log.unwrap().write_all(torn).unwrap();
                let (_j, pending) = Journal::open(&dir).unwrap();
                assert_eq!(pending, [spec("A")], "cut at {cut} of {record:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_line_that_is_not_utf8_is_skipped_not_the_journal() {
        let dir = tmpdir("utf8");
        let valid = format!("queued {}\n", spec("A").to_line());
        let mut raw = valid.clone().into_bytes();
        raw.extend_from_slice(b"queu\xffed workload=B\n");
        std::fs::write(dir.join("journal.log"), raw).unwrap();
        let (_j, pending) = Journal::open(&dir).unwrap();
        assert_eq!(pending, [spec("A")]);
        // Compaction kept the valid job on disk.
        let compacted = std::fs::read_to_string(dir.join("journal.log")).unwrap();
        assert_eq!(compacted, valid);
        let (_j, pending) = Journal::open(&dir).unwrap();
        assert_eq!(pending, [spec("A")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_queued_lines_collapse() {
        let dir = tmpdir("dup");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.record_queued(&spec("A")).unwrap();
            j.record_queued(&spec("A")).unwrap();
        }
        let (_j, pending) = Journal::open(&dir).unwrap();
        assert_eq!(pending.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
