//! On-disk content-addressed result store behind the [`Runner`](crate::Runner) memo.
//!
//! Repeated sweeps across processes and CI runs pay for each simulation
//! once: results are written under a canonical hash of everything that
//! determines them and read back byte-identically on the next run.
//!
//! ## Keying
//!
//! A [`StoreKey`] is derived from the *key material*: a sorted-field JSON
//! document combining
//!
//! * [`JobKey::canonical_json`] — the structured job identity (label,
//!   timeline flag, workload), JSON-escaped so no label can collide with
//!   another by string concatenation;
//! * a fingerprint of the **canonicalized** [`SystemConfig`] — the full
//!   configuration with the report-invariant knobs (`sim_threads`, `obs`,
//!   `watchdog`) reset to fixed values, because reports are byte-identical
//!   across those settings by contract (`sim_threads` is ignored);
//! * the workload [`Scale`] — quick and full runs of the same workload
//!   name are different simulations.
//!
//! The cache *directory* is deliberately not part of the key: where the
//! store lives must never change what it stores.
//!
//! ## Crash safety and self-healing
//!
//! Entries are written to a `tmp/` sibling and atomically renamed into
//! place after an `fsync`, so a `kill -9` mid-write can only ever leave a
//! torn *temp* file — never a torn entry. Each entry carries a format
//! version and an FNV-1a checksum of its payload; a truncated, bit-flipped
//! or otherwise corrupt entry is detected on read, moved into `corrupt/`
//! (quarantined for post-mortem, never silently deleted), and the result
//! is recomputed and rewritten. Every store decision is counted in
//! [`StoreStats`] and appended to a deterministic [`StoreEvent`] log (the
//! newest [`EVENT_LOG_CAP`] are kept) so tests can assert the exact
//! recovery path taken.

use crate::codec::{decode_report, encode_report, CodecError, REPORT_FORMAT_VERSION};
use crate::plan::{JobKey, SimJob};
use numa_gpu_core::SimReport;
use numa_gpu_testkit::json::Json;
use numa_gpu_types::SystemConfig;
use numa_gpu_workloads::Scale;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::{File, TryLockError};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

pub use numa_gpu_testkit::fnv1a64;

/// A second, independent 64-bit FNV-1a stream (different offset basis), so
/// entry names carry 128 bits of key identity. A name collision would need
/// both streams to collide at once; the stored key material is still
/// verified on read as the last line of defense.
fn fnv1a64_twisted(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content address of one simulation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey {
    /// Canonical key material (sorted-field JSON); embedded in the entry
    /// and re-verified on read.
    pub material: String,
    /// 32-hex-char entry name (two independent FNV-1a streams over the
    /// material).
    pub hash: String,
}

impl StoreKey {
    /// Derives the store key for a job: its [`JobKey`] identity plus the
    /// canonicalized configuration fingerprint and workload scale.
    pub fn new(key: &JobKey, cfg: &SystemConfig, scale: &Scale) -> StoreKey {
        let scale_fp = format!(
            "cta/{}:{}..{} fp/{} ops/{}",
            scale.cta_divisor,
            scale.min_ctas,
            scale.max_ctas,
            scale.footprint_divisor,
            scale.ops_percent
        );
        // Sorted field names; every string goes through the JSON writer's
        // escaping (`canonical_json` is that writer's output), so the
        // material is canonical by construction.
        let material = format!(
            r#"{{"config":"{:016x}","job":{},"scale":{}}}"#,
            config_fingerprint(cfg),
            key.canonical_json(),
            Json::Str(scale_fp)
        );
        let hash = format!(
            "{:016x}{:016x}",
            fnv1a64(material.as_bytes()),
            fnv1a64_twisted(material.as_bytes())
        );
        StoreKey { material, hash }
    }
}

/// Distinct canonical configurations whose fingerprints a process keeps:
/// a whole `figures` run uses a few dozen.
const FINGERPRINT_MEMO_CAP: usize = 64;

/// FNV-1a of the `Debug` text of `cfg` with its report-invariant knobs
/// pinned, computed once per distinct canonical configuration per process.
///
/// Report-invariant knobs are pinned so a warm cache answers every
/// equivalent request: `sim_threads` is ignored by the simulator,
/// observability toggles only *add* fields (and observability
/// runs bypass the store), and the watchdog can only abort a run — it
/// cannot change a successful report.
///
/// The memo answers by `==`, which is sound because `==` implies identical
/// `Debug` text: `SystemConfig` has no float field (it is `Eq`, asserted
/// below), so every field is an integer, a bool or an enum of those, and
/// derived `Debug` prints each as a function of its value alone. The oldest
/// memo entry gives way once [`FINGERPRINT_MEMO_CAP`] are held.
fn config_fingerprint(cfg: &SystemConfig) -> u64 {
    const _: fn() = || {
        fn no_float_field<T: Eq>() {}
        no_float_field::<SystemConfig>();
    };
    static MEMO: Mutex<VecDeque<(SystemConfig, u64)>> = Mutex::new(VecDeque::new());
    let mut canonical = cfg.clone();
    canonical.sim_threads = 1;
    canonical.obs = Default::default();
    canonical.watchdog = Default::default();
    // Plain values: a panic elsewhere cannot leave the memo half updated.
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&(_, fp)) = memo.iter().find(|(seen, _)| *seen == canonical) {
        return fp;
    }
    let fp = fnv1a64(format!("{canonical:?}").as_bytes());
    if memo.len() == FINGERPRINT_MEMO_CAP {
        memo.pop_front();
    }
    memo.push_back((canonical, fp));
    fp
}

/// A job sealed with the [`StoreKey`] derived from it — the only form in
/// which a job meets the store. A submit or plan entry pays for the key
/// once, here, and carries it from its first read to its write; the fields
/// are private and the job is lent out read-only, so no caller can pair a
/// job with another job's key or change the configuration after keying.
#[derive(Debug, Clone)]
pub struct KeyedJob {
    job: SimJob,
    key: StoreKey,
}

impl KeyedJob {
    /// Seals `job` with its key at `scale`.
    pub fn new(job: SimJob, scale: &Scale) -> KeyedJob {
        let key = StoreKey::new(&job.key, &job.cfg, scale);
        KeyedJob { job, key }
    }

    /// The job.
    pub fn job(&self) -> &SimJob {
        &self.job
    }

    /// The key derived from the job.
    pub fn key(&self) -> &StoreKey {
        &self.key
    }
}

/// Why an entry was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The file had no parseable header line, or one that every other
    /// check passed but that is not the line the writer emits.
    BadHeader,
    /// The header named a format version this build does not read.
    VersionMismatch,
    /// The payload checksum did not match the header (bit flip or
    /// truncation).
    ChecksumMismatch,
    /// The payload parsed but did not decode as a report, or decoded but
    /// is not laid out as the writer lays it out.
    BadPayload,
    /// The payload decoded but its embedded key material was not the
    /// requested one (a 128-bit hash collision, or a hand-renamed file).
    KeyMismatch,
}

impl std::fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CorruptKind::BadHeader => "bad-header",
            CorruptKind::VersionMismatch => "version-mismatch",
            CorruptKind::ChecksumMismatch => "checksum-mismatch",
            CorruptKind::BadPayload => "bad-payload",
            CorruptKind::KeyMismatch => "key-mismatch",
        };
        write!(f, "{name}")
    }
}

/// One store decision, in the order it was taken. The log is deterministic
/// for a deterministic access sequence, which is what lets tests assert
/// the exact recovery path (quarantine → recompute → rewrite).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreEvent {
    /// A read was served from disk.
    Hit(String),
    /// No entry existed for the key.
    Miss(String),
    /// An entry was written (fresh result, or a recompute after
    /// quarantine).
    Write(String),
    /// A corrupt entry was moved into `corrupt/` and will be recomputed.
    Quarantined(String, CorruptKind),
    /// Stale temp files (from a crashed writer) were removed at open.
    TempSwept(u64),
}

/// Counters summarizing a store's lifetime (also exposed over the daemon's
/// `STATS` reply).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Reads served from disk.
    pub hits: u64,
    /// Reads that found no entry.
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Corrupt entries quarantined.
    pub quarantined: u64,
    /// Stale temp files swept at open.
    pub temp_swept: u64,
}

impl StoreStats {
    /// Byte-stable JSON form (insertion-ordered).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::UInt(self.hits)),
            ("misses", Json::UInt(self.misses)),
            ("writes", Json::UInt(self.writes)),
            ("quarantined", Json::UInt(self.quarantined)),
            ("temp_swept", Json::UInt(self.temp_swept)),
        ])
    }
}

/// An entry's first line: the format version and the checksum of the
/// `payload` on its second line. The writer emits it and a hit compares
/// the whole line, so both are checked in one comparison.
fn entry_header(payload: &str) -> String {
    format!(
        r#"{{"format":{REPORT_FORMAT_VERSION},"checksum":"{:016x}"}}"#,
        fnv1a64(payload.as_bytes())
    )
}

/// A payload up to its report: `{"key":<material>,"report":`. The writer
/// appends the encoded report and `}`; a hit strips exactly these bytes.
fn payload_prefix(material: &str) -> String {
    format!(r#"{{"key":{material},"report":"#)
}

/// A store hit: the decoded report and the verified entry it decoded from.
#[derive(Debug)]
pub struct StoreHit {
    /// The decoded report.
    pub report: SimReport,
    entry: String,
    /// Where the report's text, and its `profile` value, start in `entry`.
    start: usize,
    profile_at: usize,
}

impl StoreHit {
    /// The report as [`encode_report`] writes it, byte for byte: the entry
    /// up to the payload's closing `}`.
    pub fn text(&self) -> &str {
        &self.entry[self.start..self.entry.len() - 1]
    }
}

/// The on-disk content-addressed result store.
///
/// Layout under the root directory:
///
/// ```text
/// <root>/store/v1/<32-hex>.entry   committed entries
/// <root>/tmp/<name>.<pid>.<seq>    in-flight writes (locked, atomically renamed)
/// <root>/corrupt/<name>.<seq>      quarantined entries
/// ```
///
/// Reads and writes take `&self` and do their file I/O, checksum and codec
/// work unlocked, so the daemon's threads overlap; only the decision log
/// sits behind a mutex. Writes of one key commit by atomic rename (the last
/// wins, all carry the same bytes); a quarantine racing a heal of the same
/// entry can at worst set the fresh entry aside too: one more recompute.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    log: Mutex<Log>,
    /// Uniquifies temp and quarantine file names.
    seq: AtomicU64,
}

/// Decisions the log retains. A daemon answers warm loads for as long as
/// it lives, so the log drops its oldest event past this many; the
/// counters stay exact.
pub const EVENT_LOG_CAP: usize = 1024;

#[derive(Debug, Default)]
struct Log {
    stats: StoreStats,
    events: VecDeque<StoreEvent>,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root` and sweeps any
    /// temp files left behind by a crashed writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating the directory tree.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let root = root.into();
        std::fs::create_dir_all(root.join("store/v1"))?;
        std::fs::create_dir_all(root.join("tmp"))?;
        std::fs::create_dir_all(root.join("corrupt"))?;
        let store = DiskStore {
            root,
            log: Mutex::default(),
            seq: AtomicU64::new(0),
        };
        let swept = store.sweep_temp()?;
        if swept > 0 {
            store.record(StoreEvent::TempSwept(swept));
        }
        Ok(store)
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.log.lock().expect("no update can panic half way")
    }

    /// Appends one decision to the log and counts it: the only writer of
    /// either, so the counters are a fold of every event ever recorded.
    fn record(&self, event: StoreEvent) {
        let mut log = self.log();
        match event {
            StoreEvent::Hit(_) => log.stats.hits += 1,
            StoreEvent::Miss(_) => log.stats.misses += 1,
            StoreEvent::Write(_) => log.stats.writes += 1,
            StoreEvent::Quarantined(..) => log.stats.quarantined += 1,
            StoreEvent::TempSwept(swept) => log.stats.temp_swept += swept,
        }
        if log.events.len() == EVENT_LOG_CAP {
            log.events.pop_front();
        }
        log.events.push_back(event);
    }

    /// Removes every file under `tmp/` that no writer holds. A writer locks
    /// its temp file from creation to rename, and the lock dies with the
    /// writer, so a file this sweep can lock is a crash residue while
    /// another live store's in-flight write is left alone.
    fn sweep_temp(&self) -> std::io::Result<u64> {
        let mut swept = 0;
        for entry in std::fs::read_dir(self.root.join("tmp"))? {
            let path = entry?.path();
            let Ok(file) = File::open(&path) else {
                continue;
            };
            if file.try_lock().is_ok() && std::fs::remove_file(&path).is_ok() {
                swept += 1;
            }
        }
        Ok(swept)
    }

    /// Creates `<stem>.<seq>` in `dir` under a name no other store or
    /// process holds, advancing `seq` past names already taken.
    fn claim(&self, dir: &Path, stem: &str) -> std::io::Result<(PathBuf, File)> {
        loop {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            let path = dir.join(format!("{stem}.{seq}"));
            match File::create_new(&path) {
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                file => return Ok((path, file?)),
            }
        }
    }

    fn entry_path(&self, key: &StoreKey) -> PathBuf {
        self.root
            .join("store/v1")
            .join(format!("{}.entry", key.hash))
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StoreStats {
        self.log().stats
    }

    /// The ordered decision log (hits, misses, writes, quarantines): the
    /// newest [`EVENT_LOG_CAP`] decisions.
    pub fn events(&self) -> Vec<StoreEvent> {
        self.log().events.iter().cloned().collect()
    }

    /// Loads the result stored under `key`, or `None` on a miss.
    ///
    /// A corrupt entry (torn, truncated, bit-flipped, not UTF-8, wrong
    /// version, or carrying foreign key material) is quarantined into
    /// `corrupt/` and reported as a miss — the caller recomputes and the next
    /// [`DiskStore::save`] heals the entry.
    pub fn load(&self, key: &StoreKey) -> Option<SimReport> {
        self.hit(key).map(|hit| hit.report)
    }

    /// [`DiskStore::load`], with the verified bytes the report decoded from.
    fn hit(&self, key: &StoreKey) -> Option<StoreHit> {
        let path = self.entry_path(key);
        // Bytes, not a string: an entry that is not UTF-8 is damage the
        // checks below quarantine, not a miss that lets the next write
        // rename over the evidence. Only such an entry pays the lossy decode.
        let read = std::fs::read(&path).map(|raw| {
            let text = String::from_utf8(raw)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
            Self::parse_entry(text, key)
        });
        match read {
            Ok(Ok(hit)) => {
                self.record(StoreEvent::Hit(key.hash.clone()));
                return Some(hit);
            }
            Ok(Err(kind)) => self.quarantine(&path, key, kind),
            Err(_) => {}
        }
        self.record(StoreEvent::Miss(key.hash.clone()));
        None
    }

    /// Reads one entry file: the header line [`entry_header`] of the
    /// payload, then the payload — [`payload_prefix`] of the key material,
    /// one report object and `}`. A hit is byte checks (format version and
    /// checksum in one comparison, the key material byte for byte) and one
    /// pull decode of the report in the writer's layout, with no tree;
    /// anything else is only classified.
    fn parse_entry(raw: String, key: &StoreKey) -> Result<StoreHit, CorruptKind> {
        let text = raw
            .split_once('\n')
            .filter(|&(header, payload)| header == entry_header(payload))
            .and_then(|(_, payload)| payload.strip_prefix(payload_prefix(&key.material).as_str()))
            .and_then(|rest| rest.strip_suffix('}'));
        let start = text.map_or(0, |text| raw.len() - 1 - text.len());
        match text.map(crate::codec::decode_with_profile_at) {
            Some(Ok((report, at))) => Ok(StoreHit {
                report,
                entry: raw,
                start,
                profile_at: start + at,
            }),
            _ => Err(Self::corrupt_kind(&raw, key)),
        }
    }

    /// Names what is wrong with an entry [`Self::parse_entry`] rejected, by
    /// parsing it into trees step by step. It never returns a report, so
    /// the byte checks stay the one way to a hit.
    fn corrupt_kind(raw: &str, key: &StoreKey) -> CorruptKind {
        let tree_checks = || {
            let (header_line, payload) = raw.split_once('\n').ok_or(CorruptKind::BadHeader)?;
            let header = Json::parse(header_line).map_err(|_| CorruptKind::BadHeader)?;
            let version = header
                .get("format")
                .and_then(Json::as_u64)
                .ok_or(CorruptKind::BadHeader)?;
            if version != REPORT_FORMAT_VERSION {
                return Err(CorruptKind::VersionMismatch);
            }
            let checksum = header
                .get("checksum")
                .and_then(Json::as_str)
                .ok_or(CorruptKind::BadHeader)?;
            if checksum != format!("{:016x}", fnv1a64(payload.as_bytes())) {
                return Err(CorruptKind::ChecksumMismatch);
            }
            let doc = Json::parse(payload).map_err(|_| CorruptKind::BadPayload)?;
            let material = doc.get("key").ok_or(CorruptKind::BadPayload)?.to_string();
            if material != key.material {
                return Err(CorruptKind::KeyMismatch);
            }
            let report = doc.get("report").ok_or(CorruptKind::BadPayload)?;
            decode_report(report).map_err(|_| CorruptKind::BadPayload)?;
            Ok(header_line == entry_header(payload))
        };
        match tree_checks() {
            Err(kind) => kind,
            // Every tree check passed, yet the bytes are not the layout the
            // writer emits (a reordered header or payload, say).
            Ok(true) => CorruptKind::BadPayload,
            Ok(false) => CorruptKind::BadHeader,
        }
    }

    /// Moves a corrupt entry aside (never deletes it) under a name it claims
    /// in `corrupt/`, so no earlier quarantine, whoever made it, is lost.
    fn quarantine(&self, path: &Path, key: &StoreKey, kind: CorruptKind) {
        // A failed claim or rename (e.g. the file vanished) still counts as
        // a quarantine decision: the entry is gone either way and the
        // caller recomputes.
        let claimed = self.claim(&self.root.join("corrupt"), &format!("{}.{kind}", key.hash));
        if let Ok((dest, _)) = claimed {
            if std::fs::rename(path, &dest).is_err() {
                let _ = std::fs::remove_file(&dest);
            }
        }
        self.record(StoreEvent::Quarantined(key.hash.clone(), kind));
    }

    /// Persists `report` under `key` via temp-file + atomic rename.
    ///
    /// Reports carrying observability payloads the codec does not model
    /// (metrics snapshots, trace events) are skipped silently — they are
    /// never served from the store either, so skipping keeps the store
    /// coherent.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; an entry is either fully committed or not
    /// visible at all.
    pub fn save(&self, key: &StoreKey, report: &SimReport) -> std::io::Result<()> {
        match encode_report(report) {
            Ok(doc) => self.write_entry(key, doc),
            Err(CodecError::Ineligible(_)) => Ok(()),
            Err(CodecError::Malformed(msg)) => Err(std::io::Error::other(msg)),
        }
    }

    /// Commits the entry of `encoded`, the text [`encode_report`] writes.
    fn write_entry(&self, key: &StoreKey, encoded: impl std::fmt::Display) -> std::io::Result<()> {
        let mut payload = payload_prefix(&key.material);
        write!(payload, "{encoded}}}").expect("writing to a String cannot fail");
        let header = entry_header(&payload);
        let stem = format!("{}.{}", key.hash, std::process::id());
        let (tmp, mut f) = loop {
            let (tmp, f) = self.claim(&self.root.join("tmp"), &stem)?;
            match f.try_lock() {
                Ok(()) => break (tmp, f),
                // A sweep locked it before this writer could; it removes it.
                Err(TryLockError::WouldBlock) => continue,
                Err(TryLockError::Error(e)) => return Err(e),
            }
        };
        f.write_all(header.as_bytes())?;
        f.write_all(b"\n")?;
        f.write_all(payload.as_bytes())?;
        f.sync_all()?;
        // Renamed while still locked, so no sweep can take it first.
        std::fs::rename(&tmp, self.entry_path(key))?;
        self.record(StoreEvent::Write(key.hash.clone()));
        Ok(())
    }

    /// Whether `job` goes through the store at all: a metrics or trace
    /// run carries payloads the codec does not model, so it neither reads
    /// nor writes entries.
    fn serves(job: &SimJob) -> bool {
        !job.cfg.obs.metrics && !job.cfg.obs.trace
    }

    /// The one place a job reads the store: applies the whole read policy
    /// from the job's own configuration, so every front end (`figures`,
    /// `simulate`, the daemon) gets the same answer from the same entry.
    ///
    /// * A metrics or trace job never reads the store.
    /// * A job that did not ask for a profile gets a stored one stripped,
    ///   from report and text, so a warm hit equals the cold run whoever
    ///   filled the cache.
    /// * A job that asked for a profile misses on an entry without one;
    ///   the [`DiskStore::save_job`] after its run heals the entry.
    pub fn load_job(&self, keyed: &KeyedJob) -> Option<StoreHit> {
        if !Self::serves(&keyed.job) {
            return None;
        }
        let mut hit = self.hit(&keyed.key)?;
        if keyed.job.cfg.obs.profile {
            return hit.report.profile.is_some().then_some(hit);
        }
        if hit.report.profile.take().is_some() {
            // Cut where the profile value starts: the text ends as the
            // encoder ends a report without one, the entry as a payload.
            hit.entry.truncate(hit.profile_at);
            hit.entry.push_str("null}}");
        }
        Some(hit)
    }

    /// The one place a job writes the store; the write-side twin of
    /// [`DiskStore::load_job`]. A metrics or trace job is skipped.
    ///
    /// # Errors
    ///
    /// As [`DiskStore::save`].
    pub fn save_job(&self, keyed: &KeyedJob, report: &SimReport) -> std::io::Result<()> {
        if !Self::serves(&keyed.job) {
            return Ok(());
        }
        self.save(&keyed.key, report)
    }

    /// [`DiskStore::save_job`] of the text [`encode_report`] writes for the
    /// job's report, for a caller that sends that text on too.
    pub fn save_job_text(&self, keyed: &KeyedJob, encoded: &str) -> std::io::Result<()> {
        if !Self::serves(&keyed.job) {
            return Ok(());
        }
        self.write_entry(&keyed.key, encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    /// Satellite regression: the exact canonical encoding and hash of a
    /// known key are pinned. If either changes, every deployed store goes
    /// cold silently — bump [`REPORT_FORMAT_VERSION`] instead and let
    /// entries recompute through the quarantine path.
    #[test]
    fn canonical_job_key_encoding_and_hash_are_pinned() {
        let key = JobKey::new("loc4", "Rodinia-Euler3D", true);
        let canonical = key.canonical_json();
        assert_eq!(
            canonical,
            r#"{"label":"loc4","timeline":true,"workload":"Rodinia-Euler3D"}"#
        );
        assert_eq!(
            format!("{:016x}", fnv1a64(canonical.as_bytes())),
            "cf26e8cd9eeebef6"
        );
    }

    /// Satellite regression, in the spirit of the PR 3 `"x+timeline"` fix:
    /// keys that collide under naive string concatenation stay distinct
    /// under the canonical encoding, including labels containing JSON
    /// metacharacters.
    #[test]
    fn canonical_encoding_cannot_collide_by_concatenation() {
        let timeline = JobKey::new("x", "w", true);
        let literal = JobKey::new("x+timeline", "w", false);
        assert_ne!(timeline.canonical_json(), literal.canonical_json());

        // A label that *contains* the canonical punctuation is escaped,
        // not spliced: `a","workload":"b` cannot forge field boundaries.
        let forged = JobKey::new("a\",\"workload\":\"b", "w", false);
        let honest = JobKey::new("a", "b", false);
        assert_ne!(forged.canonical_json(), honest.canonical_json());
        let cfg = configs::locality(2);
        let scale = Scale::quick();
        assert_ne!(
            StoreKey::new(&forged, &cfg, &scale).hash,
            StoreKey::new(&honest, &cfg, &scale).hash
        );
    }

    #[test]
    fn store_key_separates_scale_config_and_job() {
        let key = JobKey::new("loc4", "w", false);
        let base = StoreKey::new(&key, &configs::locality(4), &Scale::quick());
        let full = StoreKey::new(&key, &configs::locality(4), &Scale::full());
        let other_cfg = StoreKey::new(&key, &configs::traditional(4), &Scale::quick());
        let other_job = StoreKey::new(
            &JobKey::new("loc4", "w", true),
            &configs::locality(4),
            &Scale::quick(),
        );
        assert_ne!(base.hash, full.hash, "scale must be part of the key");
        assert_ne!(base.hash, other_cfg.hash, "config must be part of the key");
        assert_ne!(
            base.hash, other_job.hash,
            "job identity must be part of the key"
        );
    }

    #[test]
    fn report_invariant_knobs_share_one_entry() {
        let key = JobKey::new("loc4", "w", false);
        let mut a = configs::locality(4);
        let mut b = configs::locality(4);
        a.sim_threads = 1;
        b.sim_threads = 8;
        b.obs.profile = true;
        b.watchdog.max_cycles = 123_456;
        assert_eq!(
            StoreKey::new(&key, &a, &Scale::quick()).hash,
            StoreKey::new(&key, &b, &Scale::quick()).hash,
            "sim_threads/obs/watchdog are canonicalized out of the key"
        );
    }

    /// The memo answers exactly what formatting the canonical configuration
    /// would, on a first and a repeated lookup, and past its capacity.
    #[test]
    fn fingerprint_memo_equals_the_direct_computation() {
        let direct = |cfg: &SystemConfig| {
            let mut canonical = cfg.clone();
            canonical.sim_threads = 1;
            canonical.obs = Default::default();
            canonical.watchdog = Default::default();
            fnv1a64(format!("{canonical:?}").as_bytes())
        };
        let presets: [fn(u8) -> SystemConfig; 5] = [
            |_| configs::single(),
            configs::traditional,
            configs::page_interleaved,
            configs::locality,
            configs::numa_aware,
        ];
        let mut cfgs: Vec<SystemConfig> = presets
            .iter()
            .flat_map(|preset| [2, 4, 8].map(preset))
            .collect();
        cfgs.extend(
            crate::experiments::fig3_variants()
                .into_iter()
                .map(|(_, c)| c),
        );
        cfgs.extend((1..=8).map(SystemConfig::numa_aware_sockets));
        for cfg in &cfgs {
            let mut knobs = cfg.clone();
            knobs.sim_threads = 8;
            knobs.obs = numa_gpu_types::ObsConfig::full();
            knobs.watchdog.max_cycles = 123_456;
            knobs.watchdog.stall_cycles = 789;
            for _ in 0..2 {
                assert_eq!(config_fingerprint(cfg), direct(cfg), "{cfg:?}");
                assert_eq!(config_fingerprint(&knobs), config_fingerprint(cfg));
            }
        }
        // More distinct configurations than the memo holds still answer
        // right after the oldest give way.
        for period in 0..FINGERPRINT_MEMO_CAP as u32 + 8 {
            let mut cfg = configs::numa_aware(4);
            cfg.cache_sample_time_cycles = 1_000 + period;
            assert_eq!(config_fingerprint(&cfg), direct(&cfg));
        }
        assert_eq!(config_fingerprint(&cfgs[0]), direct(&cfgs[0]));
    }

    /// The whole job-level policy in one place: plain hit, profile
    /// stripped, profile-wanted miss healed by the rewrite, and the
    /// metrics/trace bypass on both the read and the write side.
    #[test]
    fn job_policy_follows_the_jobs_own_obs_config() {
        let dir = std::env::temp_dir().join(format!("numa-gpu-policy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let scale = Scale::quick();
        let wl = numa_gpu_workloads::by_name("Other-Bitcoin-Crypto", &scale).unwrap();
        let mut plan = crate::SimPlan::new();
        plan.job("loc2", configs::locality(2), &wl);
        let with = |f: fn(&mut numa_gpu_types::ObsConfig)| {
            let mut job = plan.jobs()[0].clone();
            f(&mut job.cfg.obs);
            KeyedJob::new(job, &scale)
        };
        let load = |job: &KeyedJob| store.load_job(job).map(|hit| hit.report);
        let plain = with(|_| ());
        let profiled = with(|o| o.profile = true);
        let bare = SimReport {
            total_cycles: 7,
            ..SimReport::default()
        };
        let mut rich = bare.clone();
        rich.profile = Some(numa_gpu_core::ProfileReport::new());

        // Plain hit; a profile-wanting job misses on the profile-less entry.
        store.save_job(&plain, &bare).unwrap();
        assert_eq!(load(&plain), Some(bare.clone()));
        assert_eq!(load(&profiled), None);
        // Its rewrite heals the entry; the plain job gets the profile stripped.
        store.save_job(&profiled, &rich).unwrap();
        assert_eq!(load(&profiled), Some(rich.clone()));
        assert_eq!(load(&plain), Some(bare.clone()));

        // Metrics and trace jobs share the key but touch nothing.
        let before = store.stats();
        for job in [with(|o| o.metrics = true), with(|o| o.trace = true)] {
            assert_eq!(load(&job), None);
            store.save_job(&job, &bare).unwrap();
        }
        assert_eq!(store.stats(), before, "bypassing jobs never reach the disk");
        assert_eq!(load(&profiled), Some(rich));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A daemon's store answers warm loads for as long as it lives: the
    /// log must stop growing while the counters keep counting.
    #[test]
    fn event_log_is_capped_and_stats_stay_exact() {
        let dir = std::env::temp_dir().join(format!("numa-gpu-logcap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let key = StoreKey::new(
            &JobKey::new("loc2", "w", false),
            &configs::locality(2),
            &Scale::quick(),
        );
        store.save(&key, &SimReport::default()).unwrap();
        for _ in 0..10_000 {
            assert!(store.load(&key).is_some());
        }
        let events = store.events();
        assert_eq!(events.len(), EVENT_LOG_CAP);
        assert!(events
            .iter()
            .all(|e| *e == StoreEvent::Hit(key.hash.clone())));
        assert_eq!(store.stats().hits, 10_000);
        assert_eq!(store.stats().writes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One entry's exact bytes, recorded from the writer that filled the
    /// stores already on disk: the layout helpers can drift from neither
    /// the old writer nor the old reader without this failing.
    #[test]
    fn one_entry_is_pinned_byte_for_byte() {
        const ENTRY: &str = concat!(
            r#"{"format":2,"checksum":"1a7fdd1d6996f330"}"#,
            "\n",
            r#"{"key":{"config":"a3bb43207a3edf7d","job":{"label":"loc\"2","#,
            r#""timeline":true,"workload":"Rodinia-Euler3D"},"#,
            r#""scale":"cta/64:16..128 fp/96 ops/25"},"report":{"version":2,"#,
            r#""workload":"Rodinia-Euler3D","total_cycles":12345,"kernel_cycles":[100,200],"#,
            r#""kernel_start_cycles":[0,100],"sockets":[],"link_timelines":[],"#,
            r#""l1":{"local_hits":0,"local_misses":0,"remote_hits":0,"remote_misses":0,"#,
            r#""fills":0,"evictions":0,"dirty_evictions":0},"#,
            r#""remote_read_fraction_bits":4598175219545276416,"interconnect_bytes":4096,"#,
            r#""link_power_w_bits":0,"profile":null}}"#,
        );
        let dir = std::env::temp_dir().join(format!("numa-gpu-pinned-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let key = StoreKey::new(
            &JobKey::new("loc\"2", "Rodinia-Euler3D", true),
            &configs::locality(2),
            &Scale::quick(),
        );
        let report = SimReport {
            workload: "Rodinia-Euler3D".into(),
            total_cycles: 12_345,
            kernel_cycles: vec![100, 200],
            kernel_start_cycles: vec![0, 100],
            remote_read_fraction: 0.25,
            interconnect_bytes: 4096,
            ..SimReport::default()
        };
        store.save(&key, &report).unwrap();
        let path = store.entry_path(&key);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), ENTRY);
        std::fs::write(&path, ENTRY).unwrap();
        assert_eq!(store.load(&key), Some(report));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An entry every tree check accepts but whose bytes are not the
    /// written layout is quarantined, never served: the byte checks are
    /// the one way to a hit.
    #[test]
    fn a_valid_entry_in_another_layout_is_quarantined_not_served() {
        let dir = std::env::temp_dir().join(format!("numa-gpu-layout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let key = StoreKey::new(
            &JobKey::new("loc2", "w", false),
            &configs::locality(2),
            &Scale::quick(),
        );
        let report = SimReport::default();
        let doc = encode_report(&report).unwrap();
        let payload = format!(r#"{{"key":{},"report":{doc}}}"#, key.material);
        let swapped = format!(r#"{{"report":{doc},"key":{}}}"#, key.material);
        let checksum = format!("{:016x}", fnv1a64(payload.as_bytes()));
        for (entry, kind) in [
            (
                format!(
                    "{{\"checksum\":\"{checksum}\",\"format\":{REPORT_FORMAT_VERSION}}}\n{payload}"
                ),
                CorruptKind::BadHeader,
            ),
            (
                format!("{}\n{swapped}", entry_header(&swapped)),
                CorruptKind::BadPayload,
            ),
        ] {
            std::fs::write(store.entry_path(&key), entry).unwrap();
            assert_eq!(store.load(&key), None);
            let events = store.events();
            assert_eq!(
                events[events.len() - 2..],
                [
                    StoreEvent::Quarantined(key.hash.clone(), kind),
                    StoreEvent::Miss(key.hash.clone())
                ]
            );
        }
        store.save(&key, &report).unwrap();
        assert_eq!(store.load(&key), Some(report));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn twisted_stream_is_independent_of_the_plain_one() {
        assert_ne!(fnv1a64(b"ab"), fnv1a64_twisted(b"ab"));
    }
}
