//! Corruption-injection tests for the on-disk content-addressed store:
//! truncated, bit-flipped, version-skewed, and torn (temp-file-left-behind)
//! entries must never surface to a caller — they are quarantined to
//! `corrupt/` and transparently recomputed, the recomputed reports are
//! byte-identical to the originals, and the store converges back to a
//! clean state. The deterministic [`StoreEvent`] log asserts the exact
//! recovery path taken.

use numa_gpu_bench::store::CorruptKind;
use numa_gpu_bench::{configs, DiskStore, JobKey, Runner, SimPlan, StoreEvent, StoreKey};
use numa_gpu_core::{NumaGpuSystem, SimReport};
use numa_gpu_testkit::gen::ints;
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_check, Config, DetRng};
use numa_gpu_workloads::{by_name, Scale};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const WORKLOAD: &str = "Other-Bitcoin-Crypto";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "numa-gpu-store-corruption-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the canonical two-job sweep against `dir` and returns the fixed-
/// order serialization of both reports plus the runner (for stats).
fn sweep(dir: &Path) -> (Vec<String>, Runner) {
    let mut runner = Runner::new(Scale::quick())
        .cache_dir(dir)
        .expect("store opens");
    let wl = by_name(WORKLOAD, runner.scale()).expect("catalog workload");
    let mut plan = SimPlan::new();
    plan.job("single", configs::single(), &wl);
    plan.job("loc2", configs::locality(2), &wl);
    runner.execute(plan);
    let out = vec![
        runner.lookup("single", &wl).to_json().to_string(),
        runner.lookup("loc2", &wl).to_json().to_string(),
    ];
    (out, runner)
}

fn entry_paths(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir.join("store/v1"))
        .expect("store dir exists")
        .map(|e| e.expect("readable").path())
        .collect();
    entries.sort();
    entries
}

fn corrupt_count(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("corrupt")).map_or(0, |d| d.count())
}

#[test]
fn truncated_entry_is_quarantined_and_recomputed_byte_identically() {
    let dir = tmpdir("truncate");
    let (cold, cold_runner) = sweep(&dir);
    assert_eq!(cold_runner.warm_hits(), 0);
    let entries = entry_paths(&dir);
    assert_eq!(entries.len(), 2, "two entries committed");

    // Truncate one entry mid-payload (a crash during a non-atomic write
    // could never produce this — the rename is atomic — but a failing
    // disk can).
    let raw = std::fs::read_to_string(&entries[0]).unwrap();
    std::fs::write(&entries[0], &raw[..raw.len() / 2]).unwrap();

    let (healed, healed_runner) = sweep(&dir);
    assert_eq!(cold, healed, "recomputed reports must be byte-identical");
    // One survivor served warm; the truncated entry recomputed.
    assert_eq!(healed_runner.warm_hits(), 1);
    assert_eq!(healed_runner.runs(), 1);
    let events = healed_runner.store_events().expect("store attached");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, StoreEvent::Quarantined(_, CorruptKind::ChecksumMismatch))),
        "expected a checksum quarantine, got {events:?}"
    );
    assert!(events.iter().any(|e| matches!(e, StoreEvent::Write(_))));
    assert_eq!(
        corrupt_count(&dir),
        1,
        "corrupt entry preserved for post-mortem"
    );

    // Third pass: fully warm, store converged to clean state.
    let (warm, warm_runner) = sweep(&dir);
    assert_eq!(cold, warm);
    assert_eq!(warm_runner.warm_hits(), 2);
    assert_eq!(warm_runner.runs(), 0);
    assert_eq!(warm_runner.store_stats().unwrap().quarantined, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A low bit keeps the byte ASCII; the high bit makes the entry invalid
/// UTF-8, which must be quarantined like any other flip rather than read
/// as a miss and renamed over by the next write.
#[test]
fn bit_flipped_entry_is_quarantined_and_recomputed_byte_identically() {
    for mask in [0x04u8, 0x80] {
        let dir = tmpdir(&format!("bitflip-{mask:02x}"));
        let (cold, _) = sweep(&dir);
        let entries = entry_paths(&dir);

        // Flip one bit deep in the payload of each entry.
        for path in &entries {
            let mut bytes = std::fs::read(path).unwrap();
            let mid = bytes.len() * 3 / 4;
            bytes[mid] ^= mask;
            std::fs::write(path, &bytes).unwrap();
        }

        let (healed, healed_runner) = sweep(&dir);
        assert_eq!(cold, healed, "mask {mask:#04x}");
        assert_eq!(healed_runner.warm_hits(), 0, "both entries were corrupt");
        assert_eq!(healed_runner.runs(), 2);
        let stats = healed_runner.store_stats().unwrap();
        assert_eq!(stats.quarantined, 2, "mask {mask:#04x}");
        assert_eq!(stats.writes, 2, "both entries rewritten");
        let quarantined: Vec<_> = std::fs::read_dir(dir.join("corrupt"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(quarantined.len(), 2);
        assert!(
            quarantined
                .iter()
                .all(|name| name.contains(".checksum-mismatch.")),
            "mask {mask:#04x}: {quarantined:?}"
        );

        let (warm, warm_runner) = sweep(&dir);
        assert_eq!(cold, warm);
        assert_eq!(warm_runner.warm_hits(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_temp_file_is_swept_and_never_visible() {
    let dir = tmpdir("torn");
    let (cold, _) = sweep(&dir);

    // Simulate a crash mid-write: a half-written temp file left behind.
    // The committed entries are untouched (rename is atomic), so the only
    // residue a real crash can leave is here.
    std::fs::write(dir.join("tmp").join("deadbeef.1234.1"), b"{\"format\":1,").unwrap();

    let (warm, warm_runner) = sweep(&dir);
    assert_eq!(cold, warm);
    assert_eq!(
        warm_runner.warm_hits(),
        2,
        "torn temp never shadows entries"
    );
    let events = warm_runner.store_events().expect("store attached");
    assert_eq!(
        events.first(),
        Some(&StoreEvent::TempSwept(1)),
        "sweep is the first event at open"
    );
    assert!(
        std::fs::read_dir(dir.join("tmp")).unwrap().next().is_none(),
        "tmp/ is empty after open"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skewed_entry_is_quarantined_not_misread() {
    let dir = tmpdir("version");
    let (cold, _) = sweep(&dir);
    let entries = entry_paths(&dir);

    // Rewrite one header to claim a future format version, keeping the
    // payload intact: a store written by a newer build must be
    // recomputed, never decoded on faith.
    let raw = std::fs::read_to_string(&entries[1]).unwrap();
    let (_, payload) = raw.split_once('\n').unwrap();
    let skewed = format!("{{\"format\":999,\"checksum\":\"0000000000000000\"}}\n{payload}");
    std::fs::write(&entries[1], skewed).unwrap();

    let (healed, healed_runner) = sweep(&dir);
    assert_eq!(cold, healed);
    let events = healed_runner.store_events().expect("store attached");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, StoreEvent::Quarantined(_, CorruptKind::VersionMismatch))),
        "expected a version-mismatch quarantine, got {events:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The header line is parsed before its checksum can vouch for anything, so
/// it is the one place raw disk bytes meet the recursive JSON parser. 100k
/// `[` used to recurse 100k frames deep and overflow the stack — an abort
/// of `figures`, `simulate --cache-dir` or the daemon on every request for
/// that job, not a panic anything could contain.
#[test]
fn deeply_nested_header_is_quarantined_not_a_stack_overflow() {
    let dir = tmpdir("deep");
    let (cold, _) = sweep(&dir);
    let entries = entry_paths(&dir);
    let raw = std::fs::read_to_string(&entries[0]).unwrap();
    let (_, payload) = raw.split_once('\n').unwrap();
    std::fs::write(&entries[0], format!("{}\n{payload}", "[".repeat(100_000))).unwrap();

    let (healed, healed_runner) = sweep(&dir);
    assert_eq!(cold, healed, "recomputed reports must be byte-identical");
    assert_eq!(healed_runner.warm_hits(), 1);
    assert_eq!(healed_runner.runs(), 1);
    let events = healed_runner.store_events().expect("store attached");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, StoreEvent::Quarantined(_, CorruptKind::BadHeader))),
        "expected a bad-header quarantine, got {events:?}"
    );
    assert_eq!(corrupt_count(&dir), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_log_is_deterministic_for_a_deterministic_access_sequence() {
    let dir_a = tmpdir("det-a");
    let dir_b = tmpdir("det-b");
    let (_, a) = sweep(&dir_a);
    let (_, b) = sweep(&dir_b);
    assert_eq!(
        a.store_events().unwrap(),
        b.store_events().unwrap(),
        "same access sequence, same event log"
    );
    let (_, a2) = sweep(&dir_a);
    let (_, b2) = sweep(&dir_b);
    assert_eq!(a2.store_events().unwrap(), b2.store_events().unwrap());
    assert!(a2
        .store_events()
        .unwrap()
        .iter()
        .all(|e| matches!(e, StoreEvent::Hit(_))));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A temp file that another live store on the root holds mid-write (it
/// keeps it locked until its rename) survives an open; once its writer is
/// gone, the next open sweeps it.
#[test]
fn locked_temp_file_survives_open_and_is_swept_once_unlocked() {
    let dir = tmpdir("locked-temp");
    drop(DiskStore::open(&dir).expect("store opens"));
    let in_flight = dir.join("tmp").join("deadbeef.1234.1");
    let writer = std::fs::File::create_new(&in_flight).unwrap();
    writer.lock().unwrap();

    let store = DiskStore::open(&dir).expect("store opens");
    assert_eq!(store.events(), Vec::new(), "nothing swept");
    assert!(in_flight.exists(), "a live write is left alone");

    drop(writer);
    let store = DiskStore::open(&dir).expect("store opens");
    assert_eq!(store.events(), vec![StoreEvent::TempSwept(1)]);
    assert!(!in_flight.exists(), "the dead writer's file is swept");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A save never writes into a temp name another store holds, such as a
/// second store in this process whose counter yields the same name.
#[test]
fn save_claims_a_temp_name_no_other_store_holds() {
    let dir = tmpdir("claimed-temp");
    let key = StoreKey::new(
        &JobKey::new("loc2", WORKLOAD, false),
        &configs::locality(2),
        &Scale::quick(),
    );
    let store = DiskStore::open(&dir).expect("store opens");
    let taken = dir
        .join("tmp")
        .join(format!("{}.{}.1", key.hash, std::process::id()));
    let other = std::fs::File::create_new(&taken).unwrap();
    other.lock().unwrap();

    store.save(&key, &SimReport::default()).expect("saves");
    assert_eq!(store.load(&key), Some(SimReport::default()));
    assert!(taken.exists(), "the other writer's temp file is untouched");
    assert_eq!(std::fs::metadata(&taken).unwrap().len(), 0);
    drop(other);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quarantine never renames over an earlier one: two opens of one root,
/// each of which quarantines the same key, leave two files in `corrupt/`.
#[test]
fn quarantines_from_two_opens_of_one_root_are_both_kept() {
    let dir = tmpdir("two-opens");
    let key = StoreKey::new(
        &JobKey::new("loc2", WORKLOAD, false),
        &configs::locality(2),
        &Scale::quick(),
    );
    for open in 1..=2 {
        let store = DiskStore::open(&dir).expect("store opens");
        store.save(&key, &SimReport::default()).expect("saves");
        let path = entry_paths(&dir).pop().expect("one entry");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() * 3 / 4;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(&key), None);
        assert_eq!(
            corrupt_count(&dir),
            open,
            "open {open} kept every quarantine"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One simulated report, run once per test process.
fn real_report() -> &'static SimReport {
    static REPORT: OnceLock<SimReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let wl = by_name(WORKLOAD, &Scale::quick()).expect("catalog workload");
        let mut sys = NumaGpuSystem::new(configs::locality(2)).expect("valid config");
        sys.enable_link_timeline();
        sys.run(&wl).expect("runs")
    })
}

prop_check! {
    #![config = Config::new().cases(64)]

    /// Whatever bytes an entry holds — random ones, or the valid entry
    /// after one flip, truncation or inserted byte — a load returns `None`
    /// without panicking, quarantines the file, and the next save heals it.
    fn arbitrary_entry_bytes_are_quarantined_and_healed(
        damage in ints(0u8..4),
        seed in ints(0u64..u64::MAX),
    ) {
        let dir = tmpdir("arbitrary");
        let store = DiskStore::open(&dir).expect("store opens");
        let key = StoreKey::new(
            &JobKey::new("loc2", WORKLOAD, true),
            &configs::locality(2),
            &Scale::quick(),
        );
        let report = real_report();
        store.save(&key, report).expect("saves");
        let path = entry_paths(&dir).pop().expect("one entry");
        let valid = std::fs::read(&path).expect("readable");
        let mut rng = DetRng::seed_from_u64(seed);
        let at = rng.gen_range(0..valid.len());
        let byte = rng.next_u64() as u8;
        let bytes = match damage {
            0 => (0..rng.gen_range(0usize..2048)).map(|_| rng.next_u64() as u8).collect(),
            1 => {
                let mut b = valid.clone();
                b[at] ^= byte.max(1);
                b
            }
            2 => valid[..at].to_vec(),
            _ => {
                let mut b = valid.clone();
                b.insert(at, byte);
                b
            }
        };
        std::fs::write(&path, &bytes).expect("writable");

        prop_assert_eq!(store.load(&key), None);
        let events = store.events();
        prop_assert!(
            matches!(
                &events[..],
                [StoreEvent::Write(_), StoreEvent::Quarantined(q, _), StoreEvent::Miss(m)]
                    if *q == key.hash && *m == key.hash
            ),
            "{:?}",
            events
        );
        let quarantined: Vec<PathBuf> = std::fs::read_dir(dir.join("corrupt"))
            .expect("corrupt dir exists")
            .map(|e| e.expect("readable").path())
            .collect();
        prop_assert_eq!(quarantined.len(), 1);
        prop_assert_eq!(std::fs::read(&quarantined[0]).ok(), Some(bytes));
        prop_assert!(!path.exists());

        store.save(&key, report).expect("saves");
        prop_assert_eq!(store.load(&key), Some(report.clone()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
