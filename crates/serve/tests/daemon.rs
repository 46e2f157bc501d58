//! End-to-end tests for the sim daemon: cold/warm submit over a real Unix
//! socket, journal replay after a simulated crash, and a concurrency
//! hammer driven by the deterministic testkit PRNG.

use numa_gpu_serve::{Client, Daemon, DaemonConfig, JobSpec};
use numa_gpu_testkit::rng::DetRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Unique socket + cache-dir pair per test (tests share one process).
fn paths(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("numa-gpu-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    (base.join("sock"), base.join("cache"))
}

fn start(socket: &PathBuf, cache: &PathBuf) -> std::thread::JoinHandle<()> {
    let daemon = Daemon::bind(DaemonConfig::new(socket, cache)).expect("bind");
    std::thread::spawn(move || daemon.serve().expect("serve"))
}

fn spec(line: &str) -> JobSpec {
    JobSpec::parse(line).expect("valid spec")
}

#[test]
fn submit_cold_then_warm_is_byte_identical() {
    let (socket, cache) = paths("e2e");
    let handle = start(&socket, &cache);

    let mut client = Client::connect(&socket).expect("connect");
    client.ping().expect("ping");

    let job = spec("workload=Other-Bitcoin-Crypto config=locality sockets=2");
    let cold = client.submit(&job).expect("cold submit");
    assert!(cold.error.is_none(), "cold run failed: {:?}", cold.error);
    assert!(cold.events.contains(&"queued".to_string()));
    assert!(!cold.was_warm());
    let cold_doc = cold.result.expect("cold result");

    let warm = client.submit(&job).expect("warm submit");
    assert!(
        warm.was_warm(),
        "second submit must be served from the store"
    );
    assert_eq!(warm.hash, cold.hash, "same spec, same content address");
    assert_eq!(
        warm.result.expect("warm result"),
        cold_doc,
        "warm result must be byte-identical to the cold run"
    );

    // A spec that parses but names no catalog workload fails cleanly and
    // the connection survives.
    let bad = client
        .submit(&spec("workload=No-Such-Workload"))
        .expect("submit");
    let (class, msg) = bad.error.expect("must fail");
    assert_eq!(class, "parse");
    assert!(msg.contains("No-Such-Workload"));

    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"panics\":0"), "stats: {stats}");
    assert!(stats.contains("\"failed\":0"), "stats: {stats}");

    client.shutdown().expect("shutdown");
    handle.join().expect("serve thread");
    assert!(!socket.exists(), "socket removed on clean shutdown");
}

/// Regression: a cache filled by a profiling sweep (`figures --profile
/// --cache-dir`) holds entries carrying a profile. The daemon never asks
/// for one, so its answer must not depend on who filled the cache: the
/// `RESULT` served warm from that entry is the one a cold daemon computes.
#[test]
fn warm_result_does_not_leak_a_profile_left_by_another_front_end() {
    use numa_gpu_bench::{configs, Runner, SimPlan};
    use numa_gpu_workloads::{by_name, Scale};

    let job = spec("workload=Other-Bitcoin-Crypto config=locality sockets=2");
    let result_from = |tag: &str, prefill: bool| {
        let (socket, cache) = paths(tag);
        if prefill {
            let mut runner = Runner::new(Scale::quick())
                .profile()
                .cache_dir(&cache)
                .expect("store opens");
            let wl = by_name(&job.workload, runner.scale()).expect("catalog workload");
            let mut plan = SimPlan::new();
            plan.job("loc2", configs::locality(2), &wl);
            runner.execute(plan);
            assert!(runner.lookup("loc2", &wl).profile.is_some());
        }
        let handle = start(&socket, &cache);
        let mut client = Client::connect(&socket).expect("connect");
        let sub = client.submit(&job).expect("submit");
        assert_eq!(sub.was_warm(), prefill);
        client.shutdown().expect("shutdown");
        handle.join().expect("serve thread");
        sub.result.expect("result")
    };
    assert_eq!(
        result_from("leak-filled", true),
        result_from("leak-empty", false),
        "a warm RESULT must be byte-identical to the cold one"
    );
}

/// A warm `RESULT` is the entry's own bytes. An entry saved *with* a
/// profile, whose names mimic the report's keys, is served to a plain
/// `SUBMIT` with the profile cut out of the bytes: exactly the `RESULT` a
/// fresh daemon sends cold, `"profile":null` and all.
#[test]
fn warm_result_from_an_entry_with_a_profile_is_the_cold_result() {
    use numa_gpu_bench::codec::decode_report_text;
    use numa_gpu_bench::{DiskStore, KeyedJob};
    use numa_gpu_core::ProfileReport;

    let job = spec("workload=Other-Bitcoin-Crypto config=locality sockets=2");
    let submit = |socket: &PathBuf, cache: &PathBuf| {
        let handle = start(socket, cache);
        let mut client = Client::connect(socket).expect("connect");
        let sub = client.submit(&job).expect("submit");
        client.shutdown().expect("shutdown");
        handle.join().expect("serve thread");
        sub
    };
    let (socket, cache) = paths("splice-cold");
    let cold = submit(&socket, &cache).result.expect("cold result");
    assert!(cold.ends_with(r#","profile":null}"#), "{cold}");

    let (socket, cache) = paths("splice-warm");
    let mut report = decode_report_text(&cold).expect("the cold result decodes");
    let mut profile = ProfileReport::new();
    profile
        .scope(r#""profile":null}"#)
        .count("profile", 1)
        .count(r#","profile":"#, 2);
    report.profile = Some(profile);
    let keyed = KeyedJob::new(job.to_job().expect("catalog job"), &job.scale());
    let store = DiskStore::open(&cache).expect("store opens");
    store.save(keyed.key(), &report).expect("saves");
    drop(store);

    let warm = submit(&socket, &cache);
    assert!(warm.was_warm(), "the entry must be served");
    assert_eq!(warm.result.expect("warm result"), cold);
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the replay poll gives up after a wall-clock bound"
)]
fn journal_replay_recomputes_pending_jobs_into_the_store() {
    let (socket, cache) = paths("replay");
    let job = spec("workload=Other-Bitcoin-Crypto config=single");

    // Hand-write the journal a crashed daemon would have left behind: a
    // job that was durably ACKed (`queued`) but never finished (`done`).
    let journal_dir = cache.join("journal");
    std::fs::create_dir_all(&journal_dir).unwrap();
    std::fs::write(
        journal_dir.join("journal.log"),
        format!("queued {}\n", job.to_line()),
    )
    .unwrap();

    let handle = start(&socket, &cache);

    // Replay runs on the pool with no client attached; wait for the
    // recomputed result to land in the store.
    let store_dir = cache.join("store/v1");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let entries = std::fs::read_dir(&store_dir).map_or(0, |d| d.count());
        if entries > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replayed job never hit the store"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The first client submit of that very spec is served warm: the
    // restart healed the interrupted work.
    let mut client = Client::connect(&socket).expect("connect");
    let sub = client.submit(&job).expect("submit");
    assert!(sub.was_warm(), "replayed job must warm the store");
    assert!(sub.result.is_some());

    client.shutdown().expect("shutdown");
    handle.join().expect("serve thread");
}

#[test]
fn a_failed_store_write_is_retried_and_the_result_still_delivered() {
    let (socket, cache) = paths("store-retry");
    let handle = start(&socket, &cache);
    // No entry can land under a plain file where the store's directory was.
    let store_dir = cache.join("store/v1");
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::write(&store_dir, "not a directory").unwrap();

    let mut client = Client::connect(&socket).expect("connect");
    let job = spec("workload=Other-Bitcoin-Crypto config=locality sockets=2");
    let sub = client.submit(&job).expect("submit");
    assert_eq!(sub.events, ["queued", "retry:1", "retry:2", "retry:3"]);
    assert!(sub.error.is_none(), "{:?}", sub.error);
    assert!(sub.result.is_some());
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"retries\":3"), "stats: {stats}");
    // The result never reached the store, so the job stays pending.
    let journal = std::fs::read_to_string(cache.join("journal/journal.log")).unwrap();
    assert_eq!(journal, format!("queued {}\n", job.to_line()));

    client.shutdown().expect("shutdown");
    handle.join().expect("serve thread");
}

#[test]
fn concurrent_clients_get_byte_identical_results() {
    let (socket, cache) = paths("hammer");
    let handle = start(&socket, &cache);

    const CLIENTS: u64 = 4;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                // Deterministic per-client choice of spec: every client
                // draws from the same small space, so collisions (two
                // clients racing the same cold job) are likely — exactly
                // the dedup path under test.
                let mut rng = DetRng::seed_from_u64(0xC0FFEE ^ i);
                let workload = ["Other-Bitcoin-Crypto", "Rodinia-BFS"][rng.bounded_u64(2) as usize];
                let sockets = [2u64, 4][rng.bounded_u64(2) as usize];
                let job = spec(&format!(
                    "workload={workload} config=locality sockets={sockets}"
                ));

                let mut client = Client::connect(&socket).expect("connect");
                let first = client.submit(&job).expect("first submit");
                assert!(
                    first.error.is_none(),
                    "hammer job failed: {:?}",
                    first.error
                );
                let doc = first.result.expect("first result");
                // Same client resubmits: by now its own cold run has
                // committed, so this must be warm and byte-identical.
                let second = client.submit(&job).expect("second submit");
                assert!(second.was_warm(), "resubmit must be warm");
                assert_eq!(second.result.expect("second result"), doc);
                (job.to_line(), doc)
            })
        })
        .collect();

    let mut results: Vec<(String, String)> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    results.sort();
    // Clients that drew the same spec must have seen identical bytes,
    // whether computed or served warm.
    for pair in results.windows(2) {
        if pair[0].0 == pair[1].0 {
            assert_eq!(pair[0].1, pair[1].1, "divergent results for {}", pair[0].0);
        }
    }

    let mut client = Client::connect(&socket).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"panics\":0"), "stats: {stats}");
    client.shutdown().expect("shutdown");
    handle.join().expect("serve thread");
}
