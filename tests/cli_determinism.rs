//! The CLI front end is byte-deterministic: two consecutive runs with the
//! same flags must produce identical stdout, down to the last byte of the
//! stats block. This is the end-to-end witness that no wall-clock time,
//! hash-map ordering, or ambient randomness leaks into reported results.

use std::process::Command;

fn simulate(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate binary runs");
    assert!(
        out.status.success(),
        "simulate {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "no output produced");
    out.stdout
}

#[test]
fn consecutive_runs_are_byte_identical() {
    let args = [
        "--workload",
        "Other-Stream-Triad",
        "--quick",
        "--sockets",
        "2",
    ];
    assert_eq!(
        simulate(&args),
        simulate(&args),
        "stdout differs between identical runs"
    );
}

/// Usage errors exit 2 with the usage text and run nothing: removed
/// flags (a simulation runs on one thread; the switch is the only fabric;
/// the modelled hardware does not fail; workloads come from the catalog,
/// not from kernel-trace files) are unknown arguments.
#[test]
fn usage_errors_exit_2_with_usage_text() {
    for (extra, msg) in [
        (["--sim-threads", "2"], "unknown argument `--sim-threads`"),
        (["--topology", "ring"], "unknown argument `--topology`"),
        (["--faults", "lanes:s9@1=8"], "unknown argument `--faults`"),
        (
            ["--from-trace", "k.trace"],
            "unknown argument `--from-trace`",
        ),
        (
            ["--dump-trace", "k.trace"],
            "unknown argument `--dump-trace`",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(["--workload", "Rodinia-BFS", "--quick", "--sockets", "8"])
            .args(extra)
            .output()
            .expect("simulate binary runs");
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        assert!(out.stdout.is_empty(), "{extra:?} must run nothing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(msg) && stderr.contains("usage: simulate"),
            "{extra:?}: {stderr}"
        );
    }
}

/// A worker count is a positive integer: `--jobs 0` and `serve --workers
/// 0` are usage errors, and the daemon never starts.
#[test]
fn zero_worker_count_is_a_usage_error() {
    let dir = cache_dir("zero-workers");
    let socket = format!("{dir}/sock");
    for (args, msg) in [
        (
            vec![
                "--workload",
                "Other-Bitcoin-Crypto",
                "--quick",
                "--jobs",
                "0",
            ],
            "--jobs must be a positive integer",
        ),
        (
            vec![
                "serve",
                "--socket",
                &socket,
                "--cache-dir",
                &dir,
                "--workers",
                "0",
            ],
            "--workers must be a positive integer",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(&args)
            .output()
            .expect("simulate binary runs");
        assert_eq!(out.status.code(), Some(2), "simulate {args:?}");
        assert!(out.stdout.is_empty(), "nothing may run for {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(msg) && stderr.contains("usage: simulate"),
            "simulate {args:?}: {stderr}"
        );
    }
    assert!(
        !std::path::Path::new(&socket).exists(),
        "the daemon must not start"
    );
}

#[test]
fn timeline_output_is_byte_identical() {
    let args = [
        "--workload",
        "HPC-HPGMG-UVM",
        "--quick",
        "--sockets",
        "2",
        "--link",
        "dynamic",
        "--timeline",
    ];
    assert_eq!(
        simulate(&args),
        simulate(&args),
        "timeline output differs between identical runs"
    );
}

/// A fresh `--cache-dir` path for one test (tests run in one process).
fn cache_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("numa_gpu_cli_cache_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().unwrap().to_string()
}

/// Number of committed store entries under `dir`.
fn entries(dir: &str) -> usize {
    std::fs::read_dir(format!("{dir}/store/v1")).map_or(0, |d| d.count())
}

const BITCOIN: [&str; 5] = [
    "--workload",
    "Other-Bitcoin-Crypto",
    "--quick",
    "--sockets",
    "2",
];

#[test]
fn cache_dir_warm_run_is_byte_identical_to_cold() {
    let dir = cache_dir("warm");
    let mut args = BITCOIN.to_vec();
    args.extend(["--baseline", "--jobs", "2", "--timeline"]);
    args.extend(["--cache-dir", &dir]);
    let cold = simulate(&args);
    assert_eq!(entries(&dir), 2, "main job and baseline written through");
    assert_eq!(cold, simulate(&args), "warm stdout differs from cold");
    assert_eq!(
        cold,
        simulate(&args[..args.len() - 2]),
        "store changed stdout"
    );
}

#[test]
fn cache_dir_profile_follows_the_request_not_the_entry() {
    let with = |dir: &str, profile: bool| {
        let mut args = BITCOIN.to_vec();
        args.extend(["--cache-dir", dir]);
        args.extend(profile.then_some("--profile"));
        simulate(&args)
    };
    let (dir, fresh) = (cache_dir("profile"), cache_dir("profile_fresh"));
    let plain = with(&dir, false);
    // The stored entry has no profile: --profile reruns and heals it.
    let profiled = with(&dir, true);
    assert_eq!(
        profiled,
        with(&fresh, true),
        "table differs from a cold run"
    );
    assert_eq!(profiled, with(&dir, true), "healed entry serves the table");
    assert_eq!(plain, with(&dir, false), "a stored profile leaked");
}

#[test]
fn cache_dir_is_untouched_by_metrics_and_failed_runs() {
    let dir = cache_dir("bypass");
    let mut args = BITCOIN.to_vec();
    args.extend(["--metrics", "--cache-dir", &dir]);
    simulate(&args);
    assert_eq!(entries(&dir), 0, "a metrics run must not be stored");

    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(BITCOIN)
        .args(["--max-cycles", "50", "--cache-dir", &dir])
        .output()
        .expect("simulate binary runs");
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("simulation error: cycle budget exhausted"),
        "{err}"
    );
    assert!(out.stdout.is_empty() && entries(&dir) == 0);
}

/// `serve` + `submit` as separate processes, the way CI and users run them:
/// cold then warm is byte-identical, and the reply to `--shutdown` reaches
/// its client although the daemon process exits right behind it (replies
/// are queued per request, so this one must leave before the accept loop
/// is told to stop).
#[test]
fn daemon_processes_answer_cold_warm_and_shutdown() {
    let dir = cache_dir("daemon");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = format!("{dir}/sock");
    let submit = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(["submit", "--socket", &socket])
            .args(args)
            .output()
            .expect("submit runs")
    };
    for round in 0..5 {
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(["serve", "--socket", &socket, "--cache-dir", &dir])
            .spawn()
            .expect("serve starts");
        while !submit(&["--ping"]).status.success() {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let job = ["workload=Other-Bitcoin-Crypto", "sockets=2"];
        let (first, again) = (submit(&job), submit(&job));
        assert!(first.status.success() && first.stdout == again.stdout);
        let warm = String::from_utf8_lossy(&again.stderr).contains("event: warm");
        assert!(warm, "round {round}: the resubmit must be warm");
        let bye = submit(&["--shutdown"]);
        assert!(bye.status.success(), "round {round}: {bye:?}");
        assert!(daemon.wait().expect("serve exits").success());
    }
}
