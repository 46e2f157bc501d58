//! `figures` argument parsing, driven through the real binary: a mistyped
//! flag must not silently fall through to the full-scale sweep, and a
//! flag's value must not swallow the artifact of the same name.

use std::process::Command;

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

#[test]
fn unknown_flag_and_missing_value_exit_2_with_usage() {
    for args in [
        &["--quik", "table1"][..],
        &["table1", "--out"][..],
        &["--topology", "ring", "table1"][..],
    ] {
        let out = figures().args(args).output().expect("figures runs");
        assert_eq!(out.status.code(), Some(2), "figures {args:?}");
        assert!(out.stdout.is_empty(), "nothing may run for {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: figures"), "figures {args:?}: {err}");
    }
}

#[test]
fn zero_jobs_exits_2_with_usage() {
    let out = figures()
        .args(["--quick", "--jobs", "0", "table1"])
        .output()
        .expect("figures runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--jobs expects a positive integer, got `0`")
            && err.contains("usage: figures"),
        "{err}"
    );
}

#[test]
fn an_unwritable_out_dir_exits_2_naming_it() {
    let args = ["--out", "/dev/null/x", "fig2"];
    let out = figures().args(args).output().expect("figures runs");
    assert_eq!(out.status.code(), Some(2), "figures {args:?}");
    assert!(out.stdout.is_empty(), "nothing may run for {args:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--out /dev/null/x: "),
        "figures {args:?}: {err}"
    );
}

#[test]
fn a_flag_value_equal_to_an_artifact_name_selects_nothing() {
    let dir = std::env::temp_dir().join(format!("numa-gpu-figures-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // `--out fig2 fig2`: the first `fig2` is the directory, the second the
    // artifact — exactly one artifact runs, not the default 14.
    let out = figures()
        .current_dir(&dir)
        .args(["--quick", "--out", "fig2", "fig2"])
        .output()
        .expect("figures runs");
    assert!(out.status.success());
    let written: Vec<_> = std::fs::read_dir(dir.join("fig2"))
        .expect("--out dir created")
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(written, ["fig2.txt"]);
    let _ = std::fs::remove_dir_all(&dir);
}
