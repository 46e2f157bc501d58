//! What the daemon puts on the wire, byte for byte and write for write.
//!
//! The conversation below was recorded over a real socket on the commit
//! before the reply path moved from one `write` per format fragment to one
//! per batch of whole lines (0de7580, PR 16): a speed-only change to the
//! text plane must give every request the reply lines it always got.
//! `RESULT` documents are pinned as `<length>:<fnv1a64>`. When fault
//! injection was removed, its one faulted `SUBMIT` was dropped and the
//! rest re-recorded; report format 2 then took the null fault-report
//! field out of each `RESULT` and the empty fault scenario out of each
//! `ACK`'s store key.

use numa_gpu_serve::protocol::LineSender;
use numa_gpu_serve::{Daemon, DaemonConfig};
use numa_gpu_testkit::fnv1a64;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const BITCOIN: &str = "SUBMIT workload=Other-Bitcoin-Crypto config=locality sockets=2";
const ZERO_STATS: &str = "STATS {\"done\":0,\"failed\":0,\"retries\":0,\"panics\":0,\
    \"in_flight\":0,\"store\":{\"hits\":0,\"misses\":0,\"writes\":0,\"quarantined\":0,\
    \"temp_swept\":0}}";
const LAST_STATS: &str = "STATS {\"done\":2,\"failed\":0,\"retries\":0,\"panics\":0,\
    \"in_flight\":0,\"store\":{\"hits\":2,\"misses\":4,\"writes\":2,\"quarantined\":0,\
    \"temp_swept\":0}}";

/// Each request with its reply, grouped into the `write` calls it leaves
/// in: one per request, except where the cold path must not sit on a line
/// while it blocks (`ACK` before the journal's fsync, `EVENT queued` before
/// the wait for the worker). Flattened, the lines are the parent's.
const CONVERSATION: &[(&str, &[&[&str]])] = &[
    ("PING", &[&["PONG"]]),
    ("STATS", &[&[ZERO_STATS]]),
    (
        BITCOIN,
        &[
            &["ACK 1 bffb0d59ba5b3699834ce908c4d85e6a"],
            &["EVENT 1 queued"],
            &["RESULT 1 820:65a27ad92f066c1d"],
        ],
    ),
    (
        BITCOIN,
        &[&[
            "ACK 2 bffb0d59ba5b3699834ce908c4d85e6a",
            "EVENT 2 warm",
            "RESULT 2 820:65a27ad92f066c1d",
        ]],
    ),
    ("DANCE", &[&["ERROR 0 parse unknown request `DANCE`"]]),
    (
        "SUBMIT workload=w nope=1",
        &[&["ERROR 0 parse unknown key `nope`"]],
    ),
    (
        "SUBMIT workload=No-Such-Workload",
        &[&["ERROR 3 parse unknown workload `No-Such-Workload`"]],
    ),
    (
        "SUBMIT workload=Rodinia-Euler3D config=numa sockets=8 timeline=1",
        &[
            &["ACK 4 da2425c25f517546c53f0d9563cbc647"],
            &["EVENT 4 queued"],
            &["RESULT 4 3402:a4aafe01f213822c"],
        ],
    ),
    (
        "SUBMIT timeline=1 sockets=8 config=numa workload=Rodinia-Euler3D",
        &[&[
            "ACK 5 da2425c25f517546c53f0d9563cbc647",
            "EVENT 5 warm",
            "RESULT 5 3402:a4aafe01f213822c",
        ]],
    ),
    ("STATS", &[&[LAST_STATS]]),
    ("SHUTDOWN", &[&["OK draining"]]),
];

fn paths(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("numa-gpu-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    (base.join("sock"), base.join("cache"))
}

/// A stream that keeps every `write` call it receives apart.
#[derive(Clone, Default)]
struct WriteLog(Arc<Mutex<Vec<Vec<u8>>>>);

impl Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One `write`'s lines, `RESULT` documents replaced by their pins and the
/// one counter that races the reply (`in_flight` falls after the worker's
/// completion callback has sent the `RESULT`) settled.
fn pinned(write: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(write).expect("UTF-8");
    assert!(text.ends_with('\n'), "a write must end a line: {text:?}");
    text.lines()
        .map(|line| match line.strip_prefix("RESULT ") {
            Some(rest) => {
                let (id, doc) = rest.split_once(' ').expect("RESULT <id> <doc>");
                format!("RESULT {id} {}:{:016x}", doc.len(), fnv1a64(doc.as_bytes()))
            }
            None => line.replace("\"in_flight\":1", "\"in_flight\":0"),
        })
        .collect()
}

#[test]
fn every_reply_is_the_recorded_bytes_in_one_write_per_batch_of_lines() {
    let (socket, cache) = paths("transcript");
    let daemon = Daemon::bind(DaemonConfig::new(&socket, &cache)).expect("bind");
    let requests: String = CONVERSATION
        .iter()
        .map(|(request, _)| format!("{request}\n"))
        .collect();
    let log = WriteLog::default();
    daemon.serve_connection(Cursor::new(requests), log.clone());

    let writes = log.0.lock().unwrap();
    let mut writes = writes.iter();
    for (request, expected) in CONVERSATION {
        for lines in *expected {
            let write = writes
                .next()
                .unwrap_or_else(|| panic!("`{request}`: a write is missing"));
            assert_eq!(pinned(write), *lines, "reply to `{request}`");
        }
    }
    assert_eq!(writes.next(), None, "writes after the last reply");
    let _ = std::fs::remove_dir_all(socket.parent().unwrap());
}

/// A failure message of several lines — an `assert_eq!` panic payload has
/// three — used to go out verbatim, so its second line read as the reply to
/// the client's *next* request. Over real sockets: the sender every reply
/// goes through keeps such a message on one line, and the one text a
/// request can get echoed with a line break in it, a verb holding a bare
/// carriage return, comes back flat from the daemon.
#[test]
fn a_multi_line_failure_stays_one_reply_line() {
    let (near, far) = UnixStream::pair().expect("socket pair");
    let mut reply = LineSender::new(near);
    let payload = "assertion `left == right` failed\n  left: 1\r\n right: 2";
    reply.line(format_args!("ERROR 7 transient {payload}"));
    reply.line(format_args!("PONG"));
    reply.flush().expect("send");
    drop(reply);
    let lines: Vec<String> = BufReader::new(far).lines().map(Result::unwrap).collect();
    assert_eq!(
        lines,
        [
            "ERROR 7 transient assertion `left == right` failed   left: 1   right: 2",
            "PONG"
        ]
    );

    let (socket, cache) = paths("flat");
    let daemon = Daemon::bind(DaemonConfig::new(&socket, &cache)).expect("bind");
    let serving = std::thread::spawn(move || daemon.serve().expect("serve"));
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream.write_all(b"X\rY\nPING\nSHUTDOWN\n").expect("send");
    let lines: Vec<String> = BufReader::new(stream).lines().map(Result::unwrap).collect();
    assert_eq!(
        lines,
        ["ERROR 0 parse unknown request `X Y`", "PONG", "OK draining"]
    );
    serving.join().expect("serve thread");
    let _ = std::fs::remove_dir_all(socket.parent().unwrap());
}
