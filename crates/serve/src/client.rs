//! A minimal blocking client for the daemon's line protocol, used by
//! `simulate submit`, the tests, and the CI crash-recovery job.

use crate::protocol::{JobSpec, LineSender};
use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// How a submission resolved, as seen by the client.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Submission {
    /// Job id assigned by the daemon.
    pub id: u64,
    /// Content address (store hash) of the job.
    pub hash: String,
    /// Progress words streamed before resolution (`queued`, `warm`,
    /// `retry:1`, …).
    pub events: Vec<String>,
    /// The result document (codec JSON) on success.
    pub result: Option<String>,
    /// `(class, message)` on failure.
    pub error: Option<(String, String)>,
}

impl Submission {
    /// Whether the daemon served this job from the warm store.
    pub fn was_warm(&self) -> bool {
        self.events.iter().any(|e| e == "warm")
    }
}

/// A connected protocol client. One request/response exchange at a time —
/// exactly the discipline the per-connection daemon thread expects.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: LineSender<UnixStream>,
}

impl Client {
    /// Connects to a daemon's socket.
    ///
    /// # Errors
    ///
    /// Propagates connection I/O errors.
    pub fn connect(socket: impl AsRef<Path>) -> std::io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: LineSender::new(stream),
        })
    }

    /// Sends one request line in one write.
    fn send(&mut self, request: std::fmt::Arguments<'_>) -> std::io::Result<()> {
        self.writer.line(request);
        self.writer.flush()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Sends `request` and returns its one-line reply past `expect`, the
    /// reply's required prefix.
    fn exchange(&mut self, request: &str, expect: &str) -> std::io::Result<String> {
        self.send(format_args!("{request}"))?;
        let reply = self.read_line()?;
        match reply.strip_prefix(expect) {
            Some(rest) => Ok(rest.to_string()),
            None => Err(protocol_error(&format!(
                "expected {}, got `{reply}`",
                expect.trim_end()
            ))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Errors on I/O failure or an unexpected reply.
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.exchange("PING", "PONG").map(drop)
    }

    /// Fetches the daemon's counters as a raw JSON string.
    ///
    /// # Errors
    ///
    /// Errors on I/O failure or an unexpected reply.
    pub fn stats(&mut self) -> std::io::Result<String> {
        self.exchange("STATS", "STATS ")
    }

    /// Asks the daemon to drain and stop.
    ///
    /// # Errors
    ///
    /// Errors on I/O failure or an unexpected reply.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.exchange("SHUTDOWN", "OK").map(drop)
    }

    /// Submits a job and blocks until it resolves (result, error, or
    /// server-side deadline).
    ///
    /// # Errors
    ///
    /// Errors on I/O failure or a protocol violation; a *job* failure is
    /// a successful submission with [`Submission::error`] set.
    pub fn submit(&mut self, spec: &JobSpec) -> std::io::Result<Submission> {
        self.send(format_args!("SUBMIT {}", spec.to_line()))?;
        let ack = self.read_line()?;
        let mut sub = Submission::default();
        let mut parts = ack.split_whitespace();
        if let (Some("ACK"), Some(id), Some(hash)) = (parts.next(), parts.next(), parts.next()) {
            sub.id = id
                .parse()
                .map_err(|_| protocol_error(&format!("bad ACK id in `{ack}`")))?;
            sub.hash = hash.to_string();
        } else {
            // A parse failure arrives as ERROR without an ACK.
            let (id, class, msg) = parse_error_line(&ack)
                .ok_or_else(|| protocol_error(&format!("expected ACK, got `{ack}`")))?;
            sub.id = id;
            sub.error = Some((class, msg));
            return Ok(sub);
        }
        loop {
            let line = self.read_line()?;
            if let Some(rest) = line.strip_prefix("EVENT ") {
                if let Some((_, word)) = rest.split_once(' ') {
                    sub.events.push(word.to_string());
                }
            } else if let Some(rest) = line.strip_prefix("RESULT ") {
                sub.result = rest.split_once(' ').map(|(_, d)| d.to_string());
                return Ok(sub);
            } else if let Some((_, class, msg)) = parse_error_line(&line) {
                sub.error = Some((class, msg));
                return Ok(sub);
            } else {
                return Err(protocol_error(&format!("unexpected line `{line}`")));
            }
        }
    }
}

fn parse_error_line(line: &str) -> Option<(u64, String, String)> {
    let rest = line.strip_prefix("ERROR ")?;
    let (id, rest) = rest.split_once(' ')?;
    let (class, msg) = rest.split_once(' ').unwrap_or((rest, ""));
    Some((id.parse().ok()?, class.to_string(), msg.to_string()))
}

fn protocol_error(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}
