//! A minimal blocking client for the daemon's line protocol, used by
//! `simulate submit`, the tests, and the CI crash-recovery job.

use crate::protocol::{JobSpec, LineSender};
use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// How a submission resolved, as seen by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Errors on I/O failure or an unexpected reply.
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.send(format_args!("PING"))?;
        let reply = self.read_line()?;
        if reply == "PONG" {
            Ok(())
        } else {
            Err(protocol_error(&format!("expected PONG, got `{reply}`")))
        }
    }

    /// Fetches the daemon's counters as a raw JSON string.
    ///
    /// # Errors
    ///
    /// Errors on I/O failure or an unexpected reply.
    pub fn stats(&mut self) -> std::io::Result<String> {
        self.send(format_args!("STATS"))?;
        let reply = self.read_line()?;
        reply
            .strip_prefix("STATS ")
            .map(str::to_string)
            .ok_or_else(|| protocol_error(&format!("expected STATS, got `{reply}`")))
    }

    /// Asks the daemon to drain and stop.
    ///
    /// # Errors
    ///
    /// Errors on I/O failure or an unexpected reply.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.send(format_args!("SHUTDOWN"))?;
        let reply = self.read_line()?;
        if reply.starts_with("OK") {
            Ok(())
        } else {
            Err(protocol_error(&format!("expected OK, got `{reply}`")))
        }
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
        let mut parts = ack.split_whitespace();
        let (id, hash) = match (parts.next(), parts.next(), parts.next()) {
            (Some("ACK"), Some(id), Some(hash)) => (
                id.parse::<u64>()
                    .map_err(|_| protocol_error(&format!("bad ACK id in `{ack}`")))?,
                hash.to_string(),
            ),
            _ => {
                // A parse failure arrives as ERROR without an ACK.
                if let Some((id, class, msg)) = parse_error_line(&ack) {
                    return Ok(Submission {
                        id,
                        hash: String::new(),
                        events: Vec::new(),
                        result: None,
                        error: Some((class, msg)),
                    });
                }
                return Err(protocol_error(&format!("expected ACK, got `{ack}`")));
            }
        };
        let mut events = Vec::new();
        loop {
            let line = self.read_line()?;
            if let Some(rest) = line.strip_prefix("EVENT ") {
                if let Some((_, word)) = rest.split_once(' ') {
                    events.push(word.to_string());
                }
            } else if let Some(rest) = line.strip_prefix("RESULT ") {
                let doc = rest.split_once(' ').map(|(_, d)| d.to_string());
                return Ok(Submission {
                    id,
                    hash,
                    events,
                    result: doc,
                    error: None,
                });
            } else if let Some((_, class, msg)) = parse_error_line(&line) {
                return Ok(Submission {
                    id,
                    hash,
                    events,
                    result: None,
                    error: Some((class, msg)),
                });
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
