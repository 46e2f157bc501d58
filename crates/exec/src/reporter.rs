//! Shear-free progress logging for concurrent workers.

use std::io::Write;
use std::sync::Mutex;

/// A mutexed, line-buffered progress reporter.
///
/// Each [`Reporter::line`] call formats the complete line (text plus
/// newline) into one buffer and hands it to the sink in a single locked
/// write, so lines from concurrent workers interleave only at line
/// granularity — never mid-line. When not verbose every [`Reporter::line`]
/// is a no-op, so quiet sweeps pay nothing; [`Reporter::error`] always
/// writes.
pub struct Reporter {
    verbose: bool,
    sink: Mutex<Box<dyn Write + Send>>,
}

impl Reporter {
    /// A reporter writing to standard error (the harness's progress
    /// channel; stdout stays reserved for artifact output).
    pub fn stderr(verbose: bool) -> Self {
        Reporter::with_sink(verbose, Box::new(std::io::stderr()))
    }

    /// A reporter writing to an arbitrary sink (used by tests to capture
    /// output).
    pub fn with_sink(verbose: bool, sink: Box<dyn Write + Send>) -> Self {
        Reporter {
            verbose,
            sink: Mutex::new(sink),
        }
    }

    /// Whether lines are actually emitted.
    pub fn verbose(&self) -> bool {
        self.verbose
    }

    /// Writes one complete line (no-op unless verbose). I/O errors are
    /// ignored, matching `eprintln!`'s panic-free-on-broken-pipe needs in
    /// long sweeps piped through `head`.
    pub fn line(&self, text: &str) {
        if self.verbose {
            self.error(text);
        }
    }

    /// Writes one complete line whether or not the reporter is verbose:
    /// for failures the user must see even in a quiet run (a store write
    /// that did not land). Same single locked write as [`Reporter::line`].
    pub fn error(&self, text: &str) {
        let mut buf = String::with_capacity(text.len() + 1);
        buf.push_str(text);
        buf.push('\n');
        let mut sink = self.sink.lock().expect("reporter sink poisoned");
        let _ = sink.write_all(buf.as_bytes());
        let _ = sink.flush();
    }
}

impl std::fmt::Debug for Reporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reporter")
            .field("verbose", &self.verbose)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` sink sharing its buffer so tests can inspect it.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn quiet_reporter_writes_only_errors() {
        let buf = Shared::default();
        let r = Reporter::with_sink(false, Box::new(buf.clone()));
        r.line("hidden");
        assert!(!r.verbose());
        assert!(buf.0.lock().unwrap().is_empty());
        r.error("shown");
        assert_eq!(*buf.0.lock().unwrap(), b"shown\n");
    }

    #[test]
    fn lines_never_shear_across_threads() {
        let buf = Shared::default();
        let r = Arc::new(Reporter::with_sink(true, Box::new(buf.clone())));
        std::thread::scope(|s| {
            for t in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        r.line(&format!("thread-{t} line-{i} end"));
                    }
                });
            }
        });
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 200);
        for line in lines {
            assert!(
                line.starts_with("thread-") && line.ends_with(" end"),
                "sheared line: {line:?}"
            );
        }
    }
}
