//! The line protocol spoken over the daemon's Unix domain socket.
//!
//! Requests are single lines of `key=value` tokens; responses are single
//! lines prefixed with a tag. Everything is UTF-8, newline-delimited, and
//! order-insensitive on the request side, so a client can be `nc -U` or
//! the built-in [`Client`](crate::Client).
//!
//! ## Requests
//!
//! ```text
//! SUBMIT workload=<name> [config=<variant>] [sockets=<n>] [timeline=0|1]
//!        [scale=quick|full] [faults=<plan>] [deadline=<secs>]
//! PING
//! STATS
//! SHUTDOWN
//! ```
//!
//! ## Responses
//!
//! ```text
//! ACK <id> <store-hash>       submit accepted; <id> scopes later lines
//! EVENT <id> <word>           progress: queued | warm | retry:<n>
//! RESULT <id> <json>          the lossless report document (codec format)
//! ERROR <id> <class> <msg>    class: parse | deterministic | transient | deadline
//! PONG                        reply to PING
//! STATS <json>                store + supervision counters
//! OK <word>                   reply to SHUTDOWN
//! ```

use numa_gpu_bench::{configs, JobKey, SimJob};
use numa_gpu_faults::FaultPlan;
use numa_gpu_types::SystemConfig;
use numa_gpu_workloads::{by_name, Scale};
use std::fmt::Write as _;

/// The write half of a connection, in either direction: whole lines only.
/// [`line`](LineSender::line) queues one line — whatever `\r` or `\n` its
/// text carries (a panic payload has several lines) is flattened to spaces,
/// so no message can desynchronise the protocol — and
/// [`flush`](LineSender::flush) hands everything queued to the stream in
/// one `write_all`, so the peer never wakes to a fragment of a line.
#[derive(Debug)]
pub struct LineSender<W> {
    out: W,
    queued: String,
}

impl<W: std::io::Write> LineSender<W> {
    /// Wraps the stream `out`.
    pub fn new(out: W) -> LineSender<W> {
        LineSender {
            out,
            queued: String::new(),
        }
    }

    /// Queues `text` as one line.
    pub fn line(&mut self, text: std::fmt::Arguments<'_>) {
        let start = self.queued.len();
        let _ = self.queued.write_fmt(text);
        let line_break = |b: &u8| matches!(b, b'\r' | b'\n');
        if self.queued.as_bytes()[start..].iter().any(line_break) {
            let flat = self.queued[start..].replace(['\r', '\n'], " ");
            self.queued.replace_range(start.., &flat);
        }
        self.queued.push('\n');
    }

    /// Sends the queued lines in one write (`write_all` makes no call for
    /// an empty queue).
    ///
    /// # Errors
    ///
    /// Propagates the stream's I/O error; the queue is emptied either way.
    pub fn flush(&mut self) -> std::io::Result<()> {
        let sent = self.out.write_all(self.queued.as_bytes());
        self.queued.clear();
        sent
    }
}

/// Which named configuration family a job runs under (the label grammar
/// mirrors `bench::configs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigChoice {
    /// Single-GPU baseline (`configs::single`); `sockets` is ignored.
    Single,
    /// Traditional NUMA system (`configs::traditional`).
    Traditional,
    /// Page-interleaved multi-socket (`configs::page_interleaved`).
    PageInterleaved,
    /// Locality-optimized multi-socket (`configs::locality`).
    Locality,
    /// Fully NUMA-aware design point (`configs::numa_aware`).
    NumaAware,
}

/// One configuration preset: a [`ConfigChoice`] with its `config=` token,
/// its sweep-style label for a socket count (e.g. `loc4`) and its
/// configuration.
struct Preset {
    choice: ConfigChoice,
    token: &'static str,
    label: fn(u8) -> String,
    config: fn(u8) -> SystemConfig,
}

/// The presets, one row per [`ConfigChoice`] in declaration order.
const PRESETS: [Preset; 5] = [
    Preset {
        choice: ConfigChoice::Single,
        token: "single",
        label: |_| "single".to_string(),
        config: |_| configs::single(),
    },
    Preset {
        choice: ConfigChoice::Traditional,
        token: "traditional",
        label: |n| format!("trad{n}"),
        config: configs::traditional,
    },
    Preset {
        choice: ConfigChoice::PageInterleaved,
        token: "page",
        label: |n| format!("page{n}"),
        config: configs::page_interleaved,
    },
    Preset {
        choice: ConfigChoice::Locality,
        token: "locality",
        label: |n| format!("loc{n}"),
        config: configs::locality,
    },
    Preset {
        choice: ConfigChoice::NumaAware,
        token: "numa",
        label: |n| format!("numa{n}"),
        config: configs::numa_aware,
    },
];

impl ConfigChoice {
    fn parse(s: &str) -> Result<ConfigChoice, String> {
        let preset = PRESETS.iter().find(|p| p.token == s).ok_or_else(|| {
            let tokens: Vec<&str> = PRESETS.iter().map(|p| p.token).collect();
            format!("unknown config `{s}` (expected {})", tokens.join("|"))
        })?;
        Ok(preset.choice)
    }

    fn token(self) -> &'static str {
        PRESETS[self as usize].token
    }

    fn label(self, sockets: u8) -> String {
        (PRESETS[self as usize].label)(sockets)
    }

    fn config(self, sockets: u8) -> SystemConfig {
        (PRESETS[self as usize].config)(sockets)
    }
}

/// A parsed `SUBMIT` request: everything needed to identify and run one
/// simulation. The canonical line form ([`JobSpec::to_line`]) is what the
/// restart journal stores, so parse → to_line → parse must round-trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload name (`numa_gpu_workloads::by_name`).
    pub workload: String,
    /// Configuration family.
    pub config: ConfigChoice,
    /// Socket count for multi-socket families.
    pub sockets: u8,
    /// Record per-sample link timelines.
    pub timeline: bool,
    /// Run at full paper scale instead of quick scale.
    pub full_scale: bool,
    /// Fault plan, if any (parsed once, at submit time, so a bad plan is
    /// a parse error rather than a failure deep inside a worker).
    pub faults: Option<FaultPlan>,
    /// Wall-clock supervision budget, seconds (daemon default if absent).
    pub deadline_secs: Option<u64>,
}

impl JobSpec {
    /// Parses the token list following `SUBMIT` (order-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown keys, malformed
    /// values, or a missing `workload`.
    pub fn parse(tokens: &str) -> Result<JobSpec, String> {
        let mut spec = JobSpec {
            workload: String::new(),
            config: ConfigChoice::Locality,
            sockets: 4,
            timeline: false,
            full_scale: false,
            faults: None,
            deadline_secs: None,
        };
        let mut faults = None;
        for token in tokens.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("malformed token `{token}` (expected key=value)"))?;
            match key {
                "workload" => spec.workload = value.to_string(),
                "config" => spec.config = ConfigChoice::parse(value)?,
                "sockets" => {
                    spec.sockets = value
                        .parse()
                        .map_err(|_| format!("bad sockets `{value}`"))?;
                }
                "timeline" => {
                    spec.timeline = match value {
                        "0" | "false" => false,
                        "1" | "true" => true,
                        other => return Err(format!("bad timeline `{other}` (0|1)")),
                    };
                }
                "scale" => {
                    spec.full_scale = match value {
                        "quick" => false,
                        "full" => true,
                        other => return Err(format!("bad scale `{other}` (quick|full)")),
                    };
                }
                "faults" => faults = Some(value),
                "deadline" => {
                    spec.deadline_secs = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad deadline `{value}`"))?,
                    );
                }
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        if spec.workload.is_empty() {
            return Err("missing required key `workload`".to_string());
        }
        if spec.workload.contains(char::is_whitespace) {
            return Err("workload names cannot contain whitespace".to_string());
        }
        spec.faults = faults
            .map(|f| FaultPlan::parse(f).map_err(|e| format!("bad faults `{f}`: {e}")))
            .transpose()?;
        Ok(spec)
    }

    /// Canonical single-line form (fixed key order, the fault plan in its
    /// canonical `Display` with the separator spaces dropped); the journal
    /// stores exactly these bytes and [`JobSpec::parse`] round-trips them.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "workload={} config={} sockets={} timeline={} scale={}",
            self.workload,
            self.config.token(),
            self.sockets,
            u8::from(self.timeline),
            if self.full_scale { "full" } else { "quick" },
        );
        if let Some(plan) = &self.faults {
            line.push_str(&format!(" faults={}", plan.to_string().replace(' ', "")));
        }
        if let Some(d) = self.deadline_secs {
            line.push_str(&format!(" deadline={d}"));
        }
        line
    }

    /// The workload scale this spec runs at.
    pub fn scale(&self) -> Scale {
        if self.full_scale {
            Scale::full()
        } else {
            Scale::quick()
        }
    }

    /// The structured job identity this spec maps to.
    pub fn job_key(&self) -> JobKey {
        let key = JobKey::new(
            self.config.label(self.sockets),
            self.workload.clone(),
            self.timeline,
        );
        match &self.faults {
            // The plan's Display, as `SimPlan::fault_job` labels scenarios.
            Some(plan) => key.with_scenario(plan.to_string()),
            None => key,
        }
    }

    /// Resolves this spec into a runnable [`SimJob`].
    ///
    /// # Errors
    ///
    /// Returns a message if the workload name is unknown.
    pub fn to_job(&self) -> Result<SimJob, String> {
        let workload = by_name(&self.workload, &self.scale())
            .ok_or_else(|| format!("unknown workload `{}`", self.workload))?;
        Ok(SimJob {
            key: self.job_key(),
            cfg: self.config.config(self.sockets),
            workload,
            faults: self.faults.clone(),
        })
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run (or warm-fetch) a simulation.
    Submit(JobSpec),
    /// Liveness probe.
    Ping,
    /// Store + supervision counters.
    Stats,
    /// Drain and stop the daemon.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown verbs or bad
    /// `SUBMIT` tokens.
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.trim();
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        match verb {
            "SUBMIT" => Ok(Request::Submit(JobSpec::parse(rest)?)),
            "PING" => Ok(Request::Ping),
            "STATS" => Ok(Request::Stats),
            "SHUTDOWN" => Ok(Request::Shutdown),
            other => Err(format!("unknown request `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_testkit::gen::{one_of, select, strings, triples, vecs, Gen};
    use numa_gpu_testkit::{prop_assert_eq, prop_check};

    #[test]
    fn submit_round_trips_through_canonical_line() {
        let spec = JobSpec::parse(
            "workload=Rodinia-Euler3D config=numa sockets=2 timeline=1 scale=full \
             faults=lanes:s1@5000=8 deadline=30",
        )
        .unwrap();
        assert_eq!(spec.config, ConfigChoice::NumaAware);
        assert_eq!(spec.sockets, 2);
        assert!(spec.timeline);
        assert!(spec.full_scale);
        assert_eq!(spec.deadline_secs, Some(30));
        let reparsed = JobSpec::parse(&spec.to_line()).unwrap();
        assert_eq!(spec, reparsed, "parse → to_line → parse must round-trip");
    }

    #[test]
    fn defaults_and_errors() {
        let spec = JobSpec::parse("workload=Other-Bitcoin-Crypto").unwrap();
        assert_eq!(spec.config, ConfigChoice::Locality);
        assert_eq!(spec.sockets, 4);
        assert!(!spec.timeline);
        assert!(!spec.full_scale);
        assert_eq!(spec.job_key().label, "loc4");

        assert!(JobSpec::parse("").unwrap_err().contains("workload"));
        assert!(JobSpec::parse("workload=w nope=1")
            .unwrap_err()
            .contains("nope"));
        assert!(JobSpec::parse("workload=w config=alien")
            .unwrap_err()
            .contains("alien"));
        assert!(JobSpec::parse("workload=w faults=gibberish")
            .unwrap_err()
            .contains("faults"));
        assert!(Request::parse("DANCE").unwrap_err().contains("DANCE"));
    }

    #[test]
    fn every_preset_answers_for_its_own_choice() {
        for preset in &PRESETS {
            assert_eq!(ConfigChoice::parse(preset.token), Ok(preset.choice));
            assert_eq!(preset.choice.token(), preset.token);
        }
    }

    #[test]
    fn request_verbs_parse() {
        assert_eq!(Request::parse("PING").unwrap(), Request::Ping);
        assert_eq!(Request::parse("STATS").unwrap(), Request::Stats);
        assert_eq!(Request::parse("SHUTDOWN").unwrap(), Request::Shutdown);
        assert!(matches!(
            Request::parse("SUBMIT workload=w").unwrap(),
            Request::Submit(_)
        ));
    }

    /// Request-shaped text: a verb (mostly `SUBMIT`), a workload token,
    /// then `key=value` tokens whose values sit on and just past each
    /// key's grammar.
    fn token_soup() -> Gen<String> {
        let words = |list: &'static str| select(list.split('|').collect::<Vec<_>>());
        let verb = words("SUBMIT|SUBMIT|SUBMIT|SUBMIT|PING|STATS|submit|");
        let workload = words("workload=Rodinia-Euler3D|workload=x|workload=a=b|workload=|");
        let token = one_of(vec![
            words("config=single|config=numa|config=page|config=traditional|config=alien"),
            words("sockets=2|sockets=255|sockets=+4|sockets=256|sockets=-1"),
            words("timeline=0|timeline=1|timeline=true|timeline=2"),
            words("scale=quick|scale=full|scale=huge"),
            words("faults=lanes:s1@5000=8|faults=dram:s0@2000+300;sm:0-3@9|faults=|faults=sm:x"),
            words("deadline=30|deadline=+7|deadline=18446744073709551615|deadline=-1"),
            words("workload=Other-Stream-Triad|work=1|=|x"),
        ]);
        triples(verb, workload, vecs(token, 0..6))
            .map(|(verb, workload, tokens)| format!("{verb} {workload} {}", tokens.join(" ")))
    }

    prop_check! {
        /// `Request::parse` never panics on arbitrary or request-shaped
        /// text, and every spec it accepts, fault plan included,
        /// round-trips through its canonical line (what the journal stores).
        fn request_parse_survives_arbitrary_text(
            text in one_of(vec![strings(0..200), token_soup()])
        ) {
            if let Ok(Request::Submit(spec)) = Request::parse(&text) {
                prop_assert_eq!(JobSpec::parse(&spec.to_line()), Ok(spec), "from {:?}", text);
            }
        }
    }

    #[test]
    fn spec_resolves_to_a_runnable_job() {
        let spec =
            JobSpec::parse("workload=Other-Bitcoin-Crypto config=locality sockets=2").unwrap();
        let job = spec.to_job().unwrap();
        assert_eq!(job.key.label, "loc2");
        assert_eq!(job.key.workload, "Other-Bitcoin-Crypto");
        let missing = JobSpec::parse("workload=No-Such-Workload").unwrap();
        assert!(missing.to_job().unwrap_err().contains("No-Such-Workload"));
    }
}
