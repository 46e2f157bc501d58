//! Lossless [`SimReport`] codec for the on-disk result store.
//!
//! [`SimReport::to_json`] is a *reporting* encoding: it drops the kernel
//! start cycles, the link timelines, and encodes floats in human form. The
//! store needs the opposite trade-off — every field a figure can read must
//! round-trip **bit-exactly**, because a warm cache hit has to reproduce
//! the cold run byte for byte. This codec therefore:
//!
//! * encodes every report field a cached run can serve (floats as raw IEEE
//!   bits via [`f64::to_bits`], so no decimal-formatting round-trip risk);
//! * refuses reports that carry observability payloads the codec does not
//!   model ([`CodecError::Ineligible`]): a metrics snapshot or trace
//!   events mean the run was an observability run, and those never go
//!   through the store;
//! * decodes defensively — any malformed document yields a
//!   [`CodecError`], never a panic, so a corrupt store entry degrades to
//!   a cache miss;
//! * has one decoder, [`decode_report_text`]: one pass of a [`Reader`]
//!   (`testkit::json`'s one lexer also carries the parser and the writer)
//!   over the writer's text, which decodes only if re-encoding its report
//!   gives it back byte for byte. [`decode_report`] decodes a tree's text.
//!
//! The optional self-profile *is* encoded: it is plain counter data and
//! `figures --profile --cache-dir` must aggregate over warm hits too.

use numa_gpu_core::{cache_stats_json, ProfileReport, SimReport, SocketReport};
use numa_gpu_interconnect::LinkSample;
use numa_gpu_testkit::json::{Json, JsonError, Reader};

/// Version of the payload encoding. Bump whenever the report shape or the
/// simulator's observable behaviour changes incompatibly; old entries then
/// read as version mismatches and are recomputed instead of mis-decoded.
pub const REPORT_FORMAT_VERSION: u64 = 2;

/// Why a report could not be encoded or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The report carries payloads the store deliberately does not model
    /// (metrics snapshot or trace events from an observability run).
    Ineligible(&'static str),
    /// The document is structurally not a report of this format version.
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Ineligible(what) => {
                write!(f, "report not eligible for the store: carries {what}")
            }
            CodecError::Malformed(msg) => write!(f, "malformed store payload: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn bits(v: f64) -> Json {
    Json::UInt(v.to_bits())
}

fn u64s(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::UInt(v)).collect())
}

/// Encodes a report for storage.
///
/// # Errors
///
/// [`CodecError::Ineligible`] when the report carries a metrics snapshot
/// or trace events — observability runs bypass the store by design.
pub fn encode_report(r: &SimReport) -> Result<Json, CodecError> {
    if r.metrics.is_some() {
        return Err(CodecError::Ineligible("a metrics snapshot"));
    }
    if !r.trace_events.is_empty() {
        return Err(CodecError::Ineligible("trace events"));
    }
    let sockets = Json::Arr(r.sockets.iter().map(SocketReport::to_json).collect());
    let timelines = Json::Arr(
        r.link_timelines
            .iter()
            .map(|tl| Json::Arr(tl.iter().map(encode_sample).collect()))
            .collect(),
    );
    Ok(Json::obj([
        ("version", Json::UInt(REPORT_FORMAT_VERSION)),
        ("workload", Json::Str(r.workload.clone())),
        ("total_cycles", Json::UInt(r.total_cycles)),
        ("kernel_cycles", u64s(&r.kernel_cycles)),
        ("kernel_start_cycles", u64s(&r.kernel_start_cycles)),
        ("sockets", sockets),
        ("link_timelines", timelines),
        ("l1", cache_stats_json(&r.l1)),
        ("remote_read_fraction_bits", bits(r.remote_read_fraction)),
        ("interconnect_bytes", Json::UInt(r.interconnect_bytes)),
        ("link_power_w_bits", bits(r.link_power_w)),
        (
            "profile",
            match &r.profile {
                Some(p) => p.to_json(),
                None => Json::Null,
            },
        ),
    ]))
}

fn encode_sample(s: &LinkSample) -> Json {
    Json::obj([
        ("cycle", Json::UInt(s.cycle)),
        ("egress_util_bits", bits(s.egress_util)),
        ("ingress_util_bits", bits(s.ingress_util)),
        ("egress_lanes", Json::UInt(s.egress_lanes as u64)),
        ("ingress_lanes", Json::UInt(s.ingress_lanes as u64)),
    ])
}

fn malformed(msg: impl Into<String>) -> CodecError {
    CodecError::Malformed(msg.into())
}

impl From<JsonError> for CodecError {
    fn from(e: JsonError) -> Self {
        malformed(e.to_string())
    }
}

/// Decodes a stored report from a tree: the tree's text through
/// [`decode_report_text`], the one decoder.
///
/// # Errors
///
/// As [`decode_report_text`].
pub fn decode_report(doc: &Json) -> Result<SimReport, CodecError> {
    decode_report_text(&doc.to_string())
}

/// Decodes a stored report from the text [`encode_report`]'s document
/// writes, in one pass and without a tree.
///
/// # Errors
///
/// [`CodecError::Malformed`] on any byte the writer would not have
/// written, including a format-version difference (old entries must
/// recompute, not mis-decode).
pub fn decode_report_text(text: &str) -> Result<SimReport, CodecError> {
    decode_with_profile_at(text).map(|(report, _)| report)
}

/// As [`decode_report_text`], and where in `text` the `profile` value starts.
pub(crate) fn decode_with_profile_at(text: &str) -> Result<(SimReport, usize), CodecError> {
    let r = &mut Reader::new(text);
    r.open(b'{')?;
    let version = r.key("version")?.u64()?;
    if version != REPORT_FORMAT_VERSION {
        return Err(malformed(format!(
            "payload version {version}, expected {REPORT_FORMAT_VERSION}"
        )));
    }
    let mut report = SimReport {
        workload: r.key("workload")?.string()?,
        total_cycles: r.key("total_cycles")?.u64()?,
        kernel_cycles: list(r.key("kernel_cycles")?, |r| Ok(r.u64()?))?,
        kernel_start_cycles: list(r.key("kernel_start_cycles")?, |r| Ok(r.u64()?))?,
        sockets: list(r.key("sockets")?, read_socket)?,
        link_timelines: list(r.key("link_timelines")?, |r| list(r, read_sample))?,
        l1: read_cache_stats(r.key("l1")?)?,
        remote_read_fraction: f64::from_bits(r.key("remote_read_fraction_bits")?.u64()?),
        interconnect_bytes: r.key("interconnect_bytes")?.u64()?,
        link_power_w: f64::from_bits(r.key("link_power_w_bits")?.u64()?),
        metrics: None,
        trace_events: Vec::new(),
        profile: None,
    };
    let profile_at = r.key("profile")?.offset();
    report.profile = optional(r, read_profile)?;
    r.end_object()?;
    r.finish()?;
    Ok((report, profile_at))
}

type Decoded<T> = Result<T, CodecError>;

/// Reads an array, each item with `item`.
fn list<T>(r: &mut Reader, item: impl Fn(&mut Reader) -> Decoded<T>) -> Decoded<Vec<T>> {
    r.open(b'[')?;
    let mut out = Vec::new();
    while r.next_item()? {
        out.push(item(r)?);
    }
    Ok(out)
}

/// Reads `null` as `None`, anything else with `value`.
fn optional<T>(r: &mut Reader, value: impl Fn(&mut Reader) -> Decoded<T>) -> Decoded<Option<T>> {
    if r.null() {
        Ok(None)
    } else {
        value(r).map(Some)
    }
}

/// Reads a `u64` that must fit `T`.
fn narrow<T: TryFrom<u64>>(r: &mut Reader, what: &str) -> Decoded<T> {
    T::try_from(r.u64()?).map_err(|_| malformed(format!("`{what}` out of range")))
}

fn read_socket(r: &mut Reader) -> Decoded<SocketReport> {
    r.open(b'{')?;
    let socket = SocketReport {
        egress_bytes: r.key("egress_bytes")?.u64()?,
        ingress_bytes: r.key("ingress_bytes")?.u64()?,
        dram_bytes: r.key("dram_bytes")?.u64()?,
        l2: read_cache_stats(r.key("l2")?)?,
        lane_turns: r.key("lane_turns")?.u64()?,
        equalizations: r.key("equalizations")?.u64()?,
        l2_partition: optional(r.key("l2_partition")?, |r| {
            match list(r, |r| narrow(r, "l2_partition"))?[..] {
                [local, remote] => Ok((local, remote)),
                _ => Err(malformed("l2_partition is not a pair")),
            }
        })?,
    };
    r.end_object()?;
    Ok(socket)
}

fn read_cache_stats(r: &mut Reader) -> Decoded<numa_gpu_cache::CacheStats> {
    let mut s = numa_gpu_cache::CacheStats::default();
    r.open(b'{')?;
    for (name, counter) in [
        ("local_hits", &mut s.local_hits),
        ("local_misses", &mut s.local_misses),
        ("remote_hits", &mut s.remote_hits),
        ("remote_misses", &mut s.remote_misses),
        ("fills", &mut s.fills),
        ("evictions", &mut s.evictions),
        ("dirty_evictions", &mut s.dirty_evictions),
    ] {
        counter.add(r.key(name)?.u64()?);
    }
    r.end_object()?;
    Ok(s)
}

fn read_sample(r: &mut Reader) -> Decoded<LinkSample> {
    r.open(b'{')?;
    let sample = LinkSample {
        cycle: r.key("cycle")?.u64()?,
        egress_util: f64::from_bits(r.key("egress_util_bits")?.u64()?),
        ingress_util: f64::from_bits(r.key("ingress_util_bits")?.u64()?),
        egress_lanes: narrow(r.key("egress_lanes")?, "egress_lanes")?,
        ingress_lanes: narrow(r.key("ingress_lanes")?, "ingress_lanes")?,
    };
    r.end_object()?;
    Ok(sample)
}

/// Reads a profile. A repeated scope or counter name is malformed: the
/// writer never emits one, and [`ProfileReport::scope`] would merge it.
fn read_profile(r: &mut Reader) -> Decoded<ProfileReport> {
    let mut p = ProfileReport::new();
    r.open(b'{')?;
    r.key("scopes")?.open(b'[')?;
    while r.next_item()? {
        r.open(b'{')?;
        let name = r.key("name")?.string()?;
        if p.scopes.iter().any(|s| s.name == name) {
            return Err(malformed(format!("profile scope `{name}` repeats")));
        }
        let scope = p.scope(&name);
        r.key("counters")?.open(b'{')?;
        while let Some(counter) = r.next_key()? {
            if scope.counters.iter().any(|(n, _)| *n == counter) {
                return Err(malformed(format!("profile counter `{counter}` repeats")));
            }
            let value = r.u64()?;
            scope.counters.push((counter, value));
        }
        r.end_object()?;
    }
    r.end_object()?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use numa_gpu_core::NumaGpuSystem;
    use numa_gpu_workloads::{by_name, Scale};

    fn run(timeline: bool, profile: bool) -> SimReport {
        let wl = by_name("Other-Bitcoin-Crypto", &Scale::quick()).unwrap();
        let mut cfg = configs::locality(2);
        cfg.obs.profile = profile;
        let mut sys = NumaGpuSystem::new(cfg).unwrap();
        if timeline {
            sys.enable_link_timeline();
        }
        sys.run(&wl).unwrap()
    }

    #[test]
    fn clean_report_roundtrips_exactly() {
        let r = run(false, false);
        let doc = encode_report(&r).unwrap();
        assert_eq!(decode_report(&doc).unwrap(), r);
        // The encoding itself is byte-stable.
        assert_eq!(doc.to_string(), encode_report(&r).unwrap().to_string());
    }

    #[test]
    fn timeline_profiled_report_roundtrips_exactly() {
        let r = run(true, true);
        assert!(r.profile.is_some());
        let doc = encode_report(&r).unwrap();
        let back = decode_report(&doc).unwrap();
        assert_eq!(back, r, "every field must round-trip bit-exactly");
        // Round-trip again through the serialized text, the path a disk
        // entry actually takes.
        let text = doc.to_string();
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(decode_report(&reparsed).unwrap(), r);
    }

    #[test]
    fn observability_reports_are_ineligible() {
        let mut r = run(false, false);
        r.metrics = Some(Default::default());
        assert!(matches!(
            encode_report(&r),
            Err(CodecError::Ineligible("a metrics snapshot"))
        ));
    }

    #[test]
    fn version_mismatch_is_malformed() {
        let r = run(false, false);
        let doc = encode_report(&r).unwrap();
        let mut text = doc.to_string();
        let version = format!("\"version\":{REPORT_FORMAT_VERSION}");
        text = text.replace(&version, "\"version\":999");
        let err = decode_report(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(matches!(err, CodecError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("999"));
    }

    #[test]
    fn float_bits_roundtrip_is_exact_for_awkward_values() {
        // 0.1 has no finite binary expansion; to_bits round-trips anyway.
        for v in [0.1_f64, 1.0 / 3.0, f64::MIN_POSITIVE, 0.0, 1.0] {
            let mut r = run(false, false);
            r.remote_read_fraction = v;
            let back = decode_report(&encode_report(&r).unwrap()).unwrap();
            assert_eq!(back.remote_read_fraction.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_documents_are_malformed_not_panics() {
        let r = run(false, false);
        let text = encode_report(&r).unwrap().to_string();
        for cut in [1, text.len() / 2, text.len() - 1] {
            let prefix = &text[..cut];
            // Unparseable prefixes are fine — also a clean failure.
            if let Ok(doc) = Json::parse(prefix) {
                assert!(decode_report(&doc).is_err(), "cut at {cut} decoded");
            }
        }
    }

    /// The writer never repeats a profile scope or counter, and a decode
    /// that merged or kept one would give a report that is not this text.
    #[test]
    fn repeated_profile_names_are_malformed() {
        let mut r = run(false, false);
        let mut profile = ProfileReport::new();
        profile.scope("a").count("x", 1).count("y", 2);
        profile.scope("b");
        r.profile = Some(profile);
        let text = encode_report(&r).unwrap().to_string();
        assert!(decode_report_text(&text).is_ok());
        for (from, to) in [(r#""name":"b""#, r#""name":"a""#), (r#""y":2"#, r#""x":2"#)] {
            let repeated = text.replace(from, to);
            let err = decode_report_text(&repeated).unwrap_err();
            assert!(err.to_string().contains("repeats"), "{err}");
        }
    }

    /// Pins the store payload byte for byte: sockets, L1/L2 statistics and
    /// the profile are written by the report types' own `to_json`, and
    /// this is the exact text every existing cache entry holds for them.
    /// If it changes, bump [`REPORT_FORMAT_VERSION`].
    #[test]
    fn encoded_payload_is_pinned() {
        let stats = |base: u64| {
            let mut s = numa_gpu_cache::CacheStats::default();
            s.local_hits.add(base);
            s.local_misses.add(base + 1);
            s.remote_hits.add(base + 2);
            s.remote_misses.add(base + 3);
            s.fills.add(base + 4);
            s.evictions.add(base + 5);
            s.dirty_evictions.add(base + 6);
            s
        };
        let mut profile = ProfileReport::new();
        profile.scope("engine").count("events_popped", 41);
        profile
            .scope("cache")
            .count("l2_accesses", 42)
            .count("fills", 43);
        let report = SimReport {
            workload: "golden \"w\"".to_string(),
            total_cycles: 1000,
            kernel_cycles: vec![600, 400],
            kernel_start_cycles: vec![0, 600],
            sockets: vec![
                SocketReport {
                    egress_bytes: 1,
                    ingress_bytes: 2,
                    dram_bytes: 3,
                    l2: stats(10),
                    lane_turns: 4,
                    equalizations: 5,
                    l2_partition: Some((12, 4)),
                },
                SocketReport {
                    l2: stats(20),
                    ..SocketReport::default()
                },
            ],
            l1: stats(30),
            remote_read_fraction: 0.25,
            interconnect_bytes: 4096,
            link_power_w: 1.5,
            profile: Some(profile),
            ..SimReport::default()
        };
        const GOLDEN: &str = concat!(
            r#"{"version":2,"workload":"golden \"w\"","total_cycles":1000,"kernel_cycles":[600,400],"kernel_start_cycles":[0,600],"#,
            r#""sockets":[{"egress_bytes":1,"ingress_bytes":2,"dram_bytes":3,"l2":{"local_hits":10,"local_misses":11,"remote_hits":12,"remote_misses":13,"fills":14,"evictions":15,"dirty_evictions":16},"lane_turns":4,"equalizations":5,"l2_partition":[12,4]},"#,
            r#"{"egress_bytes":0,"ingress_bytes":0,"dram_bytes":0,"l2":{"local_hits":20,"local_misses":21,"remote_hits":22,"remote_misses":23,"fills":24,"evictions":25,"dirty_evictions":26},"lane_turns":0,"equalizations":0,"l2_partition":null}],"#,
            r#""link_timelines":[],"l1":{"local_hits":30,"local_misses":31,"remote_hits":32,"remote_misses":33,"fills":34,"evictions":35,"dirty_evictions":36},"#,
            r#""remote_read_fraction_bits":4598175219545276416,"interconnect_bytes":4096,"link_power_w_bits":4609434218613702656,"#,
            r#""profile":{"scopes":[{"name":"engine","counters":{"events_popped":41}},{"name":"cache","counters":{"l2_accesses":42,"fills":43}}]}}"#,
        );
        assert_eq!(encode_report(&report).unwrap().to_string(), GOLDEN);
    }
}
