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
//!   a cache miss.
//!
//! The optional self-profile *is* encoded: it is plain counter data and
//! `figures --profile --cache-dir` must aggregate over warm hits too.

use numa_gpu_core::{cache_stats_json, ProfileReport, SimReport, SocketReport};
use numa_gpu_faults::{AppliedFault, LinkResilience, ResilienceReport};
use numa_gpu_interconnect::LinkSample;
use numa_gpu_testkit::json::Json;

/// Version of the payload encoding. Bump whenever the report shape or the
/// simulator's observable behaviour changes incompatibly; old entries then
/// read as version mismatches and are recomputed instead of mis-decoded.
pub const REPORT_FORMAT_VERSION: u64 = 1;

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
            "resilience",
            match &r.resilience {
                Some(res) => encode_resilience(res),
                None => Json::Null,
            },
        ),
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

fn encode_resilience(r: &ResilienceReport) -> Json {
    Json::obj([
        (
            "applied",
            Json::Arr(
                r.applied
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("cycle", Json::UInt(f.cycle)),
                            ("description", Json::Str(f.description.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "links",
            Json::Arr(
                r.links
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("edge", Json::UInt(l.edge as u64)),
                            ("nominal_lane_cycles", Json::UInt(l.nominal_lane_cycles)),
                            ("available_lane_cycles", Json::UInt(l.available_lane_cycles)),
                            (
                                "recovery_cycles",
                                match l.recovery_cycles {
                                    Some(c) => Json::UInt(c),
                                    None => Json::Null,
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("disabled_sms", Json::UInt(r.disabled_sms as u64)),
        ("requeued_ctas", Json::UInt(r.requeued_ctas as u64)),
    ])
}

fn malformed(msg: impl Into<String>) -> CodecError {
    CodecError::Malformed(msg.into())
}

fn field<'a>(doc: &'a Json, name: &str) -> Result<&'a Json, CodecError> {
    doc.get(name)
        .ok_or_else(|| malformed(format!("missing field `{name}`")))
}

fn get_u64(doc: &Json, name: &str) -> Result<u64, CodecError> {
    field(doc, name)?
        .as_u64()
        .ok_or_else(|| malformed(format!("field `{name}` is not a u64")))
}

fn get_f64_bits(doc: &Json, name: &str) -> Result<f64, CodecError> {
    Ok(f64::from_bits(get_u64(doc, name)?))
}

fn get_str(doc: &Json, name: &str) -> Result<String, CodecError> {
    Ok(field(doc, name)?
        .as_str()
        .ok_or_else(|| malformed(format!("field `{name}` is not a string")))?
        .to_string())
}

fn get_arr<'a>(doc: &'a Json, name: &str) -> Result<&'a [Json], CodecError> {
    field(doc, name)?
        .as_array()
        .ok_or_else(|| malformed(format!("field `{name}` is not an array")))
}

fn get_u64s(doc: &Json, name: &str) -> Result<Vec<u64>, CodecError> {
    get_arr(doc, name)?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| malformed(format!("`{name}` element is not a u64")))
        })
        .collect()
}

/// Decodes a stored report.
///
/// # Errors
///
/// [`CodecError::Malformed`] on any structural mismatch, including a
/// format-version difference (old entries must recompute, not mis-decode).
pub fn decode_report(doc: &Json) -> Result<SimReport, CodecError> {
    let version = get_u64(doc, "version")?;
    if version != REPORT_FORMAT_VERSION {
        return Err(malformed(format!(
            "payload version {version}, expected {REPORT_FORMAT_VERSION}"
        )));
    }
    let sockets = get_arr(doc, "sockets")?
        .iter()
        .map(decode_socket)
        .collect::<Result<Vec<_>, _>>()?;
    let link_timelines = get_arr(doc, "link_timelines")?
        .iter()
        .map(|tl| {
            tl.as_array()
                .ok_or_else(|| malformed("timeline is not an array"))?
                .iter()
                .map(decode_sample)
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let resilience = match field(doc, "resilience")? {
        Json::Null => None,
        r => Some(decode_resilience(r)?),
    };
    let profile = match field(doc, "profile")? {
        Json::Null => None,
        p => Some(decode_profile(p)?),
    };
    Ok(SimReport {
        workload: get_str(doc, "workload")?,
        total_cycles: get_u64(doc, "total_cycles")?,
        kernel_cycles: get_u64s(doc, "kernel_cycles")?,
        kernel_start_cycles: get_u64s(doc, "kernel_start_cycles")?,
        sockets,
        link_timelines,
        l1: decode_cache_stats(field(doc, "l1")?)?,
        remote_read_fraction: get_f64_bits(doc, "remote_read_fraction_bits")?,
        interconnect_bytes: get_u64(doc, "interconnect_bytes")?,
        link_power_w: get_f64_bits(doc, "link_power_w_bits")?,
        metrics: None,
        trace_events: Vec::new(),
        resilience,
        profile,
    })
}

fn decode_socket(doc: &Json) -> Result<SocketReport, CodecError> {
    let l2_partition = match field(doc, "l2_partition")? {
        Json::Null => None,
        Json::Arr(pair) if pair.len() == 2 => {
            let part = |v: &Json| -> Result<u16, CodecError> {
                let raw = v
                    .as_u64()
                    .ok_or_else(|| malformed("l2_partition element is not a u64"))?;
                u16::try_from(raw).map_err(|_| malformed("l2_partition element exceeds u16"))
            };
            Some((part(&pair[0])?, part(&pair[1])?))
        }
        _ => return Err(malformed("l2_partition is not null or a pair")),
    };
    Ok(SocketReport {
        egress_bytes: get_u64(doc, "egress_bytes")?,
        ingress_bytes: get_u64(doc, "ingress_bytes")?,
        dram_bytes: get_u64(doc, "dram_bytes")?,
        l2: decode_cache_stats(field(doc, "l2")?)?,
        lane_turns: get_u64(doc, "lane_turns")?,
        equalizations: get_u64(doc, "equalizations")?,
        l2_partition,
    })
}

fn decode_cache_stats(doc: &Json) -> Result<numa_gpu_cache::CacheStats, CodecError> {
    let mut s = numa_gpu_cache::CacheStats::default();
    s.local_hits.add(get_u64(doc, "local_hits")?);
    s.local_misses.add(get_u64(doc, "local_misses")?);
    s.remote_hits.add(get_u64(doc, "remote_hits")?);
    s.remote_misses.add(get_u64(doc, "remote_misses")?);
    s.fills.add(get_u64(doc, "fills")?);
    s.evictions.add(get_u64(doc, "evictions")?);
    s.dirty_evictions.add(get_u64(doc, "dirty_evictions")?);
    Ok(s)
}

fn decode_sample(doc: &Json) -> Result<LinkSample, CodecError> {
    let lanes = |name: &str| -> Result<u8, CodecError> {
        u8::try_from(get_u64(doc, name)?).map_err(|_| malformed(format!("`{name}` exceeds u8")))
    };
    Ok(LinkSample {
        cycle: get_u64(doc, "cycle")?,
        egress_util: get_f64_bits(doc, "egress_util_bits")?,
        ingress_util: get_f64_bits(doc, "ingress_util_bits")?,
        egress_lanes: lanes("egress_lanes")?,
        ingress_lanes: lanes("ingress_lanes")?,
    })
}

fn decode_resilience(doc: &Json) -> Result<ResilienceReport, CodecError> {
    let applied = get_arr(doc, "applied")?
        .iter()
        .map(|f| {
            Ok(AppliedFault {
                cycle: get_u64(f, "cycle")?,
                description: get_str(f, "description")?,
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    let links = get_arr(doc, "links")?
        .iter()
        .map(|l| {
            Ok(LinkResilience {
                edge: u8::try_from(get_u64(l, "edge")?)
                    .map_err(|_| malformed("`edge` exceeds u8"))?,
                nominal_lane_cycles: get_u64(l, "nominal_lane_cycles")?,
                available_lane_cycles: get_u64(l, "available_lane_cycles")?,
                recovery_cycles: match field(l, "recovery_cycles")? {
                    Json::Null => None,
                    v => Some(
                        v.as_u64()
                            .ok_or_else(|| malformed("`recovery_cycles` is not a u64"))?,
                    ),
                },
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(ResilienceReport {
        applied,
        links,
        disabled_sms: u32::try_from(get_u64(doc, "disabled_sms")?)
            .map_err(|_| malformed("`disabled_sms` exceeds u32"))?,
        requeued_ctas: u32::try_from(get_u64(doc, "requeued_ctas")?)
            .map_err(|_| malformed("`requeued_ctas` exceeds u32"))?,
    })
}

fn decode_profile(doc: &Json) -> Result<ProfileReport, CodecError> {
    let mut p = ProfileReport::new();
    for scope in get_arr(doc, "scopes")? {
        let name = get_str(scope, "name")?;
        let out = p.scope(&name);
        match field(scope, "counters")? {
            Json::Obj(fields) => {
                for (counter, value) in fields {
                    out.count(
                        counter,
                        value
                            .as_u64()
                            .ok_or_else(|| malformed("profile counter is not a u64"))?,
                    );
                }
            }
            _ => return Err(malformed("`counters` is not an object")),
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use numa_gpu_core::NumaGpuSystem;
    use numa_gpu_workloads::{by_name, Scale};

    fn run(timeline: bool, faults: Option<&str>, profile: bool) -> SimReport {
        let wl = by_name("Other-Bitcoin-Crypto", &Scale::quick()).unwrap();
        let mut cfg = configs::locality(2);
        cfg.obs.profile = profile;
        let mut sys = NumaGpuSystem::new(cfg).unwrap();
        if timeline {
            sys.enable_link_timeline();
        }
        if let Some(spec) = faults {
            sys.set_fault_plan(numa_gpu_faults::FaultPlan::parse(spec).unwrap())
                .unwrap();
        }
        sys.run(&wl).unwrap()
    }

    #[test]
    fn clean_report_roundtrips_exactly() {
        let r = run(false, None, false);
        let doc = encode_report(&r).unwrap();
        assert_eq!(decode_report(&doc).unwrap(), r);
        // The encoding itself is byte-stable.
        assert_eq!(doc.to_string(), encode_report(&r).unwrap().to_string());
    }

    #[test]
    fn timeline_faulted_profiled_report_roundtrips_exactly() {
        let r = run(true, Some("lanes:s1@200=8"), true);
        assert!(r.resilience.is_some());
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
        let mut r = run(false, None, false);
        r.metrics = Some(Default::default());
        assert!(matches!(
            encode_report(&r),
            Err(CodecError::Ineligible("a metrics snapshot"))
        ));
    }

    #[test]
    fn version_mismatch_is_malformed() {
        let r = run(false, None, false);
        let doc = encode_report(&r).unwrap();
        let mut text = doc.to_string();
        text = text.replace("\"version\":1", "\"version\":999");
        let err = decode_report(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(matches!(err, CodecError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("999"));
    }

    #[test]
    fn float_bits_roundtrip_is_exact_for_awkward_values() {
        // 0.1 has no finite binary expansion; to_bits round-trips anyway.
        for v in [0.1_f64, 1.0 / 3.0, f64::MIN_POSITIVE, 0.0, 1.0] {
            let mut r = run(false, None, false);
            r.remote_read_fraction = v;
            let back = decode_report(&encode_report(&r).unwrap()).unwrap();
            assert_eq!(back.remote_read_fraction.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_documents_are_malformed_not_panics() {
        let r = run(false, None, false);
        let text = encode_report(&r).unwrap().to_string();
        for cut in [1, text.len() / 2, text.len() - 1] {
            let prefix = &text[..cut];
            // Unparseable prefixes are fine — also a clean failure.
            if let Ok(doc) = Json::parse(prefix) {
                assert!(decode_report(&doc).is_err(), "cut at {cut} decoded");
            }
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
            r#"{"version":1,"workload":"golden \"w\"","total_cycles":1000,"kernel_cycles":[600,400],"kernel_start_cycles":[0,600],"#,
            r#""sockets":[{"egress_bytes":1,"ingress_bytes":2,"dram_bytes":3,"l2":{"local_hits":10,"local_misses":11,"remote_hits":12,"remote_misses":13,"fills":14,"evictions":15,"dirty_evictions":16},"lane_turns":4,"equalizations":5,"l2_partition":[12,4]},"#,
            r#"{"egress_bytes":0,"ingress_bytes":0,"dram_bytes":0,"l2":{"local_hits":20,"local_misses":21,"remote_hits":22,"remote_misses":23,"fills":24,"evictions":25,"dirty_evictions":26},"lane_turns":0,"equalizations":0,"l2_partition":null}],"#,
            r#""link_timelines":[],"l1":{"local_hits":30,"local_misses":31,"remote_hits":32,"remote_misses":33,"fills":34,"evictions":35,"dirty_evictions":36},"#,
            r#""remote_read_fraction_bits":4598175219545276416,"interconnect_bytes":4096,"link_power_w_bits":4609434218613702656,"resilience":null,"#,
            r#""profile":{"scopes":[{"name":"engine","counters":{"events_popped":41}},{"name":"cache","counters":{"l2_accesses":42,"fills":43}}]}}"#,
        );
        assert_eq!(encode_report(&report).unwrap().to_string(), GOLDEN);
    }
}
