//! Property suite for the store codec: [`decode_report_text`] is the exact
//! inverse of [`encode_report`]'s text. Every report round-trips, and every
//! truncation, byte flip and inserted space of an encoded report is either
//! rejected or decodes to the report whose encoding is that damaged text
//! itself: no panic, and no two texts for one report. A store hit serves
//! the bytes the writer writes, a stripped profile included.

use numa_gpu_bench::codec::{decode_report_text, encode_report};
use numa_gpu_bench::{configs, DiskStore, KeyedJob, SimPlan};
use numa_gpu_cache::CacheStats;
use numa_gpu_core::{ProfileReport, SimReport, SocketReport};
use numa_gpu_interconnect::LinkSample;
use numa_gpu_testkit::gen::{ints, Gen};
use numa_gpu_testkit::{prop_assert, prop_assert_eq, prop_check, Config, DetRng};
use numa_gpu_workloads::{by_name, Scale};
use std::sync::OnceLock;

/// What generated names are made of: plain words, every escape the
/// writer knows, other controls, DEL and multi-byte text.
const FRAGMENTS: [&str; 16] = [
    "engine",
    "lanes:s1@200=8",
    " ",
    "x",
    "\"",
    "\\",
    "\n",
    "\r",
    "\t",
    "\u{0}",
    "\u{1f}",
    "\u{7f}",
    "é",
    "日本",
    "🦀",
    "\\u0041",
];

fn text(rng: &mut DetRng) -> String {
    (0..rng.gen_range(0usize..5))
        .map(|_| FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())])
        .collect()
}

/// Small counts, mid-sized ones and the whole `u64` range.
fn num(rng: &mut DetRng) -> u64 {
    match rng.gen_range(0u8..3) {
        0 => rng.gen_range(0..10),
        1 => rng.gen_range(0..100_000),
        _ => rng.next_u64(),
    }
}

/// Any `f64` but NaN, which a report's `==` cannot compare.
fn float(rng: &mut DetRng) -> f64 {
    let v = f64::from_bits(rng.next_u64());
    if v.is_nan() {
        rng.random_f64()
    } else {
        v
    }
}

fn stats(rng: &mut DetRng) -> CacheStats {
    let mut s = CacheStats::default();
    for counter in [
        &mut s.local_hits,
        &mut s.local_misses,
        &mut s.remote_hits,
        &mut s.remote_misses,
        &mut s.fills,
        &mut s.evictions,
        &mut s.dirty_evictions,
    ] {
        counter.add(num(rng));
    }
    s
}

fn socket(rng: &mut DetRng) -> SocketReport {
    SocketReport {
        egress_bytes: num(rng),
        ingress_bytes: num(rng),
        dram_bytes: num(rng),
        l2: stats(rng),
        lane_turns: num(rng),
        equalizations: num(rng),
        l2_partition: rng
            .random_bool(0.5)
            .then(|| (rng.next_u64() as u16, rng.next_u64() as u16)),
    }
}

fn sample(rng: &mut DetRng) -> LinkSample {
    LinkSample {
        cycle: num(rng),
        egress_util: float(rng),
        ingress_util: float(rng),
        egress_lanes: rng.next_u64() as u8,
        ingress_lanes: rng.next_u64() as u8,
    }
}

/// Built the way the simulator builds one: through `scope` and `count`.
fn profile(rng: &mut DetRng) -> ProfileReport {
    let mut p = ProfileReport::new();
    for _ in 0..rng.gen_range(0usize..4) {
        let name = text(rng);
        let scope = p.scope(&name);
        for _ in 0..rng.gen_range(0usize..4) {
            scope.count(&text(rng), num(rng));
        }
    }
    p
}

fn report(rng: &mut DetRng) -> SimReport {
    SimReport {
        workload: text(rng),
        total_cycles: num(rng),
        kernel_cycles: (0..rng.gen_range(0usize..4)).map(|_| num(rng)).collect(),
        kernel_start_cycles: (0..rng.gen_range(0usize..4)).map(|_| num(rng)).collect(),
        sockets: (0..rng.gen_range(1usize..9)).map(|_| socket(rng)).collect(),
        link_timelines: (0..rng.gen_range(0usize..3))
            .map(|_| (0..rng.gen_range(0usize..3)).map(|_| sample(rng)).collect())
            .collect(),
        l1: stats(rng),
        remote_read_fraction: float(rng),
        interconnect_bytes: num(rng),
        link_power_w: float(rng),
        profile: rng.random_bool(0.5).then(|| profile(rng)),
        ..SimReport::default()
    }
}

fn reports() -> Gen<SimReport> {
    Gen::new(report, |_| Vec::new())
}

fn encode(r: &SimReport) -> String {
    encode_report(r).expect("no metrics, no trace").to_string()
}

/// `None` when `bytes` is rejected or decodes to a report whose encoding is
/// exactly these bytes; otherwise that other encoding.
fn not_inverse(bytes: &[u8]) -> Option<String> {
    // What the store does with an entry's bytes, the lossy decode only
    // when it must.
    let text =
        std::str::from_utf8(bytes).map_or_else(|_| String::from_utf8_lossy(bytes), Into::into);
    let again = encode(&decode_report_text(&text).ok()?);
    (again != text).then_some(again)
}

prop_check! {
    fn text_decoder_inverts_the_writer(r in reports()) {
        prop_assert_eq!(decode_report_text(&encode(&r)), Ok(r));
    }
}

prop_check! {
    // Each case decodes a few thousand damaged texts.
    #![config = Config::new().cases(24)]

    fn damaged_text_is_rejected_or_is_its_own_reports_encoding(
        r in reports(),
        seed in ints(0u64..u64::MAX),
    ) {
        let text = encode(&r).into_bytes();
        for cut in 0..text.len() {
            prop_assert_eq!(not_inverse(&text[..cut]), None, "cut at {}", cut);
        }
        for i in 0..text.len() {
            let mut flipped = text.clone();
            flipped[i] ^= 1 + (seed.wrapping_mul(2 * i as u64 + 1) >> 56) as u8 % 255;
            prop_assert_eq!(not_inverse(&flipped), None, "flip at {}", i);
        }
        for i in 0..=text.len() {
            let mut spaced = text.clone();
            spaced.insert(i, b' ');
            prop_assert_eq!(not_inverse(&spaced), None, "space at {}", i);
        }
    }
}

/// A plain job and a profile-wanting one: one store key, two read policies.
fn jobs() -> &'static [KeyedJob; 2] {
    static JOBS: OnceLock<[KeyedJob; 2]> = OnceLock::new();
    JOBS.get_or_init(|| {
        let scale = Scale::quick();
        let wl = by_name("Other-Bitcoin-Crypto", &scale).expect("catalog workload");
        let mut plan = SimPlan::new();
        plan.job("loc2", configs::locality(2), &wl);
        let plain = plan.jobs()[0].clone();
        let mut profiled = plain.clone();
        profiled.cfg.obs.profile = true;
        [
            KeyedJob::new(plain, &scale),
            KeyedJob::new(profiled, &scale),
        ]
    })
}

prop_check! {
    #![config = Config::new().cases(64)]

    /// Whatever the report, a hit's text is what the writer writes for the
    /// report the hit decoded: for a plain job the stored profile is cut
    /// out of the bytes exactly as the encoder leaves it out.
    fn a_hit_serves_the_bytes_the_writer_writes(r in reports()) {
        let dir = std::env::temp_dir()
            .join(format!("numa-gpu-codec-hit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).expect("store opens");
        let [plain, profiled] = jobs();
        store.save_job(plain, &r).expect("saves");

        let hit = store.load_job(plain).expect("a plain job hits");
        prop_assert_eq!(hit.text(), encode(&hit.report));
        let bare = SimReport { profile: None, ..r.clone() };
        prop_assert_eq!(hit.report, bare);
        match store.load_job(profiled) {
            Some(hit) => {
                prop_assert_eq!(hit.text(), encode(&hit.report));
                prop_assert_eq!(hit.report, r);
            }
            None => prop_assert!(r.profile.is_none(), "a stored profile was not served"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
