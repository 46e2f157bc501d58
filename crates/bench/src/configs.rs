//! Named system configurations used across the experiments.

use numa_gpu_types::{CacheMode, CtaSchedulingPolicy, LinkMode, PagePlacement, SystemConfig};

/// The single-GPU baseline every speedup is measured against.
pub fn single() -> SystemConfig {
    SystemConfig::pascal_single()
}

/// Traditional single-GPU policies naively extended to `n` sockets:
/// fine-grained memory interleaving + modulo CTA scheduling (Fig 3 green).
pub fn traditional(n: u8) -> SystemConfig {
    let mut cfg = SystemConfig::numa_sockets(n);
    cfg.placement = PagePlacement::FineInterleave;
    cfg.cta_policy = CtaSchedulingPolicy::Interleave;
    cfg
}

/// Round-robin page interleaving (the Linux `interleave` analogue §3
/// discusses), with locality-preserving CTA scheduling.
pub fn page_interleaved(n: u8) -> SystemConfig {
    let mut cfg = SystemConfig::numa_sockets(n);
    cfg.placement = PagePlacement::PageInterleave;
    cfg
}

/// The locality-optimized software runtime (first-touch + contiguous block),
/// baseline microarchitecture (mem-side L2, static links) — the paper's
/// SW-only 4-socket baseline (Fig 3 blue).
pub fn locality(n: u8) -> SystemConfig {
    SystemConfig::numa_sockets(n)
}

/// Locality runtime + dynamic asymmetric link allocation at the given
/// sample time (Fig 6 green).
pub fn dynamic_link(n: u8, sample_time_cycles: u32) -> SystemConfig {
    let mut cfg = SystemConfig::numa_sockets(n);
    cfg.link.mode = LinkMode::DynamicAsymmetric;
    cfg.link.sample_time_cycles = sample_time_cycles;
    cfg
}

/// Locality runtime + hypothetically doubled link bandwidth (Fig 6 red):
/// static symmetric links at twice the lane rate.
pub fn double_bandwidth(n: u8) -> SystemConfig {
    let mut cfg = SystemConfig::numa_sockets(n);
    cfg.link.lane_bytes_per_cycle *= 2;
    cfg
}

/// Locality runtime with one of the four Fig 7 cache organizations.
pub fn cache(n: u8, mode: CacheMode) -> SystemConfig {
    let mut cfg = SystemConfig::numa_sockets(n);
    cfg.cache_mode = mode;
    cfg
}

/// The full NUMA-aware proposal: dynamic links + NUMA-aware caches
/// (Figs 10 and 11).
pub fn numa_aware(n: u8) -> SystemConfig {
    SystemConfig::numa_aware_sockets(n)
}

/// The unbuildable `f×`-scaled single GPU (the red theoretical dashes).
pub fn hypothetical(f: u8) -> SystemConfig {
    SystemConfig::hypothetical_scaled(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configs_validate() {
        for cfg in [
            single(),
            traditional(4),
            page_interleaved(4),
            locality(4),
            dynamic_link(4, 5000),
            double_bandwidth(4),
            cache(4, CacheMode::StaticRemoteCache),
            cache(4, CacheMode::SharedCoherent),
            cache(4, CacheMode::NumaAwareDynamic),
            numa_aware(8),
            hypothetical(8),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn traditional_destroys_locality_knobs() {
        let t = traditional(4);
        assert_eq!(t.placement, PagePlacement::FineInterleave);
        assert_eq!(t.cta_policy, CtaSchedulingPolicy::Interleave);
    }
}
