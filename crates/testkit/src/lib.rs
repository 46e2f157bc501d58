//! Self-contained deterministic test substrate for the numa-gpu
//! workspace.
//!
//! The simulator's claims (§4 dynamic lane allocation, §5 cache
//! partitioning, Fig. 12 scaling) are only reproducible if every build and
//! every test runs bit-identically offline — so this crate replaces the
//! workspace's former external dependencies with three small, fully
//! specified substrates:
//!
//! - [`rng`]: a seedable deterministic PRNG (SplitMix64 seeding,
//!   xoshiro256++ stream) with the `gen_range` / `shuffle` / `sample`
//!   surface the workload generators and tests need (replaces `rand`);
//! - [`gen`] + [`prop`]: generator combinators and a property-based
//!   testing harness — [`prop_check!`] with configurable case counts,
//!   failure shrinking, and pinned regression seeds (replaces `proptest`);
//! - [`json`]: a tiny JSON value type with encoder and parser for stats
//!   and report paths (replaces `serde` derives);
//!
//! plus [`fnv1a64`], the workspace's one content hash.
//!
//! Everything here is plain `std`; the crate has zero dependencies by
//! design and must stay that way.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod gen;
pub mod json;
pub mod prop;
pub mod rng;

pub use gen::Gen;
pub use json::Json;
pub use prop::Config;
pub use rng::DetRng;

/// FNV-1a 64-bit hash: deterministic, dependency-free, and stable across
/// processes and platforms. Seeds the per-test PRNG streams here and keys
/// and checksums the on-disk result store and the daemon journal, so its
/// output is part of those formats.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a64_matches_the_standard_vectors() {
        assert_eq!(super::fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
