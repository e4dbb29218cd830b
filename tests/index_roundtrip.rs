//! Property tests for the ASIX on-disk index cache: randomly generated
//! caches must round-trip through `save`/`load` exactly (including
//! byte-identical re-serialization, since entries are written in sorted
//! fingerprint order), and arbitrary byte-level corruption of a valid
//! file must yield a typed `IndexError`, never a panic.

use asteria::core::{ExtractionReport, FunctionEncoding};
use asteria::vulnsearch::{CachedBinary, IndexCache};
use proptest::prelude::*;

/// Deterministically expands a small integer seed into a cache with
/// `entries` binaries of varying shape. Floats come from bit patterns a
/// real encoder could produce (finite, spread across magnitudes).
fn cache_from_seed(seed: u64, entries: usize) -> IndexCache {
    let mut cache = IndexCache::new(seed.wrapping_mul(0x9e3779b97f4a7c15), !seed);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for e in 0..entries {
        let nfuncs = (next() % 4) as usize;
        let skipped = (next() % 3) as usize;
        let functions: Vec<FunctionEncoding> = (0..nfuncs)
            .map(|f| FunctionEncoding {
                name: format!("fn_{e}_{f}_{}", next() % 1000),
                callee_count: (next() % 17) as usize,
                vector: (0..(next() % 6) as usize)
                    .map(|_| (next() % 1_000_000) as f32 / 997.0 - 500.0)
                    .collect(),
            })
            .collect();
        let report = ExtractionReport {
            total: nfuncs + skipped,
            extracted: nfuncs,
            skipped,
            decode_errors: skipped,
            ..Default::default()
        };
        cache.insert(next(), CachedBinary { report, functions });
    }
    cache
}

fn saved(cache: &IndexCache) -> Vec<u8> {
    let mut buf = Vec::new();
    cache.save(&mut buf).expect("save");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// save → load → save is the identity on both the structure and the
    /// exact bytes.
    #[test]
    fn random_caches_roundtrip_exactly(
        seed in 0u64..1_000_000,
        entries in 0usize..8,
    ) {
        let cache = cache_from_seed(seed, entries);
        let bytes = saved(&cache);
        let loaded = IndexCache::load(bytes.as_slice()).expect("valid file loads");
        prop_assert_eq!(&loaded, &cache);
        prop_assert_eq!(saved(&loaded), bytes);
    }

    /// Any single-byte mutation of a valid file either still loads (the
    /// byte was unchanged or in a don't-care position — then a re-save
    /// must reproduce the mutated bytes) or fails with a typed error.
    /// Either way: no panic, ever.
    #[test]
    fn single_byte_corruption_never_panics(
        seed in 0u64..100_000,
        pos_seed in 0usize..1_000_000,
        value in 0u8..=255u8,
    ) {
        let cache = cache_from_seed(seed, 3);
        let mut bytes = saved(&cache);
        let pos = pos_seed % bytes.len();
        let original = bytes[pos];
        bytes[pos] = value;
        match IndexCache::load(bytes.as_slice()) {
            Err(e) => {
                // Typed rejection; the message must render.
                prop_assert!(!e.to_string().is_empty());
            }
            Ok(loaded) => {
                if value == original {
                    prop_assert_eq!(&loaded, &cache);
                } else {
                    // Mutation landed in a digest/fingerprint field:
                    // whatever loaded must still round-trip exactly.
                    let again = IndexCache::load(saved(&loaded).as_slice())
                        .expect("re-saved cache loads");
                    prop_assert_eq!(again, loaded);
                }
            }
        }
    }

    /// Truncation at every possible length is always a typed error (an
    /// empty prefix included), except the full length which must load.
    #[test]
    fn every_truncation_is_rejected(seed in 0u64..100_000) {
        let cache = cache_from_seed(seed, 2);
        let bytes = saved(&cache);
        for cut in 0..bytes.len() {
            prop_assert!(
                IndexCache::load(&bytes[..cut]).is_err(),
                "truncation to {} of {} bytes loaded",
                cut,
                bytes.len()
            );
        }
        prop_assert!(IndexCache::load(bytes.as_slice()).is_ok());
    }
}
