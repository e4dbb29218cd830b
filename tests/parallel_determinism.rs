//! Determinism of the execution layer: the parallel offline index build
//! and online ranking must be **bit-identical** to the serial reference
//! at every thread count — same function order, same scores, same
//! extraction reports. This is the non-negotiable invariant of the
//! `asteria-exec` fan-out.

use std::collections::HashSet;
use std::sync::Arc;

use asteria::compiler::{Arch, Binary};
use asteria::core::{AsteriaModel, ModelConfig};
use asteria::vulnsearch::{
    build_firmware_corpus, vulnerability_library, FirmwareConfig, FirmwareImage, FunctionQuery,
    IndexBuilder, IndexCache, SearchIndex, SearchSession,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn fixture() -> (AsteriaModel, Vec<asteria::vulnsearch::FirmwareImage>) {
    let model = AsteriaModel::new(ModelConfig {
        hidden_dim: 12,
        embed_dim: 8,
        ..Default::default()
    });
    let firmware = build_firmware_corpus(
        &FirmwareConfig {
            images: 4,
            ..Default::default()
        },
        &vulnerability_library(),
    );
    (model, firmware)
}

fn build(model: &AsteriaModel, firmware: &[asteria::vulnsearch::FirmwareImage]) -> SearchIndex {
    build_threads(model, firmware, 1)
}

fn build_threads(
    model: &AsteriaModel,
    firmware: &[asteria::vulnsearch::FirmwareImage],
    threads: usize,
) -> SearchIndex {
    IndexBuilder::new(model)
        .threads(threads)
        .build(firmware)
        .expect("in-memory build cannot fail")
        .index
}

#[test]
fn index_build_is_identical_at_every_thread_count() {
    let (model, firmware) = fixture();
    let serial = build(&model, &firmware);
    assert!(!serial.is_empty());
    for threads in THREAD_COUNTS {
        let parallel = build_threads(&model, &firmware, threads);
        assert!(serial == parallel, "index diverged at {threads} threads");
    }
}

#[test]
fn warm_cached_build_is_identical_to_cold_at_every_thread_count() {
    let (model, firmware) = fixture();
    let mut cache = IndexCache::default();
    let (cold, cold_stats) = IndexBuilder::new(&model)
        .threads(1)
        .build_into(&firmware, &mut cache);
    assert_eq!(cold_stats.hits, 0, "fresh cache cannot produce hits");
    assert!(cold_stats.misses > 0);

    // Persist and reload the cache exactly as `asteria index build` does
    // between runs: the warm path must survive the disk round-trip.
    let mut bytes = Vec::new();
    cache.save(&mut bytes).expect("save");
    let reloaded = IndexCache::load(bytes.as_slice()).expect("load");
    assert_eq!(reloaded, cache);

    for threads in THREAD_COUNTS {
        let mut warm_cache = reloaded.clone();
        let (warm, warm_stats) = IndexBuilder::new(&model)
            .threads(threads)
            .build_into(&firmware, &mut warm_cache);
        assert_eq!(
            warm_stats.misses, 0,
            "warm build re-encoded a binary at {threads} threads"
        );
        assert_eq!(warm_stats.hits, cold_stats.misses);
        assert_eq!(warm_stats.evicted, 0);
        assert!(cold == warm, "warm index diverged at {threads} threads");
    }

    // The plain builder must agree bit-for-bit with the cached path.
    let uncached = build(&model, &firmware);
    assert!(
        uncached == cold,
        "cached cold build diverged from the plain build"
    );
}

#[test]
fn half_warm_build_is_identical_to_cold_at_every_thread_count() {
    // A cache holding every other binary of the corpus: hits and misses
    // alternate through the wave, so each miss's extraction must go
    // back to its own place among the replayed hits.
    let (model, firmware) = fixture();
    let mut full_cache = IndexCache::default();
    let (cold, _) = IndexBuilder::new(&model)
        .threads(1)
        .build_into(&firmware, &mut full_cache);
    let mut position = 0;
    let half: Vec<FirmwareImage> = firmware
        .iter()
        .map(|img| {
            let mut img = img.clone();
            img.binaries.retain(|_| {
                position += 1;
                position % 2 == 1
            });
            img
        })
        .collect();
    let mut half_cache = IndexCache::default();
    IndexBuilder::new(&model)
        .threads(1)
        .build_into(&half, &mut half_cache);

    // Equal bytes give equal fingerprints, so a binary hits when any
    // cached binary has its bytes.
    let bytes = |b: &Binary| {
        let mut v = Vec::new();
        b.save(&mut v).expect("in-memory save");
        v
    };
    let cached: HashSet<Vec<u8>> = half.iter().flat_map(|i| &i.binaries).map(bytes).collect();
    let binaries: Vec<&Binary> = firmware.iter().flat_map(|i| &i.binaries).collect();
    let hits = binaries
        .iter()
        .filter(|b| cached.contains(&bytes(b)))
        .count();
    assert!(
        0 < hits && hits < binaries.len(),
        "{hits} of {}",
        binaries.len()
    );

    for threads in THREAD_COUNTS {
        let mut cache = half_cache.clone();
        let (index, stats) = IndexBuilder::new(&model)
            .threads(threads)
            .build_into(&firmware, &mut cache);
        assert_eq!(
            (stats.hits, stats.misses, stats.evicted),
            (hits, binaries.len() - hits, 0),
            "cache accounting at {threads} threads"
        );
        assert!(
            index == cold,
            "half-warm index diverged at {threads} threads"
        );
        assert!(cache == full_cache, "cache diverged at {threads} threads");
    }
}

#[test]
fn search_ranking_is_identical_at_every_thread_count() {
    let (model, firmware) = fixture();
    let index = build(&model, &firmware);
    let library = vulnerability_library();
    let mut session = SearchSession::new(Arc::new(model), index).threads(1);
    for entry in &library {
        let query = session
            .encode(&FunctionQuery::for_cve(entry, Arch::X86))
            .expect("query encodes");
        session = session.threads(1); // serial reference for this entry
        let serial = session.rank(&query);
        for threads in THREAD_COUNTS {
            session = session.threads(threads);
            let parallel = session.rank(&query);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.function, b.function, "{}: order diverged", entry.id);
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "{}: score bits diverged at {threads} threads",
                    entry.id
                );
            }
        }
    }
}

#[test]
fn run_search_results_are_identical_at_every_thread_count() {
    let (model, firmware) = fixture();
    let index = build(&model, &firmware);
    let library = vulnerability_library();
    let mut session = SearchSession::new(model, index).threads(1);
    let serial = session
        .run(&firmware, &library, 0.5, Arch::X86)
        .expect("queries encode");
    for threads in THREAD_COUNTS {
        session = session.threads(threads);
        let parallel = session
            .run(&firmware, &library, 0.5, Arch::X86)
            .expect("queries encode");
        assert_eq!(serial, parallel, "results diverged at {threads} threads");
    }
}

#[test]
fn query_batch_is_identical_at_every_thread_count() {
    // The server's batch path must hold the same invariant: a batch
    // answered at N threads is bit-identical to the serial batch.
    use asteria::vulnsearch::FunctionQuery;
    let (model, firmware) = fixture();
    let index = build(&model, &firmware);
    let library = vulnerability_library();
    let queries: Vec<FunctionQuery> = library
        .iter()
        .flat_map(|e| {
            // Duplicates exercise the in-batch dedup without changing
            // the expected per-query answers.
            [
                FunctionQuery::for_cve(e, Arch::X86),
                FunctionQuery::for_cve(e, Arch::X86),
            ]
        })
        .collect();
    let mut session = SearchSession::new(model, index).threads(1);
    let serial = session.query_batch(&queries);
    for threads in THREAD_COUNTS {
        session = session.threads(threads);
        let parallel = session.query_batch(&queries);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.total_ranked, b.total_ranked, "query {i}");
                    assert_eq!(a.hits.len(), b.hits.len(), "query {i}");
                    for (ha, hb) in a.hits.iter().zip(&b.hits) {
                        assert_eq!(ha.function, hb.function, "query {i}: order diverged");
                        assert_eq!(
                            ha.score.to_bits(),
                            hb.score.to_bits(),
                            "query {i}: score bits diverged at {threads} threads"
                        );
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "query {i}"),
                _ => panic!("query {i}: ok/err diverged at {threads} threads"),
            }
        }
    }
}

#[test]
fn corrupted_corpus_reports_are_identical_in_parallel() {
    // Extraction *reports* (skip taxonomy) must also merge
    // deterministically when some binaries are corrupt.
    let (model, mut firmware) = fixture();
    for img in &mut firmware {
        if let Some(binary) = img.binaries.first_mut() {
            if let Some(sym) = binary.symbols.first_mut() {
                sym.code = vec![0xff; 7];
            }
        }
    }
    let serial = build(&model, &firmware);
    assert!(serial.extraction.skipped > 0);
    for threads in THREAD_COUNTS {
        let parallel = build_threads(&model, &firmware, threads);
        assert!(serial == parallel, "index diverged at {threads} threads");
    }
}

/// FNV-1a digest of every encoding bit of an index, in index order.
fn encoding_digest(index: &SearchIndex) -> u64 {
    let mut h = asteria::nn::Fnv::new();
    h.write_usize(index.functions.len());
    for f in &index.functions {
        h.write_usize(f.encoding.vector.len());
        for v in &f.encoding.vector {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

#[test]
fn default_index_matches_the_pinned_golden_digests() {
    // The constants were computed with the autograd-tape encoder, before
    // the inference kernel replaced it, and must never be regenerated:
    // they prove the kernel reproduces every encoding bit, and that an
    // `.asix` cache written by the old encoder is byte-identical to one
    // written now, so it stays warm.
    const GOLDEN_WEIGHTS_DIGEST: u64 = 0x7a33_e74f_696a_06bf;
    const GOLDEN_ENCODING_DIGEST: u64 = 0x8a4d_c78d_9f07_fd9b;
    const GOLDEN_ASIX_DIGEST: u64 = 0x0a3f_5cc8_5eb2_d05e;
    let model = AsteriaModel::new(ModelConfig::default());
    assert_eq!(model.weights_digest(), GOLDEN_WEIGHTS_DIGEST);
    let firmware = build_firmware_corpus(&FirmwareConfig::default(), &vulnerability_library());
    for threads in THREAD_COUNTS {
        let mut cache = IndexCache::default();
        let (index, _) = IndexBuilder::new(&model)
            .threads(threads)
            .build_into(&firmware, &mut cache);
        assert_eq!(index.functions.len(), 213);
        assert_eq!(
            encoding_digest(&index),
            GOLDEN_ENCODING_DIGEST,
            "encodings diverged from the golden digest at {threads} threads"
        );
        let mut asix = Vec::new();
        cache.save(&mut asix).expect("in-memory save");
        let mut h = asteria::nn::Fnv::new();
        h.write(&asix);
        assert_eq!(
            h.finish(),
            GOLDEN_ASIX_DIGEST,
            "ASIX bytes diverged at {threads} threads"
        );
    }
}
