//! Seeded inputs and the per-workload set-up (everything timed as
//! `setup_s`): corpus generation, model construction, reference index
//! builds, expected answers, and server start.

use std::net::TcpListener;
use std::ops::Range;
use std::sync::Arc;

use asteria::compiler::Arch;
use asteria::core::{AsteriaModel, ModelConfig};
use asteria::datasets::{generate_package, GenConfig};
use asteria::serve::json::Json;
use asteria::serve::{proto, start_tcp, ServeConfig, ServerHandle};
use asteria::vulnsearch::{
    build_firmware_corpus, vulnerability_library, FirmwareConfig, FirmwareImage, FunctionQuery,
    IndexBuilder, IndexCache, SearchHit, SearchIndex, SearchSession,
};

use crate::Workload;

/// Firmware images in the offline workloads' corpus.
const OFFLINE_IMAGES: usize = 48;
/// Images indexed by one offline operation.
pub const IMAGES_PER_OP: usize = 2;
/// Firmware images behind the online workloads' index.
const ONLINE_IMAGES: usize = 24;
/// Distinct generated queries in the serve workloads' pool.
const DISTINCT_QUERIES: usize = 256;
/// Concurrent clients of the serve workloads.
const SERVE_CLIENTS: usize = 8;
/// Entries of the `rank-large` index (the online index replicated).
const LARGE_INDEX: usize = 100_000;
/// Distinct generated queries of `rank-large`.
const RANK_QUERIES: usize = 16;
/// Hits each query asks for.
const TOP_K: usize = 10;

/// SplitMix64 step: derives independent sub-seeds from `--seed`.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A firmware corpus in which every image ships all seven CVE host
/// libraries (vulnerable or patched), so images have the same number of
/// binaries and functions and only their contents vary with the seed.
fn corpus(seed: u64, images: usize) -> Vec<FirmwareImage> {
    build_firmware_corpus(
        &FirmwareConfig {
            images,
            include_probability: 1.0,
            seed: mix(seed, 1),
            ..FirmwareConfig::default()
        },
        &vulnerability_library(),
    )
}

/// Pairwise distinct query functions: the last function of a small
/// generated package (so it may call the others), compiled for x86.
fn distinct_queries(seed: u64, n: usize) -> Vec<FunctionQuery> {
    let config = GenConfig {
        functions: 3,
        max_depth: 3,
        seed: mix(seed, 2),
    };
    (0..n)
        .map(|k| {
            let package = format!("q{k}");
            let (source, _) = generate_package(&package, &config);
            FunctionQuery::new(package.clone(), source, format!("{package}_fn2"), Arch::X86)
                .top_k(TOP_K)
        })
        .collect()
}

/// The paper's §V query set: the 7 CVE library functions, compiled for
/// x86 and searched against the ARM-heavy firmware.
fn cve_queries() -> Vec<FunctionQuery> {
    vulnerability_library()
        .iter()
        .map(|e| FunctionQuery::for_cve(e, Arch::X86).top_k(TOP_K))
        .collect()
}

fn save_cache(cache: &IndexCache) -> Vec<u8> {
    let mut bytes = Vec::new();
    cache
        .save(&mut bytes)
        .expect("writing to a Vec cannot fail");
    bytes
}

/// A group of images indexed by one offline operation, with its serial
/// reference build.
pub struct Batch {
    pub images: Range<usize>,
    pub binaries: usize,
    pub reference: SearchIndex,
    /// The reference build's ASIX cache bytes (the warm-start input).
    pub asix: Vec<u8>,
}

/// The serve workloads' query pool and how clients walk it.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// The CVE library, walked in synchronised rounds: every client asks
    /// the same query in the same round.
    Lockstep,
    /// Distinct generated queries; client `c` starts at
    /// `c × pool / clients`, so concurrent clients never ask the same one.
    Spread,
}

pub enum Kind {
    Offline {
        warm: bool,
        firmware: Vec<FirmwareImage>,
        batches: Vec<Batch>,
    },
    Serve {
        server: ServerHandle,
        clients: usize,
        pick: Pick,
        /// The `result` payload each query's reply must carry.
        expected: Vec<Json>,
    },
    Rank {
        /// Expected `(index, score bits)` of each query's top hits.
        expected: Vec<Vec<(usize, u64)>>,
    },
}

/// A workload, set up and ready to measure.
pub struct Fixture {
    pub model: Arc<AsteriaModel>,
    /// The index queries rank against (for offline workloads, the union
    /// of the batches' reference indexes).
    pub session: Arc<SearchSession>,
    /// ASIX cache bytes covering the index, one blob per build.
    pub asix: Vec<Vec<u8>>,
    pub queries: Vec<FunctionQuery>,
    pub kind: Kind,
}

impl Fixture {
    /// Sets up `workload` on inputs generated from `seed`.
    ///
    /// # Panics
    ///
    /// When the generated inputs do not go through the pipeline cleanly
    /// (a query fails to encode, a reference build skips functions) —
    /// the benchmark's inputs are chosen so that no operation fails.
    pub fn new(workload: Workload, seed: u64) -> Fixture {
        let model = Arc::new(AsteriaModel::new(ModelConfig::default()));
        match workload {
            Workload::IndexCold | Workload::IndexWarm => {
                Fixture::offline(model, seed, workload == Workload::IndexWarm)
            }
            Workload::ServeDistinct => Fixture::serve(model, seed, Pick::Spread),
            Workload::ServeLockstep => Fixture::serve(model, seed, Pick::Lockstep),
            Workload::RankLarge => Fixture::rank(model, seed),
        }
    }

    fn offline(model: Arc<AsteriaModel>, seed: u64, warm: bool) -> Fixture {
        let firmware = corpus(seed, OFFLINE_IMAGES);
        let mut union = SearchIndex::default();
        let mut asix = Vec::new();
        let batches: Vec<Batch> = (0..firmware.len())
            .step_by(IMAGES_PER_OP)
            .map(|start| {
                let images = start..(start + IMAGES_PER_OP).min(firmware.len());
                let slice = &firmware[images.clone()];
                let build = IndexBuilder::new(&model)
                    .threads(1)
                    .build(slice)
                    .expect("in-memory build cannot fail");
                assert_eq!(
                    build.index.extraction.skipped, 0,
                    "corpus must extract cleanly"
                );
                union
                    .functions
                    .extend(build.index.functions.iter().cloned());
                union.extraction.absorb(&build.index.extraction);
                let bytes = save_cache(&build.cache);
                asix.push(bytes.clone());
                Batch {
                    binaries: slice.iter().map(|i| i.binaries.len()).sum(),
                    images,
                    reference: build.index,
                    asix: bytes,
                }
            })
            .collect();
        Fixture {
            session: Arc::new(SearchSession::new(Arc::clone(&model), union)),
            model,
            asix,
            queries: cve_queries(),
            kind: Kind::Offline {
                warm,
                firmware,
                batches,
            },
        }
    }

    /// Builds the online index over a fresh corpus; also returns its
    /// ASIX cache bytes.
    fn online_index(model: &AsteriaModel, seed: u64) -> (SearchIndex, Vec<u8>) {
        let firmware = corpus(seed, ONLINE_IMAGES);
        let build = IndexBuilder::new(model)
            .build(&firmware)
            .expect("in-memory build cannot fail");
        assert_eq!(
            build.index.extraction.skipped, 0,
            "corpus must extract cleanly"
        );
        let asix = save_cache(&build.cache);
        (build.index, asix)
    }

    fn serve(model: Arc<AsteriaModel>, seed: u64, pick: Pick) -> Fixture {
        let (index, asix) = Fixture::online_index(&model, seed);
        let session = Arc::new(SearchSession::new(Arc::clone(&model), index));
        let queries = match pick {
            Pick::Lockstep => cve_queries(),
            Pick::Spread => distinct_queries(seed, DISTINCT_QUERIES),
        };
        let expected: Vec<Json> = queries
            .iter()
            .map(|q| {
                let outcome = session.query(q).expect("benchmark queries encode");
                proto::render_outcome(&outcome, session.index())
            })
            .collect();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a localhost port");
        let server = start_tcp(Arc::clone(&session), ServeConfig::default(), listener)
            .expect("start the server");
        Fixture {
            model,
            session,
            asix: vec![asix],
            queries,
            kind: Kind::Serve {
                server,
                clients: SERVE_CLIENTS,
                pick,
                expected,
            },
        }
    }

    fn rank(model: Arc<AsteriaModel>, seed: u64) -> Fixture {
        let (base, asix) = Fixture::online_index(&model, seed);
        let n = base.len();
        let copies = LARGE_INDEX.div_ceil(n);
        let queries = distinct_queries(seed, RANK_QUERIES);
        let base_session = SearchSession::new(Arc::clone(&model), base);
        let expected = queries
            .iter()
            .map(|q| {
                let full = q.clone().top_k(0);
                let outcome = base_session.query(&full).expect("benchmark queries encode");
                replicated_top_k(&outcome.hits, n, copies, q.top_k)
            })
            .collect();
        let base = base_session.index();
        let large = SearchIndex {
            functions: (0..copies)
                .flat_map(|_| base.functions.iter().cloned())
                .collect(),
            extraction: base.extraction,
        };
        Fixture {
            session: Arc::new(SearchSession::new(Arc::clone(&model), large)),
            model,
            asix: vec![asix],
            queries,
            kind: Kind::Rank { expected },
        }
    }
}

/// The top `k` of a ranking over `copies` back-to-back replicas of an
/// `n`-entry index, derived from the base ranking: entries with equal
/// scores keep index order (the ranking sort is stable), so a group of
/// equal base scores expands replica by replica.
fn replicated_top_k(base: &[SearchHit], n: usize, copies: usize, k: usize) -> Vec<(usize, u64)> {
    let mut out = Vec::with_capacity(k);
    let mut i = 0;
    while i < base.len() && out.len() < k {
        let bits = base[i].score.to_bits();
        let mut group: Vec<usize> = base[i..]
            .iter()
            .take_while(|h| h.score.to_bits() == bits)
            .map(|h| h.function)
            .collect();
        i += group.len();
        group.sort_unstable();
        for replica in 0..copies {
            for &f in &group {
                if out.len() == k {
                    return out;
                }
                out.push((replica * n + f, bits));
            }
        }
    }
    out
}
