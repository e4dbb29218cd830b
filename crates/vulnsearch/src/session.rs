//! The vulnsearch API: [`IndexBuilder`] for the offline phase and
//! [`SearchSession`] for the online phase.
//!
//! - [`IndexBuilder`] — an options-struct builder for the offline phase:
//!   `.threads(n)`, `.cache(path)` (persistent ASIX warm starts),
//!   producing a [`SearchIndex`] plus [`CacheStats`].
//! - [`SearchSession`] — holds the model and the index and answers
//!   queries: [`SearchSession::query`] / [`SearchSession::query_batch`]
//!   for ad-hoc function lookups (the serving path),
//!   [`SearchSession::run`] for the paper's Table IV experiment.
//!
//! CLI one-shots, benches, and the long-running `asteria serve` daemon
//! all go through these two types. Both extract under one setting, the
//! default inlining β ([`DEFAULT_INLINE_BETA`]) and decompile budgets
//! ([`DecompileLimits::default`]), so a query is always encoded exactly
//! like the functions it is ranked against. A session's answers are
//! bit-identical at every thread count, and batched queries are
//! bit-identical to one-at-a-time queries.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use asteria_compiler::{compile_program, Arch};
use asteria_core::{
    encode_function, encode_functions, extract_binary, extract_function, AsteriaModel,
    ExtractedFunction, ExtractionReport, FunctionEncoding, ResilientExtraction,
    DEFAULT_INLINE_BETA,
};
use asteria_decompiler::{BudgetKind, DecompileLimits};
use asteria_lang::parse;

use crate::firmware::FirmwareImage;
use crate::index_io::{
    extraction_params_digest, fingerprint_binary, CacheStats, CachedBinary, IndexCache, IndexError,
};
use crate::library::CveEntry;
use crate::rank::{rank_order, RankSlab};
use crate::search::{
    CveSearchResult, IndexedFunction, QueryError, QueryErrorKind, SearchHit, SearchIndex,
};

/// Default number of hits a [`FunctionQuery`] returns.
pub const DEFAULT_TOP_K: usize = 10;

// ---------------------------------------------------------------------------
// IndexBuilder
// ---------------------------------------------------------------------------

/// Options-struct builder for the offline phase: encodes a firmware
/// corpus into a [`SearchIndex`], optionally warm-started from a
/// persistent ASIX cache.
///
/// ```no_run
/// # use asteria_core::{AsteriaModel, ModelConfig};
/// # use asteria_vulnsearch::{build_firmware_corpus, vulnerability_library, FirmwareConfig};
/// # use asteria_vulnsearch::IndexBuilder;
/// # let model = AsteriaModel::new(ModelConfig::default());
/// # let firmware = build_firmware_corpus(&FirmwareConfig::default(), &vulnerability_library());
/// let build = IndexBuilder::new(&model)
///     .threads(4)
///     .cache("index.asix")
///     .build(&firmware)?;
/// println!("{} functions, {}", build.index.len(), build.stats);
/// # Ok::<(), asteria_vulnsearch::IndexError>(())
/// ```
#[derive(Debug)]
pub struct IndexBuilder<'m> {
    model: &'m AsteriaModel,
    threads: usize,
    cache_path: Option<PathBuf>,
    seed_cache: Option<IndexCache>,
}

/// What [`IndexBuilder::build`] produces: the index, the cache
/// accounting for this build, and the (updated) cache for reuse.
#[derive(Debug)]
pub struct IndexBuild {
    /// The offline product: every firmware function encoded once.
    pub index: SearchIndex,
    /// Hit/miss/eviction accounting for this build.
    pub stats: CacheStats,
    /// The updated embedding cache (already persisted when the builder
    /// was given a `.cache(path)`).
    pub cache: IndexCache,
}

impl<'m> IndexBuilder<'m> {
    /// A builder with default options: auto thread count, no persistent
    /// cache.
    pub fn new(model: &'m AsteriaModel) -> IndexBuilder<'m> {
        IndexBuilder {
            model,
            threads: 0,
            cache_path: None,
            seed_cache: None,
        }
    }

    /// Worker-thread count for the offline fan-out (`0` = auto:
    /// `ASTERIA_THREADS` override, else all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Warm-starts from (and persists back to) an ASIX cache file.
    ///
    /// A missing file costs a cold build; an unreadable or corrupt one
    /// costs a warning plus a cold rebuild — never the run. The updated
    /// cache is written back after the build.
    pub fn cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Warm-starts from an in-memory cache (takes precedence over the
    /// initial contents of a `.cache(path)` file; the file, when also
    /// configured, is still written back).
    pub fn seed_cache(mut self, cache: IndexCache) -> Self {
        self.seed_cache = Some(cache);
        self
    }

    /// Runs the offline phase.
    ///
    /// # Errors
    ///
    /// Only I/O on a configured `.cache(path)` can fail — reading a file
    /// that exists but cannot be read, or writing the updated cache
    /// back. Corrupt cache *contents* degrade to a cold rebuild instead.
    pub fn build(mut self, firmware: &[FirmwareImage]) -> Result<IndexBuild, IndexError> {
        let mut cache = match self.seed_cache.take() {
            Some(cache) => cache,
            None => match &self.cache_path {
                Some(path) => match std::fs::read(path) {
                    Ok(bytes) => match IndexCache::load(bytes.as_slice()) {
                        Ok(cache) => cache,
                        Err(e) => {
                            asteria_obs::warn!(
                                "warning: ignoring unusable index cache at {}: {e}",
                                path.display()
                            );
                            IndexCache::default()
                        }
                    },
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => IndexCache::default(),
                    Err(e) => return Err(IndexError::Io(e)),
                },
                None => IndexCache::default(),
            },
        };
        let (index, stats) = self.build_into(firmware, &mut cache);
        if let Some(path) = &self.cache_path {
            let mut buf = Vec::new();
            cache.save(&mut buf)?;
            std::fs::write(path, buf)?;
        }
        Ok(IndexBuild {
            index,
            stats,
            cache,
        })
    }

    /// Runs the offline phase against a caller-owned in-memory cache,
    /// updating it in place. This path is infallible: no file I/O is
    /// involved (`.cache(path)` is ignored here).
    ///
    /// Fingerprint hits replay cached embeddings, misses run the cold
    /// pipeline over `asteria-exec` workers, and stale entries are
    /// evicted; the result is bit-identical to a cold build at every
    /// thread count and hit/miss mix.
    pub fn build_into(
        &self,
        firmware: &[FirmwareImage],
        cache: &mut IndexCache,
    ) -> (SearchIndex, CacheStats) {
        let mut build_span = asteria_obs::span("index-build");
        let model_digest = self.model.weights_digest();
        let params_digest =
            extraction_params_digest(DEFAULT_INLINE_BETA, &DecompileLimits::default());
        let mut stats = CacheStats::default();
        if cache.model_digest != model_digest || cache.params_digest != params_digest {
            // Retraining or a budget change invalidates every embedding.
            stats.evicted += cache.clear();
            cache.model_digest = model_digest;
            cache.params_digest = params_digest;
        }

        // One work unit per binary: the granularity that balances fan-out
        // (images hold few binaries) against per-unit overhead, and the
        // granularity the cache is keyed at (callee counts depend on sibling
        // symbols, so a binary is the smallest self-contained unit).
        let units: Vec<(usize, usize, &FirmwareImage)> = firmware
            .iter()
            .enumerate()
            .flat_map(|(ii, img)| (0..img.binaries.len()).map(move |bi| (ii, bi, img)))
            .collect();
        build_span.set_items(units.len() as u64);
        let mut index = SearchIndex::default();
        let mut live = std::collections::HashSet::with_capacity(units.len());
        // Every binary is looked up in the cache as it was before the
        // build; new entries go in at the end.
        let mut fresh = Vec::new();
        // A wave's trees are alive together in one forest; bounding the
        // wave bounds the build's peak memory. A subtree gives the same
        // bits in any forest, so the encodings do not depend on waves.
        for wave in units.chunks(WAVE_BINARIES) {
            let looked_up = self.look_up(wave, cache, params_digest, model_digest);
            let cold: Vec<&ExtractedFunction> = looked_up
                .iter()
                .filter_map(|(_, entry)| match entry {
                    Entry::Cold(extraction) => Some(extraction.successes()),
                    Entry::Warm { .. } => None,
                })
                .flatten()
                .collect();
            let mut encodings = {
                let mut span = asteria_obs::span("encode-forest");
                span.set_items(cold.len() as u64);
                encode_functions(self.model, &cold, self.threads).into_iter()
            };
            for (&(ii, bi, img), (fingerprint, entry)) in wave.iter().zip(looked_up) {
                let (functions, report) = match entry {
                    Entry::Warm { functions, report } => {
                        stats.hits += 1;
                        (functions, report)
                    }
                    Entry::Cold(extraction) => {
                        let entry = CachedBinary {
                            report: extraction.report,
                            functions: encodings
                                .by_ref()
                                .take(extraction.report.extracted)
                                .collect(),
                        };
                        let functions = indexed_functions(ii, bi, img, &entry.functions);
                        let report = entry.report;
                        fresh.push((fingerprint, entry));
                        (functions, report)
                    }
                };
                index.extraction.absorb(&report);
                index.functions.extend(functions);
                live.insert(fingerprint);
            }
        }
        for (fingerprint, entry) in fresh {
            stats.misses += 1;
            cache.insert(fingerprint, entry);
        }
        // Anything the corpus no longer contains is stale.
        stats.evicted += cache.retain_fingerprints(|fp| live.contains(&fp));
        record_build_metrics(&index, &stats);
        (index, stats)
    }

    /// Fingerprints each binary of `wave` and either replays its cached
    /// entry or extracts it. An entry holding a vector of the wrong size
    /// (the digests check the model, not the entry) is a miss, re-encoded
    /// and overwritten.
    ///
    /// Two phases, so a wave of hits starts no worker: the probe phase
    /// hands each worker [`PROBE_CHUNK`] binaries, and only the misses go
    /// to the extraction phase, one binary at a time. Misses are put back
    /// in wave order. A hit's `encode-binary` span covers its replay, a
    /// miss's its extraction; the fingerprint is timed by the hit's
    /// histogram sample only.
    fn look_up(
        &self,
        wave: &[(usize, usize, &FirmwareImage)],
        cache: &IndexCache,
        params_digest: u64,
        model_digest: u64,
    ) -> Vec<(u64, Entry)> {
        let hidden = self.model.config().hidden_dim;
        let probed =
            asteria_exec::par_map_chunked(self.threads, PROBE_CHUNK, wave, |&(ii, bi, img)| {
                let bin_timer = asteria_obs::timer();
                let fingerprint =
                    fingerprint_binary(&img.binaries[bi], params_digest, model_digest);
                let hit = cache
                    .get(fingerprint)
                    .filter(|c| c.functions.iter().all(|f| f.vector.len() == hidden))
                    .map(|cached| {
                        let mut bin_span = asteria_obs::span("encode-binary");
                        let functions = indexed_functions(ii, bi, img, &cached.functions);
                        bin_span.set_items(functions.len() as u64);
                        bin_timer
                            .observe_seconds("asteria_index_binary_seconds", &[("mode", "warm")]);
                        let report = cached.report;
                        Entry::Warm { functions, report }
                    });
                (fingerprint, hit)
            });
        let misses: Vec<&(usize, usize, &FirmwareImage)> = wave
            .iter()
            .zip(&probed)
            .filter_map(|(unit, (_, hit))| hit.is_none().then_some(unit))
            .collect();
        let mut extracted =
            asteria_exec::par_map_threads(self.threads, &misses, |&&(_, bi, img)| {
                let mut bin_span = asteria_obs::span("encode-binary");
                let bin_timer = asteria_obs::timer();
                let extraction = extract_binary(&img.binaries[bi], DEFAULT_INLINE_BETA);
                bin_span.set_items(extraction.report.extracted as u64);
                bin_timer.observe_seconds("asteria_index_binary_seconds", &[("mode", "cold")]);
                Entry::Cold(extraction)
            })
            .into_iter();
        probed
            .into_iter()
            .map(|(fingerprint, hit)| {
                let entry =
                    hit.unwrap_or_else(|| extracted.next().expect("one extraction per miss"));
                (fingerprint, entry)
            })
            .collect()
    }
}

/// Binaries a probe worker claims at a time. A probe (fingerprint, cache
/// lookup, replay) costs about 5 µs and starting a worker about 55 µs,
/// so a wave of up to this many binaries is probed on the calling
/// thread, and a large warm corpus still spreads over every worker.
const PROBE_CHUNK: usize = 32;

/// Binaries encoded together as one forest by [`IndexBuilder`]: large
/// enough that a corpus's shared library code is interned together,
/// small enough to bound the trees and states held at once.
const WAVE_BINARIES: usize = 256;

/// A binary of an index build, before encoding.
enum Entry {
    /// Replayed from the cache: no extraction, no encoding.
    Warm {
        functions: Vec<IndexedFunction>,
        report: ExtractionReport,
    },
    /// Extracted now; its functions go through the wave's forest.
    Cold(ResilientExtraction),
}

/// The index entries of binary `bi` of image `ii`, with the image's
/// ground truth attached.
fn indexed_functions(
    ii: usize,
    bi: usize,
    img: &FirmwareImage,
    encodings: &[FunctionEncoding],
) -> Vec<IndexedFunction> {
    encodings
        .iter()
        .map(|encoding| IndexedFunction {
            image: ii,
            binary: bi,
            name: encoding.name.clone(),
            encoding: encoding.clone(),
            ground_truth: img.ground_truth(bi, &encoding.name),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// One online similarity query: a function (as MiniC source, the way an
/// analyst supplies a reference build of a vulnerable library) to rank
/// against the whole index.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionQuery {
    /// Caller-chosen label, echoed in errors (a CVE id, a request id…).
    pub label: String,
    /// MiniC source containing the query function.
    pub source: String,
    /// Name of the query function within `source`.
    pub function: String,
    /// Architecture to compile the reference build for.
    pub arch: Arch,
    /// Ranked hits to return (`0` = the full ranking).
    pub top_k: usize,
}

impl FunctionQuery {
    /// A query with the default [`DEFAULT_TOP_K`] cutoff.
    pub fn new(
        label: impl Into<String>,
        source: impl Into<String>,
        function: impl Into<String>,
        arch: Arch,
    ) -> FunctionQuery {
        FunctionQuery {
            label: label.into(),
            source: source.into(),
            function: function.into(),
            arch,
            top_k: DEFAULT_TOP_K,
        }
    }

    /// A query for a CVE library entry's vulnerable source.
    pub fn for_cve(entry: &CveEntry, arch: Arch) -> FunctionQuery {
        FunctionQuery::new(
            entry.id,
            entry.vulnerable_source.clone(),
            entry.function,
            arch,
        )
    }

    /// Sets the ranked-hit cutoff (`0` = full ranking).
    pub fn top_k(mut self, k: usize) -> FunctionQuery {
        self.top_k = k;
        self
    }

    /// Identity of the *answer* this query produces (label excluded:
    /// requests that differ only in label share one encode + ranking).
    fn dedup_key(&self) -> (&str, &str, u8, usize) {
        (&self.source, &self.function, self.arch as u8, self.top_k)
    }
}

/// The answer to one [`FunctionQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Ranked hits, truncated to the query's `top_k` (all hits when
    /// `top_k == 0`).
    pub hits: Vec<SearchHit>,
    /// Total functions ranked (the index size at query time).
    pub total_ranked: usize,
}

// ---------------------------------------------------------------------------
// SearchSession
// ---------------------------------------------------------------------------

/// The online phase as a long-lived object: holds the model and the
/// index, answers queries. One `SearchSession` serves CLI one-shots,
/// benches, and the `asteria serve` daemon through the same code path.
///
/// Sessions are cheap to share (`Arc<SearchSession>`) and all methods
/// take `&self`, so a server can answer from many threads.
#[derive(Debug)]
pub struct SearchSession {
    model: Arc<AsteriaModel>,
    index: SearchIndex,
    /// The index's vectors again, laid out for ranking.
    slab: RankSlab,
    threads: usize,
}

impl SearchSession {
    /// A session over a built index. Accepts the model by value or
    /// already shared (`Arc<AsteriaModel>`).
    ///
    /// Copies the index's encodings once into the rank slab, ordered by
    /// callee count (DESIGN.md §14).
    ///
    /// # Panics
    ///
    /// Panics if an encoding in `index` does not have the model's
    /// `hidden_dim` components. An index from [`IndexBuilder`] always
    /// has; only a hand-built one can fail this check.
    pub fn new(model: impl Into<Arc<AsteriaModel>>, index: SearchIndex) -> SearchSession {
        let model = model.into();
        let slab = RankSlab::new(&index.functions, model.config().hidden_dim);
        SearchSession {
            model,
            index,
            slab,
            threads: 0,
        }
    }

    /// Worker-thread count for query encoding and ranking (`0` = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker-thread count set by [`SearchSession::threads`] (`0` =
    /// auto).
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The model this session scores with.
    pub fn model(&self) -> &AsteriaModel {
        &self.model
    }

    /// The index this session ranks against.
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// Encodes a query function without ranking it.
    ///
    /// # Errors
    ///
    /// A typed [`QueryError`] naming the failing stage (parse, compile,
    /// symbol resolution, decompile).
    pub fn encode(&self, query: &FunctionQuery) -> Result<FunctionEncoding, QueryError> {
        let fail = |kind| QueryError {
            cve: query.label.clone(),
            function: query.function.clone(),
            kind,
        };
        let program = parse(&query.source).map_err(|e| fail(QueryErrorKind::Parse(e)))?;
        let binary =
            compile_program(&program, query.arch).map_err(|e| fail(QueryErrorKind::Compile(e)))?;
        let sym = binary
            .symbol_index(&query.function)
            .ok_or_else(|| fail(QueryErrorKind::MissingFunction))?;
        let f = extract_function(&binary, sym, DEFAULT_INLINE_BETA)
            .map_err(|e| fail(QueryErrorKind::Extract(e)))?;
        Ok(encode_function(&self.model, &f))
    }

    /// Ranks the whole index against an already-encoded query. The full
    /// ranking is returned; callers cut it as they like.
    ///
    /// The ranking is a stable sort of the index by descending score ℱ,
    /// NaN last. Every entry is scored (the tiled kernel, no pruning)
    /// and the scores are sorted in full, so this costs one pass over
    /// the index plus an `n log n` sort. [`SearchSession::rank_top_k`]
    /// is cheaper when only the first hits matter.
    ///
    /// # Panics
    ///
    /// Panics if `encoding` does not have the model's `hidden_dim`
    /// components.
    pub fn rank(&self, encoding: &FunctionEncoding) -> Vec<SearchHit> {
        self.rank_threads(encoding, 0, self.threads)
    }

    /// The first `top_k` hits (`0` = all) of [`SearchSession::rank`],
    /// bit for bit: same entries, same order, same score bits.
    ///
    /// With `0 < top_k <` index size no full sort runs: a size-`top_k`
    /// heap keeps the best entries. With the classification head,
    /// callee-count ranges whose calibration factor e^(−|ΔC|) is
    /// strictly below the current `top_k`-th best score are never
    /// scored, since ℱ cannot exceed that factor (DESIGN.md §14).
    ///
    /// # Panics
    ///
    /// Panics if `encoding` does not have the model's `hidden_dim`
    /// components.
    pub fn rank_top_k(&self, encoding: &FunctionEncoding, top_k: usize) -> Vec<SearchHit> {
        self.rank_threads(encoding, top_k, self.threads)
    }

    /// [`SearchSession::rank_top_k`] over an explicit worker count. The
    /// hits and their score bits are the same at every thread count.
    fn rank_threads(
        &self,
        encoding: &FunctionEncoding,
        top_k: usize,
        threads: usize,
    ) -> Vec<SearchHit> {
        let timer = asteria_obs::timer();
        let scorer = self.model.query_scorer(&encoding.vector);
        let callees = encoding.callee_count;
        let hits = if top_k > 0 && top_k < self.index.len() {
            self.slab.top_k(&scorer, callees, top_k, threads)
        } else {
            let scores = self.slab.scores(&scorer, callees, threads);
            let mut hits: Vec<SearchHit> = scores
                .into_iter()
                .enumerate()
                .map(|(function, score)| SearchHit { function, score })
                .collect();
            hits.sort_by(|a, b| rank_order(a.score, b.score));
            hits
        };
        timer.observe_seconds("asteria_search_seconds", &[]);
        hits
    }

    /// Answers one query: encode, then [`SearchSession::rank_top_k`]
    /// with the query's cutoff. A cutoff costs a bounded search; `top_k
    /// = 0` costs a full [`SearchSession::rank`].
    ///
    /// # Errors
    ///
    /// A typed [`QueryError`] when the query source fails to encode.
    pub fn query(&self, query: &FunctionQuery) -> Result<QueryOutcome, QueryError> {
        self.answer(query, self.threads)
    }

    /// Encode, then rank the first `top_k` over `threads` workers.
    fn answer(&self, query: &FunctionQuery, threads: usize) -> Result<QueryOutcome, QueryError> {
        let encoding = self.encode(query)?;
        Ok(QueryOutcome {
            hits: self.rank_threads(&encoding, query.top_k, threads),
            total_ranked: self.index.len(),
        })
    }

    /// Answers a batch of queries — the serving hot path.
    ///
    /// Identical queries (same source, function, arch, and cutoff) are
    /// **deduplicated**: encoded and ranked once, with the outcome
    /// replayed to every duplicate. Unique queries are answered one
    /// after another on the calling thread, each ranked serially: a
    /// server runs one batch per worker, so the batches are the parallel
    /// axis. Each outcome is bit-identical to what
    /// [`SearchSession::query`] returns for that query alone — batching
    /// is a throughput optimization, never a semantic one.
    pub fn query_batch(&self, queries: &[FunctionQuery]) -> Vec<Result<QueryOutcome, QueryError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let mut batch_span = asteria_obs::span("query-batch");
        batch_span.set_items(queries.len() as u64);
        // Dedup map: answer identity → index of the first query with it.
        let mut first_of: HashMap<(&str, &str, u8, usize), usize> = HashMap::new();
        let mut unique: Vec<&FunctionQuery> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(queries.len());
        for q in queries {
            let slot = *first_of.entry(q.dedup_key()).or_insert_with(|| {
                unique.push(q);
                unique.len() - 1
            });
            slot_of.push(slot);
        }
        if asteria_obs::enabled() {
            asteria_obs::counter_add(
                "asteria_query_batch_deduped_total",
                &[],
                (queries.len() - unique.len()) as u64,
            );
        }
        // Scoring is bit-identical at every thread count, so ranking on
        // one thread cannot change any answer.
        let answers: Vec<Result<QueryOutcome, QueryError>> =
            unique.iter().map(|q| self.answer(q, 1)).collect();
        slot_of
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match &answers[slot] {
                Ok(outcome) => Ok(outcome.clone()),
                // Errors carry the *original* query's label even when the
                // answer was computed for a duplicate.
                Err(e) => Err(QueryError {
                    cve: queries[i].label.clone(),
                    function: queries[i].function.clone(),
                    kind: e.kind.clone(),
                }),
            })
            .collect()
    }

    /// Runs the full Table IV experiment: searches every CVE against
    /// the index, thresholds candidates, and scores them against ground
    /// truth. Results are independent of the thread count.
    ///
    /// # Errors
    ///
    /// Returns the first (in library order) [`QueryError`] if any CVE's
    /// reference source fails to encode.
    pub fn run(
        &self,
        firmware: &[FirmwareImage],
        library: &[CveEntry],
        threshold: f64,
        query_arch: Arch,
    ) -> Result<Vec<CveSearchResult>, QueryError> {
        let mut search_span = asteria_obs::span("online-search");
        search_span.set_items(library.len() as u64);
        // Fan the CVE set out for query encoding, then surface the first
        // failure in deterministic library order.
        let queries = asteria_exec::par_map_threads(self.threads, library, |entry| {
            self.encode(&FunctionQuery::for_cve(entry, query_arch))
        });
        let mut results = Vec::with_capacity(library.len());
        for (cve_index, (entry, query)) in library.iter().zip(queries).enumerate() {
            let query = query?;
            let hits = self.rank(&query);
            let mut candidates = 0;
            let mut confirmed = 0;
            let mut affected: Vec<String> = Vec::new();
            for h in &hits {
                // A NaN score compares as incomparable (never ≥ threshold),
                // so it also stops the candidate scan.
                let at_or_above = matches!(
                    h.score.partial_cmp(&threshold),
                    Some(Ordering::Greater | Ordering::Equal)
                );
                if !at_or_above {
                    break;
                }
                candidates += 1;
                let f = &self.index.functions[h.function];
                if f.ground_truth == Some((cve_index, true)) {
                    confirmed += 1;
                    let img = &firmware[f.image];
                    let label = format!("{} {}", img.vendor, img.model);
                    if !affected.contains(&label) {
                        affected.push(label);
                    }
                }
            }
            let top_hits: Vec<bool> = hits
                .iter()
                .take(10)
                .map(|h| self.index.functions[h.function].ground_truth == Some((cve_index, true)))
                .collect();
            let total_vulnerable = self
                .index
                .functions
                .iter()
                .filter(|f| f.ground_truth == Some((cve_index, true)))
                .count();
            results.push(CveSearchResult {
                cve: entry.id.to_string(),
                software: entry.software.to_string(),
                function: entry.function.to_string(),
                candidates,
                confirmed,
                total_vulnerable,
                affected_models: affected,
                top_hits,
            });
        }
        Ok(results)
    }
}

/// Publishes the offline build's obs counters. Everything here is
/// derived from the deterministically merged results — never from inside
/// a worker — so every value is identical at any thread count.
fn record_build_metrics(index: &SearchIndex, stats: &CacheStats) {
    if !asteria_obs::enabled() {
        return;
    }
    asteria_obs::counter_add("asteria_cache_hits_total", &[], stats.hits as u64);
    asteria_obs::counter_add("asteria_cache_misses_total", &[], stats.misses as u64);
    asteria_obs::counter_add("asteria_cache_evicted_total", &[], stats.evicted as u64);
    asteria_obs::counter_add(
        "asteria_functions_indexed_total",
        &[],
        index.functions.len() as u64,
    );
    let r = &index.extraction;
    for (outcome, n) in [
        ("extracted", r.extracted),
        ("over_budget", r.over_budget),
        ("decode_error", r.decode_errors),
        ("empty", r.empty_functions),
        ("other", r.other_errors),
    ] {
        asteria_obs::counter_add(
            "asteria_extraction_outcomes_total",
            &[("outcome", outcome)],
            n as u64,
        );
    }
    // Pre-register every budget kind at zero so the exposition always
    // carries all four series, even on a corpus where none fire.
    for kind in BudgetKind::ALL {
        asteria_obs::counter_add(
            "asteria_budget_exceeded_total",
            &[("kind", kind.label())],
            0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::{build_firmware_corpus, FirmwareConfig};
    use crate::library::vulnerability_library;
    use asteria_core::ModelConfig;

    fn fixture() -> (AsteriaModel, Vec<FirmwareImage>, SearchIndex) {
        let model = AsteriaModel::new(ModelConfig {
            hidden_dim: 12,
            embed_dim: 8,
            ..Default::default()
        });
        let firmware = build_firmware_corpus(
            &FirmwareConfig {
                images: 5,
                ..Default::default()
            },
            &vulnerability_library(),
        );
        let index = IndexBuilder::new(&model)
            .build(&firmware)
            .expect("in-memory build")
            .index;
        (model, firmware, index)
    }

    #[test]
    fn index_covers_all_functions() {
        let (_, firmware, index) = fixture();
        let expected: usize = firmware.iter().map(|i| i.function_count()).sum();
        // Some tiny functions may be filtered by the AST-size rule, but
        // most must be present.
        assert!(index.len() > expected / 2, "{} of {expected}", index.len());
    }

    #[test]
    fn ground_truth_is_attached() {
        let (_, firmware, index) = fixture();
        let planted: usize = firmware.iter().map(|i| i.planted.len()).sum();
        let attached = index
            .functions
            .iter()
            .filter(|f| f.ground_truth.is_some())
            .count();
        assert_eq!(attached, planted);
    }

    #[test]
    fn session_rank_is_sorted_descending() {
        let (model, _, index) = fixture();
        let lib = vulnerability_library();
        let total = index.len();
        let session = SearchSession::new(model, index);
        let q = session
            .encode(&FunctionQuery::for_cve(&lib[0], Arch::X86))
            .expect("query encodes");
        let hits = session.rank(&q);
        assert_eq!(hits.len(), total);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn session_run_produces_one_result_per_cve() {
        let (model, firmware, index) = fixture();
        let lib = vulnerability_library();
        let session = SearchSession::new(model, index);
        let results = session
            .run(&firmware, &lib, 0.5, Arch::X86)
            .expect("queries encode");
        assert_eq!(results.len(), 7);
        for r in &results {
            assert!(r.confirmed <= r.candidates);
            assert!(r.top_hits.len() <= 10);
        }
    }

    #[test]
    fn session_encode_surfaces_typed_errors() {
        let (model, _, index) = fixture();
        let session = SearchSession::new(model, index);
        let bad = FunctionQuery::new("CVE-0000-0000", "int nope( { broken", "nope", Arch::X86);
        let err = session.query(&bad).expect_err("must fail");
        assert_eq!(err.cve, "CVE-0000-0000");
        assert!(matches!(err.kind, QueryErrorKind::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("does not parse"), "{err}");

        let missing = FunctionQuery::new("q", "int other() { return 1; }", "nope", Arch::X86);
        let err = session.query(&missing).expect_err("must fail");
        assert!(
            matches!(err.kind, QueryErrorKind::MissingFunction),
            "{err:?}"
        );
    }

    #[test]
    fn session_run_surfaces_query_errors() {
        let (model, firmware, index) = fixture();
        let mut lib = vulnerability_library();
        lib[2].vulnerable_source = "not even close to MiniC".into();
        let session = SearchSession::new(model, index);
        let err = session
            .run(&firmware, &lib, 0.5, Arch::X86)
            .expect_err("bad library entry must surface");
        assert_eq!(err.cve, lib[2].id);
    }

    #[test]
    fn index_reports_full_extraction_on_clean_corpus() {
        let (_, firmware, index) = fixture();
        let expected: usize = firmware.iter().map(|i| i.function_count()).sum();
        assert_eq!(index.extraction.total, expected);
        assert_eq!(index.extraction.skipped, 0);
    }

    #[test]
    fn corrupted_corpus_completes_with_skips_reported() {
        let model = AsteriaModel::new(ModelConfig {
            hidden_dim: 12,
            embed_dim: 8,
            ..Default::default()
        });
        let mut firmware = build_firmware_corpus(
            &FirmwareConfig {
                images: 3,
                ..Default::default()
            },
            &vulnerability_library(),
        );
        // Corrupt one function per image: undecodable garbage bytes.
        let mut corrupted = 0usize;
        for img in &mut firmware {
            if let Some(binary) = img.binaries.first_mut() {
                if let Some(sym) = binary.symbols.first_mut() {
                    sym.code = vec![0xff; 7];
                    corrupted += 1;
                }
            }
        }
        assert!(corrupted > 0);
        let index = IndexBuilder::new(&model)
            .build(&firmware)
            .expect("builds")
            .index;
        assert_eq!(index.extraction.skipped, corrupted);
        assert!(index.extraction.decode_errors >= corrupted);
        assert!(!index.is_empty());
        // The whole search pipeline still runs end to end.
        let lib = vulnerability_library();
        let session = SearchSession::new(model, index);
        let results = session
            .run(&firmware, &lib, 0.5, Arch::X86)
            .expect("queries encode");
        assert_eq!(results.len(), lib.len());
    }

    #[test]
    fn query_batch_is_bit_identical_to_individual_queries_and_dedups() {
        let (model, _, index) = fixture();
        let lib = vulnerability_library();
        let session = SearchSession::new(model, index);
        // A batch with duplicates (same answer identity, distinct labels)
        // and one failing query in the middle.
        let mut batch: Vec<FunctionQuery> = lib
            .iter()
            .take(3)
            .map(|e| FunctionQuery::for_cve(e, Arch::X86))
            .collect();
        batch.push(FunctionQuery::for_cve(&lib[0], Arch::X86));
        let mut dup_relabel = FunctionQuery::for_cve(&lib[1], Arch::X86);
        dup_relabel.label = "client-7".into();
        batch.push(dup_relabel);
        batch.push(FunctionQuery::new(
            "bad",
            "int broken(",
            "broken",
            Arch::X86,
        ));

        let batched = session.query_batch(&batch);
        assert_eq!(batched.len(), batch.len());
        for (q, got) in batch.iter().zip(&batched) {
            match (session.query(q), got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(want.total_ranked, got.total_ranked);
                    assert_eq!(want.hits.len(), got.hits.len());
                    for (a, b) in want.hits.iter().zip(&got.hits) {
                        assert_eq!(a.function, b.function);
                        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{}", q.label);
                    }
                }
                (Err(want), Err(got)) => {
                    assert_eq!(want.cve, got.cve);
                    assert_eq!(want.kind, got.kind);
                }
                (want, got) => panic!("outcome mismatch for {}: {want:?} vs {got:?}", q.label),
            }
        }
        // The relabeled duplicate keeps its own label on success paths
        // too — labels never leak across deduplicated answers.
        assert!(batched[4].is_ok());
    }

    #[test]
    fn top_k_truncation_and_full_ranking() {
        let (model, _, index) = fixture();
        let total = index.len();
        let lib = vulnerability_library();
        let session = SearchSession::new(model, index);
        let q5 = FunctionQuery::for_cve(&lib[0], Arch::X86).top_k(5);
        let got = session.query(&q5).expect("encodes");
        assert_eq!(got.hits.len(), 5.min(total));
        assert_eq!(got.total_ranked, total);
        let all = session
            .query(&FunctionQuery::for_cve(&lib[0], Arch::X86).top_k(0))
            .expect("encodes");
        assert_eq!(all.hits.len(), total);
    }

    #[test]
    fn warm_cached_build_is_bit_identical_and_all_hits() {
        let (model, firmware, cold_index) = fixture();
        let mut cache = IndexCache::default();
        let builder = IndexBuilder::new(&model);
        let (first, cold_stats) = builder.build_into(&firmware, &mut cache);
        let units: usize = firmware.iter().map(|i| i.binaries.len()).sum();
        assert_eq!(cold_stats.misses, units);
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(first, cold_index, "cached cold build == plain build");

        let (second, warm_stats) = builder.build_into(&firmware, &mut cache);
        assert_eq!(warm_stats.hits, units, "{warm_stats}");
        assert_eq!(warm_stats.misses, 0);
        assert_eq!(warm_stats.evicted, 0);
        assert_eq!(second, cold_index, "warm build must be bit-identical");
    }

    #[test]
    fn changing_one_binary_re_encodes_only_that_binary() {
        let (model, mut firmware, _) = fixture();
        let mut cache = IndexCache::default();
        let builder = IndexBuilder::new(&model);
        builder.build_into(&firmware, &mut cache);
        let units: usize = firmware.iter().map(|i| i.binaries.len()).sum();
        // Corrupt one function body: that binary's fingerprint changes.
        firmware[0].binaries[0].symbols[0].code = vec![0xff; 7];
        let (index, stats) = builder.build_into(&firmware, &mut cache);
        assert_eq!(stats.misses, 1, "{stats}");
        assert_eq!(stats.hits, units - 1);
        assert_eq!(stats.evicted, 1, "the old entry for that binary is stale");
        assert_eq!(index.extraction.skipped, 1);
        // And it matches an uncached build of the modified corpus.
        let fresh = IndexBuilder::new(&model)
            .build(&firmware)
            .expect("builds")
            .index;
        assert_eq!(index, fresh);
    }

    #[test]
    fn changing_model_weights_invalidates_the_whole_cache() {
        let (model, firmware, _) = fixture();
        let mut cache = IndexCache::default();
        IndexBuilder::new(&model).build_into(&firmware, &mut cache);
        let entries = cache.len();
        assert!(entries > 0);
        // A different seed → different weights → different digest.
        let retrained = AsteriaModel::new(ModelConfig {
            hidden_dim: 12,
            embed_dim: 8,
            seed: 0xBEEF,
            ..Default::default()
        });
        let (index, stats) = IndexBuilder::new(&retrained).build_into(&firmware, &mut cache);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.evicted, entries, "{stats}");
        let fresh = IndexBuilder::new(&retrained)
            .build(&firmware)
            .expect("builds")
            .index;
        assert_eq!(index, fresh);
        assert_eq!(cache.model_digest, retrained.weights_digest());
    }

    #[test]
    fn shrinking_corpus_evicts_dropped_binaries() {
        let (model, mut firmware, _) = fixture();
        let mut cache = IndexCache::default();
        let builder = IndexBuilder::new(&model);
        builder.build_into(&firmware, &mut cache);
        let dropped = firmware.pop().expect("fixture has images");
        let (_, stats) = builder.build_into(&firmware, &mut cache);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.evicted, dropped.binaries.len(), "{stats}");
    }

    #[test]
    fn cache_path_roundtrip_and_corrupt_file_degrades_to_cold() {
        let (model, firmware, plain) = fixture();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("asteria_session_cache_{}.asix", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Cold build against a missing file, then a warm rebuild from it.
        let cold = IndexBuilder::new(&model)
            .cache(&path)
            .build(&firmware)
            .expect("cold build");
        assert_eq!(cold.stats.hits, 0);
        assert_eq!(cold.index, plain, "cache path must not change the index");
        let warm = IndexBuilder::new(&model)
            .cache(&path)
            .build(&firmware)
            .expect("warm build");
        assert_eq!(warm.stats.misses, 0, "{}", warm.stats);
        assert_eq!(warm.index, plain);

        // Corrupt contents: warn + cold rebuild, never an error.
        std::fs::write(&path, b"definitely not ASIX").expect("overwrite");
        let recovered = IndexBuilder::new(&model)
            .cache(&path)
            .build(&firmware)
            .expect("corrupt cache degrades to cold");
        assert_eq!(recovered.stats.hits, 0);
        assert!(recovered.stats.misses > 0);
        assert_eq!(recovered.index, plain);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn nan_scores_rank_last_and_never_panic() {
        let (model, _, mut index) = fixture();
        assert!(index.len() >= 3);
        // A degenerate encoding: every component NaN. The similarity it
        // produces is NaN, which must sink to the bottom of the ranking.
        let dim = index.functions[0].encoding.vector.len();
        index.functions[1].encoding.vector = vec![f32::NAN; dim];
        let lib = vulnerability_library();
        let total = index.len();
        let session = SearchSession::new(model, index);
        let q = session
            .encode(&FunctionQuery::for_cve(&lib[0], Arch::X86))
            .expect("query encodes");
        let hits = session.rank(&q);
        assert_eq!(hits.len(), total);
        let last = hits.last().expect("non-empty");
        assert!(last.score.is_nan(), "NaN must rank last: {last:?}");
        assert_eq!(last.function, 1);
        assert!(hits[..hits.len() - 1].iter().all(|h| !h.score.is_nan()));
    }
}
