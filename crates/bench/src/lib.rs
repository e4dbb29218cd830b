//! `asteria-bench` — experiment harnesses regenerating every table and
//! figure of the paper.
//!
//! Each table/figure has a dedicated binary (`table1_nodes`, `fig6_roc`,
//! …) that prints the same rows/series the paper reports. All binaries
//! accept `--scale smoke|mid|paper` (default `smoke`) and `--quiet` /
//! `--verbose` ([`HarnessArgs`]): `smoke` finishes on one CPU core in
//! minutes; `mid` and `paper` raise corpus sizes and epochs toward the
//! paper's scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use asteria::baselines::{extract_acfg, train_gemini, Acfg, GeminiConfig, GeminiModel};
use asteria::core::{
    calibrated_similarity, encode_functions, train, AsteriaModel, ModelConfig, TrainOptions,
};
use asteria::datasets::{
    build_corpus_with_extra, build_pairs, to_train_pairs, Corpus, CorpusConfig, Pair, PairConfig,
    PairSet,
};
use asteria::eval::{auc, ScoredPair};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes on one core; what EXPERIMENTS.md records.
    Smoke,
    /// Tens of minutes on one core: a stronger statistical check.
    Mid,
    /// Larger corpora and more epochs, toward the paper's scale (hours).
    Paper,
}

impl Scale {
    /// The harness scale from argv (see [`HarnessArgs::from_env`]), for
    /// the harnesses that take no `--threads`.
    pub fn from_args() -> Scale {
        HarnessArgs::from_env(false).scale
    }

    /// Corpus configuration at this scale.
    pub fn corpus_config(self) -> CorpusConfig {
        match self {
            Scale::Smoke => CorpusConfig {
                packages: 12,
                functions_per_package: 8,
                seed: 42,
                ..Default::default()
            },
            Scale::Mid => CorpusConfig {
                packages: 24,
                functions_per_package: 10,
                seed: 42,
                ..Default::default()
            },
            Scale::Paper => CorpusConfig {
                packages: 60,
                functions_per_package: 12,
                seed: 42,
                ..Default::default()
            },
        }
    }

    /// Pair-sampling configuration at this scale.
    pub fn pair_config(self) -> PairConfig {
        match self {
            Scale::Smoke => PairConfig {
                positives_per_combination: 60,
                negatives_per_combination: 60,
                seed: 3,
            },
            Scale::Mid => PairConfig {
                positives_per_combination: 150,
                negatives_per_combination: 150,
                seed: 3,
            },
            Scale::Paper => PairConfig {
                positives_per_combination: 400,
                negatives_per_combination: 400,
                seed: 3,
            },
        }
    }

    /// Training epochs at this scale (the paper trains 60).
    pub fn epochs(self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Mid => 16,
            Scale::Paper => 60,
        }
    }
}

/// A harness command line: `[--scale smoke|mid|paper] [--quiet |
/// --verbose]`, plus `[--threads N]` where the harness takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessArgs {
    /// `--scale`, default [`Scale::Smoke`].
    pub scale: Scale,
    /// `--threads`, default `0`: every core, or `ASTERIA_THREADS`.
    pub threads: usize,
}

impl HarnessArgs {
    /// Parses argv; `takes_threads` says whether the calling harness uses
    /// `--threads`. `--quiet` silences the stderr progress lines (they go
    /// through `asteria::obs` events), `--verbose` adds debug-level ones.
    /// Anything else, a bad or missing value, or a repeated flag prints
    /// `usage error:` and exits with code 2.
    pub fn from_env(takes_threads: bool) -> HarnessArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&argv, takes_threads).unwrap_or_else(|e| {
            let threads = if takes_threads { " [--threads N]" } else { "" };
            eprintln!(
                "usage error: {e}\n  usage: [--scale smoke|mid|paper] [--quiet | --verbose]{threads}"
            );
            std::process::exit(2)
        })
    }

    fn parse(argv: &[String], takes_threads: bool) -> Result<HarnessArgs, String> {
        let mut args = HarnessArgs {
            scale: Scale::Smoke,
            threads: 0,
        };
        let mut verbosity = None;
        let mut seen = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if seen.contains(&flag) {
                return Err(format!("`{flag}` is given twice"));
            }
            seen.push(flag);
            let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
            match flag.as_str() {
                // `--quiet` wins over `--verbose`, as it does in `asteria-cli`.
                "--quiet" => verbosity = Some(asteria::obs::Verbosity::Quiet),
                "--verbose" => verbosity = verbosity.or(Some(asteria::obs::Verbosity::Verbose)),
                "--scale" => {
                    args.scale = match value()?.as_str() {
                        "smoke" => Scale::Smoke,
                        "mid" => Scale::Mid,
                        "paper" => Scale::Paper,
                        other => return Err(format!("unknown scale `{other}`")),
                    }
                }
                "--threads" if takes_threads => {
                    let v = value()?;
                    args.threads = v.parse().map_err(|_| format!("bad --threads: {v}"))?;
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        if let Some(v) = verbosity {
            asteria::obs::set_verbosity(v);
        }
        Ok(args)
    }
}

/// A ready-to-evaluate experiment context: corpus, split pair sets, and
/// trained Asteria + Gemini models.
pub struct Experiment {
    /// The cross-compiled corpus.
    pub corpus: Corpus,
    /// Training pairs (80%).
    pub train_set: PairSet,
    /// Held-out pairs (20%).
    pub test_set: PairSet,
    /// Trained Asteria model, shared so search sessions can hold it.
    pub asteria: Arc<AsteriaModel>,
    /// Trained Gemini model.
    pub gemini: GeminiModel,
    /// ACFGs for every corpus instance (aligned with `corpus.instances`).
    pub acfgs: Vec<Acfg>,
}

/// Extracts the ACFG of every corpus instance.
pub fn corpus_acfgs(corpus: &Corpus) -> Vec<Acfg> {
    corpus
        .instances
        .iter()
        .map(|inst| {
            let cb = corpus
                .binaries
                .iter()
                .find(|b| b.package == inst.package && b.arch == inst.arch)
                .expect("binary for instance");
            let sym = cb
                .binary
                .symbol_index(&inst.name)
                .expect("symbol for instance");
            extract_acfg(&cb.binary, sym).expect("acfg extraction")
        })
        .collect()
}

impl Experiment {
    /// Builds corpus + pairs and trains both models. Progress is logged to
    /// stderr because training takes a minute or two at smoke scale.
    pub fn setup(scale: Scale) -> Experiment {
        asteria::obs::info!("[setup] building corpus…");
        // Mirror the paper's Buildroot setup: the training corpus contains
        // library code of the same style later searched for vulnerabilities
        // (the *patched* CVE variants — never the vulnerable queries).
        let library_pkg: Vec<(String, String)> = asteria::vulnsearch::vulnerability_library()
            .iter()
            .map(|e| (format!("lib_{}", e.software), e.patched_source.clone()))
            .enumerate()
            .map(|(i, (n, s))| (format!("{n}{i}"), s))
            .collect();
        let corpus = build_corpus_with_extra(&scale.corpus_config(), &library_pkg);
        asteria::obs::info!(
            "[setup] corpus: {} binaries, {} function instances",
            corpus.binaries.len(),
            corpus.instances.len()
        );
        let pairs = build_pairs(&corpus, &scale.pair_config());
        let (train_set, test_set) = pairs.split(0.8, 5);
        asteria::obs::info!(
            "[setup] pairs: {} train / {} test",
            train_set.len(),
            test_set.len()
        );

        asteria::obs::info!("[setup] training Asteria ({} epochs)…", scale.epochs());
        let mut asteria = AsteriaModel::new(ModelConfig::default());
        let train_pairs = to_train_pairs(&corpus, &train_set);
        {
            let corpus_ref = &corpus;
            let test_ref = &test_set;
            let mut validate =
                |m: &AsteriaModel| -> f64 { auc(&asteria_scores(m, corpus_ref, test_ref, true)) };
            train(
                &mut asteria,
                &train_pairs,
                &TrainOptions {
                    epochs: scale.epochs(),
                    seed: 7,
                    verbose: false,
                },
                Some(&mut validate),
            );
        }

        asteria::obs::info!("[setup] extracting ACFGs…");
        let acfgs = corpus_acfgs(&corpus);
        asteria::obs::info!("[setup] training Gemini ({} epochs)…", scale.epochs());
        let mut gemini = GeminiModel::new(GeminiConfig::default());
        let gemini_pairs: Vec<(Acfg, Acfg, bool)> = train_set
            .pairs
            .iter()
            .map(|p| (acfgs[p.a].clone(), acfgs[p.b].clone(), p.homologous))
            .collect();
        {
            let acfgs_ref = &acfgs;
            let test_ref = &test_set;
            let mut validate =
                |m: &GeminiModel| -> f64 { auc(&gemini_scores_with(m, acfgs_ref, test_ref)) };
            train_gemini(
                &mut gemini,
                &gemini_pairs,
                scale.epochs(),
                9,
                Some(&mut validate),
            );
        }
        asteria::obs::info!("[setup] done.");
        Experiment {
            corpus,
            train_set,
            test_set,
            asteria: Arc::new(asteria),
            gemini,
            acfgs,
        }
    }

    /// Scored test pairs for Asteria (with or without calibration —
    /// "Asteria" vs "Asteria-WOC" in Figs. 6–7).
    pub fn asteria_scores(&self, set: &PairSet, calibrate: bool) -> Vec<ScoredPair> {
        asteria_scores(&self.asteria, &self.corpus, set, calibrate)
    }

    /// Scored test pairs for Gemini.
    pub fn gemini_scores(&self, set: &PairSet) -> Vec<ScoredPair> {
        gemini_scores_with(&self.gemini, &self.acfgs, set)
    }

    /// Scored test pairs for Diaphora.
    pub fn diaphora_scores(&self, set: &PairSet) -> Vec<ScoredPair> {
        use asteria::baselines::{diaphora_similarity, hash_ast, DiaphoraHash};
        use asteria::core::digitalize;
        let mut hashes: Vec<Option<DiaphoraHash>> = vec![None; self.corpus.instances.len()];
        let corpus = &self.corpus;
        let mut hash_of = |i: usize| {
            if hashes[i].is_none() {
                let inst = &corpus.instances[i];
                let cb = corpus
                    .binaries
                    .iter()
                    .find(|b| b.package == inst.package && b.arch == inst.arch)
                    .expect("binary");
                let sym = cb.binary.symbol_index(&inst.name).expect("symbol");
                let df =
                    asteria::decompiler::decompile_function(&cb.binary, sym).expect("decompile");
                hashes[i] = Some(hash_ast(&digitalize(&df)));
            }
            hashes[i].clone().expect("just computed")
        };
        set.pairs
            .iter()
            .map(|p| {
                let ha = hash_of(p.a);
                let hb = hash_of(p.b);
                ScoredPair::new(diaphora_similarity(&ha, &hb), p.homologous)
            })
            .collect()
    }
}

/// Asteria scores over a pair set (standalone so validation closures can
/// use it during training).
pub fn asteria_scores(
    model: &AsteriaModel,
    corpus: &Corpus,
    set: &PairSet,
    calibrate: bool,
) -> Vec<ScoredPair> {
    // Encode each referenced instance once, as one forest over the worker
    // pool; forest encodings are bit-identical to single-tree ones.
    let mut needed: Vec<usize> = set.pairs.iter().flat_map(|p| [p.a, p.b]).collect();
    needed.sort_unstable();
    needed.dedup();
    let functions: Vec<_> = needed
        .iter()
        .map(|&i| &corpus.instances[i].extracted)
        .collect();
    let encoded = encode_functions(model, &functions, 0);
    let mut enc: Vec<Option<Vec<f32>>> = vec![None; corpus.instances.len()];
    for (i, e) in needed.into_iter().zip(encoded) {
        enc[i] = Some(e.vector);
    }
    let encoding = |i: usize| enc[i].as_deref().expect("encoded above");
    set.pairs
        .iter()
        .map(|p: &Pair| {
            let va = encoding(p.a);
            let vb = encoding(p.b);
            let m = model.similarity_from_encodings(va, vb) as f64;
            let score = if calibrate {
                calibrated_similarity(
                    m,
                    corpus.instances[p.a].extracted.callee_count,
                    corpus.instances[p.b].extracted.callee_count,
                )
            } else {
                m
            };
            ScoredPair::new(score, p.homologous)
        })
        .collect()
}

/// Gemini scores over a pair set.
pub fn gemini_scores_with(model: &GeminiModel, acfgs: &[Acfg], set: &PairSet) -> Vec<ScoredPair> {
    let mut emb: Vec<Option<Vec<f32>>> = vec![None; acfgs.len()];
    let mut embed = |i: usize| {
        if emb[i].is_none() {
            emb[i] = Some(model.embed(&acfgs[i]));
        }
        emb[i].clone().expect("just computed")
    };
    set.pairs
        .iter()
        .map(|p| {
            let ea = embed(p.a);
            let eb = embed(p.b);
            let s = GeminiModel::similarity_from_embeddings(&ea, &eb) as f64;
            ScoredPair::new(s, p.homologous)
        })
        .collect()
}

/// Runs `f` inside a root `asteria-obs` span named `stage` and returns its
/// value with the seconds the recorder holds for that span path, summed
/// over every finished span there (so give each stage its own name). The
/// harnesses' one stopwatch: a printed stage time is the same record
/// `--trace` would show.
///
/// # Panics
///
/// When the obs recorder is not recording.
pub fn timed<T>(stage: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let out = {
        let _span = asteria::obs::span(stage);
        f()
    };
    let collector = asteria::obs::collector().expect("timed needs the obs recorder on");
    let us: u64 = collector
        .finished_spans()
        .iter()
        .filter(|s| s.path == stage)
        .map(|s| s.dur_us)
        .sum();
    (out, us as f64 * 1e-6)
}
