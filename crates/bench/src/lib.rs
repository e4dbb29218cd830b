//! `asteria-bench` — experiment harnesses regenerating every table and
//! figure of the paper.
//!
//! The `reproduce` binary renders every table and figure ([`tables`]) at
//! one scale and records each in `results/` ([`results_path`]). It builds
//! each [`Dataset`], sets the [`Experiment`] up and trains each distinct
//! model once. `fig10_overhead`, `bench_offline` and `bench_serve` time
//! the pipeline instead. All binaries accept `--scale smoke|mid|paper`
//! (default `smoke`) and `--quiet` / `--verbose` ([`HarnessArgs`]):
//! `smoke` finishes on one CPU core in minutes; `mid` and `paper` raise
//! corpus sizes and epochs toward the paper's scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use asteria::baselines::{
    diaphora_similarity, extract_acfg, hash_ast, train_gemini, Acfg, DiaphoraHash, GeminiConfig,
    GeminiModel,
};
use asteria::compiler::Binary;
use asteria::core::{
    calibrated_similarity, digitalize, encode_functions, train, AstTree, AsteriaModel, ModelConfig,
    TrainOptions,
};
use asteria::datasets::{
    build_corpus, build_corpus_with_extra, build_pairs, to_train_pairs, Corpus, CorpusConfig, Pair,
    PairConfig, PairSet,
};
use asteria::decompiler::decompile_function;
use asteria::eval::{auc, ScoredPair};

pub mod tables;

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

/// Where `reproduce` records `table` at `scale`, under the workspace
/// root: `results/<table>.txt` at smoke, `results/<table>_<scale>.txt`
/// at mid and paper.
pub fn results_path(table: &str, scale: Scale) -> PathBuf {
    let name = match scale {
        Scale::Smoke => format!("{table}.txt"),
        Scale::Mid => format!("{table}_mid.txt"),
        Scale::Paper => format!("{table}_paper.txt"),
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    root.expect("crates/bench sits two levels under the workspace root")
        .join("results")
        .join(name)
}

/// A cross-compiled corpus with its sampled pairs and their 80/20 split.
#[derive(Clone)]
pub struct Dataset {
    /// The scale the corpus and pairs were built at.
    pub(crate) scale: Scale,
    /// The cross-compiled corpus.
    pub(crate) corpus: Corpus,
    /// Every sampled pair.
    pub(crate) pairs: PairSet,
    /// Training pairs (80%).
    pub(crate) train_set: PairSet,
    /// Held-out pairs (20%).
    pub(crate) test_set: PairSet,
}

impl Dataset {
    /// The plain generated corpus at `scale`, as Tables I–III count it.
    pub fn plain(scale: Scale) -> Dataset {
        Dataset::of(scale, build_corpus(&scale.corpus_config()))
    }

    fn of(scale: Scale, corpus: Corpus) -> Dataset {
        let pairs = build_pairs(&corpus, &scale.pair_config());
        let (train_set, test_set) = pairs.split(0.8, 5);
        Dataset {
            scale,
            corpus,
            pairs,
            train_set,
            test_set,
        }
    }

    /// Digitalizes instance `i` afresh from its binary.
    fn digitalized(&self, i: usize) -> AstTree {
        let (binary, sym) = instance_symbol(&self.corpus, i);
        digitalize(&decompile_function(binary, sym).expect("decompile"))
    }
}

/// The binary instance `i` of `corpus` was extracted from, and its symbol.
fn instance_symbol(corpus: &Corpus, i: usize) -> (&Binary, usize) {
    let inst = &corpus.instances[i];
    let cb = corpus
        .binaries
        .iter()
        .find(|b| b.package == inst.package && b.arch == inst.arch)
        .expect("binary for instance");
    let sym = cb
        .binary
        .symbol_index(&inst.name)
        .expect("symbol for instance");
    (&cb.binary, sym)
}

/// An Asteria model trained on a [`Dataset`] with its best validation
/// AUCs on the held-out split over the epochs.
pub struct Trained {
    /// The model, restored to its best epoch by calibrated AUC.
    pub(crate) model: AsteriaModel,
    /// Best calibrated AUC ("Asteria").
    pub(crate) auc: f64,
    /// Best uncalibrated AUC ("Asteria-WOC"). Validation only picks the
    /// epoch to restore, so every epoch's weights, and this maximum, are
    /// the same whichever AUC picks it.
    pub(crate) auc_woc: f64,
}

impl Trained {
    /// Trains a `config` model on `data`'s training pairs for the scale's
    /// epochs (shuffling seed 7), validating after each epoch.
    pub fn new(data: &Dataset, config: ModelConfig) -> Trained {
        let mut model = AsteriaModel::new(config);
        let (mut best, mut best_woc) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut validate = |m: &AsteriaModel| {
            let score =
                |calibrate| auc(&asteria_scores(m, &data.corpus, &data.test_set, calibrate));
            best_woc = best_woc.max(score(false));
            let calibrated = score(true);
            best = best.max(calibrated);
            calibrated
        };
        train(
            &mut model,
            &to_train_pairs(&data.corpus, &data.train_set),
            &TrainOptions {
                epochs: data.scale.epochs(),
                seed: 7,
                verbose: false,
            },
            Some(&mut validate),
        );
        Trained {
            model,
            auc: best,
            auc_woc: best_woc,
        }
    }
}

/// A ready-to-evaluate experiment context: the training corpus with the
/// CVE library's patched functions, and trained Asteria + Gemini models.
pub struct Experiment {
    /// The corpus, pairs and split.
    pub(crate) data: Dataset,
    /// Trained Asteria model, shared so search sessions can hold it.
    pub(crate) asteria: Arc<AsteriaModel>,
    /// Trained Gemini model.
    pub(crate) gemini: GeminiModel,
    /// ACFGs for every corpus instance (aligned with `corpus.instances`).
    pub(crate) acfgs: Vec<Acfg>,
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
        let data = Dataset::of(
            scale,
            build_corpus_with_extra(&scale.corpus_config(), &library_pkg),
        );
        asteria::obs::info!(
            "[setup] corpus: {} binaries, {} function instances",
            data.corpus.binaries.len(),
            data.corpus.instances.len()
        );
        asteria::obs::info!(
            "[setup] pairs: {} train / {} test",
            data.train_set.len(),
            data.test_set.len()
        );

        asteria::obs::info!("[setup] training Asteria ({} epochs)…", scale.epochs());
        let asteria = Trained::new(&data, ModelConfig::default()).model;

        asteria::obs::info!("[setup] extracting ACFGs…");
        let acfgs: Vec<Acfg> = (0..data.corpus.instances.len())
            .map(|i| {
                let (binary, sym) = instance_symbol(&data.corpus, i);
                extract_acfg(binary, sym).expect("acfg extraction")
            })
            .collect();
        asteria::obs::info!("[setup] training Gemini ({} epochs)…", scale.epochs());
        let mut gemini = GeminiModel::new(GeminiConfig::default());
        let gemini_pairs: Vec<(Acfg, Acfg, bool)> = data
            .train_set
            .pairs
            .iter()
            .map(|p| (acfgs[p.a].clone(), acfgs[p.b].clone(), p.homologous))
            .collect();
        let mut validate = |m: &GeminiModel| auc(&gemini_scores(m, &acfgs, &data.test_set));
        train_gemini(
            &mut gemini,
            &gemini_pairs,
            scale.epochs(),
            9,
            Some(&mut validate),
        );
        asteria::obs::info!("[setup] done.");
        Experiment {
            data,
            asteria: Arc::new(asteria),
            gemini,
            acfgs,
        }
    }

    /// Scored pairs for Asteria (with or without calibration —
    /// "Asteria" vs "Asteria-WOC" in Figs. 6–7).
    pub(crate) fn asteria_scores(&self, set: &PairSet, calibrate: bool) -> Vec<ScoredPair> {
        asteria_scores(&self.asteria, &self.data.corpus, set, calibrate)
    }

    /// Scored pairs for Gemini.
    pub(crate) fn gemini_scores(&self, set: &PairSet) -> Vec<ScoredPair> {
        gemini_scores(&self.gemini, &self.acfgs, set)
    }

    /// Scored pairs for Diaphora.
    pub(crate) fn diaphora_scores(&self, set: &PairSet) -> Vec<ScoredPair> {
        let mut hashes: Vec<Option<DiaphoraHash>> = vec![None; self.data.corpus.instances.len()];
        let mut hash_of = |i: usize| {
            hashes[i]
                .get_or_insert_with(|| hash_ast(&self.data.digitalized(i)))
                .clone()
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

/// Asteria scores over a pair set of `corpus`.
fn asteria_scores(
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
fn gemini_scores(model: &GeminiModel, acfgs: &[Acfg], set: &PairSet) -> Vec<ScoredPair> {
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
