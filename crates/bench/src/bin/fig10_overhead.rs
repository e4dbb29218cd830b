//! Fig. 10: computational overhead.
//!
//! (a) cumulative distribution of AST sizes;
//! (b) offline-phase time per function — decompilation (A-D),
//!     preprocessing (A-P), Tree-LSTM encoding (A-E) for Asteria, both
//!     one tree at a time and as one forest of the whole sample; AST
//!     hashing for Diaphora (D-H); ACFG extraction (G-EX) and embedding
//!     (G-EN) for Gemini;
//! (c) online-phase time per pair for all three systems; Asteria both
//!     one pair at a time and through the rank slab (every encoding
//!     scored against all of them, a tile of entries per call).
//!
//! Every stage runs as one `asteria-obs` span; the printed seconds are
//! read back from the recorder's span records.

use std::hint::black_box;

use asteria::baselines::{diaphora_similarity, extract_acfg, hash_ast, GeminiConfig, GeminiModel};
use asteria::core::{binarize, digitalize, AsteriaModel, EncodingSlab, Forest, ModelConfig};
use asteria::decompiler::decompile_function;
use asteria::eval::{cdf_points, percentile};
use asteria_bench::{timed, Scale};

fn main() {
    let scale = Scale::from_args();
    let corpus = asteria::datasets::build_corpus(&scale.corpus_config());
    let model = AsteriaModel::new(ModelConfig::default());
    let gemini = GeminiModel::new(GeminiConfig::default());

    // ---- (a) AST size CDF -------------------------------------------------
    let sizes: Vec<f64> = corpus
        .instances
        .iter()
        .map(|i| i.extracted.ast_size as f64)
        .collect();
    println!(
        "# Fig. 10(a) — AST size CDF ({scale:?} scale, {} ASTs)",
        sizes.len()
    );
    println!();
    let mut sorted = sizes.clone();
    sorted.sort_by(f64::total_cmp);
    for bound in [20.0, 40.0, 80.0, 200.0] {
        let frac = sorted.iter().filter(|s| **s < bound).count() as f64 / sorted.len() as f64;
        println!("ASTs with size < {bound:>3}: {:.1}%", frac * 100.0);
    }
    println!(
        "min {} / median {} / p90 {} / max {}",
        sorted[0],
        percentile(&sorted, 50.0),
        percentile(&sorted, 90.0),
        sorted[sorted.len() - 1]
    );
    let cdf = cdf_points(&sizes);
    let step = (cdf.len() / 20).max(1);
    let pts: Vec<String> = cdf
        .iter()
        .step_by(step)
        .chain(cdf.last())
        .map(|(x, f)| format!("({x:.0},{f:.2})"))
        .collect();
    println!("CDF: {}", pts.join(" "));

    // ---- (b) offline time per function ------------------------------------
    // Sample functions across the corpus (the paper buckets by AST size;
    // we report aggregate per-function means per pipeline stage).
    let sample: Vec<(usize, usize)> = corpus
        .instances
        .iter()
        .enumerate()
        .step_by((corpus.instances.len() / 120).max(1))
        .map(|(_i, inst)| {
            let bi = corpus
                .binaries
                .iter()
                .position(|b| b.package == inst.package && b.arch == inst.arch)
                .expect("binary");
            let sym = corpus.binaries[bi]
                .binary
                .symbol_index(&inst.name)
                .expect("symbol");
            (bi, sym)
        })
        .collect();

    println!();
    println!("# Fig. 10(b) — offline phase, mean seconds per function");
    println!();
    println!("| stage | seconds/function |");
    println!("|-------|------------------|");
    asteria::obs::install();
    let reps = 3;
    let (_, t_decomp) = timed("A-D", || {
        for _ in 0..reps {
            for (bi, sym) in &sample {
                black_box(
                    decompile_function(&corpus.binaries[*bi].binary, *sym).expect("decompile"),
                );
            }
        }
    });
    let decompiled: Vec<_> = sample
        .iter()
        .map(|(bi, sym)| decompile_function(&corpus.binaries[*bi].binary, *sym).expect("ok"))
        .collect();
    let (_, t_prep) = timed("A-P", || {
        for _ in 0..reps {
            for f in &decompiled {
                black_box(binarize(&digitalize(f)));
            }
        }
    });
    let trees: Vec<_> = decompiled
        .iter()
        .map(|f| binarize(&digitalize(f)))
        .collect();
    let (_, t_encode) = timed("A-E", || {
        for _ in 0..reps {
            for t in &trees {
                black_box(model.encode(t));
            }
        }
    });
    // The index build's form of A-E: the sample as one forest, so each
    // distinct subtree among the sampled functions is evaluated once.
    let (_, t_forest) = timed("A-E-forest", || {
        for _ in 0..reps {
            let mut forest = Forest::new();
            for t in &trees {
                forest.add(t);
            }
            black_box(model.encode_forest(&forest, 1));
        }
    });
    let (_, t_dhash) = timed("D-H", || {
        for _ in 0..reps {
            for f in &decompiled {
                black_box(hash_ast(&digitalize(f)));
            }
        }
    });
    let (_, t_gex) = timed("G-EX", || {
        for _ in 0..reps {
            for (bi, sym) in &sample {
                black_box(extract_acfg(&corpus.binaries[*bi].binary, *sym).expect("acfg"));
            }
        }
    });
    let acfgs: Vec<_> = sample
        .iter()
        .map(|(bi, sym)| extract_acfg(&corpus.binaries[*bi].binary, *sym).expect("ok"))
        .collect();
    let (_, t_gen) = timed("G-EN", || {
        for _ in 0..reps {
            for a in &acfgs {
                black_box(gemini.embed(a));
            }
        }
    });
    let per_fn = |seconds: f64| seconds / (reps * sample.len()) as f64;
    println!("| A-D (Asteria decompile) | {:.3e} |", per_fn(t_decomp));
    println!("| A-P (Asteria preprocess) | {:.3e} |", per_fn(t_prep));
    println!("| A-E (Asteria encode) | {:.3e} |", per_fn(t_encode));
    println!(
        "| A-E (Asteria encode, forest) | {:.3e} |",
        per_fn(t_forest)
    );
    println!("| D-H (Diaphora hash) | {:.3e} |", per_fn(t_dhash));
    println!("| G-EX (Gemini ACFG extract) | {:.3e} |", per_fn(t_gex));
    println!("| G-EN (Gemini embed) | {:.3e} |", per_fn(t_gen));

    // ---- (c) online time per pair -----------------------------------------
    println!();
    println!("# Fig. 10(c) — online phase, mean seconds per pair");
    println!();
    println!("| system | seconds/pair |");
    println!("|--------|--------------|");
    let enc: Vec<Vec<f32>> = trees.iter().map(|t| model.encode(t)).collect();
    let gemb: Vec<Vec<f32>> = acfgs.iter().map(|a| gemini.embed(a)).collect();
    let hashes: Vec<_> = decompiled
        .iter()
        .map(|f| hash_ast(&digitalize(f)))
        .collect();
    let n = enc.len();
    let online_reps = 200;
    let (_, t_asteria) = timed("online-asteria", || {
        for _ in 0..online_reps {
            for i in 0..n {
                black_box(model.similarity_from_encodings(&enc[i], &enc[(i + 1) % n]));
            }
        }
    });
    let slab = EncodingSlab::new(model.config().hidden_dim, enc.iter().map(Vec::as_slice));
    let slab_reps = 40;
    let (_, t_slab) = timed("online-asteria-slab", || {
        for _ in 0..slab_reps {
            for q in &enc {
                let scorer = model.query_scorer(q);
                for tile in 0..slab.tiles() {
                    black_box(scorer.score_tile(&slab, tile));
                }
            }
        }
    });
    let (_, t_gemini) = timed("online-gemini", || {
        for _ in 0..online_reps {
            for i in 0..n {
                black_box(GeminiModel::similarity_from_embeddings(
                    &gemb[i],
                    &gemb[(i + 1) % n],
                ));
            }
        }
    });
    let diaphora_reps = 3;
    let (_, t_diaphora) = timed("online-diaphora", || {
        for _ in 0..diaphora_reps {
            for i in 0..n {
                black_box(diaphora_similarity(&hashes[i], &hashes[(i + 1) % n]));
            }
        }
    });
    let (a, a_slab, g, d) = (
        t_asteria / (online_reps * n) as f64,
        t_slab / (slab_reps * n * n) as f64,
        t_gemini / (online_reps * n) as f64,
        t_diaphora / (diaphora_reps * n) as f64,
    );
    println!("| Asteria | {a:.3e} |");
    println!("| Asteria (slab) | {a_slab:.3e} |");
    println!("| Gemini | {g:.3e} |");
    println!("| Diaphora | {d:.3e} |");
    println!();
    println!(
        "cores: {} (every row runs on one thread)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "speedups: Asteria is {:.1}x faster than Gemini, {:.1}x faster than Diaphora",
        g / a,
        d / a
    );
}
