//! Every table and figure of the paper, each rendered as the text
//! `reproduce` records in `results/`: the rows and series the paper
//! reports, from a [`Dataset`], a [`Trained`] model or an [`Experiment`]
//! built once per scale.

use std::fmt::Write;
use std::sync::Arc;

use asteria::baselines::{extract_acfg, GeminiModel};
use asteria::compiler::{compile_program, compile_program_with, Arch, OptLevel};
use asteria::core::{
    binarize_truncated, calibrated_similarity, extract_function, ExtractedFunction, LeafInit,
    ModelConfig, NodeType, SiameseKind, DEFAULT_INLINE_BETA,
};
use asteria::datasets::{
    build_corpus, generate_package, CorpusConfig, GenConfig, PairSet, ARCH_COMBINATIONS,
};
use asteria::eval::{auc, roc_curve, tpr_at_fpr, youden_threshold, ScoredPair, Summary};
use asteria::vulnsearch::{
    build_firmware_corpus, render_report, top_k_accuracy, vulnerability_library, FirmwareConfig,
    IndexBuilder, SearchSession,
};

use crate::{asteria_scores, timed, Dataset, Experiment, Scale, Trained};

/// `writeln!` into a rendered table; writing to a `String` cannot fail.
macro_rules! ln {
    ($out:expr, $($fmt:tt)*) => {
        writeln!($out, $($fmt)*).expect("writing to a String")
    };
}

/// Table I: the AST node types and their labels, with how often each
/// label occurs over the corpus's extracted functions (the paper counted
/// node kinds over decompiled output the same way).
pub fn table1_nodes(data: &Dataset) -> String {
    let mut counts = vec![0usize; NodeType::VOCAB];
    for inst in &data.corpus.instances {
        let t = &inst.extracted.tree;
        for n in 0..t.size() as u32 {
            counts[t.label(n) as usize] += 1;
        }
    }
    let mut out = format!(
        "# Table I — AST node types and labels ({:?} scale)

| class | node type | label | observed count |
|-------|-----------|-------|----------------|
",
        data.scale
    );
    for ty in NodeType::all() {
        let (class, name, label) = (ty.class(), ty.name(), ty.label());
        let count = counts[label as usize];
        ln!(out, "| {class} | {name} | {label} | {count} |");
    }
    let (total, functions) = (counts.iter().sum::<usize>(), data.corpus.instances.len());
    ln!(out, "\ntotal nodes: {total} across {functions} functions");
    out
}

/// Table II: binaries and functions per platform in the training corpus
/// and the firmware corpus.
pub fn table2_datasets(data: &Dataset) -> String {
    let scale = data.scale;
    let mut out = format!(
        "# Table II — datasets ({scale:?} scale)

| dataset | platform | binaries | functions |
|---------|----------|----------|-----------|
"
    );
    let mut total_bins = 0;
    let mut total_funcs = 0;
    for (arch, bins, funcs) in data.corpus.arch_stats() {
        ln!(out, "| corpus | {arch} | {bins} | {funcs} |");
        total_bins += bins;
        total_funcs += funcs;
    }
    let images = match scale {
        Scale::Smoke => 12,
        Scale::Mid => 30,
        Scale::Paper => 60,
    };
    let fw_cfg = FirmwareConfig {
        images,
        ..Default::default()
    };
    let firmware = build_firmware_corpus(&fw_cfg, &vulnerability_library());
    for arch in Arch::ALL {
        let images: Vec<_> = firmware.iter().filter(|i| i.arch == arch).collect();
        let bins: usize = images.iter().map(|i| i.binaries.len()).sum();
        let funcs: usize = images.iter().map(|i| i.function_count()).sum();
        ln!(out, "| firmware | {arch} | {bins} | {funcs} |");
        total_bins += bins;
        total_funcs += funcs;
    }
    ln!(out, "| total | — | {total_bins} | {total_funcs} |");
    ln!(
        out,
        "\n(corpus: {} packages × 4 ISAs; firmware: {} images; {} ASTs filtered by size < 5)",
        scale.corpus_config().packages,
        firmware.len(),
        data.corpus.filtered_out
    );
    out
}

/// Table III: function pairs per architecture combination.
pub fn table3_pairs(data: &Dataset) -> String {
    let (corpus, pairs, train, test) = (&data.corpus, &data.pairs, &data.train_set, &data.test_set);
    let mut out = format!(
        "# Table III — function pairs per architecture combination ({:?} scale)

| arch-comb | pairs | train | test |
|-----------|-------|-------|------|
",
        data.scale
    );
    for (a, b) in ARCH_COMBINATIONS {
        let all = pairs.for_combination(corpus, a, b).len();
        let tr = train.for_combination(corpus, a, b).len();
        let te = test.for_combination(corpus, a, b).len();
        ln!(out, "| {a}-{b} | {all} | {tr} | {te} |");
    }
    let (all, tr, te) = (pairs.len(), train.len(), test.len());
    ln!(out, "| total | {all} | {tr} | {te} |");
    out
}

/// The best calibrated AUC of a `config` model trained on `data`, taken
/// from `default` when `config` is the default configuration.
fn best_auc(data: &Dataset, default: &Trained, config: ModelConfig) -> f64 {
    if config == ModelConfig::default() {
        default.auc
    } else {
        Trained::new(data, config).auc
    }
}

/// Fig. 8: model AUC as the node-embedding size sweeps 8 → 128. The
/// paper finds 16 near-optimal with a flat top and a slight decline at
/// 128 (overfitting a 43-label vocabulary). `default` is the default
/// model trained on `data`.
pub fn fig8_embedding_size(data: &Dataset, default: &Trained) -> String {
    let mut out = format!(
        "# Fig. 8 — AUC vs embedding size ({:?} scale)

| embedding size | AUC (best epoch) |
|----------------|------------------|
",
        data.scale
    );
    for embed_dim in [8usize, 16, 32, 64, 128] {
        let config = ModelConfig {
            embed_dim,
            ..Default::default()
        };
        let best = best_auc(data, default, config);
        ln!(out, "| {embed_dim} | {best:.4} |");
        asteria::obs::info!("[fig8] embedding {embed_dim}: {best:.4}");
    }
    out
}

/// Fig. 9: the Siamese structure (classification vs cosine regression)
/// and the leaf-state initialization (zeros vs ones), plus this
/// reproduction's extra ablation, the calibration filter β (DESIGN.md
/// §4), swept on `default`, the default model trained on `data`.
pub fn fig9_ablation(data: &Dataset, default: &Trained) -> String {
    let mut out = format!(
        "# Fig. 9 — Siamese structure & leaf-initialization ablations ({:?} scale)

| variant | AUC (best epoch) |
|---------|------------------|
",
        data.scale
    );
    use {LeafInit::*, SiameseKind::*};
    let variants = [
        ("Classification + Leaf-0 (paper)", Classification, Zeros),
        ("Regression (cosine) + Leaf-0", Regression, Zeros),
        ("Classification + Leaf-1", Classification, Ones),
        ("Regression (cosine) + Leaf-1", Regression, Ones),
    ];
    for (name, head, leaf_init) in variants {
        let config = ModelConfig {
            head,
            leaf_init,
            ..Default::default()
        };
        let best = best_auc(data, default, config);
        ln!(out, "| {name} | {best:.4} |");
        asteria::obs::info!("[fig9] {name}: {best:.4}");
    }

    // β controls which callees are considered inlining candidates; too
    // large and the calibration feature itself becomes unstable across
    // architectures.
    out.push_str(
        "
## Calibration inline-filter β sweep (extra ablation)

| β | AUC with calibration |
|---|----------------------|
",
    );
    for beta in [0usize, 3, 6, 12, 24] {
        // The same instances, with callee counts re-extracted at this β.
        let corpus = build_corpus(&CorpusConfig {
            beta,
            ..data.scale.corpus_config()
        });
        let scores = asteria_scores(&default.model, &corpus, &data.test_set, true);
        ln!(out, "| {beta} | {:.4} |", auc(&scores));
        asteria::obs::info!("[fig9] beta {beta} done");
    }
    out
}

/// Extra ablation (DESIGN.md §4): left-child right-sibling binarization
/// vs naive child truncation, by uncalibrated AUC. LCRS preserves every
/// sibling; truncation silently drops statements past the second child
/// of each node. `default` is the default model trained on `data`.
pub fn ablation_binarization(data: &Dataset, default: &Trained) -> String {
    let mut truncated = data.clone();
    for (i, inst) in truncated.corpus.instances.iter_mut().enumerate() {
        inst.extracted.tree = binarize_truncated(&data.digitalized(i));
    }
    let mut out = format!(
        "# Ablation — binarization strategy ({:?} scale)

| binarization | AUC (best epoch) |
|--------------|------------------|
",
        data.scale
    );
    ln!(out, "| LCRS (paper) | {:.4} |", default.auc_woc);
    asteria::obs::info!("[ablation] LCRS: {:.4}", default.auc_woc);
    let best = Trained::new(&truncated, ModelConfig::default()).auc_woc;
    ln!(out, "| child truncation | {best:.4} |");
    asteria::obs::info!("[ablation] truncation: {best:.4}");
    out
}

/// Each system's test-split scores: Asteria, Asteria-WOC, Gemini and
/// Diaphora on `set`.
fn systems(exp: &Experiment, set: &PairSet) -> [(&'static str, Vec<ScoredPair>); 4] {
    [
        ("Asteria", exp.asteria_scores(set, true)),
        ("Asteria-WOC", exp.asteria_scores(set, false)),
        ("Gemini", exp.gemini_scores(set)),
        ("Diaphora", exp.diaphora_scores(set)),
    ]
}

/// Fig. 6: ROC curves in the mixed cross-architecture evaluation for
/// Asteria, Asteria-WOC, Gemini and Diaphora.
pub fn fig6_roc(exp: &Experiment) -> String {
    let systems = systems(exp, &exp.data.test_set);
    let mut out = format!(
        "# Fig. 6 — mixed cross-architecture ROC ({:?} scale)

| system | AUC | TPR @ 5% FPR |
|--------|-----|---------------|
",
        exp.data.scale
    );
    for (name, scores) in &systems {
        let (auc, tpr) = (auc(scores), tpr_at_fpr(scores, 0.05));
        ln!(out, "| {name} | {auc:.4} | {tpr:.3} |");
    }
    out.push_str("\nROC series (fpr,tpr per system, decimated to ≤25 points):\n");
    for (name, scores) in &systems {
        let roc = roc_curve(scores);
        let step = (roc.len() / 25).max(1);
        let pts: Vec<String> = roc
            .iter()
            .step_by(step)
            .chain(roc.last())
            .map(|p| format!("({:.3},{:.3})", p.fpr, p.tpr))
            .collect();
        ln!(out, "{name}: {}", pts.join(" "));
    }
    out
}

/// Fig. 7: AUC per pair-wise architecture combination for all four
/// systems.
pub fn fig7_pairwise_auc(exp: &Experiment) -> String {
    let mut out = format!(
        "# Fig. 7 — pair-wise cross-architecture AUC ({:?} scale)

| arch-comb | Asteria | Asteria-WOC | Gemini | Diaphora |
|-----------|---------|-------------|--------|----------|
",
        exp.data.scale
    );
    for (a, b) in ARCH_COMBINATIONS {
        let subset = exp.data.test_set.for_combination(&exp.data.corpus, a, b);
        if subset.is_empty() {
            continue;
        }
        let aucs: Vec<String> = systems(exp, &subset)
            .iter()
            .map(|(_, scores)| format!("{:.4}", auc(scores)))
            .collect();
        ln!(out, "| {a}-{b} | {} |", aucs.join(" | "));
    }
    out
}

/// Diagnostic, not a paper figure: each system's score distribution on
/// the test split, positives vs negatives.
pub fn diag_scores(exp: &Experiment) -> String {
    let mut out = String::new();
    for (name, scores) in systems(exp, &exp.data.test_set) {
        let (pos, neg): (Vec<&ScoredPair>, Vec<&ScoredPair>) =
            scores.iter().partition(|s| s.positive);
        let pos: Vec<f64> = pos.iter().map(|s| s.score).collect();
        let neg: Vec<f64> = neg.iter().map(|s| s.score).collect();
        let sp = Summary::of(&pos).expect("positives");
        let sn = Summary::of(&neg).expect("negatives");
        ln!(
            out,
            "{name:12} pos: mean {:.3} med {:.3} min {:.3} | neg: mean {:.3} med {:.3} max {:.3}",
            sp.mean,
            sp.median,
            sp.min,
            sn.mean,
            sn.median,
            sn.max
        );
        let high_neg = neg.iter().filter(|v| **v > sp.median).count();
        ln!(
            out,
            "{name:12} negatives above positive median: {high_neg}/{} ({:.1}%)",
            neg.len(),
            100.0 * high_neg as f64 / neg.len() as f64
        );
    }
    out
}

/// Extension experiment (paper §VII future work): robustness to
/// *cross-optimization* pairs. The model is trained on O1×O1
/// cross-architecture pairs; evaluation pairs an O1 binary of one
/// architecture against an **O0** binary of another — different
/// optimization level *and* different ISA at once.
pub fn ablation_optlevel(exp: &Experiment) -> String {
    // A fresh mini-corpus with both optimization levels. Packages are
    // disjoint from the training corpus (different seed space).
    type Variant = (Arch, OptLevel, ExtractedFunction);
    let mut functions: Vec<Vec<Variant>> = Vec::new();
    for p in 0..8 {
        let cfg = GenConfig {
            functions: 6,
            max_depth: 3,
            seed: 0x0707 + p as u64,
        };
        let (_, program) = generate_package(&format!("xopt{p}"), &cfg);
        for func in &program.functions {
            let mut variants = Vec::new();
            for arch in Arch::ALL {
                for opt in [OptLevel::O0, OptLevel::O1] {
                    let bin = compile_program_with(&program, arch, opt).expect("compile");
                    let sym = bin.symbol_index(&func.name).expect("symbol");
                    if let Ok(f) = extract_function(&bin, sym, DEFAULT_INLINE_BETA) {
                        if f.ast_size >= 5 {
                            variants.push((arch, opt, f));
                        }
                    }
                }
            }
            functions.push(variants);
        }
    }

    let score = |f1: &ExtractedFunction, f2: &ExtractedFunction| -> f64 {
        let m = exp
            .asteria
            .similarity_from_encodings(&exp.asteria.encode(&f1.tree), &exp.asteria.encode(&f2.tree))
            as f64;
        calibrated_similarity(m, f1.callee_count, f2.callee_count)
    };
    fn find(variants: &[Variant], arch: Arch, opt: OptLevel) -> Option<&ExtractedFunction> {
        variants
            .iter()
            .find(|v| v.0 == arch && v.1 == opt)
            .map(|v| &v.2)
    }
    // Homologous = the same function, x64@O1 vs arm@`opt_b`; negative =
    // the next function under the same regime.
    let run = |opt_b: OptLevel| -> (f64, f64, usize) {
        let mut scores = Vec::new();
        for (i, variants) in functions.iter().enumerate() {
            let a = find(variants, Arch::X64, OptLevel::O1);
            if let (Some(fa), Some(fb)) = (a, find(variants, Arch::Arm, opt_b)) {
                scores.push(ScoredPair::new(score(fa, fb), true));
                let other = &functions[(i + 1) % functions.len()];
                if let Some(fo) = find(other, Arch::Arm, opt_b) {
                    scores.push(ScoredPair::new(score(fa, fo), false));
                }
            }
        }
        (auc(&scores), tpr_at_fpr(&scores, 0.05), scores.len())
    };

    let (a1, t1, n1) = run(OptLevel::O1);
    let (a0, t0, n0) = run(OptLevel::O0);
    format!(
        "# Extension — cross-optimization robustness ({:?} scale)

Model trained on O1×O1 cross-architecture pairs; evaluated on
x64@O1 vs arm@<level> pairs of *unseen* packages.

| evaluation regime | AUC | TPR @ 5% FPR | pairs |
|-------------------|-----|---------------|-------|
| cross-arch, same opt (O1 vs O1) | {a1:.4} | {t1:.3} | {n1} |
| cross-arch, cross-opt (O1 vs O0) | {a0:.4} | {t0:.3} | {n0} |

degradation from crossing optimization levels: {:.1} AUC points
",
        exp.data.scale,
        (a1 - a0) * 100.0
    )
}

/// Table IV and the §V end-to-end comparison: vulnerability search over
/// the firmware corpus, thresholded at the Youden-index operating point,
/// with Asteria-vs-Gemini top-10 accuracy. Phase timings go to stderr,
/// so two renderings are the same bytes. Turns the `asteria-obs`
/// recorder on.
pub fn table4_vulnsearch(exp: &Experiment) -> String {
    let scale = exp.data.scale;
    // Operating point: the Youden-index threshold on the validation split
    // (the paper reports 0.84 on its data).
    let scores = exp.asteria_scores(&exp.data.test_set, true);
    let (threshold, j) = youden_threshold(&scores);
    asteria::obs::info!(
        "[table4] Youden threshold {threshold:.3} (J = {j:.3}), AUC {:.4}",
        auc(&scores)
    );

    let library = vulnerability_library();
    let images = match scale {
        Scale::Smoke => 16,
        Scale::Mid => 40,
        Scale::Paper => 80,
    };
    let fw_cfg = FirmwareConfig {
        images,
        ..Default::default()
    };
    let firmware = build_firmware_corpus(&fw_cfg, &library);
    let total_functions: usize = firmware.iter().map(|i| i.function_count()).sum();
    asteria::obs::info!(
        "[table4] firmware corpus: {} images, {total_functions} functions",
        firmware.len()
    );

    let threads = asteria::exec::thread_count();
    asteria::obs::info!("[table4] offline/online phases on {threads} worker thread(s)");
    asteria::obs::install();
    let (build, offline) = timed("offline-index", || {
        IndexBuilder::new(&exp.asteria)
            .build(&firmware)
            .expect("in-memory build cannot fail")
    });
    let session = SearchSession::new(Arc::clone(&exp.asteria), build.index);
    let (results, online) = timed("online-search", || {
        session.run(&firmware, &library, threshold, Arch::X86)
    });
    let results = results.expect("the CVE library's queries compile");
    asteria::obs::info!(
        "[table4] offline encode {offline:.1}s for {} functions, search {online:.2}s for {} CVEs",
        session.index().len(),
        library.len()
    );

    // §V end-to-end comparison: the Gemini pipeline on the same corpus
    // embeds every firmware function's ACFG and ranks it against each
    // CVE's ACFG embedding.
    let asteria_acc = top_k_accuracy(&results, 10);
    let ((gemini_hits, gemini_possible), gemini_time) = timed("gemini-search", || {
        let mut gemini_embeddings = Vec::new();
        for img in &firmware {
            for (bi, binary) in img.binaries.iter().enumerate() {
                for sym in binary.function_indices() {
                    let acfg = extract_acfg(binary, sym).expect("acfg");
                    let gt = img.ground_truth(bi, &binary.symbols[sym].display_name());
                    gemini_embeddings.push((exp.gemini.embed(&acfg), gt));
                }
            }
        }
        let mut gemini_hits = 0usize;
        let mut gemini_possible = 0usize;
        for (cve_index, entry) in library.iter().enumerate() {
            let program = asteria::lang::parse(&entry.vulnerable_source).expect("parses");
            let binary = compile_program(&program, Arch::X86).expect("compiles");
            let sym = binary.symbol_index(entry.function).expect("symbol");
            let q = exp.gemini.embed(&extract_acfg(&binary, sym).expect("acfg"));
            let mut ranked: Vec<(f32, Option<(usize, bool)>)> = gemini_embeddings
                .iter()
                .map(|(e, gt)| (GeminiModel::similarity_from_embeddings(&q, e), *gt))
                .collect();
            ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
            let planted = Some((cve_index, true));
            gemini_hits += ranked.iter().take(10).filter(|r| r.1 == planted).count();
            gemini_possible += gemini_embeddings
                .iter()
                .filter(|e| e.1 == planted)
                .count()
                .min(10);
        }
        (gemini_hits, gemini_possible)
    });
    asteria::obs::info!(
        "[table4] end-to-end seconds: Asteria {:.1}, Gemini {gemini_time:.1}",
        offline + online
    );
    let gemini_acc = if gemini_possible == 0 {
        0.0
    } else {
        gemini_hits as f64 / gemini_possible as f64
    };

    let total_confirmed: usize = results.iter().map(|r| r.confirmed).sum();
    let (indexed, cves) = (session.index().len(), library.len());
    format!(
        "# Table IV — vulnerability search ({scale:?} scale, threshold {threshold:.2})

{}
total confirmed vulnerable functions: {total_confirmed} \
({indexed} functions indexed, {cves} CVEs searched)

## End-to-end comparison (top-10 accuracy), Asteria vs Gemini

| system | top-10 accuracy |
|--------|-----------------|
| Asteria | {asteria_acc:.3} |
| Gemini | {gemini_acc:.3} |
",
        render_report(&results)
    )
}
