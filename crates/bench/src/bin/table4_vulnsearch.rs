//! Table IV + the §V end-to-end comparison: vulnerability search over the
//! firmware corpus, thresholded at the Youden-index operating point, with
//! Asteria-vs-Gemini top-10 accuracy. Stdout carries only the tables, so
//! two runs print the same bytes; the phase timings go to stderr.

use std::sync::Arc;

use asteria::baselines::{extract_acfg, GeminiModel};
use asteria::compiler::Arch;
use asteria::eval::{auc, youden_threshold};
use asteria::vulnsearch::{
    build_firmware_corpus, render_report, top_k_accuracy, vulnerability_library, FirmwareConfig,
    IndexBuilder, SearchSession,
};
use asteria_bench::{timed, Experiment, Scale};

fn main() {
    let scale = Scale::from_args();
    let exp = Experiment::setup(scale);

    // Operating point: the Youden-index threshold on the validation split
    // (the paper reports 0.84 on its data).
    let scores = exp.asteria_scores(&exp.test_set, true);
    let (threshold, j) = youden_threshold(&scores);
    asteria::obs::info!(
        "[table4] Youden threshold {threshold:.3} (J = {j:.3}), AUC {:.4}",
        auc(&scores)
    );

    let library = vulnerability_library();
    let fw_cfg = match scale {
        Scale::Smoke => FirmwareConfig {
            images: 16,
            ..Default::default()
        },
        Scale::Mid => FirmwareConfig {
            images: 40,
            ..Default::default()
        },
        Scale::Paper => FirmwareConfig {
            images: 80,
            ..Default::default()
        },
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
    let results = match results {
        Ok(r) => r,
        Err(e) => {
            asteria::obs::warn!("[table4] error: {e}");
            std::process::exit(1);
        }
    };
    asteria::obs::info!(
        "[table4] offline encode {offline:.1}s for {} functions, search {online:.2}s for {} CVEs",
        session.index().len(),
        library.len()
    );

    println!("# Table IV — vulnerability search ({scale:?} scale, threshold {threshold:.2})");
    println!();
    print!("{}", render_report(&results));
    let total_confirmed: usize = results.iter().map(|r| r.confirmed).sum();
    println!();
    println!(
        "total confirmed vulnerable functions: {total_confirmed} \
         ({} functions indexed, {} CVEs searched)",
        session.index().len(),
        library.len()
    );

    // ---- §V end-to-end comparison vs Gemini -------------------------------
    println!();
    println!("## End-to-end comparison (top-10 accuracy), Asteria vs Gemini");
    println!();
    let asteria_acc = top_k_accuracy(&results, 10);

    // Gemini pipeline on the same corpus: embed every firmware function's
    // ACFG, rank against each CVE's ACFG embedding.
    let ((gemini_hits, gemini_possible), gemini_time) = timed("gemini-search", || {
        let mut gemini_embeddings = Vec::new();
        for (ii, img) in firmware.iter().enumerate() {
            for (bi, binary) in img.binaries.iter().enumerate() {
                for sym in binary.function_indices() {
                    let acfg = extract_acfg(binary, sym).expect("acfg");
                    let gt = img.ground_truth(bi, &binary.symbols[sym].display_name());
                    gemini_embeddings.push((ii, exp.gemini.embed(&acfg), gt));
                }
            }
        }
        let mut gemini_hits = 0usize;
        let mut gemini_possible = 0usize;
        for (cve_index, entry) in library.iter().enumerate() {
            let program = asteria::lang::parse(&entry.vulnerable_source).expect("parses");
            let binary = asteria::compiler::compile_program(&program, Arch::X86).expect("compiles");
            let sym = binary.symbol_index(entry.function).expect("symbol");
            let q = exp.gemini.embed(&extract_acfg(&binary, sym).expect("acfg"));
            let mut ranked: Vec<(f32, Option<(usize, bool)>)> = gemini_embeddings
                .iter()
                .map(|(_, e, gt)| (GeminiModel::similarity_from_embeddings(&q, e), *gt))
                .collect();
            ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
            let hits = ranked
                .iter()
                .take(10)
                .filter(|(_, gt)| *gt == Some((cve_index, true)))
                .count();
            let planted = gemini_embeddings
                .iter()
                .filter(|(_, _, gt)| *gt == Some((cve_index, true)))
                .count();
            gemini_hits += hits.min(10);
            gemini_possible += planted.min(10);
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

    println!("| system | top-10 accuracy |");
    println!("|--------|-----------------|");
    println!("| Asteria | {asteria_acc:.3} |");
    println!("| Gemini | {gemini_acc:.3} |");
}
