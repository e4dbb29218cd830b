//! Cross-architecture clone detection: given a library of named functions
//! compiled for x86, find their anonymous counterparts inside a *stripped*
//! ARM binary — the code-reuse scenario from the paper's introduction.
//!
//! Run with: `cargo run --release -p asteria --example cross_arch_clone_detection`

use asteria::compiler::{compile_program, Arch, Binary};
use asteria::core::{
    calibrated_similarity, extract_binary, train, AsteriaModel, ExtractedFunction, ModelConfig,
    TrainOptions, DEFAULT_INLINE_BETA,
};
use asteria::datasets::{build_corpus, build_pairs, to_train_pairs, CorpusConfig, PairConfig};
use asteria::decompiler::DecompileError;

const LIBRARY_SRC: &str = r#"
    int crc_step(int crc, int byte) {
        int x = crc ^ byte;
        for (int i = 0; i < 8; i++) {
            if (x & 1) { x = (x >> 1) ^ 40961; } else { x = x >> 1; }
        }
        return x;
    }
    int sat_add(int a, int b) {
        int s = a + b;
        if (s > 32767) { return 32767; }
        if (s < 0 - 32768) { return 0 - 32768; }
        return s;
    }
    int find_max(int n) {
        int best = 0 - 1;
        for (int i = 0; i < n % 32; i++) {
            int v = ext_read(i);
            if (v > best) { best = v; }
        }
        return best;
    }
"#;

/// Every function of `binary`, or the first one that does not decompile.
fn extract_all(binary: &Binary) -> Result<Vec<ExtractedFunction>, DecompileError> {
    let extraction = extract_binary(binary, DEFAULT_INLINE_BETA);
    if let Some((_, e)) = extraction.failures().next() {
        return Err(e.clone());
    }
    Ok(extraction.into_functions())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train a small model first (clone detection without training works,
    // but a trained encoder separates much more sharply).
    eprintln!("training a small model…");
    let corpus = build_corpus(&CorpusConfig {
        packages: 6,
        functions_per_package: 6,
        seed: 7,
        ..Default::default()
    });
    let pairs = build_pairs(
        &corpus,
        &PairConfig {
            positives_per_combination: 30,
            negatives_per_combination: 30,
            seed: 3,
        },
    );
    let train_pairs = to_train_pairs(&corpus, &pairs);
    let mut model = AsteriaModel::new(ModelConfig::default());
    train(
        &mut model,
        &train_pairs,
        &TrainOptions {
            epochs: 6,
            seed: 7,
            verbose: false,
        },
        None,
    );

    // The "known" side: an x86 build with symbols.
    let program = asteria::lang::parse(LIBRARY_SRC)?;
    let x86 = compile_program(&program, Arch::X86)?;
    let known = extract_all(&x86)?;

    // The "unknown" side: a stripped ARM build of the same library.
    let mut arm = compile_program(&program, Arch::Arm)?;
    arm.strip();
    let unknown = extract_all(&arm)?;
    println!(
        "searching {} stripped ARM functions for {} known x86 functions\n",
        unknown.len(),
        known.len()
    );

    let mut correct = 0;
    for k in &known {
        let ek = model.encode(&k.tree);
        let mut best: Option<(f64, &str)> = None;
        for u in &unknown {
            let eu = model.encode(&u.tree);
            let m = model.similarity_from_encodings(&ek, &eu) as f64;
            let score = calibrated_similarity(m, k.callee_count, u.callee_count);
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, &u.name));
            }
        }
        let (score, name) = best.expect("nonempty");
        println!("{:<12} → {:<12} (score {score:.4})", k.name, name);
        // Ground truth: symbols were assigned in source order, so the i-th
        // stripped function corresponds to the i-th known one.
        let truth = &unknown[known.iter().position(|x| x.name == k.name).unwrap()].name;
        if name == truth {
            correct += 1;
        }
    }
    println!("\nmatched {correct}/{} functions correctly", known.len());
    Ok(())
}
