//! End-to-end extraction: binary → decompiled AST → digitalized,
//! binarized tree + calibration features (Fig. 3 steps 1–2).

use std::fmt;

use asteria_compiler::Binary;
use asteria_decompiler::{callee_count, decompile_function, DecompileError};

use crate::binarize::{binarize, BinTree};
use crate::forest::Forest;
use crate::model::{calibrated_similarity, AsteriaModel};
use crate::nodes::digitalize;

/// Default inline filter β: callees with fewer machine instructions than
/// this are considered inlining candidates and excluded from the callee
/// count (paper §III-C).
pub const DEFAULT_INLINE_BETA: usize = 6;

/// Everything Asteria needs to know about one binary function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedFunction {
    /// Display name (symbol or `sub_<offset>`).
    pub name: String,
    /// Digitalized, binarized AST.
    pub tree: BinTree,
    /// Calibration feature C: filtered callee count.
    pub callee_count: usize,
    /// AST size in nodes (the paper filters sizes < 5).
    pub ast_size: usize,
    /// Machine instructions in the function body.
    pub inst_count: usize,
    /// Basic blocks in the machine CFG (used by the Gemini comparison).
    pub block_count: usize,
}

/// Extracts one function.
///
/// # Errors
///
/// Propagates decompilation failures, including
/// [`DecompileError::BudgetExceeded`] when a default
/// [`DecompileLimits`](asteria_decompiler::DecompileLimits) budget fires.
pub fn extract_function(
    binary: &Binary,
    sym: usize,
    beta: usize,
) -> Result<ExtractedFunction, DecompileError> {
    let timer = asteria_obs::timer();
    let df = decompile_function(binary, sym)?;
    let tree = digitalize(&df);
    let ntree = binarize(&tree);
    timer.observe_seconds("asteria_extract_seconds", &[]);
    asteria_obs::counter_add("asteria_functions_extracted_total", &[], 1);
    asteria_obs::counter_add("asteria_nodes_digitalized_total", &[], ntree.size() as u64);
    Ok(ExtractedFunction {
        callee_count: callee_count(binary, &df, beta),
        ast_size: ntree.size(),
        inst_count: df.inst_count,
        block_count: df.block_count,
        name: df.name,
        tree: ntree,
    })
}

/// The outcome of extracting one function of a binary.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionOutcome {
    /// Symbol index within the binary.
    pub sym: usize,
    /// Display name from the symbol table (available even on failure).
    pub name: String,
    /// The extracted function, or why it was skipped.
    pub result: Result<ExtractedFunction, DecompileError>,
}

/// Aggregate counts from a whole-binary extraction: how many functions
/// were extracted and the taxonomy of every failure.
///
/// This is the ledger the paper's IDA-based pipeline never shows — Hex-Rays
/// silently drops functions it cannot decompile; here every skip is
/// accounted for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractionReport {
    /// Defined functions seen in the binary.
    pub total: usize,
    /// Successfully extracted.
    pub extracted: usize,
    /// Skipped for any reason (`total - extracted`).
    pub skipped: usize,
    /// Skipped because a
    /// [`DecompileLimits`](asteria_decompiler::DecompileLimits) budget fired.
    pub over_budget: usize,
    /// Skipped because disassembly failed.
    pub decode_errors: usize,
    /// Skipped because the function body was empty.
    pub empty_functions: usize,
    /// Skipped for any other reason (bad symbol entries).
    pub other_errors: usize,
}

impl ExtractionReport {
    fn record(&mut self, err: &DecompileError) {
        self.skipped += 1;
        match err {
            DecompileError::BudgetExceeded { .. } => self.over_budget += 1,
            DecompileError::Decode(_) => self.decode_errors += 1,
            DecompileError::EmptyFunction(_) => self.empty_functions += 1,
            DecompileError::NotAFunction(_) => self.other_errors += 1,
        }
    }

    /// Merges another report's counts into this one (corpus totals).
    pub fn absorb(&mut self, other: &ExtractionReport) {
        self.total += other.total;
        self.extracted += other.extracted;
        self.skipped += other.skipped;
        self.over_budget += other.over_budget;
        self.decode_errors += other.decode_errors;
        self.empty_functions += other.empty_functions;
        self.other_errors += other.other_errors;
    }
}

impl fmt::Display for ExtractionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} functions: {} extracted, {} skipped",
            self.total, self.extracted, self.skipped
        )?;
        if self.skipped > 0 {
            write!(
                f,
                " ({} over budget, {} decode errors, {} empty, {} other)",
                self.over_budget, self.decode_errors, self.empty_functions, self.other_errors
            )?;
        }
        Ok(())
    }
}

/// The result of a whole-binary extraction: every per-function outcome
/// plus the aggregate report.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientExtraction {
    /// One outcome per defined function, in symbol order.
    pub outcomes: Vec<FunctionOutcome>,
    /// Aggregate counts and failure taxonomy.
    pub report: ExtractionReport,
}

impl ResilientExtraction {
    /// The successfully extracted functions.
    pub fn successes(&self) -> impl Iterator<Item = &ExtractedFunction> {
        self.outcomes.iter().filter_map(|o| o.result.as_ref().ok())
    }

    /// The skipped functions with their errors.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &DecompileError)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().err().map(|e| (o.name.as_str(), e)))
    }

    /// Consumes the run, keeping only the extracted functions.
    pub fn into_functions(self) -> Vec<ExtractedFunction> {
        self.outcomes
            .into_iter()
            .filter_map(|o| o.result.ok())
            .collect()
    }
}

/// Extracts every defined function of a binary, degrading per function:
/// a function that fails to decompile is recorded as a skip instead of
/// aborting the binary. Never fails at the binary level; a caller that
/// wants all-or-nothing checks [`ExtractionReport::skipped`] or
/// [`ResilientExtraction::failures`].
pub fn extract_binary(binary: &Binary, beta: usize) -> ResilientExtraction {
    let mut outcomes = Vec::new();
    let mut report = ExtractionReport::default();
    for sym in binary.function_indices() {
        let name = binary.symbols[sym].display_name();
        let result = extract_function(binary, sym, beta);
        report.total += 1;
        match &result {
            Ok(_) => report.extracted += 1,
            Err(e) => report.record(e),
        }
        outcomes.push(FunctionOutcome { sym, name, result });
    }
    ResilientExtraction { outcomes, report }
}

/// A cached function encoding: the offline product the paper stores for
/// every firmware function (encoding vector + callee count).
///
/// Equality is bit-exact: `vector` compares by [`f32::to_bits`], so
/// `-0.0 != 0.0` and a NaN equals the same NaN bits. That is the
/// determinism oracle (serial == parallel == warm == cold), and it makes
/// `==` an equivalence relation, hence `Eq`.
#[derive(Debug, Clone)]
pub struct FunctionEncoding {
    /// Function display name.
    pub name: String,
    /// Tree-LSTM encoding of the AST.
    pub vector: Vec<f32>,
    /// Calibration feature C.
    pub callee_count: usize,
}

impl PartialEq for FunctionEncoding {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.callee_count == other.callee_count
            && self.vector.len() == other.vector.len()
            && self
                .vector
                .iter()
                .zip(&other.vector)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for FunctionEncoding {}

/// Encodes an extracted function with a trained model, on the caller's
/// thread.
pub fn encode_function(model: &AsteriaModel, f: &ExtractedFunction) -> FunctionEncoding {
    encode_functions(model, &[f], 1)
        .pop()
        .expect("one function in, one encoding out")
}

/// Encodes many extracted functions as one [`Forest`]: each distinct
/// subtree among them is evaluated once, a level's subtrees spread over
/// up to `threads` workers (`0` = auto). The encodings come back in
/// input order, each bit-identical to [`encode_function`]'s, at every
/// thread count.
///
/// The trees are interned serially in input order, so the forest, and
/// the work it counts, is the same at every thread count. An empty input
/// encodes nothing and never builds the model's inference kernel.
pub fn encode_functions(
    model: &AsteriaModel,
    functions: &[&ExtractedFunction],
    threads: usize,
) -> Vec<FunctionEncoding> {
    if functions.is_empty() {
        return Vec::new();
    }
    let mut forest = Forest::new();
    for f in functions {
        forest.add(&f.tree);
    }
    let vectors = model.encode_forest(&forest, threads);
    asteria_obs::counter_add(
        "asteria_functions_encoded_total",
        &[],
        functions.len() as u64,
    );
    functions
        .iter()
        .zip(vectors)
        .map(|(f, vector)| FunctionEncoding {
            name: f.name.clone(),
            vector,
            callee_count: f.callee_count,
        })
        .collect()
}

/// The final calibrated similarity ℱ(F₁, F₂) between two cached encodings
/// (paper eq. 10): Siamese similarity times the callee-count calibration.
pub fn function_similarity(
    model: &AsteriaModel,
    a: &FunctionEncoding,
    b: &FunctionEncoding,
) -> f64 {
    let m = model.similarity_from_encodings(&a.vector, &b.vector) as f64;
    calibrated_similarity(m, a.callee_count, b.callee_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use asteria_compiler::{compile_program, Arch, MInst};
    use asteria_decompiler::{BudgetKind, DecompileLimits};
    use asteria_lang::parse;

    const SRC: &str = "int helper(int x) { int s = 0; for (int i = 0; i < x; i++) \
                       { s += i * x; } return s; } \
                       int f(int a) { if (a > 0) { return helper(a) + ext_io(a); } \
                       return helper(0 - a); }";

    #[test]
    fn extraction_works_on_all_arches() {
        let p = parse(SRC).unwrap();
        for arch in Arch::ALL {
            let b = compile_program(&p, arch).unwrap();
            let run = extract_binary(&b, DEFAULT_INLINE_BETA);
            assert_eq!(run.report.skipped, 0, "{arch}");
            let fns = run.into_functions();
            assert_eq!(fns.len(), 2, "{arch}");
            for f in &fns {
                assert!(f.ast_size >= 5, "{arch}: {} too small", f.name);
                assert_eq!(f.ast_size, f.tree.size());
            }
        }
    }

    #[test]
    fn homologous_functions_have_bounded_tree_divergence() {
        let p = parse(SRC).unwrap();
        let mut sizes = Vec::new();
        for arch in Arch::ALL {
            let b = compile_program(&p, arch).unwrap();
            let run = extract_binary(&b, DEFAULT_INLINE_BETA);
            assert_eq!(run.report.skipped, 0, "{arch}");
            let fns = run.into_functions();
            let f = fns.iter().find(|f| f.name == "f").unwrap();
            sizes.push(f.ast_size);
        }
        let min = *sizes.iter().min().unwrap() as f64;
        let max = *sizes.iter().max().unwrap() as f64;
        // Cross-architecture ASTs differ (x86 temps, loop rotation) but
        // remain the same order of magnitude — the regime the Tree-LSTM
        // must bridge.
        assert!(max / min < 2.5, "{sizes:?}");
    }

    #[test]
    fn callee_counts_are_architecture_independent() {
        // The paper's premise for the calibration feature.
        let p = parse(SRC).unwrap();
        let counts: Vec<usize> = Arch::ALL
            .iter()
            .map(|arch| {
                let b = compile_program(&p, *arch).unwrap();
                extract_function(&b, b.symbol_index("f").unwrap(), DEFAULT_INLINE_BETA)
                    .unwrap()
                    .callee_count
            })
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn resilient_extraction_matches_strict_on_clean_binaries() {
        let p = parse(SRC).unwrap();
        for arch in Arch::ALL {
            let b = compile_program(&p, arch).unwrap();
            let strict: Vec<ExtractedFunction> = b
                .function_indices()
                .into_iter()
                .map(|i| extract_function(&b, i, DEFAULT_INLINE_BETA).unwrap())
                .collect();
            let resilient = extract_binary(&b, DEFAULT_INLINE_BETA);
            assert_eq!(resilient.report.total, 2, "{arch}");
            assert_eq!(resilient.report.extracted, 2, "{arch}");
            assert_eq!(resilient.report.skipped, 0, "{arch}");
            assert_eq!(resilient.into_functions(), strict, "{arch}");
        }
    }

    #[test]
    fn resilient_extraction_skips_bad_functions_and_keeps_good_ones() {
        let p = parse(SRC).unwrap();
        let mut b = compile_program(&p, Arch::Arm).unwrap();
        // Corrupt one function's code so it cannot decode.
        let idx = b.symbol_index("helper").unwrap();
        b.symbols[idx].code = vec![0xff; 7];
        let run = extract_binary(&b, DEFAULT_INLINE_BETA);
        assert_eq!(run.report.total, 2);
        assert_eq!(run.report.extracted, 1);
        assert_eq!(run.report.skipped, 1);
        assert_eq!(run.report.decode_errors, 1);
        let (name, err) = run.failures().next().unwrap();
        assert_eq!(name, "helper");
        assert!(matches!(err, DecompileError::Decode(_)), "{err:?}");
        assert_eq!(run.successes().count(), 1);
    }

    #[test]
    fn resilient_extraction_reports_budget_skips() {
        // Both functions get a body one instruction past the default
        // instruction budget.
        let p = parse(SRC).unwrap();
        let mut b = compile_program(&p, Arch::Arm).unwrap();
        let too_long = vec![MInst::Ret; DecompileLimits::default().max_instructions + 1];
        let code = asteria_compiler::encode_function(&too_long, Arch::Arm).unwrap();
        for sym in b.function_indices() {
            b.symbols[sym].code = code.clone();
        }
        let run = extract_binary(&b, DEFAULT_INLINE_BETA);
        assert_eq!(run.report.over_budget, 2);
        assert!(run.failures().all(|(_, e)| matches!(
            e,
            DecompileError::BudgetExceeded {
                kind: BudgetKind::Instructions,
                ..
            }
        )));
        let rendered = run.report.to_string();
        assert!(rendered.contains("2 skipped"), "{rendered}");
        assert!(rendered.contains("2 over budget"), "{rendered}");
    }

    #[test]
    fn corpus_reports_absorb() {
        let p = parse(SRC).unwrap();
        let b = compile_program(&p, Arch::X64).unwrap();
        let a = extract_binary(&b, DEFAULT_INLINE_BETA).report;
        let mut total = ExtractionReport::default();
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.total, 2 * a.total);
        assert_eq!(total.extracted, 2 * a.extracted);
    }

    #[test]
    fn encoding_equality_compares_vector_bits() {
        let enc = |vector: Vec<f32>| FunctionEncoding {
            name: "f".to_string(),
            vector,
            callee_count: 2,
        };
        // f32 `==` calls these equal; their bits differ.
        assert_ne!(enc(vec![1.0, 0.0]), enc(vec![1.0, -0.0]));
        // f32 `==` calls a NaN unequal to itself; the bits are the same.
        let nan = f32::from_bits(0x7fc0_0001);
        assert_eq!(enc(vec![nan, 3.5]), enc(vec![nan, 3.5]));
        assert_ne!(enc(vec![nan]), enc(vec![f32::from_bits(0x7fc0_0002)]));
        assert_ne!(enc(vec![1.0]), enc(vec![1.0, 1.0]));
    }

    #[test]
    fn end_to_end_similarity_pipeline() {
        let p = parse(SRC).unwrap();
        let model = AsteriaModel::new(ModelConfig {
            hidden_dim: 12,
            embed_dim: 8,
            ..Default::default()
        });
        let bx = compile_program(&p, Arch::X86).unwrap();
        let ba = compile_program(&p, Arch::Arm).unwrap();
        let fx = extract_function(&bx, bx.symbol_index("f").unwrap(), DEFAULT_INLINE_BETA).unwrap();
        let fa = extract_function(&ba, ba.symbol_index("f").unwrap(), DEFAULT_INLINE_BETA).unwrap();
        let ex = encode_function(&model, &fx);
        let ea = encode_function(&model, &fa);
        let sim = function_similarity(&model, &ex, &ea);
        assert!((0.0..=1.0).contains(&sim), "{sim}");
        // Same callee counts → calibration factor 1, so the calibrated
        // similarity equals the raw model similarity.
        assert_eq!(ex.callee_count, ea.callee_count);
        let raw = model.similarity_from_encodings(&ex.vector, &ea.vector) as f64;
        assert!((sim - raw).abs() < 1e-9);
    }
}
