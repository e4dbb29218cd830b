//! The decompilation driver: binary → decompiled ASTs, plus the
//! callee-count feature used by the paper's similarity calibration (§III-C).

use std::fmt;

use asteria_compiler::{decode_function, Arch, Binary, DecodeError, SymbolKind};

use crate::ast::{DExpr, DFunction, DStmt};
use crate::cfg::build_cfg;
use crate::lift::{lift_blocks_limited, optimize_lifted_with, propagate_params};
use crate::limits::{BudgetKind, DecompileLimits};
use crate::postproc::{recover_compound_assign, recover_idioms, recover_switch};
use crate::structure::structure_limited;

/// Errors produced while decompiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompileError {
    /// Symbol index out of range or not a defined function.
    NotAFunction(usize),
    /// Function has no instructions (an empty or fully truncated code
    /// section) — there is nothing to build a CFG from.
    EmptyFunction(usize),
    /// Disassembly failed.
    Decode(DecodeError),
    /// A [`DecompileLimits`] budget was exceeded; the function is corrupt
    /// or adversarially large and was abandoned rather than allowed to
    /// hang or exhaust memory.
    BudgetExceeded {
        /// Which budget fired.
        kind: BudgetKind,
        /// The configured limit.
        limit: usize,
        /// The observed value that crossed it.
        actual: usize,
    },
}

impl fmt::Display for DecompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompileError::NotAFunction(i) => write!(f, "symbol {i} is not a function"),
            DecompileError::EmptyFunction(i) => write!(f, "symbol {i} has an empty body"),
            DecompileError::Decode(e) => write!(f, "disassembly failed: {e}"),
            DecompileError::BudgetExceeded {
                kind,
                limit,
                actual,
            } => write!(f, "budget exceeded: {actual} {kind} > limit {limit}"),
        }
    }
}

impl std::error::Error for DecompileError {}

impl From<DecodeError> for DecompileError {
    fn from(e: DecodeError) -> Self {
        DecompileError::Decode(e)
    }
}

fn collect_callees(stmts: &[DStmt], out: &mut Vec<u32>) {
    fn expr(e: &DExpr, out: &mut Vec<u32>) {
        match e {
            DExpr::Call { sym, args } => {
                if !out.contains(sym) {
                    out.push(*sym);
                }
                for a in args {
                    expr(a, out);
                }
            }
            DExpr::Index(_, i) => expr(i, out),
            DExpr::Un(_, inner) | DExpr::Cast(inner) => expr(inner, out),
            DExpr::Bin(_, a, b) => {
                expr(a, out);
                expr(b, out);
            }
            DExpr::Select(c, a, b) => {
                expr(c, out);
                expr(a, out);
                expr(b, out);
            }
            DExpr::Num(_) | DExpr::Str(_) | DExpr::Var(_) => {}
        }
    }
    for s in stmts {
        match s {
            DStmt::Assign(_, place, e) => {
                if let crate::ast::DPlace::Index(_, i) = place {
                    expr(i, out);
                }
                expr(e, out);
            }
            DStmt::Expr(e) | DStmt::Return(Some(e)) => expr(e, out),
            DStmt::If(c, t, el) => {
                expr(c, out);
                collect_callees(t, out);
                collect_callees(el, out);
            }
            DStmt::While(c, b) => {
                expr(c, out);
                collect_callees(b, out);
            }
            DStmt::DoWhile(b, c) => {
                collect_callees(b, out);
                expr(c, out);
            }
            DStmt::Switch(scrut, cases) => {
                expr(scrut, out);
                for case in cases {
                    collect_callees(&case.body, out);
                }
            }
            _ => {}
        }
    }
}

/// Decompiles one function of a binary.
///
/// The pipeline mirrors the paper's AST extraction step (its Fig. 3 step 1,
/// performed there by IDA Pro + Hex-Rays): disassemble, recover the CFG,
/// lift to expressions, structure, and post-process.
///
/// # Errors
///
/// See [`DecompileError`].
///
/// # Examples
///
/// ```
/// use asteria_compiler::{compile_program, Arch};
/// use asteria_decompiler::decompile_function;
///
/// let program = asteria_lang::parse("int f(int a) { return a + 1; }")?;
/// let binary = compile_program(&program, Arch::Arm)?;
/// let func = decompile_function(&binary, 0)?;
/// assert_eq!(func.name, "f");
/// assert!(func.ast_size() >= 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn decompile_function(binary: &Binary, sym: usize) -> Result<DFunction, DecompileError> {
    decompile_function_with(binary, sym, &DecompileLimits::default())
}

/// Decompiles one function of a binary under an explicit resource budget.
///
/// Every pipeline stage is bounded: decoded instruction count, CFG block
/// count, AST nodes materialized during lifting, and structuring
/// iterations. Corrupt or adversarial code that would otherwise hang the
/// structurer or blow up symbolic evaluation exponentially instead fails
/// fast with [`DecompileError::BudgetExceeded`].
///
/// # Errors
///
/// See [`DecompileError`].
pub fn decompile_function_with(
    binary: &Binary,
    sym: usize,
    limits: &DecompileLimits,
) -> Result<DFunction, DecompileError> {
    let arch = binary.arch.name();
    let result = decompile_function_inner(binary, sym, limits);
    // Counter increments are commutative, so corpus-level totals are
    // identical at every thread count even though workers race here.
    asteria_obs::counter_add("asteria_decompile_functions_total", &[("arch", arch)], 1);
    if let Err(DecompileError::BudgetExceeded { kind, .. }) = &result {
        asteria_obs::counter_add(
            "asteria_budget_exceeded_total",
            &[("kind", kind.label())],
            1,
        );
    }
    result
}

fn decompile_function_inner(
    binary: &Binary,
    sym: usize,
    limits: &DecompileLimits,
) -> Result<DFunction, DecompileError> {
    let symbol = binary
        .symbols
        .get(sym)
        .filter(|s| s.kind == SymbolKind::Function)
        .ok_or(DecompileError::NotAFunction(sym))?;
    let insts = decode_function(&symbol.code, binary.arch)?;
    if insts.is_empty() {
        return Err(DecompileError::EmptyFunction(sym));
    }
    if insts.len() > limits.max_instructions {
        return Err(DecompileError::BudgetExceeded {
            kind: BudgetKind::Instructions,
            limit: limits.max_instructions,
            actual: insts.len(),
        });
    }
    let cfg = build_cfg(&insts);
    if cfg.blocks.len() > limits.max_basic_blocks {
        return Err(DecompileError::BudgetExceeded {
            kind: BudgetKind::BasicBlocks,
            limit: limits.max_basic_blocks,
            actual: cfg.blocks.len(),
        });
    }
    let lift_timer = asteria_obs::timer();
    let mut blocks = lift_blocks_limited(
        &insts,
        &cfg,
        binary.arch,
        symbol.param_count,
        limits.max_ast_nodes,
    )?;
    lift_timer.observe_seconds(
        "asteria_decompile_lift_seconds",
        &[("arch", binary.arch.name())],
    );
    // Lifter artifact: 32-bit x86 output keeps compound temporaries
    // (register pressure), other ISAs re-nest expressions fully.
    let optimize_timer = asteria_obs::timer();
    optimize_lifted_with(&mut blocks, binary.arch != Arch::X86);
    optimize_timer.observe_seconds(
        "asteria_decompile_optimize_seconds",
        &[("arch", binary.arch.name())],
    );
    // Lifter artifact: the x86 stack-argument convention leaves visible
    // incoming-argument copies in decompiled output (Hex-Rays keeps the
    // `v3 = a1;` stack spills on 32-bit x86); register-argument ISAs get
    // the copies propagated away.
    if binary.arch != Arch::X86 {
        propagate_params(&mut blocks);
    }
    let structure_timer = asteria_obs::timer();
    let mut body = structure_limited(&cfg, &blocks, limits.max_structure_iters)?;
    structure_timer.observe_seconds(
        "asteria_decompile_structure_seconds",
        &[("arch", binary.arch.name())],
    );
    // PPC's negate expansion (`0 - x`) is left as-is — decompilers do not
    // re-idiomize it — while the remainder expansion is recovered.
    recover_idioms(&mut body);
    if matches!(binary.arch, Arch::X86 | Arch::X64) {
        recover_compound_assign(&mut body);
    }
    recover_switch(&mut body);

    let mut callees = Vec::new();
    collect_callees(&body, &mut callees);
    Ok(DFunction {
        name: symbol.display_name(),
        param_count: symbol.param_count,
        body,
        callees,
        inst_count: insts.len(),
        block_count: cfg.blocks.len(),
    })
}

/// Number of machine instructions of a defined function (`None` for
/// externals, whose size is unknown to the analyst).
fn function_inst_count(binary: &Binary, sym: usize) -> Option<usize> {
    let s = binary.symbols.get(sym)?;
    if s.kind != SymbolKind::Function {
        return None;
    }
    decode_function(&s.code, binary.arch).ok().map(|v| v.len())
}

/// The paper's calibration feature: the number of callee functions after
/// filtering out probably-inlined callees (those with fewer than `beta`
/// instructions, §III-C). External imports cannot be inlined and always
/// count.
pub fn callee_count(binary: &Binary, func: &DFunction, beta: usize) -> usize {
    func.callees
        .iter()
        .filter(|sym| match function_inst_count(binary, **sym as usize) {
            Some(n) => n >= beta,
            None => true, // external
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asteria_compiler::compile_program;
    use asteria_lang::parse;

    const SRC: &str = "int tiny(int x) { return x; } \
                       int big(int x) { int s = 0; for (int i = 0; i < x; i++) \
                       { s += ext_round(s + i); } return s; } \
                       int f(int a) { return tiny(a) + big(a) + ext_log(a); }";

    #[test]
    fn decompiles_all_functions_all_arches() {
        let p = parse(SRC).unwrap();
        for arch in Arch::ALL {
            let b = compile_program(&p, arch).unwrap();
            let syms = b.function_indices();
            assert_eq!(syms.len(), 3, "{arch}");
            for sym in syms {
                let f = decompile_function(&b, sym).unwrap();
                assert!(f.ast_size() >= 3, "{arch}: {} too small", f.name);
            }
        }
    }

    #[test]
    fn callees_are_collected() {
        let p = parse(SRC).unwrap();
        let b = compile_program(&p, Arch::X64).unwrap();
        let f = decompile_function(&b, b.symbol_index("f").unwrap()).unwrap();
        assert_eq!(f.callees.len(), 3); // tiny, big, ext_log
    }

    #[test]
    fn callee_count_filters_inlinable_functions() {
        let p = parse(SRC).unwrap();
        let b = compile_program(&p, Arch::X64).unwrap();
        let f = decompile_function(&b, b.symbol_index("f").unwrap()).unwrap();
        let all = callee_count(&b, &f, 0);
        assert_eq!(all, 3);
        // `tiny` compiles to only a handful of instructions; a sufficiently
        // large beta filters it while keeping `big` and the external.
        let tiny_size = function_inst_count(&b, b.symbol_index("tiny").unwrap()).unwrap();
        let filtered = callee_count(&b, &f, tiny_size + 1);
        assert_eq!(filtered, 2);
    }

    #[test]
    fn stripped_binaries_get_sub_names() {
        let p = parse(SRC).unwrap();
        let mut b = compile_program(&p, Arch::Arm).unwrap();
        b.strip();
        let funcs: Vec<DFunction> = b
            .function_indices()
            .into_iter()
            .map(|i| decompile_function(&b, i).unwrap())
            .collect();
        assert!(
            funcs.iter().all(|f| f.name.starts_with("sub_")),
            "{funcs:#?}"
        );
    }

    #[test]
    fn decompiling_external_fails() {
        let p = parse(SRC).unwrap();
        let b = compile_program(&p, Arch::Arm).unwrap();
        let ext = b.symbol_index("ext_log").unwrap();
        assert!(matches!(
            decompile_function(&b, ext),
            Err(DecompileError::NotAFunction(_))
        ));
    }

    #[test]
    fn instruction_budget_fires() {
        let p = parse(SRC).unwrap();
        let b = compile_program(&p, Arch::Arm).unwrap();
        let limits = DecompileLimits {
            max_instructions: 1,
            ..DecompileLimits::default()
        };
        let err = decompile_function_with(&b, b.symbol_index("big").unwrap(), &limits).unwrap_err();
        assert!(
            matches!(
                err,
                DecompileError::BudgetExceeded {
                    kind: BudgetKind::Instructions,
                    limit: 1,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn basic_block_budget_fires() {
        let p = parse(SRC).unwrap();
        let b = compile_program(&p, Arch::Arm).unwrap();
        let limits = DecompileLimits {
            max_basic_blocks: 1,
            ..DecompileLimits::default()
        };
        let err = decompile_function_with(&b, b.symbol_index("big").unwrap(), &limits).unwrap_err();
        assert!(
            matches!(
                err,
                DecompileError::BudgetExceeded {
                    kind: BudgetKind::BasicBlocks,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn ast_node_budget_fires() {
        let p = parse(SRC).unwrap();
        let b = compile_program(&p, Arch::Arm).unwrap();
        let limits = DecompileLimits {
            max_ast_nodes: 2,
            ..DecompileLimits::default()
        };
        let err = decompile_function_with(&b, b.symbol_index("big").unwrap(), &limits).unwrap_err();
        assert!(
            matches!(
                err,
                DecompileError::BudgetExceeded {
                    kind: BudgetKind::AstNodes,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn structure_iteration_budget_fires() {
        let p = parse(SRC).unwrap();
        let b = compile_program(&p, Arch::Arm).unwrap();
        let limits = DecompileLimits {
            max_structure_iters: 1,
            ..DecompileLimits::default()
        };
        let err = decompile_function_with(&b, b.symbol_index("big").unwrap(), &limits).unwrap_err();
        assert!(
            matches!(
                err,
                DecompileError::BudgetExceeded {
                    kind: BudgetKind::StructureIters,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn exponential_register_growth_is_cut_off() {
        // `add r0, r0` doubles r0's symbolic expression every step: 64 of
        // them would materialize a 2^64-node tree. The lifter must refuse
        // quickly (and cheaply) instead of eating all memory.
        use crate::cfg::build_cfg;
        use crate::lift::lift_blocks_limited;
        use asteria_compiler::{AluOp, MInst, Reg};

        let mut insts = vec![MInst::MovImm(Reg(0), 1)];
        insts.extend(std::iter::repeat_n(
            MInst::Alu2(AluOp::Add, Reg(0), Reg(0)),
            64,
        ));
        insts.push(MInst::Ret);
        let cfg = build_cfg(&insts);
        let err = lift_blocks_limited(&insts, &cfg, Arch::Arm, 0, 100_000).unwrap_err();
        assert!(
            matches!(
                err,
                DecompileError::BudgetExceeded {
                    kind: BudgetKind::AstNodes,
                    limit: 100_000,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn generous_budget_matches_unlimited_output() {
        let p = parse(SRC).unwrap();
        let unbounded = DecompileLimits {
            max_instructions: usize::MAX,
            max_basic_blocks: usize::MAX,
            max_ast_nodes: usize::MAX,
            max_structure_iters: usize::MAX,
        };
        for arch in Arch::ALL {
            let b = compile_program(&p, arch).unwrap();
            for i in b.function_indices() {
                let default = decompile_function(&b, i).unwrap();
                let explicit = decompile_function_with(&b, i, &unbounded).unwrap();
                assert_eq!(default, explicit, "{arch}: function {i}");
            }
        }
    }

    #[test]
    fn empty_function_is_typed_error() {
        let p = parse(SRC).unwrap();
        let mut b = compile_program(&p, Arch::Arm).unwrap();
        let idx = b.symbol_index("tiny").unwrap();
        b.symbols[idx].code.clear();
        assert!(matches!(
            decompile_function(&b, idx),
            Err(DecompileError::EmptyFunction(_))
        ));
    }

    #[test]
    fn ast_sizes_are_similar_across_arches_for_same_function() {
        // The central premise: cross-architecture AST stability.
        let p = parse(SRC).unwrap();
        let sizes: Vec<usize> = Arch::ALL
            .iter()
            .map(|arch| {
                let b = compile_program(&p, *arch).unwrap();
                decompile_function(&b, b.symbol_index("big").unwrap())
                    .unwrap()
                    .ast_size()
            })
            .collect();
        let min = *sizes.iter().min().unwrap() as f64;
        let max = *sizes.iter().max().unwrap() as f64;
        // x86's temp-heavy output inflates its tree; the spread stays
        // bounded but is deliberately non-trivial (cf. the paper's Fig. 2).
        assert!(
            max / min < 2.3,
            "AST sizes vary too much across arches: {sizes:?}"
        );
    }
}
