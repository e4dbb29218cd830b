//! End-to-end compilation driver: MiniC [`Program`] → [`Binary`].

use std::fmt;

use asteria_lang::Program;

use crate::codegen::codegen_function;
use crate::encode::{encode_function, EncodeError};
use crate::isa::Arch;
use crate::lower::{lower_program, LowerError};
use crate::opt::optimize_program;
use crate::sbf::{Binary, Symbol, SymbolKind};

/// Errors produced by [`compile_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lowering failed (unknown variable, misplaced jump, …).
    Lower(LowerError),
    /// Encoding failed (immediate overflow on a fixed-width ISA).
    Encode(EncodeError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Lower(e) => write!(f, "lowering failed: {e}"),
            CompileError::Encode(e) => write!(f, "encoding failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

impl From<EncodeError> for CompileError {
    fn from(e: EncodeError) -> Self {
        CompileError::Encode(e)
    }
}

/// Optimization level, mirroring a compiler's `-O` flag. Cross-
/// optimization similarity (same source, different levels) is a classic
/// BCSD robustness axis and the paper's stated future work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// No IR optimization and no per-architecture character passes
    /// (if-conversion, loop rotation, strength reduction).
    O0,
    /// The default pipeline: constant folding, jump threading, dead-block
    /// removal, plus the per-architecture passes.
    #[default]
    O1,
}

/// Base virtual address of the first function.
const CODE_BASE: u64 = 0x1000;

/// Compiles a MiniC program for one target architecture.
///
/// The pipeline is lower → optimize → (per-arch pre-passes inside codegen)
/// → instruction selection → encoding, producing a self-contained SBF
/// binary whose symbol table lists defined functions first (in source
/// order) followed by externals in first-use order.
///
/// # Errors
///
/// See [`CompileError`].
///
/// # Examples
///
/// ```
/// use asteria_compiler::{compile_program, Arch};
///
/// let program = asteria_lang::parse("int f(int a) { return a + 1; }")?;
/// let binary = compile_program(&program, Arch::X86)?;
/// assert_eq!(binary.arch, Arch::X86);
/// assert_eq!(binary.symbols.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile_program(program: &Program, arch: Arch) -> Result<Binary, CompileError> {
    compile_program_with(program, arch, OptLevel::O1)
}

/// Compiles at an explicit optimization level.
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile_program_with(
    program: &Program,
    arch: Arch,
    opt: OptLevel,
) -> Result<Binary, CompileError> {
    let mut ir = lower_program(program)?;
    if opt == OptLevel::O1 {
        optimize_program(&mut ir);
    }

    // Symbol table: defined functions first, externals appended on demand.
    let mut names: Vec<String> = ir.functions.iter().map(|f| f.name.clone()).collect();
    let defined = names.len();
    let mut mach = Vec::with_capacity(ir.functions.len());
    for f in &ir.functions {
        let m = codegen_function(f, arch, opt, &mut |callee| {
            if let Some(i) = names.iter().position(|n| n == callee) {
                i as u32
            } else {
                names.push(callee.to_string());
                names.len() as u32 - 1
            }
        });
        mach.push(m);
    }

    let mut symbols = Vec::with_capacity(names.len());
    let mut offset = CODE_BASE;
    for (i, m) in mach.iter().enumerate() {
        let code = encode_function(&m.insts, arch)?;
        let len = code.len() as u64;
        symbols.push(Symbol {
            name: Some(names[i].clone()),
            kind: SymbolKind::Function,
            param_count: m.param_count as u32,
            frame_size: m.frame_size,
            offset,
            code,
        });
        // 16-byte function alignment, like a real linker.
        offset += (len + 15) & !15;
    }
    for name in names.iter().skip(defined) {
        symbols.push(Symbol {
            name: Some(name.clone()),
            kind: SymbolKind::External,
            param_count: 0,
            frame_size: 0,
            offset: 0,
            code: Vec::new(),
        });
    }

    Ok(Binary {
        arch,
        symbols,
        globals: ir.globals.iter().map(|(_, v)| *v).collect(),
        strings: ir.strings.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asteria_lang::parse;

    #[test]
    fn compiles_for_every_arch() {
        let p = parse(
            "int g = 3; int helper(int x) { return x * g; } \
             int f(int a, int b) { if (a > b) { return helper(a); } return helper(b); }",
        )
        .unwrap();
        for arch in Arch::ALL {
            let b = compile_program(&p, arch).unwrap();
            assert_eq!(b.function_indices().len(), 2);
            assert!(b.code_size() > 0);
            assert_eq!(b.globals, vec![3]);
        }
    }

    #[test]
    fn externals_follow_defined_functions() {
        let p = parse("int f() { return ext_a() + ext_b(); }").unwrap();
        let b = compile_program(&p, Arch::X64).unwrap();
        assert_eq!(b.symbols[0].kind, SymbolKind::Function);
        assert_eq!(b.symbols[1].kind, SymbolKind::External);
        assert_eq!(b.symbols[1].name.as_deref(), Some("ext_a"));
        assert_eq!(b.symbols[2].name.as_deref(), Some("ext_b"));
    }

    #[test]
    fn function_offsets_are_aligned_and_increasing() {
        let p = parse("int a() { return 1; } int b() { return 2; } int c() { return 3; }").unwrap();
        let b = compile_program(&p, Arch::X86).unwrap();
        let offs: Vec<u64> = b.symbols.iter().map(|s| s.offset).collect();
        assert!(offs.windows(2).all(|w| w[0] < w[1]));
        assert!(offs.iter().all(|o| o % 16 == 0));
    }

    #[test]
    fn code_sizes_differ_across_arches() {
        let p = parse(
            "int f(int a, int b) { return a % b + helper(a); } \
                       int helper(int x) { return x - 1; }",
        )
        .unwrap();
        let sizes: Vec<usize> = Arch::ALL
            .iter()
            .map(|arch| compile_program(&p, *arch).unwrap().code_size())
            .collect();
        // At least x86 vs the fixed-width ISAs must differ; PPC (mod
        // expansion) must exceed ARM.
        assert_ne!(sizes[0], sizes[2]);
        assert!(sizes[3] > sizes[2], "ppc {} <= arm {}", sizes[3], sizes[2]);
    }
}
