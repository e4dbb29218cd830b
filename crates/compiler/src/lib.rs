//! `asteria-compiler` — a cross-compiling toolchain for four synthetic ISAs.
//!
//! This crate is the reproduction's substitute for the paper's gated
//! gcc/buildroot toolchain. It compiles MiniC programs to self-contained
//! [`Binary`] images for four architectures whose differences mirror the
//! axes the paper's evaluation spans:
//!
//! | ISA | args | ALU | special |
//! |-----|------|-----|---------|
//! | x86 | stack (pushed) | two-address, memory operands | variable-width encoding |
//! | x64 | 6 registers | two-address | prefixed variable-width encoding |
//! | ARM | 4 registers | three-address | conditional select → if-conversion |
//! | PPC | 8 registers | three-address | no `%`/negate (expanded); big-endian fixed-width |
//!
//! The same source therefore yields binaries with different instruction
//! counts, basic-block structure (ARM's if-conversion reproduces the
//! paper's Fig. 2 block collapse) and byte-level encodings — while the
//! [`Vm`] proves all of them compute the same function as the MiniC
//! reference interpreter.
//!
//! # Examples
//!
//! ```
//! use asteria_compiler::{compile_program, Arch, Vm};
//!
//! let program = asteria_lang::parse(
//!     "int clamp(int x, int hi) { if (x > hi) { return hi; } return x; }",
//! )?;
//! for arch in Arch::ALL {
//!     let binary = compile_program(&program, arch)?;
//!     let sym = binary.symbol_index("clamp").unwrap();
//!     assert_eq!(Vm::new(&binary).call(sym, &[9, 5])?, 5);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codegen;
pub mod compile;
pub mod encode;
mod ir;
pub mod isa;
mod lower;
mod opt;
pub mod sbf;
pub mod vm;

pub use codegen::block_boundaries;
pub use compile::{compile_program, compile_program_with, CompileError, OptLevel};
pub use encode::{decode_function, encode_function, DecodeError, EncodeError};
pub use isa::{AluOp, Arch, CmpOp, MInst, Mem, Reg, UnAluOp};
pub use lower::LowerError;
pub use sbf::{Binary, Symbol, SymbolKind};
pub use vm::{Vm, VmError};
