//! `asteria-decompiler` — disassembly, lifting and structuring for SBF
//! binaries: the reproduction's stand-in for IDA Pro + Hex-Rays.
//!
//! The paper's entire pipeline begins with "decompile the binary function
//! and extract its AST" (Fig. 3, step 1). This crate provides that step
//! for the four synthetic ISAs of `asteria-compiler`:
//!
//! 1. **Disassembly** — per-architecture decoding (in `asteria-compiler`)
//!    plus machine-CFG recovery ([`cfg`](mod@cfg)).
//! 2. **Lifting** — symbolic evaluation turns register shuffles back into
//!    expression trees; single-use temporaries are inlined and dead
//!    stores removed.
//! 3. **Structuring** — dominator/postdominator-based region structuring
//!    recovers `if`/`while`/`do-while`, with `goto` as the honest
//!    fallback.
//! 4. **Post-processing** — compound-assignment recovery on two-address
//!    ISAs and `switch` recovery from comparison chains.
//!
//! [`decompile_function`] runs every stage under the
//! [`DecompileLimits`] budgets. The result is a [`DFunction`] whose
//! [`ast`] is the decompiled AST the Asteria model consumes, plus the
//! callee-count feature used by the paper's similarity calibration
//! ([`callee_count`]).
//!
//! # Examples
//!
//! ```
//! use asteria_compiler::{compile_program, Arch};
//! use asteria_decompiler::{decompile_function, DStmt};
//!
//! let program = asteria_lang::parse(
//!     "int f(int n) { int s = 0; while (n > 0) { s += n; n -= 1; } return s; }",
//! )?;
//! // PPC compiles with loop rotation, so the while comes back as a
//! // guarded do-while; ARM keeps the plain while shape.
//! let ppc = compile_program(&program, Arch::Ppc)?;
//! let arm = compile_program(&program, Arch::Arm)?;
//! let f_ppc = decompile_function(&ppc, 0)?;
//! let f_arm = decompile_function(&arm, 0)?;
//! fn loops(body: &[DStmt]) -> usize {
//!     body.iter()
//!         .map(|s| match s {
//!             DStmt::While(_, b) => 1 + loops(b),
//!             DStmt::DoWhile(b, _) => 1 + loops(b),
//!             DStmt::If(_, t, e) => loops(t) + loops(e),
//!             _ => 0,
//!         })
//!         .sum()
//! }
//! assert_eq!(loops(&f_ppc.body), 1);
//! assert_eq!(loops(&f_arm.body), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// This crate is the robustness-critical layer of the extraction pipeline:
// it must degrade to typed errors on corrupt input, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ast;
pub mod cfg;
pub mod decompile;
pub mod display;
mod lift;
pub mod limits;
mod postproc;
mod structure;

pub use ast::{DAssignOp, DExpr, DFunction, DPlace, DStmt, DSwitchCase, VarRef};
pub use cfg::{build_cfg, Cfg, CfgBlock, TermKind};
pub use decompile::{callee_count, decompile_function, decompile_function_with, DecompileError};
pub use display::render_function;
pub use limits::{BudgetKind, DecompileLimits};
