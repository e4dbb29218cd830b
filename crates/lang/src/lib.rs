//! `asteria-lang` — the MiniC language frontend.
//!
//! The Asteria paper compiles 260 open-source C packages with buildroot to
//! obtain cross-architecture binaries. This reproduction replaces that gated
//! toolchain input with MiniC, a small C-like language whose statement and
//! expression forms cover the paper's Table I node vocabulary: `if`,
//! `while`, `do/while`, `for`, `switch`, `return`, `break`, `continue`,
//! assignments (plain and compound), comparisons, arithmetic and bit
//! operations, pre/post increment/decrement, indexing, calls, numbers and
//! strings.
//!
//! The crate provides:
//! - the source [`ast`] ([`Program`], [`Function`], [`Stmt`], [`Expr`]);
//! - a [`lexer`] and recursive-descent [`parser`] ([`parse`]);
//! - a [`pretty`]-printer whose output re-parses identically;
//! - a reference [`Interp`]reter defining MiniC semantics, used for
//!   differential testing of the compiler and decompiler.
//!
//! # Examples
//!
//! ```
//! let program = asteria_lang::parse(
//!     "int sum_to(int n) { int s = 0; for (int i = 1; i <= n; i++) { s += i; } return s; }",
//! )?;
//! let mut interp = asteria_lang::Interp::new(&program);
//! assert_eq!(interp.call("sum_to", &[4])?, 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;

pub use ast::{
    AssignOp, BinOp, Expr, Function, Global, IncDec, LValue, Param, Program, Stmt, SwitchCase, UnOp,
};
pub use interp::{external_call_result, EvalError, Interp};
pub use lexer::{LexError, Token};
pub use parser::{parse, ParseError};
pub use pretty::print_program;
