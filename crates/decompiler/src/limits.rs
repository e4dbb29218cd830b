//! Resource budgets for decompilation.
//!
//! The paper's large-scale evaluation (5,979 raw firmware images, §V)
//! means the decompiler will meet functions it cannot reasonably lift:
//! corrupt code sections, adversarial inputs, or pathological instruction
//! sequences whose symbolic evaluation blows up exponentially. A
//! [`DecompileLimits`] budget bounds each pipeline stage — decoding,
//! CFG recovery, lifting, structuring — so such functions terminate with
//! a typed [`BudgetExceeded`](crate::DecompileError::BudgetExceeded)
//! error instead of hanging or exhausting memory, and the corpus-level
//! driver can skip them and move on.

use std::fmt;

/// Which budget a function exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// Too many decoded machine instructions.
    Instructions,
    /// Too many basic blocks in the recovered CFG.
    BasicBlocks,
    /// Too many AST nodes materialized during lifting (this is the guard
    /// against exponential symbolic-expression growth).
    AstNodes,
    /// Too many structuring iterations.
    StructureIters,
}

impl BudgetKind {
    /// All kinds, in declaration order — used to pre-register metric
    /// series so exposition files always carry every kind, even at zero.
    pub const ALL: [BudgetKind; 4] = [
        BudgetKind::Instructions,
        BudgetKind::BasicBlocks,
        BudgetKind::AstNodes,
        BudgetKind::StructureIters,
    ];

    /// Stable `snake_case` label for metric series
    /// (`asteria_budget_exceeded_total{kind="..."}`).
    pub fn label(&self) -> &'static str {
        match self {
            BudgetKind::Instructions => "instructions",
            BudgetKind::BasicBlocks => "basic_blocks",
            BudgetKind::AstNodes => "ast_nodes",
            BudgetKind::StructureIters => "structure_iters",
        }
    }
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BudgetKind::Instructions => "instructions",
            BudgetKind::BasicBlocks => "basic blocks",
            BudgetKind::AstNodes => "AST nodes",
            BudgetKind::StructureIters => "structuring iterations",
        };
        f.write_str(name)
    }
}

/// Per-function resource budget threaded through the decompiler pipeline.
///
/// The [`Default`] limits are far above anything the workspace's own code
/// generator emits, so they only fire on corrupt or adversarial input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompileLimits {
    /// Maximum decoded instructions per function.
    pub max_instructions: usize,
    /// Maximum basic blocks per function CFG.
    pub max_basic_blocks: usize,
    /// Maximum AST nodes materialized while lifting one function. Both the
    /// running total across statements and every individual symbolic
    /// register expression are held under this bound, so a register that
    /// doubles its expression each instruction errors out after ~log2(max)
    /// steps instead of allocating gigabytes.
    pub max_ast_nodes: usize,
    /// Maximum structurer region-walk iterations per function.
    pub max_structure_iters: usize,
}

impl Default for DecompileLimits {
    fn default() -> Self {
        DecompileLimits {
            max_instructions: 1 << 20,
            max_basic_blocks: 1 << 16,
            max_ast_nodes: 1 << 22,
            max_structure_iters: 1 << 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_generous() {
        let l = DecompileLimits::default();
        assert!(l.max_instructions >= 1 << 16);
        assert!(l.max_basic_blocks >= 1 << 12);
        assert!(l.max_ast_nodes >= 1 << 20);
        assert!(l.max_structure_iters >= 1 << 16);
    }

    #[test]
    fn kinds_display_distinctly() {
        let kinds = [
            BudgetKind::Instructions,
            BudgetKind::BasicBlocks,
            BudgetKind::AstNodes,
            BudgetKind::StructureIters,
        ];
        let names: Vec<String> = kinds.iter().map(|k| k.to_string()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
