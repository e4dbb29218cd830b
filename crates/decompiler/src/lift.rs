//! Lifting: machine instructions → expression-level statements.
//!
//! Works one basic block at a time. A symbolic register file maps each
//! machine register to the expression it currently holds; stores to the
//! frame, to globals, and calls become statements. A subsequent
//! *temporary-elimination* pass ([`optimize_lifted_with`]) inlines single-use
//! frame slots (the spilled virtual registers of the code generator) so
//! nested source expressions re-emerge, and deletes dead stores — this is
//! the expression-propagation step every real decompiler performs.

use std::collections::HashMap;

use asteria_compiler::{AluOp, Arch, CmpOp, MInst, Mem, UnAluOp};
use asteria_lang::{BinOp, UnOp};

use crate::ast::{DAssignOp, DExpr, DPlace, DStmt, VarRef};
use crate::cfg::{Cfg, TermKind};
use crate::decompile::DecompileError;
use crate::limits::BudgetKind;

/// A lifted basic block: straight-line statements plus terminator data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LiftedBlock {
    /// Statements in execution order.
    pub stmts: Vec<DStmt>,
    /// Branch condition when the block ends in a conditional branch.
    pub cond: Option<DExpr>,
    /// Return value when the block ends in a return.
    pub ret: Option<DExpr>,
}

fn alu_binop(op: AluOp) -> BinOp {
    match op {
        AluOp::Add => BinOp::Add,
        AluOp::Sub => BinOp::Sub,
        AluOp::Mul => BinOp::Mul,
        AluOp::Div => BinOp::Div,
        AluOp::Mod => BinOp::Mod,
        AluOp::And => BinOp::And,
        AluOp::Or => BinOp::Or,
        AluOp::Xor => BinOp::Xor,
        AluOp::Shl => BinOp::Shl,
        AluOp::Shr => BinOp::Shr,
    }
}

fn cmp_binop(op: CmpOp) -> BinOp {
    match op {
        CmpOp::Eq => BinOp::Eq,
        CmpOp::Ne => BinOp::Ne,
        CmpOp::Lt => BinOp::Lt,
        CmpOp::Le => BinOp::Le,
        CmpOp::Gt => BinOp::Gt,
        CmpOp::Ge => BinOp::Ge,
    }
}

/// Running count of AST nodes materialized while lifting one function.
///
/// Symbolic evaluation can blow up exponentially — an instruction like
/// `add r0, r0` doubles the expression held in `r0`, so forty of them in a
/// row would try to materialize a 2⁴⁰-node tree. The budget is charged
/// *before* each expression is constructed, using O(1) per-register size
/// bookkeeping, so the lifter errors out without ever allocating the
/// oversized tree.
struct NodeBudget {
    max: usize,
    total: usize,
}

impl NodeBudget {
    fn charge(&mut self, nodes: usize) -> Result<(), DecompileError> {
        self.total = self.total.saturating_add(nodes);
        if self.total > self.max {
            return Err(DecompileError::BudgetExceeded {
                kind: BudgetKind::AstNodes,
                limit: self.max,
                actual: self.total,
            });
        }
        Ok(())
    }
}

/// Lifts every block of a function under an AST-node budget.
///
/// `arch` drives the calling-convention model used to recover call
/// arguments; `param_count` (from the symbol table) names incoming
/// parameters `a0, a1, …`.
///
/// # Errors
///
/// Returns [`DecompileError::BudgetExceeded`] with
/// [`BudgetKind::AstNodes`] as soon as the
/// total number of materialized AST nodes would exceed `max_ast_nodes`.
pub(crate) fn lift_blocks_limited(
    insts: &[MInst],
    cfg: &Cfg,
    arch: Arch,
    param_count: u32,
    max_ast_nodes: usize,
) -> Result<Vec<LiftedBlock>, DecompileError> {
    let mut budget = NodeBudget {
        max: max_ast_nodes,
        total: 0,
    };
    cfg.blocks
        .iter()
        .map(|b| {
            lift_block(
                &insts[b.start as usize..b.end as usize],
                b.term,
                arch,
                param_count,
                &mut budget,
            )
        })
        .collect()
}

fn lift_block(
    insts: &[MInst],
    term: TermKind,
    arch: Arch,
    param_count: u32,
    budget: &mut NodeBudget,
) -> Result<LiftedBlock, DecompileError> {
    let arg_regs = arch.arg_regs();
    let mut regs: HashMap<u8, DExpr> = HashMap::new();
    // Size of the expression each register holds, maintained alongside
    // `regs` so budget checks never have to walk (or build) a tree.
    let mut sizes: HashMap<u8, usize> = HashMap::new();
    // Entry blocks read parameters out of argument registers; model every
    // block that way (non-entry blocks never read stale arg regs because
    // the code generator reloads explicitly).
    for (i, r) in arg_regs.iter().enumerate() {
        if (i as u32) < param_count {
            regs.insert(r.0, DExpr::Var(VarRef::Param(i as u32)));
            sizes.insert(r.0, 1);
        }
    }
    let reg_arg_count = arg_regs.len() as u32;

    let mut stmts: Vec<DStmt> = Vec::new();
    let mut pending: Vec<DExpr> = Vec::new();
    let mut pending_sizes: Vec<usize> = Vec::new();
    let mut cond = None;
    let mut ret = None;

    let read_reg = |regs: &HashMap<u8, DExpr>, r: u8| -> DExpr {
        regs.get(&r).cloned().unwrap_or(DExpr::Num(0))
    };
    // A register never written holds the `Num(0)` placeholder: size 1.
    let reg_size =
        |sizes: &HashMap<u8, usize>, r: u8| -> usize { sizes.get(&r).copied().unwrap_or(1) };
    let read_mem = |m: &Mem| -> DExpr {
        match m {
            Mem::Frame(s) => DExpr::Var(VarRef::Local(*s)),
            Mem::Global(s) => DExpr::Var(VarRef::Global(*s)),
            Mem::Arg(s) => DExpr::Var(VarRef::Param(reg_arg_count + s)),
        }
    };

    for inst in insts {
        match inst {
            MInst::MovImm(rd, v) => {
                budget.charge(1)?;
                regs.insert(rd.0, DExpr::Num(*v));
                sizes.insert(rd.0, 1);
            }
            MInst::Mov(rd, rs) => {
                let n = reg_size(&sizes, rs.0);
                budget.charge(n)?;
                let e = read_reg(&regs, rs.0);
                regs.insert(rd.0, e);
                sizes.insert(rd.0, n);
            }
            MInst::LoadStr(rd, sid) => {
                budget.charge(1)?;
                regs.insert(rd.0, DExpr::Str(*sid));
                sizes.insert(rd.0, 1);
            }
            MInst::Load(rd, m) => {
                budget.charge(1)?;
                regs.insert(rd.0, read_mem(m));
                sizes.insert(rd.0, 1);
            }
            MInst::Store(m, rs) => {
                budget.charge(reg_size(&sizes, rs.0).saturating_add(2))?;
                let value = read_reg(&regs, rs.0);
                match m {
                    Mem::Frame(s) => {
                        stmts.push(DStmt::Assign(
                            DAssignOp::Assign,
                            DPlace::Var(VarRef::Local(*s)),
                            value,
                        ));
                    }
                    Mem::Global(s) => {
                        stmts.push(DStmt::Assign(
                            DAssignOp::Assign,
                            DPlace::Var(VarRef::Global(*s)),
                            value,
                        ));
                    }
                    Mem::Arg(_) => { /* never emitted by the code generator */ }
                }
            }
            MInst::LoadIdx {
                rd,
                base,
                idx,
                len: _,
            } => {
                let n = reg_size(&sizes, idx.0).saturating_add(2);
                budget.charge(n)?;
                let i = read_reg(&regs, idx.0);
                regs.insert(rd.0, DExpr::Index(*base, Box::new(i)));
                sizes.insert(rd.0, n);
            }
            MInst::StoreIdx {
                rs,
                base,
                idx,
                len: _,
            } => {
                budget.charge(
                    reg_size(&sizes, idx.0)
                        .saturating_add(reg_size(&sizes, rs.0))
                        .saturating_add(3),
                )?;
                let i = read_reg(&regs, idx.0);
                let v = read_reg(&regs, rs.0);
                stmts.push(DStmt::Assign(
                    DAssignOp::Assign,
                    DPlace::Index(*base, Box::new(i)),
                    v,
                ));
            }
            MInst::Alu3(op, rd, ra, rb) => {
                let n = reg_size(&sizes, ra.0)
                    .saturating_add(reg_size(&sizes, rb.0))
                    .saturating_add(1);
                budget.charge(n)?;
                let e = DExpr::bin(alu_binop(*op), read_reg(&regs, ra.0), read_reg(&regs, rb.0));
                regs.insert(rd.0, e);
                sizes.insert(rd.0, n);
            }
            MInst::Alu2(op, rd, rs) => {
                let n = reg_size(&sizes, rd.0)
                    .saturating_add(reg_size(&sizes, rs.0))
                    .saturating_add(1);
                budget.charge(n)?;
                let e = DExpr::bin(alu_binop(*op), read_reg(&regs, rd.0), read_reg(&regs, rs.0));
                regs.insert(rd.0, e);
                sizes.insert(rd.0, n);
            }
            MInst::Alu2Mem(op, rd, m) => {
                let n = reg_size(&sizes, rd.0).saturating_add(2);
                budget.charge(n)?;
                let e = DExpr::bin(alu_binop(*op), read_reg(&regs, rd.0), read_mem(m));
                regs.insert(rd.0, e);
                sizes.insert(rd.0, n);
            }
            MInst::UnAlu(op, rd, rs) => {
                let n = reg_size(&sizes, rs.0).saturating_add(1);
                budget.charge(n)?;
                let inner = read_reg(&regs, rs.0);
                let e = match op {
                    UnAluOp::Neg => DExpr::Un(UnOp::Neg, Box::new(inner)),
                    UnAluOp::Not => DExpr::Un(UnOp::Not, Box::new(inner)),
                    UnAluOp::BitNot => DExpr::Un(UnOp::BitNot, Box::new(inner)),
                };
                regs.insert(rd.0, e);
                sizes.insert(rd.0, n);
            }
            MInst::SetCc(cc, rd, ra, rb) => {
                let n = reg_size(&sizes, ra.0)
                    .saturating_add(reg_size(&sizes, rb.0))
                    .saturating_add(1);
                budget.charge(n)?;
                let e = DExpr::bin(cmp_binop(*cc), read_reg(&regs, ra.0), read_reg(&regs, rb.0));
                regs.insert(rd.0, e);
                sizes.insert(rd.0, n);
            }
            MInst::CSel { rd, rc, ra, rb } => {
                let n = reg_size(&sizes, rc.0)
                    .saturating_add(reg_size(&sizes, ra.0))
                    .saturating_add(reg_size(&sizes, rb.0))
                    .saturating_add(1);
                budget.charge(n)?;
                let e = DExpr::Select(
                    Box::new(read_reg(&regs, rc.0)),
                    Box::new(read_reg(&regs, ra.0)),
                    Box::new(read_reg(&regs, rb.0)),
                );
                regs.insert(rd.0, e);
                sizes.insert(rd.0, n);
            }
            MInst::Push(r) => {
                let n = reg_size(&sizes, r.0);
                budget.charge(n)?;
                pending.push(read_reg(&regs, r.0));
                pending_sizes.push(n);
            }
            MInst::Call { sym, argc } => {
                let argc = *argc as usize;
                let mut args = Vec::with_capacity(argc.min(insts.len()));
                let mut n: usize = 1;
                if arg_regs.is_empty() {
                    let cut = pending.len().saturating_sub(argc);
                    let take = pending.split_off(cut);
                    n = pending_sizes
                        .split_off(cut)
                        .into_iter()
                        .fold(n, usize::saturating_add);
                    args.extend(take.into_iter().rev());
                } else {
                    let in_regs = argc.min(arg_regs.len());
                    for r in &arg_regs[..in_regs] {
                        n = n.saturating_add(reg_size(&sizes, r.0));
                    }
                    budget.charge(n)?;
                    for r in &arg_regs[..in_regs] {
                        args.push(read_reg(&regs, r.0));
                    }
                    let cut = pending.len().saturating_sub(argc - in_regs);
                    let take = pending.split_off(cut);
                    n = pending_sizes
                        .split_off(cut)
                        .into_iter()
                        .fold(n, usize::saturating_add);
                    args.extend(take);
                }
                // Lifter artifact: the x64 ABI zero/sign-extends register
                // arguments, which surfaces as integer casts in decompiled
                // output (cf. Hex-Rays on x86-64).
                if arch == Arch::X64 {
                    n = n.saturating_add(args.len());
                    budget.charge(args.len())?;
                    args = args.into_iter().map(|a| DExpr::Cast(Box::new(a))).collect();
                }
                budget.charge(1)?;
                regs.insert(0, DExpr::Call { sym: *sym, args });
                sizes.insert(0, n);
            }
            MInst::Brnz(rc, _) => {
                budget.charge(reg_size(&sizes, rc.0))?;
                cond = Some(read_reg(&regs, rc.0));
            }
            MInst::Jmp(_) | MInst::Nop => {}
            MInst::Ret => {
                budget.charge(reg_size(&sizes, 0))?;
                ret = Some(read_reg(&regs, 0));
            }
        }
    }
    if term == TermKind::Ret && ret.is_none() {
        ret = Some(DExpr::Num(0));
    }
    Ok(LiftedBlock { stmts, cond, ret })
}

// ---------------------------------------------------------------------------
// Temporary elimination
// ---------------------------------------------------------------------------

fn expr_reads(e: &DExpr) -> Vec<VarRef> {
    let mut v = Vec::new();
    e.reads(&mut v);
    v
}

fn stmt_reads(s: &DStmt) -> Vec<VarRef> {
    match s {
        DStmt::Assign(op, place, e) => {
            let mut v = expr_reads(e);
            if let DPlace::Index(_, idx) = place {
                v.extend(expr_reads(idx));
            }
            // Compound assignment also reads its target.
            if let (DAssignOp::Compound(_), DPlace::Var(var)) = (op, place) {
                v.push(*var);
            }
            v
        }
        DStmt::Expr(e) | DStmt::Return(Some(e)) => expr_reads(e),
        _ => Vec::new(),
    }
}

fn stmt_write(s: &DStmt) -> Option<VarRef> {
    match s {
        DStmt::Assign(_, DPlace::Var(v), _) => Some(*v),
        DStmt::Assign(_, DPlace::Index(base, _), _) => Some(VarRef::Local(*base)),
        _ => None,
    }
}

fn stmt_has_call(s: &DStmt) -> bool {
    match s {
        DStmt::Assign(_, place, e) => {
            e.has_call() || matches!(place, DPlace::Index(_, idx) if idx.has_call())
        }
        DStmt::Expr(e) | DStmt::Return(Some(e)) => e.has_call(),
        _ => false,
    }
}

/// Substitutes `Var(target)` with `replacement` everywhere in `e`.
fn subst(e: &mut DExpr, target: VarRef, replacement: &DExpr) {
    match e {
        DExpr::Var(v) if *v == target => *e = replacement.clone(),
        DExpr::Num(_) | DExpr::Str(_) | DExpr::Var(_) => {}
        DExpr::Index(_, i) => subst(i, target, replacement),
        DExpr::Call { args, .. } => {
            for a in args {
                subst(a, target, replacement);
            }
        }
        DExpr::Un(_, inner) | DExpr::Cast(inner) => subst(inner, target, replacement),
        DExpr::Bin(_, a, b) => {
            subst(a, target, replacement);
            subst(b, target, replacement);
        }
        DExpr::Select(c, a, b) => {
            subst(c, target, replacement);
            subst(a, target, replacement);
            subst(b, target, replacement);
        }
    }
}

fn subst_stmt(s: &mut DStmt, target: VarRef, replacement: &DExpr) {
    match s {
        DStmt::Assign(_, place, e) => {
            if let DPlace::Index(_, idx) = place {
                subst(idx, target, replacement);
            }
            subst(e, target, replacement);
        }
        DStmt::Expr(e) | DStmt::Return(Some(e)) => subst(e, target, replacement),
        _ => {}
    }
}

/// Global read/write counts per variable across all lifted blocks.
fn usage_counts(blocks: &[LiftedBlock]) -> (HashMap<VarRef, usize>, HashMap<VarRef, usize>) {
    let mut reads: HashMap<VarRef, usize> = HashMap::new();
    let mut writes: HashMap<VarRef, usize> = HashMap::new();
    for b in blocks {
        for s in &b.stmts {
            for r in stmt_reads(s) {
                *reads.entry(r).or_default() += 1;
            }
            if let Some(w) = stmt_write(s) {
                *writes.entry(w).or_default() += 1;
            }
        }
        for e in b.cond.iter().chain(b.ret.iter()) {
            for r in expr_reads(e) {
                *reads.entry(r).or_default() += 1;
            }
        }
    }
    (reads, writes)
}

/// Inlines single-use frame-slot temporaries and removes dead stores.
///
/// A slot is inlined only when it has exactly one write and one read,
/// both in the same block, with no interfering statement in between
/// (an interfering statement writes a variable the inlined expression
/// reads, or involves a call when ordering could matter).
///
/// `full_inline = false` restricts inlining to *leaf* expressions
/// (variables and constants): compound temporaries stay as separate
/// statements. The x86 lifter runs in this mode — 32-bit decompiler
/// output is famously temp-heavy due to register pressure — which is one
/// of the larger honest per-architecture AST differences.
pub(crate) fn optimize_lifted_with(blocks: &mut [LiftedBlock], full_inline: bool) {
    for _round in 0..8 {
        let mut changed = false;
        let (reads, writes) = usage_counts(blocks);
        for b in blocks.iter_mut() {
            let mut i = 0;
            while i < b.stmts.len() {
                let candidate = match &b.stmts[i] {
                    DStmt::Assign(DAssignOp::Assign, DPlace::Var(v @ VarRef::Local(_)), e) => {
                        if reads.get(v).copied().unwrap_or(0) == 1
                            && writes.get(v).copied().unwrap_or(0) == 1
                        {
                            Some((*v, e.clone()))
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                let Some((var, expr)) = candidate else {
                    i += 1;
                    continue;
                };
                let leaf = matches!(expr, DExpr::Var(_) | DExpr::Num(_) | DExpr::Str(_));
                let expr_read_vars = expr_reads(&expr);
                let expr_calls = expr.has_call();
                // Find the read among later statements in this block.
                let mut target: Option<usize> = None; // index into stmts, or None → cond/ret
                let mut in_terminator = false;
                let mut blocked = false;
                for j in i + 1..b.stmts.len() {
                    let reads_here = stmt_reads(&b.stmts[j]);
                    if reads_here.contains(&var) {
                        target = Some(j);
                        break;
                    }
                    // Interference checks for hoisting `expr` past stmt j.
                    let w = stmt_write(&b.stmts[j]);
                    if let Some(w) = w {
                        if expr_read_vars.contains(&w) || w == var {
                            blocked = true;
                            break;
                        }
                        // A call in expr must not move past global writes.
                        if expr_calls && matches!(w, VarRef::Global(_)) {
                            blocked = true;
                            break;
                        }
                    }
                    if stmt_has_call(&b.stmts[j])
                        && (expr_calls
                            || expr_read_vars
                                .iter()
                                .any(|r| matches!(r, VarRef::Global(_))))
                    {
                        blocked = true;
                        break;
                    }
                }
                if target.is_none() && !blocked {
                    let term_reads: Vec<VarRef> = b
                        .cond
                        .iter()
                        .chain(b.ret.iter())
                        .flat_map(expr_reads)
                        .collect();
                    if term_reads.contains(&var) {
                        in_terminator = true;
                    }
                }
                if blocked || (target.is_none() && !in_terminator) {
                    i += 1;
                    continue;
                }
                // Restricted mode (x86): compound temporaries survive as
                // statements, but expressions always fold into the block
                // terminator — decompilers show full conditions in `if`
                // and `return` even on temp-heavy targets.
                if !full_inline && !leaf && !in_terminator {
                    i += 1;
                    continue;
                }
                // Perform the substitution and drop the defining statement.
                let def = b.stmts.remove(i);
                let DStmt::Assign(_, _, expr) = def else {
                    unreachable!()
                };
                if let Some(j) = target {
                    subst_stmt(&mut b.stmts[j - 1], var, &expr);
                } else {
                    if let Some(c) = &mut b.cond {
                        subst(c, var, &expr);
                    }
                    if let Some(r) = &mut b.ret {
                        subst(r, var, &expr);
                    }
                }
                changed = true;
            }
        }
        // Dead-store elimination: locals never read anywhere.
        let (reads, _) = usage_counts(blocks);
        for b in blocks.iter_mut() {
            b.stmts.retain_mut(|s| match s {
                DStmt::Assign(DAssignOp::Assign, DPlace::Var(v @ VarRef::Local(_)), e)
                    if reads.get(v).copied().unwrap_or(0) == 0 =>
                {
                    if e.has_call() {
                        *s = DStmt::Expr(e.clone());
                        true
                    } else {
                        changed = true;
                        false
                    }
                }
                _ => true,
            });
        }
        if !changed {
            break;
        }
    }
}

/// Renames locals that are mere parameter copies (`v3 = a0` being the only
/// write to `v3`) directly to the parameter, as interactive decompilers do.
pub(crate) fn propagate_params(blocks: &mut [LiftedBlock]) {
    let (_, writes) = usage_counts(blocks);
    // Collect rename candidates.
    let mut renames: Vec<(VarRef, VarRef)> = Vec::new();
    for b in blocks.iter() {
        for s in &b.stmts {
            if let DStmt::Assign(
                DAssignOp::Assign,
                DPlace::Var(local @ VarRef::Local(_)),
                DExpr::Var(param @ VarRef::Param(_)),
            ) = s
            {
                if writes.get(local).copied().unwrap_or(0) == 1 {
                    renames.push((*local, *param));
                }
            }
        }
    }
    for (local, param) in renames {
        let replacement = DExpr::Var(param);
        for b in blocks.iter_mut() {
            b.stmts.retain(|s| {
                !matches!(s, DStmt::Assign(DAssignOp::Assign, DPlace::Var(v), DExpr::Var(p))
                    if *v == local && *p == param)
            });
            for s in &mut b.stmts {
                subst_stmt(s, local, &replacement);
            }
            if let Some(c) = &mut b.cond {
                subst(c, local, &replacement);
            }
            if let Some(r) = &mut b.ret {
                subst(r, local, &replacement);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use asteria_compiler::{compile_program, decode_function};
    use asteria_lang::parse;

    /// Strips x64 cast artifacts for convention-independent assertions.
    fn uncast(e: &DExpr) -> &DExpr {
        match e {
            DExpr::Cast(inner) => inner,
            other => other,
        }
    }

    fn lift_fn(src: &str, arch: Arch) -> Vec<LiftedBlock> {
        let p = parse(src).unwrap();
        let b = compile_program(&p, arch).unwrap();
        let idx = b.function_indices()[0];
        let insts = decode_function(&b.symbols[idx].code, arch).unwrap();
        let cfg = build_cfg(&insts);
        let mut blocks =
            lift_blocks_limited(&insts, &cfg, arch, b.symbols[idx].param_count, usize::MAX)
                .unwrap();
        optimize_lifted_with(&mut blocks, true);
        propagate_params(&mut blocks);
        blocks
    }

    #[test]
    fn straightline_expression_is_rebuilt() {
        for arch in Arch::ALL {
            let blocks = lift_fn("int f(int a, int b) { return a + b * 2; }", arch);
            assert_eq!(blocks.len(), 1, "{arch}");
            let ret = blocks[0].ret.as_ref().expect("return value");
            // After temp elimination the full tree must be nested:
            // a0 + (a1 * 2)  — 5 nodes.
            assert_eq!(ret.size(), 5, "{arch}: got {ret:?}");
            assert!(
                blocks[0].stmts.is_empty(),
                "{arch}: leftover stmts {:?}",
                blocks[0].stmts
            );
        }
    }

    #[test]
    fn condition_is_rebuilt_into_branch() {
        for arch in [Arch::X86, Arch::X64, Arch::Ppc] {
            let blocks = lift_fn(
                "int f(int a) { if (a > 3) { return ext(a); } return 0; }",
                arch,
            );
            let cond_block = blocks
                .iter()
                .find(|b| b.cond.is_some())
                .expect("cond block");
            let c = cond_block.cond.as_ref().unwrap();
            assert!(
                matches!(c, DExpr::Bin(BinOp::Gt, _, _)),
                "{arch}: condition not recovered: {c:?}"
            );
        }
    }

    #[test]
    fn call_arguments_recovered_on_all_conventions() {
        for arch in Arch::ALL {
            let blocks = lift_fn(
                "int f(int a, int b) { return helper(a, b, a + b, 7); }",
                arch,
            );
            let ret = blocks
                .iter()
                .filter_map(|b| b.ret.as_ref())
                .next()
                .expect("ret");
            match ret {
                DExpr::Call { args, .. } => {
                    assert_eq!(args.len(), 4, "{arch}");
                    let args: Vec<&DExpr> = args.iter().map(uncast).collect();
                    assert_eq!(*args[0], DExpr::Var(VarRef::Param(0)), "{arch}");
                    assert_eq!(*args[1], DExpr::Var(VarRef::Param(1)), "{arch}");
                    assert!(
                        matches!(&args[2], DExpr::Bin(BinOp::Add, _, _)),
                        "{arch}: {:?}",
                        args[2]
                    );
                    assert_eq!(*args[3], DExpr::Num(7), "{arch}");
                }
                other => panic!("{arch}: return is not a call: {other:?}"),
            }
        }
    }

    #[test]
    fn many_args_cross_convention() {
        for arch in Arch::ALL {
            let blocks = lift_fn(
                "int f(int a) { return h(1, 2, 3, 4, 5, 6, 7, 8, 9, 10); }",
                arch,
            );
            let ret = blocks.iter().filter_map(|b| b.ret.as_ref()).next().unwrap();
            match ret {
                DExpr::Call { args, .. } => {
                    let got: Vec<i64> = args
                        .iter()
                        .map(|a| match uncast(a) {
                            DExpr::Num(n) => *n,
                            other => panic!("{arch}: non-constant arg {other:?}"),
                        })
                        .collect();
                    assert_eq!(got, (1..=10).collect::<Vec<i64>>(), "{arch}");
                }
                other => panic!("{arch}: {other:?}"),
            }
        }
    }

    #[test]
    fn array_accesses_lift_to_index() {
        let blocks = lift_fn(
            "int f(int a) { int buf[4]; buf[a] = a * 2; return buf[a]; }",
            Arch::Arm,
        );
        let has_index_store = blocks.iter().any(|b| {
            b.stmts
                .iter()
                .any(|s| matches!(s, DStmt::Assign(_, DPlace::Index(_, _), _)))
        });
        assert!(has_index_store);
        let ret = blocks.iter().filter_map(|b| b.ret.as_ref()).next().unwrap();
        assert!(matches!(ret, DExpr::Index(_, _)), "{ret:?}");
    }

    #[test]
    fn arm_csel_lifts_to_select() {
        let blocks = lift_fn(
            "int f(int a) { int x = 0; if (a > 0) { x = 1; } else { x = 2; } return x; }",
            Arch::Arm,
        );
        // If-converted: a single block that contains a Select expression
        // (in an assignment or directly in the return).
        assert_eq!(blocks.len(), 1);
        fn contains_select(e: &DExpr) -> bool {
            match e {
                DExpr::Select(_, _, _) => true,
                DExpr::Bin(_, a, b) => contains_select(a) || contains_select(b),
                DExpr::Un(_, i) | DExpr::Index(_, i) => contains_select(i),
                DExpr::Call { args, .. } => args.iter().any(contains_select),
                _ => false,
            }
        }
        let found = blocks[0]
            .stmts
            .iter()
            .any(|s| matches!(s, DStmt::Assign(_, _, e) if contains_select(e)))
            || blocks[0].ret.as_ref().is_some_and(contains_select);
        assert!(found, "{:?}", blocks[0]);
    }

    #[test]
    fn unused_call_result_becomes_expr_stmt() {
        let blocks = lift_fn(r#"int f(int a) { log_it(a); return a; }"#, Arch::X64);
        let has_expr_call = blocks.iter().any(|b| {
            b.stmts
                .iter()
                .any(|s| matches!(s, DStmt::Expr(DExpr::Call { .. })))
        });
        assert!(has_expr_call, "{blocks:?}");
    }

    #[test]
    fn global_reads_not_hoisted_past_calls() {
        // g is read, then a call could mutate it, then g is used again.
        let blocks = lift_fn(
            "int g = 1; int f(int a) { int x = g; mutate(a); return x + g; }",
            Arch::X64,
        );
        // The first read of g must remain a separate statement before the
        // call (x = g), not be inlined into the return.
        let entry = &blocks[0];
        let keeps_copy = entry.stmts.iter().any(|s| {
            matches!(
                s,
                DStmt::Assign(
                    _,
                    DPlace::Var(VarRef::Local(_)),
                    DExpr::Var(VarRef::Global(0))
                )
            )
        });
        assert!(keeps_copy, "g read was unsafely inlined: {entry:?}");
    }

    #[test]
    fn param_copies_are_propagated() {
        let blocks = lift_fn("int f(int a, int b) { return a - b; }", Arch::Ppc);
        let ret = blocks[0].ret.as_ref().unwrap();
        assert_eq!(
            *ret,
            DExpr::bin(
                BinOp::Sub,
                DExpr::Var(VarRef::Param(0)),
                DExpr::Var(VarRef::Param(1))
            )
        );
    }
}
