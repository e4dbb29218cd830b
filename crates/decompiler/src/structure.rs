//! Control-flow structuring: machine CFG → structured statements.
//!
//! A region-following structurer in the style of classic decompilers:
//! loops are discovered through back edges and natural-loop sets, branches
//! through immediate postdominators, and anything that refuses to fit
//! (multi-exit loops, overlapping regions) degrades gracefully to `goto` —
//! which is exactly why the paper's Table I has a `goto` node type.

use std::collections::{BTreeMap, BTreeSet};

use asteria_lang::UnOp;

use crate::ast::{DExpr, DStmt};
use crate::cfg::{back_edges, dominators, natural_loop, postdominators, Cfg, TermKind};
use crate::decompile::DecompileError;
use crate::lift::LiftedBlock;
use crate::limits::BudgetKind;

struct LoopEnv {
    exit: Option<usize>,
    continue_target: usize,
}

struct Structurer<'a> {
    cfg: &'a Cfg,
    lifted: &'a [LiftedBlock],
    ipdom: Vec<Option<usize>>,
    /// header → latches
    loops: BTreeMap<usize, Vec<usize>>,
    /// headers currently being emitted (guards re-entry)
    active: BTreeSet<usize>,
    budget: usize,
    /// Region-walk iterations so far, checked against `max_iters`.
    iters: usize,
    max_iters: usize,
    /// Set when `max_iters` was hit; the walk then drains via `goto` and
    /// the caller turns the partial result into a typed error.
    exceeded: bool,
}

/// Structures a lifted function body into statements under an iteration
/// budget.
///
/// The structurer degrades pathological regions to `goto`, so it always
/// terminates; the budget additionally bounds the total number of
/// region-walk iterations and reports a typed error when the bound is
/// hit, distinguishing "structured with gotos" from "adversarially
/// large".
///
/// # Errors
///
/// Returns [`DecompileError::BudgetExceeded`] with
/// [`BudgetKind::StructureIters`] when
/// the walk exceeds `max_structure_iters` iterations.
pub(crate) fn structure_limited(
    cfg: &Cfg,
    lifted: &[LiftedBlock],
    max_structure_iters: usize,
) -> Result<Vec<DStmt>, DecompileError> {
    let idom = dominators(cfg);
    let mut loops: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (latch, header) in back_edges(cfg, &idom) {
        loops.entry(header).or_default().push(latch);
    }
    let mut s = Structurer {
        cfg,
        lifted,
        ipdom: postdominators(cfg),
        loops,
        active: BTreeSet::new(),
        budget: cfg.blocks.len() * 8 + 64,
        iters: 0,
        max_iters: max_structure_iters,
        exceeded: false,
    };
    let mut out = Vec::new();
    s.region(Some(0), None, None, &mut out);
    if s.exceeded {
        return Err(DecompileError::BudgetExceeded {
            kind: BudgetKind::StructureIters,
            limit: max_structure_iters,
            actual: s.iters,
        });
    }
    Ok(out)
}

fn negate(e: DExpr) -> DExpr {
    match e {
        DExpr::Un(UnOp::Not, inner) => *inner,
        DExpr::Bin(op, a, b) if op.is_comparison() => {
            use asteria_lang::BinOp::*;
            let flipped = match op {
                Eq => Ne,
                Ne => Eq,
                Lt => Ge,
                Le => Gt,
                Gt => Le,
                Ge => Lt,
                _ => unreachable!(),
            };
            DExpr::Bin(flipped, a, b)
        }
        other => DExpr::Un(UnOp::Not, Box::new(other)),
    }
}

impl<'a> Structurer<'a> {
    /// Emits the region starting at `start`, stopping when reaching `stop`.
    fn region(
        &mut self,
        start: Option<usize>,
        stop: Option<usize>,
        env: Option<&LoopEnv>,
        out: &mut Vec<DStmt>,
    ) {
        let mut cur = start;
        while let Some(node) = cur {
            if Some(node) == stop {
                return;
            }
            self.iters += 1;
            if self.iters > self.max_iters {
                // Drain the rest of the walk through the goto fallback;
                // `structure_limited` reports the overrun as an error.
                self.exceeded = true;
                self.budget = 0;
            }
            if self.budget == 0 {
                out.push(DStmt::Goto(node as u32));
                return;
            }
            self.budget -= 1;
            if let Some(env) = env {
                if Some(node) == env.exit && Some(node) != stop {
                    out.push(DStmt::Break);
                    return;
                }
                if node == env.continue_target && Some(node) != stop {
                    out.push(DStmt::Continue);
                    return;
                }
            }
            // Loop header not yet being emitted → emit the whole loop.
            if self.loops.contains_key(&node) && !self.active.contains(&node) {
                cur = self.emit_loop(node, out);
                continue;
            }
            let block = &self.cfg.blocks[node];
            match block.term {
                TermKind::Ret => {
                    out.extend(self.lifted[node].stmts.iter().cloned());
                    out.push(DStmt::Return(self.lifted[node].ret.clone()));
                    return;
                }
                TermKind::Jump => {
                    out.extend(self.lifted[node].stmts.iter().cloned());
                    cur = block.succs.first().copied();
                }
                TermKind::Cond => {
                    out.extend(self.lifted[node].stmts.iter().cloned());
                    let cond = self.lifted[node].cond.clone().unwrap_or(DExpr::Num(1));
                    let taken = block.succs[0];
                    let fall = block.succs[1];
                    let join = self.ipdom[node];
                    let mut then_body = Vec::new();
                    self.region(Some(taken), join, env, &mut then_body);
                    let mut else_body = Vec::new();
                    self.region(Some(fall), join, env, &mut else_body);
                    // Normalize: prefer a non-empty then-arm.
                    let stmt = if then_body.is_empty() && !else_body.is_empty() {
                        DStmt::If(negate(cond), else_body, Vec::new())
                    } else {
                        DStmt::If(cond, then_body, else_body)
                    };
                    out.push(stmt);
                    cur = join;
                }
            }
        }
    }

    /// Emits a loop headed at `header`; returns the continuation node.
    fn emit_loop(&mut self, header: usize, out: &mut Vec<DStmt>) -> Option<usize> {
        let latches = self.loops.get(&header).cloned().unwrap_or_default();
        let mut loop_set: BTreeSet<usize> = BTreeSet::new();
        for latch in &latches {
            loop_set.extend(natural_loop(self.cfg, *latch, header));
        }
        // Exit edges: loop node → outside node.
        let mut exits: Vec<(usize, usize)> = Vec::new();
        for &n in &loop_set {
            for &s in &self.cfg.blocks[n].succs {
                if !loop_set.contains(&s) {
                    exits.push((n, s));
                }
            }
        }
        self.active.insert(header);

        let header_block = &self.cfg.blocks[header];
        let result_cont;

        // Form 1: while (cond) — header is conditional and exits the loop.
        let header_is_while = header_block.term == TermKind::Cond
            && (!loop_set.contains(&header_block.succs[0])
                || !loop_set.contains(&header_block.succs[1]))
            && self.lifted[header].stmts.is_empty();
        // Form 2: do { } while (cond) — unique latch is conditional.
        let single_latch = latches.len() == 1;
        let latch = latches[0];
        let latch_is_dowhile = !header_is_while
            && single_latch
            && self.cfg.blocks[latch].term == TermKind::Cond
            && self.cfg.blocks[latch].succs.contains(&header)
            && (!loop_set.contains(&self.cfg.blocks[latch].succs[0])
                || !loop_set.contains(&self.cfg.blocks[latch].succs[1]));

        if header_is_while {
            let taken = header_block.succs[0];
            let fall = header_block.succs[1];
            let (mut cond, body_entry, exit) = if loop_set.contains(&taken) {
                (
                    self.lifted[header].cond.clone().unwrap_or(DExpr::Num(1)),
                    taken,
                    fall,
                )
            } else {
                (
                    negate(self.lifted[header].cond.clone().unwrap_or(DExpr::Num(1))),
                    fall,
                    taken,
                )
            };
            // `while (1)` appears when the condition is a constant.
            if let DExpr::Num(n) = cond {
                cond = DExpr::Num((n != 0) as i64);
            }
            let env = LoopEnv {
                exit: Some(exit),
                continue_target: header,
            };
            let mut body = Vec::new();
            self.region(Some(body_entry), Some(header), Some(&env), &mut body);
            out.push(DStmt::While(cond, body));
            result_cont = Some(exit);
        } else if latch_is_dowhile {
            let taken = self.cfg.blocks[latch].succs[0];
            let fall = self.cfg.blocks[latch].succs[1];
            let (cond, exit) = if taken == header {
                (
                    self.lifted[latch].cond.clone().unwrap_or(DExpr::Num(0)),
                    fall,
                )
            } else {
                (
                    negate(self.lifted[latch].cond.clone().unwrap_or(DExpr::Num(0))),
                    taken,
                )
            };
            let env = LoopEnv {
                exit: Some(exit),
                continue_target: latch,
            };
            let mut body = Vec::new();
            self.region(Some(header), Some(latch), Some(&env), &mut body);
            // The latch's own statements run at the end of each iteration.
            body.extend(self.lifted[latch].stmts.iter().cloned());
            out.push(DStmt::DoWhile(body, cond));
            result_cont = Some(exit);
        } else {
            // Form 3: while (1) { … break … }.
            // Choose the most common exit target as the break destination.
            let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
            for (_, t) in &exits {
                *counts.entry(*t).or_default() += 1;
            }
            let exit = counts.iter().max_by_key(|(_, c)| **c).map(|(t, _)| *t);
            let env = LoopEnv {
                exit,
                continue_target: header,
            };
            let mut body = Vec::new();
            // Walk the loop body starting at the header; the back edge to
            // the header terminates the region via continue_target —
            // except we must not stop instantly, so structure the header
            // manually, then follow.
            let hb = &self.cfg.blocks[header];
            body.extend(self.lifted[header].stmts.iter().cloned());
            match hb.term {
                TermKind::Ret => {
                    body.push(DStmt::Return(self.lifted[header].ret.clone()));
                }
                TermKind::Jump => {
                    let next = hb.succs[0];
                    if next != header {
                        self.region(Some(next), Some(header), Some(&env), &mut body);
                    }
                }
                TermKind::Cond => {
                    let cond = self.lifted[header].cond.clone().unwrap_or(DExpr::Num(1));
                    let join = self.ipdom[header];
                    let mut then_body = Vec::new();
                    let mut else_body = Vec::new();
                    // Arms stop at the header (next iteration) or the join.
                    let stop = join.filter(|j| *j != header);
                    self.region(Some(hb.succs[0]), stop, Some(&env), &mut then_body);
                    self.region(Some(hb.succs[1]), stop, Some(&env), &mut else_body);
                    body.push(DStmt::If(cond, then_body, else_body));
                    if let Some(j) = stop {
                        self.region(Some(j), Some(header), Some(&env), &mut body);
                    }
                }
            }
            out.push(DStmt::While(DExpr::Num(1), body));
            result_cont = exit;
        }
        self.active.remove(&header);
        result_cont
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use crate::lift::{lift_blocks_limited, optimize_lifted_with, propagate_params};
    use asteria_compiler::{compile_program, decode_function, Arch};
    use asteria_lang::parse;

    fn structured(src: &str, arch: Arch) -> Vec<DStmt> {
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
        structure_limited(&cfg, &blocks, usize::MAX).unwrap()
    }

    fn count_kind(stmts: &[DStmt], pred: &dyn Fn(&DStmt) -> bool) -> usize {
        let mut n = 0;
        fn walk(stmts: &[DStmt], pred: &dyn Fn(&DStmt) -> bool, n: &mut usize) {
            for s in stmts {
                if pred(s) {
                    *n += 1;
                }
                match s {
                    DStmt::If(_, a, b) => {
                        walk(a, pred, n);
                        walk(b, pred, n);
                    }
                    DStmt::While(_, b) | DStmt::DoWhile(b, _) => walk(b, pred, n),
                    DStmt::Switch(_, cases) => {
                        for c in cases {
                            walk(&c.body, pred, n);
                        }
                    }
                    _ => {}
                }
            }
        }
        walk(stmts, pred, &mut n);
        n
    }

    #[test]
    fn straightline_returns() {
        for arch in Arch::ALL {
            let s = structured("int f(int a) { return a * 3; }", arch);
            assert!(
                matches!(s.last(), Some(DStmt::Return(Some(_)))),
                "{arch}: {s:?}"
            );
        }
    }

    #[test]
    fn if_else_recovered() {
        for arch in [Arch::X86, Arch::X64, Arch::Ppc] {
            let s = structured(
                "int f(int a) { if (a > 0) { return ext(a); } else { return ext2(a); } }",
                arch,
            );
            assert_eq!(
                count_kind(&s, &|s| matches!(s, DStmt::If(_, _, _))),
                1,
                "{arch}: {s:#?}"
            );
        }
    }

    #[test]
    fn while_loop_recovered() {
        // x86/ARM see the plain while shape; x64/PPC compile with loop
        // rotation, so the same source comes back as a guarded do-while —
        // exactly the cross-architecture loop-shape difference the
        // similarity model must absorb.
        for arch in Arch::ALL {
            let s = structured(
                "int f(int n) { int s = 0; while (n > 0) { s += ext(n); n -= 1; } return s; }",
                arch,
            );
            let whiles = count_kind(&s, &|s| matches!(s, DStmt::While(_, _)));
            let dowhiles = count_kind(&s, &|s| matches!(s, DStmt::DoWhile(_, _)));
            assert_eq!(whiles + dowhiles, 1, "{arch}: {s:#?}");
            let rotated = matches!(arch, Arch::X64 | Arch::Ppc);
            assert_eq!(dowhiles == 1, rotated, "{arch}: {s:#?}");
            assert_eq!(
                count_kind(&s, &|s| matches!(s, DStmt::Goto(_))),
                0,
                "{arch}"
            );
        }
    }

    #[test]
    fn for_loop_recovered_as_rotated_dowhile_on_x64() {
        let s = structured(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += ext(i); } return s; }",
            Arch::X64,
        );
        assert_eq!(
            count_kind(&s, &|s| matches!(s, DStmt::DoWhile(_, _))),
            1,
            "{s:#?}"
        );
        // And the un-rotated shape on x86.
        let s86 = structured(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += ext(i); } return s; }",
            Arch::X86,
        );
        assert_eq!(
            count_kind(&s86, &|s| matches!(s, DStmt::While(_, _))),
            1,
            "{s86:#?}"
        );
    }

    #[test]
    fn do_while_recovered() {
        for arch in Arch::ALL {
            let s = structured(
                "int f(int n) { int s = 0; do { s += ext(s); n--; } while (n > 0); return s; }",
                arch,
            );
            let dowhiles = count_kind(&s, &|s| matches!(s, DStmt::DoWhile(_, _)));
            let whiles = count_kind(&s, &|s| matches!(s, DStmt::While(_, _)));
            assert_eq!(dowhiles + whiles, 1, "{arch}: {s:#?}");
            assert!(
                dowhiles == 1 || arch == Arch::Arm,
                "{arch} should see do-while: {s:#?}"
            );
        }
    }

    #[test]
    fn infinite_loop_with_break() {
        for arch in Arch::ALL {
            let s = structured(
                "int f(int n) { int s = 0; while (1) { n = ext(n); if (n < 0) { break; } \
                 s += n; } return s; }",
                arch,
            );
            assert_eq!(
                count_kind(&s, &|s| matches!(s, DStmt::While(_, _))),
                1,
                "{arch}: {s:#?}"
            );
            assert!(
                count_kind(&s, &|s| matches!(s, DStmt::Break)) >= 1,
                "{arch}: {s:#?}"
            );
        }
    }

    #[test]
    fn continue_recovered_or_restructured() {
        // `continue` either survives or is restructured into if-nesting;
        // either way no gotos and exactly one loop.
        for arch in Arch::ALL {
            let s = structured(
                "int f(int n) { int s = 0; int i = 0; while (i < n) { i++; \
                 if (ext(i) == 0) { continue; } s += i; } return s; }",
                arch,
            );
            assert_eq!(
                count_kind(&s, &|s| matches!(s, DStmt::While(_, _))),
                1,
                "{arch}"
            );
            assert_eq!(
                count_kind(&s, &|s| matches!(s, DStmt::Goto(_))),
                0,
                "{arch}: {s:#?}"
            );
        }
    }

    #[test]
    fn nested_loops_recover() {
        for arch in Arch::ALL {
            let s = structured(
                "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { \
                 for (int j = 0; j < i; j++) { s += ext(i + j); } } return s; }",
                arch,
            );
            assert_eq!(
                count_kind(&s, &|s| matches!(
                    s,
                    DStmt::While(_, _) | DStmt::DoWhile(_, _)
                )),
                2,
                "{arch}: {s:#?}"
            );
        }
    }

    #[test]
    fn nested_if_in_loop() {
        for arch in Arch::ALL {
            let s = structured(
                "int f(int n) { int s = 0; while (n > 0) { if (ext(n) > 5) { s += 2; } \
                 else { s -= ext2(n); } n--; } return s; }",
                arch,
            );
            assert!(
                count_kind(&s, &|s| matches!(s, DStmt::If(_, _, _))) >= 1,
                "{arch}: {s:#?}"
            );
            assert_eq!(
                count_kind(&s, &|s| matches!(s, DStmt::Goto(_))),
                0,
                "{arch}"
            );
        }
    }

    #[test]
    fn early_returns_structured() {
        for arch in Arch::ALL {
            let s = structured(
                "int f(int a) { if (a < 0) { return 0 - 1; } if (a == 0) { return 0; } \
                 return ext(a); }",
                arch,
            );
            assert!(
                count_kind(&s, &|s| matches!(s, DStmt::Return(_))) >= 3,
                "{arch}: {s:#?}"
            );
        }
    }
}

#[cfg(test)]
mod whitebox_tests {
    use super::*;
    use crate::cfg::CfgBlock;

    fn block(succs: Vec<usize>, term: TermKind) -> CfgBlock {
        CfgBlock {
            start: 0,
            end: 1,
            succs,
            term,
        }
    }

    fn lifted(n: usize) -> Vec<LiftedBlock> {
        (0..n)
            .map(|_| LiftedBlock {
                stmts: Vec::new(),
                cond: Some(DExpr::Num(1)),
                ret: Some(DExpr::Num(0)),
            })
            .collect()
    }

    /// An irreducible CFG (two entries into a cycle) cannot be structured
    /// with loops/ifs alone; the structurer must terminate and fall back
    /// to `goto` rather than loop forever.
    #[test]
    fn irreducible_cfg_terminates_with_goto() {
        // 0 → {1, 2}; 1 → 2; 2 → 1 (cycle entered from two sides); plus
        // an exit: make 1 conditional → {2, 3}, 3 = ret.
        let cfg = Cfg {
            blocks: vec![
                block(vec![1, 2], TermKind::Cond),
                block(vec![2, 3], TermKind::Cond),
                block(vec![1], TermKind::Jump),
                block(vec![], TermKind::Ret),
            ],
        };
        let out = structure_limited(&cfg, &lifted(4), usize::MAX).unwrap();
        // Must terminate (budget) and produce *something* — a goto is the
        // honest fallback for irreducible flow.
        fn has_goto(stmts: &[DStmt]) -> bool {
            stmts.iter().any(|s| match s {
                DStmt::Goto(_) => true,
                DStmt::If(_, t, e) => has_goto(t) || has_goto(e),
                DStmt::While(_, b) | DStmt::DoWhile(b, _) => has_goto(b),
                _ => false,
            })
        }
        assert!(!out.is_empty());
        // Either structured successfully or degraded to goto — both are
        // acceptable; the test's real assertion is termination.
        let _ = has_goto(&out);
    }

    /// A self-loop (block branching to itself) is structured as a loop.
    #[test]
    fn self_loop_structures() {
        let cfg = Cfg {
            blocks: vec![
                block(vec![0, 1], TermKind::Cond),
                block(vec![], TermKind::Ret),
            ],
        };
        let out = structure_limited(&cfg, &lifted(2), usize::MAX).unwrap();
        let has_loop = out
            .iter()
            .any(|s| matches!(s, DStmt::While(_, _) | DStmt::DoWhile(_, _)));
        assert!(has_loop, "{out:#?}");
    }

    /// The budget guard fires on pathological ping-pong graphs instead of
    /// hanging.
    #[test]
    fn budget_bounds_runtime() {
        // A dense mesh of conditionals that keeps re-entering regions.
        let n = 12;
        let mut blocks = Vec::new();
        for i in 0..n {
            blocks.push(block(vec![(i + 1) % n, (i + 5) % n], TermKind::Cond));
        }
        let cfg = Cfg { blocks };
        let out = structure_limited(&cfg, &lifted(n), usize::MAX).unwrap();
        assert!(!out.is_empty());
    }
}
