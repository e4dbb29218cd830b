//! IR optimization passes: constant folding and CFG simplification.
//!
//! These mirror the default (`-O1`-ish) behaviour of the paper's gcc
//! toolchain closely enough to give the backends realistic input: constant
//! subexpressions disappear, single-target jump chains are threaded, and
//! unreachable blocks are dropped.

use std::collections::HashMap;

use asteria_lang::interp::{eval_binop, eval_unop};

use crate::ir::{BlockId, Inst, IrFunction, IrProgram, Term, VReg};

/// Runs all passes on every function, to a fixed point per function.
pub(crate) fn optimize_program(ir: &mut IrProgram) {
    for f in &mut ir.functions {
        optimize_function(f);
    }
}

/// Runs constant folding and CFG simplification until nothing changes.
pub(crate) fn optimize_function(f: &mut IrFunction) {
    loop {
        let mut changed = false;
        changed |= fold_constants(f);
        changed |= thread_jumps(f);
        changed |= remove_unreachable(f);
        if !changed {
            break;
        }
    }
    debug_assert_eq!(f.validate(), Ok(()));
}

/// Per-block constant folding: propagates `Const` defs into `Bin`/`Un`
/// instructions whose operands are all constant, and folds branches on
/// constant conditions into jumps.
///
/// Returns true when anything changed.
fn fold_constants(f: &mut IrFunction) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        let mut known: HashMap<VReg, i64> = HashMap::new();
        for inst in &mut b.insts {
            match inst {
                Inst::Const(d, v) => {
                    known.insert(*d, *v);
                }
                Inst::Bin(op, d, a, c) => {
                    let (op, d) = (*op, *d);
                    if let (Some(&av), Some(&bv)) = (known.get(a), known.get(c)) {
                        let v = eval_binop(op, av, bv);
                        *inst = Inst::Const(d, v);
                        known.insert(d, v);
                        changed = true;
                    }
                }
                Inst::Un(op, d, a) => {
                    let (op, d) = (*op, *d);
                    if let Some(&av) = known.get(a) {
                        let v = eval_unop(op, av);
                        *inst = Inst::Const(d, v);
                        known.insert(d, v);
                        changed = true;
                    }
                }
                // Any other instruction defining a register invalidates
                // nothing (SSA-ish: vregs are single-assignment by
                // construction of the lowerer within a block).
                _ => {}
            }
        }
        if let Term::Br(c, t, e) = &b.term {
            if let Some(&cv) = known.get(c) {
                b.term = Term::Jmp(if cv != 0 { *t } else { *e });
                changed = true;
            }
        }
    }
    changed
}

/// Threads jumps through empty forwarding blocks (a block with no
/// instructions whose terminator is an unconditional jump).
///
/// Returns true when anything changed.
fn thread_jumps(f: &mut IrFunction) -> bool {
    // Resolve the final target of a forwarding chain, with cycle guard.
    let resolve = |start: BlockId, f: &IrFunction| -> BlockId {
        let mut cur = start;
        let mut hops = 0;
        while hops < f.blocks.len() {
            let b = f.block(cur);
            match (&b.insts.is_empty(), &b.term) {
                (true, Term::Jmp(next)) if *next != cur => {
                    cur = *next;
                    hops += 1;
                }
                _ => break,
            }
        }
        cur
    };

    let mut changed = false;
    for i in 0..f.blocks.len() {
        let new_term = match f.blocks[i].term.clone() {
            Term::Jmp(t) => {
                let r = resolve(t, f);
                if r != t {
                    changed = true;
                }
                Term::Jmp(r)
            }
            Term::Br(c, t, e) => {
                let (rt, re) = (resolve(t, f), resolve(e, f));
                if rt != t || re != e {
                    changed = true;
                }
                if rt == re {
                    Term::Jmp(rt)
                } else {
                    Term::Br(c, rt, re)
                }
            }
            other => other,
        };
        f.blocks[i].term = new_term;
    }
    changed
}

/// Removes blocks unreachable from the entry, compacting block ids.
///
/// Returns true when anything changed.
pub(crate) fn remove_unreachable(f: &mut IrFunction) -> bool {
    let reachable = f.reachable_blocks();
    if reachable.len() == f.blocks.len() {
        return false;
    }
    let mut sorted = reachable.clone();
    sorted.sort();
    let remap: HashMap<BlockId, BlockId> = sorted
        .iter()
        .enumerate()
        .map(|(new, old)| (*old, BlockId(new as u32)))
        .collect();
    let mut new_blocks = Vec::with_capacity(sorted.len());
    for old in &sorted {
        let mut b = f.block(*old).clone();
        b.term = match b.term {
            Term::Jmp(t) => Term::Jmp(remap[&t]),
            Term::Br(c, t, e) => Term::Br(c, remap[&t], remap[&e]),
            other => other,
        };
        new_blocks.push(b);
    }
    f.blocks = new_blocks;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use asteria_lang::parse;

    fn lowered(src: &str) -> IrFunction {
        let ir = lower_program(&parse(src).unwrap()).unwrap();
        ir.functions.into_iter().next().unwrap()
    }

    #[test]
    fn folds_constant_arithmetic() {
        let mut f = lowered("int f() { return 2 + 3 * 4; }");
        fold_constants(&mut f);
        let consts: Vec<i64> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::Const(_, v) => Some(*v),
                _ => None,
            })
            .collect();
        assert!(consts.contains(&14));
        assert!(!f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Bin(_, _, _, _))));
    }

    #[test]
    fn folds_constant_branch_and_removes_dead_arm() {
        let mut f = lowered("int f() { if (0) { return 1; } return 2; }");
        optimize_function(&mut f);
        // Entire then-arm should be gone.
        for b in &f.blocks {
            for inst in &b.insts {
                if let Inst::Const(_, v) = inst {
                    assert_ne!(*v, 1, "dead constant survived");
                }
            }
        }
    }

    #[test]
    fn threads_empty_jump_chains() {
        let mut f = lowered("int f(int a) { if (a) { } return a; }");
        let before = f.blocks.len();
        optimize_function(&mut f);
        assert!(f.blocks.len() <= before);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn optimization_preserves_validity_on_loops() {
        let mut f = lowered(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { \
             if (i % 2 == 0) { s += i; } } return s; }",
        );
        optimize_function(&mut f);
        assert!(f.validate().is_ok());
        assert!(!f.blocks.is_empty());
    }

    #[test]
    fn while_true_loop_survives() {
        let mut f = lowered("int f(int n) { while (1) { n--; if (n < 0) { break; } } return n; }");
        optimize_function(&mut f);
        assert!(f.validate().is_ok());
        let has_back_edge = f
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.term.successors().iter().any(|s| (s.0 as usize) <= i));
        assert!(has_back_edge, "loop disappeared:\n{f}");
    }
}

/// Loop rotation (gcc's "loop inversion"): rewrites
/// `while (c) { body }` into `if (c) { do { body } while (c); }` by
/// cloning the header's condition computation into a fresh latch block.
///
/// Real toolchains apply this universally but with per-target cost models;
/// in this reproduction it is enabled for the x64 and PPC backends only,
/// which makes the recovered loop *shape* differ across architectures for
/// the same source — one of the honest cross-architecture AST differences
/// the similarity task must absorb.
///
/// Returns the number of loops rotated.
pub(crate) fn rotate_loops(f: &mut IrFunction) -> usize {
    use std::collections::HashMap as Map;
    let mut rotated = 0;
    // Find candidate headers: block H ending Br(c, body, exit) whose
    // instructions are pure (safe to duplicate), with exactly one latch
    // jumping back to it (other than the fallthrough entry edge).
    let n = f.blocks.len();
    for h in 0..n {
        let (cond, body_bb, exit_bb) = match f.blocks[h].term {
            Term::Br(c, t, e) => (c, t, e),
            _ => continue,
        };
        if body_bb.0 as usize == h || exit_bb.0 as usize == h {
            continue;
        }
        // Pure, duplicable header instructions only.
        let pure = f.blocks[h].insts.iter().all(|i| {
            matches!(
                i,
                Inst::Const(_, _)
                    | Inst::Bin(_, _, _, _)
                    | Inst::Un(_, _, _)
                    | Inst::LoadLocal(_, _)
                    | Inst::LoadGlobal(_, _)
                    | Inst::LoadElem(_, _, _)
            )
        });
        if !pure || f.blocks[h].insts.len() > 8 {
            continue;
        }
        // Loop body: blocks reachable from the body entry without passing
        // through the header. The latch is the body block that jumps back
        // to the header (there must be exactly one); the function entry's
        // edge into the header is *not* a latch.
        // (Blocks appended by earlier rotations extend past `n`.)
        let mut in_body = vec![false; f.blocks.len()];
        let mut stack = vec![body_bb.0 as usize];
        while let Some(b) = stack.pop() {
            if b == h || in_body[b] {
                continue;
            }
            in_body[b] = true;
            for s in f.blocks[b].term.successors() {
                stack.push(s.0 as usize);
            }
        }
        let latches: Vec<usize> = (0..f.blocks.len())
            .filter(|b| in_body[*b] && f.blocks[*b].term == Term::Jmp(BlockId(h as u32)))
            .collect();
        if latches.len() != 1 {
            continue;
        }
        let latch = latches[0];
        // Also require that no conditional branch targets the header
        // (keeps the transform simple and safe).
        let cond_preds = (0..f.blocks.len()).any(|b| {
            matches!(f.blocks[b].term, Term::Br(_, t, e)
                if (t.0 as usize == h || e.0 as usize == h) && b != h)
        });
        if cond_preds {
            continue;
        }
        // Clone header instructions with fresh vregs into a new block.
        let mut remap: Map<VReg, VReg> = Map::new();
        let mut cloned = Vec::with_capacity(f.blocks[h].insts.len());
        let header_insts = f.blocks[h].insts.clone();
        for inst in &header_insts {
            let clone_reg = |r: VReg, f: &mut IrFunction, remap: &mut Map<VReg, VReg>| {
                *remap.entry(r).or_insert_with(|| f.new_vreg())
            };
            let use_reg = |r: VReg, remap: &Map<VReg, VReg>| *remap.get(&r).unwrap_or(&r);
            let new_inst = match inst {
                Inst::Const(d, v) => Inst::Const(clone_reg(*d, f, &mut remap), *v),
                Inst::Bin(op, d, a, b) => {
                    let (a2, b2) = (use_reg(*a, &remap), use_reg(*b, &remap));
                    Inst::Bin(*op, clone_reg(*d, f, &mut remap), a2, b2)
                }
                Inst::Un(op, d, a) => {
                    let a2 = use_reg(*a, &remap);
                    Inst::Un(*op, clone_reg(*d, f, &mut remap), a2)
                }
                Inst::LoadLocal(d, l) => Inst::LoadLocal(clone_reg(*d, f, &mut remap), *l),
                Inst::LoadGlobal(d, g) => Inst::LoadGlobal(clone_reg(*d, f, &mut remap), *g),
                Inst::LoadElem(d, l, i) => {
                    let i2 = use_reg(*i, &remap);
                    Inst::LoadElem(clone_reg(*d, f, &mut remap), *l, i2)
                }
                other => other.clone(),
            };
            cloned.push(new_inst);
        }
        let new_cond = *remap.get(&cond).unwrap_or(&cond);
        let new_latch = f.new_block();
        f.block_mut(new_latch).insts = cloned;
        f.block_mut(new_latch).term = Term::Br(new_cond, body_bb, exit_bb);
        f.blocks[latch].term = Term::Jmp(new_latch);
        rotated += 1;
    }
    debug_assert_eq!(f.validate(), Ok(()));
    rotated
}

/// Strength reduction: multiplications by a power-of-two constant become
/// shifts. Enabled for the RISC backends (ARM/PPC), where real compilers
/// lean on the barrel shifter; another honest per-architecture AST delta.
///
/// Returns the number of rewrites.
pub(crate) fn strength_reduce(f: &mut IrFunction) -> usize {
    let mut rewrites = 0;
    for b in &mut f.blocks {
        // Constants defined in this block.
        let mut known: HashMap<VReg, i64> = HashMap::new();
        let mut edits: Vec<(usize, VReg, u32)> = Vec::new();
        for (i, inst) in b.insts.iter().enumerate() {
            match inst {
                Inst::Const(d, v) => {
                    known.insert(*d, *v);
                }
                Inst::Bin(asteria_lang::BinOp::Mul, d, a, m) => {
                    if let Some(&k) = known.get(m) {
                        if k > 1 && (k as u64).is_power_of_two() {
                            edits.push((i, *a, (k as u64).trailing_zeros()));
                            let _ = d;
                        }
                    }
                }
                _ => {}
            }
        }
        for (i, a, shift) in edits.into_iter().rev() {
            let d = match &b.insts[i] {
                Inst::Bin(_, d, _, _) => *d,
                _ => unreachable!(),
            };
            let sh = VReg(f.vreg_count);
            f.vreg_count += 1;
            b.insts[i] = Inst::Bin(asteria_lang::BinOp::Shl, d, a, sh);
            b.insts.insert(i, Inst::Const(sh, shift as i64));
            rewrites += 1;
        }
    }
    debug_assert_eq!(f.validate(), Ok(()));
    rewrites
}

#[cfg(test)]
mod arch_opt_tests {
    use super::*;
    use crate::lower::lower_program;
    use asteria_lang::parse;

    fn lowered(src: &str) -> IrFunction {
        let ir = lower_program(&parse(src).unwrap()).unwrap();
        let mut f = ir.functions.into_iter().next().unwrap();
        optimize_function(&mut f);
        f
    }

    #[test]
    fn rotate_loops_rewrites_while() {
        let mut f =
            lowered("int f(int n) { int s = 0; while (n > 0) { s += n; n -= 1; } return s; }");
        let rotated = rotate_loops(&mut f);
        assert_eq!(rotated, 1);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn rotate_skips_impure_headers() {
        // The loop condition contains a call → not duplicable.
        let mut f =
            lowered("int f(int n) { int s = 0; while (ext(n) > 0) { s += 1; n -= 1; } return s; }");
        assert_eq!(rotate_loops(&mut f), 0);
    }

    #[test]
    fn strength_reduce_rewrites_pow2_mul() {
        let mut f = lowered("int f(int a) { return a * 8 + a * 3; }");
        let n = strength_reduce(&mut f);
        assert_eq!(n, 1, "only the ×8 should become a shift");
        let has_shl = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Bin(asteria_lang::BinOp::Shl, _, _, _)));
        assert!(has_shl);
    }

    #[test]
    fn rotated_loops_preserve_semantics() {
        use crate::codegen::codegen_function;
        use crate::compile::OptLevel;
        // Covered more broadly by the differential suite; quick check that
        // rotation + codegen still validates.
        let mut f =
            lowered("int f(int n) { int s = 0; while (n > 3) { s += n; n -= 2; } return s; }");
        rotate_loops(&mut f);
        let m = codegen_function(&f, crate::isa::Arch::X64, OptLevel::O1, &mut |_| 0);
        assert!(!m.insts.is_empty());
    }
}
