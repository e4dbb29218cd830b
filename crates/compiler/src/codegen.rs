//! Instruction selection: IR → per-architecture machine code.
//!
//! The backends are deliberately simple "spill-everything" code generators
//! (every virtual register lives in a frame slot), which is both realistic
//! for default-optimization firmware builds and friendly to the decompiler.
//! Architectural character comes from:
//!
//! - **x86**: all arguments pushed on the stack (right to left), two-address
//!   ALU with memory operands;
//! - **x64**: six register arguments, two-address ALU, no memory operands;
//! - **ARM**: four register arguments, three-address ALU, and an
//!   *if-conversion* pass that collapses small branch diamonds into
//!   conditional selects — reproducing the paper's Fig. 2 observation that
//!   the same function has 4 basic blocks on x86 but 1 on ARM;
//! - **PPC**: eight register arguments, three-address ALU, no hardware
//!   remainder or negate (both are expanded), so its functions run longer.

use asteria_lang::BinOp;

use crate::compile::OptLevel;
use crate::ir::{BlockId, Inst, IrFunction, LocalId, LocalKind, Term, VReg};
use crate::isa::{AluOp, Arch, CmpOp, MInst, Mem, Reg};

/// Machine code for one function, before encoding.
#[derive(Debug, Clone)]
pub(crate) struct MachFunction {
    /// Number of parameters.
    pub param_count: usize,
    /// Emitted instructions; branch targets are instruction indices.
    pub insts: Vec<MInst>,
    /// Number of 64-bit frame slots.
    pub frame_size: u32,
}

/// Maps an IR `BinOp` to either an ALU op or a comparison.
fn classify_binop(op: BinOp) -> Result<AluOp, CmpOp> {
    match op {
        BinOp::Add => Ok(AluOp::Add),
        BinOp::Sub => Ok(AluOp::Sub),
        BinOp::Mul => Ok(AluOp::Mul),
        BinOp::Div => Ok(AluOp::Div),
        BinOp::Mod => Ok(AluOp::Mod),
        BinOp::And => Ok(AluOp::And),
        BinOp::Or => Ok(AluOp::Or),
        BinOp::Xor => Ok(AluOp::Xor),
        BinOp::Shl => Ok(AluOp::Shl),
        BinOp::Shr => Ok(AluOp::Shr),
        BinOp::Eq => Err(CmpOp::Eq),
        BinOp::Ne => Err(CmpOp::Ne),
        BinOp::Lt => Err(CmpOp::Lt),
        BinOp::Le => Err(CmpOp::Le),
        BinOp::Gt => Err(CmpOp::Gt),
        BinOp::Ge => Err(CmpOp::Ge),
        BinOp::LogAnd | BinOp::LogOr => {
            unreachable!("logical operators are lowered to control flow")
        }
    }
}

/// Expands operations the target lacks: `%` into `a - (a/b)*b` when there
/// is no hardware remainder, and unary negate into `0 - x`.
pub(crate) fn expand_missing_ops(f: &mut IrFunction, arch: Arch) {
    if arch.has_mod() && arch.has_neg() {
        return;
    }
    for bi in 0..f.blocks.len() {
        let mut out = Vec::with_capacity(f.blocks[bi].insts.len());
        let insts = std::mem::take(&mut f.blocks[bi].insts);
        for inst in insts {
            match inst {
                Inst::Bin(BinOp::Mod, d, a, b) if !arch.has_mod() => {
                    let t1 = f.new_vreg();
                    let t2 = f.new_vreg();
                    out.push(Inst::Bin(BinOp::Div, t1, a, b));
                    out.push(Inst::Bin(BinOp::Mul, t2, t1, b));
                    out.push(Inst::Bin(BinOp::Sub, d, a, t2));
                }
                Inst::Un(asteria_lang::UnOp::Neg, d, a) if !arch.has_neg() => {
                    let z = f.new_vreg();
                    out.push(Inst::Const(z, 0));
                    out.push(Inst::Bin(BinOp::Sub, d, z, a));
                }
                other => out.push(other),
            }
        }
        f.blocks[bi].insts = out;
    }
}

/// Maximum number of instructions in an arm for if-conversion to fire.
const IF_CONVERT_LIMIT: usize = 4;

fn is_pure(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Const(_, _)
            | Inst::Str(_, _)
            | Inst::Bin(_, _, _, _)
            | Inst::Un(_, _, _)
            | Inst::LoadLocal(_, _)
            | Inst::LoadGlobal(_, _)
            | Inst::LoadElem(_, _, _)
            | Inst::Select(_, _, _, _)
    )
}

/// A candidate if-conversion arm: pure instructions followed by a single
/// store to a scalar local, then a jump.
fn arm_pattern(f: &IrFunction, b: BlockId) -> Option<(Vec<Inst>, LocalId, VReg, BlockId)> {
    let block = f.block(b);
    let join = match block.term {
        Term::Jmp(j) => j,
        _ => return None,
    };
    let (last, body) = block.insts.split_last()?;
    if body.len() > IF_CONVERT_LIMIT || !body.iter().all(is_pure) {
        return None;
    }
    match last {
        Inst::StoreLocal(l, v) => Some((body.to_vec(), *l, *v, join)),
        _ => None,
    }
}

/// If-conversion: rewrites diamond (and triangle) patterns whose arms are a
/// single scalar store into straight-line code ending in [`Inst::Select`].
///
/// Only the ARM backend runs this pass; it is the mechanism by which ARM
/// binaries end up with fewer basic blocks than x86 binaries for the same
/// source, while their decompiled ASTs stay nearly identical.
pub(crate) fn if_convert(f: &mut IrFunction) {
    loop {
        let mut applied = false;
        'scan: for bi in 0..f.blocks.len() {
            let (cond, t, e) = match f.blocks[bi].term {
                Term::Br(c, t, e) if t != e => (c, t, e),
                _ => continue,
            };
            if t.0 as usize == bi || e.0 as usize == bi {
                continue;
            }
            // Full diamond: both arms store the same local and join.
            if let (Some((t_body, tl, tv, tj)), Some((e_body, el, ev, ej))) =
                (arm_pattern(f, t), arm_pattern(f, e))
            {
                if tl == el && tj == ej && tj != t && tj != e {
                    let d = f.new_vreg();
                    let block = f.block_mut(BlockId(bi as u32));
                    block.insts.extend(t_body);
                    block.insts.extend(e_body);
                    block.insts.push(Inst::Select(d, cond, tv, ev));
                    block.insts.push(Inst::StoreLocal(tl, d));
                    block.term = Term::Jmp(tj);
                    applied = true;
                    break 'scan;
                }
            }
            // Triangle: then-arm stores, else edge goes straight to join.
            if let Some((t_body, tl, tv, tj)) = arm_pattern(f, t) {
                if tj == e && tj != t {
                    let old = f.new_vreg();
                    let d = f.new_vreg();
                    let block = f.block_mut(BlockId(bi as u32));
                    block.insts.push(Inst::LoadLocal(old, tl));
                    block.insts.extend(t_body);
                    block.insts.push(Inst::Select(d, cond, tv, old));
                    block.insts.push(Inst::StoreLocal(tl, d));
                    block.term = Term::Jmp(tj);
                    applied = true;
                    break 'scan;
                }
            }
        }
        if !applied {
            break;
        }
        crate::opt::remove_unreachable(f);
    }
    debug_assert_eq!(f.validate(), Ok(()));
}

struct FrameLayout {
    local_slot: Vec<u32>,
    local_len: Vec<u32>,
    vreg_base: u32,
    size: u32,
}

fn layout_frame(f: &IrFunction) -> FrameLayout {
    let mut local_slot = Vec::with_capacity(f.locals.len());
    let mut local_len = Vec::with_capacity(f.locals.len());
    let mut next = 0u32;
    for l in &f.locals {
        local_slot.push(next);
        match &l.kind {
            LocalKind::Scalar => {
                local_len.push(1);
                next += 1;
            }
            LocalKind::Array(n) => {
                local_len.push(*n as u32);
                next += *n as u32;
            }
        }
    }
    let vreg_base = next;
    FrameLayout {
        local_slot,
        local_len,
        vreg_base,
        size: vreg_base + f.vreg_count,
    }
}

/// Generates machine code for one IR function.
///
/// `opt` selects the per-architecture character passes (if-conversion,
/// loop rotation, strength reduction), which run at [`OptLevel::O1`]
/// only. `sym_index` resolves callee names to symbol-table indices; the
/// SBF builder passes an interning closure.
pub(crate) fn codegen_function(
    ir: &IrFunction,
    arch: Arch,
    opt: OptLevel,
    sym_index: &mut dyn FnMut(&str) -> u32,
) -> MachFunction {
    let mut f = ir.clone();
    expand_missing_ops(&mut f, arch);
    // Per-architecture optimization character (mirrors how real toolchain
    // cost models diverge per target): x64/PPC invert loops, the RISC
    // targets strength-reduce multiplications, ARM if-converts.
    let character = opt == OptLevel::O1;
    if character && matches!(arch, Arch::X64 | Arch::Ppc) {
        crate::opt::rotate_loops(&mut f);
    }
    if character && arch.is_three_address() {
        crate::opt::strength_reduce(&mut f);
    }
    if character && arch.has_csel() {
        if_convert(&mut f);
    }
    let layout = layout_frame(&f);
    let [s0, s1, s2] = arch.scratch_regs();

    let vslot = |v: VReg| Mem::Frame(layout.vreg_base + v.0);
    let lslot = |l: LocalId| layout.local_slot[l.0 as usize];

    let mut insts: Vec<MInst> = Vec::new();
    // Prologue: copy incoming arguments into their frame slots.
    let arg_regs = arch.arg_regs();
    for i in 0..f.param_count {
        let dst = Mem::Frame(layout.local_slot[i]);
        if i < arg_regs.len() {
            insts.push(MInst::Store(dst, arg_regs[i]));
        } else {
            let stack_index = (i - arg_regs.len()) as u32;
            insts.push(MInst::Load(s0, Mem::Arg(stack_index)));
            insts.push(MInst::Store(dst, s0));
        }
    }

    // Emit blocks in order; record start indices for branch fixup.
    let mut block_start: Vec<u32> = Vec::with_capacity(f.blocks.len());
    // Branch targets temporarily hold block ids; fixed up below.
    for (bi, block) in f.blocks.iter().enumerate() {
        block_start.push(insts.len() as u32);
        for inst in &block.insts {
            match inst {
                Inst::Const(d, v) => {
                    insts.push(MInst::MovImm(s0, *v));
                    insts.push(MInst::Store(vslot(*d), s0));
                }
                Inst::Str(d, sid) => {
                    insts.push(MInst::LoadStr(s0, sid.0));
                    insts.push(MInst::Store(vslot(*d), s0));
                }
                Inst::Bin(op, d, a, b) => {
                    match classify_binop(*op) {
                        Ok(alu) => {
                            insts.push(MInst::Load(s0, vslot(*a)));
                            if arch.has_mem_operands() {
                                insts.push(MInst::Alu2Mem(alu, s0, vslot(*b)));
                            } else if arch.is_three_address() {
                                insts.push(MInst::Load(s1, vslot(*b)));
                                insts.push(MInst::Alu3(alu, s0, s0, s1));
                            } else {
                                insts.push(MInst::Load(s1, vslot(*b)));
                                insts.push(MInst::Alu2(alu, s0, s1));
                            }
                        }
                        Err(cc) => {
                            insts.push(MInst::Load(s0, vslot(*a)));
                            insts.push(MInst::Load(s1, vslot(*b)));
                            insts.push(MInst::SetCc(cc, s0, s0, s1));
                        }
                    }
                    insts.push(MInst::Store(vslot(*d), s0));
                }
                Inst::Un(op, d, a) => {
                    insts.push(MInst::Load(s0, vslot(*a)));
                    insts.push(MInst::UnAlu(
                        match op {
                            asteria_lang::UnOp::Neg => crate::isa::UnAluOp::Neg,
                            asteria_lang::UnOp::Not => crate::isa::UnAluOp::Not,
                            asteria_lang::UnOp::BitNot => crate::isa::UnAluOp::BitNot,
                        },
                        s0,
                        s0,
                    ));
                    insts.push(MInst::Store(vslot(*d), s0));
                }
                Inst::LoadLocal(d, l) => {
                    insts.push(MInst::Load(s0, Mem::Frame(lslot(*l))));
                    insts.push(MInst::Store(vslot(*d), s0));
                }
                Inst::StoreLocal(l, v) => {
                    insts.push(MInst::Load(s0, vslot(*v)));
                    insts.push(MInst::Store(Mem::Frame(lslot(*l)), s0));
                }
                Inst::LoadGlobal(d, g) => {
                    insts.push(MInst::Load(s0, Mem::Global(g.0)));
                    insts.push(MInst::Store(vslot(*d), s0));
                }
                Inst::StoreGlobal(g, v) => {
                    insts.push(MInst::Load(s0, vslot(*v)));
                    insts.push(MInst::Store(Mem::Global(g.0), s0));
                }
                Inst::LoadElem(d, l, idx) => {
                    insts.push(MInst::Load(s1, vslot(*idx)));
                    insts.push(MInst::LoadIdx {
                        rd: s0,
                        base: lslot(*l),
                        idx: s1,
                        len: layout.local_len[l.0 as usize],
                    });
                    insts.push(MInst::Store(vslot(*d), s0));
                }
                Inst::StoreElem(l, idx, v) => {
                    insts.push(MInst::Load(s1, vslot(*idx)));
                    insts.push(MInst::Load(s2, vslot(*v)));
                    insts.push(MInst::StoreIdx {
                        rs: s2,
                        base: lslot(*l),
                        idx: s1,
                        len: layout.local_len[l.0 as usize],
                    });
                }
                Inst::Call(d, name, args) => {
                    let sym = sym_index(name);
                    if arg_regs.is_empty() {
                        // Stack convention: push right-to-left.
                        for a in args.iter().rev() {
                            insts.push(MInst::Load(s0, vslot(*a)));
                            insts.push(MInst::Push(s0));
                        }
                    } else {
                        for (i, a) in args.iter().enumerate() {
                            if i < arg_regs.len() {
                                insts.push(MInst::Load(arg_regs[i], vslot(*a)));
                            } else {
                                insts.push(MInst::Load(s0, vslot(*a)));
                                insts.push(MInst::Push(s0));
                            }
                        }
                    }
                    insts.push(MInst::Call {
                        sym,
                        argc: args.len() as u8,
                    });
                    insts.push(MInst::Store(vslot(*d), Reg(0)));
                }
                Inst::Select(d, c, a, b) => {
                    insts.push(MInst::Load(s0, vslot(*c)));
                    insts.push(MInst::Load(s1, vslot(*a)));
                    insts.push(MInst::Load(s2, vslot(*b)));
                    insts.push(MInst::CSel {
                        rd: s1,
                        rc: s0,
                        ra: s1,
                        rb: s2,
                    });
                    insts.push(MInst::Store(vslot(*d), s1));
                }
            }
        }
        match &block.term {
            Term::Jmp(t) => {
                if t.0 as usize != bi + 1 {
                    insts.push(MInst::Jmp(t.0));
                }
            }
            Term::Br(c, t, e) => {
                insts.push(MInst::Load(s0, vslot(*c)));
                insts.push(MInst::Brnz(s0, t.0));
                if e.0 as usize != bi + 1 {
                    insts.push(MInst::Jmp(e.0));
                }
            }
            Term::Ret(Some(r)) => {
                insts.push(MInst::Load(Reg(0), vslot(*r)));
                insts.push(MInst::Ret);
            }
            Term::Ret(None) => {
                insts.push(MInst::MovImm(Reg(0), 0));
                insts.push(MInst::Ret);
            }
        }
    }

    // Fixup: block-id targets → instruction indices.
    for inst in &mut insts {
        match inst {
            MInst::Jmp(t) | MInst::Brnz(_, t) => *t = block_start[*t as usize],
            _ => {}
        }
    }

    MachFunction {
        param_count: f.param_count,
        insts,
        frame_size: layout.size.max(1),
    }
}

/// Builds a per-block view of machine code: instruction index ranges of the
/// basic blocks implied by branch targets. Shared by the VM (for sanity
/// checks) and, more importantly, by the disassembler-side CFG recovery.
pub fn block_boundaries(insts: &[MInst]) -> Vec<u32> {
    let mut leaders: Vec<u32> = vec![0];
    for (i, inst) in insts.iter().enumerate() {
        if let Some(t) = inst.branch_target() {
            leaders.push(t);
        }
        if inst.is_branch() && i + 1 < insts.len() {
            leaders.push(i as u32 + 1);
        }
    }
    leaders.sort_unstable();
    leaders.dedup();
    leaders
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use crate::opt::optimize_function;
    use asteria_lang::parse;

    fn gen(src: &str, arch: Arch) -> MachFunction {
        let ir = lower_program(&parse(src).unwrap()).unwrap();
        let mut f = ir.functions.into_iter().next().unwrap();
        optimize_function(&mut f);
        let mut syms: Vec<String> = Vec::new();
        codegen_function(&f, arch, OptLevel::O1, &mut |name| {
            if let Some(i) = syms.iter().position(|s| s == name) {
                i as u32
            } else {
                syms.push(name.to_string());
                syms.len() as u32 - 1
            }
        })
    }

    const DIAMOND: &str =
        "int f(int a) { int x = 0; if (a > 0) { x = 1; } else { x = 2; } return x; }";

    #[test]
    fn arm_if_converts_diamond_to_single_block() {
        let arm = gen(DIAMOND, Arch::Arm);
        assert!(
            arm.insts.iter().any(|i| matches!(i, MInst::CSel { .. })),
            "expected a conditional select on ARM"
        );
        assert!(!arm.insts.iter().any(|i| matches!(i, MInst::Brnz(_, _))));
        let x86 = gen(DIAMOND, Arch::X86);
        assert!(x86.insts.iter().any(|i| matches!(i, MInst::Brnz(_, _))));
        // ARM ends up with fewer basic blocks than x86 (Fig. 2 shape).
        assert!(block_boundaries(&arm.insts).len() < block_boundaries(&x86.insts).len());
    }

    #[test]
    fn x86_uses_memory_operands_x64_does_not() {
        let src = "int f(int a, int b) { return a * b + a; }";
        let x86 = gen(src, Arch::X86);
        let x64 = gen(src, Arch::X64);
        assert!(x86
            .insts
            .iter()
            .any(|i| matches!(i, MInst::Alu2Mem(_, _, _))));
        assert!(!x64
            .insts
            .iter()
            .any(|i| matches!(i, MInst::Alu2Mem(_, _, _))));
        assert!(x64.insts.iter().any(|i| matches!(i, MInst::Alu2(_, _, _))));
    }

    #[test]
    fn ppc_expands_mod_and_neg() {
        let src = "int f(int a, int b) { return (a % b) + (-a); }";
        let ppc = gen(src, Arch::Ppc);
        assert!(!ppc
            .insts
            .iter()
            .any(|i| matches!(i, MInst::Alu3(AluOp::Mod, _, _, _))));
        assert!(!ppc
            .insts
            .iter()
            .any(|i| matches!(i, MInst::UnAlu(crate::isa::UnAluOp::Neg, _, _))));
        let arm = gen(src, Arch::Arm);
        assert!(arm
            .insts
            .iter()
            .any(|i| matches!(i, MInst::Alu3(AluOp::Mod, _, _, _))));
        // Expansion makes PPC code longer.
        assert!(ppc.insts.len() > arm.insts.len());
    }

    #[test]
    fn x86_pushes_args_x64_uses_registers() {
        let src = "int f(int a) { return helper(a, a, a); }";
        let x86 = gen(src, Arch::X86);
        let x64 = gen(src, Arch::X64);
        let pushes = |m: &MachFunction| {
            m.insts
                .iter()
                .filter(|i| matches!(i, MInst::Push(_)))
                .count()
        };
        assert_eq!(pushes(&x86), 3);
        assert_eq!(pushes(&x64), 0);
    }

    #[test]
    fn branch_targets_are_valid_instruction_indices() {
        let src = "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } \
                   if (s > 100) { s = 100; } return s; }";
        for arch in Arch::ALL {
            let m = gen(src, arch);
            for inst in &m.insts {
                if let Some(t) = inst.branch_target() {
                    assert!(
                        (t as usize) < m.insts.len(),
                        "{arch}: branch target {t} out of range {}",
                        m.insts.len()
                    );
                }
            }
            // Last instruction must be a branch (no fallthrough off the end).
            assert!(
                m.insts.last().unwrap().is_branch(),
                "{arch}: code falls off the end"
            );
        }
    }

    #[test]
    fn triangle_if_converts_on_arm() {
        let src = "int f(int a) { int x = 5; if (a > 0) { x = 9; } return x; }";
        let arm = gen(src, Arch::Arm);
        assert!(arm.insts.iter().any(|i| matches!(i, MInst::CSel { .. })));
    }

    #[test]
    fn call_heavy_arms_are_not_if_converted() {
        let src = "int f(int a) { int x = 0; if (a) { x = ext1(a); } else { x = ext2(a); } \
                   return x; }";
        let arm = gen(src, Arch::Arm);
        assert!(
            arm.insts.iter().any(|i| matches!(i, MInst::Brnz(_, _))),
            "calls must not be speculated"
        );
    }

    #[test]
    fn frame_size_covers_locals_and_spills() {
        let src = "int f(int a) { int buf[8]; buf[0] = a; return buf[0] + a; }";
        for arch in Arch::ALL {
            let m = gen(src, arch);
            let max_frame = m
                .insts
                .iter()
                .filter_map(|i| match i {
                    MInst::Load(_, Mem::Frame(s)) | MInst::Store(Mem::Frame(s), _) => Some(*s),
                    MInst::Alu2Mem(_, _, Mem::Frame(s)) => Some(*s),
                    MInst::LoadIdx { base, len, .. } | MInst::StoreIdx { base, len, .. } => {
                        Some(base + len - 1)
                    }
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            assert!(
                max_frame < m.frame_size,
                "{arch}: slot {max_frame} >= {}",
                m.frame_size
            );
        }
    }
}
