//! Synthetic instruction set architectures.
//!
//! The reproduction targets four ISAs that mirror the architectural axes the
//! paper's evaluation spans (x86, x64, ARM, PPC): operand arity (two- vs
//! three-address), argument passing (stack vs register windows of differing
//! width), memory-operand ALU forms, conditional-select support, hardware
//! remainder support, and — importantly for the disassembler — entirely
//! different binary encodings with different instruction widths.
//!
//! All four share a canonical in-memory instruction form, [`MInst`], so the
//! VM and decompiler can be written once; what differs per architecture is
//! which forms the code generator may emit and how they encode to bytes.

use std::fmt;

/// A machine register. Each architecture exposes `reg_count()` registers;
/// register 0 always carries return values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// Comparison flavours for [`MInst::SetCc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// equal
    Eq,
    /// not equal
    Ne,
    /// signed less-than
    Lt,
    /// signed less-or-equal
    Le,
    /// signed greater-than
    Gt,
    /// signed greater-or-equal
    Ge,
}

impl CmpOp {
    /// All comparison flavours, in encoding order.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Evaluates the comparison on two values, yielding 0 or 1.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        let r = match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        };
        r as i64
    }
}

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// wrapping addition
    Add,
    /// wrapping subtraction
    Sub,
    /// wrapping multiplication
    Mul,
    /// division (0 on divide-by-zero)
    Div,
    /// remainder (dividend on divide-by-zero); absent on PPC
    Mod,
    /// bitwise and
    And,
    /// bitwise or
    Or,
    /// bitwise xor
    Xor,
    /// shift left (amount masked to 6 bits)
    Shl,
    /// arithmetic shift right (amount masked to 6 bits)
    Shr,
}

impl AluOp {
    /// All ALU operations, in encoding order.
    pub const ALL: [AluOp; 10] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
    ];
}

/// Unary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnAluOp {
    /// two's-complement negation; absent on PPC (expanded to `0 - x`)
    Neg,
    /// logical not (`x == 0`)
    Not,
    /// bitwise complement
    BitNot,
}

/// A memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mem {
    /// Frame slot `index` of the current function (locals and spills).
    Frame(u32),
    /// Global data slot.
    Global(u32),
    /// Incoming stack argument `index` (stack-convention architectures).
    Arg(u32),
}

/// The canonical machine instruction form shared by all four ISAs.
///
/// Jump targets are *instruction indices* within the owning function; the
/// per-architecture encoders translate them to byte offsets and back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MInst {
    /// `rd ← imm`
    MovImm(Reg, i64),
    /// `rd ← rs`
    Mov(Reg, Reg),
    /// `rd ← &strings[sid]` (string-constant address materialization)
    LoadStr(Reg, u32),
    /// `rd ← mem`
    Load(Reg, Mem),
    /// `mem ← rs`
    Store(Mem, Reg),
    /// `rd ← frame_array[base + wrap(idx, len)]`
    LoadIdx {
        /// destination
        rd: Reg,
        /// frame slot index of the array base
        base: u32,
        /// register holding the element index
        idx: Reg,
        /// array length used for index wrapping
        len: u32,
    },
    /// `frame_array[base + wrap(idx, len)] ← rs`
    StoreIdx {
        /// register holding the value to store
        rs: Reg,
        /// frame slot index of the array base
        base: u32,
        /// register holding the element index
        idx: Reg,
        /// array length used for index wrapping
        len: u32,
    },
    /// Three-address ALU: `rd ← ra <op> rb` (RISC form)
    Alu3(AluOp, Reg, Reg, Reg),
    /// Two-address ALU: `rd ← rd <op> rs` (CISC form)
    Alu2(AluOp, Reg, Reg),
    /// Two-address ALU with memory operand: `rd ← rd <op> mem` (x86 only)
    Alu2Mem(AluOp, Reg, Mem),
    /// Unary ALU: `rd ← <op> rs`
    UnAlu(UnAluOp, Reg, Reg),
    /// `rd ← (ra <cmp> rb) ? 1 : 0`
    SetCc(CmpOp, Reg, Reg, Reg),
    /// Conditional select: `rd ← rc != 0 ? ra : rb` (ARM only)
    CSel {
        /// destination
        rd: Reg,
        /// condition register
        rc: Reg,
        /// value when the condition is nonzero
        ra: Reg,
        /// value when the condition is zero
        rb: Reg,
    },
    /// Branch to instruction `target` when `rc != 0`.
    Brnz(Reg, u32),
    /// Unconditional branch to instruction `target`.
    Jmp(u32),
    /// Push a register onto the outgoing-argument stack.
    Push(Reg),
    /// Call symbol `sym` with `argc` arguments.
    Call {
        /// symbol-table index of the callee
        sym: u32,
        /// number of arguments passed
        argc: u8,
    },
    /// Return; the return value is in register 0.
    Ret,
    /// No operation (alignment/padding).
    Nop,
}

impl MInst {
    /// True for instructions that transfer control.
    pub fn is_branch(&self) -> bool {
        matches!(self, MInst::Brnz(_, _) | MInst::Jmp(_) | MInst::Ret)
    }

    /// The branch target, if this is a jump or conditional branch.
    pub fn branch_target(&self) -> Option<u32> {
        match self {
            MInst::Brnz(_, t) | MInst::Jmp(t) => Some(*t),
            _ => None,
        }
    }

    /// True for ALU instructions (arithmetic class, used by ACFG features).
    pub fn is_arith(&self) -> bool {
        matches!(
            self,
            MInst::Alu3(_, _, _, _)
                | MInst::Alu2(_, _, _)
                | MInst::Alu2Mem(_, _, _)
                | MInst::UnAlu(_, _, _)
                | MInst::SetCc(_, _, _, _)
        )
    }
}

/// Target instruction set architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Stack-argument CISC with memory-operand ALU; variable-width encoding.
    X86,
    /// Register-argument CISC (two-address); variable-width encoding with a
    /// prefix byte.
    X64,
    /// Register-argument RISC (three-address, load/store) with conditional
    /// select (if-conversion); fixed 8-byte encoding.
    Arm,
    /// Register-argument RISC without hardware remainder or negate; fixed
    /// 8-byte encoding with a rotated opcode map.
    Ppc,
}

impl Arch {
    /// All supported architectures.
    pub const ALL: [Arch; 4] = [Arch::X86, Arch::X64, Arch::Arm, Arch::Ppc];

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Arch::X86 => "x86",
            Arch::X64 => "x64",
            Arch::Arm => "arm",
            Arch::Ppc => "ppc",
        }
    }

    /// Parses a display name back to an `Arch`.
    pub fn from_name(name: &str) -> Option<Arch> {
        Arch::ALL.iter().copied().find(|a| a.name() == name)
    }

    /// Number of general-purpose registers.
    pub fn reg_count(self) -> u8 {
        match self {
            Arch::X86 => 8,
            Arch::X64 => 16,
            Arch::Arm => 16,
            Arch::Ppc => 32,
        }
    }

    /// Registers used to pass leading call arguments (empty ⇒ all arguments
    /// travel on the stack).
    pub fn arg_regs(self) -> &'static [Reg] {
        const X64: [Reg; 6] = [Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6)];
        const ARM: [Reg; 4] = [Reg(1), Reg(2), Reg(3), Reg(4)];
        const PPC: [Reg; 8] = [
            Reg(3),
            Reg(4),
            Reg(5),
            Reg(6),
            Reg(7),
            Reg(8),
            Reg(9),
            Reg(10),
        ];
        match self {
            Arch::X86 => &[],
            Arch::X64 => &X64,
            Arch::Arm => &ARM,
            Arch::Ppc => &PPC,
        }
    }

    /// True for three-address (RISC) ALU architectures.
    pub fn is_three_address(self) -> bool {
        matches!(self, Arch::Arm | Arch::Ppc)
    }

    /// True when the ALU may take memory operands directly.
    pub fn has_mem_operands(self) -> bool {
        matches!(self, Arch::X86)
    }

    /// True when the ISA provides a conditional-select instruction, which
    /// enables if-conversion (the source of the paper's Fig. 2 basic-block
    /// collapse on ARM).
    pub fn has_csel(self) -> bool {
        matches!(self, Arch::Arm)
    }

    /// True when the ISA has a hardware remainder instruction.
    pub fn has_mod(self) -> bool {
        !matches!(self, Arch::Ppc)
    }

    /// True when the ISA has a hardware negate instruction.
    pub fn has_neg(self) -> bool {
        !matches!(self, Arch::Ppc)
    }

    /// Scratch registers available to the code generator for expression
    /// evaluation (disjoint from argument registers).
    pub fn scratch_regs(self) -> [Reg; 3] {
        match self {
            Arch::X86 => [Reg(0), Reg(1), Reg(2)],
            Arch::X64 => [Reg(0), Reg(7), Reg(8)],
            Arch::Arm => [Reg(0), Reg(5), Reg(6)],
            Arch::Ppc => [Reg(0), Reg(11), Reg(12)],
        }
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_roundtrips_names() {
        for a in Arch::ALL {
            assert_eq!(Arch::from_name(a.name()), Some(a));
        }
        assert_eq!(Arch::from_name("mips"), None);
    }

    #[test]
    fn scratch_regs_disjoint_from_arg_regs() {
        for a in Arch::ALL {
            for s in a.scratch_regs() {
                assert!(
                    !a.arg_regs().contains(&s),
                    "{a}: scratch {s:?} collides with arg regs"
                );
                assert!(s.0 < a.reg_count());
            }
            for r in a.arg_regs() {
                assert!(r.0 < a.reg_count());
            }
        }
    }

    #[test]
    fn cmp_eval_matches_semantics() {
        assert_eq!(CmpOp::Lt.eval(-1, 0), 1);
        assert_eq!(CmpOp::Ge.eval(-1, 0), 0);
        assert_eq!(CmpOp::Eq.eval(5, 5), 1);
        assert_eq!(CmpOp::Ne.eval(5, 5), 0);
        assert_eq!(CmpOp::Le.eval(5, 5), 1);
        assert_eq!(CmpOp::Gt.eval(6, 5), 1);
    }

    #[test]
    fn minst_classification() {
        assert!(MInst::Jmp(0).is_branch());
        assert!(MInst::Ret.is_branch());
        assert!(!MInst::Nop.is_branch());
        assert!(MInst::Alu2(AluOp::Add, Reg(0), Reg(1)).is_arith());
        assert_eq!(MInst::Brnz(Reg(0), 7).branch_target(), Some(7));
        assert_eq!(MInst::Ret.branch_target(), None);
    }

    #[test]
    fn arch_capability_matrix() {
        assert!(Arch::X86.has_mem_operands());
        assert!(!Arch::X64.has_mem_operands());
        assert!(Arch::Arm.has_csel());
        assert!(!Arch::Ppc.has_mod());
        assert!(!Arch::Ppc.has_neg());
        assert!(Arch::X86.arg_regs().is_empty());
        assert_eq!(Arch::Ppc.arg_regs().len(), 8);
    }
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mem::Frame(s) => write!(f, "[fp+{s}]"),
            Mem::Global(s) => write!(f, "[g{s}]"),
            Mem::Arg(s) => write!(f, "[arg{s}]"),
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for MInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MInst::MovImm(r, v) => write!(f, "mov   {r}, #{v}"),
            MInst::Mov(d, s) => write!(f, "mov   {d}, {s}"),
            MInst::LoadStr(r, s) => write!(f, "lea   {r}, str{s}"),
            MInst::Load(r, m) => write!(f, "ld    {r}, {m}"),
            MInst::Store(m, r) => write!(f, "st    {m}, {r}"),
            MInst::LoadIdx { rd, base, idx, len } => {
                write!(f, "ldx   {rd}, [fp+{base} + {idx} % {len}]")
            }
            MInst::StoreIdx { rs, base, idx, len } => {
                write!(f, "stx   [fp+{base} + {idx} % {len}], {rs}")
            }
            MInst::Alu3(op, d, a, b) => {
                write!(f, "{:<5} {d}, {a}, {b}", format!("{op:?}").to_lowercase())
            }
            MInst::Alu2(op, d, s) => write!(f, "{:<5} {d}, {s}", format!("{op:?}").to_lowercase()),
            MInst::Alu2Mem(op, d, m) => {
                write!(f, "{:<5} {d}, {m}", format!("{op:?}").to_lowercase())
            }
            MInst::UnAlu(op, d, s) => write!(f, "{:<5} {d}, {s}", format!("{op:?}").to_lowercase()),
            MInst::SetCc(cc, d, a, b) => {
                write!(
                    f,
                    "set{:<3} {d}, {a}, {b}",
                    format!("{cc:?}").to_lowercase()
                )
            }
            MInst::CSel { rd, rc, ra, rb } => write!(f, "csel  {rd}, {rc} ? {ra} : {rb}"),
            MInst::Brnz(r, t) => write!(f, "brnz  {r}, @{t}"),
            MInst::Jmp(t) => write!(f, "jmp   @{t}"),
            MInst::Push(r) => write!(f, "push  {r}"),
            MInst::Call { sym, argc } => write!(f, "call  sym{sym} ({argc} args)"),
            MInst::Ret => write!(f, "ret"),
            MInst::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn instructions_render_uniquely() {
        let insts = [
            MInst::MovImm(Reg(1), -7),
            MInst::Load(Reg(0), Mem::Frame(3)),
            MInst::Alu3(AluOp::Add, Reg(0), Reg(1), Reg(2)),
            MInst::Brnz(Reg(0), 12),
            MInst::Call { sym: 2, argc: 3 },
            MInst::Ret,
        ];
        let rendered: Vec<String> = insts.iter().map(|i| i.to_string()).collect();
        for (i, a) in rendered.iter().enumerate() {
            assert!(!a.is_empty());
            for b in rendered.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert!(rendered[0].contains("#-7"));
        assert!(rendered[3].contains("@12"));
    }
}
