//! Per-architecture binary instruction encodings.
//!
//! Each ISA lays the canonical [`MInst`] form out in bytes differently.
//! One description (`layout`) gives every (arch, tag) pair's bytes, and one
//! table-driven encoder and decoder read it for all four layouts:
//!
//! - **x86**: variable-width, single opcode byte (`tag + 0x10`),
//!   little-endian immediates — instructions are 1–10 bytes;
//! - **x64**: variable-width with a `0x48` prefix byte and a shifted opcode
//!   page (`tag + 0x50`);
//! - **ARM**: fixed 8-byte words `[op, f1, f2, f3, imm32le]`;
//! - **PPC**: fixed 8-byte words with a scrambled opcode map, *reversed*
//!   register fields and a **big-endian** immediate.
//!
//! In the canonical form branch targets are instruction indices; encoded
//! instructions carry byte offsets. [`encode_function`] and
//! [`decode_function`] perform the translation in both directions.

use std::fmt;

use crate::isa::{AluOp, Arch, CmpOp, MInst, Mem, Reg, UnAluOp};

/// Errors produced while encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate does not fit the fixed-width instruction format.
    ImmOverflow {
        /// The offending value.
        value: i64,
        /// Architecture whose format was exceeded.
        arch: Arch,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOverflow { value, arch } => {
                write!(f, "immediate {value} does not fit {arch} encoding")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Opcode byte not valid for this architecture.
    BadOpcode {
        /// Byte offset of the instruction.
        offset: usize,
        /// The opcode byte.
        opcode: u8,
    },
    /// The byte stream ended mid-instruction.
    Truncated {
        /// Byte offset of the instruction.
        offset: usize,
    },
    /// A branch lands between instruction boundaries.
    MisalignedTarget {
        /// The target byte offset.
        target: u32,
    },
    /// A field held an out-of-range value (register, ALU selector, …).
    BadField {
        /// Byte offset of the instruction.
        offset: usize,
        /// Field description.
        what: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode { offset, opcode } => {
                write!(f, "bad opcode {opcode:#04x} at byte {offset}")
            }
            DecodeError::Truncated { offset } => {
                write!(f, "truncated instruction at byte {offset}")
            }
            DecodeError::MisalignedTarget { target } => {
                write!(f, "branch target {target} is not an instruction boundary")
            }
            DecodeError::BadField { offset, what } => {
                write!(f, "bad {what} field at byte {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Shape tags shared by all encodings (the per-arch opcode is derived from
/// the tag differently per ISA).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    MovImm32,
    MovImm64,
    Mov,
    LoadStr,
    Load,
    Store,
    LoadIdx,
    StoreIdx,
    Alu3,
    Alu2,
    Alu2Mem,
    UnAlu,
    SetCc,
    CSel,
    Brnz,
    Jmp,
    Push,
    Call,
    Ret,
    Nop,
}

/// Every tag, in discriminant order: the table each opcode map is
/// derived from.
const TAGS: [Tag; 20] = [
    Tag::MovImm32,
    Tag::MovImm64,
    Tag::Mov,
    Tag::LoadStr,
    Tag::Load,
    Tag::Store,
    Tag::LoadIdx,
    Tag::StoreIdx,
    Tag::Alu3,
    Tag::Alu2,
    Tag::Alu2Mem,
    Tag::UnAlu,
    Tag::SetCc,
    Tag::CSel,
    Tag::Brnz,
    Tag::Jmp,
    Tag::Push,
    Tag::Call,
    Tag::Ret,
    Tag::Nop,
];

/// How an instruction carries its immediate.
#[derive(Clone, Copy)]
enum Imm {
    None,
    /// One byte.
    U8,
    /// Four little-endian bytes, zero-extended.
    U32,
    /// Four bytes, sign-extended; encoding checks that the value fits.
    I32,
    /// Eight little-endian bytes.
    I64,
}

/// The bytes of one (arch, tag) pair: an optional prefix byte, the opcode,
/// `regs` leading register fields, then the immediate.
#[derive(Clone, Copy)]
struct Layout {
    prefix: Option<u8>,
    opcode: u8,
    regs: u8,
    imm: Imm,
    /// Register fields stored in reverse order and an `i32` big-endian.
    mirrored: bool,
}

impl Layout {
    const fn len(&self) -> usize {
        let imm = match self.imm {
            Imm::None => 0,
            Imm::U8 => 1,
            Imm::U32 | Imm::I32 => 4,
            Imm::I64 => 8,
        };
        self.prefix.is_some() as usize + 1 + self.regs as usize + imm
    }
}

/// The one description of every (arch, tag) layout.
const fn layout(arch: Arch, tag: Tag) -> Layout {
    let t = tag as u8;
    let (prefix, opcode, regs, imm) = match arch {
        Arch::Arm => (None, t + 0x20, 3, Imm::I32),
        Arch::Ppc => {
            let scrambled = (t.wrapping_mul(7).wrapping_add(3) & 0x7f) | 0x80;
            (None, scrambled, 3, Imm::I32)
        }
        Arch::X86 | Arch::X64 => {
            let (regs, imm) = match tag {
                Tag::MovImm32 => (1, Imm::I32),
                Tag::MovImm64 => (1, Imm::I64),
                Tag::Mov => (2, Imm::None),
                Tag::LoadStr | Tag::Brnz | Tag::Call => (1, Imm::U32),
                Tag::Load | Tag::Store | Tag::Alu2Mem => (3, Imm::U32),
                Tag::LoadIdx | Tag::StoreIdx => (2, Imm::I64),
                Tag::Alu3 | Tag::SetCc | Tag::CSel => (3, Imm::U8),
                Tag::Alu2 | Tag::UnAlu => (2, Imm::U8),
                Tag::Jmp => (0, Imm::U32),
                Tag::Push => (1, Imm::None),
                Tag::Ret | Tag::Nop => (0, Imm::None),
            };
            match arch {
                Arch::X64 => (Some(0x48), t + 0x50, regs, imm),
                _ => (None, t + 0x10, regs, imm),
            }
        }
    };
    Layout {
        prefix,
        opcode,
        regs,
        imm,
        mirrored: matches!(arch, Arch::Ppc),
    }
}

/// One arch's decoding table, derived from [`layout`].
struct Decoder {
    /// The prefix byte every instruction starts with.
    prefix: Option<u8>,
    /// The shortest instruction: fewer bytes are truncated whatever the
    /// opcode, so a fixed-width word is checked whole before its opcode.
    min_len: usize,
    /// The tag each opcode byte names.
    by_opcode: [Option<Tag>; 256],
}

const fn decoder(arch: Arch) -> Decoder {
    let mut d = Decoder {
        // Every layout of an arch has the same prefix.
        prefix: layout(arch, Tag::Nop).prefix,
        min_len: usize::MAX,
        by_opcode: [None; 256],
    };
    let mut i = 0;
    while i < TAGS.len() {
        let l = layout(arch, TAGS[i]);
        assert!(d.by_opcode[l.opcode as usize].is_none(), "opcode collision");
        d.by_opcode[l.opcode as usize] = Some(TAGS[i]);
        if l.len() < d.min_len {
            d.min_len = l.len();
        }
        i += 1;
    }
    d
}

/// Indexed by `arch as usize`.
static DECODERS: [Decoder; 4] = [
    decoder(Arch::X86),
    decoder(Arch::X64),
    decoder(Arch::Arm),
    decoder(Arch::Ppc),
];

/// Unary ALU operations, in encoding order.
const UNALU_OPS: [UnAluOp; 3] = [UnAluOp::Neg, UnAluOp::Not, UnAluOp::BitNot];

/// The byte `v` encodes to: its position in its encoding-order table.
pub(crate) fn table_byte<T: PartialEq>(table: &[T], v: &T) -> u8 {
    table
        .iter()
        .position(|t| t == v)
        .expect("every value is in its table") as u8
}

/// The entry a decoded byte names in its encoding-order table.
fn table_entry<T: Copy>(
    table: &[T],
    byte: u8,
    offset: usize,
    what: &'static str,
) -> Result<T, DecodeError> {
    table
        .get(byte as usize)
        .copied()
        .ok_or(DecodeError::BadField { offset, what })
}

/// The kind byte and slot of a memory operand: the inverse of [`mem_from`].
fn mem_kind(m: Mem) -> (u8, u32) {
    let (Mem::Frame(slot) | Mem::Global(slot) | Mem::Arg(slot)) = m;
    let kind = (0..=u8::MAX).find(|&k| mem_from(k, slot, 0) == Ok(m));
    (kind.expect("every memory kind decodes"), slot)
}

fn mem_from(kind: u8, slot: u32, offset: usize) -> Result<Mem, DecodeError> {
    Ok(match kind {
        0 => Mem::Frame(slot),
        1 => Mem::Global(slot),
        2 => Mem::Arg(slot),
        _ => {
            return Err(DecodeError::BadField {
                offset,
                what: "memory kind",
            })
        }
    })
}

fn alu_from(i: u8, offset: usize) -> Result<AluOp, DecodeError> {
    table_entry(&AluOp::ALL, i, offset, "alu op")
}

/// The `(tag, register fields, imm)` tuple all encodings serialize.
struct Fields {
    tag: Tag,
    regs: [u8; 3],
    imm: i64,
}

/// Deconstructs an instruction into encoding fields. `imm` carries branch
/// byte-targets, slots, ALU selectors or immediates depending on the tag.
fn to_fields(inst: &MInst) -> Fields {
    let f = |tag, regs, imm| Fields { tag, regs, imm };
    let alu = |op| table_byte(&AluOp::ALL, op);
    match inst {
        MInst::MovImm(rd, v) => {
            if i32::try_from(*v).is_ok() {
                f(Tag::MovImm32, [rd.0, 0, 0], *v)
            } else {
                f(Tag::MovImm64, [rd.0, 0, 0], *v)
            }
        }
        MInst::Mov(rd, rs) => f(Tag::Mov, [rd.0, rs.0, 0], 0),
        MInst::LoadStr(rd, sid) => f(Tag::LoadStr, [rd.0, 0, 0], *sid as i64),
        MInst::Load(rd, m) => {
            let (k, s) = mem_kind(*m);
            f(Tag::Load, [rd.0, k, 0], s as i64)
        }
        MInst::Store(m, rs) => {
            let (k, s) = mem_kind(*m);
            f(Tag::Store, [rs.0, k, 0], s as i64)
        }
        MInst::LoadIdx { rd, base, idx, len } => f(
            Tag::LoadIdx,
            [rd.0, idx.0, 0],
            ((*base as i64) << 20) | *len as i64,
        ),
        MInst::StoreIdx { rs, base, idx, len } => f(
            Tag::StoreIdx,
            [rs.0, idx.0, 0],
            ((*base as i64) << 20) | *len as i64,
        ),
        MInst::Alu3(op, rd, ra, rb) => f(Tag::Alu3, [rd.0, ra.0, rb.0], alu(op) as i64),
        MInst::Alu2(op, rd, rs) => f(Tag::Alu2, [rd.0, rs.0, 0], alu(op) as i64),
        MInst::Alu2Mem(op, rd, m) => {
            let (k, s) = mem_kind(*m);
            f(Tag::Alu2Mem, [rd.0, k, alu(op)], s as i64)
        }
        MInst::UnAlu(op, rd, rs) => {
            let op = table_byte(&UNALU_OPS, op);
            f(Tag::UnAlu, [rd.0, rs.0, 0], op as i64)
        }
        MInst::SetCc(cc, rd, ra, rb) => {
            let cc = table_byte(&CmpOp::ALL, cc);
            f(Tag::SetCc, [rd.0, ra.0, rb.0], cc as i64)
        }
        MInst::CSel { rd, rc, ra, rb } => f(Tag::CSel, [rd.0, rc.0, ra.0], rb.0 as i64),
        MInst::Brnz(rc, t) => f(Tag::Brnz, [rc.0, 0, 0], *t as i64),
        MInst::Jmp(t) => f(Tag::Jmp, [0; 3], *t as i64),
        MInst::Push(r) => f(Tag::Push, [r.0, 0, 0], 0),
        MInst::Call { sym, argc } => f(Tag::Call, [*argc, 0, 0], *sym as i64),
        MInst::Ret => f(Tag::Ret, [0; 3], 0),
        MInst::Nop => f(Tag::Nop, [0; 3], 0),
    }
}

/// Rebuilds an instruction from decoded fields.
fn from_fields(fl: &Fields, offset: usize) -> Result<MInst, DecodeError> {
    let [f1, f2, f3] = fl.regs.map(Reg);
    Ok(match fl.tag {
        Tag::MovImm32 | Tag::MovImm64 => MInst::MovImm(f1, fl.imm),
        Tag::Mov => MInst::Mov(f1, f2),
        Tag::LoadStr => MInst::LoadStr(f1, fl.imm as u32),
        Tag::Load => MInst::Load(f1, mem_from(f2.0, fl.imm as u32, offset)?),
        Tag::Store => MInst::Store(mem_from(f2.0, fl.imm as u32, offset)?, f1),
        Tag::LoadIdx => MInst::LoadIdx {
            rd: f1,
            idx: f2,
            base: (fl.imm >> 20) as u32,
            len: (fl.imm & 0xfffff) as u32,
        },
        Tag::StoreIdx => MInst::StoreIdx {
            rs: f1,
            idx: f2,
            base: (fl.imm >> 20) as u32,
            len: (fl.imm & 0xfffff) as u32,
        },
        Tag::Alu3 => MInst::Alu3(alu_from(fl.imm as u8, offset)?, f1, f2, f3),
        Tag::Alu2 => MInst::Alu2(alu_from(fl.imm as u8, offset)?, f1, f2),
        Tag::Alu2Mem => MInst::Alu2Mem(
            alu_from(f3.0, offset)?,
            f1,
            mem_from(f2.0, fl.imm as u32, offset)?,
        ),
        Tag::UnAlu => MInst::UnAlu(
            table_entry(&UNALU_OPS, fl.imm as u8, offset, "unary alu op")?,
            f1,
            f2,
        ),
        Tag::SetCc => MInst::SetCc(
            table_entry(&CmpOp::ALL, fl.imm as u8, offset, "cmp op")?,
            f1,
            f2,
            f3,
        ),
        Tag::CSel => MInst::CSel {
            rd: f1,
            rc: f2,
            ra: f3,
            rb: Reg(fl.imm as u8),
        },
        Tag::Brnz => MInst::Brnz(f1, fl.imm as u32),
        Tag::Jmp => MInst::Jmp(fl.imm as u32),
        Tag::Push => MInst::Push(f1),
        Tag::Call => MInst::Call {
            sym: fl.imm as u32,
            argc: f1.0,
        },
        Tag::Ret => MInst::Ret,
        Tag::Nop => MInst::Nop,
    })
}

/// Encodes a function body. Branch targets in `insts` are instruction
/// indices; in the output they are byte offsets.
///
/// # Errors
///
/// Returns [`EncodeError::ImmOverflow`] when a constant exceeds a
/// fixed-width format (ARM/PPC carry 32-bit immediates).
pub fn encode_function(insts: &[MInst], arch: Arch) -> Result<Vec<u8>, EncodeError> {
    // One loop per arch, as in `decode_function`.
    match arch {
        Arch::X86 => encode_as(insts, Arch::X86),
        Arch::X64 => encode_as(insts, Arch::X64),
        Arch::Arm => encode_as(insts, Arch::Arm),
        Arch::Ppc => encode_as(insts, Arch::Ppc),
    }
}

#[inline(always)]
fn encode_as(insts: &[MInst], arch: Arch) -> Result<Vec<u8>, EncodeError> {
    // Pass 1: byte offset of every instruction.
    let mut offsets = Vec::with_capacity(insts.len() + 1);
    let mut pos = 0usize;
    for inst in insts {
        offsets.push(pos as u32);
        pos += layout(arch, to_fields(inst).tag).len();
    }
    offsets.push(pos as u32);

    // Pass 2: emit with byte-offset branch targets.
    let mut out = Vec::with_capacity(pos);
    for inst in insts {
        let mut fl = to_fields(inst);
        let l = layout(arch, fl.tag);
        if let Some(t) = inst.branch_target() {
            fl.imm = offsets[t as usize] as i64;
        }
        out.extend(l.prefix);
        out.push(l.opcode);
        let regs = &mut fl.regs[..l.regs as usize];
        if l.mirrored {
            regs.reverse();
        }
        out.extend_from_slice(regs);
        match l.imm {
            Imm::None => {}
            Imm::U8 => out.push(fl.imm as u8),
            Imm::U32 => out.extend_from_slice(&(fl.imm as u32).to_le_bytes()),
            Imm::I32 => {
                let v = i32::try_from(fl.imm).map_err(|_| EncodeError::ImmOverflow {
                    value: fl.imm,
                    arch,
                })?;
                out.extend_from_slice(&if l.mirrored {
                    v.to_be_bytes()
                } else {
                    v.to_le_bytes()
                });
            }
            Imm::I64 => out.extend_from_slice(&fl.imm.to_le_bytes()),
        }
    }
    Ok(out)
}

/// Decodes one instruction at `pos`, returning fields and advancing `pos`.
#[inline(always)]
fn decode_one(bytes: &[u8], pos: &mut usize, arch: Arch) -> Result<Fields, DecodeError> {
    let start = *pos;
    let d = &DECODERS[arch as usize];
    let rest = bytes.get(start..).unwrap_or_default();
    let truncated = DecodeError::Truncated { offset: start };
    let bad_opcode = |opcode| DecodeError::BadOpcode {
        offset: start,
        opcode,
    };
    let head = match d.prefix {
        Some(p) => match rest.first() {
            Some(&b) if b != p => return Err(bad_opcode(b)),
            _ => 1,
        },
        None => 0,
    };
    if rest.len() < d.min_len {
        return Err(truncated);
    }
    let opcode = rest[head];
    let tag = d.by_opcode[opcode as usize].ok_or(bad_opcode(opcode))?;
    let l = layout(arch, tag);
    let word = rest.get(..l.len()).ok_or(truncated)?;
    let (regs, imm) = word[head + 1..].split_at(l.regs as usize);
    let reg = |k: usize| regs.get(k).copied().unwrap_or(0);
    let mut fl = Fields {
        tag,
        regs: [reg(0), reg(1), reg(2)],
        imm: 0,
    };
    if l.mirrored {
        fl.regs[..regs.len()].reverse();
    }
    let b = |i: usize| imm[i];
    fl.imm = match l.imm {
        Imm::None => 0,
        Imm::U8 => b(0) as i64,
        Imm::U32 => u32::from_le_bytes([b(0), b(1), b(2), b(3)]) as i64,
        Imm::I32 if l.mirrored => i32::from_be_bytes([b(0), b(1), b(2), b(3)]) as i64,
        Imm::I32 => i32::from_le_bytes([b(0), b(1), b(2), b(3)]) as i64,
        Imm::I64 => i64::from_le_bytes([b(0), b(1), b(2), b(3), b(4), b(5), b(6), b(7)]),
    };
    *pos = start + word.len();
    Ok(fl)
}

/// Decodes a whole function body back to canonical form (branch targets
/// converted from byte offsets to instruction indices).
///
/// # Errors
///
/// See [`DecodeError`].
pub fn decode_function(bytes: &[u8], arch: Arch) -> Result<Vec<MInst>, DecodeError> {
    // One loop per arch, inlined, so what `layout` fixes for a whole arch
    // (prefix, widths, field order) folds to constants in it.
    match arch {
        Arch::X86 => decode_as(bytes, Arch::X86),
        Arch::X64 => decode_as(bytes, Arch::X64),
        Arch::Arm => decode_as(bytes, Arch::Arm),
        Arch::Ppc => decode_as(bytes, Arch::Ppc),
    }
}

#[inline(always)]
fn decode_as(bytes: &[u8], arch: Arch) -> Result<Vec<MInst>, DecodeError> {
    let mut insts = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let start = pos;
        let fl = decode_one(bytes, &mut pos, arch)?;
        offsets.push(start as u32);
        insts.push(from_fields(&fl, start)?);
    }
    // Byte offsets → instruction indices.
    for inst in &mut insts {
        match inst {
            MInst::Jmp(t) | MInst::Brnz(_, t) => {
                let idx = offsets
                    .binary_search(t)
                    .map_err(|_| DecodeError::MisalignedTarget { target: *t })?;
                *t = idx as u32;
            }
            _ => {}
        }
    }
    Ok(insts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_insts() -> Vec<MInst> {
        vec![
            MInst::MovImm(Reg(0), 42),
            MInst::MovImm(Reg(1), i64::MIN / 3),
            MInst::Mov(Reg(2), Reg(0)),
            MInst::LoadStr(Reg(0), 7),
            MInst::Load(Reg(1), Mem::Frame(12)),
            MInst::Store(Mem::Global(3), Reg(1)),
            MInst::Load(Reg(2), Mem::Arg(1)),
            MInst::LoadIdx {
                rd: Reg(0),
                base: 5,
                idx: Reg(1),
                len: 16,
            },
            MInst::StoreIdx {
                rs: Reg(2),
                base: 5,
                idx: Reg(1),
                len: 16,
            },
            MInst::Alu3(AluOp::Mul, Reg(0), Reg(1), Reg(2)),
            MInst::Alu2(AluOp::Xor, Reg(0), Reg(1)),
            MInst::Alu2Mem(AluOp::Add, Reg(0), Mem::Frame(9)),
            MInst::UnAlu(UnAluOp::BitNot, Reg(0), Reg(1)),
            MInst::SetCc(CmpOp::Le, Reg(0), Reg(1), Reg(2)),
            MInst::CSel {
                rd: Reg(0),
                rc: Reg(1),
                ra: Reg(2),
                rb: Reg(3),
            },
            MInst::Brnz(Reg(0), 0),
            MInst::Push(Reg(1)),
            MInst::Call { sym: 4, argc: 2 },
            MInst::Jmp(19),
            MInst::Ret,
            MInst::Nop,
        ]
    }

    #[test]
    fn tags_are_listed_in_discriminant_order() {
        for (i, tag) in TAGS.into_iter().enumerate() {
            assert_eq!(tag as usize, i, "{tag:?}");
        }
    }

    #[test]
    fn roundtrip_all_instructions_all_arches() {
        for arch in Arch::ALL {
            let insts: Vec<MInst> = sample_insts()
                .into_iter()
                .filter(|i| {
                    // Fixed-width formats carry 32-bit immediates only.
                    if matches!(arch, Arch::Arm | Arch::Ppc) {
                        !matches!(i, MInst::MovImm(_, v) if i32::try_from(*v).is_err())
                    } else {
                        true
                    }
                })
                .collect();
            let bytes = encode_function(&insts, arch).unwrap();
            let decoded = decode_function(&bytes, arch).unwrap();
            assert_eq!(decoded, insts, "roundtrip failed on {arch}");
        }
    }

    #[test]
    fn fixed_width_is_eight_bytes() {
        let insts = vec![MInst::Nop, MInst::Ret, MInst::MovImm(Reg(0), 1)];
        for arch in [Arch::Arm, Arch::Ppc] {
            let bytes = encode_function(&insts, arch).unwrap();
            assert_eq!(bytes.len(), 24, "{arch}");
        }
    }

    #[test]
    fn x86_is_variable_width_and_denser_for_simple_code() {
        let insts = vec![MInst::Ret, MInst::Nop, MInst::Push(Reg(1))];
        let x86 = encode_function(&insts, Arch::X86).unwrap();
        let arm = encode_function(&insts, Arch::Arm).unwrap();
        assert!(x86.len() < arm.len());
    }

    #[test]
    fn encodings_differ_across_arches() {
        let insts = vec![MInst::MovImm(Reg(1), 7), MInst::Ret];
        let mut images: Vec<Vec<u8>> = Vec::new();
        for arch in Arch::ALL {
            images.push(encode_function(&insts, arch).unwrap());
        }
        for i in 0..images.len() {
            for j in i + 1..images.len() {
                assert_ne!(images[i], images[j], "arch {i} and {j} encode identically");
            }
        }
    }

    #[test]
    fn big_imm_overflows_fixed_width() {
        let insts = vec![MInst::MovImm(Reg(0), i64::MAX)];
        assert!(matches!(
            encode_function(&insts, Arch::Arm),
            Err(EncodeError::ImmOverflow { .. })
        ));
        assert!(encode_function(&insts, Arch::X86).is_ok());
    }

    #[test]
    fn branch_targets_survive_variable_width() {
        // jmp over a long instruction: byte offsets differ from indices.
        let insts = vec![
            MInst::Jmp(2),
            MInst::MovImm(Reg(0), i64::MAX), // 10 bytes on x86
            MInst::Ret,
        ];
        let bytes = encode_function(&insts, Arch::X86).unwrap();
        let decoded = decode_function(&bytes, Arch::X86).unwrap();
        assert_eq!(decoded, insts);
    }

    #[test]
    fn truncated_stream_errors() {
        let bytes = encode_function(&[MInst::MovImm(Reg(0), 500)], Arch::X86).unwrap();
        let cut = &bytes[..bytes.len() - 1];
        assert!(matches!(
            decode_function(cut, Arch::X86),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_opcode_errors() {
        assert!(matches!(
            decode_function(&[0xff; 8], Arch::Arm),
            Err(DecodeError::BadOpcode { .. })
        ));
    }

    #[test]
    fn misaligned_branch_target_errors() {
        // Craft a jmp into the middle of the following instruction.
        let insts = vec![MInst::Jmp(1), MInst::MovImm(Reg(0), 1), MInst::Ret];
        let mut bytes = encode_function(&insts, Arch::X86).unwrap();
        // Jmp imm starts at byte 1; point it at offset 6 (mid-MovImm).
        bytes[1..5].copy_from_slice(&6u32.to_le_bytes());
        assert!(matches!(
            decode_function(&bytes, Arch::X86),
            Err(DecodeError::MisalignedTarget { .. })
        ));
    }

    #[test]
    fn ppc_immediates_are_big_endian() {
        let bytes = encode_function(&[MInst::MovImm(Reg(0), 1)], Arch::Ppc).unwrap();
        assert_eq!(&bytes[4..8], &[0, 0, 0, 1]);
        let arm = encode_function(&[MInst::MovImm(Reg(0), 1)], Arch::Arm).unwrap();
        assert_eq!(&arm[4..8], &[1, 0, 0, 0]);
    }
}
