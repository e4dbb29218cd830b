//! Three-address intermediate representation with an explicit CFG.
//!
//! Lowering from the MiniC AST produces one [`IrFunction`] per source
//! function. Locals and temporaries live in named slots ([`LocalId`]) and
//! virtual registers ([`VReg`]); the backends later map both onto frame
//! slots and machine registers.

use std::fmt;

use asteria_lang::{BinOp, UnOp};

/// A virtual register holding a 64-bit integer value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

/// Index of a local slot (scalar or array) in an [`IrFunction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalId(pub u32);

/// Index of a global in the program's global table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalId(pub u32);

/// Index of a string constant in the program's string table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StringId(pub u32);

/// Index of a basic block in an [`IrFunction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Kind of storage behind a local slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalKind {
    /// A scalar 64-bit slot.
    Scalar,
    /// A fixed-size array of 64-bit slots.
    Array(usize),
}

/// A local slot: parameter, named local, or array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalInfo {
    /// Source-level name (compiler temporaries use a `$t` prefix).
    pub name: String,
    /// Storage kind.
    pub kind: LocalKind,
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `dst = imm`
    Const(VReg, i64),
    /// `dst = addr_of_string(sid)` — string constants only flow into calls.
    Str(VReg, StringId),
    /// `dst = a <op> b`
    Bin(BinOp, VReg, VReg, VReg),
    /// `dst = <op> a`
    Un(UnOp, VReg, VReg),
    /// `dst = local`
    LoadLocal(VReg, LocalId),
    /// `local = src`
    StoreLocal(LocalId, VReg),
    /// `dst = global`
    LoadGlobal(VReg, GlobalId),
    /// `global = src`
    StoreGlobal(GlobalId, VReg),
    /// `dst = array[idx]` (index wraps into bounds; see language semantics)
    LoadElem(VReg, LocalId, VReg),
    /// `array[idx] = src`
    StoreElem(LocalId, VReg, VReg),
    /// `dst = call sym(args…)`; `dst` is always present (results may be unused).
    Call(VReg, String, Vec<VReg>),
    /// `dst = cond != 0 ? a : b` — produced only by the ARM backend's
    /// if-conversion pass; never emitted by the lowerer.
    Select(VReg, VReg, VReg, VReg),
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Conditional branch: `if cond != 0 goto then_bb else goto else_bb`.
    Br(VReg, BlockId, BlockId),
    /// Function return; `None` returns 0.
    Ret(Option<VReg>),
}

impl Term {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Jmp(t) => vec![*t],
            Term::Br(_, a, b) => vec![*a, *b],
            Term::Ret(_) => vec![],
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// The terminator; blocks under construction use `Ret(None)`.
    pub term: Term,
}

impl Block {
    /// Creates an empty block terminated by `ret 0` (placeholder).
    pub fn new() -> Self {
        Block {
            insts: Vec::new(),
            term: Term::Ret(None),
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::new()
    }
}

/// A function in IR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrFunction {
    /// Symbol name.
    pub name: String,
    /// Number of leading locals that are parameters.
    pub param_count: usize,
    /// All local slots; the first `param_count` are parameters.
    pub locals: Vec<LocalInfo>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Number of virtual registers used.
    pub vreg_count: u32,
}

impl IrFunction {
    /// Fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let r = VReg(self.vreg_count);
        self.vreg_count += 1;
        r
    }

    /// Appends an empty block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::new());
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Shared read access to a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// Blocks reachable from the entry, in DFS preorder.
    pub fn reachable_blocks(&self) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut order = Vec::new();
        let mut stack = vec![BlockId(0)];
        while let Some(b) = stack.pop() {
            if seen[b.0 as usize] {
                continue;
            }
            seen[b.0 as usize] = true;
            order.push(b);
            for s in self.block(b).term.successors() {
                stack.push(s);
            }
        }
        order
    }

    /// Validates structural invariants; used by tests and debug assertions.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: out-of-range
    /// block, local or vreg references.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err(format!("{}: no blocks", self.name));
        }
        if self.param_count > self.locals.len() {
            return Err(format!("{}: param_count out of range", self.name));
        }
        let check_vreg = |r: VReg| -> Result<(), String> {
            if r.0 >= self.vreg_count {
                Err(format!("{}: vreg {:?} out of range", self.name, r))
            } else {
                Ok(())
            }
        };
        let check_local = |l: LocalId| -> Result<(), String> {
            if l.0 as usize >= self.locals.len() {
                Err(format!("{}: local {:?} out of range", self.name, l))
            } else {
                Ok(())
            }
        };
        for (i, b) in self.blocks.iter().enumerate() {
            for inst in &b.insts {
                match inst {
                    Inst::Const(d, _) | Inst::Str(d, _) => check_vreg(*d)?,
                    Inst::Bin(_, d, a, c) => {
                        check_vreg(*d)?;
                        check_vreg(*a)?;
                        check_vreg(*c)?;
                    }
                    Inst::Un(_, d, a) => {
                        check_vreg(*d)?;
                        check_vreg(*a)?;
                    }
                    Inst::LoadLocal(d, l) => {
                        check_vreg(*d)?;
                        check_local(*l)?;
                    }
                    Inst::StoreLocal(l, s) => {
                        check_local(*l)?;
                        check_vreg(*s)?;
                    }
                    Inst::LoadGlobal(d, _) => check_vreg(*d)?,
                    Inst::StoreGlobal(_, s) => check_vreg(*s)?,
                    Inst::LoadElem(d, l, idx) => {
                        check_vreg(*d)?;
                        check_local(*l)?;
                        check_vreg(*idx)?;
                    }
                    Inst::StoreElem(l, idx, s) => {
                        check_local(*l)?;
                        check_vreg(*idx)?;
                        check_vreg(*s)?;
                    }
                    Inst::Call(d, _, args) => {
                        check_vreg(*d)?;
                        for a in args {
                            check_vreg(*a)?;
                        }
                    }
                    Inst::Select(d, c, a, b2) => {
                        check_vreg(*d)?;
                        check_vreg(*c)?;
                        check_vreg(*a)?;
                        check_vreg(*b2)?;
                    }
                }
            }
            for s in b.term.successors() {
                if s.0 as usize >= self.blocks.len() {
                    return Err(format!(
                        "{}: block {} branches to missing {:?}",
                        self.name, i, s
                    ));
                }
            }
            if let Term::Br(c, _, _) = &b.term {
                check_vreg(*c)?;
            }
            if let Term::Ret(Some(r)) = &b.term {
                check_vreg(*r)?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for IrFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fn {}({} params)", self.name, self.param_count)?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "bb{i}:")?;
            for inst in &b.insts {
                writeln!(f, "  {inst:?}")?;
            }
            writeln!(f, "  {:?}", b.term)?;
        }
        Ok(())
    }
}

/// A lowered program: functions plus global/string tables.
#[derive(Debug, Clone, Default)]
pub struct IrProgram {
    /// All functions.
    pub functions: Vec<IrFunction>,
    /// Global scalar names and initial values.
    pub globals: Vec<(String, i64)>,
    /// Interned string constants.
    pub strings: Vec<String>,
}

impl IrProgram {
    /// Looks up a function by name.
    #[cfg(test)]
    pub fn function(&self, name: &str) -> Option<&IrFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Index of a global by name.
    pub fn global_id(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Interns a string constant, returning its id.
    pub fn intern_string(&mut self, s: &str) -> StringId {
        if let Some(i) = self.strings.iter().position(|t| t == s) {
            return StringId(i as u32);
        }
        self.strings.push(s.to_string());
        StringId(self.strings.len() as u32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fn() -> IrFunction {
        let mut f = IrFunction {
            name: "t".into(),
            param_count: 0,
            locals: vec![],
            blocks: vec![],
            vreg_count: 0,
        };
        let b = f.new_block();
        let r = f.new_vreg();
        f.block_mut(b).insts.push(Inst::Const(r, 7));
        f.block_mut(b).term = Term::Ret(Some(r));
        f
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert_eq!(tiny_fn().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_vreg() {
        let mut f = tiny_fn();
        f.block_mut(BlockId(0)).term = Term::Ret(Some(VReg(99)));
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_block() {
        let mut f = tiny_fn();
        f.block_mut(BlockId(0)).term = Term::Jmp(BlockId(5));
        assert!(f.validate().is_err());
    }

    #[test]
    fn reachable_skips_orphans() {
        let mut f = tiny_fn();
        f.new_block(); // orphan
        assert_eq!(f.reachable_blocks(), vec![BlockId(0)]);
    }

    #[test]
    fn intern_string_dedups() {
        let mut p = IrProgram::default();
        let a = p.intern_string("x");
        let b = p.intern_string("x");
        let c = p.intern_string("y");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
