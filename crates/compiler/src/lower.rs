//! Lowering from the MiniC AST to the three-address IR.

use std::collections::HashMap;

use asteria_lang::{BinOp, Expr, Function, IncDec, LValue, Program, Stmt, UnOp};

use crate::ir::{
    Block, BlockId, GlobalId, Inst, IrFunction, IrProgram, LocalId, LocalInfo, LocalKind, Term,
    VReg,
};

/// Errors produced during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// Reference to a variable that is neither local nor global.
    UnknownVar {
        /// Enclosing function.
        function: String,
        /// Variable name.
        variable: String,
    },
    /// `break`/`continue` outside a loop.
    MisplacedJump {
        /// Enclosing function.
        function: String,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::UnknownVar { function, variable } => {
                write!(f, "unknown variable {variable} in {function}")
            }
            LowerError::MisplacedJump { function } => {
                write!(f, "break/continue outside loop in {function}")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Lowers a full program to IR.
///
/// # Errors
///
/// Returns the first [`LowerError`] encountered.
pub(crate) fn lower_program(program: &Program) -> Result<IrProgram, LowerError> {
    let mut ir = IrProgram {
        functions: Vec::new(),
        globals: program
            .globals
            .iter()
            .map(|g| (g.name.clone(), g.value))
            .collect(),
        strings: Vec::new(),
    };
    for f in &program.functions {
        let lowered = Lowerer::new(f, &mut ir).lower()?;
        debug_assert_eq!(lowered.validate(), Ok(()));
        ir.functions.push(lowered);
    }
    Ok(ir)
}

enum Slot {
    Scalar(LocalId),
    Array(LocalId),
    Global(GlobalId),
}

struct LoopCtx {
    break_to: BlockId,
    continue_to: BlockId,
}

struct Lowerer<'a> {
    source: &'a Function,
    func: IrFunction,
    program: &'a mut IrProgram,
    scopes: Vec<HashMap<String, LocalId>>,
    loops: Vec<LoopCtx>,
    current: BlockId,
    /// Set when the current block already ended in a terminator.
    sealed: bool,
}

impl<'a> Lowerer<'a> {
    fn new(source: &'a Function, program: &'a mut IrProgram) -> Self {
        let mut func = IrFunction {
            name: source.name.clone(),
            param_count: source.params.len(),
            locals: Vec::new(),
            blocks: vec![Block::new()],
            vreg_count: 0,
        };
        let mut top = HashMap::new();
        for p in &source.params {
            let id = LocalId(func.locals.len() as u32);
            func.locals.push(LocalInfo {
                name: p.name.clone(),
                kind: LocalKind::Scalar,
            });
            top.insert(p.name.clone(), id);
        }
        Lowerer {
            source,
            func,
            program,
            scopes: vec![top],
            loops: Vec::new(),
            current: BlockId(0),
            sealed: false,
        }
    }

    fn lower(mut self) -> Result<IrFunction, LowerError> {
        let body = self.source.body.clone();
        self.stmts(&body)?;
        if !self.sealed {
            self.func.block_mut(self.current).term = Term::Ret(None);
        }
        Ok(self.func)
    }

    fn emit(&mut self, inst: Inst) {
        if !self.sealed {
            self.func.block_mut(self.current).insts.push(inst);
        }
    }

    fn seal(&mut self, term: Term) {
        if !self.sealed {
            self.func.block_mut(self.current).term = term;
            self.sealed = true;
        }
    }

    fn switch_to(&mut self, b: BlockId) {
        self.current = b;
        self.sealed = false;
    }

    fn new_scalar(&mut self, name: impl Into<String>) -> LocalId {
        let id = LocalId(self.func.locals.len() as u32);
        self.func.locals.push(LocalInfo {
            name: name.into(),
            kind: LocalKind::Scalar,
        });
        id
    }

    fn resolve(&self, name: &str) -> Result<Slot, LowerError> {
        for scope in self.scopes.iter().rev() {
            if let Some(id) = scope.get(name) {
                let kind = &self.func.locals[id.0 as usize].kind;
                return Ok(match kind {
                    LocalKind::Scalar => Slot::Scalar(*id),
                    LocalKind::Array(_) => Slot::Array(*id),
                });
            }
        }
        if let Some(g) = self.program.global_id(name) {
            return Ok(Slot::Global(g));
        }
        Err(LowerError::UnknownVar {
            function: self.source.name.clone(),
            variable: name.to_string(),
        })
    }

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), LowerError> {
        self.scopes.push(HashMap::new());
        for s in body {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        if self.sealed {
            // Unreachable statement after return/break; skip (dead code).
            return Ok(());
        }
        match s {
            Stmt::Local(name, init) => {
                let v = self.expr(init)?;
                let id = self.new_scalar(name.clone());
                self.scopes
                    .last_mut()
                    .expect("scope")
                    .insert(name.clone(), id);
                self.emit(Inst::StoreLocal(id, v));
            }
            Stmt::LocalArray(name, size) => {
                let id = LocalId(self.func.locals.len() as u32);
                self.func.locals.push(LocalInfo {
                    name: name.clone(),
                    kind: LocalKind::Array(*size),
                });
                self.scopes
                    .last_mut()
                    .expect("scope")
                    .insert(name.clone(), id);
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
            }
            Stmt::If(cond, then_body, else_body) => {
                let then_bb = self.func.new_block();
                let join_bb = self.func.new_block();
                let else_bb = if else_body.is_empty() {
                    join_bb
                } else {
                    self.func.new_block()
                };
                self.cond(cond, then_bb, else_bb)?;
                self.switch_to(then_bb);
                self.stmts(then_body)?;
                self.seal(Term::Jmp(join_bb));
                if !else_body.is_empty() {
                    self.switch_to(else_bb);
                    self.stmts(else_body)?;
                    self.seal(Term::Jmp(join_bb));
                }
                self.switch_to(join_bb);
            }
            Stmt::While(cond, body) => {
                let head = self.func.new_block();
                let body_bb = self.func.new_block();
                let exit = self.func.new_block();
                self.seal(Term::Jmp(head));
                self.switch_to(head);
                self.cond(cond, body_bb, exit)?;
                self.loops.push(LoopCtx {
                    break_to: exit,
                    continue_to: head,
                });
                self.switch_to(body_bb);
                self.stmts(body)?;
                self.seal(Term::Jmp(head));
                self.loops.pop();
                self.switch_to(exit);
            }
            Stmt::DoWhile(body, cond) => {
                let body_bb = self.func.new_block();
                let latch = self.func.new_block();
                let exit = self.func.new_block();
                self.seal(Term::Jmp(body_bb));
                self.loops.push(LoopCtx {
                    break_to: exit,
                    continue_to: latch,
                });
                self.switch_to(body_bb);
                self.stmts(body)?;
                self.seal(Term::Jmp(latch));
                self.loops.pop();
                self.switch_to(latch);
                self.cond(cond, body_bb, exit)?;
                self.switch_to(exit);
            }
            Stmt::For(init, cond, step, body) => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                let head = self.func.new_block();
                let body_bb = self.func.new_block();
                let latch = self.func.new_block();
                let exit = self.func.new_block();
                self.seal(Term::Jmp(head));
                self.switch_to(head);
                self.cond(cond, body_bb, exit)?;
                self.loops.push(LoopCtx {
                    break_to: exit,
                    continue_to: latch,
                });
                self.switch_to(body_bb);
                self.stmts(body)?;
                self.seal(Term::Jmp(latch));
                self.loops.pop();
                self.switch_to(latch);
                if let Some(step) = step {
                    self.stmt(step)?;
                }
                self.seal(Term::Jmp(head));
                self.scopes.pop();
                self.switch_to(exit);
            }
            Stmt::Switch(scrutinee, cases) => {
                let v = self.expr(scrutinee)?;
                let exit = self.func.new_block();
                // Compare chain over the non-default arms; default (or exit)
                // is the final fallthrough.
                let default_bb = if cases.iter().any(|c| c.value.is_none()) {
                    self.func.new_block()
                } else {
                    exit
                };
                let mut arm_blocks = Vec::new();
                for case in cases {
                    match case.value {
                        Some(val) => {
                            let arm = self.func.new_block();
                            arm_blocks.push((arm, &case.body));
                            let next_test = self.func.new_block();
                            let c = self.func.new_vreg();
                            let k = self.func.new_vreg();
                            self.emit(Inst::Const(k, val));
                            self.emit(Inst::Bin(BinOp::Eq, c, v, k));
                            self.seal(Term::Br(c, arm, next_test));
                            self.switch_to(next_test);
                        }
                        None => {
                            arm_blocks.push((default_bb, &case.body));
                        }
                    }
                }
                // Fallthrough after all tests: default arm or exit.
                self.seal(Term::Jmp(default_bb));
                // `break` inside a switch exits the switch.
                self.loops.push(LoopCtx {
                    break_to: exit,
                    continue_to: exit,
                });
                for (bb, body) in arm_blocks {
                    self.switch_to(bb);
                    self.stmts(body)?;
                    self.seal(Term::Jmp(exit));
                }
                self.loops.pop();
                self.switch_to(exit);
            }
            Stmt::Return(Some(e)) => {
                let v = self.expr(e)?;
                self.seal(Term::Ret(Some(v)));
            }
            Stmt::Return(None) => self.seal(Term::Ret(None)),
            Stmt::Break => {
                let target = self
                    .loops
                    .last()
                    .ok_or(LowerError::MisplacedJump {
                        function: self.source.name.clone(),
                    })?
                    .break_to;
                self.seal(Term::Jmp(target));
            }
            Stmt::Continue => {
                let target = self
                    .loops
                    .last()
                    .ok_or(LowerError::MisplacedJump {
                        function: self.source.name.clone(),
                    })?
                    .continue_to;
                self.seal(Term::Jmp(target));
            }
        }
        Ok(())
    }

    /// Lowers a boolean context: branch to `then_bb` when `e != 0`.
    ///
    /// Comparisons and short-circuit operators become control flow directly
    /// instead of materializing 0/1 values, like a real compiler.
    fn cond(&mut self, e: &Expr, then_bb: BlockId, else_bb: BlockId) -> Result<(), LowerError> {
        match e {
            Expr::Binary(BinOp::LogAnd, a, b) => {
                let mid = self.func.new_block();
                self.cond(a, mid, else_bb)?;
                self.switch_to(mid);
                self.cond(b, then_bb, else_bb)
            }
            Expr::Binary(BinOp::LogOr, a, b) => {
                let mid = self.func.new_block();
                self.cond(a, then_bb, mid)?;
                self.switch_to(mid);
                self.cond(b, then_bb, else_bb)
            }
            Expr::Unary(UnOp::Not, inner) => self.cond(inner, else_bb, then_bb),
            _ => {
                let v = self.expr(e)?;
                self.seal(Term::Br(v, then_bb, else_bb));
                Ok(())
            }
        }
    }

    fn read_lvalue(&mut self, lv: &LValue) -> Result<VReg, LowerError> {
        match lv {
            LValue::Var(name) => {
                let d = self.func.new_vreg();
                match self.resolve(name)? {
                    Slot::Scalar(l) | Slot::Array(l) => self.emit(Inst::LoadLocal(d, l)),
                    Slot::Global(g) => self.emit(Inst::LoadGlobal(d, g)),
                }
                Ok(d)
            }
            LValue::Index(name, idx) => {
                let i = self.expr(idx)?;
                let d = self.func.new_vreg();
                match self.resolve(name)? {
                    Slot::Array(l) | Slot::Scalar(l) => self.emit(Inst::LoadElem(d, l, i)),
                    Slot::Global(_) => {
                        return Err(LowerError::UnknownVar {
                            function: self.source.name.clone(),
                            variable: format!("{name}[]"),
                        })
                    }
                }
                Ok(d)
            }
        }
    }

    fn write_lvalue(&mut self, lv: &LValue, value: VReg) -> Result<(), LowerError> {
        match lv {
            LValue::Var(name) => match self.resolve(name)? {
                Slot::Scalar(l) | Slot::Array(l) => self.emit(Inst::StoreLocal(l, value)),
                Slot::Global(g) => self.emit(Inst::StoreGlobal(g, value)),
            },
            LValue::Index(name, idx) => {
                let i = self.expr(idx)?;
                match self.resolve(name)? {
                    Slot::Array(l) | Slot::Scalar(l) => self.emit(Inst::StoreElem(l, i, value)),
                    Slot::Global(_) => {
                        return Err(LowerError::UnknownVar {
                            function: self.source.name.clone(),
                            variable: format!("{name}[]"),
                        })
                    }
                }
            }
        }
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<VReg, LowerError> {
        match e {
            Expr::Num(n) => {
                let d = self.func.new_vreg();
                self.emit(Inst::Const(d, *n));
                Ok(d)
            }
            Expr::Str(s) => {
                let sid = self.program.intern_string(s);
                let d = self.func.new_vreg();
                self.emit(Inst::Str(d, sid));
                Ok(d)
            }
            Expr::Var(name) => self.read_lvalue(&LValue::Var(name.clone())),
            Expr::Index(name, idx) => self.read_lvalue(&LValue::Index(name.clone(), idx.clone())),
            Expr::Call(name, args) => {
                let mut regs = Vec::with_capacity(args.len());
                for a in args {
                    regs.push(self.expr(a)?);
                }
                let d = self.func.new_vreg();
                self.emit(Inst::Call(d, name.clone(), regs));
                Ok(d)
            }
            Expr::Unary(op, inner) => {
                let a = self.expr(inner)?;
                let d = self.func.new_vreg();
                self.emit(Inst::Un(*op, d, a));
                Ok(d)
            }
            Expr::Binary(op, a, b) if op.is_logical() => {
                // Short-circuit: materialize into a temp local via CFG.
                let tmp = self.new_scalar(format!("$t{}", self.func.locals.len()));
                let then_bb = self.func.new_block();
                let else_bb = self.func.new_block();
                let join = self.func.new_block();
                self.cond(e, then_bb, else_bb)?;
                self.switch_to(then_bb);
                let one = self.func.new_vreg();
                self.emit(Inst::Const(one, 1));
                self.emit(Inst::StoreLocal(tmp, one));
                self.seal(Term::Jmp(join));
                self.switch_to(else_bb);
                let zero = self.func.new_vreg();
                self.emit(Inst::Const(zero, 0));
                self.emit(Inst::StoreLocal(tmp, zero));
                self.seal(Term::Jmp(join));
                self.switch_to(join);
                let d = self.func.new_vreg();
                self.emit(Inst::LoadLocal(d, tmp));
                Ok(d)
            }
            Expr::Binary(op, a, b) => {
                let ra = self.expr(a)?;
                let rb = self.expr(b)?;
                let d = self.func.new_vreg();
                self.emit(Inst::Bin(*op, d, ra, rb));
                Ok(d)
            }
            Expr::Assign(op, lv, rhs) => {
                let r = self.expr(rhs)?;
                let value = match op.binop() {
                    None => r,
                    Some(bop) => {
                        let old = self.read_lvalue(lv)?;
                        let d = self.func.new_vreg();
                        self.emit(Inst::Bin(bop, d, old, r));
                        d
                    }
                };
                self.write_lvalue(lv, value)?;
                Ok(value)
            }
            Expr::IncDec(kind, lv) => {
                let old = self.read_lvalue(lv)?;
                let one = self.func.new_vreg();
                self.emit(Inst::Const(one, 1));
                let new = self.func.new_vreg();
                let op = match kind {
                    IncDec::PreInc | IncDec::PostInc => BinOp::Add,
                    IncDec::PreDec | IncDec::PostDec => BinOp::Sub,
                };
                self.emit(Inst::Bin(op, new, old, one));
                self.write_lvalue(lv, new)?;
                Ok(match kind {
                    IncDec::PreInc | IncDec::PreDec => new,
                    IncDec::PostInc | IncDec::PostDec => old,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asteria_lang::parse;

    fn lower_src(src: &str) -> IrProgram {
        lower_program(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn lowers_a_one_function_program() {
        let ir = lower_program(&parse("int f(int a) { return a + 1; }").unwrap()).unwrap();
        assert_eq!(ir.functions.len(), 1);
    }

    #[test]
    fn lowers_straightline_code() {
        let ir = lower_src("int f(int a, int b) { return a + b * 2; }");
        let f = ir.function("f").unwrap();
        assert_eq!(f.param_count, 2);
        assert_eq!(f.blocks.len(), 1);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn if_creates_diamond() {
        let ir = lower_src("int f(int a) { if (a > 0) { return 1; } else { return 2; } }");
        let f = ir.function("f").unwrap();
        // entry + then + join + else
        assert_eq!(f.blocks.len(), 4);
        assert!(matches!(f.block(BlockId(0)).term, Term::Br(_, _, _)));
    }

    #[test]
    fn while_creates_loop() {
        let ir = lower_src("int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }");
        let f = ir.function("f").unwrap();
        assert!(f.validate().is_ok());
        // Must contain a back edge: some block branches to an earlier block.
        let has_back_edge = f
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.term.successors().iter().any(|s| (s.0 as usize) <= i));
        assert!(has_back_edge);
    }

    #[test]
    fn short_circuit_becomes_control_flow() {
        let ir = lower_src("int f(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }");
        let f = ir.function("f").unwrap();
        // No LogAnd instruction should survive lowering.
        for b in &f.blocks {
            for inst in &b.insts {
                if let Inst::Bin(op, _, _, _) = inst {
                    assert!(!op.is_logical(), "logical op leaked into IR: {op:?}");
                }
            }
        }
        assert!(f.blocks.len() >= 4);
    }

    #[test]
    fn logical_value_materializes_temp() {
        let ir = lower_src("int f(int a, int b) { int c = a && b; return c; }");
        let f = ir.function("f").unwrap();
        assert!(f.validate().is_ok());
        assert!(f.locals.iter().any(|l| l.name.starts_with("$t")));
    }

    #[test]
    fn switch_lowers_to_compare_chain() {
        let ir = lower_src(
            "int f(int x) { switch (x) { case 1: return 10; case 2: return 20; \
             default: return 0; } }",
        );
        let f = ir.function("f").unwrap();
        assert!(f.validate().is_ok());
        let eq_count = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin(BinOp::Eq, _, _, _)))
            .count();
        assert_eq!(eq_count, 2);
    }

    #[test]
    fn break_continue_resolve_to_loop_blocks() {
        let ir = lower_src(
            "int f(int n) { int s = 0; while (1) { n--; if (n < 0) { break; } \
             if (n % 2) { continue; } s++; } return s; }",
        );
        assert!(ir.function("f").unwrap().validate().is_ok());
    }

    #[test]
    fn misplaced_break_is_error() {
        let p = parse("int f() { break; return 0; }").unwrap();
        assert!(matches!(
            lower_program(&p),
            Err(LowerError::MisplacedJump { .. })
        ));
    }

    #[test]
    fn unknown_variable_is_error() {
        let p = parse("int f() { return zz; }").unwrap();
        assert!(matches!(
            lower_program(&p),
            Err(LowerError::UnknownVar { .. })
        ));
    }

    #[test]
    fn globals_resolve() {
        let ir = lower_src("int g = 5; int f() { g = g + 1; return g; }");
        let f = ir.function("f").unwrap();
        let uses_global = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::LoadGlobal(_, _) | Inst::StoreGlobal(_, _)));
        assert!(uses_global);
    }

    #[test]
    fn strings_are_interned() {
        let ir = lower_src(r#"int f() { log("x"); warn("x"); return 0; }"#);
        assert_eq!(ir.strings.len(), 1);
    }

    #[test]
    fn dead_code_after_return_is_dropped() {
        let ir = lower_src("int f() { return 1; return 2; }");
        let f = ir.function("f").unwrap();
        assert!(f.validate().is_ok());
    }
}
