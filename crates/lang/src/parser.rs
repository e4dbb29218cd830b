//! Recursive-descent parser for MiniC.

use std::fmt;

use crate::ast::{
    AssignOp, BinOp, Expr, Function, Global, IncDec, LValue, Param, Program, Stmt, SwitchCase, UnOp,
};
use crate::lexer::{tokenize, Keyword, LexError, Token};

/// An error produced while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Token index of the failure.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at token {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            position: 0,
            message: e.to_string(),
        }
    }
}

/// The nesting budget of one source: how deep statements and expressions
/// may nest inside each other.
///
/// Every later pass over the tree (lowering, the interpreter, even
/// dropping it) recurses once per level, so a source that nests deeper
/// than any thread stack would abort the process instead of failing.
/// The parser charges one level per nested statement, per parenthesised,
/// call-argument, index or assignment operand, per prefix operator, and
/// per operator of a left-associative chain, and rejects the source
/// before building a tree deeper than this.
pub const MAX_NESTING_DEPTH: usize = 256;

/// Parses a complete MiniC translation unit.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error, or the
/// first point where the source nests deeper than
/// [`MAX_NESTING_DEPTH`].
///
/// # Examples
///
/// ```
/// let program = asteria_lang::parse("int inc(int x) { return x + 1; }")?;
/// assert_eq!(program.functions[0].name, "inc");
/// # Ok::<(), asteria_lang::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(src)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
        peak: 0,
    }
    .program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open at the current token.
    depth: usize,
    /// The deepest level reached by the expression being parsed: where
    /// its deepest leaf sits, which a chain operator pushes one level
    /// further down.
    peak: usize,
}

impl Parser {
    /// Runs `f` one nesting level deeper, failing if that exceeds
    /// [`MAX_NESTING_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth += 1;
        self.charge(self.depth)?;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Records that the tree reaches `level`, failing if that exceeds
    /// [`MAX_NESTING_DEPTH`].
    fn charge(&mut self, level: usize) -> Result<(), ParseError> {
        self.peak = self.peak.max(level);
        if level > MAX_NESTING_DEPTH {
            return self.err(format!(
                "source nests deeper than {MAX_NESTING_DEPTH} levels"
            ));
        }
        Ok(())
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        self.pos += 1;
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            position: self.pos,
            message: message.into(),
        })
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        match self.advance() {
            Token::Punct(q) if q == p => Ok(()),
            other => {
                self.pos -= 1;
                self.err(format!("expected `{p}`, found `{other}`"))
            }
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<(), ParseError> {
        match self.advance() {
            Token::Keyword(q) if q == k => Ok(()),
            other => {
                self.pos -= 1;
                self.err(format!("expected `{k:?}`, found `{other}`"))
            }
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Token::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                self.err(format!("expected identifier, found `{other}`"))
            }
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Token::Punct(q) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::new();
        while !matches!(self.peek(), Token::Eof) {
            self.expect_keyword(Keyword::Int)?;
            let name = self.expect_ident()?;
            match self.peek() {
                Token::Punct("(") => program.functions.push(self.function(name)?),
                Token::Punct("=") => {
                    self.advance();
                    let value = match self.advance() {
                        Token::Num(n) => n,
                        Token::Punct("-") => match self.advance() {
                            Token::Num(n) => -n,
                            _ => return self.err("expected number after `-`"),
                        },
                        _ => return self.err("global initializer must be a constant"),
                    };
                    self.expect_punct(";")?;
                    program.globals.push(Global { name, value });
                }
                _ => return self.err("expected `(` or `=` after top-level name"),
            }
        }
        Ok(program)
    }

    fn function(&mut self, name: String) -> Result<Function, ParseError> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                self.expect_keyword(Keyword::Int)?;
                params.push(Param {
                    name: self.expect_ident()?,
                });
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let body = self.block()?;
        Ok(Function { name, params, body })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if matches!(self.peek(), Token::Eof) {
                return self.err("unterminated block");
            }
            stmts.push(self.statement()?);
        }
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::statement_body)
    }

    fn statement_body(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Token::Keyword(Keyword::Int) => {
                let s = self.local_decl()?;
                self.expect_punct(";")?;
                Ok(s)
            }
            Token::Keyword(Keyword::If) => self.if_stmt(),
            Token::Keyword(Keyword::While) => {
                self.advance();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                Ok(Stmt::While(cond, self.block()?))
            }
            Token::Keyword(Keyword::Do) => {
                self.advance();
                let body = self.block()?;
                self.expect_keyword(Keyword::While)?;
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                self.expect_punct(";")?;
                Ok(Stmt::DoWhile(body, cond))
            }
            Token::Keyword(Keyword::For) => self.for_stmt(),
            Token::Keyword(Keyword::Switch) => self.switch_stmt(),
            Token::Keyword(Keyword::Return) => {
                self.advance();
                if self.eat_punct(";") {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expr()?;
                    self.expect_punct(";")?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            Token::Keyword(Keyword::Break) => {
                self.advance();
                self.expect_punct(";")?;
                Ok(Stmt::Break)
            }
            Token::Keyword(Keyword::Continue) => {
                self.advance();
                self.expect_punct(";")?;
                Ok(Stmt::Continue)
            }
            _ => {
                let e = self.expr()?;
                self.expect_punct(";")?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// Parses `int name = expr` or `int name[N]` (without trailing `;`).
    fn local_decl(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword(Keyword::Int)?;
        let name = self.expect_ident()?;
        if self.eat_punct("[") {
            let size = match self.advance() {
                Token::Num(n) if n > 0 => n as usize,
                _ => return self.err("array size must be a positive constant"),
            };
            self.expect_punct("]")?;
            Ok(Stmt::LocalArray(name, size))
        } else {
            self.expect_punct("=")?;
            let init = self.expr()?;
            Ok(Stmt::Local(name, init))
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword(Keyword::If)?;
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let then_body = self.block()?;
        let else_body = if matches!(self.peek(), Token::Keyword(Keyword::Else)) {
            self.advance();
            if matches!(self.peek(), Token::Keyword(Keyword::If)) {
                vec![self.statement()?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If(cond, then_body, else_body))
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword(Keyword::For)?;
        self.expect_punct("(")?;
        let init = if matches!(self.peek(), Token::Punct(";")) {
            None
        } else if matches!(self.peek(), Token::Keyword(Keyword::Int)) {
            Some(Box::new(self.local_decl()?))
        } else {
            Some(Box::new(Stmt::Expr(self.expr()?)))
        };
        self.expect_punct(";")?;
        let cond = if matches!(self.peek(), Token::Punct(";")) {
            Expr::Num(1)
        } else {
            self.expr()?
        };
        self.expect_punct(";")?;
        let step = if matches!(self.peek(), Token::Punct(")")) {
            None
        } else {
            Some(Box::new(Stmt::Expr(self.expr()?)))
        };
        self.expect_punct(")")?;
        Ok(Stmt::For(init, cond, step, self.block()?))
    }

    fn switch_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword(Keyword::Switch)?;
        self.expect_punct("(")?;
        let scrutinee = self.expr()?;
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        let mut cases = Vec::new();
        while !self.eat_punct("}") {
            let value = match self.advance() {
                Token::Keyword(Keyword::Case) => {
                    let v = match self.advance() {
                        Token::Num(n) => n,
                        Token::Punct("-") => match self.advance() {
                            Token::Num(n) => -n,
                            _ => return self.err("expected number after `-`"),
                        },
                        _ => return self.err("case label must be a constant"),
                    };
                    Some(v)
                }
                Token::Keyword(Keyword::Default) => None,
                other => {
                    self.pos -= 1;
                    return self.err(format!("expected `case` or `default`, found `{other}`"));
                }
            };
            self.expect_punct(":")?;
            let mut body = Vec::new();
            loop {
                match self.peek() {
                    Token::Keyword(Keyword::Case)
                    | Token::Keyword(Keyword::Default)
                    | Token::Punct("}") => break,
                    Token::Eof => return self.err("unterminated switch"),
                    _ => body.push(self.statement()?),
                }
            }
            cases.push(SwitchCase { value, body });
        }
        Ok(Stmt::Switch(scrutinee, cases))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::assignment)
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.binary(0)?;
        let op = match self.peek() {
            Token::Punct("=") => AssignOp::Assign,
            Token::Punct("+=") => AssignOp::AddAssign,
            Token::Punct("-=") => AssignOp::SubAssign,
            Token::Punct("*=") => AssignOp::MulAssign,
            Token::Punct("/=") => AssignOp::DivAssign,
            Token::Punct("&=") => AssignOp::AndAssign,
            Token::Punct("|=") => AssignOp::OrAssign,
            Token::Punct("^=") => AssignOp::XorAssign,
            Token::Punct("%=") => AssignOp::ModAssign,
            Token::Punct("<<=") => AssignOp::ShlAssign,
            Token::Punct(">>=") => AssignOp::ShrAssign,
            _ => return Ok(lhs),
        };
        self.advance();
        let lvalue = match lhs {
            Expr::Var(name) => LValue::Var(name),
            Expr::Index(name, idx) => LValue::Index(name, idx),
            _ => return self.err("left-hand side of assignment is not assignable"),
        };
        let rhs = self.nested(Self::assignment)?;
        Ok(Expr::Assign(op, lvalue, Box::new(rhs)))
    }

    /// Precedence-climbing binary expression parser: parses operators
    /// of level `min_level` or tighter, each level left-associative.
    /// One call per operand, not one per level, keeps a parenthesised
    /// operand a few stack frames deep.
    fn binary(&mut self, min_level: usize) -> Result<Expr, ParseError> {
        // `peak` restarts at this expression, so after each operand it
        // holds the deepest level of the chain so far.
        let outer_peak = std::mem::replace(&mut self.peak, self.depth);
        let mut lhs = self.unary()?;
        while let Some((level, op)) = self.binary_op().filter(|&(l, _)| l >= min_level) {
            self.advance();
            let rhs = self.binary(level + 1)?;
            // The new node pushes every leaf below it one level deeper,
            // though the parser itself does not recurse.
            self.charge(self.peak + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        self.peak = self.peak.max(outer_peak);
        Ok(lhs)
    }

    /// The binary operator at the next token, with its precedence level.
    fn binary_op(&self) -> Option<(usize, BinOp)> {
        const LEVELS: &[&[(&str, BinOp)]] = &[
            &[("||", BinOp::LogOr)],
            &[("&&", BinOp::LogAnd)],
            &[("|", BinOp::Or)],
            &[("^", BinOp::Xor)],
            &[("&", BinOp::And)],
            &[("==", BinOp::Eq), ("!=", BinOp::Ne)],
            &[
                ("<=", BinOp::Le),
                (">=", BinOp::Ge),
                ("<", BinOp::Lt),
                (">", BinOp::Gt),
            ],
            &[("<<", BinOp::Shl), (">>", BinOp::Shr)],
            &[("+", BinOp::Add), ("-", BinOp::Sub)],
            &[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Mod)],
        ];
        let Token::Punct(p) = self.peek() else {
            return None;
        };
        LEVELS.iter().enumerate().find_map(|(level, ops)| {
            ops.iter()
                .find(|(sym, _)| sym == p)
                .map(|&(_, op)| (level, op))
        })
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Token::Punct("-") => {
                self.advance();
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.nested(Self::unary)?)))
            }
            Token::Punct("!") => {
                self.advance();
                Ok(Expr::Unary(UnOp::Not, Box::new(self.nested(Self::unary)?)))
            }
            Token::Punct("~") => {
                self.advance();
                Ok(Expr::Unary(
                    UnOp::BitNot,
                    Box::new(self.nested(Self::unary)?),
                ))
            }
            Token::Punct("++") => {
                self.advance();
                let lv = self.lvalue()?;
                Ok(Expr::IncDec(IncDec::PreInc, lv))
            }
            Token::Punct("--") => {
                self.advance();
                let lv = self.lvalue()?;
                Ok(Expr::IncDec(IncDec::PreDec, lv))
            }
            _ => self.postfix(),
        }
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        let name = self.expect_ident()?;
        if self.eat_punct("[") {
            let idx = self.expr()?;
            self.expect_punct("]")?;
            Ok(LValue::Index(name, Box::new(idx)))
        } else {
            Ok(LValue::Var(name))
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let primary = self.primary()?;
        match self.peek() {
            Token::Punct("++") => {
                let lv = expr_to_lvalue(&primary).ok_or_else(|| ParseError {
                    position: self.pos,
                    message: "operand of `++` is not assignable".into(),
                })?;
                self.advance();
                Ok(Expr::IncDec(IncDec::PostInc, lv))
            }
            Token::Punct("--") => {
                let lv = expr_to_lvalue(&primary).ok_or_else(|| ParseError {
                    position: self.pos,
                    message: "operand of `--` is not assignable".into(),
                })?;
                self.advance();
                Ok(Expr::IncDec(IncDec::PostDec, lv))
            }
            _ => Ok(primary),
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.advance() {
            Token::Num(n) => Ok(Expr::Num(n)),
            Token::Str(s) => Ok(Expr::Str(s)),
            Token::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Token::Ident(name) => {
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    Ok(Expr::Call(name, args))
                } else if self.eat_punct("[") {
                    let idx = self.expr()?;
                    self.expect_punct("]")?;
                    Ok(Expr::Index(name, Box::new(idx)))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => {
                self.pos -= 1;
                self.err(format!("expected expression, found `{other}`"))
            }
        }
    }
}

fn expr_to_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Var(name) => Some(LValue::Var(name.clone())),
        Expr::Index(name, idx) => Some(LValue::Index(name.clone(), idx.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_fn(body: &str) -> Function {
        let src = format!("int test(int a, int b) {{ {body} }}");
        parse(&src).expect("parse failed").functions.remove(0)
    }

    #[test]
    fn parses_function_signature() {
        let f = parse_fn("return a;");
        assert_eq!(f.name, "test");
        assert_eq!(f.params.len(), 2);
    }

    #[test]
    fn parses_globals() {
        let p = parse("int g = 42; int h = -7; int f() { return g; }").unwrap();
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[1].value, -7);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let f = parse_fn("return a + b * 2;");
        match &f.body[0] {
            Stmt::Return(Some(Expr::Binary(BinOp::Add, _, rhs))) => {
                assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comparison_binds_looser_than_shift() {
        let f = parse_fn("return a << 1 < b;");
        assert!(matches!(
            &f.body[0],
            Stmt::Return(Some(Expr::Binary(BinOp::Lt, _, _)))
        ));
    }

    #[test]
    fn parses_if_else_chain() {
        let f = parse_fn("if (a) { return 1; } else if (b) { return 2; } else { return 3; }");
        match &f.body[0] {
            Stmt::If(_, _, else_body) => {
                assert!(matches!(else_body[0], Stmt::If(_, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_loops() {
        let f = parse_fn(
            "int s = 0; for (int i = 0; i < a; i++) { s += i; } while (s > 10) { s -= 1; } \
             do { s++; } while (s < 3);",
        );
        assert!(matches!(f.body[1], Stmt::For(_, _, _, _)));
        assert!(matches!(f.body[2], Stmt::While(_, _)));
        assert!(matches!(f.body[3], Stmt::DoWhile(_, _)));
    }

    #[test]
    fn parses_switch() {
        let f = parse_fn("switch (a) { case 1: return 1; case 2: return 2; default: return 0; }");
        match &f.body[0] {
            Stmt::Switch(_, cases) => {
                assert_eq!(cases.len(), 3);
                assert_eq!(cases[0].value, Some(1));
                assert_eq!(cases[2].value, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_calls_and_strings() {
        let f = parse_fn(r#"log("hello", a); return helper(a, b + 1);"#);
        assert!(matches!(&f.body[0], Stmt::Expr(Expr::Call(name, args))
            if name == "log" && args.len() == 2));
    }

    #[test]
    fn parses_arrays_and_indexing() {
        let f = parse_fn("int buf[8]; buf[0] = a; return buf[a % 8];");
        assert!(matches!(&f.body[0], Stmt::LocalArray(n, 8) if n == "buf"));
        assert!(matches!(
            &f.body[1],
            Stmt::Expr(Expr::Assign(AssignOp::Assign, LValue::Index(_, _), _))
        ));
    }

    #[test]
    fn parses_incdec_variants() {
        let f = parse_fn("a++; --b; return a;");
        assert!(matches!(
            &f.body[0],
            Stmt::Expr(Expr::IncDec(IncDec::PostInc, _))
        ));
        assert!(matches!(
            &f.body[1],
            Stmt::Expr(Expr::IncDec(IncDec::PreDec, _))
        ));
    }

    #[test]
    fn extended_compound_assignments_parse() {
        let f = parse_fn("a %= 3; b <<= 2; a >>= 1; return a + b;");
        assert!(matches!(
            &f.body[0],
            Stmt::Expr(Expr::Assign(AssignOp::ModAssign, _, _))
        ));
        assert!(matches!(
            &f.body[1],
            Stmt::Expr(Expr::Assign(AssignOp::ShlAssign, _, _))
        ));
        assert!(matches!(
            &f.body[2],
            Stmt::Expr(Expr::Assign(AssignOp::ShrAssign, _, _))
        ));
    }

    #[test]
    fn assignment_is_right_associative() {
        let f = parse_fn("int c = 0; a = c = b;");
        match &f.body[1] {
            Stmt::Expr(Expr::Assign(AssignOp::Assign, LValue::Var(a), rhs)) => {
                assert_eq!(a, "a");
                assert!(matches!(**rhs, Expr::Assign(AssignOp::Assign, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_assignment_target() {
        let r = parse("int f() { 1 + 2 = 3; }");
        assert!(r.is_err());
    }

    #[test]
    fn rejects_unterminated_block() {
        assert!(parse("int f() { return 1;").is_err());
    }

    #[test]
    fn error_mentions_expected_token() {
        let e = parse("int f( { }").unwrap_err();
        assert!(e.to_string().contains("expected"));
    }
}
