//! Pretty-printer: renders a [`Program`] back to parseable MiniC source.

use std::fmt::Write;

use crate::ast::{Expr, Function, IncDec, LValue, Program, Stmt};

/// Renders a whole program as MiniC source text.
///
/// The output re-parses to an identical AST (see the round-trip tests),
/// which makes it usable for corpus persistence and debugging.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for g in &p.globals {
        let _ = writeln!(out, "int {} = {};", g.name, g.value);
    }
    for f in &p.functions {
        out.push_str(&print_function(f));
    }
    out
}

/// Renders one function definition.
pub(crate) fn print_function(f: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = f.params.iter().map(|p| format!("int {}", p.name)).collect();
    let _ = writeln!(out, "int {}({}) {{", f.name, params.join(", "));
    for s in &f.body {
        print_stmt(&mut out, s, 1);
    }
    out.push_str("}\n");
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn print_block(out: &mut String, body: &[Stmt], depth: usize) {
    out.push_str("{\n");
    for s in body {
        print_stmt(out, s, depth + 1);
    }
    indent(out, depth);
    out.push('}');
}

fn print_stmt(out: &mut String, s: &Stmt, depth: usize) {
    indent(out, depth);
    match s {
        Stmt::Local(name, init) => {
            let _ = writeln!(out, "int {name} = {};", print_expr(init));
        }
        Stmt::LocalArray(name, size) => {
            let _ = writeln!(out, "int {name}[{size}];");
        }
        Stmt::Expr(e) => {
            let _ = writeln!(out, "{};", print_expr(e));
        }
        Stmt::If(cond, then_body, else_body) => {
            let _ = write!(out, "if ({}) ", print_expr(cond));
            print_block(out, then_body, depth);
            if !else_body.is_empty() {
                out.push_str(" else ");
                print_block(out, else_body, depth);
            }
            out.push('\n');
        }
        Stmt::While(cond, body) => {
            let _ = write!(out, "while ({}) ", print_expr(cond));
            print_block(out, body, depth);
            out.push('\n');
        }
        Stmt::DoWhile(body, cond) => {
            out.push_str("do ");
            print_block(out, body, depth);
            let _ = writeln!(out, " while ({});", print_expr(cond));
        }
        Stmt::For(init, cond, step, body) => {
            let init_s = init
                .as_ref()
                .map_or(String::new(), |s| print_simple_stmt(s));
            let step_s = step
                .as_ref()
                .map_or(String::new(), |s| print_simple_stmt(s));
            let _ = write!(out, "for ({init_s}; {}; {step_s}) ", print_expr(cond));
            print_block(out, body, depth);
            out.push('\n');
        }
        Stmt::Switch(scrutinee, cases) => {
            let _ = writeln!(out, "switch ({}) {{", print_expr(scrutinee));
            for case in cases {
                indent(out, depth);
                match case.value {
                    Some(v) => {
                        let _ = writeln!(out, "case {v}:");
                    }
                    None => {
                        let _ = writeln!(out, "default:");
                    }
                }
                for s in &case.body {
                    print_stmt(out, s, depth + 1);
                }
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::Return(Some(e)) => {
            let _ = writeln!(out, "return {};", print_expr(e));
        }
        Stmt::Return(None) => out.push_str("return;\n"),
        Stmt::Break => out.push_str("break;\n"),
        Stmt::Continue => out.push_str("continue;\n"),
    }
}

/// Renders a statement without trailing newline/semicolon handling for the
/// `for` header positions.
fn print_simple_stmt(s: &Stmt) -> String {
    match s {
        Stmt::Local(name, init) => format!("int {name} = {}", print_expr(init)),
        Stmt::Expr(e) => print_expr(e),
        other => panic!("statement not valid in for header: {other:?}"),
    }
}

fn print_lvalue(lv: &LValue) -> String {
    match lv {
        LValue::Var(name) => name.clone(),
        LValue::Index(name, idx) => format!("{name}[{}]", print_expr(idx)),
    }
}

/// Renders an expression, fully parenthesized where needed.
pub(crate) fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Num(n) => {
            if *n < 0 {
                format!("({n})")
            } else {
                n.to_string()
            }
        }
        Expr::Str(s) => format!("{:?}", s),
        Expr::Var(name) => name.clone(),
        Expr::Index(name, idx) => format!("{name}[{}]", print_expr(idx)),
        Expr::Call(name, args) => {
            let args: Vec<String> = args.iter().map(print_expr).collect();
            format!("{name}({})", args.join(", "))
        }
        Expr::Unary(op, inner) => format!("{}({})", op.symbol(), print_expr(inner)),
        Expr::Binary(op, a, b) => {
            format!("({} {} {})", print_expr(a), op.symbol(), print_expr(b))
        }
        Expr::Assign(op, lv, rhs) => {
            format!("{} {} {}", print_lvalue(lv), op.symbol(), print_expr(rhs))
        }
        Expr::IncDec(kind, lv) => match kind {
            IncDec::PreInc => format!("++{}", print_lvalue(lv)),
            IncDec::PreDec => format!("--{}", print_lvalue(lv)),
            IncDec::PostInc => format!("{}++", print_lvalue(lv)),
            IncDec::PostDec => format!("{}--", print_lvalue(lv)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SAMPLE: &str = r#"
int limit = 100;
int clamp_add(int a, int b) {
    int s = a + b;
    if (s > limit) { return limit; } else { return s; }
}
int sum_to(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i; }
    return s;
}
int classify(int x) {
    switch (x % 3) {
    case 0:
        return 10;
    case 1:
        return 20;
    default:
        return 30;
    }
}
"#;

    #[test]
    fn roundtrip_preserves_ast() {
        let p1 = parse(SAMPLE).unwrap();
        let printed = print_program(&p1);
        let p2 = parse(&printed).unwrap();
        assert_eq!(p1, p2, "pretty-printed source must reparse identically");
    }

    #[test]
    fn roundtrip_twice_is_stable() {
        let p1 = parse(SAMPLE).unwrap();
        let s1 = print_program(&p1);
        let s2 = print_program(&parse(&s1).unwrap());
        assert_eq!(s1, s2);
    }

    #[test]
    fn negative_literals_reparse() {
        let p1 = parse("int f() { return 0 - 5; }").unwrap();
        let printed = print_program(&p1);
        assert_eq!(parse(&printed).unwrap(), p1);
    }

    #[test]
    fn strings_are_escaped() {
        let p = parse(r#"int f() { log("a\nb"); return 0; }"#).unwrap();
        let printed = print_program(&p);
        assert_eq!(parse(&printed).unwrap(), p);
    }
}
