//! Pseudo-C rendering of decompiled functions — the textual view a
//! Hex-Rays user sees, and an invaluable debugging surface for the lifter
//! and structurer.

use std::fmt::Write;

use crate::ast::{DAssignOp, DExpr, DFunction, DPlace, DStmt};

/// Renders a whole decompiled function as pseudo-C.
///
/// # Examples
///
/// ```
/// use asteria_compiler::{compile_program, Arch};
/// use asteria_decompiler::{decompile_function, render_function};
///
/// let program = asteria_lang::parse("int f(int a) { return a * 2 + 1; }")?;
/// let binary = compile_program(&program, Arch::Arm)?;
/// let func = decompile_function(&binary, 0)?;
/// let text = render_function(&func, &binary);
/// assert!(text.contains("int f(int a0)"));
/// assert!(text.contains("return"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn render_function(func: &DFunction, binary: &asteria_compiler::Binary) -> String {
    let mut out = String::new();
    let params: Vec<String> = (0..func.param_count).map(|i| format!("int a{i}")).collect();
    let _ = writeln!(out, "int {}({}) {{", func.name, params.join(", "));
    for s in &func.body {
        render_stmt(&mut out, s, 1, binary);
    }
    out.push_str("}\n");
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_block(out: &mut String, body: &[DStmt], depth: usize, b: &asteria_compiler::Binary) {
    out.push_str("{\n");
    for s in body {
        render_stmt(out, s, depth + 1, b);
    }
    indent(out, depth);
    out.push('}');
}

fn render_stmt(out: &mut String, s: &DStmt, depth: usize, b: &asteria_compiler::Binary) {
    indent(out, depth);
    match s {
        DStmt::Assign(op, place, e) => {
            let sym = match op {
                DAssignOp::Assign => "=".to_string(),
                DAssignOp::Compound(bop) => format!("{}=", bop.symbol()),
            };
            let _ = writeln!(
                out,
                "{} {} {};",
                render_place(place, b),
                sym,
                render_expr(e, b)
            );
        }
        DStmt::Expr(e) => {
            let _ = writeln!(out, "{};", render_expr(e, b));
        }
        DStmt::If(c, t, e) => {
            let _ = write!(out, "if ({}) ", render_expr(c, b));
            render_block(out, t, depth, b);
            if !e.is_empty() {
                out.push_str(" else ");
                render_block(out, e, depth, b);
            }
            out.push('\n');
        }
        DStmt::While(c, body) => {
            let _ = write!(out, "while ({}) ", render_expr(c, b));
            render_block(out, body, depth, b);
            out.push('\n');
        }
        DStmt::DoWhile(body, c) => {
            out.push_str("do ");
            render_block(out, body, depth, b);
            let _ = writeln!(out, " while ({});", render_expr(c, b));
        }
        DStmt::Switch(scrut, cases) => {
            let _ = writeln!(out, "switch ({}) {{", render_expr(scrut, b));
            for case in cases {
                indent(out, depth);
                match case.value {
                    Some(v) => {
                        let _ = writeln!(out, "case {v}:");
                    }
                    None => out.push_str("default:\n"),
                }
                for s in &case.body {
                    render_stmt(out, s, depth + 1, b);
                }
                // Recovered switches never fall through; print the break a
                // C reader expects unless the arm already diverges.
                let diverges = matches!(
                    case.body.last(),
                    Some(DStmt::Return(_))
                        | Some(DStmt::Break)
                        | Some(DStmt::Continue)
                        | Some(DStmt::Goto(_))
                );
                if case.value.is_some() && !diverges {
                    indent(out, depth + 1);
                    out.push_str("break;\n");
                }
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        DStmt::Return(Some(e)) => {
            let _ = writeln!(out, "return {};", render_expr(e, b));
        }
        DStmt::Return(None) => out.push_str("return;\n"),
        DStmt::Break => out.push_str("break;\n"),
        DStmt::Continue => out.push_str("continue;\n"),
        DStmt::Goto(l) => {
            let _ = writeln!(out, "goto label_{l};");
        }
        DStmt::Label(l) => {
            let _ = writeln!(out, "label_{l}:");
        }
    }
}

fn render_place(p: &DPlace, b: &asteria_compiler::Binary) -> String {
    match p {
        DPlace::Var(v) => v.to_string(),
        DPlace::Index(base, idx) => format!("v{base}[{}]", render_expr(idx, b)),
    }
}

fn needs_parens(e: &DExpr) -> bool {
    matches!(e, DExpr::Bin(_, _, _) | DExpr::Select(_, _, _))
}

fn render_sub(e: &DExpr, b: &asteria_compiler::Binary) -> String {
    if needs_parens(e) {
        format!("({})", render_expr(e, b))
    } else {
        render_expr(e, b)
    }
}

fn render_expr(e: &DExpr, b: &asteria_compiler::Binary) -> String {
    match e {
        DExpr::Num(n) => n.to_string(),
        DExpr::Str(sid) => b
            .strings
            .get(*sid as usize)
            .map(|s| format!("{s:?}"))
            .unwrap_or_else(|| format!("str_{sid}")),
        DExpr::Var(v) => v.to_string(),
        DExpr::Index(base, idx) => format!("v{base}[{}]", render_expr(idx, b)),
        DExpr::Call { sym, args } => {
            let callee = b
                .symbols
                .get(*sym as usize)
                .map(|s| s.display_name())
                .unwrap_or_else(|| format!("sym_{sym}"));
            let rendered: Vec<String> = args.iter().map(|a| render_expr(a, b)).collect();
            format!("{callee}({})", rendered.join(", "))
        }
        DExpr::Un(op, inner) => format!("{}{}", op.symbol(), render_sub(inner, b)),
        DExpr::Bin(op, l, r) => {
            format!("{} {} {}", render_sub(l, b), op.symbol(), render_sub(r, b))
        }
        DExpr::Select(c, a, bb) => format!(
            "{} ? {} : {}",
            render_sub(c, b),
            render_sub(a, b),
            render_sub(bb, b)
        ),
        DExpr::Cast(inner) => format!("(int){}", render_sub(inner, b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompile::decompile_function;
    use asteria_compiler::{compile_program, Arch};
    use asteria_lang::parse;

    fn render(src: &str, arch: Arch) -> String {
        let p = parse(src).unwrap();
        let b = compile_program(&p, arch).unwrap();
        let f = decompile_function(&b, 0).unwrap();
        render_function(&f, &b)
    }

    #[test]
    fn renders_loops_and_calls() {
        let text = render(
            "int f(int n) { int s = 0; while (n > 0) { s += ext_fn(n); n -= 1; } return s; }",
            Arch::Arm,
        );
        assert!(text.contains("while ("), "{text}");
        assert!(text.contains("ext_fn("), "{text}");
        assert!(text.contains("return"), "{text}");
    }

    #[test]
    fn renders_rotated_loop_as_guarded_dowhile() {
        let text = render(
            "int f(int n) { int s = 0; while (n > 0) { s += ext_fn(n); n -= 1; } return s; }",
            Arch::Ppc,
        );
        assert!(text.contains("do {"), "{text}");
        assert!(text.contains("} while ("), "{text}");
    }

    #[test]
    fn renders_strings_and_globals() {
        let text = render(
            r#"int g = 3; int f(int a) { ext_log("hello", g); return g + a; }"#,
            Arch::X64,
        );
        assert!(text.contains("\"hello\""), "{text}");
        assert!(text.contains("g0"), "{text}");
    }

    #[test]
    fn renders_ternary_from_csel() {
        let text = render(
            "int f(int a, int b) { int x = 0; if (a > b) { x = a; } else { x = b; } return x; }",
            Arch::Arm,
        );
        assert!(text.contains('?'), "{text}");
        assert!(text.contains(':'), "{text}");
    }

    #[test]
    fn renders_casts_on_x64() {
        let text = render("int f(int a) { return ext_fn(a + 1); }", Arch::X64);
        assert!(text.contains("(int)"), "{text}");
    }

    #[test]
    fn renders_switch() {
        let text = render(
            "int f(int x) { switch (x) { case 1: return 10; case 2: return 20; \
             case 3: return 30; default: return 0; } }",
            Arch::X86,
        );
        assert!(text.contains("switch ("), "{text}");
        assert!(text.contains("case 1:"), "{text}");
        assert!(text.contains("default:"), "{text}");
    }

    #[test]
    fn stripped_functions_render_with_sub_names() {
        let p =
            parse("int f(int a) { return helper(a); } int helper(int x) { return x; }").unwrap();
        let mut b = compile_program(&p, Arch::Arm).unwrap();
        b.strip();
        let f = decompile_function(&b, 0).unwrap();
        let text = render_function(&f, &b);
        assert!(text.contains("sub_"), "{text}");
    }
}
