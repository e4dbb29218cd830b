//! AST post-processing: compound-assignment recovery (two-address ISAs)
//! and `switch` recovery from equality-comparison chains.

use asteria_lang::BinOp;

use crate::ast::{DAssignOp, DExpr, DPlace, DStmt, DSwitchCase};

/// Recovers arithmetic idioms that instruction expansion obscured, the way
/// interactive decompilers re-idiomize compiler expansions:
///
/// - `a - (a / b) * b` → `a % b` (PPC has no hardware remainder).
///
/// The negate expansion `0 - x` is deliberately *not* recovered: real
/// decompilers print it as-is, which is one of the small per-architecture
/// AST differences the paper's Fig. 2 shows.
pub(crate) fn recover_idioms(stmts: &mut [DStmt]) {
    for s in stmts {
        match s {
            DStmt::Assign(_, place, e) => {
                if let DPlace::Index(_, idx) = place {
                    idiom_expr(idx);
                }
                idiom_expr(e);
            }
            DStmt::Expr(e) | DStmt::Return(Some(e)) => idiom_expr(e),
            DStmt::If(c, t, el) => {
                idiom_expr(c);
                recover_idioms(t);
                recover_idioms(el);
            }
            DStmt::While(c, b) => {
                idiom_expr(c);
                recover_idioms(b);
            }
            DStmt::DoWhile(b, c) => {
                recover_idioms(b);
                idiom_expr(c);
            }
            DStmt::Switch(scrut, cases) => {
                idiom_expr(scrut);
                for case in cases {
                    recover_idioms(&mut case.body);
                }
            }
            _ => {}
        }
    }
}

fn idiom_expr(e: &mut DExpr) {
    // Rewrite children first so nested idioms collapse bottom-up.
    match e {
        DExpr::Index(_, i) => idiom_expr(i),
        DExpr::Call { args, .. } => {
            for a in args {
                idiom_expr(a);
            }
        }
        DExpr::Un(_, inner) | DExpr::Cast(inner) => idiom_expr(inner),
        DExpr::Bin(_, a, b) => {
            idiom_expr(a);
            idiom_expr(b);
        }
        DExpr::Select(c, a, b) => {
            idiom_expr(c);
            idiom_expr(a);
            idiom_expr(b);
        }
        _ => {}
    }
    // a - (a / b) * b  →  a % b
    if let DExpr::Bin(BinOp::Sub, a, rhs) = e {
        if let DExpr::Bin(BinOp::Mul, quot, b2) = &**rhs {
            if let DExpr::Bin(BinOp::Div, a2, b1) = &**quot {
                if a2 == a && b1 == b2 && !a.has_call() && !b1.has_call() {
                    *e = DExpr::Bin(BinOp::Mod, a.clone(), b1.clone());
                    return;
                }
            }
        }
        // Strength-reduced variant: a - ((a / 2^k) << k)  →  a % 2^k.
        if let DExpr::Bin(BinOp::Shl, quot, shift) = &**rhs {
            if let (DExpr::Bin(BinOp::Div, a2, pow), DExpr::Num(k)) = (&**quot, &**shift) {
                if let DExpr::Num(p) = **pow {
                    if **a2 == **a && !a.has_call() && *k >= 0 && *k < 63 && p == 1i64 << *k {
                        *e = DExpr::Bin(BinOp::Mod, a.clone(), Box::new(DExpr::Num(p)));
                    }
                }
            }
        }
    }
}

/// Rewrites `x = x op e` into `x op= e` (and likewise for array elements).
///
/// Run only for the two-address architectures (x86/x64), whose
/// `op dst, src` machine form is what prompts interactive decompilers to
/// print compound assignments. This is one of the deliberate *small*
/// cross-architecture AST differences the paper's Fig. 2 highlights.
pub(crate) fn recover_compound_assign(stmts: &mut [DStmt]) {
    for s in stmts {
        match s {
            DStmt::Assign(op @ DAssignOp::Assign, place, e) => {
                let matches_place = |lhs: &DExpr, place: &DPlace| -> bool {
                    match (lhs, place) {
                        (DExpr::Var(v), DPlace::Var(pv)) => v == pv,
                        (DExpr::Index(b, i), DPlace::Index(pb, pi)) => b == pb && i == pi,
                        _ => false,
                    }
                };
                if let DExpr::Bin(bop, lhs, rhs) = e {
                    let compoundable = matches!(
                        bop,
                        BinOp::Add
                            | BinOp::Sub
                            | BinOp::Mul
                            | BinOp::Div
                            | BinOp::And
                            | BinOp::Or
                            | BinOp::Xor
                    );
                    if compoundable && matches_place(lhs, place) {
                        *op = DAssignOp::Compound(*bop);
                        *e = (**rhs).clone();
                    }
                }
            }
            DStmt::If(_, t, e) => {
                recover_compound_assign(t);
                recover_compound_assign(e);
            }
            DStmt::While(_, b) | DStmt::DoWhile(b, _) => recover_compound_assign(b),
            DStmt::Switch(_, cases) => {
                for c in cases {
                    recover_compound_assign(&mut c.body);
                }
            }
            _ => {}
        }
    }
}

/// Minimum chain length for switch recovery.
const SWITCH_MIN_CASES: usize = 3;

/// Collapses `if (v == c1) … else if (v == c2) … else …` chains of length
/// ≥ 3 on the *same* scrutinee into a recovered [`DStmt::Switch`] — the
/// analogue of a decompiler's jump-table/compare-chain switch recovery.
pub(crate) fn recover_switch(stmts: &mut [DStmt]) {
    for s in stmts.iter_mut() {
        // Recurse first so nested chains inside arms also collapse.
        match s {
            DStmt::If(_, t, e) => {
                recover_switch(t);
                recover_switch(e);
            }
            DStmt::While(_, b) | DStmt::DoWhile(b, _) => recover_switch(b),
            DStmt::Switch(_, cases) => {
                for c in cases {
                    recover_switch(&mut c.body);
                }
            }
            _ => {}
        }
        if let Some(switch) = try_collapse_chain(s) {
            *s = switch;
        }
    }
}

/// Matches `cond` as `scrutinee == constant`.
fn eq_test(cond: &DExpr) -> Option<(&DExpr, i64)> {
    match cond {
        DExpr::Bin(BinOp::Eq, a, b) => match (&**a, &**b) {
            (e, DExpr::Num(n)) => Some((e, *n)),
            (DExpr::Num(n), e) => Some((e, *n)),
            _ => None,
        },
        _ => None,
    }
}

fn try_collapse_chain(s: &DStmt) -> Option<DStmt> {
    let DStmt::If(cond, _, _) = s else {
        return None;
    };
    let (scrutinee, _) = eq_test(cond)?;
    let scrutinee = scrutinee.clone();

    let mut cases: Vec<DSwitchCase> = Vec::new();
    let mut cur = s;
    #[allow(clippy::while_let_loop)] // the non-If arm must also `break`
    loop {
        match cur {
            DStmt::If(cond, then_body, else_body) => {
                let (e, value) = match eq_test(cond) {
                    Some(pair) => pair,
                    None => break,
                };
                if *e != scrutinee {
                    break;
                }
                cases.push(DSwitchCase {
                    value: Some(value),
                    body: then_body.clone(),
                });
                if else_body.len() == 1 && matches!(else_body[0], DStmt::If(_, _, _)) {
                    cur = &else_body[0];
                } else {
                    if !else_body.is_empty() {
                        cases.push(DSwitchCase {
                            value: None,
                            body: else_body.clone(),
                        });
                    }
                    return finish(scrutinee, cases);
                }
            }
            _ => break,
        }
    }
    finish(scrutinee, cases)
}

fn finish(scrutinee: DExpr, cases: Vec<DSwitchCase>) -> Option<DStmt> {
    let named = cases.iter().filter(|c| c.value.is_some()).count();
    if named >= SWITCH_MIN_CASES {
        Some(DStmt::Switch(scrutinee, cases))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::VarRef;

    fn var(i: u32) -> DExpr {
        DExpr::Var(VarRef::Local(i))
    }

    #[test]
    fn compound_assign_rewrites_matching_lhs() {
        let mut stmts = vec![DStmt::Assign(
            DAssignOp::Assign,
            DPlace::Var(VarRef::Local(3)),
            DExpr::bin(BinOp::Add, var(3), DExpr::Num(1)),
        )];
        recover_compound_assign(&mut stmts);
        assert!(matches!(
            &stmts[0],
            DStmt::Assign(DAssignOp::Compound(BinOp::Add), _, DExpr::Num(1))
        ));
    }

    #[test]
    fn compound_assign_leaves_mismatches() {
        let mut stmts = vec![DStmt::Assign(
            DAssignOp::Assign,
            DPlace::Var(VarRef::Local(3)),
            DExpr::bin(BinOp::Add, var(4), DExpr::Num(1)),
        )];
        recover_compound_assign(&mut stmts);
        assert!(matches!(&stmts[0], DStmt::Assign(DAssignOp::Assign, _, _)));
    }

    #[test]
    fn comparison_ops_are_not_compoundable() {
        let mut stmts = vec![DStmt::Assign(
            DAssignOp::Assign,
            DPlace::Var(VarRef::Local(3)),
            DExpr::bin(BinOp::Lt, var(3), DExpr::Num(1)),
        )];
        recover_compound_assign(&mut stmts);
        assert!(matches!(&stmts[0], DStmt::Assign(DAssignOp::Assign, _, _)));
    }

    fn eq_chain(values: &[i64], with_default: bool) -> DStmt {
        let mut cur = if with_default {
            vec![DStmt::Return(Some(DExpr::Num(99)))]
        } else {
            Vec::new()
        };
        for v in values.iter().rev() {
            let inner = std::mem::take(&mut cur);
            cur = vec![DStmt::If(
                DExpr::bin(BinOp::Eq, var(0), DExpr::Num(*v)),
                vec![DStmt::Return(Some(DExpr::Num(*v * 10)))],
                inner,
            )];
        }
        cur.into_iter().next().unwrap()
    }

    #[test]
    fn switch_recovered_from_long_chain() {
        let mut stmts = vec![eq_chain(&[1, 2, 3], true)];
        recover_switch(&mut stmts);
        match &stmts[0] {
            DStmt::Switch(scrut, cases) => {
                assert_eq!(*scrut, var(0));
                assert_eq!(cases.len(), 4);
                assert_eq!(cases[0].value, Some(1));
                assert_eq!(cases[3].value, None);
            }
            other => panic!("not a switch: {other:?}"),
        }
    }

    #[test]
    fn short_chain_stays_if() {
        let mut stmts = vec![eq_chain(&[1, 2], true)];
        recover_switch(&mut stmts);
        assert!(matches!(&stmts[0], DStmt::If(_, _, _)));
    }

    #[test]
    fn mixed_scrutinee_breaks_chain() {
        // if (v0==1) else if (v1==2) else if (v0==3): not a single switch.
        let inner = DStmt::If(
            DExpr::bin(BinOp::Eq, var(0), DExpr::Num(3)),
            vec![DStmt::Break],
            vec![],
        );
        let mid = DStmt::If(
            DExpr::bin(BinOp::Eq, var(1), DExpr::Num(2)),
            vec![DStmt::Break],
            vec![inner],
        );
        let mut stmts = vec![DStmt::If(
            DExpr::bin(BinOp::Eq, var(0), DExpr::Num(1)),
            vec![DStmt::Break],
            vec![mid],
        )];
        recover_switch(&mut stmts);
        assert!(matches!(&stmts[0], DStmt::If(_, _, _)));
    }

    #[test]
    fn switch_inside_loop_recovered() {
        let mut stmts = vec![DStmt::While(
            DExpr::Num(1),
            vec![eq_chain(&[5, 6, 7], false)],
        )];
        recover_switch(&mut stmts);
        match &stmts[0] {
            DStmt::While(_, body) => {
                assert!(matches!(&body[0], DStmt::Switch(_, _)), "{body:?}")
            }
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod idiom_tests {
    use super::*;
    use crate::ast::VarRef;

    fn var(i: u32) -> DExpr {
        DExpr::Var(VarRef::Param(i))
    }

    #[test]
    fn mod_idiom_recovered() {
        // a0 - (a0 / a1) * a1 → a0 % a1
        let mut e = DExpr::bin(
            BinOp::Sub,
            var(0),
            DExpr::bin(BinOp::Mul, DExpr::bin(BinOp::Div, var(0), var(1)), var(1)),
        );
        idiom_expr(&mut e);
        assert_eq!(e, DExpr::bin(BinOp::Mod, var(0), var(1)));
    }

    #[test]
    fn neg_expansion_is_left_alone() {
        // Decompilers print `0 - x` as-is; only `%` is re-idiomized. This
        // is a deliberate per-architecture artifact (PPC expands negate).
        let mut e = DExpr::bin(BinOp::Sub, DExpr::Num(0), var(2));
        let orig = e.clone();
        idiom_expr(&mut e);
        assert_eq!(e, orig);
    }

    #[test]
    fn mismatched_operands_not_rewritten() {
        // a0 - (a0 / a1) * a2 must stay as-is.
        let mut e = DExpr::bin(
            BinOp::Sub,
            var(0),
            DExpr::bin(BinOp::Mul, DExpr::bin(BinOp::Div, var(0), var(1)), var(2)),
        );
        let orig = e.clone();
        idiom_expr(&mut e);
        assert_eq!(e, orig);
    }

    #[test]
    fn call_operands_not_rewritten() {
        let call = DExpr::Call {
            sym: 0,
            args: vec![],
        };
        let mut e = DExpr::bin(
            BinOp::Sub,
            call.clone(),
            DExpr::bin(
                BinOp::Mul,
                DExpr::bin(BinOp::Div, call.clone(), var(1)),
                var(1),
            ),
        );
        let orig = e.clone();
        idiom_expr(&mut e);
        assert_eq!(e, orig, "calls must not be deduplicated");
    }

    #[test]
    fn nested_idioms_collapse() {
        // A `0 - x` subexpression participates in the mod pattern intact.
        let neg = DExpr::bin(BinOp::Sub, DExpr::Num(0), var(0));
        let mut e = DExpr::bin(
            BinOp::Sub,
            neg.clone(),
            DExpr::bin(
                BinOp::Mul,
                DExpr::bin(BinOp::Div, neg.clone(), var(1)),
                var(1),
            ),
        );
        idiom_expr(&mut e);
        assert_eq!(e, DExpr::bin(BinOp::Mod, neg, var(1)));
    }

    #[test]
    fn ppc_mod_matches_other_arch_trees() {
        use asteria_compiler::{compile_program, Arch};
        use asteria_lang::parse;
        let p = parse("int f(int a, int b) { return a % b; }").unwrap();
        let bp = compile_program(&p, Arch::Ppc).unwrap();
        let ba = compile_program(&p, Arch::Arm).unwrap();
        let fp = crate::decompile::decompile_function(&bp, 0).unwrap();
        let fa = crate::decompile::decompile_function(&ba, 0).unwrap();
        assert_eq!(
            fp.body, fa.body,
            "idiom recovery should reunify % across arches"
        );
    }
}

#[cfg(test)]
mod shl_mod_tests {
    use super::*;
    use crate::ast::VarRef;

    #[test]
    fn strength_reduced_mod_idiom_recovered() {
        let a = DExpr::Var(VarRef::Local(4));
        let mut e = DExpr::bin(
            BinOp::Sub,
            a.clone(),
            DExpr::bin(
                BinOp::Shl,
                DExpr::bin(BinOp::Div, a.clone(), DExpr::Num(4)),
                DExpr::Num(2),
            ),
        );
        idiom_expr(&mut e);
        assert_eq!(e, DExpr::bin(BinOp::Mod, a, DExpr::Num(4)), "{e:?}");
    }
}
