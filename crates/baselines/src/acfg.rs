//! Attributed control-flow graph (ACFG) extraction — the function feature
//! of Genius and Gemini (Xu et al., CCS'17), which the paper compares
//! against.
//!
//! Each basic block carries the statistical features proposed by
//! discovRE/Genius: counts of string constants, numeric constants,
//! transfer instructions, calls, total instructions and arithmetic
//! instructions, plus two structural features (number of offspring and
//! betweenness centrality).

use asteria_compiler::{decode_function, Binary, DecodeError, MInst, SymbolKind};
use asteria_decompiler::build_cfg;

/// Number of per-block features.
pub const ACFG_FEATURES: usize = 8;

/// An attributed CFG.
#[derive(Debug, Clone, PartialEq)]
pub struct Acfg {
    /// Per-block feature vectors.
    pub features: Vec<[f64; ACFG_FEATURES]>,
    /// Per-block successor lists.
    pub succs: Vec<Vec<usize>>,
}

impl Acfg {
    /// Number of basic blocks.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True for an empty graph (never produced by extraction).
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Undirected neighbour lists (structure2vec passes messages both
    /// ways along CFG edges).
    pub fn neighbors(&self) -> Vec<Vec<usize>> {
        let mut n = vec![Vec::new(); self.len()];
        for (u, ss) in self.succs.iter().enumerate() {
            for &v in ss {
                if !n[u].contains(&v) {
                    n[u].push(v);
                }
                if !n[v].contains(&u) {
                    n[v].push(u);
                }
            }
        }
        n
    }
}

/// Betweenness centrality for every node of an unweighted digraph
/// (Brandes' algorithm).
pub(crate) fn betweenness(succs: &[Vec<usize>]) -> Vec<f64> {
    let n = succs.len();
    let mut bc = vec![0.0f64; n];
    for s in 0..n {
        // BFS from s.
        let mut stack = Vec::new();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![-1i64; n];
        sigma[s] = 1.0;
        dist[s] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            for &w in &succs[v] {
                if dist[w] < 0 {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
                if dist[w] == dist[v] + 1 {
                    sigma[w] += sigma[v];
                    preds[w].push(v);
                }
            }
        }
        let mut delta = vec![0.0f64; n];
        while let Some(w) = stack.pop() {
            for &v in &preds[w] {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s {
                bc[w] += delta[w];
            }
        }
    }
    bc
}

/// Extracts the ACFG of one defined function.
///
/// # Errors
///
/// Returns decode errors; calling on an external symbol yields an error
/// via decoding the empty body (callers should pass defined functions).
pub fn extract_acfg(binary: &Binary, sym: usize) -> Result<Acfg, DecodeError> {
    let symbol = &binary.symbols[sym];
    debug_assert_eq!(symbol.kind, SymbolKind::Function, "ACFG of non-function");
    let insts = decode_function(&symbol.code, binary.arch)?;
    let cfg = build_cfg(&insts);
    let succs: Vec<Vec<usize>> = cfg.blocks.iter().map(|b| b.succs.clone()).collect();
    let bc = betweenness(&succs);
    let mut features = Vec::with_capacity(cfg.blocks.len());
    for (bi, block) in cfg.blocks.iter().enumerate() {
        let body = &insts[block.start as usize..block.end as usize];
        let mut f = [0.0f64; ACFG_FEATURES];
        for inst in body {
            match inst {
                MInst::LoadStr(_, _) => f[0] += 1.0,
                MInst::MovImm(_, _) => f[1] += 1.0,
                MInst::Jmp(_) | MInst::Brnz(_, _) => f[2] += 1.0,
                MInst::Call { .. } => f[3] += 1.0,
                _ => {}
            }
            if inst.is_arith() {
                f[5] += 1.0;
            }
        }
        f[4] = body.len() as f64;
        // Offspring: number of distinct successors (Genius's notion of
        // children in the CFG).
        f[6] = block.succs.len() as f64;
        f[7] = bc[bi];
        features.push(f);
    }
    Ok(Acfg { features, succs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asteria_compiler::{compile_program, Arch};
    use asteria_lang::parse;

    fn acfg_of(src: &str, arch: Arch) -> Acfg {
        let p = parse(src).unwrap();
        let b = compile_program(&p, arch).unwrap();
        extract_acfg(&b, 0).unwrap()
    }

    const LOOPY: &str = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { \
                         if (i % 2 == 0) { s += ext(i); } } return s; }";

    #[test]
    fn features_are_populated() {
        let a = acfg_of(LOOPY, Arch::X86);
        assert!(a.len() >= 3);
        let total_insts: f64 = a.features.iter().map(|f| f[4]).sum();
        assert!(total_insts > 10.0);
        let calls: f64 = a.features.iter().map(|f| f[3]).sum();
        assert_eq!(calls, 1.0);
    }

    #[test]
    fn acfg_differs_more_across_arch_than_ast() {
        // The paper's Fig. 2 claim: CFG structure is architecture-sensitive.
        // This diamond if-converts on ARM (no calls in the arms), so the
        // ARM ACFG collapses to fewer blocks than x86's.
        let src = "int f(int a, int b) { int x = 0; if (a > b) { x = a; } else { x = b; } \
                   return x * 2; }";
        let x86 = acfg_of(src, Arch::X86);
        let arm = acfg_of(src, Arch::Arm);
        assert!(arm.len() < x86.len(), "x86={} arm={}", x86.len(), arm.len());
    }

    #[test]
    fn betweenness_of_path_graph() {
        // 0 → 1 → 2: node 1 lies on the single shortest path 0→2.
        let succs = vec![vec![1], vec![2], vec![]];
        let bc = betweenness(&succs);
        assert_eq!(bc, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn betweenness_of_diamond() {
        // 0 → {1,2} → 3: two equal shortest paths share the middle nodes.
        let succs = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let bc = betweenness(&succs);
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[3], 0.0);
        assert!((bc[1] - 0.5).abs() < 1e-12);
        assert!((bc[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let a = acfg_of(LOOPY, Arch::Ppc);
        let n = a.neighbors();
        for (u, ns) in n.iter().enumerate() {
            for &v in ns {
                assert!(n[v].contains(&u));
            }
        }
    }

    #[test]
    fn string_constants_counted() {
        let a = acfg_of(
            r#"int f(int x) { ext_log("alpha", x); ext_log("beta", x); return 0; }"#,
            Arch::X64,
        );
        let strs: f64 = a.features.iter().map(|f| f[0]).sum();
        assert_eq!(strs, 2.0);
    }
}
