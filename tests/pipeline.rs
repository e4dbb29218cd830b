//! Cross-crate integration: source → 4 binaries → VM semantics → ASTs →
//! digitalized trees, checking the invariants the whole system rests on.

use asteria::compiler::{compile_program, Arch, Binary, Vm};
use asteria::core::{binarize, digitalize, extract_binary, ExtractedFunction, DEFAULT_INLINE_BETA};
use asteria::datasets::{generate_package, GenConfig};
use asteria::decompiler::{callee_count, decompile_function, render_function, DFunction};
use asteria::lang::{parse, Interp};
use asteria::nn::Fnv;
use asteria::vulnsearch::{build_firmware_corpus, vulnerability_library, FirmwareConfig};

const SRC: &str = r#"
    int table_sum(int n) {
        int tab[8];
        for (int i = 0; i < 8; i++) { tab[i] = i * n; }
        int s = 0;
        for (int i = 0; i < 8; i++) { s += tab[i]; }
        return s;
    }
    int dispatch(int x) {
        switch (x % 4) {
        case 0: return table_sum(x);
        case 1: return x * 2;
        case 2: return ext_handle(x);
        default: return 0 - x;
        }
    }
    int main_loop(int n) {
        int acc = 0;
        int i = 0;
        while (i < n % 24) {
            acc += dispatch(i);
            if (acc > 100000) { break; }
            i++;
        }
        return acc;
    }
"#;

/// Every defined function of `b`, decompiled; panics on the first failure.
fn decompile_all(b: &Binary) -> Vec<DFunction> {
    b.function_indices()
        .into_iter()
        .map(|i| decompile_function(b, i).unwrap())
        .collect()
}

/// Every defined function of `b`, extracted; asserts that none was
/// skipped.
fn extract_all(b: &Binary) -> Vec<ExtractedFunction> {
    let run = extract_binary(b, DEFAULT_INLINE_BETA);
    assert_eq!(run.report.skipped, 0, "{}: {}", b.arch, run.report);
    run.into_functions()
}

fn binaries() -> Vec<Binary> {
    let p = parse(SRC).expect("parse");
    Arch::ALL
        .iter()
        .map(|a| compile_program(&p, *a).expect("compile"))
        .collect()
}

#[test]
fn every_arch_computes_the_reference_semantics() {
    let p = parse(SRC).unwrap();
    for args in [0i64, 3, 7, 23, 100] {
        let expected = Interp::new(&p).call("main_loop", &[args]).unwrap();
        for b in binaries() {
            let sym = b.symbol_index("main_loop").unwrap();
            let got = Vm::new(&b).call(sym, &[args]).unwrap();
            assert_eq!(got, expected, "{} diverged on main_loop({args})", b.arch);
        }
    }
}

#[test]
fn decompilation_covers_every_function_on_every_arch() {
    for b in binaries() {
        let funcs = decompile_all(&b);
        assert_eq!(funcs.len(), 3, "{}", b.arch);
        for f in &funcs {
            assert!(f.ast_size() >= 5, "{}: {} too small", b.arch, f.name);
            assert!(f.inst_count > 0);
        }
    }
}

#[test]
fn extraction_filters_and_features_are_consistent() {
    for b in binaries() {
        let fns = extract_all(&b);
        for f in &fns {
            assert_eq!(f.tree.size(), f.ast_size);
            // Binarization preserves node count.
            assert!(f.ast_size >= 5);
        }
        // main_loop calls dispatch (and dispatch calls two more).
        let main = fns.iter().find(|f| f.name == "main_loop").unwrap();
        assert!(
            main.callee_count >= 1,
            "{}: {:?}",
            b.arch,
            main.callee_count
        );
    }
}

#[test]
fn callee_counts_are_arch_invariant() {
    let counts: Vec<Vec<usize>> = binaries()
        .iter()
        .map(|b| {
            let mut fns = extract_all(b);
            fns.sort_by(|a, b| a.name.cmp(&b.name));
            fns.iter().map(|f| f.callee_count).collect()
        })
        .collect();
    for w in counts.windows(2) {
        assert_eq!(
            w[0], w[1],
            "callee counts must not depend on the architecture"
        );
    }
}

#[test]
fn digitalization_is_deterministic_and_stripping_safe() {
    let p = parse(SRC).unwrap();
    let mut b = compile_program(&p, Arch::Arm).unwrap();
    let before: Vec<_> = decompile_all(&b)
        .iter()
        .map(|f| binarize(&digitalize(f)))
        .collect();
    b.strip();
    let after: Vec<_> = decompile_all(&b)
        .iter()
        .map(|f| binarize(&digitalize(f)))
        .collect();
    // Stripping changes names but must not change the recovered trees.
    assert_eq!(before, after);
}

#[test]
fn binary_roundtrips_through_serialization() {
    for b in binaries() {
        let mut buf = Vec::new();
        b.save(&mut buf).unwrap();
        let b2 = Binary::load(buf.as_slice()).unwrap();
        assert_eq!(b, b2);
    }
}

/// FNV-1a over the decompiler's printed output for a fixed corpus: two
/// 48-image firmware corpora that ship every CVE library (stripped
/// binaries) and 50 generated packages on every arch (named symbols).
/// Per function it feeds the arch, the display name, the callee count at
/// the default inlining threshold and the rendered C text, or the error
/// text for a function that does not decompile. Digitalization drops
/// variable identity and constants, so the encoding digests cannot see a
/// renamed temporary or a different fold; this one can.
///
/// The constant was computed once and must never be regenerated: a change
/// to the lifter, optimizer, structurer or printer that alters what
/// `asteria-cli decompile` prints has to be deliberate.
#[test]
fn decompiled_text_golden_digest() {
    const GOLDEN: u64 = 0xc5c9_d5b4_4a00_2288;
    let library = vulnerability_library();
    let mut binaries: Vec<Binary> = Vec::new();
    for seed in [301, 911] {
        let config = FirmwareConfig {
            images: 48,
            include_probability: 1.0,
            seed,
        };
        for image in build_firmware_corpus(&config, &library) {
            binaries.extend(image.binaries);
        }
    }
    for k in 0..50 {
        let (_, program) = generate_package(&format!("golden{k}"), &GenConfig::default());
        for arch in Arch::ALL {
            binaries.push(compile_program(&program, arch).expect("compile"));
        }
    }
    let mut h = Fnv::new();
    let mut functions = 0;
    for b in &binaries {
        for sym in b.function_indices() {
            functions += 1;
            h.write(b.arch.name().as_bytes());
            h.write(b.symbols[sym].display_name().as_bytes());
            match decompile_function(b, sym) {
                Ok(f) => {
                    h.write_usize(callee_count(b, &f, DEFAULT_INLINE_BETA));
                    h.write(render_function(&f, b).as_bytes());
                }
                Err(e) => h.write(format!("error: {e}").as_bytes()),
            }
            h.write(&[0]);
        }
    }
    h.write_usize(functions);
    assert_eq!(
        h.finish(),
        GOLDEN,
        "decompiled text of {functions} functions changed (digest {:#018x})",
        h.finish()
    );
}
