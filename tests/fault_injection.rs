//! Fault injection: the whole extraction pipeline under seeded
//! corruption.
//!
//! The paper's firmware dataset is exactly the kind of input that breaks
//! naive tooling — truncated sections, bit-rot, hostile bytes. This
//! harness drives ≥ 1,000 deterministic corruptions per ISA through
//! `Binary::load`, all four disassemblers, and full decompilation, and
//! requires every failure to surface as a typed error. Any panic aborts
//! the test with the seed that produced it, which is a one-line repro.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use asteria::compiler::{
    compile_program, decode_function, encode_function, Arch, Binary, DecodeError, MInst,
};
use asteria::core::{extract_binary, AsteriaModel, ModelConfig, DEFAULT_INLINE_BETA};
use asteria::corrupt::Corruptor;
use asteria::datasets::{generate_package, GenConfig};
use asteria::decompiler::{decompile_function_with, DecompileLimits};
use asteria::lang::parse;
use asteria::nn::Fnv;
use asteria::vulnsearch::{
    build_firmware_corpus, vulnerability_library, FirmwareConfig, FunctionQuery, IndexBuilder,
    IndexCache, SearchSession,
};

/// Seeded corruptions per ISA per harness (the issue's floor is 1,000).
const ROUNDS: u64 = 1000;

const SRC: &str = r#"
    int mix(int a, int b) { return (a * 31 + b) ^ (a >> 3); }
    int table_hash(int n) {
        int tab[8];
        for (int i = 0; i < 8; i++) { tab[i] = mix(i, n); }
        int h = 17;
        for (int i = 0; i < 8; i++) { h = mix(h, tab[i]); }
        return h;
    }
    int classify(int x) {
        switch (x % 4) {
        case 0: return table_hash(x);
        case 1: return mix(x, x);
        case 2: return 0 - x;
        default: return x;
        }
    }
    int drive(int n) {
        int acc = 0;
        int i = 0;
        while (i < n % 16) {
            acc += classify(i);
            if (acc > 100000) { break; }
            i++;
        }
        return acc;
    }
"#;

fn compiled(arch: Arch) -> Binary {
    let p = parse(SRC).expect("parse");
    compile_program(&p, arch).expect("compile")
}

/// Runs `f`, turning a panic into a test failure that names the seed.
fn no_panic<T>(what: &str, arch: Arch, seed: u64, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => panic!("{what} panicked on {arch} seed {seed}"),
    }
}

/// Corrupted code bytes through the disassembler: decode must return
/// `Ok` or a typed `DecodeError`, never panic.
#[test]
fn disassemblers_survive_corrupted_code() {
    for arch in Arch::ALL {
        let binary = compiled(arch);
        let codes: Vec<&[u8]> = binary
            .symbols
            .iter()
            .filter(|s| !s.code.is_empty())
            .map(|s| s.code.as_slice())
            .collect();
        assert!(!codes.is_empty());
        for seed in 0..ROUNDS {
            let mut c = Corruptor::new(seed ^ ((arch as u64) << 32));
            let code = codes[c.below(codes.len())];
            let (_, mutant) = c.corrupt(code);
            no_panic("decode", arch, seed, || {
                let _ = decode_function(&mutant, arch);
            });
        }
    }
}

/// Pure random byte streams — no structural relation to valid code.
#[test]
fn disassemblers_survive_random_streams() {
    for arch in Arch::ALL {
        for seed in 0..ROUNDS {
            let mut c = Corruptor::new(seed.wrapping_mul(0x10001) ^ arch as u64);
            let len = 1 + c.below(256);
            let stream = c.random_stream(len);
            no_panic("decode random stream", arch, seed, || {
                let _ = decode_function(&stream, arch);
            });
        }
    }
}

/// Decodes `bytes` as `arch` and feeds the `Debug` text of the result
/// (instructions, or the error kind and offset) to `h`.
fn hash_decode(h: &mut Fnv, bytes: &[u8], arch: Arch) -> Result<Vec<MInst>, DecodeError> {
    let decoded = decode_function(bytes, arch);
    h.write(format!("{arch} {decoded:?}").as_bytes());
    h.write(&[0]);
    decoded
}

/// Decode golden digest: FNV-1a over the code bytes of every function of
/// 50 generated packages on every ISA and the `Debug` text of
/// `decode_function` on each one, on seeded truncations, bit flips, byte
/// overwrites and random tails of it, and on its bytes read as every other
/// ISA. Re-encoding each decoded function must give back its bytes.
/// Computed once, never regenerated: any change to what the four
/// instruction layouts encode or decode fails it.
#[test]
fn decode_golden_digest() {
    const GOLDEN: u64 = 0x926c_5688_532b_55af;
    let mut h = Fnv::new();
    let mut cases = 0usize;
    for k in 0..50u64 {
        let (_, program) = generate_package(&format!("decode{k}"), &GenConfig::default());
        for arch in Arch::ALL {
            let binary = compile_program(&program, arch).expect("compile");
            let codes = binary.symbols.iter().map(|s| &s.code);
            for (i, code) in codes.filter(|c| !c.is_empty()).enumerate() {
                h.write(code);
                let insts = hash_decode(&mut h, code, arch).expect("compiled code decodes");
                assert_eq!(encode_function(&insts, arch).as_ref(), Ok(code), "{arch}");
                for other in Arch::ALL.into_iter().filter(|a| *a != arch) {
                    hash_decode(&mut h, code, other).ok();
                }
                let mut c = Corruptor::new(k << 32 | (arch as u64) << 16 | i as u64);
                for _ in 0..4 {
                    let flips = 1 + c.below(8);
                    let tail = 1 + c.below(16);
                    let mut tailed = code.clone();
                    tailed.extend(c.random_stream(tail));
                    let mutants = [
                        c.truncate(code),
                        c.bit_flips(code, flips),
                        c.splice(code, 16),
                        tailed,
                    ];
                    for m in &mutants {
                        hash_decode(&mut h, m, arch).ok();
                    }
                }
                cases += 1 + 3 + 16;
            }
        }
    }
    h.write_usize(cases);
    assert_eq!(
        h.finish(),
        GOLDEN,
        "decoding of {cases} cases changed (digest {:#018x})",
        h.finish()
    );
}

/// Corrupted function code through *full decompilation* under default
/// budgets: typed error or a (possibly nonsense) AST — never a panic,
/// hang, or runaway allocation.
#[test]
fn decompiler_survives_corrupted_functions() {
    let limits = DecompileLimits::default();
    for arch in Arch::ALL {
        let binary = compiled(arch);
        let funcs = binary.function_indices();
        for seed in 0..ROUNDS {
            let mut c = Corruptor::new(0xdec0 ^ seed ^ ((arch as u64) << 24));
            let sym = funcs[c.below(funcs.len())];
            let mut mutant = binary.clone();
            let (_, code) = c.corrupt(&mutant.symbols[sym].code);
            mutant.symbols[sym].code = code;
            no_panic("decompile", arch, seed, || {
                let _ = decompile_function_with(&mutant, sym, &limits);
            });
        }
    }
}

/// Corrupted container images through `Binary::load`; survivors continue
/// into resilient extraction. Covers header, length-field and truncation
/// attacks against the loader itself.
#[test]
fn loader_survives_corrupted_images() {
    for arch in Arch::ALL {
        let binary = compiled(arch);
        let mut image = Vec::new();
        binary.save(&mut image).expect("save");
        let mut loaded_ok = 0u32;
        for seed in 0..ROUNDS {
            let mut c = Corruptor::new(0x10ad ^ seed.wrapping_mul(31) ^ arch as u64);
            let (_, mutant) = c.corrupt(&image);
            let reloaded = no_panic("load", arch, seed, || Binary::load(mutant.as_slice()));
            if let Ok(b) = reloaded {
                loaded_ok += 1;
                // A structurally valid container with garbage inside must
                // still extract per-function, not abort.
                no_panic("resilient extraction", arch, seed, || {
                    let r = extract_binary(&b, DEFAULT_INLINE_BETA);
                    assert_eq!(r.report.extracted + r.report.skipped, r.report.total);
                });
            }
        }
        // Bit flips inside code sections leave the container parsable, so
        // a decent fraction must reach the extraction stage at all.
        assert!(loaded_ok > 0, "{arch}: no corrupted image ever loaded");
    }
}

/// The parallel offline index build under seeded corruption: with >1
/// worker, every corrupted function must still degrade to a counted
/// skip — zero panics — and the merged index must equal the serial one
/// exactly (same order, same reports).
#[test]
fn parallel_index_build_survives_corrupted_corpus() {
    let model = AsteriaModel::new(ModelConfig {
        hidden_dim: 12,
        embed_dim: 8,
        ..Default::default()
    });
    let library = vulnerability_library();
    for seed in 0..8u64 {
        let mut firmware = build_firmware_corpus(
            &FirmwareConfig {
                images: 3,
                seed: 1000 + seed,
                ..Default::default()
            },
            &library,
        );
        let mut c = Corruptor::new(0xf1ee7 ^ seed);
        for img in &mut firmware {
            for binary in &mut img.binaries {
                for sym in &mut binary.symbols {
                    // Corrupt roughly a third of all function bodies.
                    if !sym.code.is_empty() && c.below(3) == 0 {
                        let (_, code) = c.corrupt(&sym.code);
                        sym.code = code;
                    }
                }
            }
        }
        let serial = no_panic("serial index build", Arch::Arm, seed, || {
            IndexBuilder::new(&model)
                .threads(1)
                .build(&firmware)
                .expect("in-memory build cannot fail")
                .index
        });
        for threads in [2usize, 4] {
            let parallel = no_panic("parallel index build", Arch::Arm, seed, || {
                IndexBuilder::new(&model)
                    .threads(threads)
                    .build(&firmware)
                    .expect("in-memory build cannot fail")
                    .index
            });
            assert_eq!(
                serial.extraction, parallel.extraction,
                "seed {seed}: report diverged at {threads} threads"
            );
            assert_eq!(
                serial.functions, parallel.functions,
                "seed {seed}: index diverged at {threads} threads"
            );
        }
    }
}

/// The ASIX index-cache loader under seeded corruption: every mutation
/// of a real cache file must surface as a typed [`IndexError`] or load a
/// still-valid structure — never panic — and the pristine bytes must
/// keep loading back to the exact cache that was saved.
#[test]
fn index_cache_loader_survives_corrupted_files() {
    let model = AsteriaModel::new(ModelConfig {
        hidden_dim: 12,
        embed_dim: 8,
        ..Default::default()
    });
    let firmware = build_firmware_corpus(
        &FirmwareConfig {
            images: 2,
            ..Default::default()
        },
        &vulnerability_library(),
    );
    let mut cache = IndexCache::default();
    let _ = IndexBuilder::new(&model)
        .threads(2)
        .build_into(&firmware, &mut cache);
    assert!(!cache.is_empty(), "cold build must populate the cache");
    let mut pristine = Vec::new();
    cache.save(&mut pristine).expect("save");
    assert_eq!(
        IndexCache::load(pristine.as_slice()).expect("pristine bytes load"),
        cache
    );
    let mut rejected = 0u32;
    for seed in 0..ROUNDS {
        let mut c = Corruptor::new(0xa51c ^ seed.wrapping_mul(0x9e37));
        let (_, mutant) = c.corrupt(&pristine);
        let outcome = no_panic("index cache load", Arch::Arm, seed, || {
            IndexCache::load(mutant.as_slice())
        });
        if let Err(e) = outcome {
            // The typed error must render without panicking either.
            no_panic("index error display", Arch::Arm, seed, || e.to_string());
            rejected += 1;
        }
    }
    assert!(rejected > 0, "no corruption was ever detected");
}

/// A well-formed ASIX entry whose vector does not have the model's
/// `hidden_dim`. The file's digests match the model, so the loader
/// accepts it; replayed as a warm hit, it would make every later query
/// panic. The builder must count it as a miss and re-encode and
/// overwrite it, so the index equals a cold build and queries succeed.
#[test]
fn wrong_dimension_cache_entry_is_re_encoded() {
    let model = Arc::new(AsteriaModel::new(ModelConfig {
        hidden_dim: 12,
        embed_dim: 8,
        ..Default::default()
    }));
    let library = vulnerability_library();
    let firmware = build_firmware_corpus(
        &FirmwareConfig {
            images: 2,
            ..Default::default()
        },
        &library,
    );
    let mut pristine = IndexCache::default();
    let (cold, _) = IndexBuilder::new(&model).build_into(&firmware, &mut pristine);
    let fingerprint = pristine
        .fingerprints()
        .filter(|&fp| !pristine.get(fp).expect("listed").functions.is_empty())
        .min()
        .expect("a binary with functions");
    let mut bad = pristine.get(fingerprint).expect("listed").clone();
    bad.functions[0].vector.push(0.5);
    let mut tampered = pristine.clone();
    tampered.insert(fingerprint, bad);
    let mut bytes = Vec::new();
    tampered.save(&mut bytes).expect("save");
    let loaded = IndexCache::load(bytes.as_slice()).expect("a well-formed file loads");
    assert_eq!(loaded, tampered);

    for threads in [1usize, 2, 8] {
        let mut cache = loaded.clone();
        let (index, stats) = IndexBuilder::new(&model)
            .threads(threads)
            .build_into(&firmware, &mut cache);
        assert_eq!(stats.misses, 1, "{stats} at {threads} threads");
        assert_eq!(stats.hits, pristine.len() - 1, "{stats}");
        assert_eq!(index, cold, "index differs from the cold build");
        assert_eq!(cache, pristine, "the bad entry must be overwritten");
        let session = SearchSession::new(Arc::clone(&model), index).threads(threads);
        let outcome = session
            .query(&FunctionQuery::for_cve(&library[0], Arch::X86))
            .expect("query encodes");
        assert_eq!(outcome.total_ranked, cold.len());
        assert!(!outcome.hits.is_empty());
    }
}

/// End-to-end: a whole corpus where some binaries are corrupted still
/// produces a report with exact per-error accounting.
#[test]
fn resilient_extraction_accounts_for_every_function() {
    for arch in Arch::ALL {
        let mut binary = compiled(arch);
        let funcs = binary.function_indices();
        let mut c = Corruptor::new(0xacc7 + arch as u64);
        // Corrupt half the functions.
        for (i, &sym) in funcs.iter().enumerate() {
            if i % 2 == 0 {
                let (_, code) = c.corrupt(&binary.symbols[sym].code);
                binary.symbols[sym].code = code;
            }
        }
        let r = extract_binary(&binary, DEFAULT_INLINE_BETA);
        assert_eq!(r.report.total, funcs.len());
        assert_eq!(r.report.extracted + r.report.skipped, r.report.total);
        assert_eq!(r.outcomes.len(), funcs.len());
        // At least the untouched half still extracts.
        assert!(
            r.report.extracted >= funcs.len() / 2,
            "{arch}: {}",
            r.report
        );
    }
}
