//! Corpus construction: packages → cross-compiled binaries → extracted
//! function instances (the reproduction's Buildroot/OpenSSL datasets).

use asteria_compiler::{compile_program, Arch, Binary};
use asteria_core::{extract_binary, ExtractedFunction, DEFAULT_INLINE_BETA};

use crate::gen::{generate_package, GenConfig};

/// Corpus construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Number of packages ("open-source projects").
    pub packages: usize,
    /// Functions per package.
    pub functions_per_package: usize,
    /// Master seed.
    pub seed: u64,
    /// Inline filter β for callee counting.
    pub beta: usize,
    /// Minimum AST size; the paper drops ASTs with fewer than 5 nodes.
    pub min_ast_size: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            packages: 10,
            functions_per_package: 8,
            seed: 42,
            beta: DEFAULT_INLINE_BETA,
            min_ast_size: 5,
        }
    }
}

/// One function instance: a specific function of a specific package
/// compiled for a specific architecture.
#[derive(Debug, Clone)]
pub struct FunctionInstance {
    /// Package name.
    pub package: String,
    /// Function symbol name (ground-truth identity within the package).
    pub name: String,
    /// Architecture this instance was compiled for.
    pub arch: Arch,
    /// Extracted AST + calibration features.
    pub extracted: ExtractedFunction,
}

impl FunctionInstance {
    /// Ground-truth identity key: two instances are homologous iff their
    /// keys are equal (same package, same function name).
    pub fn identity(&self) -> (&str, &str) {
        (&self.package, &self.name)
    }
}

/// A compiled binary with provenance.
#[derive(Debug, Clone)]
pub struct CorpusBinary {
    /// Package name.
    pub package: String,
    /// Architecture.
    pub arch: Arch,
    /// The binary image.
    pub binary: Binary,
}

/// A cross-compiled corpus of packages.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// All binaries (packages × architectures).
    pub binaries: Vec<CorpusBinary>,
    /// All extracted function instances that pass the AST-size filter.
    pub instances: Vec<FunctionInstance>,
    /// Number of instances dropped by the AST-size filter.
    pub filtered_out: usize,
}

impl Corpus {
    /// Instances compiled for one architecture.
    pub fn instances_for(&self, arch: Arch) -> Vec<usize> {
        (0..self.instances.len())
            .filter(|i| self.instances[*i].arch == arch)
            .collect()
    }

    /// Per-architecture `(binaries, functions)` counts — Table II's rows.
    pub fn arch_stats(&self) -> Vec<(Arch, usize, usize)> {
        Arch::ALL
            .iter()
            .map(|a| {
                let bins = self.binaries.iter().filter(|b| b.arch == *a).count();
                let funcs = self.instances.iter().filter(|i| i.arch == *a).count();
                (*a, bins, funcs)
            })
            .collect()
    }
}

/// Builds a corpus by generating `packages` MiniC packages and compiling
/// each for all four architectures, extracting every function's AST.
///
/// Packages are named after real IoT-adjacent projects purely for
/// readability; their contents are synthetic.
///
/// # Panics
///
/// Panics if generation, compilation, or extraction fails — all of which
/// indicate bugs covered by lower-level tests.
pub fn build_corpus(config: &CorpusConfig) -> Corpus {
    build_corpus_with_extra(config, &[])
}

/// Like [`build_corpus`], with additional hand-written packages given as
/// `(package_name, minic_source)`. The paper's Buildroot training corpus
/// contains the very libraries (OpenSSL, curl, …) later searched for
/// vulnerabilities; callers use this hook to include library-style code
/// (e.g. patched CVE functions) in training the same way.
///
/// # Panics
///
/// Panics if an extra source fails to parse or compile.
pub fn build_corpus_with_extra(config: &CorpusConfig, extra: &[(String, String)]) -> Corpus {
    const NAMES: &[&str] = &[
        "busybox", "openssl", "zlib", "curl", "dropbear", "dnsmasq", "lighttpd", "mbedtls",
        "uclibc", "wget", "vsftpd", "iptables", "hostapd", "ntpd", "upnp", "telnetd", "tinylog",
        "jsonp", "mqttc", "coapd",
    ];
    let gen_cfg = GenConfig {
        functions: config.functions_per_package,
        max_depth: 3,
        seed: config.seed,
    };
    let mut corpus = Corpus::default();
    let mut sources: Vec<(String, asteria_lang::Program)> = Vec::new();
    let package_names = (0..config.packages).map(|p| match NAMES.get(p) {
        Some(n) => n.to_string(),
        None => format!("pkg{p}"),
    });
    for package in package_names {
        let (_, program) = generate_package(&package, &gen_cfg);
        sources.push((package, program));
    }
    for (name, src) in extra {
        let program =
            asteria_lang::parse(src).unwrap_or_else(|e| panic!("extra package {name}: {e}"));
        sources.push((name.clone(), program));
    }
    for (package, program) in sources {
        for arch in Arch::ALL {
            let binary = compile_program(&program, arch)
                .unwrap_or_else(|e| panic!("{package}/{arch}: compile failed: {e}"));
            let extraction = extract_binary(&binary, config.beta);
            if let Some((_, e)) = extraction.failures().next() {
                panic!("{package}/{arch}: extraction failed: {e}");
            }
            for f in extraction.into_functions() {
                if f.ast_size < config.min_ast_size {
                    corpus.filtered_out += 1;
                    continue;
                }
                corpus.instances.push(FunctionInstance {
                    package: package.clone(),
                    name: f.name.clone(),
                    arch,
                    extracted: f,
                });
            }
            corpus.binaries.push(CorpusBinary {
                package: package.clone(),
                arch,
                binary,
            });
        }
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        build_corpus(&CorpusConfig {
            packages: 3,
            functions_per_package: 4,
            seed: 9,
            ..Default::default()
        })
    }

    #[test]
    fn corpus_has_all_arch_variants() {
        let c = small();
        assert_eq!(c.binaries.len(), 12); // 3 packages × 4 arches
        for (arch, bins, funcs) in c.arch_stats() {
            assert_eq!(bins, 3, "{arch}");
            assert!(funcs > 0, "{arch}");
        }
    }

    #[test]
    fn homologous_instances_exist_across_arches() {
        let c = small();
        let first = &c.instances[0];
        let variants: Vec<&FunctionInstance> = c
            .instances
            .iter()
            .filter(|i| i.identity() == first.identity())
            .collect();
        assert_eq!(variants.len(), 4, "one variant per architecture");
        let arches: Vec<Arch> = variants.iter().map(|v| v.arch).collect();
        for a in Arch::ALL {
            assert!(arches.contains(&a));
        }
    }

    #[test]
    fn ast_size_filter_applies() {
        let c = build_corpus(&CorpusConfig {
            packages: 2,
            functions_per_package: 4,
            seed: 10,
            min_ast_size: 10_000, // absurd: everything filtered
            ..Default::default()
        });
        assert!(c.instances.is_empty());
        assert!(c.filtered_out > 0);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.instances.len(), b.instances.len());
        for (x, y) in a.instances.iter().zip(&b.instances) {
            assert_eq!(x.identity(), y.identity());
            assert_eq!(x.extracted.tree, y.extracted.tree);
        }
    }
}
