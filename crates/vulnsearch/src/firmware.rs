//! Synthetic firmware corpus (the paper's Firmware dataset substitute).
//!
//! Each image belongs to a vendor/model/version, targets one architecture
//! (distributed like the paper's Table II: mostly ARM, then PPC), bundles
//! several filler packages, and — for a random subset of CVE entries —
//! includes the host software with either the vulnerable or the patched
//! function version. All binaries are **stripped**, as release firmware
//! is, so search must work on `sub_<offset>` names. Ground truth about the
//! planted functions is recorded separately for scoring.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use asteria_compiler::{compile_program, Arch, Binary};
use asteria_datasets::{generate_package, GenConfig};
use asteria_lang::parse;

use crate::library::CveEntry;

/// Filler packages per image.
const PACKAGES_PER_IMAGE: usize = 2;
/// Functions per filler package.
const FUNCTIONS_PER_PACKAGE: usize = 4;
/// Probability a shipped CVE host copy is the *vulnerable* version.
const VULNERABLE_PROBABILITY: f64 = 0.5;

/// Firmware corpus parameters.
#[derive(Debug, Clone, Copy)]
pub struct FirmwareConfig {
    /// Number of firmware images.
    pub images: usize,
    /// Probability an image ships a given CVE's host software at all.
    pub include_probability: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for FirmwareConfig {
    fn default() -> Self {
        FirmwareConfig {
            images: 12,
            include_probability: 0.5,
            seed: 77,
        }
    }
}

/// Ground truth about one planted library function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantedFunction {
    /// Index into the vulnerability library.
    pub cve_index: usize,
    /// Binary index within the image.
    pub binary_index: usize,
    /// Stripped display name (`sub_<offset>`).
    pub display_name: String,
    /// True when the planted copy is the vulnerable version.
    pub vulnerable: bool,
}

/// One firmware image.
#[derive(Debug, Clone)]
pub struct FirmwareImage {
    /// Vendor name.
    pub vendor: String,
    /// Device model.
    pub model: String,
    /// Firmware version string.
    pub version: String,
    /// Target architecture.
    pub arch: Arch,
    /// Stripped binaries unpacked from the image.
    pub binaries: Vec<Binary>,
    /// Ground truth for scoring (not visible to the search).
    pub planted: Vec<PlantedFunction>,
}

impl FirmwareImage {
    /// Total number of defined functions across the image's binaries.
    pub fn function_count(&self) -> usize {
        self.binaries
            .iter()
            .map(|b| b.function_indices().len())
            .sum()
    }

    /// The ground truth of function `display_name` in binary
    /// `binary_index`: `(cve_index, vulnerable)` when a library function
    /// was planted there, `None` for ordinary firmware code.
    pub fn ground_truth(&self, binary_index: usize, display_name: &str) -> Option<(usize, bool)> {
        self.planted
            .iter()
            .find(|p| p.binary_index == binary_index && p.display_name == display_name)
            .map(|p| (p.cve_index, p.vulnerable))
    }
}

const VENDORS: &[(&str, &[&str])] = &[
    ("netguard", &["R7", "D7", "R8", "FV3"]),
    ("dlane", &["DSN6", "DIR8"]),
    ("schnell", &["PLC2", "ION7"]),
];

fn pick_arch(rng: &mut StdRng) -> Arch {
    // Table II firmware distribution: ARM-heavy, then PPC.
    let roll: f64 = rng.gen();
    if roll < 0.60 {
        Arch::Arm
    } else if roll < 0.85 {
        Arch::Ppc
    } else if roll < 0.93 {
        Arch::X64
    } else {
        Arch::X86
    }
}

/// Builds a firmware corpus.
///
/// # Panics
///
/// Panics if any embedded source fails to compile (covered by library and
/// generator tests).
pub fn build_firmware_corpus(config: &FirmwareConfig, library: &[CveEntry]) -> Vec<FirmwareImage> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut images = Vec::with_capacity(config.images);
    for img_idx in 0..config.images {
        let (vendor, models) = VENDORS[rng.gen_range(0..VENDORS.len())];
        let model = models[rng.gen_range(0..models.len())].to_string();
        let version = format!("1.{}.{}", rng.gen_range(0..4), rng.gen_range(0..10));
        let arch = pick_arch(&mut rng);

        let mut binaries = Vec::new();
        let mut planted = Vec::new();

        // Filler packages.
        for p in 0..PACKAGES_PER_IMAGE {
            let gen_cfg = GenConfig {
                functions: FUNCTIONS_PER_PACKAGE,
                max_depth: 2,
                seed: config.seed ^ ((img_idx as u64) << 17) ^ p as u64,
            };
            let (_, program) = generate_package(&format!("fw{img_idx}_pkg{p}"), &gen_cfg);
            let mut binary = compile_program(&program, arch).expect("filler compiles");
            binary.strip();
            binaries.push(binary);
        }

        // CVE host software.
        for (cve_index, entry) in library.iter().enumerate() {
            if !rng.gen_bool(config.include_probability) {
                continue;
            }
            let vulnerable = rng.gen_bool(VULNERABLE_PROBABILITY);
            let source = if vulnerable {
                &entry.vulnerable_source
            } else {
                &entry.patched_source
            };
            // Surround the library function with a couple of package-local
            // helpers so the binary looks like a real library.
            let gen_cfg = GenConfig {
                functions: 2,
                max_depth: 2,
                seed: config.seed ^ 0xCAFE ^ ((img_idx as u64) << 9) ^ cve_index as u64,
            };
            let (filler_src, _) = generate_package(&format!("lib{img_idx}_{cve_index}"), &gen_cfg);
            let full_src = format!("{filler_src}\n{source}\n");
            let program = parse(&full_src).expect("library source parses");
            let mut binary = compile_program(&program, arch).expect("library compiles");
            let sym = binary
                .symbol_index(entry.function)
                .expect("library function present");
            binary.strip();
            let display_name = binary.symbols[sym].display_name();
            planted.push(PlantedFunction {
                cve_index,
                binary_index: binaries.len(),
                display_name,
                vulnerable,
            });
            binaries.push(binary);
        }

        images.push(FirmwareImage {
            vendor: vendor.to_string(),
            model,
            version,
            arch,
            binaries,
            planted,
        });
    }
    images
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::vulnerability_library;

    fn small() -> Vec<FirmwareImage> {
        build_firmware_corpus(
            &FirmwareConfig {
                images: 4,
                ..Default::default()
            },
            &vulnerability_library(),
        )
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.vendor, y.vendor);
            assert_eq!(x.planted, y.planted);
        }
    }

    #[test]
    fn binaries_are_stripped() {
        for img in small() {
            for b in &img.binaries {
                for idx in b.function_indices() {
                    assert!(b.symbols[idx].name.is_none(), "function kept its name");
                }
            }
        }
    }

    #[test]
    fn planted_ground_truth_is_resolvable() {
        for img in small() {
            for p in &img.planted {
                let b = &img.binaries[p.binary_index];
                let found = b
                    .function_indices()
                    .into_iter()
                    .any(|i| b.symbols[i].display_name() == p.display_name);
                assert!(found, "{} not found in its binary", p.display_name);
                assert_eq!(
                    img.ground_truth(p.binary_index, &p.display_name),
                    Some((p.cve_index, p.vulnerable))
                );
            }
        }
    }

    #[test]
    fn corpus_contains_both_versions_somewhere() {
        let images = build_firmware_corpus(
            &FirmwareConfig {
                images: 16,
                ..Default::default()
            },
            &vulnerability_library(),
        );
        let vuln = images
            .iter()
            .flat_map(|i| &i.planted)
            .filter(|p| p.vulnerable)
            .count();
        let patched = images
            .iter()
            .flat_map(|i| &i.planted)
            .filter(|p| !p.vulnerable)
            .count();
        assert!(vuln > 0, "no vulnerable plants");
        assert!(patched > 0, "no patched plants");
    }

    #[test]
    fn arch_distribution_is_arm_heavy() {
        let images = build_firmware_corpus(
            &FirmwareConfig {
                images: 40,
                ..Default::default()
            },
            &vulnerability_library(),
        );
        let arm = images.iter().filter(|i| i.arch == Arch::Arm).count();
        assert!(arm >= 15, "only {arm}/40 ARM images");
    }
}
