//! Persistent search-index storage: the versioned **ASIX** on-disk
//! format behind the incremental offline phase.
//!
//! The paper's cost breakdown (Fig. 10) shows offline AST encoding
//! dominating end-to-end search time, and the firmware case study
//! (Table IV) assumes embeddings are computed once per image and reused
//! across queries. ASIX makes that concrete: per-function embeddings,
//! callee counts and identity metadata are cached on disk, keyed by a
//! **content fingerprint** of (binary bytes + extraction parameters +
//! model weights digest), so stale entries self-invalidate whenever the
//! model is retrained or the [`DecompileLimits`] budget changes.
//!
//! The format is total under corruption: every multi-byte field is
//! little-endian, every length is capped before allocation, every entry
//! payload carries an FNV-1a checksum, and every failure mode is a typed
//! [`IndexError`] — never a panic. The fault-injection harness drives
//! the seeded corruptor (`asteria::corrupt`) over save/load to pin that
//! down.
//!
//! ## Layout (version 1)
//!
//! ```text
//! "ASIX"  magic                     4 bytes
//! version                           u32 (= 1)
//! model weights digest              u64
//! extraction-parameter digest       u64
//! entry count                       u32
//! per entry (one per cached binary, sorted by fingerprint):
//!   fingerprint                     u64
//!   payload length                  u32
//!   payload:
//!     extraction report             7 × u32
//!     function count                u32
//!     per function:
//!       name length, name bytes     u32 + bytes
//!       callee count                u32
//!       vector length, f32 bits     u32 + 4·len bytes
//!   payload checksum (FNV-1a 64)    u64
//! ```

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};

use asteria_compiler::Binary;
use asteria_core::{ExtractionReport, FunctionEncoding};
use asteria_decompiler::DecompileLimits;
use asteria_nn::Fnv;

/// On-disk magic tag.
pub const ASIX_MAGIC: &[u8; 4] = b"ASIX";

/// Current format version. Readers reject anything newer; older
/// versions would be migrated here when the layout evolves.
pub const ASIX_VERSION: u32 = 1;

// Allocation caps: length prefixes are attacker-controlled, so nothing
// is pre-allocated beyond these bounds (the SBF loader applies the same
// discipline).
const MAX_ENTRIES: usize = 1 << 20;
const MAX_FUNCTIONS: usize = 1 << 20;
const MAX_NAME_LEN: usize = 1 << 16;
const MAX_VECTOR_LEN: usize = 1 << 20;
const MAX_PAYLOAD_LEN: usize = 1 << 26;
const MAX_PREALLOC: usize = 1 << 16;

/// Why an ASIX stream failed to load. Every variant is a recoverable,
/// typed condition: corrupt cache files cost a rebuild, never a crash.
#[derive(Debug)]
pub enum IndexError {
    /// The underlying reader failed (includes truncation).
    Io(io::Error),
    /// The stream does not start with the `ASIX` magic.
    BadMagic,
    /// The stream's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// A structural invariant failed at a byte offset.
    Corrupt {
        /// Byte offset where parsing failed.
        offset: usize,
        /// What was wrong.
        what: String,
    },
    /// An entry's payload does not match its stored checksum.
    ChecksumMismatch {
        /// Fingerprint of the damaged entry.
        fingerprint: u64,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Io(e) => write!(f, "index I/O error: {e}"),
            IndexError::BadMagic => write!(f, "not an ASIX index (bad magic)"),
            IndexError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported ASIX version {v} (reader supports {ASIX_VERSION})"
                )
            }
            IndexError::Corrupt { offset, what } => {
                write!(f, "corrupt ASIX index at byte {offset}: {what}")
            }
            IndexError::ChecksumMismatch { fingerprint } => {
                write!(f, "ASIX entry {fingerprint:#018x} failed its checksum")
            }
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IndexError {
    fn from(e: io::Error) -> Self {
        IndexError::Io(e)
    }
}

/// One cached binary: the encoding of every successfully extracted
/// function in symbol order (name, callee count and exact vector bits —
/// everything needed to rebuild an index row without re-running
/// extraction or encoding), plus the extraction report (including
/// skips) from the cold run, so a warm rebuild reproduces the
/// corpus-coverage accounting bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedBinary {
    /// Per-binary extraction outcome of the cold build.
    pub report: ExtractionReport,
    /// Encoded functions in the order the cold build produced them.
    pub functions: Vec<FunctionEncoding>,
}

/// Aggregate cache accounting for one incremental build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Binaries served from the cache (extraction + encoding skipped).
    pub hits: usize,
    /// Binaries extracted and encoded cold.
    pub misses: usize,
    /// Stale entries dropped (fingerprint no longer present, or a
    /// model/parameter digest change wiped the cache).
    pub evicted: usize,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} evicted",
            self.hits, self.misses, self.evicted
        )
    }
}

/// The persistent embedding cache: fingerprint → cached binary.
///
/// An `IndexCache` is scoped to one (model weights, extraction
/// parameters) pair, recorded as digests;
/// [`IndexBuilder::build_into`](crate::IndexBuilder::build_into)
/// wipes it wholesale when either digest changes, and entry fingerprints
/// additionally bind the same inputs for defense in depth.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexCache {
    /// Digest of the model weights the cached embeddings came from.
    pub model_digest: u64,
    /// Digest of the extraction parameters (β + [`DecompileLimits`]).
    pub params_digest: u64,
    entries: HashMap<u64, CachedBinary>,
}

impl IndexCache {
    /// An empty cache bound to explicit digests.
    pub fn new(model_digest: u64, params_digest: u64) -> IndexCache {
        IndexCache {
            model_digest,
            params_digest,
            entries: HashMap::new(),
        }
    }

    /// Number of cached binaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a cached binary by fingerprint.
    pub fn get(&self, fingerprint: u64) -> Option<&CachedBinary> {
        self.entries.get(&fingerprint)
    }

    /// Inserts (or replaces) a cached binary.
    pub fn insert(&mut self, fingerprint: u64, entry: CachedBinary) {
        self.entries.insert(fingerprint, entry);
    }

    /// Drops every entry whose fingerprint fails `keep`; returns how
    /// many were evicted.
    pub fn retain_fingerprints(&mut self, keep: impl Fn(u64) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|fp, _| keep(*fp));
        before - self.entries.len()
    }

    /// Drops everything; returns how many entries were evicted.
    pub fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        n
    }

    /// Fingerprints currently cached, unsorted.
    pub fn fingerprints(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.keys().copied()
    }

    /// Total cached functions across all entries.
    pub fn function_count(&self) -> usize {
        self.entries.values().map(|e| e.functions.len()).sum()
    }

    /// Serializes the cache (entries sorted by fingerprint, so equal
    /// caches produce byte-identical files).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(ASIX_MAGIC)?;
        w.write_all(&ASIX_VERSION.to_le_bytes())?;
        w.write_all(&self.model_digest.to_le_bytes())?;
        w.write_all(&self.params_digest.to_le_bytes())?;
        w.write_all(&(self.entries.len() as u32).to_le_bytes())?;
        let mut fps: Vec<u64> = self.entries.keys().copied().collect();
        fps.sort_unstable();
        for fp in fps {
            let entry = &self.entries[&fp];
            let payload = encode_payload(entry);
            let mut checksum = Fnv::new();
            checksum.write(&payload);
            w.write_all(&fp.to_le_bytes())?;
            w.write_all(&(payload.len() as u32).to_le_bytes())?;
            w.write_all(&payload)?;
            w.write_all(&checksum.finish().to_le_bytes())?;
        }
        Ok(())
    }

    /// Loads a cache previously written by [`IndexCache::save`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`IndexError`] for any malformed input: bad
    /// magic, unsupported version, truncation, lying length fields,
    /// checksum mismatches. Allocations are capped throughout, so a
    /// hostile stream cannot OOM the loader.
    pub fn load<R: Read>(mut r: R) -> Result<IndexCache, IndexError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let mut c = Cursor::new(&bytes);
        let magic = c.take(4, "magic")?;
        if magic != ASIX_MAGIC {
            return Err(IndexError::BadMagic);
        }
        let version = c.u32("version")?;
        if version != ASIX_VERSION {
            return Err(IndexError::UnsupportedVersion(version));
        }
        let model_digest = c.u64("model digest")?;
        let params_digest = c.u64("params digest")?;
        let count = c.len("entry count", MAX_ENTRIES)?;
        let mut entries = HashMap::with_capacity(count.min(MAX_PREALLOC));
        for _ in 0..count {
            let fingerprint = c.u64("fingerprint")?;
            let payload_len = c.len("payload length", MAX_PAYLOAD_LEN)?;
            let payload_start = c.pos;
            let payload = c.take(payload_len, "entry payload")?;
            let mut checksum = Fnv::new();
            checksum.write(payload);
            let expected = checksum.finish();
            let stored = c.u64("checksum")?;
            if stored != expected {
                return Err(IndexError::ChecksumMismatch { fingerprint });
            }
            let entry = decode_payload(payload, payload_start)?;
            entries.insert(fingerprint, entry);
        }
        if c.pos != bytes.len() {
            return Err(IndexError::Corrupt {
                offset: c.pos,
                what: format!("{} trailing bytes", bytes.len() - c.pos),
            });
        }
        Ok(IndexCache {
            model_digest,
            params_digest,
            entries,
        })
    }
}

/// Serializes one entry's payload (the checksummed region).
fn encode_payload(entry: &CachedBinary) -> Vec<u8> {
    let mut out = Vec::new();
    let r = &entry.report;
    for v in [
        r.total,
        r.extracted,
        r.skipped,
        r.over_budget,
        r.decode_errors,
        r.empty_functions,
        r.other_errors,
    ] {
        out.extend_from_slice(&(v as u32).to_le_bytes());
    }
    out.extend_from_slice(&(entry.functions.len() as u32).to_le_bytes());
    for f in &entry.functions {
        let name = f.name.as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(f.callee_count as u32).to_le_bytes());
        out.extend_from_slice(&(f.vector.len() as u32).to_le_bytes());
        for v in &f.vector {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    out
}

/// Parses one entry payload. `base` is the payload's offset within the
/// whole stream, so corruption errors name absolute positions.
fn decode_payload(payload: &[u8], base: usize) -> Result<CachedBinary, IndexError> {
    let mut c = Cursor::with_base(payload, base);
    let mut counts = [0usize; 7];
    for (slot, what) in counts.iter_mut().zip([
        "report total",
        "report extracted",
        "report skipped",
        "report over_budget",
        "report decode_errors",
        "report empty_functions",
        "report other_errors",
    ]) {
        *slot = c.u32(what)? as usize;
    }
    let report = ExtractionReport {
        total: counts[0],
        extracted: counts[1],
        skipped: counts[2],
        over_budget: counts[3],
        decode_errors: counts[4],
        empty_functions: counts[5],
        other_errors: counts[6],
    };
    if report.extracted + report.skipped != report.total {
        return Err(c.corrupt("report counts do not add up"));
    }
    let nfuncs = c.len("function count", MAX_FUNCTIONS)?;
    if nfuncs != report.extracted {
        return Err(c.corrupt("function count disagrees with report"));
    }
    let mut functions = Vec::with_capacity(nfuncs.min(MAX_PREALLOC));
    for _ in 0..nfuncs {
        let name_len = c.len("name length", MAX_NAME_LEN)?;
        let name_bytes = c.take(name_len, "name")?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| c.corrupt("name not utf-8"))?
            .to_string();
        let callee_count = c.u32("callee count")? as usize;
        let vec_len = c.len("vector length", MAX_VECTOR_LEN)?;
        let mut vector = Vec::with_capacity(vec_len.min(MAX_PREALLOC));
        for _ in 0..vec_len {
            let raw = c.u32("vector element")?;
            vector.push(f32::from_bits(raw));
        }
        functions.push(FunctionEncoding {
            name,
            vector,
            callee_count,
        });
    }
    if c.pos - base != payload.len() {
        return Err(c.corrupt("payload has trailing bytes"));
    }
    Ok(CachedBinary { report, functions })
}

/// Bounds-checked little-endian reader over a byte slice, tracking the
/// absolute offset for error messages.
struct Cursor<'a> {
    bytes: &'a [u8],
    base: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor {
            bytes,
            base: 0,
            pos: 0,
        }
    }

    fn with_base(bytes: &'a [u8], base: usize) -> Cursor<'a> {
        Cursor {
            bytes,
            base,
            pos: base,
        }
    }

    fn corrupt(&self, what: impl Into<String>) -> IndexError {
        IndexError::Corrupt {
            offset: self.pos,
            what: what.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], IndexError> {
        let rel = self.pos - self.base;
        let end = rel.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let out = &self.bytes[rel..end];
                self.pos += n;
                Ok(out)
            }
            None => Err(self.corrupt(format!("truncated while reading {what}"))),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, IndexError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, IndexError> {
        let b = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a u32 length field and enforces a cap before anything is
    /// allocated from it.
    fn len(&mut self, what: &str, cap: usize) -> Result<usize, IndexError> {
        let v = self.u32(what)? as usize;
        if v > cap {
            return Err(self.corrupt(format!("{what} {v} exceeds cap {cap}")));
        }
        Ok(v)
    }
}

/// Digest of the extraction parameters that shape every cached
/// embedding: the inline filter β and every [`DecompileLimits`] budget.
/// Changing any of them invalidates the whole cache.
pub(crate) fn extraction_params_digest(beta: usize, limits: &DecompileLimits) -> u64 {
    let mut h = Fnv::new();
    h.write_usize(beta);
    h.write_usize(limits.max_instructions);
    h.write_usize(limits.max_basic_blocks);
    h.write_usize(limits.max_ast_nodes);
    h.write_usize(limits.max_structure_iters);
    h.finish()
}

/// Content fingerprint of one binary under the current pipeline: the
/// binary's exact serialized bytes (covering every function body and
/// symbol — the callee-count feature depends on sibling functions, so
/// the whole container is the correct granularity), the extraction
/// parameters, and the model weights digest. Any change to any of the
/// three yields a different fingerprint, which is how stale cache
/// entries self-invalidate.
pub(crate) fn fingerprint_binary(binary: &Binary, params_digest: u64, model_digest: u64) -> u64 {
    let mut bytes = Vec::new();
    binary.save(&mut bytes).expect("in-memory save cannot fail");
    let mut h = Fnv::new();
    h.write_u64(params_digest);
    h.write_u64(model_digest);
    h.write_usize(bytes.len());
    h.write(&bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cache() -> IndexCache {
        let mut cache = IndexCache::new(0x1111, 0x2222);
        cache.insert(
            7,
            CachedBinary {
                report: ExtractionReport {
                    total: 3,
                    extracted: 2,
                    skipped: 1,
                    decode_errors: 1,
                    ..Default::default()
                },
                functions: vec![
                    FunctionEncoding {
                        name: "sub_40".into(),
                        vector: vec![1.5, -0.25, f32::MIN_POSITIVE],
                        callee_count: 2,
                    },
                    FunctionEncoding {
                        name: "sub_8c".into(),
                        vector: vec![0.0, -0.0],
                        callee_count: 0,
                    },
                ],
            },
        );
        cache.insert(
            99,
            CachedBinary {
                report: ExtractionReport {
                    total: 0,
                    ..Default::default()
                },
                functions: vec![],
            },
        );
        cache
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let cache = sample_cache();
        let mut buf = Vec::new();
        cache.save(&mut buf).unwrap();
        let loaded = IndexCache::load(buf.as_slice()).unwrap();
        assert_eq!(loaded, cache);
        assert_eq!(loaded.function_count(), 2);
    }

    #[test]
    fn save_is_deterministic() {
        let cache = sample_cache();
        let mut a = Vec::new();
        let mut b = Vec::new();
        cache.save(&mut a).unwrap();
        cache.save(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn load_rejects_bad_magic_and_version() {
        assert!(matches!(
            IndexCache::load(&b"NOPE"[..]),
            Err(IndexError::BadMagic)
        ));
        let mut buf = Vec::new();
        sample_cache().save(&mut buf).unwrap();
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            IndexCache::load(buf.as_slice()),
            Err(IndexError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn load_rejects_flipped_payload_bytes_via_checksum() {
        let mut buf = Vec::new();
        sample_cache().save(&mut buf).unwrap();
        // Flip one byte inside the first entry's payload (header is
        // 4 + 4 + 8 + 8 + 4 = 28 bytes, then fingerprint + length).
        let target = 28 + 8 + 4 + 10;
        buf[target] ^= 0x20;
        let err = IndexCache::load(buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                IndexError::ChecksumMismatch { .. } | IndexError::Corrupt { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn load_rejects_truncation_everywhere() {
        let mut buf = Vec::new();
        sample_cache().save(&mut buf).unwrap();
        for cut in 0..buf.len() {
            let err = IndexCache::load(&buf[..cut]).expect_err("truncated input must fail");
            // Any typed error is fine; a panic is not.
            let _ = err.to_string();
        }
    }

    #[test]
    fn load_caps_lying_length_fields() {
        let mut buf = Vec::new();
        sample_cache().save(&mut buf).unwrap();
        // Entry count at offset 24: claim u32::MAX entries.
        buf[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = IndexCache::load(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, IndexError::Corrupt { ref what, .. } if what.contains("cap")),
            "{err:?}"
        );
    }

    #[test]
    fn errors_display_offsets() {
        let mut buf = Vec::new();
        sample_cache().save(&mut buf).unwrap();
        buf.truncate(30);
        let err = IndexCache::load(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn params_digest_is_sensitive_to_each_field() {
        let base = DecompileLimits::default();
        let d0 = extraction_params_digest(6, &base);
        assert_eq!(d0, extraction_params_digest(6, &base));
        assert_ne!(d0, extraction_params_digest(7, &base));
        let tweaked = DecompileLimits {
            max_ast_nodes: base.max_ast_nodes - 1,
            ..base
        };
        assert_ne!(d0, extraction_params_digest(6, &tweaked));
    }

    #[test]
    fn retain_and_clear_report_evictions() {
        let mut cache = sample_cache();
        assert_eq!(cache.retain_fingerprints(|fp| fp == 7), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(7).is_some());
        assert_eq!(cache.clear(), 1);
        assert!(cache.is_empty());
    }
}
