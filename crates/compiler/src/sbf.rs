//! SBF ("Simple Binary Format") — the reproduction's executable container.
//!
//! An [`Binary`] plays the role of an ELF object in the paper's pipeline:
//! it carries per-function machine code for one architecture, a symbol
//! table (optionally stripped, as vendor firmware is), a global data
//! segment, and a string table. [`crate::vm::Vm`] executes it and the
//! decompiler in `asteria-decompiler` lifts it back to ASTs.

use std::fmt;
use std::io::{self, Read, Write};

use crate::encode::table_byte;
use crate::isa::Arch;

/// Kind of a symbol-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    /// A function defined in this binary (has code).
    Function,
    /// An imported function (externals keep their names even in stripped
    /// binaries, like dynamic imports in real firmware).
    External,
}

/// Symbol kinds, in encoding order.
const SYMBOL_KINDS: [SymbolKind; 2] = [SymbolKind::Function, SymbolKind::External];

/// A symbol-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name; `None` after stripping (tools then synthesize
    /// `sub_<offset>` names, as IDA does for the paper's firmware dataset).
    pub name: Option<String>,
    /// Function or external.
    pub kind: SymbolKind,
    /// Declared parameter count.
    pub param_count: u32,
    /// Frame size in 64-bit slots (functions only).
    pub frame_size: u32,
    /// Virtual address of the entry point.
    pub offset: u64,
    /// Encoded machine code (empty for externals).
    pub code: Vec<u8>,
}

impl Symbol {
    /// Display name: the symbol name, or `sub_<offset>` when stripped.
    pub fn display_name(&self) -> String {
        match &self.name {
            Some(n) => n.clone(),
            None => format!("sub_{:x}", self.offset),
        }
    }
}

/// A compiled binary for one architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binary {
    /// Target architecture.
    pub arch: Arch,
    /// Symbol table; defined functions and externals.
    pub symbols: Vec<Symbol>,
    /// Global data segment initial values.
    pub globals: Vec<i64>,
    /// String constant table.
    pub strings: Vec<String>,
}

impl Binary {
    /// Indices of all defined functions.
    pub fn function_indices(&self) -> Vec<usize> {
        (0..self.symbols.len())
            .filter(|i| self.symbols[*i].kind == SymbolKind::Function)
            .collect()
    }

    /// Looks up a symbol index by name.
    pub fn symbol_index(&self, name: &str) -> Option<usize> {
        self.symbols
            .iter()
            .position(|s| s.name.as_deref() == Some(name))
    }

    /// Total code size in bytes.
    pub fn code_size(&self) -> usize {
        self.symbols.iter().map(|s| s.code.len()).sum()
    }

    /// Removes the names of defined functions, mimicking `strip` on release
    /// firmware (external imports keep their names).
    pub fn strip(&mut self) {
        for s in &mut self.symbols {
            if s.kind == SymbolKind::Function {
                s.name = None;
            }
        }
    }

    /// Serializes the binary.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
            w.write_all(&v.to_le_bytes())
        }
        fn put_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
            put_u32(w, s.len() as u32)?;
            w.write_all(s.as_bytes())
        }
        w.write_all(b"SBF1")?;
        w.write_all(&[table_byte(&Arch::ALL, &self.arch)])?;
        put_u32(&mut w, self.symbols.len() as u32)?;
        for s in &self.symbols {
            match &s.name {
                Some(n) => {
                    w.write_all(&[1])?;
                    put_str(&mut w, n)?;
                }
                None => w.write_all(&[0])?,
            }
            w.write_all(&[table_byte(&SYMBOL_KINDS, &s.kind)])?;
            put_u32(&mut w, s.param_count)?;
            put_u32(&mut w, s.frame_size)?;
            w.write_all(&s.offset.to_le_bytes())?;
            put_u32(&mut w, s.code.len() as u32)?;
            w.write_all(&s.code)?;
        }
        put_u32(&mut w, self.globals.len() as u32)?;
        for g in &self.globals {
            w.write_all(&g.to_le_bytes())?;
        }
        put_u32(&mut w, self.strings.len() as u32)?;
        for s in &self.strings {
            put_str(&mut w, s)?;
        }
        Ok(())
    }

    /// Deserializes a binary written by [`Binary::save`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed input and propagates reader
    /// errors.
    pub fn load<R: Read>(mut r: R) -> io::Result<Binary> {
        // Length prefixes are attacker-controlled: cap initial
        // capacities and grow buffers from bytes actually read, so a
        // lying prefix fails with `Truncated`-style `UnexpectedEof`
        // instead of a huge up-front allocation.
        const MAX_PREALLOC: usize = 1 << 16;
        fn bad(msg: &str) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
        }
        fn get_u8<R: Read>(r: &mut R) -> io::Result<u8> {
            let mut b = [0u8; 1];
            r.read_exact(&mut b)?;
            Ok(b[0])
        }
        fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
            let mut b = [0u8; 4];
            r.read_exact(&mut b)?;
            Ok(u32::from_le_bytes(b))
        }
        fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
            let mut b = [0u8; 8];
            r.read_exact(&mut b)?;
            Ok(u64::from_le_bytes(b))
        }
        fn get_bytes<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<u8>> {
            let mut buf = Vec::with_capacity(n.min(MAX_PREALLOC));
            let got = r.take(n as u64).read_to_end(&mut buf)?;
            if got != n {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended after {got} of {n} declared bytes"),
                ));
            }
            Ok(buf)
        }
        fn get_str<R: Read>(r: &mut R) -> io::Result<String> {
            let n = get_u32(r)? as usize;
            if n > 1 << 24 {
                return Err(bad("unreasonable string length"));
            }
            let buf = get_bytes(r, n)?;
            String::from_utf8(buf).map_err(|_| bad("string not utf-8"))
        }
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != b"SBF1" {
            return Err(bad("bad magic"));
        }
        let arch = *Arch::ALL
            .get(get_u8(&mut r)? as usize)
            .ok_or_else(|| bad("unknown architecture"))?;
        let nsyms = get_u32(&mut r)? as usize;
        let mut symbols = Vec::with_capacity(nsyms.min(MAX_PREALLOC));
        for _ in 0..nsyms {
            let name = match get_u8(&mut r)? {
                1 => Some(get_str(&mut r)?),
                0 => None,
                _ => return Err(bad("bad name flag")),
            };
            let kind = *SYMBOL_KINDS
                .get(get_u8(&mut r)? as usize)
                .ok_or_else(|| bad("bad symbol kind"))?;
            let param_count = get_u32(&mut r)?;
            let frame_size = get_u32(&mut r)?;
            let offset = get_u64(&mut r)?;
            let code_len = get_u32(&mut r)? as usize;
            if code_len > 1 << 28 {
                return Err(bad("unreasonable code length"));
            }
            let code = get_bytes(&mut r, code_len)?;
            symbols.push(Symbol {
                name,
                kind,
                param_count,
                frame_size,
                offset,
                code,
            });
        }
        let nglobals = get_u32(&mut r)? as usize;
        let mut globals = Vec::with_capacity(nglobals.min(MAX_PREALLOC));
        for _ in 0..nglobals {
            globals.push(get_u64(&mut r)? as i64);
        }
        let nstrings = get_u32(&mut r)? as usize;
        let mut strings = Vec::with_capacity(nstrings.min(MAX_PREALLOC));
        for _ in 0..nstrings {
            strings.push(get_str(&mut r)?);
        }
        Ok(Binary {
            arch,
            symbols,
            globals,
            strings,
        })
    }
}

impl fmt::Display for Binary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SBF[{}] {} symbols, {} bytes code, {} globals, {} strings",
            self.arch,
            self.symbols.len(),
            self.code_size(),
            self.globals.len(),
            self.strings.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Binary {
        Binary {
            arch: Arch::Arm,
            symbols: vec![
                Symbol {
                    name: Some("main".into()),
                    kind: SymbolKind::Function,
                    param_count: 2,
                    frame_size: 8,
                    offset: 0x1000,
                    code: vec![1, 2, 3, 4],
                },
                Symbol {
                    name: Some("printf".into()),
                    kind: SymbolKind::External,
                    param_count: 0,
                    frame_size: 0,
                    offset: 0,
                    code: vec![],
                },
            ],
            globals: vec![7, -9],
            strings: vec!["hello".into()],
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let b = sample();
        let mut buf = Vec::new();
        b.save(&mut buf).unwrap();
        let b2 = Binary::load(buf.as_slice()).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn strip_removes_function_names_only() {
        let mut b = sample();
        b.strip();
        assert_eq!(b.symbols[0].name, None);
        assert_eq!(b.symbols[1].name.as_deref(), Some("printf"));
        assert_eq!(b.symbols[0].display_name(), "sub_1000");
    }

    #[test]
    fn load_rejects_bad_magic() {
        assert!(Binary::load(&b"ELF!"[..]).is_err());
    }

    #[test]
    fn load_rejects_lying_length_prefixes_without_huge_allocation() {
        // Claim u32::MAX symbols with an empty body: must error quickly,
        // not attempt a multi-gigabyte reservation.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SBF1");
        buf.push(2); // arch = ARM
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Binary::load(buf.as_slice()).is_err());
    }

    #[test]
    fn load_rejects_code_length_beyond_stream() {
        let b = sample();
        let mut buf = Vec::new();
        b.save(&mut buf).unwrap();
        // Symbol 0's code length field sits 21 bytes past the start of
        // its name: name(4) + kind(1) + params(4) + frame(4) + offset(8).
        let name = buf.windows(4).position(|w| w == b"main").expect("name");
        let pos = name + 21;
        assert_eq!(&buf[pos..pos + 4], &4u32.to_le_bytes());
        buf[pos..pos + 4].copy_from_slice(&(1u32 << 27).to_le_bytes());
        let err = Binary::load(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn load_never_panics_on_truncations() {
        let b = sample();
        let mut buf = Vec::new();
        b.save(&mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(Binary::load(&buf[..cut]).is_err(), "truncation at {cut}");
        }
    }

    #[test]
    fn function_indices_skip_externals() {
        let b = sample();
        assert_eq!(b.function_indices(), vec![0]);
    }

    #[test]
    fn symbol_lookup_by_name() {
        let b = sample();
        assert_eq!(b.symbol_index("printf"), Some(1));
        assert_eq!(b.symbol_index("nope"), None);
    }
}
