//! Tokenizer for MiniC source text.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Integer literal.
    Num(i64),
    /// String literal (content, unescaped).
    Str(String),
    /// Identifier or keyword candidate.
    Ident(String),
    /// Keyword.
    Keyword(Keyword),
    /// Punctuation or operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// Reserved words of MiniC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    /// `int`
    Int,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `do`
    Do,
    /// `for`
    For,
    /// `switch`
    Switch,
    /// `case`
    Case,
    /// `default`
    Default,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Num(n) => write!(f, "{n}"),
            Token::Str(s) => write!(f, "{s:?}"),
            Token::Ident(s) => write!(f, "{s}"),
            Token::Keyword(k) => write!(f, "{k:?}"),
            Token::Punct(p) => write!(f, "{p}"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// An error produced while tokenizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

fn keyword(s: &str) -> Option<Keyword> {
    Some(match s {
        "int" => Keyword::Int,
        "if" => Keyword::If,
        "else" => Keyword::Else,
        "while" => Keyword::While,
        "do" => Keyword::Do,
        "for" => Keyword::For,
        "switch" => Keyword::Switch,
        "case" => Keyword::Case,
        "default" => Keyword::Default,
        "return" => Keyword::Return,
        "break" => Keyword::Break,
        "continue" => Keyword::Continue,
        _ => return None,
    })
}

/// Multi-character punctuation, longest first so maximal munch works.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++", "--", "+=", "-=", "*=",
    "/=", "&=", "|=", "^=", "%=", "(", ")", "{", "}", "[", "]", ";", ",", ":", "+", "-", "*", "/",
    "%", "&", "|", "^", "~", "!", "<", ">", "=", "?",
];

/// Tokenizes MiniC source text.
///
/// # Errors
///
/// Returns a [`LexError`] on an unterminated string literal, a malformed
/// number, or an unexpected character.
pub(crate) fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comments.
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start = i;
            i += 2;
            while i + 1 < bytes.len() {
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    i += 2;
                    continue 'outer;
                }
                i += 1;
            }
            return Err(LexError {
                offset: start,
                message: "unterminated comment".into(),
            });
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_alphanumeric() {
                i += 1;
            }
            let text = &src[start..i];
            let value = if let Some(hex) = text.strip_prefix("0x").or(text.strip_prefix("0X")) {
                i64::from_str_radix(hex, 16)
            } else {
                text.parse()
            }
            .map_err(|_| LexError {
                offset: start,
                message: format!("malformed number {text:?}"),
            })?;
            out.push(Token::Num(value));
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let text = &src[start..i];
            match keyword(text) {
                Some(k) => out.push(Token::Keyword(k)),
                None => out.push(Token::Ident(text.to_string())),
            }
            continue;
        }
        if c == '"' {
            let start = i;
            i += 1;
            let mut s = String::new();
            while i < bytes.len() && bytes[i] != b'"' {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    i += 1;
                    s.push(match bytes[i] {
                        b'n' => '\n',
                        b't' => '\t',
                        b'0' => '\0',
                        other => other as char,
                    });
                } else {
                    s.push(bytes[i] as char);
                }
                i += 1;
            }
            if i >= bytes.len() {
                return Err(LexError {
                    offset: start,
                    message: "unterminated string".into(),
                });
            }
            i += 1; // closing quote
            out.push(Token::Str(s));
            continue;
        }
        for p in PUNCTS {
            if src[i..].starts_with(p) {
                out.push(Token::Punct(p));
                i += p.len();
                continue 'outer;
            }
        }
        return Err(LexError {
            offset: i,
            message: format!("unexpected character {c:?}"),
        });
    }
    out.push(Token::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_function() {
        let toks = tokenize("int f(int x) { return x + 1; }").unwrap();
        assert_eq!(toks[0], Token::Keyword(Keyword::Int));
        assert_eq!(toks[1], Token::Ident("f".into()));
        assert!(toks.contains(&Token::Punct("+")));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn maximal_munch_for_operators() {
        let toks = tokenize("a <<= b << c <= d < e").unwrap();
        let puncts: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Punct(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(puncts, vec!["<<=", "<<", "<=", "<"]);
    }

    #[test]
    fn hex_and_decimal_numbers() {
        let toks = tokenize("0x10 42").unwrap();
        assert_eq!(toks[0], Token::Num(16));
        assert_eq!(toks[1], Token::Num(42));
    }

    #[test]
    fn string_escapes() {
        let toks = tokenize(r#""a\nb""#).unwrap();
        assert_eq!(toks[0], Token::Str("a\nb".into()));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("a // comment\n/* block */ b").unwrap();
        assert_eq!(toks.len(), 3); // a, b, eof
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("\"oops").is_err());
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(tokenize("/* oops").is_err());
    }

    #[test]
    fn unexpected_character_errors() {
        let err = tokenize("a @ b").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
    }

    #[test]
    fn keywords_are_not_identifiers() {
        let toks = tokenize("while whilex").unwrap();
        assert_eq!(toks[0], Token::Keyword(Keyword::While));
        assert_eq!(toks[1], Token::Ident("whilex".into()));
    }
}
