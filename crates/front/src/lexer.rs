//! Tokenizer for the loop DSL.

use std::fmt;

use crate::{FrontError, Span};

/// The token classes of the DSL. Identifiers borrow from the source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TokenKind<'a> {
    /// Identifier or keyword (`loop`, `real`, `int`, `param`, `if`,
    /// `else`, `sqrt` are keywords; everything else is a name).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Real literal (contains a `.` or exponent).
    Real(f64),
    /// One of the fixed punctuation/operator spellings.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(v) => write!(f, "integer {v}"),
            TokenKind::Real(v) => write!(f, "real {v}"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source location.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Token<'a> {
    /// What was scanned.
    pub kind: TokenKind<'a>,
    /// Where it starts.
    pub span: Span,
}

/// The multi-character operators, longest first so maximal munch works.
const PUNCTS: [&str; 22] = [
    "..", "==", "!=", "<=", ">=", "&&", "||", "{", "}", "(", ")", "[", "]", ";", ",", "=", "<",
    ">", "+", "-", "*", "/",
];

/// Scans DSL source into tokens. `//` comments run to end of line.
///
/// # Errors
///
/// Returns a [`FrontError`] for unknown characters or malformed numbers.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, FrontError> {
    // About one token per four source bytes in practice.
    let mut tokens = Vec::with_capacity(source.len() / 4 + 1);
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        let span = Span { line, col };
        // Whitespace.
        if c == '\n' {
            i += 1;
            line += 1;
            col = 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            col += 1;
            continue;
        }
        // Comments.
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == '%' {
            tokens.push(Token {
                kind: TokenKind::Punct("%"),
                span,
            });
            i += 1;
            col += 1;
            continue;
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == '_' {
            let begin = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let text = &source[begin..i];
            col += (i - begin) as u32;
            tokens.push(Token {
                kind: TokenKind::Ident(text),
                span,
            });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let begin = i;
            let mut is_real = false;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            // A `.` starts a fraction only if not the `..` range operator.
            if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1] != b'.' {
                is_real = true;
                i += 1;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
            }
            if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                is_real = true;
                i += 1;
                if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                    i += 1;
                }
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
            }
            let text = &source[begin..i];
            col += (i - begin) as u32;
            let kind = if is_real {
                TokenKind::Real(
                    text.parse()
                        .map_err(|_| FrontError::new(span, format!("bad real literal `{text}`")))?,
                )
            } else {
                TokenKind::Int(
                    text.parse()
                        .map_err(|_| FrontError::new(span, format!("bad int literal `{text}`")))?,
                )
            };
            tokens.push(Token { kind, span });
            continue;
        }
        // Punctuation, longest match first.
        for p in PUNCTS {
            if source[i..].starts_with(p) {
                tokens.push(Token {
                    kind: TokenKind::Punct(p),
                    span,
                });
                i += p.len();
                col += p.len() as u32;
                continue 'outer;
            }
        }
        return Err(FrontError::new(span, format!("unexpected character `{c}`")));
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span { line, col },
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn scans_the_basics() {
        assert_eq!(
            kinds("loop f(i = 3..n)"),
            vec![
                TokenKind::Ident("loop"),
                TokenKind::Ident("f"),
                TokenKind::Punct("("),
                TokenKind::Ident("i"),
                TokenKind::Punct("="),
                TokenKind::Int(3),
                TokenKind::Punct(".."),
                TokenKind::Ident("n"),
                TokenKind::Punct(")"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn distinguishes_reals_from_ranges() {
        assert_eq!(kinds("1.5"), vec![TokenKind::Real(1.5), TokenKind::Eof]);
        assert_eq!(
            kinds("1..5"),
            vec![
                TokenKind::Int(1),
                TokenKind::Punct(".."),
                TokenKind::Int(5),
                TokenKind::Eof
            ]
        );
        assert_eq!(kinds("2e3"), vec![TokenKind::Real(2000.0), TokenKind::Eof]);
    }

    #[test]
    fn scans_comparison_operators_greedily() {
        assert_eq!(
            kinds("<= < == ="),
            vec![
                TokenKind::Punct("<="),
                TokenKind::Punct("<"),
                TokenKind::Punct("=="),
                TokenKind::Punct("="),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("a // the rest is ignored\nb"),
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"), TokenKind::Eof]
        );
    }

    #[test]
    fn tracks_line_and_column() {
        let tokens = lex("a\n  b").unwrap();
        assert_eq!(tokens[0].span, Span { line: 1, col: 1 });
        assert_eq!(tokens[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = lex("a # b").unwrap_err();
        assert!(err.message.contains("unexpected character"));
        assert_eq!(err.span, Span { line: 1, col: 3 });
    }
}
