//! HiveQL tokenizer.
//!
//! Case-insensitive keywords, single-quoted string literals with `''`
//! escaping, integer/float numerics, identifiers with `.` qualification
//! handled at the parser level, and the usual operator set.

use miso_common::{MisoError, Result};
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword (uppercased at lexing time).
    Keyword(Keyword),
    /// Identifier (original case preserved).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (unescaped).
    Str(String),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `,`.
    Comma,
    /// `.`.
    Dot,
    /// `*`.
    Star,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `=`.
    Eq,
    /// `<>` or `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// End of input sentinel.
    Eof,
}

/// Reserved words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Select,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Limit,
    Join,
    On,
    As,
    And,
    Or,
    Not,
    Is,
    Null,
    True,
    False,
    Asc,
    Desc,
    Cast,
    Apply,
    Distinct,
    Int,
    Float,
    String,
    Bool,
    Like,
}

impl Keyword {
    fn from_str(s: &str) -> Option<Keyword> {
        Some(match s.to_ascii_uppercase().as_str() {
            "SELECT" => Keyword::Select,
            "FROM" => Keyword::From,
            "WHERE" => Keyword::Where,
            "GROUP" => Keyword::Group,
            "BY" => Keyword::By,
            "HAVING" => Keyword::Having,
            "ORDER" => Keyword::Order,
            "LIMIT" => Keyword::Limit,
            "JOIN" => Keyword::Join,
            "ON" => Keyword::On,
            "AS" => Keyword::As,
            "AND" => Keyword::And,
            "OR" => Keyword::Or,
            "NOT" => Keyword::Not,
            "IS" => Keyword::Is,
            "NULL" => Keyword::Null,
            "TRUE" => Keyword::True,
            "FALSE" => Keyword::False,
            "ASC" => Keyword::Asc,
            "DESC" => Keyword::Desc,
            "CAST" => Keyword::Cast,
            "APPLY" => Keyword::Apply,
            "DISTINCT" => Keyword::Distinct,
            "INT" | "BIGINT" => Keyword::Int,
            "FLOAT" | "DOUBLE" => Keyword::Float,
            "STRING" | "VARCHAR" => Keyword::String,
            "BOOL" | "BOOLEAN" => Keyword::Bool,
            "LIKE" => Keyword::Like,
            _ => return None,
        })
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k:?}"),
            Token::Ident(s) => write!(f, "`{s}`"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// Tokenizes `input`; the final token is always [`Token::Eof`].
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => pos += 1,
            b'-' if bytes.get(pos + 1) == Some(&b'-') => {
                // SQL line comment
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'(' => {
                tokens.push(Token::LParen);
                pos += 1;
            }
            b')' => {
                tokens.push(Token::RParen);
                pos += 1;
            }
            b',' => {
                tokens.push(Token::Comma);
                pos += 1;
            }
            b'.' => {
                tokens.push(Token::Dot);
                pos += 1;
            }
            b'*' => {
                tokens.push(Token::Star);
                pos += 1;
            }
            b'+' => {
                tokens.push(Token::Plus);
                pos += 1;
            }
            b'-' => {
                tokens.push(Token::Minus);
                pos += 1;
            }
            b'/' => {
                tokens.push(Token::Slash);
                pos += 1;
            }
            b'%' => {
                tokens.push(Token::Percent);
                pos += 1;
            }
            b'=' => {
                tokens.push(Token::Eq);
                pos += 1;
            }
            b'!' if bytes.get(pos + 1) == Some(&b'=') => {
                tokens.push(Token::Ne);
                pos += 2;
            }
            b'<' => match bytes.get(pos + 1) {
                Some(b'=') => {
                    tokens.push(Token::Le);
                    pos += 2;
                }
                Some(b'>') => {
                    tokens.push(Token::Ne);
                    pos += 2;
                }
                _ => {
                    tokens.push(Token::Lt);
                    pos += 1;
                }
            },
            b'>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    pos += 2;
                } else {
                    tokens.push(Token::Gt);
                    pos += 1;
                }
            }
            b'\'' => {
                let (s, next) = lex_string(input, pos)?;
                tokens.push(Token::Str(s));
                pos = next;
            }
            b'0'..=b'9' => {
                let (t, next) = lex_number(input, pos)?;
                tokens.push(t);
                pos = next;
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                let word = &input[start..pos];
                match Keyword::from_str(word) {
                    Some(kw) => tokens.push(Token::Keyword(kw)),
                    None => tokens.push(Token::Ident(word.to_string())),
                }
            }
            _ => {
                // Every arm above steps over whole characters, so `pos` is
                // on a boundary.
                let c = input[pos..].chars().next().expect("char boundary");
                return Err(MisoError::Parse(format!(
                    "unexpected character `{c}` at byte {pos}"
                )));
            }
        }
    }
    tokens.push(Token::Eof);
    Ok(tokens)
}

fn lex_string(input: &str, start: usize) -> Result<(String, usize)> {
    let bytes = input.as_bytes();
    let mut pos = start + 1;
    let mut out = String::new();
    while pos < bytes.len() {
        if bytes[pos] == b'\'' {
            if bytes.get(pos + 1) == Some(&b'\'') {
                out.push('\'');
                pos += 2;
            } else {
                return Ok((out, pos + 1));
            }
        } else {
            // Strings are UTF-8; copy char-wise.
            let c = input[pos..].chars().next().expect("valid utf8");
            out.push(c);
            pos += c.len_utf8();
        }
    }
    Err(MisoError::Parse(format!(
        "unterminated string literal starting at byte {start}"
    )))
}

fn lex_number(input: &str, start: usize) -> Result<(Token, usize)> {
    let bytes = input.as_bytes();
    let mut pos = start;
    while pos < bytes.len() && bytes[pos].is_ascii_digit() {
        pos += 1;
    }
    let mut is_float = false;
    if pos < bytes.len() && bytes[pos] == b'.' && bytes.get(pos + 1).is_some_and(u8::is_ascii_digit)
    {
        is_float = true;
        pos += 1;
        while pos < bytes.len() && bytes[pos].is_ascii_digit() {
            pos += 1;
        }
    }
    let text = &input[start..pos];
    if is_float {
        text.parse::<f64>()
            .map(|f| (Token::Float(f), pos))
            .map_err(|_| MisoError::Parse(format!("bad float literal `{text}`")))
    } else {
        text.parse::<i64>()
            .map(|i| (Token::Int(i), pos))
            .map_err(|_| MisoError::Parse(format!("bad integer literal `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_a_full_query() {
        let toks = lex("SELECT t.user_id AS uid, COUNT(*) FROM twitter t WHERE t.followers >= 100")
            .unwrap();
        assert!(toks.contains(&Token::Keyword(Keyword::Select)));
        assert!(toks.contains(&Token::Ident("user_id".into())));
        assert!(toks.contains(&Token::Ge));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let toks = lex("select FROM gRoUp").unwrap();
        assert_eq!(
            toks[..3],
            [
                Token::Keyword(Keyword::Select),
                Token::Keyword(Keyword::From),
                Token::Keyword(Keyword::Group)
            ]
        );
    }

    #[test]
    fn string_escaping() {
        let toks = lex("'it''s'").unwrap();
        assert_eq!(toks[0], Token::Str("it's".into()));
        assert!(lex("'unterminated").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(lex("42").unwrap()[0], Token::Int(42));
        assert_eq!(lex("3.5").unwrap()[0], Token::Float(3.5));
        // `1.` is Int then Dot (qualified-name dot must stay usable)
        let toks = lex("1.x").unwrap();
        assert_eq!(toks[0], Token::Int(1));
        assert_eq!(toks[1], Token::Dot);
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("< <= > >= = <> !=").unwrap();
        assert_eq!(
            toks[..7],
            [
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Ne
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("SELECT -- the works\n 1").unwrap();
        assert_eq!(toks[1], Token::Int(1));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("SELECT ~ 1").is_err());
    }

    #[test]
    fn unexpected_non_ascii_is_reported_whole() {
        for (sql, want) in [
            ("SELECT é", "unexpected character `é` at byte 7"),
            ("SELECT 'a' 好", "unexpected character `好` at byte 11"),
        ] {
            match lex(sql) {
                Err(MisoError::Parse(msg)) => assert_eq!(msg, want),
                other => panic!("{sql}: {other:?}"),
            }
        }
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(lex("'caffè 好'").unwrap()[0], Token::Str("caffè 好".into()));
    }
}
