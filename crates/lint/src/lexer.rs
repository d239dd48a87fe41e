//! A comment/string/char-literal-aware Rust lexer — just enough of the
//! language to drive token-pattern lints, with zero dependencies.
//!
//! The output is two parallel streams per file:
//!
//! * [`Token`]s — identifiers, punctuation, and literals, each tagged with
//!   its 1-based line. Comments and whitespace never appear here, which is
//!   what makes naive pattern matches (`unsafe` followed by `{`,
//!   `Ordering` `::` `Relaxed`, …) sound: an occurrence inside a string,
//!   char literal, or comment can never fool a rule.
//! * [`Comment`]s — every line and block comment with its text and line
//!   span, kept separately so rules can *require* commentary (SAFETY
//!   notes, atomic-ordering justifications, waivers) near a token.
//!
//! Handled faithfully: nested block comments, raw strings with arbitrary
//! `#` runs, byte and raw-byte strings, char-literal vs lifetime
//! ambiguity (`'a'` vs `'a`), raw identifiers (`r#type`), and numeric
//! literals with suffixes. Not handled (not needed): macro fragment
//! semantics, shebangs beyond the first line, frontmatter.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unsafe`, `Ordering`, `unwrap`, …).
    Ident,
    /// A single punctuation character (`.`, `:`, `{`, `!`, …).
    Punct,
    /// A string/char/byte/numeric literal (text is the raw source slice).
    Literal,
    /// A lifetime or loop label (`'a`), kept distinct from char literals.
    Lifetime,
}

/// One significant token: never a comment, never whitespace.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// The raw source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// One comment, with its full text (markers stripped) and line span.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based first line of the comment.
    pub line: u32,
    /// 1-based last line (equal to `line` for line comments).
    pub end_line: u32,
    /// Comment text without the `//`, `///`, `/*`, `*/` markers.
    pub text: String,
    /// Whether this is a doc comment (`///`, `//!`, `/** */`, `/*! */`).
    pub doc: bool,
}

/// The lexed form of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// True if any comment with non-empty text touches any line in
    /// `lo..=hi`.
    pub fn has_comment_in(&self, lo: u32, hi: u32) -> bool {
        self.comments
            .iter()
            .any(|c| c.end_line >= lo && c.line <= hi && !c.text.trim().is_empty())
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens and comments. Never fails: unterminated
/// constructs are consumed to end of file, which is the forgiving thing
/// for a linter (rustc will report the real error).
pub fn lex(src: &str) -> Lexed {
    Lexer {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'/' => self.slash(),
                b'"' => self.string(),
                b'b' | b'r' => self.b_or_r(),
                b'\'' => self.quote(),
                b'0'..=b'9' => self.number(),
                _ if is_ident_start(c) => self.ident(),
                _ => {
                    self.push(TokenKind::Punct, self.i, self.i + 1);
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokenKind, from: usize, to: usize) {
        let text = String::from_utf8_lossy(&self.b[from..to]).into_owned();
        self.out.tokens.push(Token {
            kind,
            text,
            line: self.line,
        });
    }

    fn peek(&self, ahead: usize) -> u8 {
        self.b.get(self.i + ahead).copied().unwrap_or(0)
    }

    /// `/`: line comment, block comment, or plain punct.
    fn slash(&mut self) {
        match self.peek(1) {
            b'/' => {
                let start = self.i;
                while self.i < self.b.len() && self.b[self.i] != b'\n' {
                    self.i += 1;
                }
                let raw = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
                let doc = raw.starts_with("///") || raw.starts_with("//!");
                let text = raw
                    .trim_start_matches('/')
                    .trim_start_matches('!')
                    .to_string();
                self.out.comments.push(Comment {
                    line: self.line,
                    end_line: self.line,
                    text,
                    doc,
                });
            }
            b'*' => {
                let start_line = self.line;
                let start = self.i;
                self.i += 2;
                let mut depth = 1u32;
                while self.i < self.b.len() && depth > 0 {
                    match (self.b[self.i], self.peek(1)) {
                        (b'/', b'*') => {
                            depth += 1;
                            self.i += 2;
                        }
                        (b'*', b'/') => {
                            depth -= 1;
                            self.i += 2;
                        }
                        (b'\n', _) => {
                            self.line += 1;
                            self.i += 1;
                        }
                        _ => self.i += 1,
                    }
                }
                let raw = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
                let doc = raw.starts_with("/**") || raw.starts_with("/*!");
                let text = raw
                    .trim_start_matches("/*")
                    .trim_end_matches("*/")
                    .to_string();
                self.out.comments.push(Comment {
                    line: start_line,
                    end_line: self.line,
                    text,
                    doc,
                });
            }
            _ => {
                self.push(TokenKind::Punct, self.i, self.i + 1);
                self.i += 1;
            }
        }
    }

    /// A `"…"` string with escapes; newlines inside are tracked.
    fn string(&mut self) {
        let start = self.i;
        let start_line = self.line;
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                // A `\<newline>` line continuation still ends a line.
                b'\\' => {
                    if self.peek(1) == b'\n' {
                        self.line += 1;
                    }
                    self.i += 2;
                }
                b'"' => {
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i.min(self.b.len())]).into_owned();
        self.out.tokens.push(Token {
            kind: TokenKind::Literal,
            text,
            line: start_line,
        });
    }

    /// `r`/`b` prefixes: raw strings, byte strings, raw identifiers — or
    /// just an identifier starting with that letter.
    fn b_or_r(&mut self) {
        let c = self.b[self.i];
        let (p1, p2) = (self.peek(1), self.peek(2));
        match (c, p1, p2) {
            // b"…"
            (b'b', b'"', _) => {
                self.i += 1;
                self.string();
            }
            // b'x'
            (b'b', b'\'', _) => {
                self.i += 1;
                self.quote();
            }
            // br"…" / br#"…"#
            (b'b', b'r', b'"') | (b'b', b'r', b'#') => {
                self.i += 2;
                self.raw_string();
            }
            // r"…" / r#"…"#
            (b'r', b'"', _) => {
                self.i += 1;
                self.raw_string();
            }
            (b'r', b'#', _) => {
                if is_ident_start(p2) && p2 != b'"' {
                    // r#type — raw identifier.
                    self.i += 2;
                    let start = self.i;
                    while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                        self.i += 1;
                    }
                    self.push(TokenKind::Ident, start, self.i);
                } else {
                    self.i += 1;
                    self.raw_string();
                }
            }
            _ => self.ident(),
        }
    }

    /// At `#…"` or `"`: consume a raw string body through its matching
    /// `"#…` terminator.
    fn raw_string(&mut self) {
        let start = self.i;
        let start_line = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.i += 1;
        }
        if self.peek(0) == b'"' {
            self.i += 1;
            'body: while self.i < self.b.len() {
                match self.b[self.i] {
                    b'\n' => {
                        self.line += 1;
                        self.i += 1;
                    }
                    b'"' => {
                        self.i += 1;
                        let mut seen = 0usize;
                        while seen < hashes && self.peek(0) == b'#' {
                            seen += 1;
                            self.i += 1;
                        }
                        if seen == hashes {
                            break 'body;
                        }
                    }
                    _ => self.i += 1,
                }
            }
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i.min(self.b.len())]).into_owned();
        self.out.tokens.push(Token {
            kind: TokenKind::Literal,
            text,
            line: start_line,
        });
    }

    /// `'`: a char literal (`'a'`, `'\n'`) or a lifetime/label (`'a`).
    fn quote(&mut self) {
        let start = self.i;
        if self.peek(1) == b'\\' {
            // Escaped char literal: skip quote, backslash and the escaped
            // character (which may itself be `'`), then find the close.
            self.i += 3;
            while self.i < self.b.len() && self.b[self.i] != b'\'' {
                self.i += 1;
            }
            self.i = (self.i + 1).min(self.b.len());
            self.push(TokenKind::Literal, start, self.i);
        } else if is_ident_start(self.peek(1)) && self.peek(2) != b'\'' {
            // Lifetime or label: 'ident with no closing quote.
            self.i += 1;
            let from = self.i;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                self.i += 1;
            }
            let _ = from;
            self.push(TokenKind::Lifetime, start, self.i);
        } else if self.peek(2) == b'\'' {
            // Plain one-char literal, e.g. 'x' or '.'.
            self.i += 3;
            self.push(TokenKind::Literal, start, self.i);
        } else {
            // Stray quote; treat as punctuation and move on.
            self.push(TokenKind::Punct, self.i, self.i + 1);
            self.i += 1;
        }
    }

    /// A numeric literal, including hex/underscores/suffixes and simple
    /// floats (`1.5e3`), but stopping before `..` range punctuation.
    fn number(&mut self) {
        let start = self.i;
        self.i += 1;
        while self.i < self.b.len() {
            let c = self.b[self.i];
            let in_number = c.is_ascii_alphanumeric()
                || c == b'_'
                || (c == b'.' && self.peek(1) != b'.' && self.peek(1).is_ascii_digit())
                || ((c == b'+' || c == b'-')
                    && matches!(self.b[self.i - 1], b'e' | b'E')
                    && self.peek(1).is_ascii_digit());
            if !in_number {
                break;
            }
            self.i += 1;
        }
        self.push(TokenKind::Literal, start, self.i);
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        self.push(TokenKind::Ident, start, self.i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // unsafe in a comment
            /* unsafe /* nested */ still comment */
            let s = "unsafe { }";
            let r = r#"unsafe"#;
            let c = 'u';
            fn real() {}
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()), "{ids:?}");
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { unsafe { x } }";
        let ids = idents(src);
        assert!(ids.contains(&"unsafe".to_string()));
        let lifetimes: Vec<_> = lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
    }

    #[test]
    fn char_literals_are_literals() {
        let toks = lex("let c = 'x'; let n = '\\n'; let q = '\\'';");
        let lits: Vec<_> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lits, vec!["'x'", "'\\n'", "'\\''"]);
    }

    #[test]
    fn comment_text_and_lines_are_tracked() {
        let src = "let a = 1; // SAFETY: fine\n/* block\nspans */\nlet b = 2;";
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 2);
        assert!(lx.comments[0].text.contains("SAFETY: fine"));
        assert_eq!(lx.comments[0].line, 1);
        assert_eq!(lx.comments[1].line, 2);
        assert_eq!(lx.comments[1].end_line, 3);
        assert!(lx.has_comment_in(1, 1));
        assert!(lx.has_comment_in(3, 4));
        assert!(!lx.has_comment_in(4, 4));
    }

    #[test]
    fn raw_identifiers_are_idents() {
        let ids = idents("let r#type = 1; let x = r\"not ident\";");
        assert!(ids.contains(&"type".to_string()));
    }

    #[test]
    fn numbers_do_not_merge_with_ranges() {
        let toks = lex("for i in 0..16u8 { x[i] = 1.5e-3; }");
        let texts: Vec<_> = toks.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"0"));
        assert!(texts.contains(&"16u8"));
        assert!(texts.contains(&"1.5e-3"));
    }

    #[test]
    fn lines_are_one_based_and_advance() {
        let lx = lex("a\nb\n  c");
        assert_eq!(
            lx.tokens.iter().map(|t| t.line).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    /// Regression: a `\<newline>` continuation inside a string literal
    /// used to be skipped without counting the line, shifting every
    /// diagnostic below it up by one.
    #[test]
    fn string_line_continuation_counts_the_newline() {
        let lx = lex("let s = \"one \\\n two\";\nafter");
        let after = lx.tokens.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 3);
    }
}
