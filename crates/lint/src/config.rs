//! `lint.toml` parsing — a hand-rolled subset of TOML, since the build
//! environment is vendored-only and the config needs exactly: tables,
//! string keys, string / bool / string-array values, and `#` comments.
//! The full schema is documented in `CONTRIBUTING.md`.
//!
//! Also home to the tiny glob matcher rules use for path allowlists:
//! `*` matches within one path segment, `**` matches across segments.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// An array of quoted strings.
    List(Vec<String>),
}

/// Rule severity, settable per rule in `lint.toml`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule disabled entirely.
    Off,
    /// Findings are printed but do not fail the run.
    Warn,
    /// Findings fail the run (nonzero exit).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Off => "off",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// Parsed `lint.toml`: `sections["rule.panic-hygiene"]["severity"]`.
#[derive(Debug, Default)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, Value>>,
}

/// A `lint.toml` syntax error with its 1-based line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the offending text.
    pub line: u32,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl Config {
    /// Parses the `lint.toml` text.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its line number.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
                section = name.trim().to_string();
                cfg.sections.entry(section.clone()).or_default();
                continue;
            }
            let Some((key, mut value_text)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("expected `key = value` or `[section]`, got `{line}`"),
                });
            };
            let key = key.trim().to_string();
            let mut value_buf = value_text.trim().to_string();
            // Multi-line arrays: keep consuming lines until brackets close.
            while value_buf.starts_with('[') && !brackets_close(&value_buf) {
                match lines.next() {
                    Some((_, next)) => {
                        value_buf.push(' ');
                        value_buf.push_str(strip_comment(next).trim());
                    }
                    None => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unterminated array for key `{key}`"),
                        })
                    }
                }
            }
            value_text = &value_buf;
            let value = parse_value(value_text).map_err(|message| ConfigError {
                line: lineno,
                message: format!("key `{key}`: {message}"),
            })?;
            cfg.sections
                .entry(section.clone())
                .or_default()
                .insert(key, value);
        }
        Ok(cfg)
    }

    /// The string value at `section.key`, if present.
    pub fn str(&self, section: &str, key: &str) -> Option<&str> {
        match self.sections.get(section)?.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The string-list value at `section.key`; empty if absent.
    pub fn list(&self, section: &str, key: &str) -> &[String] {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::List(v)) => v,
            _ => &[],
        }
    }

    /// The severity of `rule.<name>`, defaulting to `error` when the rule
    /// has no `severity` key (invariants are opt-out, not opt-in).
    pub fn severity(&self, rule: &str) -> Severity {
        match self.str(&format!("rule.{rule}"), "severity") {
            Some("off") => Severity::Off,
            Some("warn") => Severity::Warn,
            _ => Severity::Error,
        }
    }
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// True once every `[` in the text has a matching `]` outside strings.
fn brackets_close(text: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn parse_value(text: &str) -> Result<Value, String> {
    let text = text.trim();
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(s) = parse_str(text) {
        return Ok(Value::Str(s));
    }
    if let Some(inner) = text.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_str(part) {
                Some(s) => items.push(s),
                None => return Err(format!("array element `{part}` is not a quoted string")),
            }
        }
        return Ok(Value::List(items));
    }
    Err(format!("unsupported value `{text}`"))
}

fn parse_str(text: &str) -> Option<String> {
    text.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(|s| s.to_string())
}

fn split_top_level(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    parts.push(cur);
    parts
}

/// Glob match over `/`-separated relative paths: `*` within a segment,
/// `**` across segments. Used by every path allowlist in `lint.toml`.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    fn m(p: &[u8], s: &[u8]) -> bool {
        if p.is_empty() {
            return s.is_empty();
        }
        if p.starts_with(b"**") {
            let rest = if p.len() > 2 && p[2] == b'/' {
                &p[3..]
            } else {
                &p[2..]
            };
            // `**` may swallow any prefix of the remaining path.
            (0..=s.len()).any(|k| m(rest, &s[k..]))
        } else if p[0] == b'*' {
            // Any run (possibly empty) of non-separator characters.
            (0..=s.len())
                .take_while(|&k| k == 0 || s[k - 1] != b'/')
                .any(|k| m(&p[1..], &s[k..]))
        } else {
            !s.is_empty() && p[0] == s[0] && m(&p[1..], &s[1..])
        }
    }
    m(pattern.as_bytes(), path.as_bytes())
}

/// True if `path` matches any of the glob `patterns` (or equals one).
pub fn matches_any(patterns: &[String], path: &str) -> bool {
    patterns.iter().any(|p| p == path || glob_match(p, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_values_and_comments() {
        let text = r#"
# top comment
[workspace]
exclude = ["vendor/**", "target/**"] # trailing

[rule.panic-hygiene]
severity = "warn"
enabled = true

[rule.multi]
files = [
    "a/b.rs",
    "c/d.rs",
]
"#;
        let cfg = Config::parse(text).unwrap();
        assert_eq!(cfg.list("workspace", "exclude"), ["vendor/**", "target/**"]);
        assert_eq!(cfg.severity("panic-hygiene"), Severity::Warn);
        assert_eq!(cfg.severity("unknown-rule-defaults-error"), Severity::Error);
        assert_eq!(cfg.list("rule.multi", "files"), ["a/b.rs", "c/d.rs"]);
        let rules: Vec<&str> = cfg
            .sections
            .keys()
            .filter_map(|s| s.strip_prefix("rule."))
            .collect();
        assert_eq!(rules, ["multi", "panic-hygiene"]);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = Config::parse("[rule.x]\nnot a kv line").unwrap_err();
        assert_eq!(err.line, 2);
        let err = Config::parse("key = {unsupported}").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::parse("[s]\nk = \"a#b\"").unwrap();
        assert_eq!(cfg.str("s", "k"), Some("a#b"));
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match("vendor/**", "vendor/rand/src/lib.rs"));
        assert!(glob_match("crates/*/src/lib.rs", "crates/gf/src/lib.rs"));
        assert!(!glob_match("crates/*/src/lib.rs", "crates/gf/src/x/lib.rs"));
        assert!(glob_match(
            "crates/**/fixtures/**",
            "crates/lint/tests/fixtures/a.rs"
        ));
        assert!(glob_match("examples/*.rs", "examples/chaos_repair.rs"));
        assert!(!glob_match("examples/*.rs", "examples/sub/chaos.rs"));
        assert!(glob_match("**/*.rs", "a/b/c.rs"));
        assert!(glob_match(
            "crates/bench/**",
            "crates/bench/src/bin/gf_kernels.rs"
        ));
    }
}
