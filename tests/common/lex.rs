//! A lexer for Rust sources and a walk over `.rs` files, shared by the
//! tests that hold the documents and the public surface to the tree.

use std::fs;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    Punct(char),
}

/// Identifiers and punctuation of one Rust source, with comments, string,
/// character and number literals and lifetimes left out.
pub fn lex(src: &str) -> Vec<Tok> {
    let s: Vec<char> = src.chars().collect();
    let at = |i: usize| s.get(i).copied().unwrap_or('\0');
    let mut toks = Vec::new();
    let mut i = 0;
    while i < s.len() {
        let c = s[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '/' && at(i + 1) == '/' {
            while i < s.len() && s[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < s.len() {
                if s[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if s[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            i = skip_string(&s, i + 1);
        } else if c == '\'' {
            if at(i + 1) == '\\' {
                i += 2;
                while i < s.len() && s[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if at(i + 2) == '\'' {
                i += 3;
            } else {
                // A lifetime: drop it with its name.
                i += 1;
                while i < s.len() && (s[i].is_alphanumeric() || s[i] == '_') {
                    i += 1;
                }
            }
        } else if c.is_ascii_digit() {
            while i < s.len() && (s[i].is_alphanumeric() || s[i] == '_') {
                i += 1;
            }
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < s.len() && (s[i].is_alphanumeric() || s[i] == '_') {
                i += 1;
            }
            let word: String = s[start..i].iter().collect();
            match (word.as_str(), at(i)) {
                ("r" | "br", '"' | '#') => i = skip_raw_string(&s, i),
                ("b", '"') => i = skip_string(&s, i + 1),
                ("b", '\'') => {
                    i += 1;
                    while i < s.len() && s[i] != '\'' {
                        i += if s[i] == '\\' { 2 } else { 1 };
                    }
                    i += 1;
                }
                _ => toks.push(Tok::Ident(word)),
            }
        } else {
            toks.push(Tok::Punct(c));
            i += 1;
        }
    }
    toks
}

/// Index just past the closing quote of a string whose body starts at `i`.
fn skip_string(s: &[char], mut i: usize) -> usize {
    while i < s.len() && s[i] != '"' {
        i += if s[i] == '\\' { 2 } else { 1 };
    }
    i + 1
}

/// Index just past a raw string whose `#`s or opening quote start at `i`.
fn skip_raw_string(s: &[char], mut i: usize) -> usize {
    let mut hashes = 0;
    while i < s.len() && s[i] == '#' {
        hashes += 1;
        i += 1;
    }
    i += 1;
    while i < s.len() {
        if s[i] == '"' && (1..=hashes).all(|k| s.get(i + k) == Some(&'#')) {
            return i + 1 + hashes;
        }
        i += 1;
    }
    i
}

/// Every `.rs` file under `dir`, `target` directories left out.
pub fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
