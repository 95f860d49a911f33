//! The prose documents are held to the tree.
//!
//! * The architecture is ARCHITECTURE.md plus one `crates/<crate>/ARCHITECTURE.md`
//!   per library crate, each of which the top-level file links.
//! * Every `Type`, `Type::member` and `file.rs` that these files put in
//!   backticks must still be defined by the workspace sources (`crates/`,
//!   `src/`, `tests/`, `examples/`, `rtbench/src/`).  A type counts as
//!   defined if a `struct`, `enum`, `union`, `trait` or `type` item, or an
//!   enum variant, carries its name; a member if the type's own `struct`,
//!   `enum` or `trait` body, or an `impl` block for it, defines it (field,
//!   variant, `fn`, `const` or associated `type`).
//! * Together they stay under 40 000 bytes, and none has a "since PR n" table.
//! * Every CHANGES.md entry after its summary table (the paragraphs under
//!   `## Entries`) is at most 1 500 characters long.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;

#[path = "common/lex.rs"]
mod lex;

use lex::{lex, rust_files, Tok};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Directories whose `.rs` files define what the documents may name.
const SOURCE_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "rtbench/src"];

/// Standard-library names the documents use without the tree defining them.
const STD_NAMES: [&str; 3] = ["Arc", "Copy", "Vec"];

const ARCHITECTURE_MAX_BYTES: usize = 40_000;
const CHANGES_ENTRY_MAX_CHARS: usize = 1_500;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Body {
    Struct,
    Enum,
    Trait,
    Impl,
    Other,
}

struct Scope {
    owner: Option<String>,
    body: Body,
    /// Open `(` and `[` inside this brace pair.
    nest: usize,
}

/// What the sources define: every type-like name, and the members each
/// type's own bodies and `impl` blocks define.
#[derive(Default)]
struct Defined {
    types: HashSet<String>,
    members: HashMap<String, HashSet<String>>,
}

impl Defined {
    fn scan(&mut self, toks: &[Tok]) {
        let ident = |i: usize| match toks.get(i) {
            Some(Tok::Ident(w)) => Some(w.as_str()),
            _ => None,
        };
        let punct = |i: usize, c: char| toks.get(i) == Some(&Tok::Punct(c));
        let mut stack: Vec<Scope> = Vec::new();
        let mut header = 0;
        for i in 0..toks.len() {
            match &toks[i] {
                Tok::Punct('{') => {
                    let (owner, body) = classify(&toks[header..i]);
                    stack.push(Scope {
                        owner,
                        body,
                        nest: 0,
                    });
                    header = i + 1;
                }
                Tok::Punct('}') => {
                    stack.pop();
                    header = i + 1;
                }
                Tok::Punct(';') => header = i + 1,
                Tok::Punct('(' | '[') => {
                    if let Some(top) = stack.last_mut() {
                        top.nest += 1;
                    }
                }
                Tok::Punct(')' | ']') => {
                    if let Some(top) = stack.last_mut() {
                        top.nest = top.nest.saturating_sub(1);
                    }
                }
                Tok::Ident(word) => {
                    let next = ident(i + 1);
                    if let ("struct" | "enum" | "union" | "trait" | "type", Some(name)) =
                        (word.as_str(), next)
                    {
                        self.types.insert(name.to_string());
                    }
                    let Some(top) = stack.last() else { continue };
                    let Some(owner) = top.owner.clone() else {
                        continue;
                    };
                    let member = match top.body {
                        Body::Impl | Body::Trait => match (word.as_str(), next) {
                            ("fn" | "const" | "type", Some(name)) => Some(name.to_string()),
                            _ => None,
                        },
                        Body::Struct
                            if top.nest == 0 && punct(i + 1, ':') && !punct(i + 2, ':') =>
                        {
                            Some(word.clone())
                        }
                        Body::Enum
                            if top.nest == 0
                                && word != "pub"
                                && (punct(i.wrapping_sub(1), '{')
                                    || punct(i.wrapping_sub(1), ',')
                                    || punct(i.wrapping_sub(1), ']')) =>
                        {
                            self.types.insert(word.clone());
                            Some(word.clone())
                        }
                        _ => None,
                    };
                    if let Some(member) = member {
                        self.members.entry(owner).or_default().insert(member);
                    }
                }
                Tok::Punct(_) => {}
            }
        }
    }

    fn has_type(&self, name: &str) -> bool {
        self.types.contains(name) || STD_NAMES.contains(&name)
    }

    fn has_member(&self, owner: &str, member: &str) -> bool {
        STD_NAMES.contains(&owner)
            || self
                .members
                .get(owner)
                .is_some_and(|names| names.contains(member))
    }
}

/// The item a `{` opens, from the tokens since the last `;`, `{` or `}`:
/// a `struct` / `enum` / `union` / `trait` body, an `impl` block (owned by
/// its self type), or anything else.
fn classify(header: &[Tok]) -> (Option<String>, Body) {
    let mut i = 0;
    // Skip attributes, visibility and qualifiers.
    loop {
        match header.get(i) {
            Some(Tok::Punct('#')) => {
                i += 1;
                if header.get(i) == Some(&Tok::Punct('!')) {
                    i += 1;
                }
                i = skip_group(header, i, '[', ']');
            }
            Some(Tok::Ident(w)) if w == "pub" => {
                i += 1;
                if header.get(i) == Some(&Tok::Punct('(')) {
                    i = skip_group(header, i, '(', ')');
                }
            }
            Some(Tok::Ident(w)) if w == "unsafe" || w == "auto" || w == "default" => i += 1,
            _ => break,
        }
    }
    let name_after = |i: usize| match header.get(i + 1) {
        Some(Tok::Ident(name)) => Some(name.clone()),
        _ => None,
    };
    match header.get(i) {
        Some(Tok::Ident(w)) if w == "struct" || w == "union" => (name_after(i), Body::Struct),
        Some(Tok::Ident(w)) if w == "enum" => (name_after(i), Body::Enum),
        Some(Tok::Ident(w)) if w == "trait" => (name_after(i), Body::Trait),
        Some(Tok::Ident(w)) if w == "impl" => {
            let i = skip_group(header, i + 1, '<', '>');
            let (first, i) = path_name(header, i);
            match header.get(i) {
                Some(Tok::Ident(w)) if w == "for" => (path_name(header, i + 1).0, Body::Impl),
                _ => (first, Body::Impl),
            }
        }
        _ => (None, Body::Other),
    }
}

/// Skip a balanced `open … close` group starting at `i` (if one starts there).
fn skip_group(toks: &[Tok], mut i: usize, open: char, close: char) -> usize {
    if toks.get(i) != Some(&Tok::Punct(open)) {
        return i;
    }
    let mut depth = 0;
    while let Some(t) = toks.get(i) {
        if *t == Tok::Punct(open) {
            depth += 1;
        } else if *t == Tok::Punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// The last segment of the type path starting at `i` (references, `dyn` and
/// generic arguments skipped), and the index after the path.
fn path_name(toks: &[Tok], mut i: usize) -> (Option<String>, usize) {
    let mut name = None;
    while let Some(t) = toks.get(i) {
        match t {
            Tok::Punct('&') => i += 1,
            Tok::Ident(w) if w == "dyn" || w == "mut" => i += 1,
            Tok::Ident(w) if w != "for" && w != "where" => {
                name = Some(w.clone());
                i += 1;
                i = skip_group(toks, i, '<', '>');
                if toks.get(i) == Some(&Tok::Punct(':'))
                    && toks.get(i + 1) == Some(&Tok::Punct(':'))
                {
                    i += 2;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    (name, i)
}

/// The tree's definitions and the paths of its `.rs` files, relative to the
/// repository root.
fn scan_tree() -> (Defined, Vec<String>) {
    let root = Path::new(ROOT);
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&root.join(dir), &mut files);
    }
    let mut defined = Defined::default();
    let mut paths = Vec::new();
    for file in &files {
        let src = fs::read_to_string(file).expect("readable source file");
        defined.scan(&lex(&src));
        let rel = file.strip_prefix(root).expect("under the root");
        paths.push(rel.to_string_lossy().replace('\\', "/"));
    }
    (defined, paths)
}

/// The inline code spans of a Markdown document, fenced blocks left out.
fn code_spans(doc: &str) -> Vec<String> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let mut parts = line.split('`');
        parts.next();
        while let (Some(span), Some(_)) = (parts.next(), parts.next()) {
            spans.push(span.to_string());
        }
    }
    spans
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A CamelCase name: a capital first, at least one lower-case letter (so
/// constants such as `ECMP` or `DEFAULT_X` are not types).
fn is_type_name(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_uppercase())
        && s.chars().any(|c| c.is_ascii_lowercase())
        && !s.contains('_')
}

/// Every backticked name in `doc` the tree does not define.
fn undefined_names(doc: &str, defined: &Defined, paths: &[String]) -> Vec<String> {
    let mut missing = Vec::new();
    for span in code_spans(doc) {
        let span = span.trim();
        if let Some(end) = span.find(".rs") {
            let file = &span[..end + 3];
            let rest = &span[end + 3..];
            let plain = file
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_-/.".contains(c));
            if plain && (rest.is_empty() || rest.starts_with("::")) {
                let found = paths
                    .iter()
                    .any(|p| p == file || p.ends_with(&format!("/{file}")));
                if !found {
                    missing.push(format!("`{span}` (no such file)"));
                }
            }
            continue;
        }
        let name = span
            .strip_suffix("()")
            .or_else(|| span.strip_suffix("(..)"))
            .unwrap_or(span);
        let segments: Vec<&str> = name.split("::").collect();
        if !segments.iter().all(|s| is_ident(s)) {
            continue;
        }
        let Some(k) = segments.iter().rposition(|s| is_type_name(s)) else {
            continue;
        };
        if k + 1 == segments.len() {
            if !defined.has_type(segments[k]) {
                missing.push(format!("`{span}` (no such type)"));
            }
        } else if k + 2 == segments.len() {
            let (owner, member) = (segments[k], segments[k + 1]);
            if !defined.has_type(owner) {
                missing.push(format!("`{span}` (no such type)"));
            } else if !defined.has_member(owner, member) {
                missing.push(format!("`{span}` ({owner} has no `{member}`)"));
            }
        }
    }
    missing
}

fn read_doc(name: &str) -> String {
    fs::read_to_string(Path::new(ROOT).join(name)).expect("document at the repository root")
}

/// The architecture files, the top-level one first, each with its text.
fn architecture_docs() -> Vec<(String, String)> {
    let mut names = vec!["ARCHITECTURE.md".to_string()];
    let mut crates: Vec<_> = fs::read_dir(Path::new(ROOT).join("crates"))
        .expect("a crates directory")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .map(|dir| dir.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    names.extend(crates.iter().map(|c| format!("crates/{c}/ARCHITECTURE.md")));
    names
        .into_iter()
        .map(|name| {
            let text = read_doc(&name);
            (name, text)
        })
        .collect()
}

#[test]
fn architecture_names_only_what_the_tree_defines() {
    let (defined, paths) = scan_tree();
    for (name, doc) in architecture_docs() {
        let missing = undefined_names(&doc, &defined, &paths);
        assert!(
            missing.is_empty(),
            "{name} names what the tree no longer defines:\n  {}",
            missing.join("\n  ")
        );
    }
}

#[test]
fn the_top_level_architecture_links_every_crate_file() {
    let docs = architecture_docs();
    let (_, top) = &docs[0];
    for (name, _) in &docs[1..] {
        assert!(
            top.contains(&format!("]({name})")),
            "ARCHITECTURE.md does not link {name}"
        );
    }
}

#[test]
fn the_name_check_flags_what_is_gone_and_passes_what_is_there() {
    let (defined, paths) = scan_tree();
    let doc = "`FooBar::baz`, `SystemState`, `SlackLedger::sweep_expired`, `gone.rs`\n\
               `SlackLedger::release`, `RoutePolicy::Ecmp`, `Router::routes`, `SimStats`, \
               `ledger.rs`, `tests/pump.rs`, `Vec::new`\n\
               ```\n`Fenced::out`\n```\n";
    assert_eq!(
        undefined_names(doc, &defined, &paths),
        [
            "`FooBar::baz` (no such type)",
            "`SystemState` (no such type)",
            "`SlackLedger::sweep_expired` (SlackLedger has no `sweep_expired`)",
            "`gone.rs` (no such file)",
        ]
    );
}

#[test]
fn architecture_stays_short_and_describes_only_the_current_system() {
    let docs = architecture_docs();
    let bytes: usize = docs.iter().map(|(_, doc)| doc.len()).sum();
    assert!(
        bytes <= ARCHITECTURE_MAX_BYTES,
        "the architecture files are {bytes} bytes together, over {ARCHITECTURE_MAX_BYTES}"
    );
    for (name, doc) in &docs {
        let history_columns: Vec<&str> = doc
            .lines()
            .filter(|l| l.starts_with('|') && l.contains("since PR"))
            .collect();
        assert!(
            history_columns.is_empty(),
            "{name}: tables with a \"since PR\" column: {history_columns:?}"
        );
    }
}

#[test]
fn changes_entries_after_the_table_stay_short() {
    let doc = read_doc("CHANGES.md");
    let (_, entries) = doc
        .split_once("\n## Entries\n")
        .expect("CHANGES.md has an `## Entries` section after its table");
    for entry in entries
        .split("\n\n")
        .map(str::trim)
        .filter(|e| !e.is_empty())
    {
        let chars = entry.chars().count();
        assert!(
            chars <= CHANGES_ENTRY_MAX_CHARS,
            "a CHANGES.md entry is {chars} characters, over {CHANGES_ENTRY_MAX_CHARS}: {}…",
            entry.chars().take(80).collect::<String>()
        );
    }
}
