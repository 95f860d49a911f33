//! The public surface of the six `rt-*` library crates is held to its
//! callers.
//!
//! Every `pub fn` above its file's first module-level `#[cfg(test)]` (one
//! at the start of a line, not on a field or a statement) must be named
//! somewhere other than its own definition and its own file's test module
//! (for `x.rs`, a `x/tests.rs` beside it counts as that module too).  The
//! callers are the rest of the workspace (`crates/`, `src/`, `tests/`,
//! `examples/`) and the benchmark's `rtbench/src/`; comments and string
//! literals name nothing.  The scan is by name, so an uncalled function that
//! shares its name with a called one goes unseen: it catches regrowth, not
//! every dead method.  `Simulator::new`, `SimStats::link`,
//! `RtLayer::absolute_deadline`, `RtNetwork::t_latency` and
//! `RtNetworkBuilder::link_speed` went uncalled past it for that reason:
//! other types' `new`, `link`, `absolute_deadline` (a field),
//! `t_latency` (a field) and `link_speed` (a field) are named all over.
//!
//! What nothing calls but stays is listed in [`ALLOWED`] with its reason;
//! an entry the scan no longer finds fails too, so the list cannot rot.
//!
//! Every `RtError` variant must be constructed by non-test code outside
//! `error.rs`: the production part of a file under `crates/` (a crate's
//! `tests/` left out), `src/`, `examples/` or `rtbench/src/`.  A mention
//! that is a pattern — followed, past its fields and closing parentheses,
//! by `=>`, `=`, `|` or a match guard — constructs nothing.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;

#[path = "common/lex.rs"]
mod lex;

use lex::{lex, rust_files, Tok};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The crates whose surface is scanned.
const SCANNED: [&str; 6] = [
    "crates/types/src",
    "crates/frames/src",
    "crates/edf/src",
    "crates/netsim/src",
    "crates/core/src",
    "crates/traffic/src",
];

/// Directories whose `.rs` files count as callers.
const CALLER_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "rtbench/src"];

/// This file: its allow-list names the functions it exempts.
const SELF: &str = "tests/surface.rs";

/// The file that defines `RtError` (and displays every variant).
const ERRORS: &str = "crates/types/src/error.rs";

/// Why a function nothing calls stays.
#[derive(Debug, Clone, Copy)]
enum Reason {
    /// A unit test reads it to check *other* behaviour.
    TestHook,
    /// It checks bytes a codec wrote or read.
    Integrity,
    /// `FrameArena`, which the frozen benchmark links against, stays whole
    /// until the benchmark drops its `frames.arena.*` rows.
    FrozenBenchmark,
}

/// `(file under crates/, function, reason)` for every public function that
/// stays with no caller outside its own file's tests.
const ALLOWED: &[(&str, &str, Reason)] = {
    use Reason::*;
    &[
        ("netsim/src/event.rs", "bucket_count", TestHook),
        ("types/src/router.rs", "next_hop", TestHook),
        ("edf/src/feasibility.rs", "with_config", TestHook),
        ("frames/src/udp.rs", "encode_with_checksum", Integrity),
        ("frames/src/udp.rs", "verify_checksum", Integrity),
        ("frames/src/wire.rs", "expect_remaining", Integrity),
        ("frames/src/arena.rs", "slab_chunks", FrozenBenchmark),
        ("frames/src/arena.rs", "try_bytes", FrozenBenchmark),
    ]
};

/// One source file: its path relative to the root and its text.
struct Source {
    path: String,
    text: String,
}

impl Source {
    /// The file's production part and its test part: split at the first
    /// line that starts with `#[cfg(test)]`; a `tests.rs` is all test.
    fn parts(&self) -> (&str, &str) {
        if self.path.ends_with("/tests.rs") {
            return ("", &self.text);
        }
        let mut at = 0;
        for line in self.text.split_inclusive('\n') {
            if line.starts_with("#[cfg(test)]") {
                return self.text.split_at(at);
            }
            at += line.len();
        }
        (&self.text, "")
    }

    /// The path of the test module that lives beside this file, if any
    /// (`x.rs` → `x/tests.rs`).
    fn sibling_tests(&self) -> Option<String> {
        self.path
            .strip_suffix(".rs")
            .map(|stem| format!("{stem}/tests.rs"))
    }
}

/// The public functions a source's production part defines.
fn public_fns(src: &str) -> Vec<String> {
    let toks = lex(src);
    let word = |i: usize| match toks.get(i) {
        Some(Tok::Ident(w)) => Some(w.as_str()),
        _ => None,
    };
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if word(i) != Some("pub") {
            continue;
        }
        let mut j = i + 1;
        while matches!(word(j), Some("const" | "unsafe" | "async" | "extern")) {
            j += 1;
        }
        if word(j) == Some("fn") {
            if let Some(name) = word(j + 1) {
                names.push(name.to_string());
            }
        }
    }
    names
}

/// How often each identifier is *named* in `src`: a definition (`fn name`)
/// does not count.
fn name_counts(src: &str, counts: &mut HashMap<String, usize>) {
    let toks = lex(src);
    for (i, tok) in toks.iter().enumerate() {
        if let Tok::Ident(name) = tok {
            let defined = i > 0 && toks[i - 1] == Tok::Ident("fn".into());
            if !defined {
                *counts.entry(name.clone()).or_default() += 1;
            }
        }
    }
}

/// Every `(file, function)` of the scanned sources that nothing outside its
/// own file's test module names.
fn uncalled(sources: &[Source], scanned: &[&str]) -> Vec<(String, String)> {
    let mut everywhere = HashMap::new();
    for source in sources {
        name_counts(&source.text, &mut everywhere);
    }
    let by_path: HashMap<&str, &Source> = sources.iter().map(|s| (s.path.as_str(), s)).collect();
    let mut found = Vec::new();
    for source in sources {
        if !scanned.iter().any(|dir| source.path.starts_with(dir)) {
            continue;
        }
        let (production, tests) = source.parts();
        let candidates = public_fns(production);
        if candidates.is_empty() {
            continue;
        }
        let mut own_tests = HashMap::new();
        name_counts(tests, &mut own_tests);
        if let Some(sibling) = source.sibling_tests().and_then(|p| by_path.get(p.as_str())) {
            name_counts(&sibling.text, &mut own_tests);
        }
        for name in candidates {
            if everywhere.get(&name) == own_tests.get(&name) {
                found.push((source.path.clone(), name));
            }
        }
    }
    found.sort();
    found.dedup();
    found
}

/// Every `.rs` file a caller may live in, this one left out.
fn workspace_sources() -> Vec<Source> {
    let root = Path::new(ROOT);
    let mut files = Vec::new();
    for dir in CALLER_DIRS {
        rust_files(&root.join(dir), &mut files);
    }
    files
        .iter()
        .map(|file| {
            let rel = file.strip_prefix(root).expect("under the root");
            Source {
                path: rel.to_string_lossy().replace('\\', "/"),
                text: fs::read_to_string(file).expect("readable source file"),
            }
        })
        .filter(|s| s.path != SELF)
        .collect()
}

/// The variants of `enum RtError` in `src`.
fn error_variants(src: &str) -> Vec<String> {
    let toks = lex(src);
    let start = toks
        .windows(3)
        .position(|w| {
            w[0] == Tok::Ident("enum".into())
                && w[1] == Tok::Ident("RtError".into())
                && w[2] == Tok::Punct('{')
        })
        .expect("error.rs defines enum RtError");
    let mut variants = Vec::new();
    let mut depth = 0;
    for i in start + 2..toks.len() {
        match &toks[i] {
            Tok::Punct('{' | '(' | '[') => depth += 1,
            Tok::Punct('}' | ')' | ']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(name) if depth == 1 => {
                if matches!(toks[i - 1], Tok::Punct('{' | ',' | ']')) {
                    variants.push(name.clone());
                }
            }
            _ => {}
        }
    }
    variants
}

/// The `RtError` variants `src` constructs: every `RtError::V` that is not
/// a pattern.
fn constructed_errors(src: &str, out: &mut HashSet<String>) {
    let toks = lex(src);
    let is = |i: usize, c: char| toks.get(i) == Some(&Tok::Punct(c));
    for i in 0..toks.len().saturating_sub(3) {
        let Tok::Ident(variant) = &toks[i + 3] else {
            continue;
        };
        if toks[i] != Tok::Ident("RtError".into()) || !is(i + 1, ':') || !is(i + 2, ':') {
            continue;
        }
        // Past the variant's fields, then past the parentheses it sits in.
        let mut j = i + 4;
        if is(j, '(') || is(j, '{') {
            let mut depth = 0;
            loop {
                match toks.get(j) {
                    Some(Tok::Punct('(' | '{' | '[')) => depth += 1,
                    Some(Tok::Punct(')' | '}' | ']')) => depth -= 1,
                    None => break,
                    _ => {}
                }
                j += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        while is(j, ')') {
            j += 1;
        }
        let pattern = (is(j, '=') && !is(j + 1, '='))
            || is(j, '|')
            || toks.get(j) == Some(&Tok::Ident("if".into()));
        if !pattern {
            out.insert(variant.clone());
        }
    }
}

/// Every variant of the `RtError` that `sources` define which no non-test
/// code outside [`ERRORS`] constructs.
fn unconstructed_errors(sources: &[Source]) -> Vec<String> {
    let production = |path: &str| {
        path != ERRORS
            && !path.starts_with("tests/")
            && !path.contains("/tests/")
            && ["crates/", "src/", "examples/", "rtbench/src/"]
                .iter()
                .any(|dir| path.starts_with(dir))
    };
    let mut constructed = HashSet::new();
    for source in sources.iter().filter(|s| production(&s.path)) {
        constructed_errors(source.parts().0, &mut constructed);
    }
    let errors = sources
        .iter()
        .find(|s| s.path == ERRORS)
        .expect("the sources include error.rs");
    let mut found: Vec<String> = error_variants(errors.parts().0)
        .into_iter()
        .filter(|v| !constructed.contains(v))
        .collect();
    found.sort();
    found
}

#[test]
fn every_public_function_has_a_caller_or_a_reason() {
    let found = uncalled(&workspace_sources(), &SCANNED);
    let allowed = |path: &str, name: &str| {
        ALLOWED
            .iter()
            .any(|&(p, n, _)| path.strip_prefix("crates/") == Some(p) && n == name)
    };
    let unexplained: Vec<String> = found
        .iter()
        .filter(|(path, name)| !allowed(path, name))
        .map(|(path, name)| format!("{path}: pub fn {name}"))
        .collect();
    assert!(
        unexplained.is_empty(),
        "public functions nothing outside their own tests calls (delete them, or \
         list them in ALLOWED with a reason):\n  {}",
        unexplained.join("\n  ")
    );
    let stale: Vec<String> = ALLOWED
        .iter()
        .filter(|&&(path, name, _)| {
            !found
                .iter()
                .any(|(p, n)| p.strip_prefix("crates/") == Some(path) && n == name)
        })
        .map(|(path, name, why)| format!("crates/{path}: {name} ({why:?})"))
        .collect();
    assert!(
        stale.is_empty(),
        "ALLOWED lists functions that are gone or now have a caller:\n  {}",
        stale.join("\n  ")
    );
}

#[test]
fn the_scan_flags_a_function_only_its_own_tests_call() {
    let source = |path: &str, text: &str| Source {
        path: path.into(),
        text: text.into(),
    };
    let sources = [
        source(
            "crates/a/src/lib.rs",
            "pub struct A;\n\
             impl A {\n\
                 pub fn called(&self) {}\n\
                 pub fn tested_only(&self) {}\n\
                 pub fn used_inside(&self) { self.helper() }\n\
                 pub fn helper(&self) {}\n\
                 /// Not [`A::documented`]: a comment names nothing.\n\
                 pub fn documented(&self) {}\n\
                 pub fn in_a_string(&self) {}\n\
                 pub(crate) fn private(&self) {}\n\
                 pub fn sibling_tested(&self) {}\n\
             }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { A.tested_only(); let _ = \"in_a_string\"; } }\n",
        ),
        source(
            "crates/a/src/lib/tests.rs",
            "fn t() { A.sibling_tested(); }\n",
        ),
        source(
            "tests/user.rs",
            "fn main() { A.called(); A.used_inside(); }\n",
        ),
    ];
    let flagged: Vec<String> = uncalled(&sources, &["crates/a/src"])
        .into_iter()
        .map(|(_, name)| name)
        .collect();
    assert_eq!(
        flagged,
        ["documented", "in_a_string", "sibling_tested", "tested_only"]
    );
}

#[test]
fn every_error_variant_is_constructed_outside_its_own_file() {
    let unconstructed = unconstructed_errors(&workspace_sources());
    assert!(
        unconstructed.is_empty(),
        "RtError variants no non-test code outside {ERRORS} constructs (delete them):\n  {}",
        unconstructed.join("\n  ")
    );
}

#[test]
fn the_error_scan_flags_a_variant_only_patterns_and_tests_name() {
    let source = |path: &str, text: &str| Source {
        path: path.into(),
        text: text.into(),
    };
    let sources = [
        source(
            ERRORS,
            "pub enum RtError {\n\
                 /// Built.\n\
                 Built(String),\n\
                 Matched { at: u32 },\n\
                 Guarded,\n\
                 Tested,\n\
                 Displayed,\n\
                 Unit,\n\
             }\n\
             fn show(e: &RtError) { let _ = RtError::Displayed; }\n",
        ),
        source(
            "crates/a/src/lib.rs",
            "fn f() -> RtResult<()> {\n\
                 match g() {\n\
                     Err(RtError::Matched { .. }) | Err(RtError::Guarded) => {}\n\
                     Err(RtError::Built(m)) if m.is_empty() => {}\n\
                     _ => {}\n\
                 }\n\
                 let e = RtError::Unit;\n\
                 Err(RtError::Built(format!(\"{}\", 1)))\n\
             }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { let _ = RtError::Tested; } }\n",
        ),
        source("tests/user.rs", "fn t() { let _ = RtError::Tested; }\n"),
        source(
            "crates/a/tests/it.rs",
            "fn t() { let _ = RtError::Tested; }\n",
        ),
    ];
    assert_eq!(
        unconstructed_errors(&sources),
        ["Displayed", "Guarded", "Matched", "Tested"]
    );
}
