//! No unused public surface: every `pub` item declared in `crates/*/src`
//! must be named by some code outside its own crate, or carry a reason in
//! `tests/public_surface.allow`.
//!
//! "Outside the crate" is every other crate, the crate's own `tests/`,
//! `examples/`, `benches/`, `src/bin/` and `src/main.rs` (each a separate
//! crate), code blocks in the crate's own doc comments (doc-tests), the
//! facade's `src/`, `tests/` and `examples/`, and `benchmark/src`. A
//! `pub use` re-export (a prelude or facade line) is not a use.
//!
//! Declarations follow the line-count rule: each `#[cfg(test)]` item is
//! skipped and a file ends at `#[cfg(test)] mod tests`. Matching is by
//! identifier, so a common name (`new`, `len`) always counts as used; the
//! compiler's `dead_code` lint covers what this lets through once an item
//! is `pub(crate)`.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;

/// The scanned roots, relative to the repository root.
const ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];

/// Item kinds a `pub` declaration can introduce that this guard counts.
const KINDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

enum Tok {
    Ident(String),
    Punct(char),
    /// A string, char or numeric literal, or a lifetime: never a name.
    Lit,
}

/// One lexed source file.
struct Lexed {
    /// Code tokens with their line numbers, comments left out.
    toks: Vec<(Tok, usize)>,
    /// Identifiers in fenced code blocks of doc comments (`///`, `//!`,
    /// `/** */`, `/*! */`): the doc-tests.
    doctest_words: HashSet<String>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn words(text: &str, into: &mut HashSet<String>) {
    let mut word = String::new();
    for c in text.chars().chain(std::iter::once(' ')) {
        if is_ident_char(c) {
            word.push(c);
        } else if !word.is_empty() {
            if word.starts_with(is_ident_start) {
                into.insert(std::mem::take(&mut word));
            }
            word.clear();
        }
    }
}

fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed {
        toks: Vec::new(),
        doctest_words: HashSet::new(),
    };
    let mut in_fence = false;
    let mut doc_line = |text: &str, out: &mut Lexed| {
        if text.trim_start().starts_with("```") {
            in_fence = !in_fence;
        } else if in_fence {
            words(text, &mut out.doctest_words);
        }
    };
    let (mut i, mut line) = (0, 1);
    let at = |i: usize, s: &str| {
        s.chars()
            .enumerate()
            .all(|(k, c)| chars.get(i + k) == Some(&c))
    };
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if at(i, "//") {
            let end = (i..chars.len())
                .find(|&j| chars[j] == '\n')
                .unwrap_or(chars.len());
            let text: String = chars[i + 2..end].iter().collect();
            if (text.starts_with('/') && !text.starts_with("//")) || text.starts_with('!') {
                doc_line(&text[1..], &mut out);
            }
            i = end;
        } else if at(i, "/*") {
            let doc = (at(i + 2, "*") && !at(i + 2, "*/")) || at(i + 2, "!");
            let (mut depth, mut j) = (1, i + 2);
            while j < chars.len() && depth > 0 {
                if at(j, "/*") {
                    depth += 1;
                    j += 2;
                } else if at(j, "*/") {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            let text: String = chars[i + 2..j.saturating_sub(2).max(i + 2)]
                .iter()
                .collect();
            line += text.matches('\n').count();
            if doc {
                for l in text[1..].lines() {
                    doc_line(l.trim_start().trim_start_matches('*'), &mut out);
                }
            }
            i = j;
        } else if c == 'r' && (at(i + 1, "\"") || at(i + 1, "#\"") || at(i + 1, "##")) {
            // raw string r"..." / r#"..."#
            let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
            let close: String = std::iter::once('"')
                .chain("#".repeat(hashes).chars())
                .collect();
            let mut j = i + 2 + hashes;
            while j < chars.len() && !at(j, &close) {
                line += usize::from(chars[j] == '\n');
                j += 1;
            }
            out.toks.push((Tok::Lit, line));
            i = j + close.len();
        } else if c == '"' || (c == 'b' && at(i + 1, "\"")) {
            let mut j = i + if c == 'b' { 2 } else { 1 };
            while j < chars.len() && chars[j] != '"' {
                j += if chars[j] == '\\' { 2 } else { 1 };
                line += usize::from(chars[j - 1] == '\n');
            }
            out.toks.push((Tok::Lit, line));
            i = j + 1;
        } else if c == '\'' {
            // a char literal ('a', '\n', '\u{..}') or a lifetime ('a)
            if at(i + 1, "\\") {
                let end = (i + 3..chars.len())
                    .find(|&j| chars[j] == '\'')
                    .unwrap_or(chars.len());
                i = end + 1;
            } else if at(i + 2, "'") {
                i += 3;
            } else {
                i += 1;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
            }
            out.toks.push((Tok::Lit, line));
        } else if c.is_ascii_digit() {
            while i < chars.len() && (is_ident_char(chars[i]) || chars[i] == '.') {
                if chars[i] == '.' && !chars.get(i + 1).is_some_and(char::is_ascii_digit) {
                    break;
                }
                i += 1;
            }
            out.toks.push((Tok::Lit, line));
        } else if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            out.toks
                .push((Tok::Ident(chars[start..i].iter().collect()), line));
        } else {
            out.toks.push((Tok::Punct(c), line));
            i += 1;
        }
    }
    out
}

fn is_ident(t: Option<&(Tok, usize)>, s: &str) -> bool {
    matches!(t, Some((Tok::Ident(w), _)) if w == s)
}

fn is_punct(t: Option<&(Tok, usize)>, p: char) -> bool {
    matches!(t, Some((Tok::Punct(q), _)) if *q == p)
}

/// Index just past the item starting at `i`: its first `;` or the `}`
/// that closes its first top-level brace.
fn skip_item(toks: &[(Tok, usize)], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        match &toks[i].0 {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']') => depth -= 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            Tok::Punct(';') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Is `toks[i..]` the attribute `#[cfg(test)]`?
fn is_cfg_test(toks: &[(Tok, usize)], i: usize) -> bool {
    is_punct(toks.get(i), '#')
        && is_punct(toks.get(i + 1), '[')
        && is_ident(toks.get(i + 2), "cfg")
        && is_punct(toks.get(i + 3), '(')
        && is_ident(toks.get(i + 4), "test")
        && is_punct(toks.get(i + 5), ')')
        && is_punct(toks.get(i + 6), ']')
}

/// The `pub` items a file declares outside its tests: `(name, kind, line)`.
fn declarations(toks: &[(Tok, usize)]) -> Vec<(String, String, usize)> {
    let mut found = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test(toks, i) {
            if is_ident(toks.get(i + 7), "mod") && is_ident(toks.get(i + 8), "tests") {
                break;
            }
            i = skip_item(toks, i + 7);
            continue;
        }
        // `pub(crate)`, `pub(super)`, `pub(in …)` are not public
        if is_ident(toks.get(i), "pub") && !is_punct(toks.get(i + 1), '(') {
            let mut j = i + 1;
            loop {
                let t = toks.get(j);
                let const_fn = is_ident(t, "const")
                    && (is_ident(toks.get(j + 1), "fn") || is_ident(toks.get(j + 1), "unsafe"));
                if const_fn || ["unsafe", "async", "extern"].iter().any(|q| is_ident(t, q)) {
                    j += 1;
                } else if matches!(t, Some((Tok::Lit, _))) && is_ident(toks.get(j - 1), "extern") {
                    j += 1; // the ABI string
                } else {
                    break;
                }
            }
            if let (Some((Tok::Ident(kind), line)), Some((Tok::Ident(name), _))) =
                (toks.get(j), toks.get(j + 1))
            {
                if KINDS.contains(&kind.as_str()) {
                    found.push((name.clone(), kind.clone(), *line));
                }
            }
        }
        i += 1;
    }
    found
}

/// Identifiers a file names in code, leaving out `pub use` re-exports.
fn code_words(toks: &[(Tok, usize)]) -> HashSet<String> {
    let mut set = HashSet::new();
    let mut i = 0;
    while i < toks.len() {
        if is_ident(toks.get(i), "pub") && is_ident(toks.get(i + 1), "use") {
            i = skip_item(toks, i);
            continue;
        }
        if let Tok::Ident(w) = &toks[i].0 {
            set.insert(w.clone());
        }
        i += 1;
    }
    set
}

/// The crate a path belongs to (its directory under `crates/`, or the
/// path's first component elsewhere) and whether the file is part of that
/// crate's library target.
fn owner(path: &str) -> (String, bool) {
    let parts: Vec<&str> = path.split('/').collect();
    if parts[0] == "crates" && parts.len() > 3 {
        let lib = parts[2] == "src" && parts[3] != "bin" && parts[3] != "main.rs";
        (parts[1].to_string(), lib)
    } else {
        (parts[0].to_string(), false)
    }
}

/// Every `pub` item in a crate library with no user outside the crate,
/// minus the allow-list, as `path:line pub kind name` lines; plus one line
/// per allow-list entry that is malformed or matches no such item.
fn unused_public_items(files: &[(String, String)], allow: &str) -> Vec<String> {
    let lexed: Vec<(String, bool, Lexed)> = files
        .iter()
        .map(|(path, src)| {
            let (krate, lib) = owner(path);
            (krate, lib, lex(src))
        })
        .collect();
    // Names each crate's library uses, and names every other file uses:
    // the code outside the crate libraries, and all doc-tests.
    let mut lib_words: HashMap<&str, HashSet<String>> = HashMap::new();
    let mut other_words = HashSet::new();
    for (krate, lib, l) in &lexed {
        let set = code_words(&l.toks);
        if *lib {
            lib_words.entry(krate).or_default().extend(set);
        } else {
            other_words.extend(set);
        }
        other_words.extend(l.doctest_words.iter().cloned());
    }
    let mut allowed = HashSet::new();
    let mut problems = Vec::new();
    for entry in allow
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        match entry.split_once(": ") {
            Some((key, reason)) if key.contains("::") && !reason.trim().is_empty() => {
                allowed.insert(key.to_string());
            }
            _ => problems.push(format!(
                "allow-file entry is not `crate::Name: reason`: {entry}"
            )),
        }
    }
    let mut used_allow = HashSet::new();
    for ((path, _), (krate, lib, l)) in files.iter().zip(&lexed) {
        if !lib {
            continue;
        }
        for (name, kind, line) in declarations(&l.toks) {
            let named = other_words.contains(&name)
                || lib_words
                    .iter()
                    .any(|(k, set)| k != krate && set.contains(&name));
            if named {
                continue;
            }
            let key = format!("{krate}::{name}");
            if allowed.contains(&key) {
                used_allow.insert(key);
                continue;
            }
            problems.push(format!("{path}:{line} pub {kind} {name}"));
        }
    }
    for key in allowed.difference(&used_allow) {
        problems.push(format!(
            "allow-file entry {key} names no unused public item"
        ));
    }
    problems.sort();
    problems
}

/// Every `.rs` file under the scanned roots, as (path relative to the
/// repository root, contents); `target/` directories are skipped.
fn corpus(root: &Path) -> Vec<(String, String)> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, root, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, fs::read_to_string(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    for r in ROOTS {
        walk(&root.join(r), root, &mut out);
    }
    out.sort();
    out
}

#[test]
fn every_public_item_has_a_user_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let allow = fs::read_to_string(root.join("tests/public_surface.allow")).unwrap();
    let problems = unused_public_items(&corpus(root), &allow);
    assert!(
        problems.is_empty(),
        "{} public item(s) with no user outside their crate; make each `pub(crate)` \
         (or private), or add `crate::Name: reason` to tests/public_surface.allow:\n{}",
        problems.len(),
        problems.join("\n")
    );
}

fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(path, src)| (path.to_string(), src.to_string()))
        .collect()
}

#[test]
fn an_unused_pub_fn_is_reported() {
    let corpus = files(&[
        (
            "crates/a/src/lib.rs",
            "pub fn used() {}\n\npub fn lonely() {}\n",
        ),
        // neither is a caller in the item's own crate library
        ("crates/a/src/other.rs", "fn g() { crate::lonely(); }\n"),
        // a comment or a string naming an item is not a use
        (
            "crates/b/src/lib.rs",
            "// lonely\nfn f() { a::used(); let _ = \"lonely\"; }\n",
        ),
    ]);
    assert_eq!(
        unused_public_items(&corpus, ""),
        ["crates/a/src/lib.rs:3 pub fn lonely"]
    );
}

#[test]
fn users_outside_the_crate_library_count() {
    let corpus = files(&[
        (
            "crates/a/src/lib.rs",
            "/// ```\n/// a::in_doctest();\n/// ```\npub fn in_doctest() {}\n\
             pub fn in_tests() {}\npub struct InBench;\npub const IN_OWN_TESTS: u8 = 0;\n\
             pub fn in_own_bin() {}\n",
        ),
        (
            "crates/b/tests/it.rs",
            "#[test]\nfn t() { a::in_tests(); }\n",
        ),
        ("benchmark/src/main.rs", "use a::InBench;\n"),
        ("crates/a/tests/it.rs", "const X: u8 = a::IN_OWN_TESTS;\n"),
        (
            "crates/a/src/bin/tool.rs",
            "fn main() { a::in_own_bin(); }\n",
        ),
    ]);
    assert_eq!(unused_public_items(&corpus, ""), Vec::<String>::new());
}

#[test]
fn a_prelude_re_export_is_not_a_use() {
    let corpus = files(&[
        (
            "crates/a/src/lib.rs",
            "pub fn exported() {}\npub mod prelude {\n    pub use crate::exported;\n}\n",
        ),
        (
            "src/lib.rs",
            "pub use a::exported;\npub use a::prelude::*;\n",
        ),
    ]);
    assert_eq!(
        unused_public_items(&corpus, ""),
        ["crates/a/src/lib.rs:1 pub fn exported"]
    );
}

#[test]
fn allow_listed_items_are_skipped_and_stale_or_bare_entries_fail() {
    let corpus = files(&[("crates/a/src/lib.rs", "pub struct Kept;\n")]);
    assert!(unused_public_items(&corpus, "# comment\na::Kept: handed out by `f`\n").is_empty());
    assert_eq!(
        unused_public_items(&corpus, "a::Kept: handed out\na::Gone: was handed out\n"),
        ["allow-file entry a::Gone names no unused public item"]
    );
    assert_eq!(
        unused_public_items(&corpus, "a::Kept\n"),
        [
            "allow-file entry is not `crate::Name: reason`: a::Kept",
            "crates/a/src/lib.rs:1 pub struct Kept",
        ]
    );
}

#[test]
fn crate_visible_and_test_only_items_are_ignored() {
    let src = "pub(crate) fn inner() {}\n#[cfg(test)]\npub fn helper() -> u8 {\n    1\n}\n\
               pub const fn used() {}\n#[cfg(test)]\nmod tests {\n    pub fn in_tests() {}\n}\n\
               pub fn after_the_tests() {}\n";
    let corpus = files(&[
        ("crates/a/src/lib.rs", src),
        ("crates/b/src/lib.rs", "fn f() { a::used(); }\n"),
    ]);
    assert_eq!(unused_public_items(&corpus, ""), Vec::<String>::new());
}
