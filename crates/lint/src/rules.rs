//! The rule set.
//!
//! Every rule has a stable ID and emits `file:line` diagnostics. Both
//! relate string contents across files — a JSON key to a struct field, a
//! trace literal to a registry entry — which is why they live here and
//! not in the compiler or `clippy.toml`.

use std::collections::BTreeSet;

use crate::scan::{find_keyword, is_ident_char, match_paren, split_args, SourceFile};
use crate::{Diagnostic, Workspace, SIM_CRATES};

/// Rule table: `(id, one-line description)` — the contract DESIGN.md
/// documents and `pimdsm-lint --list` prints.
pub const RULES: &[(&str, &str)] = &[
    (
        "O001",
        "every trace event name/category emitted must be registered in pimdsm-obs (and vice versa)",
    ),
    (
        "S001",
        "every pub stats field must appear in both to_json and from_json of its struct",
    ),
];

/// Crates whose `src/` is simulation path, where the trace emitters live.
fn is_sim(krate: &str) -> bool {
    SIM_CRATES.contains(&krate)
}

/// S001 — report-schema sync: every `pub` field of a struct that has both
/// a `to_json` and a `from_json` in its defining file must be mentioned
/// in *both* bodies (as the field identifier or the `"field"` JSON key).
/// Catches the silently-dropped-on-cache-re-render class.
pub fn s001(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for entry in &ws.files {
        if entry.is_test_code {
            continue;
        }
        let file = &entry.file;
        let structs = file.pub_structs();
        if structs.is_empty() {
            continue;
        }
        let impls = file.impls();
        let fns = file.fns();
        for st in &structs {
            let body_of = |fn_name: &str| -> Option<(usize, usize)> {
                fns.iter()
                    .find(|f| {
                        f.name == fn_name
                            && impls.iter().any(|im| {
                                im.ty == st.name
                                    && f.start >= im.body_start
                                    && f.body_end <= im.body_end
                            })
                    })
                    .map(|f| (f.body_start, f.body_end))
            };
            let (Some(to), Some(from)) = (body_of("to_json"), body_of("from_json")) else {
                continue;
            };
            for field in &st.pub_fields {
                for (what, (bs, be)) in [("to_json", to), ("from_json", from)] {
                    let mentioned = !find_keyword(&file.masked[bs..be], field).is_empty()
                        || file
                            .strings
                            .iter()
                            .any(|s| s.offset >= bs && s.offset < be && s.value == *field);
                    if !mentioned {
                        out.push(Diagnostic {
                            rule: "S001",
                            rel: file.rel.clone(),
                            line: file.line_of(bs),
                            msg: format!(
                                "field `{}` of `{}` is not handled in {what}: it would be silently dropped on a report round-trip (cache re-render)",
                                field, st.name
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

/// O001 — trace-event registry sync.
///
/// Every event name / category a simulation crate passes to
/// `Tracer::span` / `Tracer::instant` must be registered in
/// `pimdsm_obs::trace::registry` (where the consumers — trace filters,
/// suite assertions, Perfetto queries — look them up), and every
/// registered entry must actually be emitted somewhere. A typo'd
/// category would otherwise vanish silently from every filter.
pub fn o001(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some((categories, names)) = load_registry(ws) else {
        out.push(Diagnostic {
            rule: "O001",
            rel: "crates/obs/src/trace.rs".into(),
            line: 1,
            msg: "trace registry (registry::CATEGORIES / registry::EVENT_NAMES) not found in pimdsm-obs"
                .into(),
        });
        return out;
    };

    let mut emitted_cats: BTreeSet<String> = BTreeSet::new();
    let mut emitted_names: BTreeSet<String> = BTreeSet::new();

    for entry in &ws.files {
        if !is_sim(&entry.krate) || entry.is_test_code {
            continue;
        }
        let file = &entry.file;
        let fns = file.fns();
        for needle in [".span(", ".instant("] {
            let mut search = 0usize;
            while let Some(rel_off) = file.masked[search..].find(needle) {
                let at = search + rel_off;
                let open = at + needle.len() - 1;
                search = open + 1;
                if file.in_test_region(at) {
                    continue;
                }
                let Some(close) = match_paren(&file.masked, open) else {
                    continue;
                };
                let args = split_args(&file.masked[open + 1..close]);
                // span(pid, tid, name, cat, ts, dur, args) /
                // instant(pid, tid, name, cat, ts, args).
                if args.len() < 4 {
                    continue;
                }
                for (idx, registry, kind) in
                    [(2usize, &names, "event name"), (3, &categories, "category")]
                {
                    let (arg_off, arg_text) = args[idx];
                    let abs = open + 1 + arg_off;
                    match literal_in(file, abs, abs + arg_text.len()) {
                        Some(value) => {
                            if registry.contains(&value) {
                                if kind == "category" {
                                    emitted_cats.insert(value);
                                } else {
                                    emitted_names.insert(value);
                                }
                            } else {
                                out.push(Diagnostic {
                                    rule: "O001",
                                    rel: file.rel.clone(),
                                    line: file.line_of(abs),
                                    msg: format!(
                                        "trace {kind} \"{value}\" is not registered in pimdsm_obs::trace::registry — it would silently escape every trace filter"
                                    ),
                                });
                            }
                        }
                        None => {
                            // Non-literal argument (e.g. a `match`-selected
                            // category): fall back to checking every
                            // dotted literal in the enclosing function.
                            let span = fns
                                .iter()
                                .filter(|f| f.body_start <= at && at < f.body_end)
                                .map(|f| (f.body_start, f.body_end))
                                .next_back();
                            if let Some((bs, be)) = span {
                                for s in &file.strings {
                                    if s.offset < bs || s.offset >= be || !is_dotted(&s.value) {
                                        continue;
                                    }
                                    if categories.contains(&s.value) {
                                        emitted_cats.insert(s.value.clone());
                                    } else if names.contains(&s.value) {
                                        emitted_names.insert(s.value.clone());
                                    } else {
                                        out.push(Diagnostic {
                                            rule: "O001",
                                            rel: file.rel.clone(),
                                            line: file.line_of(s.offset),
                                            msg: format!(
                                                "trace literal \"{}\" near a non-literal {kind} argument is not registered in pimdsm_obs::trace::registry",
                                                s.value
                                            ),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Literals emitted anywhere in sim src count toward the converse
        // check even when passed through helpers (e.g. handler_name).
        for s in &file.strings {
            if file.in_test_region(s.offset) {
                continue;
            }
            if categories.contains(&s.value) {
                emitted_cats.insert(s.value.clone());
            }
            if names.contains(&s.value) {
                emitted_names.insert(s.value.clone());
            }
        }
    }

    for (registry, emitted, kind) in [
        (&categories, &emitted_cats, "category"),
        (&names, &emitted_names, "event name"),
    ] {
        for value in registry.iter() {
            if !emitted.contains(value) {
                out.push(Diagnostic {
                    rule: "O001",
                    rel: "crates/obs/src/trace.rs".into(),
                    line: 1,
                    msg: format!(
                        "registered trace {kind} \"{value}\" is never emitted by any simulation crate (stale registry entry)"
                    ),
                });
            }
        }
    }
    out
}

/// Extracts `registry::CATEGORIES` and `registry::EVENT_NAMES` from the
/// obs trace module.
fn load_registry(ws: &Workspace) -> Option<(BTreeSet<String>, BTreeSet<String>)> {
    let file = ws
        .files
        .iter()
        .map(|e| &e.file)
        .find(|f| f.rel.ends_with("obs/src/trace.rs"))?;
    let grab = |marker: &str| -> Option<BTreeSet<String>> {
        let at = file.masked.find(marker)?;
        // Skip past the `=` so the `[` of the `&[&str]` type annotation
        // is not mistaken for the array itself.
        let eq = at + file.masked[at..].find('=')?;
        let open = eq + file.masked[eq..].find('[')?;
        let close = open + file.masked[open..].find(']')?;
        Some(
            file.strings
                .iter()
                .filter(|s| s.offset > open && s.offset < close)
                .map(|s| s.value.clone())
                .collect(),
        )
    };
    Some((
        grab("pub const CATEGORIES")?,
        grab("pub const EVENT_NAMES")?,
    ))
}

/// `proto.handler`-shaped: at least one dot separating identifier chunks.
fn is_dotted(s: &str) -> bool {
    !s.is_empty()
        && s.contains('.')
        && s.split('.')
            .all(|part| !part.is_empty() && part.bytes().all(is_ident_char))
}

/// The string literal spanning exactly the (trimmed) argument text, if
/// the argument is a plain literal.
fn literal_in(file: &SourceFile, start: usize, end: usize) -> Option<String> {
    let trimmed = file.masked[start..end].trim();
    if !trimmed.starts_with('"') {
        return None;
    }
    file.strings
        .iter()
        .find(|s| s.offset >= start && s.offset < end)
        .map(|s| s.value.clone())
}
