//! Token-stream rules: the migrated legacy lint rules (wall-clock,
//! unwrap, float-eq, recv-unwrap) plus the `nondet`, `discarded-recovery`
//! and `fma` rules.
//!
//! These run over the file's full token-tree stream (so module-level
//! items like `type Registry = Mutex<HashMap<…>>` are covered, not just
//! function bodies) with `#[cfg(test)]` / `#[test]` line spans excluded
//! — the old lint's test exemption, now computed from the AST instead of
//! brace counting. Because the lexer strips comments and string
//! literals, none of these rules can false-positive on documentation or
//! message text, which the regex pass could.

use syn::{Delim, Tt};

use crate::{
    FileRules, RawFinding, Severity, DISCARDED_RECOVERY, FLOAT_EQ, FMA, NONDET, RECV_UNWRAP,
    UNWRAP, WALL_CLOCK,
};

pub(crate) fn scan_stream(file: &syn::File, rules: &FileRules, out: &mut Vec<RawFinding>) {
    if !(rules.wall_clock
        || rules.unwrap
        || rules.recv_unwrap
        || rules.float_eq
        || rules.nondet
        || rules.discarded_recovery
        || rules.fma)
    {
        return;
    }
    // Each nesting level is scanned exactly once, with its own local
    // adjacency (scan_flat does not recurse; scan_groups descends).
    scan_flat(&file.tokens, file, rules, out);
    scan_groups(&file.tokens, file, rules, out);
}

fn scan_groups(ts: &[Tt], file: &syn::File, rules: &FileRules, out: &mut Vec<RawFinding>) {
    for t in ts {
        if let Tt::Group { tokens, .. } = t {
            scan_flat(tokens, file, rules, out);
            scan_groups(tokens, file, rules, out);
        }
    }
}

fn scan_flat(ts: &[Tt], file: &syn::File, rules: &FileRules, out: &mut Vec<RawFinding>) {
    for (i, t) in ts.iter().enumerate() {
        let line = t.line();
        if file.line_is_test(line) {
            continue;
        }
        // wall-clock: Instant::now / SystemTime::now / thread::sleep.
        if rules.wall_clock {
            if let Some(first) = t.ident() {
                let second = path_segment(ts, i);
                let hit = matches!(
                    (first, second),
                    ("Instant", Some("now"))
                        | ("SystemTime", Some("now"))
                        | ("thread", Some("sleep"))
                );
                if hit {
                    let pat = format!("{first}::{}", second.unwrap_or_default());
                    out.push(RawFinding::new(
                        line,
                        WALL_CLOCK,
                        Severity::Error,
                        format!("`{pat}` outside comm.rs: simulated code must use virtual time"),
                        pat,
                    ));
                }
            }
        }
        // unwrap / recv-unwrap: `.unwrap()` / `.expect(…)`.
        if (rules.unwrap || rules.recv_unwrap) && t.is_punct(".") {
            if let Some(name @ ("unwrap" | "expect")) = ts.get(i + 1).and_then(Tt::ident) {
                if matches!(ts.get(i + 2), Some(Tt::Group { delim: Delim::Paren, .. })) {
                    let pat = if name == "unwrap" {
                        ".unwrap()".to_string()
                    } else {
                        ".expect(".to_string()
                    };
                    if rules.unwrap {
                        out.push(RawFinding::new(
                            line,
                            UNWRAP,
                            Severity::Error,
                            format!(
                                "`{pat}` in library code: return an error or waive with \
                                 `// lint:allow(unwrap): why`"
                            ),
                            pat.clone(),
                        ));
                    }
                    if rules.recv_unwrap && line_mentions_receive(ts, line) {
                        out.push(RawFinding::new(
                            line,
                            RECV_UNWRAP,
                            Severity::Error,
                            "unwrapping a receive/wait result: injected faults make this a \
                             legitimate Err — propagate the SimError or waive with \
                             `// lint:allow(recv-unwrap): why`"
                                .to_string(),
                            pat,
                        ));
                    }
                }
            }
        }
        // float-eq: `==` / `!=` with a float literal neighbor.
        if rules.float_eq && (t.is_punct("==") || t.is_punct("!=")) {
            let op = if t.is_punct("==") { "==" } else { "!=" };
            let prev_float = i > 0 && is_float_lit(&ts[i - 1]);
            let next_float = match ts.get(i + 1) {
                Some(n) if is_float_lit(n) => true,
                // negative literal: `!= -1.0`
                Some(n) if n.is_punct("-") => ts.get(i + 2).is_some_and(is_float_lit),
                _ => false,
            };
            if prev_float || next_float {
                out.push(RawFinding::new(
                    line,
                    FLOAT_EQ,
                    Severity::Error,
                    format!(
                        "direct `{op}` against a float literal: compare with a tolerance \
                         or waive with `// lint:allow(float-eq): why`"
                    ),
                    op.to_string(),
                ));
            }
        }
        // fma: `mul_add`, a fused multiply-add/subtract intrinsic, or
        // `enable = "…fma…"` in a `target_feature` attribute.
        if rules.fma {
            let fused = match t {
                Tt::Ident { text, .. }
                    if text == "mul_add" || FUSED.iter().any(|f| text.contains(f)) =>
                {
                    Some(text.clone())
                }
                Tt::Lit { .. } if enables_fma(ts, i) => Some("enable = \"fma\"".to_string()),
                _ => None,
            };
            if let Some(pat) = fused {
                out.push(RawFinding::new(
                    line,
                    FMA,
                    Severity::Error,
                    format!(
                        "`{pat}` in kernel code: a fused multiply-add rounds once where the \
                         other instances round twice, so this instance's bits would move; \
                         waive with `// lint:allow(fma): why`"
                    ),
                    pat,
                ));
            }
        }
        // discarded-recovery: `let _ = <expr>;` where the discarded
        // expression mentions a receive, wait, or promotion. Under
        // injected faults those results carry the failure diagnosis the
        // supervisor decides recovery from; dropping one silently skips
        // a recovery path.
        if rules.discarded_recovery
            && t.ident() == Some("let")
            && ts.get(i + 1).and_then(Tt::ident) == Some("_")
            && ts.get(i + 2).is_some_and(|n| n.is_punct("="))
        {
            if let Some(name) = discarded_recovery_ident(&ts[i + 3..]) {
                out.push(RawFinding::new(
                    line,
                    DISCARDED_RECOVERY,
                    Severity::Error,
                    format!(
                        "`let _ =` discards the result of `{name}`: a receive/wait/\
                         promotion outcome is a recovery diagnosis — bind and handle \
                         it, or waive with `// lint:allow(discarded-recovery): why`"
                    ),
                    format!("let _ = …{name}…"),
                ));
            }
        }
        // nondet: HashMap/HashSet (iteration order), thread_rng
        // (unseeded randomness). Instant/SystemTime are the wall-clock
        // rule's business — not double-reported here.
        if rules.nondet {
            if let Some(name @ ("HashMap" | "HashSet" | "thread_rng")) = t.ident() {
                let hint = match name {
                    "thread_rng" => "use a seeded Rng so runs are reproducible",
                    _ => "use BTreeMap/BTreeSet: hash iteration order varies run to run",
                };
                out.push(RawFinding::new(
                    line,
                    NONDET,
                    Severity::Error,
                    format!("`{name}` in simulator-core code: {hint}"),
                    name.to_string(),
                ));
            }
        }
    }
}

/// The path segment after `X::`, if the next tokens are `:: ident`.
fn path_segment(ts: &[Tt], i: usize) -> Option<&str> {
    if ts.get(i + 1).is_some_and(|t| t.is_punct("::")) {
        return ts.get(i + 2).and_then(Tt::ident);
    }
    None
}

/// The first identifier in the discarded expression (up to the statement
/// terminator, descending into groups) that names a receive, wait, or
/// promotion — `None` when the discard is of something the recovery
/// rule has no business with (e.g. `let _ = writeln!(…)`).
fn discarded_recovery_ident(ts: &[Tt]) -> Option<String> {
    fn mentions(ts: &[Tt]) -> Option<String> {
        for t in ts {
            match t {
                Tt::Ident { text, .. }
                    if text.contains("recv")
                        || text.contains("wait")
                        || text.contains("promot") =>
                {
                    return Some(text.clone());
                }
                Tt::Group { tokens, .. } => {
                    if let Some(n) = mentions(tokens) {
                        return Some(n);
                    }
                }
                _ => {}
            }
        }
        None
    }
    let end = ts.iter().position(|t| t.is_punct(";")).unwrap_or(ts.len());
    mentions(&ts[..end])
}

/// Identifier fragments of the fused multiply-add/subtract intrinsics
/// (`_mm256_fmadd_pd`, `_mm512_fnmsub_pd`, `_mm_fmaddsub_pd`, …).
const FUSED: [&str; 4] = ["fmadd", "fmsub", "fnmadd", "fnmsub"];

/// Is `ts[i]` the string of an `enable = "…"` that lists `fma`?
fn enables_fma(ts: &[Tt], i: usize) -> bool {
    let Some(Tt::Lit { text, .. }) = ts.get(i) else {
        return false;
    };
    i >= 2
        && ts[i - 1].is_punct("=")
        && ts[i - 2].is_ident("enable")
        && text.trim_matches('"').split(',').any(|f| f.trim() == "fma")
}

/// Does any identifier on this line mention a receive or wait? (The old
/// rule's same-line heuristic, on identifiers instead of raw text so
/// strings/comments cannot match.)
fn line_mentions_receive(ts: &[Tt], line: usize) -> bool {
    fn walk(ts: &[Tt], line: usize) -> bool {
        ts.iter().any(|t| match t {
            Tt::Ident { text, line: l } => {
                *l == line && (text.contains("recv") || text.contains("wait"))
            }
            Tt::Group { tokens, .. } => walk(tokens, line),
            _ => false,
        })
    }
    walk(ts, line)
}

fn is_float_lit(t: &Tt) -> bool {
    match t {
        Tt::Lit { text, .. } => {
            let starts_digit = text.chars().next().is_some_and(|c| c.is_ascii_digit());
            starts_digit
                && !text.starts_with("0x")
                && (text.contains('.') || text.ends_with("f64") || text.ends_with("f32"))
        }
        _ => false,
    }
}
