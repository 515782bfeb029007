//! Per-function summaries and the interprocedural call graph.
//!
//! Summaries are keyed by the function's terminal name (method calls and
//! path calls both resolve by last segment); same-named functions merge
//! conservatively (any-true wins, first collective chain wins). That is
//! deliberately coarse — the analyzer prefers a rare conservative
//! finding, which a waiver can silence, over a missed divergence. The
//! caller leaves out the functions of crates that cannot reach a
//! communicator (see the crate docs' "Crate scope"), so a kernel helper
//! never joins a collective chain by its name.

use std::collections::{BTreeMap, BTreeSet};

use syn::{Delim, ItemFn, Tt};

use crate::{COLLECTIVES, REQUEST_FNS};

/// What the taint walk needs to know about a callee without re-walking
/// it at every call site.
#[derive(Clone, Default, Debug)]
pub struct FnInfo {
    /// `Some(chain)` if calling this function executes a collective on a
    /// *world* communicator: either directly (`"allreduce_f64s"`) or
    /// transitively (`"helper -> allreduce_f64s"`).
    pub collective: Option<String>,
    /// `Some(chain)` if this function's only collectives run on a
    /// split-child communicator (a `sub`-named parameter or a
    /// `.split(...)` binding). Those synchronize the split's color group
    /// — whose membership is exactly the ranks that took the calling
    /// path — so a call site under a rank-dependent branch is not world
    /// divergence (the secede / shrink-recovery pattern).
    pub group_collective: Option<String>,
    /// The return value is derived from `rank()` (so binding a call
    /// result propagates rank taint).
    pub returns_rank: bool,
    /// The return type is a `Request` handle (so binding a call result
    /// creates a handle that must be waited).
    pub returns_request: bool,
    /// Parameter positions that, if rank-tainted, steer control flow
    /// around a collective inside this function: passing a rank-variant
    /// argument there at a call site is itself a divergence.
    pub divergent_params: BTreeSet<usize>,
}

pub struct Summaries {
    map: BTreeMap<String, FnInfo>,
}

impl Summaries {
    pub fn get(&self, name: &str) -> Option<&FnInfo> {
        self.map.get(name)
    }

    pub fn returns_rank(&self, name: &str) -> bool {
        self.map.get(name).is_some_and(|i| i.returns_rank)
    }

    pub fn empty() -> Self {
        Summaries { map: BTreeMap::new() }
    }

    /// Build summaries for a set of functions, running the collective /
    /// returns-rank fixpoint over the call graph, then the
    /// tainted-param divergence pass (which needs the stable
    /// summaries).
    pub fn build(fns: &[(&str, &ItemFn)]) -> Self {
        // Local facts per function name.
        let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut tail_calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut map: BTreeMap<String, FnInfo> = BTreeMap::new();
        // `rank()` itself is the taint source.
        map.insert("rank".into(), FnInfo { returns_rank: true, ..FnInfo::default() });

        for (_, f) in fns {
            let entry = map.entry(f.name.clone()).or_default();
            let mut body_tokens = Vec::new();
            collect_stmt_tokens(&f.body, &mut body_tokens);

            let mut called = BTreeSet::new();
            collect_calls(&body_tokens, &mut called);
            // Receivers that hold a split-child communicator: `sub`-named
            // parameters plus `.split(...)` bindings anywhere in the body
            // (a flat, flow-insensitive set — deliberately permissive in
            // the direction the runtime verifier still covers per group).
            let mut group_recv: BTreeSet<String> = f
                .params
                .iter()
                .filter(|p| p.as_str() == "sub" || p.ends_with("sub"))
                .cloned()
                .collect();
            collect_split_bindings(&f.body, &mut group_recv);
            classify_collectives(
                &body_tokens,
                &group_recv,
                &mut entry.collective,
                &mut entry.group_collective,
            );
            calls.entry(f.name.clone()).or_default().extend(called);

            // Return type mentions a request handle → must be waited by
            // the caller. `Request` is the concrete mpsim handle; `Req`
            // covers the `Communicator` trait's associated type in
            // generic code (`C::Req`, `Self::Req`) and the native
            // backend's `NativeReq`.
            let after_arrow = f.sig.iter().skip_while(|t| !t.is_punct("->"));
            if after_arrow
                .clone()
                .any(|t| t.is_ident("Request") || t.is_ident("Req") || t.is_ident("NativeReq"))
            {
                entry.returns_request = true;
            }
            if REQUEST_FNS.contains(&f.name.as_str()) {
                entry.returns_request = true;
            }

            // Calls in return position, for the returns-rank fixpoint.
            let mut tails = BTreeSet::new();
            collect_return_position_calls(&f.body, &mut tails);
            if return_position_has_rank_call(&f.body) {
                entry.returns_rank = true;
            }
            tail_calls.entry(f.name.clone()).or_default().extend(tails);
        }

        // Fixpoint: collective reachability and returns-rank.
        loop {
            let mut changed = false;
            let names: Vec<String> = map.keys().cloned().collect();
            for name in &names {
                let callees = calls.get(name).cloned().unwrap_or_default();
                if map.get(name).and_then(|i| i.collective.clone()).is_none() {
                    for c in &callees {
                        // Call sites of the primitives themselves were
                        // already classified by receiver; propagating the
                        // primitive's *implementation* summary through this
                        // receiver-blind edge would re-world-ify them.
                        if COLLECTIVES.contains(&c.as_str()) {
                            continue;
                        }
                        if let Some(chain) = map.get(c).and_then(|i| i.collective.clone()) {
                            if let Some(e) = map.get_mut(name) {
                                let via = if chain.contains("->") || c != &chain {
                                    format!("{c} -> {chain}")
                                } else {
                                    chain
                                };
                                e.collective = Some(via);
                                changed = true;
                            }
                            break;
                        }
                    }
                }
                if map.get(name).and_then(|i| i.group_collective.clone()).is_none() {
                    for c in &callees {
                        if COLLECTIVES.contains(&c.as_str()) {
                            continue;
                        }
                        if let Some(chain) = map.get(c).and_then(|i| i.group_collective.clone()) {
                            if let Some(e) = map.get_mut(name) {
                                let via = if chain.contains("->") || c != &chain {
                                    format!("{c} -> {chain}")
                                } else {
                                    chain
                                };
                                e.group_collective = Some(via);
                                changed = true;
                            }
                            break;
                        }
                    }
                }
                let tails = tail_calls.get(name).cloned().unwrap_or_default();
                if !map.get(name).is_some_and(|i| i.returns_rank) {
                    let derived = tails.iter().any(|c| map.get(c).is_some_and(|i| i.returns_rank));
                    if derived {
                        if let Some(e) = map.get_mut(name) {
                            e.returns_rank = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let mut summaries = Summaries { map };

        // Divergent-parameter pass: with the collective summaries
        // stable, re-walk each body once per parameter, pretending only
        // that parameter is rank-tainted, and record the positions that
        // put a collective under a branch. Updating the map as we go
        // lets later functions see earlier ones' divergent positions
        // (one round of transitive propagation; deeper chains surface
        // at the callee's own call sites).
        for (_, f) in fns {
            let idxs = crate::walk::divergent_param_indices(f, &summaries);
            if !idxs.is_empty() {
                if let Some(e) = summaries.map.get_mut(&f.name) {
                    e.divergent_params.extend(idxs);
                }
            }
        }
        summaries
    }
}

/// Flatten a statement tree back into its token sequences (branch
/// conditions, bodies, opaque runs — everything).
fn collect_stmt_tokens(stmts: &[syn::Stmt], out: &mut Vec<Tt>) {
    use syn::{Expr, Stmt};
    for s in stmts {
        match s {
            Stmt::Let { init, else_block, .. } => {
                if let Some(e) = init {
                    collect_expr_tokens(e, out);
                }
                if let Some(b) = else_block {
                    collect_stmt_tokens(b, out);
                }
            }
            Stmt::Expr(e) => collect_expr_tokens(e, out),
        }
    }
    fn collect_expr_tokens(e: &Expr, out: &mut Vec<Tt>) {
        match e {
            Expr::If { cond, then_branch, else_branch, .. } => {
                out.extend(cond.iter().cloned());
                collect_stmt_tokens(then_branch, out);
                if let Some(e) = else_branch {
                    collect_expr_tokens(e, out);
                }
            }
            Expr::Match { scrutinee, arms, .. } => {
                out.extend(scrutinee.iter().cloned());
                for a in arms {
                    out.extend(a.guard.iter().cloned());
                    collect_stmt_tokens(&a.body, out);
                }
            }
            Expr::ForLoop { iter, body, .. } => {
                out.extend(iter.iter().cloned());
                collect_stmt_tokens(body, out);
            }
            Expr::While { cond, body, .. } => {
                out.extend(cond.iter().cloned());
                collect_stmt_tokens(body, out);
            }
            Expr::Loop { body, .. } | Expr::Block { stmts: body, .. } => {
                collect_stmt_tokens(body, out);
            }
            Expr::Return { value, .. } => out.extend(value.iter().cloned()),
            Expr::Break { .. } | Expr::Continue { .. } => {}
            Expr::Chain { head, rest, .. } => {
                collect_expr_tokens(head, out);
                out.extend(rest.iter().cloned());
            }
            Expr::Opaque { tokens, .. } => out.extend(tokens.iter().cloned()),
        }
    }
}

/// Classify every collective call site by its receiver: `sub.barrier()`
/// with `sub` in `group_recv` is a group collective, anything else
/// (including receiver-less calls) is a world collective. First hit of
/// each kind wins, matching the world-only rule this generalizes.
fn classify_collectives(
    ts: &[Tt],
    group_recv: &BTreeSet<String>,
    world: &mut Option<String>,
    group: &mut Option<String>,
) {
    for (i, t) in ts.iter().enumerate() {
        if let Tt::Ident { text, .. } = t {
            if COLLECTIVES.contains(&text.as_str())
                && matches!(ts.get(i + 1), Some(Tt::Group { delim: Delim::Paren, .. }))
            {
                let on_group = i >= 2
                    && ts[i - 1].is_punct(".")
                    && matches!(&ts[i - 2], Tt::Ident { text: r, .. } if group_recv.contains(r));
                let slot = if on_group { &mut *group } else { &mut *world };
                if slot.is_none() {
                    *slot = Some(text.clone());
                }
            }
        }
        if let Tt::Group { tokens: inner, .. } = t {
            classify_collectives(inner, group_recv, world, group);
        }
    }
}

/// Identifiers bound by `let x = ….split(…)` anywhere in the body,
/// including inside branch arms and loop bodies.
fn collect_split_bindings(stmts: &[syn::Stmt], out: &mut BTreeSet<String>) {
    use syn::{Expr, Stmt};
    for s in stmts {
        match s {
            Stmt::Let { names, init, else_block, .. } => {
                if let Some(e) = init {
                    if let Expr::Opaque { tokens, .. } = e {
                        let n = tokens.len();
                        let is_split = n >= 2
                            && tokens.get(n - 2).is_some_and(|t| t.is_ident("split"))
                            && matches!(
                                tokens.get(n - 1),
                                Some(Tt::Group { delim: Delim::Paren, .. })
                            );
                        if is_split {
                            out.extend(names.iter().cloned());
                        }
                    }
                    collect_expr_split_bindings(e, out);
                }
                if let Some(b) = else_block {
                    collect_split_bindings(b, out);
                }
            }
            Stmt::Expr(e) => collect_expr_split_bindings(e, out),
        }
    }
    fn collect_expr_split_bindings(e: &Expr, out: &mut BTreeSet<String>) {
        match e {
            Expr::If { then_branch, else_branch, .. } => {
                collect_split_bindings(then_branch, out);
                if let Some(e) = else_branch {
                    collect_expr_split_bindings(e, out);
                }
            }
            Expr::Match { arms, .. } => {
                for a in arms {
                    collect_split_bindings(&a.body, out);
                }
            }
            Expr::ForLoop { body, .. }
            | Expr::While { body, .. }
            | Expr::Loop { body, .. }
            | Expr::Block { stmts: body, .. } => collect_split_bindings(body, out),
            Expr::Chain { head, .. } => collect_expr_split_bindings(head, out),
            Expr::Return { .. }
            | Expr::Break { .. }
            | Expr::Continue { .. }
            | Expr::Opaque { .. } => {}
        }
    }
}

/// Every called name in a token sequence: `name(...)` and `.name(...)`,
/// recursing into all groups (closure bodies included).
pub fn collect_calls(tokens: &[Tt], out: &mut BTreeSet<String>) {
    for (i, t) in tokens.iter().enumerate() {
        if let Tt::Ident { text, .. } = t {
            if matches!(tokens.get(i + 1), Some(Tt::Group { delim: Delim::Paren, .. }))
                && !is_keyword(text)
            {
                out.insert(text.clone());
            }
        }
        if let Tt::Group { tokens: inner, .. } = t {
            collect_calls(inner, out);
        }
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(s, "if" | "while" | "for" | "match" | "return" | "in" | "as" | "fn" | "move")
}

/// Calls appearing in return position: `return <expr>` values and the
/// body's tail expression.
fn collect_return_position_calls(stmts: &[syn::Stmt], out: &mut BTreeSet<String>) {
    for ts in return_position_tokens(stmts) {
        collect_calls(&ts, out);
    }
}

fn return_position_has_rank_call(stmts: &[syn::Stmt]) -> bool {
    return_position_tokens(stmts).iter().any(|ts| has_rank_call(ts))
}

/// Does the token sequence contain a `.rank()` or `rank()` call?
pub fn has_rank_call(tokens: &[Tt]) -> bool {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("rank")
            && matches!(tokens.get(i + 1), Some(Tt::Group { delim: Delim::Paren, .. }))
        {
            return true;
        }
        if let Tt::Group { tokens: inner, delim, .. } = t {
            if *delim != Delim::Brace && has_rank_call(inner) {
                return true;
            }
        }
    }
    false
}

/// Token runs in return position: `return <tokens>` plus the tail
/// statement of the body (and, recursively, of its branch arms).
fn return_position_tokens(stmts: &[syn::Stmt]) -> Vec<Vec<Tt>> {
    use syn::{Expr, Stmt};
    let mut out = Vec::new();
    collect_returns(stmts, &mut out);
    if let Some(Stmt::Expr(tail)) = stmts.last() {
        tail_tokens(tail, &mut out);
    }
    return out;

    fn collect_returns(stmts: &[Stmt], out: &mut Vec<Vec<Tt>>) {
        for s in stmts {
            match s {
                Stmt::Let { else_block: Some(b), .. } => collect_returns(b, out),
                Stmt::Let { .. } => {}
                Stmt::Expr(e) => collect_expr_returns(e, out),
            }
        }
    }
    fn collect_expr_returns(e: &Expr, out: &mut Vec<Vec<Tt>>) {
        match e {
            Expr::Return { value, .. } => out.push(value.clone()),
            Expr::If { then_branch, else_branch, .. } => {
                collect_returns(then_branch, out);
                if let Some(e) = else_branch {
                    collect_expr_returns(e, out);
                }
            }
            Expr::Match { arms, .. } => {
                for a in arms {
                    collect_returns(&a.body, out);
                }
            }
            Expr::ForLoop { body, .. }
            | Expr::While { body, .. }
            | Expr::Loop { body, .. }
            | Expr::Block { stmts: body, .. } => collect_returns(body, out),
            Expr::Chain { head, .. } => collect_expr_returns(head, out),
            Expr::Break { .. } | Expr::Continue { .. } | Expr::Opaque { .. } => {}
        }
    }
    fn tail_tokens(e: &Expr, out: &mut Vec<Vec<Tt>>) {
        match e {
            Expr::Opaque { tokens, .. } => out.push(tokens.clone()),
            Expr::If { then_branch, else_branch, .. } => {
                if let Some(Stmt::Expr(t)) = then_branch.last() {
                    tail_tokens(t, out);
                }
                if let Some(e) = else_branch {
                    tail_tokens(e, out);
                }
            }
            Expr::Match { arms, .. } => {
                for a in arms {
                    if let Some(Stmt::Expr(t)) = a.body.last() {
                        tail_tokens(t, out);
                    }
                }
            }
            Expr::Block { stmts, .. } => {
                if let Some(Stmt::Expr(t)) = stmts.last() {
                    tail_tokens(t, out);
                }
            }
            _ => {}
        }
    }
}
