//! The per-function rank-taint walk.
//!
//! Walks the statement tree of one function carrying:
//!
//! * **value taint** — identifiers derived from `rank()` (or a
//!   `gather_f64s` root-variant result). Binding a sanitizer call's
//!   result (`allreduce*`, `broadcast*`, `scan`, `allgather`) launders
//!   the taint: post-collective data is replicated by construction.
//! * **shape taint** — buffers whose *length* is rank-variant (tainted
//!   slice bounds, `vec![x; tainted]`). Shape taint does not propagate
//!   through function calls — that would chain every partition view into
//!   a false positive — only through aliasing and indexing.
//! * **request states** — every bound `isend/irecv/iallreduce` handle is
//!   Pending until a `wait`/`waitall` names it (pushing into a Vec
//!   tracks the collection; any other use escapes conservatively).
//! * **phase stack** — `enter_phase`/`exit_phase` balance.
//! * **divergence frames** — open rank-tainted branches. A frame is also
//!   pushed *persistently* when a rank-tainted branch has some-but-not-
//!   all arms diverge (return/break): the remainder of the function then
//!   only runs on a rank-dependent subset — the post-dominator form of
//!   collective divergence.
//!
//! Branches are walked on cloned contexts and joined: taints union,
//! request states join pessimistically (any-Pending stays Pending,
//! any-Escaped wins), and differing phase depths across non-diverging
//! arms are themselves a finding.

use std::collections::{BTreeMap, BTreeSet};

use syn::{Arm, Delim, Expr, ItemFn, Stmt, Tt};

use crate::summary::{collect_calls, has_rank_call, Summaries};
use crate::{
    FileRules, RawFinding, Severity, BLOCKING_COLLECTIVE, BLOCKING_SET, COLLECTIVES,
    COLLECTIVE_DIVERGENCE, PHASE_BALANCE, RANK_VARIANT_PAYLOAD, REQUEST_FNS, SANITIZERS,
    UNWAITED_REQUEST,
};

#[derive(Clone, PartialEq, Eq, Debug)]
enum Req {
    /// `collection` marks handles tracked through a `.push(…)` into a
    /// pre-existing Vec: the *binding* outlives any loop body, so only
    /// function exits (not iteration ends) require it waited.
    Pending {
        posted: usize,
        origin: String,
        collection: bool,
    },
    Waited,
    Escaped,
}

#[derive(Clone, Debug)]
struct Div {
    line: usize,
    desc: String,
}

#[derive(Clone, Default)]
struct Ctx {
    /// value-tainted identifier -> origin description
    tainted: BTreeMap<String, String>,
    /// shape-tainted identifier -> origin description
    shaped: BTreeMap<String, String>,
    reqs: BTreeMap<String, Req>,
    /// identifiers holding a split-child (sub-group) communicator:
    /// `sub`-named parameters plus `.split(...)` bindings
    subcomms: BTreeSet<String>,
    /// lines of currently-open `enter_phase` calls
    phases: Vec<usize>,
    /// open rank-tainted branch frames (innermost last)
    div: Vec<Div>,
    diverged: bool,
}

struct Walker<'a> {
    summaries: &'a Summaries,
    spmd: Option<Severity>,
    blocking: Option<Severity>,
    findings: Option<&'a mut Vec<RawFinding>>,
    loop_depth: usize,
    dedup: BTreeSet<(usize, String)>,
    /// count-only mode (for the divergent-on-tainted-param summary pass)
    divergence_hits: usize,
}

/// Walk one function with the file's rule set, appending findings.
pub(crate) fn walk_fn(
    item: &ItemFn,
    summaries: &Summaries,
    rules: &FileRules,
    out: &mut Vec<RawFinding>,
) {
    let downgrade =
        |s: Option<Severity>| s.map(|sev| if item.is_test { Severity::Warning } else { sev });
    let mut w = Walker {
        summaries,
        spmd: downgrade(rules.spmd),
        blocking: downgrade(rules.blocking_collective),
        findings: Some(out),
        loop_depth: 0,
        dedup: BTreeSet::new(),
        divergence_hits: 0,
    };
    let mut ctx = Ctx::default();
    seed_subcomm_params(&item.params, &mut ctx);
    // A request call in tail-return position of a handle-returning
    // function (`-> Request`, `-> C::Req`, …) escapes to the caller —
    // whose own walk holds it to the wait-on-every-path rule — so it is
    // not a dropped handle here.
    let returns_handle = summaries.get(&item.name).is_some_and(|s| s.returns_request);
    let escaping_tail = match item.body.split_last() {
        Some((Stmt::Expr(Expr::Opaque { tokens, .. }), init)) if returns_handle => {
            let is_request = outermost_call(tokens).is_some_and(|n| {
                REQUEST_FNS.contains(&n) || summaries.get(n).is_some_and(|s| s.returns_request)
            });
            is_request.then_some((init, tokens))
        }
        _ => None,
    };
    match escaping_tail {
        Some((init, tokens)) => {
            w.walk_block(init, &mut ctx);
            w.process_tokens(tokens, &mut ctx, true);
        }
        None => w.walk_block(&item.body, &mut ctx),
    }
    if !ctx.diverged {
        let end = item.body.last().map(stmt_line).unwrap_or(item.line);
        w.exit_checks(&mut ctx, end, "function end", true);
    }
}

/// Which parameters, if rank-tainted, put a collective under a
/// divergent branch? Walked once per parameter (count-only mode) so a
/// call site is flagged only when the taint lands on a parameter that
/// actually steers control flow around a collective — `&self`-style
/// communicator parameters are skipped (a "tainted" communicator is
/// meaningless; every rank's differs by construction).
pub(crate) fn divergent_param_indices(item: &ItemFn, summaries: &Summaries) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for (idx, p) in item.params.iter().enumerate() {
        if p == "comm" || p == "sub" || p == "world" || p.ends_with("comm") {
            continue;
        }
        let mut w = Walker {
            summaries,
            spmd: Some(Severity::Error),
            blocking: None,
            findings: None,
            loop_depth: 0,
            dedup: BTreeSet::new(),
            divergence_hits: 0,
        };
        let mut ctx = Ctx::default();
        seed_subcomm_params(&item.params, &mut ctx);
        ctx.tainted.insert(p.clone(), format!("parameter `{p}` assumed rank-variant"));
        w.walk_block(&item.body, &mut ctx);
        if w.divergence_hits > 0 {
            out.insert(idx);
        }
    }
    out
}

/// Parameters named `sub` (or `*sub`) carry a split-child communicator
/// by repo convention: their collectives synchronize the color group the
/// split carved out, not the world, so rank-dependent paths that mirror
/// the split's own partition are not world divergence (see
/// `handle_collective`, and `passes_group` for a split child passed on
/// to a helper). `comm`/`world` parameters get no such pass.
fn seed_subcomm_params(params: &[String], ctx: &mut Ctx) {
    for p in params {
        if p == "sub" || p.ends_with("sub") {
            ctx.subcomms.insert(p.clone());
        }
    }
}

fn stmt_line(s: &Stmt) -> usize {
    match s {
        Stmt::Let { line, .. } => *line,
        Stmt::Expr(e) => e.line(),
    }
}

impl<'a> Walker<'a> {
    fn emit(&mut self, f: RawFinding) {
        if f.rule == COLLECTIVE_DIVERGENCE {
            self.divergence_hits += 1;
        }
        if let Some(out) = self.findings.as_deref_mut() {
            out.push(f);
        }
    }

    fn once(&mut self, line: usize, key: String) -> bool {
        self.dedup.insert((line, key))
    }

    // -- blocks and statements ------------------------------------------

    fn walk_block(&mut self, stmts: &[Stmt], ctx: &mut Ctx) {
        for s in stmts {
            match s {
                Stmt::Let { names, init, else_block, line } => {
                    self.walk_let(names, init.as_ref(), else_block.as_deref(), *line, ctx);
                }
                Stmt::Expr(e) => self.walk_expr(e, ctx),
            }
        }
    }

    fn walk_let(
        &mut self,
        names: &[String],
        init: Option<&Expr>,
        else_block: Option<&[Stmt]>,
        line: usize,
        ctx: &mut Ctx,
    ) {
        let Some(init) = init else { return };
        let mut bound_taint: Option<String> = None;
        let mut bound_shape: Option<String> = None;
        let mut bound_subcomm = false;
        match init {
            Expr::Opaque { tokens, .. } => {
                let outer = outermost_call(tokens);
                bound_subcomm = outer == Some("split");
                let is_request = outer.is_some_and(|n| {
                    REQUEST_FNS.contains(&n)
                        || self.summaries.get(n).is_some_and(|i| i.returns_request)
                });
                if is_request {
                    if let (Some(name), Some(call)) = (names.first(), outer) {
                        ctx.reqs.insert(
                            name.clone(),
                            Req::Pending {
                                posted: line,
                                origin: call.to_string(),
                                collection: false,
                            },
                        );
                    }
                    self.process_tokens(tokens, ctx, true);
                } else {
                    self.process_tokens(tokens, ctx, false);
                }
                let sanitized = outer.is_some_and(|n| SANITIZERS.contains(&n));
                if !sanitized {
                    if let Some(desc) = self.taint_of(tokens, ctx) {
                        bound_taint = Some(desc);
                    } else if token_calls(tokens).contains("gather_f64s") {
                        bound_taint =
                            Some(format!("root-variant gather_f64s result bound at line {line}"));
                    }
                }
                bound_shape = self.shape_of(tokens, ctx, line);
            }
            other => {
                // Control-expression initializer: its value is
                // rank-variant iff the branch condition is.
                if let Some(desc) = self.control_cond_taint(other, ctx) {
                    bound_taint = Some(desc);
                }
                self.walk_expr(other, ctx);
            }
        }
        for n in names {
            match &bound_taint {
                Some(d) => {
                    ctx.tainted.insert(n.clone(), d.clone());
                }
                None => {
                    ctx.tainted.remove(n);
                }
            }
            match &bound_shape {
                Some(d) => {
                    ctx.shaped.insert(n.clone(), d.clone());
                }
                None => {
                    ctx.shaped.remove(n);
                }
            }
            if bound_subcomm {
                ctx.subcomms.insert(n.clone());
            } else {
                ctx.subcomms.remove(n);
            }
        }
        if let Some(eb) = else_block {
            // The else block of `let … else` must diverge; walk it on a
            // clone so its exits are checked but its state dies with it.
            let mut alt = ctx.clone();
            self.walk_block(eb, &mut alt);
        }
    }

    fn control_cond_taint(&mut self, e: &Expr, ctx: &Ctx) -> Option<String> {
        match e {
            Expr::If { cond, .. } => self.taint_of(cond, ctx),
            Expr::Match { scrutinee, .. } => self.taint_of(scrutinee, ctx),
            Expr::Chain { head, rest, .. } => {
                self.control_cond_taint(head, ctx).or_else(|| self.taint_of(rest, ctx))
            }
            Expr::Block { stmts, .. } => match stmts.last() {
                Some(Stmt::Expr(tail)) => self.control_cond_taint(tail, ctx),
                _ => None,
            },
            Expr::Opaque { tokens, .. } => self.taint_of(tokens, ctx),
            _ => None,
        }
    }

    fn walk_expr(&mut self, e: &Expr, ctx: &mut Ctx) {
        match e {
            Expr::If { cond, then_branch, else_branch, line } => {
                self.process_tokens(cond, ctx, false);
                let taint = self.taint_of(cond, ctx);
                let mut then_ctx = ctx.clone();
                if let Some(d) = &taint {
                    then_ctx.div.push(Div { line: *line, desc: d.clone() });
                    // `if let` binders of a tainted scrutinee are tainted.
                    if cond.first().is_some_and(|t| t.is_ident("let")) {
                        for b in syn::pattern_binders(cond) {
                            then_ctx.tainted.insert(b, d.clone());
                        }
                    }
                }
                self.walk_block(then_branch, &mut then_ctx);
                then_ctx.div.truncate(ctx.div.len());
                let mut else_ctx = ctx.clone();
                let has_else = else_branch.is_some();
                if let Some(eb) = else_branch {
                    if let Some(d) = &taint {
                        else_ctx.div.push(Div { line: *line, desc: d.clone() });
                    }
                    self.walk_expr(eb, &mut else_ctx);
                    else_ctx.div.truncate(ctx.div.len());
                }
                self.join2(ctx, then_ctx, else_ctx, has_else, taint, *line);
            }
            Expr::Match { scrutinee, arms, line } => {
                self.process_tokens(scrutinee, ctx, false);
                let taint = self.taint_of(scrutinee, ctx);
                self.walk_arms(arms, ctx, taint, *line);
            }
            Expr::ForLoop { pat, iter, body, line } => {
                self.process_tokens(iter, ctx, false);
                let taint = self.taint_of(iter, ctx);
                let mut body_ctx = ctx.clone();
                if let Some(d) = &taint {
                    body_ctx.div.push(Div { line: *line, desc: format!("loop bound: {d}") });
                    for b in syn::pattern_binders(pat) {
                        body_ctx.tainted.insert(b, d.clone());
                    }
                }
                self.walk_loop_body(body, ctx, body_ctx, *line, taint.is_some());
            }
            Expr::While { cond, body, line } => {
                self.process_tokens(cond, ctx, false);
                let taint = self.taint_of(cond, ctx);
                let mut body_ctx = ctx.clone();
                if let Some(d) = &taint {
                    body_ctx.div.push(Div { line: *line, desc: format!("loop condition: {d}") });
                    if cond.first().is_some_and(|t| t.is_ident("let")) {
                        for b in syn::pattern_binders(cond) {
                            body_ctx.tainted.insert(b, d.clone());
                        }
                    }
                }
                self.walk_loop_body(body, ctx, body_ctx, *line, taint.is_some());
            }
            Expr::Loop { body, line } => {
                let body_ctx = ctx.clone();
                self.walk_loop_body(body, ctx, body_ctx, *line, false);
            }
            Expr::Block { stmts, .. } => self.walk_block(stmts, ctx),
            Expr::Return { value, line } => {
                self.process_tokens(value, ctx, false);
                self.exit_checks(ctx, *line, "return", true);
                ctx.diverged = true;
            }
            Expr::Break { line } | Expr::Continue { line } => {
                let _ = line;
                ctx.diverged = true;
            }
            Expr::Chain { head, rest, .. } => {
                self.walk_expr(head, ctx);
                self.process_tokens(rest, ctx, false);
            }
            Expr::Opaque { tokens, line } => {
                // Re-assignment re-taints (or launders) an existing binding.
                if tokens.len() > 2 && tokens[1].is_punct("=") {
                    if let Some(name) = tokens[0].ident() {
                        let rhs = &tokens[2..];
                        self.process_tokens(rhs, ctx, false);
                        let sanitized =
                            outermost_call(rhs).is_some_and(|n| SANITIZERS.contains(&n));
                        match self.taint_of(rhs, ctx) {
                            Some(d) if !sanitized => {
                                ctx.tainted.insert(name.to_string(), d);
                            }
                            _ => {
                                ctx.tainted.remove(name);
                            }
                        }
                        return;
                    }
                }
                let _ = line;
                self.process_tokens(tokens, ctx, false);
            }
        }
    }

    fn walk_arms(&mut self, arms: &[Arm], ctx: &mut Ctx, taint: Option<String>, line: usize) {
        if arms.is_empty() {
            return;
        }
        let mut results: Vec<Ctx> = Vec::new();
        for arm in arms {
            let mut a = ctx.clone();
            self.process_tokens(&arm.guard, &mut a, false);
            let arm_taint = taint.clone().or_else(|| self.taint_of(&arm.guard, &a));
            if let Some(d) = &arm_taint {
                a.div.push(Div { line, desc: d.clone() });
                for b in syn::pattern_binders(&arm.pat) {
                    a.tainted.insert(b, d.clone());
                }
            }
            self.walk_block(&arm.body, &mut a);
            a.div.truncate(ctx.div.len());
            results.push(a);
        }
        self.join_many(ctx, results, taint, line);
    }

    fn walk_loop_body(
        &mut self,
        body: &[Stmt],
        ctx: &mut Ctx,
        mut body_ctx: Ctx,
        line: usize,
        _tainted: bool,
    ) {
        let phases_before = body_ctx.phases.len();
        let reqs_before: BTreeSet<String> = body_ctx.reqs.keys().cloned().collect();
        self.loop_depth += 1;
        self.walk_block(body, &mut body_ctx);
        self.loop_depth -= 1;
        body_ctx.div.truncate(ctx.div.len());
        if self.spmd.is_some()
            && body_ctx.phases.len() != phases_before
            && self.once(line, "loop-phase".into())
        {
            self.finding_phase(
                line,
                format!(
                    "loop body changes phase depth ({} -> {}): every iteration must balance \
                     enter_phase/exit_phase",
                    phases_before,
                    body_ctx.phases.len()
                ),
                "loop".into(),
            );
        }
        if self.spmd.is_some() {
            for (name, st) in &body_ctx.reqs {
                if reqs_before.contains(name) {
                    continue;
                }
                // Handles pushed into a collection declared before the
                // loop legitimately outlive the iteration (waitall after
                // the loop); only a `let`-bound handle dies with it.
                if let Req::Pending { posted, origin, collection: false } = st {
                    if self.once(*posted, format!("loop-req-{name}")) {
                        self.finding_request(
                            *posted,
                            format!(
                                "request `{name}` ({origin}, posted at line {posted}) is not \
                                 waited by the end of the loop body; its binding dies with the \
                                 iteration"
                            ),
                            name.clone(),
                        );
                    }
                }
            }
        }
        // Join the zero-iteration and walked-once states.
        let results = vec![body_ctx];
        self.join_many(ctx, results, None, line);
        ctx.diverged = false;
    }

    // -- joins ----------------------------------------------------------

    fn join2(
        &mut self,
        ctx: &mut Ctx,
        then_ctx: Ctx,
        else_ctx: Ctx,
        has_else: bool,
        taint: Option<String>,
        line: usize,
    ) {
        let mut arms = vec![then_ctx];
        // No else branch = an empty arm with the original state.
        arms.push(if has_else { else_ctx } else { ctx.clone() });
        self.join_many(ctx, arms, taint, line);
    }

    fn join_many(&mut self, ctx: &mut Ctx, arms: Vec<Ctx>, taint: Option<String>, line: usize) {
        let live: Vec<&Ctx> = arms.iter().filter(|a| !a.diverged).collect();
        // Phase depths must agree across all arms that fall through.
        if self.spmd.is_some() && live.len() > 1 {
            let first = live[0].phases.len();
            if live.iter().any(|a| a.phases.len() != first) && self.once(line, "phase-join".into())
            {
                let depths: Vec<String> = live.iter().map(|a| a.phases.len().to_string()).collect();
                self.finding_phase(
                    line,
                    format!(
                        "branch arms leave different phase depths ({}): \
                         enter_phase/exit_phase must balance on every path",
                        depths.join(" vs ")
                    ),
                    "branch".into(),
                );
            }
        }
        let any_live = !live.is_empty();
        let some_diverged = arms.iter().any(|a| a.diverged);
        // Adopt a live arm's phase stack (they agree, or we just reported).
        if let Some(l) = live.first() {
            ctx.phases = l.phases.clone();
        } else if let Some(a) = arms.first() {
            ctx.phases = a.phases.clone();
        }
        // Taints and shapes union.
        for a in &arms {
            for (k, v) in &a.tainted {
                ctx.tainted.entry(k.clone()).or_insert_with(|| v.clone());
            }
            for (k, v) in &a.shaped {
                ctx.shaped.entry(k.clone()).or_insert_with(|| v.clone());
            }
        }
        // Requests join pessimistically over live arms (a diverged arm
        // already had its exit checked).
        let mut keys: BTreeSet<String> = BTreeSet::new();
        for a in &arms {
            keys.extend(a.reqs.keys().cloned());
        }
        for k in keys {
            let states: Vec<&Req> = live.iter().filter_map(|a| a.reqs.get(&k)).collect();
            let joined = if states.is_empty() {
                arms.iter().find_map(|a| a.reqs.get(&k)).cloned()
            } else if states.iter().any(|s| matches!(s, Req::Escaped)) {
                Some(Req::Escaped)
            } else if let Some(p) = states.iter().find(|s| matches!(s, Req::Pending { .. })) {
                Some((*p).clone())
            } else {
                Some(Req::Waited)
            };
            if let Some(j) = joined {
                ctx.reqs.insert(k, j);
            }
        }
        ctx.diverged = !any_live;
        // Post-dominator divergence: a rank-tainted branch where some
        // (but not all) arms diverge leaves the rest of the function
        // running on a rank-dependent subset of ranks.
        if let Some(d) = taint {
            if some_diverged && any_live {
                ctx.div.push(Div {
                    line,
                    desc: format!("rank-dependent early exit at line {line}: {d}"),
                });
            }
        }
    }

    // -- exits ----------------------------------------------------------

    fn exit_checks(&mut self, ctx: &mut Ctx, line: usize, kind: &str, check_phases: bool) {
        if self.spmd.is_none() {
            return;
        }
        for (name, st) in &ctx.reqs {
            if let Req::Pending { posted, origin, .. } = st {
                if self.once(line, format!("exit-req-{name}")) {
                    self.finding_request(
                        line,
                        format!(
                            "request `{name}` ({origin}, posted at line {posted}) is not \
                             waited before {kind}"
                        ),
                        name.clone(),
                    );
                }
            }
        }
        if check_phases {
            for opened in ctx.phases.clone() {
                if self.once(line, format!("exit-phase-{opened}")) {
                    self.finding_phase(
                        line,
                        format!("phase entered at line {opened} is still open at {kind}"),
                        "enter_phase".into(),
                    );
                }
            }
        }
    }

    // -- token-level scanning -------------------------------------------

    /// Scan an opaque token run: collective call sites (divergence,
    /// payload shapes, blocking-in-loop), request posting/waiting/escape,
    /// phase push/pop, `?` early exits, and nested closure bodies.
    fn process_tokens(&mut self, ts: &[Tt], ctx: &mut Ctx, suppress_outermost_request: bool) {
        let mut i = 0;
        while i < ts.len() {
            // `?` is a fn-level early exit for pending requests.
            if ts[i].is_punct("?") {
                self.exit_checks(ctx, ts[i].line(), "`?` exit", false);
                i += 1;
                continue;
            }
            // Method or path call: Ident + ParenGroup.
            if let (Some(name), Some(Tt::Group { delim: Delim::Paren, tokens: args, .. })) =
                (ts[i].ident().map(str::to_string), ts.get(i + 1))
            {
                let line = ts[i].line();
                let is_outermost = i + 2 == ts.len();
                match name.as_str() {
                    "push" => {
                        let inner_req = outermost_call(args).is_some_and(|n| {
                            REQUEST_FNS.contains(&n)
                                || self.summaries.get(n).is_some_and(|s| s.returns_request)
                        });
                        if inner_req {
                            if let Some(recv) = receiver_ident(ts, i) {
                                ctx.reqs.insert(
                                    recv,
                                    Req::Pending {
                                        posted: line,
                                        origin: outermost_call(args)
                                            .unwrap_or("request")
                                            .to_string(),
                                        collection: true,
                                    },
                                );
                            }
                            self.process_tokens(args, ctx, true);
                            i += 2;
                            continue;
                        }
                    }
                    "wait" | "waitall" => {
                        let mut named = BTreeSet::new();
                        idents_in(args, &mut named);
                        if let Some(recv) = receiver_ident(ts, i) {
                            named.insert(recv);
                        }
                        for n in named {
                            if ctx.reqs.contains_key(&n) {
                                ctx.reqs.insert(n, Req::Waited);
                            }
                        }
                        i += 2;
                        continue;
                    }
                    "enter_phase" => {
                        ctx.phases.push(line);
                        i += 2;
                        continue;
                    }
                    "exit_phase" => {
                        if ctx.phases.pop().is_none()
                            && self.spmd.is_some()
                            && self.once(line, "exit-unopened".into())
                        {
                            self.finding_phase(
                                line,
                                "exit_phase with no open phase on this path".into(),
                                "exit_phase".into(),
                            );
                        }
                        i += 2;
                        continue;
                    }
                    _ => {}
                }
                if COLLECTIVES.contains(&name.as_str()) {
                    let recv = receiver_ident(ts, i);
                    self.handle_collective(&name, args, line, recv, ctx);
                    if REQUEST_FNS.contains(&name.as_str())
                        && !(suppress_outermost_request && is_outermost)
                    {
                        self.request_dropped(&name, line);
                    }
                    self.process_tokens(args, ctx, false);
                    i += 2;
                    continue;
                }
                if REQUEST_FNS.contains(&name.as_str()) {
                    if !(suppress_outermost_request && is_outermost) {
                        self.request_dropped(&name, line);
                    }
                    self.process_tokens(args, ctx, false);
                    i += 2;
                    continue;
                }
                // Workspace function with a summary.
                if let Some(info) = self.summaries.get(&name).cloned() {
                    if let Some(chain) = &info.collective {
                        // A split child passed as an argument runs the
                        // callee's collectives on that group, like a
                        // collective called on it directly.
                        if self.spmd.is_some() && !passes_group(args, &ctx.subcomms) {
                            self.divergence_at(
                                line,
                                ctx,
                                &format!("call to `{name}` (reaching collective `{chain}`)"),
                                &name,
                            );
                        }
                        // Transitive blocking calls are collective-
                        // divergence's business, not the legacy rule's.
                    }
                    if !info.divergent_params.is_empty() && self.spmd.is_some() {
                        // Positional: only an argument feeding a
                        // divergence-steering parameter is a finding.
                        let parts = syn::split_top(args, ",");
                        for &idx in &info.divergent_params {
                            let Some(part) = parts.get(idx) else { continue };
                            let Some(origin) = self.taint_of(part, ctx) else { continue };
                            if self.once(line, format!("div-arg-{name}-{idx}")) {
                                let sev = self.spmd.unwrap_or(Severity::Error);
                                let mut f = RawFinding::new(
                                    line,
                                    COLLECTIVE_DIVERGENCE,
                                    sev,
                                    format!(
                                        "rank-variant argument (position {idx}) passed to \
                                         `{name}`, which branches on that parameter around \
                                         a collective"
                                    ),
                                    format!("{name}(#{idx})"),
                                );
                                f.taint_trace = vec![origin];
                                self.emit(f);
                            }
                        }
                    }
                    if info.returns_request && !(suppress_outermost_request && is_outermost) {
                        self.request_dropped(&name, line);
                    }
                    self.process_tokens(args, ctx, false);
                    i += 2;
                    continue;
                }
                self.process_tokens(args, ctx, false);
                i += 2;
                continue;
            }
            match &ts[i] {
                // Plain identifier: a pending request used any other way
                // escapes the analysis (conservatively no finding).
                Tt::Ident { text, .. }
                    if matches!(ctx.reqs.get(text), Some(Req::Pending { .. }))
                        && !benign_request_use(ts, i) =>
                {
                    ctx.reqs.insert(text.clone(), Req::Escaped);
                }
                Tt::Group { delim: Delim::Brace, tokens, .. } => {
                    // Closure or block body inside an expression: walk it
                    // as real code (this is how `run_spmd(|comm| { … })`
                    // rank bodies are analyzed).
                    let stmts = syn::parse_stmts(tokens);
                    self.walk_block(&stmts, ctx);
                }
                Tt::Group { tokens, .. } => self.process_tokens(tokens, ctx, false),
                _ => {}
            }
            i += 1;
        }
    }

    fn handle_collective(
        &mut self,
        name: &str,
        args: &[Tt],
        line: usize,
        recv: Option<String>,
        ctx: &mut Ctx,
    ) {
        // A collective on a split child only synchronizes its color
        // group, whose membership is exactly the ranks the split sent
        // down this path — so a rank-dependent branch (the secede /
        // shrink pattern) is not world divergence for it. Payload-shape
        // and blocking rules still apply within the group.
        let on_group = recv.as_deref().is_some_and(|r| ctx.subcomms.contains(r));
        if self.spmd.is_some() {
            if !on_group {
                self.divergence_at(line, ctx, &format!("collective `{name}`"), name);
            }
            self.payload_checks(name, args, line, ctx);
        }
        if self.blocking_on_loop(name) && self.once(line, format!("blocking-{name}")) {
            let sev = self.blocking.unwrap_or(Severity::Error);
            self.emit(RawFinding::new(
                line,
                BLOCKING_COLLECTIVE,
                sev,
                format!(
                    "`.{name}(` inside a loop body pays a message latency per iteration: \
                     batch the payload or post `iallreduce_f64s`, or waive with \
                     `// lint:allow(blocking-collective): why`"
                ),
                name.to_string(),
            ));
        }
    }

    fn blocking_on_loop(&self, name: &str) -> bool {
        self.blocking.is_some() && self.loop_depth > 0 && BLOCKING_SET.contains(&name)
    }

    /// Rule 1 at a reachable collective: one finding per open divergence
    /// frame (anchored at the first collective that trips it).
    fn divergence_at(&mut self, line: usize, ctx: &Ctx, what: &str, culprit: &str) {
        let Some(frame) = ctx.div.last().cloned() else { return };
        if !self.once(frame.line, "divergence".into()) {
            return;
        }
        let sev = self.spmd.unwrap_or(Severity::Error);
        let mut f = RawFinding::new(
            line,
            COLLECTIVE_DIVERGENCE,
            sev,
            format!(
                "{what} is reachable under a rank-dependent branch (line {}): every rank \
                 must execute the same collective sequence",
                frame.line
            ),
            culprit.to_string(),
        );
        f.taint_trace = ctx.div.iter().map(|d| format!("line {}: {}", d.line, d.desc)).collect();
        self.emit(f);
    }

    /// Rule 4: rank-variant payload shapes at a collective call site.
    fn payload_checks(&mut self, name: &str, args: &[Tt], line: usize, ctx: &Ctx) {
        let sev = self.spmd.unwrap_or(Severity::Error);
        // (a) a rank-variant range width inside an index group
        if let Some(culprit) = self.tainted_bracket(args, ctx) {
            if self.once(line, format!("payload-br-{name}")) {
                let mut f = RawFinding::new(
                    line,
                    RANK_VARIANT_PAYLOAD,
                    sev,
                    format!(
                        "rank-tainted length/index expression in the payload of `{name}`: \
                         collective payload shapes must be identical on every rank"
                    ),
                    culprit.clone(),
                );
                if let Some(origin) = ctx.tainted.get(&culprit) {
                    f.taint_trace = vec![origin.clone()];
                }
                self.emit(f);
            }
            return;
        }
        // (b) a shape-tainted buffer passed whole
        let mut names = BTreeSet::new();
        idents_in(args, &mut names);
        if let Some(shaped) = names.iter().find(|n| ctx.shaped.contains_key(n.as_str())) {
            if self.once(line, format!("payload-sh-{name}")) {
                let mut f = RawFinding::new(
                    line,
                    RANK_VARIANT_PAYLOAD,
                    sev,
                    format!(
                        "buffer `{shaped}` with a rank-variant length is passed to `{name}`: \
                         collective payload shapes must be identical on every rank"
                    ),
                    shaped.clone(),
                );
                if let Some(origin) = ctx.shaped.get(shaped.as_str()) {
                    f.taint_trace = vec![origin.clone()];
                }
                self.emit(f);
            }
            return;
        }
        // (c) a split's colors are a collective argument, not a payload:
        // the color function must be the same on every rank, so no
        // rank-tainted value may feed it.
        if name == "split" {
            if let Some(t) = names.iter().find(|n| ctx.tainted.contains_key(n.as_str())) {
                if self.once(line, format!("payload-split-{name}")) {
                    let mut f = RawFinding::new(
                        line,
                        RANK_VARIANT_PAYLOAD,
                        sev,
                        format!(
                            "rank-tainted `{t}` feeds the colors of `split`: every rank must \
                             pass the same color function"
                        ),
                        t.clone(),
                    );
                    if let Some(origin) = ctx.tainted.get(t.as_str()) {
                        f.taint_trace = vec![origin.clone()];
                    }
                    self.emit(f);
                }
                return;
            }
        }
        // (d) rank() directly in a non-payload argument slot (e.g. a
        // rank-variant root, or a split's color function).
        if has_rank_call(args) && self.once(line, format!("payload-rk-{name}")) {
            self.emit(RawFinding::new(
                line,
                RANK_VARIANT_PAYLOAD,
                sev,
                format!(
                    "`rank()` appears in an argument of `{name}`: roots and counts at \
                     collective call sites must be rank-invariant"
                ),
                format!("{name}(rank())"),
            ));
        }
    }

    fn request_dropped(&mut self, name: &str, line: usize) {
        if self.spmd.is_none() || !self.once(line, format!("dropped-{name}")) {
            return;
        }
        let sev = self.spmd.unwrap_or(Severity::Error);
        self.emit(RawFinding::new(
            line,
            UNWAITED_REQUEST,
            sev,
            format!(
                "the `Request` returned by `{name}` is discarded without being bound or \
                 waited: the operation may never complete"
            ),
            name.to_string(),
        ));
    }

    fn finding_phase(&mut self, line: usize, message: String, culprit: String) {
        let sev = self.spmd.unwrap_or(Severity::Error);
        self.emit(RawFinding::new(line, PHASE_BALANCE, sev, message, culprit));
    }

    fn finding_request(&mut self, line: usize, message: String, culprit: String) {
        let sev = self.spmd.unwrap_or(Severity::Error);
        self.emit(RawFinding::new(line, UNWAITED_REQUEST, sev, message, culprit));
    }

    // -- taint ----------------------------------------------------------

    /// Is this expression rank-tainted? Returns a one-line origin
    /// description.
    ///
    /// The lattice tracks *structural* rank-dependence (values computed
    /// from the rank id), not content variance — in SPMD code every
    /// data value differs across ranks by design, so content taint
    /// would mark everything. Concretely:
    ///
    /// * tainted identifiers propagate through arithmetic, grouping
    ///   parens, indexing, and method-call *receivers* (`part.len()`);
    /// * they do NOT propagate through ordinary call *arguments*
    ///   (`estep(&view)` returns locally-computed content, assumed
    ///   structure-replicated) — except identity-like conversions
    ///   (`usize::from(x)`, `.clone()`…), which stay transparent;
    /// * `rank()` / returns-rank calls are taint sources at any depth,
    ///   including inside call arguments (`Partition::new(comm.rank())`
    ///   yields a rank-derived partition descriptor);
    /// * brace groups (struct literals, closure bodies) are skipped.
    fn taint_of(&self, ts: &[Tt], ctx: &Ctx) -> Option<String> {
        for (i, t) in ts.iter().enumerate() {
            match t {
                Tt::Ident { text, line } => {
                    let is_call =
                        matches!(ts.get(i + 1), Some(Tt::Group { delim: Delim::Paren, .. }));
                    if is_call {
                        if text == "rank" {
                            return Some(format!("rank() at line {line}"));
                        }
                        if self.summaries.returns_rank(text) {
                            return Some(format!("`{text}()` returns a rank-derived value"));
                        }
                        continue;
                    }
                    if let Some(origin) = ctx.tainted.get(text) {
                        return Some(format!("`{text}` is rank-tainted ({origin})"));
                    }
                    if let Some(origin) = ctx.shaped.get(text) {
                        return Some(format!("`{text}` has a rank-variant shape ({origin})"));
                    }
                }
                Tt::Group { delim: Delim::Paren, tokens, .. } => {
                    let callee = if i > 0 { ts[i - 1].ident() } else { None };
                    match callee {
                        Some(name) if !transparent_call(name) => {
                            // Opaque call arguments: only rank *sources*
                            // leak out, tainted idents do not.
                            if let Some(d) = self.rank_source_in(tokens) {
                                return Some(d);
                            }
                        }
                        _ => {
                            if let Some(d) = self.taint_of(tokens, ctx) {
                                return Some(d);
                            }
                        }
                    }
                }
                Tt::Group { delim: Delim::Bracket, tokens, .. } => {
                    if let Some(d) = self.taint_of(tokens, ctx) {
                        return Some(d);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// A `rank()` or returns-rank call at any (non-brace) depth.
    fn rank_source_in(&self, ts: &[Tt]) -> Option<String> {
        for (i, t) in ts.iter().enumerate() {
            match t {
                Tt::Ident { text, line } => {
                    if matches!(ts.get(i + 1), Some(Tt::Group { delim: Delim::Paren, .. })) {
                        if text == "rank" {
                            return Some(format!("rank() at line {line}"));
                        }
                        if self.summaries.returns_rank(text) {
                            return Some(format!("`{text}()` returns a rank-derived value"));
                        }
                    }
                }
                Tt::Group { delim, tokens, .. } if *delim != Delim::Brace => {
                    if let Some(d) = self.rank_source_in(tokens) {
                        return Some(d);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// A bracket group whose *range* has a rank-variant width; returns
    /// the culprit identifier (or "rank()").
    ///
    /// Exactly one variant side means a variant width (`&buf[..counts]`,
    /// `&data[offset..]` with tainted `offset`). Both sides variant is
    /// the block-decomposition idiom — `&data[r * n..(r + 1) * n]` —
    /// whose width is rank-invariant, and a plain index (`buf[r]`) never
    /// changes the payload length; neither is flagged.
    fn tainted_bracket(&self, ts: &[Tt], ctx: &Ctx) -> Option<String> {
        for t in ts {
            if let Tt::Group { delim, tokens, .. } = t {
                if *delim == Delim::Bracket {
                    if let Some(c) = self.variant_range(tokens, ctx) {
                        return Some(c);
                    }
                }
                if *delim != Delim::Brace {
                    if let Some(c) = self.tainted_bracket(tokens, ctx) {
                        return Some(c);
                    }
                }
            }
        }
        None
    }

    fn variant_range(&self, tokens: &[Tt], ctx: &Ctx) -> Option<String> {
        let split = tokens.iter().position(|t| t.is_punct("..") || t.is_punct("..="))?;
        let lo = self.range_side_culprit(&tokens[..split], ctx);
        let hi = self.range_side_culprit(&tokens[split + 1..], ctx);
        match (lo, hi) {
            (Some(c), None) | (None, Some(c)) => Some(c),
            _ => None,
        }
    }

    /// Range bounds are *lengths*, so plain conservative ident matching
    /// is right here (a bound of `f(part)` is rank-variant even though
    /// `f`'s result would launder value taint).
    fn range_side_culprit(&self, ts: &[Tt], ctx: &Ctx) -> Option<String> {
        if ts.is_empty() {
            return None;
        }
        if has_rank_call(ts) {
            return Some("rank()".into());
        }
        let mut names = BTreeSet::new();
        idents_in(ts, &mut names);
        names
            .iter()
            .find(|n| ctx.tainted.contains_key(n.as_str()) || ctx.shaped.contains_key(n.as_str()))
            .cloned()
    }

    /// Shape taint for a binding: aliasing a shaped buffer, indexing
    /// with a tainted range, or `vec![x; tainted]`. Deliberately does
    /// NOT propagate through function calls.
    fn shape_of(&self, ts: &[Tt], ctx: &Ctx, line: usize) -> Option<String> {
        // Alias: `let y = x;` / `let y = &mut x;`
        let idents: Vec<&str> = ts.iter().filter_map(Tt::ident).collect();
        if idents.len() == 1 && ts.len() <= 3 {
            if let Some(origin) = ctx.shaped.get(idents[0]) {
                return Some(origin.clone());
            }
        }
        // vec![x; tainted] — a macro bracket with a `;` and taint after it.
        for (i, t) in ts.iter().enumerate() {
            if t.is_ident("vec") && matches!(ts.get(i + 1), Some(p) if p.is_punct("!")) {
                if let Some(Tt::Group { tokens: inner, .. }) = ts.get(i + 2) {
                    if let Some(semi) = inner.iter().position(|t| t.is_punct(";")) {
                        if self.taint_of(&inner[semi + 1..], ctx).is_some() {
                            return Some(format!("rank-variant vec! length at line {line}"));
                        }
                    }
                }
            }
        }
        // Indexing with a rank-variant-width range: `&data[..n]`, tainted n.
        if self.tainted_bracket(ts, ctx).is_some() {
            return Some(format!("slice with rank-variant bounds at line {line}"));
        }
        None
    }
}

/// The outermost trailing call in a token run: `recv.chain().name(args)`
/// — the run's last token is the args group, the token before it the
/// callee name.
fn outermost_call(ts: &[Tt]) -> Option<&str> {
    let n = ts.len();
    if n >= 2 {
        if let (Some(Tt::Ident { text, .. }), Some(Tt::Group { delim: Delim::Paren, .. })) =
            (ts.get(n - 2), ts.get(n - 1))
        {
            return Some(text);
        }
    }
    None
}

/// The receiver identifier of a method call at `ts[i]`: the identifier
/// just before the `.`.
fn receiver_ident(ts: &[Tt], i: usize) -> Option<String> {
    if i >= 2 && ts[i - 1].is_punct(".") {
        if let Tt::Ident { text, .. } = &ts[i - 2] {
            return Some(text.clone());
        }
    }
    None
}

/// Does a call's argument list pass a split child — `sub`, `&sub` or
/// `&mut sub` with `sub` in `subcomms` — as one of its arguments? The
/// callee's collectives then run on that group, whatever the callee
/// names its parameter.
fn passes_group(args: &[Tt], subcomms: &BTreeSet<String>) -> bool {
    syn::split_top(args, ",").into_iter().any(|arg| {
        let rest: Vec<&Tt> =
            arg.iter().skip_while(|t| t.is_punct("&") || t.is_ident("mut")).collect();
        matches!(rest.as_slice(), [Tt::Ident { text, .. }] if subcomms.contains(text))
    })
}

/// Uses of a pending request ident that do not escape it.
fn benign_request_use(ts: &[Tt], i: usize) -> bool {
    // `reqs.push(…)` / `reqs.len()` / `comm.wait(&mut req)` arguments are
    // handled by the call scanner; here we only whitelist method-call
    // receivers of harmless methods and `&mut x` borrows (which feed
    // wait/waitall at an outer level).
    if matches!(ts.get(i + 1), Some(t) if t.is_punct("."))
        && matches!(
            ts.get(i + 2).and_then(|t| t.ident()),
            Some(
                "push"
                    | "wait"
                    | "waitall"
                    | "len"
                    | "is_empty"
                    | "as_mut_slice"
                    | "iter_mut"
                    | "last_mut"
                    | "clear"
            )
        )
    {
        return true;
    }
    if i >= 1 && ts[i - 1].is_ident("mut") && i >= 2 && ts[i - 2].is_punct("&") {
        return true;
    }
    false
}

/// All identifiers in a token run, recursively.
fn idents_in(ts: &[Tt], out: &mut BTreeSet<String>) {
    for t in ts {
        match t {
            Tt::Ident { text, .. } => {
                out.insert(text.clone());
            }
            Tt::Group { tokens, .. } => idents_in(tokens, out),
            _ => {}
        }
    }
}

/// Calls whose result keeps the taint of their arguments: identity-like
/// conversions and clamps. Everything else launders value taint (its
/// result is assumed structure-replicated — see `taint_of`).
fn transparent_call(name: &str) -> bool {
    matches!(
        name,
        "from"
            | "try_from"
            | "into"
            | "clone"
            | "cloned"
            | "copied"
            | "to_vec"
            | "to_owned"
            | "min"
            | "max"
            | "abs"
            | "Some"
            | "Ok"
            | "Err"
            | "unwrap"
            | "expect"
            | "unwrap_or"
            | "unwrap_or_else"
            | "saturating_add"
            | "saturating_sub"
            | "checked_add"
            | "checked_sub"
            | "wrapping_add"
            | "wrapping_sub"
            | "rem_euclid"
    )
}

/// Called names within a token run (free and method calls).
fn token_calls(ts: &[Tt]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_calls(ts, &mut out);
    out
}
