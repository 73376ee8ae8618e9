//! Statement-level control-flow graphs over the token stream.
//!
//! [`build_cfg`] lowers one function body (a brace-delimited token
//! range) into basic blocks of statements connected by edges for the
//! control constructs the passes care about: `if`/`else if`/`else`,
//! `match` arms, `loop`/`while`/`for` (with back edges and labeled
//! `break`/`continue`), `return`, and `?` (an extra edge to the exit
//! block from any statement that can early-return).
//!
//! This is an *approximation*, sound for the analyses built on it:
//!
//! * A statement is a top-level token run up to `;` (nested brace /
//!   paren / bracket groups are skipped), so `let x = if c { a } else
//!   { b };` is one straight-line statement — expression-level control
//!   flow inside a statement is not split here (the passes that need it
//!   split it with `passes::flow::branch_at`). Closure bodies likewise
//!   stay inside their statement.
//! * `match` is treated as exhaustive (no direct scrutinee → join
//!   edge); `if` without `else` gets the fall-through edge.
//! * A labeled `break`/`continue` targets its named loop; an unknown
//!   label falls back to the innermost loop.
//! * Anything the lowerer cannot classify (unbalanced brackets, a
//!   missing arm arrow, a stray `break`) abandons structure: the whole
//!   body becomes a single block whose statements are the naive `;`
//!   splits, flagged [`Cfg::fallback`]. Passes must degrade to their
//!   flow-insensitive behavior on fallback CFGs — in particular, no
//!   kill (zeroize, drop, bounds-check) may be trusted, because
//!   ordering is no longer known.
//!
//! Unreachable blocks (code after `return`, after a `loop` with no
//! `break`) end up with no predecessors; the solver leaves their entry
//! state `None` and flow-sensitive passes skip them.

use crate::items::{find_depth0, matching};
use crate::lexer::{Token, TokenKind};

/// What kind of statement this is, for transfer functions that treat
/// conditions or loop headers specially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// An ordinary statement (or tail expression).
    Normal,
    /// An `if`/`else if` condition.
    If,
    /// A `while` condition (loop header).
    While,
    /// A `for PAT in EXPR` header (loop header; binds the pattern).
    For,
    /// A `match` scrutinee.
    Match,
    /// One `match` arm's pattern (incl. any guard). Kept distinct from
    /// [`Role::Match`] so branch-condition rules don't treat pattern
    /// *bindings* (`Some(key) =>`) as secret-dependent branching.
    MatchArm,
}

/// One statement: a token range `[lo, hi)` into the file's stream.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// First token index (absolute, into `SourceFile::tokens`).
    pub lo: usize,
    /// One past the last token index.
    pub hi: usize,
    /// 1-based line of the first token.
    pub line: u32,
    /// Statement classification.
    pub role: Role,
}

/// A basic block: straight-line statements plus successor edges.
#[derive(Debug, Default, Clone)]
pub struct Block {
    /// Statements in execution order.
    pub stmts: Vec<Stmt>,
    /// Successor block indices.
    pub succs: Vec<usize>,
}

/// The control-flow graph of one function body.
#[derive(Debug)]
pub struct Cfg {
    /// All blocks; `blocks[entry]` is the entry.
    pub blocks: Vec<Block>,
    /// Entry block index.
    pub entry: usize,
    /// Synthetic exit block (no statements, no successors). `return`,
    /// `?` and the body's fall-through all edge here.
    pub exit: usize,
    /// The block whose end is the body's fall-through exit.
    pub tail: usize,
    /// True when structure could not be recovered and the CFG is the
    /// single-block over-approximation (see module docs).
    pub fallback: bool,
}

impl Cfg {
    /// Total number of statements across all blocks.
    pub fn stmt_count(&self) -> usize {
        self.blocks.iter().map(|b| b.stmts.len()).sum()
    }

    /// Predecessor lists, computed on demand.
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for &s in &b.succs {
                preds[s].push(i);
            }
        }
        preds
    }
}

/// Builds the CFG for a function body given as the `(open, close)`
/// token indices of its braces (see `FnItem::body`).
pub fn build_cfg(tokens: &[Token], body: (usize, usize)) -> Cfg {
    let (open, close) = body;
    let interior = (open + 1, close.min(tokens.len()));
    let mut b = Builder {
        toks: tokens,
        blocks: vec![Block::default(), Block::default()],
        exit: 1,
        loops: Vec::new(),
        failed: false,
    };
    let last = b.lower(interior.0, interior.1, 0);
    if b.failed || b.blocks.len() > MAX_BLOCKS {
        return fallback_cfg(tokens, interior);
    }
    b.edge(last, b.exit);
    Cfg {
        blocks: b.blocks,
        entry: 0,
        exit: 1,
        tail: last,
        fallback: false,
    }
}

/// Runaway guard: no hand-written function needs this many blocks.
const MAX_BLOCKS: usize = 4096;

/// The single-block over-approximation: naive `;` splits, no edges
/// except entry → exit.
fn fallback_cfg(tokens: &[Token], interior: (usize, usize)) -> Cfg {
    let mut stmts = Vec::new();
    let mut lo = interior.0;
    for j in interior.0..interior.1 {
        if tokens[j].is_punct(";") {
            stmts.push(Stmt {
                lo,
                hi: j + 1,
                line: tokens.get(lo).map_or(0, |t| t.line),
                role: Role::Normal,
            });
            lo = j + 1;
        }
    }
    if lo < interior.1 {
        stmts.push(Stmt {
            lo,
            hi: interior.1,
            line: tokens.get(lo).map_or(0, |t| t.line),
            role: Role::Normal,
        });
    }
    Cfg {
        blocks: vec![
            Block {
                stmts,
                succs: vec![1],
            },
            Block::default(),
        ],
        entry: 0,
        tail: 0,
        exit: 1,
        fallback: true,
    }
}

struct LoopCtx {
    label: Option<String>,
    head: usize,
    /// Blocks that `break` out of this loop; connected to the
    /// after-block once the loop is fully lowered.
    breaks: Vec<usize>,
}

struct Builder<'a> {
    toks: &'a [Token],
    blocks: Vec<Block>,
    exit: usize,
    loops: Vec<LoopCtx>,
    failed: bool,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn push_stmt(&mut self, block: usize, lo: usize, hi: usize, role: Role) {
        if lo >= hi {
            return;
        }
        self.blocks[block].stmts.push(Stmt {
            lo,
            hi,
            line: self.toks[lo].line,
            role,
        });
    }

    /// Lowers the token range `[i, end)` (a block interior) starting in
    /// `cur`; returns the fall-through block (which may be a fresh
    /// predecessor-less block if the range diverges).
    fn lower(&mut self, mut i: usize, end: usize, mut cur: usize) -> usize {
        while i < end && !self.failed {
            let t = &self.toks[i];
            if t.is_punct(";") {
                i += 1;
                continue;
            }
            if t.is_punct("{") {
                // Bare block.
                let Some(close) = matching(self.toks, i, "{", "}") else {
                    self.failed = true;
                    return cur;
                };
                cur = self.lower(i + 1, close.min(end), cur);
                i = close + 1;
                continue;
            }
            // `'label: loop/while/for`.
            if t.kind == TokenKind::Lifetime
                && self.toks.get(i + 1).is_some_and(|n| n.is_punct(":"))
                && self
                    .toks
                    .get(i + 2)
                    .is_some_and(|n| n.is_ident("loop") || n.is_ident("while") || n.is_ident("for"))
            {
                let label = Some(t.text.clone());
                let (ni, nc) = self.lower_loop(i + 2, end, cur, label);
                i = ni;
                cur = nc;
                continue;
            }
            if t.kind == TokenKind::Ident {
                match t.text.as_str() {
                    "if" => {
                        let (ni, nc) = self.lower_if(i, end, cur);
                        i = ni;
                        cur = nc;
                        continue;
                    }
                    "match" => {
                        let (ni, nc) = self.lower_match(i, end, cur);
                        i = ni;
                        cur = nc;
                        continue;
                    }
                    "loop" | "while" | "for" => {
                        let (ni, nc) = self.lower_loop(i, end, cur, None);
                        i = ni;
                        cur = nc;
                        continue;
                    }
                    "return" => {
                        let hi = self.stmt_end(i, end);
                        self.push_stmt(cur, i, hi, Role::Normal);
                        self.edge(cur, self.exit);
                        cur = self.new_block(); // unreachable continuation
                        i = hi;
                        continue;
                    }
                    "break" | "continue" => {
                        let hi = self.stmt_end(i, end);
                        self.push_stmt(cur, i, hi, Role::Normal);
                        let label = self
                            .toks
                            .get(i + 1)
                            .filter(|n| n.kind == TokenKind::Lifetime)
                            .map(|n| n.text.clone());
                        let Some(target) = self.loop_target(label.as_deref()) else {
                            // `break` outside any loop: structure lost.
                            self.failed = true;
                            return cur;
                        };
                        if self.toks[i].is_ident("break") {
                            self.loops[target].breaks.push(cur);
                        } else {
                            let head = self.loops[target].head;
                            self.edge(cur, head);
                        }
                        cur = self.new_block();
                        i = hi;
                        continue;
                    }
                    _ => {}
                }
            }
            // Ordinary statement.
            let hi = self.stmt_end(i, end);
            self.push_stmt(cur, i, hi, Role::Normal);
            if self.range_may_early_return(i, hi) {
                self.edge(cur, self.exit);
            }
            // A statement-initial `return` is handled above; an embedded
            // diverging expression keeps the fall-through conservatively.
            i = hi;
        }
        cur
    }

    /// Innermost loop matching `label` (or just innermost when `None`
    /// or unknown).
    fn loop_target(&self, label: Option<&str>) -> Option<usize> {
        if let Some(l) = label {
            if let Some(idx) = self
                .loops
                .iter()
                .rposition(|c| c.label.as_deref() == Some(l))
            {
                return Some(idx);
            }
        }
        self.loops.len().checked_sub(1)
    }

    /// End (exclusive) of the ordinary statement starting at `i`: the
    /// token after the first `;` at group depth 0, or the end of the
    /// range.
    fn stmt_end(&self, i: usize, end: usize) -> usize {
        let stop = |t: &Token| [";", "}", ")", "]"].iter().any(|p| t.is_punct(p));
        match find_depth0(self.toks, i, end, stop) {
            Some(j) if self.toks[j].is_punct(";") => j + 1,
            Some(j) => j, // tail expression at block end
            None => end,
        }
    }

    /// Does `[lo, hi)` contain a `?` or an embedded `return` (an early
    /// exit from inside an otherwise ordinary statement)?
    fn range_may_early_return(&self, lo: usize, hi: usize) -> bool {
        self.toks[lo..hi]
            .iter()
            .any(|t| t.is_punct("?") || t.is_ident("return"))
    }

    /// Finds the `{` opening the body after a condition starting at
    /// `from` (group depth 0; conditions cannot contain bare struct
    /// literals, so the first depth-0 `{` is the body).
    fn body_open(&self, from: usize, end: usize) -> Option<usize> {
        // `if let` / `while let`: the *pattern* side may contain struct
        // braces (`WorkItem::Settle { .. }`), so skip to the binding's
        // `=` first — the scrutinee expression after it, like plain
        // conditions, cannot contain a bare struct literal. (`..=` and
        // `=>` lex as single tokens, so a lone `=` is unambiguous.)
        let mut j = from;
        if self.toks.get(from).is_some_and(|t| t.is_ident("let")) {
            j = find_depth0(self.toks, from + 1, end, |t| t.is_punct("=")).map_or(from, |k| k + 1);
        }
        find_depth0(self.toks, j, end, |t| t.is_punct("{"))
    }

    /// Lowers an `if`/`else if`/`else` chain starting at the `if` token
    /// `i`; returns `(resume index, join block)`.
    fn lower_if(&mut self, mut i: usize, end: usize, mut cur: usize) -> (usize, usize) {
        let mut branch_exits: Vec<usize> = Vec::new();
        let resume;
        loop {
            // `i` is at `if`.
            let Some(open) = self.body_open(i + 1, end) else {
                self.failed = true;
                return (end, cur);
            };
            let Some(close) = matching(self.toks, open, "{", "}") else {
                self.failed = true;
                return (end, cur);
            };
            self.push_stmt(cur, i + 1, open, Role::If);
            if self.range_may_early_return(i + 1, open) {
                self.edge(cur, self.exit);
            }
            let then_entry = self.new_block();
            self.edge(cur, then_entry);
            let then_exit = self.lower(open + 1, close, then_entry);
            branch_exits.push(then_exit);
            // `else`?
            if self.toks.get(close + 1).is_some_and(|t| t.is_ident("else")) {
                if self.toks.get(close + 2).is_some_and(|t| t.is_ident("if")) {
                    // `else if`: evaluate the next condition in a block
                    // reached only when this one was false.
                    let else_entry = self.new_block();
                    self.edge(cur, else_entry);
                    cur = else_entry;
                    i = close + 2;
                    continue;
                }
                let Some(eopen) = self
                    .toks
                    .get(close + 2)
                    .filter(|t| t.is_punct("{"))
                    .map(|_| close + 2)
                else {
                    self.failed = true;
                    return (end, cur);
                };
                let Some(eclose) = matching(self.toks, eopen, "{", "}") else {
                    self.failed = true;
                    return (end, cur);
                };
                let else_entry = self.new_block();
                self.edge(cur, else_entry);
                let else_exit = self.lower(eopen + 1, eclose, else_entry);
                branch_exits.push(else_exit);
                resume = eclose + 1;
            } else {
                // No else: the condition block falls through.
                branch_exits.push(cur);
                resume = close + 1;
            }
            break;
        }
        let join = self.new_block();
        for e in branch_exits {
            self.edge(e, join);
        }
        (resume, join)
    }

    /// Lowers a `match` starting at the keyword; returns
    /// `(resume index, join block)`.
    fn lower_match(&mut self, i: usize, end: usize, cur: usize) -> (usize, usize) {
        let Some(open) = self.body_open(i + 1, end) else {
            self.failed = true;
            return (end, cur);
        };
        let Some(close) = matching(self.toks, open, "{", "}") else {
            self.failed = true;
            return (end, cur);
        };
        self.push_stmt(cur, i + 1, open, Role::Match);
        if self.range_may_early_return(i + 1, open) {
            self.edge(cur, self.exit);
        }
        let mut arm_exits: Vec<usize> = Vec::new();
        let mut j = open + 1;
        while j < close && !self.failed {
            if self.toks[j].is_punct(",") {
                j += 1;
                continue;
            }
            // Pattern (and optional guard) up to `=>` at depth 0.
            let Some(arrow) = find_depth0(self.toks, j, close, |t| t.is_punct("=>")) else {
                self.failed = true;
                return (end, cur);
            };
            let arm = self.new_block();
            self.edge(cur, arm);
            self.push_stmt(arm, j, arrow, Role::MatchArm);
            let body_start = arrow + 1;
            let exit = if self.toks.get(body_start).is_some_and(|t| t.is_punct("{")) {
                let Some(bclose) = matching(self.toks, body_start, "{", "}") else {
                    self.failed = true;
                    return (end, cur);
                };
                j = bclose + 1;
                self.lower(body_start + 1, bclose, arm)
            } else {
                // Expression arm up to the depth-0 `,` (or the match end).
                let stop =
                    find_depth0(self.toks, body_start, close, |t| t.is_punct(",")).unwrap_or(close);
                j = stop + 1;
                self.lower(body_start, stop, arm)
            };
            arm_exits.push(exit);
        }
        // Rust matches are exhaustive: no direct scrutinee → join edge.
        let join = self.new_block();
        for e in arm_exits {
            self.edge(e, join);
        }
        (close + 1, join)
    }

    /// Lowers `loop`/`while`/`for` starting at the keyword; returns
    /// `(resume index, after block)`.
    fn lower_loop(
        &mut self,
        i: usize,
        end: usize,
        cur: usize,
        label: Option<String>,
    ) -> (usize, usize) {
        let kw = self.toks[i].text.clone();
        let Some(open) = self.body_open(i + 1, end) else {
            self.failed = true;
            return (end, cur);
        };
        let Some(close) = matching(self.toks, open, "{", "}") else {
            self.failed = true;
            return (end, cur);
        };
        let head = self.new_block();
        self.edge(cur, head);
        let role = match kw.as_str() {
            "while" => Role::While,
            "for" => Role::For,
            _ => Role::Normal,
        };
        self.push_stmt(head, i + 1, open, role);
        if kw != "loop" && self.range_may_early_return(i + 1, open) {
            self.edge(head, self.exit);
        }
        self.loops.push(LoopCtx {
            label,
            head,
            breaks: Vec::new(),
        });
        let body_entry = self.new_block();
        self.edge(head, body_entry);
        let body_exit = self.lower(open + 1, close, body_entry);
        self.edge(body_exit, head); // back edge
        let ctx = self.loops.pop().expect("loop ctx pushed above");
        let after = self.new_block();
        if kw != "loop" {
            // Condition false / iterator exhausted.
            self.edge(head, after);
        }
        for b in ctx.breaks {
            self.edge(b, after);
        }
        (close + 1, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Builds the CFG of the first fn in `src`.
    fn cfg_of(src: &str) -> (Vec<Token>, Cfg) {
        let lexed = lex(src);
        let items = crate::items::parse_items(&lexed.tokens);
        let body = items.fns[0].body.expect("fn has a body");
        let cfg = build_cfg(&lexed.tokens, body);
        (lexed.tokens, cfg)
    }

    /// All statement texts of one block, joined.
    fn block_text(toks: &[Token], cfg: &Cfg, b: usize) -> String {
        cfg.blocks[b]
            .stmts
            .iter()
            .flat_map(|s| toks[s.lo..s.hi].iter().map(|t| t.text.as_str()))
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn straight_line_is_one_block() {
        let (_, cfg) = cfg_of("fn f() { let a = 1; let b = a + 2; b }");
        assert!(!cfg.fallback);
        assert_eq!(cfg.blocks[cfg.entry].stmts.len(), 3);
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![cfg.exit]);
    }

    #[test]
    fn if_else_diamonds_join() {
        let (toks, cfg) = cfg_of("fn f(c: bool) { if c { one(); } else { two(); } after(); }");
        assert!(!cfg.fallback);
        // entry(cond) -> then, else; both -> join(after) -> exit.
        let entry = &cfg.blocks[cfg.entry];
        assert_eq!(entry.stmts.len(), 1);
        assert_eq!(entry.stmts[0].role, Role::If);
        assert_eq!(entry.succs.len(), 2);
        let mut joins: Vec<usize> = entry
            .succs
            .iter()
            .map(|&s| {
                assert_eq!(cfg.blocks[s].succs.len(), 1);
                cfg.blocks[s].succs[0]
            })
            .collect();
        joins.dedup();
        assert_eq!(joins.len(), 1);
        assert!(block_text(&toks, &cfg, joins[0]).contains("after"));
    }

    #[test]
    fn if_let_struct_pattern_brace_is_not_the_body() {
        // The pattern's `{ .. }` must not be mistaken for the branch
        // body: the condition stays one stmt and the body's two calls
        // become separate stmts in the then-block.
        let (toks, cfg) =
            cfg_of("fn f(item: Item) { if let Item::Settle { ok, .. } = item { a(); b(); } }");
        assert!(!cfg.fallback);
        let entry = &cfg.blocks[cfg.entry];
        assert_eq!(entry.stmts.len(), 1);
        assert_eq!(entry.stmts[0].role, Role::If);
        assert_eq!(entry.succs.len(), 2);
        let then = entry
            .succs
            .iter()
            .copied()
            .find(|&s| block_text(&toks, &cfg, s).contains("a"))
            .expect("then block");
        assert_eq!(cfg.blocks[then].stmts.len(), 2);
        assert!(block_text(&toks, &cfg, then).contains("b"));
    }

    #[test]
    fn if_without_else_falls_through() {
        let (_, cfg) = cfg_of("fn f(c: bool) { if c { one(); } after(); }");
        let entry = &cfg.blocks[cfg.entry];
        // cond -> then and cond -> join (the fall-through edge).
        assert_eq!(entry.succs.len(), 2);
    }

    #[test]
    fn match_arms_fan_out_without_scrutinee_join_edge() {
        let (toks, cfg) = cfg_of(
            "fn f(v: u8) { match v { 0 => zero(), 1 => { one(); } _ => other(), } after(); }",
        );
        assert!(!cfg.fallback);
        let entry = &cfg.blocks[cfg.entry];
        assert_eq!(entry.stmts[0].role, Role::Match);
        assert_eq!(entry.succs.len(), 3, "three arms");
        // The join must not be a direct successor of the scrutinee block.
        for &arm in &entry.succs {
            assert!(
                !block_text(&toks, &cfg, arm).contains("after"),
                "arm blocks hold arm code only"
            );
        }
    }

    #[test]
    fn loops_have_back_edges_and_break_targets() {
        let (toks, cfg) = cfg_of("fn f() { loop { step(); if done() { break; } } after(); }");
        assert!(!cfg.fallback);
        // Some block must edge back to the loop head, and the after
        // block must be reachable only via the break.
        let after = (0..cfg.blocks.len())
            .find(|&b| block_text(&toks, &cfg, b).contains("after"))
            .expect("after block");
        let preds = cfg.preds();
        assert_eq!(preds[after].len(), 1, "only the break reaches after");
        let breaker = preds[after][0];
        assert!(block_text(&toks, &cfg, breaker).contains("break"));
    }

    #[test]
    fn while_condition_exits_to_after() {
        let (toks, cfg) = cfg_of("fn f(n: u32) { while n > 0 { work(); } after(); }");
        let head = (0..cfg.blocks.len())
            .find(|&b| cfg.blocks[b].stmts.iter().any(|s| s.role == Role::While))
            .expect("while head");
        // Head edges to both the body and the after block.
        assert_eq!(cfg.blocks[head].succs.len(), 2);
        let after = (0..cfg.blocks.len())
            .find(|&b| block_text(&toks, &cfg, b).contains("after"))
            .expect("after block");
        assert!(cfg.blocks[head].succs.contains(&after));
    }

    #[test]
    fn labeled_break_targets_the_outer_loop() {
        let (toks, cfg) = cfg_of(
            "fn f() { 'outer: loop { loop { if c() { break 'outer; } inner(); } } after(); }",
        );
        assert!(!cfg.fallback);
        let after = (0..cfg.blocks.len())
            .find(|&b| block_text(&toks, &cfg, b).contains("after"))
            .expect("after block");
        let preds = cfg.preds();
        // Reached via the labeled break (from inside the inner loop),
        // not via the inner loop's after-block.
        assert_eq!(preds[after].len(), 1);
        assert!(block_text(&toks, &cfg, preds[after][0]).contains("break"));
    }

    #[test]
    fn return_diverges_and_question_mark_edges_to_exit() {
        let (toks, cfg) = cfg_of(
            "fn f(c: bool) -> Result<u32, E> { if c { return Err(e); } let v = parse()?; Ok(v) }",
        );
        assert!(!cfg.fallback);
        let ret_block = (0..cfg.blocks.len())
            .find(|&b| block_text(&toks, &cfg, b).contains("return"))
            .expect("return block");
        assert_eq!(cfg.blocks[ret_block].succs, vec![cfg.exit]);
        let q_block = (0..cfg.blocks.len())
            .find(|&b| block_text(&toks, &cfg, b).contains("parse"))
            .expect("? block");
        assert!(cfg.blocks[q_block].succs.contains(&cfg.exit), "? edge");
    }

    #[test]
    fn code_after_return_is_unreachable() {
        let (toks, cfg) = cfg_of("fn f() { return; dead(); }");
        let dead = (0..cfg.blocks.len())
            .find(|&b| block_text(&toks, &cfg, b).contains("dead"))
            .expect("dead block");
        assert!(cfg.preds()[dead].is_empty());
    }

    #[test]
    fn expression_if_stays_inside_its_statement() {
        let (_, cfg) = cfg_of("fn f(c: bool) { let x = if c { 1 } else { 2 }; use_it(x); }");
        assert!(!cfg.fallback);
        assert_eq!(
            cfg.blocks[cfg.entry].stmts.len(),
            2,
            "let-if is one statement"
        );
    }

    #[test]
    fn stray_break_falls_back_to_single_block() {
        let (_, cfg) = cfg_of("fn f() { break; }");
        assert!(cfg.fallback);
        assert_eq!(cfg.blocks.len(), 2);
        assert!(!cfg.blocks[cfg.entry].stmts.is_empty());
    }

    #[test]
    fn if_let_chains_and_else_if_lower() {
        let (toks, cfg) = cfg_of(
            "fn f(o: Option<u32>) { if let Some(v) = o { a(v); } else if o.is_none() { b(); } else { c(); } done(); }",
        );
        assert!(!cfg.fallback);
        let done = (0..cfg.blocks.len())
            .find(|&b| block_text(&toks, &cfg, b).contains("done"))
            .expect("join block");
        // All three branches reach the join.
        assert_eq!(cfg.preds()[done].len(), 3);
    }
}
