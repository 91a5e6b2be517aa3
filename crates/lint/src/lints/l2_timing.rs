//! L2 — timing-constant discipline.
//!
//! Inside `crates/dram` (the simulator) and `crates/audit` (the
//! independent replay checker), a comparison like `gap < 28` hard-codes a
//! DDR3 constraint that `config.rs` already names (`t_ras`). The moment
//! one side edits the named constant and the other keeps its literal, the
//! simulator and its auditor silently diverge — the auditor would bless
//! schedules the configuration forbids. So: cycle-named values may only be
//! compared against named constants. Literals `0` and `1` stay legal
//! (emptiness/monotonicity checks), as does arithmetic that *derives* from
//! named constants (`4 * t.t_rrd`), because the literal there is not a
//! direct comparison operand.

use super::PassInput;
use crate::lexer::TokKind;
use crate::walker::{lhs_ident, rhs_ident, rhs_token};
use crate::{Finding, Lint, TIMING_CRATES};

/// Smallest literal worth flagging: 0/1 are structural, not timing.
const MIN_SUSPECT: u128 = 2;

/// Runs the pass (no-op outside the timing crates).
pub fn check(input: &PassInput<'_>) -> Vec<Finding> {
    if !TIMING_CRATES.contains(&input.ctx.crate_name.as_str()) {
        return Vec::new();
    }
    let toks = input.toks;
    let mut findings = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Punct
            || !matches!(tok.text.as_str(), "<" | "<=" | ">" | ">=" | "==" | "!=")
        {
            continue;
        }
        // Direct operands only: an identifier (path tail) on one side and
        // an integer literal on the other.
        let lhs_id = lhs_ident(toks, i);
        let lhs_lit = (i > 0).then(|| &toks[i - 1]).and_then(int_value);
        let rhs_id = rhs_ident(toks, i);
        let rhs_lit = rhs_token(toks, i).and_then(int_value);

        let hit = match (lhs_id, lhs_lit, rhs_id, rhs_lit) {
            (Some(id), _, _, Some(v)) if crate::is_cycle_ident(id) && v >= MIN_SUSPECT => {
                Some((id, v))
            }
            (_, Some(v), Some(id), _) if crate::is_cycle_ident(id) && v >= MIN_SUSPECT => {
                Some((id, v))
            }
            _ => None,
        };
        let Some((id, v)) = hit else { continue };
        if let Some(f) = input.finding(
            Lint::TimingLiteral,
            tok.line,
            format!("cycle-typed `{id}` compared against raw literal `{v}`"),
            "reference the named constant from `crates/dram/src/config.rs` \
             (`Timing`, `WRITE_DRAIN_HI`, …) so simulator and auditor share one source, \
             or waive with `// lint: literal-ok(reason)`"
                .to_string(),
        ) {
            findings.push(f);
        }
    }
    findings
}

/// Integer value of a token, when it is an integer literal.
fn int_value(tok: &crate::lexer::Tok) -> Option<u128> {
    match tok.kind {
        TokKind::Int(v) => v,
        _ => None,
    }
}
