//! `validate_folded` — structural validator for collapsed-stack
//! profiles written by `--profile-folded`.
//!
//! CI runs this against the quick-fig6 profile artifact to catch a
//! silently broken profiler before anyone feeds the file to flamegraph
//! tooling. Checks:
//!
//! * the file is non-empty and every line is `stack<space>weight`,
//! * no stack is empty and no frame within a stack is empty (a `;;` or
//!   trailing `;` renders as a blank flamegraph frame),
//! * every weight parses as a positive integer,
//! * the weights sum to exactly the `sampled_cycles` recorded in the
//!   `<path>.meta.json` sidecar — the profiler's core invariant
//!   (attributed time == sampled simulated time, nothing lost or
//!   double-counted).
//!
//! Usage: `validate_folded <profile.folded> [meta.json]` (the sidecar
//! defaults to `<profile.folded>.meta.json`). Exits nonzero with a
//! line naming the first problem.

use std::process::ExitCode;

use sdimm_telemetry::json::{self, Value};

fn fail(msg: &str) -> ExitCode {
    eprintln!("validate_folded: {msg}");
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        return fail("usage: validate_folded <profile.folded> [meta.json]");
    };
    let meta_path = args.next().unwrap_or_else(|| format!("{path}.meta.json"));

    let folded = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    if folded.trim().is_empty() {
        return fail(&format!("{path} is empty — the profiler recorded no samples"));
    }

    let mut total: u64 = 0;
    let mut stacks: u64 = 0;
    for (i, line) in folded.lines().enumerate() {
        let n = i + 1;
        let Some((stack, weight)) = line.rsplit_once(' ') else {
            return fail(&format!("{path}:{n}: no `stack weight` separator in {line:?}"));
        };
        if stack.is_empty() {
            return fail(&format!("{path}:{n}: empty stack"));
        }
        if stack.split(';').any(str::is_empty) {
            return fail(&format!("{path}:{n}: empty frame in stack {stack:?}"));
        }
        let w: u64 = match weight.parse() {
            Ok(w) if w > 0 => w,
            _ => return fail(&format!("{path}:{n}: bad weight {weight:?}")),
        };
        total += w;
        stacks += 1;
    }

    let meta = match std::fs::read_to_string(&meta_path).map(|text| json::parse(&text)) {
        Ok(Ok(meta)) => meta,
        Ok(Err(e)) => return fail(&format!("{meta_path}: {e}")),
        Err(e) => return fail(&format!("cannot read sidecar {meta_path}: {e}")),
    };
    let Some(sampled) = meta.get("sampled_cycles").and_then(Value::as_u64) else {
        return fail(&format!("{meta_path}: no integer `sampled_cycles` field"));
    };
    if total != sampled {
        return fail(&format!(
            "weight sum {total} != sampled_cycles {sampled} ({meta_path}) — the profiler \
             lost or double-counted simulated time"
        ));
    }
    if let Some(meta_stacks) = meta.get("stacks").and_then(Value::as_u64) {
        if meta_stacks != stacks {
            return fail(&format!("{stacks} stacks in {path} but sidecar claims {meta_stacks}"));
        }
    }

    println!(
        "validate_folded: OK — {stacks} stacks, {total} cycles attributed, \
         sum matches sampled_cycles"
    );
    ExitCode::SUCCESS
}
