//! Deterministic renderings of a [`BatchResult`](crate::BatchResult).
//!
//! Everything emitted here is a pure function of the batch result, which
//! is itself independent of the thread count — so `lcmopt batch` output
//! can be diffed across `--jobs` values (ci.sh does exactly that). No
//! wall-clock numbers appear in any of these formats; timing goes to
//! stderr, where nondeterminism belongs.

use std::fmt::Write as _;

use crate::{BatchResult, UnitOutcome, UnitReport};

/// The optimized module text: each successful unit's printed function in
/// input order, failures as `#`-comment lines, separated by blank lines.
/// The result is a valid module again whenever every unit succeeded (and
/// no two units share a name).
///
/// Takes a [`BatchResult`] or the unit reports of
/// [`BatchEngine::run_module_incremental`](crate::BatchEngine::run_module_incremental),
/// so `lcmopt watch` output diffs cleanly against a one-shot
/// `lcmopt batch` on the same module.
pub fn render_text(units: &(impl AsRef<[UnitReport]> + ?Sized)) -> String {
    let mut out = String::new();
    for (i, unit) in units.as_ref().iter().enumerate() {
        if i > 0 {
            out.push_str("\n\n");
        }
        match &unit.outcome {
            UnitOutcome::Ok(s) => out.push_str(&s.output),
            UnitOutcome::Failed(e) => {
                let _ = write!(
                    out,
                    "# fn {}: FAILED ({}): {}",
                    unit.name,
                    e.kind.name(),
                    one_line(&e.message)
                );
            }
        }
    }
    out.push('\n');
    out
}

impl AsRef<[UnitReport]> for BatchResult {
    fn as_ref(&self) -> &[UnitReport] {
        &self.units
    }
}

/// The aggregate tables: batch counts, the merged solver statistics (same
/// table as `lcmopt --emit stats`), rewrite counters, validator counters
/// and cache counters.
pub fn render_stats(result: &BatchResult) -> String {
    let t = &result.totals;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "batch: {} functions ({} ok, {} failed), {} computed",
        t.functions, t.ok, t.failed, t.computed
    );
    out.push_str(&lcm_core::report::stats_table(&t.pipeline));
    let _ = writeln!(
        out,
        "transform: {} insertions, {} deletions, {} retained defs, {} edges split, {} temps",
        t.transform.insertions,
        t.transform.deletions,
        t.transform.retained_defs,
        t.transform.edges_split,
        t.transform.temps
    );
    if t.spec.candidates > 0 {
        let _ = writeln!(
            out,
            "speculative: {} candidates, {} speculated, weighted cost {} -> {}",
            t.spec.candidates,
            t.spec.speculated,
            t.spec.lcm_weighted_cost,
            t.spec.spec_weighted_cost
        );
    }
    let _ = writeln!(
        out,
        "validation: {} checks, {} inputs sampled",
        t.validation_checks, t.inputs_sampled
    );
    let _ = writeln!(out, "cache: {}, {} entries", t.cache, t.cache_entries);
    if let Some(l) = t.lifetime {
        let _ = writeln!(out, "lifetime: {l}");
    }
    out
}

/// A machine-readable rendering: one object per unit plus the totals.
/// Hand-rolled (the workspace is dependency-free); keys are emitted in a
/// fixed order so the output is byte-stable.
pub fn render_json(result: &BatchResult) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"functions\": [\n");
    for (i, unit) in result.units.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(out, "\"name\": \"{}\"", esc(&unit.name));
        match &unit.file {
            Some(file) => {
                let _ = write!(out, ", \"file\": \"{}\"", esc(file));
            }
            None => out.push_str(", \"file\": null"),
        }
        let _ = write!(out, ", \"cache\": \"{}\"", unit.cache.name());
        match &unit.outcome {
            UnitOutcome::Ok(s) => {
                let total = s.pipeline.total();
                let _ = write!(
                    out,
                    ", \"status\": \"ok\", \"insertions\": {}, \"deletions\": {}, \
                     \"retained_defs\": {}, \"edges_split\": {}, \"temps\": {}, \
                     \"node_visits\": {}, \"word_ops\": {}, \"validation_checks\": {}, \
                     \"inputs_sampled\": {}",
                    s.transform.insertions,
                    s.transform.deletions,
                    s.transform.retained_defs,
                    s.transform.edges_split,
                    s.transform.temps,
                    total.node_visits,
                    total.word_ops,
                    s.validation_checks,
                    s.inputs_sampled
                );
            }
            UnitOutcome::Failed(e) => {
                let _ = write!(
                    out,
                    ", \"status\": \"failed\", \"kind\": \"{}\", \"error\": \"{}\"",
                    e.kind.name(),
                    esc(&e.message)
                );
            }
        }
        out.push('}');
        if i + 1 < result.units.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let t = &result.totals;
    let total = t.pipeline.total();
    out.push_str("  ],\n  \"totals\": {\n");
    let _ = writeln!(
        out,
        "    \"functions\": {}, \"ok\": {}, \"failed\": {}, \"computed\": {},",
        t.functions, t.ok, t.failed, t.computed
    );
    let _ = writeln!(
        out,
        "    \"solver\": {{\"node_visits\": {}, \"word_ops\": {}}},",
        total.node_visits, total.word_ops
    );
    let _ = writeln!(
        out,
        "    \"transform\": {{\"insertions\": {}, \"deletions\": {}, \"retained_defs\": {}, \
         \"edges_split\": {}, \"temps\": {}}},",
        t.transform.insertions,
        t.transform.deletions,
        t.transform.retained_defs,
        t.transform.edges_split,
        t.transform.temps
    );
    let _ = writeln!(
        out,
        "    \"validation\": {{\"checks\": {}, \"inputs_sampled\": {}}},",
        t.validation_checks, t.inputs_sampled
    );
    let _ = writeln!(
        out,
        "    \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}}}",
        t.cache.hits, t.cache.misses, t.cache.evictions, t.cache_entries
    );
    out.push_str("  }\n}\n");
    out
}

/// Collapses a message to one line for `#`-comment reporting.
fn one_line(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect()
}

/// Minimal JSON string escaping.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
