//! `--trace 1`: the per-layer run. The workload's generated inputs are
//! replayed in-process through each layer's public functions, traced and
//! untraced; the binary is then driven just enough to read the counters
//! only it has (cache and memo decisions, protocol traffic, pool scaling).

use std::path::Path;
use std::time::Instant;

use crate::batch::{write, BatchWorkload};
use crate::gen::{self, EditKind, EditStream, Revision};
use crate::oracle::{self, Quality};
use crate::replay::{Counts, Replay, Tracer, LAYERS};
use crate::stats::{median, quantile};
use crate::stream::{closed_request, frame, ladder, open_loop, start_daemon, Observed, FIXED_RUNG};
use crate::{nproc, Report, WorkDir, Workload};

/// Revisions of the edit stream the traced run replays.
const TRACE_REVISIONS: usize = 300;
/// The traced layer self times must add up to the traced total within
/// this share; the rest is bookkeeping between the layer calls.
pub const CLOSURE_TOLERANCE: f64 = 0.05;
/// Traced and untraced replay passes each.
const ROUNDS: usize = 4;
/// `lcmopt batch` invocations per `--jobs` setting for `pool.scaling`.
const SCALING_REPS: usize = 3;

/// The requests one replay pass answers, with the flags it needs.
struct Inputs {
    requests: Vec<String>,
    spec: bool,
    memo: bool,
}

struct Pass {
    counts: Counts,
    outputs: Vec<Vec<String>>,
    wall_ns: u64,
    tracer: Tracer,
}

fn pass(inputs: &Inputs, traced: bool) -> Result<Pass, String> {
    let mut replay = Replay::new();
    let mut tracer = Tracer::new(traced);
    let start = Instant::now();
    let mut outputs = Vec::with_capacity(inputs.requests.len());
    for (i, text) in inputs.requests.iter().enumerate() {
        outputs.push(replay.request(&mut tracer, i as u32, text, inputs.spec, inputs.memo)?);
    }
    Ok(Pass {
        counts: replay.counts,
        outputs,
        wall_ns: start.elapsed().as_nanos() as u64,
        tracer,
    })
}

/// Driver-side counters read from the binary.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
struct DriverCounts {
    memo_hits: u64,
    cache_hits: u64,
    computed: u64,
    delta_hits: u64,
    fallbacks: u64,
}

pub fn run(bin: &Path, w: Workload, seed: u64, work: &WorkDir) -> Report {
    let mut report = Report::default();
    if let Err(e) = measure(bin, w, seed, work, &mut report) {
        report.fail(0, e);
    }
    report
}

fn measure(
    bin: &Path,
    w: Workload,
    seed: u64,
    work: &WorkDir,
    report: &mut Report,
) -> Result<(), String> {
    // The inputs, exactly as the end-to-end run generates them.
    let (inputs, batch, revisions, stream) = match w {
        Workload::EditStream => {
            let mut stream = EditStream::new(seed, 0);
            let mut revs = vec![stream.current_revision(EditKind::Base)];
            revs.extend((0..TRACE_REVISIONS).map(|_| stream.next_revision()));
            let inputs = Inputs {
                requests: revs.iter().map(|r| r.text.clone()).collect(),
                spec: false,
                memo: true,
            };
            (inputs, None, revs, Some(stream))
        }
        _ => {
            let wl = BatchWorkload::new(w, seed, work)?;
            let inputs = Inputs {
                requests: vec![wl.module.to_string()],
                spec: w == Workload::SpecLarge,
                memo: false,
            };
            (inputs, Some(wl), Vec::new(), None)
        }
    };

    // A warm-up pass, then untraced and traced passes interleaved so
    // drift hits both alike.
    pass(&inputs, false)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        untraced.push(pass(&inputs, false)?);
        traced.push(pass(&inputs, true)?);
    }
    let t1 = &traced[0];
    let units = t1.counts.units;
    report.attempted += (2 * ROUNDS) as u64 * units;
    for p in traced.iter().chain(&untraced).skip(1) {
        if p.counts != t1.counts {
            report.fail(
                0,
                format!("a replay pass counted differently: {:?}", p.counts),
            );
        }
        if p.outputs != t1.outputs {
            report.fail(units, "a replay pass printed different outputs".into());
        }
    }

    // Self time per layer, per unit answered, over the traced passes.
    let mut self_ns = std::collections::HashMap::new();
    for p in &traced {
        for (k, v) in p.tracer.self_times() {
            *self_ns.entry(k).or_insert(0u64) += v;
        }
    }
    let traced_total: u64 = traced.iter().map(|p| p.tracer.root_total()).sum();
    let layer_total: u64 = LAYERS
        .iter()
        .map(|l| self_ns.get(l).copied().unwrap_or(0))
        .sum();
    let closure = layer_total as f64 / traced_total as f64;
    let wall = |ps: &[Pass]| ps.iter().map(|p| p.wall_ns).sum::<u64>() as f64;
    let overhead = wall(&traced) / wall(&untraced);
    if (closure - 1.0).abs() > CLOSURE_TOLERANCE {
        report.fail(
            0,
            format!("layer self times cover {closure:.4} of the traced total, outside ±{CLOSURE_TOLERANCE}"),
        );
    }
    let per_unit_us = |layer: &str| {
        self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e3 / (ROUNDS as u64 * units) as f64
    };
    let spans_path =
        Path::new(crate::lcmopt::WORK_DIR).join(format!("spans-{}-{seed}.tsv", w.name()));
    t1.tracer
        .write_tsv(&spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    // The binary's own answers must be the replay's, byte for byte.
    let replay_outputs = &t1.outputs;
    let mut quality = Quality::default();
    let (driver, driver_again, scaling, serve) = match (&batch, &stream) {
        (Some(wl), _) => {
            let expected = format!("{}\n", replay_outputs[0].join("\n\n"));
            let (driver, scaling, lags) = batch_side(bin, wl, &expected, report)?;
            let out = lcm_ir::parse_module(&expected).map_err(|e| e.to_string())?;
            for (f, g) in wl.module.iter().zip(out.iter()) {
                match oracle::check(f, g, seed) {
                    Ok(q) => quality.add(q),
                    Err(e) => report.fail(1, e),
                }
            }
            let serve = ServeCounts {
                lag_p99_ms: quantile(&lags, 0.99),
                ..ServeCounts::default()
            };
            (driver, driver, scaling, serve)
        }
        (None, Some(stream)) => {
            let (d1, serve) = serve_side(bin, work, seed, &revisions, replay_outputs, report)?;
            let (d2, _) = serve_side(bin, work, seed, &revisions, replay_outputs, report)?;
            let model = DriverCounts {
                memo_hits: t1.counts.memo_hits,
                cache_hits: t1.counts.cache_hits,
                computed: t1.counts.computed,
                ..d1
            };
            if model != d1 {
                report.fail(
                    0,
                    format!("replay decisions {model:?} differ from the daemon's {d1:?}"),
                );
            }
            let mut ids: Vec<usize> = revisions
                .iter()
                .flat_map(|r| r.versions.iter().copied())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            let mut by_version = std::collections::HashMap::new();
            for (rev, outs) in revisions.iter().zip(replay_outputs) {
                for (&v, o) in rev.versions.iter().zip(outs) {
                    by_version.entry(v).or_insert(o);
                }
            }
            for &v in &ids {
                match oracle::check_text(&stream.versions[v], by_version[&v], seed) {
                    Ok(q) => quality.add(q),
                    Err(e) => report.fail(1, e),
                }
            }
            let scaling = versions_scaling(bin, work, stream, &ids, report)?;
            (d1, d2, scaling, serve)
        }
        (None, None) => unreachable!("every workload has batch or stream inputs"),
    };
    if driver != driver_again {
        report.fail(
            0,
            format!("driver counters differ between runs: {driver:?} vs {driver_again:?}"),
        );
    }

    let c = &t1.counts;
    let n = units as f64;
    report.note(format!(
        "replay: {} requests, {units} units ({} computed) per pass; tracing overhead {overhead:.4}x; \
         layer self times sum to {closure:.4} of the traced total (tolerance ±{CLOSURE_TOLERANCE})",
        inputs.requests.len(),
        c.computed
    ));
    report.note(format!(
        "determinism: counts and outputs identical across {ROUNDS} traced and {ROUNDS} untraced passes and the binary's runs; \
         dyn_evals_ratio {:.6}, out_instrs_ratio {:.6}",
        quality.dyn_evals_ratio(),
        quality.out_instrs_ratio()
    ));
    report.note(format!("spans written to {}", spans_path.display()));
    let mut layer_line = String::from("self us/unit:");
    for l in LAYERS {
        layer_line.push_str(&format!(" {l}={:.3}", per_unit_us(l)));
    }
    report.note(layer_line);

    report.metric("ir.parse_us", per_unit_us("parse"), "us");
    report.metric("ir.print_us", per_unit_us("print"), "us");
    report.metric(
        "ir.simplify_verify_us",
        per_unit_us("simplify_verify"),
        "us",
    );
    report.metric("ir.blocks", c.blocks_in as f64 / n, "count");
    report.metric("ir.instrs_in", c.instrs_in as f64 / n, "count");
    report.metric("driver.fingerprint_us", per_unit_us("fingerprint"), "us");
    report.metric("driver.memo_hits", driver.memo_hits as f64, "count");
    report.metric("driver.cache_hits", driver.cache_hits as f64, "count");
    report.metric("driver.computed", driver.computed as f64, "count");
    report.metric("driver.delta_hits", driver.delta_hits as f64, "count");
    report.metric("driver.fallbacks", driver.fallbacks as f64, "count");
    let answered = driver.memo_hits + driver.cache_hits + driver.computed;
    report.metric(
        "driver.reuse_ratio",
        (driver.memo_hits + driver.cache_hits) as f64 / answered.max(1) as f64,
        "ratio",
    );
    report.metric("serve.frames", serve.frames_per_request, "count");
    report.metric("serve.bytes", serve.bytes_per_request, "bytes");
    report.metric("serve.overloaded", serve.overloaded as f64, "count");
    report.metric("gen.lag_p99_ms", serve.lag_p99_ms, "ms");
    report.metric("pool.scaling", scaling, "ratio");
    report.metric("core.lcse_us", per_unit_us("lcse"), "us");
    report.metric("core.universe_us", per_unit_us("universe"), "us");
    report.metric(
        "core.universe_exprs",
        c.universe_exprs as f64 / c.computed.max(1) as f64,
        "count",
    );
    report.metric(
        "core.universe_words_max",
        c.universe_words_max as f64,
        "count",
    );
    report.metric("core.rewrite_us", per_unit_us("rewrite"), "us");
    report.metric("core.copyprop_us", per_unit_us("copyprop"), "us");
    report.metric("core.dce_us", per_unit_us("dce"), "us");
    report.metric("core.insertions", c.insertions as f64, "count");
    report.metric("core.deletions", c.deletions as f64, "count");
    report.metric(
        "core.instrs_after_rewrite",
        c.instrs_after_rewrite as f64,
        "count",
    );
    report.metric(
        "core.instrs_after_copyprop",
        c.instrs_after_copyprop as f64,
        "count",
    );
    report.metric("core.instrs_after_dce", c.instrs_after_dce as f64, "count");
    report.metric("core.validate_us", per_unit_us("validate"), "us");
    report.metric("core.validate_calls", c.validate_calls as f64, "count");
    report.metric("core.spec_us", per_unit_us("spec"), "us");
    report.metric("core.spec_candidates", c.spec_candidates as f64, "count");
    report.metric("core.spec_speculated", c.spec_speculated as f64, "count");
    report.metric("dataflow.solve_us", per_unit_us("solve"), "us");
    report.metric("dataflow.node_visits", c.node_visits as f64, "count");
    report.metric("dataflow.word_ops", c.word_ops as f64, "count");
    report.metric("trace.overhead", overhead, "ratio");
    report.metric("trace.closure", closure, "ratio");
    Ok(())
}

/// `lcmopt batch` on the workload's module: its output must be the
/// replay's, and its stderr summary gives the cache decisions. Returns
/// the counters, fn/s at `--jobs nproc` over `--jobs 1`, and how late
/// each closed-loop invocation started after the previous one ended.
fn batch_side(
    bin: &Path,
    wl: &BatchWorkload,
    expected: &str,
    report: &mut Report,
) -> Result<(DriverCounts, f64, Vec<f64>), String> {
    let n = wl.module.len() as u64;
    let (mut one, mut all, mut lags) = (Vec::new(), Vec::new(), Vec::new());
    let mut driver: Option<DriverCounts> = None;
    let mut last_end: Option<Instant> = None;
    for _ in 0..SCALING_REPS {
        for jobs in [1, nproc()] {
            if let Some(end) = last_end {
                lags.push(end.elapsed().as_secs_f64() * 1e3);
            }
            let r = wl.run(bin, &wl.input, jobs)?;
            last_end = Some(Instant::now());
            report.attempted += n;
            if r.stdout != expected.as_bytes() {
                report.fail(
                    n,
                    format!("lcmopt batch --jobs {jobs} output differs from the replay"),
                );
            }
            let counts = batch_counts(&r.stderr)?;
            if driver.is_some_and(|d| d != counts) {
                report.fail(
                    0,
                    format!("batch counters differ between invocations: {counts:?}"),
                );
            }
            driver = Some(counts);
            if jobs == 1 {
                one.push(r.wall)
            } else {
                all.push(r.wall)
            }
        }
    }
    let driver = driver.expect("SCALING_REPS is at least one");
    Ok((driver, median(&one) / median(&all), lags))
}

/// Parses `lcmopt: batch: N functions, C computed, H cache hits, T`.
fn batch_counts(stderr: &str) -> Result<DriverCounts, String> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("lcmopt: batch:"))
        .ok_or("lcmopt batch printed no summary line")?;
    let field = |label: &str| -> Result<u64, String> {
        line.split(',')
            .find_map(|seg| seg.trim().strip_suffix(label)?.trim().parse().ok())
            .ok_or_else(|| format!("no `{label}` in `{line}`"))
    };
    Ok(DriverCounts {
        computed: field("computed")?,
        cache_hits: field("cache hits")?,
        ..DriverCounts::default()
    })
}

#[derive(Clone, Copy, Default, Debug)]
struct ServeCounts {
    frames_per_request: f64,
    bytes_per_request: f64,
    overloaded: u64,
    lag_p99_ms: f64,
}

/// A number from the daemon's STATS text: in the line starting with
/// `prefix`, the comma-separated field ending with `label`.
fn stat(text: &str, prefix: &str, label: &str) -> Result<u64, String> {
    let line = text
        .lines()
        .find(|l| l.starts_with(prefix))
        .ok_or_else(|| format!("STATS has no `{prefix}` line"))?;
    let rest = line.split_once(':').map_or(line, |(_, r)| r);
    rest.split(',')
        .find_map(|seg| seg.trim().strip_suffix(label)?.trim().parse().ok())
        .ok_or_else(|| format!("STATS line `{line}` has no `{label}`"))
}

fn daemon_counts(text: &str) -> Result<DriverCounts, String> {
    Ok(DriverCounts {
        memo_hits: stat(text, "edit classes:", "zero-dirty")?,
        cache_hits: stat(text, "cache:", "hits")?,
        computed: stat(text, "cache:", "misses")?,
        delta_hits: stat(text, "incremental:", "hits")?,
        fallbacks: stat(text, "edit classes:", "fallback")?,
    })
}

impl DriverCounts {
    fn minus(self, o: DriverCounts) -> DriverCounts {
        DriverCounts {
            memo_hits: self.memo_hits - o.memo_hits,
            cache_hits: self.cache_hits - o.cache_hits,
            computed: self.computed - o.computed,
            delta_hits: self.delta_hits - o.delta_hits,
            fallbacks: self.fallbacks - o.fallbacks,
        }
    }
}

/// A fresh daemon answers the traced revisions (the base module closed
/// loop, the rest open loop at the fixed rate); every answer must be the
/// replay's. Returns the daemon's decision counters over those revisions
/// and the protocol counts.
fn serve_side(
    bin: &Path,
    work: &WorkDir,
    seed: u64,
    revisions: &[Revision],
    replay_outputs: &[Vec<String>],
    report: &mut Report,
) -> Result<(DriverCounts, ServeCounts), String> {
    let (daemon, mut conn, _) = start_daemon(bin, &work.path("t.sock"), report, seed)?;
    let before = daemon_counts(&daemon.stats()?)?;
    let mut observed = Observed::default();
    let (base, rest) = revisions
        .split_first()
        .expect("the base revision comes first");
    let a = closed_request(&mut conn, base)?;
    observed.record(report, base, &a);
    let mut answers = vec![a];
    let frames: Vec<Vec<u8>> = rest.iter().map(|r| frame(&r.text)).collect();
    let p = open_loop(
        &mut conn,
        &frames,
        gen::EDIT_FUNCTIONS,
        ladder()[FIXED_RUNG],
        None,
    )?;
    for (rev, a) in rest.iter().zip(&p.answers) {
        observed.record(report, rev, a);
    }
    let after = daemon_counts(&daemon.stats()?)?;
    drop(conn);
    daemon.shutdown()?;
    let requests = p.answers.len() as f64;
    let serve = ServeCounts {
        frames_per_request: (p.answers.len() as u64 + p.frames_in()) as f64 / requests,
        bytes_per_request: (p.bytes_out + p.bytes_in) as f64 / requests,
        overloaded: p.shed() as u64,
        lag_p99_ms: quantile(&p.lags_ms(), 0.99),
    };
    answers.extend(p.answers);
    for (i, (a, expected)) in answers.iter().zip(replay_outputs).enumerate() {
        let got: Vec<&str> = a.units.iter().filter_map(|u| u.as_deref().ok()).collect();
        if got != expected.iter().map(String::as_str).collect::<Vec<_>>() {
            report.fail(
                expected.len() as u64,
                format!("revision {i}: daemon answer differs from the replay"),
            );
        }
    }
    Ok((after.minus(before), serve))
}

/// fn/s of `lcmopt batch` at `--jobs nproc` over `--jobs 1`, on a module
/// of the traced function versions.
fn versions_scaling(
    bin: &Path,
    work: &WorkDir,
    stream: &EditStream,
    ids: &[usize],
    report: &mut Report,
) -> Result<f64, String> {
    let path = work.path("versions.lcm");
    write(&path, &stream.versions_module(ids).to_string())?;
    let p = path.display().to_string();
    let (mut one, mut all) = (Vec::new(), Vec::new());
    for _ in 0..SCALING_REPS {
        for jobs in [1, nproc()] {
            let j = jobs.to_string();
            let r = crate::lcmopt::run_batch(bin, &["--jobs", &j, &p])?;
            report.attempted += ids.len() as u64;
            if !r.status.success() {
                report.fail(
                    ids.len() as u64,
                    format!("lcmopt batch --jobs {jobs} failed"),
                );
            }
            if jobs == 1 {
                one.push(r.wall)
            } else {
                all.push(r.wall)
            }
        }
    }
    Ok(median(&one) / median(&all))
}
