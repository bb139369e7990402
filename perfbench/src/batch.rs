//! `batch_cold` and `spec_large`: one client runs `lcmopt batch` on the
//! workload's module back to back, closed loop, for the measured time,
//! alternating `--jobs nproc` invocations (the throughput) with `--jobs 1`
//! invocations (the time one worker takes per function).

use std::path::{Path, PathBuf};
use std::time::Instant;

use lcm_ir::{parse_module, Module};

use crate::lcmopt::{run_batch, BatchRun};
use crate::oracle::{self, Quality};
use crate::stats::{median, summarize};
use crate::{calib, gen, nproc, Report, WorkDir, Workload};

/// Set-up samples per run (spawn to exit on a one-function module).
pub const SETUP_REPS: usize = 15;
/// Timed invocations of each kind a run makes at least, so the tail
/// percentile always has ten samples beyond it.
const MIN_INVOCATIONS: usize = 21;

/// The module and `lcmopt batch` flags of a batch workload.
pub struct BatchWorkload {
    pub module: Module,
    pub input: PathBuf,
    pub warm: PathBuf,
    pub flags: Vec<String>,
}

impl BatchWorkload {
    pub fn new(w: Workload, seed: u64, work: &WorkDir) -> Result<Self, String> {
        let (module, flags) = match w {
            Workload::BatchCold => (gen::batch_cold(seed), vec![]),
            Workload::SpecLarge => (
                gen::spec_large(seed),
                vec!["--placement".to_string(), "spec".to_string()],
            ),
            Workload::EditStream => unreachable!("edit_stream is not a batch workload"),
        };
        let input = work.path("input.lcm");
        let warm = work.path("warm.lcm");
        write(&input, &module.to_string())?;
        write(&warm, &gen::warmup_module().to_string())?;
        Ok(BatchWorkload {
            module,
            input,
            warm,
            flags,
        })
    }

    /// `lcmopt batch` arguments for `file` at `jobs` workers.
    pub fn args(&self, file: &Path, jobs: usize) -> Vec<String> {
        let mut a = vec!["--jobs".to_string(), jobs.to_string()];
        a.extend(self.flags.iter().cloned());
        a.push(file.display().to_string());
        a
    }

    pub fn run(&self, bin: &Path, file: &Path, jobs: usize) -> Result<BatchRun, String> {
        let args = self.args(file, jobs);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let r = run_batch(bin, &args)?;
        if !r.status.success() {
            return Err(format!(
                "lcmopt batch exited with {}: {}",
                r.status,
                r.stderr.trim()
            ));
        }
        Ok(r)
    }

    /// Checks one invocation's full output against the inputs with the
    /// interpreter oracle.
    pub fn check_output(&self, stdout: &[u8], seed: u64) -> Result<Quality, String> {
        let text = std::str::from_utf8(stdout).map_err(|e| format!("output is not UTF-8: {e}"))?;
        let out = parse_module(text).map_err(|e| format!("output does not parse: {e}"))?;
        if out.len() != self.module.len() {
            return Err(format!(
                "output has {} functions for {} inputs",
                out.len(),
                self.module.len()
            ));
        }
        let mut q = Quality::default();
        for (f, g) in self.module.iter().zip(out.iter()) {
            q.add(oracle::check(f, g, seed)?);
        }
        Ok(q)
    }
}

pub fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Median spawn-to-exit time of `lcmopt batch` on a one-function module,
/// raw and at the reference speed.
pub fn setup_seconds(
    bin: &Path,
    wl: &BatchWorkload,
    report: &mut Report,
    seed: u64,
) -> Option<(f64, f64)> {
    let warm = gen::warmup_module();
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut scaled = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        let speed = calib::factor(calib::speed_probe_s());
        let r = report.check(wl.run(bin, &wl.warm, nproc()))?;
        report.attempted += 1;
        if i == 0 {
            let text = String::from_utf8_lossy(&r.stdout);
            let checked = parse_module(&text)
                .map_err(|e| format!("warm-up output does not parse: {e}"))
                .and_then(|m| {
                    let g = m.iter().next().ok_or("warm-up output is empty")?;
                    let f = warm.iter().next().expect("warm-up module has one function");
                    oracle::check(f, g, seed)
                });
            if let Err(e) = checked {
                report.fail(1, e);
            }
        }
        samples.push(r.wall);
        scaled.push(r.wall * speed);
    }
    Some((median(&samples), median(&scaled)))
}

pub fn run(bin: &Path, w: Workload, seed: u64, seconds: f64, work: &WorkDir) -> Report {
    let mut report = Report::default();
    let Some(wl) = report.check(BatchWorkload::new(w, seed, work)) else {
        return report;
    };
    let n = wl.module.len() as u64;
    let Some((setup_raw, setup_s)) = setup_seconds(bin, &wl, &mut report, seed) else {
        return report;
    };

    // One untimed invocation gives the reference output, checked with the
    // oracle; every timed invocation must reproduce it byte for byte.
    let Some(reference) = report.check(wl.run(bin, &wl.input, nproc())) else {
        return report;
    };
    report.attempted += n;
    let quality = match wl.check_output(&reference.stdout, seed) {
        Ok(q) => q,
        Err(e) => {
            report.fail(n, e);
            return report;
        }
    };

    // Every timed invocation follows a calibration probe; its wall time is
    // also kept scaled to the reference speed. Invocations alternate
    // between `--jobs nproc` and `--jobs 1`, so drift hits both alike.
    let (mut walls, mut scaled) = (Vec::new(), Vec::new());
    let (mut walls_one, mut scaled_one) = (Vec::new(), Vec::new());
    let mut rss_kb = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || walls_one.len() < MIN_INVOCATIONS {
        for jobs in [nproc(), 1] {
            let speed = calib::factor(if jobs == 1 {
                calib::speed_probe_s()
            } else {
                calib::pool_speed_probe_s(jobs)
            });
            let r = match wl.run(bin, &wl.input, jobs) {
                Ok(r) => r,
                Err(e) => {
                    report.attempted += n;
                    report.fail(n, e);
                    break;
                }
            };
            report.attempted += n;
            if r.stdout != reference.stdout {
                report.fail(
                    n,
                    format!("a --jobs {jobs} invocation's output differs from the reference"),
                );
            }
            if jobs == 1 {
                walls_one.push(r.wall / n as f64);
                scaled_one.push(r.wall * speed / n as f64);
            } else {
                walls.push(r.wall);
                scaled.push(r.wall * speed);
                rss_kb.extend(r.peak_rss_kb);
            }
        }
        if !report.errors.is_empty() {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    if walls_one.is_empty() {
        report.fail(0, "no --jobs 1 invocation finished".into());
        return report;
    }
    let raw = summarize(&walls);
    let thr = summarize(&scaled);
    let raw_one = summarize(&walls_one);
    let one = summarize(&scaled_one);
    report.note(format!(
        "{n} functions per invocation, {} invocations at --jobs {} and {} at --jobs 1 in \
         {elapsed:.2}s; timings at reference speed; latency tail is p{:.1} of {} samples",
        thr.count,
        nproc(),
        one.count,
        one.tail_pct,
        one.count
    ));
    report.note(format!(
        "fail_frac {:.6} ({} of {} units)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    report.metric("setup_s", setup_s, "s");
    report.metric("fn_per_s", n as f64 / thr.median, "fn/s");
    report.metric("latency_p50_ms", one.median * 1e3, "ms");

    report.metric("dyn_evals_ratio", quality.dyn_evals_ratio(), "ratio");
    report.metric("out_instrs_ratio", quality.out_instrs_ratio(), "ratio");
    if rss_kb.is_empty() {
        report.fail(0, "peak RSS was never sampled".into());
    } else {
        let rss: Vec<f64> = rss_kb.iter().map(|&k| k as f64).collect();
        report.metric("peak_rss_mb", median(&rss) / 1024.0, "MB");
    }
    report.extra(
        &format!("latency_p{:.0}_ms", one.tail_pct),
        one.tail * 1e3,
        "ms",
    );
    report.extra("capacity_rps", 1.0 / thr.median, "1/s");
    report.extra("raw.setup_s", setup_raw, "s");
    report.extra("raw.fn_per_s", n as f64 / raw.median, "fn/s");
    report.extra("raw.latency_p50_ms", raw_one.median * 1e3, "ms");
    report.extra(
        &format!("raw.latency_p{:.0}_ms", raw_one.tail_pct),
        raw_one.tail * 1e3,
        "ms",
    );
    report.extra(
        "invocations_per_s",
        (walls.len() + walls_one.len()) as f64 / elapsed,
        "1/s",
    );
    report.extra(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report
}
