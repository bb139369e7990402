//! `lcm-perfbench` — the repository's benchmark of the shipped `lcmopt`
//! binary.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_cold --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark builds `lcmopt` from the
//! checkout, generates the workload's inputs from `--seed`, drives the
//! binary for `--seconds`, checks every output, and prints one JSON object
//! as its last line of standard output. `--trace 0` measures the
//! end-to-end metrics with no tracing; `--trace 1` runs the traced
//! in-process replay and the per-layer metrics instead. See
//! `perfbench/README.md` for the workloads and every metric.

mod batch;
mod calib;
mod gen;
mod lcmopt;
mod oracle;
mod replay;
mod stats;
mod stream;
mod traced;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BatchCold,
    EditStream,
    SpecLarge,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "batch_cold" => Some(Workload::BatchCold),
            "edit_stream" => Some(Workload::EditStream),
            "spec_large" => Some(Workload::SpecLarge),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchCold => "batch_cold",
            Workload::EditStream => "edit_stream",
            Workload::SpecLarge => "spec_large",
        }
    }
}

/// Everything a run has to report.
#[derive(Default)]
pub struct Report {
    /// Units attempted and units that failed (`UNIT_ERR`, `OVERLOADED`,
    /// a wrong or mismatched output).
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in print order: the gated metrics of the
    /// JSON result.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Further figures, printed in the table but not in the result.
    pub extras: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check; `units` is how many units it condemns.
    pub fn fail(&mut self, units: u64, why: String) {
        self.failed += units;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    /// Folds a setup-stage error into the report.
    pub fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(0, e);
                None
            }
        }
    }

    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> &'static str {
    "usage: lcm-perfbench --workload batch_cold|edit_stream|spec_large \
     --seed N --seconds S --trace 0|1"
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Worker threads and jobs handed to `lcmopt`: the machine's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A per-process scratch directory under [`lcmopt::WORK_DIR`], removed on
/// drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(lcmopt::WORK_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lcm-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let bin = match lcmopt::build() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("lcm-perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("lcm-perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    let report = if args.trace {
        traced::run(&bin, args.workload, args.seed, &work)
    } else {
        match args.workload {
            Workload::EditStream => stream::run(&bin, args.seed, args.seconds, &work),
            w => batch::run(&bin, w, args.seed, args.seconds, &work),
        }
    };
    drop(work);
    println!(
        "# {} seed={} trace={} lcmopt jobs/workers={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        nproc()
    );
    for line in &report.notes {
        println!("# {line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>14.6} {unit}");
    }
    for (name, value, unit) in &report.extras {
        println!("  {name:<26} {value:>14.6} {unit}");
    }
    for e in &report.errors {
        eprintln!("lcm-perfbench: FAILED: {e}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
