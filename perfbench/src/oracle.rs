//! The output oracle: every optimized function is parsed back, verified,
//! and run against its input on seeded inputs with the reference
//! interpreter, which shares no analysis code with the optimizer.

use lcm_core::validate::sample_inputs;
use lcm_interp::{observationally_equivalent, run};
use lcm_ir::{parse_function, verify, Function};

/// Seeded inputs each output is executed on.
const INPUTS_PER_FUNCTION: usize = 3;
/// Interpreter step budget per execution. Generated programs finish well
/// within it: the longest of 6000 seeded runs of ~30-statement functions
/// took 3593 steps, and of 180 runs of 1500-statement ones 29 037.
const FUEL: u64 = 100_000;
/// An edit can make a loop run forever; such an input is compared on the
/// prefix of this many steps.
const PREFIX_FUEL: u64 = 20_000;

/// Code quality over checked functions, as geometric means of
/// per-function ratios, so that a few loop-heavy functions do not decide
/// a workload's figure. Each ratio is taken as `(after + 1) / (before + 1)`
/// so a function whose evaluations or instructions all go away still
/// counts.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct Quality {
    /// Summed log of candidate-expression evaluations after over before,
    /// on the seeded inputs whose input run finished.
    ln_evals: f64,
    /// Summed log of static instructions out over in.
    ln_instrs: f64,
    /// Functions checked.
    pub functions: u64,
}

impl Quality {
    pub fn add(&mut self, o: Quality) {
        self.ln_evals += o.ln_evals;
        self.ln_instrs += o.ln_instrs;
        self.functions += o.functions;
    }

    pub fn dyn_evals_ratio(&self) -> f64 {
        (self.ln_evals / self.functions.max(1) as f64).exp()
    }

    pub fn out_instrs_ratio(&self) -> f64 {
        (self.ln_instrs / self.functions.max(1) as f64).exp()
    }
}

fn ln_ratio(after: u64, before: u64) -> f64 {
    ((after + 1) as f64 / (before + 1) as f64).ln()
}

/// [`check`] on an answer still in text form.
pub fn check_text(input: &Function, output_text: &str, seed: u64) -> Result<Quality, String> {
    let g = parse_function(output_text)
        .map_err(|e| format!("fn {}: output does not parse: {e}", input.name))?;
    check(input, &g, seed)
}

/// [`check_text`] over `(input, answer)` pairs, split over `threads`
/// threads; the results come back in the order of `pairs`.
pub fn check_texts(
    pairs: &[(&Function, &str)],
    seed: u64,
    threads: usize,
) -> Vec<Result<Quality, String>> {
    let chunk = pairs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    c.iter()
                        .map(|(f, text)| check_text(f, text, seed))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// Checks `g` — `lcmopt`'s answer for `input` — and measures what it did
/// to evaluation counts and code size.
pub fn check(input: &Function, g: &Function, seed: u64) -> Result<Quality, String> {
    verify(g).map_err(|e| format!("fn {}: output does not verify: {e}", input.name))?;
    if g.name != input.name {
        return Err(format!("fn {}: output is named {}", input.name, g.name));
    }
    let (mut before_evals, mut after_evals) = (0, 0);
    let mut state = seed;
    for k in 0..INPUTS_PER_FUNCTION {
        let inputs = sample_inputs(input, &mut state);
        let before = run(input, &inputs, FUEL);
        let fuel = if before.completed() {
            FUEL
        } else {
            PREFIX_FUEL
        };
        if !observationally_equivalent(input, g, &inputs, fuel) {
            return Err(format!(
                "fn {}: output differs from its input on seeded input {k}",
                input.name
            ));
        }
        if before.completed() {
            before_evals += before.total_evals();
            after_evals += run(g, &inputs, FUEL).total_evals();
        }
    }
    Ok(Quality {
        ln_evals: ln_ratio(after_evals, before_evals),
        ln_instrs: ln_ratio(g.num_instrs() as u64, input.num_instrs() as u64),
        functions: 1,
    })
}
