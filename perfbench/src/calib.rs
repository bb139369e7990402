//! Machine-speed calibration. On a machine whose cores are shared with
//! other tenants, the speed of a fixed piece of work drifts by tens of
//! percent within minutes. A fixed CPU kernel, independent of the
//! repository's code, is timed right before each closed-loop sample;
//! gated timings are scaled to the speed that kernel reports, so drift of
//! the machine cancels while a change to `lcmopt` does not.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What the kernel takes on the reference machine, in seconds. Scaled
/// timings read as if every sample had run at that speed.
pub const REFERENCE_S: f64 = 0.003;

/// Buffers the kernel reuses, so that it times computation and not the
/// page faults of fresh allocations.
pub struct Probe {
    keys: Vec<u64>,
    next: Vec<u32>,
    counts: HashMap<u64, u32>,
    text: String,
}

impl Probe {
    pub fn new() -> Self {
        let mut p = Probe {
            keys: Vec::with_capacity(KEYS),
            next: Vec::with_capacity(KEYS),
            counts: HashMap::with_capacity(8192),
            text: String::with_capacity(1 << 19),
        };
        p.kernel_s();
        p
    }

    /// Times one run of the kernel: sorting, hashing, a dependent walk
    /// over a permutation, and formatting and parsing numbers, over a
    /// working set of about a megabyte — the kind of work a compiler
    /// pipeline does.
    fn kernel_s(&mut self) -> f64 {
        let start = Instant::now();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        self.keys.clear();
        self.keys.extend((0..KEYS).map(|_| rand()));
        self.next.clear();
        self.next.extend(0..KEYS as u32);
        for i in (1..KEYS).rev() {
            let j = (self.keys[i] % (i as u64 + 1)) as usize;
            self.next.swap(i, j);
        }
        let mut at = 0u32;
        for _ in 0..KEYS {
            at = self.next[at as usize];
        }
        self.keys.sort_unstable();
        self.counts.clear();
        for x in &self.keys {
            *self.counts.entry(x % 8191).or_default() += 1;
        }
        self.text.clear();
        for x in self.keys.iter().step_by(2) {
            self.text.push_str(&(x % 1_000_000).to_string());
            self.text.push(' ');
        }
        let parsed: u64 = self
            .text
            .split_whitespace()
            .map(|t| t.parse::<u64>().unwrap_or(0))
            .sum();
        black_box((at, self.counts.len(), parsed));
        start.elapsed().as_secs_f64()
    }

    /// The kernel's time right now: the median of three back-to-back
    /// runs, so a single preemption does not read as a slow machine.
    pub fn speed_s(&mut self) -> f64 {
        let mut t = [self.kernel_s(), self.kernel_s(), self.kernel_s()];
        t.sort_by(f64::total_cmp);
        t[1]
    }
}

thread_local! {
    static PROBE: std::cell::RefCell<Probe> = std::cell::RefCell::new(Probe::new());
}

/// [`Probe::speed_s`] on this thread's probe.
pub fn speed_probe_s() -> f64 {
    PROBE.with(|p| p.borrow_mut().speed_s())
}

/// The kernel time that stands for the machine's speed during a run of
/// `threads` workers: the geometric mean of [`speed_probe_s`] and the
/// kernel's time on `threads` threads at once. A core taken by another
/// tenant slows a pool run but not the single-threaded probe; the
/// all-parallel probe alone over-corrects, since about half of a pool
/// run's time (set-up, parsing, printing, the slowest unit) is serial.
pub fn pool_speed_probe_s(threads: usize) -> f64 {
    (speed_probe_s() * parallel_speed_probe_s(threads)).sqrt()
}

/// The kernel's time on each of `threads` threads at once, combined as the
/// harmonic mean.
fn parallel_speed_probe_s(threads: usize) -> f64 {
    let threads = threads.max(1);
    let start = std::sync::Barrier::new(threads);
    let times: Vec<f64> = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut probe = Probe::new();
                    start.wait();
                    probe.speed_s()
                })
            })
            .collect();
        let mut times = vec![PROBE.with(|p| {
            let mut p = p.borrow_mut();
            start.wait();
            p.speed_s()
        })];
        times.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked")),
        );
        times
    });
    threads as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// Keys the kernel sorts and hashes.
const KEYS: usize = 40_000;

/// How much faster the reference machine is than the machine was when the
/// kernel took `probe_s`: multiply a time by this to scale it to the
/// reference speed, divide a rate by it.
pub fn factor(probe_s: f64) -> f64 {
    REFERENCE_S / probe_s
}
