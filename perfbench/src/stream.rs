//! `edit_stream`: a long-lived `lcmopt serve --socket` daemon fed by one
//! client process. Closed-loop blocks, each after a speed probe, give the
//! gated figures: latency blocks time one editor session's requests on
//! one connection, throughput blocks run `min(nproc, 4)` sessions at once,
//! one connection each. An open-loop phase then sends one session's
//! requests at their scheduled times whether or not earlier answers have
//! arrived, and times each from that scheduled time, so a stall is
//! charged to every request queued behind it; a walk up the rate ladder
//! gives the capacity.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lcm_driver::protocol::{encode_request, Request};

use crate::batch::write;
use crate::gen::{self, EditStream, Revision};
use crate::lcmopt::{read_answer, run_batch, Answer, Daemon};
use crate::oracle::{self, Quality};
use crate::stats::{median, quantile, summarize};
use crate::{calib, nproc, Report, WorkDir};

/// Set-up samples per run (spawn until a warm-up module is answered).
pub const SETUP_REPS: usize = 9;
/// The fixed rate ladder: 50 rungs from 50 requests per second, each 5%
/// above the one below. The capacity is the highest rung that passes.
pub fn ladder() -> Vec<f64> {
    (0..50).map(|k| 50.0 * 1.05f64.powi(k)).collect()
}
/// The ladder rung the latency phase runs at: about 67 requests per
/// second, about half the daemon's capacity on a slow moment of the
/// reference machine, so its latencies mostly measure service, not
/// queueing.
pub const FIXED_RUNG: usize = 6;
/// Closed-loop blocks of each kind, and requests per block and session,
/// before the latency phase.
const CLOSED_BLOCKS: usize = 16;
const CLOSED_REQUESTS: usize = 40;
/// Requests in the latency phase at least, so its p99 has ten samples
/// beyond it.
const MIN_REQUESTS: usize = 1000;
/// Requests in a ladder probe at least. A probe's p99 has six samples
/// beyond it; the ladder is printed, not gated, and longer probes would
/// take most of a run.
const MIN_PROBE_REQUESTS: usize = 600;
/// The latency limit a rung's p99 must meet.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Share of the measured time the latency phase takes; the ladder probes
/// share the rest.
const FIXED_SHARE: f64 = 0.35;
/// Ladder probes a run makes at most.
const PROBES: usize = 2;
/// The capacity search starts at the highest rung below this share of
/// the rate the latency phase's median service time would sustain.
const PREDICTED_LOAD: f64 = 0.8;
/// A rung is abandoned once this many requests are outstanding: its
/// backlog is growing and it has failed.
const MAX_BACKLOG: usize = 24;
/// A rung must complete at least this share of its offered rate.
const MIN_ACHIEVED: f64 = 0.95;
/// Full revisions byte-compared against a one-shot `lcmopt batch`.
const REVISION_SAMPLES: usize = 6;

/// Connection to a daemon: a writer, and a reader that counts bytes.
pub struct Conn {
    pub w: UnixStream,
    pub r: BufReader<Counting<UnixStream>>,
}

impl Conn {
    pub fn open(d: &Daemon) -> Result<Conn, String> {
        let w = d.connect(Duration::from_secs(10))?;
        let r = w.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            w,
            r: BufReader::new(Counting { inner: r, bytes: 0 }),
        })
    }
}

/// Counts the bytes read through it.
pub struct Counting<R> {
    inner: R,
    pub bytes: u64,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// One OPTIMIZE frame, encoded ahead of the timed loop.
pub fn frame(module: &str) -> Vec<u8> {
    let (tag, payload) = encode_request(&Request::Optimize {
        deadline_ms: 0,
        fuel: 0,
        module: module.to_string(),
    });
    let len = u32::try_from(payload.len() + 1).expect("request frames are far below 4 GiB");
    let mut f = Vec::with_capacity(payload.len() + 5);
    f.extend_from_slice(&len.to_be_bytes());
    f.push(tag);
    f.extend_from_slice(&payload);
    f
}

/// Sends one module and waits for its answer.
pub fn closed_request(c: &mut Conn, rev: &Revision) -> Result<Answer, String> {
    send(c, &frame(&rev.text), rev.versions.len())
}

/// Sends one encoded request of `units` functions and waits for its
/// answer.
fn send(c: &mut Conn, frame: &[u8], units: usize) -> Result<Answer, String> {
    c.w.write_all(frame).map_err(|e| e.to_string())?;
    read_answer(&mut c.r, units)
}

/// What one open-loop phase observed, per request in send order.
pub struct Phase {
    pub due: Vec<Instant>,
    /// When the write of each request started.
    pub write_start: Vec<Instant>,
    pub done: Vec<Instant>,
    pub answers: Vec<Answer>,
    /// The backlog bound was hit and sending stopped early.
    pub aborted: bool,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl Phase {
    /// Latency of each answered request from its scheduled send time; a
    /// shed request never meets any limit.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.done
            .iter()
            .zip(&self.due)
            .zip(&self.answers)
            .map(|((d, s), a)| {
                if a.shed {
                    f64::INFINITY
                } else {
                    d.duration_since(*s).as_secs_f64() * 1e3
                }
            })
            .collect()
    }

    /// How late each request's write started, in ms.
    pub fn lags_ms(&self) -> Vec<f64> {
        self.write_start
            .iter()
            .zip(&self.due)
            .map(|(w, s)| w.saturating_duration_since(*s).as_secs_f64() * 1e3)
            .collect()
    }

    /// The daemon's time on each request: a single connection is served
    /// in order, so a request's service starts when its write began or
    /// when the previous answer finished, whichever is later. (The write's
    /// end is no bound: on a busy core the daemon may answer before the
    /// writer thread runs again.)
    pub fn service_s(&self) -> Vec<f64> {
        let mut prev: Option<Instant> = None;
        self.done
            .iter()
            .zip(&self.write_start)
            .map(|(&d, &s)| {
                let begin = prev.map_or(s, |p| p.max(s));
                prev = Some(d);
                d.duration_since(begin).as_secs_f64()
            })
            .collect()
    }

    pub fn frames_in(&self) -> u64 {
        self.answers
            .iter()
            .map(|a| if a.shed { 1 } else { a.units.len() as u64 + 1 })
            .sum()
    }

    pub fn shed(&self) -> usize {
        self.answers.iter().filter(|a| a.shed).count()
    }
}

/// Sends `frames` at `rate` per second from the calling thread while one
/// reader thread collects the answers. With `max_backlog`, sending stops
/// once that many requests are outstanding.
pub fn open_loop(
    c: &mut Conn,
    frames: &[Vec<u8>],
    units: usize,
    rate: f64,
    max_backlog: Option<usize>,
) -> Result<Phase, String> {
    let received = AtomicUsize::new(0);
    let bytes_in_before = c.r.get_ref().bytes;
    let (tx, rx) = mpsc::channel::<()>();
    let Conn { w, r } = c;
    let mut due = Vec::with_capacity(frames.len());
    let mut write_start = Vec::with_capacity(frames.len());
    let mut aborted = false;
    let mut bytes_out = 0u64;
    let received = &received;
    let (done, answers) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut done = Vec::new();
            let mut answers = Vec::new();
            while rx.recv().is_ok() {
                let a = read_answer(r, units)?;
                done.push(Instant::now());
                answers.push(a);
                received.fetch_add(1, Ordering::Release);
            }
            Ok::<_, String>((done, answers))
        });
        let start = Instant::now() + Duration::from_millis(2);
        let mut write_err = None;
        for (i, f) in frames.iter().enumerate() {
            let at = start + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if let Some(cap) = max_backlog {
                if i - received.load(Ordering::Acquire) >= cap {
                    aborted = true;
                    break;
                }
            }
            due.push(at);
            write_start.push(Instant::now());
            if let Err(e) = w.write_all(f) {
                write_err = Some(e.to_string());
                break;
            }
            bytes_out += f.len() as u64;
            // The reader is gone only once it has failed; its error is
            // the one to report.
            if tx.send(()).is_err() {
                break;
            }
        }
        drop(tx);
        let read = reader.join().expect("reader thread panicked");
        match write_err {
            Some(e) => Err(format!("sending a request failed: {e}")),
            None => read,
        }
    })?;
    due.truncate(done.len());
    Ok(Phase {
        due,
        write_start,
        done,
        answers,
        aborted,
        bytes_out,
        bytes_in: c.r.get_ref().bytes - bytes_in_before,
    })
}

/// Per unit answer checks: every answer for one function version must be
/// the same text, and every unit must have succeeded.
#[derive(Default)]
pub struct Observed {
    /// Version id → the daemon's answer text.
    pub outputs: HashMap<usize, String>,
    /// A few full revisions with their reassembled answers.
    pub samples: Vec<(String, String)>,
}

impl Observed {
    pub fn record(&mut self, report: &mut Report, rev: &Revision, a: &Answer) {
        let n = rev.versions.len() as u64;
        report.attempted += n;
        if a.shed {
            report.fail(n, "request shed with OVERLOADED".into());
            return;
        }
        for (&v, unit) in rev.versions.iter().zip(&a.units) {
            match unit {
                Ok(text) => match self.outputs.get(&v) {
                    Some(prev) if prev != text => {
                        report.fail(1, format!("version {v} answered two different texts"));
                    }
                    Some(_) => {}
                    None => {
                        self.outputs.insert(v, text.clone());
                    }
                },
                Err(e) => report.fail(1, format!("UNIT_ERR {e}")),
            }
        }
    }

    pub fn maybe_sample(&mut self, rev: &Revision, a: &Answer, want: bool) {
        if want && !a.shed && a.units.iter().all(Result::is_ok) {
            let mut text = a
                .units
                .iter()
                .map(|u| u.as_deref().expect("checked ok"))
                .collect::<Vec<_>>()
                .join("\n\n");
            text.push('\n');
            self.samples.push((rev.text.clone(), text));
        }
    }
}

/// Spawns a daemon and waits until it has answered the warm-up module;
/// returns the daemon, an open connection, and the seconds that took. The
/// time is not scaled to the reference speed: most of it is the accept
/// loop's 10 ms poll sleep, which machine speed does not move.
pub fn start_daemon(
    bin: &Path,
    socket: &Path,
    report: &mut Report,
    seed: u64,
) -> Result<(Daemon, Conn, f64), String> {
    let warm = gen::warmup_module();
    let warm_rev = Revision {
        text: warm.to_string(),
        versions: vec![0],
        kind: gen::EditKind::Base,
    };
    let start = Instant::now();
    let d = Daemon::spawn(bin, socket, nproc())?;
    let mut c = Conn::open(&d)?;
    let a = closed_request(&mut c, &warm_rev)?;
    let setup = start.elapsed().as_secs_f64();
    report.attempted += 1;
    match a.units.first() {
        Some(Ok(text)) => {
            let f = warm.iter().next().expect("warm-up module has one function");
            if let Err(e) = oracle::check_text(f, text, seed) {
                report.fail(1, format!("warm-up answer: {e}"));
            }
        }
        _ => report.fail(1, "warm-up module was not answered".into()),
    }
    Ok((d, c, setup))
}

/// Wall time per stage of a run, for the report.
struct PhaseClock {
    last: Instant,
    laps: Vec<(&'static str, f64)>,
}

impl PhaseClock {
    fn start() -> Self {
        PhaseClock {
            last: Instant::now(),
            laps: Vec::new(),
        }
    }

    fn lap(&mut self, name: &'static str) {
        self.laps.push((name, self.last.elapsed().as_secs_f64()));
        self.last = Instant::now();
    }

    fn line(&self) -> String {
        let laps: Vec<String> = self
            .laps
            .iter()
            .map(|(n, s)| format!("{n} {s:.1}s"))
            .collect();
        format!("stage wall times: {}", laps.join(", "))
    }
}

/// Pass/fail of one ladder rung.
struct Rung {
    rate: f64,
    requests: usize,
    p99_ms: f64,
    achieved: f64,
    aborted: bool,
    shed: usize,
    pass: bool,
}

impl Rung {
    /// A rung passes when every request was answered, the p99 meets the
    /// latency limit, and answers kept pace with the offered rate.
    fn of(p: &Phase, rate: f64) -> Rung {
        let lat = p.latencies_ms();
        let p99_ms = if lat.is_empty() {
            f64::INFINITY
        } else {
            quantile(&lat, 0.99)
        };
        let span = p
            .done
            .last()
            .zip(p.due.first())
            .map_or(f64::INFINITY, |(d, s)| d.duration_since(*s).as_secs_f64());
        let achieved = p.answers.len() as f64 / span;
        let shed = p.shed();
        Rung {
            rate,
            requests: p.answers.len(),
            p99_ms,
            achieved,
            aborted: p.aborted,
            shed,
            pass: !p.aborted
                && shed == 0
                && p99_ms <= LATENCY_LIMIT_MS
                && achieved >= MIN_ACHIEVED * rate,
        }
    }
}

/// Sends the stream's next `n` revisions at `rate` and records every
/// answer.
fn phase(
    conn: &mut Conn,
    stream: &mut EditStream,
    observed: &mut Observed,
    report: &mut Report,
    rate: f64,
    n: usize,
    max_backlog: Option<usize>,
) -> Result<(Phase, Vec<Revision>), String> {
    let revs: Vec<Revision> = (0..n).map(|_| stream.next_revision()).collect();
    let frames: Vec<Vec<u8>> = revs.iter().map(|r| frame(&r.text)).collect();
    let p = open_loop(conn, &frames, gen::EDIT_FUNCTIONS, rate, max_backlog)?;
    for (rev, a) in revs.iter().zip(&p.answers) {
        observed.record(report, rev, a);
    }
    Ok((p, revs))
}

/// One editor session: its revision stream, its connection to the
/// daemon, the answers it got, and every version it sent.
struct Session {
    stream: EditStream,
    conn: Conn,
    observed: Observed,
    sent: Vec<usize>,
}

impl Session {
    /// Opens the session and sends its starting module, untimed: the
    /// daemon computes every function once, as an editor's first save
    /// would.
    fn open(
        daemon: &Daemon,
        conn: Option<Conn>,
        seed: u64,
        id: usize,
        report: &mut Report,
    ) -> Result<Session, String> {
        let mut conn = match conn {
            Some(c) => c,
            None => Conn::open(daemon)?,
        };
        let stream = EditStream::new(seed, id);
        let base = stream.current_revision(gen::EditKind::Base);
        let a = closed_request(&mut conn, &base)?;
        let mut observed = Observed::default();
        observed.record(report, &base, &a);
        Ok(Session {
            stream,
            conn,
            observed,
            sent: base.versions,
        })
    }

    /// Sends `n` revisions back to back, each once the previous answer is
    /// in; returns them with their answers and round trips.
    fn closed(&mut self, n: usize) -> Result<Vec<(Revision, Answer, f64)>, String> {
        (0..n)
            .map(|_| {
                let rev = self.stream.next_revision();
                let f = frame(&rev.text);
                let start = Instant::now();
                let a = send(&mut self.conn, &f, rev.versions.len())?;
                Ok((rev, a, start.elapsed().as_secs_f64()))
            })
            .collect()
    }

    fn record(&mut self, report: &mut Report, done: &[(Revision, Answer, f64)]) {
        for (rev, a, _) in done {
            self.observed.record(report, rev, a);
            self.sent.extend(&rev.versions);
        }
    }
}

/// One throughput block: every session sends [`CLOSED_REQUESTS`]
/// revisions closed loop on its own connection, all at once, the first
/// from this thread and each other from a thread of its own. Returns the
/// block's wall time.
fn throughput_block(sessions: &mut [Session], report: &mut Report) -> Result<f64, String> {
    let start = Instant::now();
    let (first, rest) = sessions.split_first_mut().expect("at least one session");
    let results = std::thread::scope(|s| {
        let others: Vec<_> = rest
            .iter_mut()
            .map(|sess| s.spawn(|| sess.closed(CLOSED_REQUESTS)))
            .collect();
        let mut results = vec![first.closed(CLOSED_REQUESTS)];
        results.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("session thread panicked")),
        );
        results
    });
    let wall = start.elapsed().as_secs_f64();
    for (sess, r) in sessions.iter_mut().zip(results) {
        sess.record(report, &r?);
    }
    Ok(wall)
}

pub fn run(bin: &Path, seed: u64, seconds: f64, work: &WorkDir) -> Report {
    let mut report = Report::default();
    match measure(bin, seed, seconds, work, &mut report) {
        Ok(()) => {}
        Err(e) => report.fail(0, e),
    }
    report
}

fn measure(
    bin: &Path,
    seed: u64,
    seconds: f64,
    work: &WorkDir,
    report: &mut Report,
) -> Result<(), String> {
    let mut clock = PhaseClock::start();
    let socket = work.path("d.sock");
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPS {
        let (d, c, s) = start_daemon(bin, &socket, report, seed)?;
        setups.push(s);
        if i + 1 == SETUP_REPS {
            kept = Some((d, c));
        } else {
            drop(c);
            d.shutdown()?;
        }
    }
    let (daemon, conn) = kept.expect("at least one set-up sample");

    let k = gen::EDIT_FUNCTIONS;
    let mut sessions = vec![Session::open(&daemon, Some(conn), seed, 0, report)?];
    for id in 1..nproc().clamp(1, gen::MAX_SESSIONS) {
        sessions.push(Session::open(&daemon, None, seed, id, report)?);
    }

    clock.lap("setup");
    // Closed-loop blocks, each right after a speed probe, as batch
    // invocations are, so their times can be scaled to the reference
    // speed. A latency block times one session's requests alone; a
    // throughput block runs every session at once and counts the
    // functions answered per second.
    let (mut rtt, mut rtt_raw) = (Vec::new(), Vec::new());
    let (mut fps, mut fps_raw) = (Vec::new(), Vec::new());
    let block_fns = (sessions.len() * CLOSED_REQUESTS * k) as f64;
    for _ in 0..CLOSED_BLOCKS {
        let speed = calib::factor(calib::speed_probe_s());
        let done = sessions[0].closed(CLOSED_REQUESTS)?;
        sessions[0].record(report, &done);
        for (_, _, t) in &done {
            rtt_raw.push(*t);
            rtt.push(t * speed);
        }
        let speed = calib::factor(calib::pool_speed_probe_s(nproc()));
        let wall = throughput_block(&mut sessions, report)?;
        fps_raw.push(block_fns / wall);
        fps.push(block_fns / (wall * speed));
    }
    report.note(format!(
        "closed loop: {CLOSED_BLOCKS} latency blocks of {CLOSED_REQUESTS} requests from one \
         session, {CLOSED_BLOCKS} throughput blocks of {CLOSED_REQUESTS} requests from each of \
         {} sessions at once",
        sessions.len()
    ));
    let others = sessions.split_off(1);
    let Session {
        mut stream,
        mut conn,
        mut observed,
        sent: mut quality_versions,
    } = sessions.pop().expect("session 0 is open");

    clock.lap("closed");
    // The open-loop latency phase, at the fixed rung.
    let rates = ladder();
    let fixed_rate = rates[FIXED_RUNG];
    let n0 = ((fixed_rate * FIXED_SHARE * seconds) as usize).max(MIN_REQUESTS);
    let (fixed, revs) = phase(
        &mut conn,
        &mut stream,
        &mut observed,
        report,
        fixed_rate,
        n0,
        None,
    )?;
    // The memory high-water mark is read right away, so it covers the
    // same revisions in every run.
    let rss_kb = crate::lcmopt::peak_rss_kb(daemon.pid());
    let mut kinds: HashMap<&str, usize> = HashMap::new();
    let sample_every = (n0 / REVISION_SAMPLES).max(1);
    for (i, (rev, a)) in revs.iter().zip(&fixed.answers).enumerate() {
        observed.maybe_sample(rev, a, i % sample_every == sample_every / 2);
        quality_versions.extend(&rev.versions);
        *kinds.entry(rev.kind.name()).or_default() += 1;
    }
    drop(revs);

    clock.lap("latency");
    // The capacity search walks the ladder from the rung the latency
    // phase's service time predicts: up while rungs pass, down while they
    // fail, until a passing rung sits right below a failing one or the
    // probes run out. Each probe sends at least [`MIN_PROBE_REQUESTS`].
    let mut rungs = vec![Rung::of(&fixed, fixed_rate)];
    let service = median(&fixed.service_s());
    let mut best = rungs[0].pass.then_some(FIXED_RUNG);
    let mut lowest_fail = rates.len();
    let predicted = rates
        .iter()
        .rposition(|&r| r <= PREDICTED_LOAD / service)
        .unwrap_or(0);
    let mut at = match best {
        Some(b) => predicted.max(b + 1),
        None => predicted.min(FIXED_RUNG.saturating_sub(1)),
    };
    let probe_s = (1.0 - FIXED_SHARE) * seconds / PROBES as f64;
    for _ in 0..PROBES {
        if at >= lowest_fail || best.is_some_and(|b| b + 1 >= lowest_fail) {
            break;
        }
        let rate = rates[at];
        let n = ((rate * probe_s) as usize).max(MIN_PROBE_REQUESTS);
        std::thread::sleep(Duration::from_millis(50));
        let (p, _) = phase(
            &mut conn,
            &mut stream,
            &mut observed,
            report,
            rate,
            n,
            Some(MAX_BACKLOG),
        )?;
        let rung = Rung::of(&p, rate);
        if rung.pass {
            best = Some(at);
            at += 1;
        } else {
            lowest_fail = at;
            if at == 0 || best.is_some() {
                rungs.push(rung);
                break;
            }
            at -= 1;
        }
        rungs.push(rung);
    }

    clock.lap("ladder");
    let stats_text = daemon.stats()?;
    drop(conn);
    let mut checked = vec![(stream, observed, quality_versions)];
    checked.extend(others.into_iter().map(|s| (s.stream, s.observed, s.sent)));
    daemon.shutdown()?;

    // Outside the timed region: the oracle, over every session.
    let mut quality = Quality::default();
    for (stream, observed, mut sent) in checked {
        check_against_batch(bin, work, &stream, &observed, report)?;
        sent.sort_unstable();
        sent.dedup();
        let mut pairs = Vec::with_capacity(sent.len());
        for &v in &sent {
            match observed.outputs.get(&v) {
                Some(text) => pairs.push((&stream.versions[v], text.as_str())),
                None => report.fail(1, format!("version {v} was never answered")),
            }
        }
        for r in oracle::check_texts(&pairs, seed, nproc()) {
            match r {
                Ok(q) => quality.add(q),
                Err(e) => report.fail(1, e),
            }
        }
    }

    clock.lap("checks");
    report.note(clock.line());
    let lat = summarize(&fixed.latencies_ms());
    let lag = fixed.lags_ms();
    for r in &rungs {
        report.note(format!(
            "rung {:>6.1} rps: {} requests, p99 {:.3} ms, achieved {:.1} rps{}{} -> {}",
            r.rate,
            r.requests,
            r.p99_ms,
            r.achieved,
            if r.aborted { ", backlog bound hit" } else { "" },
            if r.shed > 0 { ", shed" } else { "" },
            if r.pass { "pass" } else { "fail" }
        ));
    }
    report.note(format!(
        "latency phase: {} requests of {k} functions at {fixed_rate:.1} rps, revisions {kinds:?}; \
         latency limit {LATENCY_LIMIT_MS} ms; request timings are raw (see README)",
        lat.count,
    ));
    for line in stats_text.lines() {
        report.note(format!("daemon {line}"));
    }
    report.note(format!(
        "fail_frac {:.6} ({} of {} units)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    let capacity = best.map_or(0.0, |b| rates[b]);
    report.metric("setup_s", median(&setups), "s");
    report.metric("fn_per_s", median(&fps), "fn/s");
    report.metric("latency_p50_ms", median(&rtt) * 1e3, "ms");

    report.metric("dyn_evals_ratio", quality.dyn_evals_ratio(), "ratio");
    report.metric("out_instrs_ratio", quality.out_instrs_ratio(), "ratio");
    match rss_kb {
        Some(kb) => report.metric("peak_rss_mb", kb as f64 / 1024.0, "MB"),
        None => report.fail(0, "daemon peak RSS was never sampled".into()),
    }
    report.extra("open.latency_p50_ms", lat.median, "ms");
    report.extra(&format!("latency_p{:.0}_ms", lat.tail_pct), lat.tail, "ms");
    report.extra("capacity_rps", capacity, "1/s");
    report.extra("open.fn_per_s", k as f64 / service, "fn/s");
    report.extra("raw.fn_per_s", median(&fps_raw), "fn/s");
    report.extra("raw.latency_p50_ms", median(&rtt_raw) * 1e3, "ms");
    report.extra("gen.lag_p99_ms", quantile(&lag, 0.99), "ms");
    report.extra(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// Byte-compares the daemon's answers with one-shot `lcmopt batch` runs:
/// every distinct function version answered, in one module with the
/// versions renamed apart, and a few full revisions as sent.
pub fn check_against_batch(
    bin: &Path,
    work: &WorkDir,
    stream: &EditStream,
    observed: &Observed,
    report: &mut Report,
) -> Result<(), String> {
    let mut ids: Vec<usize> = observed.outputs.keys().copied().collect();
    ids.sort_unstable();
    let path = work.path("versions.lcm");
    write(&path, &stream.versions_module(&ids).to_string())?;
    let jobs = nproc().to_string();
    let p = path.display().to_string();
    let r = run_batch(bin, &["--cache", "off", "--jobs", &jobs, &p])?;
    if !r.status.success() {
        return Err(format!("one-shot batch failed: {}", r.stderr.trim()));
    }
    let out = String::from_utf8(r.stdout).map_err(|e| e.to_string())?;
    let units: Vec<&str> = out.trim_end_matches('\n').split("\n\n").collect();
    if units.len() != ids.len() {
        return Err(format!(
            "one-shot batch printed {} units for {} versions",
            units.len(),
            ids.len()
        ));
    }
    for (&v, unit) in ids.iter().zip(units) {
        let name = &stream.versions[v].name;
        let expected = unit.replacen(&format!("fn {name}__v{v} {{"), &format!("fn {name} {{"), 1);
        if observed.outputs[&v] != expected {
            report.fail(
                1,
                format!("fn {name} version {v}: daemon answer differs from batch"),
            );
        }
    }
    for (i, (module, answer)) in observed.samples.iter().enumerate() {
        let path = work.path(&format!("revision{i}.lcm"));
        write(&path, module)?;
        let p = path.display().to_string();
        let r = run_batch(bin, &["--jobs", &jobs, &p])?;
        if !r.status.success() || r.stdout != answer.as_bytes() {
            report.fail(
                gen::EDIT_FUNCTIONS as u64,
                format!("sampled revision {i}: daemon answer differs from one-shot batch"),
            );
        }
    }
    Ok(())
}
