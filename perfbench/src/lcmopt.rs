//! Building and driving the shipped `lcmopt` binary: one-shot `batch`
//! invocations and `serve --socket` daemons.

use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use lcm_driver::protocol::{read_response, write_request, Request, Response};

/// Where the benchmark keeps its scratch files (module files, sockets),
/// relative to the checkout root it runs from.
pub const WORK_DIR: &str = ".perfbench";

/// Builds `lcmopt` from the checkout's sources with the release profile
/// and returns the path of the binary.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "--bin",
            "lcmopt",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building lcmopt failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let bin = Path::new(&target).join("release").join("lcmopt");
    if !bin.is_file() {
        return Err(format!("built lcmopt not found at {}", bin.display()));
    }
    Ok(bin)
}

/// One finished `lcmopt batch` process.
pub struct BatchRun {
    /// Spawn to exit, in seconds.
    pub wall: f64,
    pub stdout: Vec<u8>,
    pub stderr: String,
    pub status: ExitStatus,
    /// Peak resident set in KiB, sampled once the process started printing
    /// (all its work is done by then); `None` when it was too quick to
    /// sample.
    pub peak_rss_kb: Option<u64>,
}

/// Runs `lcmopt batch ARGS` to completion.
pub fn run_batch(bin: &Path, args: &[&str]) -> Result<BatchRun, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .arg("batch")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn lcmopt: {e}"))?;
    let pid = child.id();
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut stdout = Vec::new();
    let mut chunk = [0u8; 1 << 16];
    // The first bytes arrive once every unit is optimized and the report
    // is rendered; an output larger than the pipe then holds the process
    // alive while its high-water mark is read.
    let first = out.read(&mut chunk).map_err(|e| e.to_string())?;
    let peak_rss_kb = if first > 0 { peak_rss_kb(pid) } else { None };
    stdout.extend_from_slice(&chunk[..first]);
    out.read_to_end(&mut stdout).map_err(|e| e.to_string())?;
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .map_err(|e| e.to_string())?;
    let status = child.wait().map_err(|e| e.to_string())?;
    Ok(BatchRun {
        wall: start.elapsed().as_secs_f64(),
        stdout,
        stderr,
        status,
        peak_rss_kb,
    })
}

/// `VmHWM` of a live process, in KiB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A running `lcmopt serve --socket` daemon. Dropping it kills the
/// process if [`Daemon::shutdown`] did not already stop it.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns a daemon listening on `socket` (a path relative to the
    /// working directory, which keeps it within the socket-path limit).
    pub fn spawn(bin: &Path, socket: &Path, workers: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--workers")
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn lcmopt serve: {e}"))?;
        Ok(Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// Connects, retrying until the socket accepts or `timeout` passes.
    pub fn connect(&self, timeout: Duration) -> Result<UnixStream, String> {
        let start = Instant::now();
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => return Ok(s),
                Err(e) if start.elapsed() > timeout => {
                    return Err(format!("daemon never accepted: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    /// The daemon's STATS text.
    pub fn stats(&self) -> Result<String, String> {
        let mut s = self.connect(Duration::from_secs(5))?;
        write_request(&mut s, &Request::Stats).map_err(|e| e.to_string())?;
        match read_response(&mut s).map_err(|e| e.to_string())? {
            Some(Response::Stats { text }) => Ok(text),
            other => Err(format!("STATS answered with {other:?}")),
        }
    }

    /// Sends SHUTDOWN and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut s = self.connect(Duration::from_secs(5))?;
        write_request(&mut s, &Request::Shutdown).map_err(|e| e.to_string())?;
        match read_response(&mut s).map_err(|e| e.to_string())? {
            Some(Response::Bye) => {}
            other => return Err(format!("SHUTDOWN answered with {other:?}")),
        }
        drop(s);
        let status = self
            .child
            .take()
            .expect("daemon is running")
            .wait()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One module's answer from the daemon, units in input order.
pub struct Answer {
    /// Per unit: the optimized text, or the failure message.
    pub units: Vec<Result<String, String>>,
    /// The daemon shed the request (`OVERLOADED`).
    pub shed: bool,
}

/// Reads one request's answer: unit frames until DONE, or a single
/// OVERLOADED / ERROR frame.
pub fn read_answer(r: &mut impl Read, n: usize) -> Result<Answer, String> {
    let mut units: Vec<Option<Result<String, String>>> = vec![None; n];
    loop {
        match read_response(r).map_err(|e| e.to_string())? {
            Some(Response::UnitOk { index, output }) => {
                *slot(&mut units, index)? = Some(Ok(output));
            }
            Some(Response::UnitErr {
                index,
                name,
                message,
                ..
            }) => {
                *slot(&mut units, index)? = Some(Err(format!("{name}: {message}")));
            }
            Some(Response::Done { .. }) => break,
            Some(Response::Overloaded { .. }) => {
                return Ok(Answer {
                    units: Vec::new(),
                    shed: true,
                })
            }
            Some(Response::Error { message, .. }) => return Err(format!("ERROR frame: {message}")),
            Some(other) => return Err(format!("unexpected frame {other:?}")),
            None => return Err("daemon closed the connection mid-request".to_string()),
        }
    }
    let units = units
        .into_iter()
        .enumerate()
        .map(|(i, u)| u.unwrap_or_else(|| Err(format!("unit {i} never answered"))))
        .collect();
    Ok(Answer { units, shed: false })
}

fn slot<T>(units: &mut [T], index: u32) -> Result<&mut T, String> {
    units
        .get_mut(index as usize)
        .ok_or_else(|| format!("unit index {index} out of range"))
}
