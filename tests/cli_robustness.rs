//! Graceful-degradation tests for the `lcmopt` driver: whatever bytes it
//! is fed, it must exit with one of the documented codes and a diagnostic
//! on stderr — never a panic (exit code 1 is reserved for the caught-panic
//! backstop, and reaching it is itself a bug).

use std::io::Write;
use std::process::{Command, Stdio};

const EXIT_PANIC: i32 = 1;
const DOCUMENTED: [i32; 5] = [0, 2, 3, 4, 5];

fn run_lcmopt(args: &[&str], stdin: &[u8]) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lcmopt"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lcmopt");
    let write_result = child.stdin.as_mut().expect("stdin piped").write_all(stdin);
    if let Err(e) = write_result {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe);
    }
    let out = child.wait_with_output().expect("wait for lcmopt");
    (
        out.status.code().expect("no exit code (signal?)"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Deterministic byte-garbling: truncations and single-byte substitutions
/// of well-formed corpus programs.
fn garblings(text: &str) -> Vec<Vec<u8>> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    // Truncations at a spread of offsets.
    for i in 1..8 {
        let cut = bytes.len() * i / 8;
        out.push(bytes[..cut].to_vec());
    }
    // Byte substitutions sprinkled through the program.
    for (i, &junk) in [b'{', b'}', b':', b'=', b'@', 0xFF].iter().enumerate() {
        let mut g = bytes.to_vec();
        let pos = (i * 37 + 11) % g.len();
        g[pos] = junk;
        out.push(g);
    }
    out
}

#[test]
fn never_panics_on_garbled_corpus_inputs() {
    let functions = lcm::cfggen::corpus(0xBAD5EED, 6, &lcm::cfggen::GenOptions::sized(8));
    for f in &functions {
        let text = f.to_string();
        // The pristine program must be accepted.
        let (code, _, stderr) = run_lcmopt(&["--validate=full"], text.as_bytes());
        assert_eq!(code, 0, "pristine program rejected: {stderr}");

        for garbled in garblings(&text) {
            let (code, _, stderr) = run_lcmopt(&[], &garbled);
            assert_ne!(code, EXIT_PANIC, "lcmopt panicked; stderr: {stderr}");
            assert!(
                DOCUMENTED.contains(&code),
                "undocumented exit code {code}; stderr: {stderr}"
            );
            if code != 0 {
                assert!(
                    stderr.starts_with("lcmopt: "),
                    "failure without diagnostic (code {code}): {stderr:?}"
                );
            }
        }
    }
}

#[test]
fn exit_codes_are_distinct_per_failure_class() {
    // Usage error: 2.
    let ok_program: &[u8] = b"fn ok {\nentry:\n  x = a + b\n  obs x\n  ret\n}";
    let (code, _, stderr) = run_lcmopt(&["--passes", "nonsense"], ok_program);
    assert_eq!(code, 2, "{stderr}");
    // Unreadable file: 2.
    let (code, _, _) = run_lcmopt(&["/nonexistent/input.lcm"], b"");
    assert_eq!(code, 2);
    // Parse error: 3, with file:line:col.
    let (code, _, stderr) = run_lcmopt(&[], b"fn broken {\nentry:\n  x = +\n  ret\n}");
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("<stdin>:3:"), "{stderr}");
    // Verify error: 4.
    let (code, _, stderr) = run_lcmopt(&[], b"fn v {\nentry:\n  ret\norphan:\n  jmp entry\n}");
    assert_eq!(code, 4, "{stderr}");
    assert!(stderr.contains("not well-formed"), "{stderr}");
    // Bad validation level is a usage error.
    let (code, _, stderr) = run_lcmopt(&["--validate=medium"], b"");
    assert_eq!(code, 2, "{stderr}");
    // There is one solver schedule; the retired `--solver` knob is an
    // unknown option in every front.
    let (code, _, stderr) = run_lcmopt(&["--solver", "scc"], ok_program);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown option `--solver`"), "{stderr}");
    for args in [
        &["batch", "--solver", "scc", "-"][..],
        &["serve", "--solver", "scc"],
        &["watch", "--solver", "scc", "m.lcm"],
    ] {
        let (code, _, stderr) = run_lcmopt(args, b"");
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("`--solver`"), "{args:?}: {stderr}");
    }
}

/// `batch`, `serve` and `watch` parse the shared engine flags through one
/// helper: the same bad value is the same usage error (exit 2) in each,
/// and `watch`, which keeps no plan cache, refuses the cache flags.
#[test]
fn engine_flags_fail_alike_in_every_subcommand() {
    for (sub, tail) in [
        ("batch", Some("-")),
        ("serve", None),
        ("watch", Some("m.lcm")),
    ] {
        let mut cases = vec![
            (vec!["--placement", "nope"], "unknown placement `nope`"),
            (vec!["--placement"], "--placement needs lcm|bcm|spec"),
            (vec!["--validate=medium"], "medium"),
        ];
        if sub != "watch" {
            cases.push((vec!["--cache", "maybe"], "bad cache mode `maybe`"));
            cases.push((vec!["--cache-cap", "x"], "bad cache capacity `x`"));
        } else {
            cases.push((vec!["--cache", "on"], "unknown watch argument `--cache`"));
        }
        for (flags, expected) in cases {
            // The input path goes first so a flag missing its value
            // cannot swallow it.
            let mut args = vec![sub];
            args.extend(tail);
            args.extend(flags);
            let (code, _, stderr) = run_lcmopt(&args, b"");
            assert_eq!(code, 2, "{args:?}: {stderr}");
            assert!(stderr.contains(expected), "{args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("lcmopt {sub}")),
                "{args:?}: {stderr}"
            );
        }
    }
}

#[test]
fn validate_flag_levels_are_accepted() {
    let program = b"fn ok {\nentry:\n  x = a + b\n  obs x\n  ret\n}";
    for arg in [
        "--validate",
        "--validate=off",
        "--validate=fast",
        "--validate=full",
    ] {
        let (code, _, stderr) = run_lcmopt(&[arg], program);
        assert_eq!(code, 0, "{arg}: {stderr}");
    }
}
