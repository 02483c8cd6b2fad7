//! End-to-end tests of the `pd` command-line tool: the ANF front-end,
//! the Verilog round-trip, and the option surface.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn pd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pd"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (bool, String, String) {
    let mut child = pd()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pd");
    // `pd` rejects bad flags before it reads stdin and may exit before
    // the write: a broken pipe is then expected, and the exit status and
    // stderr below still tell.
    let written = child.stdin.as_mut().expect("piped").write_all(stdin.as_bytes());
    if let Err(e) = written {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write stdin: {e}");
    }
    let out = child.wait_with_output().expect("wait");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const FULL_ADDER: &str = "\
# full adder
sum   = a ^ b ^ cin
carry = a*b ^ b*cin ^ cin*a
";

#[test]
fn decomposes_spec_from_stdin() {
    let (ok, stdout, stderr) = run_with_stdin(&["-"], FULL_ADDER);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("verification: OK"));
    assert!(stdout.contains("PD implementation"));
}

#[test]
fn exact_factor_and_zdd_reports() {
    let (ok, stdout, stderr) =
        run_with_stdin(&["--exact", "--factor", "--zdd", "-"], FULL_ADDER);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("exact (BDD)"));
    assert!(stdout.contains("kernel extraction"));
    assert!(stdout.contains("ZDD (ring) form"));
}

#[test]
fn verilog_round_trip_through_the_cli() {
    // Emit Verilog from a spec, feed the Verilog back in as input.
    let dir = std::env::temp_dir().join(format!("pd-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let vfile = dir.join("fa.v");
    let (ok, _, stderr) = run_with_stdin(
        &["--verilog", vfile.to_str().expect("utf-8"), "-"],
        FULL_ADDER,
    );
    assert!(ok, "stderr: {stderr}");
    let out = pd()
        .arg("--exact")
        .arg(&vfile)
        .output()
        .expect("run pd on verilog");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verification: OK"));
    assert!(stdout.contains("netlist ≡ specification"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_spec_reports_line_and_fails() {
    let (ok, _, stderr) = run_with_stdin(&["-"], "sum = a ^ ^ b\n");
    assert!(!ok);
    assert!(stderr.contains("line 1"), "stderr: {stderr}");
}

#[test]
fn trace_shows_leaders() {
    let (ok, stdout, _) = run_with_stdin(&["--trace", "-"], FULL_ADDER);
    assert!(ok);
    assert!(stdout.contains("leader"), "trace must list leaders: {stdout}");
}

#[test]
fn group_size_flag_is_respected() {
    let (ok, stdout, _) = run_with_stdin(&["-k", "2", "-"], FULL_ADDER);
    assert!(ok);
    assert!(stdout.contains("verification: OK"));
    let (ok, _, stderr) = run_with_stdin(&["-k", "0", "-"], FULL_ADDER);
    assert!(!ok);
    assert!(stderr.contains("positive"), "stderr: {stderr}");
}
