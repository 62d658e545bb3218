//! Runs an entry point under a deadline: the shared core of the
//! command-line tests of every crate's binaries.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Run `bin` with `args` and return its output.  The child is polled
/// with `try_wait` and killed after 10 s, so a binary that starts working
/// where it should have refused fails the test instead of hanging it.
pub fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot start {bin}: {e}"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("child can be polled").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{bin} {args:?} still ran after 10 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("output collected")
}

/// `bin` with `args` must exit 2 and name `needle` on stderr.
pub fn refused(bin: &str, args: &[&str], needle: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} exited {:?}: {stderr}", out.status);
    assert!(stderr.contains(needle), "{bin} {args:?} does not name {needle}: {stderr}");
}

/// `bin --help` must exit 0 and list every row of its table, spelled as
/// `--name` or `--name=VALUE`.
pub fn lists_flags(bin: &str, flags: &[&str]) {
    for help in ["--help", "-h"] {
        let out = run(bin, &[help]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{bin} {help} exited {:?}", out.status);
        for flag in flags {
            assert!(stdout.contains(&format!("  {flag} ")), "{bin} {help} misses {flag}:\n{stdout}");
        }
    }
}

/// Every binary of `bins` (path, the flags its `--help` lists) refuses a
/// misspelled flag and lists its flags.  A binary without flags is given
/// `--hepl`; the others, their first flag with its last two letters
/// swapped.
pub fn refuses_misspellings(bins: &[(&str, &[&str])]) {
    for (bin, flags) in bins {
        let name = flags.first().map_or("--help", |f| f.split('=').next().unwrap_or(f));
        let (stem, tail) = name.split_at(name.len() - 2);
        let misspelled = format!("{stem}{}", tail.chars().rev().collect::<String>());
        refused(bin, &[&misspelled], &format!("unknown flag `{misspelled}`"));
        lists_flags(bin, flags);
    }
}
