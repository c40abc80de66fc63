//! The program's processes: building the release binaries, starting
//! daemons, and running figure binaries with their peak memory.

use std::io::{self, BufRead, BufReader, Read};
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Release binaries the workloads run.
pub const BINARIES: [&str; 5] = [
    "gencache-serve",
    "gencache-shard",
    "fig9_miss_rates",
    "fig10_misses_eliminated",
    "fig11_overhead",
];

/// Builds [`BINARIES`] from the checkout in the current directory and
/// returns the directory holding them.
///
/// # Errors
///
/// Fails when the current directory is not a checkout of the repository
/// or the build fails.
pub fn build_binaries() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        return Err("run from the root of a repository checkout".to_string());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.args([
        "build",
        "--release",
        "--quiet",
        "-p",
        "gencache-serve",
        "-p",
        "gencache-bench",
    ]);
    for bin in BINARIES {
        cmd.args(["--bin", bin]);
    }
    let status = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the release binaries failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = target.join("release");
    for bin in BINARIES {
        if !dir.join(bin).is_file() {
            return Err(format!(
                "{} missing after the build",
                dir.join(bin).display()
            ));
        }
    }
    Ok(dir)
}

/// A running daemon. Dropping it kills the process and waits for it.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts `bin` with `args` and waits for its listen line,
    /// `<name> listening on <addr>…`.
    ///
    /// # Errors
    ///
    /// Fails when the process cannot start or exits before listening.
    pub fn start(bin: &Path, args: &[&str]) -> Result<Daemon, String> {
        let name = bin
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let prefix = format!("{name} listening on ");
        let addr = match (read, line.strip_prefix(&prefix)) {
            (Ok(_), Some(rest)) => rest
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_string(),
            _ => String::new(),
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        if daemon.addr.is_empty() {
            return Err(format!(
                "{name} {} did not start: {:?}",
                args.join(" "),
                line.trim_end()
            ));
        }
        Ok(daemon)
    }

    /// Peak resident set size so far (`VmHWM`), in KiB.
    ///
    /// # Errors
    ///
    /// Fails when `/proc` has no such process or no `VmHWM` line.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One finished figure-binary run.
#[derive(Debug)]
pub struct FigureRun {
    pub stdout: Vec<u8>,
    pub exit_ok: bool,
    pub wall: Duration,
    /// The process's peak resident set size in KiB.
    pub peak_rss_kib: u64,
}

/// The leading fields of `struct rusage` on 64-bit Linux; the kernel
/// writes all sixteen `long`s.
#[repr(C)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
}

/// Runs `bin` with `args` and `envs`, capturing stdout and discarding
/// stderr, and reaps it with `wait4` to read its own peak RSS (std's
/// `wait` does not report resource usage).
///
/// # Errors
///
/// Fails when the process cannot start or be reaped.
pub fn run_figure(bin: &Path, args: &[&str], envs: &[(&str, &str)]) -> Result<FigureRun, String> {
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .envs(envs.iter().copied())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let pid = c_int::try_from(child.id()).map_err(|e| format!("pid out of range: {e}"))?;
    let mut status: c_int = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on a
        // `Child` it is not asked to), and both pointers refer to live,
        // writable locals of the C layout the call expects.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(format!("wait4 on {}: {err}", bin.display()));
        }
    }
    let wall = started.elapsed();
    read.map_err(|e| format!("reading {} output: {e}", bin.display()))?;
    // WIFEXITED && WEXITSTATUS == 0.
    let exit_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(FigureRun {
        stdout,
        exit_ok,
        wall,
        peak_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}
