//! Process plumbing without new dependencies: spawn a runner, reap it with
//! a hand-declared `wait4` (CPU and peak RSS of the child *and* every
//! descendant it waited for), kill it on timeout, and read a long-lived
//! process's counters from `/proc`.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

/// `cpu_set_t`: a bit mask over 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SIGKILL: i32 = 9;
const RUSAGE_SELF: i32 = 0;
const SC_CLK_TCK: i32 = 2;

fn cpu_seconds(usage: &Rusage) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let t = |tv: Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(usage.utime) + t(usage.stime)
}

/// CPU seconds this process has used so far (all threads).
pub fn self_cpu_s() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable rusage-layout buffer.
    unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    cpu_seconds(&usage)
}

/// Restricts the process `command` spawns to one CPU: the highest-numbered
/// CPU this process may run on. The runner then sizes its worker pool to
/// one, since `available_parallelism` honors the affinity mask.
pub fn pin_to_one_cpu(command: &mut Command) {
    use std::os::unix::process::CommandExt;
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return;
    }
    let Some(cpu) = (0..1024)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
    else {
        return;
    };
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the closure runs in the forked child before exec and only
    // makes one async-signal-safe syscall on its own copy of the mask.
    unsafe {
        command.pre_exec(move || {
            if sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
}

/// How one spawned process ended.
pub struct Exit {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// User + system CPU of the process and its waited-for descendants.
    pub cpu_s: f64,
    /// Largest resident set over the process and its descendants, MiB.
    pub peak_rss_mb: f64,
    /// `true` for exit status 0.
    pub success: bool,
    /// `true` when the watchdog had to kill it.
    pub timed_out: bool,
    pub stdout: String,
}

/// Runs `command` to completion (stdout captured, stderr appended to
/// `stderr_log`), killing it after `timeout`.
pub fn run(mut command: Command, stderr_log: &Path, timeout: Duration) -> std::io::Result<Exit> {
    let log = File::options().create(true).append(true).open(stderr_log)?;
    command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(log));
    let start = Instant::now();
    let mut child = command.spawn()?;
    #[allow(clippy::cast_possible_wrap)]
    let pid = child.id() as i32;
    let watchdog = Watchdog::arm(pid, timeout);
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        use std::io::Read;
        let _ = out.read_to_string(&mut stdout);
    }
    let (status, usage) = reap(pid)?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Exit {
        wall_s,
        cpu_s: cpu_seconds(&usage),
        #[allow(clippy::cast_precision_loss)]
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        // Exited normally (low 7 bits clear) with code 0.
        success: status == 0,
        timed_out: watchdog.disarm(),
        stdout,
    })
}

/// Kills a child that outlives its deadline.
pub struct Watchdog {
    cancel: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<bool>,
}

impl Watchdog {
    pub fn arm(pid: i32, timeout: Duration) -> Self {
        let (cancel, cancelled) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if cancelled.recv_timeout(timeout).is_err() {
                // SAFETY: plain syscall; the child stays unreaped until the
                // owner's wait returns, and the owner disarms right after.
                unsafe { kill(pid, SIGKILL) };
                return true;
            }
            false
        });
        Self { cancel, thread }
    }

    /// Stops the watchdog; `true` when it had already killed the child.
    pub fn disarm(self) -> bool {
        let _ = self.cancel.send(());
        self.thread.join().unwrap_or(false)
    }
}

/// Waits (bounded by `timeout`) for a child started elsewhere; returns
/// whether it exited with status 0, and its CPU seconds.
pub fn wait_exit(pid: i32, timeout: Duration) -> std::io::Result<(bool, f64)> {
    let watchdog = Watchdog::arm(pid, timeout);
    let (status, usage) = reap(pid)?;
    let killed = watchdog.disarm();
    Ok((status == 0 && !killed, cpu_seconds(&usage)))
}

/// Blocks in `wait4` until `pid` exits; returns its raw status and rusage.
fn reap(pid: i32) -> std::io::Result<(i32, Rusage)> {
    let mut status = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: valid out-pointers; `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// User + system CPU seconds of a live process, from `/proc/<pid>/stat`.
pub fn proc_cpu_s(pid: i32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 overall, i.e. 12 and 13 after the `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    // SAFETY: sysconf is a pure query.
    #[allow(clippy::cast_precision_loss)]
    let hz = unsafe { sysconf(SC_CLK_TCK) } as f64;
    Some(ticks / if hz > 0.0 { hz } else { 100.0 })
}

/// A `/proc/<pid>/status` memory field (`VmHWM`, `VmRSS`) in MiB.
pub fn proc_mem_mb(pid: i32, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
