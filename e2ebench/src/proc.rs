//! The daemon under test as a separate `sedspec serve` process, and
//! what `/proc` says about it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use sedspecd::{ClientError, CtlClient};

/// How long a daemon may take to answer its first ping or to exit. A
/// warm start decodes the whole spec snapshot, which takes 7 to 10 s on
/// a 2-core host and more when the host is busy.
const DEADLINE: Duration = Duration::from_secs(60);

/// A running `sedspec serve`.
pub struct DaemonProc {
    child: Child,
    /// The daemon's Unix socket (relative to the working directory,
    /// which keeps it under the 108-byte `sun_path` limit).
    pub socket: PathBuf,
}

impl DaemonProc {
    /// Starts `sedspec serve` on `store`, logging its stderr to `log`,
    /// and returns once it answers a ping.
    ///
    /// # Errors
    ///
    /// When the process cannot start, exits early, or stays silent
    /// past the deadline.
    pub fn start(sedspec: &Path, store: &Path, socket: &Path, log: &Path) -> Result<Self, String> {
        let _ = fs::remove_file(socket);
        let log = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("daemon log {}: {e}", log.display()))?;
        let child = Command::new(sedspec)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", sedspec.display()))?;
        let mut daemon = DaemonProc { child, socket: socket.to_path_buf() };
        daemon.wait_ready()?;
        Ok(daemon)
    }

    /// Polls `ping` on fresh connections until one answers.
    fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + DEADLINE;
        loop {
            if let Ok(mut probe) = CtlClient::connect_unix(&self.socket) {
                match probe.ping() {
                    Ok(_) | Err(ClientError::Server { .. }) => return Ok(()),
                    Err(_) => {}
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err(format!("daemon did not answer a ping within {DEADLINE:?}"));
            }
            thread::sleep(Duration::from_micros(500));
        }
    }

    /// A fresh client connection. Load connections go idle after the
    /// load, and the daemon drops connections idle for more than 5 s,
    /// so every admin call after the load dials anew.
    ///
    /// # Errors
    ///
    /// When the socket is unreachable.
    pub fn connect(&self) -> Result<CtlClient, String> {
        CtlClient::connect_unix(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful shutdown over a fresh connection; waits for the process
    /// to exit (the daemon compacts its store on the way out).
    ///
    /// # Errors
    ///
    /// When the request fails or the process outlives the deadline (it
    /// is then killed).
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.connect().and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() > deadline => {
                    return Err("daemon did not exit after shutdown".into());
                }
                Ok(None) => thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// User + system CPU time of `pid`, in microseconds.
pub fn cpu_us(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ (100 on Linux).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000)
}

/// The host's (steal, all) CPU ticks so far, from the `cpu` line of
/// `/proc/stat`: time a hypervisor ran something else while this
/// machine's CPUs had work, against all CPU time.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line.split_whitespace().filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // guest time being already counted in user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Milliseconds a fixed single-thread integer loop takes, the median of
/// five: the host's speed at the time, independent of the code under
/// test. Shared hosts drift by tens of percent over minutes.
pub fn host_speed_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..4_000_000u64 {
                x = std::hint::black_box(x.rotate_left(5) ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d);
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// Peak resident set (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The filesystem type holding `path` (the longest matching mount
/// point in `/proc/self/mountinfo`); WAL fsync cost depends on it.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = fs::canonicalize(path) else { return "unknown".into() };
    let Ok(info) = fs::read_to_string("/proc/self/mountinfo") else { return "unknown".into() };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(mount) = fields.get(4) else { continue };
        let Some(dash) = fields.iter().position(|f| *f == "-") else { continue };
        let Some(fstype) = fields.get(dash + 1) else { continue };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}
