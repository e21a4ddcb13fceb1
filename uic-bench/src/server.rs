//! The `uic-serve` subprocess: spawn, readiness probe, metrics, peak
//! memory, and a shutdown that always reaps the child.

use crate::affinity::Split;
use crate::json::Json;
use std::io::BufRead as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};
use uic_serve::{Client, Response, RetryPolicy};

/// How long the server may take to print `LISTENING` (graph load from
/// the snapshot cache).
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a drained server may take to exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);
/// Socket deadline for the harness's own admin requests.
const ADMIN_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `uic-serve serve` child process.
pub struct ServerProc {
    child: Child,
    addr: String,
    lines: Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `bin serve <args…>` with the snapshot cache at `cache_dir`
    /// (on the server's share of the CPUs, if `split` is given) and
    /// waits for its `LISTENING <addr>` line.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        cache_dir: &Path,
        split: Option<&Split>,
    ) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .args(args)
            .env(uic_datasets::CACHE_ENV_VAR, cache_dir)
            .env_remove("UIC_FAILPOINTS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(split) = split {
            split.confine_server(&mut cmd);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = channel();
        let reader = std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            lines,
            reader: Some(reader),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match proc.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("LISTENING ") {
                        proc.addr = addr.trim().to_string();
                        return Ok(proc);
                    }
                }
                Err(RecvTimeoutError::Timeout) => return Err("server did not start in time".into()),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("server exited before listening".into())
                }
            }
        }
    }

    /// The server's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Waits until a `ping` succeeds, retrying refused connections and
    /// `overloaded` answers under `policy`. A connection accepted before
    /// the worker pool has parked can be refused at admission, so no
    /// timed traffic starts before this returns.
    pub fn wait_ready(&self, policy: &RetryPolicy) -> Result<(), String> {
        let mut last = String::new();
        for attempt in 0..=policy.max_retries {
            if attempt > 0 {
                std::thread::sleep(policy.backoff(0, attempt));
            }
            match Client::connect_timeout(self.addr.as_str(), ADMIN_TIMEOUT) {
                Err(e) => last = format!("connect: {e}"),
                Ok(mut c) => match c.request("ping") {
                    Ok(Response::Ok(p)) if p.contains("\"pong\":true") => return Ok(()),
                    Ok(r) if r.is_overloaded() => last = "refused: overloaded".into(),
                    Ok(r) => return Err(format!("ping answered {}", r.payload())),
                    Err(e) => return Err(format!("ping failed: {e}")),
                },
            }
        }
        Err(format!("server never became ready ({last})"))
    }

    /// One admin or solve request on a fresh connection.
    pub fn request(&self, text: &str) -> Result<Response, String> {
        let mut c = Client::connect_timeout(self.addr.as_str(), ADMIN_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?;
        c.request(text)
            .map_err(|e| format!("request `{text}`: {e}"))
    }

    /// The server's metrics dump.
    pub fn metrics(&self) -> Result<Json, String> {
        match self.request("metrics")? {
            Response::Ok(p) => Json::parse(&p),
            Response::Err(p) => Err(format!("metrics refused: {p}")),
        }
    }

    /// Peak resident memory of the server process (MB).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drains the server with a `shutdown` request and waits for it to
    /// exit; returns its final metrics line.
    pub fn shutdown(mut self) -> Result<Json, String> {
        match self.request("shutdown")? {
            Response::Ok(_) => {}
            Response::Err(p) => return Err(format!("shutdown refused: {p}")),
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let mut final_metrics = None;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(m) = line.strip_prefix("SHUTDOWN ") {
                        final_metrics = Some(Json::parse(m)?);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => return Err("server did not exit in time".into()),
            }
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        final_metrics.ok_or_else(|| "server printed no final metrics".to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}
