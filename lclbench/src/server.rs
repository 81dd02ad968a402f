//! Builds, spawns, probes and stops the release `lcl-serve` binary.

use lcl_paths::problem::json::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds `lcl-serve` from the checkout (the current directory) into the
/// target directory this benchmark itself was built into, and returns the
/// binary's path. A no-op when the build is fresh.
pub fn build_lcl_serve(target_dir: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
        .args([
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
        ])
        .args(["-p", "lcl-server", "--bin", "lcl-serve", "--target-dir"])
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building lcl-serve failed: {status}"));
    }
    let bin = target_dir.join("release").join("lcl-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// One running `lcl-serve --addr 127.0.0.1:0 --workers 2` process.
pub struct Serve {
    child: Child,
    stderr_drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Seconds from spawn until the first `health` reply.
    pub setup_s: f64,
}

impl Serve {
    /// Spawns the server with `extra` flags and waits for its first
    /// `health` reply.
    pub fn start(bin: &Path, extra: &[&str]) -> Result<Serve, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    addr = line
                        .split("listening on ")
                        .nth(1)
                        .and_then(|rest| rest.split_whitespace().next())
                        .and_then(|text| text.parse::<SocketAddr>().ok());
                }
            }
        }
        // Keep draining stderr so the server never blocks on a full pipe;
        // the thread ends when the process closes the pipe.
        let stderr_drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        let mut serve = Serve {
            child,
            stderr_drain: Some(stderr_drain),
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            setup_s: 0.0,
        };
        if addr.is_none() {
            serve.stop();
            return Err("lcl-serve exited before listening".to_string());
        }
        let mut conn = Conn::connect(serve.addr)?;
        let health = conn.call(r#"{"v":1,"id":0,"kind":"health"}"#)?;
        serve.setup_s = spawned.elapsed().as_secs_f64();
        if !health.contains("\"ok\":true") {
            serve.stop();
            return Err(format!("unhealthy server: {health}"));
        }
        Ok(serve)
    }

    /// `VmHWM` (peak resident set) of the server process, in bytes.
    pub fn peak_rss_bytes(&self) -> u64 {
        proc_status_kb(self.child.id(), "VmHWM:") * 1024
    }

    /// Current `VmRSS` of the server process, in bytes.
    pub fn rss_bytes(&self) -> u64 {
        proc_status_kb(self.child.id(), "VmRSS:") * 1024
    }

    /// The server's own `stats` reply payload.
    pub fn stats(&self) -> Result<JsonValue, String> {
        let line = Conn::connect(self.addr)?.call(r#"{"v":1,"id":0,"kind":"stats"}"#)?;
        let reply = JsonValue::parse(&line).map_err(|e| format!("stats reply: {e}"))?;
        reply
            .get("payload")
            .cloned()
            .ok_or_else(|| format!("stats reply without payload: {line}"))
    }

    /// Kills the process and waits for it and its stderr drain to end.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop();
    }
}

fn proc_status_kb(pid: u32, field: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// A lock-step NDJSON connection: one frame out, one line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    pub fn send(&mut self, frame: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(frame.len() + 1);
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => {
                line.truncate(line.trim_end().len());
                Ok(line)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    pub fn call(&mut self, frame: &str) -> Result<String, String> {
        self.send(frame)?;
        self.recv()
    }
}

/// Reads an integer at `path` (object keys) from a JSON value, 0 if absent.
pub fn int_at(value: &JsonValue, path: &[&str]) -> i64 {
    let mut node = value;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_int().unwrap_or(0)
}
