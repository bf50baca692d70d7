//! The `hos-serve` process under test: spawn, time set-up to the first
//! healthy `/healthz`, control calls, peak RSS, drain.

use hos_serve::Json;
use std::fs::File;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const START_TIMEOUT: Duration = Duration::from_secs(120);
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);
const POLL: Duration = Duration::from_micros(200);

pub struct ServeProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServeProc {
    /// Spawns `bin args`, logging to `log`, and returns once `GET
    /// /healthz` answers 200, with the seconds that took.
    pub fn start(bin: &Path, args: &[String], log: &Path) -> Result<(ServeProc, f64), String> {
        let out = File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut proc = ServeProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // The bound address is printed once the fit (or recovery) is
        // done and the listener is up.
        loop {
            if let Some(addr) = std::fs::read_to_string(log)
                .ok()
                .and_then(|t| listening(&t))
            {
                proc.addr = addr;
                break;
            }
            proc.check_alive(log)?;
            if t0.elapsed() > START_TIMEOUT {
                return Err("hos-serve did not start listening in time".into());
            }
            std::thread::sleep(POLL);
        }
        loop {
            if let Ok((200, _)) = tinyhttp::client_request(proc.addr, "GET", "/healthz", b"") {
                return Ok((proc, t0.elapsed().as_secs_f64()));
            }
            proc.check_alive(log)?;
            if t0.elapsed() > START_TIMEOUT {
                return Err("hos-serve never answered /healthz".into());
            }
            std::thread::sleep(POLL);
        }
    }

    fn check_alive(&mut self, log: &Path) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            _ => Err(format!(
                "hos-serve exited during start-up:\n{}",
                std::fs::read_to_string(log).unwrap_or_default()
            )),
        }
    }

    /// One control request on a fresh connection.
    pub fn call(&self, method: &str, path: &str) -> Result<Json, String> {
        let (status, body) = tinyhttp::client_request(self.addr, method, path, b"")
            .map_err(|e| format!("{method} {path}: {e}"))?;
        let text = String::from_utf8_lossy(&body);
        if status != 200 {
            return Err(format!("{method} {path}: status {status}: {text}"));
        }
        Json::parse(&text).map_err(|e| format!("{method} {path}: {e}"))
    }

    /// Peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in server status")?;
        Ok(kb / 1024.0)
    }

    /// Drains the server with `POST /shutdown` and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.call("POST", "/shutdown")?;
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(st)) if st.success() => return Ok(()),
                Ok(Some(st)) => return Err(format!("hos-serve exited with {st}")),
                Ok(None) if t0.elapsed() < EXIT_TIMEOUT => std::thread::sleep(POLL * 10),
                _ => return Err("hos-serve did not exit after /shutdown".into()),
            }
        }
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn listening(log: &str) -> Option<SocketAddr> {
    let rest = log.split("hos-serve listening on ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Copies the regular files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for e in std::fs::read_dir(from)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        std::fs::copy(e.path(), to.join(e.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}
