//! What was measured, and on what.

use std::path::Path;

/// Environment variables that silently change the engine or the pool size
/// behind the default configuration; the benchmark refuses to run with
/// either set.
pub const PINNED_ENV: [&str; 2] = ["SUPERSIM_TABLEAU_ENGINE", "SUPERSIM_TEST_THREADS"];

/// Fails when a variable of [`PINNED_ENV`] is set.
pub fn check_pinned_env() -> Result<(), String> {
    match PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        Some(v) => Err(format!(
            "{v} is set; unset it so the default engine and pool size are measured"
        )),
        None => Ok(()),
    }
}

/// The host and build facts recorded with every result.
#[derive(Clone, Debug)]
pub struct Facts {
    pub cpu_model: String,
    pub available_parallelism: usize,
    pub commit: String,
    pub tableau_engine: String,
}

impl Facts {
    /// Reads the facts; `root` is the checkout the benchmark runs from.
    pub fn read(root: &Path) -> Facts {
        Facts {
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            commit: commit(root).unwrap_or_else(|| "unknown".into()),
            tableau_engine: format!("{:?}", supersim::TableauEngine::default()),
        }
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `None` outside a git checkout.
fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => {
            if let Ok(id) = std::fs::read_to_string(git.join(name)) {
                return Some(id.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find_map(|l| {
                let (id, r) = l.split_once(' ')?;
                (r == name).then(|| id.to_string())
            })
        }
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
