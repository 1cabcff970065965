//! Host fingerprint and process memory, recorded with every result.

use crate::json::Json;
use std::path::Path;

/// CPU features the distance kernels dispatch on.
fn cpu_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    flags.push($f);
                }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vnni", "avx512vbmi");
    }
    flags
}

/// The `model name` line of `/proc/cpuinfo`, when the kernel exposes it.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` when the benchmark runs in a
/// git work tree; `"unknown"` otherwise (an exported source tree).
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything a result needs to be compared with another host's.
pub fn fingerprint(root: &Path) -> Json {
    let kernel = vecdata::kernel::active();
    Json::obj(vec![
        ("cpu_model", Json::str(&cpu_model())),
        ("cpu_flags", Json::Arr(cpu_flags().into_iter().map(Json::str).collect())),
        ("nproc", Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64)),
        ("threads", Json::Int(rayon::current_num_threads() as u64)),
        ("kernel_tier", Json::str(&format!("{:?}", vecdata::kernel::active_policy()))),
        ("kernel_dispatch", Json::str(kernel.name())),
        ("git_revision", Json::str(&git_revision(root))),
    ])
}
