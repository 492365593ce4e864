//! What the run ran on: recorded in every result file, because a number
//! without its host, ISA, compiler and commit cannot be compared.

use crate::json::Value;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Architecture plus the SIMD levels the engine's runtime dispatch can see.
pub fn isa() -> String {
    let mut isa = std::env::consts::ARCH.to_string();
    #[cfg(target_arch = "x86_64")]
    for (name, present) in [
        ("sse2", std::arch::is_x86_feature_detected!("sse2")),
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
    ] {
        if present {
            isa.push('+');
            isa.push_str(name);
        }
    }
    isa
}

/// `run.sh` exports the compiler version and the commit; a bare binary
/// run reports them as unknown rather than guessing.
fn from_env(var: &str) -> String {
    std::env::var(var)
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPUs this process may run on (`run.sh` pins it to one), as the
/// kernel lists them.
fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
                .map(|list| list.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `{nproc, isa, rustc, commit, seed}` header of a result file;
/// `nproc` counts the CPUs the process is allowed, `cpus_allowed` names
/// them.
pub fn header(seed: u64) -> Value {
    Value::obj([
        ("nproc", Value::from(nproc() as u64)),
        ("cpus_allowed", Value::str(cpus_allowed())),
        ("isa", Value::str(isa())),
        ("rustc", Value::str(from_env("CIRCNN_BENCH_RUSTC"))),
        ("commit", Value::str(from_env("CIRCNN_BENCH_COMMIT"))),
        ("seed", Value::from(seed)),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak_rss_mb needs /proc/self/status (Linux)");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a VmHWM line in /proc/self/status");
    kib / 1024.0
}
