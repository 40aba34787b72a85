//! Process accounting and the provenance stamp.
//!
//! CPU time comes from `getrusage` and cache sizes from `sysconf`, both C
//! library calls. Peak memory is the kernel's `VmHWM` for this process:
//! `getrusage`'s `ru_maxrss` also counts the parent's pages between `fork`
//! and `exec`, which under `cargo run` is cargo's own footprint.

use std::process::Command;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    #![allow(unsafe_code)]

    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        fn sysconf(name: i32) -> i64;
        #[cfg(target_env = "gnu")]
        fn malloc_trim(pad: usize) -> i32;
    }

    const RUSAGE_SELF: i32 = 0;
    pub const SC_LEVEL2_CACHE_SIZE: i32 = 191;
    pub const SC_LEVEL3_CACHE_SIZE: i32 = 194;

    pub fn cpu_ms() -> Option<f64> {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the C
        // layout of 64-bit Linux (checked by the cfg gate on this module),
        // and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        let us = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
        (rc == 0).then(|| (us(&ru.utime) + us(&ru.stime)) / 1e3)
    }

    /// Hands the heap's free memory back to the kernel (glibc only).
    pub fn trim_heap() {
        #[cfg(target_env = "gnu")]
        // SAFETY: `malloc_trim` only releases memory the allocator holds
        // free; it touches no live allocation and no caller memory.
        unsafe {
            malloc_trim(0);
        }
    }

    pub fn conf(name: i32) -> Option<i64> {
        // SAFETY: `sysconf` takes an integer and touches no caller memory;
        // an unknown name returns -1, handled below.
        let v = unsafe { sysconf(name) };
        (v > 0).then_some(v)
    }
}

/// User plus system CPU time of every thread of this process so far, in
/// ms; 0 where the platform offers no `getrusage` binding.
pub fn cpu_ms() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        ffi::cpu_ms().unwrap_or(0.0)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        0.0
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`); 0
/// where the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Resets this process's `VmHWM` to its current resident set size, so
/// that [`peak_rss_mb`] covers only what runs after this call. The heap's
/// free memory goes back to the kernel first: otherwise the new mark
/// would start from whatever the allocator happened to keep of the memory
/// freed before the call. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    ffi::trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// L2 and L3 cache sizes in bytes, where the C library reports them.
fn cache_sizes() -> (Option<i64>, Option<i64>) {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        (
            ffi::conf(ffi::SC_LEVEL2_CACHE_SIZE),
            ffi::conf(ffi::SC_LEVEL3_CACHE_SIZE),
        )
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        (None, None)
    }
}

/// The names of every `MBU_*` environment variable that is set. Each one
/// is a runtime knob of the program under test, so a run with any of them
/// set would measure a different program.
pub fn mbu_env_vars() -> Vec<String> {
    mbu_knobs(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()))
}

fn mbu_knobs(names: impl Iterator<Item = String>) -> Vec<String> {
    let mut knobs: Vec<String> = names.filter(|k| k.starts_with("MBU_")).collect();
    knobs.sort();
    knobs
}

/// The commit being measured: `git rev-parse HEAD` plus `-dirty` when
/// tracked files have uncommitted changes, or `unknown` outside a git
/// checkout. Git is only asked when the working directory itself holds
/// the `.git` entry, so the lookup never leaves the checkout.
fn commit_stamp() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(sha) => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_none_or(|s| !s.is_empty());
            if dirty {
                format!("{sha}-dirty")
            } else {
                sha
            }
        }
        None => "unknown (git failed)".to_string(),
    }
}

/// The provenance stamp printed with every result, as one JSON object.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let threads = crate::workloads::JOB_THREADS;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let (l2, l3) = cache_sizes();
    let opt = |v: Option<i64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"commit\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \
         \"nproc\": {nproc}, \"job_threads\": {threads}, \"threads_in_effect\": \
         \"ensembles with_threads({threads}), hybrid and dense set_amp_threads({threads}); \
         traced mbu_shots also runs its ensemble at min(nproc, 2)\", \"l2_bytes\": {}, \
         \"l3_bytes\": {}}}",
        commit_stamp(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        opt(l2),
        opt(l3),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_mbu_variables_count_as_knobs() {
        let names = [
            "PATH",
            "MBU_FUSION",
            "CARGO_TARGET_DIR",
            "MBU_BACKEND",
            "XMBU_X",
        ];
        assert_eq!(
            mbu_knobs(names.iter().map(|s| s.to_string())),
            vec!["MBU_BACKEND".to_string(), "MBU_FUSION".to_string()]
        );
    }

    #[test]
    fn cpu_time_grows_and_peak_memory_is_reported() {
        let a = cpu_ms();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_ms() > a);
        let before = peak_rss_mb();
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        assert!(peak_rss_mb() >= before.max(64.0), "{}", block.len());
    }
}
