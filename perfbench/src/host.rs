//! The host block every result carries, the share of CPU time the
//! hypervisor stole during the run, and the process's memory high-water
//! mark.

/// Features the benchmark enables on the library crates.
pub const FEATURES: &[&str] = &["dsv-engine/remote"];

/// CPUs this process may run on; read it before [`pin_to_one_cpu`].
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The host block as one JSON object: CPU count (before pinning), `rustc
/// -V`, git sha, enabled features, workload, seed, the CPU the run was
/// pinned to, and the steal share of the run (`null` where unavailable).
pub fn block(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    (cpus, pinned): (usize, Option<usize>),
    steal: Option<f64>,
) -> String {
    let features = FEATURES
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"host\": {{\"cpus\": {cpus}, \"rustc\": \"{}\", \"git_sha\": \"{}\", \
         \"features\": [{features}], \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"seconds\": {seconds}, \"trace\": {trace}, \"pinned_cpu\": {}, \"steal_frac\": {}}}}}",
        env!("PERFBENCH_RUSTC_VERSION"),
        env!("PERFBENCH_GIT_SHA"),
        pinned.map_or("null".to_string(), |c| c.to_string()),
        steal.map_or("null".to_string(), |s| format!("{s:.4}")),
    )
}

/// Pin this process to one CPU — the highest-numbered one it may run on
/// — before it starts any thread, so that every thread the engines spawn
/// shares that CPU. On a shared VM the hypervisor steals more CPU time
/// when both vCPUs are busy, and a thread that polls for a partner the
/// hypervisor has stopped burns CPU time for as long as the partner is
/// held; on one vCPU a steal stops every thread at once. The CPU pinned
/// to, or `None` off Linux or if the affinity calls fail (the run then
/// goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // A `cpu_set_t` of 1024 CPUs.
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable buffer of `size` bytes, as large
        // as glibc's `cpu_set_t`; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..mask.len() * 64)
            .rev()
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above, with a readable buffer of `size` bytes.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// CPU time this process has used, every thread included (exited ones
/// too), in seconds: `CLOCK_PROCESS_CPUTIME_ID`, at nanosecond
/// resolution. With paravirtual steal accounting the kernel does not
/// charge a thread for time the hypervisor stole from its CPU. `None`
/// off 64-bit Linux or if the clock fails.
pub fn process_cpu_s() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the duration of
        // the call, laid out as the C `struct timespec` of 64-bit Linux.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// Cumulative CPU ticks of the whole machine from `/proc/stat`: (stolen
/// by the hypervisor, all states). `None` where unavailable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the machine's CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings. A shared host that steals CPU slows every
/// timing of the run, the more so the more its threads hand work to one
/// another.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MiB. `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_block_names_its_fields() {
        let b = block("remote-tcp", 7, 10, false, (2, Some(1)), Some(0.125));
        for key in [
            "cpus",
            "rustc",
            "git_sha",
            "features",
            "seed",
            "workload",
            "pinned_cpu",
            "steal_frac",
        ] {
            assert!(b.contains(&format!("\"{key}\"")), "{key} missing from {b}");
        }
        assert!(b.contains("\"seed\": 7"));
        assert!(b.contains("\"cpus\": 2"));
        assert!(b.contains("\"steal_frac\": 0.1250"));
        assert!(b.contains("\"pinned_cpu\": 1"));
        let unknown = block("quiet-pipelined", 1, 1, true, (2, None), None);
        assert!(unknown.contains("\"steal_frac\": null"));
        assert!(unknown.contains("\"pinned_cpu\": null"));
    }

    #[test]
    fn steal_share_is_stolen_over_all_ticks() {
        assert_eq!(steal_frac(Some((10, 1000)), Some((60, 1200))), Some(0.25));
        assert_eq!(steal_frac(Some((10, 1000)), Some((10, 1000))), None);
        assert_eq!(steal_frac(None, Some((10, 1000))), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib().expect("VmHWM readable") > 0.0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn process_cpu_time_grows_with_work() {
        let before = process_cpu_s().expect("/proc/self/stat readable");
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = process_cpu_s().unwrap();
        assert!(after - before >= 0.05, "{before} -> {after}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn cpu_ticks_are_readable_on_linux() {
        let (steal, total) = cpu_ticks().expect("/proc/stat readable");
        assert!(total > 0 && steal <= total);
    }
}
