//! Small helpers shared by the workloads: medians, peak memory, write
//! system calls, host steal detection, timed set-up and the run's
//! scratch directory.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The `q` quantile (0 to 1) of a float sample, interpolating linearly
/// between neighbouring order statistics; 0 for an empty sample.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of a float sample (mean of the middle pair for even sizes).
pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

/// The quartile on the slow side of a run's per-point figures: the lower
/// quartile of a rate, the upper quartile of a time.
///
/// On a virtual machine that shares its host, the same work runs up to
/// about 1.8 times faster for stretches of a fraction of a second to a few
/// seconds, whenever the neighbours leave the host idle. How much of a run
/// falls into such stretches changes from run to run, so the median of its
/// points jumps between the slow and the fast speed. The host's slow speed
/// is there in every run; the slow-side quartile measures the program at
/// that speed and leaves the lucky stretches out.
pub fn slow_quartile(sample: &[f64], higher_is_better: bool) -> f64 {
    quantile(sample, if higher_is_better { 0.25 } else { 0.75 })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Write system calls this process has made (`syscw`), or 0 where
/// `/proc` is unavailable.
pub fn write_syscalls() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|l| l.strip_prefix("syscw:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// The CPU [`pin_to_one_cpu`] confined this process to, if it did.
static PINNED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

/// Confines the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on; returns that CPU, or `None`
/// where the affinity calls are unavailable or fail.
///
/// Generator, server and receiver then hand each other the CPU instead of
/// waking an idle one. On a virtual machine that shares its host, a
/// wake-up across CPUs costs whatever the host's scheduler makes it cost,
/// and that cost, not the program's, would set every loopback figure.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    // The size of glibc's and musl's `cpu_set_t`.
    let mut mask = [0u8; 128];
    // SAFETY: the kernel writes at most `mask.len()` bytes into `mask`.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 8)
        .rev()
        .find(|&c| (mask[c / 8] >> (c % 8)) & 1 == 1)?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: the kernel reads `one.len()` bytes from `one`.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return None;
    }
    Some(*PINNED.get_or_init(|| cpu))
}

/// Elsewhere nothing is pinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The CPU [`pin_to_one_cpu`] confined this process to, if it did.
pub fn pinned_cpu() -> Option<usize> {
    PINNED.get().copied()
}

/// CPU time the hypervisor gave to other guests ("steal") in clock ticks
/// (normally 10 ms each) since boot: from the pinned CPU when
/// [`pin_to_one_cpu`] pinned this process, else summed over all CPUs; 0
/// where `/proc/stat` is unavailable.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let row = pinned_cpu().map_or_else(|| "cpu".to_string(), |c| format!("cpu{c}"));
    stat.lines()
        .find(|l| l.split_whitespace().next() == Some(row.as_str()))
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Whether `steal` clock ticks taken during `wall` exceed 2 % of the CPU
/// capacity [`steal_ticks`] counts over. On a virtual machine sharing its
/// host, such an interval measures the neighbours: every thread here,
/// load generator included, stalls for milliseconds at a time.
pub fn stolen(steal: u64, wall: Duration) -> bool {
    let cpus = if pinned_cpu().is_some() {
        1.0
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
    };
    steal as f64 > 0.02 * wall.as_secs_f64() * cpus * 100.0
}

/// Runs `f` until a run is not [`stolen`], at most `attempts` times, adding
/// the discarded runs to `discarded`. Returns the last run and whether it
/// was stolen too.
///
/// # Errors
///
/// The first error `f` returns.
pub fn unstolen<T>(
    attempts: usize,
    discarded: &mut usize,
    mut f: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<(T, bool)> {
    let mut left = attempts.max(1);
    loop {
        let (steal0, t0) = (steal_ticks(), Instant::now());
        let out = f()?;
        let was_stolen = stolen(steal_ticks() - steal0, t0.elapsed());
        left -= 1;
        if !was_stolen || left == 0 {
            return Ok((out, was_stolen));
        }
        *discarded += 1;
    }
}

/// Per-point (or per-epoch) figures, kept apart by whether the host stole
/// CPU time while they were measured.
#[derive(Debug, Default, Clone)]
pub struct Kept {
    clean: Vec<f64>,
    stolen: Vec<f64>,
}

impl Kept {
    /// Records one figure.
    pub fn push(&mut self, value: f64, stolen: bool) {
        if stolen {
            self.stolen.push(value);
        } else {
            self.clean.push(value);
        }
    }

    /// The figures a statistic uses: the clean ones, or all of them when
    /// none is clean.
    pub fn used(&self) -> &[f64] {
        if self.clean.is_empty() {
            &self.stolen
        } else {
            &self.clean
        }
    }

    /// Median of [`Kept::used`].
    pub fn median(&self) -> f64 {
        median(self.used())
    }

    /// [`slow_quartile`] of [`Kept::used`].
    pub fn slow_quartile(&self, higher_is_better: bool) -> f64 {
        slow_quartile(self.used(), higher_is_better)
    }

    /// Largest of [`Kept::used`] (0 when empty).
    pub fn max(&self) -> f64 {
        self.used().iter().copied().fold(0.0, f64::max)
    }

    /// How many clean figures there are.
    pub fn clean(&self) -> usize {
        self.clean.len()
    }
}

/// Set-up times for `setup_s`.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Times one set-up.
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> std::io::Result<T>) -> std::io::Result<T> {
        let t0 = Instant::now();
        let made = setup()?;
        self.0.push(t0.elapsed().as_secs_f64());
        Ok(made)
    }

    /// Runs `setup` at least `opts.setups()` times and, for quick set-ups,
    /// until `window` seconds have been spent (at most 200 times); returns
    /// the first result.
    ///
    /// # Errors
    ///
    /// The first failing set-up's error.
    pub fn repeat<T>(
        &mut self,
        opts: &crate::Opts,
        window: f64,
        mut setup: impl FnMut() -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut first = None;
        let mut n = 0;
        while n < opts.setups() || (!opts.quick && self.0.iter().sum::<f64>() < window && n < 200) {
            let made = self.time(&mut setup)?;
            first.get_or_insert(made);
            n += 1;
        }
        first.ok_or_else(|| std::io::Error::other("no set-up ran"))
    }

    /// Whether set-ups have taken less than `share` of `elapsed` seconds.
    /// A run that times one more set-up whenever this holds spreads its
    /// set-ups over the whole run, so that `setup_s` does not rest on one
    /// moment of a host whose speed drifts.
    pub fn behind(&self, share: f64, elapsed: f64) -> bool {
        self.0.iter().sum::<f64>() < share * elapsed
    }

    /// Records the [`slow_quartile`] as `setup_s`.
    pub fn report(&self, report: &mut crate::report::Report) {
        report.metric(
            "setup_s",
            "s",
            slow_quartile(&self.0, false),
            self.0.len() as u64,
        );
    }
}

/// A per-process scratch directory under the working directory (the
/// checkout the benchmark runs in), removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.perfbench-work/<pid>-<n>-<tag>` under the current
    /// directory, `n` counting the directories this process made.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        static MADE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = MADE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            PathBuf::from(".perfbench-work").join(format!("{}-{n}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave the shared parent only when no other run still uses it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_average_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn slow_quartiles_take_the_slow_side() {
        let sample = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(slow_quartile(&sample, true), 2.0);
        assert_eq!(slow_quartile(&sample, false), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
