//! Host CPU steal: time in which the hypervisor ran something else while
//! a virtual CPU of this machine had work to run. On a shared VM it comes
//! in bursts that have nothing to do with the program under test, and a
//! closed loop of several processes feels it far more than its share: a
//! burst during a submit adds its whole length to that submit's latency.
//!
//! The counters come from the first line of `/proc/stat`. They are read
//! at most every [`REFRESH`], so calling [`now`] once per operation costs
//! a clock read. Where `/proc/stat` is missing, every reading is zero and
//! every block looks equally quiet.
//!
//! [`pin_to_one_cpu`] keeps a workload on one virtual CPU. Steal mostly
//! hits the hand-offs between virtual CPUs: a CPU that went idle waits
//! for the hypervisor before it can take the next request. A closed loop
//! whose processes share one CPU hands off without those waits.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How often the counters are re-read.
pub const REFRESH: Duration = Duration::from_millis(20);

/// Cumulative CPU time of the whole machine, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ticks {
    /// Time stolen by the hypervisor.
    pub steal: u64,
    /// All CPU time, steal included.
    pub total: u64,
}

impl Ticks {
    /// Share of the CPU time between `self` and the later `end` that was
    /// stolen; 0 when no time passed between the two readings.
    pub fn steal_share(self, end: Ticks) -> f64 {
        let total = end.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        end.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Parse the aggregate `cpu` line of `/proc/stat`.
pub fn parse(stat: &str) -> Option<Ticks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let steal = *fields.get(7)?;
    Some(Ticks {
        steal,
        total: fields.iter().take(8).sum(),
    })
}

fn read() -> Ticks {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .as_deref()
        .and_then(parse)
        .unwrap_or_default()
}

static LAST: Mutex<Option<(Instant, Ticks)>> = Mutex::new(None);

/// The machine's counters, at most [`REFRESH`] old.
pub fn now() -> Ticks {
    let mut last = LAST.lock().unwrap_or_else(|e| e.into_inner());
    let at = Instant::now();
    match *last {
        Some((read_at, ticks)) if at.duration_since(read_at) < REFRESH => ticks,
        _ => {
            let ticks = read();
            *last = Some((at, ticks));
            ticks
        }
    }
}

/// glibc's `cpu_set_t`: a mask of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's CPU mask, restored when dropped.
pub struct Pinned {
    previous: CpuSet,
    /// The CPU the thread now runs on.
    pub cpu: usize,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `previous` is a whole `cpu_set_t` and its size is passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.previous) };
    }
}

/// Restrict the calling thread to the lowest-numbered CPU it may run on.
/// Threads it spawns and processes it starts while the guard lives
/// inherit the restriction.
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    let size = std::mem::size_of::<CpuSet>();
    let mut previous: CpuSet = [0; 16];
    // SAFETY: `previous` is a writable `cpu_set_t` of `size` bytes.
    if unsafe { sched_getaffinity(0, size, &mut previous) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..previous.len() * 64)
        .find(|&c| previous[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the CPU mask is empty")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a whole `cpu_set_t` and its size is passed.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(Pinned { previous, cpu })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let stat = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\n";
        let t = parse(stat).expect("cpu line");
        assert_eq!(t.steal, 30);
        assert_eq!(t.total, 100 + 5 + 50 + 800 + 10 + 5 + 30);
        assert_eq!(parse("intr 1 2 3\n"), None);
    }

    #[test]
    fn steal_share_is_stolen_over_elapsed_ticks() {
        let a = Ticks {
            steal: 10,
            total: 1000,
        };
        let b = Ticks {
            steal: 30,
            total: 1200,
        };
        assert!((a.steal_share(b) - 0.1).abs() < 1e-12);
        assert_eq!(a.steal_share(a), 0.0);
    }

    #[test]
    fn pinning_leaves_one_cpu_until_the_guard_drops() {
        let cpus = || std::thread::available_parallelism().map_or(0, usize::from);
        let before = cpus();
        let pinned = pin_to_one_cpu().expect("pin");
        assert_eq!(cpus(), 1);
        assert_eq!(
            std::thread::spawn(cpus).join().expect("thread"),
            1,
            "a spawned thread inherits the mask"
        );
        drop(pinned);
        assert_eq!(cpus(), before);
    }
}
