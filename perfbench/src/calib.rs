//! A machine-speed probe, timed between operations.
//!
//! On a shared machine the speed one thread gets changes by up to 1.7x
//! over minutes as neighbours load the shared caches, and every timing
//! of a run moves with it. The probe does a fixed amount of the work that
//! suffers most — hash-consing into a fresh node table of a few
//! megabytes, then walking it, as a BDD manager does — and none of the
//! program's code, so a change to the program never changes its time.
//! Timings are scaled by `REFERENCE_S / probe time`: they read as if the
//! probe had taken its reference time.
//!
//! The probe's table (7–9 MB at its peak) would otherwise set the peak
//! resident memory of a run whose mappers need less. So the probe also
//! keeps the peak: it reads `VmHWM` before each sample, and after it
//! hands the freed table back to the system and resets `VmHWM`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// A fixed reference time, of the order of the probe's time on the
/// 2-core machine the benchmark was tuned on.
pub const REFERENCE_S: f64 = 0.025;

/// Minimum gap between samples, so the probe costs a few percent of a
/// run at most.
const MIN_GAP_S: f64 = 1.0;

#[derive(Default)]
pub struct Probe {
    samples: Vec<f64>,
    last: Option<Instant>,
    /// The largest `VmHWM` read before a sample, in kB.
    peak_kb: u64,
}

impl Probe {
    /// Times one probe unless the last one ran less than `MIN_GAP_S` ago.
    pub fn sample(&mut self) {
        if self
            .last
            .is_some_and(|t| t.elapsed().as_secs_f64() < MIN_GAP_S)
        {
            return;
        }
        self.peak_kb = self.peak_kb.max(vm_hwm_kb());
        let t = Instant::now();
        black_box(work());
        self.samples.push(t.elapsed().as_secs_f64());
        release_and_reset_peak();
        self.last = Some(Instant::now());
    }

    /// Peak resident memory of the process, in MB, with the probe's own
    /// table left out: the largest `VmHWM` between samples.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_kb.max(vm_hwm_kb()) as f64 / 1024.0
    }

    /// The samples taken since the last call; the next `sample` runs
    /// whatever the gap.
    pub fn take(&mut self) -> Vec<f64> {
        self.last = None;
        std::mem::take(&mut self.samples)
    }
}

/// Peak resident set size of this process since start or the last
/// reset, in kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Returns the heap pages freed by the probe to the system, then resets
/// `VmHWM` to the current resident size (`clear_refs` value 5). If the
/// reset fails, the probe's table stays in the peak.
fn release_and_reset_peak() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: malloc_trim(3) only releases free heap memory; every
        // live allocation stays where it is.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn work() -> u64 {
    let mut table: HashMap<(u32, u32, u32), u32> = HashMap::new();
    let mut nodes: Vec<(u32, u32, u32)> = vec![(0, 0, 0), (0, 1, 1)];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..120_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let n = nodes.len() as u64;
        let key = (
            ((x >> 20) % 64) as u32,
            (x % n) as u32,
            ((x >> 32) % n) as u32,
        );
        table.entry(key).or_insert_with(|| {
            nodes.push(key);
            (nodes.len() - 1) as u32
        });
    }
    let mut acc = 0u64;
    let mut at = nodes.len() - 1;
    for _ in 0..100_000 {
        let (var, lo, hi) = nodes[at];
        acc = acc.wrapping_add(u64::from(var));
        at = if acc & 1 == 0 { lo } else { hi } as usize;
        if at < 2 {
            at = nodes.len() - 1 - (acc as usize % 1000);
        }
    }
    acc
}
