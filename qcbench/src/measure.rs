//! Clocks, memory readings and the estimator every timed metric uses.
//!
//! On a host whose cores other tenants share, a timed call runs at a
//! speed that varies over milliseconds to minutes, by up to 2×, and
//! on-CPU time equals wall time throughout: the neighbours slow the core,
//! they do not preempt the program. Two things make the timed metrics
//! steady anyway.
//!
//! * **Scaling by a reference kernel.** [`HostSpeed`] runs a fixed kernel
//!   shaped like the engines' inner loop between every two timed calls
//!   and scales each call's wall time to a nominal host speed. The kernel
//!   lives in this file, so no change to the repository's crates can
//!   move it.
//! * **Medians.** Every timed metric repeats short calls over the whole
//!   run and reports [`Samples::median`]; its quartile spread is printed
//!   beside it.
//!
//! Measured on a 2-vCPU Xeon at 2.1 GHz shared with other tenants, in
//! 30 s windows of interleaved 1-thread engine calls, each followed by
//! the kernel: over 19 windows the median call's spread (IQR ÷ median)
//! across windows was 13–30 % raw and 5.0–5.4 % scaled by the mean of
//! the kernel calls before and after it. In an earlier 20-minute series
//! without the kernel, the fastest call per window spread more than the
//! median call (15–20 % against 12–16 %), because fast moments are rare
//! and short, and a window catches them or not.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Wall seconds of one call of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Clock ticks per second of `/proc/self/stat`'s CPU fields (Linux's
/// fixed `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// On-CPU seconds of this process so far, all threads (live and joined),
/// user plus system. `None` where `/proc` is unavailable.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Seconds one [`reference_kernel`] call takes on a host at nominal speed:
/// about its fastest calls on a 2-vCPU Xeon at 2.1 GHz, so scaled
/// timings read near what that host gives when no neighbour slows it.
pub const REFERENCE_NOMINAL_S: f64 = 0.015;

/// Fixed work shaped like the engines' inner loop: a 1024-event binary
/// heap with LAN-like delays, and a 60,000-entry hash map and a 4 MiB
/// arena touched at random. Of three kernels
/// tried (this one, a cache-resident sort and hash kernel, and a B-tree
/// allocation kernel), this one tracked all three engines' slowdowns
/// best.
pub fn reference_kernel() -> u64 {
    const ARENA: usize = 1 << 19;
    let mut x: u64 = 7;
    let mut rnd = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    let mut arena = vec![0u64; ARENA];
    for i in 0..1024u32 {
        heap.push(Reverse((rnd() % 1000, i)));
    }
    let mut acc = 0u64;
    for _ in 0..200_000 {
        let Reverse((now, id)) = heap.pop().expect("the heap never empties");
        let r = rnd();
        let slot = r as usize & (ARENA - 1);
        arena[slot] = arena[slot].wrapping_add(now);
        let count = map.entry(r % 60_000).or_insert(0);
        *count += 1;
        acc = acc.wrapping_add(*count ^ arena[(r >> 20) as usize & (ARENA - 1)]);
        if r % 7 == 0 {
            acc = acc.wrapping_add(now);
        }
        heap.push(Reverse((now + 200 + (r >> 40) % 400, id)));
    }
    acc
}

/// Scales timed calls to a nominal host speed with the reference kernel.
///
/// Call [`HostSpeed::factor`] after each timed call (or batch of calls):
/// it runs the kernel once and returns nominal ÷ the mean of the kernel
/// times just before and just after the call. A call's wall time times
/// this factor is its time on a host at nominal speed.
pub struct HostSpeed {
    last_s: f64,
    /// Wall seconds of every kernel call.
    pub kernel: Samples,
}

impl HostSpeed {
    /// Run the kernel once, as the reference before the first call.
    pub fn new() -> Self {
        let last_s = timed(|| black_box(reference_kernel())).1;
        Self {
            last_s,
            kernel: Samples(vec![last_s]),
        }
    }

    /// The factor for the calls made since the last kernel call.
    pub fn factor(&mut self) -> f64 {
        let now_s = timed(|| black_box(reference_kernel())).1;
        self.kernel.push(now_s);
        let f = REFERENCE_NOMINAL_S / ((self.last_s + now_s) / 2.0);
        self.last_s = now_s;
        f
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Number of cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Wall and on-CPU seconds accumulated over a measuring phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostClock {
    /// Wall seconds.
    pub wall_s: f64,
    /// On-CPU seconds, all threads.
    pub cpu_s: f64,
}

impl HostClock {
    /// Run `f`, adding its wall and on-CPU time; returns its result and
    /// wall seconds.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let cpu0 = process_cpu_s().unwrap_or(0.0);
        let (r, wall) = timed(f);
        self.wall_s += wall;
        self.cpu_s += process_cpu_s().unwrap_or(0.0) - cpu0;
        (r, wall)
    }

    /// On-CPU over wall seconds (0 before any measurement).
    pub fn cpu_over_wall(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cpu_s / self.wall_s
        } else {
            0.0
        }
    }
}

/// Repeated measurements of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Add one measurement.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median of all measurements (0 when empty): the estimator of every
    /// timed metric.
    pub fn median(&self) -> f64 {
        median_of(&self.sorted())
    }

    /// Distance between the first and third quartile, as a share of the
    /// median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        let v = self.sorted();
        let m = median_of(&v);
        if v.len() < 2 || m == 0.0 {
            return 0.0;
        }
        let (q1, q3) = quartiles(&v);
        (q3 - q1) / m
    }
}

fn median_of(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        let s = Samples(v);
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn host_speed_scales_by_the_kernel_calls_around_a_call() {
        assert_eq!(reference_kernel(), reference_kernel());
        let mut speed = HostSpeed::new();
        let f = speed.factor();
        let (before, after) = (speed.kernel.0[0], speed.kernel.0[1]);
        assert_eq!(speed.kernel.len(), 2);
        assert!((f - REFERENCE_NOMINAL_S / ((before + after) / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        let s = Samples(vec![9.0, 1.5, 8.0, 2.0, 7.0, 6.0, 5.0, 4.0]);
        assert_eq!(s.median(), 5.5);
        assert_eq!(Samples(vec![3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
