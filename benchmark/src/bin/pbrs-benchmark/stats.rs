//! Small statistics and process-accounting helpers: medians, nearest-rank
//! percentiles, a seeded PRNG, and `/proc` CPU readers.

use std::fs;

pub const MIB: f64 = 1024.0 * 1024.0;
pub const GIB: f64 = 1024.0 * MIB;

/// `/proc` reports CPU time in clock ticks of `1 / USER_HZ` seconds;
/// `USER_HZ` is 100 on every Linux ABI this benchmark can run on (there is
/// no `sysconf` without libc).
pub const TICKS_PER_S: f64 = 100.0;

/// Median (mean of the middle pair for an even count). Zero for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile, `q` in `0..=1`. Zero for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// SplitMix64: every generated input (payload bytes, request order, ring
/// names) comes from one of these seeded with `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for word in out.chunks_mut(8) {
            word.copy_from_slice(&self.next_u64().to_le_bytes()[..word.len()]);
        }
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// Whole-process `utime + stime` in ticks, threads that already exited
/// included (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    let tick = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    tick(11) + tick(12)
}

/// Machine-wide CPU ticks from the first line of `/proc/stat`; `busy` is
/// time some task of this machine ran, so neither idle nor stolen.
#[derive(Clone, Copy)]
pub struct MachineCpu {
    pub total: u64,
    pub busy: u64,
    pub steal: u64,
}

pub fn machine_cpu() -> MachineCpu {
    let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let line = stat.lines().next().expect("cpu line");
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().expect("numeric cpu field"))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total: u64 = f.iter().take(8).sum();
    MachineCpu {
        total,
        busy: total - f[3] - f[4] - f[7],
        steal: f[7],
    }
}
