//! Host-side measurement helpers: sample summaries, process accounting
//! from `/proc/self`, and an allocation-counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Host timings of one repeated operation.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The samples taken between positions `from` and `to`.
    pub fn range(&self, from: usize, to: usize) -> Samples {
        Samples(self.0[from..to].to_vec())
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// Median (mean of the two middle samples for an even count).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let m = v.len() / 2;
        if v.len() % 2 == 1 {
            v[m]
        } else {
            0.5 * (v[m - 1] + v[m])
        }
    }

    /// The highest percentile (p99.9, or a whole p99 down to p51) that
    /// still has at least ten samples above it, as `(percentile,
    /// value)`; `None` below 21 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len();
        std::iter::once(99.9)
            .chain((51..=99).rev().map(f64::from))
            .find_map(|p| {
                let rank = ((p / 100.0) * n as f64).ceil() as usize;
                (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
            })
    }

    /// `median X (pTAIL Y, n=N)` in the given unit scale.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail() {
            Some((p, v)) => format!("p{p} {:.4}", v * scale),
            None => "no tail: too few samples".to_string(),
        };
        format!(
            "median {:.4} {unit} ({tail}, n={})",
            self.median() * scale,
            self.len()
        )
    }
}

/// User and system CPU seconds of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks).
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    (tick(14 - 3), tick(15 - 3))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Global allocator that counts allocation events, so a step's
/// allocations can be read as a delta of [`alloc_count`].
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter increment, which publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
