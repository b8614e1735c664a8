//! Clocks, order statistics, throughput batching and span arithmetic
//! shared by every workload.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Samples a reported percentile needs strictly beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Samples a run needs for a p99 with [`TAIL_SAMPLES`] beyond it.
pub const P99_SAMPLES: usize = 100 * TAIL_SAMPLES;

/// Nanoseconds since the benchmark's epoch (first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Linear-interpolated `q`-quantile (`0 <= q <= 1`) of `xs`; `NaN` when
/// `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile, or `None` unless at least [`TAIL_SAMPLES`] samples
/// lie beyond it (a p99 needs 1,000 samples).
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    let beyond = (xs.len() as f64 * (1.0 - q) + 1e-9).floor() as usize;
    (beyond >= TAIL_SAMPLES).then(|| quantile(xs, q))
}

/// Batches a run's completions are split into for throughput.
pub const BATCHES: usize = 20;

/// Tail latency: the p99 of every consecutive block of at least
/// [`P99_SAMPLES`] samples (so each has [`TAIL_SAMPLES`] beyond it), and
/// the median over the blocks; `None` with fewer samples than one block.
/// A burst of host interference then moves one block's p99, not the
/// run's figure.
pub fn block_p99(xs: &[f64]) -> Option<f64> {
    let blocks = xs.len() / P99_SAMPLES;
    if blocks == 0 {
        return None;
    }
    let size = xs.len() / blocks;
    let p99s: Option<Vec<f64>> =
        xs.chunks(size).take(blocks).map(|b| tail_quantile(b, 0.99)).collect();
    p99s.map(|v| median(&v))
}

/// Throughput as the median over `batches` consecutive groups of equal
/// completion count: each group's work over the exact time from the
/// previous group's last completion (the window origin, 0, for the
/// first) to its own. `done` holds (completion second, work) pairs. A
/// median over many in-run batches keeps a transient stall on a shared
/// host out of the figure, and exact group boundaries avoid the
/// quantisation of fixed time windows.
pub fn batched_rate(done: &[(f64, f64)], batches: usize) -> f64 {
    let mut v = done.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let batches = batches.clamp(1, v.len().max(1));
    let size = v.len() / batches;
    if size == 0 {
        return 0.0;
    }
    let mut rates = Vec::with_capacity(batches);
    let mut prev = 0.0;
    for chunk in v.chunks_exact(size).take(batches) {
        let end = chunk[chunk.len() - 1].0;
        let work: f64 = chunk.iter().map(|d| d.1).sum();
        if end > prev {
            rates.push(work / (end - prev));
        }
        prev = end;
    }
    median(&rates)
}

/// One timed call into a layer, recorded by the benchmark around the
/// call (never inside the program).
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.trial.train`.
    pub name: &'static str,
    /// Start, ns since the benchmark epoch.
    pub start: u64,
    /// End, ns since the benchmark epoch.
    pub end: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

/// Self time per span name, in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.99), None, "999 samples leave 9.99 beyond p99");
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(tail_quantile(&xs, 0.99).is_some());
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.5), Some(9.5));
        assert_eq!(tail_quantile(&xs[..19], 0.5), None, "19 samples leave 9.5 beyond p50");
    }

    #[test]
    fn block_p99_is_a_median_of_block_tails() {
        assert_eq!(block_p99(&vec![1.0; 999]), None);
        // Three blocks of 1,000 with p99 near 990; one block has a burst
        // of 100 slow samples that would dominate a whole-run p99.
        let block: Vec<f64> = (0..1000).map(f64::from).collect();
        let mut burst = block.clone();
        burst[..100].iter_mut().for_each(|x| *x = 1e6);
        let xs: Vec<f64> = [block.clone(), burst, block].concat();
        assert!(tail_quantile(&xs, 0.99).unwrap() >= 1e6);
        let p = block_p99(&xs).unwrap();
        assert!((989.0..=991.0).contains(&p), "{p}");
        // A partial trailing block joins the blocks, never stands alone.
        assert!(block_p99(&vec![2.0; 1999]).is_some());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nested_self_time() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [30,60) overlaps a;
        // c [90,120) sticks out of root and is clipped.
        let spans = vec![
            Span { name: "root", start: 0, end: 100, parent: None },
            Span { name: "a", start: 10, end: 40, parent: Some(0) },
            Span { name: "a1", start: 15, end: 25, parent: Some(1) },
            Span { name: "b", start: 30, end: 60, parent: Some(0) },
            Span { name: "c", start: 90, end: 120, parent: Some(0) },
        ];
        let t = self_times(&spans);
        // root children cover [10,60) + [90,100) = 60.
        assert_eq!(t, vec![40, 20, 10, 30, 30]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["root"] + by["a"] + by["a1"] + by["b"], 100);
    }

    #[test]
    fn batched_rate_is_a_median_of_batches() {
        // 10 per second for 4 s, then a stall: the last batch is slow.
        let mut done: Vec<(f64, f64)> = (1..=40).map(|i| (f64::from(i) * 0.1, 1.0)).collect();
        done.extend((0..10).map(|i| (10.0 + f64::from(i) * 0.1, 1.0)));
        assert!((batched_rate(&done, 5) - 10.0).abs() < 1e-9);
        // Work weights count, and batches never split a completion.
        let weighted: Vec<(f64, f64)> = (1..=8).map(|i| (f64::from(i), 3.0)).collect();
        assert!((batched_rate(&weighted, 4) - 3.0).abs() < 1e-9);
        assert_eq!(batched_rate(&[], 4), 0.0);
    }
}
