//! Order statistics used by every metric: percentiles of one block's
//! samples, and the median and inter-quartile distance across blocks.

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice by nearest rank:
/// the smallest sample with at least `q` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so the spread this benchmark
/// prints is the spread the driver computes. Needs two values or more.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// The first quartile of `values` (the value itself for one sample).
pub fn first_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no samples");
    if values.len() < 2 {
        values[0]
    } else {
        quartiles(values).0
    }
}

/// Inter-quartile distance as a share of the median (0 for one sample).
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// What one timed block contributes: its op count, the time its ops took,
/// and the median of its per-op latencies.
#[derive(Clone, Copy, Debug)]
pub struct BlockStat {
    /// Ops completed in the block.
    pub ops: u64,
    /// Summed duration of the block's timed batches.
    pub busy_ns: u64,
    /// Median per-op latency.
    pub p50_ns: f64,
    /// Latency samples the median was taken over.
    pub samples: usize,
}

impl BlockStat {
    /// Reduce a block's raw latency samples (`ops_per_sample` ops each).
    pub fn from_samples(samples_ns: &[u32], ops_per_sample: u64, busy_ns: u64) -> Self {
        let mut v: Vec<f64> = samples_ns
            .iter()
            .map(|&s| s as f64 / ops_per_sample as f64)
            .collect();
        v.sort_by(f64::total_cmp);
        Self {
            ops: samples_ns.len() as u64 * ops_per_sample,
            busy_ns,
            p50_ns: percentile_sorted(&v, 0.50),
            samples: v.len(),
        }
    }

    /// Ops per second over the block's busy time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.busy_ns as f64
    }

    /// Mean busy time per op.
    pub fn ns_per_op(&self) -> f64 {
        self.busy_ns as f64 / self.ops as f64
    }
}

/// Samples a chunk must hold for its p99 to have ten samples beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;
/// Chunks a run's samples are cut into for the p99, at most.
pub const P99_CHUNKS: usize = 64;

/// The p99 of each *chunk* of a run's latency samples. `samples` are the
/// timed Pure samples of the whole run in run order; they are cut into at
/// most [`P99_CHUNKS`] consecutive chunks of equal size, never smaller than
/// [`P99_MIN_SAMPLES`] (the last chunk takes the remainder). Interference on
/// a shared host comes in bursts much shorter than a block; a burst spoils
/// the p99 of the chunks it touches and the median over chunks ignores them.
pub fn p99_by_chunk(samples: &[f64]) -> Vec<f64> {
    if samples.is_empty() {
        return Vec::new();
    }
    let size = P99_MIN_SAMPLES.max(samples.len().div_ceil(P99_CHUNKS));
    let n = (samples.len() / size).max(1);
    (0..n)
        .map(|i| {
            let end = if i + 1 == n {
                samples.len()
            } else {
                (i + 1) * size
            };
            let mut chunk = samples[i * size..end].to_vec();
            chunk.sort_by(f64::total_cmp);
            percentile_sorted(&chunk, 0.99)
        })
        .collect()
}

/// A metric taken as the median over blocks, with the blocks' own spread.
#[derive(Clone, Copy, Debug)]
pub struct OverBlocks {
    /// Median of the per-block statistic.
    pub median: f64,
    /// Inter-quartile distance across blocks, as a share of the median.
    pub iqr_share: f64,
}

/// Median over blocks of `f(block)`.
pub fn over_blocks(blocks: &[BlockStat], f: impl Fn(&BlockStat) -> f64) -> OverBlocks {
    let v: Vec<f64> = blocks.iter().map(f).collect();
    OverBlocks {
        median: median(&v),
        iqr_share: iqr_share(&v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        // 1000 samples leave exactly ten beyond the p99 sample.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.99), 990.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 30], n=4) == [5.0, 20.0, 35.0]: the
        // exclusive method extrapolates past a two-point sample.
        let (q1, q3) = quartiles(&[10.0, 30.0]);
        assert!((q1 - 5.0).abs() < 1e-12 && (q3 - 35.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert_eq!(first_quartile(&[16.0, 1.0, 4.0, 2.0, 8.0]), 1.5);
        assert_eq!(first_quartile(&[7.0]), 7.0);
    }

    #[test]
    fn median_of_blocks_ignores_one_bad_block() {
        let block = |p50: f64| BlockStat {
            ops: 100,
            busy_ns: 1000,
            p50_ns: p50,
            samples: 100,
        };
        let blocks: Vec<BlockStat> = [10.0, 11.0, 10.5, 500.0, 10.2, 10.8, 10.1, 10.9, 10.4]
            .iter()
            .map(|&p| block(p))
            .collect();
        let m = over_blocks(&blocks, |b| b.p50_ns);
        assert_eq!(m.median, 10.5);
        assert!(m.iqr_share < 0.1, "one outlier must not widen the IQR");
    }

    #[test]
    fn p99_chunks_are_equal_never_small_and_cover_every_sample() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<f64>>();
        // 128 000 samples: 64 chunks of 2000.
        let c = p99_by_chunk(&ramp(128_000));
        assert_eq!(c.len(), P99_CHUNKS);
        assert_eq!((c[0], c[63]), (1979.0, 127_979.0));
        // 3500 samples: chunks of 1000, the last one takes the remaining 1500.
        let c = p99_by_chunk(&ramp(3500));
        assert_eq!(c, vec![989.0, 1989.0, 3484.0]);
        // Fewer than one chunk's worth: one under-sampled chunk, not none.
        assert_eq!(p99_by_chunk(&ramp(10)), vec![9.0]);
        assert!(p99_by_chunk(&[]).is_empty());
    }

    #[test]
    fn one_burst_of_interference_does_not_move_the_median_chunk_p99() {
        let mut samples = vec![100.0; 64_000];
        for s in &mut samples[10_000..11_500] {
            *s = 5000.0; // a burst spanning two chunks
        }
        let c = p99_by_chunk(&samples);
        assert_eq!(median(&c), 100.0);
        assert_eq!(c.iter().filter(|&&p| p > 100.0).count(), 2);
    }

    #[test]
    fn block_stat_divides_window_time_by_window_size() {
        let s = BlockStat::from_samples(&[640, 1280, 960], 64, 2880);
        assert_eq!(s.ops, 192);
        assert_eq!(s.p50_ns, 15.0);
        assert_eq!(s.ns_per_op(), 15.0);
    }
}
