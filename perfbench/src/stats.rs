//! The benchmark's own arithmetic: medians, the percentile rule, and
//! the self-time / residual computations that reconcile layer times
//! against client-observed time. Everything here is pure and unit-tested.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// Whether percentile `p` of `n` samples has at least [`TAIL_SAMPLES`]
/// samples beyond it — the rule every reported tail percentile obeys.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= TAIL_SAMPLES
}

/// The fewest samples for which percentile `p` obeys the rule.
pub fn samples_needed(p: f64) -> usize {
    (1..=1_000_000)
        .find(|&n| tail_is_supported(n, p))
        .unwrap_or(usize::MAX)
}

/// One timed operation of a closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it completed, in seconds since the timed phase began.
    pub end: f64,
    /// Its latency.
    pub value: f64,
    /// Reports it carried.
    pub reports: u64,
    /// The machine's CPU counters when it completed.
    pub host: crate::host::Ticks,
}

/// Median, tail and throughput of one block of consecutive samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Samples in the block.
    pub samples: usize,
    /// Median latency.
    pub p50: f64,
    /// Tail-percentile latency.
    pub tail: f64,
    /// Reports completed per second over the block's span of time.
    pub rate: f64,
    /// Share of the machine's CPU time the host stole over that span.
    pub steal: f64,
}

/// Cut the samples, in completion order, into blocks of `size`
/// consecutive samples and summarise each (a trailing partial block is
/// dropped). A block spans from the previous block's last completion
/// (or 0, and the first sample's host reading) to its own last one.
/// With `size` chosen so that percentile `p` has [`TAIL_SAMPLES`] beyond
/// it, every block's tail obeys the percentile rule.
pub fn blocks(samples: &[Sample], size: usize, p: f64) -> Vec<Block> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.end.total_cmp(&b.end));
    let mut start = 0.0;
    let mut host = sorted.first().map(|s| s.host).unwrap_or_default();
    sorted
        .chunks_exact(size.max(1))
        .map(|chunk| {
            let values: Vec<f64> = chunk.iter().map(|s| s.value).collect();
            let last = chunk[chunk.len() - 1];
            let reports: u64 = chunk.iter().map(|s| s.reports).sum();
            let block = Block {
                samples: chunk.len(),
                p50: median(&values),
                tail: percentile(&values, p),
                rate: reports as f64 / (last.end - start),
                steal: host.steal_share(last.host),
            };
            start = last.end;
            host = last.host;
            block
        })
        .collect()
}

/// The blocks in which the host stole no more CPU time than in the
/// run's median block: at least half of them. Steal comes from other
/// tenants of the host, so this drops the stretches they disturbed
/// most without looking at how fast the program was; a slower program
/// is slower in every block that is kept.
pub fn quiet(blocks: &[Block]) -> Vec<Block> {
    let limit = median(&blocks.iter().map(|b| b.steal).collect::<Vec<_>>());
    blocks
        .iter()
        .filter(|b| b.steal <= limit)
        .copied()
        .collect()
}

/// A span's self time: its own length minus the part of it covered by
/// the union of its children (children may overlap each other and may
/// stick out of the parent; only the covered part inside counts).
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (p1 - p0) - covered
}

/// What is left of `total` once every attributed part is taken out.
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// [`residual`] as a share of `total` (0 when `total` is not positive).
pub fn residual_share(total: f64, parts: &[f64]) -> f64 {
    if total > 0.0 {
        residual(total, parts) / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p90 of 100 samples leaves exactly 10 beyond it; of 99, only 9.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(tail_is_supported(100, 90.0));
        assert!(!tail_is_supported(99, 90.0));
        // p99 needs a thousand samples, p50 twenty.
        assert!(tail_is_supported(1000, 99.0));
        assert!(!tail_is_supported(999, 99.0));
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
    }

    #[test]
    fn blocks_cut_completion_ordered_samples() {
        // Given out of completion order; 5 samples of 2 reports each.
        let samples: Vec<Sample> = [3.0, 1.0, 2.0, 5.0, 4.0]
            .iter()
            .map(|&end| Sample {
                end,
                value: end * 10.0,
                reports: 2,
                host: crate::host::Ticks {
                    steal: end as u64,
                    total: 10 * end as u64,
                },
            })
            .collect();
        let b = blocks(&samples, 2, 99.0);
        assert_eq!(b.len(), 2, "the trailing partial block is dropped");
        assert_eq!(b[0].p50, 15.0);
        assert_eq!(b[0].tail, 20.0);
        assert_eq!(b[0].rate, 4.0 / 2.0);
        assert_eq!(b[1].p50, 35.0);
        assert_eq!(b[1].rate, 4.0 / 2.0);
        // Host steal from the first sample's reading (end 1) to the
        // block's last (end 2), then on from there (end 4).
        assert!((b[0].steal - 0.1).abs() < 1e-12);
        assert!((b[1].steal - 0.1).abs() < 1e-12);
        // 1000-sample blocks leave exactly ten samples beyond p99.
        assert!(tail_is_supported(1000, 99.0));
    }

    #[test]
    fn quiet_blocks_are_those_at_or_below_the_median_steal() {
        let block = |rate: f64, steal: f64| Block {
            samples: 1,
            p50: 1.0,
            tail: 2.0,
            rate,
            steal,
        };
        let all = [
            block(1.0, 0.30),
            block(2.0, 0.0),
            block(3.0, 0.02),
            block(4.0, 0.0),
        ];
        // Median steal 0.01: the two blocks without steal are kept.
        let kept: Vec<f64> = quiet(&all).iter().map(|b| b.rate).collect();
        assert_eq!(kept, [2.0, 4.0]);
        // A host without steal keeps every block.
        let calm: Vec<Block> = all.iter().map(|b| block(b.rate, 0.0)).collect();
        assert_eq!(quiet(&calm).len(), 4);
        // An odd count keeps the median block too.
        assert_eq!(quiet(&all[..3]).len(), 2);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Overlapping children count once; the part sticking out of the
        // parent does not count.
        let t = self_time((0.0, 10.0), &[(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]);
        assert!((t - 5.0).abs() < 1e-12, "{t}");
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(-5.0, 20.0)]), 0.0);
        // Disjoint children, given out of order.
        let t = self_time((0.0, 10.0), &[(6.0, 7.0), (1.0, 2.0)]);
        assert!((t - 8.0).abs() < 1e-12, "{t}");
    }

    #[test]
    fn residual_is_what_the_layers_do_not_explain() {
        assert!((residual(10.0, &[2.0, 3.0]) - 5.0).abs() < 1e-12);
        assert!((residual_share(10.0, &[2.0, 3.0]) - 0.5).abs() < 1e-12);
        // Layers that over-explain give a negative residual, not a clamp.
        assert!(residual_share(1.0, &[0.7, 0.6]) < 0.0);
        assert_eq!(residual_share(0.0, &[1.0]), 0.0);
    }
}
