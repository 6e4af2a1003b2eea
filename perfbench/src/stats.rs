//! Order statistics for the end-to-end metrics.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice so a missing sample cannot pass as 0.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Percentiles the tail rule may pick from, in per mille (integer, so a
/// rank never suffers float rounding): the "nines". Each step spans a
/// tenfold range of sample counts (it is crossed only when the count
/// passes `10 / (1 - p)`: 20, 100, 1,000, 10,000), so the reported
/// percentile stays the same from run to run and across modest speed-ups.
pub const TAIL_LADDER_PER_MILLE: [usize; 4] = [500, 900, 990, 999];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the percentile, its value, and the sample counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (from [`TAIL_LADDER_PER_MILLE`]).
    pub percentile: f64,
    /// The nearest-rank value at that percentile (the median of the
    /// groups' values when taken over reps).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank (in the smallest
    /// group).
    pub beyond: usize,
    /// Total samples (of the smallest group).
    pub samples: usize,
    /// Groups the value is the median over (1 for one sample set).
    pub groups: usize,
}

/// The highest ladder percentile (per mille) with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it (nearest rank: rank
/// `ceil(p * n)`, so `n - rank` samples lie beyond), with its rank.
fn tail_rank(n: usize) -> Option<(usize, usize)> {
    TAIL_LADDER_PER_MILLE.iter().rev().find_map(|&pm| {
        let rank = (pm * n).div_ceil(1000);
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then_some((pm, rank))
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, and its nearest-rank value. `None` when even the
/// median has fewer.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let (pm, rank) = tail_rank(n)?;
    Some(Tail {
        percentile: pm as f64 / 10.0,
        value: sorted(xs)[rank - 1],
        beyond: n - rank,
        samples: n,
        groups: 1,
    })
}

/// The tail over reps: the rule of [`tail`] picks the percentile for the
/// smallest rep, and the value is the median over reps of each rep's
/// value at it, so a burst of host noise that hits one rep cannot set it.
/// When even the smallest rep is too small for the rule, all samples form
/// one set.
pub fn tail_over_reps(reps: &[Vec<f64>]) -> Option<Tail> {
    let smallest = reps.iter().map(Vec::len).min()?;
    let Some((pm, _)) = tail_rank(smallest) else {
        return tail(&reps.concat());
    };
    let values: Vec<f64> = reps
        .iter()
        .map(|r| sorted(r)[(pm * r.len()).div_ceil(1000) - 1])
        .collect();
    let rank = (pm * smallest).div_ceil(1000);
    Some(Tail {
        percentile: pm as f64 / 10.0,
        value: median(&values),
        beyond: smallest - rank,
        samples: smallest,
        groups: reps.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 19 samples: even the median leaves only 9 beyond.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // 20 samples: p50 has rank 10 and exactly 10 beyond; p90 has 2.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        // 100 samples: p90 (rank 90) leaves exactly 10.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 99 samples: p90 (rank 90) leaves 9, so the rule drops to p50.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 50.0, 49));
        // 2,000 samples: p99 (rank 1,980) leaves 20; p99.9 would leave 2.
        let xs: Vec<f64> = (1..=2_000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 1_980.0, 20));
        // 10,000 samples: p99.9 (rank 9,990) leaves exactly 10.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9_990.0, 10));
        assert_eq!(t.samples, 10_000);
    }

    #[test]
    fn tail_over_reps_takes_the_median_of_each_reps_tail() {
        // Three reps of 100: p90 per rep (10 beyond); one rep's burst
        // cannot move the median of the three values.
        let rep = |shift: f64| (1..=100).map(|i| f64::from(i) + shift).collect::<Vec<_>>();
        let mut burst = rep(0.0);
        burst[95..].iter_mut().for_each(|x| *x = 1e6);
        burst[85..95].iter_mut().for_each(|x| *x = 5e5);
        let t = tail_over_reps(&[rep(0.0), rep(1.0), burst]).unwrap();
        assert_eq!(
            (t.percentile, t.beyond, t.samples, t.groups),
            (90.0, 10, 100, 3)
        );
        assert_eq!(t.value, 91.0);
        // Reps too small for the rule: all samples form one set.
        let t = tail_over_reps(&vec![vec![1.0]; 25]).unwrap();
        assert_eq!((t.percentile, t.groups, t.samples), (50.0, 1, 25));
        assert_eq!(tail_over_reps(&[]), None);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (1..=500).map(|i| f64::from((i * 37) % 500)).collect();
        let a = tail(&xs).unwrap();
        xs.reverse();
        assert_eq!(tail(&xs).unwrap(), a);
    }
}
