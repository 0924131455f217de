//! Order statistics and the regression rule shared by the runs and by
//! `compare`.

/// Median of `xs` (the mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method), so
/// spreads reported here match a spread computed with Python. A single
/// sample is its own quartiles.
///
/// # Panics
///
/// Panics when `xs` is empty.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the benchmark's bounds are held to.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percent, value)`. `None` below twenty samples, where that
/// percentile would not lie above the median.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 20 {
        return None;
    }
    let s = sorted(xs);
    let k = s.len() - 11;
    Some((100.0 * (k + 1) as f64 / s.len() as f64, s[k]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// How a change's samples compare with its parent's for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the parent's spread, winning nine tenths of
    /// all (parent, change) sample pairs.
    Improved,
    /// Median worse than the parent's by more than the bound.
    Regressed,
    /// Median within the bound and no resolved gain.
    Unchanged,
    /// The parent's own spread is wider than the bound, so a change
    /// within it cannot be told apart from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label used in `compare` rows.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The bound check: judges `change` against `parent` for a metric whose
/// regression bound is `bound` (a share of the parent's median).
///
/// The samples are unpaired, so the "wins nine tenths of the pairs" rule
/// is applied over every (parent, change) combination.
///
/// # Panics
///
/// Panics when either sample set is empty.
pub fn judge(parent: &[f64], change: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let better = |x: f64, than: f64| if lower_is_better { x < than } else { x > than };
    let (pm, cm) = (median(parent), median(change));
    let worse = (cm - pm) / pm.abs() * if lower_is_better { 1.0 } else { -1.0 };
    let [q1, _, q3] = quartiles(parent);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let all_worse = change.iter().all(|&c| parent.iter().all(|&p| better(p, c)));
    if (q3 - q1) / pm.abs() > bound && !all_better && !all_worse {
        return Verdict::Unresolved;
    }
    if worse > bound {
        return Verdict::Regressed;
    }
    let wins = change
        .iter()
        .map(|&c| parent.iter().filter(|&&p| better(c, p)).count())
        .sum::<usize>();
    let pairs = parent.len() * change.len();
    if better(cm, pm) && (cm - pm).abs() > q3 - q1 && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((75.0, 30.0)));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
        assert_eq!(tail(&[1.0; 19]), None);
    }

    #[test]
    fn judge_labels_each_case() {
        let parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00];
        let same = [1.01, 0.99, 1.00, 1.00, 1.02, 0.98];
        assert_eq!(judge(&parent, &same, 0.1, true), Verdict::Unchanged);

        let slower: Vec<f64> = parent.iter().map(|x| x * 1.3).collect();
        assert_eq!(judge(&parent, &slower, 0.1, true), Verdict::Regressed);
        // The same samples are a gain when higher is better.
        assert_eq!(judge(&parent, &slower, 0.1, false), Verdict::Improved);

        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&parent, &faster, 0.1, true), Verdict::Improved);

        // A gain no larger than the parent's spread is not resolved.
        let nudged: Vec<f64> = parent.iter().map(|x| x - 0.005).collect();
        assert_eq!(judge(&parent, &nudged, 0.1, true), Verdict::Unchanged);

        let noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.9];
        assert_eq!(judge(&noisy, &same, 0.1, true), Verdict::Unresolved);
        // ... unless every change sample beats every parent sample; a gain
        // must still exceed the parent's interquartile range.
        assert_eq!(judge(&noisy, &[0.5, 0.55], 0.1, true), Verdict::Unchanged);
        assert_eq!(judge(&noisy, &[0.2, 0.25], 0.1, true), Verdict::Improved);
    }
}
