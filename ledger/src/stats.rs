//! Order statistics for repeated measurements.

use crate::json::{num, obj, Json};

/// Sorts a copy; NaNs (never produced by a timer) would sort last.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives them —
/// the rule the benchmark's acceptance spread is defined with. Fewer than
/// two values have no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The median of the densest half: of all runs of `n / 2 + 1` consecutive
/// sorted values, the median of the one spanning the shortest interval (the
/// "shorth"). It follows the mode of the sample, so it ignores a minority of
/// outliers on *either* side, where the plain median is pulled towards the
/// heavier tail. `NaN` when empty.
pub fn densest_half_median(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let half = v.len() / 2 + 1;
    let start = (0..=v.len() - half)
        .min_by(|&a, &b| (v[a + half - 1] - v[a]).total_cmp(&(v[b + half - 1] - v[b])))
        .unwrap_or(0);
    median(&v[start..start + half])
}

/// Median, quartiles, extremes and sample count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::NAN, f64::min),
            q1,
            median: median(values),
            q3,
            max: values.iter().copied().fold(f64::NAN, f64::max),
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// acceptance rule compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        obj([
            ("n", num(self.n as f64)),
            ("min", num(self.min)),
            ("q1", num(self.q1)),
            ("median", num(self.median)),
            ("q3", num(self.q3)),
            ("max", num(self.max)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        let f = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Summary {
            n: j.get("n")?.as_u64()? as usize,
            min: f("min")?,
            q1: f("q1")?,
            median: f("median")?,
            q3: f("q3")?,
            max: f("max")?,
        })
    }
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
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]), (15.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn densest_half_median_follows_the_mode() {
        // A tight cluster with a slow tail and a fast episode: the median is
        // pulled up by the episode, the densest half is not.
        let rates = [3.0, 9.8, 9.9, 10.0, 10.1, 10.2, 12.5, 12.6, 12.7];
        assert_eq!(median(&rates), 10.1);
        assert_eq!(densest_half_median(&rates), 10.0);
        assert_eq!(densest_half_median(&[7.0]), 7.0);
        assert_eq!(densest_half_median(&[1.0, 2.0]), 1.5);
        assert!(densest_half_median(&[]).is_nan());
    }

    #[test]
    fn summary_round_trips_and_reports_spread() {
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 10.0, 30.0, 50.0));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
