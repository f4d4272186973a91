//! Order statistics over per-solve samples.

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Smallest sample; 0 for no samples.
pub fn min(samples: &[f64]) -> f64 {
    sorted(samples).first().copied().unwrap_or(0.0)
}

/// The tail a sample count supports: the highest percentile with at least
/// ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile (share of samples at or below `value`, in %).
    pub percentile: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
}

/// Number of samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The [`Tail`] of `samples`; with `TAIL_BEYOND` samples or fewer no
/// percentile qualifies and the minimum is reported at percentile 0.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    let at = n.saturating_sub(TAIL_BEYOND + 1);
    Tail {
        value: s.get(at).copied().unwrap_or(0.0),
        percentile: if n > TAIL_BEYOND {
            100.0 * (at + 1) as f64 / n as f64
        } else {
            0.0
        },
        samples: n,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 20.0);
        assert_eq!(samples.iter().filter(|&&v| v > t.value).count(), 10);
        assert!((t.percentile - 66.666).abs() < 0.01);
        assert_eq!(median(&samples), 15.5);
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(min(&[]), 0.0);
    }
}
