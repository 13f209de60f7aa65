//! Median and quartiles of a small sample.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method), which is what the driver that gates this
//! benchmark computes, so a spread printed here is the spread it sees.

/// Median, quartiles and size of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub samples: usize,
}

impl Summary {
    /// Summarize `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
        Summary {
            median: quartile(&sorted, 2),
            q1: quartile(&sorted, 1),
            q3: quartile(&sorted, 3),
            samples: sorted.len(),
        }
    }

    /// A sample of one deterministic value.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }
}

/// The `quarter`-th quartile cut (1, 2 or 3) of an ascending sample by
/// the exclusive method: 1-based position `quarter·(n+1)/4`, linearly
/// interpolated between its neighbours — and, like Python, linearly
/// extrapolated from the outermost pair when the position falls off
/// the end of a very small sample. A single value is its own quartiles.
fn quartile(sorted: &[f64], quarter: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = n + 1;
    let j = (quarter * m / 4).clamp(1, n - 1);
    let delta = (quarter * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}
