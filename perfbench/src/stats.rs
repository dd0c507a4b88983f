//! Sample statistics and metric bookkeeping shared by the untraced and the
//! traced run.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`: the value at rank
/// `ceil(p·n/100)` of the sorted samples.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - rank(n, p)
}

/// The highest whole percentile in `50..=99` that still has at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` when even the median has
/// fewer (fewer than 20 samples).
pub fn highest_tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| samples_beyond(n, p) >= TAIL_SAMPLES)
}

/// Whether a metric name follows the grammar the result consumer accepts:
/// 1–64 characters from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The part of `total` not covered by `parts` — how a derived "other" or
/// "epilogue" metric is formed from a measured whole and its measured
/// pieces. It can come out slightly negative when the pieces were timed on
/// separate calls; it is reported as measured.
pub fn remainder(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// How far `x` lies from `base`, as a share of `base`: the replay gap
/// `|stage sum / infer p50 − 1|`.
pub fn relative_gap(x: f64, base: f64) -> f64 {
    (x / base - 1.0).abs()
}

/// One reported metric: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list that rejects malformed names and non-finite
/// values at insertion, so the printed result is always well formed.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// The result object's `metrics` member as JSON.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
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
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 1), 1.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 leaves exactly 10 beyond it, p91 only 9.
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(100, 91), 9);
        assert_eq!(highest_tail_percentile(100), Some(90));
        // 99 samples: p90 sits at rank 90 and leaves 9, so p89 is the top.
        assert_eq!(highest_tail_percentile(99), Some(89));
        assert_eq!(highest_tail_percentile(200), Some(95));
        assert_eq!(highest_tail_percentile(1000), Some(99));
        assert_eq!(highest_tail_percentile(20), Some(50));
        assert_eq!(highest_tail_percentile(19), None);
        for n in 20..2000 {
            let p = highest_tail_percentile(n).expect("n >= 20 has a tail");
            assert!(samples_beyond(n, p) >= TAIL_SAMPLES);
            if p < 99 {
                assert!(samples_beyond(n, p + 1) < TAIL_SAMPLES);
            }
        }
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "int_infer_ms_p50",
            "core.theorem1.epilogue_ms",
            "parallel.nnz_imbalance_t2",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok} should be valid");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "ms/op", "naïve", &long] {
            assert!(!valid_metric_name(bad), "{bad:?} should be invalid");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn remainder_is_total_minus_parts() {
        // core.theorem1.epilogue_ms = core.theorem1.spmm_ms − sparse.spmm_int_ms
        assert_eq!(remainder(17.75, &[9.5]), 8.25);
        // nn.*_other_ms = whole − every measured part
        assert_eq!(remainder(20.0, &[8.0, 6.5, 3.0]), 2.5);
        assert_eq!(remainder(5.0, &[]), 5.0);
        assert_eq!(remainder(1.0, &[0.75, 0.5]), -0.25);
    }

    #[test]
    fn relative_gap_counts_both_directions() {
        assert!((relative_gap(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert!((relative_gap(9.0, 10.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_gap(4.0, 4.0), 0.0);
    }

    #[test]
    fn metrics_serialize_in_insertion_order() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        m.push("setup_s", 0.5, "s");
        assert_eq!(
            m.to_json(),
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn metrics_reject_duplicates() {
        let mut m = Metrics::default();
        m.push("x", 1.0, "ms");
        m.push("x", 2.0, "ms");
    }
}
