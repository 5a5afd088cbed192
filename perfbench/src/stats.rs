//! Summary statistics and the metric set a run reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive `xs`; 1 (the empty product) when empty.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Whether `name` is a legal metric name: starts with a letter or digit, at
/// most 64 characters of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics with units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `name` = `value` `unit` (replacing an earlier value). An
    /// empty float sum is -0.0; it is stored as 0.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(valid_name(&name), "bad metric name {name:?}");
        self.0.insert(name, (value + 0.0, unit));
    }

    /// Every `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(n, &(v, u))| (n.as_str(), v, u))
    }

    /// The names of metrics whose value is NaN or infinite.
    #[must_use]
    pub fn non_finite(&self) -> Vec<String> {
        self.iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.to_string())
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of each
    /// value (Rust's shortest round-trip float formatting).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_matches_hand_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn names_follow_the_result_contract() {
        for ok in [
            "wall_s",
            "det.share",
            "cell.SOR.2L_s",
            "apps.Em3d_ms",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "x/y", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.set("b", 0.1 + 0.2, "s");
        m.set("a", 3.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 3.0, \"unit\": \"count\"}, \
             \"b\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}"
        );
    }
}
