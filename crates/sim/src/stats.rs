//! Online statistics and series collection for experiment reports.

use crate::time::Time;
use serde::{Deserialize, Serialize};

/// Welford-style online mean/variance plus min/max, for summarizing
/// latencies and handler durations without storing every sample.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add a time sample in nanoseconds.
    pub fn push_time(&mut self, t: Time) {
        self.push(t.ns());
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (unbiased; 0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64) * (other.n as f64) / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A stored-sample collector that can compute exact percentiles. Used for
/// completion-time distributions where tails matter (noise experiments).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// The q-th quantile (q in `[0, 1]`) by nearest-rank; NaN if empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let idx = ((self.values.len() as f64 - 1.0) * q).round() as usize;
        self.values[idx.min(self.values.len() - 1)]
    }

    /// Median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }
}

/// One row of an experiment output series: an x value (e.g. message size)
/// with named y values (e.g. one per transport). Serializable so the
/// experiment harness can emit machine-readable records for EXPERIMENTS.md.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// The sweep parameter (message size in bytes, process count, ...).
    pub x: f64,
    /// Named measurements for this x.
    pub ys: Vec<(String, f64)>,
}

/// A labelled table of rows produced by one experiment.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Table {
    /// Experiment identifier, e.g. `"fig3b"`.
    pub name: String,
    /// Label of the x column.
    pub x_label: String,
    /// Unit/label of the y values.
    pub y_label: String,
    /// Data rows in sweep order.
    pub rows: Vec<Row>,
}

impl Table {
    /// A new empty table.
    pub fn new(name: &str, x_label: &str, y_label: &str) -> Self {
        Table {
            name: name.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, x: f64, ys: Vec<(String, f64)>) {
        self.rows.push(Row { x, ys });
    }

    /// Look up the y value for a series at a given x (exact match).
    pub fn get(&self, x: f64, series: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.x == x)?
            .ys
            .iter()
            .find(|(n, _)| n == series)
            .map(|(_, v)| *v)
    }

    /// All series names present in the table, in first-seen order.
    pub fn series(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for row in &self.rows {
            for (n, _) in &row.ys {
                if !names.iter().any(|e| e == n) {
                    names.push(n.clone());
                }
            }
        }
        names
    }

    /// Render as an aligned text table (what the experiment binaries print).
    pub fn render(&self) -> String {
        let series = self.series();
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.name, self.y_label));
        out.push_str(&format!("{:>14}", self.x_label));
        for s in &series {
            out.push_str(&format!(" {:>14}", s));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:>14}", trim_float(row.x)));
            for s in &series {
                let v = row.ys.iter().find(|(n, _)| n == s).map(|(_, v)| *v);
                match v {
                    Some(v) => out.push_str(&format!(" {:>14}", format_sig(v))),
                    None => out.push_str(&format!(" {:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

fn trim_float(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

fn format_sig(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        data.iter().for_each(|&x| whole.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        data[..300].iter().for_each(|&x| a.push(x));
        data[300..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6);
    }

    #[test]
    fn quantiles() {
        let mut s = Samples::new();
        for i in (1..=100).rev() {
            s.push(i as f64);
        }
        // Nearest-rank with round-half-up indexing: index round(49.5)=50 -> 51.
        assert_eq!(s.median(), 51.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert!((s.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_collectors() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert!(s.min().is_nan());
        let mut q = Samples::new();
        assert!(q.median().is_nan());
        assert!(q.is_empty());
    }

    #[test]
    fn table_render_and_get() {
        let mut t = Table::new("fig3b", "bytes", "half-RTT (us)");
        t.push(8.0, vec![("RDMA".into(), 0.8), ("sPIN".into(), 0.65)]);
        t.push(64.0, vec![("RDMA".into(), 0.82), ("sPIN".into(), 0.66)]);
        assert_eq!(t.get(8.0, "sPIN"), Some(0.65));
        assert_eq!(t.get(64.0, "P4"), None);
        assert_eq!(t.series(), vec!["RDMA".to_string(), "sPIN".to_string()]);
        let s = t.render();
        assert!(s.contains("fig3b"));
        assert!(s.contains("RDMA"));
        assert!(s.lines().count() >= 4);
    }
}
