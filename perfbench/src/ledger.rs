//! Spans recorded from the benchmark's own files around calls into each
//! layer's public functions, and the per-layer sample table they feed.

use hipacc_profile::{now_us, Span};
use std::collections::BTreeMap;
use std::time::Instant;

/// Times calls into layers. Each call is one sample of its row; when
/// `spans` is on, each call also becomes a Chrome-trace span on `lane`.
pub struct Ledger {
    spans: Option<Vec<Span>>,
    rows: BTreeMap<String, Vec<f64>>,
    lane: u32,
}

impl Ledger {
    /// A ledger that records spans (`traced`) or only times calls.
    pub fn new(traced: bool) -> Self {
        Ledger {
            spans: traced.then(Vec::new),
            rows: BTreeMap::new(),
            lane: 1,
        }
    }

    /// Put subsequent spans on this trace lane.
    pub fn set_lane(&mut self, lane: u32) {
        self.lane = lane;
    }

    /// Run `f`, returning its result and its wall time in µs. The time is
    /// not added to any row.
    pub fn span<R>(&mut self, name: &str, cat: &str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let start_us = now_us();
        let t = Instant::now();
        let out = f(self);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if let Some(spans) = &mut self.spans {
            spans.push(Span::new(name, cat, start_us, us.round() as u64).lane(self.lane));
        }
        (out, us)
    }

    /// Like [`Self::span`], and the time becomes one sample of row `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let cat = name.split('.').next().unwrap_or(name).to_string();
        let (out, us) = self.span(name, &cat, |_| f());
        self.add(name, us);
        (out, us)
    }

    /// Add one sample to a row.
    pub fn add(&mut self, row: &str, value: f64) {
        self.rows.entry(row.to_string()).or_default().push(value);
    }

    /// All samples of a row (empty when never recorded).
    pub fn samples(&self, row: &str) -> &[f64] {
        self.rows.get(row).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The recorded spans (empty when untraced).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Sum per-call samples of `row` into per-item samples, where each item
/// made `per_item` consecutive calls (for example the stage launches of
/// one frame).
pub fn per_item(samples: &[f64], per_item: usize) -> Vec<f64> {
    samples
        .chunks(per_item.max(1))
        .map(|c| c.iter().sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_collect_samples_and_spans_nest() {
        let mut l = Ledger::new(true);
        l.set_lane(7);
        let (v, outer) = l.span("frame:0", "frame", |l| {
            let (a, _) = l.time("core.fingerprint_us", || 2 + 2);
            let (b, _) = l.time("core.fingerprint_us", || 3);
            a + b
        });
        assert_eq!(v, 7);
        let inner = l.samples("core.fingerprint_us");
        assert_eq!(inner.len(), 2);
        assert!(inner.iter().sum::<f64>() <= outer);
        assert!(l.samples("absent").is_empty());
        let spans = l.into_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.lane == 7));
        assert_eq!(spans[0].cat, "core");
        let trace = hipacc_profile::chrome::trace_json(&spans);
        assert_eq!(hipacc_profile::chrome::validate(&trace), Ok(3));
    }

    #[test]
    fn untraced_ledger_times_without_spans() {
        let mut l = Ledger::new(false);
        l.time("sim.launch_us", || ());
        assert_eq!(l.samples("sim.launch_us").len(), 1);
        assert!(l.into_spans().is_empty());
    }

    #[test]
    fn per_item_sums_consecutive_calls() {
        assert_eq!(per_item(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3), [6.0, 15.0]);
        assert_eq!(per_item(&[1.0, 2.0], 1), [1.0, 2.0]);
    }
}
