//! The benchmark's result document, its run record and the process facts
//! they carry.
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! The line before it is the run record: the same metrics with the
//! sample count behind each, plus the settings the numbers depend on.

use hipacc_profile::json::escape;
use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dotted metric name (see [`valid_name`]).
    pub name: String,
    /// The value as measured, all digits kept.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// What one invocation produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every output matched its reference and every check held.
    pub correct: bool,
    /// Operations attempted (frames pushed, or kernels compiled).
    pub attempted: u64,
    /// Operations that failed, were shed, or mismatched their reference.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Settings and facts recorded next to the metrics.
    pub context: Vec<(String, String)>,
    /// Human-readable reasons for every failed check.
    pub problems: Vec<String>,
    /// Spans of a traced run, for the Chrome trace.
    pub spans: Vec<hipacc_profile::Span>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Record a failed check; the run is then not correct.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.problems.push(what.into());
    }

    /// Keep only the metrics named in `names`, in that order. A name
    /// with no measurement is a problem, or, with `absent_as_zero`, is
    /// reported as 0 and listed as not applicable to the workload.
    pub fn select(&mut self, names: &[(&str, &'static str)], absent_as_zero: bool) {
        let mut kept = Vec::with_capacity(names.len());
        let mut absent = Vec::new();
        for (name, unit) in names {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.unit == *unit => kept.push(m.clone()),
                Some(m) => self.problem(format!("metric `{name}` is in {}, not {unit}", m.unit)),
                None if absent_as_zero => {
                    absent.push(*name);
                    kept.push(Metric::new(name, 0.0, unit, 0));
                }
                None => self.problem(format!("metric `{name}` was not measured")),
            }
        }
        if !absent.is_empty() {
            self.note("not_applicable", absent.join(" "));
        }
        self.metrics = kept;
    }

    /// Reject names, units or values the result format cannot carry.
    pub fn validate(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| {
                if !valid_name(&m.name) {
                    Some(format!("metric name `{}` breaks the grammar", m.name))
                } else if !valid_unit(m.unit) {
                    Some(format!(
                        "unit `{}` of `{}` breaks the grammar",
                        m.unit, m.name
                    ))
                } else if !m.value.is_finite() {
                    Some(format!("metric `{}` is not finite", m.name))
                } else {
                    None
                }
            })
            .collect();
        for b in bad {
            self.problem(b);
        }
        self.metrics.retain(|m| m.value.is_finite());
    }

    /// The result line.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                m.value,
                escape(m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The run record: metrics with their sample counts, the context and
    /// any problems.
    pub fn record_json(&self) -> String {
        let mut out = String::from("{\"record\": {");
        for (k, v) in &self.context {
            let _ = write!(out, "\"{}\": \"{}\", ", escape(k), escape(v));
        }
        out.push_str("\"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                escape(&m.name),
                m.value,
                escape(m.unit),
                m.samples
            );
        }
        out.push_str("}, \"problems\": [");
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", escape(p)))
            .collect();
        out.push_str(&problems.join(", "));
        out.push_str("]}}");
        out
    }
}

/// Metric-name grammar: starts with a letter or digit; at most 64 of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Unit grammar: one to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Peak resident set of this process in MB (`ru_maxrss`, which Linux
/// reports in KiB).
pub fn peak_rss_mb() -> Option<f64> {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` has the layout of the C `struct rusage` on 64-bit
    // Linux (two `timeval`s then fourteen `long`s), the pointer is valid
    // for writes of that size, and `getrusage` writes only through it.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    // SAFETY: the struct was zero-initialised (a valid bit pattern for
    // plain integers) and `getrusage` returned success.
    let usage = unsafe { usage.assume_init() };
    Some(usage.maxrss as f64 / 1024.0)
}

/// The commit of the source tree, read from `.git` in the working
/// directory when there is one; `"unknown"` otherwise (an exported
/// tree carries no history).
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipacc_profile::json::{parse, Value};

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "setup_s",
            "core.fingerprint_us",
            "sim.mpix_per_s",
            "2x-ratio",
            "a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/no",
            "ümlaut",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "Mpix/s", "model_ms"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    fn sample() -> Outcome {
        let mut o = Outcome {
            correct: true,
            attempted: 1200,
            failed: 0,
            ..Outcome::default()
        };
        o.push("throughput", 812.345678901, "1/s", 9);
        o.push("latency_p50_ms", 0.0000123, "ms", 1200);
        o.push("core.fingerprint_bytes", 1806.0, "bytes", 1);
        o.note("workload", "stream_small");
        o.note("quote", "a \"b\"");
        o
    }

    #[test]
    fn result_line_round_trips_through_the_json_parser() {
        let o = sample();
        let doc = parse(&o.result_json()).expect("result parses");
        let obj = doc.as_object().unwrap();
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(obj["correct"], Value::Bool(true));
        assert_eq!(obj["attempted"].as_number(), Some(1200.0));
        let metrics = obj["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), 3);
        for m in &o.metrics {
            let got = metrics[&m.name].as_object().unwrap();
            assert_eq!(got["value"].as_number(), Some(m.value), "{}", m.name);
            assert_eq!(got["unit"].as_str(), Some(m.unit));
        }
    }

    #[test]
    fn record_round_trips_through_the_json_parser() {
        let mut o = sample();
        o.problem("frame 3 \"differs\"");
        let doc = parse(&o.record_json()).expect("record parses");
        let rec = doc.as_object().unwrap()["record"].as_object().unwrap();
        assert_eq!(rec["workload"].as_str(), Some("stream_small"));
        assert_eq!(rec["quote"].as_str(), Some("a \"b\""));
        let m = rec["metrics"].as_object().unwrap()["throughput"]
            .as_object()
            .unwrap();
        assert_eq!(m["samples"].as_number(), Some(9.0));
        assert_eq!(rec["problems"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn select_keeps_the_named_metrics_and_flags_missing_ones() {
        let mut o = sample();
        o.select(&[("latency_p50_ms", "ms"), ("throughput", "1/s")], false);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["latency_p50_ms", "throughput"]);
        assert!(o.correct);

        let mut zeroed = o.clone();
        zeroed.select(&[("throughput", "1/s"), ("absent", "us")], true);
        assert!(zeroed.correct);
        assert_eq!(zeroed.metrics[1].value, 0.0);
        assert!(zeroed
            .context
            .iter()
            .any(|(k, v)| k == "not_applicable" && v == "absent"));

        o.select(&[("throughput", "1/s"), ("absent", "us")], false);
        assert!(!o.correct);
        assert_eq!(o.metrics.len(), 1);
    }

    #[test]
    fn select_rejects_a_unit_mismatch() {
        let mut o = sample();
        o.select(&[("throughput", "ms")], false);
        assert!(!o.correct);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
