//! Prometheus text-exposition rendering and well-formedness validation.
//!
//! [`PromText`] accumulates metric families in the text format
//! (`# TYPE` declared once per family, histograms rendered as
//! cumulative `_bucket{le=…}` series plus `_sum`/`_count`). Histogram
//! values recorded in nanoseconds are exposed in **seconds**, the
//! Prometheus base unit for time.
//!
//! [`validate_exposition`] is the other half: a structural checker used
//! by CI and the `http_campaign --smoke` gate to prove an exposition is
//! well-formed — every line parses, every histogram family carries
//! `_sum` and `_count`, and its `le` buckets are strictly increasing,
//! cumulative, and terminated by `+Inf` with the family count.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::hist::Histogram;

const NS_PER_SEC: f64 = 1e9;

/// An accumulating Prometheus text-exposition document.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
    declared: BTreeSet<String>,
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

impl PromText {
    /// An empty document.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn declare(&mut self, name: &str, kind: &str, help: &str) {
        if self.declared.insert(name.to_string()) {
            let _ = writeln!(self.out, "# HELP {name} {help}");
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
        }
    }

    /// Appends one counter sample (declaring the family on first use).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.declare(name, "counter", help);
        let _ = writeln!(self.out, "{name}{} {value}", render_labels(labels));
    }

    /// Appends one gauge sample (declaring the family on first use).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.declare(name, "gauge", help);
        let _ = writeln!(self.out, "{name}{} {value}", render_labels(labels));
    }

    /// Appends one histogram series from a nanosecond-valued
    /// [`Histogram`], exposed in seconds: cumulative `_bucket{le=…}`
    /// lines over the non-empty buckets, a terminal `le="+Inf"`, then
    /// `_sum` and `_count`. Empty histograms still render (with a lone
    /// `+Inf` bucket), so the metric set is stable from startup.
    pub fn histogram_ns(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.histogram_scaled(name, help, labels, h, NS_PER_SEC);
    }

    /// [`PromText::histogram_ns`] for a histogram of plain counts (an EM
    /// rebuild's iterations, say), exposed as recorded.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.histogram_scaled(name, help, labels, h, 1.0);
    }

    /// Renders `h` with every bucket bound and the sum divided by
    /// `per_unit`.
    #[allow(clippy::cast_precision_loss)]
    fn histogram_scaled(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &Histogram,
        per_unit: f64,
    ) {
        self.declare(name, "histogram", help);
        let base = render_labels(labels);
        let mut cum = 0u64;
        for (upper, count) in h.nonzero_buckets() {
            cum += count;
            let le = upper as f64 / per_unit;
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            let le_text = format!("{le}");
            with_le.push(("le", &le_text));
            let _ = writeln!(self.out, "{name}_bucket{} {cum}", render_labels(&with_le));
        }
        let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
        with_inf.push(("le", "+Inf"));
        let _ = writeln!(
            self.out,
            "{name}_bucket{} {}",
            render_labels(&with_inf),
            h.count()
        );
        let _ = writeln!(self.out, "{name}_sum{base} {}", h.sum() as f64 / per_unit);
        let _ = writeln!(self.out, "{name}_count{base} {}", h.count());
    }

    /// The finished exposition text.
    #[must_use]
    pub fn render(self) -> String {
        self.out
    }
}

/// One parsed sample line: name, labels, value.
fn parse_sample(line: &str) -> Result<(String, BTreeMap<String, String>, f64), String> {
    let (name_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("no value on line {line:?}"))?;
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse()
            .map_err(|_| format!("unparseable value on line {line:?}"))?,
    };
    let (name, labels) = match name_labels.split_once('{') {
        None => (name_labels.to_string(), BTreeMap::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated labels on line {line:?}"))?;
            let mut labels = BTreeMap::new();
            for pair in split_label_pairs(body) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("bad label pair {pair:?} on line {line:?}"))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted label value on line {line:?}"))?;
                labels.insert(k.to_string(), v.replace("\\\"", "\"").replace("\\\\", "\\"));
            }
            (name.to_string(), labels)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("invalid metric name on line {line:?}"));
    }
    Ok((name, labels, value))
}

/// Splits a label body on the commas *between* pairs (commas inside
/// quoted values stay put).
fn split_label_pairs(body: &str) -> Vec<String> {
    let mut pairs = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            current.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                current.push(c);
                escaped = true;
            }
            '"' => {
                current.push(c);
                in_quotes = !in_quotes;
            }
            ',' if !in_quotes => {
                if !current.is_empty() {
                    pairs.push(std::mem::take(&mut current));
                }
            }
            _ => current.push(c),
        }
    }
    if !current.is_empty() {
        pairs.push(current);
    }
    pairs
}

/// Structurally validates a text exposition (see the module docs).
///
/// # Errors
/// The first violation found, as a human-readable message.
#[allow(clippy::too_many_lines)]
pub fn validate_exposition(text: &str) -> Result<(), String> {
    // Per (family, non-le labels): the bucket series in appearance order.
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut sums: BTreeSet<(String, String)> = BTreeSet::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut histogram_families: BTreeSet<String> = BTreeSet::new();

    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    return Err(format!("malformed TYPE line {line:?}"));
                };
                if kind == "histogram" {
                    histogram_families.insert(name.to_string());
                }
            }
            continue;
        }
        let (name, mut labels, value) = parse_sample(line)?;
        if let Some(family) = name.strip_suffix("_bucket") {
            if histogram_families.contains(family) {
                let Some(le) = labels.remove("le") else {
                    return Err(format!("bucket without le label: {line:?}"));
                };
                let le: f64 = match le.as_str() {
                    "+Inf" => f64::INFINITY,
                    other => other
                        .parse()
                        .map_err(|_| format!("unparseable le {other:?} on {line:?}"))?,
                };
                let key = (family.to_string(), format!("{labels:?}"));
                buckets.entry(key).or_default().push((le, value));
                continue;
            }
        }
        if let Some(family) = name.strip_suffix("_sum") {
            if histogram_families.contains(family) {
                sums.insert((family.to_string(), format!("{labels:?}")));
                continue;
            }
        }
        if let Some(family) = name.strip_suffix("_count") {
            if histogram_families.contains(family) {
                counts.insert((family.to_string(), format!("{labels:?}")), value);
            }
        }
    }

    for family in &histogram_families {
        if !buckets.keys().any(|(f, _)| f == family) {
            return Err(format!("histogram {family} declared but has no buckets"));
        }
    }
    for ((family, labels), series) in &buckets {
        let mut last_le = f64::NEG_INFINITY;
        let mut last_count = f64::NEG_INFINITY;
        for &(le, count) in series {
            if le <= last_le {
                return Err(format!(
                    "histogram {family}{labels}: le buckets not strictly increasing"
                ));
            }
            if count < last_count {
                return Err(format!(
                    "histogram {family}{labels}: bucket counts not cumulative"
                ));
            }
            last_le = le;
            last_count = count;
        }
        if last_le.is_finite() {
            return Err(format!(
                "histogram {family}{labels}: bucket series does not end at +Inf"
            ));
        }
        let key = (family.clone(), labels.clone());
        if !sums.contains(&key) {
            return Err(format!("histogram {family}{labels}: missing _sum"));
        }
        let Some(&count) = counts.get(&key) else {
            return Err(format!("histogram {family}{labels}: missing _count"));
        };
        if (count - last_count).abs() > f64::EPSILON * count.max(1.0) {
            return Err(format!(
                "histogram {family}{labels}: _count {count} != +Inf bucket {last_count}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_validates_a_full_document() {
        let h = Histogram::new();
        for v in [1_000u64, 2_000, 1_000_000, 50_000_000] {
            h.record(v);
        }
        let empty = Histogram::new();
        let mut doc = PromText::new();
        doc.counter(
            "http_requests_total",
            "Requests.",
            &[("route", "labels")],
            7,
        );
        doc.counter(
            "http_requests_total",
            "Requests.",
            &[("route", "metrics")],
            3,
        );
        doc.gauge("queue_depth", "Queued commands.", &[], 4.0);
        doc.histogram_ns("request_seconds", "Latency.", &[("route", "labels")], &h);
        doc.histogram_ns("request_seconds", "Latency.", &[("route", "empty")], &empty);
        let iterations = Histogram::new();
        for v in [3u64, 100, 100] {
            iterations.record(v);
        }
        doc.histogram("rebuild_iterations", "Iterations.", &[], &iterations);
        let text = doc.render();
        assert_eq!(
            text.matches("# TYPE http_requests_total counter").count(),
            1,
            "family declared once:\n{text}"
        );
        assert!(text.contains("request_seconds_count{route=\"labels\"} 4"));
        assert!(text.contains("request_seconds_bucket{route=\"empty\",le=\"+Inf\"} 0"));
        // Plain counts keep their unit: no nanosecond scaling.
        assert!(
            text.contains("rebuild_iterations_bucket{le=\"3\"} 1"),
            "{text}"
        );
        assert!(text.contains("rebuild_iterations_sum 203"));
        validate_exposition(&text).expect("well-formed");
    }

    #[test]
    fn validator_rejects_structural_breakage() {
        for (bad, why) in [
            (
                "# TYPE h histogram\nh_bucket{le=\"0.1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
                "missing _sum",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"0.1\"} 2\nh_sum 1\nh_count 2\n",
                "end at +Inf",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"0.2\"} 2\nh_bucket{le=\"0.1\"} 3\n\
                 h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
                "strictly increasing",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 3\n\
                 h_sum 1\nh_count 3\n",
                "cumulative",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
                "_count",
            ),
            ("oops no value\nx", "value"),
        ] {
            let err = validate_exposition(bad).expect_err(bad);
            assert!(err.contains(why), "{why:?} not in {err:?}");
        }
    }

    #[test]
    fn labels_with_commas_and_quotes_survive() {
        let text = "m{a=\"x,y\",b=\"q\\\"uote\"} 1\n";
        validate_exposition(text).expect("parses");
    }
}
