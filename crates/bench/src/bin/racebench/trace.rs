//! Spans around each layer call, the JSONL op-log they are written to, and
//! the fold from spans to per-layer self time and counts.
//!
//! Spans are recorded from the benchmark's side of each public call, kept
//! in memory while the workload runs and written out once at exit, so
//! tracing adds two clock reads per layer call and no I/O to the timed
//! ops. One op-log line per span, in the shape of an s3-bench op-log row:
//! op id, span id and parent, name (the layer), start/end/duration in ns,
//! bytes and error, plus the span's work counters.

use std::collections::BTreeMap;
use std::time::Instant;

use minijson::Json;

/// Id of the root span every op carries; layer spans hang off it.
pub const ROOT: u32 = 0;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub workload: String,
    pub op: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
    pub error: Option<String>,
    /// Work counters measured at this span, by full metric name.
    pub counts: Vec<(String, u64)>,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The op-log line for this span.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counts = self.counts.iter().map(|(k, v)| (k.as_str(), Json::from(*v))).collect();
        Json::obj(vec![
            ("workload", Json::str(self.workload.as_str())),
            ("op", Json::from(self.op)),
            ("span", Json::from(u64::from(self.id))),
            ("name", Json::str(self.name.as_str())),
            ("parent", self.parent.map_or(Json::Null, |p| Json::from(u64::from(p)))),
            ("start_ns", Json::from(self.start_ns)),
            ("end_ns", Json::from(self.end_ns)),
            ("duration_ns", Json::from(self.duration_ns())),
            ("bytes", Json::from(self.bytes)),
            ("error", self.error.as_deref().map_or(Json::Null, Json::str)),
            ("counts", Json::obj(counts)),
        ])
    }

    /// Parses one op-log line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(line: &str) -> Result<Span, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let num = |key: &str| doc.field(key)?.as_u64().ok_or_else(|| format!("{key}: not a count"));
        let text = |key: &str| {
            doc.field(key)?.as_str().map(String::from).ok_or_else(|| format!("{key}: not a string"))
        };
        let counts = doc
            .field("counts")?
            .as_obj()
            .ok_or("counts: not an object")?
            .iter()
            .map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)).ok_or(format!("counts.{k}")))
            .collect::<Result<_, _>>()?;
        let parent = match doc.field("parent")? {
            Json::Null => None,
            p => Some(
                u32::try_from(p.as_u64().ok_or("parent: not an id")?).map_err(|e| e.to_string())?,
            ),
        };
        Ok(Span {
            workload: text("workload")?,
            op: num("op")?,
            id: u32::try_from(num("span")?).map_err(|e| e.to_string())?,
            parent,
            name: text("name")?,
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
            bytes: num("bytes")?,
            error: doc.field("error")?.as_str().map(String::from),
            counts,
        })
    }
}

/// The spans of one op under construction. With tracing off every method
/// is a pass-through, so untraced ops pay nothing.
pub struct OpTrace<'a> {
    on: bool,
    origin: Instant,
    workload: &'a str,
    op: u64,
    spans: Vec<Span>,
}

impl<'a> OpTrace<'a> {
    #[must_use]
    pub fn new(on: bool, origin: Instant, workload: &'a str, op: u64) -> Self {
        OpTrace { on, origin, workload, op, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs one layer call inside a span named after the layer.
    pub fn time<T>(&mut self, name: &str, call: impl FnOnce() -> T) -> T {
        if !self.on {
            return call();
        }
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        let id = u32::try_from(self.spans.len() + 1).expect("fewer than 2^32 spans per op");
        self.spans.push(Span {
            workload: self.workload.to_string(),
            op: self.op,
            id,
            parent: Some(ROOT),
            name: name.to_string(),
            start_ns,
            end_ns,
            bytes: 0,
            error: None,
            counts: Vec::new(),
        });
        out
    }

    /// Attaches bytes moved and work counters to the span closed last.
    pub fn note(&mut self, bytes: usize, counts: &[(&str, u64)]) {
        if let Some(span) = self.spans.last_mut() {
            span.bytes += bytes as u64;
            span.counts.extend(counts.iter().map(|(k, v)| ((*k).to_string(), *v)));
        }
    }

    /// Closes the op: adds its root span (the op's own wall time, as the
    /// harness measured it) and returns every span of the op.
    #[must_use]
    pub fn finish(mut self, start: Instant, end: Instant, error: Option<String>) -> Vec<Span> {
        if !self.on {
            return Vec::new();
        }
        let ns = |t: Instant| u64::try_from((t - self.origin).as_nanos()).unwrap_or(u64::MAX);
        self.spans.insert(
            0,
            Span {
                workload: self.workload.to_string(),
                op: self.op,
                id: ROOT,
                parent: None,
                name: "op".into(),
                start_ns: ns(start),
                end_ns: ns(end),
                bytes: 0,
                error,
                counts: Vec::new(),
            },
        );
        self.spans
    }
}

/// Spans of one workload folded into per-layer totals.
#[derive(Debug, Default)]
pub struct Fold {
    /// Ops (root spans) folded.
    pub ops: u64,
    /// Summed root-span wall time.
    pub op_ns: u64,
    /// The part of `op_ns` no layer span covers.
    pub uncovered_ns: u64,
    /// Layer name → (spans, summed self time).
    pub layers: BTreeMap<String, (u64, u64)>,
    /// Counter name → summed value.
    pub counts: BTreeMap<String, u64>,
}

impl Fold {
    /// Share of op wall time that layer spans cover.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        1.0 - self.uncovered_ns as f64 / self.op_ns as f64
    }

    /// Mean self time per op of `layer`, in ms.
    #[must_use]
    pub fn self_ms_per_op(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |&(_, ns)| ns as f64 / 1e6 / self.ops.max(1) as f64)
    }

    /// Mean value per op of counter `name`.
    #[must_use]
    pub fn count_per_op(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0.0, |&v| v as f64 / self.ops.max(1) as f64)
    }
}

/// Length of the part of `[start, end)` that `children` cover.
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Folds spans into per-layer self time (span minus the part of it its
/// children cover) and counts. Spans are grouped by (workload, op).
#[must_use]
pub fn fold(spans: &[Span]) -> BTreeMap<String, Fold> {
    let mut by_op: BTreeMap<(&str, u64), Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_op.entry((span.workload.as_str(), span.op)).or_default().push(span);
    }
    let mut folds: BTreeMap<String, Fold> = BTreeMap::new();
    for ((workload, _), op_spans) in by_op {
        let fold = folds.entry(workload.to_string()).or_default();
        for span in &op_spans {
            let mut children: Vec<(u64, u64)> = op_spans
                .iter()
                .filter(|c| c.parent == Some(span.id))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            let self_ns =
                span.duration_ns() - covered_ns(span.start_ns, span.end_ns, &mut children);
            let layer = fold.layers.entry(span.name.clone()).or_default();
            layer.0 += 1;
            layer.1 += self_ns;
            if span.parent.is_none() {
                fold.ops += 1;
                fold.op_ns += span.duration_ns();
                fold.uncovered_ns += self_ns;
            }
            for (name, value) in &span.counts {
                *fold.counts.entry(name.clone()).or_default() += value;
            }
        }
    }
    folds
}

/// Checks that every span lies inside its parent and that every parent
/// exists. Returns the first violation.
///
/// # Errors
///
/// Names the op and span that break nesting.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut index: BTreeMap<(&str, u64, u32), &Span> = BTreeMap::new();
    for span in spans {
        index.insert((span.workload.as_str(), span.op, span.id), span);
    }
    for span in spans {
        let Some(parent_id) = span.parent else { continue };
        let parent = index.get(&(span.workload.as_str(), span.op, parent_id)).ok_or_else(|| {
            format!("{} op {} span {}: no parent {parent_id}", span.workload, span.op, span.id)
        })?;
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            return Err(format!(
                "{} op {} span {} ({}) [{}, {}] escapes parent {} [{}, {}]",
                span.workload,
                span.op,
                span.id,
                span.name,
                span.start_ns,
                span.end_ns,
                parent.id,
                parent.start_ns,
                parent.end_ns
            ));
        }
    }
    Ok(())
}

/// Workloads whose op is a chain of in-process layer calls: there the
/// layer spans must account for nearly all of the op's wall time.
pub const COVERED_WORKLOADS: &[&str] = &["browser-oneshot", "corpus-triage"];

/// Minimum share of op wall time the layer spans must cover on
/// [`COVERED_WORKLOADS`].
pub const MIN_COVERAGE: f64 = 0.95;

/// `racebench trace-summary PATH`: folds an op-log into a per-layer table.
///
/// # Errors
///
/// Fails on unreadable or malformed logs, broken span nesting, or layer
/// coverage below [`MIN_COVERAGE`] on a [`COVERED_WORKLOADS`] workload.
pub fn summary(path: &std::path::Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let spans = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Span::from_json(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    check_nesting(&spans)?;
    let mut out = String::new();
    let mut low = Vec::new();
    for (workload, fold) in fold(&spans) {
        let op_ms = fold.op_ns as f64 / 1e6 / fold.ops.max(1) as f64;
        out.push_str(&format!(
            "{workload}: {} ops, {op_ms:.3} ms per op, layer spans cover {:.1}%\n",
            fold.ops,
            fold.coverage() * 100.0
        ));
        out.push_str(&format!(
            "  {:<28} {:>8} {:>12} {:>7}\n",
            "layer", "spans", "self ms/op", "share"
        ));
        for (layer, (count, _)) in &fold.layers {
            let ms = fold.self_ms_per_op(layer);
            out.push_str(&format!(
                "  {layer:<28} {count:>8} {ms:>12.3} {:>6.1}%\n",
                ms / op_ms.max(f64::MIN_POSITIVE) * 100.0
            ));
        }
        for name in fold.counts.keys() {
            out.push_str(&format!("  {name:<44} {:>14.1} per op\n", fold.count_per_op(name)));
        }
        if COVERED_WORKLOADS.contains(&workload.as_str()) && fold.coverage() < MIN_COVERAGE {
            low.push(format!("{workload} ({:.1}%)", fold.coverage() * 100.0));
        }
    }
    if low.is_empty() {
        Ok(out)
    } else {
        Err(format!(
            "{out}layer spans cover less than {:.0}% of op time: {}",
            MIN_COVERAGE * 100.0,
            low.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            workload: "w".into(),
            op: 1,
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            bytes: 0,
            error: None,
            counts: vec![("c".into(), 2)],
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [span(0, None, 0, 100), span(1, Some(0), 10, 40), span(2, Some(0), 30, 60)];
        let folds = fold(&spans);
        let f = &folds["w"];
        assert_eq!(f.layers["s0"].1, 50, "children cover [10, 60)");
        assert_eq!(f.layers["s1"].1, 30);
        assert_eq!(f.counts["c"], 6);
        assert!((f.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn op_log_lines_round_trip_and_nesting_is_checked() {
        let mut spans = vec![span(0, None, 0, 100), span(1, Some(0), 10, 40)];
        spans[1].error = Some("boom".into());
        for s in &spans {
            assert_eq!(&Span::from_json(&s.to_json().to_string_compact()).unwrap(), s);
        }
        assert!(check_nesting(&spans).is_ok());
        spans.push(span(2, Some(0), 90, 120));
        assert!(check_nesting(&spans).unwrap_err().contains("escapes parent"));
    }
}
