//! Spans around the benchmark's own calls into each layer.
//!
//! A traced run wraps every operation in a root span and every call into a
//! crate's public functions in a leaf span under it. Spans stay in memory
//! and are written out once, when the run ends. A layer's self time is the
//! total of its spans' durations minus the time their children cover;
//! leaves have no children, so a leaf's self time is its duration and a
//! root's self time is the time no layer accounts for.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// The root span of one operation (request, program run or pass).
pub const ROOT: &str = "request";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`parse`, `vm_build`, ...).
    pub name: &'static str,
    /// The crate it belongs to, or [`ROOT`] for an operation.
    pub layer: &'static str,
    /// Operation id shared by all spans of one operation.
    pub req: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled it only times the calls, so
/// the untraced path runs the same code without keeping anything.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
}

impl Tracer {
    /// A recorder measuring from `epoch` (share one epoch between the
    /// recorders of one run so their spans line up).
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            root: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `req`; leaves recorded until
    /// [`Tracer::end`] become its children.
    pub fn begin(&mut self, req: u64) {
        if !self.enabled {
            return;
        }
        assert!(self.root.is_none(), "operation spans do not nest");
        let start_ns = self.now_ns();
        self.root = Some(self.spans.len());
        self.spans.push(Span {
            name: ROOT,
            layer: ROOT,
            req,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the open root span.
    pub fn end(&mut self) {
        if let Some(i) = self.root.take() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Times `f` as a call into `layer`, recording a leaf span when
    /// enabled.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        if self.enabled {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                layer,
                req,
                parent: self.root,
                start_ns,
                end_ns: start_ns + took.as_nanos() as u64,
            });
        }
        (out, took)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this recorder (parent indices are
    /// rebased).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time per layer, in nanoseconds, over the operations' span trees.
/// Spans outside any operation (parentless leaves) are not counted. The
/// [`ROOT`] entry is the time inside operations that no layer covers.
pub fn self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_some() || s.layer == ROOT {
            *out.entry(s.layer).or_insert(0) += s.ns().saturating_sub(child_ns[i]);
        }
    }
    out
}

/// Durations in milliseconds of every span called `name` in `layer`.
pub fn durations_ms(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

/// Writes one JSON object per span.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"req\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.layer, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            layer,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(ROOT, None, 0, 100),
            span("lang", Some(0), 0, 10),
            span("runtime", Some(0), 10, 70),
            span("lang", Some(0), 70, 75),
            // Outside any operation: not part of the per-layer totals.
            span("ir", None, 100, 140),
        ];
        let t = self_ns(&spans);
        assert_eq!(t[ROOT], 25);
        assert_eq!(t["lang"], 15);
        assert_eq!(t["runtime"], 60);
        assert!(!t.contains_key("ir"));
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.begin(1);
        let (v, took) = t.leaf("parse", "lang", 1, || 7);
        t.end();
        assert_eq!(v, 7);
        assert!(took <= Duration::from_secs(1));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn leaves_attach_to_the_open_operation() {
        let mut a = Tracer::new(true, Instant::now());
        a.leaf("reglower", "ir", 0, || ());
        a.begin(1);
        a.leaf("parse", "lang", 1, || ());
        a.end();
        let mut b = Tracer::new(true, Instant::now());
        b.begin(2);
        b.leaf("lower", "ir", 2, || ());
        b.end();
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[4].parent, Some(3));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
