//! Outside-in spans: the harness brackets every call it makes into a layer
//! with `begin`/`end`, keeps the spans in memory, and derives each layer's
//! self time as span duration minus the part its child spans cover.
//! End-to-end runs use a disabled tracer, which records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Span not tied to one arrival chunk (set-up, whole-pass isolation runs).
pub const NO_CHUNK: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The arrival chunk the call served; spans of one chunk share it.
    pub chunk: u32,
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is off.
#[must_use]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The repo module a span name belongs to: the prefix before the first
/// `.`, with the facade and client-side names folded into their layer.
pub fn layer_of(name: &str) -> &str {
    match name.split('.').next().unwrap_or(name) {
        "rumor" | "partition" => "core",
        "client" | "proto" | "frame" => "server",
        other => other,
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, chunk: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            chunk,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            chunk: NO_CHUNK,
        });
    }

    /// Per span name: `(total ns, self ns, calls)`.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += total;
            e.1 += total.saturating_sub(child);
            e.2 += 1;
        }
        out
    }

    /// Total seconds inside spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name().get(name).map_or(0.0, |t| t.0 as f64 * 1e-9)
    }

    /// Durations in seconds of every span called `name`, in call order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Self seconds per layer (see [`layer_of`]).
    pub fn layer_self_s(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, (_, self_ns, _)) in self.by_name() {
            *out.entry(layer_of(name).to_string()).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        out
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut s = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let chunk = if sp.chunk == NO_CHUNK {
                "null".to_string()
            } else {
                sp.chunk.to_string()
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"chunk\": {chunk}}}{sep}",
                sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new(true);
        tr.push_raw("bench.run", 0, 100, None);
        tr.push_raw("session.push_batch", 10, 60, Some(0));
        tr.push_raw("exec.push_batch", 20, 50, Some(1));
        tr.push_raw("session.collect", 60, 80, Some(0));
        let by = tr.by_name();
        assert_eq!(by["bench.run"], (100, 30, 1));
        assert_eq!(by["session.push_batch"], (50, 20, 1));
        assert_eq!(by["exec.push_batch"], (30, 30, 1));
        let layers = tr.layer_self_s();
        let total: f64 = layers.values().sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times partition the root"
        );
        assert!((layers["session"] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn nesting_follows_begin_end_order_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("bench.run", NO_CHUNK);
        let inner = tr.begin("client.flush", 7);
        tr.end(inner);
        tr.end(outer);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[1].chunk, 7);
        assert_eq!(layer_of("client.flush"), "server");
        assert_eq!(layer_of("rumor.optimize"), "core");
        assert!(tr.to_json("w").contains("\"chunk\": 7"));

        let mut off = Tracer::new(false);
        let id = off.begin("session.flush", 0);
        off.end(id);
        assert!(off.spans.is_empty());
    }
}
