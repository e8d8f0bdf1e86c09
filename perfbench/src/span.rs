//! In-memory span tracer for the traced run.
//!
//! Each call the benchmark makes into a layer is one span: name, layer,
//! start, end, parent and run id. Spans stay in memory until the process
//! writes them out at exit; self time is a span's duration minus that of
//! its direct children.

use std::collections::BTreeMap;
use std::time::Instant;

use tlbdown_sweep::Json;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `Machine::new`.
    pub name: &'static str,
    /// The crate (layer) the call goes into.
    pub layer: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which op of the run the span belongs to.
    pub run: u64,
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Spans {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tag spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Time `f` as a span of `layer`, nested under any open span; `f`
    /// gets the tracer back so it can open child spans.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in seconds: each span's duration minus its
    /// direct children's. A span a panic left open counts as empty.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = dur(s).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans and the per-layer self-time summary as one document.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("name", Json::Str(s.name.into()))
                    .with("layer", Json::Str(s.layer.into()))
                    .with("start_ns", Json::U64(s.start_ns))
                    .with("end_ns", Json::U64(s.end_ns))
                    .with(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    )
                    .with("run", Json::U64(s.run))
            })
            .collect();
        let self_s = self
            .self_time_by_layer()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::F64(v)))
            .collect();
        Json::obj()
            .with("self_s_by_layer", Json::Obj(self_s))
            .with("spans", Json::Arr(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Spans::new(true);
        t.span("kernel", "outer", |t| {
            t.span("tlb", "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let by = t.self_time_by_layer();
        assert!(by["tlb"] >= 0.005);
        assert!(by["kernel"] < by["tlb"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Spans::new(false);
        assert_eq!(t.span("sim", "x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
