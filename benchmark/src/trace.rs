//! In-memory spans and counts for the traced rep.
//!
//! The benchmark records a span around each call it makes into a layer
//! of the program: name, start, end and the span that was open when it
//! began. Calls made millions of times a run (one protocol step) are
//! not kept one by one; they are folded into one *aggregate* span per
//! layer that carries the call count and the summed busy time. Counts
//! are recorded at the same boundaries. Everything stays in memory and
//! is written as one JSON file when the workload ends.

use std::time::Instant;

use gridagg_core::json::Json;

/// One recorded span. Times are seconds since the trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`, the layer being the workspace module called into.
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// When the (first) call began.
    pub start_s: f64,
    /// When the (last) call returned.
    pub end_s: f64,
    /// Time inside the call(s): `end − start` for a plain span, the
    /// summed call durations for an aggregate one.
    pub busy_s: f64,
    /// Calls folded into this span (1 for a plain span).
    pub calls: u64,
}

/// Handle of an open span, returned by [`Trace::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// The recorder.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(String, f64)>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn on() -> Self {
        Trace::with(true)
    }

    /// A recorder that records nothing: what untraced reps are handed,
    /// so the code under measurement is the same with tracing off.
    pub fn off() -> Self {
        Trace::with(false)
    }

    fn with(on: bool) -> Self {
        Trace {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_s: now,
            end_s: now,
            busy_s: 0.0,
            calls: 1,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id` (and any span still open inside it); returns its
    /// duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        if !self.on {
            return 0.0;
        }
        let now = self.now();
        while let Some(top) = self.open.pop() {
            let span = &mut self.spans[top];
            span.end_s = now;
            span.busy_s = now - span.start_s;
            if top == id.0 {
                break;
            }
        }
        self.spans[id.0].busy_s
    }

    /// Record `calls` calls totalling `busy_s` seconds that happened
    /// inside span `parent`, as one aggregate span with its extent.
    pub fn aggregate(&mut self, name: &str, parent: SpanId, busy_s: f64, calls: u64) {
        if !self.on {
            return;
        }
        let (start_s, end_s) = (self.spans[parent.0].start_s, self.spans[parent.0].end_s);
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent.0),
            start_s,
            end_s,
            busy_s,
            calls,
        });
    }

    /// Record a count.
    pub fn count(&mut self, name: &str, value: f64) {
        if !self.on {
            return;
        }
        self.counts.push((name.to_string(), value));
    }

    /// Summed busy time of every span called `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_s)
            .sum()
    }

    /// The recorded spans, in the order they began.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The whole trace as JSON: `{workload, seed, spans: [{id, name,
    /// parent, start_s, end_s, busy_s, calls}], counts: {name: value}}`.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(id as f64)),
                    ("name".into(), Json::Str(s.name.clone())),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_s".into(), Json::Num(s.start_s)),
                    ("end_s".into(), Json::Num(s.end_s)),
                    ("busy_s".into(), Json::Num(s.busy_s)),
                    ("calls".into(), Json::Num(s.calls as f64)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.to_string())),
            ("seed".into(), Json::Num(seed as f64)),
            ("spans".into(), Json::Arr(spans)),
            ("counts".into(), Json::Obj(counts)),
        ])
    }
}
