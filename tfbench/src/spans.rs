//! The benchmark's own span recorder. Spans wrap the benchmark's calls
//! into each layer's public functions; nothing is traced inside the
//! program. Spans stay in memory and are written out when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use tfhpc_obs::json;

struct Span {
    layer: &'static str,
    name: String,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    op: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

/// Span recorder; a no-op unless constructed with `on = true`.
pub struct Tracer {
    on: Cell<bool>,
    t0: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: Cell::new(on),
            t0: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn on(&self) -> bool {
        self.on.get()
    }

    /// Pause or resume recording.
    pub fn set_enabled(&self, on: bool) {
        self.on.set(on);
    }

    /// Run `f` inside a span of `layer`. A span opened while no other
    /// span is open starts a new operation; nested spans share its id.
    pub fn span<R>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.open.last().copied();
            let op = match parent {
                Some(p) => inner.spans[p].op,
                None => {
                    inner.ops += 1;
                    inner.ops
                }
            };
            let start_s = self.t0.elapsed().as_secs_f64();
            inner.spans.push(Span {
                layer,
                name: name.to_string(),
                start_s,
                end_s: f64::NAN,
                parent,
                op,
            });
            let idx = inner.spans.len() - 1;
            inner.open.push(idx);
            idx
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        inner.spans[idx].end_s = self.t0.elapsed().as_secs_f64();
        inner.open.pop();
        out
    }

    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Self time per layer: each span's duration minus the part its
    /// child spans cover (children of one span never overlap: the
    /// driver is single-threaded).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let inner = self.inner.borrow();
        let mut child_time = vec![0.0; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end_s - s.start_s;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in inner.spans.iter().zip(child_time) {
            *out.entry(s.layer).or_insert(0.0) += (s.end_s - s.start_s) - c;
        }
        out
    }

    /// All spans as a JSON array: name, layer, start, end (seconds
    /// since the recorder was created), parent index and operation id.
    pub fn to_json(&self) -> String {
        let inner = self.inner.borrow();
        let rows: Vec<String> = inner
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"name\":{},\"layer\":{},\"start_s\":{},\"end_s\":{},\"parent\":{},\"op\":{}}}",
                    json::escape(&s.name),
                    json::escape(s.layer),
                    json::number(s.start_s),
                    json::number(s.end_s),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.op
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
