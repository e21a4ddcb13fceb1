//! In-memory span recording for the traced replays.
//!
//! A span is `{req, name, start_ns, end_ns, parent}`: the replay opens
//! one around each call it makes into a layer, so spans nest exactly as
//! the calls do. A layer's *self* time is its span's duration minus the
//! time its child spans cover; summed over every span that equals the
//! time covered by root spans, and whatever the replay spent outside
//! any root span is reported as `unattributed` — so self times plus
//! `unattributed` add up to the traced end-to-end time by construction.
//! Spans stay in memory and are written as JSONL once the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The replayed request this call served (0 = set-up work).
    pub req: u64,
    /// The layer, e.g. `rrset.gen`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records spans for one single-threaded replay.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    req: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// The id of a span a disabled tracer did not record.
const UNRECORDED: usize = usize::MAX;

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            req: Cell::new(0),
        }
    }

    /// A tracer that records nothing: the untraced replay the tracing
    /// overhead is measured against.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tags every span opened from now on with request id `req`.
    pub fn set_request(&self, req: u64) {
        self.req.set(req);
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                idx: UNRECORDED,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        spans.push(Span {
            req: self.req.get(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.borrow().last().copied(),
        });
        self.open.borrow_mut().push(idx);
        SpanGuard { tracer: self, idx }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    /// Renames span `root` and every span nested inside it.
    pub fn rename_subtree(&self, root: usize, name: &'static str) {
        if root == UNRECORDED {
            return;
        }
        let mut spans = self.spans.borrow_mut();
        let mut inside = vec![false; spans.len()];
        for i in root..spans.len() {
            let nested = i == root || spans[i].parent.is_some_and(|p| p >= root && inside[p]);
            if nested {
                inside[i] = true;
                spans[i].name = name;
            }
        }
    }

    /// Self time (ns) and span count per layer name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans.borrow();
        let mut child = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(*c);
            e.1 += 1;
        }
        out
    }

    /// Time (ns) covered by root spans.
    pub fn rooted_ns(&self) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let mut w = uic_util::JsonWriter::new();
            w.begin_object();
            w.key("req");
            w.u64(s.req);
            w.key("name");
            w.string(s.name);
            w.key("start_ns");
            w.u64(s.start_ns);
            w.key("end_ns");
            w.u64(s.end_ns);
            w.key("parent");
            match s.parent {
                Some(p) => w.u64(p as u64),
                None => w.null(),
            }
            w.end_object();
            writeln!(out, "{}", w.finish())?;
        }
        out.flush()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    idx: usize,
}

impl SpanGuard<'_> {
    /// The span's index (for [`Tracer::rename_subtree`]).
    pub fn id(&self) -> usize {
        self.idx
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.idx == UNRECORDED {
            return;
        }
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.idx].end_ns = end;
        let popped = self.tracer.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.idx), "spans close in LIFO order");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_times_and_unattributed_sum_to_the_traced_time() {
        let tr = Tracer::new();
        let start = tr.now_ns();
        {
            let _req = tr.span("request");
            spin(20_000);
            tr.time("child", || spin(50_000));
            let inner = tr.span("other");
            let id = inner.id();
            tr.time("grandchild", || spin(10_000));
            drop(inner);
            tr.rename_subtree(id, "discarded");
        }
        spin(5_000);
        let e2e = tr.now_ns() - start;
        let selfs = tr.self_times();
        assert!(selfs.contains_key("discarded") && !selfs.contains_key("grandchild"));
        assert_eq!(selfs["discarded"].1, 2, "the subtree was renamed");
        let attributed: u64 = selfs.values().map(|(ns, _)| ns).sum();
        assert_eq!(attributed, tr.rooted_ns());
        assert!(tr.rooted_ns() <= e2e);
        assert!(selfs["child"].0 >= 50_000);
    }
}
