//! The replay's instrumented arenas: [`WarmArena`] implementations that
//! time each call the certification loop makes, from outside the
//! program, so no code under `crates/` carries tracing.

use crate::trace::Tracer;
use std::cell::{Cell, RefCell};
use uic_graph::{Graph, NodeId};
use uic_im::rrset::StandardScratch;
use uic_im::{NodeSelectionResult, RrCollection, RrSampler, StandardRrSampler, WarmArena};

/// Wraps a real arena and opens an `im.prepare`, `im.select` or
/// `im.estimate` span around each call [`uic_im::warm_prima_on`] makes.
/// Remembers the span of the last `prepare` and `select`, which are the
/// final phase of the warm certification loop.
pub struct TracedArena<'t, A> {
    inner: A,
    tracer: &'t Tracer,
    last_prepare: Cell<Option<usize>>,
    last_select: Cell<Option<usize>>,
}

impl<'t, A: WarmArena> TracedArena<'t, A> {
    /// Traces calls into `inner`.
    pub fn new(inner: A, tracer: &'t Tracer) -> Self {
        TracedArena {
            inner,
            tracer,
            last_prepare: Cell::new(None),
            last_select: Cell::new(None),
        }
    }

    /// The wrapped arena.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Span ids of the last `prepare` and `select` calls.
    pub fn last_spans(&self) -> (Option<usize>, Option<usize>) {
        (self.last_prepare.get(), self.last_select.get())
    }
}

impl<A: WarmArena> WarmArena for TracedArena<'_, A> {
    type Error = A::Error;

    fn prepare(&self, g: &Graph, target: usize) -> Result<(), A::Error> {
        let span = self.tracer.span("im.prepare");
        self.last_prepare.set(Some(span.id()));
        self.inner.prepare(g, target)
    }

    fn read<R>(&self, f: impl FnOnce(&RrCollection) -> R) -> R {
        let _span = self.tracer.span("im.estimate");
        self.inner.read(f)
    }

    fn select(&self, k: u32, num_sets: usize) -> NodeSelectionResult {
        let span = self.tracer.span("im.select");
        self.last_select.set(Some(span.id()));
        self.inner.select(k, num_sets)
    }
}

/// An exclusively owned arena, behaving exactly like
/// [`uic_im::ExclusiveArena`] but timing RR generation (`rrset.gen`) and
/// the inverted-index merge (`rrset.index`) separately, and remembering
/// how many sets it held when the last `prepare` began.
pub struct OwnedArena<'t> {
    coll: RefCell<RrCollection>,
    tracer: &'t Tracer,
    len_before_last_prepare: Cell<usize>,
}

impl<'t> OwnedArena<'t> {
    /// Owns `coll` (fresh, extend-only).
    pub fn new(coll: RrCollection, tracer: &'t Tracer) -> Self {
        OwnedArena {
            coll: RefCell::new(coll),
            tracer,
            len_before_last_prepare: Cell::new(0),
        }
    }

    /// Sets held when the last `prepare` began.
    pub fn len_before_last_prepare(&self) -> usize {
        self.len_before_last_prepare.get()
    }
}

impl WarmArena for OwnedArena<'_> {
    type Error = std::convert::Infallible;

    fn prepare(&self, g: &Graph, target: usize) -> Result<(), Self::Error> {
        let mut coll = self.coll.borrow_mut();
        self.len_before_last_prepare.set(coll.len());
        self.tracer.time("rrset.gen", || coll.extend_to(g, target));
        self.tracer.time("rrset.index", || coll.ensure_index());
        Ok(())
    }

    fn read<R>(&self, f: impl FnOnce(&RrCollection) -> R) -> R {
        f(&self.coll.borrow())
    }
}

/// The standard sampler's stream continued from sample `first`: what
/// `RrCollection::extend_to` draws after a `reset` of a collection that
/// had generated `first` sets. Lets the replay regenerate `prima`'s
/// final collection on a fresh arena.
pub struct ContinuedStream {
    inner: StandardRrSampler,
    first: u64,
}

impl ContinuedStream {
    /// Samples `first, first + 1, …` of `inner`'s stream.
    pub fn new(inner: StandardRrSampler, first: u64) -> Self {
        ContinuedStream { inner, first }
    }
}

impl RrSampler for ContinuedStream {
    type Scratch = StandardScratch;

    fn scratch(&self, g: &Graph) -> StandardScratch {
        self.inner.scratch(g)
    }

    fn sample_into(
        &self,
        g: &Graph,
        index: u64,
        scratch: &mut StandardScratch,
        arena: &mut Vec<NodeId>,
        width: &mut u64,
    ) {
        self.inner
            .sample_into(g, self.first + index, scratch, arena, width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uic_graph::{GraphBuilder, Weighting};
    use uic_im::DiffusionModel;

    fn star() -> Graph {
        let mut b = GraphBuilder::new(40);
        for leaf in 1..30u32 {
            b.add_edge(0, leaf, 0.5);
        }
        b.add_edge(30, 31, 0.5);
        b.build(Weighting::AsGiven, 0)
    }

    #[test]
    fn a_continued_stream_equals_the_stream_after_reset() {
        let g = star();
        let mut reset = RrCollection::new(&g, DiffusionModel::IC, 5);
        reset.extend_to(&g, 70);
        reset.reset();
        reset.extend_to(&g, 50);
        let mut fresh = RrCollection::new(&g, DiffusionModel::IC, 5);
        let stream = ContinuedStream::new(StandardRrSampler::new(DiffusionModel::IC, 5), 70);
        fresh.extend_with(&g, 50, &stream);
        assert_eq!(reset, fresh);
    }

    #[test]
    fn traced_owned_arena_matches_the_exclusive_arena() {
        let g = star();
        let tracer = Tracer::new();
        let owned = OwnedArena::new(RrCollection::new(&g, DiffusionModel::IC, 9), &tracer);
        let traced = TracedArena::new(owned, &tracer);
        let got = uic_im::warm_prima_on(&g, &traced, &[4, 2], 0.4, 1.0).unwrap();
        let mut coll = RrCollection::new(&g, DiffusionModel::IC, 9);
        let want = uic_im::warm_prima(&g, &mut coll, &[4, 2], 0.4, 1.0);
        assert_eq!(got.order, want.order);
        assert_eq!(got.rr_sets_final, want.rr_sets_final);
        let selfs = tracer.self_times();
        for layer in ["im.prepare", "im.select", "rrset.gen", "rrset.index"] {
            assert!(selfs.contains_key(layer), "{layer} traced");
        }
        assert!(traced.last_spans().0.is_some() && traced.last_spans().1.is_some());
    }
}
