//! Spans taken at the public trait boundaries of the workspace.
//!
//! [`Traced`] wraps one component — a `GradientEstimator`, `Aggregator`,
//! `Attack` or `GradientCodec` — implements the same public trait, forwards
//! every method explicitly to the wrapped value, and records a span around
//! the calls that do work. The harness opens a `dist.step` span around each
//! `RoundEngine::step`; every component call inside it becomes a child, so
//! the step's self time is what the engine does between component calls
//! (SGD step, record, drift, quorum bookkeeping) and the self times of one
//! step add up to the step exactly.
//!
//! Spans stay in memory, in fixed-size chunks so that recording never moves
//! earlier spans inside a timed interval, until the run ends.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use krum_attacks::{Attack, AttackContext, AttackError, AttackTiming, RoundFeedback};
use krum_compress::{CodecError, GradientCodec};
use krum_core::{Aggregation, AggregationContext, AggregationError, Aggregator};
use krum_models::{GradientEstimator, ModelError};
use krum_tensor::Vector;

/// Spans per storage chunk.
const CHUNK: usize = 1 << 14;

/// One recorded interval. Times are nanoseconds since the recorder's epoch;
/// `parent` indexes the enclosing span of the same recorder; `items` is a
/// count taken at the same boundary (proposals aggregated, frames, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub round: usize,
    pub items: usize,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug, Default)]
struct Store {
    chunks: Vec<Vec<Span>>,
    len: usize,
    open: Vec<usize>,
    round: usize,
}

impl Store {
    fn get_mut(&mut self, id: usize) -> &mut Span {
        &mut self.chunks[id / CHUNK][id % CHUNK]
    }
}

/// Collects spans from every wrapped component of one pass.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    store: Mutex<Store>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            store: Mutex::new(Store::default()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store
            .lock()
            .expect("a span recorder is never held across a panic")
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with `round`.
    pub fn set_round(&self, round: usize) {
        self.lock().round = round;
    }

    /// Runs `work` inside a span named `name` carrying the count `items`.
    pub fn span<T>(&self, name: &'static str, items: usize, work: impl FnOnce() -> T) -> T {
        let id = {
            let mut store = self.lock();
            let id = store.len;
            let span = Span {
                name,
                start: 0,
                end: 0,
                parent: store.open.last().copied(),
                round: store.round,
                items,
            };
            match store.chunks.last_mut() {
                Some(chunk) if chunk.len() < CHUNK => chunk.push(span),
                _ => {
                    let mut chunk = Vec::with_capacity(CHUNK);
                    chunk.push(span);
                    store.chunks.push(chunk);
                }
            }
            store.len += 1;
            store.open.push(id);
            store.get_mut(id).start = self.now();
            id
        };
        let out = work();
        let mut store = self.lock();
        let end = self.now();
        store.get_mut(id).end = end;
        store.open.pop();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().chunks.iter().flatten().copied().collect()
    }
}

/// Self time of each span: its duration minus the durations of its direct
/// children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.nanos());
        }
    }
    own
}

/// Writes `spans` as JSON lines tagged with the pass that recorded them.
pub fn write_spans(out: &mut impl Write, pass: &str, spans: &[Span]) -> io::Result<()> {
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"pass":"{pass}","name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"round":{},"items":{}}}"#,
            span.name, span.start, span.end, span.round, span.items
        )?;
    }
    Ok(())
}

/// A component wrapped so that its work is recorded as spans.
pub struct Traced<T: ?Sized> {
    recorder: Arc<Recorder>,
    inner: Box<T>,
}

impl<T: ?Sized> Traced<T> {
    pub fn new(inner: Box<T>, recorder: &Arc<Recorder>) -> Self {
        Self {
            recorder: Arc::clone(recorder),
            inner,
        }
    }
}

impl GradientEstimator for Traced<dyn GradientEstimator> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn estimate(&self, params: &Vector, rng: &mut dyn rand::RngCore) -> Result<Vector, ModelError> {
        self.recorder
            .span("models.estimate", 1, || self.inner.estimate(params, rng))
    }

    fn true_gradient(&self, params: &Vector) -> Option<Vector> {
        self.recorder
            .span("models.probe", 1, || self.inner.true_gradient(params))
    }

    fn loss(&self, params: &Vector) -> Option<f64> {
        self.recorder
            .span("models.probe", 1, || self.inner.loss(params))
    }
}

impl Aggregator for Traced<dyn Aggregator> {
    fn aggregate_detailed(&self, proposals: &[Vector]) -> Result<Aggregation, AggregationError> {
        self.recorder.span("core.aggregate", proposals.len(), || {
            self.inner.aggregate_detailed(proposals)
        })
    }

    fn aggregate_in(
        &self,
        ctx: &mut AggregationContext,
        proposals: &[Vector],
    ) -> Result<(), AggregationError> {
        self.recorder.span("core.aggregate", proposals.len(), || {
            self.inner.aggregate_in(ctx, proposals)
        })
    }

    fn aggregate(&self, proposals: &[Vector]) -> Result<Vector, AggregationError> {
        self.recorder.span("core.aggregate", proposals.len(), || {
            self.inner.aggregate(proposals)
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn is_selection_rule(&self) -> bool {
        self.inner.is_selection_rule()
    }
}

impl Attack for Traced<dyn Attack> {
    fn forge(
        &self,
        ctx: &AttackContext<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Vec<Vector>, AttackError> {
        self.recorder
            .span("attacks.forge", ctx.byzantine_count, || {
                self.inner.forge(ctx, rng)
            })
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn timing(&self) -> AttackTiming {
        self.inner.timing()
    }

    fn observe(&mut self, feedback: &RoundFeedback) {
        self.inner.observe(feedback);
    }

    fn stateful(&self) -> bool {
        self.inner.stateful()
    }
}

impl std::fmt::Debug for Traced<dyn GradientCodec> {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        out.debug_tuple("Traced").field(&self.inner).finish()
    }
}

/// `transform` and `transform_params` keep the trait's definitions, which
/// are the encode → decode round trip through `self`: the engine's in-memory
/// quantization is therefore recorded as its encode and decode halves.
impl GradientCodec for Traced<dyn GradientCodec> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn encode(&self, x: &[f64], reference: &[f64]) -> Vec<u8> {
        self.recorder
            .span("compress.encode", 1, || self.inner.encode(x, reference))
    }

    fn decode(&self, bytes: &[u8], reference: &[f64], dim: usize) -> Result<Vec<f64>, CodecError> {
        self.recorder.span("compress.decode", 1, || {
            self.inner.decode(bytes, reference, dim)
        })
    }

    fn encode_params(&self, x: &[f64]) -> Vec<u8> {
        self.recorder
            .span("compress.encode", 1, || self.inner.encode_params(x))
    }

    fn decode_params(&self, bytes: &[u8], dim: usize) -> Result<Vec<f64>, CodecError> {
        self.recorder.span("compress.decode", 1, || {
            self.inner.decode_params(bytes, dim)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krum_attacks::AttackSpec;
    use krum_core::RuleSpec;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            round: 0,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("dist.step", 0, 100, None),
            span("models.estimate", 10, 30, Some(0)),
            span("core.aggregate", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // The self times of one tree add up to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), spans[0].nanos());
    }

    #[test]
    fn recorder_nests_spans_and_tags_rounds() {
        let recorder = Recorder::new();
        recorder.set_round(7);
        let out = recorder.span("dist.step", 0, || {
            recorder.span("models.estimate", 1, || ());
            recorder.span("core.aggregate", 40, || 5)
        });
        assert_eq!(out, 5);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].items, 40);
        assert!(spans.iter().all(|s| s.round == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[2].end <= spans[0].end);
        let mut lines = Vec::new();
        write_spans(&mut lines, "inproc", &spans).unwrap();
        let text = String::from_utf8(lines).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with(r#"{"pass":"inproc","name":"dist.step""#));
        assert!(text.contains(r#""parent":0,"round":7,"items":40}"#));
    }

    #[test]
    fn decorators_forward_the_component_identity_unchanged() {
        let recorder = Recorder::new();
        for rule in [RuleSpec::Krum, RuleSpec::Average, RuleSpec::Median] {
            let plain = rule.build(9, 2).unwrap();
            let traced = Traced::new(rule.build(9, 2).unwrap(), &recorder);
            assert_eq!(traced.name(), plain.name());
            assert_eq!(traced.is_selection_rule(), plain.is_selection_rule());
        }
        let specs = [
            "sign-flip:scale=3",
            "straggler:scale=3",
            "last-to-respond:scale=3",
            "inlier-drift:sigma=1,target=neg",
        ];
        for spec in specs {
            let spec: AttackSpec = spec.parse().unwrap();
            let plain = spec.build(4).unwrap();
            let traced = Traced::new(spec.build(4).unwrap(), &recorder);
            assert_eq!(traced.name(), plain.name());
            assert_eq!(traced.timing(), plain.timing());
            assert_eq!(traced.stateful(), plain.stateful());
        }
        let codec = krum_compress::CompressionSpec::Bfp {
            block: 64,
            bits: 12,
        };
        let traced = Traced::new(codec.build(), &recorder);
        assert_eq!(traced.name(), codec.build().name());
        // The default transform runs through the traced encode and decode.
        let mut x = vec![0.3; 100];
        traced.transform(&mut x, &[]);
        let names: Vec<_> = recorder.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["compress.encode", "compress.decode"]);
    }
}
