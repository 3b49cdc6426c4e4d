//! In-memory host-time spans and the timing [`ClDriver`] proxy.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each layer's public functions; nothing inside the measured
//! crates is instrumented. A disabled [`Tracer`] runs every closure
//! directly, so the untraced path pays one branch per span.

use std::time::Instant;

use fluidicl_des::SimDuration;
use fluidicl_vcl::{BufferId, ClDriver, ClResult, KernelArg, NdRange};

/// The runtime a span ran on (driver spans), or `None` for spans outside
/// any runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// Not a driver call.
    None,
    /// `SingleDeviceRuntime` (`fluidicl-vcl`).
    Single,
    /// `StaticPartitionRuntime` (`fluidicl-baselines`).
    Static,
    /// `Fluidicl` (`fluidicl` core).
    Fluidicl,
}

impl Kind {
    /// Short label used in the span dump.
    pub fn label(self) -> &'static str {
        match self {
            Kind::None => "-",
            Kind::Single => "single",
            Kind::Static => "static",
            Kind::Fluidicl => "fluidicl",
        }
    }
}

/// One closed span of one application run.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the enclosing span in the same run's span list.
    pub parent: Option<usize>,
    /// Span name, e.g. `polybench.host` or `driver.enqueue`.
    pub name: &'static str,
    /// Runtime the span ran on.
    pub kind: Kind,
    /// Start, in nanoseconds since the benchmark's origin instant.
    pub start_ns: u64,
    /// End, in nanoseconds since the origin instant.
    pub end_ns: u64,
    /// Bytes moved (`driver.write`/`driver.read`) or work-groups launched
    /// (`driver.enqueue`); 0 for other spans.
    pub work: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans of one application run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring against `origin`; records nothing unless `on`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name,
            kind,
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Sets the work count of the most recently closed span.
    fn set_last_work(&mut self, work: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.work = work;
        }
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn f32_bytes(len: usize) -> u64 {
    (len as u64) * 4
}

/// A [`ClDriver`] that forwards every call to the wrapped runtime and
/// records a `driver.create|write|enqueue|read` span around it, tagged by
/// runtime kind. It changes no argument and no result.
pub struct TimedDriver<'a> {
    inner: &'a mut dyn ClDriver,
    kind: Kind,
    tracer: &'a mut Tracer,
}

impl<'a> TimedDriver<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a mut dyn ClDriver, kind: Kind, tracer: &'a mut Tracer) -> Self {
        TimedDriver {
            inner,
            kind,
            tracer,
        }
    }
}

impl ClDriver for TimedDriver<'_> {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        let inner = &mut *self.inner;
        self.tracer
            .span("driver.create", self.kind, |_| inner.create_buffer(len))
    }

    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        let inner = &mut *self.inner;
        let r = self
            .tracer
            .span("driver.write", self.kind, |_| inner.write_buffer(id, data));
        self.tracer.set_last_work(f32_bytes(data.len()));
        r
    }

    fn enqueue_kernel(
        &mut self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<()> {
        let inner = &mut *self.inner;
        let r = self.tracer.span("driver.enqueue", self.kind, |_| {
            inner.enqueue_kernel(kernel, ndrange, args)
        });
        self.tracer.set_last_work(ndrange.num_groups());
        r
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        let inner = &mut *self.inner;
        let r = self
            .tracer
            .span("driver.read", self.kind, |_| inner.read_buffer(id));
        self.tracer
            .set_last_work(r.as_ref().map_or(0, |v| f32_bytes(v.len())));
        r
    }

    fn elapsed(&self) -> SimDuration {
        self.inner.elapsed()
    }

    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        self.inner.kernel_times()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let v = t.span("outer", Kind::None, |t| {
            t.span("inner", Kind::Single, |_| 7)
        });
        assert_eq!(v, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", Kind::None, |_| 3), 3);
        assert!(off.into_spans().is_empty());
    }
}
