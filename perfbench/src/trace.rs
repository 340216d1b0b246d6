//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into the
//! program's public functions; nothing inside the program is
//! instrumented. Each thread owns a [`Tracer`]. A span's *self time* is
//! its duration minus the time covered by its child spans, and is
//! aggregated per layer as spans close. The first [`KEEP`] spans of each
//! tracer are also kept and written out as a Chrome trace at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundaries the benchmark records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One whole client request (the root span).
    Op,
    SwapLoad,
    SwapUpdate,
    CoreRead,
    CoreWrite,
    Data,
    AsyncRead,
    AsyncWriteGrant,
    SimExplore,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::SwapLoad => "swap.load",
            Layer::SwapUpdate => "swap.update",
            Layer::CoreRead => "core.read",
            Layer::CoreWrite => "core.write",
            Layer::Data => "data",
            Layer::AsyncRead => "async.read",
            Layer::AsyncWriteGrant => "async.write_grant",
            Layer::SimExplore => "sim.explore",
        }
    }
}

/// Number of layers (`SimExplore` is the last).
const N: usize = Layer::SimExplore as usize + 1;
/// Spans kept per tracer for the written trace.
pub const KEEP: usize = 20_000;

#[derive(Clone, Copy)]
struct Open {
    layer: Layer,
    start: u64,
    child: u64,
    kept: u32,
}

#[derive(Clone, Copy)]
struct Span {
    layer: Layer,
    start: u64,
    end: u64,
    parent: u32,
}

/// Per-layer self-time totals and span counts.
#[derive(Clone, Default)]
pub struct LayerTimes {
    self_ns: [u64; N],
    count: [u64; N],
}

impl LayerTimes {
    pub fn merge(&mut self, other: &LayerTimes) {
        for i in 0..N {
            self.self_ns[i] += other.self_ns[i];
            self.count[i] += other.count[i];
        }
    }

    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer as usize]
    }

    /// Mean self time per span of `layer`, in ns (0 if none closed).
    pub fn mean_self_ns(&self, layer: Layer) -> f64 {
        let i = layer as usize;
        if self.count[i] == 0 {
            0.0
        } else {
            self.self_ns[i] as f64 / self.count[i] as f64
        }
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    stack: Vec<Open>,
    kept: Vec<Span>,
    pub times: LayerTimes,
}

const NONE: u32 = u32::MAX;

impl Tracer {
    /// A tracer for thread `tid`; with `on == false` every call is a
    /// no-op.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Self {
        Self {
            on,
            epoch,
            tid,
            stack: Vec::with_capacity(8),
            kept: Vec::with_capacity(if on { KEEP } else { 0 }),
            times: LayerTimes::default(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.stack.push(Open { layer, start, child: 0, kept: NONE });
        if self.kept.len() < KEEP {
            let parent = self.stack.iter().rev().nth(1).map_or(NONE, |o| o.kept);
            self.kept.push(Span { layer, start, end: start, parent });
            self.stack.last_mut().expect("just pushed").kept = (self.kept.len() - 1) as u32;
        }
    }

    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let open = self.stack.pop().expect("span exit without enter");
        let dur = end - open.start;
        let i = open.layer as usize;
        self.times.self_ns[i] += dur.saturating_sub(open.child);
        self.times.count[i] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
        }
        if open.kept != NONE {
            self.kept[open.kept as usize].end = end;
        }
    }

    /// Appends this tracer's kept spans as Chrome-trace events.
    pub fn write_events(&self, out: &mut String) {
        for (i, s) in self.kept.iter().enumerate() {
            if !out.ends_with('[') {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.layer.name(),
                self.tid,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                i,
                if s.parent == NONE { -1 } else { i64::from(s.parent) }
            );
        }
    }
}

/// Writes the kept spans of `tracers` to `path` as a Chrome trace
/// (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[");
    for t in tracers {
        t.write_events(&mut out);
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.enter(Layer::Op);
        t.enter(Layer::CoreRead);
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.exit();
        t.exit();
        let op = t.times.mean_self_ns(Layer::Op);
        let read = t.times.mean_self_ns(Layer::CoreRead);
        assert!(read >= 20e6, "child self time {read}");
        assert!(op < 5e6, "parent self time {op} still includes its child");
        let mut s = String::from("[");
        t.write_events(&mut s);
        assert!(s.contains("\"parent\":0"), "{s}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        t.enter(Layer::Op);
        t.exit();
        assert_eq!(t.times.count(Layer::Op), 0);
    }
}
