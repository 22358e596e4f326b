//! Spans of the traced replay, recorded from the benchmark's own code
//! around its calls into each layer.
//!
//! Each layer call is timed by its own clock reads ([`Op::span`]), and
//! the op by one read before its first call and one after its last
//! ([`Op::end`]). The time an op's layer spans leave uncovered is then
//! the replay's own glue between calls — a few clock reads, under a
//! microsecond — unless a layer call ran outside every span, or the
//! thread stalled between two spans. [`Tracer::finish`] fails a run in
//! which more ops than a stall explains leave too much uncovered.
//! Spans are handed to a [`Collector`] only after the op has ended, so
//! recording never lands inside a measured interval. The collector keeps
//! them in memory; `finish` checks them and writes them out as Chrome
//! trace-event JSON.

use diffy_core::trace::{ArgValue, Collector, TraceLog};
use std::time::{Duration, Instant};

/// Most layer spans one op records.
const MAX_SPANS: usize = 8;

/// How much of an op's traced total its layer spans may leave
/// uncovered: this share of the total ...
pub const UNCOVERED_SHARE: f64 = 0.01;
/// ... plus this many nanoseconds, for the clock reads and the glue
/// between calls.
pub const UNCOVERED_NS: u64 = 5_000;
/// One op in this many may leave more uncovered: the thread can stall
/// (an interrupt, the host descheduling the vCPU) between two spans of
/// an op. A layer call outside every span leaves its time uncovered in
/// every op of its kind, which this share does not excuse.
pub const STALLED_OPS_PER: usize = 1000;

/// One op being timed: its start, its layer spans and its end.
pub struct Op {
    kind: &'static str,
    t0: Instant,
    spans: [(&'static str, Instant, Instant); MAX_SPANS],
    n: usize,
    end: Instant,
}

impl Op {
    /// Starts timing an op of `kind` now.
    pub fn start(kind: &'static str) -> Op {
        let t0 = Instant::now();
        Op {
            kind,
            t0,
            spans: [("", t0, t0); MAX_SPANS],
            n: 0,
            end: t0,
        }
    }

    /// Calls `f` as the layer span `layer`.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_SPANS`] spans — a bug in the replay.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.spans[self.n] = (layer, start, Instant::now());
        self.n += 1;
        value
    }

    /// Ends the op now: call it right after the op's last layer span.
    pub fn end(&mut self) {
        self.end = Instant::now();
    }

    /// Start of the op to its end.
    pub fn total(&self) -> Duration {
        self.end - self.t0
    }
}

/// What a traced run's layer spans left of its ops uncovered.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Uncovered {
    /// Ops replayed.
    pub ops: usize,
    /// Ops whose uncovered time exceeded the allowance.
    pub over: usize,
    /// Median uncovered time of an op, in nanoseconds.
    pub median_ns: u64,
    /// Largest uncovered time of an op, in nanoseconds.
    pub max_ns: u64,
}

/// Collects replayed ops' spans when tracing is on; inert otherwise.
pub struct Tracer {
    collector: Collector,
    next_op: u64,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, recording only if `on`.
    pub fn new(on: bool, capacity: usize) -> Tracer {
        let collector = Collector::with_capacity(capacity);
        // Fix the collector's clock epoch before the first op starts, so
        // no span begins before it.
        collector.now_ns();
        if on {
            collector.start();
        }
        Tracer {
            collector,
            next_op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.collector.enabled()
    }

    /// Records the ended `op` and its layer spans, all tagged with one
    /// op id.
    pub fn record(&mut self, op: &Op) {
        if !self.on() {
            return;
        }
        let id = self.next_op;
        self.next_op += 1;
        let c = &self.collector;
        let args = || vec![("op", ArgValue::U64(id)), ("kind", ArgValue::from(op.kind))];
        let ns = |t: Instant| c.ns_of(t);
        c.record_manual("op", ns(op.t0), ns(op.end) - ns(op.t0), args);
        for &(layer, start, end) in &op.spans[..op.n] {
            c.record_manual(layer, ns(start), ns(end) - ns(start), args);
        }
    }

    /// Stops recording, checks that nothing was dropped and that the
    /// layer spans of each op, but at most one in [`STALLED_OPS_PER`],
    /// leave no more of it uncovered than [`UNCOVERED_SHARE`] of its
    /// total plus [`UNCOVERED_NS`], and writes the spans to `out` as
    /// Chrome trace-event JSON.
    pub fn finish(self, out: &std::path::Path) -> Result<(TraceLog, Uncovered), String> {
        let log = self.collector.drain();
        if log.dropped > 0 {
            return Err(format!(
                "{} spans dropped: raise the tracer capacity",
                log.dropped
            ));
        }
        let op_of = |args: &[(&'static str, ArgValue)]| match args.first() {
            Some(("op", ArgValue::U64(id))) => *id,
            _ => u64::MAX,
        };
        let mut layer_sum = vec![0u64; self.next_op as usize];
        for r in log.spans.iter().filter(|r| r.name != "op") {
            layer_sum[op_of(&r.args) as usize] += r.dur_ns;
        }
        let mut uncovered = Vec::with_capacity(layer_sum.len());
        let mut over = Vec::new();
        for r in log.spans.iter().filter(|r| r.name == "op") {
            let id = op_of(&r.args);
            let ns = r.dur_ns.checked_sub(layer_sum[id as usize]).ok_or(format!(
                "op {id}: layer spans sum to {} ns, past its {} ns",
                layer_sum[id as usize], r.dur_ns
            ))?;
            if ns as f64 > UNCOVERED_SHARE * r.dur_ns as f64 + UNCOVERED_NS as f64 {
                over.push(format!("op {id}: {ns} of its {} ns", r.dur_ns));
            }
            uncovered.push(ns);
        }
        uncovered.sort_unstable();
        if over.len() > uncovered.len() / STALLED_OPS_PER {
            return Err(format!(
                "{} of {} ops lie outside their layer spans by more than allowed, e.g. {}",
                over.len(),
                uncovered.len(),
                over[0]
            ));
        }
        let most = Uncovered {
            ops: uncovered.len(),
            over: over.len(),
            median_ns: uncovered.get(uncovered.len() / 2).copied().unwrap_or(0),
            max_ns: uncovered.last().copied().unwrap_or(0),
        };
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(out, log.to_chrome_json().to_json())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        Ok((log, most))
    }
}

/// Mean duration of the spans named `layer`, in units of `unit_ns`
/// nanoseconds; 0 when the replay never called that layer.
pub fn mean(log: &TraceLog, layer: &str, unit_ns: f64) -> f64 {
    match log.count(layer) {
        0 => 0.0,
        n => log.total_ns(layer) as f64 / n as f64 / unit_ns,
    }
}

/// Nanoseconds per microsecond, for [`mean`].
pub const US: f64 = 1e3;
/// Nanoseconds per millisecond, for [`mean`].
pub const MS: f64 = 1e6;

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn out(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("out/{name}.json"))
    }

    #[test]
    fn layer_spans_cover_each_op_and_are_written_out() {
        let mut tracer = Tracer::new(true, 64);
        for _ in 0..3 {
            let mut op = Op::start("t");
            op.span("a.one", || std::hint::black_box((0..1000).sum::<u64>()));
            op.span("b.two", || ());
            op.end();
            tracer.record(&op);
        }
        let path = out("spans-test");
        let (log, most) = tracer.finish(&path).unwrap();
        assert_eq!(log.count("op"), 3);
        assert_eq!(log.count("a.one"), 3);
        assert!(log.total_ns("a.one") + log.total_ns("b.two") <= log.total_ns("op"));
        assert_eq!((most.ops, most.over), (3, 0));
        assert!(most.max_ns <= UNCOVERED_NS);
        assert!(std::fs::read_to_string(&path).unwrap().contains("a.one"));
        std::fs::remove_file(path).unwrap();
    }

    /// Ops of one span each; `gap(i)` runs between the span and the
    /// end of op `i`, outside every span.
    fn ops_with_gaps(n: usize, gap: impl Fn(usize) -> bool) -> Tracer {
        let mut tracer = Tracer::new(true, 2 * n);
        for i in 0..n {
            let mut op = Op::start("t");
            op.span("a", || ());
            if gap(i) {
                std::thread::sleep(Duration::from_millis(1));
            }
            op.end();
            tracer.record(&op);
        }
        tracer
    }

    #[test]
    fn work_outside_every_span_fails_the_check() {
        // A layer call the replay forgot to put in a span: every op.
        let path = out("spans-gap-test");
        let err = ops_with_gaps(3, |_| true).finish(&path).unwrap_err();
        assert!(err.contains("3 of 3 ops"), "{err}");
        assert!(!path.exists());
        // Two stalls in 1000 ops are more than one in a thousand.
        let tracer = ops_with_gaps(STALLED_OPS_PER, |i| i == 7 || i == 500);
        assert!(tracer.finish(&path).is_err());
    }

    #[test]
    fn one_stalled_op_in_a_thousand_is_reported_not_failed() {
        let path = out("spans-stall-test");
        // Room for a second, real stall beside the one made here.
        let tracer = ops_with_gaps(2 * STALLED_OPS_PER, |i| i == 7);
        let (_, most) = tracer.finish(&path).unwrap();
        assert_eq!(most.ops, 2 * STALLED_OPS_PER);
        assert!(most.over >= 1);
        assert!(most.max_ns >= 1_000_000);
        assert!(most.median_ns < UNCOVERED_NS);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn an_op_never_ended_fails_the_check() {
        let mut tracer = Tracer::new(true, 8);
        let mut op = Op::start("t");
        op.span("a", || std::thread::sleep(Duration::from_millis(1)));
        tracer.record(&op);
        assert!(tracer.finish(&out("spans-unended-test")).is_err());
    }

    #[test]
    fn an_untraced_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, 8);
        let mut op = Op::start("t");
        op.span("a", || ());
        op.end();
        tracer.record(&op);
        assert!(!tracer.on());
        assert_eq!(tracer.collector.drain().spans.len(), 0);
    }

    #[test]
    fn mean_is_zero_for_an_unused_layer() {
        let log = TraceLog {
            spans: Vec::new(),
            dropped: 0,
        };
        assert_eq!(mean(&log, "x", MS), 0.0);
    }
}
