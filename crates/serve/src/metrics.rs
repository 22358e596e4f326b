//! Live service metrics: request/response counters, queue pressure, and
//! a lock-free log-bucketed latency histogram for p50/p99.
//!
//! Everything is atomics — recording never takes a lock, so the hot path
//! costs a handful of relaxed adds. The `/metrics` endpoint renders a
//! snapshot as JSON through `diffy_core::json`.

use crate::session::SessionStats;
use diffy_core::json::JsonValue;
use diffy_core::runner::CacheStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The response statuses the service emits, in reporting order. Anything
/// else lands in the `other` bucket so response totals always conserve.
pub const STATUSES: [u16; 8] = [200, 400, 404, 405, 413, 500, 503, 504];

/// Why a connection was closed without a response being written for its
/// pending request attempt. Together with the response counters these
/// make request accounting exact: every attempt the server admits ends
/// as a response, an abort, or an idle close — see
/// [`Metrics::requests_accounted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed (or stayed silent past the idle window) before
    /// sending a request — the normal end of a keep-alive connection.
    Idle,
    /// The connection died mid-request (reset, timeout after partial
    /// head, failed clone) — nothing could be answered.
    Aborted,
}

/// One stage of a traced request, in pipeline order.
///
/// The per-stage histograms in `/metrics` and the serve trace spans use
/// these names (span taxonomy: DESIGN.md §5c); stage durations are
/// contiguous, so their sum tracks the end-to-end request latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Accept → a worker dequeued the connection.
    QueueWait,
    /// Read + decode + validate the request.
    Parse,
    /// Resolve the result through the cache tiers (or run the session
    /// handler).
    Evaluate,
    /// Serialize the result to JSON.
    Serialize,
    /// Write the response.
    Write,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] =
        [Stage::QueueWait, Stage::Parse, Stage::Evaluate, Stage::Serialize, Stage::Write];

    /// The stage's name, shared by `/metrics` keys and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Parse => "parse",
            Stage::Evaluate => "evaluate",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
        }
    }
}

/// Histogram geometry: bucket `i` covers latencies up to
/// `BUCKET_BASE_MS * BUCKET_RATIO^i`; the last bucket is a catch-all.
const BUCKET_BASE_MS: f64 = 0.05;
const BUCKET_RATIO: f64 = 1.6;
const BUCKETS: usize = 48;

/// A concurrent log-bucketed latency histogram.
///
/// Quantiles are read from bucket upper bounds, so they are conservative
/// (a p99 of "≤ X ms") with ~60% bucket resolution — plenty for spotting
/// regressions; the bench client keeps exact client-side samples for the
/// committed numbers.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Total latency in microseconds, for the mean.
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let ms = us as f64 / 1e3;
        let mut idx = 0usize;
        let mut bound = BUCKET_BASE_MS;
        while ms > bound && idx + 1 < BUCKETS {
            bound *= BUCKET_RATIO;
            idx += 1;
        }
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound (ms) of the bucket containing quantile `q` ∈ [0, 1],
    /// or 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        let mut bound = BUCKET_BASE_MS;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // The catch-all has no honest upper bound; report the
                // max. Finite buckets clamp to it too, so a quantile
                // never reads above the largest observation.
                if i + 1 == BUCKETS {
                    return self.max_ms();
                }
                return bound.min(self.max_ms());
            }
            bound *= BUCKET_RATIO;
        }
        self.max_us.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Mean latency in ms, or 0 when empty.
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / 1e3 / n as f64
        }
    }

    /// Largest observation in ms.
    pub fn max_ms(&self) -> f64 {
        self.max_us.load(Ordering::Relaxed) as f64 / 1e3
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// All counters the service maintains.
pub struct Metrics {
    /// Request *attempts* admitted by the server: one per accepted
    /// connection plus one per keep-alive re-enqueue. Every attempt ends
    /// as exactly one response, abort, or idle close (conservation:
    /// [`Metrics::requests_accounted`]).
    pub requests_total: AtomicU64,
    /// TCP connections accepted (including ones later rejected with 503).
    pub connections_total: AtomicU64,
    /// Connections currently open and being serviced (gauge).
    pub connections_open: AtomicU64,
    /// Keep-alive re-enqueues: request attempts beyond a connection's
    /// first. `requests_total - keepalive_reuses_total` is the number of
    /// connections that carried at least one attempt.
    pub keepalive_reuses_total: AtomicU64,
    /// Largest number of responses served over a single connection.
    pub requests_per_conn_max: AtomicU64,
    /// Attempts that ended without a response because the connection
    /// died mid-request (reset, timeout after partial head, failed
    /// clone).
    pub aborted_total: AtomicU64,
    /// Attempts that ended without a response because the peer closed
    /// (or idled out) before sending a request — normal keep-alive end.
    pub idle_closed_total: AtomicU64,
    /// Items carried by `POST /evaluate/batch` requests (each batch is
    /// one request attempt; its items are counted here).
    pub batch_items_total: AtomicU64,
    /// Connections turned away because the admission queue was full.
    pub queue_rejected_total: AtomicU64,
    /// Times the event loop returned from its readiness wait (epoll
    /// wakeups). With N idle parked connections this grows with *events
    /// and ticks*, not with N — the sweep-free claim `tests/serve_epoll.rs`
    /// asserts.
    pub poller_wakeups_total: AtomicU64,
    /// Parked keep-alive connections currently owned by the event loop
    /// (gauge).
    pub poller_parked: AtomicU64,
    /// Parked connections moved to the admission queue because their
    /// next request's bytes arrived.
    pub poller_unparked_total: AtomicU64,
    /// Parked connections retired because their idle window expired with
    /// no request bytes (quiet closes — no attempt was pending).
    pub poller_expired_total: AtomicU64,
    /// Connections the parking lot refused (full or closed); retired
    /// quietly, before any next attempt existed.
    pub poller_park_refused_total: AtomicU64,
    /// Requests (or batch items) whose deadline expired before
    /// completion.
    pub deadline_expired_total: AtomicU64,
    /// Per-status response counts, aligned with [`STATUSES`]; the extra
    /// trailing slot counts statuses outside the table (`other`).
    responses: [AtomicU64; STATUSES.len() + 1],
    /// End-to-end latency of every traced request (accept → response
    /// written).
    pub latency: LatencyHistogram,
    /// Per-stage durations of every traced request, aligned with
    /// [`Stage::ALL`].
    stages: [LatencyHistogram; Stage::ALL.len()],
}

impl Metrics {
    /// Zeroed metrics.
    pub fn new() -> Self {
        Self {
            requests_total: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            keepalive_reuses_total: AtomicU64::new(0),
            requests_per_conn_max: AtomicU64::new(0),
            aborted_total: AtomicU64::new(0),
            idle_closed_total: AtomicU64::new(0),
            batch_items_total: AtomicU64::new(0),
            queue_rejected_total: AtomicU64::new(0),
            poller_wakeups_total: AtomicU64::new(0),
            poller_parked: AtomicU64::new(0),
            poller_unparked_total: AtomicU64::new(0),
            poller_expired_total: AtomicU64::new(0),
            poller_park_refused_total: AtomicU64::new(0),
            deadline_expired_total: AtomicU64::new(0),
            responses: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: LatencyHistogram::new(),
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
        }
    }

    /// Counts one connection close that ended a pending request attempt
    /// without a response, so conservation holds exactly.
    pub fn record_close(&self, reason: CloseReason) {
        match reason {
            CloseReason::Idle => &self.idle_closed_total,
            CloseReason::Aborted => &self.aborted_total,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Request attempts accounted for: every attempt ends as a response,
    /// an abort, or an idle close. When the server is quiesced (no
    /// connection in flight), this equals [`Metrics::requests_total`] —
    /// the conservation law `tests/serve_keepalive.rs` asserts.
    pub fn requests_accounted(&self) -> u64 {
        self.responses_total()
            + self.aborted_total.load(Ordering::Relaxed)
            + self.idle_closed_total.load(Ordering::Relaxed)
    }

    /// Counts one response with the given status. A status outside
    /// [`STATUSES`] is counted in the `other` bucket — never dropped, so
    /// the per-status counts always sum to the responses recorded.
    pub fn record_response(&self, status: u16) {
        let i = STATUSES.iter().position(|&s| s == status).unwrap_or(STATUSES.len());
        self.responses[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Responses sent with `status` so far (0 for untabled statuses —
    /// those are only visible in aggregate via [`Metrics::responses_other`]).
    pub fn responses_with(&self, status: u16) -> u64 {
        STATUSES
            .iter()
            .position(|&s| s == status)
            .map(|i| self.responses[i].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Responses whose status is outside [`STATUSES`].
    pub fn responses_other(&self) -> u64 {
        self.responses[STATUSES.len()].load(Ordering::Relaxed)
    }

    /// Total responses recorded, across every bucket including `other`.
    pub fn responses_total(&self) -> u64 {
        self.responses.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The duration histogram of one pipeline stage.
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage as usize]
    }

    /// Renders the `/metrics` snapshot. `queue_depth` is sampled by the
    /// caller (the queue owns that gauge); `cache` comes from the shared
    /// `SweepCache`; `sessions` from the shared `SessionStore`.
    pub fn to_json(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        cache: CacheStats,
        sessions: SessionStats,
    ) -> JsonValue {
        let mut responses: Vec<(String, JsonValue)> = STATUSES
            .iter()
            .enumerate()
            .map(|(i, s)| (s.to_string(), JsonValue::from(self.responses[i].load(Ordering::Relaxed))))
            .collect();
        responses.push(("other".to_string(), self.responses_other().into()));
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                let h = self.stage(s);
                (
                    s.name().to_string(),
                    JsonValue::object(vec![
                        ("count", h.count().into()),
                        ("mean", JsonValue::from(h.mean_ms())),
                        ("p50", JsonValue::from(h.quantile_ms(0.50))),
                        ("p99", JsonValue::from(h.quantile_ms(0.99))),
                        ("max", JsonValue::from(h.max_ms())),
                    ]),
                )
            })
            .collect();
        let total = cache.total();
        let stores = cache
            .stores()
            .iter()
            .map(|(name, c)| {
                let counters = JsonValue::object(vec![
                    ("hits", c.hits.into()),
                    ("misses", c.misses.into()),
                    ("shared", c.shared.into()),
                    ("evictions", c.evictions.into()),
                    ("resident", c.resident.into()),
                ]);
                (name.to_string(), counters)
            })
            .collect();
        JsonValue::object(vec![
            ("requests_total", self.requests_total.load(Ordering::Relaxed).into()),
            (
                "connections",
                JsonValue::object(vec![
                    ("total", self.connections_total.load(Ordering::Relaxed).into()),
                    ("open", self.connections_open.load(Ordering::Relaxed).into()),
                    ("keepalive_reuses", self.keepalive_reuses_total.load(Ordering::Relaxed).into()),
                    ("requests_per_conn_max", self.requests_per_conn_max.load(Ordering::Relaxed).into()),
                    ("aborted", self.aborted_total.load(Ordering::Relaxed).into()),
                    ("idle_closed", self.idle_closed_total.load(Ordering::Relaxed).into()),
                ]),
            ),
            ("batch_items_total", self.batch_items_total.load(Ordering::Relaxed).into()),
            ("queue_depth", queue_depth.into()),
            ("queue_capacity", queue_capacity.into()),
            ("queue_rejected_total", self.queue_rejected_total.load(Ordering::Relaxed).into()),
            (
                "poller",
                JsonValue::object(vec![
                    ("wakeups", self.poller_wakeups_total.load(Ordering::Relaxed).into()),
                    ("parked", self.poller_parked.load(Ordering::Relaxed).into()),
                    ("unparked", self.poller_unparked_total.load(Ordering::Relaxed).into()),
                    ("expired", self.poller_expired_total.load(Ordering::Relaxed).into()),
                    ("park_refused", self.poller_park_refused_total.load(Ordering::Relaxed).into()),
                ]),
            ),
            ("deadline_expired_total", self.deadline_expired_total.load(Ordering::Relaxed).into()),
            ("responses", JsonValue::Object(responses)),
            (
                "cache",
                JsonValue::object(vec![
                    ("hits", total.hits.into()),
                    ("misses", total.misses.into()),
                    ("shared", total.shared.into()),
                    ("evictions", total.evictions.into()),
                    ("traces", cache.traces.resident.into()),
                    ("weights", cache.weights.resident.into()),
                    ("term_planes", cache.term_planes.resident.into()),
                    ("traffic", cache.traffic.resident.into()),
                    ("video_frames", cache.video_frames.resident.into()),
                    ("video_cycles", cache.video_cycles.resident.into()),
                    ("results", cache.results.resident.into()),
                    (
                        "disk",
                        JsonValue::object(vec![
                            ("hits", cache.disk.hits.into()),
                            ("misses", cache.disk.misses.into()),
                            ("corrupt", cache.disk.corrupt.into()),
                            ("bytes", cache.disk.bytes.into()),
                        ]),
                    ),
                    ("stores", JsonValue::Object(stores)),
                ]),
            ),
            (
                "sessions",
                JsonValue::object(vec![
                    ("open", sessions.open.into()),
                    ("capacity", sessions.capacity.into()),
                    ("created", sessions.created.into()),
                    ("closed", sessions.closed.into()),
                    ("expired", sessions.expired.into()),
                    ("evicted", sessions.evicted.into()),
                    ("hits", sessions.hits.into()),
                    ("misses", sessions.misses.into()),
                    ("frames", sessions.frames.into()),
                ]),
            ),
            (
                "latency_ms",
                JsonValue::object(vec![
                    ("count", self.latency.count().into()),
                    ("mean", JsonValue::from(self.latency.mean_ms())),
                    ("p50", JsonValue::from(self.latency.quantile_ms(0.50))),
                    ("p90", JsonValue::from(self.latency.quantile_ms(0.90))),
                    ("p99", JsonValue::from(self.latency.quantile_ms(0.99))),
                    ("max", JsonValue::from(self.latency.max_ms())),
                ]),
            ),
            ("stages_ms", JsonValue::Object(stages)),
        ])
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_core::CacheCounters;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::new();
        for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_ms(0.50);
        assert!((0.5..=2.0).contains(&p50), "p50 {p50} should bracket 1ms");
        let p99 = h.quantile_ms(0.99);
        assert!(p99 >= 100.0, "p99 {p99} must cover the 100ms outlier");
        assert!(p99 <= 200.0, "p99 {p99} should stay near the outlier");
        assert!((h.mean_ms() - 10.9).abs() < 0.5, "mean {}", h.mean_ms());
        assert!((h.max_ms() - 100.0).abs() < 0.5);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn extreme_latency_lands_in_catch_all() {
        let h = LatencyHistogram::new();
        // 1e9 ms is beyond the last finite bucket bound (~2e8 ms).
        h.record(Duration::from_secs(1_000_000));
        assert_eq!(h.count(), 1);
        let p50 = h.quantile_ms(0.5);
        assert!((p50 - 1e9).abs() / 1e9 < 0.01, "catch-all reports the max, got {p50}");
    }

    #[test]
    fn metrics_snapshot_renders_all_sections() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.record_response(200);
        m.record_response(200);
        m.record_response(503);
        m.latency.record(Duration::from_millis(2));
        let sessions = SessionStats {
            open: 1,
            capacity: 4,
            created: 3,
            closed: 1,
            expired: 1,
            evicted: 0,
            hits: 7,
            misses: 2,
            frames: 9,
        };
        let cache_stats = CacheStats {
            traces: CacheCounters { hits: 1, misses: 2, shared: 0, evictions: 0, resident: 2 },
            results: CacheCounters { hits: 4, misses: 0, shared: 1, evictions: 3, resident: 6 },
            disk: diffy_core::artifact::DiskStats { hits: 4, misses: 3, corrupt: 1, bytes: 2048 },
            ..CacheStats::default()
        };
        let v = m.to_json(1, 8, cache_stats, sessions);
        assert_eq!(v.get("requests_total").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("queue_depth").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("responses").unwrap().get("200").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("responses").unwrap().get("503").unwrap().as_u64(), Some(1));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(5));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(2));
        assert_eq!(cache.get("shared").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("evictions").unwrap().as_u64(), Some(3));
        assert_eq!(cache.get("traces").unwrap().as_u64(), Some(2));
        assert_eq!(cache.get("results").unwrap().as_u64(), Some(6));
        // Each store's own counters follow the totals, named as the
        // residency members are.
        let stores = cache.get("stores").unwrap();
        for (name, _) in cache_stats.stores() {
            assert!(stores.get(name).is_some(), "store {name} rendered");
        }
        let results = stores.get("results").unwrap();
        let field = |k: &str| results.get(k).unwrap().as_u64();
        assert_eq!(
            [field("hits"), field("misses"), field("shared"), field("evictions"), field("resident")],
            [Some(4), Some(0), Some(1), Some(3), Some(6)]
        );
        assert_eq!(stores.get("weights").unwrap().get("hits").unwrap().as_u64(), Some(0));
        let disk = v.get("cache").unwrap().get("disk").unwrap();
        assert_eq!(disk.get("hits").unwrap().as_u64(), Some(4));
        assert_eq!(disk.get("misses").unwrap().as_u64(), Some(3));
        assert_eq!(disk.get("corrupt").unwrap().as_u64(), Some(1));
        assert_eq!(disk.get("bytes").unwrap().as_u64(), Some(2048));
        assert_eq!(v.get("latency_ms").unwrap().get("count").unwrap().as_u64(), Some(1));
        let sess = v.get("sessions").unwrap();
        assert_eq!(sess.get("open").unwrap().as_u64(), Some(1));
        assert_eq!(sess.get("created").unwrap().as_u64(), Some(3));
        assert_eq!(sess.get("frames").unwrap().as_u64(), Some(9));
        assert!(sessions.conserved(), "created == closed + expired + evicted + open");
        assert_eq!(m.responses_with(200), 2);
        assert_eq!(m.responses_with(504), 0);
        // The snapshot itself must be valid JSON.
        assert!(diffy_core::json::parse(&v.to_json()).is_ok());
    }

    #[test]
    fn unknown_statuses_land_in_other_and_totals_conserve() {
        let m = Metrics::new();
        // A mix of tabled and untabled statuses; every recording must be
        // accounted for somewhere.
        let recorded = [200u16, 418, 200, 599, 503, 302, 504];
        for s in recorded {
            m.record_response(s);
        }
        assert_eq!(m.responses_with(200), 2);
        assert_eq!(m.responses_with(503), 1);
        assert_eq!(m.responses_other(), 3, "418/599/302 must not vanish");
        assert_eq!(m.responses_total(), recorded.len() as u64, "conservation");
        let v = m.to_json(0, 8, CacheStats::default(), SessionStats::default());
        assert_eq!(v.get("responses").unwrap().get("other").unwrap().as_u64(), Some(3));
        // Conservation holds in the rendered snapshot too.
        let rendered: u64 = STATUSES
            .iter()
            .map(|s| v.get("responses").unwrap().get(&s.to_string()).unwrap().as_u64().unwrap())
            .sum::<u64>()
            + v.get("responses").unwrap().get("other").unwrap().as_u64().unwrap();
        assert_eq!(rendered, recorded.len() as u64);
    }

    #[test]
    fn connection_counters_render_and_conserve() {
        let m = Metrics::new();
        // Three attempts: one answered, one aborted mid-read, one idle
        // keep-alive close. Conservation must hold exactly.
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.connections_total.fetch_add(2, Ordering::Relaxed);
        m.connections_open.fetch_add(2, Ordering::Relaxed);
        m.keepalive_reuses_total.fetch_add(1, Ordering::Relaxed);
        m.record_response(200);
        m.record_close(CloseReason::Aborted);
        assert_ne!(m.requests_accounted(), m.requests_total.load(Ordering::Relaxed));
        m.record_close(CloseReason::Idle);
        assert_eq!(m.requests_accounted(), m.requests_total.load(Ordering::Relaxed));
        m.requests_per_conn_max.fetch_max(2, Ordering::Relaxed);
        m.connections_open.fetch_sub(2, Ordering::Relaxed);

        let v = m.to_json(0, 8, CacheStats::default(), SessionStats::default());
        let conns = v.get("connections").unwrap();
        assert_eq!(conns.get("total").unwrap().as_u64(), Some(2));
        assert_eq!(conns.get("open").unwrap().as_u64(), Some(0));
        assert_eq!(conns.get("keepalive_reuses").unwrap().as_u64(), Some(1));
        assert_eq!(conns.get("requests_per_conn_max").unwrap().as_u64(), Some(2));
        assert_eq!(conns.get("aborted").unwrap().as_u64(), Some(1));
        assert_eq!(conns.get("idle_closed").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("batch_items_total").unwrap().as_u64(), Some(0));
        assert!(diffy_core::json::parse(&v.to_json()).is_ok());
    }

    #[test]
    fn poller_block_renders_event_loop_counters() {
        let m = Metrics::new();
        m.poller_wakeups_total.fetch_add(12, Ordering::Relaxed);
        m.poller_parked.store(3, Ordering::Relaxed);
        m.poller_unparked_total.fetch_add(2, Ordering::Relaxed);
        m.poller_expired_total.fetch_add(1, Ordering::Relaxed);
        let v = m.to_json(0, 8, CacheStats::default(), SessionStats::default());
        let p = v.get("poller").unwrap();
        assert_eq!(p.get("wakeups").unwrap().as_u64(), Some(12));
        assert_eq!(p.get("parked").unwrap().as_u64(), Some(3));
        assert_eq!(p.get("unparked").unwrap().as_u64(), Some(2));
        assert_eq!(p.get("expired").unwrap().as_u64(), Some(1));
        assert_eq!(p.get("park_refused").unwrap().as_u64(), Some(0));
        assert!(diffy_core::json::parse(&v.to_json()).is_ok());
    }

    #[test]
    fn stage_histograms_record_and_render() {
        let m = Metrics::new();
        m.stage(Stage::QueueWait).record(Duration::from_millis(1));
        m.stage(Stage::Evaluate).record(Duration::from_millis(40));
        m.stage(Stage::Evaluate).record(Duration::from_millis(60));
        assert_eq!(m.stage(Stage::Evaluate).count(), 2);
        assert_eq!(m.stage(Stage::Parse).count(), 0);
        let v = m.to_json(0, 8, CacheStats::default(), SessionStats::default());
        let stages = v.get("stages_ms").unwrap();
        for s in Stage::ALL {
            assert!(stages.get(s.name()).is_some(), "stage {} rendered", s.name());
        }
        assert_eq!(stages.get("evaluate").unwrap().get("count").unwrap().as_u64(), Some(2));
        let mean = stages.get("evaluate").unwrap().get("mean").unwrap().as_f64().unwrap();
        assert!((mean - 50.0).abs() < 1.0, "mean {mean}");
        assert!(diffy_core::json::parse(&v.to_json()).is_ok());
    }
}
