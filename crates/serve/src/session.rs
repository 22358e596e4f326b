//! Stateful streaming-video sessions: the serve layer's temporal-Diffy
//! subsystem (paper §V, ROADMAP open item 3).
//!
//! A session pins the identity of one synthetic video stream (a
//! [`VideoSpec`] plus a [`TemporalMode`]) and retains the previous
//! frame's activation traces between requests, so each `POST
//! /session/{id}/frame` evaluates only the cross-frame *delta* through
//! `diffy_sim::temporal_network` — the déjà-vu-free way to serve video —
//! while a per-frame ledger accumulates how much the temporal engine
//! saved against full re-evaluation.
//!
//! The [`SessionStore`] is the stateful core: a mutex-guarded id map
//! with the same LRU discipline as a bounded `diffy_core::parallel::Cache`
//! (monotonic-tick recency, capacity-bound eviction) plus per-session
//! idle deadlines swept by the server's parker job. Locking is
//! two-level and never nested the other way: the store lock covers only
//! id lookup/insert/remove/sweep (microseconds), and each session owns
//! a private state mutex held across its frame evaluation — pipelined
//! frames on one keep-alive connection serialize per session while
//! distinct sessions fan freely across the worker pool.
//!
//! Every request handler here is a pure function of `(store state,
//! request, now)` returning `(status, body)` — the server wires them to
//! routes, the fuzz harness drives them directly, and the accounting
//! obeys a conservation law the metrics tests close:
//! `created == closed + expired + evicted + open`.

use crate::protocol::{
    cycles_to_json, error_body, scene_name, temporal_mode_name, FrameRequest, SessionRequest,
};
use diffy_core::json::{parse, JsonValue};
use diffy_core::runner::{SweepCache, TraceBundle, VideoSpec};
use diffy_sim::TemporalMode;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One live streaming session: immutable stream identity plus the
/// mutable temporal state guarded by its own lock.
pub struct Session {
    /// Wire id, `s-<n>`.
    pub id: String,
    /// The video stream this session walks.
    pub spec: VideoSpec,
    /// Temporal engine mode (Diffy-T or Diffy-ST).
    pub mode: TemporalMode,
    state: Mutex<SessionState>,
}

/// The retained cross-frame state: what makes frame *t* cheap.
struct SessionState {
    /// Index of the next frame to serve.
    next_frame: usize,
    /// Frame *t−1*'s activation traces (layer imaps), the reference the
    /// temporal delta is taken against. `None` until frame 0 is served.
    prev: Option<Arc<TraceBundle>>,
    /// Cumulative cycles actually served (frame 0 full + deltas after).
    served_cycles: u64,
    /// Cumulative cycles full re-evaluation of every frame would cost.
    baseline_cycles: u64,
}

impl Session {
    /// Frames served so far.
    pub fn frames_served(&self) -> usize {
        self.state.lock().expect("session state poisoned").next_frame
    }
}

/// Point-in-time counters of a [`SessionStore`], rendered under the
/// `sessions` key of `GET /metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Sessions currently live.
    pub open: usize,
    /// Configured capacity bound.
    pub capacity: usize,
    /// Sessions ever created.
    pub created: u64,
    /// Sessions removed by explicit `DELETE`.
    pub closed: u64,
    /// Sessions removed by the idle sweep.
    pub expired: u64,
    /// Sessions removed to admit a new one at capacity.
    pub evicted: u64,
    /// Id lookups that found a live session.
    pub hits: u64,
    /// Id lookups that found nothing (unknown, expired, or malformed).
    pub misses: u64,
    /// Frames evaluated across all sessions.
    pub frames: u64,
}

impl SessionStats {
    /// The accounting conservation law: every session ever created is
    /// either still open or left through exactly one exit.
    pub fn conserved(&self) -> bool {
        self.created == self.closed + self.expired + self.evicted + self.open as u64
    }
}

/// Bounded, idle-expiring store of live sessions.
pub struct SessionStore {
    inner: Mutex<Inner>,
    capacity: usize,
    idle: Duration,
}

struct Inner {
    map: HashMap<u64, Entry>,
    /// Monotonic recency clock (the `Cache` idiom): bumped on every
    /// create/touch; the entry with the smallest stamp is the LRU.
    tick: u64,
    next_id: u64,
    created: u64,
    closed: u64,
    expired: u64,
    evicted: u64,
    hits: u64,
    misses: u64,
    frames: u64,
}

struct Entry {
    session: Arc<Session>,
    last_used: u64,
    deadline: Instant,
}

impl Inner {
    fn touch(&mut self, key: u64, now: Instant, idle: Duration) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.map.get_mut(&key) {
            e.last_used = tick;
            e.deadline = now + idle;
        }
    }
}

impl SessionStore {
    /// An empty store holding at most `capacity` sessions, each expiring
    /// after `idle` without a request.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `idle` is zero.
    pub fn new(capacity: usize, idle: Duration) -> Self {
        assert!(capacity > 0, "session capacity must be at least 1");
        assert!(!idle.is_zero(), "session idle timeout must be positive");
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                next_id: 0,
                created: 0,
                closed: 0,
                expired: 0,
                evicted: 0,
                hits: 0,
                misses: 0,
                frames: 0,
            }),
            capacity,
            idle,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("session store poisoned")
    }

    /// Creates a session, evicting the least-recently-used one first if
    /// the store is at capacity.
    pub fn create(&self, spec: VideoSpec, mode: TemporalMode, now: Instant) -> Arc<Session> {
        let mut inner = self.lock();
        if inner.map.len() >= self.capacity {
            // Same discipline as a bounded `Cache`: drop the stalest entry.
            if let Some((&lru, _)) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used)
            {
                inner.map.remove(&lru);
                inner.evicted += 1;
            }
        }
        inner.next_id += 1;
        inner.tick += 1;
        let num = inner.next_id;
        let session = Arc::new(Session {
            id: format!("s-{num}"),
            spec,
            mode,
            state: Mutex::new(SessionState {
                next_frame: 0,
                prev: None,
                served_cycles: 0,
                baseline_cycles: 0,
            }),
        });
        let entry =
            Entry { session: Arc::clone(&session), last_used: inner.tick, deadline: now + self.idle };
        inner.map.insert(num, entry);
        inner.created += 1;
        session
    }

    /// Looks up a live session by wire id, refreshing its recency and
    /// idle deadline. Malformed, unknown, and expired ids all miss.
    pub fn get(&self, id: &str, now: Instant) -> Option<Arc<Session>> {
        let mut inner = self.lock();
        let Some(key) = parse_id(id) else {
            inner.misses += 1;
            return None;
        };
        match inner.map.get(&key).map(|e| Arc::clone(&e.session)) {
            Some(session) => {
                inner.hits += 1;
                inner.touch(key, now, self.idle);
                Some(session)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Removes a session by wire id (the `DELETE` exit).
    pub fn remove(&self, id: &str) -> Option<Arc<Session>> {
        let mut inner = self.lock();
        let removed = parse_id(id).and_then(|key| inner.map.remove(&key));
        match removed {
            Some(e) => {
                inner.hits += 1;
                inner.closed += 1;
                Some(e.session)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Removes every session whose idle deadline has passed; returns how
    /// many expired. Called from the server's parker sweep.
    pub fn sweep(&self, now: Instant) -> usize {
        let mut inner = self.lock();
        let stale: Vec<u64> = inner
            .map
            .iter()
            .filter(|(_, e)| e.deadline <= now)
            .map(|(&k, _)| k)
            .collect();
        for k in &stale {
            inner.map.remove(k);
        }
        inner.expired += stale.len() as u64;
        stale.len()
    }

    /// Counter snapshot for `/metrics`.
    pub fn stats(&self) -> SessionStats {
        let inner = self.lock();
        SessionStats {
            open: inner.map.len(),
            capacity: self.capacity,
            created: inner.created,
            closed: inner.closed,
            expired: inner.expired,
            evicted: inner.evicted,
            hits: inner.hits,
            misses: inner.misses,
            frames: inner.frames,
        }
    }

    fn note_frame(&self) {
        self.lock().frames += 1;
    }
}

fn parse_id(id: &str) -> Option<u64> {
    id.strip_prefix("s-")?.parse().ok()
}

/// Handles `POST /session`: parses and validates the stream identity,
/// admits the session, and returns its id plus the effective
/// configuration (defaults resolved).
pub fn handle_create(store: &SessionStore, body: &str, now: Instant) -> (u16, String) {
    let parsed = match parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body(&format!("invalid JSON: {e}"))),
    };
    let req = match SessionRequest::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => return (400, error_body(&e)),
    };
    let session = store.create(req.spec(), req.mode, now);
    let body = JsonValue::object(vec![
        ("session", JsonValue::from(session.id.as_str())),
        ("model", JsonValue::from(req.model.name())),
        ("scene", JsonValue::from(scene_name(req.scene))),
        ("resolution", req.resolution.into()),
        ("frames", req.frames.into()),
        ("pan_px", req.pan_px.into()),
        ("noise", JsonValue::from(req.noise as f64)),
        ("seed", req.seed.into()),
        ("mode", JsonValue::from(temporal_mode_name(req.mode))),
    ])
    .to_json();
    (200, body)
}

/// Handles `POST /session/{id}/frame`: evaluates the session's next
/// frame against its retained previous frame and advances the state.
///
/// Frame 0 is the full spatial evaluation (nothing to difference
/// against); every later frame runs the temporal engine over the
/// cross-frame delta. The response carries the per-layer counters —
/// bit-identical to direct `temporal_network` evaluation — plus the
/// session's cumulative savings ledger. An empty body means "no
/// guards"; `resolution`/`frame` fields, when present, must match.
pub fn handle_frame(
    store: &SessionStore,
    cache: &SweepCache,
    id: &str,
    body: &str,
    now: Instant,
) -> (u16, String) {
    let Some(session) = store.get(id, now) else {
        return (404, error_body(&format!("unknown or expired session `{id}`")));
    };
    let effective = if body.trim().is_empty() { "{}" } else { body };
    let parsed = match parse(effective) {
        Ok(v) => v,
        Err(e) => return (400, error_body(&format!("invalid JSON: {e}"))),
    };
    let req = match FrameRequest::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => return (400, error_body(&e)),
    };
    let spec = &session.spec;
    if let Some(res) = req.resolution {
        if res != spec.resolution as u64 {
            return (
                400,
                error_body(&format!(
                    "frame resolution {res} does not match session resolution {}",
                    spec.resolution
                )),
            );
        }
    }
    // Everything below holds the session's state lock: pipelined frames
    // on one connection (or several) serialize here, per session.
    let mut state = session.state.lock().expect("session state poisoned");
    let frame = state.next_frame;
    if frame >= spec.frames {
        return (
            400,
            error_body(&format!("frame {frame} past the session's {}-frame horizon", spec.frames)),
        );
    }
    if let Some(expected) = req.frame {
        if expected != frame as u64 {
            return (
                400,
                error_body(&format!("frame index {expected} does not match expected {frame}")),
            );
        }
    }
    let cur = cache.video_frame(spec, frame);
    let cycles = match &state.prev {
        None => cache.video_frame_baseline(spec, frame),
        Some(prev) => cache.video_frame_temporal(spec, frame, session.mode, prev),
    };
    let baseline = cache.video_frame_baseline(spec, frame);
    state.served_cycles += cycles.total_cycles();
    state.baseline_cycles += baseline.total_cycles();
    state.prev = Some(cur);
    state.next_frame = frame + 1;
    let (served_cum, baseline_cum, frames_served) =
        (state.served_cycles, state.baseline_cycles, state.next_frame);
    drop(state);
    store.note_frame();

    let savings_pct = if baseline_cum > 0 {
        100.0 * (1.0 - served_cum as f64 / baseline_cum as f64)
    } else {
        0.0
    };
    let body = JsonValue::object(vec![
        ("session", JsonValue::from(session.id.as_str())),
        ("frame", frame.into()),
        ("result", cycles_to_json(&cycles)),
        ("baseline_cycles", baseline.total_cycles().into()),
        (
            "cumulative",
            JsonValue::object(vec![
                ("frames", frames_served.into()),
                ("cycles", served_cum.into()),
                ("baseline_cycles", baseline_cum.into()),
                ("savings_pct", JsonValue::from(savings_pct)),
            ]),
        ),
    ])
    .to_json();
    (200, body)
}

/// Handles `DELETE /session/{id}`: closes the session and reports how
/// many frames it served. A second delete of the same id is a 404 —
/// the session left through the `closed` exit exactly once.
pub fn handle_close(store: &SessionStore, id: &str) -> (u16, String) {
    match store.remove(id) {
        Some(session) => {
            let body = JsonValue::object(vec![
                ("closed", JsonValue::from(session.id.as_str())),
                ("frames", session.frames_served().into()),
            ])
            .to_json();
            (200, body)
        }
        None => (404, error_body(&format!("unknown or expired session `{id}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_imaging::scenes::SceneKind;
    use diffy_models::CiModel;
    use diffy_sim::{temporal_network, AcceleratorConfig};

    fn test_spec() -> VideoSpec {
        VideoSpec::new(CiModel::Ircnn, SceneKind::City, 16, 3, 1, 0.0, 5)
    }

    fn store() -> SessionStore {
        SessionStore::new(4, Duration::from_millis(50))
    }

    #[test]
    fn lifecycle_counters_conserve() {
        let s = store();
        let now = Instant::now();
        let a = s.create(test_spec(), TemporalMode::SpatioTemporal, now);
        let b = s.create(test_spec(), TemporalMode::TemporalOnly, now);
        assert_ne!(a.id, b.id);
        assert!(s.get(&a.id, now).is_some());
        assert!(s.remove(&a.id).is_some());
        assert!(s.remove(&a.id).is_none(), "double close must miss");
        // b expires via sweep past its deadline.
        assert_eq!(s.sweep(now + Duration::from_millis(60)), 1);
        let st = s.stats();
        assert_eq!((st.created, st.closed, st.expired, st.open), (2, 1, 1, 0));
        assert!(st.conserved(), "{st:?}");
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let s = SessionStore::new(2, Duration::from_secs(60));
        let now = Instant::now();
        let a = s.create(test_spec(), TemporalMode::SpatioTemporal, now);
        let b = s.create(test_spec(), TemporalMode::SpatioTemporal, now);
        // Touch a so b becomes the LRU.
        assert!(s.get(&a.id, now).is_some());
        let c = s.create(test_spec(), TemporalMode::SpatioTemporal, now);
        assert!(s.get(&b.id, now).is_none(), "LRU must be evicted");
        assert!(s.get(&a.id, now).is_some());
        assert!(s.get(&c.id, now).is_some());
        let st = s.stats();
        assert_eq!((st.created, st.evicted, st.open), (3, 1, 2));
        assert!(st.conserved(), "{st:?}");
    }

    #[test]
    fn malformed_unknown_and_expired_ids_miss() {
        let s = store();
        let now = Instant::now();
        for id in ["", "s-", "s-x", "sessions/1", "s-999", "-1"] {
            assert!(s.get(id, now).is_none(), "{id:?}");
        }
        let a = s.create(test_spec(), TemporalMode::SpatioTemporal, now);
        s.sweep(now + Duration::from_millis(60));
        assert!(s.get(&a.id, now).is_none(), "expired id must miss");
        assert!(s.stats().conserved());
    }

    #[test]
    fn frames_match_direct_temporal_network_evaluation() {
        // The handler's per-frame counters must be bit-identical to
        // driving temporal_network by hand over the same stream.
        let s = store();
        let cache = SweepCache::new();
        let now = Instant::now();
        let spec = test_spec();
        let (_, created) = handle_create(
            &s,
            r#"{"model": "IRCNN", "scene": "City", "resolution": 16, "frames": 3,
                "pan_px": 1, "noise": 0, "seed": 5, "mode": "spatiotemporal"}"#,
            now,
        );
        let id = parse(&created).unwrap().get("session").unwrap().as_str().unwrap().to_string();

        let cfg = AcceleratorConfig::table4();
        let fresh: Vec<_> =
            (0..3).map(|f| diffy_core::runner::video_frame_bundle(&spec, f)).collect();
        for f in 0..3 {
            let (status, body) = handle_frame(&s, &cache, &id, "", now);
            assert_eq!(status, 200, "{body}");
            let v = parse(&body).unwrap();
            assert_eq!(v.get("frame").unwrap().as_u64(), Some(f as u64));
            let expect = if f == 0 {
                diffy_sim::term_serial_network(
                    &fresh[0].trace,
                    &cfg,
                    diffy_sim::ValueMode::Differential,
                )
            } else {
                temporal_network(
                    &fresh[f - 1].trace,
                    &fresh[f].trace,
                    &cfg,
                    TemporalMode::SpatioTemporal,
                )
            };
            assert_eq!(
                v.get("result").unwrap().to_json(),
                cycles_to_json(&expect).to_json(),
                "frame {f} must serialize bit-identically to direct evaluation"
            );
        }
        // The horizon is closed: one more frame is a reasoned 400.
        let (status, body) = handle_frame(&s, &cache, &id, "", now);
        assert_eq!(status, 400);
        assert!(body.contains("past the session's"), "{body}");
        // Cumulative ledger: served <= baseline, savings reported.
        let (_, closed) = handle_close(&s, &id);
        assert!(closed.contains(r#""frames":3"#), "{closed}");
        assert!(s.stats().conserved());
    }

    #[test]
    fn handler_rejections_are_reasoned_4xx() {
        let s = store();
        let cache = SweepCache::new();
        let now = Instant::now();
        // Create rejections.
        for (body, needle) in [
            ("{", "invalid JSON"),
            ("{}", "missing required field `model`"),
            (r#"{"model": "IRCNN", "frames": 0}"#, "out of range"),
        ] {
            let (status, b) = handle_create(&s, body, now);
            assert_eq!(status, 400, "{body}");
            assert!(b.contains(needle), "{body}: {b}");
        }
        // Frame before create / unknown id.
        let (status, b) = handle_frame(&s, &cache, "s-1", "", now);
        assert_eq!(status, 404);
        assert!(b.contains("unknown or expired"), "{b}");
        // Wrong-resolution and wrong-index guards.
        let (_, created) = handle_create(&s, r#"{"model": "IRCNN", "resolution": 16}"#, now);
        let id = parse(&created).unwrap().get("session").unwrap().as_str().unwrap().to_string();
        let (status, b) = handle_frame(&s, &cache, &id, r#"{"resolution": 32}"#, now);
        assert_eq!(status, 400);
        assert!(b.contains("does not match session resolution"), "{b}");
        let (status, b) = handle_frame(&s, &cache, &id, r#"{"frame": 5}"#, now);
        assert_eq!(status, 400);
        assert!(b.contains("does not match expected"), "{b}");
        // Double close.
        assert_eq!(handle_close(&s, &id).0, 200);
        let (status, b) = handle_close(&s, &id);
        assert_eq!(status, 404);
        assert!(b.contains("unknown or expired"), "{b}");
        assert!(s.stats().conserved());
    }
}
