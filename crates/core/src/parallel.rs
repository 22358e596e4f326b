//! Deterministic parallel execution: a std-only scoped-thread job pool
//! and a compute-once keyed artifact cache.
//!
//! The evaluation harness fans out `(model, dataset, sample,
//! architecture, scheme)` jobs that are pure functions of their inputs.
//! Two invariants make parallelism safe for figure/table reproduction:
//!
//! 1. **Order stability** — [`run_jobs`] writes each job's result into a
//!    pre-sized slot indexed by job id, never by completion order, so
//!    output order is independent of scheduling and of the job count.
//! 2. **Bit identity** — every job is self-contained (no shared mutable
//!    accumulators, no job-count-dependent work splitting), so each
//!    result's floating-point operations happen in the same order at any
//!    parallelism, and results are bit-identical to the serial path.
//!
//! [`Cache`] complements the pool: weights and traces are pure
//! functions of `(model, seed, …)` keys but expensive, so a sweep
//! computes each exactly once even when many jobs race on the same key
//! (the loser of the insertion race blocks on the winner's `OnceLock`
//! rather than recomputing).

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Worker count for a parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(NonZeroUsize);

impl Jobs {
    /// Exactly one worker — the serial reference path.
    pub const SERIAL: Jobs = Jobs(NonZeroUsize::MIN);

    /// A worker count of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        Self(NonZeroUsize::new(n).expect("job count must be at least 1"))
    }

    /// One worker per available hardware thread (the `--jobs` default);
    /// falls back to 1 if the platform cannot report parallelism.
    pub fn available() -> Self {
        Self(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Jobs {
    fn default() -> Self {
        Self::available()
    }
}

impl std::str::FromStr for Jobs {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Jobs::new(n)),
            _ => Err(format!("job count must be a positive integer, got `{s}`")),
        }
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Runs every job and returns their results **in job order**.
///
/// Jobs are distributed over at most `par` scoped worker threads via an
/// atomic work-stealing counter; each result lands in the slot of its
/// job's index, so the output is `[f(job 0), f(job 1), …]` regardless of
/// which worker ran what and in what order jobs finished. With `par` of
/// 1 (or a single job) everything runs inline on the caller's thread —
/// the serial path is literally the same code with the same ordering.
///
/// # Panics
///
/// Propagates the panic of any job (after all workers have stopped).
pub fn run_jobs<T, F>(jobs: Vec<F>, par: Jobs) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = par.get().min(n);
    if workers <= 1 {
        // The inline path wraps each job in the same "job" span as the
        // worker path, so a trace's structure is parallelism-invariant.
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                let _span = crate::trace::span_args("job", || vec![("index", i.into())]);
                f()
            })
            .collect();
    }

    // Slot per job: workers take the job out, run it, and store the
    // result under the same index. `Mutex<Option<…>>` keeps this std-only
    // and safe; each slot is touched exactly once so there is no
    // contention beyond the uncontended lock.
    let job_slots: Vec<Mutex<Option<F>>> =
        jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let result_slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let f = job_slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job taken twice");
                let out = {
                    let _span = crate::trace::span_args("job", || vec![("index", i.into())]);
                    f()
                };
                *result_slots[i].lock().expect("result slot poisoned") = Some(out);
            }));
        }
        // Join explicitly so a panicking worker doesn't leave siblings
        // detached mid-scope; re-raise the first panic after all stop.
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            if let Err(p) = h.join() {
                panic.get_or_insert(p);
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    });

    result_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without storing its result")
        })
        .collect()
}

/// A compute-once cache from keys to shared immutable artifacts, kept
/// either whole ([`Cache::unbounded`], for sweeps: every key is
/// revisited and nothing should ever be dropped) or to a least-recently-
/// used capacity ([`Cache::bounded`], for a long-lived server that sees
/// an unbounded key stream).
///
/// `get_or_compute` runs `compute` at most once per resident key, even
/// when many threads request the same key concurrently: the map hands
/// out one [`OnceLock`] cell per key, and `OnceLock::get_or_init`
/// serializes the computation while letting distinct keys proceed in
/// parallel (the map lock is never held while computing). Admitting a
/// new key to a full cache evicts the least-recently-used one; an
/// evicted key is simply recomputed on next request — values are pure
/// functions of their keys, so eviction affects cost, never results.
///
/// Request accounting distinguishes three outcomes: a **miss** ran the
/// computation, a **hit** found a completed value resident, and a
/// **shared** request arrived while another thread's computation for the
/// same key was still in flight — it paid (most of) the compute latency
/// even though its own closure never ran, so lumping it in with hits
/// would overstate how well the cache absorbs load.
pub struct Cache<K, V> {
    inner: Mutex<CacheInner<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    shared: AtomicU64,
    evictions: AtomicU64,
}

struct CacheInner<K, V> {
    map: HashMap<K, CacheEntry<V>>,
    /// LRU index: `last_used` tick → key. The access clock advances on
    /// every request, so ticks are unique and this is a total order over
    /// residents; the first entry is always the least-recently-used key,
    /// making eviction O(log n) instead of a whole-map scan under the
    /// lock.
    order: BTreeMap<u64, K>,
    /// Monotonic access clock for LRU ordering.
    tick: u64,
}

struct CacheEntry<V> {
    cell: Arc<OnceLock<Arc<V>>>,
    last_used: u64,
}

/// A point-in-time snapshot of one [`Cache`]'s request counters and
/// residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Requests served from a resident *completed* value.
    pub hits: u64,
    /// Requests that ran the computation.
    pub misses: u64,
    /// Requests that arrived while another thread's computation for the
    /// same key was in flight and shared its result (paying the wait).
    pub shared: u64,
    /// Entries evicted to make room so far.
    pub evictions: u64,
    /// Resident keys with a *completed* value.
    pub resident: usize,
}

impl<K: Eq + Hash + Clone, V> Cache<K, V> {
    /// An empty cache that never evicts.
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "bounded cache needs capacity of at least 1");
        Self {
            inner: Mutex::new(CacheInner { map: HashMap::new(), order: BTreeMap::new(), tick: 0 }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shared: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key`, computing it if absent and
    /// evicting the least-recently-used entry if the cache is full.
    ///
    /// Same-key requests share one computation while the key stays
    /// resident. A waiter holds the value cell by `Arc`, so evicting an
    /// in-flight key never cancels or corrupts its computation — the
    /// evictee just becomes invisible to new requests.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        let (cell, complete) = self.cell(key);
        let mut computed = false;
        let value = Arc::clone(cell.get_or_init(|| {
            computed = true;
            Arc::new(compute())
        }));
        let counter = if computed {
            &self.misses
        } else if complete {
            &self.hits
        } else {
            &self.shared
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Makes `value` resident under `key` without counting a request —
    /// for warming the cache ahead of traffic. A key that already holds
    /// a value keeps it (values are pure functions of their keys).
    pub fn insert(&self, key: K, value: V) {
        let (cell, _) = self.cell(key);
        let _ = cell.set(Arc::new(value));
    }

    /// The value cell for `key` — touched as most recently used, or
    /// admitted (evicting the LRU entry at capacity) — and whether it
    /// already held a completed value. `complete` is sampled under the
    /// map lock, so the hit/shared classification is fixed at
    /// acquisition time: a request that finds an in-flight cell counts
    /// as `shared` even if the computation finishes before it blocks.
    fn cell(&self, key: K) -> (Arc<OnceLock<Arc<V>>>, bool) {
        let mut inner = self.inner.lock().expect("cache map poisoned");
        inner.tick += 1;
        let now = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            let prev = entry.last_used;
            entry.last_used = now;
            let cell = Arc::clone(&entry.cell);
            let complete = cell.get().is_some();
            inner.order.remove(&prev);
            inner.order.insert(now, key);
            return (cell, complete);
        }
        if inner.map.len() >= self.capacity {
            let (_, lru) = inner.order.pop_first().expect("order index tracks the map");
            inner.map.remove(&lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let cell = Arc::new(OnceLock::new());
        inner.map.insert(key.clone(), CacheEntry { cell: Arc::clone(&cell), last_used: now });
        inner.order.insert(now, key);
        (cell, false)
    }

    /// The request counters and the number of resident completed values.
    pub fn counters(&self) -> CacheCounters {
        let resident = {
            let inner = self.inner.lock().expect("cache map poisoned");
            inner.map.values().filter(|e| e.cell.get().is_some()).count()
        };
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident,
        }
    }

    /// Drops every resident entry (counters are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache map poisoned");
        inner.map.clear();
        inner.order.clear();
    }
}

impl<K: Eq + Hash + Clone, V> Default for Cache<K, V> {
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_are_in_job_order_at_any_parallelism() {
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for par in [1, 2, 3, 8, 64] {
            let jobs: Vec<_> = (0..37).map(|i| move || i * i).collect();
            assert_eq!(run_jobs(jobs, Jobs::new(par)), expect, "par={par}");
        }
    }

    #[test]
    fn empty_and_single_job_sets_work() {
        let none: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![];
        assert!(run_jobs(none, Jobs::new(4)).is_empty());
        assert_eq!(run_jobs(vec![|| 7u8], Jobs::new(4)), vec![7]);
    }

    #[test]
    fn worker_panic_propagates() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job failure")),
            Box::new(|| 3),
        ];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_jobs(jobs, Jobs::new(2))
        }));
        assert!(r.is_err());
    }

    /// One cache per capacity regime, for tests whose case holds in both.
    fn both_capacities<V>() -> [(&'static str, Cache<u32, V>); 2] {
        [("unbounded", Cache::unbounded()), ("bounded", Cache::bounded(4))]
    }

    #[test]
    fn cache_computes_each_key_once() {
        let cache: Cache<u32, u32> = Cache::unbounded();
        let calls = AtomicU32::new(0);
        for _ in 0..5 {
            let v = cache.get_or_compute(3, || {
                calls.fetch_add(1, Ordering::SeqCst);
                30
            });
            assert_eq!(*v, 30);
        }
        cache.get_or_compute(2, || 20);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // Warm-up inserts are resident but are not request traffic.
        cache.insert(4, 40);
        cache.insert(3, 31);
        let want = CacheCounters { hits: 4, misses: 2, shared: 0, evictions: 0, resident: 3 };
        assert_eq!(cache.counters(), want);
        assert_eq!(*cache.get_or_compute(4, || unreachable!("inserted")), 40);
        assert_eq!(*cache.get_or_compute(3, || unreachable!("resident")), 30, "insert keeps");
        assert_eq!(cache.counters().hits, 6);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache: Cache<u32, u32> = Cache::bounded(2);
        cache.get_or_compute(1, || 10);
        cache.get_or_compute(2, || 20);
        // Touch 1 so 2 is the LRU, then admit 3.
        cache.get_or_compute(1, || unreachable!("resident"));
        cache.get_or_compute(3, || 30);
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.counters().resident, 2);
        // 2 was evicted and recomputes; 1 is still resident.
        let recomputed = std::cell::Cell::new(false);
        cache.get_or_compute(2, || {
            recomputed.set(true);
            20
        });
        assert!(recomputed.get(), "evicted key must recompute");
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 4));
        assert_eq!(c.shared, 0, "no concurrency here, nothing shared");
    }

    #[test]
    fn bounded_cache_eviction_order_pins_strict_lru() {
        // Pins the eviction policy: the victim is the least recently
        // *used* key (touches refresh recency), not the oldest insert.
        let cache: Cache<u32, u32> = Cache::bounded(3);
        for k in [1, 2, 3] {
            cache.get_or_compute(k, || k);
        }
        // Recency order is now 1 < 2 < 3; refresh 1 then 2 → 3 < 1 < 2.
        cache.get_or_compute(1, || unreachable!("resident"));
        cache.get_or_compute(2, || unreachable!("resident"));
        // Admitting 4 must evict 3.
        cache.get_or_compute(4, || 4);
        assert_eq!(cache.counters().evictions, 1);
        cache.get_or_compute(1, || unreachable!("1 survived the eviction"));
        cache.get_or_compute(2, || unreachable!("2 survived the eviction"));
        let recomputed = std::cell::Cell::new(false);
        cache.get_or_compute(3, || {
            recomputed.set(true);
            3
        });
        assert!(recomputed.get(), "3 was the LRU victim");
        assert_eq!(cache.counters().evictions, 2, "re-admitting 3 evicts again at capacity");
    }

    #[test]
    fn cache_counts_in_flight_waiters_as_shared() {
        // Pins the accounting split at both capacities: a request that
        // finds a *completed* value is a hit; one that arrives while the
        // computation is still in flight is `shared` (it waited the
        // compute time, so it must not inflate the hit rate).
        // Classification happens under the map lock, so releasing the
        // computation afterwards cannot flip it.
        use std::sync::mpsc;
        for (label, cache) in both_capacities::<u32>() {
            let (entered_tx, entered_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel();
            let cache = &cache;
            std::thread::scope(|s| {
                s.spawn(move || {
                    cache.get_or_compute(1, || {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        10
                    });
                });
                entered_rx.recv().unwrap();
                // The computation is now provably in flight.
                let waiter = s.spawn(|| *cache.get_or_compute(1, || unreachable!("in flight")));
                // Give the waiter time to classify itself before releasing.
                std::thread::sleep(std::time::Duration::from_millis(20));
                release_tx.send(()).unwrap();
                assert_eq!(waiter.join().unwrap(), 10);
            });
            let c = cache.counters();
            assert_eq!((c.hits, c.misses, c.shared), (0, 1, 1), "{label}: waiter is shared");
            cache.get_or_compute(1, || unreachable!("resident"));
            assert_eq!(cache.counters().hits, 1, "{label}: completed lookups stay hits");
        }
    }

    #[test]
    fn bounded_cache_clear_and_counters() {
        let cache: Cache<u32, u32> = Cache::bounded(8);
        for k in 0..5 {
            cache.get_or_compute(k, || k * 10);
        }
        assert_eq!(cache.counters().resident, 5);
        cache.clear();
        assert_eq!(cache.counters().resident, 0);
        assert_eq!(cache.counters().misses, 5, "counters survive clear");
        cache.get_or_compute(0, || 0);
        assert_eq!(cache.counters().misses, 6, "cleared keys recompute");
    }

    #[test]
    fn concurrent_same_key_requests_share_one_computation() {
        for (label, cache) in both_capacities::<u64>() {
            let calls = AtomicU32::new(0);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| {
                            *cache.get_or_compute(9, || {
                                calls.fetch_add(1, Ordering::SeqCst);
                                // Widen the race window.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                900
                            })
                        })
                    })
                    .collect();
                for h in handles {
                    assert_eq!(h.join().unwrap(), 900);
                }
            });
            assert_eq!(calls.load(Ordering::SeqCst), 1, "{label}");
            let c = cache.counters();
            assert_eq!(c.misses, 1, "{label}");
            // The 7 non-computing threads each either found the value
            // already complete (hit) or waited on the in-flight
            // computation (shared) — the split depends on scheduling,
            // the sum does not.
            assert_eq!(c.hits + c.shared, 7, "{label}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity of at least 1")]
    fn bounded_cache_rejects_zero_capacity() {
        let _ = Cache::<u32, u32>::bounded(0);
    }

    #[test]
    fn jobs_parse_and_clamp() {
        assert_eq!("4".parse::<Jobs>().unwrap().get(), 4);
        assert!("0".parse::<Jobs>().is_err());
        assert!("x".parse::<Jobs>().is_err());
        assert!(Jobs::available().get() >= 1);
        assert_eq!(Jobs::SERIAL.get(), 1);
    }
}
