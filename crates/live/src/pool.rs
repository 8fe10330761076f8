//! The [`PipelinePool`]: a session-id-keyed pool of [`LivePipeline`]s for
//! operator-scale concurrent diagnosis.
//!
//! A fleet diagnoser watches many calls at once, and calls start and end
//! continuously. Building a fresh [`LivePipeline`] per call start would
//! re-allocate every reorder buffer, the in-flight packet ring, and the
//! streaming analyzer's rolling state each time; the pool instead keeps
//! finished pipelines on a free list ordered by release recency and hands
//! the most recently used one (its buffers still cache-warm and grown to
//! the workload's high-water marks) to the next call. The free list is
//! LRU-bounded: when more pipelines are idle than [`PipelinePool::max_free`],
//! the *least* recently used are dropped, so a traffic spike does not pin
//! its peak footprint forever.
//!
//! **Reuse-correctness contract:** a pipeline leased from the free list is
//! [`LivePipeline::reset`] on checkout, so the session it watches produces
//! output byte-identical to a fresh pipeline's — enforced by the pool reuse
//! and eviction determinism tests in `tests/live_equivalence.rs`.

use simcore::IdMap;

use domino_core::detect::DominoConfig;
use domino_core::graph::CausalGraph;
use domino_core::stream::UnsupportedConfig;

use crate::pipeline::{LiveConfig, LivePipeline, LiveStats};

/// Lifetime counters of a [`PipelinePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Pipelines constructed from scratch (free list was empty).
    pub created: usize,
    /// Checkouts served from the free list (allocation-free).
    pub reused: usize,
    /// Idle pipelines dropped because the free list exceeded its bound.
    pub evicted: usize,
}

/// A pool of [`LivePipeline`]s keyed by session id, with an LRU-bounded
/// free list (see the module docs).
///
/// ```no_run
/// use domino_live::{LiveConfig, PipelinePool};
/// let mut pool = PipelinePool::with_defaults(LiveConfig::default()).unwrap();
/// let pipe = pool.checkout(7); // lease for session 7 (reset, ready)
/// // ... drive the session's tap events through `pipe` ...
/// let stats = pool.release(7); // back onto the free list, warm
/// ```
pub struct PipelinePool {
    graph: CausalGraph,
    cfg: DominoConfig,
    live: LiveConfig,
    /// Leased pipelines, keyed by session id. Width is small (one entry
    /// per concurrently watched call on this worker), so a map keeps
    /// `get_mut` O(1) without any ordering bookkeeping. Drivers call
    /// `get_mut` for every tick of every call, so the map hashes with the
    /// cheap [`simcore::IdHasher`] rather than SipHash.
    active: IdMap<LivePipeline>,
    /// Idle pipelines, least recently used first: [`Self::release`] pushes
    /// to the back, [`Self::checkout`] pops from the back (warmest), and
    /// eviction drops from the front.
    free: Vec<LivePipeline>,
    max_free: usize,
    stats: PoolStats,
}

impl PipelinePool {
    /// Default bound on idle pipelines retained for reuse.
    pub(crate) const DEFAULT_MAX_FREE: usize = 32;

    /// Creates a pool over `graph` with the given engine and live
    /// configurations, or reports why the configuration cannot run on the
    /// exact incremental path (same alignment contract as
    /// [`LivePipeline::new`]; validated once here, so checkouts are
    /// infallible).
    pub fn new(
        graph: CausalGraph,
        cfg: DominoConfig,
        live: LiveConfig,
    ) -> Result<Self, UnsupportedConfig> {
        // The probe both validates the configuration and seeds the free
        // list, so the first checkout is already a (cold-buffer) reuse.
        let probe = LivePipeline::new(graph.clone(), cfg.clone(), live)?;
        Ok(PipelinePool {
            graph,
            cfg,
            live,
            active: IdMap::default(),
            free: vec![probe],
            max_free: Self::DEFAULT_MAX_FREE,
            stats: PoolStats::default(),
        })
    }

    /// A pool over the paper's default graph and engine configuration.
    pub fn with_defaults(live: LiveConfig) -> Result<Self, UnsupportedConfig> {
        Self::new(
            domino_core::dsl::default_graph(),
            DominoConfig::default(),
            live,
        )
    }

    /// Sets the free-list bound (builder style). `0` disables reuse
    /// entirely — every checkout constructs, every release drops.
    pub fn max_free(mut self, n: usize) -> Self {
        self.max_free = n;
        self.evict_over_bound();
        self
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Idle pipelines available for reuse.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Leases a pipeline for `session`: the most recently released one
    /// (reset, so its output is byte-identical to a fresh pipeline's) or a
    /// newly built one when the free list is empty.
    ///
    /// # Panics
    ///
    /// If `session` is already leased — session ids must be unique among
    /// concurrently watched calls.
    pub fn checkout(&mut self, session: u64) -> &mut LivePipeline {
        assert!(
            !self.active.contains_key(&session),
            "session {session} already has a leased pipeline"
        );
        let pipe = match self.free.pop() {
            Some(mut p) => {
                p.reset();
                // A previous lease may have overridden the live config
                // (per-spec lateness); restore the pool-wide default so
                // reuse is indistinguishable from a fresh build.
                p.set_live_config(self.live);
                self.stats.reused += 1;
                p
            }
            None => {
                self.stats.created += 1;
                LivePipeline::new(self.graph.clone(), self.cfg.clone(), self.live)
                    .expect("configuration validated at pool construction")
            }
        };
        self.active.entry(session).or_insert(pipe)
    }

    /// The pipeline currently leased for `session`.
    pub fn get_mut(&mut self, session: u64) -> Option<&mut LivePipeline> {
        self.active.get_mut(&session)
    }

    /// Returns `session`'s pipeline to the free list (most-recent end) and
    /// reports its final counters, or `None` if the session holds no lease.
    /// Callers should [`LivePipeline::take_analysis`] /
    /// [`LivePipeline::drain_verdicts`] *before* releasing: the pipeline is
    /// only reset at its next checkout, but may be evicted any time it
    /// sits on the free list.
    pub fn release(&mut self, session: u64) -> Option<LiveStats> {
        let pipe = self.active.remove(&session)?;
        let stats = pipe.stats();
        self.free.push(pipe);
        self.evict_over_bound();
        Some(stats)
    }

    fn evict_over_bound(&mut self) {
        while self.free.len() > self.max_free {
            // Front = least recently used.
            self.free.remove(0);
            self.stats.evicted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PipelinePool {
        PipelinePool::with_defaults(LiveConfig::default()).expect("default config is aligned")
    }

    #[test]
    fn checkout_release_cycles_reuse_the_free_list() {
        let mut p = pool();
        assert_eq!(p.free_len(), 1, "probe seeds the free list");
        p.checkout(1);
        assert_eq!((p.active.len(), p.free_len()), (1, 0));
        assert_eq!(p.stats().reused, 1, "probe reused");
        assert!(p.release(1).is_some());
        assert_eq!((p.active.len(), p.free_len()), (0, 1));
        // Second cycle: same storage, no construction.
        p.checkout(2);
        assert_eq!(
            p.stats(),
            PoolStats {
                created: 0,
                reused: 2,
                evicted: 0
            }
        );
    }

    #[test]
    fn concurrent_sessions_get_distinct_pipelines() {
        let mut p = pool();
        for sid in 0..4 {
            p.checkout(sid);
        }
        assert_eq!(p.active.len(), 4);
        assert_eq!(p.stats().created, 3, "one probe + three fresh builds");
        assert!(p.get_mut(3).is_some());
        assert!(p.get_mut(4).is_none());
        for sid in 0..4 {
            assert!(p.release(sid).is_some());
        }
        assert_eq!(p.free_len(), 4);
    }

    #[test]
    fn free_list_is_lru_bounded() {
        let mut p = pool().max_free(2);
        for sid in 0..5 {
            p.checkout(sid);
        }
        for sid in 0..5 {
            p.release(sid);
        }
        assert_eq!(p.free_len(), 2);
        assert_eq!(p.stats().evicted, 3);
        // max_free(0) drops everything on release.
        let mut p = pool().max_free(0);
        assert_eq!(p.free_len(), 0, "probe evicted by the zero bound");
        p.checkout(9);
        p.release(9);
        assert_eq!(p.free_len(), 0);
        assert_eq!(p.stats().evicted, 2);
    }

    #[test]
    fn duplicate_lease_panics() {
        let mut p = pool();
        p.checkout(5);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.checkout(5);
        }));
        assert!(err.is_err());
    }

    #[test]
    fn release_without_lease_is_none() {
        let mut p = pool();
        assert!(p.release(42).is_none());
    }

    #[test]
    fn unaligned_config_is_rejected_once_at_pool_construction() {
        let odd = DominoConfig {
            step: simcore::SimDuration::from_millis(333),
            ..Default::default()
        };
        assert!(PipelinePool::new(
            domino_core::dsl::default_graph(),
            odd,
            LiveConfig::default()
        )
        .is_err());
    }
}
