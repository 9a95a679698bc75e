//! The content-addressed design cache.
//!
//! Submissions are keyed by a content hash of the *parsed* module (the
//! canonical Verilog re-print, so formatting differences in the
//! submitted source collapse to one key). A cache entry holds the
//! expensive per-design artifacts — the parsed [`Module`], its
//! elaboration, and parked [`Checker`]s whose bit-blasted AIG,
//! reachable state set and explicit-engine successor caches stay warm
//! between requests — under a bounded LRU with hit/miss/eviction
//! counters.
//!
//! Reuse is outcome-preserving by construction: a parked checker is
//! [`Checker::reset_for_reuse`]d (fresh sessions, zeroed stats), so a
//! cached run's [`goldmine::ClosureOutcome`] is byte-identical to a cold
//! one's.

use gm_cache::BoundedLru;
use gm_mc::Checker;
use gm_rtl::{Elab, Module};
use goldmine::CompiledModule;
use std::sync::Arc;

/// Cache counters (also folded into
/// [`crate::protocol::ServeStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// The LRU bound.
    pub capacity: usize,
    /// Submissions that found their design cached.
    pub hits: u64,
    /// Submissions that had to build artifacts.
    pub misses: u64,
    /// Entries evicted for any reason (the sum of the per-reason
    /// counters below).
    pub evictions: u64,
    /// Entries evicted by the entry-count bound.
    pub evictions_capacity: u64,
    /// Entries evicted LRU-first to get back under the byte budget.
    pub evictions_bytes: u64,
    /// Resident entries dropped because a 64-bit key collision would
    /// otherwise serve the wrong design.
    pub evictions_collision: u64,
    /// Approximate resident bytes (sources, parked checkers' sessions
    /// and design artifacts, parked compiled tapes — an estimate).
    pub approx_bytes: usize,
    /// The byte budget (0 = unbounded).
    pub max_bytes: usize,
    /// Compiled instruction tapes built and parked into entries.
    pub compiled_built: u64,
    /// Checkouts that handed out a parked compiled tape instead of
    /// recompiling.
    pub compiled_reused: u64,
}

/// The shared artifacts of one cached design.
#[derive(Debug)]
pub struct CachedDesign {
    /// The parsed module.
    pub module: Arc<Module>,
    /// Its elaboration (mining specs and blasting both consume it).
    pub elab: Arc<Elab>,
    /// Checkers parked by finished jobs, ready for the next request of
    /// this design. Bounded by [`MAX_PARKED_PER_DESIGN`]: a burst of
    /// queued same-design jobs can otherwise build (and park) one
    /// checker per job, not per concurrent worker.
    parked: Vec<Checker>,
    /// The compiled instruction tapes for this design, parked by the
    /// first job that built each, slotted by compile options: index 0
    /// holds the probe-free tape ([`goldmine::CompileOptions`]
    /// `probes: false`),
    /// index 1 the probed one. Probed tapes also serve probe-free
    /// requests (the probes are a superset; engines ignore them when
    /// coverage is off), but never vice versa. Compiled tapes are
    /// immutable and all
    /// run methods take `&self`, so one `Arc` feeds any number of
    /// concurrent engines (unlike checkers, which are checked out
    /// exclusively).
    compiled: [Option<Arc<CompiledModule>>; 2],
    /// The canonical source — the collision guard: a hit must match it
    /// exactly, so a 64-bit key collision can never hand out the wrong
    /// design's artifacts.
    canonical: String,
}

/// Approximate resident size of one cache entry.
fn entry_bytes(e: &CachedDesign) -> usize {
    e.canonical.len()
        + e.parked.iter().map(Checker::approx_bytes).sum::<usize>()
        + e.compiled
            .iter()
            .flatten()
            .map(|c| c.approx_bytes())
            .sum::<usize>()
}

/// What [`DesignCache::checkout`] hands the caller.
#[derive(Debug)]
pub struct Checkout {
    /// The parsed module.
    pub module: Arc<Module>,
    /// Its elaboration.
    pub elab: Arc<Elab>,
    /// A parked warm checker, when one is available (`None` on cold
    /// entries, or when every parked checker is out with a concurrently
    /// running job — the caller builds a fresh one from the
    /// elaboration).
    pub checker: Option<Checker>,
    /// A parked compiled tape satisfying the checkout's `want_probes`,
    /// when the entry holds one (an `Arc` clone — the entry keeps its
    /// copy for concurrent and later jobs). A probed tape is handed out
    /// for a probe-free want when no probe-free tape is parked.
    pub compiled: Option<Arc<CompiledModule>>,
    /// Whether the design was already cached.
    pub hit: bool,
}

/// Most warm checkers retained per design — enough to feed every
/// worker of a typical pool; excess checkers from bursty same-design
/// queues are dropped at park time.
const MAX_PARKED_PER_DESIGN: usize = 8;

/// The canonical form a design is addressed by: its re-printed
/// Verilog, so formatting differences in submitted source collapse.
pub fn canonical_form(module: &Module) -> String {
    gm_rtl::to_verilog(module)
}

/// FNV-1a 64-bit over a canonical form: the content address. The hash
/// only routes lookups — [`DesignCache::checkout`] compares the full
/// canonical text on every hit, so collisions cost a rebuild, never a
/// wrong design.
pub fn key_of(canonical: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// [`key_of`] ∘ [`canonical_form`] — convenience for one-off callers
/// (hot paths compute the canonical form once and reuse it).
pub fn content_key(module: &Module) -> String {
    key_of(&canonical_form(module))
}

/// A bounded-LRU map from content key to design artifacts. Lookup,
/// insert and eviction are O(1) via the shared
/// [`gm_cache::BoundedLru`]; the hit/miss/eviction counters and byte
/// accounting live here.
#[derive(Debug)]
pub struct DesignCache {
    map: BoundedLru<String, CachedDesign>,
    /// Byte budget over every entry's [`entry_bytes`] (0 = unbounded).
    max_bytes: usize,
    /// The event counters, updated where the event happens; the fields
    /// read off the map (`entries`, `capacity`, `approx_bytes`, …) stay
    /// zero here and are filled by [`DesignCache::stats`].
    counters: CacheStats,
}

impl DesignCache {
    /// An empty cache bounded to `capacity` designs (at least 1), with
    /// no byte budget.
    pub fn new(capacity: usize) -> Self {
        DesignCache::with_max_bytes(capacity, 0)
    }

    /// An empty cache bounded to `capacity` designs *and* (when
    /// `max_bytes > 0`) to approximately `max_bytes` resident bytes,
    /// evicting LRU-first until back under budget. The entry most
    /// recently checked out is never evicted for bytes — when it alone
    /// exceeds the budget its warm extras (parked checkers, compiled
    /// tape) are shed instead, so an oversized design degrades to
    /// cold-cache behavior rather than thrashing.
    pub fn with_max_bytes(capacity: usize, max_bytes: usize) -> Self {
        DesignCache {
            map: BoundedLru::with_capacity(capacity),
            max_bytes,
            counters: CacheStats::default(),
        }
    }

    /// Approximate resident bytes across all entries.
    fn resident_bytes(&self) -> usize {
        self.map.values().map(entry_bytes).sum()
    }

    /// Evicts LRU-first until the byte budget holds again. Called after
    /// every operation that can grow an entry (insert, park). When only
    /// one entry remains over budget, its parked checkers (oldest
    /// first) and compiled tapes (probe-free slot first — the probed
    /// tape can still serve both kinds of request) are shed instead of
    /// the entry itself.
    fn enforce_byte_budget(&mut self) {
        if self.max_bytes == 0 {
            return;
        }
        while self.map.len() > 1 && self.resident_bytes() > self.max_bytes {
            self.map.pop_lru();
            self.counters.evictions_bytes += 1;
        }
        if self.resident_bytes() > self.max_bytes {
            if let Some((key, mut entry)) = self.map.pop_lru() {
                let base = self.resident_bytes();
                while !entry.parked.is_empty() && base + entry_bytes(&entry) > self.max_bytes {
                    entry.parked.remove(0);
                }
                if base + entry_bytes(&entry) > self.max_bytes {
                    entry.compiled[0] = None;
                }
                if base + entry_bytes(&entry) > self.max_bytes {
                    entry.compiled[1] = None;
                }
                self.map.insert(key, entry);
            }
        }
    }

    /// Whether `key` is resident *and* its canonical form matches (no
    /// counter or stamp effects — used to decide whether artifacts must
    /// be built before taking a lock).
    pub fn matches(&self, key: &str, canonical: &str) -> bool {
        self.map.peek(key).is_some_and(|e| e.canonical == canonical)
    }

    /// Looks `key` up, counting a hit or miss and refreshing the LRU
    /// stamp. A hit requires the resident entry's canonical form to
    /// equal `canonical` byte-for-byte — a hash collision (resident
    /// entry with a *different* canonical form) is handled as a miss
    /// that replaces the entry, so artifacts never cross designs. On a
    /// miss, `build` supplies the artifacts (the evicting insert
    /// happens before returning).
    ///
    /// `want_probes` selects which parked tape (if any) rides along:
    /// `None` means the job simulates without a tape (interpreter
    /// backend), `Some(p)` asks for a tape whose probes match `p` — a
    /// probed tape also satisfies `Some(false)` since its probes are a
    /// superset the engine ignores when coverage is off.
    pub fn checkout<E>(
        &mut self,
        key: &str,
        canonical: &str,
        want_probes: Option<bool>,
        build: impl FnOnce() -> Result<(Arc<Module>, Arc<Elab>), E>,
    ) -> Result<Checkout, E> {
        let mut collision = false;
        if let Some(entry) = self.map.get_mut(key) {
            if entry.canonical == canonical {
                self.counters.hits += 1;
                let compiled = match want_probes {
                    None => None,
                    Some(p) => entry.compiled[usize::from(p)].clone().or_else(|| {
                        if p {
                            None
                        } else {
                            entry.compiled[1].clone()
                        }
                    }),
                };
                if compiled.is_some() {
                    self.counters.compiled_reused += 1;
                }
                return Ok(Checkout {
                    module: entry.module.clone(),
                    elab: entry.elab.clone(),
                    checker: entry.parked.pop(),
                    compiled,
                    hit: true,
                });
            }
            collision = true;
        }
        if collision {
            // 64-bit collision: drop the resident design rather than
            // ever serving the wrong artifacts.
            self.map.remove(key);
            self.counters.evictions_collision += 1;
        }
        self.counters.misses += 1;
        let (module, elab) = build()?;
        let entry = CachedDesign {
            module: module.clone(),
            elab: elab.clone(),
            parked: Vec::new(),
            compiled: [None, None],
            canonical: canonical.to_string(),
        };
        self.map.insert(key.to_string(), entry);
        while self.map.pop_over_capacity().is_some() {
            self.counters.evictions_capacity += 1;
        }
        self.enforce_byte_budget();
        Ok(Checkout {
            module,
            elab,
            checker: None,
            compiled: None,
            hit: false,
        })
    }

    /// Parks a finished job's checker back into its entry. The entry
    /// must still hold the *same design* (`canonical` is compared, not
    /// just the key — a collision replacement while the job ran must
    /// not receive another design's checker); otherwise the checker is
    /// dropped. Eviction only forgets warm state, never correctness.
    pub fn park(&mut self, key: &str, canonical: &str, checker: Checker) {
        // `peek_mut`: parking warms the entry but is not a use — only
        // checkouts refresh recency, as the stamp version behaved.
        if let Some(entry) = self.map.peek_mut(key) {
            if entry.canonical == canonical && entry.parked.len() < MAX_PARKED_PER_DESIGN {
                entry.parked.push(checker);
            }
        }
        self.enforce_byte_budget();
    }

    /// Parks the compiled instruction tape a job built for this design,
    /// counting the build. The tape lands in the slot matching its
    /// compile options (probed vs probe-free — the entry records what
    /// each parked tape observes). Subject to the same collision guard
    /// as [`DesignCache::park`]; an entry whose slot already holds a
    /// tape keeps its existing one (compilation is deterministic — they
    /// are equivalent).
    pub fn park_compiled(&mut self, key: &str, canonical: &str, compiled: Arc<CompiledModule>) {
        self.counters.compiled_built += 1;
        if let Some(entry) = self.map.peek_mut(key) {
            let slot = usize::from(compiled.has_probes());
            if entry.canonical == canonical && entry.compiled[slot].is_none() {
                entry.compiled[slot] = Some(compiled);
            }
        }
        self.enforce_byte_budget();
    }

    /// Drops `key`'s entry entirely — module, elab, parked checkers and
    /// compiled tapes. The retry path calls this when a job failed in a
    /// way that may implicate the cached artifacts (a worker panic, an
    /// injected checkout fault): the retry rebuilds from source instead
    /// of re-running on possibly-poisoned warm state. Not counted as an
    /// eviction — the eviction counters keep meaning "the budget pushed
    /// a good entry out" (and their capacity/bytes/collision split keeps
    /// summing to the total); retries are visible through the service's
    /// own `jobs_retried` counter. Returns whether an entry was dropped.
    pub fn invalidate(&mut self, key: &str) -> bool {
        self.map.remove(key).is_some()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let c = self.counters;
        CacheStats {
            entries: self.map.len(),
            capacity: self.map.capacity(),
            evictions: c.evictions_capacity + c.evictions_bytes + c.evictions_collision,
            approx_bytes: self.resident_bytes(),
            max_bytes: self.max_bytes,
            ..c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_rtl::parse_verilog;

    fn build(src: &str) -> (Arc<Module>, Arc<Elab>) {
        let m = parse_verilog(src).unwrap();
        let e = gm_rtl::elaborate(&m).unwrap();
        (Arc::new(m), Arc::new(e))
    }

    const A: &str = "module a(input x, output y); assign y = x; endmodule";
    const B: &str = "module b(input x, output y); assign y = ~x; endmodule";
    const C: &str = "module c(input x, output y); assign y = x; endmodule";

    #[test]
    fn content_key_ignores_formatting_but_not_structure() {
        let m1 = parse_verilog(A).unwrap();
        let m2 =
            parse_verilog("module a(input x,\n         output y);\n  assign y = x;\nendmodule")
                .unwrap();
        assert_eq!(content_key(&m1), content_key(&m2));
        assert_ne!(content_key(&m1), content_key(&parse_verilog(B).unwrap()));
        // Same body, different module name: different design.
        assert_ne!(content_key(&m1), content_key(&parse_verilog(C).unwrap()));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = DesignCache::new(2);
        let (ka, kb, kc) = ("a", "b", "c");
        let ok = |src: &'static str| move || Ok::<_, ()>(build(src));
        cache.checkout(ka, A, Some(true), ok(A)).unwrap();
        cache.checkout(kb, B, Some(true), ok(B)).unwrap();
        // Touch A so B is the LRU victim when C arrives.
        assert!(cache.checkout(ka, A, Some(true), ok(A)).unwrap().hit);
        cache.checkout(kc, C, Some(true), ok(C)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        // A (recently touched) survived…
        assert!(cache.checkout(ka, A, Some(true), ok(A)).unwrap().hit);
        // …and B was evicted: checking it out again is a miss.
        let back = cache.checkout(kb, B, Some(true), ok(B)).unwrap();
        assert!(!back.hit);
        assert!(back.checker.is_none());
    }

    #[test]
    fn a_key_collision_never_serves_the_wrong_design() {
        // Force a "collision" by reusing one key for two different
        // canonical forms: the second checkout must NOT hit.
        let mut cache = DesignCache::new(4);
        let ok = |src: &'static str| move || Ok::<_, ()>(build(src));
        cache.checkout("k", A, Some(true), ok(A)).unwrap();
        let other = cache.checkout("k", B, Some(true), ok(B)).unwrap();
        assert!(!other.hit, "colliding canonical forms are a miss");
        assert_eq!(other.module.name(), "b");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1, "the resident collider was dropped");
        assert!(!cache.matches("k", A));
        assert!(cache.matches("k", B));
        // A checker from the replaced design must not attach to the
        // new resident under the shared key.
        let a = parse_verilog(A).unwrap();
        cache.park("k", A, Checker::new(&a).unwrap());
        let again = cache.checkout("k", B, Some(true), ok(B)).unwrap();
        assert!(again.hit);
        assert!(
            again.checker.is_none(),
            "the stale design's checker must be dropped, not served"
        );
    }

    #[test]
    fn parked_checkers_come_back_and_dropped_ones_are_harmless() {
        let mut cache = DesignCache::new(1);
        let ok = |src: &'static str| move || Ok::<_, ()>(build(src));
        let cold = cache.checkout("a", A, Some(true), ok(A)).unwrap();
        assert!(
            cold.checker.is_none(),
            "cold entries have no parked checker"
        );
        cache.park("a", A, Checker::new(&cold.module).unwrap());
        let warm = cache.checkout("a", A, Some(true), ok(A)).unwrap();
        assert!(warm.hit && warm.checker.is_some());
        assert!(cache.stats().approx_bytes > 0);
        // Evict "a" while its checker is out; parking it back is a no-op.
        cache.checkout("b", B, Some(true), ok(B)).unwrap();
        cache.park("a", A, warm.checker.unwrap());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn compiled_tapes_are_slotted_by_probe_options() {
        use goldmine::{CompileOptions, CompiledModule};
        let mut cache = DesignCache::new(2);
        let ok = |src: &'static str| move || Ok::<_, ()>(build(src));
        let cold = cache.checkout("a", A, Some(true), ok(A)).unwrap();
        assert!(cold.compiled.is_none(), "cold entries hold no tape");
        let probed = Arc::new(CompiledModule::compile(&cold.module).unwrap());
        let bare = Arc::new(
            CompiledModule::compile_with(&cold.module, CompileOptions { probes: false }).unwrap(),
        );
        cache.park_compiled("a", A, probed.clone());
        // A probed tape serves both probed and probe-free wants…
        let want_probed = cache.checkout("a", A, Some(true), ok(A)).unwrap();
        assert!(want_probed.compiled.is_some_and(|c| c.has_probes()));
        let want_bare = cache.checkout("a", A, Some(false), ok(A)).unwrap();
        assert!(want_bare.compiled.is_some_and(|c| c.has_probes()));
        // …an interpreter job takes none…
        let no_tape = cache.checkout("a", A, None, ok(A)).unwrap();
        assert!(no_tape.compiled.is_none());
        // …and once a probe-free tape is parked, probe-free wants get
        // the exact match while probed wants keep theirs.
        cache.park_compiled("a", A, bare);
        let exact = cache.checkout("a", A, Some(false), ok(A)).unwrap();
        assert!(exact.compiled.is_some_and(|c| !c.has_probes()));
        let still = cache.checkout("a", A, Some(true), ok(A)).unwrap();
        assert!(still.compiled.is_some_and(|c| c.has_probes()));
        let stats = cache.stats();
        assert_eq!(stats.compiled_built, 2);
        assert_eq!(
            stats.compiled_reused, 4,
            "only tape-carrying checkouts count"
        );
    }
}
