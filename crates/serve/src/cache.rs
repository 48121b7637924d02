//! Sharded response cache keyed by plan signature: a frequency-sketch
//! admission filter in front of a CLOCK ring.
//!
//! Recurring jobs dominate production serving traffic, so answering a
//! resubmitted plan from cache — skipping stage extraction, featurization
//! and model inference entirely — is the single highest-leverage serving
//! optimization. A key selects a shard (keeping lock contention off the
//! hot path); each shard is a CLOCK ring behind a count-min sketch of
//! recent lookups. An insert into a full shard displaces the hand's first
//! unreferenced entry only when the sketch rates the candidate more
//! frequent (TinyLFU; Einziger et al., ACM ToS 2017), so a never-seen plan
//! costs a sketch compare, not the eviction of a recurring one. Halving
//! every counter after ten lookups per slot lets entries that stop being
//! probed (a swapped-out model generation's) age out.

use std::collections::HashMap;
use tasq::pipeline::ScoreResponse;
use tasq_obs::sync::{Mutex, Rank};

/// Cache sizing and switches.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Master switch; a disabled cache misses every lookup and stores
    /// nothing (the baseline configuration for benchmarking).
    pub enabled: bool,
    /// Total entry capacity across all shards.
    pub capacity: usize,
    /// Number of independent shards (clamped to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { enabled: true, capacity: 4096, shards: 8 }
    }
}

/// Counter snapshot for monitoring and the bench report.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that fell through to the model path.
    pub misses: u64,
    /// Entries displaced by an admitted key.
    pub evictions: u64,
    /// New keys stored; overwrites are not counted, so
    /// `insertions == entries + evictions`.
    pub insertions: u64,
    /// New keys refused by a full shard: each insert of a new key into a
    /// full shard counts once, here or in `evictions`.
    pub rejected: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const SKETCH_ROWS: usize = 4;
/// Counters saturate at the 4-bit maximum (held in bytes).
const COUNTER_MAX: u8 = 15;

/// Count-min sketch of recent lookups, every counter halved after
/// `sample` increments.
struct Sketch {
    counters: Vec<u8>,
    width: usize,
    increments: usize,
    sample: usize,
}

impl Sketch {
    fn new(capacity: usize) -> Self {
        let width = (4 * capacity).next_power_of_two();
        Self { counters: vec![0; SKETCH_ROWS * width], width, increments: 0, sample: 10 * capacity }
    }

    /// One counter per row: double hashing over a splitmix remix of the
    /// key, so no row reuses the bits that chose the shard.
    fn positions(&self, key: u64) -> [usize; SKETCH_ROWS] {
        let mut h = (key ^ (key >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let step = (h >> 32) | 1;
        std::array::from_fn(|row| {
            row * self.width + (h.wrapping_add(row as u64 * step) as usize & (self.width - 1))
        })
    }

    fn increment(&mut self, key: u64) {
        for at in self.positions(key) {
            self.counters[at] = (self.counters[at] + 1).min(COUNTER_MAX);
        }
        self.increments += 1;
        if self.increments == self.sample {
            self.increments = 0;
            for counter in &mut self.counters {
                *counter >>= 1;
            }
        }
    }

    fn estimate(&self, key: u64) -> u8 {
        self.positions(key).iter().map(|&at| self.counters[at]).min().unwrap_or(0)
    }
}

struct Slot {
    key: u64,
    referenced: bool,
    response: ScoreResponse,
}

/// A CLOCK ring (slots, their index by key, a hand) plus the shard's
/// sketch and counters; `stats.entries` is filled in at snapshot time.
struct Shard {
    slots: Vec<Slot>,
    index: HashMap<u64, usize>,
    hand: usize,
    sketch: Sketch,
    stats: CacheStats,
}

impl Shard {
    fn insert(&mut self, key: u64, response: ScoreResponse, capacity: usize) {
        if let Some(&at) = self.index.get(&key) {
            self.slots[at].response = response;
            return;
        }
        if self.slots.len() < capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push(Slot { key, referenced: false, response });
            self.stats.insertions += 1;
            return;
        }
        // Second chance: each step clears a referenced bit, so the sweep
        // ends within one revolution.
        while self.slots[self.hand].referenced {
            self.slots[self.hand].referenced = false;
            self.hand = (self.hand + 1) % self.slots.len();
        }
        let victim = &mut self.slots[self.hand];
        if self.sketch.estimate(key) <= self.sketch.estimate(victim.key) {
            self.stats.rejected += 1;
            return;
        }
        self.index.remove(&victim.key);
        *victim = Slot { key, referenced: false, response };
        self.index.insert(key, self.hand);
        self.hand = (self.hand + 1) % self.slots.len();
        self.stats.insertions += 1;
        self.stats.evictions += 1;
    }
}

/// The sharded signature-keyed response cache.
pub struct SignatureCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    enabled: bool,
}

impl SignatureCache {
    /// Build from a config; capacity is split evenly across shards with a
    /// floor of one entry per shard.
    pub fn new(config: &CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard_capacity = (config.capacity / shards).max(1);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(
                        Rank::CacheShard,
                        Shard {
                            slots: Vec::new(),
                            index: HashMap::new(),
                            hand: 0,
                            sketch: Sketch::new(per_shard_capacity),
                            stats: CacheStats::default(),
                        },
                    )
                })
                .collect(),
            per_shard_capacity,
            enabled: config.enabled,
        }
    }

    /// Whether lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Look up a cached response. An enabled cache counts the lookup in
    /// the shard's sketch and marks a hit as referenced.
    pub fn get(&self, key: u64) -> Option<ScoreResponse> {
        let mut guard = self.shard(key).lock();
        let shard = &mut *guard;
        let mut found = None;
        if self.enabled {
            shard.sketch.increment(key);
            if let Some(&at) = shard.index.get(&key) {
                shard.slots[at].referenced = true;
                found = Some(shard.slots[at].response.clone());
            }
        }
        let counter = if found.is_some() { &mut shard.stats.hits } else { &mut shard.stats.misses };
        *counter += 1;
        found
    }

    /// Store a response unless a full shard refuses it (see the module
    /// doc). A no-op when the cache is disabled.
    pub fn insert(&self, key: u64, response: ScoreResponse) {
        if self.enabled {
            let mut shard = self.shard(key).lock();
            shard.insert(key, response, self.per_shard_capacity);
        }
    }

    /// Current counter values and residency, summed over the shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let shard = shard.lock();
            total.hits += shard.stats.hits;
            total.misses += shard.stats.misses;
            total.evictions += shard.stats.evictions;
            total.insertions += shard.stats.insertions;
            total.rejected += shard.stats.rejected;
            total.entries += shard.slots.len();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::PlanSignature;
    use tasq::pipeline::{AllocationDecision, ServedTier};

    fn response(job_id: u64) -> ScoreResponse {
        ScoreResponse {
            job_id,
            predicted_runtime_at_request: 10.0 + job_id as f64,
            optimal_tokens: 8,
            decision: AllocationDecision::Automatic { tokens: 8 },
            served_tier: ServedTier::Primary,
        }
    }

    /// A one-shard cache of `capacity` filled with keys `0..capacity`, each
    /// looked up once (a miss) and then stored, as the server does.
    fn full_shard(capacity: usize) -> SignatureCache {
        let cache = SignatureCache::new(&CacheConfig { capacity, shards: 1, enabled: true });
        for key in 0..capacity as u64 {
            assert!(cache.get(key).is_none());
            cache.insert(key, response(key));
        }
        cache
    }

    /// Look `key` up `times` times.
    fn probe(cache: &SignatureCache, key: u64, times: usize) {
        for _ in 0..times {
            cache.get(key);
        }
    }

    /// The serving benchmark's traffic over the cache alone: half the
    /// lookups carry a never-seen signature, half a Zipf(1.0) draw over
    /// four cache-fulls of recurring plans; every miss is followed by the
    /// worker's fill.
    struct Mix {
        cumulative: Vec<f64>,
        state: u64,
        issued: u64,
    }

    impl Mix {
        fn new(plans: usize, seed: u64) -> Self {
            let mut total = 0.0;
            let mut cumulative: Vec<f64> = (1..=plans)
                .map(|rank| {
                    total += 1.0 / rank as f64;
                    total
                })
                .collect();
            for c in &mut cumulative {
                *c /= total;
            }
            Self { cumulative, state: seed, issued: 0 }
        }

        fn next_f64(&mut self) -> f64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = self.state;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((x ^ (x >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Serve `requests` lookups keyed under model `generation`;
        /// returns hits and evictions per lookup over them.
        fn drive(
            &mut self,
            cache: &SignatureCache,
            generation: u64,
            requests: usize,
        ) -> (f64, f64) {
            let before = cache.stats();
            for _ in 0..requests {
                self.issued += 1;
                let signature = if self.next_f64() < 0.5 {
                    u64::MAX - self.issued
                } else {
                    let u = self.next_f64();
                    self.cumulative.partition_point(|&c| c < u) as u64
                };
                let key = PlanSignature(signature).cache_key(generation);
                if cache.get(key).is_none() {
                    cache.insert(key, response(signature));
                }
            }
            let after = cache.stats();
            let per_lookup = |count: u64| count as f64 / requests as f64;
            (per_lookup(after.hits - before.hits), per_lookup(after.evictions - before.evictions))
        }
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let cache = SignatureCache::new(&CacheConfig { capacity: 16, shards: 2, enabled: true });
        assert!(cache.get(1).is_none());
        cache.insert(1, response(1));
        let hit = cache.get(1).expect("hit");
        assert_eq!(hit.job_id, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn one_hit_wonder_is_refused_by_a_full_shard() {
        let cache = full_shard(8);
        let before = cache.stats();
        assert!(cache.get(100).is_none());
        cache.insert(100, response(100));
        let after = cache.stats();
        assert_eq!((after.insertions, after.entries), (before.insertions, before.entries));
        assert_eq!((after.evictions, after.rejected), (0, 1));
        assert!(cache.get(100).is_none(), "refused candidate is not resident");
    }

    #[test]
    fn candidate_probed_more_than_the_victim_displaces_it() {
        let cache = full_shard(8);
        probe(&cache, 100, 3);
        cache.insert(100, response(100));
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.rejected, stats.entries), (1, 0, 8));
        assert_eq!(cache.get(100).expect("admitted").job_id, 100);
        assert!(cache.get(0).is_none(), "the hand's first unreferenced entry was the victim");
    }

    #[test]
    fn clock_second_chance_spares_a_referenced_entry() {
        let cache = full_shard(8);
        // Key 0 sits under the hand but was hit since it was stored.
        assert!(cache.get(0).is_some());
        probe(&cache, 100, 3);
        cache.insert(100, response(100));
        assert!(cache.get(0).is_some(), "referenced entry survives one sweep");
        assert!(cache.get(1).is_none(), "the next unreferenced entry is displaced");
        assert!(cache.get(100).is_some());
    }

    #[test]
    fn counters_halve_so_a_stale_hot_entry_can_be_displaced() {
        // Capacity 8: the sketch halves every 80 lookups.
        let cache = SignatureCache::new(&CacheConfig { capacity: 8, shards: 1, enabled: true });
        probe(&cache, 0, 20);
        cache.insert(0, response(0));
        for key in 1..8u64 {
            probe(&cache, key, 1);
            cache.insert(key, response(key));
        }
        // Both saturate; a tie never displaces the resident.
        probe(&cache, 100, 20);
        cache.insert(100, response(100));
        assert_eq!(cache.stats().rejected, 1);
        // Lookups 48..=81: the 80th halves every counter (15 -> 7), and
        // the candidate keeps climbing while the stale entry does not.
        probe(&cache, 100, 34);
        cache.insert(100, response(100));
        assert!(cache.get(100).is_some(), "the fresher key is admitted");
        assert!(cache.get(0).is_none(), "the stale hot entry is displaced");
    }

    #[test]
    fn overwrite_refreshes_without_eviction() {
        let cache = SignatureCache::new(&CacheConfig { capacity: 2, shards: 1, enabled: true });
        cache.insert(1, response(1));
        cache.insert(1, response(100));
        assert_eq!(cache.get(1).expect("hit").job_id, 100);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = SignatureCache::new(&CacheConfig { capacity: 16, shards: 2, enabled: false });
        cache.insert(1, response(1));
        assert!(cache.get(1).is_none());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn shards_partition_the_key_space() {
        let cache = SignatureCache::new(&CacheConfig { capacity: 64, shards: 8, enabled: true });
        for key in 0..64u64 {
            cache.insert(key, response(key));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 64);
        assert_eq!(stats.evictions, 0);
        for key in 0..64u64 {
            assert_eq!(cache.get(key).expect("resident").job_id, key);
        }
    }

    #[test]
    fn concurrent_access_keeps_counters_consistent() {
        let cache = std::sync::Arc::new(SignatureCache::new(&CacheConfig {
            capacity: 128,
            shards: 4,
            enabled: true,
        }));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = (t * 50 + i) % 100;
                        if cache.get(key).is_none() {
                            cache.insert(key, response(key));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 800);
        assert!(stats.entries <= 128);
        assert_eq!(stats.insertions, stats.entries as u64 + stats.evictions);
    }

    #[test]
    fn recurring_plans_keep_their_place_among_one_time_plans() {
        // An exact LRU reads 0.33 hits and 0.66 evictions per lookup here:
        // every one-time plan displaces a recurring one.
        let capacity = CacheConfig::default().capacity;
        let cache = SignatureCache::new(&CacheConfig::default());
        let mut mix = Mix::new(4 * capacity, 7);
        mix.drive(&cache, 1, 4 * capacity);
        let (hit_share, evictions_per_lookup) = mix.drive(&cache, 1, 20 * capacity);
        assert!(hit_share >= 0.36, "hit share {hit_share:.4}");
        assert!(evictions_per_lookup <= 0.15, "evictions per lookup {evictions_per_lookup:.4}");
    }

    #[test]
    fn a_swapped_generation_recovers_its_hit_share() {
        // After a swap every resident key belongs to the dead generation
        // and is never probed again, but the most popular ones still hold
        // saturated counters: only halving lets the new keys past them.
        let capacity = CacheConfig::default().capacity;
        let cache = SignatureCache::new(&CacheConfig::default());
        let mut mix = Mix::new(4 * capacity, 11);
        mix.drive(&cache, 1, 16 * capacity);
        let (before, _) = mix.drive(&cache, 1, 4 * capacity);
        mix.drive(&cache, 2, 9 * capacity);
        let (after, _) = mix.drive(&cache, 2, capacity);
        assert!(
            after >= 0.75 * before,
            "hit share {after:.4} in the tenth cache-full after the swap, {before:.4} before it"
        );
    }
}
