//! Cross-sub-problem memoisation of solved subtrees — shared, sharded,
//! byte-budgeted and persistent.
//!
//! The decomposition tree frequently contains *isomorphic* sub-problems:
//! symmetric kernels split into structurally identical children, and a
//! long-running `hca serve` daemon sees the same kernels (or
//! near-duplicates) over and over across requests. This module
//! caches each solved [`SubResult`] under a **renumbering-equivariant
//! canonical key** so an isomorphic sub-problem is answered by rehydrating
//! the cached subtree instead of re-searching.
//!
//! ## Soundness of the key
//!
//! A cache hit must imply that a fresh solve would produce the bit-identical
//! result. The key therefore encodes *everything* the solver reads:
//!
//! * the machine itself — every [`LevelSpec`](hca_arch::LevelSpec) field of
//!   the fabric, the DMA model and the copy latency. The per-level PG and
//!   constraints are pure functions of (fabric, depth, ILI), so with the
//!   fabric in the key one [`Memo`] may outlive any single run and serve
//!   requests against *different* machines;
//! * the full solving context — every
//!   [`SeeConfig`](hca_see::SeeConfig) field (the escalation tiers are pure
//!   functions of it), the issue-cap slack, validation level, the
//!   [`PortfolioMode`](crate::PortfolioMode) (an exact-small entry must
//!   never answer a beam-only run; the exact backend's fixed size and node
//!   caps are covered by [`SNAPSHOT_VERSION`] instead), the
//!   unified-machine theoretical MII, `MIIRec`, and the hierarchy depth;
//! * the working set in canonical numbering (nodes renumbered by sorted
//!   `NodeId` rank; externals by first appearance), including the *given*
//!   working-set order, per-node opcodes, and full pred/succ edge lists in
//!   adjacency order with latencies and distances;
//! * the ILI wire structure, wire by wire, value by value;
//! * the per-node analysis scalars the engine consumes (ASAP, ALAP,
//!   height, canonical SCC rank, relative topological rank) for every
//!   referenced node — externals included, since edge slack reads both
//!   endpoints;
//! * the relative raw-`NodeId` order of all referenced nodes. Every
//!   id-based tie-break in the pipeline (priority sorting, the mapper's
//!   `sort_by_key(|f| f.value)`, working-set sorts) is an *order*
//!   comparison, so it behaves identically on two sub-problems exactly
//!   when this permutation matches.
//!
//! The key is the full encoding (a `Vec<u64>` compared by `Eq`), not a
//! digest — hash collisions cannot produce false hits. The key contains no
//! per-process state (no addresses, no hashes, no iteration order of
//! unordered containers), which is what makes an on-disk snapshot written
//! by one process sound when loaded by another.
//!
//! The key deliberately encodes no `PartialState` internals: it is built
//! from the sub-problem *inputs* (DDG slice, ILI, context), never from the
//! engine's in-flight search state, so representation changes inside
//! `hca-see` cannot drift the key. Determinism of the cached *values* is
//! covered by `tests/memo_equivalence.rs`.
//!
//! ## Concurrency, bounds and crash safety
//!
//! The map is split into [`NUM_SHARDS`] shards, each behind its own mutex,
//! selected by the key's hash — concurrent requests from an `hca serve`
//! worker set contend per shard, not globally. Every lock acquisition
//! recovers from poisoning (`PoisonError::into_inner`): the cache only ever
//! holds plain data whose invariants are restored before the guard drops,
//! so a worker that panicked *while not holding the lock* — the only way a
//! panic escapes a request — must not permanently disable caching for the
//! rest of a long-running daemon.
//!
//! Each shard keeps an intrusive LRU list and a byte account (the same
//! accounting [`Memo::approx_bytes`] reports). Inserting beyond the
//! per-shard budget evicts least-recently-used entries first; an entry
//! larger than a whole shard's budget is simply not cached. Eviction can
//! only turn hits into misses — a miss re-solves and reproduces the
//! identical result — so the budget bounds memory without affecting output
//! (pinned by `tests/memo_equivalence.rs`).
//!
//! The driver reads a cache only when one is handed to
//! [`run_hca_shared`](crate::run_hca_shared), as `hca serve` does; every
//! other entry point solves each sub-problem. Such a cache outlives the run
//! inserting into it, so it admits an entry only on *second sight*
//! ([`Memo::offer`]): the first solve of a
//! key records the key's 64-bit hash in a doorkeeper, a direct-mapped table
//! of [`DOORKEEPER_SLOTS`] atomic hashes allocated on first use, and drops
//! the entry (counted in [`Memo::deferred`]); a later solve whose hash is
//! still there is cached. This is TinyLFU's doorkeeper: a stream of
//! never-repeating kernels no longer fills the byte budget with entries
//! nobody reads, while anything that recurs is cached from its second
//! solve on. A hash collision (or a slot another key overwrote) can only
//! admit or defer an entry early or late — lookups still compare the full
//! key, so no output bit depends on the doorkeeper. [`Memo::load`] admits
//! a snapshot's entries at once ([`Memo::insert`]).
//!
//! [`Memo::save`] / [`Memo::load`] persist the canonical entry table as a
//! versioned JSON snapshot ([`SNAPSHOT_VERSION`]): `hca serve` snapshots on
//! shutdown and reloads on start, and a snapshot whose version does not
//! match the running binary is *discarded*, never trusted.

use crate::driver::{HcaConfig, SubResult};
use crate::problem::Subproblem;
use hca_arch::{DspFabric, GroupPath, GroupTopology};
use hca_ddg::{Ddg, DdgAnalysis, NodeId};
use rustc_hash::{FxHashMap, FxHasher};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Renumbering-equivariant canonical key of a sub-problem (full encoding,
/// collision-free by construction).
#[derive(PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) struct MemoKey(Vec<u64>);

/// A solved subtree in canonical form (see the module docs).
#[derive(Clone, Serialize, Deserialize)]
pub(crate) struct CanonSub {
    /// `(canonical node, CN-path suffix below the sub-problem)`.
    placement: Vec<(u64, Vec<usize>)>,
    /// Route ops, same encoding as `placement`.
    route_ops: Vec<(u64, Vec<usize>)>,
    /// Group topologies keyed by path suffix, wire values canonicalised.
    groups: Vec<(Vec<usize>, GroupTopology)>,
    stats: crate::driver::HcaStats,
    ini_mii: u32,
}

/// Shards of the concurrent map. A power of two so the shard index is a
/// mask; 16 comfortably out-ships the worker counts `hca-par` spawns.
const NUM_SHARDS: usize = 16;

/// Snapshot schema version. Bump whenever the key encoding, the canonical
/// value layout, or a solver constant the key leaves out (the driver's
/// `EXACT_MAX_NODES`, [`hca_see::EXACT_NODE_BUDGET`]) changes:
/// [`Memo::load`] rejects (discards) any snapshot whose version differs,
/// because keys from an older encoding could alias current ones and
/// rehydrate stale results.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Sentinel for "no LRU neighbour".
const NIL: usize = usize::MAX;

/// Slots of the second-sight doorkeeper (see the module docs): `1 << 16`
/// key hashes, 512 KiB, indexed by a hash's top bits.
const DOORKEEPER_SLOTS: usize = 1 << 16;

/// One cached entry: the canonical value plus its intrusive LRU links.
struct Entry {
    key: Arc<MemoKey>,
    sub: CanonSub,
    /// Accounted heap footprint of key + value (see [`entry_bytes`]).
    bytes: usize,
    /// Towards more-recently-used.
    prev: usize,
    /// Towards less-recently-used.
    next: usize,
}

/// One lock's worth of the cache: hash map + slab-backed LRU list.
#[derive(Default)]
struct Shard {
    /// Key → slab slot.
    map: FxHashMap<Arc<MemoKey>, usize>,
    /// Slot storage; `None` slots are on the free list.
    slab: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// Most-recently-used slot, or [`NIL`].
    head: usize,
    /// Least-recently-used slot, or [`NIL`].
    tail: usize,
    /// Accounted bytes of all live entries.
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            head: NIL,
            tail: NIL,
            ..Shard::default()
        }
    }

    /// Unlink `slot` from the LRU list (it stays in the slab).
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let e = self.slab[slot].as_ref().expect("live slot");
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slab[p].as_mut().expect("live prev").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].as_mut().expect("live next").prev = prev,
        }
    }

    /// Link `slot` at the most-recently-used end.
    fn push_front(&mut self, slot: usize) {
        {
            let e = self.slab[slot].as_mut().expect("live slot");
            e.prev = NIL;
            e.next = self.head;
        }
        match self.head {
            NIL => self.tail = slot,
            h => self.slab[h].as_mut().expect("live head").prev = slot,
        }
        self.head = slot;
    }

    /// Move an existing slot to the most-recently-used position.
    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Remove the least-recently-used entry; returns its byte account.
    fn evict_tail(&mut self) -> Option<usize> {
        let slot = self.tail;
        if slot == NIL {
            return None;
        }
        self.unlink(slot);
        let entry = self.slab[slot].take().expect("live tail");
        self.map.remove(entry.key.as_ref());
        self.free.push(slot);
        self.bytes -= entry.bytes;
        Some(entry.bytes)
    }

    /// Insert a fresh entry at the MRU position.
    fn insert(&mut self, key: Arc<MemoKey>, sub: CanonSub, bytes: usize) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s] = Some(Entry {
                    key: key.clone(),
                    sub,
                    bytes,
                    prev: NIL,
                    next: NIL,
                });
                s
            }
            None => {
                self.slab.push(Some(Entry {
                    key: key.clone(),
                    sub,
                    bytes,
                    prev: NIL,
                    next: NIL,
                }));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.bytes += bytes;
        self.push_front(slot);
    }
}

/// The shared sub-problem cache: sharded, byte-budgeted, LRU-evicting,
/// poison-recovering, and snapshot-persistent. A long-running `hca serve`
/// daemon owns one and shares it across every request it ever handles —
/// the canonical key encodes the fabric and the full solving context, so
/// cross-request reuse happens exactly when a fresh solve would reproduce
/// the cached bits.
pub struct Memo {
    shards: Vec<Mutex<Shard>>,
    /// Total byte budget across all shards (0 = cache nothing).
    budget: usize,
    /// Hashes of keys [`Memo::offer`]ed once, direct-mapped; allocated by
    /// the first offer. A fixed 512 KiB outside the byte budget and
    /// [`Memo::approx_bytes`].
    doorkeeper: OnceLock<Box<[AtomicU64]>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    deferred: AtomicU64,
}

/// Recover a shard guard even when a previous holder panicked: the cache's
/// invariants are re-established before every unlock, so the data behind a
/// poisoned lock is still consistent — continuing is strictly better than
/// turning one dead worker into a permanently dead cache.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Memo {
    /// Default byte budget (64 MiB) of a daemon's cache. Override it with
    /// `hca serve --memo-budget`.
    pub const DEFAULT_BUDGET: usize = 64 << 20;

    /// Fresh empty cache with a total byte budget. The cache is
    /// DDG-independent: requests against any kernel/fabric pair may share
    /// it (the key disambiguates).
    pub fn new(budget_bytes: usize) -> Self {
        Memo {
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            budget: budget_bytes,
            doorkeeper: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
        }
    }

    /// The configured total byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Lifetime cache hits (across every run sharing this cache).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime cache misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime LRU evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lifetime insertions (entries ever cached).
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Lifetime deferrals: solved sub-problems [`Memo::offer`] dropped
    /// because their key was seen for the first time.
    pub fn deferred(&self) -> u64 {
        self.deferred.load(Ordering::Relaxed)
    }

    fn shard_of(&self, key: &MemoKey) -> &Mutex<Shard> {
        &self.shards[(key_hash(key) as usize) & (NUM_SHARDS - 1)]
    }

    pub(crate) fn lookup(&self, key: &MemoKey) -> Option<CanonSub> {
        let mut shard = lock_recover(self.shard_of(key));
        match shard.map.get(key).copied() {
            Some(slot) => {
                shard.touch(slot);
                let sub = shard.slab[slot].as_ref().expect("live slot").sub.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(sub)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Cache `sub` under `key` at once. First writer wins; by the key
    /// contract any two writers hold identical canonical content, so the
    /// race is benign. Evicts least-recently-used entries when the shard's
    /// share of the byte budget overflows; an entry that alone exceeds that
    /// share is not cached at all (caching it would immediately evict
    /// everything else).
    pub(crate) fn insert(&self, key: MemoKey, sub: CanonSub) {
        let shard_budget = self.budget / NUM_SHARDS;
        let bytes = entry_bytes(&key, &sub);
        if bytes > shard_budget {
            return;
        }
        let mutex = self.shard_of(&key);
        let mut shard = lock_recover(mutex);
        if let Some(&slot) = shard.map.get(&key) {
            shard.touch(slot);
            return;
        }
        let mut evicted = 0u64;
        while shard.bytes + bytes > shard_budget && shard.evict_tail().is_some() {
            evicted += 1;
        }
        shard.insert(Arc::new(key), sub, bytes);
        drop(shard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Second-sight admission (see the module docs): cache `sub` only if
    /// `key`'s hash is already in the doorkeeper; otherwise record the hash
    /// and drop the entry.
    pub(crate) fn offer(&self, key: MemoKey, sub: CanonSub) {
        let hash = key_hash(&key);
        let doorkeeper = self
            .doorkeeper
            .get_or_init(|| (0..DOORKEEPER_SLOTS).map(|_| AtomicU64::new(0)).collect());
        // The top bits pick the slot (the shard index uses the low ones).
        let slot = &doorkeeper[(hash >> (64 - DOORKEEPER_SLOTS.trailing_zeros())) as usize];
        // Relaxed: a slot publishes nothing but its own value.
        if slot.swap(hash, Ordering::Relaxed) == hash {
            self.insert(key, sub);
        } else {
            self.deferred.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of cached canonical sub-problems.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).map.len()).sum()
    }

    /// Approximate heap footprint of the cache: the full `u64` key
    /// encodings plus canonical placements, route ops and group
    /// topologies. Feeds the `driver.memo_bytes` high-water counter and is
    /// the same accounting the LRU budget enforces.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .shards
                .iter()
                .map(|s| lock_recover(s).bytes)
                .sum::<usize>()
    }

    /// Write a versioned snapshot of every cached entry to `path`
    /// (least-recently-used first, so a reload reproduces the recency
    /// order). Returns the number of entries written.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<usize> {
        let mut entries: Vec<SnapshotEntry> = Vec::new();
        for mutex in &self.shards {
            let shard = lock_recover(mutex);
            // Walk tail → head: oldest first.
            let mut slot = shard.tail;
            while slot != NIL {
                let e = shard.slab[slot].as_ref().expect("live slot");
                entries.push(SnapshotEntry {
                    key: e.key.0.clone(),
                    sub: e.sub.clone(),
                });
                slot = e.prev;
            }
        }
        let count = entries.len();
        let snap = Snapshot {
            version: SNAPSHOT_VERSION,
            entries,
        };
        let body = serde_json::to_string(&snap)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // Write-then-rename so a crash mid-write never truncates a good
        // snapshot into an unparsable one.
        let tmp = path.as_ref().with_extension("tmp");
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, path.as_ref())?;
        Ok(count)
    }

    /// Load a snapshot into a fresh cache with the given budget. Errors
    /// (unreadable file, malformed JSON, version mismatch) mean the caller
    /// should start cold — a stale snapshot is discarded, never trusted.
    pub fn load(path: impl AsRef<Path>, budget_bytes: usize) -> Result<Memo, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
        let snap: Snapshot = serde_json::from_str(&text)
            .map_err(|e| format!("{}: malformed snapshot: {e}", path.as_ref().display()))?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(format!(
                "{}: snapshot version {} does not match {} — discarding",
                path.as_ref().display(),
                snap.version,
                SNAPSHOT_VERSION
            ));
        }
        let memo = Memo::new(budget_bytes);
        for e in snap.entries {
            memo.insert(MemoKey(e.key), e.sub);
        }
        // Loading is bookkeeping, not traffic: start the counters clean so
        // a daemon's stats reflect what it served, not what it loaded.
        memo.hits.store(0, Ordering::Relaxed);
        memo.misses.store(0, Ordering::Relaxed);
        memo.evictions.store(0, Ordering::Relaxed);
        memo.insertions.store(0, Ordering::Relaxed);
        Ok(memo)
    }

    /// Deliberately poison every shard lock (a panic while the guard is
    /// held), for tests that pin the poison-recovery behaviour.
    #[cfg(test)]
    fn poison_all_shards(&self) {
        for mutex in &self.shards {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = mutex.lock().unwrap();
                panic!("poison this shard");
            }));
        }
    }
}

/// On-disk snapshot schema (one JSON object).
#[derive(Serialize, Deserialize)]
struct Snapshot {
    version: u32,
    entries: Vec<SnapshotEntry>,
}

#[derive(Serialize, Deserialize)]
struct SnapshotEntry {
    key: Vec<u64>,
    sub: CanonSub,
}

/// The key's 64-bit hash: its low bits pick the shard, its top bits the
/// doorkeeper slot.
fn key_hash(key: &MemoKey) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Accounted heap footprint of one entry — key encoding plus canonical
/// placements, route ops and group topologies.
fn entry_bytes(key: &MemoKey, sub: &CanonSub) -> usize {
    use std::mem::{size_of, size_of_val};
    let mut bytes = size_of::<MemoKey>() + key.0.len() * size_of::<u64>();
    bytes += size_of::<CanonSub>();
    for (_, p) in sub.placement.iter().chain(&sub.route_ops) {
        bytes += size_of::<(u64, Vec<usize>)>() + p.len() * size_of::<usize>();
    }
    for (sfx, g) in &sub.groups {
        bytes += size_of::<(Vec<usize>, GroupTopology)>() + sfx.len() * size_of::<usize>();
        for w in &g.wires {
            bytes += size_of_val(w) + w.values.len() * size_of::<NodeId>();
        }
    }
    bytes
}

/// Intern `v` into the canonical numbering, appending new externals.
fn intern(canon: &mut FxHashMap<NodeId, u64>, canon2raw: &mut Vec<NodeId>, v: NodeId) -> u64 {
    *canon.entry(v).or_insert_with(|| {
        canon2raw.push(v);
        (canon2raw.len() - 1) as u64
    })
}

/// Build the canonical key of `sp` plus the canonical→raw node table the
/// capture/rehydrate pair shares. `topo_pos` maps each DDG node to its
/// position in the run's topological order (the cache itself is
/// DDG-independent, so the run supplies this per-DDG table).
pub(crate) fn canonicalise(
    topo_pos: &[usize],
    ddg: &Ddg,
    analysis: &DdgAnalysis,
    config: &HcaConfig,
    theo_mii: u32,
    fabric: &DspFabric,
    sp: &Subproblem,
) -> (MemoKey, Vec<NodeId>) {
    let s = &config.see;
    let mut enc: Vec<u64> = Vec::with_capacity(48 + sp.working_set.len() * 16);
    // The machine: one cache may serve runs against different fabrics, so
    // the key pins every machine parameter the solver reads (PG shape and
    // constraints are pure functions of fabric + depth + ILI).
    enc.push(fabric.levels.len() as u64);
    for l in &fabric.levels {
        enc.extend_from_slice(&[
            l.arity as u64,
            l.in_wires as u64,
            l.out_wires as u64,
            l.glue_in as u64,
            l.glue_out as u64,
        ]);
    }
    enc.extend_from_slice(&[
        u64::from(fabric.dma.ports),
        u64::from(fabric.dma.latency),
        u64::from(fabric.copy_latency),
    ]);
    enc.extend_from_slice(&[
        s.beam_width as u64,
        s.branch_factor as u64,
        s.candidate_margin.to_bits(),
        s.weights.copy.to_bits(),
        s.weights.pressure.to_bits(),
        s.weights.balance.to_bits(),
        s.weights.critical.to_bits(),
        s.weights.recurrence.to_bits(),
        s.weights.route.to_bits(),
        s.priority as u64,
        u64::from(s.enable_router),
        s.max_route_hops as u64,
        s.issue_cap.map_or(u64::MAX, u64::from),
        config.issue_cap_slack.map_or(u64::MAX, u64::from),
        config.validation as u64,
        // Portfolio context: the exact backend can change a cached subtree
        // (placements, stats), so the shared `hca serve` cache must never
        // cross-contaminate solver modes.
        config.portfolio.mode as u64,
        u64::from(theo_mii),
        u64::from(analysis.mii_rec),
        sp.depth() as u64,
        sp.working_set.len() as u64,
        sp.ili.inputs.len() as u64,
        sp.ili.outputs.len() as u64,
    ]);

    // Canonical numbering: working-set nodes by sorted-id rank …
    let mut canon2raw: Vec<NodeId> = sp.working_set.clone();
    canon2raw.sort_unstable();
    let mut canon: FxHashMap<NodeId, u64> = canon2raw
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i as u64))
        .collect();
    // … and the given working-set order on top of it (the search consumes
    // the set in this order).
    for &n in &sp.working_set {
        enc.push(canon[&n]);
    }

    // Per-node structure in canonical order. Iterate by index: `canon2raw`
    // only ever grows (interning appends externals), indices are stable.
    for i in 0..sp.working_set.len() {
        let n = canon2raw[i];
        enc.push(ddg.node(n).op as u64);
        let preds: Vec<_> = ddg.pred_edges(n).collect();
        enc.push(preds.len() as u64);
        for (_, e) in preds {
            enc.push(intern(&mut canon, &mut canon2raw, e.src));
            enc.push(u64::from(e.latency));
            enc.push(u64::from(e.distance));
        }
        let succs: Vec<_> = ddg.succ_edges(n).collect();
        enc.push(succs.len() as u64);
        for (_, e) in succs {
            enc.push(intern(&mut canon, &mut canon2raw, e.dst));
            enc.push(u64::from(e.latency));
            enc.push(u64::from(e.distance));
        }
    }
    for wire in sp.ili.inputs.iter().chain(&sp.ili.outputs) {
        enc.push(wire.values.len() as u64);
        for &v in &wire.values {
            enc.push(intern(&mut canon, &mut canon2raw, v));
        }
    }

    // Analysis scalars for every referenced node, externals included.
    let lv = &analysis.levels;
    for &n in &canon2raw {
        enc.push(u64::from(lv.asap[n.index()]));
        enc.push(u64::from(lv.alap[n.index()]));
        enc.push(u64::from(lv.height[n.index()]));
    }
    let mut scc_rank: FxHashMap<u32, u64> = FxHashMap::default();
    for &n in &canon2raw {
        let next = scc_rank.len() as u64;
        enc.push(*scc_rank.entry(analysis.scc[n.index()]).or_insert(next));
    }
    let mut topo_rank = vec![0u64; canon2raw.len()];
    let mut by_topo: Vec<usize> = (0..canon2raw.len()).collect();
    by_topo.sort_by_key(|&i| topo_pos[canon2raw[i].index()]);
    for (r, &i) in by_topo.iter().enumerate() {
        topo_rank[i] = r as u64;
    }
    enc.extend_from_slice(&topo_rank);
    // Relative raw-id order (see module docs: id tie-breaks are order
    // comparisons, so matching ranks ⇒ identical tie-break behaviour).
    let mut id_rank = vec![0u64; canon2raw.len()];
    let mut by_id: Vec<usize> = (0..canon2raw.len()).collect();
    by_id.sort_by_key(|&i| canon2raw[i]);
    for (r, &i) in by_id.iter().enumerate() {
        id_rank[i] = r as u64;
    }
    enc.extend_from_slice(&id_rank);

    (MemoKey(enc), canon2raw)
}

/// Convert a freshly solved subtree into canonical form. Returns `None`
/// (don't cache) if anything falls outside the canonical universe — a
/// value the key never saw, or a CN path outside this sub-problem's
/// subtree; both would make rehydration unsound.
pub(crate) fn capture(
    res: &SubResult,
    canon2raw: &[NodeId],
    prefix: &GroupPath,
    fabric: &DspFabric,
) -> Option<CanonSub> {
    let raw2canon: FxHashMap<NodeId, u64> = canon2raw
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i as u64))
        .collect();
    let strip = |path: Vec<usize>| -> Option<Vec<usize>> {
        path.strip_prefix(prefix.as_slice()).map(<[usize]>::to_vec)
    };
    let conv = |items: &[(NodeId, hca_arch::CnId)]| -> Option<Vec<(u64, Vec<usize>)>> {
        items
            .iter()
            .map(|&(n, cn)| Some((*raw2canon.get(&n)?, strip(fabric.cn_path(cn))?)))
            .collect()
    };
    Some(CanonSub {
        placement: conv(&res.placement)?,
        route_ops: conv(&res.route_ops)?,
        groups: res
            .groups
            .iter()
            .map(|(path, g)| {
                let mut g = g.clone();
                for w in &mut g.wires {
                    for v in &mut w.values {
                        *v = NodeId(u32::try_from(*raw2canon.get(v)?).ok()?);
                    }
                }
                Some((strip(path.clone())?, g))
            })
            .collect::<Option<Vec<_>>>()?,
        stats: res.stats,
        ini_mii: res.ini_mii,
    })
}

/// Instantiate a cached subtree at `prefix` under this sub-problem's
/// canonical→raw table — the exact inverse of [`capture`] modulo renaming.
pub(crate) fn rehydrate(
    sub: &CanonSub,
    canon2raw: &[NodeId],
    prefix: &GroupPath,
    fabric: &DspFabric,
) -> SubResult {
    let join = |suffix: &[usize]| {
        let mut p = prefix.clone();
        p.extend_from_slice(suffix);
        p
    };
    SubResult {
        placement: sub
            .placement
            .iter()
            .map(|(c, sfx)| (canon2raw[*c as usize], fabric.cn_of_path(&join(sfx))))
            .collect(),
        route_ops: sub
            .route_ops
            .iter()
            .map(|(c, sfx)| (canon2raw[*c as usize], fabric.cn_of_path(&join(sfx))))
            .collect(),
        groups: sub
            .groups
            .iter()
            .map(|(sfx, g)| {
                let mut g = g.clone();
                for w in &mut g.wires {
                    for v in &mut w.values {
                        *v = canon2raw[v.index()];
                    }
                }
                (join(sfx), g)
            })
            .collect(),
        stats: sub.stats,
        ini_mii: sub.ini_mii,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key with a controllable payload size.
    fn key(tag: u64, words: usize) -> MemoKey {
        let mut v = vec![tag];
        v.resize(words.max(1), tag ^ 0x5bd1_e995);
        MemoKey(v)
    }

    fn sub(tag: u64) -> CanonSub {
        CanonSub {
            placement: vec![(tag, vec![0, 1])],
            route_ops: Vec::new(),
            groups: Vec::new(),
            stats: crate::driver::HcaStats::default(),
            ini_mii: 1,
        }
    }

    #[test]
    fn lookup_hits_and_misses_are_counted() {
        let m = Memo::new(Memo::DEFAULT_BUDGET);
        m.insert(key(1, 8), sub(1));
        assert!(m.lookup(&key(1, 8)).is_some());
        assert!(m.lookup(&key(2, 8)).is_none());
        assert_eq!(m.hits(), 1);
        assert_eq!(m.misses(), 1);
        assert_eq!(m.entries(), 1);
        assert_eq!(m.insertions(), 1);
    }

    #[test]
    fn first_writer_wins() {
        let m = Memo::new(Memo::DEFAULT_BUDGET);
        m.insert(key(1, 8), sub(10));
        m.insert(key(1, 8), sub(20));
        assert_eq!(m.entries(), 1);
        let got = m.lookup(&key(1, 8)).unwrap();
        assert_eq!(got.placement[0].0, 10, "second writer must not replace");
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        // Budget small enough that shards hold ~2 entries each; all keys
        // below hash to various shards, so drive one shard deterministically
        // by inserting keys until evictions happen.
        let m = Memo::new(64 * 1024);
        let per_entry = entry_bytes(&key(0, 256), &sub(0));
        // Enough entries to overflow every shard several times.
        let n = (64 * 1024 / per_entry) * 4;
        for i in 0..n as u64 {
            m.insert(key(i, 256), sub(i));
        }
        assert!(m.evictions() > 0, "budget never triggered eviction");
        assert!(
            m.approx_bytes() <= 64 * 1024 + std::mem::size_of::<Memo>(),
            "cache exceeded its byte budget: {} bytes",
            m.approx_bytes()
        );
        // Recently inserted entries survive; the very first ones are gone.
        assert!(m.lookup(&key(n as u64 - 1, 256)).is_some());
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let m = Memo::new(0);
        m.insert(key(1, 8), sub(1));
        assert_eq!(m.entries(), 0);
        assert!(m.lookup(&key(1, 8)).is_none());
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let m = Memo::new(4096);
        // One entry far larger than a shard's share of 4 KiB.
        m.insert(key(1, 10_000), sub(1));
        assert_eq!(m.entries(), 0);
        assert_eq!(m.evictions(), 0, "oversized insert must not thrash");
    }

    #[test]
    fn lru_touch_on_lookup_protects_hot_entries() {
        // Single-shard-sized experiment: keep looking up entry A while
        // inserting pressure; A must outlive colder entries.
        let m = Memo::new(NUM_SHARDS * entry_bytes(&key(0, 64), &sub(0)) * 3);
        m.insert(key(1, 64), sub(1));
        for i in 100..400u64 {
            let _ = m.lookup(&key(1, 64)); // keep A hot
            m.insert(key(i, 64), sub(i));
        }
        assert!(
            m.lookup(&key(1, 64)).is_some(),
            "hot entry evicted despite LRU touches"
        );
    }

    #[test]
    fn poisoned_shard_still_serves_lookups_and_inserts() {
        let m = Memo::new(Memo::DEFAULT_BUDGET);
        m.insert(key(7, 8), sub(7));
        m.poison_all_shards();
        // Every operation must recover the guard instead of propagating.
        assert!(m.lookup(&key(7, 8)).is_some(), "poisoned lookup failed");
        m.insert(key(8, 8), sub(8));
        assert!(m.lookup(&key(8, 8)).is_some(), "poisoned insert failed");
        assert_eq!(m.entries(), 2);
        let _ = m.approx_bytes();
    }

    #[test]
    fn snapshot_round_trip_preserves_entries() {
        let dir = std::env::temp_dir().join("hca_memo_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let m = Memo::new(Memo::DEFAULT_BUDGET);
        for i in 0..20u64 {
            m.insert(key(i, 16), sub(i));
        }
        let written = m.save(&path).unwrap();
        assert_eq!(written, 20);
        let back = Memo::load(&path, Memo::DEFAULT_BUDGET).unwrap();
        assert_eq!(back.entries(), 20);
        for i in 0..20u64 {
            let got = back.lookup(&key(i, 16)).unwrap();
            assert_eq!(got.placement[0].0, i);
        }
        // Counters start clean after a load (minus the lookups just made).
        assert_eq!(back.misses(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn first_offer_defers_and_second_offer_caches() {
        let m = Memo::new(Memo::DEFAULT_BUDGET);
        m.offer(key(1, 8), sub(1));
        assert_eq!(m.entries(), 0, "first sight must not cache");
        assert_eq!(m.deferred(), 1);
        assert_eq!(m.insertions(), 0);
        m.offer(key(1, 8), sub(1));
        assert_eq!(m.entries(), 1, "second sight must cache");
        assert_eq!(m.deferred(), 1);
        assert_eq!(m.insertions(), 1);
        assert!(m.lookup(&key(1, 8)).is_some());
        assert_eq!(m.hits(), 1);
    }

    #[test]
    fn snapshot_load_restores_entries_without_the_doorkeeper() {
        let dir = std::env::temp_dir().join("hca_memo_doorkeeper_load");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let m = Memo::new(Memo::DEFAULT_BUDGET);
        for i in 0..20u64 {
            m.offer(key(i, 16), sub(i));
            m.offer(key(i, 16), sub(i));
        }
        assert_eq!(m.save(&path).unwrap(), 20);
        let back = Memo::load(&path, Memo::DEFAULT_BUDGET).unwrap();
        assert_eq!(back.entries(), 20, "every snapshot entry restored");
        assert_eq!(back.deferred(), 0);
        for i in 0..20u64 {
            assert!(back.lookup(&key(i, 16)).is_some(), "entry {i} missing");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_snapshot_version_is_discarded() {
        let dir = std::env::temp_dir().join("hca_memo_stale_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.json");
        // Older snapshots (an earlier key encoding) and newer ones alike.
        for version in [SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1] {
            let body = format!("{{\"version\":{version},\"entries\":[]}}");
            std::fs::write(&path, body).unwrap();
            let err = match Memo::load(&path, Memo::DEFAULT_BUDGET) {
                Err(e) => e,
                Ok(_) => panic!("snapshot version {version} accepted"),
            };
            assert!(err.contains("version"), "unexpected error: {err}");
        }
        // Malformed JSON is discarded the same way.
        std::fs::write(&path, "not json").unwrap();
        assert!(Memo::load(&path, Memo::DEFAULT_BUDGET).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_reload_respects_smaller_budget() {
        let dir = std::env::temp_dir().join("hca_memo_budget_reload");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let m = Memo::new(Memo::DEFAULT_BUDGET);
        for i in 0..200u64 {
            m.insert(key(i, 128), sub(i));
        }
        m.save(&path).unwrap();
        let per_entry = entry_bytes(&key(0, 128), &sub(0));
        let tiny = Memo::load(&path, per_entry * NUM_SHARDS * 2).unwrap();
        assert!(tiny.entries() < 200, "budget ignored on reload");
        assert!(tiny.approx_bytes() <= per_entry * NUM_SHARDS * 2 + std::mem::size_of::<Memo>());
        std::fs::remove_file(&path).ok();
    }
}
