//! The recursive HCA driver (paper §4.1).
//!
//! "The HCA algorithm starts at level 0, mapping DDG₀ onto PG₀. Then the
//! module Mapper maps PG̅₀ onto the first level of the Machine Model
//! Hierarchy … The Mapper produces an ILI for each subproblem of the current
//! one. Now the communication paths at level 0 of the hierarchy have been
//! allocated and the process can be iterated through all the nested levels,
//! until a leaf problem is reached."

use crate::coherency::{check_coherency, CoherencyReport};
use crate::decompose::{child_working_sets, effective_spec, level_constraints, level_pg};
use crate::mii::{mii_report, MiiReport};
use crate::post::{build_final_program, FinalProgram};
use crate::problem::Subproblem;
use hca_arch::{CnId, DspFabric, GroupTopology, Topology};
use hca_ddg::{analysis::DdgError, Ddg, DdgAnalysis, NodeId};
use hca_mapper::{map_level_obs, MapError, MapOptions, MapperOutput};
use hca_obs::trace::{kind, EXACT_TIER, FALLBACK_TIER};
use hca_obs::{Obs, RunMetrics, SearchTracer, TraceRecord};
use hca_see::{mii_lower_bound, solution_score, ExactConfig, See, SeeConfig, SeeError};
use rustc_hash::FxHashMap;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// How much the driver trusts its own output (paper: "a coherency checker
/// validates legality").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValidationLevel {
    /// Skip the coherency checker entirely. [`HcaResult::coherency`] is an
    /// empty (vacuously legal) report; use only when the caller re-validates
    /// or benchmarks the driver alone.
    Off,
    /// Run the checker and *report* its verdict in the result — the
    /// historical behaviour, and the default.
    #[default]
    Report,
    /// Run the checker as a hard gate: any undelivered value, illegal copy
    /// route, or `outNode_MaxIn` fan-in violation turns into a typed
    /// [`HcaError`] instead of reaching the scheduler.
    Strict,
}

impl ValidationLevel {
    /// Apply this policy to a checker verdict. Under [`Strict`] an illegal
    /// report becomes [`HcaError::Incoherent`]; otherwise the report passes
    /// through for the caller to record. This *is* the driver's gate —
    /// negative tests feed corrupted reports through it directly.
    ///
    /// [`Strict`]: ValidationLevel::Strict
    pub fn enforce(self, report: CoherencyReport) -> Result<CoherencyReport, HcaError> {
        if self == ValidationLevel::Strict && !report.is_legal() {
            return Err(HcaError::Incoherent { report });
        }
        Ok(report)
    }
}

/// Which solver backends the driver runs per sub-problem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PortfolioMode {
    /// The historical behaviour: the beam escalation ladder alone. No
    /// bounds are computed, no exact search runs — bit-identical to the
    /// pre-portfolio driver.
    #[default]
    BeamOnly,
    /// Beam plus the exact branch-and-bound on sub-problems of at most 12
    /// working-set nodes, cut only by the deterministic node budget
    /// ([`hca_see::EXACT_NODE_BUDGET`]), so runs are reproducible. Admissible MII floors are shared with the beam for
    /// the proven-optimal tier skip.
    ExactSmall,
}

/// Largest working set (in nodes) the exact backend attempts; beyond it the
/// search space is hopeless and only the beam runs. Part of the solving
/// context but not of the memo key: changing it (or
/// [`hca_see::EXACT_NODE_BUDGET`]) changes cached exact-small results, so
/// it needs a [`crate::memo::SNAPSHOT_VERSION`] bump.
pub(crate) const EXACT_MAX_NODES: usize = 12;

/// Per-sub-problem exact/beam portfolio policy (see [`PortfolioMode`]).
///
/// Whatever the mode, the beam runs first and the exact backend only
/// replaces its result when strictly better on the shared solution score
/// (`16·MII + copies`), not worse on MII, mappable, and passing
/// [`hca_pg::ArchConstraints::check`] — so the portfolio's MII is never
/// worse than beam-alone, and bit-identical to it whenever the beam wins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Backend selection policy.
    pub mode: PortfolioMode,
}

impl PortfolioConfig {
    /// Deterministic exact/beam portfolio ([`PortfolioMode::ExactSmall`]).
    pub fn exact_small() -> Self {
        PortfolioConfig {
            mode: PortfolioMode::ExactSmall,
        }
    }
}

/// HCA tunables.
#[derive(Clone, Copy, Debug)]
pub struct HcaConfig {
    /// Configuration of every per-level SEE run.
    pub see: SeeConfig,
    /// Per-issue-slot load ceiling, as slack over the unified-machine
    /// theoretical MII: every cluster may hold at most
    /// `theoretical + slack` ops per issue slot. Forces the wide spread the
    /// machine is built for; relaxed automatically on retry escalations.
    /// `None` disables the ceiling.
    pub issue_cap_slack: Option<u32>,
    /// Post-pass validation policy (see [`ValidationLevel`]).
    pub validation: ValidationLevel,
    /// Memoise solved sub-problems under a renumbering-equivariant
    /// canonical key and reuse them for isomorphic sub-problems within the
    /// run. Cached results are bit-exact replays; disable to compare.
    pub memo: bool,
    /// Byte budget of the run-private memo cache (when [`memo`] is on and
    /// no shared cache is supplied). Least-recently-used entries are
    /// evicted past the budget; eviction can only turn hits into misses,
    /// never change results. `0` caches nothing. Shared caches
    /// ([`run_hca_shared`]) carry their own budget and ignore this knob.
    ///
    /// [`memo`]: HcaConfig::memo
    pub memo_budget: usize,
    /// Exact/beam portfolio policy (see [`PortfolioConfig`]). The default
    /// [`PortfolioMode::BeamOnly`] leaves the driver bit-identical to its
    /// pre-portfolio behaviour.
    pub portfolio: PortfolioConfig,
}

impl Default for HcaConfig {
    fn default() -> Self {
        HcaConfig {
            see: SeeConfig::default(),
            issue_cap_slack: Some(1),
            validation: ValidationLevel::Report,
            memo: true,
            memo_budget: crate::memo::Memo::DEFAULT_BUDGET,
            portfolio: PortfolioConfig::default(),
        }
    }
}

impl HcaConfig {
    /// The default config with [`ValidationLevel::Strict`] validation.
    pub fn strict() -> Self {
        HcaConfig {
            validation: ValidationLevel::Strict,
            ..HcaConfig::default()
        }
    }
}

/// Why HCA failed.
#[derive(Clone, Debug)]
pub enum HcaError {
    /// The input DDG is ill-formed (zero-distance dependence cycle).
    Analysis(DdgError),
    /// A sub-problem's SEE found no legal assignment.
    See {
        /// Sub-problem id, e.g. `"0,2"`.
        problem: String,
        /// Underlying engine error.
        source: SeeError,
    },
    /// A sub-problem's Mapper could not lower the copies onto wires.
    Map {
        /// Sub-problem id.
        problem: String,
        /// Underlying mapper error.
        source: MapError,
    },
    /// A solved sub-problem left a working-set node without a cluster —
    /// an engine invariant violation surfaced as an error instead of a
    /// process abort.
    Unassigned {
        /// Sub-problem id.
        problem: String,
        /// The node SEE failed to place.
        node: NodeId,
    },
    /// Under [`ValidationLevel::Strict`], a solved sub-problem's assignment
    /// violates the architecture constraints (e.g. `outNode_MaxIn`).
    Constraint {
        /// Sub-problem id.
        problem: String,
        /// Human-readable constraint violation.
        detail: String,
    },
    /// Under [`ValidationLevel::Strict`], the final clusterisation failed
    /// the coherency checker.
    Incoherent {
        /// The full checker verdict (topology errors + per-edge violations).
        report: CoherencyReport,
    },
}

impl fmt::Display for HcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HcaError::Analysis(e) => write!(f, "DDG analysis failed: {e}"),
            HcaError::See { problem, source } => {
                write!(f, "sub-problem {problem}: SEE failed: {source}")
            }
            HcaError::Map { problem, source } => {
                write!(f, "sub-problem {problem}: Mapper failed: {source}")
            }
            HcaError::Unassigned { problem, node } => {
                write!(f, "sub-problem {problem}: node {node} left unassigned")
            }
            HcaError::Constraint { problem, detail } => {
                write!(f, "sub-problem {problem}: constraint violated: {detail}")
            }
            HcaError::Incoherent { report } => {
                write!(
                    f,
                    "strict validation failed: {} topology error(s), {} undelivered value(s)",
                    report.topology_errors.len(),
                    report.violations.len()
                )?;
                if let Some(err) = report.topology_errors.first() {
                    write!(f, "; first: {err}")?;
                } else if let Some(v) = report.violations.first() {
                    write!(f, "; first: {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for HcaError {}

/// Aggregate run statistics. Serialisable because solved subtrees carry
/// their stats through the memo cache's on-disk snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HcaStats {
    /// Sub-problems solved (tree nodes visited).
    pub subproblems: usize,
    /// Partial solutions materialised across every SEE run.
    pub see_states: usize,
    /// Nodes placed by the Route Allocator.
    pub routed_nodes: usize,
    /// Leaf-level pass-through forwards (route ops in the final DDG).
    pub forwards: usize,
    /// Configured wires in the final topology.
    pub wires: usize,
    /// Sub-problems where the portfolio's exact backend displaced the beam
    /// result. Zero on every beam-only run; the driver uses it to decide
    /// whether the global never-worse guard needs a beam-alone re-run.
    #[serde(default)]
    pub exact_wins: usize,
}

/// Result of a full HCA run.
#[derive(Clone, Debug)]
pub struct HcaResult {
    /// Placement of every original DDG node.
    pub placement: FxHashMap<NodeId, CnId>,
    /// The configured topology of the whole machine.
    pub topology: Topology,
    /// The final DDG (recv/route primitives materialised) with placements.
    pub final_program: FinalProgram,
    /// The §4.2 cost model outputs.
    pub mii: MiiReport,
    /// Coherency-checker verdict.
    pub coherency: CoherencyReport,
    /// Run statistics.
    pub stats: HcaStats,
    /// Observability snapshot (phase timings, counters, histograms);
    /// `None` when the run was not observed.
    pub metrics: Option<RunMetrics>,
}

impl HcaResult {
    /// Is the clusterisation legal (paper Table 1's "Legal clusterization")?
    pub fn is_legal(&self) -> bool {
        self.coherency.is_legal()
    }
}

/// Run Hierarchical Cluster Assignment of `ddg` onto `fabric`.
///
/// ```
/// use hca_core::{run_hca, HcaConfig};
/// use hca_arch::DspFabric;
/// use hca_ddg::{DdgBuilder, Opcode};
///
/// // ptr++ ; x = load ptr ; y = x * x ; store y @ ptr
/// let mut b = DdgBuilder::default();
/// let ptr = b.named(Opcode::AddrAdd, "ptr++");
/// b.carried(ptr, ptr, 1);
/// let x = b.op_with(Opcode::Load, &[ptr]);
/// let y = b.op_with(Opcode::Mul, &[x, x]);
/// b.op_with(Opcode::Store, &[y, ptr]);
/// let ddg = b.finish();
///
/// let fabric = DspFabric::standard(8, 8, 8); // the paper's 64-CN machine
/// let result = run_hca(&ddg, &fabric, &HcaConfig::default()).unwrap();
/// assert!(result.is_legal());
/// assert!(result.mii.final_mii >= result.mii.theoretical);
/// assert_eq!(result.placement.len(), ddg.num_nodes());
/// ```
pub fn run_hca(ddg: &Ddg, fabric: &DspFabric, config: &HcaConfig) -> Result<HcaResult, HcaError> {
    run_hca_obs(ddg, fabric, config, &Obs::disabled())
}

/// SEE phase label for a hierarchy level (static so disabled spans stay
/// allocation-free).
fn level_phase(d: usize) -> &'static str {
    match d {
        0 => "level0",
        1 => "level1",
        2 => "level2",
        3 => "level3",
        _ => "level4plus",
    }
}

/// Fold one SEE run's statistics into the observer's counters.
fn record_see_stats(obs: &Obs, s: &hca_see::SeeStats) {
    if !obs.is_enabled() {
        return;
    }
    obs.counter_add("see.states_explored", s.states_explored as u64);
    obs.counter_add("see.states_pruned", s.states_pruned as u64);
    obs.counter_add("see.cand_rejected_margin", s.cand_rejected_margin as u64);
    obs.counter_add("see.cand_rejected_branch", s.cand_rejected_branch as u64);
    obs.counter_add("see.route_attempts", s.route_attempts as u64);
    obs.counter_add("see.routed_nodes", s.routed_nodes as u64);
    obs.counter_add("see.routed_hops", u64::from(s.routed_hops));
    obs.counter_add("see.route_bfs_runs", s.route_bfs_runs as u64);
    obs.counter_add("see.route_cache_hits", s.route_cache_hits as u64);
    obs.counter_add("see.steps", s.steps as u64);
    // The occupancy vector is a bounded *sample* (STEP_SAMPLE_CAP); the
    // histogram over it stays representative, the exact totals live in
    // `beam_occupancy_sum` / `step_time_total_ns`.
    for &width in &s.beam_occupancy {
        obs.histogram_record("see.beam_occupancy", width);
    }
    obs.counter_add("see.step_time_us", s.step_time_total_ns / 1_000);
    // Trial clones made while scoring candidates. The mutation-free scorer
    // keeps this at zero; a non-zero value means a per-candidate state copy
    // crept back into the hot loop (`tests/determinism.rs` hard-fails on it).
    obs.counter_add("see.state_clones", s.state_clones as u64);
    // Byte footprints are high-water marks, never histograms (histogram
    // buckets are dense, indexed by magnitude).
    obs.counter_max("see.route_table_bytes", s.route_table_bytes as u64);
    obs.counter_max("see.peak_frontier_bytes", s.peak_frontier_bytes as u64);
    obs.counter_max("see.arc_table_bytes", s.arc_table_bytes as u64);
    obs.counter_max("see.state_arena_bytes", s.state_arena_bytes as u64);
}

/// Shared immutable context of one HCA run, threaded through the recursive
/// sub-problem solver (and across `hca-par` workers — everything here is a
/// shared reference to immutable or internally-synchronised data).
struct SolveCtx<'a> {
    ddg: &'a Ddg,
    fabric: &'a DspFabric,
    config: &'a HcaConfig,
    obs: &'a Obs,
    analysis: &'a DdgAnalysis,
    theo_mii: u32,
    /// Topological position per DDG node (the memo cache is DDG-independent,
    /// so the run supplies this table to the key canonicaliser).
    topo_pos: &'a [usize],
    /// Sub-problem cache ([`HcaConfig::memo`]); `None` when disabled.
    memo: Option<&'a crate::memo::Memo>,
    /// Whether `memo` was handed in ([`run_hca_shared`]): such a cache
    /// outlives the run and admits an entry only on second sight
    /// ([`crate::memo::Memo::offer`]); a run-owned cache admits at once.
    memo_handed_in: bool,
    /// Search-trace recorder ([`run_hca_traced`]); disabled elsewhere.
    tracer: &'a SearchTracer,
    /// Beam-ladder decisions shared between an exact-small run, which
    /// records them, and its beam-only guard run, which replays them;
    /// `None` on every other run.
    ladders: Option<&'a LadderBook>,
}

/// The beam ladder's decision for one sub-problem, taken before the exact
/// backend could displace it. The ladder depends only on the sub-problem
/// (path, working set, ILI) and the run's config, never on the portfolio
/// mode — the bound only lets tiers be skipped — so the guard's beam-only
/// run can adopt it instead of re-running the tiers.
struct LadderRecord {
    working_set: Vec<NodeId>,
    ili: hca_pg::Ili,
    /// The tier-fold (or fallback) winner and its tier.
    winner: (hca_see::SeeOutcome, MapperOutput),
    winner_tier: u32,
    /// What each tier added to [`HcaStats::see_states`] (0 when its SEE
    /// failed); `None` for tiers a bound exit skipped.
    tier_states: [Option<usize>; 5],
}

/// Run-local table of [`LadderRecord`]s keyed by sub-problem path. It lives
/// only from an exact-small run to the end of its guard run, and never
/// enters the memo cache or a snapshot.
#[derive(Default)]
struct LadderBook(Mutex<FxHashMap<Vec<usize>, LadderRecord>>);

impl LadderBook {
    fn record(&self, path: &[usize], rec: LadderRecord) {
        let mut book = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        book.insert(path.to_vec(), rec);
    }

    /// Remove the record of `sp`'s path; `Some` only when the recorded
    /// sub-problem is the same one (below an exact win the trees diverge).
    fn take(&self, sp: &Subproblem) -> Option<LadderRecord> {
        let mut book = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        book.remove(&sp.path)
            .filter(|r| r.working_set == sp.working_set && r.ili == sp.ili)
    }
}

/// Everything one sub-problem subtree contributes to the final result.
///
/// Each solved sub-problem appends to these sequences locally; a parent
/// concatenates its children's results in **reverse member order** — the
/// traversal order of the historical explicit-stack DFS — so the merged
/// sequences (and everything derived from them: placement map insertion
/// order, route-op order, topology groups) are bit-identical whatever the
/// `HCA_THREADS` count.
#[derive(Default)]
pub(crate) struct SubResult {
    pub(crate) placement: Vec<(NodeId, CnId)>,
    pub(crate) route_ops: Vec<(NodeId, CnId)>,
    pub(crate) groups: Vec<(Vec<usize>, GroupTopology)>,
    pub(crate) stats: HcaStats,
    /// `est_mii` of the level-0 outcome (1 everywhere below the root).
    pub(crate) ini_mii: u32,
}

/// Fold a child subtree's statistics into the parent's.
fn merge_stats(into: &mut HcaStats, from: &HcaStats) {
    into.subproblems += from.subproblems;
    into.see_states += from.see_states;
    into.routed_nodes += from.routed_nodes;
    into.forwards += from.forwards;
    into.wires += from.wires;
    into.exact_wins += from.exact_wins;
}

/// [`run_hca`] with explicit observability: phase spans (decomposition,
/// per-level SEE, mapper, materialisation, coherency, MII), the SEE /
/// mapper / coherency counters, and structured diagnostic events (tier
/// failures, fallbacks, failing sub-problems; `hca -v` prints them). With
/// a disabled [`Obs`] every hook is a no-op branch and the run behaves
/// exactly like [`run_hca`].
pub fn run_hca_obs(
    ddg: &Ddg,
    fabric: &DspFabric,
    config: &HcaConfig,
    obs: &Obs,
) -> Result<HcaResult, HcaError> {
    run_hca_inner(ddg, fabric, config, obs, None, &SearchTracer::disabled())
}

/// [`run_hca_obs`] with a search-trace recorder: every sub-problem emits
/// `sub` / `memo` / `tier` / `solved` records and every SEE run streams
/// per-step `step` records through the tracer (see
/// [`hca_obs::trace`] for the schema). One run-level `mii` record closes
/// the trace. With a disabled tracer this is exactly [`run_hca_obs`] —
/// the trace hooks are no-op branches on the hot path.
pub fn run_hca_traced(
    ddg: &Ddg,
    fabric: &DspFabric,
    config: &HcaConfig,
    obs: &Obs,
    tracer: &SearchTracer,
) -> Result<HcaResult, HcaError> {
    run_hca_inner(ddg, fabric, config, obs, None, tracer)
}

/// [`run_hca_obs`] with an externally owned sub-problem cache. The cache
/// outlives the run: a serving daemon shares one across every request it
/// ever handles. The memo key encodes the fabric and the full solving
/// context, so one cache is sound across different kernels, machines and
/// configurations — a hit happens exactly when a fresh solve would
/// reproduce the cached bits. The shared cache is used regardless of
/// [`HcaConfig::memo`] (passing it *is* the opt-in) and carries its own
/// byte budget.
///
/// A handed-in cache admits a solved sub-problem only on *second sight*
/// (see [`crate::memo::Memo::deferred`]): the first solve of a key records
/// its hash and drops the entry, a later solve of the same key caches it.
/// So a never-repeating kernel leaves next to nothing behind, and a kernel
/// whose sub-problems do not repeat within one compile hits at the root
/// only from its third call on. Outputs are the same whatever the cache
/// holds.
pub fn run_hca_shared(
    ddg: &Ddg,
    fabric: &DspFabric,
    config: &HcaConfig,
    obs: &Obs,
    memo: &crate::memo::Memo,
) -> Result<HcaResult, HcaError> {
    run_hca_inner(
        ddg,
        fabric,
        config,
        obs,
        Some(memo),
        &SearchTracer::disabled(),
    )
}

/// [`run_hca_obs`] with an optional externally owned sub-problem cache
/// ([`run_hca_shared`]). With `None` (and [`HcaConfig::memo`] on) the run
/// owns a private cache that admits at once.
///
/// When the exact backend displaced the beam result in at least one
/// sub-problem, the *global* never-worse-than-beam guarantee does not
/// follow from the per-sub-problem acceptance rule alone: a locally better
/// level result (same estimated MII, fewer copies) can steer the greedy
/// recursion into a worse final MII downstream. So this wrapper re-runs
/// the driver beam-only whenever `stats.exact_wins > 0` and keeps the
/// result with the lower final MII (the exact-assisted one on ties). The
/// extra run costs nothing in the common case — with zero exact wins the
/// two runs are bit-identical and the guard never fires. When it fires, the
/// guard replays the beam ladders the exact-assisted run recorded (see
/// [`LadderRecord`]) and searches only what differs: tiers a bound exit
/// skipped, and subtrees below an exact win.
fn run_hca_inner(
    ddg: &Ddg,
    fabric: &DspFabric,
    config: &HcaConfig,
    obs: &Obs,
    shared_memo: Option<&crate::memo::Memo>,
    tracer: &SearchTracer,
) -> Result<HcaResult, HcaError> {
    let ladders = (config.portfolio.mode != PortfolioMode::BeamOnly).then(LadderBook::default);
    let once = |config: &HcaConfig, tracer: &SearchTracer| {
        run_hca_once(
            ddg,
            fabric,
            config,
            obs,
            shared_memo,
            tracer,
            ladders.as_ref(),
        )
    };
    let res = once(config, tracer)?;
    if config.portfolio.mode == PortfolioMode::BeamOnly || res.stats.exact_wins == 0 {
        return Ok(res);
    }
    obs.counter_add("portfolio.guard_runs", 1);
    let beam_cfg = HcaConfig {
        portfolio: PortfolioConfig::default(),
        ..*config
    };
    // The guard run is untraced: a search trace describes one solve, and
    // the exact-assisted run above is the one being explained.
    let beam = once(&beam_cfg, &SearchTracer::disabled())?;
    let beam_better = beam.mii.final_mii < res.mii.final_mii && beam.is_legal();
    let mut kept = if beam_better || (!res.is_legal() && beam.is_legal()) {
        obs.counter_add("portfolio.guard_kept_beam", 1);
        beam
    } else {
        res
    };
    // Re-snapshot so the kept result's metrics cover the guard run too.
    kept.metrics = obs.snapshot();
    Ok(kept)
}

fn run_hca_once(
    ddg: &Ddg,
    fabric: &DspFabric,
    config: &HcaConfig,
    obs: &Obs,
    shared_memo: Option<&crate::memo::Memo>,
    tracer: &SearchTracer,
    ladders: Option<&LadderBook>,
) -> Result<HcaResult, HcaError> {
    let analysis_span = obs.span("driver", "analysis");
    let analysis = DdgAnalysis::compute(ddg).map_err(HcaError::Analysis)?;
    let theo_mii = crate::mii::theoretical_mii(analysis.mii_rec, ddg, fabric);
    drop(analysis_span);

    let own_memo;
    let memo: Option<&crate::memo::Memo> = match shared_memo {
        // An explicit shared cache is the opt-in, whatever `config.memo`
        // says — its owner decided the budget and lifetime.
        Some(m) => Some(m),
        None if config.memo => {
            own_memo = Some(crate::memo::Memo::new(config.memo_budget));
            own_memo.as_ref()
        }
        None => None,
    };
    // Topological position per node, for the memo key's relative-order
    // encoding (the cache itself is DDG-independent).
    let mut topo_pos = vec![usize::MAX; ddg.num_nodes()];
    for (i, &n) in analysis.topo.iter().enumerate() {
        topo_pos[n.index()] = i;
    }
    let cx = SolveCtx {
        ddg,
        fabric,
        config,
        obs,
        analysis: &analysis,
        theo_mii,
        topo_pos: &topo_pos,
        memo,
        memo_handed_in: shared_memo.is_some(),
        tracer,
        ladders,
    };
    let root = Subproblem::root(ddg.node_ids().collect());
    let sub = solve_subproblem(&cx, &root)?;

    let mut topology = Topology::new();
    for (path, group) in sub.groups {
        *topology.group_mut(&path) = group;
    }
    let mut placement: FxHashMap<NodeId, CnId> = FxHashMap::default();
    for (n, cn) in sub.placement {
        placement.insert(n, cn);
    }
    let route_ops = sub.route_ops;
    let ini_mii = sub.ini_mii;
    let mut stats = sub.stats;

    stats.forwards = route_ops.len();
    let materialise_span = obs.span("driver", "materialise");
    let final_program = build_final_program(ddg, fabric, &placement, &route_ops);
    drop(materialise_span);
    let mii_span = obs.span("driver", "mii");
    let mii = mii_report(
        ddg,
        analysis.mii_rec,
        fabric,
        &final_program,
        &topology,
        ini_mii,
    );
    drop(mii_span);
    // Run-level MII attribution: which §4.2 cost-model component the final
    // MII is bound by. `final_mii = max(ini_mii, max_cls_mii, wire_mii,
    // dma_mii, final_mii_rec)`; the binder is the first component reaching
    // it (dma is the only one the report does not carry explicitly).
    tracer.record(|| {
        let why = if mii.final_mii == mii.final_mii_rec {
            "recurrence"
        } else if mii.final_mii == mii.max_cls_mii {
            "cluster"
        } else if mii.final_mii == mii.wire_mii {
            "wire"
        } else if mii.final_mii == mii.ini_mii {
            "estimate"
        } else {
            "dma"
        };
        TraceRecord {
            kind: kind::MII.to_string(),
            est_mii: mii.final_mii,
            mii_rec: mii.final_mii_rec,
            mii_issue: mii.max_cls_mii,
            mii_arc: mii.wire_mii,
            why: why.to_string(),
            ..TraceRecord::default()
        }
    });
    let coherency = if config.validation == ValidationLevel::Off {
        CoherencyReport::default()
    } else {
        let place = placement.clone();
        let coherency_span = obs.span("driver", "coherency");
        let report = check_coherency(fabric, &topology, ddg, &move |n| place[&n]);
        drop(coherency_span);
        report
    };
    let coherency = match config.validation.enforce(coherency) {
        Ok(report) => report,
        Err(e) => {
            if let HcaError::Incoherent { report } = &e {
                obs.counter_add("coherency.violations", report.violations.len() as u64);
                obs.counter_add(
                    "coherency.topology_errors",
                    report.topology_errors.len() as u64,
                );
            }
            return Err(e);
        }
    };

    if obs.is_enabled() {
        if let Some(m) = memo {
            // High-water marks, not sums: a shared (daemon) cache reports
            // its largest observed footprint, and evictions are a lifetime
            // count over the cache, not this run.
            obs.counter_max("driver.memo_bytes", m.approx_bytes() as u64);
            obs.counter_max("driver.memo_entries", m.entries() as u64);
            obs.counter_max("driver.memo_evictions", m.evictions());
        }
        obs.counter_add("driver.subproblems", stats.subproblems as u64);
        obs.counter_add("driver.forwards", stats.forwards as u64);
        obs.counter_add("driver.wires", stats.wires as u64);
        obs.counter_add("coherency.violations", coherency.violations.len() as u64);
        obs.counter_add(
            "coherency.topology_errors",
            coherency.topology_errors.len() as u64,
        );
        obs.instant(
            "driver",
            "done",
            vec![
                ("final_mii".into(), u64::from(mii.final_mii).into()),
                ("legal".into(), coherency.is_legal().into()),
            ],
        );
    }

    Ok(HcaResult {
        placement,
        topology,
        final_program,
        mii,
        coherency,
        stats,
        metrics: obs.snapshot(),
    })
}

/// Solve sub-problem `sp` and its whole subtree: run the SEE escalation
/// ladder and the Mapper at this level, then recurse into the child
/// sub-problems. Beam-only ladders run their tiers concurrently and the
/// children run concurrently — both are independent searches, folded or
/// merged in a fixed order. Returns the subtree's contribution to the
/// final result; see [`SubResult`] for the determinism contract.
fn solve_subproblem(cx: &SolveCtx<'_>, sp: &Subproblem) -> Result<SubResult, HcaError> {
    let SolveCtx {
        ddg,
        fabric,
        config,
        obs,
        analysis,
        theo_mii,
        topo_pos,
        memo,
        memo_handed_in,
        tracer,
        ladders,
    } = *cx;
    let trace_on = tracer.is_enabled();
    if trace_on {
        tracer.record(|| TraceRecord {
            kind: kind::SUB.to_string(),
            problem: sp.id(),
            depth: sp.depth() as u32,
            ws: sp.working_set.len() as u32,
            ili_in: sp.ili.inputs.len() as u32,
            ili_out: sp.ili.outputs.len() as u32,
            ..TraceRecord::default()
        });
    }
    // Memoisation: answer isomorphic sub-problems from the cache. The key
    // encodes the full solving context (see `memo` module docs), so a hit
    // rehydrates to exactly what the solve below would have produced.
    let memo_ctx = memo.map(|m| {
        let (key, canon2raw) =
            crate::memo::canonicalise(topo_pos, ddg, analysis, config, theo_mii, fabric, sp);
        (m, key, canon2raw)
    });
    if let Some((m, key, canon2raw)) = &memo_ctx {
        let hit = m.lookup(key);
        if trace_on {
            let was_hit = hit.is_some();
            tracer.record(|| TraceRecord {
                kind: kind::MEMO.to_string(),
                problem: sp.id(),
                depth: sp.depth() as u32,
                ok: was_hit,
                why: if was_hit { "hit" } else { "miss" }.to_string(),
                ..TraceRecord::default()
            });
        }
        if let Some(hit) = hit {
            obs.counter_add("driver.memo_hits", 1);
            return Ok(crate::memo::rehydrate(&hit, canon2raw, &sp.path, fabric));
        }
        obs.counter_add("driver.memo_misses", 1);
    }
    let mut res = SubResult {
        ini_mii: 1,
        ..SubResult::default()
    };
    res.stats.subproblems = 1;
    let d = sp.depth();
    let decompose_span = obs.span("driver", "decompose");
    let pg = level_pg(fabric, d, &sp.ili);
    let constraints = level_constraints(fabric, d);
    let spec = effective_spec(fabric, d);
    drop(decompose_span);
    // Pressure-balancing splits only at the very top: deeper levels must
    // hoard crossbar intake and CN input ports.
    let opts = MapOptions {
        balance_split: d + 2 < fabric.depth(),
    };

    // Escalating retries: when the beam dead-ends (or its assignment is
    // unmappable), widen the search before giving up — a common trick in
    // production clusterers, and cheap because failures are rare.
    let mut attempt_err: Option<HcaError> = None;
    let mut solved: Option<(hca_see::SeeOutcome, MapperOutput)> = None;
    // Escalation ladder. Tier 0 is the user's config plus the
    // spread-forcing issue cap; later tiers deliberately *diversify*
    // (different priority orders, wider beams, and finally a pure
    // copy-minimising objective) — empirically, distinct sub-problems
    // fall to distinct strategies, so breadth beats depth here.
    // Bound sharing (portfolio modes only): admissible MII floors computed
    // once, before any search, feed both backends — the beam's
    // proven-optimal tier skip below and the exact search's pruning cutoff.
    // BeamOnly skips even the computation so the historical mode stays
    // literally untouched.
    let bound: Option<u32> = (config.portfolio.mode != PortfolioMode::BeamOnly).then(|| {
        let lb = mii_lower_bound(ddg, analysis, &pg, &constraints, Some(&sp.working_set));
        obs.counter_add("portfolio.bounds_computed", 1);
        lb.overall()
    });
    let mut base = config.see;
    base.mii_bound = bound.or(base.mii_bound);
    let cap = config.issue_cap_slack;
    let tiers: [SeeConfig; 5] = [
        SeeConfig {
            issue_cap: cap.map(|s| theo_mii + s),
            ..base
        },
        SeeConfig {
            issue_cap: cap.map(|s| theo_mii + s + 2),
            beam_width: base.beam_width * 8,
            branch_factor: base.branch_factor * 2,
            candidate_margin: base.candidate_margin * 4.0,
            ..base
        },
        SeeConfig {
            issue_cap: None,
            beam_width: base.beam_width * 4,
            branch_factor: base.branch_factor + 1,
            candidate_margin: base.candidate_margin * 2.0,
            priority: hca_ddg::PriorityPolicy::ExternalOperandsFirst,
            ..base
        },
        SeeConfig {
            issue_cap: None,
            beam_width: base.beam_width * 4,
            branch_factor: base.branch_factor + 1,
            candidate_margin: f64::INFINITY,
            // Survival mode: a pressure-minimising objective steers every
            // beam state towards balanced placements that die on input
            // ports; pure copy minimisation co-locates dataflow
            // neighbours — the port-light shape that still fits.
            weights: hca_see::CostWeights::copies_only(),
            ..base
        },
        SeeConfig {
            issue_cap: None,
            beam_width: base.beam_width * 8,
            branch_factor: base.branch_factor * 2,
            candidate_margin: base.candidate_margin * 4.0,
            priority: hca_ddg::PriorityPolicy::ConnectivityFirst,
            ..base
        },
    ];
    let elapsed_ns = |t0: Option<std::time::Instant>| {
        t0.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    };
    // One tier: SEE on the working set, then the Mapper on its assignment,
    // timed for the trace. It opens its SEE span on whichever pool thread
    // runs it, so `see.level*` time is SEE busy time summed over threads.
    let run_tier = |tier: usize| {
        let t0 = trace_on.then(std::time::Instant::now);
        let _see_span = obs.span("see", level_phase(d));
        let mut see = See::new(ddg, analysis, &pg, constraints, tiers[tier]);
        if trace_on {
            see = see.with_tracer(tracer.scoped(&sp.id(), d as u32, tier as u32));
        }
        let run = see.run(Some(&sp.working_set)).map(|outcome| {
            let mapped = map_level_obs(&outcome.assigned, spec, opts, obs);
            (outcome, mapped)
        });
        (run, elapsed_ns(t0))
    };
    let mut winner_tier: u32 = FALLBACK_TIER;
    // What each tier added to `see_states`, for the ladder record; `None`
    // until the tier runs.
    let mut tier_states: [Option<usize>; 5] = [None; 5];
    let mut todo: Vec<usize> = (0..tiers.len()).collect();
    // Guard replay: the exact-small run already decided this ladder, so
    // adopt its winner and run only the tiers a bound exit skipped there.
    // They cannot win, but their states belong in `see_states`.
    if let Some(rec) = ladders.filter(|_| bound.is_none()).and_then(|b| b.take(sp)) {
        obs.counter_add("portfolio.guard_replays", 1);
        res.stats.see_states += rec.tier_states.iter().flatten().sum::<usize>();
        todo.retain(|&t| rec.tier_states[t].is_none());
        winner_tier = rec.winner_tier;
        solved = Some(rec.winner);
    }
    // Without a bound nothing can end the ladder early, so every tier in
    // `todo` runs: compute them all up front on the pool, widest beam
    // first so the longest runs start earliest, and hand them to the fold
    // in tier order. With a bound, tiers run one at a time so a
    // proven-optimal exit still skips the rest.
    let mut eager = bound.is_none().then(|| {
        let mut order = todo.clone();
        order.sort_by_key(|&t| std::cmp::Reverse(tiers[t].beam_width * tiers[t].branch_factor));
        let runs = hca_par::par_map(&order, |&t| run_tier(t));
        let mut by_tier: Vec<_> = order.into_iter().zip(runs).collect();
        by_tier.sort_unstable_by_key(|&(t, _)| t);
        by_tier.into_iter().map(|(_, run)| run)
    });
    // Fold every tier in tier order and keep the best mapped result —
    // which strategy wins varies per sub-problem.
    // Set when a tier winner provably reached the global score minimum
    // (bound sharing): the remaining tiers — and the exact backend — have
    // nothing left to win.
    let mut bound_exit = false;
    for tier in todo {
        let (run, ns) = match &mut eager {
            Some(runs) => runs.next().expect("one run per tier"),
            None => run_tier(tier),
        };
        tier_states[tier] = Some(0);
        let (outcome, mapped) = match run {
            Ok(pair) => pair,
            Err(source) => {
                if trace_on {
                    let msg = source.to_string();
                    tracer.record(|| TraceRecord {
                        kind: kind::TIER.to_string(),
                        problem: sp.id(),
                        depth: d as u32,
                        tier: tier as u32,
                        ok: false,
                        ns,
                        why: msg,
                        ..TraceRecord::default()
                    });
                }
                obs.log("see", "tier_failed", || {
                    format!("{} tier {tier}: {source}", sp.id())
                });
                attempt_err = Some(HcaError::See {
                    problem: format!(
                        "{} (ws {} nodes, ili {} in / {} out, max_in {})",
                        sp.id(),
                        sp.working_set.len(),
                        sp.ili.inputs.len(),
                        sp.ili.outputs.len(),
                        constraints.max_in_neighbors,
                    ),
                    source,
                });
                continue;
            }
        };
        res.stats.see_states += outcome.stats.states_explored;
        tier_states[tier] = Some(outcome.stats.states_explored);
        record_see_stats(obs, &outcome.stats);
        match mapped {
            Ok(mapped) => {
                if trace_on {
                    let (bfs, hits) = (
                        outcome.stats.route_bfs_runs as u64,
                        outcome.stats.route_cache_hits as u64,
                    );
                    let copies = outcome.assigned.total_copies() as u32;
                    let (est, mi, ma, cost) = (
                        outcome.est_mii,
                        outcome.mii_issue,
                        outcome.mii_arc,
                        outcome.cost,
                    );
                    tracer.record(|| TraceRecord {
                        kind: kind::TIER.to_string(),
                        problem: sp.id(),
                        depth: d as u32,
                        tier: tier as u32,
                        ok: true,
                        ns,
                        est_mii: est,
                        mii_rec: analysis.mii_rec,
                        mii_issue: mi,
                        mii_arc: ma,
                        cost,
                        copies,
                        route_bfs: bfs,
                        route_hits: hits,
                        ..TraceRecord::default()
                    });
                }
                // Copies dominate downstream cost (each becomes receives,
                // ports and wires one level down), so weigh them against
                // the local MII estimate rather than tie-breaking on it.
                let score =
                    |o: &hca_see::SeeOutcome| 16 * o.est_mii as usize + o.assigned.total_copies();
                let better = match &solved {
                    None => true,
                    Some((best, _)) => score(&outcome) < score(best),
                };
                if better {
                    winner_tier = tier as u32;
                    solved = Some((outcome, mapped));
                }
                // Proven-optimal early exit: with zero copies at the
                // admissible floor the winner's score `16·MII + copies`
                // sits at its global minimum, and the tier loop keeps the
                // *earliest* tier on score ties — so no later tier can
                // change the outcome. Skipping them is output-preserving,
                // and the floor is also an absolute optimality proof.
                if let (Some(b), Some((best, _))) = (bound, &solved) {
                    if best.est_mii <= b && best.assigned.total_copies() == 0 {
                        obs.counter_add("portfolio.bound_exits", 1);
                        obs.counter_add("portfolio.gap_known", 1);
                        bound_exit = true;
                        break;
                    }
                }
            }
            Err(source) => {
                if trace_on {
                    let msg = format!("map: {source}");
                    tracer.record(|| TraceRecord {
                        kind: kind::TIER.to_string(),
                        problem: sp.id(),
                        depth: d as u32,
                        tier: tier as u32,
                        ok: false,
                        ns,
                        why: msg,
                        ..TraceRecord::default()
                    });
                }
                attempt_err = Some(HcaError::Map {
                    problem: sp.id(),
                    source,
                });
            }
        }
    }
    // Completion backstop: the deterministic chain layout (see
    // `See::chain_fallback`) — legal whenever the consumed wires fit,
    // at terrible MII, so only the search's rare dead-ends pay it.
    if solved.is_none() {
        obs.counter_add("driver.fallbacks", 1);
        obs.log("driver", "fallback", || {
            format!(
                "chain fallback at {} (ws {}, ili {}in/{}out): {}",
                sp.id(),
                sp.working_set.len(),
                sp.ili.inputs.len(),
                sp.ili.outputs.len(),
                attempt_err
                    .as_ref()
                    .map_or_else(|| "?".into(), ToString::to_string),
            )
        });
        let fallback_span = obs.span("driver", "fallback");
        let see = See::new(ddg, analysis, &pg, constraints, config.see);
        // Layered (work-spreading) fallback first; the single-host chain
        // only for the cases it cannot express.
        for (label, outcome) in [
            ("layered", see.layered_fallback(Some(&sp.working_set))),
            ("chain", see.chain_fallback(Some(&sp.working_set))),
        ] {
            let Some(outcome) = outcome else { continue };
            if let Ok(mapped) = map_level_obs(&outcome.assigned, spec, opts, obs) {
                record_see_stats(obs, &outcome.stats);
                if trace_on {
                    let copies = outcome.assigned.total_copies() as u32;
                    let (est, mi, ma, cost) = (
                        outcome.est_mii,
                        outcome.mii_issue,
                        outcome.mii_arc,
                        outcome.cost,
                    );
                    tracer.record(|| TraceRecord {
                        kind: kind::TIER.to_string(),
                        problem: sp.id(),
                        depth: d as u32,
                        tier: FALLBACK_TIER,
                        ok: true,
                        est_mii: est,
                        mii_rec: analysis.mii_rec,
                        mii_issue: mi,
                        mii_arc: ma,
                        cost,
                        copies,
                        why: label.to_string(),
                        ..TraceRecord::default()
                    });
                }
                winner_tier = FALLBACK_TIER;
                solved = Some((outcome, mapped));
                break;
            }
        }
        drop(fallback_span);
    }
    // Exact-small: record the ladder's decision before the exact backend
    // can displace it, for the guard run to replay.
    if let (Some(book), Some(_), Some((outcome, mapped))) = (ladders, bound, &solved) {
        book.record(
            &sp.path,
            LadderRecord {
                working_set: sp.working_set.clone(),
                ili: sp.ili.clone(),
                winner: (outcome.clone(), mapped.clone()),
                winner_tier,
                tier_states,
            },
        );
    }

    // Exact backend: on small sub-problems, run the branch-and-bound
    // against the beam incumbent. Seeded with the beam's score it only ever
    // returns strictly better solutions; acceptance additionally requires a
    // no-worse MII, a successful Mapper run and a from-scratch
    // `ArchConstraints::check` pass — so the portfolio result is never
    // worse than beam-alone on MII and bit-identical to it whenever the
    // beam side wins. A bound-exited winner already sits at the global
    // score minimum, so the exact run is skipped as pointless.
    let beam_key = solved.as_ref().map(|(o, _)| {
        (
            solution_score(o.est_mii, o.assigned.total_copies() as u32),
            o.est_mii,
        )
    });
    if let Some((beam_score, beam_mii)) = beam_key {
        if config.portfolio.mode != PortfolioMode::BeamOnly
            && !bound_exit
            && !sp.working_set.is_empty()
            && sp.working_set.len() <= EXACT_MAX_NODES
        {
            obs.counter_add("portfolio.exact_runs", 1);
            let exact_t0 = trace_on.then(std::time::Instant::now);
            let exact_span = obs.span("see", "exact");
            let exact_see = See::new(ddg, analysis, &pg, constraints, SeeConfig::exhaustive());
            let run = exact_see.run_exact(
                Some(&sp.working_set),
                &ExactConfig {
                    incumbent_score: Some(beam_score),
                    floor: bound.unwrap_or(1),
                    ..ExactConfig::default()
                },
            );
            drop(exact_span);
            if let Ok(ex) = run {
                res.stats.see_states += usize::try_from(ex.nodes_visited).unwrap_or(usize::MAX);
                if ex.mii_proven {
                    obs.counter_add("portfolio.exact_proofs", 1);
                }
                // Optimality-gap accounting: when the exact side settles
                // the optimum — floor hit (absolute) or full enumeration
                // (optimal among direct assignments) — record how far
                // beam-alone landed from it.
                let proven_opt = if ex.mii_proven {
                    ex.outcome.as_ref().map(|o| o.est_mii)
                } else if ex.exhausted {
                    Some(
                        ex.outcome
                            .as_ref()
                            .map_or(beam_mii, |o| o.est_mii.min(beam_mii)),
                    )
                } else {
                    None
                };
                if let Some(opt) = proven_opt {
                    obs.counter_add("portfolio.gap_known", 1);
                    obs.counter_add("portfolio.gap_sum", u64::from(beam_mii.saturating_sub(opt)));
                }
                let mut accepted = false;
                if let (Some(out), Some(ex_score)) = (ex.outcome, ex.score) {
                    // The legality gate applies to exact outputs exactly as
                    // Strict applies to beam outputs — whatever the run's
                    // validation level, an illegal exact solution never
                    // displaces a legal beam one.
                    if ex_score < beam_score
                        && out.est_mii <= beam_mii
                        && constraints.check(&out.assigned).is_ok()
                    {
                        if let Ok(mapped) = map_level_obs(&out.assigned, spec, opts, obs) {
                            obs.counter_add("portfolio.exact_wins", 1);
                            res.stats.exact_wins += 1;
                            record_see_stats(obs, &out.stats);
                            winner_tier = EXACT_TIER;
                            accepted = true;
                            solved = Some((out, mapped));
                        }
                    }
                }
                if trace_on {
                    let ns = elapsed_ns(exact_t0);
                    let why = if ex.mii_proven {
                        "proven"
                    } else if ex.exhausted {
                        "exhausted"
                    } else {
                        "budget"
                    };
                    let (est, copies) = solved
                        .as_ref()
                        .filter(|_| accepted)
                        .map_or((0, 0), |(o, _)| {
                            (o.est_mii, o.assigned.total_copies() as u32)
                        });
                    tracer.record(|| TraceRecord {
                        kind: kind::TIER.to_string(),
                        problem: sp.id(),
                        depth: d as u32,
                        tier: EXACT_TIER,
                        ok: accepted,
                        ns,
                        est_mii: est,
                        mii_rec: analysis.mii_rec,
                        copies,
                        why: why.to_string(),
                        ..TraceRecord::default()
                    });
                }
            }
        }
    }

    let Some((outcome, mapped)) = solved else {
        obs.log("driver", "subproblem_failed", || {
            let mut msg = format!("--- failing subproblem {} ---", sp.id());
            for (i, w) in sp.ili.inputs.iter().enumerate() {
                msg.push_str(&format!("\n  in[{i}]: {:?}", w.values));
            }
            for (i, w) in sp.ili.outputs.iter().enumerate() {
                msg.push_str(&format!("\n  out[{i}]: {:?}", w.values));
            }
            for &n in &sp.working_set {
                let preds: Vec<String> = ddg
                    .pred_edges(n)
                    .map(|(_, e)| format!("{}{}", e.src, if e.distance > 0 { "*" } else { "" }))
                    .collect();
                msg.push_str(&format!("\n  {n}: {} <- {:?}", ddg.node(n).op, preds));
            }
            msg
        });
        return Err(attempt_err.expect("at least one attempt ran"));
    };
    if trace_on {
        // Per-sub-problem MII attribution: `est_mii` is
        // `max(mii_rec, mii_issue, mii_arc, 1)` — the binder is the first
        // component reaching it ("floor" when only the ≥1 clamp holds).
        let est = outcome.est_mii;
        let why = if analysis.mii_rec == est {
            "recurrence"
        } else if outcome.mii_issue == est {
            "issue"
        } else if outcome.mii_arc == est {
            "arc"
        } else {
            "floor"
        };
        let copies = outcome.assigned.total_copies() as u32;
        let (mi, ma, cost) = (outcome.mii_issue, outcome.mii_arc, outcome.cost);
        tracer.record(|| TraceRecord {
            kind: kind::SOLVED.to_string(),
            problem: sp.id(),
            depth: d as u32,
            tier: winner_tier,
            est_mii: est,
            mii_rec: analysis.mii_rec,
            mii_issue: mi,
            mii_arc: ma,
            cost,
            copies,
            why: why.to_string(),
            ..TraceRecord::default()
        });
    }
    if config.validation == ValidationLevel::Strict {
        // Defence in depth: SEE enforces the constraints incrementally, but
        // under Strict the solved assignment is re-checked from scratch so
        // a delta-state bug cannot smuggle an `outNode_MaxIn` (or port
        // budget) violation past the gate.
        if let Err(detail) = constraints.check(&outcome.assigned) {
            return Err(HcaError::Constraint {
                problem: sp.id(),
                detail,
            });
        }
    }
    obs.histogram_merge("mapper.copies_per_wire", &mapped.stats.copy_hist);
    obs.counter_add("mapper.member_wires", mapped.stats.member_wires as u64);
    obs.counter_add("mapper.glue_in_wires", mapped.stats.glue_in_wires as u64);
    res.stats.routed_nodes += outcome.stats.routed_nodes;
    if d == 0 {
        res.ini_mii = outcome.est_mii;
    }
    res.stats.wires += mapped.group.wires.len();
    res.groups.push((sp.path.clone(), mapped.group));

    if d + 1 == fabric.depth() {
        // Leaf: members are single CNs.
        for &n in &sp.working_set {
            let Some(c) = outcome.assigned.cluster_of(n) else {
                // An SEE dead-end on a pathological PG must surface as a
                // typed error, not a process abort.
                return Err(HcaError::Unassigned {
                    problem: sp.id(),
                    node: n,
                });
            };
            let mut path = sp.path.clone();
            path.push(outcome.assigned.pg.member_of(c));
            res.placement.push((n, fabric.cn_of_path(&path)));
        }
        for &(v, c) in &outcome.assigned.forwards {
            let mut path = sp.path.clone();
            path.push(outcome.assigned.pg.member_of(c));
            res.route_ops.push((v, fabric.cn_of_path(&path)));
        }
        // Relay hops: a CN that re-emits a value it neither produced nor
        // forwarded upward still spends an issue slot moving it from its
        // input buffer to its output register — materialise those too.
        // Relay dedup is local: leaf paths are disjoint, so CNs never
        // collide across sub-problems — seeding from this leaf's own
        // route ops is equivalent to the historical global seed.
        let mut relays: rustc_hash::FxHashSet<(NodeId, CnId)> =
            res.route_ops.iter().copied().collect();
        for (&(a, b), values) in outcome.assigned.copies.iter() {
            if !outcome.assigned.pg.node(a).kind.is_cluster() || values.is_empty() {
                continue;
            }
            let _ = b;
            for &v in values {
                if outcome.assigned.cluster_of(v) != Some(a) {
                    let mut path = sp.path.clone();
                    path.push(outcome.assigned.pg.member_of(a));
                    let cn = fabric.cn_of_path(&path);
                    if relays.insert((v, cn)) {
                        res.route_ops.push((v, cn));
                    }
                }
            }
        }
    } else {
        let children: Vec<Subproblem> = {
            let _decompose_span = obs.span("driver", "decompose");
            let wss = child_working_sets(&outcome.assigned, &sp.working_set, spec.arity);
            let mut children = Vec::new();
            for (member, ws) in wss.into_iter().enumerate() {
                let ili = mapped.child_ilis[member].clone();
                if ws.is_empty() && ili.is_empty() {
                    continue; // nothing to do in this subtree
                }
                let mut path = sp.path.clone();
                path.push(member);
                children.push(Subproblem {
                    path,
                    working_set: ws,
                    ili,
                });
            }
            children
        };
        // Sibling sub-problems are independent (disjoint working sets,
        // private ILIs): solve the subtrees on the worker pool. hca-par
        // returns results in input order; merging in *reverse* member
        // order reproduces the historical explicit-stack DFS traversal
        // bit for bit, whatever the thread count.
        let solved_children = hca_par::par_map(&children, |child| solve_subproblem(cx, child));
        for child in solved_children.into_iter().rev() {
            let child = child?;
            res.placement.extend(child.placement);
            res.route_ops.extend(child.route_ops);
            res.groups.extend(child.groups);
            merge_stats(&mut res.stats, &child.stats);
        }
    }
    if let Some((m, key, canon2raw)) = memo_ctx {
        // Defensive: anything outside the canonical universe (which would
        // make rehydration unsound) skips the cache instead of poisoning it.
        match crate::memo::capture(&res, &canon2raw, &sp.path, fabric) {
            Some(canon) if memo_handed_in => m.offer(key, canon),
            Some(canon) => m.insert(key, canon),
            None => obs.counter_add("driver.memo_uncachable", 1),
        }
    }
    Ok(res)
}

/// Run HCA under a small portfolio of base configurations and keep the
/// legal result with the lowest final MII (ties: fewer receives). The
/// per-sub-problem escalation ladder already diversifies *within* a run;
/// this outer sweep additionally varies the global search character, which
/// matters because upper-level choices lock in the decomposition.
pub fn run_hca_portfolio(ddg: &Ddg, fabric: &DspFabric) -> Result<HcaResult, HcaError> {
    run_hca_portfolio_obs(ddg, fabric, &Obs::disabled())
}

/// [`run_hca_portfolio`] with observability. All variants share the
/// observer (counters accumulate across the portfolio, spans are labelled
/// with the variant index); the winner's [`HcaResult::metrics`] snapshot is
/// taken at the end so it covers the whole portfolio run. Each variant's
/// run owns its memo cache: every variant differs from the default in a
/// keyed search setting, so no cached sub-problem could answer another.
pub fn run_hca_portfolio_obs(
    ddg: &Ddg,
    fabric: &DspFabric,
    obs: &Obs,
) -> Result<HcaResult, HcaError> {
    let mut base = HcaConfig::default();
    let mut variants: Vec<HcaConfig> = vec![base];
    base.see.beam_width = 16;
    base.see.branch_factor = 4;
    variants.push(base);
    let mut wide = HcaConfig::default();
    wide.see.beam_width = 64;
    wide.see.branch_factor = 6;
    wide.see.candidate_margin = 64.0;
    variants.push(wide);
    let mut copyish = HcaConfig::default();
    copyish.see.weights.copy = 2.0;
    copyish.see.weights.pressure = 2.0;
    variants.push(copyish);
    let mut ext = HcaConfig::default();
    ext.see.priority = hca_ddg::PriorityPolicy::ExternalOperandsFirst;
    variants.push(ext);

    let mut best: Option<HcaResult> = None;
    let mut last_err: Option<HcaError> = None;
    for (i, cfg) in variants.into_iter().enumerate() {
        let span = obs
            .span("driver", "portfolio_variant")
            .with_arg("variant", i);
        let run = run_hca_inner(ddg, fabric, &cfg, obs, None, &SearchTracer::disabled());
        drop(span);
        match run {
            Ok(res) => {
                let key =
                    |r: &HcaResult| (!r.is_legal(), r.mii.final_mii, r.final_program.num_recvs());
                if best.as_ref().is_none_or(|b| key(&res) < key(b)) {
                    best = Some(res);
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    if let Some(res) = &mut best {
        // Re-snapshot so the winner's metrics cover every variant.
        res.metrics = obs.snapshot();
    }
    best.ok_or_else(|| last_err.expect("at least one variant ran"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hca_ddg::{DdgBuilder, Opcode};

    /// A small synthetic kernel: 4 independent MAC chains over loaded data,
    /// with a carried accumulator each, plus stores.
    fn small_kernel() -> Ddg {
        let mut b = DdgBuilder::default();
        for _ in 0..4 {
            let addr = b.node(Opcode::AddrAdd);
            b.carried(addr, addr, 1);
            let ld = b.op_with(Opcode::Load, &[addr]);
            let k = b.node(Opcode::Const);
            let prod = b.op_with(Opcode::Mul, &[ld, k]);
            let acc = b.op_with(Opcode::Mac, &[prod]);
            b.carried(acc, acc, 1);
            let st = b.op_with(Opcode::Store, &[acc, addr]);
            let _ = st;
        }
        b.finish()
    }

    #[test]
    fn hca_places_every_node_on_standard_machine() {
        let ddg = small_kernel();
        let fabric = DspFabric::standard(8, 8, 8);
        let res = run_hca(&ddg, &fabric, &HcaConfig::default()).unwrap();
        assert_eq!(res.placement.len(), ddg.num_nodes());
        assert!(res.is_legal(), "{:?}", res.coherency);
        assert!(res.mii.final_mii >= res.mii.theoretical);
        assert!(res.stats.subproblems >= 1);
    }

    #[test]
    fn hca_two_level_machine() {
        let ddg = small_kernel();
        let fabric = DspFabric::two_level(4, 4, 4);
        let res = run_hca(&ddg, &fabric, &HcaConfig::default()).unwrap();
        assert!(res.is_legal(), "{:?}", res.coherency);
        // 16 single-issue CNs for 24 instructions: MII at least 2.
        assert!(res.mii.final_mii >= 2);
    }

    #[test]
    fn empty_ddg_is_trivially_legal() {
        let ddg = Ddg::new();
        let fabric = DspFabric::standard(4, 4, 4);
        let res = run_hca(&ddg, &fabric, &HcaConfig::default()).unwrap();
        assert!(res.is_legal());
        assert_eq!(res.final_program.ddg.num_nodes(), 0);
        assert_eq!(res.mii.final_mii, 1);
    }

    #[test]
    fn single_node() {
        let mut b = DdgBuilder::default();
        b.node(Opcode::Add);
        let ddg = b.finish();
        let fabric = DspFabric::standard(8, 8, 8);
        let res = run_hca(&ddg, &fabric, &HcaConfig::default()).unwrap();
        assert!(res.is_legal());
        assert_eq!(res.mii.final_mii, 1);
        assert_eq!(res.stats.wires, 0);
    }

    #[test]
    fn strict_validation_accepts_legal_runs() {
        let ddg = small_kernel();
        let fabric = DspFabric::standard(8, 8, 8);
        let res = run_hca(&ddg, &fabric, &HcaConfig::strict()).unwrap();
        assert!(res.is_legal());
        assert_eq!(res.placement.len(), ddg.num_nodes());
    }

    #[test]
    fn validation_off_skips_the_checker() {
        let ddg = small_kernel();
        let fabric = DspFabric::standard(8, 8, 8);
        let cfg = HcaConfig {
            validation: ValidationLevel::Off,
            ..HcaConfig::default()
        };
        let res = run_hca(&ddg, &fabric, &cfg).unwrap();
        // The report is vacuously empty — Off means "trust me".
        assert!(res.coherency.violations.is_empty());
        assert!(res.coherency.topology_errors.is_empty());
    }

    #[test]
    fn portfolio_exact_small_never_worse_and_deterministic() {
        let ddg = small_kernel();
        let fabric = DspFabric::two_level(4, 4, 4);
        let beam = run_hca(&ddg, &fabric, &HcaConfig::strict()).unwrap();
        let cfg = HcaConfig {
            portfolio: PortfolioConfig::exact_small(),
            ..HcaConfig::strict()
        };
        let a = run_hca(&ddg, &fabric, &cfg).unwrap();
        let b = run_hca(&ddg, &fabric, &cfg).unwrap();
        assert!(a.is_legal(), "{:?}", a.coherency);
        assert!(
            a.mii.final_mii <= beam.mii.final_mii,
            "portfolio MII {} worse than beam-alone {}",
            a.mii.final_mii,
            beam.mii.final_mii
        );
        // The node budget is the only cut: bit-identical replays.
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.mii, b.mii);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn portfolio_counters_reach_the_observer() {
        let ddg = small_kernel();
        let fabric = DspFabric::standard(8, 8, 8);
        let cfg = HcaConfig {
            portfolio: PortfolioConfig::exact_small(),
            ..HcaConfig::strict()
        };
        let obs = Obs::enabled();
        let res = run_hca_obs(&ddg, &fabric, &cfg, &obs).unwrap();
        let m = res.metrics.expect("enabled observer snapshots metrics");
        assert!(m.counter("portfolio.bounds_computed").unwrap_or(0) > 0);
        // Every small sub-problem either bound-exits the tier ladder or
        // reaches the exact backend.
        let engaged = m.counter("portfolio.exact_runs").unwrap_or(0)
            + m.counter("portfolio.bound_exits").unwrap_or(0);
        assert!(engaged > 0, "portfolio never engaged: {:?}", m.counters);
    }

    #[test]
    fn beam_only_computes_no_bounds() {
        let ddg = small_kernel();
        let fabric = DspFabric::standard(8, 8, 8);
        let obs = Obs::enabled();
        let res = run_hca_obs(&ddg, &fabric, &HcaConfig::strict(), &obs).unwrap();
        let m = res.metrics.expect("enabled observer snapshots metrics");
        assert_eq!(m.counter("portfolio.bounds_computed"), None);
        assert_eq!(m.counter("portfolio.exact_runs"), None);
    }

    #[test]
    fn ill_formed_ddg_rejected() {
        let mut g = Ddg::new();
        let a = g.add_node(Opcode::Add, None);
        let c = g.add_node(Opcode::Add, None);
        g.add_edge(a, c, 1, 0);
        g.add_edge(c, a, 1, 0);
        let fabric = DspFabric::standard(8, 8, 8);
        match run_hca(&g, &fabric, &HcaConfig::default()) {
            Err(HcaError::Analysis(DdgError::ZeroDistanceCycle)) => {}
            other => panic!("expected analysis error, got {other:?}"),
        }
    }
}
