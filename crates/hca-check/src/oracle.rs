//! Flat-ICA oracle: branch-and-bound cluster assignment over the flattened
//! machine, exact for small DDGs.
//!
//! The oracle answers "what is the best resource-constrained MII any flat
//! single-level ICA could reach on this machine?" by exhaustively searching
//! node → CN assignments under the same constraint set as
//! `hca_core::flat::run_flat`: every CN may listen to at most `in_wires`
//! distinct producer CNs (Const producers are replicated at configuration
//! time and excluded, matching the coherency checker).
//!
//! The objective is deliberately **optimistic** — per-CN load counts only
//! the instructions themselves, never the receive/route primitives the real
//! pipeline materialises — so the returned value is a valid *lower bound*
//! on the flat-feasible MII and a sound yardstick for the quality bound
//! asserted by the fuzz gauntlet. It is **not** a lower bound on HCA itself:
//! the hierarchy's relay CNs can legally realise fan-in shapes the flat
//! constraint forbids, so HCA may (rarely) beat the flat optimum.

use hca_arch::DspFabric;
use hca_ddg::{analysis, Ddg, NodeId, Opcode};
use rustc_hash::FxHashMap;

/// Oracle search limits.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Refuse DDGs with more nodes than this (the search is exponential).
    pub max_nodes: usize,
    /// Branch-and-bound step budget before giving up on exactness.
    pub step_budget: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            max_nodes: 12,
            step_budget: 5_000_000,
        }
    }
}

/// What the search established about the flat optimum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleVerdict {
    /// The exact flat-optimal MII.
    Exact(u32),
    /// Step budget exhausted; the value is the best MII found so far
    /// (a valid upper bound on the optimum).
    Upper(u32),
}

impl OracleVerdict {
    /// The MII value, exact or not.
    pub fn mii(self) -> u32 {
        match self {
            OracleVerdict::Exact(m) | OracleVerdict::Upper(m) => m,
        }
    }
}

struct Search<'a> {
    ddg: &'a Ddg,
    /// Node visit order (by descending degree, for early pruning).
    order: Vec<NodeId>,
    /// Is this node's producer side ignored for fan-in (Const)?
    is_const: Vec<bool>,
    /// Assignment so far: node index (into the DDG) → CN slot.
    assign: FxHashMap<NodeId, usize>,
    /// Instructions per CN slot.
    load: Vec<u32>,
    /// Distinct non-Const producer CNs feeding each CN.
    in_sets: Vec<Vec<usize>>,
    /// CN slots in use (symmetry reduction: slot k+1 opens only after k).
    used: usize,
    /// Fan-in budget per CN (the leaf `in_wires`).
    max_in: usize,
    /// Assignment-independent MII floor (recurrence + DMA terms).
    floor: u32,
    /// Completion lookahead: no assignment of all `n` instructions onto
    /// `slots` CNs keeps every load below `ceil(n / slots)`, so an
    /// incumbent at (or below) that max-load is unbeatable.
    min_load: u32,
    /// Best complete max-load seen so far.
    best: u32,
    steps: u64,
    budget: u64,
    /// An incumbent reached the provable floor — nothing can beat it.
    done: bool,
}

impl Search<'_> {
    /// Record the fan-in edges `n`→/←neighbours induce when `n` lands on
    /// `c`; returns `None` (with nothing recorded) if a budget would burst,
    /// otherwise the undo list of `(consumer_cn, producer_cn)` insertions.
    fn admit(&mut self, n: NodeId, c: usize) -> Option<Vec<(usize, usize)>> {
        let mut added: Vec<(usize, usize)> = Vec::new();
        let mut ok = true;
        for (_, e) in self.ddg.pred_edges(n) {
            if self.is_const[e.src.index()] {
                continue;
            }
            if let Some(&pc) = self.assign.get(&e.src) {
                if pc != c && !self.in_sets[c].contains(&pc) {
                    self.in_sets[c].push(pc);
                    added.push((c, pc));
                    if self.in_sets[c].len() > self.max_in {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if ok && !self.is_const[n.index()] {
            for (_, e) in self.ddg.succ_edges(n) {
                if let Some(&sc) = self.assign.get(&e.dst) {
                    if sc != c && !self.in_sets[sc].contains(&c) {
                        self.in_sets[sc].push(c);
                        added.push((sc, c));
                        if self.in_sets[sc].len() > self.max_in {
                            ok = false;
                            break;
                        }
                    }
                }
            }
        }
        if ok {
            Some(added)
        } else {
            for (cn, pc) in added {
                let i = self.in_sets[cn].iter().position(|&x| x == pc).unwrap();
                self.in_sets[cn].swap_remove(i);
            }
            None
        }
    }

    fn recurse(&mut self, depth: usize, cur_max: u32) {
        self.steps += 1;
        if self.steps > self.budget {
            return;
        }
        if depth == self.order.len() {
            self.best = self.best.min(cur_max.max(1));
            // Proven-optimal early exit: at the completion lookahead no
            // spread can do better, and at the assignment-independent
            // floor the resulting MII cannot drop further even if one
            // could — either way the incumbent is exact.
            if self.best <= self.min_load.max(self.floor) {
                self.done = true;
            }
            return;
        }
        let n = self.order[depth];
        // Symmetry reduction: the flat PG is a complete graph of identical
        // CNs, so only the first unused slot is distinguishable.
        let num_slots = self.load.len();
        let limit = (self.used + 1).min(num_slots);
        for c in 0..limit {
            let new_load = self.load[c] + 1;
            // Prune on the objective: a partial max-load already at or
            // above the incumbent (or below the floor's shadow — no,
            // the floor applies to everyone equally) cannot improve.
            if new_load.max(cur_max) >= self.best {
                continue;
            }
            let Some(added) = self.admit(n, c) else {
                continue;
            };
            self.assign.insert(n, c);
            self.load[c] = new_load;
            let opened = c == self.used;
            if opened {
                self.used += 1;
            }
            self.recurse(depth + 1, new_load.max(cur_max));
            if opened {
                self.used -= 1;
            }
            self.load[c] -= 1;
            self.assign.remove(&n);
            for (cn, pc) in added {
                let i = self.in_sets[cn].iter().position(|&x| x == pc).unwrap();
                self.in_sets[cn].swap_remove(i);
            }
            if self.steps > self.budget || self.done {
                return;
            }
        }
    }
}

/// Exhaustively compute the flat-optimal MII of `ddg` on `fabric`, or
/// `None` when the DDG exceeds [`OracleConfig::max_nodes`] or its analysis
/// fails. The result folds in the assignment-independent floor
/// (`max(MIIRec, DMA, 1)`), so it is directly comparable with
/// `MiiReport::final_mii`.
pub fn flat_optimal_mii(
    ddg: &Ddg,
    fabric: &DspFabric,
    cfg: &OracleConfig,
) -> Option<OracleVerdict> {
    let n = ddg.num_nodes();
    if n == 0 {
        return Some(OracleVerdict::Exact(1));
    }
    if n > cfg.max_nodes {
        return None;
    }
    let mii_rec = analysis::mii_rec(ddg).ok()?;
    let floor = mii_rec.max(fabric.dma.mii_res_mem(ddg)).max(1);
    // A floor above every possible max-load makes the trivial all-on-one-CN
    // assignment provably optimal — skip the search entirely.
    if floor > n as u32 {
        return Some(OracleVerdict::Exact(floor));
    }

    let mut order: Vec<NodeId> = ddg.node_ids().collect();
    let degree = |v: NodeId| ddg.pred_edges(v).count() + ddg.succ_edges(v).count();
    order.sort_by_key(|&v| (std::cmp::Reverse(degree(v)), v));
    let is_const: Vec<bool> = ddg
        .node_ids()
        .map(|v| ddg.node(v).op == Opcode::Const)
        .collect();

    let slots = fabric.num_cns().min(n);
    let leaf = fabric.level(fabric.depth() - 1);
    let mut search = Search {
        ddg,
        order,
        is_const,
        assign: FxHashMap::default(),
        load: vec![0; slots],
        in_sets: vec![Vec::new(); slots],
        used: 0,
        max_in: leaf.in_wires,
        floor,
        min_load: (n as u32).div_ceil(slots as u32),
        // All nodes on one CN is always feasible (no cross-CN edges), so
        // the incumbent `n` is a genuine upper bound, and `n + 1` makes
        // the strict `>=` prune admit it.
        best: n as u32 + 1,
        steps: 0,
        budget: cfg.step_budget,
        done: false,
    };
    search.recurse(0, 0);
    let best_load = search.best.min(n as u32);
    let mii = search.floor.max(best_load);
    if search.steps > search.budget && !search.done {
        Some(OracleVerdict::Upper(mii))
    } else {
        Some(OracleVerdict::Exact(mii))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hca_ddg::DdgBuilder;

    #[test]
    fn independent_nodes_spread_to_load_one() {
        let mut b = DdgBuilder::default();
        for _ in 0..6 {
            b.node(Opcode::Add);
        }
        let ddg = b.finish();
        let f = DspFabric::standard(8, 8, 8);
        assert_eq!(
            flat_optimal_mii(&ddg, &f, &OracleConfig::default()),
            Some(OracleVerdict::Exact(1))
        );
    }

    #[test]
    fn single_cn_machine_serialises_everything() {
        let mut b = DdgBuilder::default();
        let a = b.node(Opcode::Add);
        let c = b.op_with(Opcode::Add, &[a]);
        let _ = b.op_with(Opcode::Add, &[c]);
        let ddg = b.finish();
        let f = DspFabric::two_level(1, 1, 2);
        assert_eq!(
            flat_optimal_mii(&ddg, &f, &OracleConfig::default()),
            Some(OracleVerdict::Exact(3))
        );
    }

    #[test]
    fn fan_in_budget_forces_coalescing() {
        // A 5-way join: spreading the producers over 5 CNs is illegal with
        // in_wires = 2, so at least two producers must share the consumer's
        // CN (or each other's). Optimal max-load is 2: e.g. two producers
        // with the consumer... that is load 3; better: producers paired on
        // 2 CNs (loads 2+2) + consumer alone listening to 2 CNs (load 1+1).
        let mut b = DdgBuilder::default();
        let ps: Vec<_> = (0..4).map(|_| b.node(Opcode::Add)).collect();
        let _join = b.op_with(Opcode::Add, &ps);
        let ddg = b.finish();
        let f = DspFabric::standard(8, 8, 8); // leaf in_wires = 2
        let v = flat_optimal_mii(&ddg, &f, &OracleConfig::default()).unwrap();
        assert_eq!(v, OracleVerdict::Exact(2));
    }

    #[test]
    fn recurrence_floor_dominates() {
        let mut b = DdgBuilder::default();
        let acc = b.node(Opcode::Mac);
        b.carried(acc, acc, 1);
        let ddg = b.finish();
        let f = DspFabric::standard(8, 8, 8);
        // Mac latency 2 over distance 1 → MIIRec 2 even with one node.
        assert_eq!(
            flat_optimal_mii(&ddg, &f, &OracleConfig::default()),
            Some(OracleVerdict::Exact(2))
        );
    }

    #[test]
    fn too_large_is_refused() {
        let mut b = DdgBuilder::default();
        for _ in 0..20 {
            b.node(Opcode::Add);
        }
        let ddg = b.finish();
        let f = DspFabric::standard(8, 8, 8);
        assert_eq!(flat_optimal_mii(&ddg, &f, &OracleConfig::default()), None);
    }

    #[test]
    fn const_producers_do_not_consume_fan_in() {
        // One consumer reading 4 constants: all constants can sit anywhere
        // without burning the consumer's 2 in-wires.
        let mut b = DdgBuilder::default();
        let ks: Vec<_> = (0..4).map(|_| b.node(Opcode::Const)).collect();
        let _ = b.op_with(Opcode::Add, &ks);
        let ddg = b.finish();
        let f = DspFabric::standard(8, 8, 8);
        assert_eq!(
            flat_optimal_mii(&ddg, &f, &OracleConfig::default()),
            Some(OracleVerdict::Exact(1))
        );
    }
}
