//! Swing Modulo Scheduling (Llosa et al., PACT '96) — the classical
//! low-register-pressure alternative to Rau's iterative scheme.
//!
//! SMS orders operations so that each is scheduled adjacent to already
//! scheduled neighbours (walking recurrences first, "swinging" between
//! predecessors and successors), then places every op exactly once — as
//! *late* as possible below scheduled successors, as *early* as possible
//! above scheduled predecessors — shrinking value lifetimes. No ejection:
//! if a window has no free slot, the attempt fails and II increases.
//!
//! We reuse the same [`Mrt`] and produce the same [`ModuloSchedule`] type
//! as the iterative scheduler, so the two are drop-in comparable (see the
//! `ablation` bench and `EXPERIMENTS.md` E1b).

use crate::modsched::ModuloSchedule;
use crate::mrt::Mrt;
use crate::SchedError;
use hca_arch::DspFabric;
use hca_core::FinalProgram;
use hca_ddg::{analysis, NodeId};
use rustc_hash::FxHashSet;

/// Schedule `fp` with SMS at the smallest feasible II ≥ `min_ii`.
pub fn swing_schedule(
    fp: &FinalProgram,
    fabric: &DspFabric,
    min_ii: u32,
) -> Result<ModuloSchedule, SchedError> {
    let mii_rec = analysis::mii_rec(&fp.ddg).map_err(|_| SchedError::BadGraph)?;
    let start = min_ii.max(mii_rec).max(1);
    let max_ii = 4 * start + 16;
    // Primary: the Llosa swing ordering. Fallback: plain intra-iteration
    // topological order — with it every node is placed below its scheduled
    // predecessors only, so a large enough II always admits a schedule
    // (distance-0 "sandwiches" cannot occur); lifetimes are worse, which is
    // why it is only the safety net.
    let swing = sms_order(fp);
    let topo = analysis::intra_topo_order(&fp.ddg).ok_or(SchedError::BadGraph)?;
    for order in [&swing, &topo] {
        for ii in start..=max_ii {
            if let Some(s) = try_swing(fp, fabric, order, ii) {
                return Ok(s);
            }
        }
    }
    Err(SchedError::Infeasible {
        tried_up_to: max_ii,
    })
}

/// The SMS node ordering: SCCs first by decreasing recurrence criticality,
/// then the remaining nodes, each group arranged so every node (after the
/// first) has a neighbour among its predecessors in the order.
fn sms_order(fp: &FinalProgram) -> Vec<NodeId> {
    let ddg = &fp.ddg;
    let n = ddg.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let (scc, num_sccs) = analysis::tarjan_scc(ddg);
    // SCC weight: total internal latency (a proxy for criticality).
    let mut weight = vec![0u64; num_sccs as usize];
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num_sccs as usize];
    for v in ddg.node_ids() {
        members[scc[v.index()] as usize].push(v);
    }
    for e in ddg.edges() {
        if scc[e.src.index()] == scc[e.dst.index()] {
            weight[scc[e.src.index()] as usize] += u64::from(e.latency);
        }
    }
    let mut scc_order: Vec<u32> = (0..num_sccs).collect();
    scc_order.sort_by_key(|&s| {
        (
            u64::MAX - weight[s as usize],
            members[s as usize].first().map_or(0, |m| m.0),
        )
    });

    // Llosa's bidirectional ordering: process SCC groups by criticality;
    // within the whole graph alternate *top-down* sweeps (append nodes
    // whose predecessors are ordered, most critical — highest height —
    // first) and *bottom-up* sweeps (append nodes whose successors are
    // ordered, deepest first). The alternation guarantees each node is
    // placed with ordered neighbours on one side only, except where a
    // recurrence closes — whose slack grows with II.
    let topo = analysis::intra_topo_order(ddg).unwrap_or_else(|| ddg.node_ids().collect());
    let levels = analysis::asap_alap(ddg, &topo);
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut placed: FxHashSet<NodeId> = FxHashSet::default();
    for &s in &scc_order {
        // Llosa's grouping: the SCC plus every node on a dataflow path
        // between it and the already-ordered set — otherwise those path
        // nodes get ordered after *both* endpoints and land in empty
        // distance-0 windows ("sandwiches") no II can widen.
        let seed_set: FxHashSet<NodeId> = members[s as usize].iter().copied().collect();
        let between = {
            let fwd_pre = reach(ddg, &placed, false);
            let bwd_pre = reach(ddg, &placed, true);
            let fwd_s = reach(ddg, &seed_set, false);
            let bwd_s = reach(ddg, &seed_set, true);
            ddg.node_ids()
                .filter(|v| {
                    (fwd_pre.contains(v) && bwd_s.contains(v))
                        || (fwd_s.contains(v) && bwd_pre.contains(v))
                })
                .collect::<FxHashSet<NodeId>>()
        };
        let mut remaining: FxHashSet<NodeId> = seed_set
            .iter()
            .chain(between.iter())
            .copied()
            .filter(|v| !placed.contains(v))
            .collect();
        let mut top_down = true;
        while !remaining.is_empty() {
            let frontier: Vec<NodeId> = remaining
                .iter()
                .copied()
                .filter(|&v| {
                    if top_down {
                        ddg.pred_edges(v).any(|(_, e)| placed.contains(&e.src))
                    } else {
                        ddg.succ_edges(v).any(|(_, e)| placed.contains(&e.dst))
                    }
                })
                .collect();
            let next = if let Some(&best) = frontier.iter().max_by_key(|&&v| {
                let key = if top_down {
                    levels.height[v.index()]
                } else {
                    levels.asap[v.index()]
                };
                (key, u32::MAX - v.0)
            }) {
                best
            } else if order.is_empty() || placed.len() == order.len() {
                // Seed: the most critical node of the group.
                let seed = remaining
                    .iter()
                    .copied()
                    .max_by_key(|&v| (levels.height[v.index()], u32::MAX - v.0))
                    .expect("remaining non-empty");
                seed
            } else {
                // Dead frontier: flip direction; if both directions are dry
                // the node set is disconnected from the order — seed anew.
                top_down = !top_down;
                let flipped: Vec<NodeId> = remaining
                    .iter()
                    .copied()
                    .filter(|&v| {
                        if top_down {
                            ddg.pred_edges(v).any(|(_, e)| placed.contains(&e.src))
                        } else {
                            ddg.succ_edges(v).any(|(_, e)| placed.contains(&e.dst))
                        }
                    })
                    .collect();
                match flipped.iter().max_by_key(|&&v| {
                    let key = if top_down {
                        levels.height[v.index()]
                    } else {
                        levels.asap[v.index()]
                    };
                    (key, u32::MAX - v.0)
                }) {
                    Some(&best) => best,
                    None => remaining
                        .iter()
                        .copied()
                        .max_by_key(|&v| (levels.height[v.index()], u32::MAX - v.0))
                        .expect("remaining non-empty"),
                }
            };
            order.push(next);
            placed.insert(next);
            remaining.remove(&next);
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Forward (or reverse) reachability from a seed set, seeds included.
fn reach(ddg: &hca_ddg::Ddg, seeds: &FxHashSet<NodeId>, reverse: bool) -> FxHashSet<NodeId> {
    let mut seen: FxHashSet<NodeId> = seeds.clone();
    let mut stack: Vec<NodeId> = seeds.iter().copied().collect();
    while let Some(v) = stack.pop() {
        let nexts: Vec<NodeId> = if reverse {
            ddg.pred_edges(v).map(|(_, e)| e.src).collect()
        } else {
            ddg.succ_edges(v).map(|(_, e)| e.dst).collect()
        };
        for x in nexts {
            if seen.insert(x) {
                stack.push(x);
            }
        }
    }
    seen
}

/// One SMS attempt at a fixed II.
fn try_swing(
    fp: &FinalProgram,
    fabric: &DspFabric,
    order: &[NodeId],
    ii: u32,
) -> Option<ModuloSchedule> {
    let ddg = &fp.ddg;
    let topo = analysis::intra_topo_order(ddg)?;
    let levels = analysis::asap_alap(ddg, &topo);
    let mut time: Vec<Option<i64>> = vec![None; ddg.num_nodes()];
    let mut mrt = Mrt::new(fabric, ii);

    for &v in order {
        let cn = fp.placement[v.index()];
        let op = ddg.node(v).op;
        // Bounds from scheduled neighbours.
        let mut early: Option<i64> = None;
        for (_, e) in ddg.pred_edges(v) {
            if let Some(tp) = time[e.src.index()] {
                let lo = tp + i64::from(e.latency) - i64::from(ii) * i64::from(e.distance);
                early = Some(early.map_or(lo, |x: i64| x.max(lo)));
            }
        }
        let mut late: Option<i64> = None;
        for (_, e) in ddg.succ_edges(v) {
            if e.dst == v {
                continue;
            }
            if let Some(ts) = time[e.dst.index()] {
                let hi = ts - i64::from(e.latency) + i64::from(ii) * i64::from(e.distance);
                late = Some(late.map_or(hi, |x: i64| x.min(hi)));
            }
        }
        // SMS direction rules: both bounds → walk down from early, capped by
        // late; only successors → walk *up* from late (as late as legal);
        // otherwise walk down from early (or 0).
        let candidates: Vec<i64> = match (early, late) {
            (Some(lo), Some(hi)) => {
                if lo > hi {
                    hca_obs::global().log("sched", "sms_window", || {
                        format!("II {ii}: empty window for {v:?} [{lo}, {hi}]")
                    });
                    return None; // the window is empty at this II
                }
                (lo..=hi.min(lo + i64::from(ii) - 1)).collect()
            }
            (Some(lo), None) => (lo..lo + i64::from(ii)).collect(),
            (None, Some(hi)) => {
                let lo = (hi - i64::from(ii) + 1).max(0);
                (lo..=hi.max(lo)).rev().collect()
            }
            (None, None) => {
                // Unconstrained (the first node of its region): anchor at
                // the node's ASAP level so predecessors ordered later still
                // find room above it.
                let lo = i64::from(levels.asap[v.index()]);
                (lo..lo + i64::from(ii)).collect()
            }
        };
        let Some(slot) = candidates
            .into_iter()
            .filter(|&t| t >= 0)
            .find(|&t| mrt.is_free(cn, op, t as u32))
        else {
            hca_obs::global().log("sched", "sms_slot", || {
                format!("II {ii}: no free slot for {v:?} (early {early:?} late {late:?})")
            });
            return None;
        };
        mrt.place(v, cn, op, slot as u32);
        time[v.index()] = Some(slot);
    }

    // Normalise: shift so the earliest time is ≥ 0 (it already is), then
    // convert.
    let time: Vec<u32> = time
        .into_iter()
        .map(|t| u32::try_from(t.expect("all placed")).expect("non-negative"))
        .collect();
    let stages = time.iter().map(|&t| t / ii).max().unwrap_or(0) + 1;
    let sched = ModuloSchedule { ii, time, stages };
    if let Err(e) = crate::modsched::validate(fp, fabric, &sched) {
        hca_obs::global().log("sched", "sms_validate", || {
            format!("II {ii}: validation failed: {e}")
        });
        return None;
    }
    Some(sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modsched::{modulo_schedule, validate};
    use hca_core::{run_hca, HcaConfig};
    use hca_ddg::{DdgBuilder, Opcode};

    fn prepared(ddg: &hca_ddg::Ddg) -> (FinalProgram, DspFabric, u32) {
        let fabric = DspFabric::standard(8, 8, 8);
        let res = run_hca(ddg, &fabric, &HcaConfig::default()).unwrap();
        let bound = res.mii.final_mii;
        (res.final_program, fabric, bound)
    }

    #[test]
    fn sms_schedules_a_recurrence_loop() {
        let mut b = DdgBuilder::default();
        let a = b.node(Opcode::AddrAdd);
        b.carried(a, a, 1);
        let x = b.op_with(Opcode::Load, &[a]);
        let acc = b.op_with(Opcode::Mac, &[x]);
        b.carried(acc, acc, 1);
        b.op_with(Opcode::Store, &[acc, a]);
        let ddg = b.finish();
        let (fp, fabric, bound) = prepared(&ddg);
        let s = swing_schedule(&fp, &fabric, bound).unwrap();
        assert!(validate(&fp, &fabric, &s).is_ok());
        assert!(s.ii >= bound);
    }

    #[test]
    fn sms_and_ims_agree_on_feasibility() {
        for kernel in [
            hca_kernels::fir2dim::build().ddg,
            hca_kernels::mpeg2::build().ddg,
        ] {
            let (fp, fabric, bound) = prepared(&kernel);
            let ims = modulo_schedule(&fp, &fabric, bound).unwrap();
            let sms = swing_schedule(&fp, &fabric, bound).unwrap();
            assert!(validate(&fp, &fabric, &sms).is_ok());
            // SMS is allowed a slightly larger II (no ejection) but must be
            // in the same ballpark.
            assert!(
                sms.ii <= 2 * ims.ii + 4,
                "SMS II {} vs IMS II {}",
                sms.ii,
                ims.ii
            );
        }
    }

    #[test]
    fn sms_order_visits_every_node_once() {
        let kernel = hca_kernels::idct::build();
        let fabric = DspFabric::standard(8, 8, 8);
        let res = run_hca(&kernel.ddg, &fabric, &HcaConfig::default()).unwrap();
        let order = sms_order(&res.final_program);
        assert_eq!(order.len(), res.final_program.ddg.num_nodes());
        let set: FxHashSet<NodeId> = order.iter().copied().collect();
        assert_eq!(set.len(), order.len());
    }
}
