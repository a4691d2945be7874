//! Copy distribution: pack one member's outgoing value flows onto its
//! physical output wires (paper §4.1, Figure 9).
//!
//! Inputs are *value flows* — value, sibling receiver set, optional glue
//! slot (ILI output wire) — and the budgets: output wires of the member and
//! a per-receiver input-port limit (already charged with pre-allocated glue
//! wires and with ports *reserved* for members not yet distributed). The
//! packing heuristic follows the paper's description:
//!
//! * flows bound to one glue slot share one mandatory wire (unary fan-in
//!   upward); a single wire may feed several slots — the MUX stage fans a
//!   member's output onto multiple upward wires;
//! * remaining flows start one wire per distinct receiver set (broadcast
//!   sets share a line, like `x` and `z` in Figure 9b after merging);
//! * over budget → merge the pair costing the fewest extra input ports,
//!   preferring low combined pressure;
//! * under budget and `allow_split` → split the heaviest point-to-point
//!   wire to spread values "over three wires" (Figure 9b) while the
//!   receivers still have ports. The driver only enables this at the top
//!   level, where receiver port budgets are wide; deeper levels keep wires
//!   merged because every extra wire consumes scarce crossbar/CN ports
//!   below.

use hca_ddg::NodeId;
use std::collections::BTreeSet;

/// One value leaving a member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValueFlow {
    /// The value (its producing DDG node).
    pub value: NodeId,
    /// Sibling members that must receive it.
    pub receivers: BTreeSet<usize>,
    /// Glue slot (ILI output-wire index) the value must also leave on.
    pub slot: Option<usize>,
}

/// A wire under construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireDraft {
    /// Flows packed on the wire.
    pub flows: Vec<ValueFlow>,
}

impl WireDraft {
    /// Union of the flows' receiver sets.
    pub fn receivers(&self) -> BTreeSet<usize> {
        self.flows
            .iter()
            .flat_map(|f| f.receivers.iter().copied())
            .collect()
    }

    /// The glue slots the wire feeds (possibly several).
    pub fn slots(&self) -> BTreeSet<usize> {
        self.flows.iter().filter_map(|f| f.slot).collect()
    }

    /// Does the wire continue to the parent level?
    pub fn exits_to_parent(&self) -> bool {
        self.flows.iter().any(|f| f.slot.is_some())
    }

    /// Values carried (time-multiplexing pressure).
    pub fn pressure(&self) -> usize {
        self.flows.len()
    }

    /// Values in flow order.
    pub fn values(&self) -> Vec<NodeId> {
        self.flows.iter().map(|f| f.value).collect()
    }
}

/// Why distribution failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistributeError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for DistributeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DistributeError {}

/// Charge the layout's ports into `ports`; error on the first receiver whose
/// effective limit is exceeded.
fn charge(
    wires: &[WireDraft],
    ports: &mut [usize],
    limit: &[usize],
) -> Result<(), DistributeError> {
    for w in wires {
        for r in w.receivers() {
            ports[r] += 1;
            if ports[r] > limit[r] {
                return Err(DistributeError {
                    message: format!(
                        "receiver {r} needs {} input ports, budget {}",
                        ports[r], limit[r]
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Pack `flows` onto at most `out_wires` wires.
///
/// `ports_used` is the group-wide port usage so far (this call charges what
/// it consumes); `port_limit[r]` is receiver `r`'s effective budget — its
/// physical ports minus the ports reserved for members distributed later.
pub fn distribute_member(
    member: usize,
    flows: &[ValueFlow],
    out_wires: usize,
    ports_used: &mut [usize],
    port_limit: &[usize],
    allow_split: bool,
) -> Result<Vec<WireDraft>, DistributeError> {
    if flows.is_empty() {
        return Ok(Vec::new());
    }
    if out_wires == 0 {
        return Err(DistributeError {
            message: format!("member {member} has flows but zero output wires"),
        });
    }

    // Phase A: one mandatory wire per glue slot (unary fan-in upward).
    let mut wires: Vec<WireDraft> = Vec::new();
    let mut slots: Vec<usize> = flows.iter().filter_map(|f| f.slot).collect();
    slots.sort_unstable();
    slots.dedup();
    for &s in &slots {
        wires.push(WireDraft {
            flows: flows
                .iter()
                .filter(|f| f.slot == Some(s))
                .cloned()
                .collect(),
        });
    }
    // Phase B: one wire per remaining value. Keeping values on separate
    // wires for as long as the budgets allow matters downstream: every wire
    // is a *single* co-location/fan-in unit at the child level, so eagerly
    // merged wires would force unrelated producers onto one child cluster
    // (`outNode_MaxIn`). Sharing is reintroduced below only where the wire
    // or port budgets demand it — the paper's "prioritization of parallel
    // copies".
    for f in flows.iter().filter(|f| f.slot.is_none()) {
        wires.push(WireDraft {
            flows: vec![f.clone()],
        });
    }

    // Phase C: merge down to the output-wire budget (any pair may merge —
    // a wire can feed several glue slots and several sibling receivers).
    // Prefer merges that *save* receiver ports, then low pressure.
    while wires.len() > out_wires {
        // Each wire's receiver set, built once per round, not once per pair.
        let receivers: Vec<BTreeSet<usize>> = wires.iter().map(WireDraft::receivers).collect();
        let mut best: Option<(isize, usize, usize, usize)> = None; // (Δports, pressure, i, j)
        for i in 0..wires.len() {
            for j in i + 1..wires.len() {
                let common = receivers[i].intersection(&receivers[j]).count() as isize;
                let pressure = wires[i].pressure() + wires[j].pressure();
                let key = (-common, pressure, i, j);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let Some((_, _, i, j)) = best else {
            unreachable!("any two wires are mergeable");
        };
        let merged = wires.remove(j);
        wires[i].flows.extend(merged.flows);
    }

    // Phase E: resolve port overflows by further merging wires that share
    // receivers (merging is the only within-member move that frees ports).
    loop {
        let mut trial_ports = ports_used.to_vec();
        match charge(&wires, &mut trial_ports, port_limit) {
            Ok(()) => break,
            Err(e) => {
                let receivers: Vec<BTreeSet<usize>> =
                    wires.iter().map(WireDraft::receivers).collect();
                let mut best: Option<(usize, usize, usize)> = None; // (-saved, i, j)
                for i in 0..wires.len() {
                    for j in i + 1..wires.len() {
                        let common = receivers[i].intersection(&receivers[j]).count();
                        if common == 0 {
                            continue;
                        }
                        let key = (usize::MAX - common, i, j);
                        if best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                    }
                }
                let Some((_, i, j)) = best else {
                    return Err(e);
                };
                let merged = wires.remove(j);
                wires[i].flows.extend(merged.flows);
            }
        }
    }

    // Phase D: use spare wires to spread pressure (Figure 9b: a, b, c over
    // three wires) where the driver allows it.
    while allow_split && wires.len() < out_wires {
        let mut trial_ports = ports_used.to_vec();
        charge(&wires, &mut trial_ports, port_limit).expect("layout was feasible above");
        // Candidate: the highest-pressure wire with ≥ 2 slot-free flows
        // whose receivers can all afford one more port.
        let mut cand: Option<(usize, usize)> = None; // (pressure, index), max
        for (ix, w) in wires.iter().enumerate() {
            let movable: Vec<&ValueFlow> = w.flows.iter().filter(|f| f.slot.is_none()).collect();
            if movable.is_empty() || w.pressure() < 2 {
                continue;
            }
            if movable.len() == w.flows.len() && movable.len() < 2 {
                continue;
            }
            let afford = movable
                .iter()
                .flat_map(|f| f.receivers.iter())
                .all(|&r| trial_ports[r] < port_limit[r]);
            if afford && cand.is_none_or(|(p, _)| w.pressure() > p) {
                cand = Some((w.pressure(), ix));
            }
        }
        let Some((_, ix)) = cand else { break };
        let movable_ix: Vec<usize> = wires[ix]
            .flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.slot.is_none())
            .map(|(i, _)| i)
            .collect();
        // Move the later half of the slot-free flows onto a fresh wire.
        let take = (movable_ix.len() / 2).max(1).min(movable_ix.len());
        let chosen: Vec<usize> = movable_ix[movable_ix.len() - take..].to_vec();
        if chosen.len() == wires[ix].flows.len() {
            break; // would leave the original wire empty
        }
        let mut moved = Vec::with_capacity(take);
        for &i in chosen.iter().rev() {
            moved.push(wires[ix].flows.remove(i));
        }
        moved.reverse();
        wires.push(WireDraft { flows: moved });
        let mut trial = ports_used.to_vec();
        if charge(&wires, &mut trial, port_limit).is_err() {
            let w = wires.pop().expect("just pushed");
            wires[ix].flows.extend(w.flows);
            break;
        }
    }

    charge(&wires, ports_used, port_limit)?;
    Ok(wires)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(v: u32, rec: &[usize], slot: Option<usize>) -> ValueFlow {
        ValueFlow {
            value: NodeId(v),
            receivers: rec.iter().copied().collect(),
            slot,
        }
    }

    fn lim(n: usize, l: usize) -> Vec<usize> {
        vec![l; n]
    }

    #[test]
    fn empty_flows_use_no_wires() {
        let mut ports = vec![0; 4];
        let w = distribute_member(0, &[], 4, &mut ports, &lim(4, 4), true).unwrap();
        assert!(w.is_empty());
        assert_eq!(ports, vec![0; 4]);
    }

    #[test]
    fn figure9_point_to_point_spread() {
        // a, b, c all to receiver 3, four output wires and wide ports:
        // spread over three wires (max pressure 1).
        let flows = [
            flow(0, &[3], None),
            flow(1, &[3], None),
            flow(2, &[3], None),
        ];
        let mut ports = vec![0; 4];
        let wires = distribute_member(0, &flows, 4, &mut ports, &lim(4, 4), true).unwrap();
        assert_eq!(wires.len(), 3);
        assert!(wires.iter().all(|w| w.pressure() == 1));
        assert_eq!(ports[3], 3);
    }

    #[test]
    fn values_stay_on_separate_wires_when_budgets_allow() {
        // Per-value wires by default (minimal downstream co-location), even
        // without the split permission — splitting only matters once merges
        // have happened.
        let flows = [
            flow(0, &[3], None),
            flow(1, &[3], None),
            flow(2, &[3], None),
        ];
        let mut ports = vec![0; 4];
        let wires = distribute_member(0, &flows, 4, &mut ports, &lim(4, 4), false).unwrap();
        assert_eq!(wires.len(), 3);
        assert_eq!(ports[3], 3);
        // Tight ports force the values back onto one line.
        let mut ports = vec![0; 4];
        let wires = distribute_member(0, &flows, 4, &mut ports, &lim(4, 1), false).unwrap();
        assert_eq!(wires.len(), 1);
        assert_eq!(wires[0].pressure(), 3);
        assert_eq!(ports[3], 1);
    }

    #[test]
    fn figure9_broadcasts_share_one_line_under_budget() {
        // x → {1,2}, z → {1,3}, plus a,b,c → {3}; only 2 output wires.
        let flows = [
            flow(10, &[1, 2], None),
            flow(11, &[1, 3], None),
            flow(0, &[3], None),
            flow(1, &[3], None),
            flow(2, &[3], None),
        ];
        let mut ports = vec![0; 4];
        let wires = distribute_member(0, &flows, 2, &mut ports, &lim(4, 4), true).unwrap();
        assert_eq!(wires.len(), 2);
        let total: usize = wires.iter().map(|w| w.pressure()).sum();
        assert_eq!(total, 5);
        assert!(ports.iter().all(|&p| p <= 4));
    }

    #[test]
    fn glue_slot_values_stay_together() {
        let flows = [
            flow(3, &[], Some(0)),
            flow(4, &[], Some(0)),
            flow(5, &[2], None),
        ];
        let mut ports = vec![0; 4];
        let wires = distribute_member(1, &flows, 2, &mut ports, &lim(4, 4), true).unwrap();
        assert_eq!(wires.len(), 2);
        let glue = wires.iter().find(|w| w.exits_to_parent()).unwrap();
        let mut vals = glue.values();
        vals.sort_unstable();
        assert_eq!(vals, vec![NodeId(3), NodeId(4)]);
    }

    #[test]
    fn one_wire_can_feed_multiple_glue_slots() {
        // A CN (single output wire) whose two values leave on two different
        // upward wires: the MUX stage fans the one output out.
        let flows = [flow(0, &[], Some(0)), flow(1, &[], Some(1))];
        let mut ports = vec![0; 4];
        let wires = distribute_member(0, &flows, 1, &mut ports, &lim(4, 4), true).unwrap();
        assert_eq!(wires.len(), 1);
        assert_eq!(wires[0].slots(), [0, 1].into_iter().collect());
        assert!(wires[0].exits_to_parent());
    }

    #[test]
    fn glue_wire_shares_with_sibling_receivers() {
        let flows = [flow(7, &[2], Some(0))];
        let mut ports = vec![0; 4];
        let wires = distribute_member(0, &flows, 1, &mut ports, &lim(4, 4), true).unwrap();
        assert_eq!(wires.len(), 1);
        assert!(wires[0].exits_to_parent());
        assert_eq!(wires[0].receivers(), [2].into_iter().collect());
    }

    #[test]
    fn port_overflow_resolved_by_merging() {
        let flows = [flow(0, &[1], None), flow(1, &[1], None)];
        let mut ports = vec![0; 4];
        let wires = distribute_member(0, &flows, 2, &mut ports, &lim(4, 1), true).unwrap();
        assert_eq!(wires.len(), 1);
        assert_eq!(wires[0].pressure(), 2);
        assert_eq!(ports[1], 1);
    }

    #[test]
    fn port_overflow_unresolvable_errors() {
        let flows = [flow(0, &[1], None)];
        let mut ports = vec![0, 1, 0, 0];
        let err = distribute_member(0, &flows, 2, &mut ports, &lim(4, 1), true).unwrap_err();
        assert!(err.message.contains("input ports"), "{err}");
    }

    #[test]
    fn reserved_ports_respected() {
        // Receiver 1 has 3 physical ports but 2 are reserved for later
        // members: our two flows must share one wire.
        let flows = [flow(0, &[1], None), flow(1, &[1], None)];
        let mut ports = vec![0; 4];
        let mut limits = lim(4, 3);
        limits[1] = 1;
        let wires = distribute_member(0, &flows, 4, &mut ports, &limits, true).unwrap();
        assert_eq!(wires.len(), 1);
    }

    #[test]
    fn splitting_respects_receiver_ports() {
        let flows = [
            flow(0, &[1], None),
            flow(1, &[1], None),
            flow(2, &[1], None),
        ];
        let mut ports = vec![0; 4];
        let wires = distribute_member(0, &flows, 3, &mut ports, &lim(4, 1), true).unwrap();
        assert_eq!(wires.len(), 1);
        assert_eq!(wires[0].pressure(), 3);
    }

    #[test]
    fn zero_out_wires_with_flows_is_an_error() {
        let flows = [flow(0, &[1], None)];
        let mut ports = vec![0; 2];
        assert!(distribute_member(0, &flows, 0, &mut ports, &lim(2, 2), true).is_err());
    }
}
