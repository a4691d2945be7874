//! The *configured* topology of a hierarchical machine.
//!
//! Reconfiguration (paper §2) selects, before the loop runs, which physical
//! wires are active and which values travel on them. This module stores that
//! selection per hierarchy group and validates it against the machine's MUX
//! capacities:
//!
//! * a wire has exactly **one source** (a member's output or a glue wire from
//!   the parent level) — MUX inputs are single-source / unary fan-in;
//! * a wire may **broadcast** to any set of sibling members and may continue
//!   to the parent level (`to_parent`);
//! * per-group budgets: out-wires per member, in-ports per member, glue-in
//!   and glue-out wire counts (the paper's N/M/K parameters).
//!
//! Whether a value configured out of one CN really arrives at another is
//! the coherency checker's question (`hca_core::coherency`): it follows
//! values over these wires, relays included, and answers every DDG edge.

use crate::dspfabric::{DspFabric, GroupPath};
use hca_ddg::NodeId;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where a configured wire takes its single source from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WireSource {
    /// Output wire of a sibling member (index within the group).
    Member(usize),
    /// A glue wire descending from the parent group.
    Parent,
}

/// One configured wire inside a group.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfiguredWire {
    /// The single source feeding the wire.
    pub src: WireSource,
    /// Sibling members listening on the wire (broadcast set).
    pub receivers: Vec<usize>,
    /// True when the wire also continues upward into a parent glue-out slot.
    pub to_parent: bool,
    /// Values (identified by their producing DDG node) carried on the wire.
    pub values: Vec<NodeId>,
}

impl ConfiguredWire {
    /// Does the wire carry `v`?
    #[inline]
    pub fn carries(&self, v: NodeId) -> bool {
        self.values.contains(&v)
    }

    /// Time-multiplexing pressure of the wire: one slot per value per II.
    #[inline]
    pub fn pressure(&self) -> u32 {
        self.values.len() as u32
    }
}

/// Legacy alias kept for the public API surface: a glue wire is an ordinary
/// [`ConfiguredWire`] whose `src` is [`WireSource::Parent`] (glue-in) or whose
/// `to_parent` flag is set (glue-out).
pub type GlueWire = ConfiguredWire;

/// All configured wires of one group.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupTopology {
    /// Wires of the group, in configuration order.
    pub wires: Vec<ConfiguredWire>,
}

impl GroupTopology {
    /// Wires sourced by member `m`.
    pub fn member_wires(&self, m: usize) -> impl Iterator<Item = &ConfiguredWire> {
        self.wires
            .iter()
            .filter(move |w| w.src == WireSource::Member(m))
    }

    /// Wires descending from the parent.
    pub fn glue_in_wires(&self) -> impl Iterator<Item = &ConfiguredWire> {
        self.wires.iter().filter(|w| w.src == WireSource::Parent)
    }

    /// Wires continuing to the parent.
    pub fn glue_out_wires(&self) -> impl Iterator<Item = &ConfiguredWire> {
        self.wires.iter().filter(|w| w.to_parent)
    }

    /// Number of distinct wires member `m` listens to (input-port usage).
    pub fn in_ports_used(&self, m: usize) -> usize {
        self.wires
            .iter()
            .filter(|w| w.receivers.contains(&m))
            .count()
    }

    /// Max time-multiplexing pressure over the group's wires.
    pub fn max_pressure(&self) -> u32 {
        self.wires
            .iter()
            .map(ConfiguredWire::pressure)
            .max()
            .unwrap_or(0)
    }
}

/// A violation found by [`Topology::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyError {
    /// Group where the violation occurred.
    pub group: GroupPath,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group {:?}: {}", self.group, self.message)
    }
}

impl std::error::Error for TopologyError {}

/// The configured topology of a whole hierarchical machine: one
/// [`GroupTopology`] per group (groups with no active wires may be absent).
///
/// Serialises as a list of `(path, group)` pairs — JSON objects cannot key
/// on integer paths.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(
    from = "Vec<(GroupPath, GroupTopology)>",
    into = "Vec<(GroupPath, GroupTopology)>"
)]
pub struct Topology {
    groups: FxHashMap<GroupPath, GroupTopology>,
}

impl From<Vec<(GroupPath, GroupTopology)>> for Topology {
    fn from(pairs: Vec<(GroupPath, GroupTopology)>) -> Self {
        Topology {
            groups: pairs.into_iter().collect(),
        }
    }
}

impl From<Topology> for Vec<(GroupPath, GroupTopology)> {
    fn from(t: Topology) -> Self {
        let mut pairs: Vec<_> = t.groups.into_iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs
    }
}

impl Topology {
    /// Empty topology (nothing configured).
    pub fn new() -> Self {
        Topology::default()
    }

    /// Group topology at `path`, if any wires are configured there.
    pub fn group(&self, path: &[usize]) -> Option<&GroupTopology> {
        self.groups.get(path)
    }

    /// Mutable group topology at `path`, created on demand.
    pub fn group_mut(&mut self, path: &[usize]) -> &mut GroupTopology {
        self.groups.entry(path.to_vec()).or_default()
    }

    /// Iterate over all non-empty groups.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupPath, &GroupTopology)> {
        self.groups.iter()
    }

    /// Total number of configured wires.
    pub fn num_wires(&self) -> usize {
        self.groups.values().map(|g| g.wires.len()).sum()
    }

    /// Maximum wire pressure anywhere in the machine (contributes to the
    /// final MII: each value on a wire consumes one transport slot per II).
    pub fn max_wire_pressure(&self) -> u32 {
        self.groups
            .values()
            .map(GroupTopology::max_pressure)
            .max()
            .unwrap_or(0)
    }

    /// Validate every group against the machine's MUX budgets.
    pub fn validate(&self, fabric: &DspFabric) -> Result<(), TopologyError> {
        let mut out_per_member = Vec::new();
        let mut in_per_member = Vec::new();
        for (path, gt) in &self.groups {
            let depth = path.len();
            if depth >= fabric.depth() {
                return Err(TopologyError {
                    group: path.clone(),
                    message: format!("path of length {depth} does not address a group"),
                });
            }
            let spec = fabric.level(depth);
            let err = |message: String| TopologyError {
                group: path.clone(),
                message,
            };
            let mut glue_in = 0usize;
            let mut glue_out = 0usize;
            out_per_member.clear();
            out_per_member.resize(spec.arity, 0usize);
            in_per_member.clear();
            in_per_member.resize(spec.arity, 0usize);
            for w in &gt.wires {
                match w.src {
                    WireSource::Member(m) => {
                        if m >= spec.arity {
                            return Err(err(format!("wire source member {m} out of range")));
                        }
                        out_per_member[m] += 1;
                        if w.receivers.contains(&m) {
                            return Err(err(format!("member {m} listens to its own wire")));
                        }
                    }
                    WireSource::Parent => {
                        glue_in += 1;
                        if depth == 0 {
                            return Err(err("root group cannot receive glue wires".into()));
                        }
                    }
                }
                if w.to_parent {
                    glue_out += 1;
                    if depth == 0 {
                        return Err(err("root group cannot emit glue wires".into()));
                    }
                }
                if w.receivers.is_empty() && !w.to_parent {
                    return Err(err("wire with no receivers and no parent exit".into()));
                }
                for &r in &w.receivers {
                    if r >= spec.arity {
                        return Err(err(format!("receiver {r} out of range")));
                    }
                    in_per_member[r] += 1;
                }
            }
            if glue_in > spec.glue_in {
                return Err(err(format!(
                    "{} glue-in wires exceed budget {}",
                    glue_in, spec.glue_in
                )));
            }
            if glue_out > spec.glue_out {
                return Err(err(format!(
                    "{} glue-out wires exceed budget {}",
                    glue_out, spec.glue_out
                )));
            }
            for m in 0..spec.arity {
                if out_per_member[m] > spec.out_wires {
                    return Err(err(format!(
                        "member {m} uses {} of {} output wires",
                        out_per_member[m], spec.out_wires
                    )));
                }
                if in_per_member[m] > spec.in_wires {
                    return Err(err(format!(
                        "member {m} uses {} of {} input ports",
                        in_per_member[m], spec.in_wires
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> NodeId {
        NodeId(n)
    }

    /// Configure a full path for value 0 from CN [0,0,0] to CN [1,0,0] on the
    /// standard machine.
    fn cross_set_topology() -> (DspFabric, Topology) {
        let f = DspFabric::standard(8, 8, 8);
        let mut t = Topology::new();
        // Leaf group [0,0]: CN 0 sends up.
        t.group_mut(&[0, 0]).wires.push(ConfiguredWire {
            src: WireSource::Member(0),
            receivers: vec![],
            to_parent: true,
            values: vec![v(0)],
        });
        // Level-1 group [0]: cluster 0 sends up.
        t.group_mut(&[0]).wires.push(ConfiguredWire {
            src: WireSource::Member(0),
            receivers: vec![],
            to_parent: true,
            values: vec![v(0)],
        });
        // Root: set 0 broadcasts to set 1.
        t.group_mut(&[]).wires.push(ConfiguredWire {
            src: WireSource::Member(0),
            receivers: vec![1],
            to_parent: false,
            values: vec![v(0)],
        });
        // Level-1 group [1]: glue-in towards cluster 0.
        t.group_mut(&[1]).wires.push(ConfiguredWire {
            src: WireSource::Parent,
            receivers: vec![0],
            to_parent: false,
            values: vec![v(0)],
        });
        // Leaf group [1,0]: glue-in towards CN 0.
        t.group_mut(&[1, 0]).wires.push(ConfiguredWire {
            src: WireSource::Parent,
            receivers: vec![0],
            to_parent: false,
            values: vec![v(0)],
        });
        (f, t)
    }

    #[test]
    fn cross_set_path_is_coherent() {
        let (f, t) = cross_set_topology();
        assert!(t.validate(&f).is_ok());
    }

    #[test]
    fn sibling_path_within_leaf_group() {
        let f = DspFabric::standard(8, 8, 8);
        let mut t = Topology::new();
        t.group_mut(&[2, 3]).wires.push(ConfiguredWire {
            src: WireSource::Member(1),
            receivers: vec![0, 2],
            to_parent: false,
            values: vec![v(7), v(9)],
        });
        assert!(t.validate(&f).is_ok());
    }

    #[test]
    fn validate_rejects_port_overuse() {
        let f = DspFabric::standard(8, 8, 8);
        let mut t = Topology::new();
        // Leaf CNs have 2 input ports; give CN 0 three distinct wires.
        for s in 1..=3usize {
            t.group_mut(&[0, 0]).wires.push(ConfiguredWire {
                src: WireSource::Member(s),
                receivers: vec![0],
                to_parent: false,
                values: vec![v(s as u32)],
            });
        }
        let err = t.validate(&f).unwrap_err();
        assert!(err.message.contains("input ports"), "{err}");
    }

    #[test]
    fn validate_rejects_output_overuse() {
        let f = DspFabric::standard(8, 8, 8);
        let mut t = Topology::new();
        // A CN has a single output wire; configure two from member 0.
        for val in 0..2u32 {
            t.group_mut(&[0, 0]).wires.push(ConfiguredWire {
                src: WireSource::Member(0),
                receivers: vec![1],
                to_parent: false,
                values: vec![v(val)],
            });
        }
        let err = t.validate(&f).unwrap_err();
        assert!(err.message.contains("output wires"), "{err}");
    }

    #[test]
    fn validate_rejects_glue_budget_overflow() {
        let f = DspFabric::standard(2, 2, 2);
        let mut t = Topology::new();
        // Leaf glue_in budget is k = 2; configure 3 parent wires.
        for val in 0..3u32 {
            t.group_mut(&[0, 0]).wires.push(ConfiguredWire {
                src: WireSource::Parent,
                receivers: vec![val as usize % 2],
                to_parent: false,
                values: vec![v(val)],
            });
        }
        let err = t.validate(&f).unwrap_err();
        assert!(err.message.contains("glue-in"), "{err}");
    }

    #[test]
    fn validate_rejects_root_glue() {
        let f = DspFabric::standard(8, 8, 8);
        let mut t = Topology::new();
        t.group_mut(&[]).wires.push(ConfiguredWire {
            src: WireSource::Parent,
            receivers: vec![0],
            to_parent: false,
            values: vec![v(0)],
        });
        assert!(t.validate(&f).is_err());
    }

    #[test]
    fn validate_rejects_self_listen_and_dangling() {
        let f = DspFabric::standard(8, 8, 8);
        let mut t = Topology::new();
        t.group_mut(&[0]).wires.push(ConfiguredWire {
            src: WireSource::Member(1),
            receivers: vec![1],
            to_parent: false,
            values: vec![v(0)],
        });
        assert!(t.validate(&f).unwrap_err().message.contains("own wire"));

        let mut t2 = Topology::new();
        t2.group_mut(&[0]).wires.push(ConfiguredWire {
            src: WireSource::Member(1),
            receivers: vec![],
            to_parent: false,
            values: vec![v(0)],
        });
        assert!(t2
            .validate(&f)
            .unwrap_err()
            .message
            .contains("no receivers"));
    }

    #[test]
    fn pressure_accounting() {
        let (_, t) = cross_set_topology();
        assert_eq!(t.max_wire_pressure(), 1);
        assert_eq!(t.num_wires(), 5);
        let gt = t.group(&[0, 0]).unwrap();
        assert_eq!(gt.glue_out_wires().count(), 1);
        assert_eq!(gt.in_ports_used(0), 0);
    }
}
