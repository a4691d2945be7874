//! Static routing table over the immutable Pattern-Graph topology.
//!
//! The Route Allocator's admissible-path search explores the *dynamic* graph
//! (potential arcs filtered by port budgets and already-real arcs), but the
//! dynamic graph is always a subgraph of the static one: a potential arc
//! that does not exist in the PG can never become admissible, and a node
//! with no static path to the destination can never lie on a dynamic path.
//! Since the PG is tiny (≤ ~20 nodes per sub-problem) we precompute, once
//! per SEE run, the all-pairs hop distance of the static graph under the
//! router's reachability rule — intermediate nodes must be real clusters,
//! only the final node may be special — and use it three ways:
//!
//! 1. **candidate pre-rejection**: `route_assign` drops a target cluster
//!    before any BFS when some operand producer or consumer is statically
//!    too far (the static distance lower-bounds every dynamic path length);
//! 2. **search-space pruning**: the BFS never expands into nodes whose
//!    static distance to the destination is infinite;
//! 3. **trivial answers**: `src == dst` and statically-unreachable queries
//!    are answered from the table without touching the queue.
//!
//! All three uses are *exact* — they can only skip work whose outcome is
//! already decided — so routing results are bit-identical with and without
//! the table. (A tempting fourth use, pruning on `hops + dist > budget`
//! mid-search, is **unsound** here: the search relaxes the lexicographic
//! cost `(new_ports, hops)`, so a port-cheap long path must be allowed to
//! survive even when it cannot reach the destination in budget, because its
//! queue entries block port-expensive short paths from overwriting shared
//! prefixes. Do not add it.)
//!
//! The table also owns the run's routing counters. A SEE run steps its beam
//! on one thread, so they are plain cells bumped through `&self`; each
//! skip/run event happens deterministically per candidate, so the totals
//! are safe to compare in the determinism tests.

use hca_pg::{Pg, PgNodeId};
use std::cell::Cell;

/// Unreachable marker in the packed distance matrix.
const INF: u16 = u16::MAX;

/// Precomputed all-pairs static hop distances of one Pattern Graph, plus
/// the routing counters of the current SEE run.
#[derive(Debug)]
pub struct RouteTable {
    /// Node count of the PG (clusters + special nodes).
    n: usize,
    /// Row-major `n × n` hop distances; `INF` = statically unreachable.
    dist: Vec<u16>,
    /// Dynamic admissible-path searches actually executed.
    bfs_runs: Cell<usize>,
    /// Queries answered (or candidates rejected) from the static table
    /// without running a search.
    cache_hits: Cell<usize>,
}

impl RouteTable {
    /// Build the table from the PG's potential arcs: one BFS per source,
    /// expanding only through real clusters (the source itself may be a
    /// special node — a path may *start* anywhere, e.g. on a glue-in input
    /// node — and any node may *end* a path).
    pub fn build(pg: &Pg) -> Self {
        let n = pg.num_nodes();
        let mut dist = vec![INF; n * n];
        let mut queue: Vec<PgNodeId> = Vec::with_capacity(n);
        for src in 0..n {
            let row = src * n;
            dist[row + src] = 0;
            queue.clear();
            queue.push(PgNodeId(src as u32));
            let mut head = 0;
            while head < queue.len() {
                let cur = queue[head];
                head += 1;
                // Only the source and real clusters forward; a special node
                // reached mid-search terminates its branch.
                if cur.index() != src && !pg.node(cur).kind.is_cluster() {
                    continue;
                }
                let d = dist[row + cur.index()];
                for &next in pg.potential_succs(cur) {
                    let slot = row + next.index();
                    if dist[slot] == INF {
                        dist[slot] = d + 1;
                        queue.push(next);
                    }
                }
            }
        }
        RouteTable {
            n,
            dist,
            bfs_runs: Cell::new(0),
            cache_hits: Cell::new(0),
        }
    }

    /// Number of PG nodes the table covers.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Static hop distance `src → dst` (0 for `src == dst`), or `None` when
    /// no path whose intermediate nodes are all clusters exists.
    #[inline]
    pub fn hop_dist(&self, src: PgNodeId, dst: PgNodeId) -> Option<u32> {
        let d = self.dist[src.index() * self.n + dst.index()];
        (d != INF).then_some(u32::from(d))
    }

    /// Is `dst` statically reachable from `src` at all?
    #[inline]
    pub fn reachable(&self, src: PgNodeId, dst: PgNodeId) -> bool {
        self.dist[src.index() * self.n + dst.index()] != INF
    }

    /// Record one executed admissible-path search.
    #[inline]
    pub(crate) fn count_bfs(&self) {
        self.bfs_runs.set(self.bfs_runs.get() + 1);
    }

    /// Record one query answered from the static table alone.
    #[inline]
    pub(crate) fn count_hit(&self) {
        self.cache_hits.set(self.cache_hits.get() + 1);
    }

    /// Drain the `(bfs_runs, cache_hits)` counters, resetting them to zero
    /// — called once at the end of a run to fold them into `SeeStats`.
    pub fn take_counters(&self) -> (usize, usize) {
        (self.bfs_runs.take(), self.cache_hits.take())
    }

    /// Approximate heap footprint of the table: the packed `n × n`
    /// distance matrix plus the struct itself. Feeds the
    /// `see.route_table_bytes` size accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.dist.len() * std::mem::size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hca_arch::{Rcp, ResourceTable};
    use hca_ddg::{DdgBuilder, Opcode};
    use hca_pg::{Ili, IliWire};

    /// Independent oracle: Floyd–Warshall restricted to cluster
    /// intermediates, over the same potential-arc relation.
    fn oracle(pg: &Pg) -> Vec<Vec<Option<u32>>> {
        let n = pg.num_nodes();
        let ids: Vec<PgNodeId> = (0..n as u32).map(PgNodeId).collect();
        let mut d: Vec<Vec<Option<u32>>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            Some(0)
                        } else if pg.is_potential(ids[i], ids[j]) {
                            Some(1)
                        } else {
                            None
                        }
                    })
                    .collect()
            })
            .collect();
        for k in 0..n {
            if !pg.node(ids[k]).kind.is_cluster() {
                continue; // special nodes never forward
            }
            for i in 0..n {
                for j in 0..n {
                    if let (Some(a), Some(b)) = (d[i][k], d[k][j]) {
                        if d[i][j].is_none_or(|c| a + b < c) {
                            d[i][j] = Some(a + b);
                        }
                    }
                }
            }
        }
        d
    }

    fn assert_matches_oracle(pg: &Pg, what: &str) {
        let rt = RouteTable::build(pg);
        let want = oracle(pg);
        let n = pg.num_nodes();
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                assert_eq!(
                    rt.hop_dist(PgNodeId(i), PgNodeId(j)),
                    want[i as usize][j as usize],
                    "{what}: dist({i}, {j})"
                );
            }
        }
    }

    /// A small deterministic LCG so the "random PG" sweep needs no RNG crate
    /// in this crate's dev-deps.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn complete_pg_distances_match_oracle() {
        let pg = Pg::complete(8, ResourceTable::of_cns(8));
        assert_matches_oracle(&pg, "complete8");
    }

    #[test]
    fn ring_distances_match_oracle() {
        for (clusters, reach) in [(4, 1), (6, 1), (8, 2), (8, 3)] {
            let rcp = Rcp::new(clusters, reach, 2, |_| true);
            let pg = Pg::from_rcp(&rcp);
            assert_matches_oracle(&pg, &format!("ring{clusters}/reach{reach}"));
        }
    }

    #[test]
    fn random_pgs_with_ili_match_oracle() {
        // Random shapes: varying ring reach and randomly attached ILIs make
        // the special-node rule (never forward, always terminable) matter.
        let mut rng = Lcg(0x5EED_CAFE);
        for case in 0..40 {
            let clusters = 2 + (rng.next() % 7) as usize;
            let reach = 1 + (rng.next() % (clusters as u64 - 1)) as usize;
            let rcp = Rcp::new(clusters, reach, 2, |_| true);
            let mut pg = Pg::from_rcp(&rcp);

            let mut b = DdgBuilder::default();
            let vals: Vec<_> = (0..6).map(|_| b.node(Opcode::Add)).collect();
            let _ddg = b.finish();
            let n_in = (rng.next() % 3) as usize;
            let n_out = (rng.next() % 3) as usize;
            let ili = Ili {
                inputs: (0..n_in).map(|i| IliWire::new(vec![vals[i]])).collect(),
                outputs: (0..n_out)
                    .map(|i| IliWire::new(vec![vals[3 + i]]))
                    .collect(),
            };
            pg.attach_ili(&ili);
            assert_matches_oracle(&pg, &format!("random case {case}"));
        }
    }

    #[test]
    fn special_nodes_terminate_but_never_forward() {
        // Ring of 4, reach 1, one input and one output node.
        let rcp = Rcp::new(4, 1, 2, |_| true);
        let mut pg = Pg::from_rcp(&rcp);
        let mut b = DdgBuilder::default();
        let x = b.node(Opcode::Add);
        let y = b.node(Opcode::Add);
        let _ddg = b.finish();
        pg.attach_ili(&Ili {
            inputs: vec![IliWire::new(vec![x])],
            outputs: vec![IliWire::new(vec![y])],
        });
        let rt = RouteTable::build(&pg);
        let inp = pg.input_ids().next().unwrap();
        let out = pg.output_ids().next().unwrap();
        // The input node feeds clusters but no path may pass *through* the
        // output node, and nothing is reachable *from* it.
        assert!(rt.reachable(inp, out));
        for c in pg.cluster_ids() {
            assert!(rt.reachable(inp, c), "input reaches {c}");
            assert!(rt.reachable(c, out), "{c} reaches output");
            assert_eq!(rt.hop_dist(out, c), None, "output must not forward");
        }
    }

    #[test]
    fn counters_drain_and_reset() {
        let pg = Pg::complete(2, ResourceTable::of_cns(4));
        let rt = RouteTable::build(&pg);
        rt.count_bfs();
        rt.count_hit();
        rt.count_hit();
        assert_eq!(rt.take_counters(), (1, 2));
        assert_eq!(rt.take_counters(), (0, 0));
    }
}
