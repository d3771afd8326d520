//! Seeded workload inputs: the graph, the query stream, and the delta
//! batches. Everything the program under test sees comes from here,
//! and the same `--seed` always gives the same inputs.

use fg_graph::gen::{rmat, RmatSkew};
use fg_graph::{DeltaBatch, Graph, GraphBuilder};
use fg_types::VertexId;

/// R-MAT scale of every workload's graph (2^14 vertices), shaped like
/// the twitter-sim dataset.
pub const SCALE: u32 = 14;
/// R-MAT edge factor (twitter-sim's mean degree).
pub const EDGE_FACTOR: u32 = 32;

/// A small, fast, seedable generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`; distinct streams of
    /// one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Stream ids, so each input draws from its own generator.
const GRAPH: u64 = 1;
const QUERIES: u64 = 3;
const BATCHES: u64 = 4;
const LCC: u64 = 5;

/// The directed twitter-sim-shaped graph of `seed`.
pub fn graph(seed: u64) -> Graph {
    rmat(
        SCALE,
        EDGE_FACTOR,
        RmatSkew::social(),
        Rng::new(seed, GRAPH).next_u64(),
    )
}

/// The undirected view of `g` (TC and the serving workloads run on it).
pub fn symmetrize(g: &Graph) -> Graph {
    let mut b = GraphBuilder::undirected();
    b.reserve_vertices(g.num_vertices());
    for (s, d) in g.edges() {
        b.add_edge(s, d);
    }
    b.build()
}

/// The highest-out-degree vertex (lowest id on ties): the traverse
/// workload's BFS root.
pub fn hub(g: &Graph) -> VertexId {
    g.vertices()
        .max_by_key(|&v| (g.out_degree(v), std::cmp::Reverse(v)))
        .unwrap_or(VertexId(0))
}

/// Vertices with at least one edge, in id order.
pub fn non_isolated(g: &Graph) -> Vec<VertexId> {
    g.vertices().filter(|&v| g.out_degree(v) > 0).collect()
}

/// Seed of the sampled-LCC estimator the point queries run.
pub fn lcc_seed(seed: u64) -> u64 {
    Rng::new(seed, LCC).next_u64()
}

/// One serving query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Sampled local clustering coefficient of one vertex.
    Point(VertexId),
    /// BFS from one vertex.
    Traversal(VertexId),
}

/// One query in this many is a BFS traversal (5 %).
pub const TRAVERSAL_EVERY: usize = 20;

/// `len` queries for client `client`, each on a random non-isolated
/// vertex: a point query, except one BFS at a random slot of every
/// [`TRAVERSAL_EVERY`] queries. Fixing the share per block (rather
/// than per query) keeps the mix, and with it the run's cost, the
/// same from seed to seed.
pub fn query_stream(seed: u64, client: u64, candidates: &[VertexId], len: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, QUERIES + (client << 8));
    let mut slot = 0;
    (0..len)
        .map(|i| {
            if i % TRAVERSAL_EVERY == 0 {
                slot = rng.below(TRAVERSAL_EVERY as u64) as usize;
            }
            let v = rng.pick(candidates);
            if i % TRAVERSAL_EVERY == slot {
                Query::Traversal(v)
            } else {
                Query::Point(v)
            }
        })
        .collect()
}

/// One edge mutation of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    Add(VertexId, VertexId),
    Remove(VertexId, VertexId),
}

/// Share of batch ops that remove an edge of the base graph.
pub const REMOVE_SHARE: f64 = 0.25;

/// `count` batches of `ops` mutations each against `g`: about three
/// quarters add an edge between two random non-isolated vertices, the
/// rest remove a random existing edge of `g`.
pub fn delta_batches(
    seed: u64,
    g: &Graph,
    candidates: &[VertexId],
    count: usize,
    ops: usize,
) -> Vec<Vec<EdgeOp>> {
    let mut rng = Rng::new(seed, BATCHES);
    (0..count)
        .map(|_| {
            (0..ops)
                .map(|_| {
                    let src = rng.pick(candidates);
                    if rng.chance(REMOVE_SHARE) {
                        EdgeOp::Remove(src, rng.pick(g.out_neighbors(src)))
                    } else {
                        let dst = loop {
                            let d = rng.pick(candidates);
                            if d != src {
                                break d;
                            }
                        };
                        EdgeOp::Add(src, dst)
                    }
                })
                .collect()
        })
        .collect()
}

/// The batch the service ingests for `ops`.
pub fn to_batch(ops: &[EdgeOp]) -> DeltaBatch {
    let mut b = DeltaBatch::new();
    for &op in ops {
        match op {
            EdgeOp::Add(s, d) => b.add_edge(s, d),
            EdgeOp::Remove(s, d) => b.remove_edge(s, d),
        };
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::gen;

    fn small() -> (Graph, Vec<VertexId>) {
        let g = symmetrize(&gen::rmat(8, 8, RmatSkew::social(), 3));
        let c = non_isolated(&g);
        (g, c)
    }

    #[test]
    fn same_seed_same_inputs() {
        let (g, c) = small();
        assert_eq!(query_stream(7, 0, &c, 500), query_stream(7, 0, &c, 500));
        assert_eq!(
            delta_batches(7, &g, &c, 4, 256),
            delta_batches(7, &g, &c, 4, 256)
        );
        assert_eq!(lcc_seed(7), lcc_seed(7));
    }

    #[test]
    fn different_seed_different_inputs() {
        let (g, c) = small();
        assert_ne!(query_stream(7, 0, &c, 500), query_stream(8, 0, &c, 500));
        assert_ne!(
            delta_batches(7, &g, &c, 4, 256),
            delta_batches(8, &g, &c, 4, 256)
        );
        assert_ne!(lcc_seed(7), lcc_seed(8));
        assert_ne!(graph(7).num_edges(), 0);
    }

    #[test]
    fn clients_get_distinct_streams() {
        let (_, c) = small();
        assert_ne!(query_stream(7, 0, &c, 500), query_stream(7, 1, &c, 500));
    }

    #[test]
    fn query_mix_and_batch_shape() {
        let (g, c) = small();
        let qs = query_stream(1, 0, &c, 20_000);
        for block in qs.chunks(TRAVERSAL_EVERY) {
            let bfs = block
                .iter()
                .filter(|q| matches!(q, Query::Traversal(_)))
                .count();
            assert_eq!(bfs, 1, "one traversal per block of {TRAVERSAL_EVERY}");
        }
        // Traversal roots range over the non-isolated vertices, not a
        // fixed pool.
        let roots: std::collections::HashSet<VertexId> = qs
            .iter()
            .filter_map(|q| match q {
                Query::Traversal(r) => Some(*r),
                Query::Point(_) => None,
            })
            .collect();
        assert!(roots.len() > c.len() / 2, "{} roots", roots.len());
        assert!(roots.iter().all(|r| c.contains(r)));
        for batch in delta_batches(1, &g, &c, 8, 256) {
            assert_eq!(batch.len(), 256);
            for op in batch {
                match op {
                    EdgeOp::Add(s, d) => assert_ne!(s, d),
                    EdgeOp::Remove(s, d) => assert!(g.out_neighbors(s).contains(&d)),
                }
            }
        }
    }

    #[test]
    fn graph_depends_on_seed() {
        assert_eq!(graph(3), graph(3));
        assert_ne!(graph(3), graph(4));
    }
}
