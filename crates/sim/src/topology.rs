//! WAN/geo topology layer: region graphs with per-pair latency matrices.
//!
//! The LAN models in [`crate::network`] treat every pair of nodes as
//! equidistant (modulo per-link tweaks). Geo-scale experiments need the
//! opposite: latency is dominated by *which regions* the endpoints sit in,
//! per the geo-SMR deployment-ranking literature where inter-region RTT
//! matrices drive replica placement. [`GeoTopology`] makes the region graph
//! a first-class, data-driven input: a list of named regions plus a full
//! round-trip-time matrix, with per-byte/per-fanout terms, bounded
//! multiplicative jitter, probabilistic loss, and [`LinkFaultHook`]s that
//! compose with `crates/faults` schedules.
//!
//! The topology also anchors the sharded engine's conservative
//! synchronization: [`GeoTopology::min_inter_region_delay`] is the smallest
//! one-way latency any cross-region message can experience, which is
//! exactly the lookahead a CMB-style time-window barrier needs. Everything
//! that perturbs a delay (jitter, loss, hooks) is constrained to only
//! *increase* it, so the lookahead derived from the raw matrix stays a
//! valid lower bound.

use aqua_core::time::{Duration, Instant};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::network::NetworkModel;
use crate::node::NodeId;

/// Delay assigned to a "lost" message: one virtual day, far beyond any
/// experiment horizon, so the event simply never fires within the run.
/// Matches the drop sentinel used by the workload harness's fault wrapper.
pub const DROP_DELAY: Duration = Duration::from_secs(86_400);

/// What a [`LinkFaultHook`] decided to do with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// Deliver with the given (possibly increased) one-way delay.
    Deliver(Duration),
    /// Drop the message (modelled as [`DROP_DELAY`]).
    Drop,
}

/// A per-link fault injector composing with the topology.
///
/// Hooks see the region pair, the virtual send time, and the delay the
/// topology computed, and may delay the message further or drop it.
///
/// # Contract
///
/// * A returned `Deliver(d)` must satisfy `d >= delay` — hooks may only
///   *increase* latency. The sharded engine's lookahead is derived from the
///   raw matrix; a hook that shortened a delay below the minimum
///   inter-region latency would break conservative synchronization.
/// * Hooks must be pure functions of their arguments (no interior
///   randomness or wall-clock reads), so replays and different worker
///   counts see identical histories.
pub trait LinkFaultHook: Send + Sync {
    /// Decides the fate of one message on the `from_region → to_region`
    /// link sent at `now` with topology-computed one-way `delay`.
    fn apply(
        &self,
        from_region: usize,
        to_region: usize,
        now: Instant,
        delay: Duration,
    ) -> LinkOutcome;
}

/// One-way latency between two nodes inside one region (same-datacenter
/// switched network).
const LOCAL_DELAY: Duration = Duration::from_micros(150);

/// A named region; two nodes inside it are `LOCAL_DELAY` (150 µs) apart.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Human-readable region name (e.g. `"virginia"`).
    pub name: String,
}

impl RegionSpec {
    /// A region called `name`.
    pub fn named(name: &str) -> Self {
        RegionSpec {
            name: name.to_string(),
        }
    }
}

/// A WAN topology: regions plus a full inter-region RTT matrix.
///
/// One-way latency between distinct regions is `rtt / 2`; within a region
/// it is `LOCAL_DELAY` (150 µs). On top of the base latency the topology
/// adds a per-byte bandwidth term and a per-extra-destination fan-out
/// term, multiplies by `1 + U(0, jitter)`, and drops messages with
/// probability `loss` (delivering them at [`DROP_DELAY`] instead).
#[derive(Debug, Clone)]
pub struct GeoTopology {
    regions: Vec<RegionSpec>,
    /// Full one-way matrix in nanoseconds, row-major; `one_way[i][j]`.
    one_way: Vec<Vec<Duration>>,
    /// Additional latency per payload byte.
    pub per_byte: Duration,
    /// Additional latency per extra multicast destination.
    pub per_fanout: Duration,
    /// Multiplicative jitter: delay is scaled by `1 + U(0, jitter)`.
    pub jitter: f64,
    /// Per-message loss probability in `[0, 1]`.
    pub loss: f64,
}

impl GeoTopology {
    /// Builds a topology from region specs and a symmetric RTT matrix in
    /// milliseconds (`rtt_ms[i][j]` = round trip between regions `i` and
    /// `j`; the diagonal is ignored).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square with one row per region — a
    /// malformed scenario is a configuration error, not a runtime
    /// condition.
    pub fn from_rtt_ms(regions: Vec<RegionSpec>, rtt_ms: &[Vec<f64>]) -> Self {
        assert_eq!(
            rtt_ms.len(),
            regions.len(),
            "RTT matrix must have one row per region"
        );
        let one_way = rtt_ms
            .iter()
            .enumerate()
            .map(|(i, row)| {
                assert_eq!(
                    row.len(),
                    regions.len(),
                    "RTT matrix row {i} must have one entry per region"
                );
                row.iter()
                    .enumerate()
                    .map(|(j, rtt)| {
                        if i == j {
                            LOCAL_DELAY
                        } else {
                            Duration::from_nanos((rtt.max(0.0) * 500_000.0) as u64)
                        }
                    })
                    .collect()
            })
            .collect();
        GeoTopology {
            regions,
            one_way,
            per_byte: Duration::from_nanos(80),
            per_fanout: Duration::from_micros(40),
            jitter: 0.10,
            loss: 0.0,
        }
    }

    /// The built-in five-region AWS dataset from the geo-SMR
    /// deployment-ranking evaluation: Virginia, California, Ireland,
    /// Tokyo, São Paulo, with measured inter-region RTTs (ms).
    pub fn aws_5region() -> Self {
        let regions = ["virginia", "california", "ireland", "tokyo", "saopaulo"]
            .iter()
            .map(|n| RegionSpec::named(n))
            .collect();
        #[rustfmt::skip]
        let rtt: Vec<Vec<f64>> = vec![
            //           V      C      I      T      S
            vec![   0.0,  62.0,  80.0, 162.0, 120.0], // virginia
            vec![  62.0,   0.0, 138.0, 108.0, 180.0], // california
            vec![  80.0, 138.0,   0.0, 222.0, 184.0], // ireland
            vec![ 162.0, 108.0, 222.0,   0.0, 270.0], // tokyo
            vec![ 120.0, 180.0, 184.0, 270.0,   0.0], // saopaulo
        ];
        GeoTopology::from_rtt_ms(regions, &rtt)
    }

    /// A ten-region AWS-style dataset extending [`GeoTopology::aws_5region`]
    /// with Oregon, Frankfurt, Singapore, Sydney, and Mumbai.
    pub fn aws_10region() -> Self {
        let regions = [
            "virginia",
            "california",
            "ireland",
            "tokyo",
            "saopaulo",
            "oregon",
            "frankfurt",
            "singapore",
            "sydney",
            "mumbai",
        ]
        .iter()
        .map(|n| RegionSpec::named(n))
        .collect();
        #[rustfmt::skip]
        let rtt: Vec<Vec<f64>> = vec![
            //           V      C      I      T      S      O      F     Sg     Sy      M
            vec![   0.0,  62.0,  80.0, 162.0, 120.0,  72.0,  90.0, 230.0, 200.0, 190.0], // virginia
            vec![  62.0,   0.0, 138.0, 108.0, 180.0,  22.0, 148.0, 176.0, 150.0, 230.0], // california
            vec![  80.0, 138.0,   0.0, 222.0, 184.0, 130.0,  26.0, 180.0, 280.0, 122.0], // ireland
            vec![ 162.0, 108.0, 222.0,   0.0, 270.0, 100.0, 230.0,  70.0, 110.0, 130.0], // tokyo
            vec![ 120.0, 180.0, 184.0, 270.0,   0.0, 180.0, 200.0, 330.0, 310.0, 300.0], // saopaulo
            vec![  72.0,  22.0, 130.0, 100.0, 180.0,   0.0, 140.0, 166.0, 140.0, 220.0], // oregon
            vec![  90.0, 148.0,  26.0, 230.0, 200.0, 140.0,   0.0, 160.0, 290.0, 110.0], // frankfurt
            vec![ 230.0, 176.0, 180.0,  70.0, 330.0, 166.0, 160.0,   0.0,  92.0,  60.0], // singapore
            vec![ 200.0, 150.0, 280.0, 110.0, 310.0, 140.0, 290.0,  92.0,   0.0, 150.0], // sydney
            vec![ 190.0, 230.0, 122.0, 130.0, 300.0, 220.0, 110.0,  60.0, 150.0,   0.0], // mumbai
        ];
        GeoTopology::from_rtt_ms(regions, &rtt)
    }

    /// Resolves a built-in dataset by name (`"aws_5region"` /
    /// `"aws_10region"`), used by the scenario loader.
    pub fn dataset(name: &str) -> Option<Self> {
        match name {
            "aws_5region" => Some(GeoTopology::aws_5region()),
            "aws_10region" => Some(GeoTopology::aws_10region()),
            _ => None,
        }
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Region specs, in index order.
    pub fn regions(&self) -> &[RegionSpec] {
        &self.regions
    }

    /// Base one-way latency between two regions (intra-region `LOCAL_DELAY`
    /// on the diagonal).
    pub fn one_way(&self, from: usize, to: usize) -> Duration {
        self.one_way[from][to]
    }

    /// The minimum base one-way latency between any two *distinct* regions
    /// — the conservative lookahead for cross-shard synchronization when
    /// shards partition regions. `None` for single-region topologies.
    ///
    /// Safe as lookahead because every term stacked on top of the base
    /// (per-byte, per-fanout, `1 + U(0, jitter)` with `jitter >= 0`, loss
    /// as [`DROP_DELAY`], and [`LinkFaultHook`]s per their contract) only
    /// increases the delay.
    pub fn min_inter_region_delay(&self) -> Option<Duration> {
        let n = self.regions.len();
        let mut min = None;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let d = self.one_way[i][j];
                    min = Some(min.map_or(d, |m: Duration| m.min(d)));
                }
            }
        }
        min
    }

    /// Computes one message's delay on the `from → to` region link,
    /// applying bandwidth/fan-out terms, jitter, loss, and hooks, drawing
    /// randomness from `rng` (the *sender's* stream under the sharded
    /// engine, so the result is independent of how nodes are partitioned).
    // Flat argument list on purpose: this is the per-message hot path and
    // every caller already has the scalars in hand.
    #[allow(clippy::too_many_arguments)]
    pub fn link_delay(
        &self,
        from: usize,
        to: usize,
        size: usize,
        fanout: usize,
        now: Instant,
        hooks: &[Box<dyn LinkFaultHook>],
        rng: &mut SmallRng,
    ) -> Duration {
        let raw = self
            .one_way(from, to)
            .saturating_add(self.per_byte.saturating_mul(size as u64))
            .saturating_add(
                self.per_fanout
                    .saturating_mul(fanout.saturating_sub(1) as u64),
            );
        let jittered = if self.jitter > 0.0 {
            raw.mul_f64(1.0 + rng.gen_range(0.0..=self.jitter))
        } else {
            raw
        };
        let mut delay = if self.loss > 0.0 && rng.gen_bool(self.loss.clamp(0.0, 1.0)) {
            DROP_DELAY
        } else {
            jittered
        };
        for hook in hooks {
            match hook.apply(from, to, now, delay) {
                LinkOutcome::Deliver(d) => delay = d.max(delay),
                LinkOutcome::Drop => delay = DROP_DELAY,
            }
        }
        delay
    }
}

/// Adapter running a [`GeoTopology`] as a sequential [`NetworkModel`]: a
/// node-to-region assignment plus the topology. The sharded engine
/// consumes the topology directly; this adapter lets the classic
/// [`crate::Simulation`] run the same scenarios.
pub struct GeoNetwork {
    topology: GeoTopology,
    region_of: Vec<u32>,
}

impl GeoNetwork {
    /// Wraps a topology with an initially empty node-to-region map
    /// (unassigned nodes land in region 0).
    pub fn new(topology: GeoTopology) -> Self {
        GeoNetwork {
            topology,
            region_of: Vec::new(),
        }
    }

    /// Assigns `node` to `region` (index into the topology's region list).
    pub fn assign(&mut self, node: NodeId, region: usize) -> &mut Self {
        assert!(
            region < self.topology.region_count(),
            "region index out of range"
        );
        let idx = node.index() as usize;
        if idx >= self.region_of.len() {
            self.region_of.resize(idx + 1, 0);
        }
        self.region_of[idx] = region as u32;
        self
    }

    /// The region a node was assigned to (region 0 if never assigned).
    pub fn region_of(&self, node: NodeId) -> usize {
        self.region_of
            .get(node.index() as usize)
            .map_or(0, |r| *r as usize)
    }

    /// The wrapped topology.
    pub fn topology(&self) -> &GeoTopology {
        &self.topology
    }
}

impl NetworkModel for GeoNetwork {
    fn delay(
        &mut self,
        from: NodeId,
        to: NodeId,
        size: usize,
        fanout: usize,
        now: Instant,
        rng: &mut SmallRng,
    ) -> Duration {
        let fr = self.region_of(from);
        let tr = self.region_of(to);
        self.topology
            .link_delay(fr, tr, size, fanout, now, &[], rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn one_way_is_half_rtt() {
        let topo = GeoTopology::aws_5region();
        let index = |name| topo.regions().iter().position(|r| r.name == name).unwrap();
        let (v, i) = (index("virginia"), index("ireland"));
        assert_eq!(topo.one_way(v, i), Duration::from_millis(40));
        assert_eq!(topo.one_way(i, v), Duration::from_millis(40));
        assert_eq!(topo.one_way(v, v), Duration::from_micros(150));
    }

    #[test]
    fn min_inter_region_delay_is_smallest_off_diagonal() {
        let topo = GeoTopology::aws_5region();
        // Smallest RTT is Virginia–California at 62 ms → 31 ms one-way.
        assert_eq!(
            topo.min_inter_region_delay(),
            Some(Duration::from_millis(31))
        );
        let ten = GeoTopology::aws_10region();
        // California–Oregon at 22 ms → 11 ms one-way.
        assert_eq!(
            ten.min_inter_region_delay(),
            Some(Duration::from_millis(11))
        );
        let single = GeoTopology::from_rtt_ms(vec![RegionSpec::named("only")], &[vec![0.0]]);
        assert_eq!(single.min_inter_region_delay(), None);
    }

    #[test]
    fn link_delay_never_below_base_and_respects_loss() {
        let mut topo = GeoTopology::aws_5region();
        topo.jitter = 0.25;
        topo.loss = 0.0;
        let base = topo.one_way(0, 1);
        let mut r = rng();
        for _ in 0..100 {
            let d = topo.link_delay(0, 1, 0, 1, Instant::EPOCH, &[], &mut r);
            assert!(d >= base, "jitter only increases delay");
            assert!(d <= base.mul_f64(1.25));
        }
        topo.loss = 1.0;
        let d = topo.link_delay(0, 1, 0, 1, Instant::EPOCH, &[], &mut r);
        assert_eq!(d, DROP_DELAY, "certain loss maps to the drop sentinel");
    }

    struct SlowLink;
    impl LinkFaultHook for SlowLink {
        fn apply(&self, from: usize, to: usize, _now: Instant, delay: Duration) -> LinkOutcome {
            if from == 0 && to == 1 {
                LinkOutcome::Deliver(delay.saturating_add(Duration::from_millis(500)))
            } else {
                LinkOutcome::Deliver(delay)
            }
        }
    }

    #[test]
    fn hooks_compose_and_only_increase() {
        let mut topo = GeoTopology::aws_5region();
        topo.jitter = 0.0;
        let hooks: Vec<Box<dyn LinkFaultHook>> = vec![Box::new(SlowLink)];
        let mut r = rng();
        let slow = topo.link_delay(0, 1, 0, 1, Instant::EPOCH, &hooks, &mut r);
        assert_eq!(
            slow,
            topo.one_way(0, 1)
                .saturating_add(Duration::from_millis(500))
        );
        let untouched = topo.link_delay(1, 0, 0, 1, Instant::EPOCH, &hooks, &mut r);
        assert_eq!(untouched, topo.one_way(1, 0));
    }

    #[test]
    fn geo_network_maps_nodes_to_regions() {
        let mut net = GeoNetwork::new(GeoTopology::aws_5region());
        net.assign(NodeId::new(0), 0).assign(NodeId::new(1), 2);
        let mut topo_only = net.topology().clone();
        topo_only.jitter = 0.0;
        let expected = topo_only.one_way(0, 2);
        let mut zeroed = GeoNetwork::new(topo_only);
        zeroed.assign(NodeId::new(0), 0).assign(NodeId::new(1), 2);
        let mut r = rng();
        let d = zeroed.delay(NodeId::new(0), NodeId::new(1), 0, 1, Instant::EPOCH, &mut r);
        assert_eq!(d, expected);
    }

    #[test]
    fn datasets_resolve_by_name() {
        assert_eq!(
            GeoTopology::dataset("aws_5region").map(|t| t.region_count()),
            Some(5)
        );
        assert_eq!(
            GeoTopology::dataset("aws_10region").map(|t| t.region_count()),
            Some(10)
        );
        assert!(GeoTopology::dataset("nope").is_none());
    }
}
