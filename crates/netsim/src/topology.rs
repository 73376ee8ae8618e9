//! Network topologies: trees of nodes with per-link profiles.
//!
//! Topologies are trees rooted at the provider (node 0). Each non-root
//! node has exactly one uplink toward the provider, so a link is
//! identified by the node at its lower end. To keep a million-leaf
//! fleet cheap, leaf links are not stored individually: every link
//! references a shared *class* ([`LinkProfile`]) and per-link traffic
//! accounting aggregates per class in the [`MessageBus`].
//!
//! [`MessageBus`]: crate::bus::MessageBus

use crate::LinkConfig;
use std::time::Duration;

/// A node's identity inside one topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// The service provider (always node 0, the tree root).
    Provider,
    /// An aggregation hub between clients and the provider.
    Hub,
    /// A client machine.
    Client,
}

/// A scripted outage: the link drops everything departing inside
/// `[from, until)`, then heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Outage start (inclusive).
    pub from: Duration,
    /// Outage end (exclusive).
    pub until: Duration,
}

/// Per-link behavior: the delay model plus loss, reordering, and
/// scripted partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkProfile {
    /// Latency / jitter / bandwidth, as in the flat [`Link`] model.
    ///
    /// [`Link`]: crate::Link
    pub config: LinkConfig,
    /// Per-message loss probability in parts-per-million.
    pub loss_ppm: u32,
    /// Fraction of messages (ppm) that take an extra uniform delay in
    /// `[0, reorder_window]`, letting later sends overtake them.
    pub reorder_ppm: u32,
    /// Maximum extra delay for a reordered message.
    pub reorder_window: Duration,
    /// Scripted partition/heal windows, in ascending order.
    pub partitions: Vec<PartitionWindow>,
}

impl LinkProfile {
    /// A clean (lossless, in-order, never-partitioned) profile over
    /// the given delay model.
    pub fn clean(config: LinkConfig) -> LinkProfile {
        LinkProfile {
            config,
            loss_ppm: 0,
            reorder_ppm: 0,
            reorder_window: Duration::ZERO,
            partitions: Vec::new(),
        }
    }

    /// Sets the loss probability (parts-per-million).
    pub fn with_loss_ppm(mut self, ppm: u32) -> LinkProfile {
        self.loss_ppm = ppm;
        self
    }

    /// Sets the reorder fraction (ppm) and window.
    pub fn with_reorder(mut self, ppm: u32, window: Duration) -> LinkProfile {
        self.reorder_ppm = ppm;
        self.reorder_window = window;
        self
    }

    /// Adds a scripted partition window.
    pub fn with_partition(mut self, from: Duration, until: Duration) -> LinkProfile {
        self.partitions.push(PartitionWindow { from, until });
        self
    }

    /// True when a message departing at `at` hits a partition window.
    pub fn is_partitioned(&self, at: Duration) -> bool {
        self.partitions.iter().any(|w| at >= w.from && at < w.until)
    }
}

/// A tree topology rooted at the provider.
#[derive(Debug, Clone)]
pub struct Topology {
    roles: Vec<NodeRole>,
    /// Parent node id per node; the provider points at itself.
    uplink: Vec<u32>,
    /// Class index of each node's uplink link (unused for the root).
    class_of: Vec<u16>,
    classes: Vec<(String, LinkProfile)>,
}

impl Topology {
    /// A star: every client hangs directly off the provider over the
    /// `leaf` profile.
    pub fn star(clients: u32, leaf: LinkProfile) -> Topology {
        let mut t = Topology {
            roles: vec![NodeRole::Provider],
            uplink: vec![0],
            class_of: vec![0],
            classes: vec![("leaf".to_string(), leaf)],
        };
        for _ in 0..clients {
            t.roles.push(NodeRole::Client);
            t.uplink.push(0);
            t.class_of.push(0);
        }
        t
    }

    /// A two-tier star-of-stars: `hubs` hubs on the `core` profile,
    /// each serving `clients_per_hub` clients on the `leaf` profile.
    pub fn two_tier(
        hubs: u32,
        clients_per_hub: u32,
        core: LinkProfile,
        leaf: LinkProfile,
    ) -> Topology {
        let mut t = Topology {
            roles: vec![NodeRole::Provider],
            uplink: vec![0],
            class_of: vec![0],
            classes: vec![("core".to_string(), core), ("leaf".to_string(), leaf)],
        };
        for h in 0..hubs {
            let hub_id = t.roles.len() as u32;
            t.roles.push(NodeRole::Hub);
            t.uplink.push(0);
            t.class_of.push(0);
            let _ = h;
            for _ in 0..clients_per_hub {
                t.roles.push(NodeRole::Client);
                t.uplink.push(hub_id);
                t.class_of.push(1);
            }
        }
        t
    }

    /// A generated hub fan-out: `clients` clients spread over `hubs`
    /// hubs with a seeded RNG choosing each client's hub and leaf
    /// class from `leaf_classes`. Hub uplinks use `core`.
    pub fn generated(
        seed: u64,
        hubs: u32,
        clients: u32,
        core: LinkProfile,
        leaf_classes: &[(&str, LinkProfile)],
    ) -> Topology {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        assert!(hubs > 0, "generated topology needs at least one hub");
        assert!(!leaf_classes.is_empty(), "need at least one leaf class");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x544f_504f_u64);
        let mut classes = vec![("core".to_string(), core)];
        for (name, profile) in leaf_classes {
            classes.push((name.to_string(), profile.clone()));
        }
        let mut t = Topology {
            roles: vec![NodeRole::Provider],
            uplink: vec![0],
            class_of: vec![0],
            classes,
        };
        for _ in 0..hubs {
            t.roles.push(NodeRole::Hub);
            t.uplink.push(0);
            t.class_of.push(0);
        }
        for _ in 0..clients {
            let hub = 1 + rng.gen_range(0..hubs);
            let class = 1 + rng.gen_range(0..leaf_classes.len() as u32) as u16;
            t.roles.push(NodeRole::Client);
            t.uplink.push(hub);
            t.class_of.push(class);
        }
        t
    }

    /// The provider node (the tree root).
    pub fn provider(&self) -> NodeId {
        NodeId(0)
    }

    /// Total node count (provider + hubs + clients).
    pub fn node_count(&self) -> u32 {
        self.roles.len() as u32
    }

    /// Ids of every client node, in id order.
    pub fn clients(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == NodeRole::Client)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// The role of `node`.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.roles[node.0 as usize]
    }

    /// The parent of `node` (the root returns itself).
    pub fn parent(&self, node: NodeId) -> NodeId {
        NodeId(self.uplink[node.0 as usize])
    }

    /// The link classes, in index order.
    pub fn classes(&self) -> &[(String, LinkProfile)] {
        &self.classes
    }

    /// The class index of `node`'s uplink link.
    pub fn uplink_class(&self, node: NodeId) -> u16 {
        self.class_of[node.0 as usize]
    }

    /// The hop sequence from `from` to `to`, as the class index of
    /// every link traversed (each hop is some node's uplink): up from
    /// `from` to the lowest common ancestor, then down to `to`. Walks
    /// both uplink chains (at most two links each) into fixed arrays
    /// and drops their shared tail, so a route costs no heap
    /// allocation.
    pub fn route(&self, from: NodeId, to: NodeId) -> Route {
        let (up, mut up_len) = self.chain(from);
        let (down, mut down_len) = self.chain(to);
        // Trim the common tail (hops above the lowest common ancestor).
        while up_len > 0 && down_len > 0 && up[up_len - 1] == down[down_len - 1] {
            up_len -= 1;
            down_len -= 1;
        }
        let mut route = Route {
            hops: [0; MAX_DEPTH * 2],
            len: 0,
        };
        let downward = down[..down_len].iter().rev();
        for &n in up[..up_len].iter().chain(downward) {
            route.hops[route.len as usize] = self.class_of[n as usize];
            route.len += 1;
        }
        route
    }

    /// The nodes on `node`'s uplink chain, `node` first, the provider
    /// excluded. Panics on a tree deeper than `MAX_DEPTH`, which no
    /// constructor builds.
    fn chain(&self, mut node: NodeId) -> ([u32; MAX_DEPTH], usize) {
        let mut nodes = [0; MAX_DEPTH];
        let mut len = 0;
        while node != self.provider() {
            nodes[len] = node.0;
            len += 1;
            node = self.parent(node);
        }
        (nodes, len)
    }
}

/// The deepest any node sits below the provider: every constructor
/// puts clients at depth ≤ 2 (client → hub → provider).
const MAX_DEPTH: usize = 2;

/// A route from [`Topology::route`]: the link class of every hop, at
/// most four (up two links, down two), stored inline so the value is
/// `Copy`. Dereferences to the hop slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    hops: [u16; MAX_DEPTH * 2],
    len: u8,
}

impl std::ops::Deref for Route {
    type Target = [u16];

    fn deref(&self) -> &[u16] {
        &self.hops[..self.len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> LinkProfile {
        LinkProfile::clean(LinkConfig::broadband())
    }

    #[test]
    fn star_routes_one_hop_to_provider() {
        let t = Topology::star(3, leaf());
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.clients().count(), 3);
        let c = NodeId(2);
        assert_eq!(t.role(c), NodeRole::Client);
        assert_eq!(*t.route(c, t.provider()), [0]);
        assert_eq!(*t.route(t.provider(), c), [0]);
    }

    #[test]
    fn two_tier_routes_via_hub() {
        let t = Topology::two_tier(2, 3, LinkProfile::clean(LinkConfig::continental()), leaf());
        assert_eq!(t.node_count(), 1 + 2 + 6);
        let client = NodeId(4); // second client of hub 1
        assert_eq!(t.role(client), NodeRole::Client);
        assert_eq!(t.role(t.parent(client)), NodeRole::Hub);
        // leaf class (1) then core class (0) on the way up.
        assert_eq!(*t.route(client, t.provider()), [1, 0]);
        assert_eq!(*t.route(t.provider(), client), [0, 1]);
    }

    #[test]
    fn two_tier_peer_route_avoids_root_when_shared_hub() {
        let t = Topology::two_tier(2, 2, LinkProfile::clean(LinkConfig::continental()), leaf());
        let (a, b) = (NodeId(2), NodeId(3)); // same hub
        assert_eq!(*t.route(a, b), [1, 1]);
        let c = NodeId(5); // other hub
        assert_eq!(*t.route(a, c), [1, 0, 0, 1]);
    }

    /// The route by the definition: walk both parent chains to the
    /// root, drop their shared tail, read the class of every uplink.
    fn reference_route(t: &Topology, from: NodeId, to: NodeId) -> Vec<u16> {
        let chain = |mut n: NodeId| {
            let mut nodes = Vec::new();
            while n != t.provider() {
                nodes.push(n);
                n = t.parent(n);
            }
            nodes
        };
        let (mut up, mut down) = (chain(from), chain(to));
        while !up.is_empty() && up.last() == down.last() {
            up.pop();
            down.pop();
        }
        down.reverse();
        up.into_iter()
            .chain(down)
            .map(|n| t.uplink_class(n))
            .collect()
    }

    #[test]
    fn route_matches_the_reference_walk_for_every_node_pair() {
        let core = LinkProfile::clean(LinkConfig::continental());
        let classes = [
            ("dsl", leaf()),
            ("lte", LinkProfile::clean(LinkConfig::intercontinental())),
        ];
        let topologies = [
            Topology::star(3, leaf()),
            Topology::two_tier(2, 3, core.clone(), leaf()),
            Topology::generated(5, 3, 12, core, &classes),
        ];
        for t in &topologies {
            for from in 0..t.node_count() {
                for to in 0..t.node_count() {
                    let (from, to) = (NodeId(from), NodeId(to));
                    assert_eq!(
                        *t.route(from, to),
                        *reference_route(t, from, to),
                        "{from:?} -> {to:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn generated_is_deterministic_and_covers_all_clients() {
        let classes = [
            ("dsl", leaf()),
            (
                "lte",
                LinkProfile::clean(LinkConfig::continental()).with_loss_ppm(5_000),
            ),
        ];
        let core = LinkProfile::clean(LinkConfig::fixed_rtt(Duration::from_millis(4)));
        let a = Topology::generated(9, 4, 100, core.clone(), &classes);
        let b = Topology::generated(9, 4, 100, core.clone(), &classes);
        assert_eq!(a.uplink, b.uplink, "same seed, same fan-out");
        assert_eq!(a.class_of, b.class_of);
        let c = Topology::generated(10, 4, 100, core, &classes);
        assert_ne!(a.class_of, c.class_of, "different seed, different draw");
        assert_eq!(a.clients().count(), 100);
        for client in a.clients() {
            assert!(matches!(a.role(a.parent(client)), NodeRole::Hub));
            assert!(a.uplink_class(client) >= 1);
        }
    }

    #[test]
    fn partition_windows_cover_half_open_ranges() {
        let p = LinkProfile::clean(LinkConfig::broadband())
            .with_partition(Duration::from_secs(2), Duration::from_secs(3));
        assert!(!p.is_partitioned(Duration::from_secs(1)));
        assert!(p.is_partitioned(Duration::from_secs(2)));
        assert!(p.is_partitioned(Duration::from_millis(2_999)));
        assert!(!p.is_partitioned(Duration::from_secs(3)));
    }
}
