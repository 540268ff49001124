//! Dragonfly topology: fully-connected groups joined by global links.
//!
//! The canonical parameterization (Kim/Dally/Scott/Abts) is `(a, p, h)`:
//! `a` routers per group, `p` terminals per router, `h` global links per
//! router. A *balanced* dragonfly has `g = a·h + 1` groups so that every
//! pair of groups is joined by exactly one global link. Smaller machines
//! keep the same shape with a `groups` override (`2 ≤ g ≤ a·h + 1`); the
//! global ports left unused by a smaller group count simply stay free and
//! serve as extra terminal ports.
//!
//! Global wiring uses a relative-offset scheme: endpoint `e ∈ 0..g-1` of
//! group `G` reaches group `(G + e + 1) mod g`, and the matching endpoint
//! on the far side is `g - e - 2 mod g`. Endpoint `e` lives on router
//! `e / h` of its group, so each router carries at most `h` global links.
//! Every group pair is joined by exactly one global link, which is what the
//! group-minimal routing in `crate::routing` relies on.

use super::{NodeId, Topology, TopologyError};

/// Parameters of a dragonfly fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dragonfly {
    /// Routers per group (`a`), fully connected inside the group.
    pub routers_per_group: u16,
    /// Terminal (NI) ports per router (`p`).
    pub terminals_per_router: u16,
    /// Global links per router (`h`).
    pub globals_per_router: u16,
    /// Number of groups (`g`); `a·h + 1` when balanced.
    pub groups: u16,
}

impl Dragonfly {
    /// The balanced dragonfly: `g = a·h + 1` groups.
    ///
    /// # Panics
    ///
    /// Panics if any of `a`, `p`, `h` is zero or the shape overflows the
    /// node/port budget.
    pub fn balanced(a: u16, p: u16, h: u16) -> Self {
        Dragonfly::with_groups(a, p, h, a * h + 1)
    }

    /// A dragonfly with an explicit group count `2 ≤ g ≤ a·h + 1`.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is zero, the group count is out of range, or
    /// the shape overflows the node/port budget.
    pub fn with_groups(a: u16, p: u16, h: u16, groups: u16) -> Self {
        assert!(a > 0 && p > 0 && h > 0, "dragonfly parameters must be positive");
        assert!(groups >= 2, "a dragonfly needs at least two groups");
        assert!(
            u32::from(groups) - 1 <= u32::from(a) * u32::from(h),
            "group count {groups} exceeds the a*h+1 global-link budget"
        );
        let shape = Dragonfly {
            routers_per_group: a,
            terminals_per_router: p,
            globals_per_router: h,
            groups,
        };
        assert!(shape.nodes() <= usize::from(u16::MAX) + 1, "node ids are u16");
        assert!(
            usize::from(a - 1) + usize::from(h) + usize::from(p) <= usize::from(u8::MAX),
            "dragonfly port count overflows the u8 port id"
        );
        shape
    }

    /// Total router count `g · a`.
    pub fn nodes(&self) -> usize {
        usize::from(self.groups) * usize::from(self.routers_per_group)
    }

    /// Ports per router: `a - 1` local + `h` global + `p` terminal.
    pub fn ports_per_node(&self) -> u8 {
        (self.routers_per_group - 1 + self.globals_per_router + self.terminals_per_router) as u8
    }

    /// The group a router belongs to.
    pub fn group_of(&self, node: NodeId) -> usize {
        node.index() / usize::from(self.routers_per_group)
    }

    /// Router `slot` within `group`.
    pub fn router(&self, group: usize, slot: usize) -> NodeId {
        NodeId((group * usize::from(self.routers_per_group) + slot) as u16)
    }

    /// Intra-group (local) link count: `g · a(a-1)/2`.
    pub fn local_links(&self) -> usize {
        let a = usize::from(self.routers_per_group);
        usize::from(self.groups) * a * (a - 1) / 2
    }

    /// Global link count: one per group pair, `g(g-1)/2`.
    pub fn global_links(&self) -> usize {
        let g = usize::from(self.groups);
        g * (g - 1) / 2
    }

    /// Closed-form diameter bound: local, global, local.
    pub fn diameter_bound(&self) -> usize {
        if self.groups > 1 {
            3
        } else {
            1
        }
    }

    /// The routers carrying the single global link between two distinct
    /// groups, as `(router in ga, router in gb)`.
    ///
    /// Inverse of the wiring scheme: the relative offset from `ga` to `gb`
    /// is `e + 1`, so the endpoint index is `e = (gb - ga - 1) mod g` and
    /// the far endpoint is `g - e - 2 mod g`.
    pub fn global_endpoints(&self, ga: usize, gb: usize) -> (NodeId, NodeId) {
        let g = usize::from(self.groups);
        let h = usize::from(self.globals_per_router);
        debug_assert!(ga != gb && ga < g && gb < g);
        let e = (gb + g - ga - 1) % g;
        let e_far = (g + g - e - 2) % g;
        (self.router(ga, e / h), self.router(gb, e_far / h))
    }

    /// Wires the dragonfly. Local links first (so each router's low ports
    /// are intra-group), then global links, leaving terminal ports free.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the wiring plan asks for a duplicate
    /// or over-budget link; unreachable for valid parameters. Returns
    /// [`TopologyError::TooManyPorts`] if a router would need more ports
    /// than a router supports (`a + h + p - 1 > 64`).
    pub fn build(&self) -> Result<Topology, TopologyError> {
        let a = usize::from(self.routers_per_group);
        let g = usize::from(self.groups);
        let mut t = Topology::try_new(self.nodes(), usize::from(self.ports_per_node()))?;
        // Fully-connected groups.
        for group in 0..g {
            for i in 0..a {
                for j in (i + 1)..a {
                    t.connect_next_free(self.router(group, i), self.router(group, j))?;
                }
            }
        }
        // One global link per group pair, each wired once from the
        // lower-numbered group.
        for ga in 0..g {
            for gb in (ga + 1)..g {
                let (na, nb) = self.global_endpoints(ga, gb);
                t.connect_next_free(na, nb)?;
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_shape_counts() {
        let d = Dragonfly::balanced(4, 1, 1);
        assert_eq!(d.groups, 5);
        assert_eq!(d.nodes(), 20);
        let t = d.build().expect("wires fit");
        assert!(t.is_connected());
        assert_eq!(t.wires().len(), d.local_links() + d.global_links());
        // Every router: a-1 = 3 local + 1 global = degree 4, one NI port.
        for n in 0..20 {
            assert_eq!(t.degree(NodeId(n)), 4);
            assert!(t.terminal_port(NodeId(n)).is_some());
        }
    }

    #[test]
    fn endpoints_agree_with_wiring() {
        let d = Dragonfly::balanced(4, 1, 2);
        let t = d.build().expect("wires fit");
        for ga in 0..usize::from(d.groups) {
            for gb in 0..usize::from(d.groups) {
                if ga == gb {
                    continue;
                }
                let (na, nb) = d.global_endpoints(ga, gb);
                assert_eq!(d.group_of(na), ga);
                assert_eq!(d.group_of(nb), gb);
                assert!(t.linked(na, nb), "groups {ga},{gb}");
                let (nb2, na2) = d.global_endpoints(gb, ga);
                assert_eq!((na, nb), (na2, nb2), "endpoint lookup is symmetric");
            }
        }
    }

    #[test]
    fn reduced_group_count_builds() {
        let d = Dragonfly::with_groups(16, 1, 1, 16);
        assert_eq!(d.nodes(), 256);
        let t = d.build().expect("wires fit");
        assert!(t.is_connected());
        assert_eq!(t.wires().len(), d.local_links() + d.global_links());
    }
}
