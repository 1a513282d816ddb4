"""Fat-tree interconnect topology (NUMALink-4-like).

The paper: "The interconnect is built using a fat-tree structure, where
each non-leaf router has eight children."  Nodes (each holding two CPUs
and one hub) hang off leaf routers, eight per router; routers aggregate
eight-fold per level until a single root spans the machine.

Hop counting: node→router and router→router links are one hop each, so
two nodes under the same leaf router are 2 hops apart, under the same
level-1 router 4 hops, and so on — giving the 100-cycle-per-hop latencies
their distance structure.  Hops are computed on demand from the node ids
(two nodes share their level-``k`` router iff ``node // radix**(k+1)``
matches), so a topology is a few ints and no distance table;
:class:`~repro.network.fabric.Network` memoizes the pairs it routes.

:meth:`FatTreeTopology.as_graph` exposes the tree as a :mod:`networkx`
graph for analysis and tests; networkx is imported only there.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx


class FatTreeTopology:
    """Radix-``r`` fat tree over ``n_nodes`` endpoints.

    Parameters
    ----------
    n_nodes:
        Number of hub endpoints (machine nodes, not CPUs).
    radix:
        Children per router (8 for NUMALink-4).

    Examples
    --------
    >>> t = FatTreeTopology(128, radix=8)
    >>> t.n_levels                      # 16 leaf routers, 2 mid, 1 root
    3
    >>> t.hops(0, 1)                    # same leaf router
    2
    >>> t.hops(0, 127)                  # across the root
    6
    """

    __slots__ = ("n_nodes", "radix", "routers_per_level")

    def __init__(self, n_nodes: int, radix: int = 8) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if radix < 2:
            raise ValueError("radix must be at least 2")
        self.n_nodes = n_nodes
        self.radix = radix
        # router counts per level, bottom-up
        self.routers_per_level: list[int] = []
        count = n_nodes
        while True:
            count = math.ceil(count / radix)
            self.routers_per_level.append(count)
            if count == 1:
                break

    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Number of router levels (1 = a single leaf/root router)."""
        return len(self.routers_per_level)

    @property
    def diameter_hops(self) -> int:
        """Longest node-to-node distance in hops."""
        return 2 * self.n_levels if self.n_nodes > 1 else 0

    def router_of(self, node: int, level: int) -> int:
        """Index of the level-``level`` ancestor router of ``node``."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range")
        return node // (self.radix ** (level + 1))

    def hops(self, src: int, dst: int) -> int:
        """Hop count between two nodes (0 when src == dst: on-die).

        ``2 * k`` for the first ``k`` at which ``src // radix**k`` and
        ``dst // radix**k`` agree, i.e. up to their lowest common router
        at level ``k - 1`` and back down.
        """
        if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
            raise ValueError(f"nodes out of range: {src}, {dst}")
        radix = self.radix
        hops = 0
        while src != dst:
            src //= radix
            dst //= radix
            hops += 2
        return hops

    # ------------------------------------------------------------------
    def as_graph(self) -> nx.Graph:
        """The topology as a networkx graph (nodes: ``("node", i)`` /
        ``("router", level, j)``) for analysis and visualization."""
        import networkx as nx

        g = nx.Graph()
        for i in range(self.n_nodes):
            g.add_node(("node", i))
            g.add_edge(("node", i), ("router", 0, self.router_of(i, 0)))
        for level in range(1, self.n_levels):
            for j in range(self.routers_per_level[level - 1]):
                g.add_edge(("router", level - 1, j),
                           ("router", level, j // self.radix))
        return g

    def average_hops(self) -> float:
        """Mean hop distance over all ordered distinct pairs."""
        n = self.n_nodes
        if n == 1:
            return 0.0
        # same_k: ordered distinct pairs under one level-(k-1) router
        # (blocks of radix**k nodes, the last one possibly short); the
        # pairs first joined at that level are 2*k hops apart
        total = same_prev = 0
        for k in range(1, self.n_levels + 1):
            block = self.radix ** k
            full, rest = divmod(n, block)
            same_k = full * block * (block - 1) + rest * (rest - 1)
            total += 2 * k * (same_k - same_prev)
            same_prev = same_k
        return total / (n * (n - 1))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"FatTreeTopology(n_nodes={self.n_nodes}, radix={self.radix}, "
                f"levels={self.n_levels})")

    def path_links(self, src: int, dst: int) -> list[tuple]:
        """Directed links traversed from ``src`` to ``dst``, in order.

        Link identifiers:

        * ``("node-up", node)`` / ``("node-down", node)`` — endpoint
          links between a node and its leaf router;
        * ``("up", level, router)`` — from the level-``level`` router
          ``router`` to its parent;
        * ``("down", level, router)`` — from the parent of the
          level-``level`` router ``router`` down into it.

        Used by the router-contention model to reserve every link on the
        path; two flows contend exactly where their paths share a
        directed link.
        """
        if src == dst:
            return []
        if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
            raise ValueError(f"nodes out of range: {src}, {dst}")
        lca = next(lvl for lvl in range(self.n_levels)
                   if self.router_of(src, lvl) == self.router_of(dst, lvl))
        links: list[tuple] = [("node-up", src)]
        # ascend from src's leaf router to (but excluding) the LCA router
        for lvl in range(lca):
            links.append(("up", lvl, self.router_of(src, lvl)))
        # descend from the LCA into dst's leaf router
        for lvl in range(lca - 1, -1, -1):
            links.append(("down", lvl, self.router_of(dst, lvl)))
        links.append(("node-down", dst))
        return links
