"""Frustration analysis of signed correlation networks and decorated implication graphs.

A signed graph records perfect correlations (solid, ``+1``) and perfect
anti-correlations (dashed, ``-1``) between binary observables.  The graph is
frustrated when some cycle carries an odd number of dashed edges, which rules
out any global deterministic valuation.  Directed graphs with decorated arcs
encode one-way implications ``X_u = x  =>  X_v = x`` (solid) or ``x XOR 1``
(dashed); chains of such implications are propagated together with their
contrapositives.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

SOLID = 1
DASHED = -1

_SIGN_CHARS = {"+": SOLID, "-": DASHED, "solid": SOLID, "dashed": DASHED, 1: SOLID, -1: DASHED}
_STYLE_CHARS = {"+": "solid", "-": "dashed", "solid": "solid", "dashed": "dashed"}


def _as_sign(value) -> int:
    try:
        return _SIGN_CHARS[value]
    except (KeyError, TypeError):
        raise ValueError(f"edge sign must be one of +1/-1/'+'/'-', got {value!r}") from None


def _as_style(value) -> str:
    try:
        return _STYLE_CHARS[value]
    except (KeyError, TypeError):
        raise ValueError(f"arc style must be one of '+'/'-'/'solid'/'dashed', got {value!r}") from None


def _json_int(value, what: str) -> int:
    """An integer field of a graph document; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SignedGraph:
    """Simple undirected graph with +-1 edge signs; nodes are 1..n_nodes."""

    n_nodes: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("graph needs at least one node")
        seen = set()
        canon = []
        for u, v, s in self.edges:
            s = _as_sign(s)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (1 <= u <= self.n_nodes and 1 <= v <= self.n_nodes):
                raise ValueError(f"edge ({u},{v}) outside node range 1..{self.n_nodes}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"parallel edge between {key[0]} and {key[1]}")
            seen.add(key)
            canon.append((key[0], key[1], s))
        object.__setattr__(self, "edges", tuple(canon))

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """Signed neighbours of every node that has an edge; isolated nodes are absent."""
        return _adjacency(self.edges)

    def to_json_dict(self) -> dict:
        return {
            "nodes": self.n_nodes,
            "edges": [[u, v, "+" if s == SOLID else "-"] for u, v, s in self.edges],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SignedGraph":
        edges = tuple(
            (_json_int(u, "edge endpoint"), _json_int(v, "edge endpoint"), _as_sign(s))
            for u, v, s in doc["edges"]
        )
        return cls(_json_int(doc.get("nodes"), "node count"), edges)


def cycle_graph(signs: Sequence[int]) -> SignedGraph:
    """The n-cycle 1-2-...-n-1 with the given edge signs (edge a joins a and a+1)."""
    n = len(signs)
    if n < 3:
        raise ValueError("a cycle needs at least three nodes")
    edges = tuple((a, a % n + 1, _as_sign(s)) for a, s in zip(range(1, n + 1), signs))
    return SignedGraph(n, edges)


@dataclass
class FrustrationReport:
    """``witness`` is an odd cycle of a frustrated graph; ``valuation`` of an
    unfrustrated one maps each node that has an edge to its bit, each
    component's root at 0, and satisfies every edge.  Isolated nodes are left
    out, so the report costs memory per edge, not per node."""

    frustrated: bool
    witness: tuple[int, ...] = ()
    valuation: dict[int, int] = field(default_factory=dict)

    def __bool__(self) -> bool:  # allows `if is_frustrated(g):`
        return self.frustrated


def _adjacency(edges: Iterable[tuple[int, int, int]]) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, s in edges:
        adj.setdefault(u, []).append((v, s))
        adj.setdefault(v, []).append((u, s))
    return adj


def is_frustrated(g: SignedGraph) -> FrustrationReport:
    """BFS two-coloring on the sign structure; the witness is one odd cycle."""
    return two_coloring(g.edges)


def two_coloring(edges: Iterable[tuple[int, int, int]]) -> FrustrationReport:
    """``is_frustrated`` on the edges (u, v, sign) of a simple graph, u != v and
    sign SOLID or DASHED, which the caller has checked.

    Nodes get parity labels relative to their BFS root; a co-tree edge whose
    sign disagrees with the endpoint parities closes an odd cycle, recovered
    from the two tree paths plus the offending edge.  Without one, the
    parities are a valuation that satisfies every edge.
    """
    adj = _adjacency(edges)
    parity: dict[int, int] = {}
    parent: dict[int, Optional[int]] = {}
    # Isolated nodes close no cycle, so only nodes with edges are roots.
    for root in sorted(adj):
        if root in parity:
            continue
        parity[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in adj[u]:
                flip = 1 if s == DASHED else 0
                if v not in parity:
                    parity[v] = parity[u] ^ flip
                    parent[v] = u
                    queue.append(v)
                elif parity[v] != parity[u] ^ flip:
                    return FrustrationReport(True, _tree_cycle(parent, u, v))
    return FrustrationReport(False, valuation=parity)


def _tree_cycle(parent: Mapping[int, Optional[int]], u: int, v: int) -> tuple[int, ...]:
    def path_to_root(x):
        out = [x]
        while parent[x] is not None:
            x = parent[x]
            out.append(x)
        return out

    pu, pv = path_to_root(u), path_to_root(v)
    su = set(pu)
    meet = next(x for x in pv if x in su)
    cycle = pu[: pu.index(meet) + 1] + pv[: pv.index(meet)][::-1]
    return tuple(cycle)


def gauge_transform(g: SignedGraph, flip_set: Iterable[int]) -> SignedGraph:
    """Relabel outcomes at the given nodes: edges with one flipped endpoint change sign."""
    flips = set(flip_set)
    unknown = flips - set(range(1, g.n_nodes + 1))
    if unknown:
        raise ValueError(f"flip set contains unknown nodes {sorted(unknown)}")
    edges = tuple(
        (u, v, -s if (u in flips) ^ (v in flips) else s) for u, v, s in g.edges
    )
    return SignedGraph(g.n_nodes, edges)


@dataclass
class CycleClassReport:
    n_nodes: int
    frustrated_patterns: int
    unfrustrated_patterns: int
    n_classes: int
    canonical: SignedGraph


def enumerate_frustrated_cycles(n: int) -> CycleClassReport:
    """Partition all 2^n sign patterns on the n-cycle into gauge classes.

    Exactly two classes exist: odd dashed-edge parity (frustrated) and even
    parity (unfrustrated).  The canonical frustrated representative is the
    all-dashed cycle for odd n and the single-dashed cycle for even n.
    """
    if not 3 <= n <= 12:
        raise ValueError("supported cycle sizes are 3..12")
    frustrated = []
    unfrustrated = []
    for pattern in itertools.product((SOLID, DASHED), repeat=n):
        (frustrated if pattern.count(DASHED) % 2 else unfrustrated).append(pattern)
    # Gauge orbits: grow the orbit of one representative per parity and check
    # it exhausts that parity class.
    for bucket in (frustrated, unfrustrated):
        orbit = {bucket[0]}
        frontier = [bucket[0]]
        while frontier:
            pat = frontier.pop()
            g = cycle_graph(pat)
            for v in range(1, n + 1):
                sig = tuple(s for _, _, s in gauge_transform(g, {v}).edges)
                if sig not in orbit:
                    orbit.add(sig)
                    frontier.append(sig)
        if orbit != set(bucket):
            raise AssertionError("gauge orbit does not exhaust a parity class")
    if n % 2:
        canonical = cycle_graph([DASHED] * n)
    else:
        canonical = cycle_graph([DASHED] + [SOLID] * (n - 1))
    return CycleClassReport(n, len(frustrated), len(unfrustrated), 2, canonical)


# --------------------------------------------------------------------------
# Directed implication graphs


@dataclass(frozen=True)
class Arc:
    """Implication ``X_source = base  =>  X_target = base`` (solid) or ``1-base`` (dashed)."""

    source: int
    target: int
    base: int
    style: str

    def __post_init__(self):
        if self.base not in (0, 1):
            raise ValueError("arc base value must be 0 or 1")
        if self.style not in ("solid", "dashed"):
            raise ValueError("arc style must be 'solid' or 'dashed'")

    @property
    def consequent(self) -> int:
        return self.base if self.style == "solid" else 1 - self.base

    def reversed(self) -> "Arc":
        """Contrapositive form: X_target = 1-consequent => X_source = 1-base.

        The style is preserved; the decorating value flips for solid arcs and
        stays for dashed arcs (1-consequent equals the original base exactly
        when the arc is dashed).
        """
        return Arc(self.target, self.source, 1 - self.consequent, self.style)


@dataclass(frozen=True)
class DirectedImplicationGraph:
    n_nodes: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        arcs = tuple(
            a if isinstance(a, Arc) else Arc(a[0], a[1], int(a[2]), _as_style(a[3]))
            for a in self.arcs
        )
        for a in arcs:
            if not (1 <= a.source <= self.n_nodes and 1 <= a.target <= self.n_nodes):
                raise ValueError(f"arc {a} outside node range")
            if a.source == a.target:
                raise ValueError("self-implications are not allowed")
        object.__setattr__(self, "arcs", arcs)

    def to_json_dict(self) -> dict:
        return {
            "nodes": self.n_nodes,
            "edges": [
                [a.source, a.target, a.base, "+" if a.style == "solid" else "-"]
                for a in self.arcs
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "DirectedImplicationGraph":
        arcs = tuple(
            Arc(_json_int(u, "arc endpoint"), _json_int(v, "arc endpoint"),
                _json_int(x, "arc base"), _as_style(s))
            for u, v, x, s in doc["edges"]
        )
        return cls(_json_int(doc.get("nodes"), "node count"), arcs)


@dataclass
class ChainReport:
    contradiction: bool
    derived: dict[int, set[int]] = field(default_factory=dict)
    trace: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.contradiction


def check_implication_chain(
    g: DirectedImplicationGraph, start_node: int, start_value: int
) -> ChainReport:
    """Propagate a starting value through arcs, reversing them where needed.

    A first pass follows arcs in their drawn direction only, so a chain such
    as a frustrated directed cycle reports its contradiction where the chain
    closes on its antecedent.  If that pass is contradiction-free, a second
    pass adds the contrapositive of every arc and recomputes the closure, so
    graphs with reversed arrows are still handled.  A contradiction is a node
    deriving both 0 and 1.
    """
    if start_value not in (0, 1):
        raise ValueError("start value must be 0 or 1")
    if not 1 <= start_node <= g.n_nodes:
        raise ValueError(f"start node {start_node} is outside the nodes 1..{g.n_nodes}")
    forward: dict[tuple[int, int], list[tuple[int, int]]] = {}
    full: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for arc in g.arcs:
        forward.setdefault((arc.source, arc.base), []).append((arc.target, arc.consequent))
        for a in (arc, arc.reversed()):
            full.setdefault((a.source, a.base), []).append((a.target, a.consequent))
    start = (start_node, start_value)
    if start not in full:
        raise ValueError(
            f"start value X_{start_node}={start_value} is incompatible with every outgoing arc"
        )
    report = _propagate(forward, start)
    if report.contradiction:
        return report
    return _propagate(full, start)


def _propagate(
    succ: Mapping[tuple[int, int], list[tuple[int, int]]], start: tuple[int, int]
) -> ChainReport:
    derived: dict[int, set[int]] = {start[0]: {start[1]}}
    trace = [f"X_{start[0]}={start[1]}"]
    queue = deque([start])
    seen = {start}
    contradiction = False
    while queue and not contradiction:
        lit = queue.popleft()
        for node, value in succ.get(lit, ()):
            trace.append(f"X_{lit[0]}={lit[1]} => X_{node}={value}")
            values = derived.setdefault(node, set())
            if (1 - value) in values:
                values.add(value)
                trace.append(f"X_{node}={value} denies X_{node}={1 - value}")
                contradiction = True
                break
            values.add(value)
            nxt = (node, value)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return ChainReport(contradiction, derived, trace)


def chained_cycle(styles: Sequence[str], start_base: int = 1) -> DirectedImplicationGraph:
    """Directed n-cycle whose arcs chain: each consequent feeds the next base.

    The cycle closes consistently if the dashed-arc count is even; with odd
    parity the last consequent denies the first base, which is the frustrated
    (transitivity-violating) configuration.
    """
    n = len(styles)
    if n < 3:
        raise ValueError("a cycle needs at least three arcs")
    arcs = []
    base = start_base
    for a, style in enumerate(styles, start=1):
        style = _as_style(style)
        arc = Arc(a, a % n + 1, base, style)
        arcs.append(arc)
        base = arc.consequent
    return DirectedImplicationGraph(n, tuple(arcs))
