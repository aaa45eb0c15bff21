"""Independent oracles for the transport cost.

``transport_cost_by_vertex_enumeration`` enumerates every basic feasible
solution of the balanced transport polytope (spanning trees of the
bipartite supply/demand graph, solved by leaf elimination) and takes the
cheapest feasible one.  Shares nothing with the successive-shortest-path
solver except the definition of the balanced problem, so agreement between
the two is a real check.

``tree_norm`` reads the norm and a norming potential of a functional on a
subset of a weighted tree off the tree's edges, in time linear in the tree,
with no solver at all.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Tuple

from .metric import FiniteMetricSpace, Functional
from .numerics import coerce, left_sum
from .transport import _balanced_sides


def transport_cost_by_vertex_enumeration(phi: Functional, space: FiniteMetricSpace):
    """Minimum transport cost of phi via exhaustive vertex enumeration.

    Intended for tiny instances only: the number of candidate bases is
    C(#sources * #sinks, #sources + #sinks - 1).
    """
    zero = coerce(0, space.exact)
    if phi.is_zero():
        return zero
    sources, sinks = _balanced_sides(phi, space)
    src = sorted(sources)
    snk = sorted(sinks)
    edges = [(s, t) for s in src for t in snk]
    nodes = src + snk
    tree_size = len(nodes) - 1

    balance = {}
    for s in src:
        balance[("src", s)] = sources[s]
    for t in snk:
        balance[("snk", t)] = -sinks[t]

    best = None
    for tree in itertools.combinations(edges, tree_size):
        # Acyclic + connected on len(nodes) vertices == spanning tree.
        parent = {("src", s): ("src", s) for s in src}
        parent.update({("snk", t): ("snk", t) for t in snk})

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        ok = True
        for s, t in tree:
            a, b = find(("src", s)), find(("snk", t))
            if a == b:
                ok = False
                break
            parent[a] = b
        if not ok:
            continue

        # Solve the unique flow by stripping leaves.
        adj: Dict[Tuple[str, int], List[Tuple[str, int]]] = {v: [] for v in parent}
        for s, t in tree:
            adj[("src", s)].append(("snk", t))
            adj[("snk", t)].append(("src", s))
        need = dict(balance)
        degree = {v: len(e) for v, e in adj.items()}
        removed = set()
        flow: Dict[Tuple[int, int], object] = {}
        order = [v for v in adj if degree[v] == 1]
        feasible = True
        while order:
            leaf = order.pop()
            if leaf in removed:
                continue
            removed.add(leaf)
            nbrs = [u for u in adj[leaf] if u not in removed]
            if not nbrs:
                if need[leaf] != 0:
                    feasible = False
                    break
                continue
            u = nbrs[0]
            amount = need[leaf]
            # Arc orientation is always source -> sink.
            if leaf[0] == "src":
                f = amount
                flow[(leaf[1], u[1])] = flow.get((leaf[1], u[1]), zero) + f
            else:
                f = -amount
                flow[(u[1], leaf[1])] = flow.get((u[1], leaf[1]), zero) + f
            need[u] += amount
            need[leaf] = zero
            degree[u] -= 1
            if degree[u] == 1:
                order.append(u)
        if not feasible:
            continue
        if any(f < 0 for f in flow.values()):
            continue
        cost = left_sum((f * space.d(s, t) for (s, t), f in flow.items()), zero)
        if best is None or cost < best:
            best = cost
    return best


def tree_norm(phi: Functional, tree):
    """Godard's formula: the norm of phi on points of a weighted tree, and
    the closed-form potential that norms it.

    ``tree`` is ``(parent, weight, vertex)`` as ``instances.tree_space``
    returns it.  Rooted at the base point's vertex, each edge e carries the
    mass m_e of phi below it, and ||phi|| = sum_e w_e |m_e| (A. Godard,
    "Tree metrics and their Lipschitz-free spaces", Proc. AMS 138 (2010)).
    The potential f(v) = sum of w_e sign(m_e) over the edges from the base
    to v is 1-Lipschitz on the tree, vanishes at the base, and pairs with
    phi to the norm.  Returns ``(norm, values)``, ``values[i]`` = f at point i.
    """
    parent, weight, vertex = tree
    near = [[] for _ in parent]  # (neighbour, weight of the edge to it)
    for v in range(1, len(parent)):
        near[v].append((parent[v], weight[v]))
        near[parent[v]].append((v, weight[v]))
    mass = [0] * len(parent)
    for i, c in phi.coeffs.items():
        mass[vertex[i]] = c
    base = vertex[0]
    order, up = [base], {base: (None, 0)}  # vertices from the base outward, and each one's edge toward it
    for u in order:
        for v, w in near[u]:
            if v not in up:
                up[v] = (u, w)
                order.append(v)
    below = list(mass)
    for v in reversed(order[1:]):
        below[up[v][0]] += below[v]
    norm = left_sum(up[v][1] * abs(below[v]) for v in order[1:])
    f = [Fraction(0)] * len(parent)
    for v in order[1:]:
        u, w = up[v]
        f[v] = f[u] + w * ((below[v] > 0) - (below[v] < 0))
    return norm, [f[v] for v in vertex]
