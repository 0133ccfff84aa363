"""Scale-free social network for the consumer market.

Preferential attachment (Barabási and Albert, "Emergence of scaling in
random networks", Science 1999): start from a complete seed graph on ``m0``
nodes, then each new node attaches to ``m`` distinct existing nodes chosen
with probability proportional to degree. The construction guarantees
connectivity and the exact edge count m0*(m0-1)/2 + m*(N-m0).

A network is held in one form, its adjacency: a scipy CSR matrix of ones,
symmetric with a zero diagonal, in the narrowest signed integer type that
holds the largest degree (int8 at the default 200 agents). The market's
product of it with the int8 adoption counts each agent's neighbors exactly
in that type. ``degrees`` are its row counts, as int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import ParameterError


def narrowest_int(largest: int):
    """The narrowest signed integer dtype that holds ``largest``."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= largest)


@dataclass
class SocialNetwork:
    n: int
    adjacency: sparse.csr_matrix = field(repr=False)
    degrees: np.ndarray = field(repr=False)

    @classmethod
    def from_edges(cls, n: int, edges) -> "SocialNetwork":
        """The network on ``n`` nodes with the undirected ``edges``, pairs of
        distinct nodes with no pair listed twice."""
        # each row's neighbors in edge order, gathered as lists: scipy's
        # COO-to-CSR conversion gives the same matrix, but runs compiled code
        # that nothing else in a run needs, and raised the peak memory of
        # perfbench's workers by 0.2-0.5 MB
        rows = [[] for _ in range(n)]
        for u, v in edges:
            rows[u].append(v)
            rows[v].append(u)
        degrees = np.array([len(row) for row in rows], dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        indices = np.array([v for row in rows for v in row], dtype=np.int64)
        ones = np.ones(indices.size, dtype=narrowest_int(int(degrees.max(initial=0))))
        return cls(n, sparse.csr_matrix((ones, indices, indptr), shape=(n, n)), degrees)


def generate_ba_network(n: int, m0: int = 5, m: int = 3, seed: int = 0) -> SocialNetwork:
    """Deterministic preferential-attachment graph for a given seed."""
    if m > m0:
        raise ParameterError(f"edges per new node m={m} cannot exceed seed size m0={m0}")
    if n < m0:
        raise ParameterError(f"agent count N={n} must be at least the seed size m0={m0}")
    if m < 1 or m0 < 1:
        raise ParameterError("m and m0 must be >= 1")

    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    # degree-weighted multiset of endpoints; sampling an index from it is
    # sampling a node with probability proportional to its degree
    repeated = [node for edge in edges for node in edge]
    for new in range(m0, n):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[rng.integers(len(repeated))])
        for t in targets:
            edges.append((new, t))
            repeated += (new, t)

    return SocialNetwork.from_edges(n, edges)
