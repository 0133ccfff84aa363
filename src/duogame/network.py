"""Scale-free social network for the consumer market.

Preferential attachment: start from a complete seed graph on ``m0`` nodes,
then each new node attaches to ``m`` distinct existing nodes chosen with
probability proportional to degree. The construction guarantees
connectivity and the exact edge count m0*(m0-1)/2 + m*(N-m0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


@dataclass
class SocialNetwork:
    n: int
    edges: list = field(repr=False)
    indptr: np.ndarray = field(repr=False)       # CSR layout over neighbor lists
    indices: np.ndarray = field(repr=False)
    degrees: np.ndarray = field(repr=False)


def _csr_from_edges(n: int, edges: list) -> tuple:
    degrees = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    cursor = indptr[:-1].copy()
    for u, v in edges:
        indices[cursor[u]] = v
        cursor[u] += 1
        indices[cursor[v]] = u
        cursor[v] += 1
    return indptr, indices, degrees


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
    repeated = []
    for u, v in edges:
        repeated.append(u)
        repeated.append(v)

    for new in range(m0, n):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[rng.integers(len(repeated))])
        for t in targets:
            edges.append((new, int(t)))
            repeated.append(new)
            repeated.append(int(t))

    indptr, indices, degrees = _csr_from_edges(n, edges)
    return SocialNetwork(n=n, edges=edges, indptr=indptr, indices=indices,
                         degrees=degrees)

