"""Network constructors and diagnostics that only the tests use."""

import numpy as np

from duogame.errors import ParameterError
from duogame.network import SocialNetwork


# a network from an explicit edge list, made as the generator makes its own
from_edges = SocialNetwork.from_edges


def neighbors(net: SocialNetwork, node: int) -> np.ndarray:
    """The nodes adjacent to ``node``, from the adjacency's CSR rows."""
    adjacency = net.adjacency
    return adjacency.indices[adjacency.indptr[node]:adjacency.indptr[node + 1]]


def is_connected(net: SocialNetwork) -> bool:
    seen = np.zeros(net.n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in neighbors(net, u):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def degree_ccdf_slope(net: SocialNetwork, min_degree: int) -> float:
    """Log-log slope of the empirical degree CCDF over degrees >= min_degree,
    for a preferential-attachment graph its ``m``, the least degree of a
    node it attaches."""
    degs = np.sort(net.degrees[net.degrees >= min_degree])
    if degs.size == 0:
        raise ParameterError("no degrees at or above min_degree")
    uniq = np.unique(degs)
    ccdf = np.array([(degs >= d).mean() for d in uniq])
    keep = ccdf > 0
    x = np.log10(uniq[keep].astype(float))
    y = np.log10(ccdf[keep])
    if x.size < 2:
        raise ParameterError("not enough distinct degrees for a slope fit")
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
