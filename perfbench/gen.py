"""Seeded synthetic inputs shaped like the paper's signed trust networks.

Both generators wire an undirected graph over a fixed heavy-tailed
expected-degree sequence, closing triangles as they go, so hubs and
triangles are plentiful, then sign it with planted "bad actor" nodes: most edges touching a
bad actor are negative, all other edges are negative only with a small noise
probability.  The planted structure is what lets a link-sign model score well
above chance on these graphs.

- ``alpha``: bitcoin-alpha-shaped, written as a rating-csv file
  (``source,target,rating,time``; most pairs rated in both directions).
- ``slashdot``: Slashdot-shaped (scaled down), written as a sign-tsv file
  (``src<TAB>dst<TAB>sign``, one record per undirected edge).

The same seed and size give byte-identical files.  ``check`` recomputes the
shape of a generated graph so a workload cannot drift from its description:

    python3 perfbench/gen.py alpha --seed 1          # self-check, prints shape
    python3 perfbench/gen.py slashdot --seed 1 --out slashdot.tsv
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class GraphSpec:
    """Size, planted structure and the accepted shape ranges of one input."""

    nodes: int
    edges: int  # unique undirected edges, exact
    triad_prob: float  # chance that a new edge closes a triangle
    bad_frac: float  # share of nodes that are planted bad actors
    bad_neg_prob: float  # P(negative) for an edge touching one bad actor
    noise_neg_prob: float  # P(negative) for an edge between two good nodes
    neg_range: tuple[float, float]  # accepted negative-edge fraction
    min_triangles: int


SPECS = {
    # bitcoin-alpha: 3,783 nodes, 14,124 undirected edges, ~7% negative
    "alpha": GraphSpec(3783, 14000, 0.9, 0.05, 0.75, 0.02, (0.06, 0.10), 7_000),
    # Slashdot (82k nodes, ~500k edges, ~23% negative), scaled down for run time
    "slashdot": GraphSpec(15000, 60000, 0.4, 0.16, 0.8, 0.05, (0.15, 0.30), 15_000),
    # tiny variants for the benchmark's own smoke tests
    "alpha-smoke": GraphSpec(300, 1200, 0.9, 0.05, 0.75, 0.02, (0.04, 0.14), 100),
    "slashdot-smoke": GraphSpec(1000, 4000, 0.4, 0.12, 0.8, 0.05, (0.12, 0.35), 100),
}


def wire_graph(spec: GraphSpec, rng: random.Random) -> list[tuple[int, int]]:
    """Exactly ``spec.edges`` distinct undirected pairs over ``spec.nodes`` nodes.

    Node i has expected degree proportional to (i + 10) ** -0.7, a fixed
    heavy-tailed sequence, so hubs are the low ids.  A random tree first
    gives every node one edge.  Chung-Lu draws, or with ``triad_prob`` a
    neighbour of a neighbour, add the rest.  The seed changes the wiring but
    hardly the degree sequence, which sets the cost of the triangle kernel
    and the two-hop scan, so every seed asks for about the same work.
    """
    n = spec.nodes
    cum = list(itertools.accumulate((i + 10) ** -0.7 for i in range(n)))

    def pick() -> int:
        return bisect.bisect(cum, rng.random() * cum[-1])

    nbrs: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []

    def link(u: int, w: int) -> None:
        pair = (u, w) if u < w else (w, u)
        seen.add(pair)
        pairs.append(pair)
        nbrs[u].append(w)
        nbrs[w].append(u)

    for i in range(1, n):
        link(i, bisect.bisect(cum, rng.random() * cum[i - 1]))  # an earlier node, hubs favoured
    while len(pairs) < spec.edges:
        u = pick()
        if rng.random() < spec.triad_prob:
            w = rng.choice(nbrs[rng.choice(nbrs[u])])
        else:
            w = pick()
        if u != w and ((u, w) if u < w else (w, u)) not in seen:
            link(u, w)
    return pairs


def sign_edges(spec: GraphSpec, pairs: list[tuple[int, int]], rng: random.Random) -> list[int]:
    """Planted bad actors, never among the top 5% hubs: edges touching exactly
    one are mostly negative."""
    bad = set(rng.sample(range(spec.nodes // 20, spec.nodes), round(spec.bad_frac * spec.nodes)))
    signs = []
    for u, v in pairs:
        touches = (u in bad) + (v in bad)
        p_neg = spec.bad_neg_prob if touches == 1 else spec.noise_neg_prob
        signs.append(-1 if rng.random() < p_neg else 1)
    return signs


def generate(kind: str, seed: int) -> tuple[GraphSpec, list[tuple[int, int]], list[int]]:
    spec = SPECS[kind]
    rng = random.Random(f"{kind}:{seed}")
    pairs = wire_graph(spec, rng)
    return spec, pairs, sign_edges(spec, pairs, rng)


def write_rating_csv(path: Path, pairs, signs, rng: random.Random) -> None:
    """Directed ratings in [-10, 10]; 70% of pairs are rated both ways, same sign."""
    n = 1 + max(v for _, v in pairs)
    ids = rng.sample(range(1, 2 * n + 1), n)  # sparse original ids, like SNAP
    pos_ratings = [1] * 60 + [2] * 20 + [3] * 8 + [4, 5, 6, 7, 8, 9, 10] * 2 + [5] * 4 + [10] * 2
    neg_ratings = [-10] * 40 + [-1] * 25 + [-2, -3, -4, -5, -6, -7, -8, -9] * 4 + [-5] * 3
    rows = []
    t = 1_289_000_000
    for (u, v), s in zip(pairs, signs):
        pool = pos_ratings if s > 0 else neg_ratings
        a, b = (u, v) if rng.random() < 0.5 else (v, u)
        t += rng.randrange(1, 900)
        rows.append(f"{ids[a]},{ids[b]},{rng.choice(pool)},{t}\n")
        if rng.random() < 0.7:
            t += rng.randrange(1, 900)
            rows.append(f"{ids[b]},{ids[a]},{rng.choice(pool)},{t}\n")
    path.write_text("".join(rows))


def write_sign_tsv(path: Path, pairs, signs, rng: random.Random) -> None:
    n = 1 + max(v for _, v in pairs)
    ids = rng.sample(range(n), n)  # hubs are the low generator ids; hide that
    rows = ["# Directed graph: synthetic Slashdot-shaped signed network\n",
            "# FromNodeId\tToNodeId\tSign\n"]
    for (u, v), s in zip(pairs, signs):
        a, b = (u, v) if rng.random() < 0.5 else (v, u)
        rows.append(f"{ids[a]}\t{ids[b]}\t{s}\n")
    path.write_text("".join(rows))


def write_input(kind: str, seed: int, path: Path) -> dict:
    """Generate one input file and return its self-check shape."""
    spec, pairs, signs = generate(kind, seed)
    rng = random.Random(f"{kind}:{seed}:file")
    if kind.startswith("alpha"):
        write_rating_csv(path, pairs, signs, rng)
    else:
        write_sign_tsv(path, pairs, signs, rng)
    return check(spec, pairs, signs)


def check(spec: GraphSpec, pairs, signs) -> dict:
    """Shape of the graph, or ValueError if it left the spec's ranges."""
    u = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
    v = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
    adj = sparse.coo_matrix((np.ones(len(pairs)), (u, v)), shape=(spec.nodes,) * 2).tocsr()
    adj = adj + adj.T
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    triangles = int(round(adj.multiply(adj @ adj).sum() / 6))
    shape = {
        "nodes": int(np.count_nonzero(degrees)),
        "edges": int(adj.nnz // 2),
        "negative_fraction": round(signs.count(-1) / len(signs), 6),
        "triangles": triangles,
        "max_degree": int(degrees.max()),
    }
    lo, hi = spec.neg_range
    problems = []
    if shape["nodes"] != spec.nodes:
        problems.append(f"nodes {shape['nodes']} != {spec.nodes}")
    if shape["edges"] != spec.edges:
        problems.append(f"edges {shape['edges']} != {spec.edges}")
    if not lo <= shape["negative_fraction"] <= hi:
        problems.append(f"negative fraction {shape['negative_fraction']} outside [{lo}, {hi}]")
    if triangles < spec.min_triangles:
        problems.append(f"{triangles} triangles < {spec.min_triangles}")
    if shape["max_degree"] < 4 * spec.edges * 2 // spec.nodes:
        problems.append(f"max degree {shape['max_degree']} is not heavy-tailed")
    if problems:
        raise ValueError("generated graph left its spec: " + "; ".join(problems))
    return shape


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="also write the input file here")
    args = parser.parse_args(argv)
    if args.out:
        shape = write_input(args.kind, args.seed, Path(args.out))
    else:
        shape = check(*generate(args.kind, args.seed))
    print(json.dumps(shape))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
