"""Seeded scenario generator owned by the benchmark.

It writes scenario JSON in the format `cemasim.load_scenario` reads, but
shares no code with the package: a change to `cemasim gen-scenario` or to
its gain heuristic must not change a benchmark workload. Every scenario is a
bidirectional ring with self-loops and dense uniform `W`/`Q`, generators
first, as in the paper's test systems.
"""

from __future__ import annotations

import json

import numpy as np

# Parameter ranges (lo, hi) in the units of the paper's Table 1. A draw
# takes the middle of the range and moves it by at most +-spread/2 of the
# range width: a small spread keeps the work of a ring nearly the same
# from seed to seed, so the seed changes the bytes, not the workload.
GENERATOR_RANGES = {
    "a": (0.0015, 0.008),
    "b": (3.5, 7.0),
    "c": (10.0, 50.0),
    "B": (0.00012, 0.0004),
    "p_min": (20.0, 70.0),
    "p_span": (120.0, 350.0),
}
CONSUMER_RANGES = {
    "w": (11.0, 20.0),
    "alpha": (0.045, 0.11),
    "p_min": (40.0, 110.0),
    "p_span": (30.0, 90.0),
}
TOLERANCE = 1e-8
MAX_ITERS = 200000

# The paper's Table 1 system on the 4-node ring, with the gain that converges
# for both generator updates.
TABLE1 = {
    "generators": [
        {"a": 0.0024, "b": 5.56, "c": 30.0, "B": 0.00021, "p_min": 60.0, "p_max": 339.69},
        {"a": 0.0056, "b": 4.32, "c": 25.0, "B": 0.00031, "p_min": 25.0, "p_max": 479.10},
    ],
    "consumers": [
        {"w": 18.43, "alpha": 0.0545, "p_min": 50.0, "p_max": 100.34},
        {"w": 13.17, "alpha": 0.0877, "p_min": 100.0, "p_max": 159.13},
    ],
    "eta": 0.002,
}


def _draw(rng: np.random.Generator, ranges: dict, spread: float) -> dict:
    out = {}
    for name, (lo, hi) in ranges.items():
        out[name] = lo + (hi - lo) * (0.5 + spread * (rng.random() - 0.5))
    out["p_max"] = out["p_min"] + out.pop("p_span")
    return out


def ring_scenario(generators: list, consumers: list, eta: float) -> dict:
    """Scenario dict on a bidirectional ring with uniform dense weights."""
    n = len(generators) + len(consumers)
    adj = np.zeros((n, n))
    edges = set()
    for i in range(n):
        for j in (i, (i + 1) % n, (i - 1) % n):
            edges.add((i, j))
            adj[j, i] = 1.0  # edge i -> j
    return {
        "generators": generators,
        "consumers": consumers,
        "graph": {
            "n": n,
            "kinds": ["generator"] * len(generators) + ["consumer"] * len(consumers),
            "edges": [list(e) for e in sorted(edges)],
        },
        "weights": {
            "W": (adj / adj.sum(axis=1, keepdims=True)).tolist(),
            "Q": (adj / adj.sum(axis=0, keepdims=True)).tolist(),
        },
        "eta": eta,
        "eps_m": TOLERANCE,
        "eps_l": TOLERANCE,
        "max_iters": MAX_ITERS,
    }


def random_ring(rng: np.random.Generator, n_gen: int, n_con: int, spread: float, eta: float) -> dict:
    generators = [_draw(rng, GENERATOR_RANGES, spread) for _ in range(n_gen)]
    consumers = [_draw(rng, CONSUMER_RANGES, spread) for _ in range(n_con)]
    return ring_scenario(generators, consumers, eta)


def table1() -> dict:
    return ring_scenario(TABLE1["generators"], TABLE1["consumers"], TABLE1["eta"])


def write(d: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(d, f, indent=2, sort_keys=True)
        f.write("\n")
