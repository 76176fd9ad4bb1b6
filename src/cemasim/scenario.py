"""Domain model: agents, directed communication graph, mixing weights, validation.

A scenario bundles the economic data (generator cost curves with quadratic
transmission losses, consumer utility curves), the communication digraph, the
two mixing matrices (row-stochastic W for price consensus, column-stochastic Q
for surplus routing) and the algorithm constants. Everything is immutable
after construction; validation returns a list of violations instead of
raising, so invalid data can be inspected.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Union

import numpy as np

STOCHASTIC_TOL = 1e-12


class NodeKind(str, Enum):
    GENERATOR = "generator"
    CONSUMER = "consumer"


@dataclass(frozen=True)
class GeneratorParams:
    """Quadratic cost a*P^2 + b*P + c, loss coefficient B, capacity box.

    The one home of the loss model (net injection P - B*P^2, its slope and the
    loss-adjusted marginal cost); every method takes floats and arrays alike.
    """

    a: float
    b: float
    c: float
    B: float
    p_min: float
    p_max: float

    def cost(self, P: float) -> float:
        return self.a * P * P + self.b * P + self.c

    def marginal_cost(self, P: float) -> float:
        return 2.0 * self.a * P + self.b

    def net(self, P: float) -> float:
        # output after quadratic transmission loss; strictly increasing on
        # the capacity box when 2*B*p_max < 1
        return P - self.B * P * P

    def marginal_net(self, P: float) -> float:
        return 1.0 - 2.0 * self.B * P

    def loss_adjusted_marginal_cost(self, P: float) -> float:
        # the price at which P is the corrected best response; interior
        # generators share it at the optimum
        return self.marginal_cost(P) / self.marginal_net(P)


@dataclass(frozen=True)
class ConsumerParams:
    """Saturating quadratic utility w*P - alpha*P^2 (flat beyond w/(2*alpha))."""

    w: float
    alpha: float
    p_min: float
    p_max: float

    @property
    def saturation(self) -> float:
        return self.w / (2.0 * self.alpha)

    def utility(self, P: float) -> float:
        if P <= self.saturation:
            return self.w * P - self.alpha * P * P
        return self.w * self.w / (4.0 * self.alpha)

    def marginal_utility(self, P: float) -> float:
        # C1 across the saturation point: both branches give 0 there.
        return max(0.0, self.w - 2.0 * self.alpha * P)


AgentParams = Union[GeneratorParams, ConsumerParams]


@dataclass(frozen=True)
class Digraph:
    """Directed communication graph; edge (u, v) means u sends to v."""

    n: int
    edges: tuple
    node_kind: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        for u, v in self.edges:
            # int() would load 1.7 and true as 1
            if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for x in (u, v)):
                raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer endpoint")
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        for u, v in edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.n} nodes")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "node_kind", tuple(NodeKind(k) for k in self.node_kind))

    def missing_self_loops(self) -> list:
        """Nodes without a self-loop, in node order."""
        loops = {u for u, v in self.edges if u == v}
        return [i for i in range(self.n) if i not in loops]

    def is_strongly_connected(self) -> bool:
        fwd = {u: [] for u in range(self.n)}
        bwd = {u: [] for u in range(self.n)}
        for u, v in self.edges:
            fwd[u].append(v)
            bwd[v].append(u)
        for adj in (fwd, bwd):
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) < self.n:
                return False
        return True


def _real_matrix(rows, name: str) -> np.ndarray:
    """Nested rows of ints and floats, or an int or float array, as a new float
    array; raises ValueError on any other entry or dtype, bool included
    (np.array(dtype=float) would load "0.5" and True)."""
    if isinstance(rows, np.ndarray):
        bad = set() if rows.dtype.kind in "iuf" else {rows.dtype.name}
    else:
        bad = {t.__name__ for t in {type(x) for row in rows for x in row}
               if issubclass(t, bool) or not issubclass(t, numbers.Real)}
    if bad:
        raise ValueError(f"{name} has non-numeric entries of type {', '.join(sorted(bad))}")
    return np.array(rows, dtype=float)


@dataclass(frozen=True, eq=False)
class WeightMatrices:
    """W mixes prices (row-stochastic), Q routes surplus (column-stochastic).

    Entries must be ints or floats: nested rows of them, or an int or float
    array. Any other entry or dtype, bool included, raises ValueError.
    """

    W: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        # copies marked read-only: scenarios are shareable across threads
        for name in ("W", "Q"):
            arr = _real_matrix(getattr(self, name), name)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class AgentView:
    """Node i's parameters, sign (-1 generator, +1 consumer: producing drains
    surplus) and loss coefficient (B, or 0 for a consumer), in node order."""

    params: tuple
    sign: np.ndarray
    loss: np.ndarray

    def net(self, P: np.ndarray) -> np.ndarray:
        """Net injection P - B*P^2 of every node: GeneratorParams.net as one
        node-order vector expression for the engine's round loop."""
        return P - self.loss * P * P


@dataclass(frozen=True)
class Scenario:
    generators: tuple
    consumers: tuple
    graph: Digraph
    weights: WeightMatrices
    eta: float
    eps_m: float
    eps_l: float
    max_iters: int

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "consumers", tuple(self.consumers))

    @property
    def n_nodes(self) -> int:
        return self.graph.n

    @property
    def generator_nodes(self) -> tuple:
        return tuple(i for i, k in enumerate(self.graph.node_kind) if k is NodeKind.GENERATOR)

    @property
    def consumer_nodes(self) -> tuple:
        return tuple(i for i, k in enumerate(self.graph.node_kind) if k is NodeKind.CONSUMER)

    @cached_property
    def agents(self) -> AgentView:
        """Node-order view, built once; the j-th generator-kind node maps to
        generators[j]. Raises ValueError if kind and parameter counts differ."""
        gen = list(self.generator_nodes)
        params = [None] * len(self.graph.node_kind)
        for nodes, group in ((gen, self.generators), (self.consumer_nodes, self.consumers)):
            for node, p in zip(nodes, group, strict=True):
                params[node] = p
        sign = np.ones(len(params))
        sign[gen] = -1.0
        loss = np.zeros(len(params))
        loss[gen] = [g.B for g in self.generators]
        return AgentView(params=tuple(params), sign=sign, loss=loss)


@dataclass(frozen=True, order=True)
class Violation:
    """One violated invariant; node == -1 marks a scenario-level rule."""

    node: int
    rule: str
    message: str = field(compare=False)


def ring_digraph(n_generators: int, n_consumers: int) -> Digraph:
    """Directed ring plus reverse ring plus self-loops, generators first."""
    n = n_generators + n_consumers
    if n < 1:
        raise ValueError("need at least one node")
    kinds = ["generator"] * n_generators + ["consumer"] * n_consumers
    edges = []
    for i in range(n):
        edges.append((i, i))
        if n > 1:
            edges.append((i, (i + 1) % n))
            edges.append((i, (i - 1) % n))
    return Digraph(n=n, edges=sorted(set(edges)), node_kind=kinds)


def build_uniform_weights(g: Digraph) -> WeightMatrices:
    """Uniform in-neighbor weights for W, uniform out-neighbor splitting for Q.

    W[i][j] = 1/indeg(i) for every in-edge j->i (self-loop included), so rows
    sum to 1; Q[i][j] = 1/outdeg(j) for every edge j->i, so columns sum to 1.
    """
    if g.missing_self_loops():
        raise ValueError("graph must have a self-loop at every node")
    if not g.is_strongly_connected():
        raise ValueError("graph must be strongly connected")
    adj = np.zeros((g.n, g.n))
    for u, v in g.edges:
        adj[v, u] = 1.0
    W = adj / adj.sum(axis=1, keepdims=True)
    Q = adj / adj.sum(axis=0, keepdims=True)
    return WeightMatrices(W=W, Q=Q)


def check_feasibility_condition(s: Scenario) -> tuple:
    """Aggregate demand headroom: sum_cons p_max >= sum_gen (p_min - B*p_max^2).

    Returns (holds, slack) with slack = LHS - RHS. When the condition holds,
    the inequality-relaxed balance shares its optimum with the equality form.
    """
    lhs = sum(c.p_max for c in s.consumers)
    rhs = sum(g.p_min - g.B * g.p_max * g.p_max for g in s.generators)
    slack = lhs - rhs
    return slack >= 0.0, slack


def _finite(x) -> bool:
    if isinstance(x, (bool, np.bool_)):
        return False
    try:
        return bool(np.isfinite(x))
    except TypeError:
        return False


def validate_scenario(s: Scenario) -> list:
    """Check every model invariant; returns violations sorted by (node, rule).

    Violations are data, not failures: an empty list means the scenario is
    valid and every engine/oracle precondition on it holds.
    """
    out = []

    def add(node, rule, message):
        out.append(Violation(node=node, rule=rule, message=message))

    kinds = s.graph.node_kind
    n_gen_nodes = sum(1 for k in kinds if k is NodeKind.GENERATOR)
    n_con_nodes = len(kinds) - n_gen_nodes
    if len(kinds) != s.graph.n:
        add(-1, "graph.kinds_length", f"node_kind has {len(kinds)} entries for {s.graph.n} nodes")
    if s.graph.n != len(s.generators) + len(s.consumers):
        add(-1, "scenario.node_count",
            f"graph has {s.graph.n} nodes but {len(s.generators)} generators + "
            f"{len(s.consumers)} consumers")
    if n_gen_nodes != len(s.generators) or n_con_nodes != len(s.consumers):
        add(-1, "scenario.kind_counts",
            f"kinds declare {n_gen_nodes} generator / {n_con_nodes} consumer nodes, "
            f"params give {len(s.generators)} / {len(s.consumers)}")

    for i in s.graph.missing_self_loops():
        add(i, "graph.self_loop", f"node {i} has no self-loop")
    if not s.graph.is_strongly_connected():
        add(-1, "graph.strongly_connected", "graph is not strongly connected")

    gen_nodes = s.generator_nodes
    for j, g in enumerate(s.generators):
        node = gen_nodes[j] if j < len(gen_nodes) else -1
        if not all(_finite(x) for x in (g.a, g.b, g.c, g.B, g.p_min, g.p_max)):
            add(node, "gen.finite", f"generator {j} has non-finite or non-numeric parameters")
            continue
        before = len(out)
        if g.a <= 0:
            add(node, "gen.a_positive", f"generator {j}: a = {g.a} must be > 0")
        if g.B <= 0:
            add(node, "gen.B_positive", f"generator {j}: B = {g.B} must be > 0")
        if not (0 < g.p_min <= g.p_max):
            add(node, "gen.box", f"generator {j}: need 0 < p_min <= p_max, got [{g.p_min}, {g.p_max}]")
        if 2 * g.B * g.p_max >= 1:
            add(node, "gen.net_monotone", f"generator {j}: 2B*p_max = {2 * g.B * g.p_max} >= 1")
        # lambda_init starts at the price at p_min, the bisection brackets at
        # the one at p_max; both are defined once the rules above hold
        if len(out) == before and not all(
            _finite(g.loss_adjusted_marginal_cost(P)) for P in (g.p_min, g.p_max)
        ):
            add(node, "gen.price_finite",
                f"generator {j}: loss-adjusted marginal cost is not finite at p_min or p_max")

    con_nodes = s.consumer_nodes
    for j, c in enumerate(s.consumers):
        node = con_nodes[j] if j < len(con_nodes) else -1
        if not all(_finite(x) for x in (c.w, c.alpha, c.p_min, c.p_max)):
            add(node, "con.finite", f"consumer {j} has non-finite or non-numeric parameters")
            continue
        if c.w <= 0:
            add(node, "con.w_positive", f"consumer {j}: w = {c.w} must be > 0")
        if c.alpha <= 0:
            add(node, "con.alpha_positive", f"consumer {j}: alpha = {c.alpha} must be > 0")
        if not (0 < c.p_min <= c.p_max):
            add(node, "con.box", f"consumer {j}: need 0 < p_min <= p_max, got [{c.p_min}, {c.p_max}]")

    W, Q = s.weights.W, s.weights.Q
    n = s.graph.n
    if W.shape != (n, n) or Q.shape != (n, n):
        add(-1, "weights.shape", f"W {W.shape} / Q {Q.shape} do not match node count {n}")
    else:
        if np.any(W < 0):
            add(-1, "weights.W_nonnegative", "W has negative entries")
        if np.any(Q < 0):
            add(-1, "weights.Q_nonnegative", "Q has negative entries")
        row_err = np.abs(W.sum(axis=1) - 1.0)
        for i in np.nonzero(row_err > STOCHASTIC_TOL)[0]:
            add(int(i), "weights.W_row_stochastic",
                f"row {i} of W sums to {W[i].sum()!r}, off by {row_err[i]:.3e}")
        col_err = np.abs(Q.sum(axis=0) - 1.0)
        for j in np.nonzero(col_err > STOCHASTIC_TOL)[0]:
            add(int(j), "weights.Q_col_stochastic",
                f"column {j} of Q sums to {Q[:, j].sum()!r}, off by {col_err[j]:.3e}")
        # entry [i][j] carries j -> i, so it needs edge (j, i) or i == j
        no_edge = ~np.eye(n, dtype=bool)
        for u, v in s.graph.edges:
            no_edge[v, u] = False
        for name, M in (("W", W), ("Q", Q)):
            if not np.all(np.isfinite(M)):
                add(-1, "weights.finite", f"{name} has non-finite entries")
            for i, j in zip(*np.nonzero((M > 0) & no_edge)):
                add(int(i), f"weights.{name}_sparsity",
                    f"{name}[{i}][{j}] > 0 without edge {j}->{i}")

    if not (_finite(s.eta) and 0 < s.eta < 1):
        add(-1, "scenario.eta", f"eta = {s.eta} must satisfy 0 < eta < 1")
    if not (_finite(s.eps_m) and s.eps_m > 0):
        add(-1, "scenario.eps_m", f"eps_m = {s.eps_m} must be > 0")
    if not (_finite(s.eps_l) and s.eps_l > 0):
        add(-1, "scenario.eps_l", f"eps_l = {s.eps_l} must be > 0")
    if not (isinstance(s.max_iters, numbers.Integral) and not isinstance(s.max_iters, bool)
            and s.max_iters >= 1):
        add(-1, "scenario.max_iters", f"max_iters = {s.max_iters!r} must be an integer >= 1")

    return sorted(out)


# ---------------------------------------------------------------------------
# JSON scenario files


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "generators": [
            {"a": g.a, "b": g.b, "c": g.c, "B": g.B, "p_min": g.p_min, "p_max": g.p_max}
            for g in s.generators
        ],
        "consumers": [
            {"w": c.w, "alpha": c.alpha, "p_min": c.p_min, "p_max": c.p_max}
            for c in s.consumers
        ],
        "graph": {
            "n": s.graph.n,
            "kinds": [k.value for k in s.graph.node_kind],
            "edges": [[u, v] for u, v in s.graph.edges],
        },
        "weights": {"W": s.weights.W.tolist(), "Q": s.weights.Q.tolist()},
        "eta": s.eta,
        "eps_m": s.eps_m,
        "eps_l": s.eps_l,
        "max_iters": s.max_iters,
    }


def _exact_int(x):
    """An integral float as int; any other value as given, for validate_scenario
    to judge (int() would load 2.5 as 2 and "10" as 10)."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x


def _real(x):
    """An int or a float as float; any other value, bool included, as given,
    for validate_scenario to judge (float() would load "0.002" and true)."""
    return float(x) if isinstance(x, (int, float)) and not isinstance(x, bool) else x


def scenario_from_dict(d: dict) -> Scenario:
    generators = tuple(GeneratorParams(**g) for g in d["generators"])
    consumers = tuple(ConsumerParams(**c) for c in d["consumers"])
    gd = d["graph"]
    if isinstance(gd, dict) and "preset" in gd:
        if gd["preset"] != "ring4":
            raise ValueError(f"unknown graph preset {gd['preset']!r}")
        if len(generators) + len(consumers) != 4:
            raise ValueError("graph preset 'ring4' needs exactly 4 agents")
        graph = ring_digraph(len(generators), len(consumers))
    else:
        graph = Digraph(n=gd["n"], edges=[tuple(e) for e in gd["edges"]], node_kind=gd["kinds"])
    wd = d["weights"]
    if wd == "uniform":
        weights = build_uniform_weights(graph)
    else:
        weights = WeightMatrices(W=wd["W"], Q=wd["Q"])
    return Scenario(
        generators=generators,
        consumers=consumers,
        graph=graph,
        weights=weights,
        eta=_real(d["eta"]),
        eps_m=_real(d["eps_m"]),
        eps_l=_real(d["eps_l"]),
        max_iters=_exact_int(d["max_iters"]),
    )


def json_text(obj) -> str:
    """The one JSON layout of scenario files and reports: indent 2, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as f:
        f.write(json_text(scenario_to_dict(s)))


def load_scenario(path) -> Scenario:
    with open(path) as f:
        return scenario_from_dict(json.load(f))
