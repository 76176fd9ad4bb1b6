"""Domain model: agents, directed communication graph, mixing weights, validation.

A scenario bundles the economic data (generator cost curves with quadratic
transmission losses, consumer utility curves), the communication digraph, the
two mixing matrices (row-stochastic W for price consensus, column-stochastic Q
for surplus routing) and the algorithm constants. Everything is immutable
after construction; validation returns a list of violations instead of
raising, so invalid data can be inspected.
"""

from __future__ import annotations

import gc
import json
import math
import numbers
import re
import reprlib
import threading
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain
from typing import Union

import numpy as np
import orjson

STOCHASTIC_TOL = 1e-12


class NodeKind(str, Enum):
    GENERATOR = "generator"
    CONSUMER = "consumer"


_NODE_KIND_VALUES = frozenset(kind.value for kind in NodeKind)


def _node_kind(k) -> NodeKind:
    """NodeKind(k), whose own error message would print k in full."""
    if not (isinstance(k, str) and k in _NODE_KIND_VALUES):
        raise ValueError(f"{reprlib.repr(k)} is not a valid NodeKind")
    return NodeKind(k)


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
    """Saturating quadratic utility w*P - alpha*P^2 (flat beyond w/(2*alpha));
    every method takes floats and arrays alike (a float gives a float)."""

    w: float
    alpha: float
    p_min: float
    p_max: float

    @property
    def saturation(self) -> float:
        return self.w / (2.0 * self.alpha)

    def utility(self, P: float) -> float:
        return _float_if_scalar(np.where(P <= self.saturation, self.w * P - self.alpha * P * P,
                                         self.w * self.w / (4.0 * self.alpha)))

    def marginal_utility(self, P: float) -> float:
        # C1 across the saturation point: both branches give 0 there. Not
        # np.maximum: like max(0.0, m), this sends NaN and -0.0 to 0.0
        m = self.w - 2.0 * self.alpha * P
        return _float_if_scalar(np.where(m > 0.0, m, 0.0))


def _float_if_scalar(x: np.ndarray):
    # np.where's 0-d result as a float, as arithmetic on floats gives one
    return x if x.ndim else float(x)


AgentParams = Union[GeneratorParams, ConsumerParams]

# The number rule, written once over types so that a container's entries are
# judged by the set of their types. An integer is an int, numpy's included,
# never a bool; a real is an int or a float, numpy's included, never a bool
# (nor a Fraction, a complex number or a string).
_REAL_TYPES = (float, np.floating, numbers.Integral)


def _integer_type(t: type) -> bool:
    return issubclass(t, numbers.Integral) and not issubclass(t, bool)


def _real_type(t: type) -> bool:
    return issubclass(t, _REAL_TYPES) and not issubclass(t, bool)


def is_integer(x) -> bool:
    return _integer_type(type(x))


def is_real(x) -> bool:
    return _real_type(type(x))


@dataclass(frozen=True)
class Digraph:
    """Directed communication graph; edge (u, v) means u sends to v."""

    n: int
    edges: tuple
    node_kind: tuple

    def __post_init__(self):
        # range(n) would take neither 4.0 nor, as a count, true. Messages
        # print values through reprlib: a value read from a file may be a list
        # nested a thousand deep, whose full repr exceeds the recursion limit
        if not is_integer(self.n):
            raise ValueError(f"graph node count {reprlib.repr(self.n)} is not an integer")
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        given = tuple(self.edges)
        # one pass over the set of endpoint types and their range; only a
        # graph that fails it is walked edge by edge, to name its first offender
        try:
            edges = tuple([(u, v) for u, v in given])
            ends = list(chain.from_iterable(edges))
            clean = (all(map(_integer_type, set(map(type, ends))))
                     and min(ends, default=0) >= 0 and max(ends, default=0) < self.n)
        except (TypeError, ValueError):
            clean = False
        if not clean:
            for u, v in given:
                # int() would load 1.7 and true as 1
                if not (is_integer(u) and is_integer(v)):
                    raise ValueError(f"edge ({reprlib.repr(u)}, {reprlib.repr(v)}) "
                                     "has a non-integer endpoint")
            for u, v in given:
                if not (0 <= u < self.n and 0 <= v < self.n):
                    raise ValueError(f"edge ({u}, {v}) out of range for {self.n} nodes")
        # numpy ints as Python ints
        object.__setattr__(self, "edges", tuple([(int(u), int(v)) for u, v in edges]))
        object.__setattr__(self, "node_kind", tuple(map(_node_kind, self.node_kind)))

    def adjacency(self) -> np.ndarray:
        """The n x n boolean matrix with [v, u] set for each edge (u, v): the
        entries a weight matrix may fill, since its [i][j] carries j -> i."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        u, v = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        adj[v, u] = True
        return adj

    def missing_self_loops(self) -> list:
        """Nodes without a self-loop, in node order."""
        loops = {u for u, v in self.edges if u == v}
        return [i for i in range(self.n) if i not in loops]

    def is_strongly_connected(self) -> bool:
        """Whether node 0 reaches every node and every node reaches node 0:
        one search over the out-neighbour lists and one over the in-neighbour
        lists, both indexed by node and built in one pass over the edges."""
        n = self.n
        fwd = [[] for _ in range(n)]
        bwd = [[] for _ in range(n)]
        for u, v in self.edges:
            fwd[u].append(v)
            bwd[v].append(u)
        for adj in (fwd, bwd):
            seen = [False] * n
            seen[0] = True
            stack = [0]
            reached = 1
            while stack:
                for v in adj[stack.pop()]:
                    if not seen[v]:
                        seen[v] = True
                        reached += 1
                        stack.append(v)
            if reached < n:
                return False
        return True


def real_array(values, name: str, ndim: int) -> np.ndarray:
    """Numbers (`is_real`) nested `ndim` lists deep (a bare number at 0), or
    an int or float array, as a new float array; raises ValueError on any
    other entry or dtype (np.array(dtype=float) would load "0.5" and True),
    and on a list where a number belongs."""

    if isinstance(values, np.ndarray):
        bad = set() if values.dtype.kind in "iuf" else {values.dtype.name}
    else:
        entries = [values]
        for _ in range(ndim):
            entries = chain.from_iterable(entries)
        bad = {t.__name__ for t in set(map(type, entries)) if not _real_type(t)}
    if bad:
        raise ValueError(f"{name} has non-numeric entries of type {', '.join(sorted(bad))}")
    return np.array(values, dtype=float)


def _literal_free_matrix(rows):
    """`rows`, parsed from JSON text that holds no true, false or null
    (`_json_scan`), as the 2-D float array numpy infers from them; `rows` as
    given where numpy infers another dtype or shape, or builds none.

    The array proves `is_real` of every entry, so real_array needs no pass
    over their types: a parsed value is an int, a float, a string, a list, a
    dict, a bool or None, and without the last two only ints and floats make
    float64 entries (a string gives a str dtype, a dict or an int past the
    64-bit range object, a list another shape or a ValueError). Each entry
    converts as np.array(rows, dtype=float) converts it."""
    try:
        arr = np.array(rows)
    except ValueError:
        return rows
    return arr if arr.ndim == 2 and arr.dtype == np.float64 else rows


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
            arr = real_array(getattr(self, name), name, 2)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class AgentView:
    """Node i's parameters, sign (-1 generator, +1 consumer: producing drains
    surplus) and loss coefficient (B, or 0 for a consumer), in node order, and
    `by_kind`: (node indices, parameters) of the generators, then of the
    consumers, with GeneratorParams / ConsumerParams of float arrays."""

    params: tuple
    by_kind: tuple
    sign: np.ndarray = field(init=False)
    loss: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sign", self.node_order(-1.0, 1.0))
        object.__setattr__(self, "loss", self.node_order(self.by_kind[0][1].B, 0.0))

    def net(self, P: np.ndarray) -> np.ndarray:
        """Net injection P - B*P^2 of every node: GeneratorParams.net as one
        node-order vector expression for the engine's round loop."""
        return P - self.loss * P * P

    def node_powers(self, P) -> np.ndarray:
        """P as a float array of one power per node, the shape every
        node-order power input must have; raises ValueError otherwise."""
        P = np.asarray(P, dtype=float)
        if P.shape != (len(self.params),):
            raise ValueError(f"expected {len(self.params)} node powers, got shape {P.shape}")
        return P

    def generator_powers(self, P_gen) -> np.ndarray:
        """P_gen as a float array of one power per generator, in `by_kind`
        order, the shape every per-generator power input must have; raises
        ValueError otherwise."""
        P_gen = np.asarray(P_gen, dtype=float)
        if P_gen.shape != self.by_kind[0][0].shape:
            raise ValueError("expected one power per generator")
        return P_gen

    def node_order(self, gen_values, con_values) -> np.ndarray:
        """One node-order array from its values at the generators and at the
        consumers, each in `by_kind` order (a number fills its whole kind)."""
        (gen_nodes, _), (con_nodes, _) = self.by_kind
        out = np.empty(len(self.params))
        out[gen_nodes] = gen_values
        out[con_nodes] = con_values
        return out


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

    # the node lists are read off graph.node_kind once, binding the enum
    # member first: reading it costs about 0.1 us on Python 3.11
    @cached_property
    def generator_nodes(self) -> tuple:
        generator = NodeKind.GENERATOR
        return tuple(i for i, k in enumerate(self.graph.node_kind) if k is generator)

    @cached_property
    def consumer_nodes(self) -> tuple:
        consumer = NodeKind.CONSUMER
        return tuple(i for i, k in enumerate(self.graph.node_kind) if k is consumer)

    @cached_property
    def agents(self) -> AgentView:
        """Node-order view, built once; the j-th generator-kind node maps to
        generators[j]. Raises ValueError if kind and parameter counts differ."""
        params = [None] * len(self.graph.node_kind)
        by_kind = []
        for nodes, group, cls in ((self.generator_nodes, self.generators, GeneratorParams),
                                  (self.consumer_nodes, self.consumers, ConsumerParams)):
            for node, p in zip(nodes, group, strict=True):
                params[node] = p
            arrays = {f.name: np.array([getattr(p, f.name) for p in group], dtype=float)
                      for f in fields(cls)}
            by_kind.append((np.array(nodes, dtype=np.intp), cls(**arrays)))
        return AgentView(params=tuple(params), by_kind=tuple(by_kind))


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
    # before any walk over range(n): a short file may declare 10**12 nodes
    if len(g.node_kind) != g.n:
        raise ValueError(f"node_kind has {len(g.node_kind)} entries for {g.n} nodes")
    if g.missing_self_loops():
        raise ValueError("graph must have a self-loop at every node")
    if not g.is_strongly_connected():
        raise ValueError("graph must be strongly connected")
    adj = g.adjacency().astype(float)
    W = adj / adj.sum(axis=1, keepdims=True)
    Q = adj / adj.sum(axis=0, keepdims=True)
    return WeightMatrices(W=W, Q=Q)


def _finite(x) -> bool:
    """A number (`is_real`) that is finite as a float."""
    try:
        return is_real(x) and math.isfinite(x)
    except OverflowError:  # an int past float range
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
    gen_nodes, con_nodes = s.generator_nodes, s.consumer_nodes
    if len(kinds) != s.graph.n:
        add(-1, "graph.kinds_length", f"node_kind has {len(kinds)} entries for {s.graph.n} nodes")
    if s.graph.n != len(s.generators) + len(s.consumers):
        add(-1, "scenario.node_count",
            f"graph has {s.graph.n} nodes but {len(s.generators)} generators + "
            f"{len(s.consumers)} consumers")
    if len(gen_nodes) != len(s.generators) or len(con_nodes) != len(s.consumers):
        add(-1, "scenario.kind_counts",
            f"kinds declare {len(gen_nodes)} generator / {len(con_nodes)} consumer nodes, "
            f"params give {len(s.generators)} / {len(s.consumers)}")

    # the walks over range(n) only once n is the number of kinds given: a
    # short file may declare 10**12 nodes, which kinds_length already reports
    if len(kinds) == s.graph.n:
        for i in s.graph.missing_self_loops():
            add(i, "graph.self_loop", f"node {i} has no self-loop")
        if not s.graph.is_strongly_connected():
            add(-1, "graph.strongly_connected", "graph is not strongly connected")

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
        # finite entries may overflow a sum to inf and +-inf ones cancel to
        # NaN; the weights rules report both, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            W_sums, Q_sums = W.sum(axis=1), Q.sum(axis=0)
            row_err = np.abs(W_sums - 1.0)
            for i in np.nonzero(row_err > STOCHASTIC_TOL)[0]:
                add(int(i), "weights.W_row_stochastic",
                    f"row {i} of W sums to {float(W[i].sum())!r}, off by {row_err[i]:.3e}")
            col_err = np.abs(Q_sums - 1.0)
            for j in np.nonzero(col_err > STOCHASTIC_TOL)[0]:
                add(int(j), "weights.Q_col_stochastic",
                    f"column {j} of Q sums to {float(Q[:, j].sum())!r}, off by {col_err[j]:.3e}")
        # entry [i][j] needs edge (j, i) or i == j. The n x n masks are built
        # in place and searched entry by entry only once any() finds a hit
        no_edge = s.graph.adjacency()
        np.fill_diagonal(no_edge, True)
        np.logical_not(no_edge, out=no_edge)
        off_support = np.empty_like(no_edge)
        for name, M, sums in (("W", W, W_sums), ("Q", Q, Q_sums)):
            # a NaN or inf entry makes its row's (column's) sum NaN or inf, so
            # finite sums clear M without a pass over its entries
            if not (np.isfinite(sums).all() or np.isfinite(M).all()):
                add(-1, "weights.finite", f"{name} has non-finite entries")
            np.greater(M, 0, out=off_support)
            off_support &= no_edge
            if off_support.any():
                for i, j in zip(*np.nonzero(off_support)):
                    add(int(i), f"weights.{name}_sparsity",
                        f"{name}[{i}][{j}] > 0 without edge {j}->{i}")

    # a constant read from a file may be a list nested a thousand deep, whose
    # full repr exceeds the recursion limit; one built in code may be a numpy
    # scalar, whose repr under numpy 2 reads np.int64(-3)
    if not (_finite(s.eta) and 0 < s.eta < 1):
        add(-1, "scenario.eta", f"eta = {reprlib.repr(_plain(s.eta))} must satisfy 0 < eta < 1")
    if not (_finite(s.eps_m) and s.eps_m > 0):
        add(-1, "scenario.eps_m", f"eps_m = {reprlib.repr(_plain(s.eps_m))} must be > 0")
    if not (_finite(s.eps_l) and s.eps_l > 0):
        add(-1, "scenario.eps_l", f"eps_l = {reprlib.repr(_plain(s.eps_l))} must be > 0")
    if not (is_integer(s.max_iters) and s.max_iters >= 1):
        add(-1, "scenario.max_iters",
            f"max_iters = {reprlib.repr(_plain(s.max_iters))} must be an integer >= 1")

    return sorted(out)


# ---------------------------------------------------------------------------
# JSON scenario files


def _plain(x):
    """A numpy scalar as the Python int or float of the same value (json.dumps
    takes neither np.int64 nor np.float32); any other value as given."""
    return x.item() if isinstance(x, np.generic) else x


def scenario_to_dict(s: Scenario) -> dict:
    def params(p):
        return {f.name: _plain(getattr(p, f.name)) for f in fields(p)}

    return {
        "generators": [params(g) for g in s.generators],
        "consumers": [params(c) for c in s.consumers],
        "graph": {
            "n": _plain(s.graph.n),
            "kinds": [k.value for k in s.graph.node_kind],
            "edges": [[u, v] for u, v in s.graph.edges],
        },
        "weights": {"W": s.weights.W.tolist(), "Q": s.weights.Q.tolist()},
        "eta": _plain(s.eta),
        "eps_m": _plain(s.eps_m),
        "eps_l": _plain(s.eps_l),
        "max_iters": _plain(s.max_iters),
    }


def _exact_int(x):
    """An integral float below 2**63 in magnitude as int; any other value as
    given, for validate_scenario to judge (int() would load 2.5 as 2 and "10"
    as 10). Larger floats stay floats: read_json gives one for an integer
    literal past the 64-bit range, and int() of it would change the number."""
    if isinstance(x, float) and x.is_integer() and abs(x) < 2.0 ** 63:
        return int(x)
    return x


def _real(x):
    """A number (`is_real`) as float; any other value as given, for
    validate_scenario to judge (float() would load "0.002" and true)."""
    return float(x) if is_real(x) else x


def scenario_from_dict(d: dict) -> Scenario:
    generators = tuple(GeneratorParams(**g) for g in d["generators"])
    consumers = tuple(ConsumerParams(**c) for c in d["consumers"])
    gd = d["graph"]
    if isinstance(gd, dict) and "preset" in gd:
        if gd["preset"] != "ring4":
            raise ValueError(f"unknown graph preset {reprlib.repr(gd['preset'])}")
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
    # rendered first: a scenario json.dumps cannot write leaves the file as it was
    text = json_text(scenario_to_dict(s))
    with open(path, "w") as f:
        f.write(text)


MAX_JSON_DEPTH = 1024
# every byte but the quote, the brackets of arrays and objects, the letters
# t, f and n of true, false and null, and the I that starts Infinity, whose
# n, f, n and t are left as "Infnt"
_NOT_SCANNED = bytes(b for b in range(256) if b not in b'"[]{}tfnI')
# a string once only the bytes above are left; one left open runs to the end
_STRING = re.compile(rb'"[^"]*"?')
_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


def _json_scan(data: bytes) -> tuple:
    """(depth, literal_free) of the JSON text `data`: how deeply arrays and
    objects nest, and whether no true, false or null stands outside a string.
    Brackets and letters inside strings are not counted. On invalid text the
    depth is at least the depth a parser reaches before it stops, which reads
    the same tokens up to there; literal_free is exact on every text that
    read_json reads, where only these literals, NaN and Infinity hold letters
    outside strings."""
    if b"\\" in data:
        # escaped backslashes go first, then escaped quotes: the quotes left
        # open and close strings
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    kept = _STRING.sub(b"", data.translate(None, _NOT_SCANNED))
    depth = max(accumulate(map(_STEP.__getitem__, kept.translate(None, b"tfnI")), initial=0))
    letters = kept.translate(None, b"[]{}")
    if b"I" in letters:
        letters = letters.replace(b"Infnt", b"")
    return depth, not letters


def _json_int(literal: str):
    """An integer literal by orjson's rule: an int within [-2**63, 2**64),
    otherwise the float it rounds to, which is +-inf past float range, where
    orjson rejects the text."""
    i = int(literal)
    return i if -(2 ** 63) <= i < 2 ** 64 else float(literal)


def _read_json(path) -> tuple:
    """read_json's value of file `path`, and whether its text holds no true,
    false or null (`_json_scan`), from the one scan before the parse."""
    with open(path, "rb") as f:
        data = f.read()
    depth, literal_free = _json_scan(data)
    if depth > MAX_JSON_DEPTH:
        raise ValueError("JSON nesting too deep to read")
    try:
        return orjson.loads(data), literal_free
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(data.decode("utf-8"), parse_int=_json_int), literal_free
    except RecursionError:
        raise ValueError("JSON nesting too deep to read") from None


def read_json(path):
    """The JSON value in file `path`, which must be UTF-8 without a BOM.

    orjson parses the bytes. Only a text orjson rejects is parsed again by the
    standard library, which also reads what json_text writes for NaN and
    +-inf, numbers past float range (as +-inf) and lone surrogates, and which
    raises the error a reader sees. Both read an integer literal outside
    [-2**63, 2**64) as the float it rounds to, +-inf past float range.
    Arrays and objects nested deeper than MAX_JSON_DEPTH raise ValueError
    before either parser runs (orjson before 3.9.15 recurses without a limit
    and overflows the native stack), as does nesting too deep for the
    standard library's recursion limit.
    """
    return _read_json(path)[0]


# gc.disable() acts on the whole process. The lock makes a load's read of the
# setting and its pause one step, and its resume another, so no load in
# another thread can turn the collector on between a read and a pause
_collector_lock = threading.Lock()


def load_scenario(path) -> Scenario:
    # A parsed file is a tree of lists and dicts, which holds no reference
    # cycle, so pausing the collector defers nothing it could free. Unpaused,
    # its young-generation passes fire while the W and Q rows are built and
    # walk every entry of each young row
    with _collector_lock:
        was_on = gc.isenabled()
        gc.disable()
    try:
        d, literal_free = _read_json(path)
        # without true, false or null in the text, dense W and Q rows convert
        # in one numpy pass that also proves their entries real
        weights = d.get("weights") if literal_free and isinstance(d, dict) else None
        if isinstance(weights, dict):
            for name in ("W", "Q"):
                if name in weights:
                    weights[name] = _literal_free_matrix(weights[name])
        return scenario_from_dict(d)
    finally:
        if was_on:
            with _collector_lock:
                gc.enable()
