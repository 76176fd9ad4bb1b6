"""Centralized ground truth: price bisection, KKT certification, diagnostics.

The convex dispatch problem minimizes total generation cost minus consumer
utility subject to net supply >= demand and per-agent boxes. Because every
best response is monotone in the price, the aggregate balance function

    g(lam) = sum_gen net(response_corrected(lam)) - sum_cons response(lam)

is nondecreasing, so the optimum is found by bisection on lam >= 0. The KKT
checker certifies arbitrary candidates by recovering bound multipliers from
complementarity and reporting every residual; the brute-force grid search is
the independent cross-check for the bisection route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .best_response import (
    consumer_response_array,
    generator_response_corrected_array,
    variant_pair,
)
from .scenario import GeneratorParams, Scenario, is_real

DEFAULT_SOLVE_TOL = 1e-9
CERTIFY_TOL = 1e-6  # largest KKT residual that certifies a candidate
ACTIVE_BOUND_TOL = 1e-7
MAX_BRACKET_DOUBLINGS = 60
MAX_BISECT_ITERS = 200
GRID_CHUNK_POINTS = 2**14  # most brute-force grid points evaluated at once
GRID_POINT_BUDGET = 10**8  # most brute-force grid points searched in one call


class InfeasibleScenarioError(ValueError):
    pass


class BracketError(RuntimeError):
    pass


def _ordered_sum(x: np.ndarray) -> float:
    """0.0 + x[0] + x[1] + ..., left to right as a loop adds: np.sum's
    pairwise order would move the last bits. Adding 0.0 last turns a sum of
    -0.0s into 0.0, as starting from 0.0 does."""
    return float(np.cumsum(x)[-1]) + 0.0 if x.size else 0.0


def _node_order(scenario: Scenario, gen_values, con_values) -> np.ndarray:
    """One node-order array from its values at the generators and at the
    consumers, each in `AgentView.by_kind` order."""
    (gen_nodes, _), (con_nodes, _) = scenario.agents.by_kind
    out = np.empty(scenario.n_nodes)
    out[gen_nodes] = gen_values
    out[con_nodes] = con_values
    return out


def _node_powers(scenario: Scenario, P) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.shape != (scenario.n_nodes,):
        raise ValueError(f"expected {scenario.n_nodes} node powers, got shape {P.shape}")
    return P


def objective_value(scenario: Scenario, P: np.ndarray) -> float:
    """Total cost minus total utility at a full node-order power vector."""
    P = _node_powers(scenario, P)
    (gen_nodes, gens), (con_nodes, cons) = scenario.agents.by_kind
    return _ordered_sum(_node_order(scenario, gens.cost(P[gen_nodes]), -cons.utility(P[con_nodes])))


def _responses(scenario: Scenario, lam: float) -> np.ndarray:
    """Node-order best responses of the corrected problem at the one price lam >= 0."""
    (_, gens), (_, cons) = scenario.agents.by_kind
    return _node_order(scenario, generator_response_corrected_array(gens, lam),
                       consumer_response_array(cons, lam))


def _balance(scenario: Scenario, lam: float) -> float:
    agents = scenario.agents
    return _ordered_sum(-agents.sign * agents.net(_responses(scenario, lam)))


def check_feasibility_condition(scenario: Scenario) -> tuple:
    """(holds, slack) of the demand headroom sum_cons p_max >= sum_gen (p_min -
    B*p_max^2), slack = LHS - RHS. When it holds, the inequality-relaxed
    balance shares its optimum with the equality form."""
    (_, gens), (_, cons) = scenario.agents.by_kind
    slack = _ordered_sum(cons.p_max) - _ordered_sum(gens.p_min - gens.B * gens.p_max * gens.p_max)
    return slack >= 0.0, slack


def infeasibility(scenario: Scenario) -> str | None:
    """Why the dispatch problem has no solution, or None when it has one:
    the demand-headroom condition fails, or the consumers' demand floor
    exceeds the generators' maximal net supply."""
    feasible, slack = check_feasibility_condition(scenario)
    if not feasible:
        return f"demand headroom violated: sum_cons p_max - sum_gen (p_min - B*p_max^2) = {slack}"
    (_, gens), (_, cons) = scenario.agents.by_kind
    max_supply = _ordered_sum(gens.net(gens.p_max))
    min_demand = _ordered_sum(cons.p_min)
    if max_supply < min_demand:
        return f"demand floor {min_demand} exceeds maximal net supply {max_supply}"
    return None


@dataclass(frozen=True, eq=False)
class CentralSolution:
    lam: float
    P: np.ndarray
    objective: float
    balance_residual: float
    bracket_width: float
    iterations: int


def solve_centralized(scenario: Scenario) -> CentralSolution:
    """Solve the relaxed dispatch problem by bisection on the balance price.

    Returns the full node-order power vector and the price. The slack-balance
    case (net supply covers peak demand at zero price) returns lam = 0
    without bisection. Bisection terminates only when both |g(lam)| <= tol and
    the bracket width is <= tol*max(1, lam), with tol = DEFAULT_SOLVE_TOL;
    failure to bracket raises, and so does a generator with a <= 0 or B < 0.
    """
    tol = DEFAULT_SOLVE_TOL
    # the array-form responses hold only where a + lam*B > 0 at every lam >= 0
    (_, gens), (_, cons) = scenario.agents.by_kind
    if not ((gens.a > 0.0).all() and (gens.B >= 0.0).all()):
        raise ValueError("solve_centralized needs a > 0 and B >= 0 for every generator")
    reason = infeasibility(scenario)
    if reason is not None:
        raise InfeasibleScenarioError(reason)

    # slack balance, g(0) >= 0: net supply covers peak demand at price 0,
    # so lam = 0 with no bracket and no bisection. Either way the price
    # reported is hi, the bracket's upper end, where g(hi) >= 0
    lo = hi = 0.0
    g_hi = _balance(scenario, hi)
    iterations = 0
    if g_hi < 0.0:
        hi = float(max(gens.loss_adjusted_marginal_cost(gens.p_max).max(initial=0.0),
                       cons.marginal_utility(cons.p_min).max(initial=0.0)))
        if hi <= 0.0:
            hi = 1.0
        doublings = 0
        g_hi = _balance(scenario, hi)
        while g_hi < 0.0:
            hi *= 2.0
            doublings += 1
            if doublings > MAX_BRACKET_DOUBLINGS:
                raise BracketError(f"could not bracket the balance price; g({hi}) < 0")
            g_hi = _balance(scenario, hi)

        while iterations < MAX_BISECT_ITERS:
            mid = 0.5 * (lo + hi)
            g_mid = _balance(scenario, mid)
            if g_mid >= 0.0:
                hi, g_hi = mid, g_mid
            else:
                lo = mid
            iterations += 1
            if abs(g_hi) <= tol and (hi - lo) <= tol * max(1.0, hi):
                break
            if hi - lo <= np.finfo(float).eps * max(1.0, hi):
                break
        else:
            raise BracketError("bisection failed to reach the requested tolerance")
        if abs(g_hi) > tol:
            raise BracketError(
                f"bisection stalled: |g(lam)| = {abs(g_hi)} > tol = {tol} at lam = {hi}"
            )

    P = _responses(scenario, hi)
    return CentralSolution(
        lam=hi,
        P=P,
        objective=objective_value(scenario, P),
        balance_residual=g_hi,
        bracket_width=hi - lo,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# KKT certification


@dataclass(frozen=True, eq=False)
class KktReport:
    """Residuals of the first-order optimality system with recovered bound
    multipliers. All pathologies show up as residuals, never as exceptions."""

    lam: float
    gamma: np.ndarray
    nu: np.ndarray
    stationarity: np.ndarray
    balance_complementarity: float
    lower_complementarity: np.ndarray
    upper_complementarity: np.ndarray
    balance_slack: float
    lower_slack: np.ndarray
    upper_slack: np.ndarray
    max_residual: float
    certified: bool
    tol: float = field(default=0.0)

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "gamma": self.gamma.tolist(),
            "nu": self.nu.tolist(),
            "stationarity": self.stationarity.tolist(),
            "complementarity": {
                "balance": self.balance_complementarity,
                "lower": self.lower_complementarity.tolist(),
                "upper": self.upper_complementarity.tolist(),
            },
            "primal_feasibility": {
                "balance_slack": self.balance_slack,
                "lower_slack": self.lower_slack.tolist(),
                "upper_slack": self.upper_slack.tolist(),
            },
            "max_residual": self.max_residual,
            "certified": self.certified,
            "tol": self.tol,
        }


# a non-finite or huge candidate overflows or meets inf - inf: the report
# carries the inf and NaN residuals, and no warning escapes
@np.errstate(over="ignore", invalid="ignore")
def kkt_check(P: np.ndarray, lam: float, scenario: Scenario,
              tol: float = CERTIFY_TOL) -> KktReport:
    """Certify a candidate (P, lam) against the first-order conditions.

    Bound multipliers are recovered from complementarity: they are nonzero
    only at active bounds, set to the value that zeroes the stationarity
    expression there, then clamped at zero with any shortfall reported as a
    stationarity residual. Box violations appear as negative primal slack,
    not as errors.
    """
    P = _node_powers(scenario, P)
    if not is_real(lam):  # float() would take "1e-3", True and Fraction(1)
        raise ValueError(f"lambda {lam!r} is not a number")
    lam = float(lam)
    (gen_nodes, gens), (con_nodes, cons) = scenario.agents.by_kind
    P_gen, P_con = P[gen_nodes], P[con_nodes]
    # stationarity: C'(P) - lam*(1 - 2BP) - gamma + nu = 0 for a generator,
    # lam - U'(P) - gamma + nu = 0 for a consumer
    expr = _node_order(scenario, gens.marginal_cost(P_gen) - lam * gens.marginal_net(P_gen),
                       lam - cons.marginal_utility(P_con))
    lower_slack = P - _node_order(scenario, gens.p_min, cons.p_min)
    upper_slack = _node_order(scenario, gens.p_max, cons.p_max) - P
    lower = (np.abs(lower_slack) <= ACTIVE_BOUND_TOL) & (expr >= 0.0)
    upper = ~lower & (np.abs(upper_slack) <= ACTIVE_BOUND_TOL) & (expr <= 0.0)
    gamma = np.where(lower, expr, 0.0)
    nu = np.where(upper, -expr, 0.0)
    stationarity = np.where(lower | upper, 0.0, expr)

    net_supply = _ordered_sum(gens.net(P_gen))
    demand = _ordered_sum(P_con)
    balance_slack = net_supply - demand
    balance_complementarity = lam * (demand - net_supply)
    lower_complementarity = np.abs(gamma * lower_slack)
    upper_complementarity = np.abs(nu * upper_slack)

    residuals = [
        float(np.abs(stationarity).max(initial=0.0)),
        abs(balance_complementarity),
        float(lower_complementarity.max(initial=0.0)),
        float(upper_complementarity.max(initial=0.0)),
        max(0.0, -balance_slack),
        float(np.maximum(-lower_slack, 0.0).max(initial=0.0)),
        float(np.maximum(-upper_slack, 0.0).max(initial=0.0)),
        max(0.0, -lam),
    ]
    # Python's max keeps a NaN only when it comes first; any NaN residual
    # must make the maximum NaN so that the candidate cannot certify
    max_residual = math.nan if any(map(math.isnan, residuals)) else max(residuals)
    return KktReport(
        lam=lam,
        gamma=gamma,
        nu=nu,
        stationarity=stationarity,
        balance_complementarity=balance_complementarity,
        lower_complementarity=lower_complementarity,
        upper_complementarity=upper_complementarity,
        balance_slack=balance_slack,
        lower_slack=lower_slack,
        upper_slack=upper_slack,
        max_residual=max_residual,
        certified=bool(max_residual <= tol),
        tol=tol,
    )


def implied_prices(P_gen, scenario: Scenario, variant: str) -> np.ndarray:
    """Per-generator price each variant's stationarity implies at powers P_gen,
    the second entry of `variant_pair`.

    At a true optimum the corrected values of interior generators coincide;
    the original values generally cannot, which is the contradiction this
    toolkit reproduces.
    """
    P_gen = np.asarray(P_gen, dtype=float)
    if P_gen.size != len(scenario.generators):
        raise ValueError("expected one power per generator")
    _, price = variant_pair(variant)
    return price(scenario.agents.by_kind[0][1], P_gen)


# ---------------------------------------------------------------------------
# independent brute-force reference


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    P: np.ndarray
    objective: float
    grid_step: float


def _demand_curve(scenario: Scenario):
    """Knots of the piecewise-linear aggregate demand as a function of price."""
    cons = scenario.agents.by_kind[1][1]
    mu = np.unique(np.concatenate(
        ([0.0], cons.marginal_utility(cons.p_max), cons.marginal_utility(cons.p_min))))
    demand = np.zeros_like(mu)
    for c in scenario.consumers:
        demand += consumer_response_array(c, mu)
    return mu, demand


def _balancing_price(S, mu_knots, demand_knots):
    """Price at which aggregate demand meets net supply S: 0 at or above
    saturated demand d0, else the inverse of the demand curve, which is exact
    between knots because demand is nonincreasing piecewise-linear in price."""
    return np.where(S >= demand_knots[0], 0.0, np.interp(S, demand_knots[::-1], mu_knots[::-1]))


def _consumer_allocation_value(scenario: Scenario, S: np.ndarray, mu_knots, demand_knots):
    """Best total utility given net supply S: consumers take the balancing price."""
    mu = _balancing_price(S, mu_knots, demand_knots)
    value = np.zeros_like(S)
    for c in scenario.consumers:
        value += c.utility(consumer_response_array(c, mu))
    return value


def _axis_steps(lo: float, hi: float, step: float) -> float:
    """The axis from lo to hi is lo + step*i for i below this count, then hi
    when those points fall short of it; inf past float range."""
    return np.floor((hi - lo) / step) + 1.0


def _axis_points(lo: float, hi: float, step: float) -> float:
    """The axis's point count, without building the axis; inf past float range."""
    k = _axis_steps(lo, hi, step)
    return k + 1.0 if lo + step * (k - 1.0) < hi else k


def _axis_values(lo: float, hi: float, step: float, i: np.ndarray) -> np.ndarray:
    """The axis's points at indices i, without building the axis."""
    return np.where(i < _axis_steps(lo, hi, step), lo + step * i, hi)


def _grid_values(g: GeneratorParams, step: float, i: np.ndarray) -> tuple:
    """(net, cost) of generator g at points i of its axis."""
    x = _axis_values(g.p_min, g.p_max, step, i)
    return g.net(x), g.cost(x)


def _nondecreasing_from(values, n: int) -> int:
    """The least index h from which an axis's net and cost are both
    non-decreasing, found on the values themselves, GRID_CHUNK_POINTS at a
    time: a negative b makes the cost fall at first."""
    h = 0
    for c0 in range(1, n, GRID_CHUNK_POINTS):
        net, cost = values(np.arange(c0 - 1, min(c0 + GRID_CHUNK_POINTS, n)))
        down = np.flatnonzero((net[1:] < net[:-1]) | (cost[1:] < cost[:-1]))
        if down.size:
            h = c0 + int(down[-1])
    return h


def _first_at_least(lead, values, start: np.ndarray, n: int, t: float) -> np.ndarray:
    """Per row, the first column j >= start of the last axis whose supply,
    the row's leading sum (None: no leading axis) plus the axis's net at j,
    is >= t, or n when none is. A binary search on the supply the grid
    forms, exact because that sum is non-decreasing in j from start on."""
    below = start - 1  # the last column known to be < t, or start - 1
    step = 1 << int((n - start).max()).bit_length() >> 1
    while step:
        j = below + step
        net = values(np.minimum(j, n - 1))[0]
        S = net if lead is None else lead + net
        below = np.where((j < n) & (S < t), j, below)
        step >>= 1
    return below + 1


def _windows(starts: np.ndarray, ends: np.ndarray, size: int):
    """(window, column) index arrays of at most `size` points that walk the
    columns [starts[w], ends[w]) of every window w in turn."""
    lengths = ends - starts
    stops = np.cumsum(lengths)
    total = int(stops[-1])
    for p0 in range(0, total, size):
        p1 = min(p0 + size, total)
        w0 = int(np.searchsorted(stops, p0, side="right"))
        w1 = int(np.searchsorted(stops, p1 - 1, side="right")) + 1
        firsts = stops[w0:w1] - lengths[w0:w1]  # each window's first point in the walk
        take = np.minimum(stops[w0:w1], p1) - np.maximum(firsts, p0)
        yield (np.repeat(np.arange(w0, w1), take),
               np.arange(p0, p1) + np.repeat(starts[w0:w1] - firsts, take))


def brute_force_reference(scenario: Scenario, grid_step: float) -> BruteForceResult:
    """Grid search over generator powers; consumers take the balancing price.

    Feasibility keeps net supply >= the consumer demand floor (the relaxed
    balance as an inequality). Returns the best feasible grid point, ties
    resolved to the lexicographically smallest one. At most 3 generators and
    GRID_POINT_BUDGET points are accepted, checked before any allocation.

    The grid is a matrix of the flattened leading axes by the last axis,
    whose net and cost are non-decreasing from some column h on. Adding a
    row's fixed leading sum rounds monotonically, so along each row's tail
    [h, n) the supply and, at or above saturated demand, the objective are
    non-decreasing too. A binary search finds each row's first feasible and
    first saturated tail columns; every point of the head [0, h) and of the
    tail between the two is evaluated, and of the saturated tail only its
    first point, which no later point beats or ties at a smaller index. At
    most GRID_CHUNK_POINTS points and half as many rows are handled at
    once, and no axis is built whole, so memory does not grow with the grid.
    """
    if not (1 <= len(scenario.generators) <= 3):
        raise ValueError("brute force supports 1 to 3 generators")
    if not (is_real(grid_step) and math.isfinite(grid_step) and grid_step > 0):
        raise ValueError("grid_step must be a positive finite number")
    grid_step = float(grid_step)
    gens = scenario.generators
    counts = [_axis_points(g.p_min, g.p_max, grid_step) for g in gens]
    points = math.prod(counts)
    if not points <= GRID_POINT_BUDGET:
        raise ValueError(f"grid_step {grid_step} gives {points:.4g} grid points, "
                         f"above the budget of {GRID_POINT_BUDGET:.4g}")
    shape = [int(n) for n in counts]

    (_, gen_arrays), (_, cons) = scenario.agents.by_kind
    mu_knots, demand_knots = _demand_curve(scenario)
    feasible_at = _ordered_sum(cons.p_min) - 1e-12
    # saturated and feasible; at or above saturated demand the price is 0,
    # so every such point has one consumer value
    saturated_at = max(feasible_at, demand_knots[0])

    n_lead, n_last = math.prod(shape[:-1]), shape[-1]
    # each axis's (net, cost) is tabulated once when the axis fits a chunk,
    # and evaluated at the indices asked for when it does not
    tables = [_grid_values(g, grid_step, np.arange(n)) if n <= GRID_CHUNK_POINTS else None
              for g, n in zip(gens, shape)]

    def values(k, i):
        return (tables[k][0][i], tables[k][1][i]) if tables[k] else _grid_values(gens[k], grid_step, i)

    def last(i):
        return values(-1, i)

    h = _nondecreasing_from(last, n_last)
    # the objective of one piece, and with leading axes its supply and cost,
    # are written with out= into buffers allocated once per call, so the time
    # does not depend on how the allocator reuses freed pieces; a short piece
    # uses their leading part
    size = min(GRID_CHUNK_POINTS, n_lead * n_last)
    S_buf, base_buf, obj_buf = np.empty(size), np.empty(size), np.empty(size)
    best_val = np.inf
    best_flat = None
    # a row has two windows, so a block of half a chunk's rows keeps the
    # window arrays, the longest a block holds, at a chunk's length
    block = GRID_CHUNK_POINTS // 2
    for r0 in range(0, n_lead, block):
        rows = np.arange(r0, min(r0 + block, n_lead))
        lead_net = lead_cost = None  # one generator: no leading axis
        if len(gens) > 1:
            # the leading values summed in generator order, the last axis
            # added last: the additions the whole-grid sum makes. A running
            # sum, so no axis's values outlive their addition
            lead_net, lead_cost = functools.reduce(
                lambda acc, term: (acc[0] + term[0], acc[1] + term[1]),
                (values(k, i) for k, i in enumerate(np.unravel_index(rows, shape[:-1]))))
        first_feasible = _first_at_least(lead_net, last, np.full(rows.size, h), n_last, feasible_at)
        first_saturated = _first_at_least(lead_net, last, first_feasible, n_last, saturated_at)
        # two windows a row, in flat order: its head [0, h), then its tail
        # from the first feasible point through the first saturated one
        starts = np.stack([np.zeros_like(rows), first_feasible], axis=1).ravel()
        ends = np.stack([np.full_like(rows, h), np.minimum(first_saturated + 1, n_last)], axis=1).ravel()
        for window, cols in _windows(starts, ends, GRID_CHUNK_POINTS):
            net, cost = last(cols)
            S, base, obj = S_buf[:cols.size], base_buf[:cols.size], obj_buf[:cols.size]
            if lead_net is None:
                S, base = net, cost
            else:
                row = window // 2
                np.add(lead_net[row], net, out=S)
                np.add(lead_cost[row], cost, out=base)
            # at or above saturated demand the value is the saturated one,
            # bit for bit: the balancing price there is 0
            np.subtract(base, _consumer_allocation_value(scenario, S, mu_knots, demand_knots), out=obj)
            obj[S < feasible_at] = np.inf
            k = int(np.argmin(obj))
            # the pieces walk the grid in ascending flat order, so a strict
            # < keeps the first of equal points
            if obj[k] < best_val:
                best_val = float(obj[k])
                best_flat = (r0 + int(window[k]) // 2) * n_last + int(cols[k])

    if best_flat is None or not np.isfinite(best_val):
        raise InfeasibleScenarioError("no feasible grid point: demand floor exceeds net supply")
    idx = np.unravel_index(best_flat, shape)
    best_gen = np.array([_axis_values(g.p_min, g.p_max, grid_step, i) for g, i in zip(gens, idx)])

    # rebuild the full node vector: consumers at the balancing price (>= 0)
    # of the winning supply level
    mu = float(_balancing_price(_ordered_sum(gen_arrays.net(best_gen)), mu_knots, demand_knots))
    P = _node_order(scenario, best_gen, consumer_response_array(cons, mu))
    return BruteForceResult(P=P, objective=best_val, grid_step=grid_step)
