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

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .best_response import (
    consumer_response,
    generator_response_corrected,
    responses,
    variant_pair,
)
from .scenario import GeneratorParams, Scenario, check_feasibility_condition

DEFAULT_SOLVE_TOL = 1e-9
CERTIFY_TOL = 1e-6  # largest KKT residual that certifies a candidate
ACTIVE_BOUND_TOL = 1e-7
MAX_BRACKET_DOUBLINGS = 60
MAX_BISECT_ITERS = 200
GRID_CHUNK_POINTS = 2**16  # most brute-force grid points evaluated at once
GRID_POINT_BUDGET = 10**8  # most brute-force grid points searched in one call


class InfeasibleScenarioError(ValueError):
    pass


class BracketError(RuntimeError):
    pass


def objective_value(scenario: Scenario, P: np.ndarray) -> float:
    """Total cost minus total utility at a full node-order power vector."""
    total = 0.0
    for params, x in zip(scenario.agents.params, np.asarray(P, dtype=float).tolist(),
                         strict=True):
        total += params.cost(x) if isinstance(params, GeneratorParams) else -params.utility(x)
    return total


def _responses(scenario: Scenario, lam: float) -> np.ndarray:
    return responses(scenario.agents, [lam] * scenario.n_nodes, generator_response_corrected)


def _balance(scenario: Scenario, lam: float) -> float:
    # left-to-right in node order: np.sum's pairwise order would move the bisection
    agents = scenario.agents
    return float(np.cumsum(-agents.sign * agents.net(_responses(scenario, lam)))[-1])


def infeasibility(scenario: Scenario) -> str | None:
    """Why the dispatch problem has no solution, or None when it has one:
    the demand-headroom condition fails, or the consumers' demand floor
    exceeds the generators' maximal net supply."""
    feasible, slack = check_feasibility_condition(scenario)
    if not feasible:
        return f"demand headroom violated: sum_cons p_max - sum_gen (p_min - B*p_max^2) = {slack}"
    max_supply = sum(g.net(g.p_max) for g in scenario.generators)
    min_demand = sum(c.p_min for c in scenario.consumers)
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
    failure to bracket raises.
    """
    tol = DEFAULT_SOLVE_TOL
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
        for g in scenario.generators:
            hi = max(hi, g.loss_adjusted_marginal_cost(g.p_max))
        for c in scenario.consumers:
            hi = max(hi, c.marginal_utility(c.p_min))
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


def kkt_check(P: np.ndarray, lam: float, scenario: Scenario,
              tol: float = CERTIFY_TOL) -> KktReport:
    """Certify a candidate (P, lam) against the first-order conditions.

    Bound multipliers are recovered from complementarity: they are nonzero
    only at active bounds, set to the value that zeroes the stationarity
    expression there, then clamped at zero with any shortfall reported as a
    stationarity residual. Box violations appear as negative primal slack,
    not as errors.
    """
    P = np.asarray(P, dtype=float)
    agents = scenario.agents
    n = scenario.n_nodes
    gamma = np.zeros(n)
    nu = np.zeros(n)
    stationarity = np.zeros(n)
    lower_slack = np.zeros(n)
    upper_slack = np.zeros(n)

    net_supply = 0.0
    demand = 0.0
    net = agents.net(P).tolist()
    for i, (params, Pi) in enumerate(zip(agents.params, P.tolist(), strict=True)):
        if isinstance(params, GeneratorParams):
            # stationarity: C'(P) - lam*(1 - 2BP) - gamma + nu = 0
            expr = params.marginal_cost(Pi) - lam * params.marginal_net(Pi)
            net_supply += net[i]
        else:
            # stationarity: lam - U'(P) - gamma + nu = 0
            expr = lam - params.marginal_utility(Pi)
            demand += Pi
        lower_slack[i] = Pi - params.p_min
        upper_slack[i] = params.p_max - Pi
        at_lower = abs(Pi - params.p_min) <= ACTIVE_BOUND_TOL
        at_upper = abs(Pi - params.p_max) <= ACTIVE_BOUND_TOL
        if at_lower and expr >= 0.0:
            gamma[i] = expr
        elif at_upper and expr <= 0.0:
            nu[i] = -expr
        else:
            stationarity[i] = expr

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
        lam=float(lam),
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
        certified=max_residual <= tol,
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
    return np.array([price(g, x) for g, x in zip(scenario.generators, P_gen.tolist())])


# ---------------------------------------------------------------------------
# independent brute-force reference


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    P: np.ndarray
    objective: float
    grid_step: float


def _demand_curve(scenario: Scenario):
    """Knots of the piecewise-linear aggregate demand as a function of price."""
    knots = {0.0}
    for c in scenario.consumers:
        knots.add(c.marginal_utility(c.p_max))
        knots.add(c.marginal_utility(c.p_min))
    mu = np.array(sorted(knots))
    demand = np.zeros_like(mu)
    for c in scenario.consumers:
        demand += _consumer_response_vec(c, mu)
    return mu, demand


def _consumer_response_vec(c, mu: np.ndarray) -> np.ndarray:
    x = np.where(mu > 0.0, (c.w - mu) / (2.0 * c.alpha), c.saturation)
    return np.clip(x, c.p_min, c.p_max)


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
        r = _consumer_response_vec(c, mu)
        sat = c.saturation
        value += np.where(r <= sat, c.w * r - c.alpha * r * r, c.w * c.w / (4.0 * c.alpha))
    return value


def _axis_grid(lo: float, hi: float, step: float) -> np.ndarray:
    g = lo + step * np.arange(int(np.floor((hi - lo) / step)) + 1)
    if g[-1] < hi:
        g = np.append(g, hi)
    return g


def _axis_points(lo: float, hi: float, step: float) -> float:
    """len(_axis_grid(lo, hi, step)) without building the axis; inf past float range."""
    k = np.floor((hi - lo) / step) + 1.0
    return k + 1.0 if lo + step * (k - 1.0) < hi else k


def _chunk_sum(axes, rows: range, cols: slice) -> np.ndarray:
    """Per-generator grid values summed at one chunk's points, in generator
    order: the leading axes at flat rows `rows` of their product, then the
    last axis at columns `cols`."""
    last = axes[-1][cols]
    if len(axes) == 1:
        return last[None, :]
    lead = np.unravel_index(np.arange(rows.start, rows.stop), [len(a) for a in axes[:-1]])
    total = axes[0][lead[0]]
    for axis, i in zip(axes[1:-1], lead[1:]):
        total = total + axis[i]
    return total[:, None] + last


def brute_force_reference(scenario: Scenario, grid_step: float) -> BruteForceResult:
    """Grid search over generator powers; consumers take the balancing price.

    Feasibility keeps net supply >= the consumer demand floor (the relaxed
    balance as an inequality). Returns the best feasible grid point, ties
    resolved to the lexicographically smallest one. Time grows with the
    product of the generator grids, so at most 3 generators and
    GRID_POINT_BUDGET points are accepted, checked before any allocation;
    memory does not, as at most GRID_CHUNK_POINTS points are evaluated at once.
    """
    if not (1 <= len(scenario.generators) <= 3):
        raise ValueError("brute force supports 1 to 3 generators")
    if (isinstance(grid_step, bool) or not isinstance(grid_step, numbers.Real)
            or not (math.isfinite(grid_step) and grid_step > 0)):
        raise ValueError("grid_step must be a positive finite number")
    points = math.prod(_axis_points(g.p_min, g.p_max, grid_step) for g in scenario.generators)
    if not points <= GRID_POINT_BUDGET:
        raise ValueError(f"grid_step {grid_step} gives {points:.4g} grid points, "
                         f"above the budget of {GRID_POINT_BUDGET:.4g}")

    mu_knots, demand_knots = _demand_curve(scenario)
    demand_floor = sum(c.p_min for c in scenario.consumers)
    grids = [_axis_grid(g.p_min, g.p_max, grid_step) for g in scenario.generators]
    nets = [g.net(grid) for g, grid in zip(scenario.generators, grids)]
    costs = [g.cost(grid) for g, grid in zip(scenario.generators, grids)]

    # a chunk is a contiguous range of C-order flat grid indices: a block of
    # rows of the flattened leading axes times the whole last axis, or, when
    # the last axis alone is over the budget, one row times a block of columns
    n_lead = math.prod(len(g) for g in grids[:-1])
    n_last = len(grids[-1])
    rows = max(1, GRID_CHUNK_POINTS // n_last)
    cols = min(n_last, GRID_CHUNK_POINTS)

    # at or above saturated demand d0 the price is 0, so every such point has
    # one consumer value; evaluating it on [d0] gives the same bits
    d0 = demand_knots[0]
    v_sat = _consumer_allocation_value(scenario, np.array([d0]), mu_knots, demand_knots)[0]
    best_val = np.inf
    best_flat = None
    for r0 in range(0, n_lead, rows):
        for c0 in range(0, n_last, cols):
            chunk = (range(r0, min(r0 + rows, n_lead)), slice(c0, c0 + cols))
            S = _chunk_sum(nets, *chunk)
            base = _chunk_sum(costs, *chunk)
            feasible = S >= demand_floor - 1e-12
            obj = base - v_sat
            low = feasible & (S < d0)
            obj[low] = base[low] - _consumer_allocation_value(scenario, S[low], mu_knots, demand_knots)
            obj[~feasible] = np.inf
            flat = int(np.argmin(obj))
            val = float(obj.flat[flat])
            if val < best_val:
                best_val = val
                best_flat = r0 * n_last + c0 + flat  # the chunk starts at this flat index

    if best_flat is None or not np.isfinite(best_val):
        raise InfeasibleScenarioError("no feasible grid point: demand floor exceeds net supply")
    idx = np.unravel_index(best_flat, [len(g) for g in grids])
    best_gen = [grid[i] for grid, i in zip(grids, idx)]

    # rebuild the full node vector: consumers at the balancing price of the
    # winning supply level
    S_best = sum(g.net(x) for g, x in zip(scenario.generators, best_gen))
    mu = float(_balancing_price(S_best, mu_knots, demand_knots))
    P = np.empty(scenario.n_nodes)
    P[list(scenario.generator_nodes)] = best_gen
    P[list(scenario.consumer_nodes)] = [consumer_response(c, mu) for c in scenario.consumers]
    return BruteForceResult(P=P, objective=best_val, grid_step=grid_step)
