"""Shared fixtures and the independent numeric minimizer used as test oracle."""

import math
import struct
from dataclasses import fields

import pytest

from cemasim import ConsumerParams, GeneratorParams, table1_scenario

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_argmin(compare, lo, hi, tol=1e-10):
    """Golden-section search driven by an ordering oracle.

    `compare(x, y)` returns a negative/zero/positive number with the sign of
    f(x) - f(y). Working from order comparisons (computed in a cancellation
    free difference form by the callers) instead of raw objective values keeps
    the bracket meaningful well below the resolution at which f(x) and f(y)
    would round to the same float. Because a concave objective puts its
    minimum at a corner of the box, the bracket result is compared against
    both endpoints; ties resolve to the smaller argument.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    while (b - a) > tol:
        if compare(c, d) <= 0:
            b, d = d, c
            c = b - _INVPHI * (b - a)
        else:
            a, c = c, d
            d = a + _INVPHI * (b - a)
    x = 0.5 * (a + b)
    best = lo
    for cand in (x, hi):
        if compare(cand, best) < 0:
            best = cand
    return best


def generator_original_compare(p: GeneratorParams, lam: float):
    """Ordering of C(P) - lam*P between two points, difference form."""

    def cmp(x, y):
        return (x - y) * (p.a * (x + y) + p.b - lam)

    return cmp


def generator_corrected_compare(p: GeneratorParams, lam: float):
    """Ordering of C(P) - lam*(P - B*P^2) between two points."""

    def cmp(x, y):
        return (x - y) * ((p.a + lam * p.B) * (x + y) + p.b - lam)

    return cmp


def consumer_compare(p: ConsumerParams, lam: float):
    """Ordering of lam*P - U(P), handled per utility branch to avoid the
    cancellation that the saturation-distance form suffers from."""
    sat = p.saturation

    def cmp(x, y):
        if x > y:
            return -cmp(y, x)
        if y <= sat:
            # both on the quadratic branch
            return (x - y) * (lam - p.w + p.alpha * (x + y))
        if x >= sat:
            # both on the flat branch
            return lam * (x - y)
        # straddling: split the difference at the saturation point
        return (x - sat) * (lam - p.w + p.alpha * (x + sat)) + lam * (sat - y)

    return cmp


def reference_csv(scenario, records) -> tuple:
    """(trace CSV, round-summary CSV) bytes of `records` written one row at a
    time with %-templates: the independent reference for trace.csv_sink."""
    kinds = [kind.value.encode() for kind in scenario.graph.node_kind]
    trace = [b"k,node_id,kind,lambda,P,xi\r\n"]
    rounds = [b"k,mismatch,lambda_spread,max_abs_xi\r\n"]
    for rec in records:
        for i, kind in enumerate(kinds):
            trace.append(b"%d,%d,%s,%.17g,%.17g,%.17g\r\n"
                         % (rec.k, i, kind, rec.lam[i], rec.P[i], rec.xi[i]))
        rounds.append(b"%d,%.17g,%.17g,%.17g\r\n"
                      % (rec.k, rec.mismatch, rec.lambda_spread, rec.max_abs_xi))
    return b"".join(trace), b"".join(rounds)


def scenario_bits(s) -> tuple:
    """Every number of a scenario with its type and exact bits."""
    params = [getattr(p, f.name) for p in s.generators + s.consumers for f in fields(p)]
    scalars = params + [s.graph.n, s.eta, s.eps_m, s.eps_l, s.max_iters]
    return ([(type(x), struct.pack("<d", x) if isinstance(x, float) else x) for x in scalars],
            s.graph.edges, s.graph.node_kind, s.weights.W.tobytes(), s.weights.Q.tobytes())


@pytest.fixture(scope="session")
def table1():
    return table1_scenario()
