"""Command-line entry point.

Subcommands and exit codes:

  run             execute one or both variants, write trace CSVs + reports
                  (0 all by-tolerance, 1 bad input, 2 diverged/iteration cap);
                  `--variant both` runs `original` in a forked child at the
                  same time, on Linux with two usable CPUs and at least
                  FORK_MIN_NODES nodes
  solve           centralized optimum + self-certification
                  (0 certified, 1 bad input, 2 infeasible or not certified)
  kkt             certify a candidate point, JSON report
                  (0 certified, 1 bad input, 2 residual above tolerance)
  counterexample  run both variants + oracle, check that the original update
                  provably misses the optimum while the corrected one hits it
                  (0 contradiction exhibited, 1 bad input, 2 a variant failed
                  to converge, 3 no contradiction / variants coincide)
  gen-scenario    write a random valid, feasible scenario (0 ok, 1 bad input)
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import math
import os
import pickle
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import engine, oracle, verdict
from .presets import TABLE1_REFERENCE_DISPATCH, random_scenario, table1_scenario
from .scenario import (
    Scenario,
    json_text,
    load_scenario,
    read_json,
    real_array,
    save_scenario,
    validate_scenario,
)

# what reading a scenario or candidate file can raise (a JSON syntax error
# is a ValueError): each is bad input, reported without a traceback
READ_ERRORS = (OSError, ValueError, KeyError, TypeError)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_NO_CONTRADICTION = 3


class BadInput(Exception):
    """Input a command cannot use: `main` prints the message to stderr and
    returns EXIT_BAD_INPUT."""


@contextmanager
def _bad_input(errors, prefix: str):
    """Reraises any of `errors` raised inside as BadInput(prefix + message)."""
    try:
        yield
    except errors as exc:
        raise BadInput(f"{prefix}{exc}") from exc


def _writing(path: str):
    """Reports an OSError raised inside as `cannot write <path>: …`."""
    return _bad_input(OSError, f"cannot write {path!r}: ")


def _read_scenario(path: str) -> Scenario:
    with _bad_input(READ_ERRORS, f"cannot read scenario {path!r}: "):
        return load_scenario(path)


def _read_candidate(path: str) -> tuple:
    """(P, lambda) of a candidate file {"P": [...], "lambda": x}, whose numbers
    follow the type rule of scenario files."""
    with _bad_input(READ_ERRORS, f"cannot read candidate {path!r}: "):
        cand = read_json(path)
        return real_array(cand["P"], "P", 1), float(real_array(cand["lambda"], "lambda", 0))


def _reject(violations) -> None:
    """Raises BadInput with one line per violation, if there are any."""
    if violations:
        raise BadInput("\n".join(
            f"invalid scenario: node={v.node} rule={v.rule}: {v.message}" for v in violations))


def _load(path: str) -> Scenario:
    """The scenario in file `path`, which must validate."""
    scenario = _read_scenario(path)
    _reject(validate_scenario(scenario))
    return scenario


def _run_variant(scenario: Scenario, variant: str, output_dir: str, trace_stride: int) -> dict:
    """Runs one variant, writes its trace_, rounds_ and report_ files into
    `output_dir`; returns the run summary."""
    # imported here: a process that writes no trace never compiles it
    from . import trace

    out_dir = Path(output_dir)
    # the kept rounds' rows are written, a block of rounds at a time, while
    # the engine runs
    with (_writing(output_dir),
          open(out_dir / f"trace_{variant}.csv", "wb") as trace_file,
          open(out_dir / f"rounds_{variant}.csv", "wb") as rounds_file,
          trace.csv_sink(scenario, trace_file, rounds_file) as sink):
        result = engine.run(scenario, variant, trace_stride=trace_stride, sink=sink)
    summary = verdict.run_summary(scenario, result)
    with _writing(output_dir):
        (out_dir / f"report_{variant}.json").write_text(json_text(summary))
    return summary


# `run --variant both` runs its two variants at once, `original` in a forked
# child, only on scenarios with at least this many nodes. The node count
# stands in for the run's length, which is not known before the run. A fork
# costs about 5 ms, and the parent then takes a write fault on each page it
# touches. The latest re-sweep on 2 vCPUs (CHANGES.md) shows that the node
# count misclassifies short and long runs: on the 4-node table1 (538 rounds
# over both variants) the forked/serial time ratio has quartiles
# 0.70/1.28/1.39, so the fork mostly loses, while a 4-node ring with a longer
# run gains from it (median ratio 0.73, forked faster in 10 of 12 pairs).
# Deciding on the predicted work instead is ROADMAP item 1(f).
FORK_MIN_NODES = 6


def _runs_forked(scenario: Scenario) -> bool:
    """Whether `run --variant both` forks: on Linux (which has os.fork,
    os.sched_getaffinity and prctl), with at least two usable CPUs, on a
    scenario of at least FORK_MIN_NODES nodes."""
    return (sys.platform == "linux" and scenario.n_nodes >= FORK_MIN_NODES
            and len(os.sched_getaffinity(0)) >= 2)


PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


def _die_with_parent(parent_pid: int) -> None:
    """Has the kernel kill this process when its parent dies: a parent
    killed by a signal runs no cleanup, and its orphaned child would finish
    its run alone."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent_pid:
        os._exit(1)  # the parent died before the request


def _forked(child_fn, parent_fn) -> tuple:
    """(child_fn(), parent_fn()), where child_fn runs in a forked child
    process while parent_fn runs in this one. An exception from either is
    raised here, and one from parent_fn kills the child. The child's result
    or exception comes back pickled through a pipe, so it must pickle."""
    parent_pid = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child leaves through os._exit whatever happens: it runs no
        # atexit hook and never flushes the stdio buffers it inherited
        status = 1
        try:
            _die_with_parent(parent_pid)
            os.close(read_fd)
            try:
                outcome = (True, child_fn())
            except BaseException as exc:
                outcome = (False, exc)
            data = pickle.dumps(outcome)
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)

    try:
        os.close(write_fd)
        with open(read_fd, "rb") as pipe:
            mine = parent_fn()
            # read to EOF before waiting: a result larger than the pipe
            # buffer blocks the child until it is read
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, wait_status = os.waitpid(pid, 0)
    if wait_status != 0:
        code = os.waitstatus_to_exitcode(wait_status)
        raise ChildProcessError(f"forked process {pid} exited with code {code} and no result")
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return theirs, mine


def cmd_run(args) -> int:
    if args.trace_stride < 1:
        raise BadInput("--trace-stride must be >= 1")
    scenario = _load(args.scenario)
    overrides = {}
    for name in ("eta", "eps_m", "eps_l", "max_iters"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
        violations = validate_scenario(scenario)
        if violations:
            raise BadInput("\n".join(f"invalid override: {v.message}" for v in violations))

    with _writing(args.output_dir):
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)
    run_variant = functools.partial(_run_variant, scenario, output_dir=args.output_dir,
                                    trace_stride=args.trace_stride)
    if args.variant != "both":
        summaries = [run_variant(args.variant)]
    elif _runs_forked(scenario):
        # the first variant in the child, the second here
        summaries = _forked(*(functools.partial(run_variant, v) for v in engine.VARIANTS))
    else:
        summaries = [run_variant(v) for v in engine.VARIANTS]
    # printed after every run, in variant order, on either path
    for summary in summaries:
        print(
            f"[{summary['variant']}] terminated={summary['terminated']} "
            f"rounds={summary['rounds']} mismatch={summary['mismatch']:.3e} "
            f"lambda_spread={summary['lambda_spread']:.3e}"
        )
        for i, lam in enumerate(summary["final_lambda"]):
            print(f"  node {i}: lambda={lam:.9g} P={summary['final_P'][i]:.9g}")
        if summary["implied_prices_disagree"]:
            print(
                "  warning: implied generator prices disagree "
                f"(loss-adjusted spread {summary['implied_price_spread_corrected']:.4g}); "
                "fixed point is not optimal"
            )
    if any(s["terminated"] != engine.TERMINATED_BY_TOLERANCE for s in summaries):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_solve(args) -> int:
    scenario = _load(args.scenario)
    try:
        sol = oracle.solve_centralized(scenario)
    except oracle.InfeasibleScenarioError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except oracle.BracketError as exc:
        print(f"bisection failure: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    report = oracle.kkt_check(sol.P, sol.lam, scenario)
    print(f"lambda* = {sol.lam:.9g}")
    for i, p in enumerate(sol.P):
        kind = scenario.graph.node_kind[i].value
        print(f"  node {i} ({kind}): P* = {p:.9g}")
    print(f"objective = {sol.objective:.9g}")
    print(f"balance residual = {sol.balance_residual:.3e} bracket width = {sol.bracket_width:.3e}")
    print(f"kkt max residual = {report.max_residual:.3e}")
    return EXIT_OK if report.certified else EXIT_NOT_CONVERGED


def cmd_kkt(args) -> int:
    # NaN would certify nothing and print as invalid JSON, inf everything
    if not 0 <= args.tol < math.inf:
        raise BadInput("--tol must be a finite number >= 0")
    scenario = _load(args.scenario)
    if args.candidate:
        P, lam = _read_candidate(args.candidate)
        if P.size != scenario.n_nodes:
            raise BadInput(f"candidate has {P.size} powers for {scenario.n_nodes} nodes")
    else:
        with _bad_input((oracle.InfeasibleScenarioError, oracle.BracketError),
                        "no candidate given and solve failed: "):
            sol = oracle.solve_centralized(scenario)
        P, lam = sol.P, sol.lam
    report = oracle.kkt_check(P, lam, scenario, tol=args.tol)
    text = json_text(report.to_dict())
    if args.output:
        with _writing(args.output):
            Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK if report.certified else EXIT_NOT_CONVERGED


def _counterexample_text(payload: dict) -> str:
    lines = ["counterexample report", "====================="]
    if payload.get("coincide"):
        lines.append("all loss coefficients are zero: the two generator updates")
        lines.append("coincide; no contradiction to exhibit.")
        return "\n".join(lines) + "\n"
    o = payload["oracle"]
    lines.append(f"centralized optimum: lambda* = {o['lambda']:.6f}")
    lines.append(f"  P* = {np.array(o['P']).round(4).tolist()}")
    lines.append(f"  objective = {o['objective']:.6f}, kkt residual = {o['kkt_max_residual']:.3e}")
    if "reference_dispatch" in payload:
        ref = payload["reference_dispatch"]
        lines.append(f"reference dispatch {ref['P']}:")
        lines.append(
            f"  implied prices (original update): {[round(x, 2) for x in ref['implied_prices_original']]}"
        )
    ip = payload["implied_prices_at_oracle_optimum"]
    lines.append("implied generator prices at the optimum:")
    lines.append(f"  original update:  {np.array(ip['original']).round(4).tolist()}")
    lines.append(f"  corrected update: {np.array(ip['corrected']).round(4).tolist()}")
    lines.append(
        f"  original spread = {payload['original_price_spread_at_optimum']:.4f} "
        "(equal prices are necessary for the original update to be optimal)"
    )
    for variant, v in payload["variants"].items():
        lines.append(f"{variant} fixed point: terminated {v['terminated']} after {v['rounds']} rounds")
        if v["terminated"] == engine.TERMINATED_BY_TOLERANCE:
            lines.append(
                f"  lambda = {v['lambda_consensus']:.6f}, P = {np.array(v['final_P']).round(4).tolist()}"
            )
            lines.append(
                f"  kkt max residual = {v['kkt_max_residual']:.3e}, "
                f"generator stationarity residuals = "
                f"{[round(x, 5) for x in v['kkt_generator_stationarity']]}"
            )
    if "contradiction_exhibited" in payload:
        lines.append(
            "contradiction exhibited: " + ("yes" if payload["contradiction_exhibited"] else "no")
        )
    return "\n".join(lines) + "\n"


def cmd_counterexample(args) -> int:
    scenario = _read_scenario(args.scenario) if args.scenario else table1_scenario()

    # with no transmission losses anywhere the two updates are identical and
    # there is nothing to contradict; B = 0 is then the one violation let pass
    violations = validate_scenario(scenario)
    lossless = all(g.B == 0 for g in scenario.generators)
    if not (lossless and all(v.rule == "gen.B_positive" for v in violations)):
        _reject(violations)
    if lossless:
        payload, status = {"coincide": True}, EXIT_NO_CONTRADICTION
    else:
        with _bad_input((oracle.InfeasibleScenarioError, oracle.BracketError),
                        "centralized solve failed: "):
            payload = verdict.counterexample(scenario)
        # no verdict when a variant did not converge
        status = {True: EXIT_OK, False: EXIT_NO_CONTRADICTION}.get(
            payload.get("contradiction_exhibited"), EXIT_NOT_CONVERGED)

    if args.scenario is None:
        # the builtin benchmark carries a published two-decimal dispatch;
        # evaluate the original update's implied prices right at it
        ref = list(TABLE1_REFERENCE_DISPATCH)
        payload["reference_dispatch"] = {"P": ref} | verdict.implied_price_lists(scenario, np.array(ref))

    text = _counterexample_text(payload)
    if args.report:
        path = Path(args.report)
        sidecar = path.with_suffix(".json")
        if sidecar == path:
            sidecar = path.with_name(path.name + ".sidecar.json")
        with _writing(args.report):
            path.write_text(text)
            sidecar.write_text(json_text(payload))
    else:
        print(text, end="")
    if status == EXIT_NOT_CONVERGED:
        print("a variant failed to converge; see report", file=sys.stderr)
    return status


def cmd_gen_scenario(args) -> int:
    with _bad_input((ValueError, RuntimeError), ""):
        scenario = random_scenario(args.seed, args.generators, args.consumers)
    with _writing(args.output):
        save_scenario(scenario, args.output)
    print(f"wrote scenario with {args.generators} generators / {args.consumers} consumers "
          f"(eta = {scenario.eta:.6g}) to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cemasim",
        description="consensus-based energy management: simulator, oracle, verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the consensus iteration")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--variant", choices=[*engine.VARIANTS, "both"], default="corrected")
    p_run.add_argument("--output-dir", default=".", help="directory for traces and reports")
    p_run.add_argument("--trace-stride", type=int, default=1)
    p_run.add_argument("--eta", type=float, default=None, help="override the scenario gain")
    p_run.add_argument("--eps-m", dest="eps_m", type=float, default=None)
    p_run.add_argument("--eps-l", dest="eps_l", type=float, default=None)
    p_run.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_solve = sub.add_parser("solve", help="centralized optimum by price bisection")
    p_solve.add_argument("--scenario", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_kkt = sub.add_parser("kkt", help="first-order certification of a candidate")
    p_kkt.add_argument("--scenario", required=True)
    p_kkt.add_argument("--candidate", default=None,
                       help='JSON file {"P": [...], "lambda": x}; defaults to the solve result')
    p_kkt.add_argument("--tol", type=float, default=oracle.CERTIFY_TOL)
    p_kkt.add_argument("--output", default=None, help="write the JSON report here")
    p_kkt.set_defaults(func=cmd_kkt)

    p_cx = sub.add_parser("counterexample", help="reproduce the optimality contradiction")
    p_cx.add_argument("--scenario", default=None, help="defaults to the builtin table1 benchmark")
    p_cx.add_argument("--report", default=None,
                      help="write the text report here (JSON sidecar alongside)")
    p_cx.set_defaults(func=cmd_counterexample)

    p_gen = sub.add_parser("gen-scenario", help="emit a random valid feasible scenario")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--generators", type=int, default=2)
    p_gen.add_argument("--consumers", type=int, default=2)
    p_gen.add_argument("--output", required=True)
    p_gen.set_defaults(func=cmd_gen_scenario)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args starts every call from a fresh
    # namespace filled from the defaults, so no option leaks between calls
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BadInput as exc:
        print(exc, file=sys.stderr)
        return EXIT_BAD_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
