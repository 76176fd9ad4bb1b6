"""Command-line entry point.

Subcommands and exit codes:

  run             execute one or both variants, write trace CSVs + reports
                  (0 all by-tolerance, 1 bad input, 2 diverged/iteration cap)
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
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import engine, oracle
from .presets import TABLE1_REFERENCE_DISPATCH, random_scenario, table1_scenario
from .scenario import (
    Scenario,
    json_text,
    load_scenario,
    save_scenario,
    validate_scenario,
)

# spread of loss-adjusted marginal costs across interior generators above
# which a fixed point is flagged as inconsistent with optimality
PRICE_DISAGREEMENT_TOL = 1e-3

# what reading a scenario or candidate file can raise (json.JSONDecodeError
# is a ValueError): each is bad input, reported without a traceback
READ_ERRORS = (OSError, ValueError, KeyError, TypeError)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_NO_CONTRADICTION = 3


def _fail(msg: str) -> int:
    print(msg, file=sys.stderr)
    return EXIT_BAD_INPUT


def _load(path: str):
    """Returns (scenario, None) or (None, exit_code)."""
    try:
        scenario = load_scenario(path)
    except READ_ERRORS as exc:
        return None, _fail(f"cannot read scenario {path!r}: {exc}")
    violations = validate_scenario(scenario)
    if violations:
        return None, _invalid(violations)
    return scenario, None


def _invalid(violations) -> int:
    for v in violations:
        print(f"invalid scenario: node={v.node} rule={v.rule}: {v.message}", file=sys.stderr)
    return EXIT_BAD_INPUT


def _implied_prices(scenario: Scenario, P_gen: np.ndarray) -> dict:
    """{variant: its implied generator prices at generator powers P_gen}."""
    return {v: oracle.implied_prices(P_gen, scenario, v) for v in engine.VARIANTS}


def _price_spread(prices: np.ndarray, interior: np.ndarray) -> float:
    vals = prices[interior]
    if vals.size < 2:
        return 0.0
    return float(vals.max() - vals.min())


def _run_summary(scenario: Scenario, result: engine.RunResult) -> dict:
    final = result.trace[-1]
    P, lam = final.P, final.lam
    P_gen = P[list(scenario.generator_nodes)]
    interior = np.array(
        [g.p_min + oracle.ACTIVE_BOUND_TOL < float(p) < g.p_max - oracle.ACTIVE_BOUND_TOL
         for g, p in zip(scenario.generators, P_gen)],
        dtype=bool,
    )
    summary = {
        "variant": result.variant,
        "terminated": result.terminated,
        "rounds": result.rounds,
        "final_lambda": lam.tolist(),
        "final_P": P.tolist(),
        "final_xi": final.xi.tolist(),
        "mismatch": final.mismatch,
        "lambda_spread": final.lambda_spread,
        "max_conservation_gap": result.max_conservation_gap,
        "interior_generators": interior.tolist(),
    }
    for variant, prices in _implied_prices(scenario, P_gen).items():
        summary[f"implied_prices_{variant}"] = prices.tolist()
        summary[f"implied_price_spread_{variant}"] = _price_spread(prices, interior)
    summary["implied_prices_disagree"] = (
        summary["implied_price_spread_corrected"] > PRICE_DISAGREEMENT_TOL
    )
    return summary


def cmd_run(args) -> int:
    if args.trace_stride < 1:
        return _fail("--trace-stride must be >= 1")
    scenario, err = _load(args.scenario)
    if scenario is None:
        return err
    overrides = {}
    for name in ("eta", "eps_m", "eps_l", "max_iters"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
        violations = validate_scenario(scenario)
        if violations:
            for v in violations:
                print(f"invalid override: {v.message}", file=sys.stderr)
            return EXIT_BAD_INPUT

    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot write {args.output_dir!r}: {exc}")
    variants = engine.VARIANTS if args.variant == "both" else (args.variant,)
    status = EXIT_OK
    for variant in variants:
        result = engine.run(scenario, variant, trace_stride=args.trace_stride)
        summary = _run_summary(scenario, result)
        try:
            engine.write_trace_csv(result, scenario, out_dir / f"trace_{variant}.csv")
            engine.write_round_summary_csv(result, out_dir / f"rounds_{variant}.csv")
            (out_dir / f"report_{variant}.json").write_text(json_text(summary))
        except OSError as exc:
            return _fail(f"cannot write {args.output_dir!r}: {exc}")
        print(
            f"[{variant}] terminated={summary['terminated']} rounds={summary['rounds']} "
            f"mismatch={summary['mismatch']:.3e} lambda_spread={summary['lambda_spread']:.3e}"
        )
        for i, lam in enumerate(summary["final_lambda"]):
            print(f"  node {i}: lambda={lam:.9g} P={summary['final_P'][i]:.9g}")
        if summary["implied_prices_disagree"]:
            print(
                "  warning: implied generator prices disagree "
                f"(loss-adjusted spread {summary['implied_price_spread_corrected']:.4g}); "
                "fixed point is not optimal"
            )
        if result.terminated != engine.TERMINATED_BY_TOLERANCE:
            status = EXIT_NOT_CONVERGED
    return status


def cmd_solve(args) -> int:
    scenario, err = _load(args.scenario)
    if scenario is None:
        return err
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
    scenario, err = _load(args.scenario)
    if scenario is None:
        return err
    if args.candidate:
        try:
            with open(args.candidate) as f:
                cand = json.load(f)
            P = np.asarray(cand["P"], dtype=float)
            lam = float(cand["lambda"])
        except READ_ERRORS as exc:
            return _fail(f"cannot read candidate {args.candidate!r}: {exc}")
        if P.ndim != 1:
            return _fail(f"cannot read candidate {args.candidate!r}: P has shape {P.shape}")
        if P.size != scenario.n_nodes:
            return _fail(
                f"candidate has {P.size} powers for {scenario.n_nodes} nodes"
            )
    else:
        try:
            sol = oracle.solve_centralized(scenario)
        except (oracle.InfeasibleScenarioError, oracle.BracketError) as exc:
            return _fail(f"no candidate given and solve failed: {exc}")
        P, lam = sol.P, sol.lam
    report = oracle.kkt_check(P, lam, scenario, tol=args.tol)
    text = json_text(report.to_dict())
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            return _fail(f"cannot write {args.output!r}: {exc}")
    else:
        print(text, end="")
    return EXIT_OK if report.certified else EXIT_NOT_CONVERGED


def _counterexample_payload(scenario: Scenario) -> tuple:
    """Runs oracle + both variants; returns (payload dict, exit code)."""
    sol = oracle.solve_centralized(scenario)
    gen_nodes = list(scenario.generator_nodes)
    at_opt = _implied_prices(scenario, sol.P[gen_nodes])
    orig_at_opt = at_opt["original"]

    payload = {
        "oracle": {
            "lambda": sol.lam,
            "P": sol.P.tolist(),
            "objective": sol.objective,
            "kkt_max_residual": oracle.kkt_check(sol.P, sol.lam, scenario).max_residual,
        },
        "implied_prices_at_oracle_optimum": {v: p.tolist() for v, p in at_opt.items()},
        "original_price_spread_at_optimum": float(orig_at_opt.max() - orig_at_opt.min()),
    }

    variants = {}
    for variant in engine.VARIANTS:
        # only the final record is read: keep k = 0 and the last round
        result = engine.run(scenario, variant, trace_stride=scenario.max_iters)
        summary = _run_summary(scenario, result)
        keys = ["terminated", "rounds", "lambda_spread", "final_P", "mismatch"]
        entry = {"lambda_consensus": float(result.final_lambda.mean())}
        if result.terminated == engine.TERMINATED_BY_TOLERANCE:
            keys += [f"implied_prices_{v}" for v in engine.VARIANTS]
            report = oracle.kkt_check(result.final_P, entry["lambda_consensus"], scenario)
            entry["kkt_max_residual"] = report.max_residual
            entry["kkt_generator_stationarity"] = np.abs(report.stationarity[gen_nodes]).tolist()
        variants[variant] = entry | {k: summary[k] for k in keys}
    payload["variants"] = variants

    if any(v["terminated"] != engine.TERMINATED_BY_TOLERANCE for v in variants.values()):
        return payload, EXIT_NOT_CONVERGED

    exhibited = (
        payload["original_price_spread_at_optimum"] >= 0.1
        and max(variants["original"]["kkt_generator_stationarity"]) >= 1e-2
        and variants["corrected"]["kkt_max_residual"] <= 1e-4
    )
    payload["contradiction_exhibited"] = bool(exhibited)
    return payload, EXIT_OK if exhibited else EXIT_NO_CONTRADICTION


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
    if args.scenario:
        try:
            scenario = load_scenario(args.scenario)
        except READ_ERRORS as exc:
            return _fail(f"cannot read scenario {args.scenario!r}: {exc}")
    else:
        scenario = table1_scenario()

    # with no transmission losses anywhere the two updates are identical and
    # there is nothing to contradict; B = 0 is then the one violation let pass
    violations = validate_scenario(scenario)
    lossless = all(g.B == 0 for g in scenario.generators)
    if violations and not (lossless and all(v.rule == "gen.B_positive" for v in violations)):
        return _invalid(violations)
    if lossless:
        payload, status = {"coincide": True}, EXIT_NO_CONTRADICTION
    else:
        try:
            payload, status = _counterexample_payload(scenario)
        except (oracle.InfeasibleScenarioError, oracle.BracketError) as exc:
            return _fail(f"centralized solve failed: {exc}")

    if args.scenario is None:
        # the builtin benchmark carries a published two-decimal dispatch;
        # evaluate the original update's implied prices right at it
        ref = {"P": list(TABLE1_REFERENCE_DISPATCH)}
        for variant, prices in _implied_prices(scenario, np.array(ref["P"])).items():
            ref[f"implied_prices_{variant}"] = prices.tolist()
        payload["reference_dispatch"] = ref

    text = _counterexample_text(payload)
    if args.report:
        path = Path(args.report)
        sidecar = path.with_suffix(".json")
        if sidecar == path:
            sidecar = path.with_name(path.name + ".sidecar.json")
        try:
            path.write_text(text)
            sidecar.write_text(json_text(payload))
        except OSError as exc:
            return _fail(f"cannot write {args.report!r}: {exc}")
    else:
        print(text, end="")
    if status == EXIT_NOT_CONVERGED:
        print("a variant failed to converge; see report", file=sys.stderr)
    return status


def cmd_gen_scenario(args) -> int:
    try:
        scenario = random_scenario(args.seed, args.generators, args.consumers)
    except (ValueError, RuntimeError) as exc:
        return _fail(str(exc))
    try:
        save_scenario(scenario, args.output)
    except OSError as exc:
        return _fail(f"cannot write {args.output!r}: {exc}")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
