"""Command-line entry point.

Subcommands: constants, simulate, estimate, limits, experiment, check.
Exit status: 0 success; 1 an experiment ran but a tolerance row failed;
2 usage or runtime error.  Randomness flows from --seed in simulate, limits
and check, and from the config's master_seed in experiment, whose values all
come from its config file; NULLREC_THREADS caps replication-level parallelism.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import NullrecError
from .estimators import log_likelihood_ratio, mle, restricted_mle
from .harness import ExperimentConfig, ExperimentReport, ks_statistic, run_experiment
from .limits import LimitLawSpec, make_loss, monte_carlo_risk, rng_stream, sample_limit_error, sample_stable
from .model import ModelSpec, ParamVector, asymptotic_constants, norming, require_valid_theta
from .simulate import SufficientStats, _check_window, accumulate_stats, simulate_path

__all__ = ["parse_config", "dispatch", "emit_report", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullrec",
        description="Simulation, estimation and limit-law checks for a "
                    "null recurrent diffusion family.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_model_flags(p):
        p.add_argument("--sigma", type=float, required=True)
        p.add_argument("--basis", type=str, default="none",
                       help="none | sinc | fourier-<L>")
        p.add_argument("--x0", type=float, default=0.0)
        p.add_argument("--theta1", type=float, required=True)
        p.add_argument("--theta2", type=float, nargs="*", default=[])

    p = sub.add_parser("constants", help="asymptotic constants as JSON")
    add_model_flags(p)
    p.add_argument("--n", type=int, default=1, help="horizon for alpha_n, delta_n")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("simulate", help="simulate one path, emit CSV or stats JSON")
    add_model_flags(p)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--emit", choices=("path", "stats"), default="path")
    p.add_argument("--window", type=float, nargs=2, default=None,
                   metavar=("A", "B"))
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("estimate", help="estimators from a stats JSON file")
    p.add_argument("--stats", type=str, required=True)
    p.add_argument("--window", type=float, nargs=2, default=None,
                   metavar=("A", "B"))
    p.add_argument("--theta", type=float, nargs="+", default=None,
                   help="evaluate the log-likelihood ratio of this parameter "
                        "against the fitted maximum")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("limits", help="limit-law draws or Monte Carlo risk")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--cov", type=str, default=None,
                   help="JSON file holding the covariance matrix; identity if absent")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--risk", action="store_true",
                   help="emit a Monte Carlo estimate of the limit risk instead of draws")
    p.add_argument("--loss", choices=("sqclip", "exp"), default="sqclip")
    p.add_argument("--clip", type=float, default=4.0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("experiment", help="run an experiment from a JSON config")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, default=None, help="override report path")

    p = sub.add_parser("check", help="fast self-test: identities plus sampler calibration")
    p.add_argument("--seed", type=int, default=1)

    return parser


def parse_config(argv) -> argparse.Namespace:
    """Parse and validate argv; argparse exits 2 on bad flags."""
    args = _build_parser().parse_args(list(argv))
    _validate(args)
    return args


class UsageError(NullrecError):
    pass


def _validate(args: argparse.Namespace) -> None:
    if args.subcommand in ("constants", "simulate"):
        try:
            require_valid_theta(*_model_from(args))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if args.subcommand in ("simulate", "limits", "check") and not 0 <= args.seed < 1 << 64:
        # lane_rng would mask the seed to 64 bits without a word
        raise UsageError("--seed must lie in [0, 2^64)")
    if args.subcommand == "limits" and args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.subcommand == "limits" and args.dim is not None and args.dim < 1:
        raise UsageError("--dim must be >= 1")


def _model_from(args: argparse.Namespace):
    spec = ModelSpec.from_names(args.sigma, args.basis, args.x0)
    return spec, ParamVector(args.theta1, tuple(args.theta2))


def _write_text(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _finite_or_none(value):
    """value with each non-finite float in it, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def _json_dumps(payload) -> str:
    """RFC 8259 JSON: a non-finite value is written as null."""
    return json.dumps(_finite_or_none(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cmd_constants(args: argparse.Namespace) -> int:
    spec, theta = _model_from(args)
    c = asymptotic_constants(spec, theta)
    alpha_n, delta_n = norming(spec, theta, args.n)
    payload = {
        "lambda1": c.lambda1,
        "alpha": c.alpha,
        "psi_plus": c.psi_plus,
        "psi_minus": c.psi_minus,
        "d_weight": c.d_weight,
        "alpha_n": alpha_n,
        "delta_n": delta_n,
    }
    _write_text(_json_dumps(payload), args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec, theta = _model_from(args)
    _check_window(args.window)  # before the whole path is simulated
    path = simulate_path(spec, theta, args.horizon, args.dt, args.seed)
    if args.emit == "stats":
        stats = accumulate_stats(spec, path, window=args.window)
        payload = {
            "y": stats.y.tolist(),
            "j": stats.j.tolist(),
            "t": stats.t,
            "window": list(stats.window) if stats.window else None,
            "x0": stats.x0,
        }
        _write_text(_json_dumps(payload), args.out)
    else:
        lines = ["t,x"]
        times = np.arange(len(path.values)) * path.dt
        lines.extend(f"{repr(float(t))},{repr(float(x))}"
                     for t, x in zip(times, path.values))
        _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _load_object(path: str, flag: str) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise UsageError(f"{flag} {path} must hold a JSON object")
    return data


def _load_stats(path: str) -> SufficientStats:
    data = _load_object(path, "--stats")
    try:
        window = tuple(data["window"]) if data.get("window") else None
        if np.ndim(data["y"]) != 1:
            raise UsageError(f"--stats {path}: 'y' must be one flat list of numbers")
        y, j = (np.asarray(data[key], dtype=float) for key in ("y", "j"))
        for key, values in (("y", y), ("j", j)):
            # null, NaN and Infinity all read as non-finite floats
            if not np.isfinite(values).all():
                raise UsageError(f"--stats {path}: {key!r} must hold finite numbers only")
        return SufficientStats(y=y, j=j, t=float(data["t"]), window=window,
                               x0=float(data.get("x0", 0.0)))
    except (KeyError, TypeError) as exc:
        raise UsageError(f"--stats {path} is malformed: {exc!r}") from exc


def _cmd_estimate(args: argparse.Namespace) -> int:
    stats = _load_stats(args.stats)
    if args.window is not None:
        if stats.window is None or tuple(stats.window) != tuple(args.window):
            raise UsageError(
                "--window must match the window the statistics were built with"
            )
        est = restricted_mle(stats)
    else:
        est = mle(stats)
    payload = {
        "theta_hat": est.theta_hat.tolist(),
        "j_invertible": est.j_invertible,
        "conditioning": est.conditioning,
        "loglik_at": None,
    }
    theta = args.theta
    if theta is not None:
        if len(theta) != len(stats.y):
            raise UsageError(
                f"--theta needs {len(stats.y)} value(s), got {len(theta)}"
            )
        payload["loglik_at"] = log_likelihood_ratio(
            stats, np.asarray(theta, dtype=float), est.theta_hat)
    _write_text(_json_dumps(payload), args.out)
    return 0


def _cmd_limits(args: argparse.Namespace) -> int:
    if args.cov is not None:
        data = json.loads(Path(args.cov).read_text(encoding="utf-8"))
        try:
            cov = np.atleast_2d(np.asarray(data, dtype=float))
        except (TypeError, ValueError):  # a JSON object, string or ragged list
            cov = None
        if cov is None or cov.ndim != 2 or not np.isfinite(cov).all():
            raise UsageError(f"--cov {args.cov} must hold a matrix of finite numbers")
    else:
        cov = np.eye(args.dim or 1)
    if args.dim is not None and cov.shape[0] != args.dim:
        raise UsageError(f"--dim {args.dim} does not match the "
                         f"covariance ({cov.shape[0]}x{cov.shape[0]})")
    law = LimitLawSpec(alpha=args.alpha, cov=cov)
    rng = rng_stream(args.seed)
    if args.risk:
        loss = make_loss(args.loss, args.clip)
        est, stderr = monte_carlo_risk(law, loss, args.n, rng)
        payload = {"loss": args.loss, "clip": args.clip,
                   "n": args.n, "estimate": est, "stderr": stderr}
        _write_text(_json_dumps(payload), args.out)
    else:
        draws = sample_limit_error(law, rng, size=args.n)
        header = ",".join(f"z{i}" for i in range(law.dim))
        lines = [header]
        lines.extend(",".join(repr(float(v)) for v in row) for row in draws)
        _write_text("\n".join(lines) + "\n", args.out)
    return 0


def emit_report(report: ExperimentReport, path_base: str) -> list:
    """Write <base>.json and <base>.csv; emission is deterministic."""
    base = Path(path_base)
    if base.parent != Path("."):
        base.parent.mkdir(parents=True, exist_ok=True)
    json_path = base.with_suffix(".json")
    csv_path = base.with_suffix(".csv")
    json_path.write_text(_json_dumps(report.to_dict()), encoding="utf-8")
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["horizon", "coord", "stat_name", "value",
                         "tolerance", "pass"])
        for r in report.rows:
            writer.writerow([
                "" if r.horizon is None else repr(float(r.horizon)),
                "" if r.coord is None else int(r.coord),
                r.stat_name,
                repr(float(r.value)),
                "" if r.tolerance is None else repr(float(r.tolerance)),
                "" if r.passed is None else str(bool(r.passed)),
            ])
    return [str(json_path), str(csv_path)]


def _cmd_experiment(args: argparse.Namespace) -> int:
    data = _load_object(args.config, "--config")
    if args.out is not None:
        data["output"] = args.out
    exp_config = ExperimentConfig.from_dict(data)
    report = run_experiment(exp_config)
    out_base = exp_config.output or f"report_{exp_config.kind}"
    files = emit_report(report, out_base)
    for r in report.rows:
        if r.passed is not None:
            status = "pass" if r.passed else "FAIL"
            sys.stdout.write(f"{status}: {r.stat_name}"
                             f"{'' if r.horizon is None else f' @ {r.horizon}'}"
                             f"{'' if r.coord is None else f' coord {r.coord}'}"
                             f" = {r.value:.6g}\n")
    sys.stdout.write(f"report written to {files[0]} and {files[1]}\n")
    return 0 if report.overall_pass else 1


def _cmd_check(args: argparse.Namespace) -> int:
    seed = args.seed
    failures = []

    exp = ExperimentConfig(kind="identity", sigma=1.0, basis="sinc", theta1=0.1,
                           theta2=(-0.3,), horizons=(20,), dt=1e-2,
                           replications=10, master_seed=seed)
    report = run_experiment(exp)
    for r in report.rows:
        if r.passed is False:
            failures.append(f"identity:{r.stat_name}")
    sys.stdout.write(f"identity suite: {'ok' if report.overall_pass else 'FAIL'}\n")

    rng = rng_stream(seed, ctx=9000)
    s = sample_stable(0.5, rng, size=20_000)
    vals = np.exp(-s)
    err = abs(vals.mean() - math.exp(-1.0))
    lim = 4.0 * vals.std(ddof=1) / math.sqrt(s.size)
    ok = err <= lim
    sys.stdout.write(f"stable Laplace calibration: err={err:.2e} "
                     f"limit={lim:.2e} {'ok' if ok else 'FAIL'}\n")
    if not ok:
        failures.append("laplace")

    law = LimitLawSpec(alpha=0.5, cov=np.eye(2))
    a = sample_limit_error(law, rng_stream(seed, ctx=9001), 2000)
    b = sample_limit_error(law, rng_stream(seed, ctx=9002), 2000)
    ks = max(ks_statistic(a[:, i], b[:, i]) for i in range(2))
    ok = ks <= 0.05
    sys.stdout.write(f"limit sampler self-distance: ks={ks:.4f} "
                     f"{'ok' if ok else 'FAIL'}\n")
    if not ok:
        failures.append("limit_sampler")

    sys.stdout.write("check: " + ("all ok" if not failures
                                  else f"failures: {','.join(failures)}") + "\n")
    return 0 if not failures else 1


_COMMANDS = {
    "constants": _cmd_constants,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "limits": _cmd_limits,
    "experiment": _cmd_experiment,
    "check": _cmd_check,
}


def dispatch(args: argparse.Namespace) -> int:
    return _COMMANDS[args.subcommand](args)


def main(argv=None) -> int:
    try:
        args = parse_config(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        return dispatch(args)
    except (NullrecError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
