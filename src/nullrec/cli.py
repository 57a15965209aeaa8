"""Command-line entry point.

Subcommands: constants, simulate, estimate, limits, experiment, check.
Exit status: 0 success; 1 an experiment ran but a tolerance row failed;
2 usage or runtime error.  All randomness flows from --seed (or the config's
master_seed); NULLREC_THREADS caps replication-level parallelism.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NullrecError
from .estimators import log_likelihood_ratio, mle, restricted_mle
from .harness import ExperimentConfig, ExperimentReport, ks_statistic, run_experiment
from .limits import LimitLawSpec, make_loss, monte_carlo_risk, rng_stream, sample_limit_error, sample_stable
from .model import ModelSpec, ParamVector, asymptotic_constants, norming, require_valid_theta
from .simulate import SufficientStats, accumulate_stats, simulate_path

__all__ = ["CliConfig", "parse_config", "dispatch", "emit_report", "main"]


@dataclass(frozen=True)
class CliConfig:
    subcommand: str
    options: tuple  # sorted (key, value) pairs; values already typed

    def get(self, key, default=None):
        return dict(self.options).get(key, default)

    def to_argv(self) -> list:
        """Canonical argv that parses back to this config."""
        argv = [self.subcommand]
        for key, value in self.options:
            if value is None or value is False:
                continue
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif isinstance(value, (list, tuple)):
                argv.append(flag)
                argv.extend(str(v) for v in value)
            else:
                argv.extend([flag, str(value)])
        return argv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullrec",
        description="Simulation, estimation and limit-law checks for a "
                    "null recurrent diffusion family.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_model_flags(p, need_theta=True):
        p.add_argument("--sigma", type=float, required=True)
        p.add_argument("--basis", type=str, default="none",
                       help="none | sinc | fourier-<L>")
        p.add_argument("--x0", type=float, default=0.0)
        if need_theta:
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
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out", type=str, default=None, help="override report path")

    p = sub.add_parser("check", help="fast self-test: identities plus sampler calibration")
    p.add_argument("--seed", type=int, default=1)

    return parser


def parse_config(argv) -> CliConfig:
    """Parse argv into a validated CliConfig; argparse exits 2 on bad flags."""
    ns = _build_parser().parse_args(list(argv))
    opts = {k: v for k, v in vars(ns).items() if k != "subcommand"}
    if "theta2" in opts and opts["theta2"] is not None:
        opts["theta2"] = tuple(opts["theta2"])
    if opts.get("window") is not None:
        opts["window"] = tuple(opts["window"])
    if opts.get("theta") is not None:
        opts["theta"] = tuple(opts["theta"])
    config = CliConfig(ns.subcommand, tuple(sorted(opts.items())))
    _validate(config)
    return config


class UsageError(NullrecError):
    pass


def _validate(config: CliConfig) -> None:
    get = config.get
    if config.subcommand in ("constants", "simulate"):
        try:
            require_valid_theta(*_model_from(config))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if config.subcommand in ("simulate", "check") and get("seed") < 0:
        # lane_rng would mask a negative seed to 64 bits without a word
        raise UsageError("--seed must be nonnegative")
    if config.subcommand == "limits" and get("n") < 1:
        raise UsageError("--n must be >= 1")


def _model_from(config: CliConfig):
    spec = ModelSpec.from_names(config.get("sigma"), config.get("basis"),
                                config.get("x0", 0.0))
    theta = ParamVector(config.get("theta1"), tuple(config.get("theta2") or ()))
    return spec, theta


def _write_text(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_constants(config: CliConfig) -> int:
    spec, theta = _model_from(config)
    c = asymptotic_constants(spec, theta)
    alpha_n, delta_n = norming(spec, theta, config.get("n"))
    payload = {
        "lambda1": c.lambda1,
        "alpha": c.alpha,
        "psi_plus": c.psi_plus,
        "psi_minus": c.psi_minus,
        "d_weight": c.d_weight,
        "alpha_n": alpha_n,
        "delta_n": delta_n,
    }
    _write_text(_json_dumps(payload), config.get("out"))
    return 0


def _cmd_simulate(config: CliConfig) -> int:
    spec, theta = _model_from(config)
    path = simulate_path(spec, theta, config.get("horizon"), config.get("dt"),
                         config.get("seed"))
    if config.get("emit") == "stats":
        stats = accumulate_stats(spec, path, window=config.get("window"))
        payload = {
            "y": stats.y.tolist(),
            "j": stats.j.tolist(),
            "t": stats.t,
            "window": list(stats.window) if stats.window else None,
            "x0": stats.x0,
        }
        _write_text(_json_dumps(payload), config.get("out"))
    else:
        lines = ["t,x"]
        times = np.arange(len(path.values)) * path.dt
        lines.extend(f"{repr(float(t))},{repr(float(x))}"
                     for t, x in zip(times, path.values))
        _write_text("\n".join(lines) + "\n", config.get("out"))
    return 0


def _load_stats(path: str) -> SufficientStats:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    window = tuple(data["window"]) if data.get("window") else None
    return SufficientStats(y=np.asarray(data["y"], dtype=float),
                           j=np.asarray(data["j"], dtype=float),
                           t=float(data["t"]), window=window,
                           x0=float(data.get("x0", 0.0)))


def _cmd_estimate(config: CliConfig) -> int:
    stats = _load_stats(config.get("stats"))
    window = config.get("window")
    if window is not None:
        if stats.window is None or tuple(stats.window) != tuple(window):
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
    theta = config.get("theta")
    if theta is not None:
        if len(theta) != len(stats.y):
            raise UsageError(
                f"--theta needs {len(stats.y)} value(s), got {len(theta)}"
            )
        payload["loglik_at"] = log_likelihood_ratio(
            stats, np.asarray(theta, dtype=float), est.theta_hat)
    _write_text(_json_dumps(payload), config.get("out"))
    return 0


def _cmd_limits(config: CliConfig) -> int:
    cov_path = config.get("cov")
    if cov_path is not None:
        cov = np.asarray(json.loads(Path(cov_path).read_text(encoding="utf-8")),
                         dtype=float)
    else:
        cov = np.eye(config.get("dim") or 1)
    if config.get("dim") is not None and cov.shape[0] != config.get("dim"):
        raise UsageError(f"--dim {config.get('dim')} does not match the "
                         f"covariance ({cov.shape[0]}x{cov.shape[0]})")
    law = LimitLawSpec(alpha=config.get("alpha"), cov=cov)
    rng = rng_stream(config.get("seed"))
    if config.get("risk"):
        loss = make_loss(config.get("loss"), config.get("clip"))
        est, stderr = monte_carlo_risk(law, loss, config.get("n"), rng)
        payload = {"loss": config.get("loss"), "clip": config.get("clip"),
                   "n": config.get("n"), "estimate": est, "stderr": stderr}
        _write_text(_json_dumps(payload), config.get("out"))
    else:
        draws = sample_limit_error(law, rng, size=config.get("n"))
        header = ",".join(f"z{i}" for i in range(law.dim))
        lines = [header]
        lines.extend(",".join(repr(float(v)) for v in row) for row in np.atleast_2d(draws))
        _write_text("\n".join(lines) + "\n", config.get("out"))
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


def _cmd_experiment(config: CliConfig) -> int:
    data = json.loads(Path(config.get("config")).read_text(encoding="utf-8"))
    for key, flag in (("master_seed", "seed"), ("replications", "replications"),
                      ("dt", "dt")):
        if config.get(flag) is not None:
            data[key] = config.get(flag)
    if config.get("out") is not None:
        data["output"] = config.get("out")
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


def _cmd_check(config: CliConfig) -> int:
    seed = config.get("seed")
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


def dispatch(config: CliConfig) -> int:
    return _COMMANDS[config.subcommand](config)


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        return dispatch(config)
    except (NullrecError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
