"""One round of a workload, in a fresh process.

    python3 bench/round.py --workload rate --seed 1 --mode plain --out DIR

Modes: ``plain`` times set-up, the experiment and its report with tracing
off; ``traced`` does the same with spans on (its times are not end-to-end
figures); ``probe`` times public calls at the workload's shape.  Every mode
also samples the reference kernel of speed.py, to scale its times, and every
mode except ``probe`` then runs the workload's output checks.  The last line
of standard output is one JSON object.

Only the standard library is imported before the set-up clock stops, so
set-up is what a user of ``nullrec`` pays: the interpreter, importing the
package (numpy and scipy) and building the config and model.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _setup(workload, seed, out):
    """Import nullrec from the checkout and build config and model."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nullrec
    from nullrec.harness import ExperimentConfig

    if Path(nullrec.__file__).resolve().parent != src / "nullrec":
        raise ImportError(f"nullrec imported from {nullrec.__file__}, not {src}")
    config = ExperimentConfig(**workload["config"], master_seed=seed,
                              output=str(out / "report"))
    config.model_spec()  # what a caller builds before running; the harness builds its own
    config.theta()
    return config


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _environment() -> dict:
    import numpy
    import scipy
    from nullrec.simulate import n_threads

    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "n_threads": n_threads(),
        **{k: os.environ.get(k) for k in ("NULLREC_THREADS", "OMP_NUM_THREADS",
                                          "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_round(workload, seed, traced, out) -> dict:
    config = _setup(workload, seed, out)
    ready = time.perf_counter()

    import checks
    import speed
    from tracing import Capture, Tracer
    import nullrec.cli
    import nullrec.harness
    from nullrec.simulate import n_threads

    tracer = None
    if traced:
        tracer = Tracer(f"{config.kind}-seed{seed}-{out.name}")
        tracer.install()
    capture = Capture()
    capture.install()

    sampler = speed.Sampler()
    sampler.edge()
    result = {"ready": ready, "ops": [], "env": _environment(),
              "setup_scale": speed.NOMINAL_S / statistics.median(sampler.samples)}
    try:
        if tracer:
            tracer.active = True
        # spans are not to hold the sampler's time, so traced rounds sample at the edges only
        with contextlib.nullcontext() if tracer else sampler.running():
            t0 = time.perf_counter()
            report = nullrec.harness.run_experiment(config)
            files = nullrec.cli.emit_report(report, config.output)
            t1 = time.perf_counter()
    except Exception:  # a failed experiment fails the round's every operation
        traceback.print_exc()
        names = ["experiment"] + [c.__name__ for c in checks.CHECKS[config.kind]]
        result["ops"] = [{"name": n, "ok": False, "known_fault": False,
                          "detail": "experiment raised"} for n in names]
        return result
    finally:
        if tracer:
            tracer.active = False

    sampler.edge()
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    worker_cpu = _cpu(resource.RUSAGE_CHILDREN)
    result.update(wall_s=t1 - t0 - sampler.spent, scale=sampler.scale(),
                  speed_samples=sampler.samples, lane_steps=capture.lane_steps(),
                  peak_rss_mib=rss_kib / 1024.0, worker_cpu_s=worker_cpu)
    if tracer:
        tracer.dump(out / "trace.json.gz")
        result["layers"] = tracer.layer_metrics(capture.lane_steps())
        result["layers"]["simulate.worker_cpu_s"] = worker_cpu

    result["ops"].append({"name": "experiment", "ok": True, "known_fault": False,
                          "detail": f"{len(report.rows)} rows"})
    rnd = checks.Round(config, workload["ctx"], files, capture, n_threads(), worker_cpu)
    for check in checks.CHECKS[config.kind]:
        try:
            ok, detail = check(rnd)
        except Exception as exc:  # a check that cannot run has failed
            traceback.print_exc()
            ok, detail = False, f"raised {exc!r}"
        result["ops"].append({"name": check.__name__, "ok": bool(ok),
                              "known_fault": check.__name__ in checks.KNOWN_FAULTS,
                              "detail": detail})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "probe"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    args.out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    if args.mode == "probe":
        config = _setup(workload, args.seed, args.out)
        import probes
        import speed

        sampler = speed.Sampler()
        sampler.edge()
        layers = probes.run(config)
        sampler.edge()
        result = {"layers": layers, "scale": sampler.scale()}
    else:
        result = run_round(workload, args.seed, args.mode == "traced", args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
