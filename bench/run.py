"""nullrec benchmark: time to a checked report, per workload.

    python3 bench/run.py --workload rate --seed 1 --seconds 20 --trace 0

Runs rounds of the workload, each in a fresh process (bench/round.py), until
``--seconds`` have passed (at least MIN_ROUNDS).  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json as medians over the rounds;
with ``--trace 1`` it alternates untraced and traced rounds, runs the probes
once, and reports the per-layer metrics.  Every round checks the program's
outputs.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Raw results and trace files go to .bench_results/ in the checkout.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 3
DEADLINE_S = 170          # every run ends well inside 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIME_UNITS = ("s", "ns", "us")


def _run_child(args, env, timeout):
    """Run one round process; return (spawn time, parsed last line)."""
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "round.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round {args} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"round {args} exited with {proc.returncode}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nullrec benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nullrec" / "__init__.py").is_file():
        sys.stderr.write(f"error: no nullrec sources under {ROOT / 'src'}\n")
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    env = dict(os.environ, NULLREC_THREADS=str(WORKLOADS[args.workload]["threads"]),
               **{k: "1" for k in BLAS_VARS})
    out = ROOT / ".bench_results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    start = time.perf_counter()

    # with tracing, an untraced round and a traced one make a pair
    modes = ("plain", "traced") if args.trace else ("plain",)
    min_rounds = len(modes) if args.trace else MIN_ROUNDS
    rounds = []
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        for mode in modes:
            t_spawn, res = _run_child(
                ["--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
                 "--out", str(out / f"round{len(rounds)}-{mode}")],
                env, DEADLINE_S - (time.perf_counter() - start))
            res["mode"], res["setup_s"] = mode, res["ready"] - t_spawn
            rounds.append(res)
    probe = None
    if args.trace:
        _, probe = _run_child(["--workload", args.workload, "--seed", str(args.seed),
                               "--mode", "probe", "--out", str(out / "probe")],
                              env, DEADLINE_S - (time.perf_counter() - start))

    ops = [op for r in rounds for op in r["ops"]]
    correct = all(op["ok"] or op["known_fault"] for op in ops) and all(
        "wall_s" in r for r in rounds)
    done = [r for r in rounds if "wall_s" in r]
    plain = [r for r in done if r["mode"] == "plain"]
    if args.trace:
        wanted = declared["per_layer"]
        timed = {m["name"] for m in wanted if m["unit"] in TIME_UNITS}
        traced = [r for r in done if r["mode"] == "traced"]
        values = {k: statistics.median(r["layers"][k] * (r["scale"] if k in timed else 1)
                                       for r in traced)
                  for k in traced[0]["layers"]} if traced else {}
        values.update({k: v * probe["scale"] for k, v in probe["layers"].items()})
        if traced and plain:
            values["trace.overhead_s"] = (
                statistics.median(r["wall_s"] * r["scale"] for r in traced)
                - statistics.median(r["wall_s"] * r["scale"] for r in plain))
    else:
        wanted = declared["end_to_end"]
        values = {
            "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in plain),
            "wall_s": statistics.median(r["wall_s"] * r["scale"] for r in plain),
            "lane_steps_per_s": statistics.median(
                r["lane_steps"] / (r["wall_s"] * r["scale"]) for r in plain),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        } if plain else {}
    if not correct or any(m["name"] not in values for m in wanted):
        correct = False
        values = {m["name"]: values.get(m["name"], 0.0) for m in wanted}

    summary = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(
        {"args": vars(args), "summary": summary, "rounds": rounds, "probe": probe},
        indent=1), encoding="utf-8")
    for op in ops:
        if not op["ok"]:
            print(f"{'known fault' if op['known_fault'] else 'FAILED'}: "
                  f"{op['name']}: {op['detail']}")
    print("env: " + json.dumps(rounds[0]["env"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
