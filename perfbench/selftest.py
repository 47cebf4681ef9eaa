"""Self-test of the benchmark's traced mode.

    python3 perfbench/selftest.py [--seed N] [workload ...]

For each workload, runs the traced benchmark twice with the same seed
and checks that

* every per-layer metric named in BENCHMARK.json is reported,
* the work counts (every metric with unit "count" or "ratio", which
  includes each *.calls, quadrature.panels, specfun.inverse.points,
  fit.iterations and family.moment_reuse) repeat exactly,
* the layers the workload exercises report nonzero work.

Exits 1 and names the offending metric on the first failure. Takes a
few minutes: moments-grid's traced batch includes runaway ops that each
run to their deadline, twice per traced run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per workload, metrics that must be nonzero because the layer does work
BUSY = {
    "flood-bootstrap": ("fit.mle_fit.calls", "fit.iterations", "models.log_pdf.calls",
                        "models.score.calls", "gof.calls"),
    "moments-grid": ("specfun.inverse.calls", "specfun.inverse.points",
                     "quadrature.windowed.calls", "quadrature.panels",
                     "family.moment_quadrature.calls", "family.moment_reuse"),
    "simulate-tail": ("expgamma.cdf.points_per_s", "expgamma.log_pdf.points_per_s",
                      "expgamma.sample.draws_per_s", "expgamma.quantile_sf.calls",
                      "specfun.inverse.calls"),
    "series-tau": ("family.tau.calls", "family.series.terms", "quadrature.windowed.calls",
                   "quadrature.panels"),
}
NOT_REPEATABLE = {"trace.overhead_frac"}


def traced_run(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def check(workload, seed, layer_names):
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    missing = sorted(set(layer_names) - set(first))
    if missing:
        return f"{workload}: per-layer metrics missing: {missing}"
    for name, m in first.items():
        if m["unit"] in ("count", "ratio") and name not in NOT_REPEATABLE:
            if m["value"] != second[name]["value"]:
                return (f"{workload}: {name} differs between traced runs: "
                        f"{m['value']} vs {second[name]['value']}")
    idle = [name for name in BUSY[workload] if not first[name]["value"] > 0]
    if idle:
        return f"{workload}: layers report no work: {idle}"
    return None


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("workloads", nargs="*",
                   default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)
    layer_names = [m["name"] for m in spec["per_layer"]]
    for workload in args.workloads:
        problem = check(workload, args.seed, layer_names)
        print(f"{workload}: {problem or 'ok'}", flush=True)
        if problem:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
