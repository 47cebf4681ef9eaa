"""Benchmark of the oddsgamma library, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src. One process, one caller, no threads: a closed loop runs one op
at a time, each under a SIGALRM deadline, and checks every op against
an oracle outside the timed region.

--trace 0 reports the end-to-end metrics. The op loop runs a fixed
number of whole design cycles, sized to take about S seconds at the
workload's nominal op cost. Spread over the loop, it times cold imports
in fresh interpreters (set-up) and the workload's CLI command, which
must print the same bytes every time. It reports op latency, throughput,
the share of ops that succeed and peak memory. All of its times are CPU
times, which leave out the time the host takes this VM's CPUs away; op
times are also scaled to a nominal machine speed by SpeedProbe.

--trace 1 runs a fixed batch of ops twice, first untraced and then with
the layer entry points wrapped (see tracing.py), and reports the
per-layer metrics plus the tracing overhead between the two passes.
The batch is fixed so that the counts repeat exactly for a seed; S is
not used.

The last line of stdout is the JSON result; details go to stderr and
to .perfbench_out/ in the checkout.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 2
# CPU times still switch between a fast and a slow state about a quarter
# apart; cli_s is the mean of its runs, which moves smoothly with the
# share of runs in each state where a median would jump between them
CLI_REPEATS = 3
CLI_TIMEOUT_S = 120.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# stop starting ops after this much loop time, to end within 180 s
LOOP_CAP_S = 120.0

sys.path.insert(0, str(HERE))


class Deadline(BaseException):
    """Raised by SIGALRM inside a runaway op; a BaseException so that no
    library handler for Exception can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


def _child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _load_library():
    if not (SRC / "oddsgamma" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC / 'oddsgamma'}")
    sys.path.insert(0, str(SRC))
    import oddsgamma
    from oddsgamma import family, fit, quadrature, specfun

    if Path(oddsgamma.__file__).resolve().parent != (SRC / "oddsgamma").resolve():
        raise SystemExit(f"perfbench: imported oddsgamma from {oddsgamma.__file__}")
    # the public API plus the modules whose entry points tracing wraps
    return types.SimpleNamespace(
        **{name: getattr(oddsgamma, name) for name in oddsgamma.__all__},
        family=family, fit=fit, quadrature=quadrature, specfun=specfun,
    )


def _tail(ms):
    """(percentile, value): the highest ladder percentile with at least
    ten ops above it. Below 20 ops no percentile has ten ops above it,
    and the 75th percentile stands in: steadier than the slowest op."""
    import numpy as np

    n = len(ms)
    q = next((q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= 10.0), 75.0)
    return q, float(np.percentile(ms, q))


def _latency(ms, deadline_ms):
    """(p50, tail percentile, tail, ops per second) of the successful
    ops' times; with none, the deadline stands in for the latency."""
    if not ms:
        return deadline_ms, 100.0, deadline_ms, 0.0
    q, tail = _tail(ms)
    return statistics.median(ms), q, tail, 1e3 * len(ms) / sum(ms)


def _run(cmd):
    """(CPU seconds, wall seconds, completed process) of cmd in a fresh
    interpreter. The CPU time is the child's user plus system time, all
    its threads included: on a VM that shares its host, a subprocess's
    wall time follows the time the host takes the CPUs away (steal
    time), its CPU time does not."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + cmd, env=_child_env(), cwd=ROOT,
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu, wall, proc


def time_import():
    """(CPU seconds, wall seconds) of one cold import in a fresh interpreter."""
    cpu, wall, proc = _run(["-c", "import oddsgamma"])
    proc.check_returncode()
    return cpu, wall


def time_cli(args):
    """(CPU seconds, wall seconds, stdout or None, failure or None) of
    one CLI run; the timeout stands in for the times of a run killed at it."""
    try:
        cpu, wall, proc = _run(["-m", "oddsgamma.cli"] + args)
    except subprocess.TimeoutExpired:
        return CLI_TIMEOUT_S, CLI_TIMEOUT_S, None, "cli_deadline"
    if proc.returncode != 0:
        return cpu, wall, proc.stdout, f"cli_exit_{proc.returncode}"
    return cpu, wall, proc.stdout, None


def _spread_over(n_ops, k):
    """Op indices before which k interleaved measurements run."""
    return [round(j * n_ops / k) for j in range(k)]


def run_op(wl, inp, tr):
    """Run one op under the deadline: (wall seconds, CPU seconds,
    failure type or None). The CPU time is the process's, which leaves
    out the time the host takes this VM's CPUs away (steal time)."""
    out, failure = None, None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        signal.setitimer(signal.ITIMER_REAL, wl.deadline_s)
        try:
            out = wl.run(inp)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except Deadline:
        failure = "deadline"
    except Exception as exc:  # any library error is a failed op, not a crash
        failure = type(exc).__name__
    elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
    if failure is None:
        failure = wl.check(inp, out, tr)
    return elapsed, cpu, failure


class SpeedProbe:
    """Times a fixed kernel (a pure Python loop plus one scipy.special
    call, no library code) in CPU time before and after every op. On a
    VM that shares its host the machine's speed drifts by tens of
    percent over seconds to minutes, in CPU time too; scaling an op's
    CPU time by NOMINAL_MS over the kernel times around it reports it at
    a nominal machine speed, so that runs made at different moments
    compare. The raw timings stay in the details file."""

    NOMINAL_MS = 1.5

    def __init__(self):
        import numpy as np
        from scipy import special

        self._x = np.linspace(0.1, 5.0, 2000)
        self._special = special
        self.samples = []

    def _kernel_ms(self):
        t0 = time.process_time()
        acc = 0.0
        for k in range(3000):
            acc += k * 0.5
        self._special.gammaincc(0.7, self._x)
        return (time.process_time() - t0) * 1e3

    def sample(self):
        # the faster of two: the first run after a subprocess is slowed
        # by cold caches rather than by the machine
        self.samples.append(min(self._kernel_ms(), self._kernel_ms()))

    def factor(self, samples):
        return self.NOMINAL_MS / statistics.median(samples)


def _record(records, i, wl, inp, elapsed, cpu, failure):
    records.append({"op": i, "ms": elapsed * 1e3, "cpu_ms": cpu * 1e3, "failure": failure,
                    **wl.params(inp)})


def end_to_end(wl, lib, seed, seconds):
    from workloads import Untraced

    tr = Untraced()
    wl.prepare(lib, tr)
    cli_args = wl.cli(seed)
    # a fixed number of whole design cycles, sized to take about
    # `seconds` at the workload's nominal op cost: every run of a seed
    # measures the same ops, and every run covers the same strata
    n_ops = wl.cells * max(1, round(seconds / (wl.nominal_op_s * wl.cells)))
    # the cold imports and CLI runs are spread over the loop, so that
    # their medians sample the machine's speed across the whole run
    imports_at = _spread_over(n_ops, SETUP_REPEATS)
    cli_at = _spread_over(n_ops, CLI_REPEATS)

    probe = SpeedProbe()
    records, import_times, cli_times, cli_outputs, cli_failures = [], [], [], [], []
    truncated = False
    started = time.perf_counter()
    for i in range(n_ops):
        if time.perf_counter() - started > LOOP_CAP_S:
            truncated = True
            break
        for _ in range(imports_at.count(i)):
            import_times.append(time_import())
        for _ in range(cli_at.count(i)):
            cpu, wall, out, failure = time_cli(cli_args)
            cli_times.append((cpu, wall))
            cli_outputs.append(out)
            if failure:
                cli_failures.append(failure)
        inp = wl.make(seed, i)
        probe.sample()
        elapsed, cpu, failure = run_op(wl, inp, tr)
        _record(records, i, wl, inp, elapsed, cpu, failure)
        records[-1]["probe_ms"] = probe.samples[-1]
    probe.sample()
    # each op is scaled by the probes taken just before and just after it
    for rec, after in zip(records, probe.samples[1:]):
        rec["scaled_ms"] = rec["cpu_ms"] * probe.factor([rec["probe_ms"], after])

    cli_failure = cli_failures[0] if cli_failures else None
    if cli_failure is None and any(o != cli_outputs[0] for o in cli_outputs):
        cli_failure = "cli_output_differs"
    ok = [r for r in records if r["failure"] is None]
    failures = [r["failure"] for r in records if r["failure"] is not None]
    if cli_failure is not None:
        failures.append(cli_failure)
    attempted = len(records) + 1  # the CLI command is one op
    deadline_ms = wl.deadline_s * 1e3
    p50, tail_q, tail_ms, ops_per_s = _latency([r["scaled_ms"] for r in ok], deadline_ms)
    raw = _latency([r["cpu_ms"] for r in ok], deadline_ms)
    wall = _latency([r["ms"] for r in ok], deadline_ms)
    metrics = {
        "setup_s": (statistics.median(cpu for cpu, _ in import_times), "s"),
        "cli_s": (statistics.mean(cpu for cpu, _ in cli_times), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "probe_ms_median": statistics.median(probe.samples),
        "raw": {"op_p50_ms": raw[0], "op_tail_ms": raw[2], "ops_per_s": raw[3]},
        "wall": {"op_p50_ms": wall[0], "op_tail_ms": wall[2], "ops_per_s": wall[3],
                 "setup_s": statistics.median(w for _, w in import_times),
                 "cli_s": statistics.median(w for _, w in cli_times)},
        "setup_cpu_wall_s": import_times,
        "cli": {"command": cli_args, "cpu_wall_s": cli_times},
        "tail_percentile": tail_q,
        "ok_ops": len(ok),
        "op_seconds": sum(r["ms"] for r in records) / 1e3,
        "truncated": truncated,
        "failures_by_type": {f: failures.count(f) for f in sorted(set(failures))},
        "ops": records,
    }
    return attempted, failures, metrics, detail


def traced(wl, lib, seed):
    from tracing import Tracer
    from workloads import Untraced

    ops = range(wl.trace_ops)
    wl.prepare(lib, Untraced())
    plain = [run_op(wl, wl.make(seed, i), Untraced()) for i in ops]

    tr = Tracer()
    wl.prepare(lib, tr)
    tr.install(lib)
    records = []
    try:
        for i in ops:
            inp = wl.make(seed, i)
            tr.begin_op(i)
            elapsed, cpu, failure = run_op(wl, inp, tr)
            tr.end_op(keep=failure != "deadline")
            _record(records, i, wl, inp, elapsed, cpu, failure)
    finally:
        tr.uninstall()

    both = [(p[0], r["ms"] / 1e3) for p, r in zip(plain, records)
            if p[2] != "deadline" and r["failure"] != "deadline"]
    base = sum(p for p, _ in both)
    overhead = sum(t for _, t in both) / base - 1.0 if base > 0.0 else 0.0
    metrics = tr.layer_metrics()
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    failures = [r["failure"] for r in records if r["failure"] is not None]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-s{seed}.tsv"
    tr.write_spans(spans_path)
    detail = {
        "trace_ops": wl.trace_ops,
        "untraced_ms": [p[0] * 1e3 for p in plain],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_kept": len(tr.spans),
        "failures_by_type": {f: failures.count(f) for f in sorted(set(failures))},
        "ops": records,
    }
    return len(records), failures, metrics, detail


def main(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    lib = _load_library()
    warnings.simplefilter("ignore")
    signal.signal(signal.SIGALRM, _on_alarm)
    wl = WORKLOADS[args.workload]()
    if args.trace:
        attempted, failures, metrics, detail = traced(wl, lib, args.seed)
    else:
        attempted, failures, metrics, detail = end_to_end(wl, lib, args.seed, args.seconds)

    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "op_size": wl.op_size, "deadline_s": wl.deadline_s, **detail}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{wl.name}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    summary = {k: v for k, v in detail.items() if k != "ops"}
    print(json.dumps(summary), file=sys.stderr)

    result = {
        "correct": "oracle" not in failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
