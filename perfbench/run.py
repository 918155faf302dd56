"""cvshape benchmark: closed loop, one client, one in-process CLI call per op.

Run from the repository root:

    python3 perfbench/run.py --workload wide-lattice --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Every op is ``cvshape.cli.main([...])`` on generated config and graph
files, writing its report to a file that is then checked.  ``--trace 0``
times untraced ops and prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and prints the per-layer metrics.
The last line of standard output is one JSON object.  Inputs, reports
and spans stay under ``.bench_work/`` and ``.bench_out/`` in the
repository root.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

from checks import check_op
from tracer import Tracer, patched
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Setups measured per run (this process plus fresh probe processes);
#: setup_s is their median.
SETUP_REPEATS = 7

TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description="cvshape benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads() -> int:
    """Run BLAS on one thread; must run before numpy is imported.

    The matrices here are at most 128 x 128.  With a thread per core, an op
    on a shared 2-core machine ran 0.07 s or 0.10 s depending on whether a
    neighbour left the second core free; one thread gives one steady figure.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_program():
    """Import cvshape from this checkout's sources, never from an installed copy."""
    if not (SRC / "cvshape" / "__init__.py").is_file():
        raise SystemExit(f"error: no cvshape sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cvshape.cli

    if Path(cvshape.cli.__file__).resolve().parent != SRC / "cvshape":
        raise SystemExit(f"error: imported cvshape from {cvshape.cli.__file__}, not {SRC}")
    return cvshape.cli


def git_sha():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def host_counters() -> dict:
    """Cumulative host-side CPU counters, read-only; a missing one is left out.

    ``steal_s``: time the hypervisor ran something else on this machine's
    CPUs (all CPUs summed).  ``cpu_pressure_s``: time some task here waited
    for a CPU.  ``throttled``/``throttled_s``: CPU-quota throttling of this
    cgroup (v2 or v1 layout).
    """
    counters = {}
    stat = _read("/proc/stat")
    if stat:
        fields = stat.split("\n", 1)[0].split()
        if len(fields) > 8:
            counters["steal_s"] = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    pressure = _read("/proc/pressure/cpu")
    if pressure:
        some = dict(item.split("=") for item in pressure.split("\n", 1)[0].split()[1:])
        counters["cpu_pressure_s"] = int(some["total"]) / 1e6
    for path, key, scale in (("/sys/fs/cgroup/cpu.stat", "throttled_usec", 1e6),
                             ("/sys/fs/cgroup/cpu/cpu.stat", "throttled_time", 1e9)):
        cpu_stat = _read(path)
        if cpu_stat:
            values = dict(line.split() for line in cpu_stat.splitlines() if line.strip())
            if key in values:
                counters["throttled"] = int(values["nr_throttled"])
                counters["throttled_s"] = int(values[key]) / scale
                break
    return counters


def environment(load_start: float, host_start: dict, blas_threads: int) -> dict:
    """Versions and settings, plus how busy the host was during the run.

    ``host_during_run`` gives each host counter's increase over the run.
    """
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "host_during_run": {name: end - host_start[name]
                            for name, end in host_counters().items() if name in host_start},
    }


class Runner:
    """Runs ops of one cycle by index and checks every report."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.harness_s = 0.0

    def run(self, index: int, around=nullcontext) -> float:
        """Run op ``index`` of the cycle; return the wall time of the CLI call.

        ``harness_s`` accumulates the rest of this call's time: clearing and
        reading the report file and checking it.
        """
        called = perf_counter()
        spec = self.ops[index % len(self.ops)]
        output = Path(spec.output)
        output.unlink(missing_ok=True)
        with around():
            start = perf_counter()
            try:
                status = self.cli.main(list(spec.argv))
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # a crash is a failed op, not a benchmark error
                status = f"raised {exc!r}"
            elapsed = perf_counter() - start
        report = output.read_bytes() if output.exists() else None
        self.attempted += 1
        problems = check_op(spec, status, report, self.digests)
        if problems:
            self.failures.append({"op": spec.key, "problems": problems})
        self.harness_s += perf_counter() - called - elapsed
        return elapsed


def tail(times):
    """(percentile, time) at the highest ladder percentile with >= 10 ops beyond it."""
    ordered = sorted(times)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def cycle_stat(times, cycle: int, stat=statistics.median) -> float:
    """Mean over the cycle's positions of ``stat`` of each position's op times.

    A round-robin cycle mixes ops of different cost, and a statistic of
    that mixture falls between their modes, where small shifts move it
    most.  For a one-op cycle this is ``stat`` of all the times.
    """
    return statistics.fmean(stat(times[k::cycle]) for k in range(min(cycle, len(times))))


def timed_phase(runner, seconds):
    """Op times of the timed phase, its wall time, and the checks' share of it."""
    times = []
    harness_before = runner.harness_s
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline:
        times.append(runner.run(len(times)))
    wall = perf_counter() - start
    return times, wall, (runner.harness_s - harness_before) / wall


def memory_pass(runner):
    """Peak traced allocation of each op of one cycle, and of run_trajectory within it.

    The cycle runs twice; ``repeat_gap`` is the largest relative difference
    between the two rounds' peaks.
    """
    outer_peaks, trajectory_peaks, op_peaks = [], [], []

    def probe_trajectory(layer, function):
        def probed(*args, **kwargs):
            outer_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return function(*args, **kwargs)
            finally:
                trajectory_peaks.append(tracemalloc.get_traced_memory()[1] - base)

        return probed

    @contextmanager
    def around_op():
        gc.collect()
        outer_peaks.clear()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        yield
        op_peaks.append(max(outer_peaks + [tracemalloc.get_traced_memory()[1]]) - base)

    cycle = len(runner.ops)
    tracemalloc.start()
    try:
        with patched(["shaping.run_trajectory"], probe_trajectory):
            for index in range(2 * cycle):
                runner.run(index, around_op)
    finally:
        tracemalloc.stop()

    def halves(peaks):
        half = len(peaks) // 2
        return peaks[:half] or [0], peaks[half:] or [0]

    gaps = [abs(a - b) / max(a, b) for first, second in map(halves, (op_peaks, trajectory_peaks))
            for a, b in zip(first, second) if max(a, b)]
    return {
        "peak_mib": max(halves(op_peaks)[0]) / 2.0**20,
        "trajectory_peak_mib": max(halves(trajectory_peaks)[0]) / 2.0**20,
        "repeat_gap": max(gaps),
    }


def probe_setups(args, count):
    """Setup times of fresh processes, plus their op counts."""
    times, attempted, failed = [], 0, 0
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            raise SystemExit(f"error: setup probe failed ({done.returncode}): {done.stderr[-2000:]}")
        result = json.loads(lines[-1])
        times.append(result["setup_s"])
        attempted += result["attempted"]
        failed += result["failed"]
    return times, attempted, failed


def end_to_end(args, runner, setup_s):
    times, wall, harness_frac = timed_phase(runner, args.seconds)
    memory = memory_pass(runner)
    setups, probe_attempted, probe_failed = probe_setups(args, SETUP_REPEATS - 1)
    metrics = {
        "setup_s": (statistics.median([setup_s] + setups), "s"),
        "op_s_min": (cycle_stat(times, len(runner.ops), min), "s"),
        "peak_mib": (memory["peak_mib"], "MiB"),
    }
    details = {
        "timed_ops": len(times),
        "op_s_p50": cycle_stat(times, len(runner.ops)),
        "ops_per_s": len(times) / wall,
        "harness_frac": harness_frac,
        "setup_samples_s": [setup_s] + setups,
        "peak_repeat_gap": memory["repeat_gap"],
        "probe_ops": probe_attempted,
    }
    return metrics, details, probe_attempted, probe_failed


def per_layer(args, runner):
    tracer = Tracer()
    plain, traced, trials = [], [], 0
    start = perf_counter()
    deadline = start + args.seconds
    while perf_counter() < deadline:
        index = len(plain)
        plain.append(runner.run(index))
        trials += runner.ops[index % len(runner.ops)].trials
        tracer.op = index
        with tracer.installed():
            traced.append(runner.run(index))
    memory = memory_pass(runner)

    ops = list(range(len(traced)))
    plain_p50 = cycle_stat(plain, len(runner.ops))
    traced_p50 = cycle_stat(traced, len(runner.ops))
    pct, tail_s = tail(plain)
    metrics = {name: (value, None) for name, value in tracer.layer_metrics(ops, len(runner.ops)).items()}
    metrics["shaping.run_trajectory.peak_mib"] = (memory["trajectory_peak_mib"], "MiB")
    metrics["op_s_tail"] = (tail_s, "s")
    metrics["mc_trials_per_s"] = (trials / sum(plain), "1/s")
    metrics["op_s_p50"] = (plain_p50, "s")
    metrics["trace.op_s_p50"] = (traced_p50, "s")
    metrics["trace.overhead_frac"] = (traced_p50 / plain_p50 - 1.0, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    details = {"traced_ops": len(traced), "untraced_ops": len(plain),
               "tail_percentile": pct,
               "peak_repeat_gap": memory["repeat_gap"]}
    return metrics, details


def layer_unit(name: str) -> str:
    quantity = name.rsplit(".", 1)[1]
    return {"self_s": "s", "calls": "count", "dense_flops": "flop", "bytes": "B",
            "elements": "count", "trials_per_s": "1/s"}[quantity]


def run_workload(args) -> int:
    load_start, host_start = os.getloadavg()[0], host_counters()
    os.environ.pop("CVSHAPE_SEED", None)  # it would override every --seed
    blas_threads = pin_blas_threads()
    cli = import_program()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    os.chdir(work)
    try:
        runner = Runner(cli, generate(args.workload, args.seed, work))
        runner.run(0)  # warm-up
        setup_s = perf_counter() - _STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "attempted": runner.attempted,
                              "failed": len(runner.failures)}))
            return 1 if runner.failures else 0
        extra_attempted = extra_failed = 0
        if args.trace:
            metrics, details = per_layer(args, runner)
        else:
            metrics, details, extra_attempted, extra_failed = end_to_end(args, runner, setup_s)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    attempted = runner.attempted + extra_attempted
    failed = len(runner.failures) + extra_failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit or layer_unit(name)}
            for name, (value, unit) in metrics.items()
        },
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, details=details, failures=runner.failures[:20],
                  failed_frac=failed / attempted,
                  environment=environment(load_start, host_start, blas_threads))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"{args.workload} details {json.dumps(details)}")
    for failure in runner.failures[:5]:
        print(f"{args.workload} FAILED {failure['op']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process and print every metric by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
        if done.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
