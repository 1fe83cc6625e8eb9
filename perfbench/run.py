"""reupqnn benchmark: one workload per invocation, results as JSON.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else.  Load model: a closed loop with one client,
one process pinned to one CPU, ``--threads 1`` and one BLAS thread.  After
an untimed warm-up, repetitions run back to back for ``--seconds``, each
followed by a block of the reference loop: at least MIN_REPS of them, and
none started that would, at the median repetition-plus-block time, end
after the deadline.  Every repetition at one seed does the same work and
must write the same bytes.  End-to-end times are scaled to the reference
host speed by the loop blocks around them (hostspeed.py).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from repetitions run under the span tracer,
alternating with untraced ones to measure the tracing overhead.  The last
stdout line is the JSON result; lines before it repeat every metric by
name and unit and record the environment.  The exit code is 1 when a
correctness check failed.  See NOTES.md.
"""

import os

# Set before numpy loads: BLAS threads stay at one, below nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_REPS = 3
SETUP_SAMPLES = 7
CAL_SHARE = 0.2  # reference-loop block time per timed span
MIN_LOOPS = 10
NPROC = len(os.sched_getaffinity(0))


def import_package():
    if not os.path.isfile(os.path.join(SRC, "reupqnn", "__init__.py")):
        sys.exit(f"no reupqnn package under {SRC}")
    sys.path.insert(0, SRC)
    import reupqnn

    if not os.path.abspath(reupqnn.__file__).startswith(SRC + os.sep):
        sys.exit(f"reupqnn imported from {reupqnn.__file__}, not from {SRC}")


def _read(path: str, default: str = "unknown") -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return default


def environment(wl) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo", "").splitlines()
                  if line.startswith("model name")), "unknown")
    cache = "/sys/devices/system/cpu/cpu0/cache"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": NPROC,
        "cpu": model,
        "l2": _read(f"{cache}/index2/size").strip(),
        "l3": _read(f"{cache}/index3/size").strip(),
        "working_set": wl.cache_note + "; every working set fits in L3, none is bandwidth-bound",
        "waiting": "not applicable: one process, one thread, no queue or lock",
    }


def setup_once(wl) -> float:
    """Wall time of a fresh process that imports reupqnn and loads the inputs."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, wl.config_path or "-"]
    t0 = time.perf_counter()
    subprocess.run(probe, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Checker:
    """Counts checks: the first output against the reference, later ones by digest."""

    def __init__(self, wl):
        self.wl = wl
        self.digest = None
        self.first_errors = []
        self.errors = []
        self.attempted = self.failed = 0

    def add(self, output, errors=()):
        per_rep = self.wl.checks_per_rep
        self.attempted += per_rep
        if isinstance(output, BaseException):
            self.failed += per_rep
            self.errors.append(f"raised {output!r}")
            return
        digest = hashlib.sha256(output).hexdigest()
        if self.digest is None:
            self.digest = digest
            self.first_errors = self.wl.verify(output)
            self.errors += self.first_errors
        elif digest != self.digest:
            self.failed += per_rep
            self.errors.append("output bytes differ from the first repetition")
            return
        self.failed += min(per_rep, len(self.first_errors) + len(errors))
        self.errors += list(errors)


def timed_rep(wl, tracer=None):
    """(wall s, cpu s, output bytes or the exception raised)."""
    from spans import ROOT_SPAN

    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        output = wl.rep() if tracer is None else tracer.span(ROOT_SPAN, wl.rep)
    except Exception as exc:  # a failed operation is counted, not fatal
        output = exc
    return time.perf_counter() - t0, time.process_time() - c0, output


def _block_after(span: float) -> hostspeed.Block:
    return hostspeed.Block(max(MIN_LOOPS, round(CAL_SHARE * span / hostspeed.REF_LOOP_S)))


def end_to_end(wl, seconds: float, checker: Checker) -> dict:
    """Set-up and repetition times scaled to the reference host speed.

    Each timed span is paired with the mean reference-loop time of the
    blocks just before and after it; a metric is the sum of its spans over
    the sum of their loop times, times REF_LOOP_S (hostspeed.py)."""
    warm, _, output = timed_rep(wl)  # warm-up: checked, not timed
    checker.add(output)
    start = time.perf_counter()
    before = _block_after(warm)
    raw = {"setup_s": [], "wall_s": [], "cpu_s": []}
    loop_s = {"setup_s": [], "wall_s": [], "cpu_s": []}  # reference-loop time around each span
    spans, blocks = [], []
    while True:
        t0 = time.perf_counter()
        elapsed = t0 - start
        # Set-up samples are spread evenly over the run, between repetitions;
        # the ones still missing at the deadline are taken after it.
        setup_due = len(raw["setup_s"]) < SETUP_SAMPLES and (
            elapsed >= len(raw["setup_s"]) * seconds / SETUP_SAMPLES or len(raw["wall_s"]) >= MIN_REPS
            and elapsed + statistics.median(spans) > seconds)
        if setup_due:
            setup = setup_once(wl)
            after = _block_after(setup)
            raw["setup_s"].append(setup)
            loop_s["setup_s"].append(0.5 * (before.wall + after.wall))
        # Stop before a repetition that would end past the deadline.
        elif len(raw["wall_s"]) >= MIN_REPS and elapsed + statistics.median(spans) > seconds:
            break
        else:
            wall, cpu, output = timed_rep(wl)
            checker.add(output)
            after = _block_after(wall)
            raw["wall_s"].append(wall)
            raw["cpu_s"].append(cpu)
            loop_s["wall_s"].append(0.5 * (before.wall + after.wall))
            loop_s["cpu_s"].append(0.5 * (before.cpu + after.cpu))
            spans.append(time.perf_counter() - t0)
        blocks.append(after.wall)
        before = after
    print(f"repetitions {len(raw['wall_s'])}, reference-loop blocks {len(blocks)}")
    for name, values in raw.items():
        print(f"unscaled {name} median {statistics.median(values)!r} s, fastest {min(values)!r} s, "
              f"slowest {max(values)!r} s")
    slowdown = [b / hostspeed.REF_LOOP_S for b in blocks]
    print(f"host slowdown (reference-loop time / REF_LOOP_S) median {statistics.median(slowdown)!r}, "
          f"fastest {min(slowdown)!r}, slowest {max(slowdown)!r}")
    scaled = {name: hostspeed.scaled(sum(raw[name]), sum(loop_s[name])) for name in raw}
    wall = scaled["wall_s"]
    return {
        "setup_s": scaled["setup_s"],
        "wall_s": wall,
        "cpu_s": scaled["cpu_s"],
        "throughput": wl.work_per_rep / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, seconds: float, checker: Checker, names) -> dict:
    from spans import Tracer

    tracer = Tracer()
    plain, traced, layer_values = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start + 2 * statistics.median(traced) <= seconds:
        wall, _, output = timed_rep(wl)
        checker.add(output)
        plain.append(wall)
        tracer.reset()
        tracer.install()
        try:
            unwrapped = tracer.unwrapped_bindings()
            wall, _, output = timed_rep(wl, tracer)
        finally:
            tracer.uninstall()
        checker.add(output, [f"traced run missed binding {b}" for b in unwrapped])
        traced.append(wall)
        layer_values.append(tracer.metrics(wall))
    values = {name: statistics.median(v.get(name, 0.0) for v in layer_values) for name in names}
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.overhead_frac"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1.0
    return values


def run_one(args) -> int:
    import_package()
    # One CPU for the whole run, so the reference loop and the spans it
    # scales run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        checker = Checker(wl)
        if args.trace:
            values = per_layer(wl, args.seconds, checker, [m["name"] for m in wanted])
        else:
            values = end_to_end(wl, args.seconds, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(work_root)

    print("env " + json.dumps(environment(wl), sort_keys=True))
    print(f"output_sha256 {checker.digest}")
    for err in checker.errors[:20]:
        print(f"check failed: {err}")
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    if not args.trace:
        print(f"  (throughput on {wl.name} is {wl.throughput_name}: {wl.work_per_rep} per repetition)")
        print(f"failed_frac = {checker.failed / max(checker.attempted, 1)!r} 1")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


def run_all(args) -> int:
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
