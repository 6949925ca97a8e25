"""Run one hittimes benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload oracle-rare --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` without installing it. The workload is a closed loop: one caller,
``workers = 1``, each operation starting when the previous one returns. Whole
passes over the workload's operations repeat until ``--seconds`` have
elapsed.

The host is shared: the speed this process gets drifts by tens of percent
over tens of seconds, so raw wall times of one run differ from the next run's
by more than any useful regression bound. A fixed calibration loop, which
never calls hittimes and does the same kind of work as the workload's
operations, is therefore timed between consecutive operations. Each
execution's wall time is divided by the median of the four loop times nearest
it, two before and two after; the median of those ratios is taken per
operation over the run, and the sum over operations is scaled by
``CAL_REF_S``, the loop time that defines the reference host speed. That is ``wall_ref_s``: the wall time of one pass at the
reference speed. The raw median pass wall time is printed alongside it.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, whose passes alternate untraced and traced so that
the tracing overhead is measured in the same process. Either way every
output is checked, the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the line before it
(``record {...}``) holds the seed, output digests and environment stamp,
also written to ``.bench_out/``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first line of this script

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_CAP_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREAD_CAP = 1  # single-caller closed loop; also keeps BLAS pools off a shared machine
SETUP_PROBES = 2  # fresh processes that only set up; with the run itself, 3 samples
PROBE_TIMEOUT_S = 120

CAL_REF_S = 0.010  # calibration-loop time that defines the reference host speed
CAL_LOOP = 50_000  # interpreter iterations of the "interpreter" loop
CAL_SMALL = 1_500  # NumPy calls on a 64-element array in the "interpreter" loop
CAL_ARRAY_PASSES = 8  # passes over a 2^16-element array in the "array" loop
CAL_SCALAR = 25_000  # per-element function calls of the "scalar" loop

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "work_per_ref_s": "1/s"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    """Machine, interpreter and library stamp recorded with every result."""
    import numpy
    import scipy

    stamp = {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_CAP_VARS},
        "seed": seed,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                stamp["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                stamp[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    stamp["git_commit"] = None  # a source export has no repository
    if (ROOT / ".git").exists():
        try:
            stamp["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    stamp["src_sha256"] = _tree_digest(SRC / "hittimes")
    return stamp


def _tree_digest(root: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_samples(args: argparse.Namespace, first: float) -> list[float]:
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _scalar_step(y: float, u: float) -> tuple[int, float]:
    k = int(u * 10.0) + 1
    return k, 1.0 / (k + y)


def calibration_s(kind: str = "interpreter") -> float:
    """Wall time of a fixed loop of the given kind of work, which measures
    the host's speed at this moment for operations doing that kind of work.

    The host's drift does not slow every kind of code alike: on a 2-CPU Xeon
    VM, interpreter bytecode and small-array NumPy calls slowed by up to 1.6x
    while passes over 2^16-element arrays slowed by half as much in log
    terms. So each workload names the loop that does work like its own:
    "interpreter" (bytecode, then NumPy calls on 64 elements), "array"
    (pairwise sums, repeats and masked sums over 2^16 elements) or "scalar"
    (a Python function called on each element of a float array, its integer
    result stored into an int64 array, as a digit stream is generated).
    """
    import numpy as np

    if kind == "scalar":
        us = np.linspace(0.01, 0.99, CAL_SCALAR)
        buf = np.empty(CAL_SCALAR, dtype=np.int64)
        y = 0.5
        t = time.perf_counter()
        pos = 0
        for u in us:
            k, y = _scalar_step(y, float(u))
            buf[pos] = k
            pos += 1
        return time.perf_counter() - t

    if kind == "array":
        w = np.linspace(0.0, 1.0, 1 << 16)
        mask = np.arange(1 << 16) % 10 == 0
        t = time.perf_counter()
        for _ in range(CAL_ARRAY_PASSES):
            w = w.reshape(-1, 2).sum(axis=1).repeat(2) * 0.5
            float(w[mask].sum())
        return time.perf_counter() - t
    a = np.linspace(0.0, 1.0, 64)
    t = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    for _ in range(CAL_SMALL):
        a = a * 0.5 + 0.25
    return time.perf_counter() - t


def reference_wall_s(ratios: dict[str, list[float]]) -> float:
    """One pass's wall time at the reference host speed: the sum over
    operations of the median of wall time / adjacent calibration time."""
    return CAL_REF_S * sum(statistics.median(r) for r in ratios.values())


def run_passes(ops, seconds: float, trace: bool, tracer, calibration: str = "interpreter") -> dict:
    """Closed loop over whole passes; returns timings, outputs and failures.

    Pass 0 warms caches and lazy set-up: it is checked but not timed. Then
    passes are untraced, or alternate untraced and traced when ``trace``.
    """
    import workloads

    walls = {"warmup": [], "untraced": [], "traced": []}
    op_walls = {kind: {op.name: [] for op in ops} for kind in walls}  # per execution
    cal_index = {kind: {op.name: [] for op in ops} for kind in walls}  # loop timed just before
    cal_s: list[float] = []
    first_output: dict[str, object] = {}
    first_digest: dict[str, str] = {}
    runs: dict[str, list[str | None]] = {op.name: [] for op in ops}  # digest per execution, None if raised
    errors: list[str] = []
    pass_run_ids: list[list[int]] = []
    started = time.perf_counter()
    n_pass = 0
    while True:
        traced = trace and n_pass > 0 and n_pass % 2 == 0
        kind = "warmup" if n_pass == 0 else "traced" if traced else "untraced"
        wall = 0.0
        ids = []
        cal_s.append(calibration_s(calibration))
        for op in ops:
            if traced:
                tracer.run_id += 1
                ids.append(tracer.run_id)
                tracer.install()
            t = time.perf_counter()
            try:
                try:
                    result = op.call()
                finally:
                    dt = time.perf_counter() - t
                    if traced:
                        tracer.uninstall()
                    cal_index[kind][op.name].append(len(cal_s) - 1)
                    cal_s.append(calibration_s(calibration))
                    wall += dt
                    op_walls[kind][op.name].append(dt)
                output = op.collect(result)
            except Exception as exc:  # a failing operation is counted, never fatal
                runs[op.name].append(None)
                errors.append(f"pass {n_pass} {op.name}: {type(exc).__name__}: {exc}")
                continue
            d = workloads.digest(output)
            runs[op.name].append(d)
            if op.name not in first_output:
                first_output[op.name], first_digest[op.name] = output, d
        walls[kind].append(wall)
        if traced:
            pass_run_ids.append(ids)
        n_pass += 1
        # stop before a pass that would likely end after the measuring time
        elapsed = time.perf_counter() - started
        if n_pass >= (3 if trace else 2) and elapsed * (n_pass + 1) / n_pass > seconds:
            break
    op_ratios = {
        kind: {
            name: [dt / statistics.median(cal_s[max(i - 1, 0) : i + 3]) for dt, i in zip(times, cal_index[kind][name])]
            for name, times in by_op.items()
        }
        for kind, by_op in op_walls.items()
    }
    return {"walls": walls, "op_walls": op_walls, "op_ratios": op_ratios, "cal_s": cal_s,
            "first_output": first_output, "first_digest": first_digest,
            "runs": runs, "errors": errors, "pass_run_ids": pass_run_ids}


def check_outputs(workload, log: dict, refs: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): an execution fails if it raised, if its
    output differs from the first output, or if that output fails its check."""
    attempted = failed = 0
    messages = list(log["errors"])
    for name, digests in log["runs"].items():
        attempted += len(digests)
        bad = []
        if name in log["first_output"]:
            try:
                bad = workload.checks[name](log["first_output"][name], refs)
            except Exception as exc:  # a malformed output fails its check
                bad = [f"check raised {type(exc).__name__}: {exc}"]
        messages += [f"{name}: {m}" for m in bad]
        want = log["first_digest"].get(name)
        for d in digests:
            if d is None or d != want or bad:
                failed += 1
        if any(d is not None and d != want for d in digests):
            messages.append(f"{name}: outputs differ between passes")
    return attempted, failed, messages


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hittimes" / "__init__.py").is_file():
        print(f"benchmark: no hittimes package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_CAP_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path.insert(0, str(SRC))

    import hittimes.cli
    import workloads

    if Path(hittimes.__file__).resolve().parent != SRC / "hittimes":
        print(f"benchmark: imported hittimes from {hittimes.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    for op in ops:
        if op.config is not None:
            hittimes.cli.validate_config(op.config)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import report
    from tracing import Tracer

    samples = setup_samples(args, setup_s)
    tracer = Tracer() if args.trace else None
    scratch = ROOT / ".bench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    os.chdir(scratch)  # configs write into the default relative output root "runs"
    try:
        log = run_passes(ops, args.seconds, bool(args.trace), tracer, workload.calibration)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        attempted, failed, messages = check_outputs(workload, log, workload.references())
    except Exception as exc:  # without references no output counts as correct
        attempted = sum(map(len, log["runs"].values()))
        failed, messages = attempted, [f"references raised {type(exc).__name__}: {exc}"]
    work = workload.work()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "digests": log["first_digest"],
        "environment": environment(args.seed),
        "setup_samples_s": samples,
        "pass_wall_s": log["walls"],
        "op_wall_s": log["op_walls"],
        "op_wall_over_cal": log["op_ratios"],
        "cal_s": log["cal_s"],
        "work_per_pass": work,
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:50],
    }
    lines = [f"workload {workload.name}: {workload.why}; closed loop, 1 caller, "
             f"{sum(map(len, log['walls'].values()))} passes, the first a warm-up"]
    if args.trace:
        overhead_s = reference_wall_s(log["op_ratios"]["traced"]) - reference_wall_s(log["op_ratios"]["untraced"])
        metrics, units, shares = report.per_layer(workload, tracer.spans, log["pass_run_ids"], overhead_s, work)
        record["layer_self_share"] = shares
        lines += report.prediction_lines(workload, shares)
        tracer.dump(out_dir / f"{workload.name}-seed{args.seed}-spans.json")
    else:
        wall_s = statistics.median(log["walls"]["untraced"])
        wall_ref_s = reference_wall_s(log["op_ratios"]["untraced"])
        metrics = {
            "wall_ref_s": wall_ref_s,
            "setup_s": statistics.median(samples),
            "peak_rss_mib": peak_rss_mib,
            "work_per_ref_s": work / wall_ref_s,
        }
        units = dict(END_TO_END_UNITS)
        lines.append(f"wall_s {wall_s:.6g} s (raw median pass; calibration loop median "
                     f"{statistics.median(log['cal_s']) * 1e3:.4g} ms, reference {CAL_REF_S * 1e3:g} ms)")
        lines.append(f"{workload.work_metric} {work / wall_ref_s:.6g} 1/s at the reference speed "
                     f"(= work_per_ref_s; {work} per pass)")
        lines.append(f"failed_ops_frac {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")
    lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines += [f"FAILED {m}" for m in messages[:20]]
    record["metrics"] = metrics
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print("\n".join(lines))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
