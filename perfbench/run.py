"""etaq benchmark: one workload per run, in a fresh single-threaded process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload expand-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record perfbench/results/out.json --runs 10 --seconds 30
    python3 perfbench/run.py --compare before.json after.json
    python3 perfbench/run.py --selfcheck

A run imports etaq from the checkout's src/ directory, builds the
workload's inputs from --seed, then repeats whole rounds of the
workload's operations until --seconds have passed, checking every output.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is sampled in this many fresh processes besides the measured one.
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 170

# The shared machines this runs on change speed by up to 3x for seconds
# to minutes at a time (other tenants, frequency scaling), which no median
# within one run can hide.  Every time reported is therefore scaled to a
# fixed machine speed, measured with calibration loops that share the
# workload's instruction mix but never touch etaq, so a change to the
# program moves scaled and raw times alike.  A loop timing divided by its
# reference time below is the machine's slowness at that moment; a
# latency is divided by the mean slowness measured just before and just
# after it.  Raw times are printed on the perfbench-run line.
CAL_SPACING_S = 0.25


def _cal_rationals():
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i % 7 + 1) * Fraction(3, i + 2)
    return acc


def _cal_small_ints():
    x = 7**1500
    for _ in range(30):
        x = (x * x) % (1 << 4500) + 1
    return x


def _cal_lists():
    return sum([i * i for i in range(15000)])


def _cal_big_ints():
    x = 3**60000
    y = x * (x + 1)
    return y.to_bytes((y.bit_length() + 7) // 8, "little")


# (loop, its time in seconds at the reference speed)
CALIBRATION = {
    "expand-deep": ((_cal_rationals, 0.0022), (_cal_small_ints, 0.0016),
                    (_cal_lists, 0.0007), (_cal_big_ints, 0.0031)),
    "certify": ((_cal_rationals, 0.0022), (_cal_big_ints, 0.0031)),
    "cusp-products": ((_cal_rationals, 0.0022),),
}


def _slowness(workload: str) -> float:
    """Mean over the workload's loops of loop time / reference time; each
    loop is timed twice and the shorter kept (an interrupt lengthens one)."""
    total = 0.0
    for loop, reference in CALIBRATION[workload]:
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            loop()
            times.append(time.perf_counter() - t0)
        total += min(times) / reference
    return total / len(CALIBRATION[workload])


class BenchError(Exception):
    pass


def _import_etaq():
    if not (SRC / "etaq" / "__init__.py").is_file():
        raise BenchError(f"no etaq sources under {SRC.name}/ next to {HERE.name}/")
    sys.path.insert(1, str(SRC))
    import etaq

    if not Path(etaq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"etaq was imported from {etaq.__file__}, not from {SRC.name}/")
    return etaq


def _setup(workload: str, seed: int, size: str = "full"):
    """Import etaq and build the inputs: the timed set-up."""
    t0 = time.perf_counter()
    etaq = _import_etaq()
    import workloads

    ops = workloads.build(workload, seed, size)
    return time.perf_counter() - t0, etaq, ops


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _env(etaq) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "kernel_backend": etaq.KERNEL_BACKEND,
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _child(args: list[str]) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child run {args} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child run {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


# ---------------------------------------------------------------------------
# one measured run
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setups = [
        json.loads(_child(["--setup-only", "--workload", workload, "--seed", str(seed)]).splitlines()[-1])
        for _ in range(SETUP_SAMPLES)
    ]
    setup_s, etaq, ops = _setup(workload, seed)
    setups.append(_scaled_setup(setup_s, workload))

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()

    walls = {False: [], True: []}  # raw wall time of each round
    slowness = []  # median slowness of each round
    # latencies[traced][i]: the i-th operation's latency in each round
    latencies = {False: [[] for _ in ops], True: [[] for _ in ops]}
    attempted = failed = 0
    errors: list[str] = []
    problems: list[str] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        wall = 0.0
        cal: list[tuple[int, float]] = []  # (operations timed before it, loop time)
        last_cal = -CAL_SPACING_S
        raw: list[tuple[int, float]] = []  # (operation index, raw latency)
        for i, op in enumerate(ops):
            if time.perf_counter() - last_cal >= CAL_SPACING_S:
                cal.append((len(raw), _slowness(workload)))
                last_cal = time.perf_counter()
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
                ok = True
            except Exception as exc:  # a failed operation is counted, not fatal
                ok = False
                errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            wall += dt
            if not ok:
                failed += 1
                continue
            raw.append((i, dt))
            problems += op.verify(op.extract(out))
        if traced:
            tracer.uninstall()
        cal.append((len(raw), _slowness(workload)))
        # Each latency is scaled by the loop times measured just before and
        # just after its operation.
        j = 0
        for k, (i, dt) in enumerate(raw):
            while cal[j + 1][0] <= k:
                j += 1
            latencies[traced][i].append(dt / ((cal[j][1] + cal[j + 1][1]) / 2))
        walls[traced].append(wall)
        slowness.append(statistics.median(c for _, c in cal))
        rounds += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rounds % 2 == 0):
            break

    for line in errors[:10]:
        print(f"perfbench: operation failed: {line}", file=sys.stderr)
    for line in problems[:10]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    correct = not problems
    # An operation's latency is its median over the run's rounds; wall_s
    # sums these over the workload's list, op_p50_ms takes their median.
    per_op = {t: [statistics.median(lat) for lat in latencies[t] if lat] for t in (False, True)}

    info = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "op_samples": len(per_op[False]),
        "setup_samples": len(setups),
        "raw_round_walls_s": [round(w, 4) for w in walls[False]],
        "raw_traced_round_walls_s": [round(w, 4) for w in walls[True]],
        "round_slowness": [round(f, 4) for f in slowness],
        "setup_samples_s": [round(v["scaled"], 5) for v in setups],
        "raw_setup_samples_s": [round(v["raw"], 5) for v in setups],
    }
    print("perfbench-env " + json.dumps(_env(etaq), sort_keys=True))
    print("perfbench-run " + json.dumps(info, sort_keys=True))

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median([v["scaled"] for v in setups]), "unit": "s"},
            "wall_s": {"value": sum(per_op[False]), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(per_op[False]) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        # span times are scaled by the traced rounds' median slowness
        traced_slowness = statistics.median(slowness[1::2])
        metrics = {
            name: {"value": value / traced_slowness if unit == "s" else value, "unit": unit}
            for name, (value, unit) in tracer.metrics(len(walls[True])).items()
        }
        traced_wall, plain_wall = sum(per_op[True]), sum(per_op[False])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def _scaled_setup(setup_s: float, workload: str) -> dict:
    slowness = statistics.median(_slowness(workload) for _ in range(3))
    return {"raw": setup_s, "scaled": setup_s / slowness}


def setup_only(workload: str, seed: int) -> int:
    setup_s, _, _ = _setup(workload, seed)
    print(json.dumps(_scaled_setup(setup_s, workload)))
    return 0


# ---------------------------------------------------------------------------
# result files: record and compare
# ---------------------------------------------------------------------------


def _parse_run(stdout: str) -> tuple[dict, dict, dict]:
    env = info = None
    for line in stdout.splitlines():
        if line.startswith("perfbench-env "):
            env = json.loads(line.split(" ", 1)[1])
        elif line.startswith("perfbench-run "):
            info = json.loads(line.split(" ", 1)[1])
    return env, info, json.loads(stdout.splitlines()[-1])


def record(path: str, runs: int, seconds: float, names: tuple[str, ...], seed_base: int) -> int:
    data: dict = {"seconds": seconds, "env": None, "workloads": {}}
    for name in names:
        entry: dict = {"runs": [], "traced": None}
        for i in range(runs + 1):
            seed = seed_base + i if i < runs else seed_base
            trace = "1" if i == runs else "0"
            out = _child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", trace])
            env, info, result = _parse_run(out)
            if data["env"] is None:
                data["env"] = env
            elif env["kernel_backend"] != data["env"]["kernel_backend"]:
                raise BenchError("kernel backend changed between runs of one record")
            run = {"seed": seed, "info": info, **result}
            if trace == "1":
                entry["traced"] = run
            else:
                entry["runs"].append(run)
            print(f"{name} seed={seed} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        data["workloads"][name] = entry
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    _print_summary(data)
    return 0


def _values(entry: dict, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in entry["runs"]]


def _print_summary(data: dict) -> None:
    env = data["env"]
    print(f"\nbackend={env['kernel_backend']} python={env['python']} cpus={env['cpu_count']} "
          f"commit={env['commit'][:12]} seconds={data['seconds']}")
    print(f"{'workload':14s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/med':>8s}")
    for name, entry in data["workloads"].items():
        for metric in entry["runs"][0]["metrics"]:
            q1, med, q3 = _quartiles(_values(entry, metric))
            print(f"{name:14s} {metric:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} {(q3 - q1) / med:8.1%}")
        traced = entry["traced"]
        if traced:
            m = traced["metrics"]
            print(f"{name:14s} tracing overhead {m['trace.overhead_s']['value']:.3f} s on "
                  f"{m['trace.untraced_wall_s']['value']:.3f} s untraced")


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    ba, bb = a["env"]["kernel_backend"], b["env"]["kernel_backend"]
    if ba != bb:
        print(f"WARNING: kernel backends differ ({ba} vs {bb}); "
              "the figures below compare different kernels, not two versions of one.")
    if a["seconds"] != b["seconds"]:
        print(f"WARNING: run lengths differ ({a['seconds']} s vs {b['seconds']} s).")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"A: {path_a} commit {a['env']['commit'][:12]} ({len(next(iter(a['workloads'].values()))['runs'])} runs)")
    print(f"B: {path_b} commit {b['env']['commit'][:12]} ({len(next(iter(b['workloads'].values()))['runs'])} runs)")
    print(f"\n{'workload':14s} {'metric':12s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s} "
          f"{'delta':>8s} {'bound':>6s}  verdict")
    regressions = 0
    shared = [w for w in a["workloads"] if w in b["workloads"]]
    for name in shared:
        ea, eb = a["workloads"][name], b["workloads"][name]
        for m in spec["end_to_end"]:
            qa, qb = _quartiles(_values(ea, m["name"])), _quartiles(_values(eb, m["name"]))
            delta = (qb[1] - qa[1]) / qa[1]
            worse = delta if m["better"] == "lower" else -delta
            spread = (qa[2] - qa[0]) / qa[1]
            if worse > m["bound"]:
                verdict = "WORSE BEYOND BOUND"
                regressions += 1
            elif spread > m["bound"]:
                verdict = "unresolved (A spread exceeds bound)"
            else:
                verdict = "within bound" if worse > 0 else "better or equal"
            cell_a = f"{qa[1]:.4f} [{qa[0]:.4f}, {qa[2]:.4f}]"
            cell_b = f"{qb[1]:.4f} [{qb[0]:.4f}, {qb[2]:.4f}]"
            print(f"{name:14s} {m['name']:12s} {cell_a:>30s} {cell_b:>30s} {delta:+8.1%} "
                  f"{m['bound']:6.0%}  {verdict}")
    print(f"\nper-layer (traced runs)\n{'workload':14s} {'metric':34s} {'A':>12s} {'B':>12s} {'delta':>8s}")
    for name in shared:
        ta, tb = a["workloads"][name]["traced"], b["workloads"][name]["traced"]
        if not ta or not tb:
            continue
        for metric, va in ta["metrics"].items():
            if metric not in tb["metrics"]:
                continue
            x, y = va["value"], tb["metrics"][metric]["value"]
            delta = f"{(y - x) / x:+8.1%}" if x else ("       =" if y == x else "     new")
            print(f"{name:14s} {metric:34s} {x:12.4g} {y:12.4g} {delta}")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------

# Layers each workload exists to exercise, and the kernel the
# cusp-products workload must not touch.
EXPECTED_WORK = {
    "expand-deep": ["kernels.conv_calls", "eta.expansion_calls", "cli.calls"],
    "certify": ["search.candidates_scanned", "eisenstein.match_calls", "linalg.solve_calls",
                "series.inverse_calls", "cli.calls"],
    "cusp-products": ["cusps.expand_calls", "cusps.order_calls", "series.cyc_mul_calls",
                      "cyclotomic.mul_calls", "cyclotomic.zero_tests"],
}
EXPECTED_IDLE = {"cusp-products": ["kernels.conv_calls", "series.mul_calls"]}


def selfcheck() -> int:
    _import_etaq()
    import workloads
    from tracer import Tracer

    failures = []
    for name in workloads.WORKLOADS:
        t0 = time.perf_counter()
        ops = workloads.build(name, 0, "tiny")
        if [op.label for op in ops] != [op.label for op in workloads.build(name, 0, "tiny")]:
            failures.append(f"{name}: one seed gave two different inputs")
        if [op.label for op in ops] == [op.label for op in workloads.build(name, 1, "tiny")]:
            failures.append(f"{name}: seeds 0 and 1 gave the same inputs")
        tracer = Tracer()
        tracer.install()
        try:
            outputs = [(op, op.run()) for op in ops]
        finally:
            tracer.uninstall()
        rejected = 0
        for op, out in outputs:
            data = op.extract(out)
            failures += [f"{name}: {p}" for p in op.verify(data)]
            bad = op.corrupt(data) if op.corrupt else None
            if bad is not None:
                if op.verify(bad):
                    rejected += 1
                else:
                    failures.append(f"{name}: {op.label}: corrupted output accepted")
        if not rejected:
            failures.append(f"{name}: no corrupted output was tried")
        metrics = tracer.metrics(1)
        for metric in EXPECTED_WORK[name]:
            if not metrics[metric][0]:
                failures.append(f"{name}: traced round shows no {metric}")
        for metric in EXPECTED_IDLE.get(name, []):
            if metrics[metric][0]:
                failures.append(f"{name}: traced round shows {metric} = {metrics[metric][0]}")
        print(f"{name}: {len(ops)} operations checked, {rejected} corrupted outputs rejected, "
              f"{time.perf_counter() - t0:.1f} s")
    for line in failures:
        print(f"FAIL {line}")
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", metavar="OUT", help="run every workload; write a result file")
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload (--record)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files")
    parser.add_argument("--selfcheck", action="store_true", help="tiny sizes and corrupted outputs")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.selfcheck:
            return selfcheck()
        if args.record:
            return record(args.record, args.runs, args.seconds, workloads.WORKLOADS, args.seed)
        if not args.workload:
            parser.error("--workload is required")
        if args.setup_only:
            return setup_only(args.workload, args.seed)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
