"""netguard CLI benchmark: one workload, one seed, one JSON line of results.

Run from the root of a source checkout (netguard is imported from
``src/``):

    python3 perfbench/run.py --workload identify --seed 1 --seconds 28 --trace 0

The benchmark generates the workload's scenarios from the seed, writes
them as scenario files, and drives ``netguard.cli.main`` in-process from
one closed-loop client with no time-outs.  A run is a whole number of
passes over the same scenario list, as many as end nearest to
``--seconds`` (at least one).  Every verdict is checked (see ``checks``).  With
``--trace 1`` each netguard module's public functions are wrapped and the
per-layer figures are reported instead of the end-to-end ones.

Times are wall-clock and reported at a reference host speed: a fixed
calibration unit (``calibration``) runs before every operation, and every
time is scaled by the unit's reference time over its mean time in the run.

The last line of standard output is the JSON result.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "out"

# One BLAS/OpenMP thread; set in main() before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import netguard.cli; "
                "print(time.perf_counter() - t)")


def child_import_seconds() -> float:
    """Time to import netguard in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def write_scenarios(scenarios: list, workdir: Path) -> list:
    """Write each scenario file; return (scenario, scenario path, out dir)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    jobs = []
    for i, sc in enumerate(scenarios):
        path = workdir / f"{i:02d}-{sc['name']}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sc["doc"], fh)
        jobs.append((sc, path, workdir / f"{i:02d}-out"))
    return jobs


def run_op(cli, sc: dict, path: Path, out: Path):
    """One CLI call; returns (seconds, exit code or the exception's repr)."""
    argv = [sc["command"], "--scenario", str(path), "--out", str(out)]
    sink = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        code = repr(exc)
    return perf_counter() - t0, code


def _read_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _count_lines(path: Path) -> int:
    try:
        with open(path, "rb") as fh:
            return fh.read().count(b"\n")
    except OSError:
        return -1


class Checker:
    """Judges one operation's output, caching per-scenario references."""

    def __init__(self, checks):
        self.checks = checks
        self._refs = {}

    def _ref(self, sc, make):
        if sc["name"] not in self._refs:
            self._refs[sc["name"]] = make()
        return self._refs[sc["name"]]

    def __call__(self, sc: dict, code, out: Path):
        ck = self.checks
        cmd = sc["command"]
        if cmd == "identify":
            return ck.check_identify(sc, code, _read_json(out / "verdict.json"))
        if cmd == "analyze":
            conn = self._ref(sc, lambda: ck.node_connectivity(sc["expect"]["matrix"]))
            return ck.check_analyze(sc, code, _read_json(out / "report.json"), conn)
        if cmd == "local-identify":
            return ck.check_local(sc, code, _read_json(out / "verdict.json"))
        lines = _count_lines(out / "trace.csv")
        if cmd == "simulate":
            ref = self._ref(sc, lambda: ck.final_state(sc["expect"]))
            return ck.check_simulate(sc, code, _read_json(out / "verdict.json"),
                                     ref, lines)
        return ck.check_detect(sc, code, _read_json(out / "verdict.json"), lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "netguard" / "__init__.py").is_file():
        print(f"error: no netguard sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calibration
    import checks
    import scenarios
    if args.workload not in scenarios.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(scenarios.WORKLOADS)}", file=sys.stderr)
        return 2

    import netguard.cli as cli

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, cli, calibration, checks, scenarios, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cli, calibration, checks, scenarios, workdir: Path) -> int:
    # set-up: import (in a fresh interpreter), generate and write, warm up
    setup, units = [], []
    for _ in range(SETUP_REPEATS):
        units.append(calibration.unit_seconds())
        t_import = child_import_seconds()
        t0 = perf_counter()
        jobs = write_scenarios(scenarios.make_scenarios(args.workload, args.seed),
                               workdir)
        run_op(cli, *jobs[0])
        setup.append(t_import + perf_counter() - t0)

    tracer = None
    if args.trace:
        import layers
        tracer = layers.LayerTracer().install()

    check = Checker(checks)
    times = [[] for _ in jobs]
    attempted, failed, wrong = 0, 0, 0
    start = perf_counter()
    deadline = start + args.seconds
    passes = 0
    while True:
        for slot, (sc, path, out) in enumerate(jobs):
            units.append(calibration.unit_seconds())
            dt, code = run_op(cli, sc, path, out)
            attempted += 1
            times[slot].append(dt)
            if isinstance(code, str):
                failed += 1
                print(f"FAILED {sc['name']}: {code}", file=sys.stderr)
                continue
            problem = check(sc, code, out)
            if problem:
                failed += 1
                wrong += 1
                print(f"WRONG {sc['name']}: {problem}", file=sys.stderr)
        passes += 1
        # Whole passes only: stop at the pass end nearest the deadline.
        now = perf_counter()
        if now + 0.5 * (now - start) / passes >= deadline:
            break
    if tracer is not None:
        tracer.uninstall()

    # Every time below is at the reference speed.
    unit_s = statistics.fmean(units)
    scale = calibration.REFERENCE_S / unit_s
    op_time = scale * sum(map(sum, times))
    if tracer is not None:
        values = {name: (value * scale if unit == "s/pass" else value, unit)
                  for name, (value, unit) in tracer.metrics(passes, op_time / scale).items()}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": (scale * statistics.median(setup), "s"),
            # median over the scenarios of each one's mean over the passes
            "op_p50_s": (scale * statistics.median(map(statistics.fmean, times)), "s"),
            "correct_per_s": ((attempted - failed) / op_time, "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    for name, (value, unit) in values.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{args.workload}: seed {args.seed}, {passes} passes of {len(jobs)} "
          f"scenarios, {attempted} operations, {failed} failed")
    print(f"host speed: calibration unit {1e3 * unit_s:.2f} ms (mean of "
          f"{len(units)}), reference {1e3 * calibration.REFERENCE_S:.2f} ms; "
          f"times scaled by {scale:.4f}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
