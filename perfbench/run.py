"""Benchmark of the replab CLI, timed from outside.

    python3 perfbench/run.py --workload sim-ref --seed 3 --seconds 34 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is run from that checkout's
``src/`` in a fresh process per command (``python -m replab.cli ...``), with
the caller's environment otherwise unchanged.

A run builds the workload's automaton files with ``replab construct``,
times a fresh interpreter importing ``replab.cli`` and building its parser
(``setup_s``, the start-up every CLI call pays), then runs the workload's
command until ``--seconds`` are used, at least twice, and checks every
output. ``--trace 1`` instead runs the command once untraced and then
in-process through ``replab.cli.main`` with spans around each layer's entry
points (see ``spans.py``), and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, the error rate and a JSON record of the
environment, the inputs and every sample. ``--smoke`` runs every workload,
check and metric once at tiny sizes and exits 0 only if all pass.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import Workload, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 6
TIME_LIMIT_S = 165  # a run must end within 180 s
SETUP_SNIPPET = "import replab.cli; replab.cli.build_parser()"
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


class Stopped(BaseException):
    """The run hit its time limit or was terminated. A BaseException, so
    that no handler in the program under test swallows it; the command
    running at the time is killed on the way out."""


def _stop(signum, frame):
    if signum == signal.SIGALRM:
        raise Stopped(f"stopped at the {TIME_LIMIT_S} s time limit")
    raise Stopped(f"stopped by {signal.Signals(signum).name}")


@dataclass
class Sample:
    """One CLI process: wall time from launch to exit, user plus system
    CPU time, and maximum resident memory."""

    wall: float
    cpu: float
    rss_mb: float
    code: int


@dataclass
class Measurement:
    e2e: dict[str, float]
    layers: dict[str, float] | None
    attempted: int
    failed: int
    errors: list[str]
    record: dict

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def child_env(wl: Workload) -> dict[str, str]:
    env = {**os.environ, **dict(wl.env)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], env: dict, stdout_path: Path) -> Sample:
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def replab_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "replab.cli", *args]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, sym, None)
            if func is not None:
                func.restype, func.argtypes = ctypes.c_int, []
                return func()
    return None


def environment() -> dict:
    """What ``cpu_s`` and ``wall_s`` on the threaded workloads depend on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    nproc = os.cpu_count() or 1
    cap = os.environ.get("REPLAB_THREADS")
    return {
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "REPLAB_THREADS": cap,
        "phase_sweep_pool": max(1, int(cap)) if cap and cap.isdigit() else min(4, nproc),
    }


def build_inputs(wl: Workload, work: Path, env: dict) -> tuple[dict[str, Path], dict]:
    """Construct the workload's automaton files and pin their sizes."""
    files, record = {}, {}
    for inp in wl.inputs:
        out = work / "inputs" / inp.name
        out.mkdir(parents=True)
        args = list(inp.construct_args)
        if inp.config is not None:
            config = work / "inputs" / f"{inp.name}.json"
            config.write_text(json.dumps(inp.config))
            args += ["--config", str(config)]
        sample = run_process(replab_argv("construct", *args, "--out", str(out)), env,
                             work / "inputs" / f"{inp.name}.out")
        built = sorted(out.glob("automaton-*.json"))
        if sample.code != 0 or len(built) != 1:
            raise BenchError(f"replab construct failed for input {inp.name!r}")
        path = built[0]
        payload = json.loads(path.read_bytes())
        states, edges = len(payload["states"]), len(payload["transitions"])
        if states != inp.states:
            raise BenchError(f"input {inp.name!r} has {states} states, expected {inp.states}")
        files[inp.name] = path
        record[inp.name] = {"states": states, "edges": edges, "sha256": sha256(path),
                            "construct_wall_s": sample.wall}
    return files, record


def traced_run(argv: list[str]) -> tuple[int, str, list[spans.Span]]:
    """Run ``replab.cli.main(argv)`` in this process with every layer entry
    point wrapped; returns the exit code, captured stdout and the spans."""
    import replab.cli

    buf = io.StringIO()
    with spans.Tracer() as tracer, contextlib.redirect_stdout(buf):
        try:
            code = replab.cli.main(argv)
        except Exception:  # a crash is a failed command, as it is untraced
            traceback.print_exc()
            code = 1
    return code, buf.getvalue(), tracer.spans


def measure(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    setup_probes: int = SETUP_PROBES,
) -> Measurement:
    """Run one workload: untraced commands (at least two), or with ``trace``
    one untraced command and traced in-process runs (at least two); more
    while the next is expected to end within ``seconds`` of the first."""
    env = child_env(wl)
    files, inputs = build_inputs(wl, work, env)
    probe = [sys.executable, "-c", SETUP_SNIPPET]
    run_process(probe, env, work / "warmup.out")  # fills __pycache__ before timing
    # half the set-up probes before the commands and half after, so that
    # setup_s sees the same machine as the commands do
    setup = [run_process(probe, env, work / "probe.out").wall
             for _ in range((setup_probes + 1) // 2)]

    (work / "runs").mkdir()
    digests: list[str] = []
    outcomes: list[dict] = []

    def check(kind: str, code: int, stdout: str, out: Path, sample: Sample | None = None):
        failed = wl.check(code, stdout, out)
        artifact = out / wl.artifact
        if artifact.is_file():
            digests.append(sha256(artifact))
            if digests[-1] != digests[0]:
                failed.append("artifact_byte_identical")
        outcome = {"kind": kind, "exit": code, "failed_checks": failed}
        if sample is not None:
            outcome.update(wall_s=sample.wall, cpu_s=sample.cpu, peak_rss_mb=sample.rss_mb)
        outcomes.append(outcome)
        if failed:
            err = out.with_suffix(".err")
            detail = err.read_text()[-2000:] if err.is_file() else ""
            print(f"[{wl.name}] {kind} run {len(outcomes)} failed {failed}\n{detail}",
                  file=sys.stderr)

    start = time.perf_counter()
    samples: list[Sample] = []
    while len(samples) < (1 if trace else 2) or (
        not trace
        and time.perf_counter() - start + statistics.median(s.wall for s in samples) <= seconds
    ):
        out = work / "runs" / f"u{len(samples)}"
        log = out.with_suffix(".out")
        sample = run_process(replab_argv(*wl.argv(seed, files, out)), env, log)
        samples.append(sample)
        check("untraced", sample.code, log.read_text(), out, sample)

    layer_runs, traced_walls = [], []
    while trace and (
        len(layer_runs) < 2
        or time.perf_counter() - start + statistics.median(traced_walls) <= seconds
    ):
        out = work / "runs" / f"t{len(layer_runs)}"
        t0 = time.perf_counter()
        code, stdout, recorded = traced_run(wl.argv(seed, files, out))
        traced_walls.append(time.perf_counter() - t0)
        check("traced", code, stdout, out)
        layer_runs.append(spans.layer_metrics(recorded))

    setup += [run_process(probe, env, work / "probe.out").wall
              for _ in range(setup_probes // 2)]
    wall = statistics.median(s.wall for s in samples)
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(s.cpu for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
    }
    errors, layers = [], None
    if trace:
        errors = [f"count {name} differs between traced runs"
                  for name in spans.count_mismatches(layer_runs)]
        layers = spans.median_metrics(layer_runs)
        layers["trace.overhead_s"] = layers["cli.main.s"] - (wall - e2e["setup_s"])
        layers = {name: layers[name] for name in spans.UNITS}
    record = {
        "workload": wl.name,
        "workload_env": dict(wl.env),
        "seed": seed,
        "seed_used": wl.uses_seed,
        "work": f"{wl.work_units} {wl.work_unit}",
        "environment": environment(),
        "inputs": inputs,
        "setup_probes_s": setup,
        "runs": outcomes,
        "computed": [n for n, u in spans.UNITS.items() if u.endswith("computed")],
        "errors": errors,
    }
    return Measurement(
        e2e=e2e,
        layers=layers,
        attempted=len(outcomes),
        failed=sum(bool(o["failed_checks"]) for o in outcomes),
        errors=errors,
        record=record,
    )


def report(wl: Workload, m: Measurement, trace: bool) -> dict:
    """Print every metric by name and unit; return the result object."""
    units = dict(END_TO_END)
    n = sum(o["kind"] == "untraced" for o in m.record["runs"])
    for name, value in m.e2e.items():
        print(f"{wl.name} {name} = {value:.6g} {units[name]} (median of "
              f"{len(m.record['setup_probes_s']) if name == 'setup_s' else n})")
    # the workload's rate is wall_s restated, so it is printed, not reported
    rate = wl.work_units / m.e2e["wall_s"]
    print(f"{wl.name} {wl.work_unit}_per_s = {rate:.6g} 1/s")
    # error_rate is the result's failed / attempted
    print(f"{wl.name} error_rate = {m.failed / m.attempted:g} ({m.failed}/{m.attempted} commands)")
    if trace:
        for name, value in m.layers.items():
            print(f"{wl.name} {name} = {value:.6g} {spans.UNITS[name]}")
    for error in m.errors:
        print(f"{wl.name} ERROR {error}")
    print(json.dumps({"record": m.record}, sort_keys=True))
    metrics = m.layers if trace else m.e2e
    units = spans.UNITS if trace else units
    return {
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def smoke() -> int:
    """Every workload, check and metric once, at tiny sizes."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in declared["end_to_end"]}
    layer_names = {m["name"] for m in declared["per_layer"]}
    specs = workloads(smoke=True)
    if set(specs) != {w["name"] for w in declared["workloads"]}:
        print("smoke: workloads differ from BENCHMARK.json", file=sys.stderr)
        return 1
    ok = True
    for wl in specs.values():
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
            m = measure(wl, seed=1, seconds=0, trace=True, work=Path(work),
                        setup_probes=1)
        good = m.correct and set(m.e2e) == e2e_names and set(m.layers) == layer_names
        ok &= good
        print(f"smoke {wl.name}: {'ok' if good else 'FAILED'} "
              f"({m.attempted} commands, {m.failed} failed, errors {m.errors})")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["sim-ref", "phase-grid", "verify-deep"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=34)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "replab" / "cli.py").is_file():
        print(f"perfbench: no replab sources under {SRC}", file=sys.stderr)
        return 2
    if not (args.smoke or args.workload):
        parser.error("--workload or --smoke is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")
    sys.path.insert(0, str(SRC))
    for signum in (signal.SIGALRM, signal.SIGTERM):
        signal.signal(signum, _stop)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        if args.smoke:
            return smoke()
        wl = workloads()[args.workload]
        os.environ.update(wl.env)  # before the traced run loads numpy
        work = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-"))
        try:
            m = measure(wl, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, Stopped) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps(report(wl, m, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
