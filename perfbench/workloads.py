"""The pinned workloads: their inputs, their CLI commands and the checks
every command's outputs must pass.

Each workload stresses a different layer and leaves the others idle, so a
change to one layer shows on its own workload and reads unchanged on the
rest:

- ``sim-ref`` is nearly all ``simulate`` (per-path Philox fill plus the
  per-period kernel); ``fei``, ``equilibria`` and ``verifier`` are idle.
- ``phase-grid`` makes hundreds of tiny calls into ``fei``, ``equilibria``,
  ``verifier`` and ``bounds`` through the ``cli`` sweep pool, and never
  calls ``simulate``.
- ``verify-deep`` uses ``equilibria``/``verifier`` the opposite way: one
  large automaton whose dense value solve sets both time and memory.

``phase-grid`` runs on one thread: a sweep pool of one worker
(``REPLAB_THREADS=1``) and BLAS held to one thread. Its automata are tiny,
so BLAS threads only spin, and on a shared two-core host the default pool's
two workers convoy on the GIL whenever the host takes a core away; with
them, the spread of the run's wall time measured the host, not replab.

``smoke`` sizes run every workload, check and metric in seconds; they are
for testing the benchmark, never for measuring.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# The reference non-efe instance (criterion 5 of the acceptance suite).
REFERENCE_FLAGS = (
    "--binary-precision", "0.75", "--kappa", "0.2", "--delta", "0.5",
    "--pi0", "0.3", "--c", "0.05",
)
# Exact stationary effort of the reference automaton (lumped chain).
REFERENCE_LONG_RUN = 4289 / 4630
# The four-signal TWO_FAIL instance of tests/test_equilibria.py.
TWO_FAIL_CONFIG = {
    "kappa": 0.1, "delta": 0.7, "pi0": 0.3, "c": 0.05,
    "signals": [
        {"name": "A", "f0": 0.1, "f1": 0.4},
        {"name": "B", "f0": 0.2, "f1": 0.3},
        {"name": "C", "f0": 0.3, "f1": 0.2},
        {"name": "D", "f0": 0.4, "f1": 0.1},
    ],
}
PHASE_PI0, PHASE_C = 0.3, 0.05
ONE_THREAD = tuple((v, "1") for v in (
    "REPLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
))
Z_LIMIT = 4.0


@dataclass(frozen=True)
class Input:
    """An automaton file built with ``replab construct`` before timing."""

    name: str
    construct_args: tuple[str, ...]  # after "construct", without --out
    states: int  # the benchmark aborts on any other count
    config: Optional[dict] = None  # written to a file and passed as --config


@dataclass(frozen=True)
class Workload:
    name: str
    uses_seed: bool
    inputs: tuple[Input, ...]
    # (seed, {input name: automaton path}, out dir) -> replab CLI argv
    argv: Callable[[int, dict, Path], list[str]]
    artifact: str  # output file that must be byte-identical across runs
    work_units: int
    work_unit: str
    check: Callable[[int, str, Path], list[str]]  # (exit, stdout, out) -> failed checks
    env: tuple[tuple[str, str], ...] = ()  # set for the run, before numpy loads


def _check_simulation(code: int, stdout: str, out: Path) -> list[str]:
    if code != 0:
        return ["exit_code"]
    try:
        summary = json.loads(stdout)
        analytic = summary["analytic_long_run_effort"]
        simulated, se = summary["long_run_effort"], summary["long_run_se"]
        z_mart = summary["martingale_z"]
    except (ValueError, KeyError, TypeError):
        return ["summary_json"]
    failed = []
    if analytic["method"] != "lumped" or not abs(analytic["value"] - REFERENCE_LONG_RUN) <= 1e-9:
        failed.append("analytic_lumped_4289_4630")
    if not (se > 0 and abs(simulated - analytic["value"]) / se <= Z_LIMIT):
        failed.append("simulated_within_4_se")
    if not abs(z_mart) <= Z_LIMIT:
        failed.append("martingale_z_within_4")
    if not (out / "simulation_stats.json").is_file():
        failed.append("stats_json_written")
    return failed


def _grid(a: float, b: float, step: float) -> list[float]:
    return [a + k * step for k in range(round((b - a) / step) + 1)]


def _phase_checker(grid: tuple[tuple[float, float, float], ...]):
    cells = [
        (p, k, d)
        for p in _grid(*grid[0])
        for k in _grid(*grid[1])
        for d in _grid(*grid[2])
    ]

    def check(code: int, stdout: str, out: Path) -> list[str]:
        from replab.fei import binary_threshold

        if code != 0:
            return ["exit_code"]
        try:
            with open(out / "phase_sweep.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError:
            return ["csv_written"]
        if len(rows) != len(cells):
            return ["row_count"]
        failed = set()
        for row, (p, k, d) in zip(rows, cells):
            got = (float(row["binary_precision"]), float(row["kappa"]), float(row["delta"]))
            if any(abs(x - y) > 1e-9 for x, y in zip(got, (p, k, d))):
                failed.add("grid_order")
                continue
            holds = row["fei_holds"] == "true"
            threshold = binary_threshold(p, k)
            if abs(d - threshold) > 1e-9 and holds != (d >= threshold):
                failed.add("fei_matches_binary_threshold")
            if holds:
                if (row["fe_construction_verified"], row["non_efe_construction_verified"]) != (
                    "true", "true",
                ):
                    failed.add("holding_cells_verified")
            else:
                c, bound = float(row["c"]), float(row["outside_option_bound"] or "nan")
                if not c < bound <= 1.0 + c:
                    failed.add("bound_in_c_to_1_plus_c")
        return sorted(failed)

    return check, len(cells)


def _check_verification(code: int, stdout: str, out: Path) -> list[str]:
    failed = []
    if code != 0:
        failed.append("exit_code")
    if not stdout.startswith("PASSED"):
        failed.append("passed")
    if not (out / "verification.json").is_file():
        failed.append("verification_json_written")
    return failed


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The pinned workloads at full size, or at smoke sizes."""
    paths, horizon = (500, 200) if smoke else (40_000, 500)
    depth, deep_states = (6, 276) if smoke else (25, 6206)
    grid = (
        ((0.70, 0.80, 0.05), (0.10, 0.20, 0.10), (0.30, 0.90, 0.30))
        if smoke
        else ((0.60, 0.90, 0.05), (0.10, 0.30, 0.05), (0.20, 0.90, 0.05))
    )
    phase_check, cells = _phase_checker(grid)
    spec = [":".join(f"{v:.2f}" for v in axis) for axis in grid]

    sim_ref = Workload(
        name="sim-ref",
        uses_seed=True,
        inputs=(Input("reference", ("--kind", "non-efe", *REFERENCE_FLAGS), 172),),
        argv=lambda seed, files, out: [
            "simulate", "--automaton", str(files["reference"]), "--paths", str(paths),
            "--horizon", str(horizon), "--seed", str(seed), "--out", str(out),
        ],
        artifact="simulation_stats.json",
        work_units=paths * horizon,
        work_unit="path_periods",
        check=_check_simulation,
    )
    phase_grid = Workload(
        name="phase-grid",
        uses_seed=False,
        inputs=(),
        argv=lambda seed, files, out: [
            "phase-sweep", "--binary-precision", spec[0], "--kappa", spec[1],
            "--delta", spec[2], "--pi0", str(PHASE_PI0), "--c", str(PHASE_C),
            "--out", str(out),
        ],
        artifact="phase_sweep.csv",
        work_units=cells,
        work_unit="cells",
        check=phase_check,
        env=ONE_THREAD,
    )
    verify_deep = Workload(
        name="verify-deep",
        uses_seed=False,
        inputs=(
            Input("two-fail", ("--kind", "non-efe", "--depth", str(depth)), deep_states,
                  TWO_FAIL_CONFIG),
        ),
        argv=lambda seed, files, out: [
            "verify", "--automaton", str(files["two-fail"]), "--out", str(out),
        ],
        artifact="verification.json",
        work_units=deep_states,
        work_unit="states",
        check=_check_verification,
    )
    return {w.name: w for w in (sim_ref, phase_grid, verify_deep)}
