"""Single executable exposing every operation.

Subcommands: check-fei, horizon, construct, verify, simulate,
bound-outside-option, bound-sweep, phase-sweep.

Model inputs come from --config (TOML or JSON) and/or flags; flags win.
Subcommands return a Result; main alone writes its files and a run manifest
under --out and prints it. CSV files use '.' decimals and 17 significant
digits so doubles round-trip exactly; JSON uses Python's shortest repr.

Exit codes: 0 success, 2 validation/config error, 3 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import Iterable, Optional

from . import __version__, bounds, equilibria, fei, verifier
from .errors import (ConfigParse, IndifferenceOutOfRange, NoFeasibleA0, ReplabError,
                     ReplacementCostTooLargeForConstruction, ResolutionTooCoarse, ValidationError,
                     Violation)
from .model import GameParams, MonitoringStructure, model_from_dict, model_to_dict
from .simulate import (
    SimulationConfig,
    analytic_long_run_effort,
    martingale_diagnostic,
    simulate as run_simulation,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFY_FAILED = 3
MAX_GRID_CELLS = 1_000_000  # cells a sweep may have: check-fei's axis, the other sweeps' product
PHASE_BLOCK_CELLS = 8  # phase-sweep cells whose automata are certified in one verify_many


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _csv(header: list[str], rows: Iterable) -> str:
    """A table as CSV text with csv.writer's CRLF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _record(obj) -> dict:
    """A result record as JSON: a dataclass's fields but those that are
    None, a :class:`fei.FeiWitness` by :func:`fei.cutoff_to_dict`."""
    if isinstance(obj, fei.FeiWitness):
        return fei.cutoff_to_dict(obj)
    if not is_dataclass(obj):
        raise TypeError(f"{type(obj).__name__} is not a result record")
    return {k: v for k, v in vars(obj).items() if v is not None}


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_record) + "\n"


@dataclass
class Result:
    """What a subcommand produced; only :func:`main` writes or prints it."""

    config: Optional[dict] = None  # config, seed and counts go to the manifest
    seed: Optional[int] = None
    counts: Optional[dict] = None
    echo: str = ""  # always printed
    fallback: str = ""  # printed only without --out
    files: dict[str, str] = field(default_factory=dict)  # name under --out -> text
    code: int = EXIT_OK


def _table(config: dict, name: str, header: list[str], rows: list[list]) -> Result:
    """A CSV table written to ``name`` under --out (CRLF), else printed (LF).
    No header or cell holds a line break, so every CRLF ends a row."""
    text = _csv(header, rows)
    return Result(config, files={name: text}, fallback=text.replace("\r\n", "\n"))


def _write_manifest(out_dir: Path, command: str, result: Result) -> None:
    """Record this run in ``out_dir/manifest.json``, which maps each output
    file to the record of the run that last wrote it; so two commands into
    one directory keep both records. A manifest that cannot be read that
    way is replaced. scipy's version is recorded when the run loaded scipy,
    and null otherwise, rather than importing scipy (about 12 ms) only to
    read it."""
    import numpy

    scipy = sys.modules.get("scipy")
    canonical = json.dumps(result.config, sort_keys=True, separators=(",", ":"))
    record = {
        "command": command,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "config": result.config,
        "seed": result.seed,
        "versions": {
            "replab": __version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy and scipy.__version__,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": list(result.files),
    }
    if result.counts is not None:
        record["counts"] = result.counts
    path = out_dir / "manifest.json"
    try:
        runs = json.loads(path.read_bytes())["outputs"]
    except (FileNotFoundError, ValueError, KeyError, TypeError, RecursionError):
        runs = {}
    if not isinstance(runs, dict):  # another layout
        runs = {}
    runs.update(dict.fromkeys(result.files, record))
    path.write_text(_json({"outputs": runs}))


def _load_config(path: str) -> dict:
    raw = Path(path).read_bytes()
    try:
        if path.endswith(".toml"):
            try:
                import tomllib  # py >= 3.11
            except ImportError:
                import tomli as tomllib
            cfg = tomllib.loads(raw.decode())
        else:
            cfg = json.loads(raw.decode())
    except Exception as exc:
        raise ConfigParse(f"could not parse config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigParse(f"config {path!r} is not a table of model fields")
    return cfg


_MODEL_DEFAULTS = {"kappa": 0.2, "delta": 0.5, "pi0": 0.5, "c": 0.0}


def _resolve_model(args) -> tuple[GameParams, MonitoringStructure, dict]:
    """Merge the defaults, --config and flags (each overriding the one
    before) into (params, monitoring) plus the resolved config dict used
    for hashing."""
    cfg = dict(_MODEL_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_load_config(args.config))
    for key in (*_MODEL_DEFAULTS, "binary_precision"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if cfg.keys().isdisjoint({"signals", "binary_precision"}):
        raise ConfigParse("specify --binary-precision or a config with signals")
    params, monitoring = model_from_dict(cfg)
    return params, monitoring, model_to_dict(params, monitoring)


def _floats(tokens: list[str], spec: str) -> list[float]:
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigParse(f"bad number in {spec!r}: {exc}") from exc


def _parse_range(spec: str) -> list[float]:
    """An axis: a scalar, a comma list taken as given (order and repeats
    kept, empty entries skipped), or 'a:b:step' (inclusive endpoints) as
    the distinct points min(a + k step, b), k = 0, 1, ..., while
    a + k step <= b + 1e-9 step, in increasing order.
    A range of more than MAX_GRID_CELLS points is refused: at once when
    its span says so, else as soon as it passes the cap."""
    if ":" not in spec:
        if not (values := _floats([tok for tok in spec.split(",") if tok], spec)):
            raise ConfigParse(f"empty grid {spec!r}")
        return values
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigParse(f"bad range {spec!r}; expected a:b:step")
    a, b, step = _floats(parts, spec)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(step)):
        raise ConfigParse(f"bad range {spec!r}; a, b and step must be finite")
    if step <= 0:
        raise ConfigParse("range step must be positive")
    limit, points = b + step * 1e-9, []
    spans_few = (limit - a) / step <= MAX_GRID_CELLS + 1  # else none is built
    while spans_few and len(points) <= MAX_GRID_CELLS and (x := a + len(points) * step) <= limit:
        points.append(min(x, b))
    if not spans_few or len(points) > MAX_GRID_CELLS:
        raise ConfigParse(f"range {spec!r} has more than {MAX_GRID_CELLS} points; "
                          "use a coarser step")
    if not points:
        raise ConfigParse(f"bad range {spec!r}; a > b leaves no point")
    return sorted(set(points))  # a step below the float spacing at a repeats points


def _grid_axes(*specs: str) -> list[list[float]]:
    """The points :func:`_parse_range` reads from each axis of a grid,
    refused when the grid has more than MAX_GRID_CELLS cells."""
    axes = [_parse_range(spec) for spec in specs]
    if math.prod(map(len, axes)) > MAX_GRID_CELLS:
        raise ConfigParse(f"grid has more than {MAX_GRID_CELLS} cells; use a coarser step")
    return axes


def _sweep_cert(params: GameParams, monitoring: MonitoringStructure):
    """:func:`fei.check_fei`'s certificate for a sweep cell, or None for a
    cell within rounding of the full-effort frontier: its row is written
    undecided rather than refusing the whole sweep."""
    try:
        return fei.check_fei(params, monitoring)
    except ResolutionTooCoarse:
        return None


# --- subcommand bodies -------------------------------------------------------

def _cmd_check_fei(args) -> Result:
    params, monitoring, cfg = _resolve_model(args)
    if args.sweep:
        axis, sep, spec = args.sweep.partition("=")
        if not sep or axis != "delta":
            raise ConfigParse("check-fei sweeps support delta=SPEC")
        rows = []
        for d in _grid_axes(spec)[0]:
            cert = _sweep_cert(GameParams(params.kappa, d, params.pi0, params.c), monitoring)
            w = cert and cert.witness
            rows.append([d, cert and cert.holds, w and w.slack, w and w.v_bar])
        return _table({**cfg, "delta": spec}, "fei_sweep.csv",
                      ["delta", "holds", "slack", "v_bar"], rows)
    text = _json(fei.check_fei(params, monitoring))
    return Result(cfg, echo=text, files={"fei_certificate.json": text})


def _cmd_horizon(args) -> Result:
    params, monitoring, _ = _resolve_model(args)
    return Result(echo=_json(fei.uniform_failure_horizon(params, monitoring)))


def _cmd_construct(args) -> Result:
    params, monitoring, cfg = _resolve_model(args)
    cfg.update(kind=args.kind, depth=args.depth, a0=args.a0)  # they shape the file too
    if args.kind == "fe":
        automaton = equilibria.construct_full_effort(params, monitoring)
    else:
        automaton, _ = equilibria.construct_non_efe(
            params, monitoring, a0_override=args.a0, max_depth=args.depth
        )
    report = verifier.verify(automaton, params, monitoring)
    if not report.passed:  # written files must pass their own verification
        worst = report.offenders[0]
        return Result(echo=f"FAILED: the construction does not verify, worst {worst.category} "
                      f"at {worst.location} (residual {worst.residual:.3e}, tol "
                      f"{worst.tolerance:g}); no automaton written\n", code=EXIT_VERIFY_FAILED)
    name, n = f"automaton-{args.kind}.json", len(automaton.belief)
    return Result(
        cfg, echo=f"wrote {Path(args.out) / name} ({n} states)\n",
        files={name: _json(equilibria.automaton_to_dict(automaton, params, monitoring))},
    )


def _load_automaton(path: str):
    """(automaton, params, monitoring) from an automaton JSON file."""
    try:
        payload = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # undecodable, invalid or too deep JSON
        raise ValidationError([Violation("BadAutomatonFile", f"{path}: {exc}")]) from exc
    return equilibria.automaton_from_dict(payload)


def _cmd_verify(args) -> Result:
    automaton, params, monitoring = _load_automaton(args.automaton)
    report = verifier.verify(automaton, params, monitoring, tol=args.tol)
    d = report.to_dict()
    return Result(
        {"automaton": args.automaton},
        echo=f"{'PASSED' if report.passed else 'FAILED'} "
        f"(politician {d['max_politician_residual']:.3e}, "
        f"voter {d['max_voter_residual']:.3e}, "
        f"bayes {d['max_bayes_residual']:.3e}, tol {report.tol:g})\n",
        fallback=_json(d),
        files={"verification.json": _json(d)},
        code=EXIT_OK if report.passed else EXIT_VERIFY_FAILED,
    )


def _cmd_simulate(args) -> Result:
    if args.per_period_csv and args.out is None:
        raise ConfigParse("--per-period-csv writes per_period.csv and needs --out")
    automaton, params, monitoring = _load_automaton(args.automaton)
    config = SimulationConfig(horizon=args.horizon, paths=args.paths, master_seed=args.seed)
    analytic = analytic_long_run_effort(automaton, params, monitoring)  # a refusal runs no paths
    stats = run_simulation(automaton, params, monitoring, config)
    z = martingale_diagnostic(stats)
    summary = {
        "long_run_effort": stats.long_run_effort,
        "long_run_se": stats.long_run_se,
        "analytic_long_run_effort": analytic,
        "martingale_z": z if math.isfinite(z) else None,  # JSON has no infinity
        "favorable_replacements": stats.favorable_total,
        "seed": args.seed,
        "paths": args.paths,
        "horizon": args.horizon,
    }
    files = {"simulation_stats.json": stats.to_json() + "\n"}
    if args.per_period_csv:
        columns = (range(stats.horizon), stats.mean_effort, stats.replace_rate,
                   stats.mean_belief, map(int, stats.favorable_replacements))
        files["per_period.csv"] = _csv(
            ["t", "mean_effort", "replace_rate", "mean_belief", "favorable_replacements"],
            zip(*columns),
        )
    return Result(
        {"automaton": args.automaton, "horizon": args.horizon, "paths": args.paths},
        seed=args.seed, counts=stats.counts, echo=_json(summary), files=files,
    )


def _cmd_bound(args) -> Result:
    params, monitoring, cfg = _resolve_model(args)
    result = bounds.outside_option_bound(params, monitoring)
    row = [params.pi0, params.c, result.horizon_T, result.eta_star, result.bound_value]
    return Result(
        cfg, echo=_json(result),
        files={"bound.csv": _csv(["pi0", "c", "T", "eta_star", "bound"], [row])},
    )


def _cmd_bound_sweep(args) -> Result:
    params, monitoring, cfg = _resolve_model(args)
    pi0s, cs = _grid_axes(args.pi0_grid, args.c_grid)
    rows = bounds.bound_sweep(params, monitoring, pi0s, cs)
    header = ["pi0", "c", "T", "eta_star", "bound"]
    return _table({**cfg, "pi0": args.pi0_grid, "c": args.c_grid}, "bound_sweep.csv", header,
                  [[r[key] for key in header] for r in rows])


def _phase_cell(monitoring, precision, pi0, c, kappa, delta, depth) -> tuple[list, list]:
    """A phase-sweep row, with its two verified columns left None, and the
    (automaton, params, monitoring) cases that fill them: the full-effort
    and the non-efe construction on a cell where full-effort incentives
    hold, none elsewhere. ``monitoring`` is the binary one at ``precision``.
    A construction that refuses the cell gives None, and its column stays
    empty."""
    params = GameParams(kappa, delta, pi0, c)
    cert = _sweep_cert(params, monitoring)
    row = [precision, kappa, delta, pi0, c, cert and cert.holds, None, None, None]
    if cert is None:  # undecided: every derived column stays empty
        return row, []
    if not cert.holds:
        row[-1] = bounds.outside_option_bound(params, monitoring).bound_value
        return row, []
    builds = (lambda: equilibria.construct_full_effort(params, monitoring),
              lambda: equilibria.construct_non_efe(params, monitoring, max_depth=depth)[0])
    cases = []
    for build in builds:
        try:
            cases.append((build(), params, monitoring))
        except (ReplacementCostTooLargeForConstruction, NoFeasibleA0, IndifferenceOutOfRange):
            cases.append(None)
    return row, cases


def _cmd_phase_sweep(args) -> Result:
    # precision, then pi0 and c, which set a0 and the tree, are the outer axes
    specs = {key: getattr(args, key) for key in ("binary_precision", "pi0", "c", "kappa", "delta")}
    axes = _grid_axes(*specs.values())
    # checked up front: a grid with no holding cell never reaches them
    verifier.check_tolerance(args.tol)
    equilibria.check_depth(args.depth)
    monitorings = {p: MonitoringStructure.binary(p) for p in axes[0]}
    cells = itertools.product(*axes)
    rows = []
    while block := [_phase_cell(monitorings[cell[0]], *cell, args.depth)
                    for cell in itertools.islice(cells, PHASE_BLOCK_CELLS)]:
        cases = [case for _, cell_cases in block for case in cell_cases if case]
        passed = iter([report.passed for report in verifier.verify_many(cases, args.tol)])
        for row, cell_cases in block:
            for column, case in zip((6, 7), cell_cases):  # full-effort, then non-efe
                if case:
                    row[column] = next(passed)
            rows.append(row)
    header = [
        "binary_precision", "kappa", "delta", "pi0", "c",
        "fei_holds", "fe_construction_verified", "non_efe_construction_verified",
        "outside_option_bound",
    ]
    return _table(specs, "phase_sweep.csv", header, rows)


# --- argument parsing --------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="TOML or JSON model config")
    p.add_argument("--binary-precision", dest="binary_precision", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--pi0", type=float)
    p.add_argument("--c", type=float)


def _fail(error: str, message: str) -> int:
    """How every bad input ends, flags included: one JSON line on stderr, exit 2."""
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):  # subparsers are made from this class too
    def error(self, message):
        sys.exit(_fail("ConfigParse", message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="replab",
        description="Replacement-and-reputation accountability game toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    axis = "scalar, a:b:step or comma list"  # every sweep axis: cli._parse_range

    p = sub.add_parser("check-fei", help="decide full-effort incentives")
    _add_model_flags(p)
    p.add_argument("--sweep", help=f"delta=SPEC emits a CSV sweep; SPEC is a {axis}")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_fei)

    p = sub.add_parser("horizon", help="uniform-failure horizon T")
    _add_model_flags(p)
    p.set_defaults(func=_cmd_horizon)

    p = sub.add_parser("construct", help="build an equilibrium automaton")
    _add_model_flags(p)
    p.add_argument("--kind", choices=["fe", "non-efe"], required=True)
    p.add_argument("--a0", type=float, help="override the initial effort probability")
    p.add_argument("--depth", type=int, default=equilibria.DEFAULT_DEPTH)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="certify an automaton file")
    p.add_argument("--automaton", required=True)
    p.add_argument("--tol", type=float, default=verifier.DEFAULT_TOL)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="seeded Monte Carlo careers")
    p.add_argument("--automaton", required=True)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--horizon", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-period-csv", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound-outside-option", help="outside-option ceiling")
    _add_model_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("bound-sweep", help="bound table over (pi0, c) grids")
    _add_model_flags(p)
    p.add_argument("--pi0-grid", dest="pi0_grid", required=True, help=axis)
    p.add_argument("--c-grid", dest="c_grid", required=True, help=axis)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bound_sweep)

    p = sub.add_parser("phase-sweep", help="dichotomy table over parameter grids")
    p.add_argument("--binary-precision", dest="binary_precision", required=True, help=axis)
    p.add_argument("--kappa", required=True, help=axis)
    p.add_argument("--delta", required=True, help=axis)
    p.add_argument("--pi0", default="0.3", help=axis)
    p.add_argument("--c", default="0", help=axis)
    p.add_argument("--tol", type=float, default=verifier.DEFAULT_TOL)
    p.add_argument("--depth", type=int, default=equilibria.DEFAULT_DEPTH)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_phase_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Make --out, run the subcommand, write its files and manifest, print it."""
    args = build_parser().parse_args(argv)
    out = None if getattr(args, "out", None) is None else Path(args.out)
    try:
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        result = args.func(args)
        if out is not None and result.files:
            for name, text in result.files.items():
                (out / name).write_text(text, newline="")
            _write_manifest(out, args.command, result)
    except ReplabError as exc:
        return _fail(exc.code, str(exc))
    except OSError as exc:  # an unreadable input or unwritable output path
        return _fail(type(exc).__name__.removesuffix("Error"), str(exc))
    except MemoryError as exc:  # an allocation the input asks for fails
        return _fail("OutOfMemory", f"out of memory: {exc}")
    print(result.echo if out is not None else result.echo + result.fallback, end="")
    return result.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
