"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from replab import GameParams, MonitoringStructure  # noqa: E402

BINARY75 = MonitoringStructure.binary(0.75)
HOLDS = GameParams(kappa=0.2, delta=0.5, pi0=0.3, c=0.05)
FAILS = GameParams(kappa=0.2, delta=0.3, pi0=0.3, c=0.05)


def _names(tracer: spans.Tracer) -> list[str]:
    return [s.name for s in tracer.spans]


def test_each_entry_point_wrapped_once():
    import replab.bounds
    import replab.cli  # noqa: F401
    import replab.equilibria
    import replab.fei

    # one module object behind every caller's ``fei`` name
    assert replab.equilibria.fei is replab.fei is replab.bounds.fei
    targets = [(e.module, e.attr) for e in spans.ENTRY_POINTS]
    assert len(set(targets)) == len(targets)
    originals = {t: getattr(sys.modules[t[0]], t[1]) for t in targets}

    with spans.Tracer() as tracer:
        for module, attr in targets:
            wrapper = getattr(sys.modules[module], attr)
            assert wrapper.__wrapped__ is originals[(module, attr)]
            assert not hasattr(wrapper.__wrapped__, "__perfbench_entry__")

        replab.equilibria.construct_full_effort(HOLDS, BINARY75)
        assert _names(tracer) == ["equilibria.construct_full_effort", "fei.check_fei"]
        construct, check = tracer.spans
        assert check.parent == construct.id

        tracer.spans.clear()
        replab.bounds.outside_option_bound(FAILS, BINARY75)
        assert sorted(_names(tracer)) == [
            "bounds.minimize_g", "bounds.outside_option_bound", "fei.check_fei",
        ]

        with pytest.raises(RuntimeError, match="already wrapped"):
            with spans.Tracer():
                pass
        # the refused tracer left the installed wrappers in place
        assert all(
            hasattr(getattr(sys.modules[m], a), "__perfbench_entry__") for m, a in targets
        )

    for (module, attr), func in originals.items():
        assert getattr(sys.modules[module], attr) is func


def _span(i, name, parent, start, end, thread=1, **notes):
    return spans.Span(i, name, parent, thread, start, end, notes)


def test_self_time_and_concurrency_from_spans():
    recorded = [
        _span(0, "cli.main", None, 0.0, 10.0),
        # two pool threads whose top-level spans overlap
        _span(1, "verifier.verify", 0, 1.0, 7.0, thread=2, passed=True),
        _span(2, "equilibria.compute_values", 1, 2.0, 4.0, thread=2, states=3),
        _span(3, "equilibria.compute_values", 1, 3.0, 5.0, thread=2, states=5),
        _span(4, "verifier.verify", 0, 2.0, 6.0, thread=3, passed=False),
    ]
    m = spans.layer_metrics(recorded)
    assert m["cli.main.s"] == 10.0
    assert m["cli.self_s"] == pytest.approx(4.0)  # 10 minus the union [1, 7]
    assert m["cli.concurrency"] == pytest.approx(1.0)  # (6 + 4) / 10
    assert m["verifier.verify.s"] == pytest.approx(10.0)
    assert m["verifier.verify.self_s"] == pytest.approx(6.0 - 3.0 + 4.0)
    assert m["verifier.verify.passed_ratio"] == 0.5
    assert m["equilibria.compute_values.calls"] == 2
    assert m["equilibria.compute_values.max_states"] == 5
    assert m["equilibria.compute_values.dense_mb"] == 5 * 5 * 8 / 1e6
    assert m["simulate.simulate.s"] == 0.0
    assert set(m) | {"trace.overhead_s"} == set(spans.UNITS)


def test_count_mismatch_is_reported():
    runs = [{"fei.check_fei.calls": 3, "fei.check_fei.s": 1.0},
            {"fei.check_fei.calls": 4, "fei.check_fei.s": 2.0}]
    assert spans.count_mismatches(runs) == ["fei.check_fei.calls"]
    assert spans.count_mismatches(runs[:1] * 2) == []


def test_benchmark_json_lists_every_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(
        spans.LAYER_METRICS
    )


def test_smoke_runs_every_workload_check_and_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(": ok (") == 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
