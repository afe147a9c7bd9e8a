"""Tests of the benchmark itself, on H2 and a 4-mode search.

    PYTHONPATH=src python -m pytest -q fqccbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

workloads.use_checkout()

H2 = "tests/fixtures/h2_sto3g.fcidump"
TINY = [
    workloads.CompileWorkload(fixture=H2),
    workloads.SearchWorkload(n_modes=4, n_electrons=2, k_max=1, t_max=2),
    workloads.Hmp2Workload(fixture=H2),
]
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _measure(workload, trace):
    return run.measure(workload, seed=3, seconds=0.01, trace=trace, probes=2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.kind)
def test_every_named_metric_prints_with_its_unit(workload, trace):
    result, report = _measure(workload, trace)
    assert result["correct"] and result["failed"] == 0 and report["error_rate"]["value"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    printed = run.with_units(result["metrics"], trace)
    assert [(name, m["unit"]) for name, m in printed.items()] == [
        (m["name"], m["unit"]) for m in section
    ]
    assert all(isinstance(m["value"], (int, float)) for m in printed.values())
    assert report["metrics"] and all("unit" in m for m in report["metrics"].values())


def test_end_to_end_metrics_are_never_zero():
    for workload in TINY:
        result, _ = _measure(workload, 0)
        assert all(v > 0 for v in result["metrics"].values()), workload.kind


def test_predicted_zeros_hold_on_the_traced_run():
    compile_, search, hmp2 = (_measure(w, 1)[0]["metrics"] for w in TINY)
    for m in (compile_, search):
        assert m["paulis.apply_calls"] == m["paulis.compiled_sums"] == 0
    for m in (search, hmp2):
        assert m["circuits.peephole_calls"] == m["circuits.peephole_gates_in"] == 0
    assert hmp2["trotter.expand_calls"] == hmp2["pso.steps"] == 0
    assert hmp2["paulis.apply_calls"] > 0 and compile_["circuits.peephole_calls"] > 0
    # each search also prices the JW and BK encodings once
    searches = TINY[1].searches
    assert search["trotter.cost_calls"] == search["pso.evaluations"] + 2 * searches


def test_self_time_is_span_minus_children():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 3.0, 0],
        ["grandchild", 1.5, 2.5, 1],
        ["child", 4.0, 8.0, 0],
        ["leaf", 9.0, 9.5, -1],
    ]
    assert spans.self_times(tree) == [4.0, 1.0, 1.0, 4.0, 0.5]
    summary = spans.Summary(tree)
    assert summary.calls["child"] == 2
    assert summary.total["child"] == 6.0
    assert summary.self_total["child"] == 5.0


def test_recorder_wraps_and_restores():
    class Owner:
        def twice(self, x):
            return 2 * x

    rec = spans.Recorder()
    rec.wrap(Owner, "twice", "owner.twice", after=lambda _, r, c: c.update(out=r))
    assert Owner().twice(4) == 8
    rec.restore()
    assert Owner.twice.__name__ == "twice" and not hasattr(Owner.twice, "__wrapped__")
    assert [s[0] for s in rec.spans] == ["owner.twice"] and rec.counters["out"] == 8


def test_paced_time_is_wall_times_mean_speed():
    pacer = pace.Pacer()
    ref = pace.REFERENCE_KERNEL_S
    pacer.samples = [ref, ref / 2, 2 * ref]  # speeds 1, 2 and 0.5
    assert pacer.speed() == (1 + 2 + 0.5) / 3
    with pace.Pacer() as pacer:
        pass
    assert len(pacer.samples) >= 2 and pacer.speed() > 0


def test_failed_check_raises_error_rate(monkeypatch):
    workload = TINY[2]
    monkeypatch.setattr(type(workload), "reference", lambda self, inputs: 0.0)
    result, report = _measure(workload, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert report["error_rate"]["value"] == 1.0


def test_failed_operation_raises_error_rate(monkeypatch):
    from fqcc import measure

    def broken(strings):
        raise ValueError("broken partition")

    monkeypatch.setattr(measure, "partition_gc", broken)
    result, report = _measure(TINY[0], 0)
    assert (result["failed"], result["attempted"]) == (3, 3)
    assert report["error_rate"]["value"] == 1.0


def test_spec_round_trips():
    for workload in [*TINY, *workloads.WORKLOADS.values()]:
        assert workloads.from_spec(workloads.to_spec(workload)) == workload
