"""The tools under ``tools/``.  The fixture generator still writes the
committed FCIDUMP fixtures, byte for byte, so a change to it cannot silently
move the tests' inputs; the planner-layer and emulator-layer reports run and
count their layers."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "molecule, fixture", [("h2", "h2_sto3g"), ("h4", "h4_sto3g"), ("water", "h2o_sto3g")]
)
def test_make_fcidump_reproduces_the_fixture(molecule, fixture, tmp_path):
    out = tmp_path / f"{fixture}.fcidump"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "make_fcidump.py"), molecule, str(out)],
        check=True, cwd=tmp_path, capture_output=True,
    )
    assert out.read_bytes() == (ROOT / "tests" / "fixtures" / f"{fixture}.fcidump").read_bytes()


def test_planner_layers_reports_h4():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "planner_layers.py"), "--systems", "h4"],
        check=True, capture_output=True, text=True,
    )
    report = json.loads(done.stdout)
    assert report["workers"] == 1
    assert set(report["systems"]) == {"h4"}
    h4 = report["systems"]["h4"]
    # the swarm's batched cost: 28 encodings in one call, the same counts as
    # one call each, and cheaper per encoding
    batch = h4.pop("cost_batch")
    assert batch["encodings"] == 28 and batch["counts_equal"] is True
    assert 0 < batch["per_encoding_s"] < batch["single_per_encoding_s"]
    # a step's encodings built as one stack from their masks, against one
    # Transform each: H4's 28 one-bit encodings
    build = h4.pop("stack_build")
    assert build["encodings"] == 28
    assert 0 < build["per_encoding_s"] < build["transform_per_encoding_s"]
    # measurement planning of H4's Hamiltonian under compile-water's three
    # encodings (JW, BK and the seed-1 beta), three rounds of one map and both
    # partitions: the two partitions share one canonical sort per sum
    planning = h4.pop("measurement")
    assert {enc: (m["strings"], m["qwc_groups"], m["gc_groups"]) for enc, m in planning.items()} == {
        "jw": (185, 69, 9), "bk": (185, 58, 9), "beta": (185, 65, 9),
    }
    for m in planning.values():
        assert m["sorts_per_sum"] == 1
        assert m["to_pauli_calls"] == m["qwc_calls"] == m["gc_calls"] == m["sort_calls"] == 3
        # one Jordan-Wigner merge per operator, inside its first map, and one
        # frame per map plus the merge's own
        assert m["merge_calls"] == 1 and m["frame_sum_calls"] == 4
        assert m["merge_s"] < m["to_pauli_s"]
        assert m["strings_calls"] == 6 and m["diagonalize_calls"] == 3 * 9
        assert 0 < m["diagonalize_s"] < m["gc_s"]
    assert {enc: h4[enc]["model_two_qubit"] for enc in h4} == {"jw": 202, "bk": 261}
    assert {enc: h4[enc]["circuit_two_qubit"] for enc in h4} == {"jw": 202, "bk": 261}
    for layers in h4.values():
        # one pool expansion, one compression split and one ordering per plan
        assert layers["plan_calls"] == layers["expand_calls"] == 3
        assert layers["compression_calls"] == layers["ordering_calls"] == 3
        # one frame per ladder count (singles and doubles) per expansion, inside it
        assert layers["frame_calls"] == 6 and layers["frame_s"] < layers["expand_s"]
        # one DP pass per ladder count inside each ordering, and at H4 one
        # batched DP per pass, inside it
        assert layers["held_karp_calls"] == layers["dp_calls"] == 6
        assert layers["dp_s"] < layers["held_karp_s"] < layers["ordering_s"]
        # every class of a plan padded into one chain batch, its junction
        # matrices built inside it
        assert layers["chaining_calls"] == layers["junctions_calls"] == 3
        assert layers["junctions_s"] < layers["chaining_s"] < layers["ordering_s"]
        # one emission: one peephole over the prefix, then each class chain
        # emitted and appended as it is
        assert layers["emit_calls"] == layers["peephole_calls"] == 1
        assert 0 < layers["chain_calls"] <= 26
        assert layers["chain_s"] < layers["emit_s"]
        assert layers["peephole_s"] < layers["emit_s"]
        # on H4's prefix (compressed blocks and fan-out) the peephole takes
        # 76 gates to 48 and keeps their 12 CNOTs, in passes of both kinds
        assert (layers["peephole_gates_in"], layers["peephole_gates_out"]) == (76, 48)
        assert layers["peephole_two_qubit_in"] == layers["peephole_two_qubit_out"] == 12
        simple, junction = (layers[f"peephole_{part}_calls"] for part in ("simple", "junction"))
        assert simple >= junction >= 1
        assert all(
            layers[f"{layer}_s"] > 0
            for layer in (
                "plan", "expand", "frame", "compression", "ordering", "held_karp", "dp", "chaining",
                "junctions",
                "emit", "chain", "peephole", "peephole_simple", "peephole_junction",
            )
        )


def test_emulator_layers_reports_h2():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "emulator_layers.py"), "--systems", "h2"],
        check=True, capture_output=True, text=True,
    )
    report = json.loads(done.stdout)
    assert report["workers"] == 1
    assert set(report["systems"]) == {"h2"}
    layers = report["systems"]["h2"]
    # 2 electrons in 4 spin orbitals: one alpha and one beta, 2 x 2 states
    assert layers["sector_dim"] == 4 and layers["h_strings"] == 15
    assert 0 < layers["h_nonzeros"] <= 4 * layers["h_width"] <= 4 * 4
    assert layers["ansatz_terms"] >= 1
    assert all(
        layers[f"{layer}_s"] > 0
        for layer in (
            "h_build", "h_compile", "generators", "h_apply", "exponential", "energy_gradient",
            "hmp2",
        )
    )
    cycles = layers["cycles"]
    assert cycles and all(c["vqe_s"] > 0 and c["vqe_iterations"] > 0 for c in cycles)
    assert all(c["vqe_evaluations"] > c["vqe_iterations"] for c in cycles)
