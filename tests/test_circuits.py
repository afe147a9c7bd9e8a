import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc import circuits
from fqcc.circuits import (
    Circuit,
    Gate,
    _euler_zxz,
    expand_toffolis,
    metrics,
    peephole_cancel,
)

import oracles
from oracles import data_block, equal_up_to_phase, unitary


def _oracle_unitary(circ: Circuit):
    ops = [(g.kind, g.qubits, g.theta) for g in expand_toffolis(circ).gates]
    return oracles.circuit_matrix(circ.n_qubits, ops, circ.global_phase)


def _random_circuit(rng, n=4, depth=30, kinds=None):
    kinds = kinds or ["H", "S", "Sdg", "T", "Tdg", "X", "Z", "Rz", "Rx", "CNOT", "CZ"]
    circ = Circuit(n)
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        if kind in ("CNOT", "CZ"):
            a, b = rng.choice(n, size=2, replace=False)
            circ.add(kind, int(a), int(b))
        elif kind in ("Rz", "Rx"):
            circ.add(kind, int(rng.integers(n)), theta=float(rng.uniform(-3 * np.pi, 3 * np.pi)))
        else:
            circ.add(kind, int(rng.integers(n)))
    return circ


class TestGateAndCircuit:
    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("Q", (0,))
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValueError):
            Gate("H", (0,), 0.3)
        with pytest.raises(ValueError):
            Gate("Rz", (0,))

    def test_wire_range_check(self):
        with pytest.raises(ValueError):
            Circuit(2).add("CNOT", 0, 2)

    def test_unitary_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            circ = _random_circuit(rng)
            assert np.allclose(unitary(circ), _oracle_unitary(circ), atol=1e-10)

    def test_dagger(self):
        rng = np.random.default_rng(1)
        circ = _random_circuit(rng, n=3, depth=15)
        circ.global_phase = np.exp(0.3j)
        inverse = [g.inverse() for g in reversed(circ.gates)]
        dagger = Circuit(3, 0, inverse, np.conjugate(circ.global_phase))
        assert np.allclose(unitary(dagger), unitary(circ).conj().T, atol=1e-10)

    def test_equal_up_to_phase(self):
        u = unitary(Circuit(2).add("H", 0).add("CNOT", 0, 1))
        assert equal_up_to_phase(u, np.exp(0.7j) * u)
        assert not equal_up_to_phase(u, unitary(Circuit(2).add("H", 0)))


class TestMetrics:
    def test_counts(self):
        circ = Circuit(3)
        circ.add("H", 0).add("CNOT", 0, 1).add("CZ", 1, 2).add("T", 2).add("Tdg", 0)
        circ.add("Rz", 1, theta=0.2).add("Rx", 2, theta=0.1)
        m = metrics(circ)
        assert m.two_qubit == 2
        assert m.t_count == 2
        assert m.rz_count == 2
        assert m.ancilla_count == 0

    def test_rz_depth_serial_vs_parallel(self):
        serial = Circuit(1).add("Rz", 0, theta=0.1).add("Rz", 0, theta=0.2)
        parallel = Circuit(2).add("Rz", 0, theta=0.1).add("Rz", 1, theta=0.2)
        assert metrics(serial).rz_depth == 2
        assert metrics(parallel).rz_depth == 1

    def test_rz_depth_through_entangler(self):
        # the CNOT forces the second rotation into a later layer
        circ = Circuit(2).add("Rz", 0, theta=0.1).add("CNOT", 0, 1).add("Rz", 1, theta=0.2)
        assert metrics(circ).rz_depth == 2

    def test_toffoli_counts(self):
        circ = Circuit(4).add("RelPhaseToffoli3", 1, 2, 3, 0)
        m = metrics(circ)
        assert m.t_count == 8 and m.two_qubit == 6 and m.rz_count == 0


class TestRelPhaseToffoli:
    def test_block_structure(self):
        circ = Circuit(4).add("RelPhaseToffoli3", 1, 2, 3, 0)
        u = unitary(circ)
        for c in range(8):
            rows = [c << 1, c << 1 | 1]
            blk = u[np.ix_(rows, rows)]
            rest = np.delete(u[:, rows], rows, axis=0)
            assert np.allclose(rest, 0.0, atol=1e-12)
            if c == 7:
                assert abs(blk[0, 0]) < 1e-12 and abs(blk[0, 1]) - 1 < 1e-12
            else:
                assert np.allclose(blk, np.diag(np.diag(blk)), atol=1e-12)
                assert np.allclose(np.abs(np.diag(blk)), 1.0, atol=1e-12)

    def test_inverse_composes_to_identity(self):
        circ = Circuit(4)
        circ.add("RelPhaseToffoli3", 1, 2, 3, 0).add("RelPhaseToffoli3Inverse", 1, 2, 3, 0)
        assert np.allclose(unitary(circ), np.eye(16), atol=1e-10)


class TestPeephole:
    def test_trivial_cancellations(self):
        circ = Circuit(2)
        circ.add("H", 0).add("H", 0).add("S", 1).add("Sdg", 1).add("CNOT", 0, 1).add("CNOT", 0, 1)
        out = peephole_cancel(circ)
        assert out.gates == []
        assert out.global_phase == 1.0

    def test_commuting_gap_cancellation(self):
        # the Z between commutes with the CNOT control, so the pair still cancels
        circ = Circuit(2).add("CNOT", 0, 1).add("Z", 0).add("X", 1).add("CNOT", 0, 1)
        out = peephole_cancel(circ)
        assert metrics(out).two_qubit == 0
        assert np.allclose(unitary(out), unitary(circ), atol=1e-10)

    def test_blocked_cancellation(self):
        # Rx(0.3) on the control neither commutes with the pair nor turns it
        # into a junction (its Euler phi is 0.3, not +-pi/2): both CNOTs stay
        circ = Circuit(2).add("CNOT", 0, 1).add("Rx", 0, theta=0.3).add("CNOT", 0, 1)
        out = peephole_cancel(circ)
        assert metrics(out).two_qubit == 2
        assert np.allclose(unitary(out), unitary(circ), atol=1e-10)

    def test_rotation_merge(self):
        circ = Circuit(1).add("Rz", 0, theta=0.4).add("Rz", 0, theta=-0.4)
        assert peephole_cancel(circ).gates == []
        circ = Circuit(1).add("Rz", 0, theta=0.4).add("Rz", 0, theta=0.5)
        out = peephole_cancel(circ)
        assert len(out.gates) == 1 and abs(out.gates[0].theta - 0.9) < 1e-12

    def test_full_turn_rotation_is_a_phase(self):
        circ = Circuit(1).add("Rz", 0, theta=np.pi).add("Rz", 0, theta=np.pi)
        out = peephole_cancel(circ)
        assert out.gates == [] and abs(out.global_phase + 1.0) < 1e-12

    @pytest.mark.parametrize("mid", [["H"], ["Sdg", "H"], ["H", "S"], ["H", "Sdg", "H"], ["H", "S", "H"], ["S", "H"]])
    def test_junction_rewrite_single_cnot(self, mid):
        circ = Circuit(2).add("CNOT", 0, 1)
        for kind in mid:
            circ.add(kind, 0)
        circ.add("CNOT", 0, 1)
        out = peephole_cancel(circ)
        assert metrics(out).two_qubit == 1
        assert np.allclose(unitary(out), unitary(circ), atol=1e-10)

    def test_junction_with_xtype_target_run(self):
        # an X-rotation product on the target wire commutes out of the sandwich
        circ = Circuit(2).add("CNOT", 0, 1)
        circ.add("H", 0)
        circ.add("H", 1).add("S", 1).add("H", 1)
        circ.add("CNOT", 0, 1)
        out = peephole_cancel(circ)
        assert metrics(out).two_qubit == 1
        assert np.allclose(unitary(out), unitary(circ), atol=1e-10)

    def test_nested_junctions(self):
        # two shared wires: the inner pair rewrites, the outer pair cancels
        circ = Circuit(3).add("CNOT", 0, 2).add("CNOT", 1, 2)
        circ.add("H", 0).add("H", 0)  # equal letters on wire 0
        circ.add("H", 1).add("Sdg", 1).add("H", 1)  # x -> y junction on wire 1
        circ.add("CNOT", 1, 2).add("CNOT", 0, 2)
        out = peephole_cancel(circ)
        assert metrics(out).two_qubit == 1
        assert np.allclose(unitary(out), unitary(circ), atol=1e-10)

    def test_diagonal_junction_removes_both_cnots(self):
        circ = Circuit(2).add("CNOT", 0, 1).add("Sdg", 0).add("CNOT", 0, 1)
        out = peephole_cancel(circ)
        assert metrics(out).two_qubit == 0
        assert np.allclose(unitary(out), unitary(circ), atol=1e-10)

    def test_unitary_preserved_on_random_circuits(self):
        rng = np.random.default_rng(123)
        for _ in range(12):
            circ = _random_circuit(rng, n=4, depth=40)
            out = peephole_cancel(circ)
            assert metrics(out).two_qubit <= metrics(circ).two_qubit
            assert np.allclose(unitary(out), unitary(circ), atol=1e-10)

    def test_clifford_heavy_circuits(self):
        rng = np.random.default_rng(77)
        kinds = ["H", "S", "Sdg", "CNOT", "CNOT", "CNOT"]
        for _ in range(10):
            circ = _random_circuit(rng, n=3, depth=30, kinds=kinds)
            out = peephole_cancel(circ)
            assert metrics(out).two_qubit <= metrics(circ).two_qubit
            assert np.allclose(unitary(out), unitary(circ), atol=1e-10)


def _ops(circ):
    return [(g.kind, g.qubits, g.theta) for g in circ.gates]


def _assert_matches_reference(circ):
    out = peephole_cancel(circ)
    want, phase = oracles.peephole_reference(_ops(circ), circ.global_phase)
    assert _ops(out) == want
    assert abs(out.global_phase - phase) <= 1e-12


_ANGLES = st.one_of(
    st.floats(-3 * np.pi, 3 * np.pi, allow_nan=False),
    st.integers(-4, 4).map(lambda k: k * np.pi / 2),
)


# CNOTs drawn three times as often, so that sandwiches form
_KINDS = ["H", "S", "Sdg", "T", "Tdg", "X", "Z", "Rz", "Rx", "CNOT", "CNOT", "CNOT", "CZ"]
_TOFFOLIS = ["RelPhaseToffoli3", "RelPhaseToffoli3Inverse"]


@st.composite
def _circuits(draw):
    """Random circuits; from 4 wires on they hold 4-wire Toffolis too."""
    n = draw(st.integers(2, 6))
    wire = st.integers(0, n - 1)
    kinds = _KINDS + _TOFFOLIS if n >= 4 else _KINDS
    circ = Circuit(n)
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("CNOT", "CZ"):
            a, b = draw(st.lists(wire, min_size=2, max_size=2, unique=True))
            circ.add(kind, a, b)
        elif kind in _TOFFOLIS:
            circ.add(kind, *draw(st.lists(wire, min_size=4, max_size=4, unique=True)))
        elif kind in ("Rz", "Rx"):
            circ.add(kind, draw(wire), theta=draw(_ANGLES))
        else:
            circ.add(kind, draw(wire))
    return circ


class TestPeepholeReference:
    """The wire-linked pass against the numpy rescanning pass in oracles."""

    @settings(max_examples=300, deadline=None)
    @given(_circuits())
    def test_random_circuits_match_gate_for_gate(self, circ):
        _assert_matches_reference(circ)

    def test_dense_sandwiches_match(self):
        # few wires and many CNOTs: nested junctions, cancellations, and
        # rewrites whose Euler angles are not multiples of pi/2
        rng = np.random.default_rng(11)
        for n, kinds, count in (
            (2, ["H", "S", "CNOT", "CNOT"], 400),
            (2, ["H", "Rx", "Rz", "CNOT"], 100),
            (3, ["H", "S", "Rx", "Rz", "CNOT", "CNOT", "CZ"], 100),
        ):
            for _ in range(count):
                _assert_matches_reference(_random_circuit(rng, n=n, depth=30, kinds=kinds))

    def test_continuous_euler_angles_match(self):
        # H Rx(c) H = Rz(c): the control product is an X-rotation up to
        # Z-rotations at a generic angle, and the rewrite emits Rz(alpha)
        rng = np.random.default_rng(3)
        for a, b, c in rng.uniform(-3.0, 3.0, (60, 3)):
            circ = Circuit(2).add("CNOT", 0, 1).add("Rz", 0, theta=a).add("H", 0)
            circ.add("Rx", 0, theta=c).add("H", 0).add("Rz", 0, theta=b).add("S", 0)
            circ.add("H", 0).add("X", 1).add("CNOT", 0, 1)
            _assert_matches_reference(circ)
            assert metrics(peephole_cancel(circ)).two_qubit == 1


    def test_toffoli_circuits_match(self):
        # 4-wire slots: Toffolis and their inverses on a few recurring wire
        # orders cancel, block on their target ("other"), and commute
        # through diagonal gates on their controls
        rng = np.random.default_rng(29)
        orders = [(0, 1, 2, 3), (1, 0, 2, 3), (3, 1, 0, 4)]
        kinds = ["H", "S", "T", "Z", "X", "Rz", "CNOT", "CZ"] + _TOFFOLIS * 3
        for _ in range(300):
            circ = Circuit(5)
            for _ in range(int(rng.integers(2, 20))):
                kind = kinds[rng.integers(len(kinds))]
                if kind in _TOFFOLIS:
                    circ.add(kind, *orders[rng.integers(len(orders))])
                elif kind in ("CNOT", "CZ"):
                    a, b = rng.choice(5, size=2, replace=False)
                    circ.add(kind, int(a), int(b))
                elif kind == "Rz":
                    circ.add(kind, int(rng.integers(5)), theta=float(rng.uniform(-4.0, 4.0)))
                else:
                    circ.add(kind, int(rng.integers(5)))
            _assert_matches_reference(circ)

    def test_toffoli_pair_cancels_across_control_phases(self):
        circ = Circuit(4).add("RelPhaseToffoli3", 0, 1, 2, 3).add("T", 0).add("CZ", 1, 2)
        circ.add("RelPhaseToffoli3Inverse", 0, 1, 2, 3)
        out = peephole_cancel(circ)
        assert [g.kind for g in out.gates] == ["T", "CZ"]
        blocked = Circuit(4).add("RelPhaseToffoli3", 0, 1, 2, 3).add("T", 3)
        blocked.add("RelPhaseToffoli3Inverse", 0, 1, 2, 3)
        assert len(peephole_cancel(blocked).gates) == 3

    def test_input_circuit_untouched(self):
        circ = Circuit(3).add("CNOT", 0, 1).add("Rz", 0, theta=0.4).add("H", 0).add("S", 0)
        circ.add("H", 0).add("Rz", 2, theta=7.0).add("Rz", 2, theta=0.1).add("CNOT", 0, 1)
        circ.add("CNOT", 1, 2).add("CNOT", 1, 2)
        gates = list(circ.gates)
        out = peephole_cancel(circ)
        assert len(out.gates) < len(gates) and metrics(out).two_qubit == 1
        assert circ.gates == gates and all(a is b for a, b in zip(circ.gates, gates))
        assert circ.global_phase == 1.0

    def test_early_stop_after_a_changing_junction_pass(self, monkeypatch):
        # round 1: the junction pass rewrites the H sandwich and leaves an H
        # next to the trailing H(1); round 2: the simple pass cancels them
        # and the junction pass finds nothing; round 3: the simple pass
        # changes nothing, so the fixpoint stops without a third junction pass
        calls = []
        for name in ("_simple_pass", "_junction_pass"):
            fn = getattr(circuits, name)
            monkeypatch.setattr(
                circuits, name, lambda st, fn=fn, name=name: calls.append((name, fn(st))) or calls[-1][1]
            )
        circ = Circuit(2).add("CNOT", 0, 1).add("H", 0).add("CNOT", 0, 1).add("H", 1)
        _assert_matches_reference(circ)
        assert calls == [
            ("_simple_pass", False), ("_junction_pass", True),
            ("_simple_pass", True), ("_junction_pass", False),
            ("_simple_pass", False),
        ]


def _random_u2(rng):
    """A Haar-like random U(2) matrix: QR of a complex Gaussian, column phases fixed."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _zxz(delta, alpha, phi, beta):
    rot = oracles._ph_rot
    return np.exp(1j * delta) * rot("Rz", alpha) @ rot("Rx", phi) @ rot("Rz", beta)


class TestEulerZXZ:
    """``_euler_zxz`` rebuilds its candidates in Python complexes; the
    numpy oracle must give the same four angles, bit for bit."""

    def test_random_unitaries(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            u = _random_u2(rng)
            got = _euler_zxz(u)
            assert got == oracles._ph_euler_zxz(u)
            assert np.allclose(_zxz(*got), u, atol=1e-12)

    def test_branches(self):
        rng = np.random.default_rng(23)
        cases = []
        for delta, a, b in rng.uniform(-np.pi, np.pi, (20, 3)):
            # phi = 0 (diagonal), phi = pi (anti-diagonal), phi = +-pi/2
            cases += [_zxz(delta, a, phi, b) for phi in (0.0, np.pi, np.pi / 2, -np.pi / 2)]
        cases += [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])]
        for u in cases:
            u = np.asarray(u, dtype=complex)
            got = _euler_zxz(u)
            assert got == oracles._ph_euler_zxz(u)
            assert np.allclose(_zxz(*got), u, atol=1e-12)

    def test_non_unitary_rejected(self):
        for m in (np.diag([1.0, 2.0]), np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2))):
            with pytest.raises(ValueError):
                _euler_zxz(np.asarray(m, dtype=complex))
            with pytest.raises(ValueError):
                oracles._ph_euler_zxz(np.asarray(m, dtype=complex))


class TestAncilla:
    def test_data_block(self):
        circ = Circuit(1, n_ancilla=1)
        circ.add("H", 1).add("H", 1)  # touch the ancilla but return it
        block, leak = data_block(unitary(circ), 1, 1)
        assert leak < 1e-12
        assert np.allclose(block, np.eye(2), atol=1e-12)

    def test_leak_detected(self):
        circ = Circuit(1, n_ancilla=1).add("H", 1)
        _, leak = data_block(unitary(circ), 1, 1)
        assert leak > 0.5
