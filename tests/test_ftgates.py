"""Tests for the Clifford+T excitation couplers and their accounting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fqcc.circuits import Circuit, Gate, metrics
from fqcc.ftgates import (
    FTResourceReport,
    RoleAssignment,
    format_linear_form,
    ft_single_body,
    ft_two_body,
    ft_two_body_with_z,
    prefix_linear_functions,
    rel_phase_toffoli3,
    weight_sum_accounting,
)

from oracles import data_block, unitary

THETAS = (0.0, math.pi / 7, math.pi / 2, math.pi, 0.7368, -1.1)


def _coupler_generator(roles: str) -> np.ndarray:
    """Dense generator: |plus-occupied><minus-occupied| (+ h.c.), one block
    per setting of the z wires, signed by their parity."""
    r = RoleAssignment.from_string(roles)
    n = len(r.roles)
    i0 = sum(1 << w for w in r.minus)
    i1 = sum(1 << w for w in r.plus)
    zs = set(r.zchain)
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for bits in itertools.product((0, 1), repeat=len(zs)):
        off = sum(b << w for b, w in zip(bits, sorted(zs)))
        sign = (-1) ** sum(bits)
        h[i1 | off, i0 | off] = sign
        h[i0 | off, i1 | off] = sign
    return h


def _expected(roles: str, theta: float) -> np.ndarray:
    return expm(-0.5j * theta * _coupler_generator(roles))


def _data_unitary(circ: Circuit):
    return data_block(unitary(circ), circ.n_data, circ.n_ancilla)


def _cccx() -> np.ndarray:
    u = np.zeros((16, 16))
    for x in range(16):
        u[x ^ 8 if x & 7 == 7 else x, x] = 1.0
    return u


class TestRoleAssignment:
    def test_from_string_round_trip(self):
        r = RoleAssignment.from_string("+z+--")
        assert str(r) == "+z+--"
        assert len(r) == 5
        assert r.roles == ("+", "z", "+", "-", "-")

    def test_wire_groups(self):
        r = RoleAssignment.from_string("-+z-+z")
        assert r.plus == (1, 4)
        assert r.minus == (0, 3)
        assert r.zchain == (2, 5)

    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError, match="unknown role"):
            RoleAssignment.from_string("++-x")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            RoleAssignment(())


class TestRelPhaseToffoli3:
    def test_resource_counts(self):
        m = metrics(rel_phase_toffoli3())
        assert m.t_count == 8
        assert m.two_qubit == 6
        assert m.rz_count == 0
        assert m.n_gates == 18

    def test_permutation_structure(self):
        """Magnitudes form exactly the triply-controlled-NOT permutation."""
        u = unitary(rel_phase_toffoli3())
        assert np.allclose(np.abs(u), _cccx(), atol=1e-12)

    def test_is_not_a_true_toffoli(self):
        """Relative phases are real: the gate differs from the exact
        triply-controlled NOT, by a diagonal of unit-modulus phases."""
        u = unitary(rel_phase_toffoli3())
        cccx = _cccx()
        assert np.max(np.abs(u - cccx)) > 0.1
        rel = u @ cccx.T
        off = rel - np.diag(np.diag(rel))
        assert np.max(np.abs(off)) < 1e-12
        assert np.allclose(np.abs(np.diag(rel)), 1.0, atol=1e-12)

    def test_inverse_composition_is_identity(self):
        circ = rel_phase_toffoli3()
        circ.extend(g.inverse() for g in reversed(list(circ.gates)))
        assert np.allclose(unitary(circ), np.eye(16), atol=1e-12)

    def test_diagonal_core_conjugation_is_exact_control(self):
        """Sandwiching a diagonal between the gate and its inverse gives the
        same unitary as with true Toffolis: the relative phases cancel."""
        alpha = 0.937
        rel = Circuit(4)
        rel.add("RelPhaseToffoli3", 0, 1, 2, 3)
        rel.add("Rz", 3, theta=alpha)
        rel.add("RelPhaseToffoli3Inverse", 0, 1, 2, 3)
        cccx = _cccx()
        rz = np.kron(np.diag(np.exp([-0.5j * alpha, 0.5j * alpha])), np.eye(8))
        assert np.allclose(unitary(rel), cccx @ rz @ cccx, atol=1e-12)


class TestFtTwoBody:
    def test_depth_optimized_report(self):
        _, rep = ft_two_body(0.3, "++--", depth_optimized=True)
        assert rep == FTResourceReport(16, 2, 1, 1, "two_body_depth_optimized")

    def test_serial_report(self):
        _, rep = ft_two_body(0.3, "++--", depth_optimized=False)
        assert rep == FTResourceReport(16, 2, 2, 0, "two_body_serial")

    @pytest.mark.parametrize("depth_optimized", [True, False])
    def test_report_matches_metrics(self, depth_optimized):
        circ, rep = ft_two_body(1.234, "+-+-", depth_optimized)
        m = metrics(circ)
        assert (rep.t_count, rep.rz_count, rep.rz_depth, rep.ancilla_count) == (
            m.t_count, m.rz_count, m.rz_depth, m.ancilla_count)

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("depth_optimized", [True, False])
    def test_dense_oracle(self, theta, depth_optimized):
        circ, _ = ft_two_body(theta, "++--", depth_optimized)
        block, leak = _data_unitary(circ)
        assert leak < 1e-12
        assert np.max(np.abs(block - _expected("++--", theta))) < 1e-10

    def test_theta_zero_is_identity(self):
        for depth_optimized in (True, False):
            circ, _ = ft_two_body(0.0, "++--", depth_optimized)
            block, leak = _data_unitary(circ)
            assert leak < 1e-12
            assert np.allclose(block, np.eye(16), atol=1e-12)

    @pytest.mark.parametrize("roles", ["+-+-", "-+-+", "--++", "+--+", "-++-"])
    def test_permuted_roles(self, roles):
        theta = 0.8312
        circ, _ = ft_two_body(theta, roles)
        block, leak = _data_unitary(circ)
        assert leak < 1e-12
        assert np.max(np.abs(block - _expected(roles, theta))) < 1e-10

    @pytest.mark.parametrize("roles", ["+++-", "+---", "++++", "++-z"])
    def test_invalid_roles(self, roles):
        with pytest.raises(ValueError):
            ft_two_body(0.1, roles)

    def test_prefix_computes_printed_linear_forms(self):
        """The three prefix CNOTs output a, b^c, a^c, a^d for roles ++--."""
        circ, _ = ft_two_body(0.5, "++--")
        prefix = Circuit(4, 0, list(circ.gates[:3]))
        masks = prefix_linear_functions(prefix)
        assert masks == (0b0001, 0b0110, 0b0101, 0b1001)
        forms = [format_linear_form(m, 4) for m in masks]
        assert forms == ["a", "b^c", "a^c", "a^d"]


class TestFtSingleBody:
    def test_report(self):
        _, rep = ft_single_body(0.3)
        assert rep == FTResourceReport(0, 2, 1, 0, "single_body")

    def test_two_qubit_count(self):
        circ, _ = ft_single_body(0.3)
        assert metrics(circ).two_qubit == 2

    @pytest.mark.parametrize("theta", THETAS)
    def test_dense_oracle(self, theta):
        circ, _ = ft_single_body(theta)
        assert np.max(np.abs(unitary(circ) - _expected("+-", theta))) < 1e-10

    def test_theta_zero_is_identity(self):
        circ, _ = ft_single_body(0.0)
        assert np.allclose(unitary(circ), np.eye(4), atol=1e-12)


class TestFtTwoBodyWithZ:
    def test_no_z_wires_degenerates_to_plain_two_body(self):
        for depth_optimized in (True, False):
            a, rep_a = ft_two_body_with_z(0.77, "++--", depth_optimized)
            b, rep_b = ft_two_body(0.77, "++--", depth_optimized)
            assert a.gates == b.gates
            assert rep_a == rep_b

    @pytest.mark.parametrize("roles", ["++--z", "+z+--", "z++--"])
    def test_one_z_dense_oracle(self, roles):
        theta = 0.7368
        circ, rep = ft_two_body_with_z(theta, roles)
        assert circ.n_qubits == 6
        block, leak = _data_unitary(circ)
        assert leak < 1e-12
        assert np.max(np.abs(block - _expected(roles, theta))) < 1e-10
        assert (rep.t_count, rep.rz_count, rep.rz_depth) == (16, 2, 1)

    def test_two_z_serial_dense_oracle(self):
        theta = -0.4
        circ, rep = ft_two_body_with_z(theta, "++-z-z", depth_optimized=False)
        assert circ.n_ancilla == 0
        assert np.max(np.abs(unitary(circ) - _expected("++-z-z", theta))) < 1e-10
        assert rep.rz_depth == 2

    def test_z_sector_flips_rotation_sign(self):
        """z in |0> rotates by +theta, z in |1> by -theta on the coupled pair."""
        theta = 0.9
        circ, _ = ft_two_body_with_z(theta, "++--z")
        block, _ = _data_unitary(circ)
        lowered, raised, zbit = 0b01100, 0b00011, 0b10000
        amp = -1j * math.sin(theta / 2.0)
        assert np.isclose(block[raised, lowered], amp, atol=1e-12)
        assert np.isclose(block[raised | zbit, lowered | zbit], -amp, atol=1e-12)

    def test_report_matches_metrics(self):
        circ, rep = ft_two_body_with_z(0.3, "+z-+-")
        m = metrics(circ)
        assert (rep.t_count, rep.rz_count, rep.rz_depth, rep.ancilla_count) == (
            m.t_count, m.rz_count, m.rz_depth, m.ancilla_count)


class TestWeightSumAccounting:
    def test_eight_rotations_row(self):
        rep = weight_sum_accounting(8)
        assert rep == FTResourceReport(32, 4, 1, 11, "weight_sum", False)

    def test_two_rotations_fall_back_to_naive(self):
        rep = weight_sum_accounting(2)
        assert rep == FTResourceReport(0, 2, 1, 0, "naive_parallel", False)

    def test_method_comparison_row(self):
        """The coupler itself beats the weight-sum row on every column."""
        _, rep = ft_two_body(0.1, "++--")
        ws = weight_sum_accounting(8)
        assert (rep.t_count, rep.rz_count, rep.rz_depth, rep.ancilla_count) == (16, 2, 1, 1)
        assert rep.t_count < ws.t_count
        assert rep.rz_count < ws.rz_count
        assert rep.ancilla_count < ws.ancilla_count

    def test_other_counts_are_extrapolated(self):
        rep = weight_sum_accounting(16)
        assert rep.extrapolated
        assert rep == FTResourceReport(88, 5, 1, 20, "weight_sum", True)
        assert weight_sum_accounting(1) == FTResourceReport(
            0, 1, 1, 0, "naive_parallel", True)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            weight_sum_accounting(0)
        with pytest.raises(ValueError):
            weight_sum_accounting(-3)

    def test_weight_sum_always_reduces_rotations(self):
        for count in range(3, 65):
            rep = weight_sum_accounting(count)
            assert rep.variant == "weight_sum"
            bits = count.bit_length()
            assert rep.rz_count == bits < count
            assert rep.t_count == 8 * (count - bits)
            assert rep.ancilla_count == count - 1 + bits
            assert rep.rz_depth == 1


class TestPrefixLinearFunctions:
    def test_empty_circuit_gives_identity_forms(self):
        assert prefix_linear_functions(Circuit(4)) == (1, 2, 4, 8)

    def test_printed_prefix_forms(self):
        circ = Circuit(4)
        circ.add("CNOT", 2, 1).add("CNOT", 0, 2).add("CNOT", 0, 3)
        assert prefix_linear_functions(circ) == (0b0001, 0b0110, 0b0101, 0b1001)

    def test_rejects_non_cnot_gates(self):
        circ = Circuit(2)
        circ.add("CNOT", 0, 1).add("H", 0)
        with pytest.raises(ValueError, match="CNOT-only"):
            prefix_linear_functions(circ)
        cz = Circuit(2)
        cz.add("CZ", 0, 1)
        with pytest.raises(ValueError, match="CNOT-only"):
            prefix_linear_functions(cz)

    @given(
        n=st.integers(min_value=2, max_value=6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_forms_match_exhaustive_evaluation(self, n, data):
        """Every basis input evaluates each wire's form to the actual output bit."""
        wire = st.integers(min_value=0, max_value=n - 1)
        pairs = data.draw(
            st.lists(st.tuples(wire, wire).filter(lambda p: p[0] != p[1]), max_size=12)
        )
        circ = Circuit(n, 0, [Gate("CNOT", p) for p in pairs])
        masks = prefix_linear_functions(circ)
        for x in range(1 << n):
            y = x
            for c, t in pairs:
                if y >> c & 1:
                    y ^= 1 << t
            for i in range(n):
                assert (y >> i & 1) == (bin(masks[i] & x).count("1") & 1)

    def test_format_linear_form(self):
        assert format_linear_form(0, 4) == "0"
        assert format_linear_form(0b1010, 4) == "b^d"
        assert format_linear_form((1 << 27) | 1, 28) == "w0^w27"
