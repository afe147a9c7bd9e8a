import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc.fcidump import load_fcidump
from fqcc.fermions import OrbitalSequence, build_hamiltonian, excitation_generator, uccsd_pool
from fqcc.paulis import CompiledSum, PauliSum
from fqcc.simulate import (
    AnsatzOp,
    Statevector,
    VQEResult,
    apply_ansatz,
    hf_state,
    spin_sector,
    vqe_minimize,
)
from fqcc.transform import Transform

import oracles

H2_PATH = "tests/fixtures/h2_sto3g.fcidump"


def _sum_matrix(op: PauliSum):
    return oracles.paulisum_matrix(op.n_qubits, [(s.coeff, s.letters()) for s in op])


def _ansatz_matrix(ansatz: AnsatzOp):
    """Dense product of the per-term exponentials, first term rightmost."""
    n = ansatz.n_qubits
    m = np.eye(1 << n, dtype=complex)
    for seq, value in zip(ansatz.terms, ansatz.values):
        gen = _sum_matrix(excitation_generator(seq, n).to_pauli(ansatz.transform))
        m = sla.expm(value * gen) @ m
    return m


@pytest.fixture(scope="module")
def h2():
    ham, fock = load_fcidump(H2_PATH).to_spin_orbital()
    transform = Transform.jordan_wigner(ham.n_modes)
    h_pauli = build_hamiltonian(ham).to_pauli(transform)
    return ham, fock, transform, h_pauli


class TestStatevector:
    def test_basis_state_is_one_hot(self):
        s = Statevector.basis(3, 5)
        expected = np.zeros(8)
        expected[5] = 1.0
        assert np.array_equal(s.amplitudes, expected)

    def test_basis_index_out_of_range(self):
        with pytest.raises(ValueError):
            Statevector.basis(2, 4)
        with pytest.raises(ValueError):
            Statevector.basis(2, -1)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            Statevector(2, np.ones(4))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="amplitudes"):
            Statevector(2, np.array([1.0, 0.0]))

    def test_overlap(self):
        a = Statevector.basis(2, 1).amplitudes
        b = Statevector.basis(2, 2).amplitudes
        assert np.vdot(a, a) == 1.0
        assert np.vdot(a, b) == 0.0

    def test_expectation_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(11)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        state = Statevector(3, vec)
        op = PauliSum.from_strings(
            [
                oracles.pauli_string("0.7 * Z0", n_qubits=3),
                oracles.pauli_string("0.2 * X1 Z2", n_qubits=3),
            ]
        )
        dense = _sum_matrix(op)
        expected = float(np.real(np.vdot(vec, dense @ vec)))
        assert state.expectation(op) == pytest.approx(expected, abs=1e-12)
        assert state.expectation(CompiledSum(op)) == pytest.approx(expected, abs=1e-12)


class TestHfState:
    def test_occupation_convention(self):
        s = hf_state(3, 5)
        assert s.amplitudes[0b00111] == 1.0

    def test_empty_and_full(self):
        assert hf_state(0, 3).amplitudes[0] == 1.0
        assert hf_state(3, 3).amplitudes[7] == 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            hf_state(-1, 4)
        with pytest.raises(ValueError):
            hf_state(5, 4)

    def test_identity_transform_matches_default(self):
        tr = Transform.jordan_wigner(4)
        assert np.array_equal(hf_state(2, 4, tr).amplitudes, hf_state(2, 4).amplitudes)

    def test_fenwick_encoding_by_hand(self):
        # occupation 0011 under the Fenwick encoding: bit 1 stores the pair
        # parity (1 xor 1 = 0) and bit 3 the running total (0), so index 1.
        tr = Transform.bravyi_kitaev(4)
        assert hf_state(2, 4, tr).amplitudes[0b0001] == 1.0

    def test_reference_energy_is_transform_independent(self, h2):
        ham, fock, _, _ = h2
        e_ref = None
        for tr in (Transform.jordan_wigner(4), Transform.bravyi_kitaev(4)):
            h_pauli = build_hamiltonian(ham).to_pauli(tr)
            e = hf_state(fock.n_electrons, 4, tr).expectation(h_pauli)
            if e_ref is None:
                e_ref = e
            assert e == pytest.approx(e_ref, abs=1e-12)
        h1, g2, ecore, _, _, nelec = oracles.read_fcidump_so(H2_PATH)
        assert e_ref == pytest.approx(oracles.hf_energy(h1, g2, ecore, nelec), abs=1e-10)


class TestApplyAnsatz:
    def test_empty_ansatz_is_identity(self):
        tr = Transform.jordan_wigner(4)
        ansatz = AnsatzOp.build(tr, ())
        state = hf_state(2, 4)
        out = apply_ansatz(state, ansatz)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_zero_parameters_are_identity(self):
        tr = Transform.jordan_wigner(4)
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(tr, pool)
        assert ansatz.values == (0.0,) * len(pool)
        out = apply_ansatz(hf_state(2, 4), ansatz)
        assert np.array_equal(out.amplitudes, hf_state(2, 4).amplitudes)

    def test_dimension_mismatch(self):
        tr = Transform.jordan_wigner(4)
        ansatz = AnsatzOp.build(tr, ())
        with pytest.raises(ValueError, match="qubits"):
            apply_ansatz(hf_state(2, 6), ansatz)

    def test_duplicate_terms_rejected(self):
        tr = Transform.jordan_wigner(4)
        seq = OrbitalSequence("single", (2, 0))
        with pytest.raises(ValueError, match="duplicate"):
            AnsatzOp.build(tr, (seq, seq))

    @pytest.mark.parametrize("n_values", [0, 2, 4])
    def test_wrong_value_count_rejected(self, n_values):
        tr = Transform.jordan_wigner(4)
        pool = uccsd_pool(range(2), range(2, 4))
        values = [0.1] * n_values
        with pytest.raises(ValueError, match=f"{n_values} values for 3 ansatz terms"):
            AnsatzOp.build(tr, pool, values)
        with pytest.raises(ValueError, match=f"{n_values} values for 3 ansatz terms"):
            AnsatzOp.build(tr, pool).with_values(values)

    def test_matches_dense_exponentials_h2(self, h2):
        ham, fock, tr, _ = h2
        pool = uccsd_pool(range(2), range(2, 4))
        rng = np.random.default_rng(7)
        ansatz = AnsatzOp.build(tr, pool, rng.normal(scale=0.4, size=len(pool)))
        ref = hf_state(2, 4)
        out = apply_ansatz(ref, ansatz)
        expected = _ansatz_matrix(ansatz) @ ref.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-10
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_matches_dense_exponentials_random_encoding(self):
        rng = np.random.default_rng(23)
        n = 6
        tr = Transform.from_lower_bits(
            n, tuple(int(rng.integers(2)) for _ in range(n * (n - 1) // 2))
        )
        pool = uccsd_pool(range(3), range(3, 6))[:5]
        ansatz = AnsatzOp.build(tr, pool, rng.normal(scale=0.3, size=len(pool)))
        ref = hf_state(3, n, tr)
        out = apply_ansatz(ref, ansatz)
        expected = _ansatz_matrix(ansatz) @ ref.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        theta=st.floats(-3.2, 3.2),
        pick=st.integers(0, 3),
    )
    def test_single_term_exponential_property(self, theta, pick):
        # every single from modes 0, 1 into 2, 3, the spin flips s_2_1 and s_3_0 too
        seq = OrbitalSequence("single", (2 + pick // 2, pick % 2))
        tr = Transform.jordan_wigner(4)
        ansatz = AnsatzOp.build(tr, (seq,), (theta,))
        ref = hf_state(2, 4)
        out = apply_ansatz(ref, ansatz)
        gen = _sum_matrix(excitation_generator(seq, 4).to_pauli(tr))
        expected = sla.expm(theta * gen) @ ref.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-10


class TestCompileGenerator:
    def test_shared_table_shares_compiled_generators(self):
        tr = Transform.bravyi_kitaev(6)
        pool = uccsd_pool(range(2), range(2, 6))
        table = {}
        first = AnsatzOp.build(tr, pool[:3], table=table)
        second = AnsatzOp.build(tr, pool[1:5], table=table)
        assert len(table) == 5
        assert all(a is b for a, b in zip(first.generators[1:], second.generators[:2]))
        assert all(table[seq] is k for seq, k in zip(second.terms, second.generators))
        moved = second.with_values((0.0, 0.4, 0.0, 0.0))
        assert all(a is b for a, b in zip(second.generators, moved.generators))
        assert AnsatzOp.build(tr, pool[:1]).generators[0] is not first.generators[0]


class TestVqeMinimize:
    def test_reaches_exact_ground_state_h2(self, h2):
        ham, fock, tr, h_pauli = h2
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(tr, pool)
        res = vqe_minimize(h_pauli, ansatz, hf_state(2, 4))
        exact = float(np.linalg.eigvalsh(_sum_matrix(h_pauli))[0])
        assert res.converged
        assert res.energy == pytest.approx(exact, abs=1e-8)
        assert res.grad_norm < 1e-7

    def test_no_parameters_returns_reference_energy(self, h2):
        ham, fock, tr, h_pauli = h2
        ansatz = AnsatzOp.build(tr, ())
        res = vqe_minimize(h_pauli, ansatz, hf_state(2, 4))
        assert res.converged
        assert res.n_iterations == 0
        assert res.energy == pytest.approx(hf_state(2, 4).expectation(h_pauli), abs=1e-14)

    def test_gradient_matches_finite_differences(self, h2):
        from fqcc.simulate import _energy_and_gradient

        ham, fock, tr, h_pauli = h2
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(tr, pool)
        compiled = CompiledSum(h_pauli)
        rng = np.random.default_rng(3)
        x = rng.normal(scale=0.3, size=len(pool))
        _, grad = _energy_and_gradient(x, compiled, ansatz, hf_state(2, 4))
        h = 1e-6
        for j in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            ep, _ = _energy_and_gradient(xp, compiled, ansatz, hf_state(2, 4))
            em, _ = _energy_and_gradient(xm, compiled, ansatz, hf_state(2, 4))
            assert grad[j] == pytest.approx((ep - em) / (2 * h), abs=5e-8)

    def test_deterministic(self, h2):
        ham, fock, tr, h_pauli = h2
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(tr, pool)
        a = vqe_minimize(h_pauli, ansatz, hf_state(2, 4))
        b = vqe_minimize(h_pauli, ansatz, hf_state(2, 4))
        assert a.energy == b.energy
        assert a.values == b.values

    def test_iteration_cap_flags_nonconvergence(self, h2):
        ham, fock, tr, h_pauli = h2
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(tr, pool)
        res = vqe_minimize(h_pauli, ansatz, hf_state(2, 4), maxiter=1)
        assert not res.converged
        assert res.n_iterations <= 1
        assert np.isfinite(res.energy)

    def test_initial_point_is_respected(self, h2):
        ham, fock, tr, h_pauli = h2
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(tr, pool)
        best = vqe_minimize(h_pauli, ansatz, hf_state(2, 4))
        warm = vqe_minimize(h_pauli, ansatz.with_values(best.values), hf_state(2, 4))
        assert warm.energy == pytest.approx(best.energy, abs=1e-10)
        assert warm.n_iterations <= best.n_iterations

    def test_result_shape(self, h2):
        ham, fock, tr, h_pauli = h2
        res = vqe_minimize(h_pauli, AnsatzOp.build(tr, ()), hf_state(2, 4))
        assert isinstance(res, VQEResult)
        assert res.values == ()
        assert isinstance(res.message, str)


def _encoding(kind, n):
    """JW, BK, or the unit-triangular encoding seeded by ``kind``."""
    if kind == "jw":
        return Transform.jordan_wigner(n)
    if kind == "bk":
        return Transform.bravyi_kitaev(n)
    rng = np.random.default_rng(kind)
    return Transform.from_lower_bits(n, rng.integers(0, 2, n * (n - 1) // 2).tolist())


ENCODINGS = ["jw", "bk", 1, 2, 3]


class TestSpinSector:
    @pytest.mark.parametrize("kind", ENCODINGS)
    def test_is_the_encoded_determinants(self, kind):
        tr = _encoding(kind, 6)
        for n_alpha, n_beta in [(1, 1), (2, 1), (0, 3), (3, 3)]:
            want = sorted(tr.encode_occupation(d) for d in oracles.sector_dets(6, n_alpha, n_beta))
            assert spin_sector(6, n_alpha, n_beta, tr).tolist() == want
        assert spin_sector(6, 2, 1).tolist() == oracles.sector_dets(6, 2, 1)

    @pytest.mark.parametrize("kind", ["jw", "bk"])
    def test_water_sector_holds_the_reference(self, kind):
        tr = _encoding(kind, 14)
        sector = spin_sector(14, 5, 5, tr)
        assert len(sector) == 441 and np.all(np.diff(sector) > 0)
        ref = hf_state(10, 14, tr, sector)
        assert ref.sector is sector and ref.amplitudes.shape == (441,)
        assert sector[np.argmax(np.abs(ref.amplitudes))] == tr.encode_occupation((1 << 10) - 1)

    def test_reference_outside_the_sector_rejected(self):
        with pytest.raises(ValueError, match="not in the sector"):
            hf_state(2, 4, sector=spin_sector(4, 2, 0))

    def test_amplitude_count_follows_the_sector(self):
        sector = spin_sector(4, 1, 1)
        with pytest.raises(ValueError, match="expected 4 amplitudes"):
            Statevector(4, np.ones(16) / 4.0, sector)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(ENCODINGS),
        counts=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        picks=st.lists(st.tuples(st.integers(0, 10**6), st.floats(-2.0, 2.0)), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_sector_apply_is_the_restricted_apply(self, kind, counts, picks, seed):
        """On a number- and S_z-conserving sum the sector kernel is the full
        kernel read on the sector, for any vector."""
        n = 6
        tr = _encoding(kind, n)
        pool = uccsd_pool(range(3), range(3, n))
        op = PauliSum(n)
        for pick, coeff in picks:
            op._accumulate(coeff * excitation_generator(pool[pick % len(pool)], n).to_pauli(tr))
        sector = spin_sector(n, *counts, tr)
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        full = CompiledSum(op.simplify()).apply(vec)[sector]
        restricted = CompiledSum(op, sector).apply(vec[sector])
        assert np.max(np.abs(restricted - full), initial=0.0) < 1e-12

    @pytest.mark.parametrize("kind", ["jw", "bk"])
    def test_hamiltonian_on_every_sector(self, h2, kind):
        ham = h2[0]
        tr = _encoding(kind, 4)
        h_pauli = build_hamiltonian(ham).to_pauli(tr)
        vec = np.random.default_rng(4).normal(size=16).astype(complex)
        for counts in [(1, 1), (2, 1), (1, 0), (2, 2)]:
            sector = spin_sector(4, *counts, tr)
            full = CompiledSum(h_pauli).apply(vec)[sector]
            assert np.max(np.abs(CompiledSum(h_pauli, sector).apply(vec[sector]) - full)) < 1e-12

    @pytest.mark.parametrize("kind", ["jw", "bk"])
    def test_spin_flip_is_rejected(self, kind):
        tr = _encoding(kind, 14)
        sector = spin_sector(14, 5, 5, tr)
        flip = OrbitalSequence("single", (11, 8))
        with pytest.raises(ValueError, match="outside"):
            CompiledSum(excitation_generator(flip, 14).to_pauli(tr), sector)
        with pytest.raises(ValueError, match="outside"):
            AnsatzOp.build(tr, (flip,), sector=sector)
        # the same term is fine on the full space
        AnsatzOp.build(tr, (flip,))

    def test_spaces_do_not_mix(self, h2):
        _, _, tr, h_pauli = h2
        sector = spin_sector(4, 1, 1, tr)
        pool = uccsd_pool(range(2), range(2, 4))
        with pytest.raises(ValueError, match="different sector"):
            apply_ansatz(hf_state(2, 4, tr, sector), AnsatzOp.build(tr, pool))
        with pytest.raises(ValueError, match="different sector"):
            vqe_minimize(CompiledSum(h_pauli), AnsatzOp.build(tr, pool, sector=sector),
                         hf_state(2, 4, tr, sector))

    def test_vqe_on_the_sector_matches_the_full_space(self, h2):
        _, _, tr, h_pauli = h2
        pool = uccsd_pool(range(2), range(2, 4))
        sector = spin_sector(4, 1, 1, tr)
        full = vqe_minimize(h_pauli, AnsatzOp.build(tr, pool), hf_state(2, 4, tr))
        small = vqe_minimize(
            h_pauli, AnsatzOp.build(tr, pool, sector=sector), hf_state(2, 4, tr, sector)
        )
        assert small.energy == pytest.approx(full.energy, abs=1e-10)
        state = apply_ansatz(hf_state(2, 4, tr, sector), AnsatzOp.build(tr, pool, small.values, sector=sector))
        assert state.expectation(h_pauli) == pytest.approx(small.energy, abs=1e-12)
