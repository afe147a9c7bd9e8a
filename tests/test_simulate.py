import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc.fcidump import load_fcidump
from fqcc.fermions import OrbitalSequence, build_hamiltonian, uccsd_pool
from fqcc.paulis import CompiledSum, PauliString, PauliSum
from fqcc import simulate
from fqcc.simulate import (
    AnsatzOp,
    Statevector,
    VQEResult,
    _energy_and_gradient,
    apply_ansatz,
    compile_generators,
    hf_state,
    spin_sector,
    vqe_minimize,
)
from fqcc.transform import Transform

import oracles

H2_PATH = "tests/fixtures/h2_sto3g.fcidump"
H4_PATH = "tests/fixtures/h4_sto3g.fcidump"
H2O_PATH = "tests/fixtures/h2o_sto3g.fcidump"


def _ansatz_matrix(ansatz: AnsatzOp, transform=None):
    """Dense product of the per-term exponentials, first term rightmost,
    under ``transform`` (None: the occupation basis, Jordan-Wigner)."""
    n = ansatz.n_qubits
    transform = transform or Transform.jordan_wigner(n)
    m = np.eye(1 << n, dtype=complex)
    for seq, value in zip(ansatz.terms, ansatz.values):
        gen = oracles.sum_matrix(oracles.excitation_generator(seq, n).to_pauli(transform))
        m = sla.expm(value * gen) @ m
    return m


@pytest.fixture(scope="module")
def h2():
    """(ham, fock, H under Jordan-Wigner, H compiled on the full space)."""
    ham, fock = load_fcidump(H2_PATH).to_spin_orbital()
    h_pauli = build_hamiltonian(ham).to_pauli(Transform.jordan_wigner(ham.n_modes))
    return ham, fock, h_pauli, CompiledSum(h_pauli)


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

    def test_sector_is_keyword_only(self):
        with pytest.raises(TypeError):
            hf_state(2, 4, spin_sector(4, 1, 1))

    def test_reference_energy_is_transform_independent(self, h2):
        """The reference's energy in the occupation basis is the HF energy,
        and that of the encoded reference beta n under BK's H."""
        ham, fock, h_pauli, _ = h2
        e_ref = oracles.expectation(hf_state(fock.n_electrons, 4), h_pauli)
        h1, g2, ecore, _, _, nelec = oracles.read_fcidump_so(H2_PATH)
        assert e_ref == pytest.approx(oracles.hf_energy(h1, g2, ecore, nelec), abs=1e-10)
        bk = Transform.bravyi_kitaev(4)
        encoded = Statevector.basis(4, oracles.encode_occupation(bk, (1 << fock.n_electrons) - 1))
        e_bk = oracles.expectation(encoded, build_hamiltonian(ham).to_pauli(bk))
        assert e_bk == pytest.approx(e_ref, abs=1e-12)


class TestApplyAnsatz:
    def test_empty_ansatz_is_identity(self):
        ansatz = AnsatzOp.build(4, ())
        state = hf_state(2, 4)
        out = apply_ansatz(state, ansatz)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_zero_parameters_are_identity(self):
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(4, pool)
        assert ansatz.values == (0.0,) * len(pool)
        out = apply_ansatz(hf_state(2, 4), ansatz)
        assert np.array_equal(out.amplitudes, hf_state(2, 4).amplitudes)

    def test_dimension_mismatch(self):
        ansatz = AnsatzOp.build(4, ())
        with pytest.raises(ValueError, match="qubits"):
            apply_ansatz(hf_state(2, 6), ansatz)

    def test_duplicate_terms_rejected(self):
        seq = OrbitalSequence("single", (2, 0))
        with pytest.raises(ValueError, match="duplicate"):
            AnsatzOp.build(4, (seq, seq))

    @pytest.mark.parametrize("n_values", [0, 2, 4])
    def test_wrong_value_count_rejected(self, n_values):
        pool = uccsd_pool(range(2), range(2, 4))
        values = [0.1] * n_values
        with pytest.raises(ValueError, match=f"{n_values} values for 3 ansatz terms"):
            AnsatzOp.build(4, pool, values)
        with pytest.raises(ValueError, match=f"{n_values} values for 3 ansatz terms"):
            AnsatzOp.build(4, pool).with_values(values)

    def test_matches_dense_exponentials_h2(self, h2):
        pool = uccsd_pool(range(2), range(2, 4))
        rng = np.random.default_rng(7)
        ansatz = AnsatzOp.build(4, pool, rng.normal(scale=0.4, size=len(pool)))
        ref = hf_state(2, 4)
        out = apply_ansatz(ref, ansatz)
        expected = _ansatz_matrix(ansatz) @ ref.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-10
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_matches_dense_exponentials_random_encoding(self):
        """The occupation-basis state, permuted by x -> beta x, is the ansatz
        run under the encoding from the encoded reference."""
        rng = np.random.default_rng(23)
        n = 6
        tr = Transform.from_lower_bits(
            n, tuple(int(rng.integers(2)) for _ in range(n * (n - 1) // 2))
        )
        pool = uccsd_pool(range(3), range(3, 6))[:5]
        ansatz = AnsatzOp.build(n, pool, rng.normal(scale=0.3, size=len(pool)))
        out = apply_ansatz(hf_state(3, n), ansatz)
        ref = Statevector.basis(n, oracles.encode_occupation(tr, 0b111)).amplitudes
        expected = _ansatz_matrix(ansatz, tr) @ ref
        assert np.max(np.abs(oracles.encoded_amplitudes(tr, out.amplitudes) - expected)) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        theta=st.floats(-3.2, 3.2),
        pick=st.integers(0, 3),
    )
    def test_single_term_exponential_property(self, theta, pick):
        # every single from modes 0, 1 into 2, 3, the spin flips s_2_1 and s_3_0 too
        seq = OrbitalSequence("single", (2 + pick // 2, pick % 2))
        ansatz = AnsatzOp.build(4, (seq,), (theta,))
        ref = hf_state(2, 4)
        out = apply_ansatz(ref, ansatz)
        gen = oracles.sum_matrix(oracles.excitation_generator(seq, 4).to_pauli(Transform.jordan_wigner(4)))
        expected = sla.expm(theta * gen) @ ref.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-10


class TestCompileGenerator:
    def test_shared_table_shares_compiled_generators(self):
        pool = uccsd_pool(range(2), range(2, 6))
        table = {}
        first = AnsatzOp.build(6, pool[:3], table=table)
        second = AnsatzOp.build(6, pool[1:5], table=table)
        assert len(table) == 5
        assert all(a is b for a, b in zip(first.generators[1:], second.generators[:2]))
        assert all(table[seq] is k for seq, k in zip(second.terms, second.generators))
        moved = second.with_values((0.0, 0.4, 0.0, 0.0))
        assert all(a is b for a, b in zip(second.generators, moved.generators))
        assert AnsatzOp.build(6, pool[:1]).generators[0] is not first.generators[0]

    def test_equals_the_jw_pauli_route(self):
        """Byte for byte the Pauli route's kernel (the generator mapped under
        JW and compiled): every water generator on the (5, 5) sector and
        every 8-mode generator on the full space."""
        jw14, jw8 = Transform.jordan_wigner(14), Transform.jordan_wigner(8)
        for tr, pool, space in [
            (jw14, uccsd_pool(range(10), range(10, 14)), spin_sector(14, 5, 5)),
            (jw8, uccsd_pool(range(4), range(4, 8)), None),
        ]:
            routed = oracles.encoded_generators(pool, tr, space)
            table = {}
            for seq in pool:
                got, want = compile_generators((seq,), tr.n_modes, space, table)[0], routed[seq]
                assert got.values.shape == (1, 256 if space is None else 441)
                for field in ("values", "columns", "square"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (seq.name, field)

    def test_batches_equal_one_excitation_at_a_time(self):
        """Bit for bit the ladder rule run on one excitation at a time
        (``oracles.generator_kernel_reference``), in the input order: all
        140 water excitations on the (5, 5) sector, shuffled, and every H4
        excitation on the full 8-mode space."""
        rng = np.random.default_rng(11)
        water = uccsd_pool(range(10), range(10, 14))
        assert len(water) == 140
        for n, pool, space in [
            (14, [water[i] for i in rng.permutation(len(water))], spin_sector(14, 5, 5)),
            (8, uccsd_pool(range(4), range(4, 8)), None),
        ]:
            table = {}
            kernels = compile_generators(pool, n, space, table)
            assert len(kernels) == len(table) == len(pool)
            for seq, kernel in zip(pool, kernels):
                want = oracles.generator_kernel_reference(seq, n, space)
                got = (kernel.values, kernel.columns, kernel.square)
                for field, a, b in zip(("values", "columns", "square"), got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape, (seq.name, field)
                    assert a.tobytes() == b.tobytes(), (seq.name, field)

    def test_first_excitation_leaving_the_sector_is_named(self):
        """A batch with excitations that leave the sector raises for the
        first of them in the input order, whatever its ladder count, and
        compiles nothing."""
        sector = spin_sector(14, 5, 5)
        pool = uccsd_pool(range(10), range(10, 14))
        flip_single = OrbitalSequence("single", (11, 8))
        flip_double = OrbitalSequence("double", (10, 13, 0, 2))
        for batch, first in [
            (pool[:30] + [flip_double] + pool[30:] + [flip_single], flip_double),
            ([flip_single] + pool + [flip_double], flip_single),
        ]:
            with pytest.raises(ValueError, match="outside") as info:
                oracles.generator_kernel_reference(first, 14, sector)
            table = {pool[0]: compile_generators((pool[0],), 14, sector, {})[0]}
            with pytest.raises(ValueError, match=f"^{first.name} couples") as got:
                compile_generators(batch, 14, sector, table)
            assert str(got.value) == str(info.value)
            assert list(table) == [pool[0]]

    def test_ladder_rule_matches_apply_ladder(self):
        """The vectorized ladder rule is ``hmp2._apply_ladder`` on every
        water sector state, for T and T+ of every pool excitation."""
        from fqcc.hmp2 import _apply_ladder

        sector = spin_sector(14, 5, 5)
        for seq in uccsd_pool(range(10), range(10, 14)):
            for term in (seq.term(), seq.term().adjoint()):
                modes = np.array([[op.mode for op in term.ops]])
                daggers = [op.dagger for op in term.ops]
                signs, masks = simulate._apply_ladders(sector, modes, daggers)
                want = [_apply_ladder(int(m), term.ops) for m in sector]
                assert list(zip(signs[0].tolist(), masks[0].tolist())) == want, seq.name


def _exponential(kernel, theta, vec):
    """exp(theta K) vec by the sweep's one-term path, as HMP2's sign guess
    takes it."""
    return simulate._run_terms(simulate._sweep_terms((kernel,), (theta,)), vec)


class TestExponential:
    """One exponential on the sweep's path: one gather and the diagonal of K^2."""

    @pytest.mark.parametrize("n, n_e", [(4, 2), (6, 2), (8, 4)])
    @pytest.mark.parametrize("kind", ["jw", "bk", 1])
    def test_matches_dense_expm(self, n, n_e, kind):
        tr = _encoding(kind, n)
        pool = uccsd_pool(range(n_e), range(n_e, n))
        sector = _sector(kind, tr, (n_e + 1) // 2, n_e // 2)
        rng = np.random.default_rng(n)
        for seq in pool:
            dense = oracles.sum_matrix(oracles.excitation_generator(seq, n).to_pauli(tr))
            theta = rng.uniform(-np.pi, np.pi)
            exact = sla.expm(theta * dense)
            square = np.einsum("ij,ji->i", dense, dense)
            # the generator keeps the sector, so its blocks are the restrictions
            for space in (None, sector):
                rows = np.arange(1 << n) if space is None else space
                block = np.ix_(rows, rows)
                kernel = _generators(kind, tr, [seq], space)[seq]
                vec = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
                out = _exponential(kernel, theta, vec)
                assert np.max(np.abs(out - exact[block] @ vec)) < 1e-12
                assert np.allclose(kernel.apply(vec), dense[block] @ vec, atol=1e-12)
                assert np.allclose(kernel.square, square[rows], atol=1e-14)

    @pytest.mark.parametrize("kind", ["jw", "bk", 1])
    def test_equals_two_applies_on_water(self, kind):
        """For every water generator, bit for bit: its entries are exactly
        0, +-1 or +-i, so d * v is K (K v) with no rounding."""
        tr = _encoding(kind, 14)
        sector = _sector(kind, tr, 5, 5)
        pool = uccsd_pool(range(10), range(10, 14))
        assert len(pool) == 140
        rng = np.random.default_rng(21)
        for seq, kernel in _generators(kind, tr, pool, sector).items():
            assert set(np.unique(kernel.values).tolist()) <= {0, 1, -1, 1j, -1j}
            theta = rng.uniform(-np.pi, np.pi)
            vec = rng.normal(size=len(sector)) + 1j * rng.normal(size=len(sector))
            assert np.array_equal(
                _exponential(kernel, theta, vec),
                oracles.exponential_reference(kernel, theta, vec),
            )


class TestSweepAgainstReference:
    """``_energy_and_gradient`` and ``apply_ansatz`` equal the sweep of two
    kernel applies and scalar sin and cos per exponential
    (``oracles.energy_and_gradient_reference``) bit for bit."""

    @pytest.mark.parametrize("path, n_e, space", [
        (H4_PATH, 4, "sector"), (H4_PATH, 4, "full"), (H2O_PATH, 10, "sector"),
    ])
    def test_seeded_angles(self, path, n_e, space):
        ham, _ = load_fcidump(path).to_spin_orbital()
        n = ham.n_modes
        sector = spin_sector(n, n_e // 2, n_e // 2) if space == "sector" else None
        h_pauli = build_hamiltonian(ham).to_pauli(Transform.jordan_wigner(n))
        h, h_strings = CompiledSum(h_pauli, sector), oracles.compiled_strings(h_pauli, sector)
        reference = hf_state(n_e, n, sector=sector)
        pool = uccsd_pool(range(n_e), range(n_e, n))
        rng = np.random.default_rng(n)
        terms = [pool[i] for i in rng.choice(len(pool), min(len(pool), 39), replace=False)]
        table = {}
        for scale in (0.05, 1.0, 40.0, 3e3):
            x = rng.normal(scale=scale, size=len(terms))
            # exact zeros (skipped going forward, un-applied going back),
            # at both ends too for the larger scales
            zeros = rng.choice(np.arange(1, len(terms) - 1), 3, replace=False)
            x[zeros] = [0.0, -0.0, 0.0]
            if scale > 1.0:
                x[0] = x[-1] = 0.0
            x[rng.random(len(terms)) < 0.5] *= -1.0
            ansatz = AnsatzOp.build(n, terms, x, table=table, sector=sector)
            energy, grad = _energy_and_gradient(x, h, ansatz, reference)
            want = oracles.energy_and_gradient_reference(x, h_strings, ansatz, reference)
            assert energy == want[0] and grad.dtype == want[1].dtype
            assert np.array_equal(grad, want[1]), scale
            state = apply_ansatz(reference, ansatz).amplitudes
            assert np.array_equal(
                state, oracles.ansatz_state_reference(ansatz, ansatz.values, reference.amplitudes)
            )


class TestVqeMinimize:
    def test_reaches_exact_ground_state_h2(self, h2):
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(4, pool)
        res = vqe_minimize(h2[3], ansatz, hf_state(2, 4))
        exact = float(np.linalg.eigvalsh(oracles.sum_matrix(h2[2]))[0])
        assert res.converged and res.message == "gradient max-norm at or below gtol"
        assert res.energy == pytest.approx(exact, abs=1e-8)
        assert res.grad_norm < 1e-7
        assert res.n_evaluations > res.n_iterations > 0

    def test_no_parameters_returns_reference_energy(self, h2):
        ansatz = AnsatzOp.build(4, ())
        res = vqe_minimize(h2[3], ansatz, hf_state(2, 4))
        assert res.converged
        assert res.n_iterations == 0
        assert res.energy == pytest.approx(oracles.expectation(hf_state(2, 4), h2[2]), abs=1e-14)

    def test_gradient_matches_finite_differences(self, h2):
        from fqcc.simulate import _energy_and_gradient

        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(4, pool)
        compiled = h2[3]
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
        h = h2[3]
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(4, pool)
        a = vqe_minimize(h, ansatz, hf_state(2, 4))
        b = vqe_minimize(h, ansatz, hf_state(2, 4))
        assert a.energy == b.energy
        assert a.values == b.values

    def test_iteration_cap_flags_nonconvergence(self, h2):
        h = h2[3]
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(4, pool)
        res = vqe_minimize(h, ansatz, hf_state(2, 4), maxiter=1)
        assert not res.converged and res.message == "iteration cap reached"
        assert res.n_iterations <= 1
        assert np.isfinite(res.energy)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"maxiter": -1}, "maxiter"),
            ({"gtol": -1e-7}, "gtol"),
            ({"gtol": float("nan")}, "gtol"),
        ],
    )
    def test_bad_caps_rejected(self, h2, kwargs, match):
        """A negative cap would never equal the iteration count, so the run
        would go on without one; a NaN ``gtol`` would never be met."""
        ansatz = AnsatzOp.build(4, uccsd_pool(range(2), range(2, 4)))
        with pytest.raises(ValueError, match=match):
            vqe_minimize(h2[3], ansatz, hf_state(2, 4), **kwargs)

    def test_zero_caps_accepted(self, h2):
        ansatz = AnsatzOp.build(4, uccsd_pool(range(2), range(2, 4)))
        res = vqe_minimize(h2[3], ansatz, hf_state(2, 4), maxiter=0)
        assert res.n_iterations == 0 and res.message == "iteration cap reached"

    def test_line_search_failure_returns_the_best_point(self, h2, monkeypatch):
        """At ``gtol=0`` round-off ends the run in a failed line search;
        it reports the lowest energy it evaluated, with that point's
        values and gradient."""
        h = h2[3]
        ansatz = AnsatzOp.build(4, uccsd_pool(range(2), range(2, 4)))
        evaluated = []
        sweep = simulate._energy_and_gradient

        def recording(x, *args):
            evaluated.append((x.copy(), *sweep(x, *args)))
            return evaluated[-1][1:]

        monkeypatch.setattr(simulate, "_energy_and_gradient", recording)
        res = vqe_minimize(h, ansatz, hf_state(2, 4), gtol=0.0)
        assert not res.converged and res.message == "line search failed"
        assert res.n_evaluations == len(evaluated)
        x, energy, grad = min(evaluated, key=lambda point: point[1])
        assert res.energy == energy and res.values == tuple(x.tolist())
        assert res.grad_norm == np.max(np.abs(grad)) > 0.0

    def test_initial_point_is_respected(self, h2):
        h = h2[3]
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(4, pool)
        best = vqe_minimize(h, ansatz, hf_state(2, 4))
        warm = vqe_minimize(h, ansatz.with_values(best.values), hf_state(2, 4))
        assert warm.energy == pytest.approx(best.energy, abs=1e-10)
        assert warm.n_iterations <= best.n_iterations

    def test_result_shape(self, h2):
        h = h2[3]
        res = vqe_minimize(h, AnsatzOp.build(4, ()), hf_state(2, 4))
        assert isinstance(res, VQEResult)
        assert res.values == ()
        assert isinstance(res.message, str)
        assert res.n_evaluations == 1


def _shifted_problem(path):
    """(H - E_HF compiled on the spin sector, the UCCSD pool, the reference)
    of an FCIDUMP, shifted as ``hmp2.run_hmp2_loop`` shifts it."""
    ham, fock = load_fcidump(path).to_spin_orbital()
    n, n_e = ham.n_modes, fock.n_electrons
    h_pauli = build_hamiltonian(ham).to_pauli(Transform.jordan_wigner(n))
    sector = spin_sector(n, (n_e + 1) // 2, n_e // 2)
    reference = hf_state(n_e, n, sector=sector)
    e_hf = oracles.expectation(reference, h_pauli)
    shifted = PauliSum.from_strings(h_pauli.strings() + [PauliString(n, 0, 0, -e_hf)])
    return CompiledSum(shifted, sector), uccsd_pool(range(n_e), range(n_e, n)), reference


class TestAgainstLbfgsb:
    """The numpy L-BFGS and scipy's L-BFGS-B (``oracles.lbfgsb_reference``,
    ``ftol=0``) stop at the same minimum: energies within 1e-12, and both
    gradients' max-norms at or below ``gtol``."""

    @pytest.mark.parametrize(
        "path, n_terms, scale",
        [(H2O_PATH, 39, 0.0), (H4_PATH, None, 0.0), (H4_PATH, None, 0.3)],
        ids=["water", "h4", "h4-seeded"],
    )
    def test_same_minimum(self, path, n_terms, scale):
        h, pool, reference = _shifted_problem(path)
        pool = pool[:n_terms]
        start = np.random.default_rng(0).uniform(-scale, scale, len(pool))
        ansatz = AnsatzOp.build(reference.n_qubits, pool, start, sector=reference.sector)
        gtol = 1e-7
        res = vqe_minimize(h, ansatz, reference, gtol=gtol)
        energy, _, grad_norm = oracles.lbfgsb_reference(
            lambda x: simulate._energy_and_gradient(x, h, ansatz, reference), start, gtol
        )
        assert res.converged and res.grad_norm <= gtol
        assert grad_norm <= gtol
        assert res.energy == pytest.approx(energy, abs=1e-12)


def _encoding(kind, n):
    """JW, BK, or the unit-triangular encoding seeded by ``kind``."""
    if kind == "jw":
        return Transform.jordan_wigner(n)
    if kind == "bk":
        return Transform.bravyi_kitaev(n)
    rng = np.random.default_rng(kind)
    return Transform.from_lower_bits(n, rng.integers(0, 2, n * (n - 1) // 2).tolist())


def _sector(kind, tr, n_alpha, n_beta):
    """The (n_alpha, n_beta) sector in ``tr``'s basis: ``spin_sector`` in
    the occupation basis (JW), the oracle's encoded sector otherwise."""
    if kind == "jw":
        return spin_sector(tr.n_modes, n_alpha, n_beta)
    return oracles.encoded_sector(tr, n_alpha, n_beta)


def _generators(kind, tr, seqs, space):
    """{excitation: compiled T - T+ under ``tr`` on ``space``}:
    ``compile_generators`` in the occupation basis (JW), the mapped generator
    compiled directly otherwise."""
    if kind == "jw":
        table = {}
        for seq in seqs:
            compile_generators((seq,), tr.n_modes, space, table)
        return table
    return oracles.encoded_generators(seqs, tr, space)


ENCODINGS = ["jw", "bk", 1, 2, 3]


class TestSpinSector:
    @pytest.mark.parametrize("kind", ENCODINGS)
    def test_is_the_encoded_determinants(self, kind):
        """The sector is the joint eigenspace of the encoded N_alpha and
        N_beta: ``spin_sector`` in the occupation basis, the determinants
        encoded by beta under any other encoding."""
        tr = _encoding(kind, 6)
        counts = []
        for spin in (0, 1):
            numbers = [(1.0, ((m, True), (m, False))) for m in range(6) if m % 2 == spin]
            diagonal = CompiledSum(tr.map_operator(numbers)).apply(np.ones(64, dtype=complex))
            counts.append(np.rint(diagonal.real))
        for n_alpha, n_beta in [(1, 1), (2, 1), (0, 3), (3, 3)]:
            want = np.flatnonzero((counts[0] == n_alpha) & (counts[1] == n_beta)).tolist()
            assert _sector(kind, tr, n_alpha, n_beta).tolist() == want
        assert spin_sector(6, 2, 1).tolist() == oracles.sector_dets(6, 2, 1)

    @pytest.mark.parametrize("kind", ["jw", "bk"])
    def test_water_sector_holds_the_reference(self, kind):
        sector = spin_sector(14, 5, 5)
        assert len(sector) == 441 and np.all(np.diff(sector) > 0)
        ref = hf_state(10, 14, sector=sector)
        assert ref.sector is sector and ref.amplitudes.shape == (441,)
        assert sector[np.argmax(np.abs(ref.amplitudes))] == (1 << 10) - 1
        # permuted by x -> beta x, the reference lies in the encoded sector
        tr = _encoding(kind, 14)
        encoded = oracles.encoded_sector(tr, 5, 5)
        assert len(encoded) == 441
        assert oracles.encode_occupation(tr, (1 << 10) - 1) in encoded.tolist()

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
            generator = oracles.excitation_generator(pool[pick % len(pool)], n)
            for (x, z), c in generator.to_pauli(tr)._terms.items():
                op._add_term(x, z, coeff * c)
        sector = _sector(kind, tr, *counts)
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
            sector = _sector(kind, tr, *counts)
            full = CompiledSum(h_pauli).apply(vec)[sector]
            assert np.max(np.abs(CompiledSum(h_pauli, sector).apply(vec[sector]) - full)) < 1e-12

    @pytest.mark.parametrize("kind", ["jw", "bk"])
    def test_spin_flip_is_rejected(self, kind):
        tr = _encoding(kind, 14)
        flip = OrbitalSequence("single", (11, 8))
        with pytest.raises(ValueError, match="outside"):
            image = oracles.excitation_generator(flip, 14).to_pauli(tr)
            CompiledSum(image, _sector(kind, tr, 5, 5))
        table = {}
        with pytest.raises(ValueError, match="outside"):
            compile_generators((flip,), 14, spin_sector(14, 5, 5), table)
        assert not table
        with pytest.raises(ValueError, match="outside"):
            AnsatzOp.build(14, (flip,), sector=spin_sector(14, 5, 5))
        # the same term is fine on the full space
        AnsatzOp.build(14, (flip,))

    def test_spaces_do_not_mix(self, h2):
        sector = spin_sector(4, 1, 1)
        pool = uccsd_pool(range(2), range(2, 4))
        with pytest.raises(ValueError, match="different sector"):
            apply_ansatz(hf_state(2, 4, sector=sector), AnsatzOp.build(4, pool))
        with pytest.raises(ValueError, match="different sector"):
            vqe_minimize(h2[3], AnsatzOp.build(4, pool, sector=sector),
                         hf_state(2, 4, sector=sector))

    def test_vqe_on_the_sector_matches_the_full_space(self, h2):
        h_pauli = h2[2]
        pool = uccsd_pool(range(2), range(2, 4))
        sector = spin_sector(4, 1, 1)
        full = vqe_minimize(h2[3], AnsatzOp.build(4, pool), hf_state(2, 4))
        small = vqe_minimize(
            CompiledSum(h_pauli, sector), AnsatzOp.build(4, pool, sector=sector),
            hf_state(2, 4, sector=sector),
        )
        assert small.energy == pytest.approx(full.energy, abs=1e-10)
        ansatz = AnsatzOp.build(4, pool, small.values, sector=sector)
        state = apply_ansatz(hf_state(2, 4, sector=sector), ansatz)
        assert oracles.expectation(state, h_pauli) == pytest.approx(small.energy, abs=1e-12)
