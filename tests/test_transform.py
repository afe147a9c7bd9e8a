from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc.fcidump import load_fcidump
from fqcc.fermions import build_hamiltonian
from fqcc.paulis import PauliString, PauliSum
from fqcc.transform import Transform

import oracles


def _sum_matrix(op: PauliSum):
    terms = [(s.coeff, s.letters()) for s in op.strings()]
    return oracles.paulisum_matrix(op.n_qubits, terms)


def _random_beta(rng, n):
    beta = np.eye(n, dtype=np.uint8)
    for i in range(n):
        for j in range(i):
            beta[i, j] = rng.integers(2)
    return beta


_NAMED = {"jw": Transform.jordan_wigner, "bk": Transform.bravyi_kitaev}


def _bits(mask):
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def _sets(t, j):
    """U(j), P(j), R(j) read off the masks of mode j's ladder strings."""
    (x, z_parity, _), (_, z_remainder, _) = t.ladder_strings[j][0]
    return (
        tuple(i for i in _bits(x) if i != j),
        _bits(z_parity),
        tuple(k for k in _bits(z_remainder) if k != j),
    )


def _basis_matrix(t: Transform):
    circ = t.basis_circuit()
    ops = [(g.kind, g.qubits, g.theta) for g in circ.gates]
    return oracles.circuit_matrix(t.n_modes, ops)


def beta_strategy(min_n=1, max_n=6):
    def build(n, bits):
        beta = np.eye(n, dtype=np.uint8)
        k = 0
        for i in range(n):
            for j in range(i):
                beta[i, j] = bits[k]
                k += 1
        return beta

    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        )
    ).map(lambda t: build(*t))


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Transform(np.ones((2, 3), dtype=np.uint8))

    def test_rejects_zero_diagonal(self):
        beta = np.eye(3, dtype=np.uint8)
        beta[1, 1] = 0
        with pytest.raises(ValueError):
            Transform(beta)

    def test_rejects_upper_entries(self):
        beta = np.eye(3, dtype=np.uint8)
        beta[0, 2] = 1
        with pytest.raises(ValueError):
            Transform(beta)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Transform(2 * np.eye(2, dtype=np.uint8))


class TestJordanWigner:
    def test_sets(self):
        t = Transform.jordan_wigner(5)
        for j in range(5):
            assert _sets(t, j) == ((), tuple(range(j)), tuple(range(j)))

    def test_strings_verbatim(self):
        t = Transform.jordan_wigner(4)
        texts = sorted(s.to_text() for s in oracles.map_ladder(t, 2, True).strings())
        assert texts == sorted(["0.5 * Z0 Z1 X2", "-0.5j * Z0 Z1 Y2"])
        texts = sorted(s.to_text() for s in oracles.map_ladder(t, 0, False).strings())
        assert texts == sorted(["0.5 * X0", "0.5j * Y0"])

    def test_matches_dense_ladder(self):
        t = Transform.jordan_wigner(4)
        for mode in range(4):
            for dagger in (False, True):
                got = _sum_matrix(oracles.map_ladder(t, mode, dagger))
                want = oracles.ladder_matrix(4, mode, dagger)
                assert np.allclose(got, want, atol=1e-14)

    def test_basis_circuit_is_empty(self):
        assert Transform.jordan_wigner(4).basis_circuit().gates == []


class TestBravyiKitaev:
    def test_single_mode_equals_jw(self):
        assert np.array_equal(
            Transform.bravyi_kitaev(1).beta, Transform.jordan_wigner(1).beta
        )

    def test_two_modes(self):
        assert np.array_equal(
            Transform.bravyi_kitaev(2).beta, np.array([[1, 0], [1, 1]], dtype=np.uint8)
        )

    def test_four_modes(self):
        want = np.array(
            [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]], dtype=np.uint8
        )
        assert np.array_equal(Transform.bravyi_kitaev(4).beta, want)

    def test_update_set_climbs_tree(self):
        t = Transform.bravyi_kitaev(4)
        assert [_sets(t, j)[0] for j in range(4)] == [(1, 3), (3,), (3,), ()]

    def test_truncation_at_odd_sizes(self):
        # rows of a larger instance restrict to the smaller one
        big = Transform.bravyi_kitaev(8).beta
        for n in (3, 5, 6, 7):
            small = Transform.bravyi_kitaev(n).beta
            assert np.array_equal(small, big[:n, :n])

    def test_ladders_match_dense(self):
        t = Transform.bravyi_kitaev(4)
        b = _basis_matrix(t)
        for mode in range(4):
            for dagger in (False, True):
                got = _sum_matrix(oracles.map_ladder(t, mode, dagger))
                want = b @ oracles.ladder_matrix(4, mode, dagger) @ b.conj().T
                assert np.allclose(got, want, atol=1e-12)


class TestDerivedSets:
    @given(beta_strategy(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_ladder_masks_are_the_sets(self, beta):
        """Both ladders of mode j: x = U(j) | j, z_parity = P(j) and
        z_remainder = R(j) | j, against the sets built from beta."""
        t = Transform(beta)
        for j, (u, p, r) in enumerate(oracles.ladder_sets(beta)):
            for dagger in (0, 1):
                (x, z_parity, _), (x_r, z_remainder, _) = t.ladder_strings[j][dagger]
                assert _bits(x) == _bits(x_r) == tuple(sorted(u | {j}))
                assert _bits(z_parity) == tuple(sorted(p))
                assert _bits(z_remainder) == tuple(sorted(r | {j}))

    @given(beta_strategy(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_set_ranges(self, beta):
        t = Transform(beta)
        n = t.n_modes
        for j in range(n):
            update, parity, remainder = _sets(t, j)
            assert all(i > j for i in update)
            assert all(k < j for k in parity)
            assert all(k < j for k in remainder)

    @given(beta_strategy(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_parity_remainder_differ_by_inverse_row(self, beta):
        t = Transform(beta)
        inv = oracles.gf2_inv(beta)
        for j in range(t.n_modes):
            _, parity, remainder = _sets(t, j)
            want = {k for k in range(j) if inv[j, k]}
            assert set(parity) ^ set(remainder) == want

    def test_update_set_is_column_support(self):
        rng = np.random.default_rng(7)
        beta = _random_beta(rng, 6)
        t = Transform(beta)
        for j in range(6):
            assert set(_sets(t, j)[0]) == {i for i in range(6) if i != j and beta[i, j]}


class TestAnticommutation:
    @given(beta_strategy(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_car_algebra_symbolic(self, beta):
        """{a_i, a_j} = 0 and {a_i, a+_j} = delta_ij, exactly in Pauli algebra."""
        t = Transform(beta)
        n = t.n_modes
        a = [oracles.map_ladder(t, j, False) for j in range(n)]
        ad = [oracles.map_ladder(t, j, True) for j in range(n)]
        for i in range(n):
            for j in range(i, n):
                anti = (a[i] * a[j] + a[j] * a[i]).simplify()
                assert len(anti.strings()) == 0
                mixed = (a[i] * ad[j] + ad[j] * a[i]).simplify()
                if i == j:
                    strings = mixed.strings()
                    assert len(strings) == 1
                    s = strings[0]
                    assert (s.xmask, s.zmask) == (0, 0) and s.coeff == 1.0
                else:
                    assert len(mixed.strings()) == 0

    def test_car_algebra_dense(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for _ in range(3):
                t = Transform(_random_beta(rng, n))
                dim = 1 << n
                for i in range(n):
                    for j in range(n):
                        ai = _sum_matrix(oracles.map_ladder(t, i, False))
                        adj = _sum_matrix(oracles.map_ladder(t, j, True))
                        anti = ai @ adj + adj @ ai
                        want = np.eye(dim) if i == j else np.zeros((dim, dim))
                        assert np.allclose(anti, want, atol=1e-12)


class TestBasisCircuit:
    def test_permutation_action(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            t = Transform(_random_beta(rng, n))
            b = _basis_matrix(t)
            for x in range(1 << n):
                col = b[:, x]
                y = t.encode_occupation(x)
                assert abs(col[y] - 1.0) < 1e-12
                assert np.sum(np.abs(col)) == pytest.approx(1.0)

    def test_cnot_count_is_free_bit_weight(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 6):
            beta = _random_beta(rng, n)
            t = Transform(beta)
            assert len(t.basis_circuit().gates) == int(np.tril(beta, -1).sum())

    def test_encode_vector_matches_gf2(self):
        rng = np.random.default_rng(9)
        t = Transform(_random_beta(rng, 5))
        for x in range(32):
            bits = np.array([(x >> k) & 1 for k in range(5)], dtype=np.uint8)
            want = oracles.gf2_mul(t.beta, bits.reshape(-1, 1)).ravel()
            got = t.encode_occupation(x)
            assert [got >> k & 1 for k in range(5)] == list(want)


class TestConjugationEquivalence:
    @given(beta_strategy(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_ladders_conjugate_from_jw(self, beta):
        t = Transform(beta)
        n = t.n_modes
        jw = Transform.jordan_wigner(n)
        b = _basis_matrix(t)
        for mode in (0, n - 1):
            for dagger in (False, True):
                lhs = b @ _sum_matrix(oracles.map_ladder(jw, mode, dagger)) @ b.conj().T
                rhs = _sum_matrix(oracles.map_ladder(t, mode, dagger))
                assert np.allclose(lhs, rhs, atol=1e-10)

    def test_operator_conjugates_from_jw(self):
        rng = np.random.default_rng(13)
        n = 4
        for _ in range(6):
            t = Transform(_random_beta(rng, n))
            jw = Transform.jordan_wigner(n)
            terms = []
            for _ in range(4):
                k = rng.integers(1, 4)
                ops = tuple(
                    (int(rng.integers(n)), bool(rng.integers(2))) for _ in range(k)
                )
                coeff = complex(rng.normal(), rng.normal())
                terms.append((coeff, ops))
            b = _basis_matrix(t)
            lhs = b @ _sum_matrix(jw.map_operator(terms)) @ b.conj().T
            rhs = _sum_matrix(t.map_operator(terms))
            assert np.allclose(lhs, rhs, atol=1e-10)


class TestLadderStrings:
    @pytest.mark.parametrize("name", ["jw", "bk", "beta0", "beta1", "beta2"])
    def test_exponents_reproduce_ladders(self, name):
        """Each stored (x, z, e) carries i^e / 2: densely the two strings
        are B a B+.  The two strings of a ladder share x and differ in z by
        the mode's row of beta^-1."""
        n = 5
        if name.startswith("beta"):
            t = Transform(_random_beta(np.random.default_rng(int(name[4:])), n))
        else:
            t = _NAMED[name](n)
        b = _basis_matrix(t)
        for mode in range(n):
            row = sum(int(bit) << k for k, bit in enumerate(t.beta_inv[mode]))
            for dagger in (0, 1):
                strings = t.ladder_strings[mode][dagger]
                dense = sum(
                    0.5 * 1j**e * oracles.string_matrix(n, PauliString(n, x, z).letters())
                    for x, z, e in strings
                )
                want = b @ oracles.ladder_matrix(n, mode, dagger) @ b.conj().T
                assert np.allclose(dense, want, atol=1e-12)
                (x0, z0, _), (x1, z1, _) = strings
                assert x0 == x1 and z0 ^ z1 == row


class TestMapOperator:
    def test_number_operator_under_jw(self):
        t = Transform.jordan_wigner(3)
        num = t.map_operator([(1.0, ((1, True), (1, False)))])
        texts = sorted(s.to_text() for s in num.strings())
        assert texts == sorted(["0.5 * I", "-0.5 * Z1"])

    def test_constant_and_linearity(self):
        t = Transform.bravyi_kitaev(3)
        op = t.map_operator([(0.25, ((0, True), (2, False)))], constant=1.5)
        dense = _sum_matrix(op)
        want = 1.5 * np.eye(8) + 0.25 * (
            oracles.ladder_matrix(3, 0, True) @ oracles.ladder_matrix(3, 2, False)
        )
        b = _basis_matrix(t)
        want = b @ want @ b.conj().T
        # constant commutes with the basis change
        assert np.allclose(dense, want, atol=1e-12)

    def test_hermitian_pair_maps_hermitian(self):
        rng = np.random.default_rng(21)
        t = Transform.bravyi_kitaev(4)
        c = complex(rng.normal(), rng.normal())
        ops = ((0, True), (3, False))
        rev = ((3, True), (0, False))
        mapped = t.map_operator([(c, ops), (c.conjugate(), rev)])
        assert all(abs(coeff.imag) <= 1e-10 for _, coeff in mapped.items())

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            Transform.jordan_wigner(2).map_operator([(1.0, ((0, True), (2, False)))])
        with pytest.raises(ValueError):
            Transform.jordan_wigner(2).map_operator([(1.0, ((-1, True),))])


_FIXTURES = Path(__file__).parent / "fixtures"


def _hamiltonian_terms(fixture):
    """(n_modes, raw terms, constant) of a fixture's Hamiltonian, as ``to_pauli`` passes them."""
    ham, _ = load_fcidump(_FIXTURES / fixture).to_spin_orbital()
    op = build_hamiltonian(ham)
    raw = [(t.coefficient, tuple((o.mode, o.dagger) for o in t.ops)) for t in op.terms]
    return op.n_modes, raw, op.constant


def _assert_matches_paulisum_route(t, terms, constant=0.0):
    got = list(t.map_operator(terms, constant).items())
    want = list(oracles.map_operator_via_paulisum(t, terms, constant).items())
    assert got == want
    # repr tells -0.0 from 0.0: the coefficients are equal bit for bit
    assert repr(got) == repr(want)
    return got


class TestMapOperatorReference:
    """The mask loop against the PauliSum-product route: the same items,
    in the same order, with the same coefficient bits."""

    @pytest.mark.parametrize("name", ["jw", "bk", "beta0", "beta1", "beta2"])
    def test_water_hamiltonian(self, name):
        n, terms, constant = _hamiltonian_terms("h2o_sto3g.fcidump")
        if name.startswith("beta"):
            t = Transform(_random_beta(np.random.default_rng(int(name[4:])), n))
        else:
            t = _NAMED[name](n)
        assert len(_assert_matches_paulisum_route(t, terms, constant)) > 100

    @pytest.mark.parametrize("name", ["jw", "bk"])
    def test_h2_hamiltonian(self, name):
        n, terms, constant = _hamiltonian_terms("h2_sto3g.fcidump")
        assert len(_assert_matches_paulisum_route(_NAMED[name](n), terms, constant)) == 15

    def test_repeated_modes_cancel_to_zero(self):
        t = Transform(_random_beta(np.random.default_rng(4), 4))
        ops = ((0, True), (2, False), (2, True), (1, False))
        terms = [
            (0.7, ((1, True), (1, True))),
            (-0.3j, ((3, False), (0, True), (3, False))),
            (1.25, ops),
            (-1.25, ops),
        ]
        assert _assert_matches_paulisum_route(t, terms) == []
        # a nonzero part survives beside the cancelling ones
        got = _assert_matches_paulisum_route(t, terms + [(0.5, ((1, True), (1, False)))], 2.0)
        assert len(got) == 2

    def test_cancelled_keys_return_at_the_end(self):
        # A's strings cancel to exactly 0 and are dropped, so when A comes
        # back its strings follow B's
        t = Transform.bravyi_kitaev(4)
        a, b = ((0, True), (1, False)), ((2, True), (3, False))
        got = _assert_matches_paulisum_route(t, [(0.5, a), (0.25, b), (-0.5, a), (0.5, a)])
        keys = [k for k, _ in got]
        assert keys[:4] == [k for k, _ in t.map_operator([(1.0, b)]).items()]

    def test_small_partial_products_drop_per_ladder(self):
        # 3e-12 * 0.5 survives the first ladder, 3e-12 * 0.25 falls under
        # COEFF_TOL at the second and is dropped there, before it could
        # reach the 0.5 term's strings
        t = Transform.jordan_wigner(3)
        ops = ((0, True), (2, False))
        got = _assert_matches_paulisum_route(t, [(0.5, ops), (3e-12, ops)])
        assert got == list(t.map_operator([(0.5, ops)]).items())


class TestLowerBits:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        beta = _random_beta(rng, 6)
        t = Transform(beta)
        again = Transform.from_lower_bits(6, oracles.lower_bits(t))
        assert np.array_equal(again.beta, beta)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Transform.from_lower_bits(4, (1, 0, 1))
