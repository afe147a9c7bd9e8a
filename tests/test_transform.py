import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc.fcidump import load_fcidump
from fqcc.fermions import OrbitalSequence, build_hamiltonian, uccsd_pool
from fqcc.paulis import COEFF_TOL, PauliString, PauliSum
from fqcc.transform import EncodingStack, Transform, frame_stack
from fqcc.trotter import expand_term

import oracles


def _random_beta(rng, n):
    beta = np.eye(n, dtype=np.uint8)
    for i in range(n):
        for j in range(i):
            beta[i, j] = rng.integers(2)
    return beta


_NAMED = {"jw": Transform.jordan_wigner, "bk": Transform.bravyi_kitaev}


def _row_masks(matrix):
    """Bit mask of the nonzero entries of each row of a 0/1 matrix."""
    return [sum(int(bit) << k for k, bit in enumerate(row)) for row in matrix]


def _bits(mask):
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def _sets(t, j):
    """U(j), P(j), R(j) read off mode j's ladder strings under ``t``: its
    Jordan-Wigner strings X_j Z_{<j} and Y_j Z_{<j} passed through
    ``t.frame`` give the x mask, string 0's z and string 1's z."""
    x, z, _ = t.frame(np.int64(1 << j), np.array([(1 << j) - 1, (2 << j) - 1], dtype=np.int64))
    x, z_parity, z_remainder = int(x), int(z[0]), int(z[1])
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
        want = oracles.pauli_sum("0.5 * Z0 Z1 X2\n-0.5j * Z0 Z1 Y2", 4)
        assert oracles.map_ladder(t, 2, True)._terms == want._terms
        want = oracles.pauli_sum("0.5 * X0\n0.5j * Y0", 4)
        assert oracles.map_ladder(t, 0, False)._terms == want._terms

    def test_matches_dense_ladder(self):
        t = Transform.jordan_wigner(4)
        for mode in range(4):
            for dagger in (False, True):
                got = oracles.sum_matrix(oracles.map_ladder(t, mode, dagger))
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
                got = oracles.sum_matrix(oracles.map_ladder(t, mode, dagger))
                want = b @ oracles.ladder_matrix(4, mode, dagger) @ b.conj().T
                assert np.allclose(got, want, atol=1e-12)


class TestDerivedSets:
    @given(beta_strategy(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_ladder_masks_are_the_sets(self, beta):
        """Both ladders of mode j: x = U(j) | j, z_parity = P(j) and
        z_remainder = R(j) | j, against the sets built from beta."""
        t = Transform(beta)
        strings = oracles.ladder_strings(t)
        for j, (u, p, r) in enumerate(oracles.ladder_sets(beta)):
            assert _sets(t, j) == (tuple(sorted(u)), tuple(sorted(p)), tuple(sorted(r)))
            for dagger in (0, 1):
                (x, z_parity, _), (x_r, z_remainder, _) = strings[j][dagger]
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

    @pytest.mark.parametrize("name", sorted(_NAMED))
    def test_inverse_matches_gauss_jordan_named(self, name):
        for n in range(1, 21):
            t = _NAMED[name](n)
            inverse = t.stack.inverse
            assert inverse.dtype == np.int64 and inverse.shape == (1, n)
            assert inverse[0].tolist() == _row_masks(oracles.gf2_inv(t.beta))

    def test_inverse_matches_gauss_jordan_random(self):
        """The stack's forward substitution, over ten encodings at once,
        against Gauss-Jordan on each."""
        rng = np.random.default_rng(17)
        for n in range(1, 21):
            betas = [_random_beta(rng, n) for _ in range(10)]
            inverse = EncodingStack.of([Transform(beta) for beta in betas]).inverse
            assert inverse.tolist() == [_row_masks(oracles.gf2_inv(beta)) for beta in betas]

    def test_update_set_is_column_support(self):
        rng = np.random.default_rng(7)
        beta = _random_beta(rng, 6)
        t = Transform(beta)
        for j in range(6):
            assert set(_sets(t, j)[0]) == {i for i in range(6) if i != j and beta[i, j]}


def _anticommutator(x, y):
    """xy + yx of two PauliSums, merged by key."""
    out = PauliSum(x.n_qubits)
    for product in (oracles.sum_product(x, y), oracles.sum_product(y, x)):
        for (px, pz), c in product._terms.items():
            out._add_term(px, pz, c)
    return out.simplify()


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
                assert len(_anticommutator(a[i], a[j])) == 0
                mixed = _anticommutator(a[i], ad[j])
                if i == j:
                    strings = mixed.strings()
                    assert len(strings) == 1
                    s = strings[0]
                    assert (s.xmask, s.zmask) == (0, 0) and s.coeff == 1.0
                else:
                    assert len(mixed) == 0

    def test_car_algebra_dense(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for _ in range(3):
                t = Transform(_random_beta(rng, n))
                dim = 1 << n
                for i in range(n):
                    for j in range(n):
                        ai = oracles.sum_matrix(oracles.map_ladder(t, i, False))
                        adj = oracles.sum_matrix(oracles.map_ladder(t, j, True))
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
                y = oracles.encode_occupation(t, x)
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
            got = oracles.encode_occupation(t, x)
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
                lhs = b @ oracles.sum_matrix(oracles.map_ladder(jw, mode, dagger)) @ b.conj().T
                rhs = oracles.sum_matrix(oracles.map_ladder(t, mode, dagger))
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
            lhs = b @ oracles.sum_matrix(jw.map_operator(terms)) @ b.conj().T
            rhs = oracles.sum_matrix(t.map_operator(terms))
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
        ladders = oracles.ladder_strings(t)
        for mode in range(n):
            row = int(t.stack.inverse[0, mode])
            for dagger in (0, 1):
                strings = ladders[mode][dagger]
                dense = sum(
                    0.5 * 1j**e * oracles.string_matrix(n, oracles.letters(PauliString(n, x, z)))
                    for x, z, e in strings
                )
                want = b @ oracles.ladder_matrix(n, mode, dagger) @ b.conj().T
                assert np.allclose(dense, want, atol=1e-12)
                (x0, z0, _), (x1, z1, _) = strings
                assert x0 == x1 and z0 ^ z1 == row


def test_popcount_is_int_bit_count():
    """The arithmetic popcount counts bits exactly, on random masks of 0 to
    63 bits, bits 0 to 62, the non-negative int64 range (each width's
    all-ones mask included)."""
    from fqcc.transform import _popcount

    rng = np.random.default_rng(11)
    widths = rng.integers(0, 64, size=4000)
    masks = rng.integers(0, 2**63 - 1, size=4000, dtype=np.int64, endpoint=True) >> (63 - widths)
    masks = np.concatenate([masks, np.array([(1 << w) - 1 for w in range(64)], dtype=np.int64)])
    assert int(masks.max()).bit_length() == 63 and masks.min() == 0
    want = np.array([int(m).bit_count() for m in masks.tolist()], dtype=np.int64)
    before = masks.copy()
    count = _popcount(masks)
    assert count.dtype == np.int64 and np.array_equal(count, want)
    assert np.array_equal(masks, before)  # the input is left as it was


class TestFrameRule:
    """A linear encoding is Jordan-Wigner followed by the basis permutation
    P: x -> beta x, so every mapped operator is P (JW image) P^T, and
    ``Transform.frame``, which maps and expands through that rule, is the
    dense conjugation by ``basis_circuit``."""

    @given(
        beta_strategy(1, 6),
        st.integers(0, (1 << 6) - 1),
        st.integers(0, (1 << 6) - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_frame_is_dense_conjugation(self, beta, x, z):
        """i^q P(x', z') equals B P(x, z) B+, B built from ``basis_circuit``."""
        t = Transform(beta)
        n = t.n_modes
        x &= (1 << n) - 1
        z &= (1 << n) - 1
        xs, zs, qs = t.frame(np.array([x], dtype=np.int64), np.array([z], dtype=np.int64))
        b = _basis_matrix(t)
        want = b @ oracles.string_matrix(n, oracles.letters(PauliString(n, x, z))) @ b.conj().T
        got = 1j ** int(qs[0]) * oracles.string_matrix(
            n, oracles.letters(PauliString(n, int(xs[0]), int(zs[0])))
        )
        assert np.allclose(got, want, atol=1e-12)

    @staticmethod
    def _permutation(t):
        dim = 1 << t.n_modes
        p = np.zeros((dim, dim))
        p[[oracles.encode_occupation(t, x) for x in range(dim)], range(dim)] = 1.0
        return p

    @pytest.mark.parametrize("name", ["bk", "beta1", "beta2"])
    def test_images_are_the_jw_images_permuted(self, name):
        """H2's H and every generator of the 8-mode, 4-electron UCCSD pool."""
        h2, _ = load_fcidump(_FIXTURES / "h2_sto3g.fcidump").to_spin_orbital()
        cases = [(build_hamiltonian(h2), 4)]
        pool = uccsd_pool(range(4), range(4, 8))
        cases += [(oracles.excitation_generator(seq, 8), 8) for seq in pool]
        encodings = {}
        for n in (4, 8):
            if name == "bk":
                encodings[n] = Transform.bravyi_kitaev(n)
            else:
                encodings[n] = Transform(_random_beta(np.random.default_rng(int(name[4:])), n))
            assert not np.array_equal(encodings[n].beta, np.eye(n))
        perms = {n: self._permutation(t) for n, t in encodings.items()}
        for op, n in cases:
            jw = oracles.sum_matrix(op.to_pauli(Transform.jordan_wigner(n)))
            got = oracles.sum_matrix(op.to_pauli(encodings[n]))
            assert np.allclose(got, perms[n] @ jw @ perms[n].T, atol=1e-12)


class TestMapOperator:
    def test_number_operator_under_jw(self):
        t = Transform.jordan_wigner(3)
        num = t.map_operator([(1.0, ((1, True), (1, False)))])
        assert num._terms == oracles.pauli_sum("0.5 * I\n-0.5 * Z1", 3)._terms

    def test_constant_and_linearity(self):
        t = Transform.bravyi_kitaev(3)
        op = t.map_operator([(0.25, ((0, True), (2, False)))], constant=1.5)
        dense = oracles.sum_matrix(op)
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
        assert all(abs(coeff.imag) <= 1e-10 for coeff in mapped._terms.values())

    def test_zero_modes_map_to_the_constant(self):
        # a 0-mode stack's frame tables still have a byte column for the empty string
        t = Transform.jordan_wigner(0)
        assert t.map_operator([], constant=1.5)._terms == {(0, 0): 1.5}
        assert t.map_operator([], constant=0.0)._terms == {}

    def test_more_than_63_modes_rejected(self):
        # masks live in int64 arrays; a 64th mode would wrap silently
        t = Transform.jordan_wigner(64)
        assert oracles.ladder_strings(t)[63][0][0][0] == 1 << 63
        with pytest.raises(ValueError, match="at most 63 modes"):
            t.map_operator([(1.0, ((0, True), (0, False)))])

    def test_more_than_63_modes_rejected_by_expansion(self):
        t = Transform.jordan_wigner(64)
        seq = OrbitalSequence("double", (2, 63, 0, 1))
        with pytest.raises(ValueError, match="at most 63 modes"):
            expand_term(seq, t)

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
    got = list(t.map_operator(terms, constant)._terms.items())
    want = list(oracles.map_operator_via_paulisum(t, terms, constant)._terms.items())
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
        assert keys[:4] == list(t.map_operator([(1.0, b)])._terms)

    def test_small_partial_products_drop_per_ladder(self):
        # 3e-12 * 0.5 survives the first ladder, 3e-12 * 0.25 falls under
        # COEFF_TOL at the second and is dropped there, before it could
        # reach the 0.5 term's strings
        t = Transform.jordan_wigner(3)
        ops = ((0, True), (2, False))
        got = _assert_matches_paulisum_route(t, [(0.5, ops), (3e-12, ops)])
        assert got == list(t.map_operator([(0.5, ops)])._terms.items())


@st.composite
def _operators(draw):
    """(transform, terms, constant) over a random unit-lower-triangular beta
    on 2-6 modes: terms of 0-4 ladders with repeated modes (vanishing
    products such as a+_p a+_p among them), real and complex coefficients,
    some just above or below the cut COEFF_TOL * 2^D (D distinct modes),
    exactly cancelling pairs, and a constant."""
    n = draw(st.integers(2, 6))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    t = Transform.from_lower_bits(n, bits)
    ladder = st.tuples(st.integers(0, n - 1), st.booleans())
    unit = st.sampled_from([1.0, -1.0, 1j, -1j, complex(0.6, -0.8)])
    # products scale by powers of 2, which is exact only above underflow
    finite = st.floats(-2.0, 2.0, allow_subnormal=False)
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        ops = tuple(draw(st.lists(ladder, max_size=4)))
        kind = draw(st.sampled_from(["real", "complex", "cut", "cancel"]))
        if kind == "cut":
            distinct = len({mode for mode, _ in ops})
            factor = draw(st.sampled_from([1 - 2**-40, 1.0, 1 + 2**-40]))
            coeff = COEFF_TOL * 2**distinct * factor * draw(unit)
        elif kind == "complex":
            coeff = complex(*draw(st.tuples(finite, finite)))
        else:
            coeff = draw(finite)
        terms.append((coeff, ops))
        if kind == "cancel":
            terms.append((-coeff, ops))
    # a cancelled pair's strings come back at the end of the order
    terms += draw(st.lists(st.sampled_from(terms), max_size=3))
    constant = draw(st.sampled_from([0.0, 0.75, -3e-13, complex(0.5, 0.25)]))
    return t, draw(st.permutations(terms)), constant


class TestFrameSum:
    """``frame_sum``: the basis change of a sum's strings, each coefficient
    times its i^q exactly, in the sum's order."""

    @pytest.mark.parametrize("name", ["jw", "bk", "beta3"])
    def test_frames_each_string_and_signs_its_coefficient(self, name):
        n = 6
        t = Transform(_random_beta(np.random.default_rng(3), n)) if name == "beta3" else _NAMED[name](n)
        rng = np.random.default_rng(11)
        x = rng.permutation(1 << n)[:40].astype(np.int64)
        z = rng.integers(0, 1 << n, 40, dtype=np.int64)
        parts = rng.choice([0.0, -0.0, 0.5, -1.25, 3e-300], size=(2, 40))
        assert np.signbit(parts[parts == 0]).any()
        coeffs = np.empty(40, complex)
        coeffs.real, coeffs.imag = parts
        got = t.frame_sum(x, z, coeffs)
        fx, fz, q = t.frame(x, z)
        # the frame keeps x . z mod 2, so each i^q is a sign
        assert (q % 2 == 0).all() and (name == "jw" or (q % 4 == 2).any())
        units = (1, 1j, -1, -1j)
        # a zero part comes out +0, as a sum started from +0 leaves it
        want = [
            ((a, b), c * units[k % 4] + 0j)
            for a, b, c, k in zip(fx.tolist(), fz.tolist(), coeffs.tolist(), q.tolist())
        ]
        assert repr(list(got._terms.items())) == repr(want)
        empty = np.zeros(0, np.int64)
        assert len(t.frame_sum(empty, empty, np.zeros(0, complex))) == 0


class TestMapOperatorProperty:
    @settings(max_examples=300, deadline=None)
    @given(_operators())
    def test_matches_paulisum_route(self, case):
        _assert_matches_paulisum_route(*case)


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

    @pytest.mark.parametrize("bits", [[2, -1, 0.5], [2, 0, 0], [0, -1, 0], [0, 0, 0.5], [1.0, 0, 0]])
    def test_entries_other_than_zero_or_one_rejected(self, bits):
        """A truthy entry is not a 1: 2, -1, 0.5 and 1.0 are refused."""
        with pytest.raises(ValueError, match="0 or 1"):
            Transform.from_lower_bits(3, bits)

    def test_bools_and_numpy_ints_accepted(self):
        want = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        assert np.array_equal(Transform.from_lower_bits(3, [True, False, True]).beta, want)
        assert np.array_equal(Transform.from_lower_bits(3, np.array([1, 0, 1])).beta, want)


def _lower_bits(mask, d):
    return [mask >> k & 1 for k in range(d)]


def _masks(n, count, seed):
    """``count`` random lower-bit masks of n modes, with the all-ones mask
    and the top bit alone among them: from 12 modes on, d = n(n-1)/2 > 63
    bits, so some masks lie above 2^63."""
    d = n * (n - 1) // 2
    rng = random.Random(seed)
    return [rng.getrandbits(d) for _ in range(count)] + [(1 << d) - 1, 1 << d - 1]


class TestEncodingStack:
    """Encodings built as one stack from bit masks against one
    ``Transform.from_lower_bits`` each."""

    @pytest.mark.parametrize("n", range(2, 15))
    def test_frame_matches_each_transform(self, n):
        d = n * (n - 1) // 2
        masks = _masks(n, 6, n)
        stack = EncodingStack.from_lower_bits(n, masks)
        rng = np.random.default_rng(n)
        x = rng.integers(0, 1 << n, size=(40, 1), dtype=np.int64)
        z = rng.integers(0, 1 << n, size=(1, 3), dtype=np.int64)
        x_out, z_out, q = frame_stack(stack, x, z)
        assert (x_out.shape, z_out.shape, q.shape) == ((8, 40, 1), (8, 1, 3), (8, 40, 3))
        for i, mask in enumerate(masks):
            t = Transform.from_lower_bits(n, _lower_bits(mask, d))
            want = t.frame(x, z)
            assert np.array_equal(x_out[i], want[0])
            assert np.array_equal(z_out[i], want[1])
            assert np.array_equal(q[i], want[2]) and q.dtype == want[2].dtype == np.int8
            assert np.array_equal(stack[i].beta, t.beta)
            assert np.array_equal(stack.rows[i], t.stack.rows[0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 14).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n * (n - 1) // 2) - 1), min_size=1)
        )
    ))
    def test_rows_and_inverse_match_each_transform(self, case):
        n, masks = case
        d = n * (n - 1) // 2
        stack = EncodingStack.from_lower_bits(n, masks)
        assert len(stack) == len(masks) and stack.rows.dtype == np.int64
        for mask, rows, inverse in zip(masks, stack.rows.tolist(), stack.inverse.tolist()):
            beta = Transform.from_lower_bits(n, _lower_bits(mask, d)).beta
            assert rows == _row_masks(beta)
            assert inverse == _row_masks(oracles.gf2_inv(beta))

    def test_of_reads_transforms_and_slices_are_stacks(self):
        n = 6
        transforms = [Transform.jordan_wigner(n), Transform.bravyi_kitaev(n)]
        transforms += [Transform(_random_beta(np.random.default_rng(s), n)) for s in range(4)]
        stack = EncodingStack.of(transforms)
        assert EncodingStack.of(stack) is stack
        masks = [sum(b << k for k, b in enumerate(oracles.lower_bits(t))) for t in transforms]
        assert stack.rows.tolist() == EncodingStack.from_lower_bits(n, masks).rows.tolist()
        part = stack[2:5]
        assert isinstance(part, EncodingStack) and part.n_modes == n and len(part) == 3
        assert [t.beta.tolist() for t in part] == [t.beta.tolist() for t in transforms[2:5]]
        for c in range(2):
            assert np.array_equal(part.tables[c], stack.tables[c][2:5])
        empty = EncodingStack.of([])
        assert len(empty) == 0 and empty.rows.shape == (0, 0)

    def test_bad_stacks_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            EncodingStack.from_lower_bits(4, [0, -1])
        with pytest.raises(ValueError, match="lie in"):
            EncodingStack.from_lower_bits(4, [1 << 6])
        with pytest.raises(ValueError, match="lie in"):
            EncodingStack.from_lower_bits(13, [1 << 78])
        EncodingStack.from_lower_bits(13, [(1 << 78) - 1])
        with pytest.raises(TypeError):
            EncodingStack.from_lower_bits(4, [1.0])
        with pytest.raises(ValueError, match="share their number of modes"):
            EncodingStack.of([Transform.jordan_wigner(4), Transform.jordan_wigner(5)])
        with pytest.raises(ValueError, match="at most 63 modes"):
            EncodingStack.from_lower_bits(64, [0])
        with pytest.raises(ValueError, match="at most 63 modes"):
            EncodingStack.of([Transform.jordan_wigner(64)])
