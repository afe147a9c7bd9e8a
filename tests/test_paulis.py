import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc.paulis import CompiledSum, PauliString, PauliSum, word_key

import oracles


def _dense(s: PauliString):
    return oracles.string_matrix(s.n_qubits, s.letters(), s.coeff)


def _dense_sum(op: PauliSum):
    return oracles.paulisum_matrix(op.n_qubits, [(s.coeff, s.letters()) for s in op])


letters_st = st.dictionaries(st.integers(0, 3), st.sampled_from("XYZ"), max_size=4)
coeff_st = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False)
# sum coefficients: arbitrary complexes, plus values whose products cancel exactly
sum_coeff_st = st.one_of(
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, -1.0, 0.5, -0.5j, 1j, complex(-0.0, 1.0)]),
)


class TestPauliString:
    def test_single_letter_matrices(self):
        for letter, mat in oracles.PAULI_1Q.items():
            if letter == "I":
                continue
            s = oracles.from_letters(1, {0: letter})
            assert np.allclose(_dense(s), mat)

    def test_identity_times_anything(self):
        s = oracles.pauli_string("0.5 * X0 Y2")
        ident = PauliString(s.n_qubits, 0, 0, 2.0)
        assert (ident * s).key == s.key
        assert (ident * s).coeff == 1.0

    def test_known_products(self):
        x = oracles.from_letters(1, {0: "X"})
        y = oracles.from_letters(1, {0: "Y"})
        z = oracles.from_letters(1, {0: "Z"})
        assert (x * y).letter(0) == "Z" and (x * y).coeff == 1j
        assert (y * x).coeff == -1j
        assert (y * z).letter(0) == "X" and (y * z).coeff == 1j
        assert (z * x).letter(0) == "Y" and (z * x).coeff == 1j
        assert (x * x).key == (0, 0)

    @given(letters_st, letters_st, coeff_st, coeff_st)
    @settings(max_examples=150, deadline=None)
    def test_product_matches_dense(self, la, lb, ca, cb):
        a = oracles.from_letters(4, la, ca)
        b = oracles.from_letters(4, lb, cb)
        assert np.allclose(_dense(a * b), _dense(a) @ _dense(b), atol=1e-12)

    @given(letters_st, letters_st)
    @settings(max_examples=150, deadline=None)
    def test_commutes_general_matches_commutator(self, la, lb):
        a = oracles.from_letters(4, la)
        b = oracles.from_letters(4, lb)
        comm = _dense(a) @ _dense(b) - _dense(b) @ _dense(a)
        assert a.commutes_general(b) == np.allclose(comm, 0.0, atol=1e-12)

    @given(letters_st, letters_st)
    @settings(max_examples=150, deadline=None)
    def test_qubitwise_implies_general(self, la, lb):
        a = oracles.from_letters(4, la)
        b = oracles.from_letters(4, lb)
        if a.commutes_qubitwise(b):
            assert a.commutes_general(b)

    def test_qubitwise_counterexample(self):
        # XX and YY commute as operators but not qubit-wise
        a = oracles.pauli_string("1 * X0 X1")
        b = oracles.pauli_string("1 * Y0 Y1")
        assert a.commutes_general(b)
        assert not a.commutes_qubitwise(b)

    def test_text_round_trip(self):
        for text in ["1.0 * X0 Z3 Y5", "(-0.5+0.125j) * Y1", "2.0 * I"]:
            s = oracles.pauli_string(text)
            again = oracles.pauli_string(s.to_text(), s.n_qubits)
            assert again.key == s.key and again.coeff == s.coeff

    def test_weight_and_support(self):
        s = oracles.pauli_string("1 * X0 Z3 Y5")
        assert s.weight == 3
        assert sorted(s.letters()) == [0, 3, 5]
        assert s.letter(3) == "Z" and s.letter(1) == "I"


class TestPauliSum:
    def test_merge_and_cancel(self):
        a = oracles.pauli_string("1.0 * X0 X1", 2)
        b = oracles.pauli_string("-1.0 * X0 X1", 2)
        assert PauliSum.from_strings([a, b]).n_terms == 0
        c = PauliSum.from_strings([a, a])
        assert c.n_terms == 1 and c.strings()[0].coeff == 2.0

    def test_sum_product_matches_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ops = []
            for _ in range(2):
                strings = []
                for _ in range(rng.integers(1, 4)):
                    letters = {int(q): "XYZ"[rng.integers(3)] for q in rng.choice(3, size=rng.integers(1, 3), replace=False)}
                    strings.append(oracles.from_letters(3, letters, complex(rng.normal(), rng.normal())))
                ops.append(PauliSum.from_strings(strings, 3))
            a, b = ops
            assert np.allclose(_dense_sum(a * b), _dense_sum(a) @ _dense_sum(b), atol=1e-10)
            assert np.allclose(_dense_sum(a + b), _dense_sum(a) + _dense_sum(b), atol=1e-10)
            assert np.allclose(_dense_sum(a.dagger()), _dense_sum(a).conj().T, atol=1e-10)

    @given(
        st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), sum_coeff_st), max_size=6),
        st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), sum_coeff_st), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_product_matches_string_products(self, left, right):
        """The mask-level product equals the sum of ``PauliString`` products
        accumulated in the same order: the same keys in the same order, with
        bit-identical coefficients."""
        a = PauliSum(4, {(x, z): c for x, z, c in left})
        b = PauliSum(4, {(x, z): c for x, z, c in right})
        want = PauliSum(4)
        for (x1, z1), c1 in a._terms.items():
            for (x2, z2), c2 in b._terms.items():
                p = PauliString(4, x1, z1, c1) * PauliString(4, x2, z2, c2)
                want._add_term(p.xmask, p.zmask, p.coeff)
        want.simplify()
        # repr tells signed zeros apart
        assert [(k, repr(c)) for k, c in (a * b)._terms.items()] == [
            (k, repr(c)) for k, c in want._terms.items()
        ]
        for x, z, c in right[:1]:
            one = a * PauliString(4, x, z, c)
            assert one._terms == (a * PauliSum.from_strings([PauliString(4, x, z, c)]))._terms

    def test_simplify_drops_tiny_terms(self):
        s = PauliSum.from_strings([oracles.pauli_string("1e-14 * X0", 1)], 1)
        assert s.n_terms == 0

    def test_text_round_trip(self):
        op = oracles.pauli_sum("0.5 * X0 Z2\n-0.25 * Y1\n1.0 * I", n_qubits=3)
        again = oracles.pauli_sum(op.to_text(), 3)
        assert again._terms == op._terms

    def test_canonical_order_is_stable(self):
        op = oracles.pauli_sum("1 * Z0\n1 * X0\n1 * Y0", 1)
        assert [s.letter(0) for s in op] == ["X", "Y", "Z"]

    @pytest.mark.parametrize("n", (1, 8, 9, 14))
    def test_word_key_orders_as_letter_words(self, n):
        """Sorting by the mask key equals sorting by the letter word, qubit 0
        first, on random strings and on strings differing on one qubit."""
        rng = np.random.default_rng(n)
        masks = {(int(x), int(z)) for x, z in rng.integers(0, 1 << n, size=(300, 2))}
        base = int(rng.integers(0, 1 << n))
        masks |= {(base ^ (x << q), base ^ (z << q)) for q in range(n) for x in (0, 1) for z in (0, 1)}
        strings = [PauliString(n, x, z) for x, z in masks]
        by_key = sorted(strings, key=lambda s: word_key(n, s.xmask, s.zmask))
        assert by_key == sorted(strings, key=oracles.letter_word)
        op = PauliSum(n, {s.key: 1.0 for s in strings})
        assert op.strings() == by_key


class TestKernels:
    @given(letters_st, coeff_st)
    @settings(max_examples=60, deadline=None)
    def test_apply_string_matches_dense(self, la, ca):
        s = oracles.from_letters(4, la, ca)
        rng = np.random.default_rng(3)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.allclose(oracles.apply_string(s, vec), _dense(s) @ vec, atol=1e-12)

    def test_compiled_sum_apply_and_expectation(self):
        rng = np.random.default_rng(11)
        strings = []
        for _ in range(6):
            letters = {int(q): "XYZ"[rng.integers(3)] for q in rng.choice(5, size=3, replace=False)}
            strings.append(oracles.from_letters(5, letters, complex(rng.normal(), rng.normal())))
        op = PauliSum.from_strings(strings, 5)
        vec = rng.normal(size=32) + 1j * rng.normal(size=32)
        vec /= np.linalg.norm(vec)
        dense = _dense_sum(op)
        assert np.allclose(CompiledSum(op).apply(vec), dense @ vec, atol=1e-10)
        assert abs(CompiledSum(op).expectation(vec) - np.vdot(vec, dense @ vec)) < 1e-10

    def test_expectation_linearity_and_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        strings = [
            oracles.pauli_string("0.3 * X0 Y1", 3),
            oracles.pauli_string("(0.0+0.7j) * Z2", 3),
        ]
        a = PauliSum.from_strings([strings[0]], 3)
        b = PauliSum.from_strings([strings[1]], 3)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        lhs = CompiledSum(a + b).expectation(vec)
        assert abs(lhs - CompiledSum(a).expectation(vec) - CompiledSum(b).expectation(vec)) < 1e-12
        conj = CompiledSum(a).expectation(vec).conjugate()
        assert abs(CompiledSum(a.dagger()).expectation(vec) - conj) < 1e-12

    def test_expectation_bounded_by_one_norm(self):
        rng = np.random.default_rng(9)
        op = oracles.pauli_sum("0.4 * X0 X1\n-0.3 * Z0\n0.2 * Y1", 2)
        for _ in range(20):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            vec /= np.linalg.norm(vec)
            assert abs(CompiledSum(op).expectation(vec)) <= sum(abs(c) for _, c in op.items()) + 1e-12


    def test_compiled_strings_round_trip(self):
        op = oracles.pauli_sum("0.4 * X0 Y1\n(0.0-0.3j) * Y0 Z2\n(0.2+0.1j) * Y1 Y2\n-1.5 * I", 3)
        compiled = CompiledSum(op)
        assert len(compiled) == 4
        assert PauliSum.from_strings(list(compiled), 3)._terms == op._terms

    def test_combination_sums_the_compiled_parts(self):
        rng = np.random.default_rng(17)

        def random_sum():
            strings = []
            for _ in range(5):
                letters = {int(q): "XYZ"[rng.integers(3)] for q in rng.choice(4, size=2, replace=False)}
                strings.append(oracles.from_letters(4, letters, complex(rng.normal(), rng.normal())))
            return PauliSum.from_strings(strings, 4)

        a, b = random_sum(), random_sum()
        combo = CompiledSum.combination([(0.7, CompiledSum(a)), (-1.3, CompiledSum(b))], 4)
        direct = a * 0.7 + b * -1.3
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.allclose(combo.apply(vec), _dense_sum(direct) @ vec, atol=1e-12)
        assert np.allclose(_dense_sum(PauliSum.from_strings(list(combo), 4)), _dense_sum(direct))
        assert len(CompiledSum.combination([], 4)) == 0
        with pytest.raises(ValueError, match="different spaces"):
            CompiledSum.combination([(1.0, CompiledSum(a))], 4, sector=np.arange(4))


    def test_tables_rebuilt_per_apply_above_the_entry_cap(self, monkeypatch):
        from fqcc import paulis

        op = oracles.pauli_sum("0.4 * X0 X1\n0.4 * Y0 Y1\n-0.3 * Z0\n0.2 * Z1 Z2\n0.1 * Z0 Z1", 3)
        leaky = oracles.pauli_sum("0.5 * X0", 3)
        sector = np.array([0b001, 0b010, 0b011, 0b101, 0b110])
        vec = np.random.default_rng(8).normal(size=8) + 0j
        kept = [CompiledSum(op).apply(vec), CompiledSum(op, sector[:2]).apply(vec[:2])]
        monkeypatch.setattr(paulis, "_GROUP_ENTRY_LIMIT", 0)
        full, small = CompiledSum(op), CompiledSum(op, sector[:2])
        assert full._groups is None and small._groups is None
        assert np.allclose(full.apply(vec), kept[0], atol=1e-14)
        assert np.allclose(small.apply(vec[:2]), kept[1], atol=1e-14)
        with pytest.raises(ValueError, match="outside"):
            CompiledSum(leaky, sector)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_apply_sum_identity(n):
    op = PauliSum(n, {(0, 0): 1.0})
    vec = np.linspace(0.0, 1.0, 1 << n).astype(complex)
    assert np.allclose(CompiledSum(op).apply(vec), vec)
