import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc.fcidump import load_fcidump
from fqcc.fermions import build_hamiltonian, uccsd_pool
from fqcc.hmp2 import ztilde_operator
from fqcc.paulis import CompiledSum, PauliString, PauliSum, word_key
from fqcc.simulate import AnsatzOp
from fqcc.transform import Transform

import oracles

WATER = "tests/fixtures/h2o_sto3g.fcidump"


def _dense(s: PauliString):
    return oracles.string_matrix(s.n_qubits, oracles.letters(s), s.coeff)


letters_st = st.dictionaries(st.integers(0, 3), st.sampled_from("XYZ"), max_size=4)
coeff_st = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False)
# sum coefficients: arbitrary complexes, plus exact values whose repeats add to exact zeros
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
        product = oracles.string_product(PauliString(s.n_qubits, 0, 0, 2.0), s)
        assert product.key == s.key
        assert product.coeff == 1.0

    def test_known_products(self):
        x = oracles.from_letters(1, {0: "X"})
        y = oracles.from_letters(1, {0: "Y"})
        z = oracles.from_letters(1, {0: "Z"})
        for a, b, want in ((x, y, "Z"), (y, z, "X"), (z, x, "Y")):
            ab, ba = oracles.string_product(a, b), oracles.string_product(b, a)
            assert oracles.letter(ab, 0) == want and ab.coeff == 1j and ba.coeff == -1j
        assert oracles.string_product(x, x).key == (0, 0)

    @given(letters_st, letters_st, coeff_st, coeff_st)
    @settings(max_examples=150, deadline=None)
    def test_product_matches_dense(self, la, lb, ca, cb):
        a = oracles.from_letters(4, la, ca)
        b = oracles.from_letters(4, lb, cb)
        assert np.allclose(_dense(oracles.string_product(a, b)), _dense(a) @ _dense(b), atol=1e-12)

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

    def test_weight_and_support(self):
        s = oracles.pauli_string("1 * X0 Z3 Y5")
        assert (s.xmask | s.zmask).bit_count() == 3
        assert sorted(oracles.letters(s)) == [0, 3, 5]
        assert oracles.letter(s, 3) == "Z" and oracles.letter(s, 1) == "I"


class TestPauliSum:
    def test_merge_and_cancel(self):
        a = oracles.pauli_string("1.0 * X0 X1", 2)
        b = oracles.pauli_string("-1.0 * X0 X1", 2)
        assert len(PauliSum.from_strings([a, b])) == 0
        c = PauliSum.from_strings([a, a])
        assert len(c) == 1 and c.strings()[0].coeff == 2.0

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
            dense = oracles.sum_matrix(oracles.sum_product(a, b))
            assert np.allclose(dense, oracles.sum_matrix(a) @ oracles.sum_matrix(b), atol=1e-10)

    def test_simplify_drops_tiny_terms(self):
        s = PauliSum.from_strings([oracles.pauli_string("1e-14 * X0", 1)], 1)
        assert len(s) == 0

    def test_canonical_order_is_stable(self):
        op = oracles.pauli_sum("1 * Z0\n1 * X0\n1 * Y0", 1)
        assert [oracles.letter(s, 0) for s in op.strings()] == ["X", "Y", "Z"]

    def test_strings_are_fresh_lists_of_one_set(self):
        """Repeated ``strings()`` calls give equal, distinct lists of the
        same string objects; mutating one leaves the next intact, and a
        change of the terms shows in the next call."""
        op = PauliSum(2, {(0, 1): 1.0, (3, 0): 2.0, (2, 2): 1e-14, (1, 1): -1.0})
        first, second = op.strings(), op.strings()
        assert len(first) == 4 and first == second and first is not second
        assert all(a is b for a, b in zip(first, second))
        want = list(first)
        first.reverse()
        first.append(PauliString(2, 0, 0, 5.0))
        assert op.strings() == want
        op.simplify()
        kept = [s for s in want if abs(s.coeff) > 1e-12]
        assert op.strings() == kept and len(kept) == 3
        op._add_term(0, 0, 0.5)
        assert op.strings() == [PauliString(2, 0, 0, 0.5)] + kept
        op._add_term(0, 0, -0.5)
        assert op.strings() == kept

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_from_strings_and_shifted_keep_their_strings(self, data):
        """``PauliSum.from_strings`` merges repeated strings, drops
        coefficients of 1e-12 or less and lists the rest in letter-word
        order; ``paulis._shifted`` is ``from_strings`` with the identity
        term appended, string for string, whether or not ``strings()`` ran
        on its input first."""
        from fqcc import paulis

        n = data.draw(st.integers(1, 12))
        mask = st.integers(0, (1 << n) - 1)
        coeff = st.sampled_from([1.0, -1.0, 0.5j, 1e-13, complex(0.3, -0.4)])
        drawn = [
            PauliString(n, data.draw(mask), data.draw(mask), data.draw(coeff))
            for _ in range(data.draw(st.integers(1, 25)))
        ]
        merged = {}
        for s in drawn:
            merged[s.key] = merged.get(s.key, 0.0) + s.coeff
        want = sorted(
            (PauliString(n, x, z, c) for (x, z), c in merged.items() if abs(c) > 1e-12),
            key=oracles.letter_word,
        )
        op = PauliSum.from_strings(drawn, n)
        if data.draw(st.booleans()):
            op.strings()
        assert op.strings() == want
        shift = data.draw(st.sampled_from([0.0, 1.5, -2.0]))
        shifted = paulis._shifted(op, shift).strings()
        assert shifted == PauliSum.from_strings(op.strings() + [PauliString(n, 0, 0, shift)], n).strings()

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
        dense = oracles.sum_matrix(op)
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
        lhs = CompiledSum(PauliSum.from_strings(strings, 3)).expectation(vec)
        assert abs(lhs - CompiledSum(a).expectation(vec) - CompiledSum(b).expectation(vec)) < 1e-12
        conj = CompiledSum(a).expectation(vec).conjugate()
        dagger = PauliSum(3, {k: c.conjugate() for k, c in a._terms.items()})
        assert abs(CompiledSum(dagger).expectation(vec) - conj) < 1e-12

    def test_expectation_bounded_by_one_norm(self):
        rng = np.random.default_rng(9)
        op = oracles.pauli_sum("0.4 * X0 X1\n-0.3 * Z0\n0.2 * Y1", 2)
        for _ in range(20):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            vec /= np.linalg.norm(vec)
            assert abs(CompiledSum(op).expectation(vec)) <= sum(abs(c) for c in op._terms.values()) + 1e-12


    def test_compiled_strings_round_trip(self):
        """The string arrays the reference loops read are the sum's terms."""
        op = oracles.pauli_sum("0.4 * X0 Y1\n(0.0-0.3j) * Y0 Z2\n(0.2+0.1j) * Y1 Y2\n-1.5 * I", 3)
        compiled = oracles.compiled_strings(op)
        # each weight is the coefficient times i^popcount(x & z)
        strings = zip(compiled.flips.tolist(), compiled.masks.tolist(), compiled.weights.tolist())
        terms = {(x, z): w * (-1j) ** (x & z).bit_count() for x, z, w in strings}
        assert terms == op._terms

    def test_layout_above_the_entry_cap_is_rejected(self, monkeypatch):
        from fqcc import paulis

        op = oracles.pauli_sum("0.4 * X0 X1\n0.4 * Y0 Y1\n-0.3 * Z0\n0.2 * Z1 Z2\n0.1 * Z0 Z1", 3)
        sector = np.array([0b001, 0b010, 0b011, 0b101, 0b110])
        for space in (None, sector):
            nonzeros = paulis._pack(*paulis._tables(op, space))[2]
            monkeypatch.setattr(paulis, "_ENTRY_LIMIT", nonzeros)
            assert CompiledSum(op, space).values.shape[1] == (8 if space is None else 5)
            monkeypatch.setattr(paulis, "_ENTRY_LIMIT", nonzeros - 1)
            with pytest.raises(ValueError, match=f"row layout of {nonzeros} nonzeros"):
                CompiledSum(op, space)


def _water_encoding(kind):
    if kind == "jw":
        return Transform.jordan_wigner(14)
    if kind == "bk":
        return Transform.bravyi_kitaev(14)
    return Transform.from_lower_bits(14, np.random.default_rng(1).integers(0, 2, 91).tolist())


def _vectors(dim, seed):
    """Six random complex vectors and one real one."""
    rng = np.random.default_rng(seed)
    for _ in range(6):
        yield rng.normal(size=dim) + 1j * rng.normal(size=dim)
    yield rng.normal(size=dim)


@st.composite
def closed_sectors(draw):
    """(n, sector, X masks): a random group of X masks and a union of its
    cosets, which every string with one of those X masks keeps."""
    n = draw(st.integers(1, 6))
    span = {0}
    for b in draw(st.lists(st.integers(1, (1 << n) - 1), max_size=3)):
        span |= {s ^ b for s in span}
    cosets = sorted({min(s ^ v for v in span) for s in range(1 << n)})
    chosen = draw(st.lists(st.sampled_from(cosets), min_size=1, unique=True))
    return n, np.array(sorted(c ^ v for c in chosen for v in span)), sorted(span)


def _random_sum(draw, n, flips):
    """A PauliSum over the given X masks; repeated strings add, and exact
    zeros stay."""
    terms = {}
    strings = st.tuples(st.sampled_from(flips), st.integers(0, (1 << n) - 1), sum_coeff_st)
    for x, z, c in draw(st.lists(strings, max_size=12)):
        terms[x, z] = terms.get((x, z), 0.0) + c
    return PauliSum(n, terms)


@pytest.fixture(scope="module")
def water():
    return load_fcidump(WATER).to_spin_orbital()


class TestRowLayout:
    """``CompiledSum.apply`` equals the X-mask group loop it replaced
    (``oracles.compiled_apply_reference``) bit for bit."""

    @pytest.mark.parametrize("kind", ["jw", "bk", "beta"])
    def test_water_hamiltonian(self, water, kind):
        tr = _water_encoding(kind)
        sector = oracles.encoded_sector(tr, 5, 5)
        h_pauli = build_hamiltonian(water[0]).to_pauli(tr)
        # and H shifted by a constant, the shape of the H - E_HF that the HMP2 loop compiles
        shifted = PauliSum.from_strings(h_pauli.strings() + [PauliString(14, 0, 0, 75.0)])
        for op in (h_pauli, shifted):
            compiled = CompiledSum(op, sector)
            strings = oracles.compiled_strings(op, sector)
            n_groups = len(set(strings.flips.tolist()))
            # only nonzeros are stored: fewer slots than one table per group
            assert compiled.values.shape[1] == len(sector)
            assert compiled.values.size < n_groups * len(sector)
            for vec in _vectors(len(sector), 3):
                assert np.array_equal(
                    compiled.apply(vec), oracles.compiled_apply_reference(strings, vec)
                )

    @pytest.mark.parametrize("kind", ["jw", "bk", "beta"])
    def test_water_ztilde(self, kind):
        tr = _water_encoding(kind)
        sector = oracles.encoded_sector(tr, 5, 5)
        pool = uccsd_pool(range(10), range(10, 14))
        rng = np.random.default_rng(7)
        terms = [pool[i] for i in rng.choice(len(pool), 39, replace=False)]
        values = rng.normal(scale=0.05, size=39)
        values[[3, 11]] = 0.0  # terms at zero are left out of Zt
        table = oracles.encoded_generators(terms, tr, sector)
        ansatz = AnsatzOp.build(14, terms, values, table=table, sector=sector)
        ztilde = ztilde_operator(ansatz)
        parts = [(v, k) for v, k in zip(ansatz.values, ansatz.generators) if v]
        assert ztilde.values.shape == (37, len(sector))
        for vec in _vectors(len(sector), 5):
            assert np.array_equal(ztilde.apply(vec), oracles.stacked_sum_reference(parts, vec))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_sums(self, data):
        n, sector, flips = data.draw(closed_sectors())
        op = _random_sum(data.draw, n, flips)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        for space in (None, sector):
            dim = 1 << n if space is None else len(space)
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            want = oracles.compiled_apply_reference(oracles.compiled_strings(op, space), vec)
            assert np.array_equal(CompiledSum(op, space).apply(vec), want)
        # a string whose X mask takes the first sector state out of the sector
        inside = set(sector.tolist())
        outside = [x for x in range(1 << n) if int(sector[0]) ^ x not in inside]
        if outside:
            leaky = PauliSum(n, {**op._terms, (data.draw(st.sampled_from(outside)), 0): 1.0})
            with pytest.raises(ValueError, match="outside"):
                CompiledSum(leaky, sector)


def _assert_tables_equal_the_group_loop(op, sector=None):
    """``CompiledSum``'s tables and row layout equal those of the group and
    member loops it replaced (``oracles.compiled_tables_loop``)."""
    from fqcc import paulis

    tables, columns = paulis._tables(op, sector)
    want_tables, want_columns = oracles.compiled_tables_loop(oracles.compiled_strings(op, sector))
    assert np.array_equal(tables, want_tables) and np.array_equal(columns, want_columns)
    values, index, _ = paulis._pack(want_tables, want_columns)
    compiled = CompiledSum(op, sector)
    assert np.array_equal(compiled.values, values) and np.array_equal(compiled.columns, index)


class TestTablesAgainstTheGroupLoop:
    """The batched table pass adds each row's terms in member order, group
    by group, exactly as the loop over groups and members did."""

    def test_water_sector(self, water):
        tr = Transform.jordan_wigner(14)
        sector = oracles.encoded_sector(tr, 5, 5)
        h_pauli = build_hamiltonian(water[0]).to_pauli(tr)
        # and the shape of H - E_HF that the HMP2 loop compiles
        shifted = PauliSum.from_strings(h_pauli.strings() + [PauliString(14, 0, 0, -75.0)])
        for op in (h_pauli, shifted):
            assert len({x for x, _ in op._terms}) == 162
            _assert_tables_equal_the_group_loop(op, sector)

    @pytest.mark.parametrize("kind", ["jw", "bk"])
    def test_full_8_mode_space(self, kind):
        ham, _ = load_fcidump("tests/fixtures/h4_sto3g.fcidump").to_spin_orbital()
        tr = Transform.jordan_wigner(8) if kind == "jw" else Transform.bravyi_kitaev(8)
        _assert_tables_equal_the_group_loop(build_hamiltonian(ham).to_pauli(tr))

    @pytest.mark.parametrize("ops", ["0.5 * X0\n(0.0-0.5j) * Y0", "0.5 * X0\n(0.0+0.5j) * Y0"])
    def test_one_way_coupling_leaks(self, ops):
        """|1><0| takes the sector {|0>} out of itself and |0><1| brings a
        state outside it in: each leaks in one direction only, and the
        loop's error is raised for both."""
        op = oracles.pauli_sum(ops, 1)
        sector = np.array([0])
        with pytest.raises(ValueError, match="outside") as want:
            oracles.compiled_tables_loop(oracles.compiled_strings(op, sector))
        with pytest.raises(ValueError, match="outside") as got:
            CompiledSum(op, sector)
        assert str(got.value) == str(want.value)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_sums(self, data):
        """Sums over a few X masks (so groups repeat them), exact zeros and
        repeated strings included, on the full space and on a sector they
        keep; a string that leaves the sector raises the loop's error."""
        n, sector, flips = data.draw(closed_sectors())
        op = _random_sum(data.draw, n, flips)
        for space in (None, sector):
            _assert_tables_equal_the_group_loop(op, space)
        inside = set(sector.tolist())
        outside = [x for x in range(1 << n) if int(sector[0]) ^ x not in inside]
        if outside:
            leaky = PauliSum(n, {**op._terms, (data.draw(st.sampled_from(outside)), 0): 1.0})
            with pytest.raises(ValueError, match="outside") as want:
                oracles.compiled_tables_loop(oracles.compiled_strings(leaky, sector))
            with pytest.raises(ValueError, match="outside") as got:
                CompiledSum(leaky, sector)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_apply_sum_identity(n):
    op = PauliSum(n, {(0, 0): 1.0})
    vec = np.linspace(0.0, 1.0, 1 << n).astype(complex)
    assert np.allclose(CompiledSum(op).apply(vec), vec)


def test_parity_table_is_the_popcount_parity():
    from fqcc import paulis

    table = paulis._parity_lut()
    assert table.dtype == np.uint8
    assert table.tolist() == [bin(i).count("1") & 1 for i in range(1 << 16)]
