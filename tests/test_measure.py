import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc import measure
from fqcc.circuits import metrics
from fqcc.fcidump import load_fcidump
from fqcc.fermions import OrbitalSequence, build_hamiltonian
from fqcc.measure import (
    MeasurementPlan,
    QSRContext,
    partition_gc,
    partition_qwc,
    qsr_compress,
    qsr_compress_sum,
    qsr_context_from_terms,
)
from fqcc.paulis import PauliString, PauliSum
from fqcc.transform import Transform

import oracles
from oracles import conjugate_string

H2_PATH = "tests/fixtures/h2_sto3g.fcidump"
H2O_PATH = "tests/fixtures/h2o_sto3g.fcidump"


def _string(n, text, coeff=1.0):
    return oracles.pauli_string(f"{coeff} * {text}", n_qubits=n) if text else PauliString(n, 0, 0, complex(coeff))


def _dense(s: PauliString):
    return oracles.paulisum_matrix(s.n_qubits, [(s.coeff, oracles.letters(s))])


@pytest.fixture(scope="module")
def h2_pauli():
    ham, _ = load_fcidump(H2_PATH).to_spin_orbital()
    return build_hamiltonian(ham).to_pauli(Transform.jordan_wigner(4)).simplify()


class TestQSRContext:
    def test_partition_enforced(self):
        with pytest.raises(ValueError, match="partition"):
            QSRContext(4, (0,), {1: 0}, ())  # 2, 3 missing
        with pytest.raises(ValueError, match="partition"):
            QSRContext(4, (0, 1), {1: 0}, ((2, 3),))  # 1 duplicated

    def test_slot_order_follows_smallest_physical_index(self):
        ctx = QSRContext(6, (4, 1), {5: 0, 0: 1}, ((2, 3),))
        assert ctx.slots == (("qubit", 1), ("pair", (2, 3)), ("qubit", 4))
        assert ctx.reduced_n == 3

    def test_from_terms_empty_ansatz_is_fully_classical(self):
        ctx = qsr_context_from_terms([], 6, 4)
        assert ctx.entangled == ()
        assert ctx.pairs == ()
        assert ctx.classical == {0: 1, 1: 1, 2: 1, 3: 1, 4: 0, 5: 0}

    def test_from_terms_pair_double_confines_both_pairs(self):
        d = OrbitalSequence("double", (2, 3, 0, 1))
        ctx = qsr_context_from_terms([d], 4, 2)
        assert ctx.pairs == ((0, 1), (2, 3))
        assert ctx.entangled == ()

    def test_from_terms_single_entangles_only_touched_qubits(self):
        s = OrbitalSequence("single", (2, 0))
        ctx = qsr_context_from_terms([s], 4, 2)
        assert set(ctx.entangled) == {0, 2}
        assert ctx.classical == {1: 1, 3: 0}
        assert ctx.pairs == ()

    def test_from_terms_mixed_touch_breaks_pair(self):
        # the double uses pair (0,1) as a unit but the single breaks pair (2,3)
        d = OrbitalSequence("double", (2, 3, 0, 1))
        s = OrbitalSequence("single", (2, 0))
        ctx = qsr_context_from_terms([d, s], 4, 2)
        assert ctx.pairs == ()
        assert set(ctx.entangled) == {0, 1, 2, 3}

    def test_odd_register_rejected(self):
        with pytest.raises(ValueError, match="even"):
            qsr_context_from_terms([], 5, 2)


class TestQsrCompress:
    PAIR_CTX = QSRContext(2, (), {}, ((0, 1),))

    @pytest.mark.parametrize(
        "letters, expected_letter, expected_factor",
        [
            ({}, "I", 1.0),
            ({0: "Z", 1: "Z"}, "I", 1.0),
            ({0: "Z"}, "Z", 1.0),
            ({1: "Z"}, "Z", 1.0),
            ({0: "X", 1: "X"}, "X", 1.0),
            ({0: "X", 1: "Y"}, "Y", 1.0),
            ({0: "Y", 1: "X"}, "Y", 1.0),
            ({0: "Y", 1: "Y"}, "X", -1.0),
        ],
    )
    def test_pair_conversion_rows(self, letters, expected_letter, expected_factor):
        s = oracles.from_letters(2, letters, 1.0)
        reduced, factor = qsr_compress(s, self.PAIR_CTX)
        assert factor == expected_factor
        assert oracles.letter(reduced, 0) == expected_letter

    def test_pair_projection_table(self):
        """The pair rule on masks against all 16 letter pairs: (compressed
        letter, factor), or None where the pair drops the string."""
        table = {
            ("I", "I"): ("I", 1.0), ("I", "X"): None, ("I", "Y"): None, ("I", "Z"): ("Z", 1.0),
            ("X", "I"): None, ("X", "X"): ("X", 1.0), ("X", "Y"): ("Y", 1.0), ("X", "Z"): None,
            ("Y", "I"): None, ("Y", "X"): ("Y", 1.0), ("Y", "Y"): ("X", -1.0), ("Y", "Z"): None,
            ("Z", "I"): ("Z", 1.0), ("Z", "X"): None, ("Z", "Y"): None, ("Z", "Z"): ("I", 1.0),
        }
        assert len(table) == 16
        for (a, b), row in table.items():
            letters = {q: l for q, l in ((0, a), (1, b)) if l != "I"}
            reduced, factor = qsr_compress(oracles.from_letters(2, letters), self.PAIR_CTX)
            assert (None if reduced is None else (oracles.letter(reduced, 0), factor)) == row, (a, b)
            assert reduced is not None or factor == 0.0

    @pytest.mark.parametrize(
        "letters",
        [
            {1: "X"}, {0: "X"}, {0: "Y"}, {1: "Y"},
            {0: "X", 1: "Z"}, {0: "Z", 1: "Y"},
        ],
    )
    def test_mixed_pair_rows_are_null(self, letters):
        s = oracles.from_letters(2, letters, 1.0)
        reduced, factor = qsr_compress(s, self.PAIR_CTX)
        assert reduced is None
        assert factor == 0.0

    def test_classical_z_reads_stored_bit(self):
        ctx = QSRContext(2, (1,), {0: 1}, ())
        occupied, factor = qsr_compress(_string(2, "Z0"), ctx)
        assert factor == -1.0
        assert oracles.letter(occupied, 0) == "I"
        ctx_empty = QSRContext(2, (1,), {0: 0}, ())
        _, factor = qsr_compress(_string(2, "Z0"), ctx_empty)
        assert factor == 1.0

    def test_classical_flip_is_null(self):
        ctx = QSRContext(2, (1,), {0: 1}, ())
        for text in ("X0", "Y0"):
            reduced, factor = qsr_compress(_string(2, text), ctx)
            assert reduced is None and factor == 0.0

    def test_entangled_letters_land_on_ordered_slots(self):
        ctx = QSRContext(6, (4, 1), {5: 0, 0: 1}, ((2, 3),))
        s = _string(6, "Y1 X2 X3 Z4")
        reduced, factor = qsr_compress(s, ctx)
        assert factor == 1.0
        assert reduced.n_qubits == 3
        assert oracles.letter_word(reduced) == "YXZ"

    def test_expectation_preserved_on_product_states(self):
        # register: classical 0,1 (set, set), entangled 2,3, confined pair (4,5)
        ctx = QSRContext(6, (2, 3), {0: 1, 1: 1}, ((4, 5),))
        rng = np.random.default_rng(42)
        ent = rng.normal(size=4) + 1j * rng.normal(size=4)
        ent /= np.linalg.norm(ent)
        pair = rng.normal(size=2) + 1j * rng.normal(size=2)
        pair /= np.linalg.norm(pair)
        full = np.zeros(64, dtype=complex)
        for idx in range(64):
            bits = [(idx >> q) & 1 for q in range(6)]
            if bits[0] != 1 or bits[1] != 1 or bits[4] != bits[5]:
                continue
            full[idx] = ent[bits[2] | (bits[3] << 1)] * pair[bits[4]]
        reduced_state = np.zeros(8, dtype=complex)
        for idx in range(8):
            bits = [(idx >> q) & 1 for q in range(3)]
            reduced_state[idx] = ent[bits[0] | (bits[1] << 1)] * pair[bits[2]]
        for _ in range(250):
            letters = {
                q: l
                for q, l in enumerate(rng.choice(list("IXYZ"), size=6))
                if l != "I"
            }
            s = oracles.from_letters(6, letters, complex(rng.normal()))
            expect_full = np.vdot(full, _dense(s) @ full)
            reduced, factor = qsr_compress(s, ctx)
            if reduced is None:
                assert abs(expect_full) < 1e-12
                continue
            expect_reduced = np.vdot(reduced_state, _dense(reduced) @ reduced_state)
            assert expect_full == pytest.approx(factor * expect_reduced, abs=1e-12)

    def test_sum_compression_reproduces_reference_energy(self, h2_pauli):
        ctx = qsr_context_from_terms([], 4, 2)
        reduced = qsr_compress_sum(h2_pauli, ctx)
        assert len(reduced) == 1
        h1, g2, ecore, _, _, nelec = oracles.read_fcidump_so(H2_PATH)
        assert reduced._terms[0, 0].real == pytest.approx(
            oracles.hf_energy(h1, g2, ecore, nelec), abs=1e-10
        )

    def test_sum_compression_keeps_exact_ground_energy(self, h2_pauli):
        # the pair-double subspace contains the full ground state, so the
        # 2-wire reduced operator must have the FCI ground energy
        ctx = qsr_context_from_terms([OrbitalSequence("double", (2, 3, 0, 1))], 4, 2)
        reduced = qsr_compress_sum(h2_pauli, ctx)
        assert reduced.n_qubits == 2
        h1, g2, ecore, _, norb, nelec = oracles.read_fcidump_so(H2_PATH)
        fci = oracles.fci_ground_energy(h1, g2, ecore, norb, 1, 1)
        ground = float(np.linalg.eigvalsh(oracles.sum_matrix(reduced))[0])
        assert ground == pytest.approx(fci, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="qubit"):
            qsr_compress(_string(2, "Z0"), QSRContext(4, (0, 1, 2, 3), {}, ()))

    @pytest.mark.parametrize(
        "single, n_terms, n_qubits, digest",
        [
            (False, 52, 6, "d1c19a635cdbbb4e77be39e6520156038f183677e0f9993083c4b4d66952402e"),
            (True, 77, 8, "7f4cd937aa338e2c567dfd8b6c34e869cee672437cde7fbbbdd53725f2acb74a"),
        ],
    )
    def test_water_sum_pinned(self, single, n_terms, n_qubits, digest):
        """Water's JW Hamiltonian under four paired doubles (and a single
        that entangles pair (12, 13)): the reduced sum, pinned by sha256 of
        ``repr(items())``, so coefficients, keys and their order."""
        ham, _ = load_fcidump(H2O_PATH).to_spin_orbital()
        op = build_hamiltonian(ham).to_pauli(Transform.jordan_wigner(14)).simplify()
        terms = [
            OrbitalSequence("double", d)
            for d in ((10, 11, 0, 1), (12, 13, 2, 3), (10, 11, 4, 5), (12, 13, 8, 9))
        ]
        if single:
            terms.append(OrbitalSequence("single", (12, 6)))
        reduced = qsr_compress_sum(op, qsr_context_from_terms(terms, 14, 10))
        assert (len(reduced), reduced.n_qubits) == (n_terms, n_qubits)
        assert hashlib.sha256(repr(reduced._terms.items()).encode()).hexdigest() == digest


class TestConjugateString:
    @pytest.mark.parametrize(
        "gate, before, after, sign",
        [
            (("H", (0,)), "X0", "Z0", 1.0),
            (("H", (0,)), "Z0", "X0", 1.0),
            (("H", (0,)), "Y0", "Y0", -1.0),
            (("S", (0,)), "X0", "Y0", 1.0),
            (("S", (0,)), "Y0", "X0", -1.0),
            (("S", (0,)), "Z0", "Z0", 1.0),
            (("Sdg", (0,)), "X0", "Y0", -1.0),
            (("Sdg", (0,)), "Y0", "X0", 1.0),
            (("CNOT", (0, 1)), "X0", "X0 X1", 1.0),
            (("CNOT", (0, 1)), "Z1", "Z0 Z1", 1.0),
            (("CNOT", (0, 1)), "Z0", "Z0", 1.0),
            (("CNOT", (0, 1)), "X1", "X1", 1.0),
            (("CNOT", (0, 1)), "X0 Z1", "Y0 Y1", -1.0),
            (("CZ", (0, 1)), "X0", "X0 Z1", 1.0),
            (("CZ", (0, 1)), "Y0 X1", "X0 Y1", -1.0),
            (("CZ", (0, 1)), "Z0 Z1", "Z0 Z1", 1.0),
        ],
    )
    def test_pinned_rules(self, gate, before, after, sign):
        out = conjugate_string(_string(2, before), [gate])
        want = _string(2, after, coeff=sign)
        assert (out.xmask, out.zmask, out.coeff) == (want.xmask, want.zmask, want.coeff)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dense_conjugation(self, data):
        n = data.draw(st.integers(2, 4))
        gates = []
        for _ in range(data.draw(st.integers(1, 7))):
            kind = data.draw(st.sampled_from(["H", "S", "Sdg", "CNOT", "CZ"]))
            if kind in ("CNOT", "CZ"):
                a = data.draw(st.integers(0, n - 1))
                b = data.draw(st.integers(0, n - 2))
                if b >= a:
                    b += 1
                gates.append((kind, (a, b)))
            else:
                gates.append((kind, (data.draw(st.integers(0, n - 1)),)))
        x = data.draw(st.integers(1, (1 << n) - 1))
        z = data.draw(st.integers(0, (1 << n) - 1))
        s = PauliString(n, x, z, 1.0)
        out = conjugate_string(s, gates)
        u = oracles.circuit_matrix(n, [(k, q, None) for k, q in gates])
        lhs = u @ _dense(s) @ u.conj().T
        assert np.max(np.abs(lhs - _dense(out))) < 1e-12

    def test_rotation_gate_rejected(self):
        with pytest.raises(ValueError, match="gate kind"):
            conjugate_string(_string(1, "X0"), [("Rz", (0,))])


def _qwc_pair_ok(a, b):
    common = (a.xmask | a.zmask) & (b.xmask | b.zmask)
    return not ((a.xmask ^ b.xmask) & common or (a.zmask ^ b.zmask) & common)


def _n_strings(plan):
    return sum(len(g.strings) for g in plan.groups)


def _commute_pair(a, b):
    return not (((a.xmask & b.zmask).bit_count() ^ (a.zmask & b.xmask).bit_count()) & 1)


def _assert_reference_groups(strings):
    """Both partitions hold the groups of the first-fit loops in oracles, in order."""
    ordered = measure._ordered(strings)
    for plan, reference in (
        (partition_qwc(strings), oracles.qwc_groups_reference),
        (partition_gc(strings), oracles.gc_groups_reference),
    ):
        got = [[(s.xmask, s.zmask, s.coeff) for s in g.strings] for g in plan.groups]
        want = [[(s.xmask, s.zmask, s.coeff) for s in g] for g in reference(ordered)]
        assert got == want, plan.criterion


def _water_encoding(name):
    if name == "jw":
        return Transform.jordan_wigner(14)
    if name == "bk":
        return Transform.bravyi_kitaev(14)
    return Transform.from_lower_bits(14, np.random.default_rng(1).integers(0, 2, 91).tolist())


class TestPartitionQwc:
    def test_all_z_is_one_free_group(self):
        strings = PauliSum.from_strings(_string(3, t) for t in ("Z0", "Z1", "Z0 Z2", "Z1 Z2"))
        plan = partition_qwc(strings)
        assert plan.n_groups == 1
        assert metrics(plan.groups[0].basis_change).two_qubit == 0

    def test_xx_yy_zz_needs_three_groups(self):
        strings = PauliSum.from_strings([_string(2, "X0 X1"), _string(2, "Y0 Y1"), _string(2, "Z0 Z1")])
        assert partition_qwc(strings).n_groups == 3

    def test_groups_are_a_partition(self, h2_pauli):
        plan = partition_qwc(h2_pauli)
        seen = sorted(s.key for g in plan.groups for s in g.strings)
        assert seen == sorted(h2_pauli._terms)

    def test_within_group_letterwise_compatibility(self, h2_pauli):
        plan = partition_qwc(h2_pauli)
        for g in plan.groups:
            for a, b in itertools.combinations(g.strings, 2):
                assert _qwc_pair_ok(a, b)


class TestPartitionGc:
    def test_xx_yy_zz_is_one_group_with_extra_cost(self):
        strings = PauliSum.from_strings([_string(2, "X0 X1"), _string(2, "Y0 Y1"), _string(2, "Z0 Z1")])
        plan = partition_gc(strings)
        assert plan.n_groups == 1
        assert metrics(plan.groups[0].basis_change).two_qubit >= 1

    def test_group_clifford_diagonalizes_members(self, h2_pauli):
        plan = partition_gc(h2_pauli)
        for g in plan.groups:
            for s in g.strings:
                rotated = conjugate_string(s, g.basis_change.gates)
                assert rotated.xmask == 0

    def test_dense_simultaneous_diagonalization(self):
        strings = [_string(2, "X0 X1"), _string(2, "Y0 Y1", 0.5), _string(2, "Z0 Z1", 0.25)]
        plan = partition_gc(PauliSum.from_strings(strings))
        circ = plan.groups[0].basis_change
        u = oracles.circuit_matrix(2, [(g.kind, g.qubits, g.theta) for g in circ.gates])
        total = sum(_dense(s) for s in strings)
        rotated = u @ total @ u.conj().T
        off = rotated - np.diag(np.diag(rotated))
        assert np.max(np.abs(off)) < 1e-12

    def test_extra_cost_counts_two_qubit_gates_only(self, h2_pauli):
        """The basis change is a Clifford of CNOT, CZ, S and H, and its
        extra cost, the two-qubit count ``metrics`` reads, is its CNOTs and
        CZs."""
        plan = partition_gc(h2_pauli)
        for g in plan.groups:
            kinds = [gate.kind for gate in g.basis_change.gates]
            assert set(kinds) <= {"CNOT", "CZ", "S", "H"}
            assert metrics(g.basis_change).two_qubit == sum(k in ("CNOT", "CZ") for k in kinds)

    def test_within_group_commutation(self, h2_pauli):
        plan = partition_gc(h2_pauli)
        for g in plan.groups:
            for a, b in itertools.combinations(g.strings, 2):
                assert _commute_pair(a, b)

    def test_refinement_relation(self, h2_pauli):
        n_strings = len(h2_pauli)
        gc = partition_gc(h2_pauli)
        qwc = partition_qwc(h2_pauli)
        assert gc.n_groups <= qwc.n_groups <= n_strings
        assert _n_strings(gc) == _n_strings(qwc) == n_strings

    def test_refinement_relation_water(self):
        ham, _ = load_fcidump(H2O_PATH).to_spin_orbital()
        hp = build_hamiltonian(ham).to_pauli(Transform.jordan_wigner(14)).simplify()
        gc = partition_gc(hp)
        qwc = partition_qwc(hp)
        assert gc.n_groups < qwc.n_groups <= len(hp)
        assert all(g.basis_change.gates == [] for g in qwc.groups)
        for g in gc.groups:
            assert all(conjugate_string(s, g.basis_change.gates).xmask == 0 for s in g.strings)

    @pytest.mark.parametrize("name", ["jw", "bk", "beta"])
    def test_groups_match_reference_on_water(self, name):
        ham, _ = load_fcidump(H2O_PATH).to_spin_orbital()
        _assert_reference_groups(build_hamiltonian(ham).to_pauli(_water_encoding(name)))

    @pytest.mark.parametrize("name", ["jw", "bk", "beta"])
    def test_basis_changes_match_reference_on_water(self, name):
        ham, _ = load_fcidump(H2O_PATH).to_spin_orbital()
        plan = partition_gc(build_hamiltonian(ham).to_pauli(_water_encoding(name)))
        for group in plan.groups:
            basis = {}
            for s in group.strings:
                measure._add_generator(basis, s.xmask << 14 | s.zmask)
            want = oracles.diagonalizing_circuit_reference(basis, 14)
            assert [(g.kind, g.qubits) for g in group.basis_change.gates] == [
                (g.kind, g.qubits) for g in want.gates
            ]

    def test_anticommuting_group_raises(self):
        # X and Z anticommute: no Clifford makes both Z-type
        basis = {}
        for x, z in ((1, 0), (0, 1)):
            measure._add_generator(basis, x << 1 | z)
        with pytest.raises(ValueError, match="do not all commute"):
            measure._diagonalizing_circuit(basis, 1)

    @pytest.mark.parametrize("partition", [partition_qwc, partition_gc])
    def test_string_beyond_the_register_rejected(self, partition):
        # the register is the sum's; X2 lies outside two qubits
        with pytest.raises(ValueError, match="beyond the 2-qubit register"):
            partition(PauliSum.from_strings([_string(2, "X0", 2.0), PauliString(2, 0b100, 0, 1.0)]))

    def test_single_x_string_costs_nothing_extra(self):
        plan = partition_gc(PauliSum.from_strings([_string(2, "X0")]))
        assert plan.n_groups == 1
        assert metrics(plan.groups[0].basis_change).two_qubit == 0
        rotated = conjugate_string(_string(2, "X0"), plan.groups[0].basis_change.gates)
        assert rotated.xmask == 0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_corpora_invariants(self, data):
        n = data.draw(st.integers(2, 5))
        count = data.draw(st.integers(1, 12))
        strings = []
        for _ in range(count):
            x = data.draw(st.integers(0, (1 << n) - 1))
            z = data.draw(st.integers(0, (1 << n) - 1))
            if not (x | z):
                x = 1
            strings.append(PauliString(n, x, z, 1.0))
        paulis = PauliSum.from_strings(strings)  # repeated strings merge
        _assert_reference_groups(paulis)
        gc = partition_gc(paulis)
        qwc = partition_qwc(paulis)
        assert gc.n_groups <= len(paulis)
        assert qwc.n_groups <= len(paulis)
        assert _n_strings(gc) == _n_strings(qwc) == len(paulis)
        for g in gc.groups:
            for s in g.strings:
                assert conjugate_string(s, g.basis_change.gates).xmask == 0
        for g in qwc.groups:
            assert g.basis_change.gates == []

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_order_matches_reference(self, data):
        """``measure._ordered`` is the (-|coefficient|, word key) sort of
        ``oracles.ordered_reference`` on random sums of 1-20 qubits whose
        coefficients share a few magnitudes, so ties are common, under
        both signs and complex phases; and both partitions give the same
        groups whichever of them runs first on a sum."""
        n = data.draw(st.integers(1, 20))
        count = data.draw(st.integers(1, 40))
        magnitude = st.sampled_from([0.25, 0.5, 1.0, 3.0])
        phase = st.sampled_from([1, -1, 1j, -1j, complex(0.6, 0.8), complex(-0.8, 0.6)])
        terms = {}
        for _ in range(count):
            x = data.draw(st.integers(0, (1 << n) - 1))
            z = data.draw(st.integers(0, (1 << n) - 1))
            terms[x, z] = data.draw(magnitude) * data.draw(phase)

        def key(strings):
            return [(s.xmask, s.zmask, s.coeff) for s in strings]

        paulis = PauliSum(n, terms)
        assert key(measure._ordered(paulis)) == key(oracles.ordered_reference(paulis))
        plans = []
        for first, second in ((partition_qwc, partition_gc), (partition_gc, partition_qwc)):
            paulis = PauliSum(n, terms)
            plans.append({p.criterion: p for p in (first(paulis), second(paulis))})
        for criterion in ("qwc", "gc"):
            a, b = (plan[criterion] for plan in plans)
            assert [key(g.strings) for g in a.groups] == [key(g.strings) for g in b.groups]
            assert [g.basis_change.gates for g in a.groups] == [g.basis_change.gates for g in b.groups]

    def test_plan_shape(self, h2_pauli):
        plan = partition_gc(h2_pauli)
        assert isinstance(plan, MeasurementPlan)
        assert plan.criterion == "gc"
        assert 0 < plan.n_groups <= _n_strings(plan)


_MAGNITUDES = (0.25, 0.5, 1.0, 3.0)
_PHASES = (1, -1, 1j, -1j)


def _random_sum(rnd, n, count, identity):
    """``count`` strings drawn on n qubits, their coefficients from a few
    magnitudes and phases, so ties in |coefficient| are common; with the
    identity string when ``identity``."""
    terms = {}
    for _ in range(count):
        terms[rnd.getrandbits(n), rnd.getrandbits(n)] = rnd.choice(_MAGNITUDES) * rnd.choice(_PHASES)
    if identity:
        terms[0, 0] = rnd.choice(_MAGNITUDES)
    return PauliSum(n, terms)


def _random_clifford(rnd, n, depth):
    gates = []
    for _ in range(depth):
        kind = rnd.choice(["H", "S", "Sdg", "CNOT", "CZ"] if n > 1 else ["H", "S", "Sdg"])
        gates.append((kind, tuple(rnd.sample(range(n), 2 if kind in ("CNOT", "CZ") else 1))))
    return gates


def _commuting_rows(rnd, n, k):
    """k independent commuting (x << n | z) rows: independent Z-type strings
    conjugated through one random Clifford."""
    zs = {}
    while len(zs) < k:
        measure._add_generator(zs, rnd.getrandbits(n))
    gates = _random_clifford(rnd, n, rnd.randint(0, 4 * n))
    rows = []
    for z in zs.values():
        s = conjugate_string(PauliString(n, 0, z, 1.0), gates)
        rows.append(s.xmask << n | s.zmask)
    rnd.shuffle(rows)
    return rows


class TestBitColumns:
    """The bit-column first-fit and basis change against the loops they
    replaced, in ``oracles``: string for string and gate for gate."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 14),
        count=st.integers(1, 700),
        identity=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_partitions_match_reference(self, n, count, identity, seed):
        _assert_reference_groups(_random_sum(random.Random(seed), n, count, identity))

    @pytest.mark.parametrize("n, count", [(6, 1000), (8, 1200), (14, 600), (20, 500)])
    def test_many_groups_match_reference(self, n, count):
        """Sums that open more than 64 QWC groups, and (below 14 qubits)
        more than 64 GC groups, so the groups' bits and fields run past
        64-bit boundaries; 20 qubits gives 21-bit fields."""
        paulis = _random_sum(random.Random(n * count), n, count, identity=True)
        _assert_reference_groups(paulis)
        assert partition_qwc(paulis).n_groups > 64
        assert partition_gc(paulis).n_groups > (64 if n < 14 else 32)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 9), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_basis_change_matches_reference(self, n, data, seed):
        rows = _commuting_rows(random.Random(seed), n, data.draw(st.integers(1, n)))
        basis = dict(enumerate(rows))
        got = measure._diagonalizing_circuit(basis, n)
        want = oracles.diagonalizing_circuit_reference(basis, n)
        assert [(g.kind, g.qubits) for g in got.gates] == [(g.kind, g.qubits) for g in want.gates]
        for row in rows:
            s = PauliString(n, row >> n, row & ((1 << n) - 1), 1.0)
            assert conjugate_string(s, got.gates).xmask == 0

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 9), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_anticommuting_pair_anywhere_raises(self, n, data, seed):
        """A commuting basis with one row inserted at any position that
        anticommutes with some other row."""
        rnd = random.Random(seed)
        rows = _commuting_rows(rnd, n, data.draw(st.integers(1, n)))
        partner = rnd.choice(rows)
        x, z = partner >> n, partner & ((1 << n) - 1)
        q = rnd.choice([q for q in range(n) if (x | z) >> q & 1])
        # a one-qubit letter that differs from the partner's on q anticommutes with it
        letter = rnd.choice([(a, b) for a, b in ((1, 0), (0, 1), (1, 1)) if (a, b) != (x >> q & 1, z >> q & 1)])
        bad = letter[0] << n + q | letter[1] << q
        rows.insert(data.draw(st.integers(0, len(rows))), bad)
        with pytest.raises(ValueError, match="do not all commute"):
            measure._diagonalizing_circuit(dict(enumerate(rows)), n)
