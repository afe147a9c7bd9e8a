import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    return oracles.paulisum_matrix(s.n_qubits, [(s.coeff, s.letters())])


def _sum_dense(op: PauliSum):
    return oracles.paulisum_matrix(op.n_qubits, [(s.coeff, s.letters()) for s in op])


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
        assert reduced.letter(0) == expected_letter

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
            assert (None if reduced is None else (reduced.letter(0), factor)) == row, (a, b)
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
        assert occupied.letter(0) == "I"
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
        assert (reduced.letter(0), reduced.letter(1), reduced.letter(2)) == ("Y", "X", "Z")

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
        assert reduced.coeff(0, 0).real == pytest.approx(
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
        ground = float(np.linalg.eigvalsh(_sum_dense(reduced))[0])
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
        assert hashlib.sha256(repr(reduced.items()).encode()).hexdigest() == digest


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


class TestPartitionQwc:
    def test_all_z_is_one_free_group(self):
        strings = [_string(3, t) for t in ("Z0", "Z1", "Z0 Z2", "Z1 Z2")]
        plan = partition_qwc(strings)
        assert plan.n_groups == 1
        assert plan.groups[0].extra_two_qubit == 0

    def test_xx_yy_zz_needs_three_groups(self):
        strings = [_string(2, "X0 X1"), _string(2, "Y0 Y1"), _string(2, "Z0 Z1")]
        assert partition_qwc(strings).n_groups == 3

    def test_groups_are_a_partition(self, h2_pauli):
        plan = partition_qwc(h2_pauli)
        seen = sorted(s.key for g in plan.groups for s in g.strings)
        assert seen == sorted(s.key for s in h2_pauli)

    def test_within_group_letterwise_compatibility(self, h2_pauli):
        plan = partition_qwc(h2_pauli)
        for g in plan.groups:
            for a, b in itertools.combinations(g.strings, 2):
                assert _qwc_pair_ok(a, b)


class TestPartitionGc:
    def test_xx_yy_zz_is_one_group_with_extra_cost(self):
        strings = [_string(2, "X0 X1"), _string(2, "Y0 Y1"), _string(2, "Z0 Z1")]
        plan = partition_gc(strings)
        assert plan.n_groups == 1
        assert plan.groups[0].extra_two_qubit >= 1

    def test_group_clifford_diagonalizes_members(self, h2_pauli):
        plan = partition_gc(h2_pauli)
        for g in plan.groups:
            for s in g.strings:
                rotated = conjugate_string(s, g.basis_change.gates)
                assert rotated.xmask == 0

    def test_dense_simultaneous_diagonalization(self):
        strings = [_string(2, "X0 X1"), _string(2, "Y0 Y1", 0.5), _string(2, "Z0 Z1", 0.25)]
        plan = partition_gc(strings)
        circ = plan.groups[0].basis_change
        u = oracles.circuit_matrix(2, [(g.kind, g.qubits, g.theta) for g in circ.gates])
        total = sum(_dense(s) for s in strings)
        rotated = u @ total @ u.conj().T
        off = rotated - np.diag(np.diag(rotated))
        assert np.max(np.abs(off)) < 1e-12

    def test_extra_cost_counts_two_qubit_gates_only(self, h2_pauli):
        plan = partition_gc(h2_pauli)
        for g in plan.groups:
            assert g.extra_two_qubit == sum(
                1 for gate in g.basis_change.gates if gate.kind in ("CNOT", "CZ")
            )

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
        assert all(g.extra_two_qubit == 0 for g in qwc.groups)
        for g in gc.groups:
            assert all(conjugate_string(s, g.basis_change.gates).xmask == 0 for s in g.strings)

    def test_single_x_string_costs_nothing_extra(self):
        plan = partition_gc([_string(2, "X0")])
        assert plan.n_groups == 1
        assert plan.groups[0].extra_two_qubit == 0
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
        gc = partition_gc(strings)
        qwc = partition_qwc(strings)
        assert gc.n_groups <= len(strings)
        assert qwc.n_groups <= len(strings)
        assert _n_strings(gc) == _n_strings(qwc) == len(strings)
        for g in gc.groups:
            for s in g.strings:
                assert conjugate_string(s, g.basis_change.gates).xmask == 0
        for g in qwc.groups:
            assert isinstance(g.extra_two_qubit, int) and g.extra_two_qubit == 0

    def test_plan_shape(self, h2_pauli):
        plan = partition_gc(h2_pauli)
        assert isinstance(plan, MeasurementPlan)
        assert plan.criterion == "gc"
        assert 0 < plan.n_groups <= _n_strings(plan)
