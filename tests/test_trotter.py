import dataclasses
import hashlib
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc import trotter as tr
from fqcc.circuits import metrics, peephole_cancel
from fqcc.fcidump import load_fcidump
from fqcc.fermions import OrbitalSequence, uccsd_pool
from fqcc.measure import QSRContext, qsr_compress
from fqcc.paulis import PauliString
from fqcc.simulate import AnsatzOp, apply_ansatz, hf_state
from fqcc.transform import Transform

import oracles


def _random_beta_bits(rng, n):
    return tuple(int(rng.integers(2)) for _ in range(n * (n - 1) // 2))


def _circ_matrix(circ):
    ops = [(g.kind, g.qubits, g.theta) for g in circ.gates]
    return oracles.circuit_matrix(circ.n_qubits, ops, circ.global_phase)


def _generator_matrix(seq, n, anti):
    """Dense T - T+ (anti) or T + T+ of one excitation, occupation basis."""
    fwd = [(i, True) for i in seq.creations()] + [(i, False) for i in seq.annihilations()]
    rev = [(i, True) for i in reversed(seq.annihilations())] + [
        (i, False) for i in reversed(seq.creations())
    ]
    t = oracles.ladder_product_matrix(n, fwd)
    tdg = oracles.ladder_product_matrix(n, rev)
    return t - tdg if anti else t + tdg


def _term_unitary(seq, n, theta, anti):
    gen = _generator_matrix(seq, n, anti)
    return sla.expm(theta * gen) if anti else sla.expm(-0.5j * theta * gen)


def _rotations_matrix(term):
    u = np.eye(1 << term.n_qubits, dtype=complex)
    for string, angle in oracles.rotations(term):
        mat = oracles.string_matrix(term.n_qubits, string.letters())
        u = sla.expm(-0.5j * angle * mat) @ u
    return u


def excitation_strategy(min_n=4, max_n=6):
    def build(n, bits, kind, picks):
        beta = np.eye(n, dtype=np.uint8)
        k = 0
        for i in range(n):
            for j in range(i):
                beta[i, j] = bits[k]
                k += 1
        modes = sorted(range(n), key=lambda i: picks[i])
        if kind == "single":
            seq = OrbitalSequence("single", (modes[0], modes[1]))
        else:
            p, q = sorted(modes[:2])
            r, s = sorted(modes[2:4])
            seq = OrbitalSequence("double", (p, q, r, s))
        return Transform(beta), seq

    return (
        st.integers(min_n, max_n)
        .flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.integers(0, 1),
                    min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2,
                ),
                st.sampled_from(["single", "double"]),
                st.lists(
                    st.floats(0, 1, allow_nan=False),
                    min_size=n,
                    max_size=n,
                    unique=True,
                ),
            )
        )
        .map(lambda t: build(*t))
    )


# ---------------------------------------------------------------------------
# product formulas
# ---------------------------------------------------------------------------


class TestProductFormula:
    def test_first_order_is_passthrough(self):
        pairs = [("a", 0.3), ("b", 0.5)]
        assert tr.pf_sequence(pairs, tr.PFConfig(order=1)) == pairs

    def test_second_order_palindrome(self):
        pairs = [("a", 0.3), ("b", 0.5)]
        seq = tr.pf_sequence(pairs, tr.PFConfig(order=2))
        assert seq == [("a", 0.15), ("b", 0.25), ("b", 0.25), ("a", 0.15)]

    def test_second_order_single_term(self):
        assert tr.pf_sequence([("a", 0.8)], tr.PFConfig(order=2)) == [
            ("a", 0.4),
            ("a", 0.4),
        ]

    def test_steps_divide_and_repeat(self):
        pairs = [("a", 0.6)]
        seq = tr.pf_sequence(pairs, tr.PFConfig(order=1, steps=3))
        assert [label for label, _ in seq] == ["a"] * 3
        assert [a for _, a in seq] == pytest.approx([0.2] * 3)

    def test_fourth_order_splitting_constant(self):
        p2 = tr.suzuki_coefficient(2)
        assert abs(p2 - 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))) < 1e-12
        assert abs(p2 - 0.4144908) < 5e-8

    def test_higher_splitting_constants(self):
        for k in (3, 4):
            want = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))
            assert abs(tr.suzuki_coefficient(k) - want) < 1e-12

    def test_fourth_order_structure(self):
        pairs = [("a", 0.3), ("b", 0.5)]
        seq = tr.pf_sequence(pairs, tr.PFConfig(order=4))
        # five second-order blocks of four rotations each
        assert len(seq) == 20
        p2 = tr.suzuki_coefficient(2)
        assert seq[0] == ("a", 0.3 * p2 / 2)
        for label, total in pairs:
            assert abs(sum(a for l, a in seq if l == label) - total) < 1e-12

    @given(
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=4),
        st.sampled_from([1, 2, 4, 6]),
        st.integers(1, 3),
    )
    def test_angle_sums_are_conserved(self, angles, order, steps):
        pairs = [(i, a) for i, a in enumerate(angles)]
        seq = tr.pf_sequence(pairs, tr.PFConfig(order=order, steps=steps))
        for i, a in pairs:
            assert abs(sum(x for l, x in seq if l == i) - a) < 1e-9

    def test_invalid_order_rejected(self):
        for order in (0, 3, 5, -2):
            with pytest.raises(ValueError):
                tr.PFConfig(order=order)

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            tr.PFConfig(order=2, steps=0)

    def _error_slope(self, order):
        n = 3
        words = [{0: "X", 1: "Y", 2: "Z"}, {0: "Z"}, {1: "X"}]
        angles = [0.9, 0.7, 0.5]
        mats = [oracles.string_matrix(n, w) for w in words]
        target = sla.expm(-0.5j * sum(a * m for a, m in zip(angles, mats)))
        errs = []
        steps = (2, 4, 8, 16)
        for r in steps:
            seq = tr.pf_sequence(
                list(enumerate(angles)), tr.PFConfig(order=order, steps=r)
            )
            u = np.eye(1 << n, dtype=complex)
            for label, ang in seq:
                u = sla.expm(-0.5j * ang * mats[label]) @ u
            errs.append(np.abs(u - target).max())
        assert min(errs) > 1e-13  # stay clear of the noise floor
        return np.polyfit(np.log(steps), np.log(errs), 1)[0]

    def test_first_order_error_slope(self):
        assert -1.25 < self._error_slope(1) < -0.75

    def test_second_order_error_slope(self):
        # halving the step size must cut the error near quadratically
        assert -2.4 < self._error_slope(2) < -1.6

    def test_fourth_order_error_slope(self):
        assert -4.8 < self._error_slope(4) < -3.2


# ---------------------------------------------------------------------------
# excitation expansion
# ---------------------------------------------------------------------------


def _expansion_cases():
    """(pool, transform) per name: H4's 8-mode pool under JW, BK and eight
    seeded encodings, a 6-mode pool, and water's 14-mode pool under JW, BK
    and four seeded encodings."""
    rng = np.random.default_rng(11)
    pools = {
        "h4": uccsd_pool(range(4), range(4, 8)),
        "six": uccsd_pool(range(2), range(2, 6)),
        "water": uccsd_pool(range(10), range(10, 14)),
    }
    cases = {}
    for name, pool, n in (("h4", pools["h4"], 8), ("six", pools["six"], 6)):
        cases[f"{name}-jw"] = (pool, Transform.jordan_wigner(n))
        cases[f"{name}-bk"] = (pool, Transform.bravyi_kitaev(n))
    for i in range(8):
        cases[f"h4-beta{i}"] = (
            pools["h4"], Transform.from_lower_bits(8, _random_beta_bits(rng, 8))
        )
    cases["six-beta"] = (pools["six"], Transform.from_lower_bits(6, _random_beta_bits(rng, 6)))
    cases["water-jw"] = (pools["water"], Transform.jordan_wigner(14))
    cases["water-bk"] = (pools["water"], Transform.bravyi_kitaev(14))
    for i in range(4):
        cases[f"water-beta{i}"] = (
            pools["water"], Transform.from_lower_bits(14, _random_beta_bits(rng, 14))
        )
    return cases


_EXPANSION_CASES = _expansion_cases()


class TestExpandTerm:
    def test_double_word_order(self):
        seq = OrbitalSequence("double", (2, 3, 0, 1))
        term = tr.expand_term(seq, Transform.jordan_wigner(4), 0.7)
        words = tuple(
            "".join(s.letter(q) for q in range(4)) for s in term.strings
        )
        assert words == (
            "XXXX", "XXYY", "XYYX", "XYXY", "YYXX", "YXXY", "YXYX", "YYYY",
        )

    def test_double_counts_and_coefficients(self):
        seq = OrbitalSequence("double", (2, 3, 0, 1))
        for anti in (False, True):
            term = tr.expand_term(seq, Transform.jordan_wigner(4), 0.7, anti=anti)
            assert len(term.strings) == 8
            assert all(s.coeff in (1.0, -1.0) for s in term.strings)
            xmasks = {s.xmask for s in term.strings}
            assert len(xmasks) == 1

    def test_single_counts(self):
        seq = OrbitalSequence("single", (2, 0))
        term = tr.expand_term(seq, Transform.jordan_wigner(4), 0.7, anti=True)
        assert len(term.strings) == 2

    def test_angle_magnitudes(self):
        jw = Transform.jordan_wigner(4)
        theta = 0.8
        double = OrbitalSequence("double", (2, 3, 0, 1))
        single = OrbitalSequence("single", (2, 0))
        assert tr.expand_term(double, jw, theta).angle == pytest.approx(theta / 8)
        assert tr.expand_term(double, jw, theta, anti=True).angle == pytest.approx(theta / 4)
        assert tr.expand_term(single, jw, theta).angle == pytest.approx(theta / 2)
        assert tr.expand_term(single, jw, theta, anti=True).angle == pytest.approx(theta)

    def test_anti_words_sorted(self):
        seq = OrbitalSequence("double", (2, 3, 0, 1))
        term = tr.expand_term(seq, Transform.jordan_wigner(4), 0.7, anti=True)
        words = [
            "".join(s.letter(q) for q in range(4)) for s in term.strings
        ]
        assert words == sorted(words)
        assert all(w.count("Y") % 2 == 1 for w in words)

    def test_dense_under_jw(self):
        jw = Transform.jordan_wigner(4)
        theta = 0.37
        for seq in (
            OrbitalSequence("double", (2, 3, 0, 1)),
            OrbitalSequence("single", (3, 1)),
        ):
            for anti in (False, True):
                term = tr.expand_term(seq, jw, theta, anti=anti)
                want = _term_unitary(seq, 4, theta, anti)
                assert np.abs(_rotations_matrix(term) - want).max() < 1e-12

    def test_dense_under_random_encoding(self):
        rng = np.random.default_rng(5)
        theta = 0.41
        for _ in range(4):
            t = Transform.from_lower_bits(4, _random_beta_bits(rng, 4))
            b = _circ_matrix(t.basis_circuit())
            for seq in (
                OrbitalSequence("double", (1, 3, 0, 2)),
                OrbitalSequence("single", (2, 1)),
            ):
                for anti in (False, True):
                    term = tr.expand_term(seq, t, theta, anti=anti)
                    want = b @ _term_unitary(seq, 4, theta, anti) @ b.conj().T
                    assert np.abs(_rotations_matrix(term) - want).max() < 1e-12

    def test_eligible_targets_under_jw(self):
        jw = Transform.jordan_wigner(6)
        term = tr.expand_term(OrbitalSequence("double", (4, 5, 0, 2)), jw, 0.3)
        assert term.eligible_targets == (0, 2, 4, 5)

    @given(excitation_strategy())
    @settings(max_examples=60, deadline=None)
    def test_eligible_targets_definition(self, case):
        transform, seq = case
        term = tr.expand_term(seq, transform, 0.3, anti=True)
        labels = sorted(set(seq.indices))
        assert set(term.eligible_targets) <= set(labels)
        for q in labels:
            identity_somewhere = any(s.letter(q) == "I" for s in term.strings)
            assert (q in term.eligible_targets) == (not identity_somewhere)

    @pytest.mark.parametrize("anti", (True, False))
    @pytest.mark.parametrize("case", sorted(_EXPANSION_CASES))
    def test_matches_pauli_sum_route(self, case, anti):
        """The mask-level expansion equals the FermionOperator -> PauliSum
        route with letter-word sorting, field for field, signed zero angles
        included."""
        pool, transform = _EXPANSION_CASES[case]
        for i, seq in enumerate(pool):
            for theta in (0.3 - 0.05 * i, 0.0, -0.0, -0.6):
                got = tr.expand_term(seq, transform, theta, anti=anti)
                want = oracles.expand_term_via_paulis(seq, transform, theta, anti=anti)
                assert repr(got) == repr(want)

    def test_mode_out_of_range(self):
        jw = Transform.jordan_wigner(4)
        for indices in ((4, 0), (2, -1)):
            with pytest.raises(ValueError, match="out of range"):
                tr.expand_term(OrbitalSequence("single", indices), jw)

    def test_rotations_and_wires(self):
        term = tr.expand_term(
            OrbitalSequence("single", (2, 0)), Transform.jordan_wigner(4), 0.6, anti=True
        )
        rots = oracles.rotations(term)
        assert [angle for _, angle in rots] == [0.6, -0.6]
        assert set().union(*(s.letters() for s in term.strings)) == {0, 1, 2}


# ---------------------------------------------------------------------------
# single-rotation synthesis
# ---------------------------------------------------------------------------


def _pauli_exp(string, theta, target):
    """exp(-i theta/2 * string) from ``term_circuit``, as a one-string term."""
    term = tr.TrotterTerm(None, string.n_qubits, theta, theta, (string,), (target,))
    return tr.term_circuit(term, target=target)


class TestSynthPauliExp:
    """One Pauli exponential through ``term_circuit``'s block emitter."""

    def test_plain_z(self):
        s = oracles.from_letters(2, {0: "Z"})
        circ = _pauli_exp(s, 0.5, 0)
        assert [(g.kind, g.qubits) for g in circ.gates] == [("Rz", (0,))]
        assert circ.gates[0].theta == 0.5

    def test_zz_ladder(self):
        s = oracles.from_letters(2, {0: "Z", 1: "Z"})
        circ = _pauli_exp(s, 0.5, 1)
        assert [(g.kind, g.qubits) for g in circ.gates] == [
            ("CNOT", (0, 1)),
            ("Rz", (1,)),
            ("CNOT", (0, 1)),
        ]

    def test_mixed_basis_counts(self):
        s = oracles.from_letters(3, {0: "X", 1: "Y", 2: "Z"})
        circ = _pauli_exp(s, 0.9, 2)
        m = metrics(circ)
        assert m.two_qubit == 4
        assert m.rz_count == 1

    def test_identity_target_rejected(self):
        s = oracles.from_letters(3, {0: "X", 2: "Z"})
        with pytest.raises(ValueError, match="carries identity"):
            _pauli_exp(s, 0.9, 1)
        term = tr.expand_term(OrbitalSequence("single", (2, 0)), Transform.jordan_wigner(4), 0.4)
        with pytest.raises(ValueError, match="carries identity"):
            tr.term_circuit(term, target=3)

    def test_dense_oracle(self):
        rng = random.Random(9)
        letters = ("X", "Y", "Z")
        for _ in range(25):
            n = rng.randint(2, 4)
            support = rng.sample(range(n), rng.randint(1, n))
            placed = {q: rng.choice(letters) for q in support}
            target = rng.choice(support)
            theta = rng.uniform(-2, 2)
            s = oracles.from_letters(n, placed)
            circ = _pauli_exp(s, theta, target)
            want = sla.expm(-0.5j * theta * oracles.string_matrix(n, placed))
            assert np.abs(_circ_matrix(circ) - want).max() < 1e-12

    def test_term_circuit_rejects_bad_ordering(self):
        term = tr.expand_term(
            OrbitalSequence("single", (1, 0)), Transform.jordan_wigner(2), 0.4
        )
        with pytest.raises(ValueError):
            tr.term_circuit(term, ordering=(0, 0))

    def test_wires_beyond_the_register_rejected(self):
        term = tr.expand_term(
            OrbitalSequence("single", (3, 0)), Transform.jordan_wigner(4), 0.4
        )
        assert len(tr.term_circuit(term).gates) > 0
        with pytest.raises(ValueError, match="does not fit on 3 wires"):
            tr.term_circuit(dataclasses.replace(term, n_qubits=3))
        with pytest.raises(ValueError):
            tr.term_circuit(term, target=5)


# ---------------------------------------------------------------------------
# cost accounting vs realized circuits
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_breakdown_arithmetic(self):
        bd = tr.CostBreakdown((4, 4, 4), (2, 0), (0, 1))
        assert bd.base == 18
        assert bd.saved == 5
        assert bd.total == 13

    def test_counts_match_reduced_circuits(self):
        """The additive model equals post-cancellation CNOT counts exactly.

        Covers singles and doubles on 4..8 modes under the standard chain
        encoding, the binary-tree encoding, and random encodings, for both
        rotation conventions, at optimizer-chosen and arbitrary orderings.
        """
        rng = random.Random(11)
        nprng = np.random.default_rng(11)
        cases = []
        for n in (4, 6, 8):
            tfs = [
                Transform.jordan_wigner(n),
                Transform.bravyi_kitaev(n),
                Transform.from_lower_bits(n, _random_beta_bits(nprng, n)),
            ]
            for _ in range(4):
                modes = rng.sample(range(n), 4)
                p, q = sorted(modes[:2])
                r, s = sorted(modes[2:])
                cases.append((OrbitalSequence("double", (p, q, r, s)), rng.choice(tfs)))
            for _ in range(2):
                p, r = rng.sample(range(n), 2)
                cases.append((OrbitalSequence("single", (p, r)), rng.choice(tfs)))

        checked = 0
        for anti in (False, True):
            for seq, tf in cases:
                term = tr.expand_term(seq, tf, 0.37, anti=anti)
                result = tr.intra_order(term)
                picks = [(c.ordering, t) for t, c in result.per_target.items()]
                k = len(term.strings)
                picks.append((tuple(range(k)), term.eligible_targets[0]))
                shuffled = list(range(k))
                rng.shuffle(shuffled)
                picks.append((tuple(shuffled), rng.choice(term.eligible_targets)))
                for ordering, target in picks:
                    want = tr.cost_breakdown(term, ordering, target).total
                    circ = tr.term_circuit(term, ordering, target)
                    got = metrics(peephole_cancel(circ)).two_qubit
                    assert got == want, (seq.name, tf.n_modes, anti, ordering, target)
                    checked += 1
        assert checked > 150

    def test_reduction_preserves_unitaries(self):
        term = tr.expand_term(
            OrbitalSequence("double", (2, 3, 0, 1)), Transform.jordan_wigner(4), 0.7
        )
        circ = tr.term_circuit(term)
        reduced = peephole_cancel(circ)
        assert np.abs(_circ_matrix(circ) - _circ_matrix(reduced)).max() < 1e-12

    def test_fallback_accounting(self):
        # no wire is shared by every string, so each block takes its own target
        s1 = oracles.from_letters(3, {0: "Z", 1: "Z"}, 1.0)
        s2 = oracles.from_letters(3, {1: "Z", 2: "Z"}, 1.0)
        term = tr.TrotterTerm(None, 3, 0.5, 0.5, (s1, s2), (), False)
        result = tr.intra_order(term)
        assert result.per_target == {}
        circ = tr.term_circuit(term)
        assert metrics(peephole_cancel(circ)).two_qubit == result.min_cost == 4


def _words(term):
    return [s.letters() for s in term.strings]


def _reference_double(transform=None):
    return tr.expand_term(
        OrbitalSequence("double", (2, 3, 0, 1)), transform or Transform.jordan_wigner(4), 0.7
    )


class TestIntraOrder:
    """``intra_order``'s dynamic program against ``oracles.intra_minima``,
    which scores every ordering of every target."""

    def test_reference_double(self):
        # raw chain ladders cost 48 CNOTs; sharing and boundary cancellation
        # brings the verified optimum to 13
        term = _reference_double()
        result = tr.intra_order(term)
        cost, minima = oracles.intra_minima(_words(term), term.eligible_targets)
        assert result.min_cost == cost == 13
        target, ordering = minima[0]
        assert tr.cost_breakdown(term, ordering, target).base == 48
        circ = tr.term_circuit(term, ordering, target)
        assert metrics(peephole_cancel(circ)).two_qubit == 13

    def test_minima_are_canonical_and_sorted(self):
        # each per-target optimum is the smaller of its ordering and the
        # reversal, and costs what enumerating that target alone finds
        term = _reference_double()
        result = tr.intra_order(term)
        for target, choice in result.per_target.items():
            assert not choice.ordering[::-1] < choice.ordering
            cost, minima = oracles.intra_minima(_words(term), [target])
            assert choice.cost == cost
            assert minima == sorted(minima)

    def test_per_target_matches_enumeration(self):
        term = _reference_double()
        result = tr.intra_order(term)
        _, minima = oracles.intra_minima(_words(term), term.eligible_targets)
        for target, choice in result.per_target.items():
            if choice.cost == result.min_cost:
                first = next(o for t, o in minima if t == target)
                assert choice.ordering == first

    def test_single_excitation_ordering(self):
        term = tr.expand_term(
            OrbitalSequence("single", (2, 0)), Transform.jordan_wigner(4), 0.7, anti=True
        )
        result = tr.intra_order(term)
        cost, minima = oracles.intra_minima(_words(term), term.eligible_targets)
        assert all(ordering == (0, 1) for _, ordering in minima)
        assert result.min_cost == cost == 5

    def test_enumeration_never_beats_path_optimum(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            t = Transform.from_lower_bits(6, _random_beta_bits(rng, 6))
            modes = rng.choice(6, size=4, replace=False)
            p, q = sorted(int(m) for m in modes[:2])
            r, s = sorted(int(m) for m in modes[2:])
            term = tr.expand_term(OrbitalSequence("double", (p, q, r, s)), t, 0.3)
            result = tr.intra_order(term)
            for target, choice in result.per_target.items():
                assert choice.cost == oracles.intra_minima(_words(term), [target])[0]

    def test_term_min_cost_matches(self):
        term = _reference_double(Transform.bravyi_kitaev(4))
        assert tr.term_min_cost(term) == tr.intra_order(term).min_cost


# square non-negative integer matrices of sizes 1-8; entries up to 0 (all
# zero), 1 (heavily tied) or 40
_matrix_st = st.tuples(st.integers(1, 8), st.sampled_from([0, 1, 40])).flatmap(
    lambda kt: st.lists(
        st.lists(st.integers(0, kt[1]), min_size=kt[0], max_size=kt[0]),
        min_size=kt[0],
        max_size=kt[0],
    )
)


class TestPlannerReferences:
    """The batched Held-Karp pass and the mask-form boundary savings against
    the loop references in ``oracles``."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_matrix_st, min_size=1, max_size=40))
    def test_batched_dp_matches_reference(self, matrices):
        """Mixed sizes and more than one chunk of a size in one batch, with
        all-zero and heavily tied matrices: equal weight and equal path."""
        assert tr._max_paths(matrices) == [oracles.max_path_reference(m) for m in matrices]

    def test_chunk_boundaries(self):
        rng = random.Random(3)
        sizes = [8] * (2 * tr._DP_CHUNK + 3) + list(range(1, 8)) * 3
        rng.shuffle(sizes)
        matrices = []
        for k in sizes:
            sym = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    sym[i][j] = sym[j][i] = rng.randint(0, 3)
            matrices.append(sym)
        assert tr._max_paths(matrices) == [oracles.max_path_reference(m) for m in matrices]

    @pytest.mark.parametrize("name", ["h4-jw", "h4-bk", "h4-beta0", "h4-beta1"])
    def test_planner_matrices_match_reference(self, name, monkeypatch):
        """Every savings matrix ``_dp_choices`` builds for H4's pool: the
        search's plan, and each term at each of its eligible targets."""
        pool, transform = _EXPANSION_CASES[name]
        built = {}
        solve = tr._max_paths

        def recording(matrices):
            built.update((tuple(map(tuple, m)), m) for m in matrices)
            return solve(matrices)

        monkeypatch.setattr(tr, "_max_paths", recording)
        tr.plan_ansatz(pool, transform, occupied=range(4))
        for seq in pool:
            tr.intra_order(tr.expand_term(seq, transform, anti=True))
        matrices = list(built.values())
        assert any(len(m) == 8 for m in matrices)
        assert solve(matrices) == [oracles.max_path_reference(m) for m in matrices]

    def test_triple_table_holds_only_valid_triples(self):
        """At k = 8: sum_p C(8, p) p (8 - p) = 3,584 triples; each (mask, last)
        group lists the unvisited nodes once each, ascending."""
        k = 8
        layers = tr._dp_triples(k)
        assert sum(len(tab) for _, _, tab, _ in layers) == 3584
        written = [row for rows, _, _, _ in layers for row in rows.tolist()]
        partial = range(1, (1 << k) - 1)
        assert sorted(written) == [m * k + v for m in partial for v in range(k) if m >> v & 1]
        for p, (rows, sav, tab, width) in zip(range(k - 1, 0, -1), layers):
            assert width == k - p
            for row, group_sav, group_tab in zip(
                rows.tolist(), sav.reshape(-1, width).tolist(), tab.reshape(-1, width).tolist()
            ):
                mask, last = divmod(row, k)
                assert mask.bit_count() == p and mask >> last & 1
                nodes = [nxt for nxt in range(k) if not mask >> nxt & 1]
                assert group_sav == [last * k + nxt for nxt in nodes]
                assert group_tab == [(mask | 1 << nxt) * k + nxt for nxt in nodes]

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            tr._max_paths([[[0, -5, 1], [-5, 0, -2], [1, -2, 0]]])

    def test_int32_overflow_rejected(self):
        """Two steps of 2**30 reach 2**31; one less per step still fits."""
        fits = [[0, 2**30 - 1, 2**30 - 1], [2**30 - 1, 0, 2**30 - 1], [2**30 - 1, 2**30 - 1, 0]]
        assert tr._max_paths([fits]) == [oracles.max_path_reference(fits)]
        with pytest.raises(ValueError, match="overflow"):
            tr._max_paths([[[0, 2**30, 2**30], [2**30, 0, 2**30], [2**30, 2**30, 0]]])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(0, (1 << n) - 1),
                st.integers(0, (1 << n) - 1),
                st.integers(0, (1 << n) - 1),
                st.integers(0, (1 << n) - 1),
                st.integers(0, n + 2),
            )
        )
    )
    def test_boundary_saving_matches_reference(self, case):
        """Random string pairs; the target may lie outside either support."""
        n, x1, z1, x2, z2, target = case
        a, b = PauliString(n, x1, z1), PauliString(n, x2, z2)
        assert tr._boundary_saving(a, b, target) == oracles.boundary_saving_reference(
            a, b, target
        )


# ---------------------------------------------------------------------------
# level relabeling
# ---------------------------------------------------------------------------


class TestRelabeling:
    def test_candidate_counts(self):
        # k transpositions of spatial orbitals: sum over j of the number of
        # ways to pick j disjoint pairs
        assert len(tr._pair_swap_perms(4, 1)) == 6
        assert len(tr._pair_swap_perms(4, 2)) == 9
        assert len(tr._pair_swap_perms(5, 2)) == 25

    def test_candidates_are_pairwise_permutations(self):
        for perm in tr._pair_swap_perms(4, 2):
            assert sorted(perm) == list(range(8))
            assert all(perm[2 * l + 1] == perm[2 * l] + 1 for l in range(4))

    def test_permute_sign_hand_case(self):
        seq = OrbitalSequence("double", (0, 2, 1, 3))
        mapped, sign = tr.permute_sequence(seq, (2, 1, 0, 3))
        assert mapped == OrbitalSequence("double", (0, 2, 1, 3))
        assert sign == -1

    def test_permute_sign_dense(self):
        rng = random.Random(21)
        n = 6
        for _ in range(10):
            modes = rng.sample(range(n), 4)
            p, q = sorted(modes[:2])
            r, s = sorted(modes[2:])
            seq = OrbitalSequence("double", (p, q, r, s))
            perm = list(range(n))
            rng.shuffle(perm)
            mapped, sign = tr.permute_sequence(seq, perm)
            raw = [(perm[i], True) for i in seq.creations()] + [
                (perm[i], False) for i in seq.annihilations()
            ]
            canon = [(i, True) for i in mapped.creations()] + [
                (i, False) for i in mapped.annihilations()
            ]
            lhs = oracles.ladder_product_matrix(n, raw)
            rhs = sign * oracles.ladder_product_matrix(n, canon)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_inverse_round_trip(self):
        seq = OrbitalSequence("double", (1, 3, 0, 2))
        perm = (4, 5, 2, 3, 0, 1)
        inv = tuple(np.argsort(perm))
        mapped, s1 = tr.permute_sequence(seq, perm)
        back, s2 = tr.permute_sequence(mapped, inv)
        assert back == seq
        assert s1 * s2 == 1

    def test_greedy_never_increases(self):
        seqs = [
            OrbitalSequence("double", (2, 3, 0, 1)),
            OrbitalSequence("double", (4, 5, 0, 1)),
            OrbitalSequence("single", (4, 0)),
        ]
        bk = Transform.bravyi_kitaev(6)
        memo = {}
        state = tr.relabel_levels(seqs, bk, anti=True, memo=memo)
        identity = tr._labeling_cost(seqs, bk, tuple(range(6)), anti=True, memo=memo)
        assert sorted(state.labels) == list(range(6))
        assert state.cost <= identity
        assert state.cost < identity  # this instance strictly improves

    def test_result_is_locally_optimal(self):
        seqs = [
            OrbitalSequence("double", (2, 3, 0, 1)),
            OrbitalSequence("double", (4, 5, 0, 1)),
            OrbitalSequence("single", (4, 0)),
        ]
        bk = Transform.bravyi_kitaev(6)
        memo = {}
        state = tr.relabel_levels(seqs, bk, anti=True, memo=memo)
        for cand in tr._pair_swap_perms(3, 2):
            labels = tuple(cand[m] for m in state.labels)
            cost = tr._labeling_cost(seqs, bk, labels, anti=True, memo=memo)
            assert cost >= state.cost

    def test_odd_mode_count_rejected(self):
        with pytest.raises(ValueError):
            tr.relabel_levels(
                [OrbitalSequence("single", (1, 0))], Transform.jordan_wigner(3)
            )


# ---------------------------------------------------------------------------
# cross-term ordering
# ---------------------------------------------------------------------------


class TestInterOrder:
    def _singles(self, pairs, n, transform=None):
        t = transform if transform is not None else Transform.jordan_wigner(n)
        return [
            tr.expand_term(OrbitalSequence("single", pq), t, 0.3, anti=True)
            for pq in pairs
        ]

    def test_shared_wire_forms_one_class(self):
        terms = self._singles([(4, 0), (6, 0), (5, 1)], 8)
        plan = tr.inter_order(terms)
        by_target = {cls.target: cls for cls in plan.classes}
        assert set(by_target) == {0, 1}
        assert len(by_target[0].placements) == 2
        assert len(by_target[1].placements) == 1
        assert plan.standalone == ()

    def test_tie_breaks_to_smallest_wire(self):
        terms = self._singles([(1, 0), (2, 0), (3, 1)], 4)
        plan = tr.inter_order(terms)
        assert [cls.target for cls in plan.classes] == [0, 1]
        assert sorted(p.index for p in plan.classes[0].placements) == [0, 1]
        assert [p.index for p in plan.classes[1].placements] == [2]

    def test_members_partition_terms(self):
        pool = uccsd_pool((0, 1, 2, 3), (4, 5, 6, 7))
        jw = Transform.jordan_wigner(8)
        terms = [tr.expand_term(s, jw, 0.1, anti=True) for s in pool]
        plan = tr.inter_order(terms)
        seen = [p.index for cls in plan.classes for p in cls.placements]
        seen += [p.index for p in plan.standalone]
        assert sorted(seen) == list(range(len(terms)))
        for cls in plan.classes:
            assert all(p.choice.target == cls.target for p in cls.placements)
            assert len(cls.junction_savings) == len(cls.placements) - 1

    def test_disjoint_supports_save_nothing(self):
        terms = self._singles([(1, 0), (3, 2), (5, 4)], 6)
        plan = tr.inter_order(terms)
        assert all(len(cls.placements) == 1 for cls in plan.classes)
        assert all(cls.junction_savings == () for cls in plan.classes)
        assert plan.cost == sum(tr.term_min_cost(t) for t in terms)

    def test_chain_saves_over_isolated_blocks(self):
        terms = self._singles([(4, 0), (6, 0), (5, 0)], 8)
        plan = tr.inter_order(terms)
        isolated = sum(tr.term_min_cost(t) for t in terms)
        assert plan.cost < isolated
        assert sum(plan.classes[0].junction_savings) > 0


# ---------------------------------------------------------------------------
# paired-mode compression
# ---------------------------------------------------------------------------


def _closed_form(n, plus, minus, theta, anti):
    """The compressed term's unitary on wires 2P and 2R, from its closed form:
    T + T+ = -1/2 (X_P X_R + Y_P Y_R), T - T+ = i/2 (Y_P X_R - X_P Y_R)."""
    p, r = 2 * plus, 2 * minus
    if anti:
        gen = 0.5j * (
            oracles.string_matrix(n, {p: "Y", r: "X"}) - oracles.string_matrix(n, {p: "X", r: "Y"})
        )
        return sla.expm(theta * gen)
    gen = -0.5 * (
        oracles.string_matrix(n, {p: "X", r: "X"}) + oracles.string_matrix(n, {p: "Y", r: "Y"})
    )
    return sla.expm(-0.5j * theta * gen)


class TestCompression:
    def test_compress_string_examples(self):
        """Pair letters through the measurement reduction's mask rule."""
        ctx = QSRContext(4, (), {}, ((0, 1), (2, 3)))
        s = oracles.from_letters(4, {0: "X", 1: "Y", 2: "Z"}, 2.0)
        reduced, factor = qsr_compress(s, ctx)
        assert reduced.letters() == {0: "Y", 1: "Z"}
        assert reduced.coeff == 2.0 and factor == 1.0
        s = oracles.from_letters(4, {0: "Y", 1: "Y", 2: "Y", 3: "Y"}, 1.0)
        reduced, factor = qsr_compress(s, ctx)
        assert reduced.letters() == {0: "X", 1: "X"}
        assert reduced.coeff == 1.0 and factor == 1.0  # two sign flips cancel
        s = oracles.from_letters(4, {0: "X", 1: "Z"}, 1.0)
        assert qsr_compress(s, ctx) == (None, 0.0)

    def _paired_term(self, theta, anti, n=4):
        seq = OrbitalSequence("double", (2, 3, 0, 1))
        term = tr.expand_term(seq, Transform.jordan_wigner(n), theta, anti=anti)
        split = tr.bosonic_reduce([term])
        assert split.kept == ()
        assert len(split.compressed) == 1
        return term, split

    def test_hermitian_compressed_strings(self):
        term, split = self._paired_term(0.8, anti=False)
        ct = split.compressed[0]
        assert (ct.source, ct.theta, ct.plus_pair, ct.minus_pair, ct.anti) == (
            term.source, 0.8, 1, 0, False
        )
        got = _circ_matrix(tr.compressed_circuit(ct, 4))
        assert np.abs(got - _closed_form(4, 1, 0, 0.8, False)).max() < 1e-12

    def test_antihermitian_compressed_strings(self):
        _, split = self._paired_term(0.8, anti=True)
        ct = split.compressed[0]
        assert (ct.theta, ct.plus_pair, ct.minus_pair, ct.anti) == (0.8, 1, 0, True)
        got = _circ_matrix(tr.compressed_circuit(ct, 4))
        assert np.abs(got - _closed_form(4, 1, 0, 0.8, True)).max() < 1e-12

    def test_negative_amplitude_folds_into_signs(self):
        for anti in (False, True):
            _, pos = self._paired_term(0.8, anti=anti)
            _, neg = self._paired_term(-0.8, anti=anti)
            u_pos = _circ_matrix(tr.compressed_circuit(pos.compressed[0], 4))
            u_neg = _circ_matrix(tr.compressed_circuit(neg.compressed[0], 4))
            assert np.abs(u_neg - _closed_form(4, 1, 0, -0.8, anti)).max() < 1e-12
            assert np.abs(u_neg - u_pos.conj().T).max() < 1e-12

    def test_compressed_circuit_counts(self):
        for anti in (False, True):
            _, split = self._paired_term(0.8, anti=anti)
            ct = split.compressed[0]
            m = metrics(tr.compressed_circuit(ct, 4))
            assert m.two_qubit == ct.two_qubit_cost == 2
            assert m.rz_count == 2

    def test_compressed_circuit_dense(self):
        """Every ordered pair of pairs on 6 modes, both conventions, with
        the pair between P and R (when there is one) left as identity."""
        n = 6
        jw = Transform.jordan_wigner(n)
        for plus, minus in itertools.permutations(range(n // 2), 2):
            seq = OrbitalSequence("double", (2 * plus, 2 * plus + 1, 2 * minus, 2 * minus + 1))
            for anti in (False, True):
                (ct,) = tr.bosonic_reduce([tr.expand_term(seq, jw, 0.8, anti=anti)]).compressed
                got = _circ_matrix(tr.compressed_circuit(ct, n))
                assert np.abs(got - _closed_form(n, plus, minus, 0.8, anti)).max() < 1e-12

    def test_closed_form_matches_reference(self):
        """Gate for gate, with bit-equal angles (signed zeros included), the
        closed form equals the Jordan-Wigner projection route of every
        paired double on 10 modes."""
        n = 10
        jw = Transform.jordan_wigner(n)
        for plus, minus in itertools.permutations(range(n // 2), 2):
            seq = OrbitalSequence("double", (2 * plus, 2 * plus + 1, 2 * minus, 2 * minus + 1))
            for anti in (False, True):
                for theta in (0.7, -0.7, 0.0, -0.0, 3.5):
                    term = tr.expand_term(seq, jw, theta, anti=anti)
                    (ct,) = tr.bosonic_reduce([term]).compressed
                    got = [
                        (g.kind, g.qubits, None if g.theta is None else float(g.theta).hex())
                        for g in tr.compressed_circuit(ct, n).gates
                    ]
                    want = [
                        (kind, qubits, None if angle is None else float(angle).hex())
                        for kind, qubits, angle in oracles.paired_compression_reference(
                            seq, n, theta, anti=anti
                        )
                    ]
                    assert got == want, (plus, minus, anti, theta)

    def test_wires_beyond_the_register_rejected(self):
        _, split = self._paired_term(0.8, anti=True)
        with pytest.raises(ValueError, match="fit"):
            tr.compressed_circuit(split.compressed[0], 2)
        with pytest.raises(ValueError, match="fit"):
            tr.restoration_circuit((0, 1), 3)

    def test_lift_identity(self):
        """Compressed form agrees with the full rotation after fan-out.

        With R the fan-out circuit, U_full . R and R . U_comp agree on every
        basis state whose odd pair wires start at zero.
        """
        for n, seq in (
            (4, OrbitalSequence("double", (2, 3, 0, 1))),
            (8, OrbitalSequence("double", (4, 5, 2, 3))),
        ):
            for anti in (False, True):
                term = tr.expand_term(seq, Transform.jordan_wigner(n), 0.6, anti=anti)
                split = tr.bosonic_reduce([term])
                ct = split.compressed[0]
                u_comp = _circ_matrix(tr.compressed_circuit(ct, n))
                u_full = _circ_matrix(tr.term_circuit(term))
                r = _circ_matrix(tr.restoration_circuit(split.touched_pairs, n))
                odd_mask = sum(1 << (2 * l + 1) for l in range(n // 2))
                cols = [s for s in range(1 << n) if s & odd_mask == 0]
                diff = u_full @ r - r @ u_comp
                assert np.abs(diff[:, cols]).max() < 1e-12

    def test_partition_and_bookkeeping(self):
        jw = Transform.jordan_wigner(8)
        seqs = [
            OrbitalSequence("double", (4, 5, 0, 1)),
            OrbitalSequence("double", (4, 6, 0, 1)),
            OrbitalSequence("single", (4, 0)),
            OrbitalSequence("double", (6, 7, 2, 3)),
        ]
        terms = [tr.expand_term(s, jw, 0.3, anti=True) for s in seqs]
        split = tr.bosonic_reduce(terms)
        assert len(split.compressed) == 2
        assert split.kept == (1, 2)
        assert split.touched_pairs == (0, 1, 2, 3)
        assert split.restoration_cnots == 4

    def test_occupation_conflict_blocks_compression(self):
        jw = Transform.jordan_wigner(4)
        term = tr.expand_term(
            OrbitalSequence("double", (2, 3, 0, 1)), jw, 0.3, anti=True
        )
        half = tr.bosonic_reduce([term], occupied=(0,))
        assert half.compressed == () and half.kept == (0,)
        full = tr.bosonic_reduce([term], occupied=(0, 1))
        assert len(full.compressed) == 1 and full.kept == ()

    def test_restoration_circuit_shape(self):
        circ = tr.restoration_circuit((0, 2), 6)
        assert [(g.kind, g.qubits) for g in circ.gates] == [
            ("CNOT", (0, 1)),
            ("CNOT", (4, 5)),
        ]


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


class TestSynthesizeAnsatz:
    def test_minimal_pool_counts(self):
        # two singles at 5 CNOTs each, one compressed double at 2, one
        # fan-out CNOT per touched pair
        pool = uccsd_pool((0, 1), (2, 3))
        plan = tr.synthesize_ansatz(pool, Transform.jordan_wigner(4), [0.1, 0.2, 0.3])
        assert plan.model_two_qubit == 5 + 5 + 2 + 2
        assert metrics(plan.circuit).two_qubit == plan.model_two_qubit
        assert plan.kept == (0, 1)
        assert len(plan.compressed) == 1

    def test_model_never_undercounts(self):
        pool = uccsd_pool((0, 1, 2, 3), (4, 5, 6, 7))
        jw = Transform.jordan_wigner(8)
        plan = tr.synthesize_ansatz(pool, jw, config=tr.HeuristicConfig(relabel=False))
        baseline = tr.synthesize_ansatz(
            pool,
            jw,
            config=tr.HeuristicConfig(relabel=False, reorder=False, bosonic=False),
        )
        assert metrics(plan.circuit).two_qubit == plan.model_two_qubit
        assert metrics(baseline.circuit).two_qubit == baseline.model_two_qubit
        assert plan.model_two_qubit < baseline.model_two_qubit

    def test_encoding_change_is_basis_conjugation(self):
        pool = uccsd_pool((0, 1), (2, 3))
        angles = [0.1, 0.2, 0.3]
        cfg = tr.HeuristicConfig(reorder=False, bosonic=False, relabel=False)
        rng = np.random.default_rng(3)
        jw = Transform.jordan_wigner(4)
        u_jw = _circ_matrix(tr.synthesize_ansatz(pool, jw, angles, cfg).circuit)
        for _ in range(3):
            t = Transform.from_lower_bits(4, _random_beta_bits(rng, 4))
            u_t = _circ_matrix(tr.synthesize_ansatz(pool, t, angles, cfg).circuit)
            b = _circ_matrix(t.basis_circuit())
            assert np.abs(u_t - b @ u_jw @ b.conj().T).max() < 1e-10

    def test_fast_cost_matches_plan(self):
        # the cost function plans without emitting; under JW its count is
        # the emitted circuit's, gate for gate
        pool = uccsd_pool((0, 1), (2, 3, 4, 5))
        jw = Transform.jordan_wigner(6)
        for anti, bosonic, reorder in itertools.product((False, True), repeat=3):
            cfg = tr.HeuristicConfig(reorder=reorder, bosonic=bosonic, anti=anti)
            plan = tr.plan_ansatz(pool, jw, config=cfg)
            assert plan.circuit is None
            fast = tr.ansatz_two_qubit_cost(pool, jw, cfg)
            emitted = tr.synthesize_ansatz(pool, jw, config=cfg)
            assert fast == plan.model_two_qubit == emitted.model_two_qubit
            assert metrics(emitted.circuit).two_qubit == fast

    def test_relabel_pass_runs_in_pipeline(self):
        pool = uccsd_pool((0, 1), (2, 3, 4, 5))
        bk = Transform.bravyi_kitaev(6)
        cfg = tr.HeuristicConfig(relabel=True)
        plan = tr.synthesize_ansatz(pool, bk, config=cfg)
        assert sorted(plan.labels) == list(range(6))
        assert metrics(plan.circuit).two_qubit == plan.model_two_qubit

    def test_occupation_filter_is_forwarded(self):
        pool = uccsd_pool((0, 1), (2, 3))
        plan = tr.synthesize_ansatz(
            pool, Transform.jordan_wigner(4), occupied=(0,)
        )
        assert plan.compressed == ()
        assert plan.kept == (0, 1, 2)

    def test_angle_length_mismatch_rejected(self):
        pool = uccsd_pool((0, 1), (2, 3))
        with pytest.raises(ValueError):
            tr.synthesize_ansatz(pool, Transform.jordan_wigner(4), [0.1])

    def test_report_round_trips_through_json(self):
        pool = uccsd_pool((0, 1), (2, 3))
        plan = tr.synthesize_ansatz(pool, Transform.jordan_wigner(4), [0.1, 0.2, 0.3])
        report = json.loads(json.dumps(tr.plan_report(plan)))
        assert report["n_qubits"] == 4
        assert report["model_two_qubit"] == plan.model_two_qubit
        assert report["metrics"]["two_qubit"] == plan.model_two_qubit
        assert report["restoration_cnots"] == len(plan.touched_pairs)
        names = {m["term"] for cls in report["classes"] for m in cls["members"]}
        names |= {c["term"] for c in report["compressed"]}
        names |= set(report["standalone"])
        assert names == {s.name for s in pool}
        unemitted = tr.plan_ansatz(pool, Transform.jordan_wigner(4), [0.1, 0.2, 0.3])
        assert json.loads(json.dumps(tr.plan_report(unemitted))) == {k: v for k, v in report.items() if k != "metrics"}

    def test_report_costs_are_additive(self):
        pool = uccsd_pool((0, 1, 2, 3), (4, 5, 6, 7))
        plan = tr.synthesize_ansatz(
            pool, Transform.jordan_wigner(8), config=tr.HeuristicConfig(relabel=False)
        )
        report = tr.plan_report(plan)
        total = sum(cls["cost"] for cls in report["classes"])
        total += sum(c["cost"] for c in report["compressed"])
        total += report["restoration_cnots"]
        assert total == report["model_two_qubit"]


# ---------------------------------------------------------------------------
# the emitted circuit against the emulator, on the statevector
# ---------------------------------------------------------------------------

_SV_MODES, _SV_ELECTRONS = 8, 4
_SV_ENCODINGS = {
    "jw": Transform.jordan_wigner(_SV_MODES),
    "bk": Transform.bravyi_kitaev(_SV_MODES),
    "beta": Transform.from_lower_bits(
        _SV_MODES, _random_beta_bits(np.random.default_rng(7), _SV_MODES)
    ),
}
_MISSING_BASIS_CHANGE = pytest.mark.xfail(
    strict=True,
    reason="open defect: with compressed terms under a non-identity encoding, "
    "the basis change B is not emitted between the restoration fan-out and "
    "the kept terms",
)


def _plan_order_cases():
    for relabel, name, bosonic, reorder in itertools.product(
        (False, True), _SV_ENCODINGS, (True, False), (True, False)
    ):
        marks = [_MISSING_BASIS_CHANGE] if bosonic and name != "jw" else []
        case = f"{name}-b{bosonic:d}-r{reorder:d}" + ("-l1" if relabel else "")
        yield pytest.param(name, bosonic, reorder, relabel, marks=marks, id=case)


class TestEmittedPeephole:
    @pytest.mark.parametrize("name", sorted(_SV_ENCODINGS))
    def test_blocks_match_reference(self, name, monkeypatch):
        """Every block ``emit_circuit`` reduces comes out as the numpy
        reference pass leaves it, and the circuit costs what the plan says."""
        n, n_e = _SV_MODES, _SV_ELECTRONS
        pool = uccsd_pool(range(n_e), range(n_e, n))
        blocks = []

        def recording(circ, *args, **kwargs):
            out = peephole_cancel(circ, *args, **kwargs)
            blocks.append((circ, out))
            return out

        monkeypatch.setattr(tr, "peephole_cancel", recording)
        plan = tr.synthesize_ansatz(pool, _SV_ENCODINGS[name], occupied=range(n_e))
        assert len(blocks) > 1
        for circ, out in blocks:
            ops = [(g.kind, g.qubits, g.theta) for g in circ.gates]
            want, phase = oracles.peephole_reference(ops, circ.global_phase)
            assert [(g.kind, g.qubits, g.theta) for g in out.gates] == want
            assert abs(out.global_phase - phase) <= 1e-12
        assert metrics(plan.circuit).two_qubit == plan.model_two_qubit


class TestPlanStatevector:
    @pytest.mark.parametrize("name,bosonic,reorder,relabel", _plan_order_cases())
    def test_circuit_is_ansatz_in_plan_order(self, name, bosonic, reorder, relabel):
        """The emitted circuit on the compressed reference equals the exact
        excitation exponentials applied to the reference in ``plan.order``.

        The compressed reference is the HF occupation with the partner wire
        of each fully occupied touched pair cleared (restoration sets it
        again).  It is encoded in the frame of the circuit's first stage:
        Jordan-Wigner when the plan compresses terms, otherwise the
        transform's.  A relabeled plan runs each excitation with its modes
        mapped through ``plan.labels`` and its angle signed by the remap.
        """
        n, n_e = _SV_MODES, _SV_ELECTRONS
        transform = _SV_ENCODINGS[name]
        pool = uccsd_pool(range(n_e), range(n_e, n))
        angles = np.random.default_rng(5).uniform(-0.6, 0.6, len(pool))
        cfg = tr.HeuristicConfig(bosonic=bosonic, reorder=reorder, relabel=relabel)
        plan = tr.synthesize_ansatz(pool, transform, angles, cfg, occupied=range(n_e))
        assert sorted(plan.order) == list(range(len(pool)))
        assert bool(plan.compressed) == bosonic
        if relabel and name == "bk":
            assert plan.labels == (4, 5, 2, 3, 0, 1, 6, 7)

        hf = (1 << n_e) - 1
        occupation = hf
        for idx in plan.touched_pairs:
            w0, w1 = 2 * idx, 2 * idx + 1
            if hf >> w0 & 1 and hf >> w1 & 1:
                occupation &= ~(1 << w1)
        frame = Transform.jordan_wigner(n) if plan.compressed else transform
        start = np.zeros(1 << n, dtype=complex)
        start[frame.encode_occupation(occupation)] = 1.0
        got = oracles.apply_to_state(plan.circuit, start)

        seqs, values = [], []
        for i in plan.order:
            mapped, sign = tr.permute_sequence(pool[i], plan.labels)
            seqs.append(mapped)
            values.append(sign * angles[i])
        ansatz = AnsatzOp.build(transform, seqs, values)
        want = apply_ansatz(hf_state(n_e, n, transform), ansatz).amplitudes
        assert abs(np.vdot(want, got)) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# the planner's output, pinned
# ---------------------------------------------------------------------------

_WATER = Path(__file__).parent / "fixtures" / "h2o_sto3g.fcidump"


def _reference_savings(strings, target):
    k = len(strings)
    out = [[0] * k for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        two, one = oracles.boundary_saving_reference(strings[i], strings[j], target)
        out[i][j] = out[j][i] = 2 * two + one
    return out


def _water_pool():
    """(modes, electrons, UCCSD pool) of STO-3G water."""
    ham, fock = load_fcidump(_WATER).to_spin_orbital()
    n, n_e = ham.n_modes, fock.n_electrons
    return n, n_e, uccsd_pool(range(n_e), range(n_e, n))


def _water_encoding(name, n):
    if name == "jw":
        return Transform.jordan_wigner(n)
    if name == "bk":
        return Transform.bravyi_kitaev(n)
    # "beta9": the unit-triangular encoding drawn from seed 9
    bits = np.random.default_rng(int(name[4:])).integers(0, 2, n * (n - 1) // 2)
    return Transform.from_lower_bits(n, bits.tolist())


def _gate_digest(circ):
    """sha256 over every gate's kind, wires and angle bits, in order."""
    h = hashlib.sha256()
    for g in circ.gates:
        theta = "-" if g.theta is None else float(g.theta).hex()
        h.update(f"{g.kind} {g.qubits} {theta}\n".encode())
    return h.hexdigest()


class TestPlannerPins:
    @pytest.mark.parametrize("name,cost", [("jw", 1261), ("bk", 1739)])
    def test_water_cost(self, name, cost):
        """Default config, HF modes occupied, STO-3G water's UCCSD pool."""
        n, n_e, pool = _water_pool()
        transform = _water_encoding(name, n)
        assert tr.ansatz_two_qubit_cost(pool, transform, occupied=range(n_e)) == cost

    @pytest.mark.parametrize(
        "name,two_qubit,n_gates,digest,phase",
        [
            ("jw", 1261, 11613,
             "fd009ffac8d832157dd7363e70adea400ab23dd7ed49c345447458e1633d33c0",
             -1 - 1.4729969016015758e-13j),
            ("bk", 1739, 10705,
             "2422815f933e45c9ddc18c1d0623c00c819ee35735ec74ab1bc860542331acbe",
             -0.7071067811864575 - 0.7071067811866375j),
            ("beta9", 3918, 17191,
             "64ef34a8aac80af03c737f1b4edb9f2109203b2caef9ac0a0a6f198eea7f8295",
             0.7071067811867092 - 0.7071067811863858j),
        ],
    )
    def test_water_circuit(self, name, two_qubit, n_gates, digest, phase):
        """The emitted water circuit, gate for gate with bit-equal angles:
        default config, HF modes occupied."""
        n, n_e, pool = _water_pool()
        plan = tr.synthesize_ansatz(pool, _water_encoding(name, n), occupied=range(n_e))
        assert metrics(plan.circuit).two_qubit == two_qubit
        assert len(plan.circuit.gates) == n_gates
        assert _gate_digest(plan.circuit) == digest
        assert abs(plan.circuit.global_phase - phase) <= 1e-12

    def test_h4_cost_under_seeded_encodings(self):
        """Default config, HF modes occupied, the 26-term H4 pool under 20
        unit-triangular encodings drawn from one seed."""
        pool = uccsd_pool(range(4), range(4, 8))
        rng = np.random.default_rng(8)
        costs = [
            tr.ansatz_two_qubit_cost(
                pool, Transform.from_lower_bits(8, rng.integers(0, 2, 28).tolist()), occupied=range(4)
            )
            for _ in range(20)
        ]
        assert costs == [
            281, 317, 307, 327, 298, 347, 312, 296, 310, 314,
            320, 282, 313, 311, 318, 285, 330, 312, 291, 302,
        ]

    @pytest.mark.parametrize("name", sorted(_SV_ENCODINGS))
    def test_class_choices_match_reference(self, name):
        """Each class member's choice is the reference path at the class's
        target, read in its lexicographically smaller direction."""
        n, n_e = _SV_MODES, _SV_ELECTRONS
        plan = tr.plan_ansatz(
            uccsd_pool(range(n_e), range(n_e, n)), _SV_ENCODINGS[name], occupied=range(n_e)
        )
        kept = [plan.terms[i] for i in plan.kept]
        placed = 0
        for cls in plan.inter.classes:
            for p in cls.placements:
                savings = _reference_savings(kept[p.index].strings, cls.target)
                _, path = oracles.max_path_reference(savings)
                path = min(path, path[::-1])
                want = tr.IntraChoice(
                    path, cls.target, tr.cost_breakdown(kept[p.index], path, cls.target)
                )
                assert p.choice == want
                placed += 1
        assert placed == len(kept) - len(plan.inter.standalone) > 0
