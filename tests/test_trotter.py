import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc import pso
from fqcc import trotter as tr
from fqcc.circuits import Circuit, Gate, metrics, peephole_cancel, shared_gate
from fqcc.fcidump import load_fcidump
from fqcc.fermions import OrbitalSequence, uccsd_pool
from fqcc.measure import QSRContext, qsr_compress
from fqcc.paulis import PauliString, PauliSum
from fqcc.simulate import AnsatzOp, Statevector, apply_ansatz
from fqcc.transform import EncodingStack, Transform

import oracles
import planner_oracles


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
        mat = oracles.string_matrix(term.n_qubits, oracles.letters(string))
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
        words = tuple(oracles.letter_word(s) for s in term.strings)
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
        words = [oracles.letter_word(s) for s in term.strings]
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
            identity_somewhere = any(oracles.letter(s, q) == "I" for s in term.strings)
            assert (q in term.eligible_targets) == (not identity_somewhere)

    @given(excitation_strategy(4, 14), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_lowest_mode_is_eligible(self, case, anti):
        """Under every unit lower-triangular beta, the excitation's lowest
        mode m is X or Y in every string: beta x has bit m set."""
        transform, seq = case
        term = tr.expand_term(seq, transform, 0.3, anti=anti)
        m = min(seq.indices)
        assert m in term.eligible_targets
        assert all(s.xmask >> m & 1 for s in term.strings)

    @given(excitation_strategy(4, 14), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_eligible_targets_are_x_or_y(self, case, anti):
        """Every eligible target is X or Y in every string, so a chain's
        target never turns between Z and X/Y at a junction, which
        ``_emit_chain`` needs."""
        transform, seq = case
        term = tr.expand_term(seq, transform, 0.3, anti=anti)
        assert all(s.xmask >> t & 1 for t in term.eligible_targets for s in term.strings)

    def test_lowest_mode_is_eligible_in_pools(self):
        """Whole UCCSD pools at 4-14 modes under JW, BK and seeded betas, in
        both conventions, and each pool relabeled by a seeded permutation."""
        rng = np.random.default_rng(31)
        checked = 0
        for n in range(4, 15):
            n_e = n // 2
            pool = uccsd_pool(range(n_e), range(n_e, n))
            perm = rng.permutation(n).tolist()
            relabeled = [tr.permute_sequence(seq, perm)[0] for seq in pool]
            encodings = [Transform.jordan_wigner(n), Transform.bravyi_kitaev(n)]
            encodings += [Transform.from_lower_bits(n, _random_beta_bits(rng, n)) for _ in range(3)]
            for seqs, transform, anti in itertools.product(
                (pool, relabeled), encodings, (False, True)
            ):
                terms = tr._expand_pool(seqs, transform, [0.3] * len(seqs), anti=anti)
                for seq, term in zip(seqs, terms):
                    assert min(seq.indices) in term.eligible_targets, (n, seq.name)
                    checked += 1
        assert checked > 5000

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
        assert set().union(*(oracles.letters(s) for s in term.strings)) == {0, 1, 2}


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

    def test_term_without_eligible_target_rejected(self):
        """No wire acts in every string: with no ``target`` there is no
        ladder target to share, so the term is rejected; a shared wire
        passed as ``target`` is used."""
        s1 = oracles.from_letters(3, {0: "Z", 1: "Z"}, 1.0)
        s2 = oracles.from_letters(3, {1: "Z", 2: "Z"}, 1.0)
        term = tr.TrotterTerm(None, 3, 0.5, 0.5, (s1, s2), (), False)
        with pytest.raises(ValueError, match="no eligible target"):
            tr.term_circuit(term)
        assert metrics(peephole_cancel(tr.term_circuit(term, target=1))).two_qubit == 4

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
                picks = [(c.ordering, t) for t, c in _per_target(term).items()]
                k = len(term.strings)
                picks.append((tuple(range(k)), term.eligible_targets[0]))
                shuffled = list(range(k))
                rng.shuffle(shuffled)
                picks.append((tuple(shuffled), rng.choice(term.eligible_targets)))
                for ordering, target in picks:
                    want = _cost(term, ordering, target)
                    assert want == planner_oracles.model_cost(term, ordering, target)
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


def _elision_cases():
    """(term, ordering, target) at every eligible target of seeded random
    singles and doubles on 4-8 modes, under JW, BK and seeded encodings,
    in both rotation conventions, each ordering shuffled."""
    rng = random.Random(23)
    nprng = np.random.default_rng(23)
    cases = []
    for n in range(4, 9):
        tfs = [
            Transform.jordan_wigner(n),
            Transform.bravyi_kitaev(n),
            Transform.from_lower_bits(n, _random_beta_bits(nprng, n)),
        ]
        for tf in tfs:
            for kind in ("double",) * 5 + ("single",) * 3:
                modes = rng.sample(range(n), 4)
                if kind == "double":
                    p, q = sorted(modes[:2])
                    r, s = sorted(modes[2:])
                    seq = OrbitalSequence("double", (p, q, r, s))
                else:
                    seq = OrbitalSequence("single", tuple(modes[:2]))
                term = tr.expand_term(seq, tf, rng.uniform(-2, 2), anti=rng.random() < 0.5)
                for target in term.eligible_targets:
                    ordering = list(range(len(term.strings)))
                    rng.shuffle(ordering)
                    cases.append((term, tuple(ordering), target))
    return cases


class TestBoundaryElision:
    """``term_circuit`` emits a term's blocks as the peephole leaves them;
    against ``oracles.term_circuit_reference``'s full ones."""

    def test_peephole_output_matches_reference(self):
        cases = _elision_cases()
        assert len(cases) > 300
        for term, ordering, target in cases:
            got = peephole_cancel(tr.term_circuit(term, ordering, target))
            want = peephole_cancel(oracles.term_circuit_reference(term, ordering, target))
            assert [(g.kind, g.qubits, g.theta) for g in got.gates] == [
                (g.kind, g.qubits, g.theta) for g in want.gates
            ], (term.source.name, term.n_qubits, ordering, target)
            assert abs(got.global_phase - want.global_phase) <= 1e-12

    def test_unreduced_unitaries_match_reference(self):
        checked = 0
        for term, ordering, target in _elision_cases():
            if term.n_qubits > 6:
                continue
            got = _circ_matrix(tr.term_circuit(term, ordering, target))
            want = _circ_matrix(oracles.term_circuit_reference(term, ordering, target))
            assert np.abs(got - want).max() < 1e-12
            checked += 1
        assert checked > 100

    def test_left_out_cnots_are_the_model_savings(self):
        """Each agreeing wire of a boundary loses two CNOTs and each
        differing wire one, and the circuit is the one the peephole leaves
        of the term's blocks with only the two-CNOT savings taken, as
        ``term_circuit`` once emitted them."""
        for term, ordering, target in _elision_cases():
            _, twos, ones = _model(term, ordering, target)
            got = tr.term_circuit(term, ordering, target)
            want = metrics(oracles.term_circuit_reference(term, ordering, target))
            assert metrics(got).two_qubit == want.two_qubit - 2 * sum(twos) - sum(ones)
            blocks = planner_oracles.term_blocks_reference(term, ordering, target)
            _assert_same_circuit(got, peephole_cancel(Circuit(term.n_qubits, 0, blocks)))


def _words(term):
    return [oracles.letters(s) for s in term.strings]


def _model(term, ordering, target):
    """The planner's accounting of one term in one string order at one
    target (``_along``): each block's letter count, then each boundary's
    agreeing and differing wire counts."""
    return tuple(tuple(part[0].tolist()) for part in _along_one(term, ordering, target))


def _along_one(term, ordering, target):
    x = np.array([term.strings[0].xmask], dtype=np.int64)
    z = np.array([[s.zmask for s in term.strings]], dtype=np.int64)
    return tr._along(x, z, np.array([ordering]), np.array([target]))


def _cost(term, ordering, target):
    """The planner's CNOT count of ``_model``'s accounting (``_costs``)."""
    return int(tr._costs(*_along_one(term, ordering, target))[0])


def _per_target(term):
    """The dynamic program's Choice at each eligible target of one term
    (``_dp_paths``), all targets in one call."""
    targets = term.eligible_targets
    x = np.full(len(targets), term.strings[0].xmask, dtype=np.int64)
    z = np.array([[s.zmask for s in term.strings]] * len(targets), dtype=np.int64).reshape(
        len(targets), len(term.strings)
    )
    paths = tr._dp_paths(x, z, np.array(targets, dtype=np.int64))
    return {
        t: planner_oracles.Choice(tuple(path), _cost(term, path, t))
        for t, path in zip(targets, paths.tolist())
    }


def _min_cost(term):
    """The cheapest count over a term's eligible targets."""
    return min(c.cost for c in _per_target(term).values())


def _reference_double(transform=None):
    return tr.expand_term(
        OrbitalSequence("double", (2, 3, 0, 1)), transform or Transform.jordan_wigner(4), 0.7
    )


class TestIntraOrder:
    """``_dp_paths``' dynamic program at each eligible target of one term
    against ``oracles.intra_minima``, which scores every ordering of every
    target."""

    def test_reference_double(self):
        # raw chain ladders cost 48 CNOTs; sharing and boundary cancellation
        # brings the verified optimum to 13
        term = _reference_double()
        cost, minima = oracles.intra_minima(_words(term), term.eligible_targets)
        assert _min_cost(term) == cost == 13
        target, ordering = minima[0]
        weight, _, _ = _model(term, ordering, target)
        assert 2 * (sum(weight) - len(weight)) == 48
        circ = tr.term_circuit(term, ordering, target)
        assert metrics(peephole_cancel(circ)).two_qubit == 13

    def test_minima_are_canonical_and_sorted(self):
        # each per-target optimum is the smaller of its ordering and the
        # reversal, and costs what enumerating that target alone finds
        term = _reference_double()
        for target, choice in _per_target(term).items():
            assert not choice.ordering[::-1] < choice.ordering
            cost, minima = oracles.intra_minima(_words(term), [target])
            assert choice.cost == cost
            assert minima == sorted(minima)

    def test_per_target_matches_enumeration(self):
        term = _reference_double()
        _, minima = oracles.intra_minima(_words(term), term.eligible_targets)
        for target, choice in _per_target(term).items():
            if choice.cost == _min_cost(term):
                first = next(o for t, o in minima if t == target)
                assert choice.ordering == first

    def test_single_excitation_ordering(self):
        term = tr.expand_term(
            OrbitalSequence("single", (2, 0)), Transform.jordan_wigner(4), 0.7, anti=True
        )
        cost, minima = oracles.intra_minima(_words(term), term.eligible_targets)
        assert all(ordering == (0, 1) for _, ordering in minima)
        assert _min_cost(term) == cost == 5

    def test_enumeration_never_beats_path_optimum(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            t = Transform.from_lower_bits(6, _random_beta_bits(rng, 6))
            modes = rng.choice(6, size=4, replace=False)
            p, q = sorted(int(m) for m in modes[:2])
            r, s = sorted(int(m) for m in modes[2:])
            term = tr.expand_term(OrbitalSequence("double", (p, q, r, s)), t, 0.3)
            for target, choice in _per_target(term).items():
                assert choice.cost == oracles.intra_minima(_words(term), [target])[0]


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
        """Mixed sizes in one call, with all-zero and heavily tied matrices:
        equal weight and equal path.  Batches that split one size are
        covered by ``test_chunk_boundaries`` and ``test_small_entry_budget``."""
        assert planner_oracles.max_paths_list(matrices) == [oracles.max_path_reference(m) for m in matrices]

    def test_chunk_boundaries(self):
        rng = random.Random(3)
        sizes = [8] * (2 * (tr._DP_ENTRIES // (8 << 8)) + 3) + list(range(1, 8)) * 3
        rng.shuffle(sizes)
        matrices = []
        for k in sizes:
            sym = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    sym[i][j] = sym[j][i] = rng.randint(0, 3)
            matrices.append(sym)
        assert planner_oracles.max_paths_list(matrices) == [oracles.max_path_reference(m) for m in matrices]

    @pytest.mark.parametrize("name", ["h4-jw", "h4-bk", "h4-beta0", "h4-beta1"])
    def test_planner_matrices_match_reference(self, name, monkeypatch):
        """Every savings matrix ``_dp_paths`` builds for H4's pool: the
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
            _per_target(tr.expand_term(seq, transform, anti=True))
        matrices = list(built.values())
        assert any(len(m) == 8 for m in matrices)
        assert planner_oracles.max_paths_list(matrices) == [oracles.max_path_reference(m) for m in matrices]

    def test_triple_table_holds_only_valid_triples(self):
        """At k = 8: sum_p C(8, p) p (8 - p) = 3,584 triples; each (mask, last)
        group lists the unvisited nodes once each, ascending, the j-th of
        them in the j-th block of ``len(rows)`` triples."""
        k = 8
        layers = tr._dp_triples(k)
        assert sum(len(tab) for _, _, tab, _ in layers) == 3584
        written = [row for rows, _, _, _ in layers for row in rows.tolist()]
        partial = range(1, (1 << k) - 1)
        assert sorted(written) == [m * k + v for m in partial for v in range(k) if m >> v & 1]
        for p, (rows, sav, tab, width) in zip(range(k - 1, 0, -1), layers):
            assert width == k - p
            assert rows.tolist() == sorted(rows.tolist())
            for row, group_sav, group_tab in zip(
                rows.tolist(), sav.reshape(width, -1).T.tolist(), tab.reshape(width, -1).T.tolist()
            ):
                mask, last = divmod(row, k)
                assert mask.bit_count() == p and mask >> last & 1
                nodes = [nxt for nxt in range(k) if not mask >> nxt & 1]
                assert group_sav == [last * k + nxt for nxt in nodes]
                assert group_tab == [(mask | 1 << nxt) * k + nxt for nxt in nodes]

    def test_small_entry_budget(self, monkeypatch):
        """A 48-entry budget: batches of 6 matrices at k = 2, 2 at k = 3 and
        1 from k = 4 up, so every size but k = 1 splits into batches; the
        results stay the reference's, and a bad matrix in a later batch
        still raises."""
        monkeypatch.setattr(tr, "_DP_ENTRIES", 48)
        rng = random.Random(5)
        matrices = []
        for k in [1, 2, 3, 4, 5, 8] * 7:
            m = [[0 if i == j else rng.randint(0, 2) for j in range(k)] for i in range(k)]
            matrices.append(m)
        assert planner_oracles.max_paths_list(matrices) == [oracles.max_path_reference(m) for m in matrices]
        negative = [[0, -1, 0], [0, 0, 0], [0, 0, 0]]
        with pytest.raises(ValueError, match="non-negative"):
            tr._max_paths([[[0, 1, 1], [1, 0, 1], [1, 1, 0]]] * 5 + [negative])
        big = [[0, 2**30, 2**30], [2**30, 0, 2**30], [2**30, 2**30, 0]]
        with pytest.raises(ValueError, match="overflow"):
            tr._max_paths([[[0, 1, 1], [1, 0, 1], [1, 1, 0]]] * 5 + [big])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            tr._max_paths([[[0, -5, 1], [-5, 0, -2], [1, -2, 0]]])

    def test_int32_overflow_rejected(self):
        """Two steps of 2**30 reach 2**31; one less per step still fits."""
        fits = [[0, 2**30 - 1, 2**30 - 1], [2**30 - 1, 0, 2**30 - 1], [2**30 - 1, 2**30 - 1, 0]]
        assert planner_oracles.max_paths_list([fits]) == [oracles.max_path_reference(fits)]
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
        """Random string pairs; the target may lie outside either support.
        ``planner_oracles.boundary_wires``, the junctions' mask form, and
        the savings' and ``_along``'s mask form for strings that share x."""
        n, x1, z1, x2, z2, target = case
        a, b = PauliString(n, x1, z1), PauliString(n, x2, z2)
        two, one = oracles.boundary_saving_reference(a, b, target)
        agree, differ = planner_oracles.boundary_wires(a, b, target)
        assert (agree.bit_count(), differ.bit_count()) == (two, one)
        last, first = (tuple(np.array([[v]]) for v in pair) for pair in ((x1, z1), (x2, z2)))
        assert tr._junctions(last, first, np.array([target]))[0, 0, 0] == 2 * two + one

        two, one = oracles.boundary_saving_reference(a, PauliString(n, x1, z2), target)
        x, z, t = np.array([x1]), np.array([[z1, z2]]), np.array([target])
        assert tr._savings(x, z, t)[0, 0, 1] == 2 * two + one
        _, agree, differ = tr._along(x, z, None, t)
        assert (agree[0, 0], differ[0, 0]) == (two, one)


# ---------------------------------------------------------------------------
# level relabeling
# ---------------------------------------------------------------------------


def _relabeled_count(seqs, transform, labels, config=tr.HeuristicConfig(), occupied=None):
    """The planner's count of ``seqs`` relabeled by ``labels``, relabeling off."""
    mapped = [tr.permute_sequence(seq, labels)[0] for seq in seqs]
    occ = None if occupied is None else [labels[m] for m in occupied]
    config = dataclasses.replace(config, relabel=False)
    return tr.plan_ansatz(mapped, transform, config=config, occupied=occ).model_two_qubit


class TestRelabeling:
    def test_candidate_counts(self):
        # one swap of two spatial orbitals: C(n/2, 2) candidates
        assert len(tr._pair_swap_perms(4)) == 6
        assert len(tr._pair_swap_perms(5)) == 10
        assert len(tr._pair_swap_perms(7)) == 21

    def test_candidates_are_pairwise_permutations(self):
        for perm in tr._pair_swap_perms(4):
            assert sorted(perm) == list(range(8))
            assert all(perm[2 * l + 1] == perm[2 * l] + 1 for l in range(4))
            assert sum(m != perm[m] for m in range(8)) == 4

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
        labels = tr.relabel_levels(seqs, bk, tr.HeuristicConfig())
        assert sorted(labels) == list(range(6))
        identity = _relabeled_count(seqs, bk, tuple(range(6)))
        assert _relabeled_count(seqs, bk, labels) < identity  # this instance strictly improves

    def test_result_is_locally_optimal(self):
        seqs = [
            OrbitalSequence("double", (2, 3, 0, 1)),
            OrbitalSequence("double", (4, 5, 0, 1)),
            OrbitalSequence("single", (4, 0)),
        ]
        bk = Transform.bravyi_kitaev(6)
        labels = tr.relabel_levels(seqs, bk, tr.HeuristicConfig())
        cost = _relabeled_count(seqs, bk, labels)
        for cand in tr._pair_swap_perms(3):
            assert _relabeled_count(seqs, bk, tuple(cand[m] for m in labels)) >= cost

    def test_odd_mode_count_rejected(self):
        with pytest.raises(ValueError):
            tr.relabel_levels(
                [OrbitalSequence("single", (1, 0))], Transform.jordan_wigner(3), tr.HeuristicConfig()
            )


# ---------------------------------------------------------------------------
# cross-term ordering
# ---------------------------------------------------------------------------


def _inter_order(terms, transform):
    """The class chains of expanded terms: ``plan_ansatz``'s, with
    compression off, on their excitations and angles."""
    config = tr.HeuristicConfig(bosonic=False, anti=terms[0].anti)
    plan = tr.plan_ansatz([t.source for t in terms], transform, [t.theta for t in terms], config)
    assert plan.terms == tuple(terms)
    return plan.classes


class TestInterOrder:
    def _singles(self, pairs, n, transform=None):
        t = transform if transform is not None else Transform.jordan_wigner(n)
        return [
            tr.expand_term(OrbitalSequence("single", pq), t, 0.3, anti=True)
            for pq in pairs
        ]

    def test_shared_wire_forms_one_class(self):
        terms = self._singles([(4, 0), (6, 0), (5, 1)], 8)
        classes = _inter_order(terms, Transform.jordan_wigner(8))
        by_target = {cls.target: cls for cls in classes}
        assert set(by_target) == {0, 1}
        assert len(by_target[0].placements) == 2
        assert len(by_target[1].placements) == 1

    def test_tie_breaks_to_smallest_wire(self):
        terms = self._singles([(1, 0), (2, 0), (3, 1)], 4)
        classes = _inter_order(terms, Transform.jordan_wigner(4))
        assert [cls.target for cls in classes] == [0, 1]
        assert sorted(p.index for p in classes[0].placements) == [0, 1]
        assert [p.index for p in classes[1].placements] == [2]

    def test_members_partition_terms(self):
        pool = uccsd_pool((0, 1, 2, 3), (4, 5, 6, 7))
        jw = Transform.jordan_wigner(8)
        terms = [tr.expand_term(s, jw, 0.1, anti=True) for s in pool]
        classes = _inter_order(terms, jw)
        seen = [p.index for cls in classes for p in cls.placements]
        assert sorted(seen) == list(range(len(terms)))
        for cls in classes:
            for p in cls.placements:
                assert p.cost == _cost(terms[p.index], p.ordering, cls.target)
            assert len(cls.junction_savings) == len(cls.placements) - 1

    def test_disjoint_supports_save_nothing(self):
        terms = self._singles([(1, 0), (3, 2), (5, 4)], 6)
        classes = _inter_order(terms, Transform.jordan_wigner(6))
        assert all(len(cls.placements) == 1 for cls in classes)
        assert all(cls.junction_savings == () for cls in classes)
        assert sum(cls.cost for cls in classes) == sum(_min_cost(t) for t in terms)

    def test_chain_saves_over_isolated_blocks(self):
        terms = self._singles([(4, 0), (6, 0), (5, 0)], 8)
        classes = _inter_order(terms, Transform.jordan_wigner(8))
        isolated = sum(_min_cost(t) for t in terms)
        assert sum(cls.cost for cls in classes) < isolated
        assert sum(classes[0].junction_savings) > 0


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
        assert oracles.letters(reduced) == {0: "Y", 1: "Z"}
        assert reduced.coeff == 2.0 and factor == 1.0
        s = oracles.from_letters(4, {0: "Y", 1: "Y", 2: "Y", 3: "Y"}, 1.0)
        reduced, factor = qsr_compress(s, ctx)
        assert oracles.letters(reduced) == {0: "X", 1: "X"}
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
        assert names == {s.name for s in pool} and "standalone" not in report
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


def _assert_circuit_is_ansatz(plan, pool, angles, transform):
    """The emitted circuit on the compressed reference equals the exact
    excitation exponentials applied to the reference in ``plan.order``.

    The reference is the HF occupation mapped through ``plan.labels``
    (the identity unless relabeled), and a relabeled plan runs each
    excitation with its modes mapped the same way and its angle signed by
    the remap.  The compressed reference is that occupation with the
    partner wire of each fully occupied touched pair cleared (restoration
    sets it again).  It is encoded in the frame of the circuit's first
    stage: Jordan-Wigner when the plan compresses terms, otherwise the
    transform's.  The exact state is emulated in the occupation basis and
    permuted by x -> beta x into the transform's basis.
    """
    n, n_e = _SV_MODES, _SV_ELECTRONS
    hf = sum(1 << plan.labels[m] for m in range(n_e))
    occupation = hf
    for idx in plan.touched_pairs:
        w0, w1 = 2 * idx, 2 * idx + 1
        if hf >> w0 & 1 and hf >> w1 & 1:
            occupation &= ~(1 << w1)
    frame = Transform.jordan_wigner(n) if plan.compressed else transform
    start = np.zeros(1 << n, dtype=complex)
    start[oracles.encode_occupation(frame, occupation)] = 1.0
    got = oracles.apply_to_state(plan.circuit, start)

    seqs, values = [], []
    for i in plan.order:
        mapped, sign = tr.permute_sequence(pool[i], plan.labels)
        seqs.append(mapped)
        values.append(sign * angles[i])
    ansatz = AnsatzOp.build(n, seqs, values)
    emulated = apply_ansatz(Statevector.basis(n, hf), ansatz).amplitudes
    want = oracles.encoded_amplitudes(transform, emulated)
    assert abs(np.vdot(want, got)) == pytest.approx(1.0, abs=1e-9)


class TestEmittedPeephole:
    @pytest.mark.parametrize("name", sorted(_SV_ENCODINGS))
    def test_blocks_match_reference(self, name, monkeypatch):
        """The prefix ``emit_circuit`` reduces comes out as the numpy
        reference pass leaves it, every class chain comes out as both passes
        leave it (``_assert_emission``), and the circuit costs what the plan
        says."""
        n, n_e = _SV_MODES, _SV_ELECTRONS
        pool = uccsd_pool(range(n_e), range(n_e, n))
        calls, chains = _record_emission(monkeypatch)
        plan = tr.synthesize_ansatz(pool, _SV_ENCODINGS[name], occupied=range(n_e))
        monkeypatch.undo()
        assert len(chains) > 1
        _assert_emission(plan, plan.circuit, calls, chains)
        assert metrics(plan.circuit).two_qubit == plan.model_two_qubit

    @pytest.mark.parametrize("name", ["jw", "bk", "beta9"])
    def test_one_peephole_call_on_the_prefix(self, name, monkeypatch):
        """``synthesize_ansatz`` calls ``peephole_cancel`` once per plan, on
        the prefix: on water, the compressed blocks and the fan-out go from
        187 gates to 93 with their 27 CNOTs kept, under JW, BK and a seeded
        encoding, and the circuit loses exactly those 94 one-qubit gates."""
        n, n_e, pool = _water_pool()
        calls, chains = _record_emission(monkeypatch)
        plan = tr.synthesize_ansatz(pool, _water_encoding(name, n), occupied=range(n_e))
        monkeypatch.undo()
        [(given, out)] = calls
        assert (len(given.gates), len(out.gates)) == (187, 93)
        assert metrics(given).two_qubit == metrics(out).two_qubit == 27
        emitted = sum(len(chain.gates) for chain in chains)
        assert len(plan.circuit.gates) == len(given.gates) + emitted - 94
        assert metrics(plan.circuit).two_qubit == plan.model_two_qubit


class TestPlanStatevector:
    @pytest.mark.parametrize("name,bosonic,reorder,relabel", _plan_order_cases())
    def test_circuit_is_ansatz_in_plan_order(self, name, bosonic, reorder, relabel):
        """The emitted circuit is the ansatz (``_assert_circuit_is_ansatz``)."""
        n, n_e = _SV_MODES, _SV_ELECTRONS
        transform = _SV_ENCODINGS[name]
        pool = uccsd_pool(range(n_e), range(n_e, n))
        angles = np.random.default_rng(5).uniform(-0.6, 0.6, len(pool))
        cfg = tr.HeuristicConfig(bosonic=bosonic, reorder=reorder, relabel=relabel)
        plan = tr.synthesize_ansatz(pool, transform, angles, cfg, occupied=range(n_e))
        assert sorted(plan.order) == list(range(len(pool)))
        assert bool(plan.compressed) == bosonic
        assert metrics(plan.circuit).two_qubit == plan.model_two_qubit
        if relabel and name == "bk":
            # the labels follow the planner's count, so they follow its passes
            want = (6, 7, 2, 3, 4, 5, 0, 1) if bosonic or reorder else (4, 5, 2, 3, 0, 1, 6, 7)
            assert plan.labels == want
        _assert_circuit_is_ansatz(plan, pool, angles, transform)


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
            ("jw", 1261, 11519,
             "f0f90eee7c974001eca2eb8db650102f2f9906c640b90d8c9e0ad82d01d67f63",
             -1 - 1.4729969016015758e-13j),
            ("bk", 1739, 10611,
             "366c2a4401f1dc3ba407a4a0072b3f35529a6f44f8faa37b5ddbfc5f577085a8",
             -0.7071067811864575 - 0.7071067811866375j),
            ("beta9", 3918, 17097,
             "a6c47136360811f098a080de7db91770238264ff0c4ddae441a2d5940167d693",
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
        """Each class member's string order is the reference path at the
        class's target, read in its lexicographically smaller direction and
        reversed when the member is, at the reference count."""
        n, n_e = _SV_MODES, _SV_ELECTRONS
        plan = tr.plan_ansatz(
            uccsd_pool(range(n_e), range(n_e, n)), _SV_ENCODINGS[name], occupied=range(n_e)
        )
        kept = [plan.terms[i] for i in plan.kept]
        placed = 0
        for cls in plan.classes:
            for p in cls.placements:
                savings = _reference_savings(kept[p.index].strings, cls.target)
                _, path = oracles.max_path_reference(savings)
                path = min(path, path[::-1])
                choice = planner_oracles.Choice(
                    path, planner_oracles.model_cost(kept[p.index], path, cls.target)
                )
                assert p == planner_oracles.placement(p.index, choice, p.reverse)
                placed += 1
        assert placed == len(kept) > 0


# ---------------------------------------------------------------------------
# chain emission against the emitter it replaced
# ---------------------------------------------------------------------------

_EMISSION_CONFIGS = {
    "default": tr.HeuristicConfig(),
    "relabel": tr.HeuristicConfig(relabel=True),
    "no-bosonic": tr.HeuristicConfig(bosonic=False),
    "no-reorder": tr.HeuristicConfig(reorder=False),
    "hermitian": tr.HeuristicConfig(anti=False),
}


def _emission_corpus(n):
    """(pool, transform, angles, config, electrons) on n modes: JW, BK and
    two seeded encodings under every ``_EMISSION_CONFIGS`` entry (relabeling
    up to 8 modes), angles drawn uniformly from (-9, 9)."""
    rng = np.random.default_rng(100 + n)
    n_e = n // 2
    pool = uccsd_pool(range(n_e), range(n_e, n))
    transforms = [Transform.jordan_wigner(n), Transform.bravyi_kitaev(n)]
    transforms += [Transform.from_lower_bits(n, _random_beta_bits(rng, n)) for _ in range(2)]
    for transform in transforms:
        for name, config in _EMISSION_CONFIGS.items():
            if config.relabel and n > 8:
                continue
            yield pool, transform, rng.uniform(-9, 9, len(pool)), config, n_e


def _assert_same_circuit(got, want):
    """Gate for gate: kinds, wires and bit-equal angles; phase to 1e-12."""
    assert [(g.kind, g.qubits, g.theta) for g in got.gates] == [
        (g.kind, g.qubits, g.theta) for g in want.gates
    ]
    assert abs(got.global_phase - want.global_phase) <= 1e-12


def _record_emission(monkeypatch):
    """Lists that receive, until ``monkeypatch`` is undone, the (input,
    output) of every ``peephole_cancel`` call ``trotter`` makes and every
    class chain ``_emit_chain`` returns, as a circuit."""
    calls, chains = [], []
    emit_chain = tr._emit_chain

    def recording(circ):
        out = peephole_cancel(circ)
        # the caller appends to the circuit it gets back, so keep a copy
        calls.append((circ, Circuit(out.n_data, out.n_ancilla, list(out.gates), out.global_phase)))
        return out

    def emitting(chain, target, n):
        gates, phase = emit_chain(chain, target, n)
        chains.append(Circuit(n, 0, list(gates), phase))
        return gates, phase

    monkeypatch.setattr(tr, "peephole_cancel", recording)
    monkeypatch.setattr(tr, "_emit_chain", emitting)
    return calls, chains


def _emitted_chains(plan, monkeypatch):
    """``emit_circuit(plan)``, its peephole calls and its class chains
    (``_record_emission``)."""
    calls, chains = _record_emission(monkeypatch)
    circuit = tr.emit_circuit(plan)
    monkeypatch.undo()
    return circuit, calls, chains


def _peephole_reference(circ):
    """``oracles.peephole_reference`` of a circuit, as a circuit."""
    ops, phase = oracles.peephole_reference(
        [(g.kind, g.qubits, g.theta) for g in circ.gates], circ.global_phase
    )
    return Circuit(circ.n_data, circ.n_ancilla, [Gate(*op) for op in ops], phase)


def _assert_emission(plan, circuit, calls, chains):
    """``circuit`` is the plan's emission with one peephole call, on the
    prefix (the compressed blocks, then the restoration fan-out), which
    returns what the numpy reference pass does; every class chain is at
    the fixpoint of ``peephole_cancel`` and of the reference pass; and the
    circuit is the reduced prefix followed by the chains as emitted."""
    [(given, out)] = calls
    _assert_same_circuit(given, planner_oracles.prefix_reference(plan))
    _assert_same_circuit(out, _peephole_reference(given))
    assert len(chains) == len(plan.classes)
    want = Circuit(plan.n_qubits, 0, list(out.gates), out.global_phase)
    for chain in chains:
        _assert_same_circuit(peephole_cancel(chain), chain)
        _assert_same_circuit(_peephole_reference(chain), chain)
        want.gates += chain.gates
        want.global_phase *= chain.global_phase
    _assert_same_circuit(circuit, want)


class TestChainEmission:
    """``emit_circuit`` builds each class chain at the peephole's fixpoint:
    the circuit ``planner_oracles.emit_circuit_reference`` reduces from whole
    blocks, gate for gate, with nothing left for the peephole to do on any
    chain (``_assert_emission``)."""

    @pytest.mark.parametrize("name", ["jw", "bk", "beta9"])
    def test_water_matches_reference(self, name, monkeypatch):
        n, n_e, pool = _water_pool()
        plan = tr.plan_ansatz(pool, _water_encoding(name, n), occupied=range(n_e))
        circuit, calls, chains = _emitted_chains(plan, monkeypatch)
        _assert_same_circuit(circuit, planner_oracles.emit_circuit_reference(plan))
        _assert_emission(plan, circuit, calls, chains)

    @pytest.mark.parametrize("name", ["jw", "bk", "beta9"])
    def test_water_gates_are_shared(self, name):
        """Every angle-free gate of water's circuit is the one
        ``shared_gate`` instance of its kind and wires, which the
        peephole's per-id description memo and the circuit's memory rely
        on; only rotations are built per angle."""
        n, n_e, pool = _water_pool()
        plan = tr.synthesize_ansatz(pool, _water_encoding(name, n), occupied=range(n_e))
        fixed = [g for g in plan.circuit.gates if g.theta is None]
        assert len(fixed) > len(plan.circuit.gates) // 2
        assert all(g is shared_gate(g.kind, g.qubits) for g in fixed)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_seeded_corpus_matches_reference(self, n, monkeypatch):
        checked = 0
        for pool, transform, angles, config, n_e in _emission_corpus(n):
            plan = tr.plan_ansatz(pool, transform, angles, config, occupied=range(n_e))
            circuit, calls, chains = _emitted_chains(plan, monkeypatch)
            _assert_same_circuit(circuit, planner_oracles.emit_circuit_reference(plan))
            _assert_emission(plan, circuit, calls, chains)
            assert metrics(circuit).two_qubit == plan.model_two_qubit
            checked += 1
        assert checked == 4 * (len(_EMISSION_CONFIGS) - (n > 8))

    def test_zero_angle_rotations(self):
        """A string whose angle folds to 0 is dropped before its chain is
        emitted, so the chain is still at the peephole's fixpoint: H4 under
        JW with every third angle 0 takes 139 CNOTs, as on the reference
        (202 in the model), and the circuit is still the ansatz."""
        n, n_e = _SV_MODES, _SV_ELECTRONS
        pool = uccsd_pool(range(n_e), range(n_e, n))
        angles = [0.0 if i % 3 == 0 else 1.0 for i in range(len(pool))]
        transform = Transform.jordan_wigner(n)
        plan = tr.synthesize_ansatz(pool, transform, angles, occupied=range(n_e))
        assert metrics(plan.circuit).two_qubit == 139
        assert metrics(planner_oracles.emit_circuit_reference(plan)).two_qubit == 139
        assert plan.model_two_qubit == 202
        _assert_circuit_is_ansatz(plan, pool, angles, transform)

    def test_dropped_strings_keep_their_phase(self):
        """A string whose angle folds to 0 leaves no gate but its phase, -1
        at an odd multiple of 2 pi; the chain is still the product of its
        rotations exp(-i angle/2 P), phase included."""
        n = 3
        chain = [
            (0b011, 0b001, 2 * math.pi), (0b011, 0b010, 1.0), (0b111, 0b000, -2 * math.pi),
            (0b011, 0b000, 4 * math.pi), (0b101, 0b100, 0.0), (0b001, 0b000, 6 * math.pi),
        ]
        gates, phase = tr._emit_chain(chain, 0, n)
        assert phase == -1.0 and [g.kind for g in gates].count("Rz") == 1
        want = np.eye(1 << n)
        for x, z, angle in chain:
            pauli = oracles.sum_matrix(PauliSum(n, {(x, z): 1.0}))
            want = sla.expm(-0.5j * angle * pauli) @ want
        assert np.allclose(oracles.unitary(Circuit(n, 0, gates, phase)), want, atol=1e-12)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_special_angles_leave_the_peephole_nothing(self, data):
        """Term angles of 0, multiples of 2 pi, +-pi/2 and pi, under every
        encoding (bosonic compression on JW only, as the basis change B is
        not emitted yet): every chain comes back from the peephole and from
        its numpy reference unchanged (``_assert_emission``), the circuit is
        the ansatz, and it is the reference's unitary, global phase
        included."""
        n, n_e = _SV_MODES, _SV_ELECTRONS
        pool = uccsd_pool(range(n_e), range(n_e, n))
        name = data.draw(st.sampled_from(sorted(_SV_ENCODINGS)))
        special = st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]) | st.integers(
            -8, 8
        ).map(lambda k: 2.0 * math.pi * k)
        angles = data.draw(st.lists(special, min_size=len(pool), max_size=len(pool)))
        config = tr.HeuristicConfig(bosonic=name == "jw")
        transform = _SV_ENCODINGS[name]
        plan = tr.plan_ansatz(pool, transform, angles, config, occupied=range(n_e))
        with pytest.MonkeyPatch.context() as patch:
            plan.circuit, calls, chains = _emitted_chains(plan, patch)
        _assert_emission(plan, plan.circuit, calls, chains)
        _assert_circuit_is_ansatz(plan, pool, angles, transform)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        want = oracles.apply_to_state(planner_oracles.emit_circuit_reference(plan), vec)
        assert np.allclose(oracles.apply_to_state(plan.circuit, vec), want, atol=1e-9)


# ---------------------------------------------------------------------------
# the array planner against the planner on Python ints, bit for bit
# ---------------------------------------------------------------------------


def _planner_cases():
    """(pool, transform, electrons) per name: H2, H4 and water under JW, BK
    and one seeded encoding each."""
    rng = np.random.default_rng(19)
    cases = {}
    for system, n, n_e in (("h2", 4, 2), ("h4", 8, 4), ("water", 14, 10)):
        pool = uccsd_pool(range(n_e), range(n_e, n))
        for enc, transform in (
            ("jw", Transform.jordan_wigner(n)),
            ("bk", Transform.bravyi_kitaev(n)),
            ("beta", Transform.from_lower_bits(n, _random_beta_bits(rng, n))),
        ):
            cases[f"{system}-{enc}"] = (pool, transform, n_e)
    return cases


_PLANNER_CASES = _planner_cases()

_PLANNER_CONFIGS = {
    "default": tr.HeuristicConfig(),
    "relabel": tr.HeuristicConfig(relabel=True),
    "no-bosonic": tr.HeuristicConfig(bosonic=False),
    "no-reorder": tr.HeuristicConfig(reorder=False),
}


@functools.cache
def _relabeled_plan(case):
    """The plan of a planner case with relabeling on, HF modes occupied."""
    pool, transform, n_e = _PLANNER_CASES[case]
    return tr.plan_ansatz(pool, transform, config=_PLANNER_CONFIGS["relabel"], occupied=range(n_e))


class TestArrayPlanner:
    """The pool expansion, the savings and breakdown arrays, and the
    junction matrices give what ``oracles`` computes one term and one pair
    at a time: the same objects, field for field."""

    @pytest.mark.parametrize("anti", (True, False))
    @pytest.mark.parametrize("case", sorted(_PLANNER_CASES))
    def test_pool_expansion_matches_reference(self, case, anti):
        """Every pool term, with signed zero angles among them (``repr``
        tells -0.0 from 0.0); ``expand_term`` is the one-term call."""
        pool, transform, _ = _PLANNER_CASES[case]
        thetas = [(0.0, -0.0, 0.3 - 0.05 * i)[i % 3] for i in range(len(pool))]
        want = tuple(
            planner_oracles.expand_term_reference(seq, transform, theta, anti=anti)
            for seq, theta in zip(pool, thetas)
        )
        got = tr._expand_pool(pool, transform, thetas, anti=anti)
        assert got == want and repr(got) == repr(want)
        single = tuple(
            tr.expand_term(seq, transform, theta, anti=anti) for seq, theta in zip(pool, thetas)
        )
        assert repr(single) == repr(want)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda spatial: st.tuples(
                st.just(2 * spatial),
                st.integers(1, spatial - 1).map(lambda occ: 2 * occ),
                st.lists(
                    st.integers(0, 1),
                    min_size=spatial * (2 * spatial - 1),
                    max_size=spatial * (2 * spatial - 1),
                ),
                st.booleans(),
            )
        )
    )
    def test_pool_expansion_under_random_encodings(self, case):
        """Random unit-lower-triangular beta at 4-10 modes, the whole UCCSD
        pool of an even electron count."""
        n, n_e, bits, anti = case
        transform = Transform.from_lower_bits(n, bits)
        pool = uccsd_pool(range(n_e), range(n_e, n))
        thetas = [0.1 * (i + 1) for i in range(len(pool))]
        want = tuple(
            planner_oracles.expand_term_reference(seq, transform, theta, anti=anti)
            for seq, theta in zip(pool, thetas)
        )
        assert tr._expand_pool(pool, transform, thetas, anti=anti) == want

    @pytest.mark.parametrize("config", sorted(_PLANNER_CONFIGS))
    @pytest.mark.parametrize("case", sorted(_PLANNER_CASES))
    def test_plan_matches_reference(self, case, config):
        """HF modes occupied.  A relabeled plan is checked against the
        reference on the pool relabeled by the plan's own labels."""
        pool, transform, n_e = _PLANNER_CASES[case]
        cfg = _PLANNER_CONFIGS[config]
        if cfg.relabel:
            got = _relabeled_plan(case)
            labels = got.labels
        else:
            got = tr.plan_ansatz(pool, transform, config=cfg, occupied=range(n_e))
            labels = None
        want = planner_oracles.plan_ansatz_reference(
            pool, transform, cfg, occupied=range(n_e), labels=labels
        )
        assert got.labels == want.labels and got.terms == want.terms
        assert got.kept == want.kept and got.compressed == want.compressed
        assert got.classes == want.classes
        assert got.model_two_qubit == want.model_two_qubit

    def test_tied_chains_match_reference(self):
        """Classes whose junctions tie: copies of one term, where every
        oriented pair and every growth candidate scores the same, and
        random terms on three wires, where many do.  The chain is the
        reference's, so ties go to the first strict maximum in the scan
        order of ``inter_order``'s docstring."""
        jw = Transform.jordan_wigner(6)
        copy = tr.expand_term(OrbitalSequence("double", (4, 5, 0, 1)), jw, 0.3, anti=True)
        terms = [copy] * 5
        choices = {i: _per_target(copy)[0] for i in range(5)}
        got, _ = _chain_class(terms, choices, list(range(5)), 0)
        assert got == planner_oracles.chain_class_reference(terms, choices, list(range(5)), 0)
        # junctions alternate 3 and 6 with the orientations: the seed is
        # members 0 and 1, and each next member joins as a prefix, the
        # first candidate tried at that end
        assert [(p.index, p.reverse) for p in got.placements] == [
            (4, True), (3, False), (2, True), (0, False), (1, True),
        ]
        assert got.junction_savings == (6, 6, 6, 6)

        rng = random.Random(7)
        tied = 0
        for _ in range(300):
            m = rng.randint(2, 9)
            terms, choices = [], {}
            for i in range(m):
                k = rng.randint(1, 4)
                strings = tuple(
                    PauliString(3, rng.randrange(8), rng.randrange(8), 1.0) for _ in range(k)
                )
                terms.append(tr.TrotterTerm(None, 3, 0.1, 0.1, strings, (0, 1, 2)))
                ordering = tuple(rng.sample(range(k), k))
                choices[i] = planner_oracles.Choice(
                    ordering, planner_oracles.model_cost(terms[i], ordering, 0)
                )
            members = rng.sample(range(m), m)
            target = rng.randrange(3)
            got, values = _chain_class(terms, choices, members, target)
            assert got == planner_oracles.chain_class_reference(terms, choices, members, target)
            tied += int((values == values.max()).sum() > 2)
        assert tied > 100

    def test_batched_chains_match_one_class_at_a_time(self):
        """Classes of mixed member counts chained in one ``_chains`` call,
        padded to the largest, give each class's own chain: 40 random
        classes of 2-9 members on four wires, in shuffled order, where
        many junctions tie."""
        rng = random.Random(29)
        classes = []
        for _ in range(40):
            m = rng.randint(2, 9)
            ends = [[(rng.randrange(16), rng.randrange(16)) for _ in range(m)] for _ in range(2)]
            classes.append((*ends, rng.randrange(4)))
        rng.shuffle(classes)

        def solve(batch):
            heads = [h for head, _, _ in batch for h in head]
            tails = [t for _, tail, _ in batch for t in tail]
            first, last = _oriented(heads, tails)
            sizes = np.array([len(head) for head, _, _ in batch])
            start = np.cumsum(sizes) - sizes
            m = int(sizes.max())
            members = start[:, None] + np.minimum(np.arange(m), sizes[:, None] - 1)
            targets = np.array([t for _, _, t in batch])
            saved, record = tr._chains(first, last, targets, members, sizes)
            return [
                (int(s), tr._chain_order(int(sizes[c]), *(part[c].tolist() for part in record)))
                for c, s in enumerate(saved)
            ]

        assert solve(classes) == [solve([c])[0] for c in classes]


def _oriented(heads, tails):
    """The (x, z) masks of each oriented id's first and last strings: id
    2 q + r is member q, reversed when r is 1, from each member's
    (x, z) head and tail."""
    head, tail = (np.array(ends, dtype=np.int64).reshape(-1, 2) for ends in (heads, tails))
    first = tuple(np.stack((head[:, i], tail[:, i]), axis=1).ravel() for i in (0, 1))
    last = tuple(np.stack((tail[:, i], head[:, i]), axis=1).ravel() for i in (0, 1))
    return first, last


def _chain_class(terms, choices, members, target):
    """One class chained by ``trotter._chains`` and read as ``_class_plans``
    reads it, with its junction matrix."""
    m = len(members)
    if m == 1:
        return tr.ClassPlan(target, (planner_oracles.placement(members[0], choices[members[0]]),), ()), None
    heads, tails = (
        [
            (s.xmask, s.zmask)
            for s in (terms[i].strings[choices[i].ordering[end]] for i in members)
        ]
        for end in (0, -1)
    )
    first, last = _oriented(heads, tails)
    saved, record = tr._chains(first, last, np.array([target]), np.arange(m)[None], np.array([m]))
    chain, savings = tr._chain_order(m, *(part[0].tolist() for part in record))
    assert sum(savings) == saved[0]
    placements = tuple(
        planner_oracles.placement(members[o >> 1], choices[members[o >> 1]], bool(o & 1))
        for o in chain
    )
    junction = tr._junctions(
        tuple(a[None] for a in last), tuple(a[None] for a in first), np.array([target])
    )[0]
    return tr.ClassPlan(target, placements, tuple(savings)), junction


def _count_sets():
    """(pool, occupied, encodings) per name: seeded encodings at 4, 6 and 8
    modes with JW and BK; water's JW, BK and a seed-9 encoding; and the 91
    one-bit neighbours of water's JW."""
    sets = {}
    for n in (4, 6, 8):
        rng = np.random.default_rng(n)
        seeded = [Transform.from_lower_bits(n, _random_beta_bits(rng, n)) for _ in range(6)]
        encodings = [Transform.jordan_wigner(n), Transform.bravyi_kitaev(n), *seeded]
        sets[f"{n}-modes"] = (uccsd_pool(range(n // 2), range(n // 2, n)), range(n // 2), encodings)
    water = uccsd_pool(range(10), range(10, 14))
    beta9 = np.random.default_rng(9).integers(0, 2, 91).tolist()
    sets["water"] = (
        water,
        range(10),
        [
            Transform.jordan_wigner(14),
            Transform.bravyi_kitaev(14),
            Transform.from_lower_bits(14, beta9),
        ],
    )
    sets["water-jw-neighbours"] = (
        water,
        range(10),
        [Transform.from_lower_bits(14, [int(j == i) for j in range(91)]) for i in range(91)],
    )
    return sets


_COUNT_SETS = _count_sets()
_COUNT_CONFIGS = {
    "default": tr.HeuristicConfig(),
    "plain": tr.HeuristicConfig(bosonic=False, reorder=False),
    "relabel": tr.HeuristicConfig(relabel=True),
}


def _count_case(name, config):
    """(pool, occupied, encodings) of a set under a config: a relabeled
    water plan takes a descent of dozens of plans, so water's relabeled
    set is its JW encoding alone."""
    pool, occupied, encodings = _COUNT_SETS[name]
    if name == "water" and config == "relabel":
        encodings = encodings[:1]
    return pool, occupied, encodings


@functools.cache
def _reference_counts(name, config):
    """The per-encoding planner's count of each encoding of a set."""
    pool, occupied, encodings = _count_case(name, config)
    cfg = _COUNT_CONFIGS[config]
    return [
        planner_oracles.plan_count_per_encoding(pool, t, cfg, occupied=occupied) for t in encodings
    ]


class TestBatchedCounts:
    """The swarm's batched cost (``ansatz_cost_fn(...).many``) against the
    planner as it ran one encoding at a time (``oracles``): every count
    equal, whatever the encodings' order and batch."""

    @pytest.mark.parametrize(
        "name, config",
        [
            (name, config)
            for name in sorted(_COUNT_SETS)
            for config in sorted(_COUNT_CONFIGS)
            if not (name == "water-jw-neighbours" and config == "relabel")
        ],
    )
    def test_counts_match_the_per_encoding_planner(self, name, config):
        """In input order, shuffled, and as batches of one.  With
        relabeling on, each encoding's descent runs in turn."""
        pool, occupied, encodings = _count_case(name, config)
        want = _reference_counts(name, config)
        many = pso.ansatz_cost_fn(pool, _COUNT_CONFIGS[config], occupied=occupied).many
        assert many(encodings) == want
        perm = random.Random(len(encodings)).sample(range(len(encodings)), len(encodings))
        assert many([encodings[i] for i in perm]) == [want[i] for i in perm]
        assert [many([t])[0] for t in encodings] == want

    def test_counts_build_no_terms_or_strings(self, monkeypatch):
        """Counting reads arrays only: no TrotterTerm, PauliString,
        TermPlacement or ClassPlan is built, for one encoding or many."""

        def forbidden(*args, **kwargs):
            raise AssertionError("a count built a planner object")

        for name in ("TrotterTerm", "PauliString", "TermPlacement", "ClassPlan"):
            monkeypatch.setattr(tr, name, forbidden)
        pool, occupied, encodings = _COUNT_SETS["8-modes"]
        want = _reference_counts("8-modes", "default")
        assert tr.ansatz_two_qubit_costs(pool, encodings, occupied=occupied) == want
        assert tr.ansatz_two_qubit_cost(pool, encodings[0], occupied=occupied) == want[0]

    def test_stacks_split_under_the_entry_budget(self, monkeypatch):
        """A budget that fits one encoding per stack gives the same counts."""
        pool, occupied, encodings = _COUNT_SETS["6-modes"]
        monkeypatch.setattr(tr, "_DP_ENTRIES", 64)
        assert tr.ansatz_two_qubit_costs(pool, encodings, occupied=occupied) == _reference_counts(
            "6-modes", "default"
        )

    def test_one_shot_occupied_is_read_once(self, monkeypatch):
        """An iterator ``occupied`` counts as its tuple across stacks split
        by the entry budget and through a relabeling descent.  Mode 0 alone
        half-fills pair 0, which blocks compressing the doubles that empty
        it, so a used-up iterator (no mode occupied) would count less."""
        pool, _, encodings = _COUNT_SETS["8-modes"]
        occupied = (0,)
        monkeypatch.setattr(tr, "_DP_ENTRIES", 64)
        want = tr.ansatz_two_qubit_costs(pool, encodings, occupied=occupied)
        assert want != tr.ansatz_two_qubit_costs(pool, encodings, occupied=())
        assert tr.ansatz_two_qubit_costs(pool, encodings, occupied=iter(occupied)) == want
        cfg = tr.HeuristicConfig(relabel=True)
        bk = Transform.bravyi_kitaev(8)
        want = tr.relabel_levels(pool, bk, cfg, occupied=tuple(occupied))
        assert tr.relabel_levels(pool, bk, cfg, occupied=iter(occupied)) == want
        plan = tr.plan_ansatz(pool, bk, config=cfg, occupied=iter(occupied))
        assert plan.labels == want
        assert plan.model_two_qubit == tr.ansatz_two_qubit_cost(
            pool, bk, cfg, occupied=iter(occupied)
        )

    def test_empty_inputs(self):
        jw = Transform.jordan_wigner(4)
        assert tr.ansatz_two_qubit_costs(uccsd_pool((0, 1), (2, 3)), []) == []
        assert tr.ansatz_two_qubit_costs([], [jw, jw]) == [0, 0]
        plan = tr.plan_ansatz([], jw)
        assert plan.model_two_qubit == 0 and plan.classes == ()


class TestMaskStacks:
    """Counts of a stack built from bit masks (``EncodingStack``), as the
    swarm scores a step, against the same encodings as ``Transform``s."""

    @pytest.mark.parametrize("budget", [64, 700, 5000, None])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_mask_stack_counts_equal_the_transform_list(self, n, budget, monkeypatch):
        """The same counts whatever the chunk boundaries that the entry
        budget sets: one encoding per chunk at 64 entries, the default at
        None."""
        d = n * (n - 1) // 2
        rng = random.Random(n)
        masks = [0, (1 << d) - 1] + [rng.getrandbits(d) for _ in range(21)]
        transforms = [
            Transform.from_lower_bits(n, [m >> k & 1 for k in range(d)]) for m in masks
        ]
        pool, occupied = uccsd_pool(range(n // 2), range(n // 2, n)), range(n // 2)
        want = [tr.ansatz_two_qubit_cost(pool, t, occupied=occupied) for t in transforms]
        if budget is not None:
            monkeypatch.setattr(tr, "_DP_ENTRIES", budget)
        stack = EncodingStack.from_lower_bits(n, masks)
        assert tr.ansatz_two_qubit_costs(pool, stack, occupied=occupied) == want
        assert tr.ansatz_two_qubit_costs(pool, transforms, occupied=occupied) == want


class TestExhaustiveGroundTruth:
    """Every beta of 4 and 6 modes, 2 electrons in modes 0 and 1, scored
    in one ``ansatz_two_qubit_costs`` call on the stack of all 2^d masks
    (mask 0 is JW).  ROADMAP item 1, charging the basis change B, will
    move the bosonic-on pins."""

    @pytest.mark.parametrize(
        "n, bosonic, jw, lowest, argmin",
        [
            (4, True, 14, 12, [19, 59]),
            (4, False, 20, 15, [19, 59]),
            (6, True, 50, 46, [31819, 32267]),
            (6, False, 61, 57, [1107, 1147, 16507, 31819]),
        ],
    )
    def test_minimum_over_every_encoding(self, n, bosonic, jw, lowest, argmin):
        d = n * (n - 1) // 2
        pool, occupied = uccsd_pool(range(2), range(2, n)), range(2)
        config = tr.HeuristicConfig(bosonic=bosonic)
        stack = EncodingStack.from_lower_bits(n, range(1 << d))
        counts = tr.ansatz_two_qubit_costs(pool, stack, config, occupied=occupied)
        assert len(counts) == 1 << d
        assert counts[0] == jw == tr.ansatz_two_qubit_cost(
            pool, Transform.jordan_wigner(n), config, occupied=occupied
        )
        assert min(counts) == lowest
        assert [m for m, c in enumerate(counts) if c == lowest] == argmin
        best = Transform.from_lower_bits(n, [argmin[0] >> k & 1 for k in range(d)])
        assert tr.plan_ansatz(pool, best, config=config, occupied=occupied).model_two_qubit == lowest


class TestRelabeledPlans:
    """Relabeling scored by the planner's own count, on every planner case:
    default config, HF modes occupied."""

    @pytest.mark.parametrize("case", sorted(_PLANNER_CASES))
    def test_never_above_unrelabeled(self, case):
        """The emitted circuit also costs what the relabeled plan says."""
        pool, transform, n_e = _PLANNER_CASES[case]
        plan = _relabeled_plan(case)
        assert plan.model_two_qubit <= tr.ansatz_two_qubit_cost(pool, transform, occupied=range(n_e))
        assert metrics(tr.emit_circuit(plan)).two_qubit == plan.model_two_qubit

    @pytest.mark.parametrize("case", sorted(_PLANNER_CASES))
    def test_no_single_swap_lowers_the_count(self, case):
        pool, transform, n_e = _PLANNER_CASES[case]
        plan = _relabeled_plan(case)
        count = _relabeled_count(pool, transform, plan.labels, occupied=range(n_e))
        assert count == plan.model_two_qubit
        for perm in tr._pair_swap_perms(transform.n_modes // 2):
            trial = tuple(perm[m] for m in plan.labels)
            assert _relabeled_count(pool, transform, trial, occupied=range(n_e)) >= count

    @pytest.mark.parametrize("case,cost", [("h4-jw", 194), ("h4-bk", 252), ("water-jw", 1251)])
    def test_relabeled_cost(self, case, cost):
        """H4 from 202 (JW) and 261 (BK), water JW from 1261."""
        assert _relabeled_plan(case).model_two_qubit == cost
