import numpy as np
import pytest

from fqcc.fermions import (
    FermionOperator,
    FermionTerm,
    FockData,
    LadderOp,
    MolecularHamiltonian,
    OrbitalSequence,
    build_hamiltonian,
    spin_of,
    uccsd_pool,
)
from fqcc.transform import Transform

import oracles
from oracles import AnticommutationReport, anticommutation_check


def number_operator(n_modes):
    """sum_j a+_j a_j on ``n_modes`` modes."""
    terms = [FermionTerm(1.0, (LadderOp(j, True), LadderOp(j, False))) for j in range(n_modes)]
    return FermionOperator(n_modes, terms)


def _dense(op: FermionOperator, transform=None):
    transform = transform or Transform.jordan_wigner(op.n_modes)
    pauli = op.to_pauli(transform)
    terms = [(s.coeff, s.letters()) for s in pauli.strings()]
    return oracles.paulisum_matrix(op.n_modes, terms)


def _oracle_dense(op: FermionOperator):
    dim = 1 << op.n_modes
    m = op.constant * np.eye(dim, dtype=complex)
    for t in op.terms:
        ops = [(o.mode, o.dagger) for o in t.ops]
        m += oracles.ladder_product_matrix(op.n_modes, ops, t.coefficient)
    return m


def _random_beta(rng, n):
    beta = np.eye(n, dtype=np.uint8)
    for i in range(n):
        for j in range(i):
            beta[i, j] = rng.integers(2)
    return beta


class TestLadderBasics:
    def test_adjoint(self):
        op = LadderOp(3, True)
        assert op.adjoint() == LadderOp(3, False)
        assert op.adjoint().adjoint() == op

    def test_negative_mode_rejected(self):
        with pytest.raises(ValueError):
            LadderOp(-1, False)

    def test_term_adjoint_reverses(self):
        t = FermionTerm(2.0 + 1.0j, (LadderOp(0, True), LadderOp(2, False)))
        adj = t.adjoint()
        assert adj.coefficient == 2.0 - 1.0j
        assert adj.ops == (LadderOp(2, True), LadderOp(0, False))

    def test_spin_helpers(self):
        assert [spin_of(m) for m in range(4)] == [0, 1, 0, 1]


class TestFermionOperator:
    def test_mode_range_enforced(self):
        t = FermionTerm(1.0, (LadderOp(5, True),))
        with pytest.raises(ValueError):
            FermionOperator(4, [t])

    def test_algebra(self):
        a = FermionOperator(2, [FermionTerm(1.0, (LadderOp(0, True),))], constant=0.5)
        b = 2.0 * a + a
        assert b.constant == pytest.approx(1.5)
        assert len(b) == 2
        assert b.terms[0].coefficient == pytest.approx(2.0)

    def test_to_pauli_matches_oracle(self):
        rng = np.random.default_rng(4)
        n = 4
        for _ in range(8):
            terms = []
            for _ in range(rng.integers(1, 5)):
                k = int(rng.integers(1, 5))
                ops = tuple(LadderOp(int(rng.integers(n)), bool(rng.integers(2))) for _ in range(k))
                terms.append(FermionTerm(complex(rng.normal(), rng.normal()), ops))
            op = FermionOperator(n, terms, constant=complex(rng.normal()))
            assert np.allclose(_dense(op), _oracle_dense(op), atol=1e-12)

    def test_adjoint_is_dense_dagger(self):
        op = FermionOperator(
            3,
            [FermionTerm(1.0 + 2.0j, (LadderOp(0, True), LadderOp(2, False)))],
            constant=1.0j,
        )
        assert np.allclose(_dense(op.adjoint()), _dense(op).conj().T, atol=1e-12)

    def test_number_operator_counts(self):
        num = _dense(number_operator(3))
        want = np.diag([bin(s).count("1") for s in range(8)]).astype(complex)
        assert np.allclose(num, want, atol=1e-12)


class TestBuildHamiltonian:
    def test_single_mode_level(self):
        h = MolecularHamiltonian(1, h1={(0, 0): 0.75})
        op = build_hamiltonian(h)
        assert np.allclose(_dense(op), np.diag([0.0, 0.75]), atol=1e-14)

    def test_core_energy_shifts_spectrum(self):
        h = MolecularHamiltonian(1, core_energy=2.0, h1={(0, 0): 0.75})
        assert np.allclose(_dense(build_hamiltonian(h)), np.diag([2.0, 2.75]), atol=1e-14)

    def test_non_hermitian_h1_rejected_with_pair(self):
        h = MolecularHamiltonian(2, h1={(0, 1): 0.3})
        with pytest.raises(ValueError, match=r"h1\(0, 1\)"):
            build_hamiltonian(h)

    def test_non_hermitian_h2_rejected_with_tuple(self):
        h = MolecularHamiltonian(4, h2={(0, 1, 2, 3): 0.4, (3, 2, 1, 0): 0.1})
        with pytest.raises(ValueError, match=r"h2\(0, 1, 2, 3\)"):
            build_hamiltonian(h)

    @staticmethod
    def _random_hermitian(rng, n):
        h1 = {}
        for p in range(n):
            for r in range(p, n):
                v = complex(rng.normal(), 0 if p == r else rng.normal())
                h1[(p, r)] = v
                h1[(r, p)] = v.conjugate()
        h2 = {}
        for _ in range(6):
            p, q, r, s = (int(x) for x in rng.integers(0, n, size=4))
            v = complex(rng.normal(), rng.normal())
            h2[(p, q, r, s)] = h2.get((p, q, r, s), 0.0) + v
            h2[(s, r, q, p)] = h2.get((s, r, q, p), 0.0) + v.conjugate()
        return MolecularHamiltonian(n, core_energy=float(rng.normal()), h1=h1, h2=h2)

    def test_hermitian_under_any_transform(self):
        rng = np.random.default_rng(8)
        for n in (2, 4):
            for _ in range(3):
                h = self._random_hermitian(rng, n)
                t = Transform(_random_beta(rng, n))
                m = _dense(build_hamiltonian(h), t)
                assert np.allclose(m, m.conj().T, atol=1e-10)

    def test_particle_number_symmetry(self):
        rng = np.random.default_rng(15)
        n = 4
        h = self._random_hermitian(rng, n)
        m = _dense(build_hamiltonian(h))
        num = _dense(number_operator(n))
        assert np.allclose(m @ num, num @ m, atol=1e-10)


class TestOrbitalSequence:
    def test_single(self):
        seq = OrbitalSequence("single", (2, 0))
        assert seq.creations() == (2,)
        assert seq.annihilations() == (0,)
        assert seq.name == "s_2_0"
        assert seq.conserves_spin()

    def test_double_ordering_enforced(self):
        OrbitalSequence("double", (2, 3, 0, 1))
        with pytest.raises(ValueError):
            OrbitalSequence("double", (3, 2, 0, 1))
        with pytest.raises(ValueError):
            OrbitalSequence("double", (2, 3, 1, 0))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            OrbitalSequence("triple", (0, 1, 2, 3, 4, 5))

    @pytest.mark.parametrize(
        "kind, indices",
        [("single", (2, 2)), ("double", (0, 2, 0, 3)), ("double", (1, 3, 0, 1))],
    )
    def test_overlapping_modes_rejected(self, kind, indices):
        # a mode both created and annihilated would break K^3 = -K
        with pytest.raises(ValueError, match="repeats a mode"):
            OrbitalSequence(kind, indices)

    def test_spin_conservation(self):
        assert OrbitalSequence("single", (2, 0)).conserves_spin()
        assert not OrbitalSequence("single", (3, 0)).conserves_spin()
        assert OrbitalSequence("double", (4, 5, 0, 1)).conserves_spin()
        assert not OrbitalSequence("double", (4, 6, 0, 1)).conserves_spin()

    def test_term_ops(self):
        seq = OrbitalSequence("double", (4, 5, 0, 1))
        term = seq.term()
        assert term.coefficient == 1.0
        assert term.ops == (
            LadderOp(4, True),
            LadderOp(5, True),
            LadderOp(0, False),
            LadderOp(1, False),
        )


class TestUccsdPool:
    def test_minimal_two_electron(self):
        pool = uccsd_pool(occ=(0, 1), virt=(2, 3))
        names = [seq.name for seq in pool]
        assert names == ["s_2_0", "s_3_1", "d_2_3_0_1"]

    def test_water_sized_counts(self):
        pool = uccsd_pool(occ=range(10), virt=range(10, 14))
        singles = [s for s in pool if s.kind == "single"]
        doubles = [s for s in pool if s.kind == "double"]
        assert len(singles) == 20
        assert len(doubles) == 120
        assert len(pool) == 140

    def test_all_conserve_spin(self):
        pool = uccsd_pool(occ=range(4), virt=range(4, 8))
        assert all(seq.conserves_spin() for seq in pool)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            uccsd_pool(occ=(0, 1), virt=(1, 2))


class TestFockData:
    def test_denominator_sign(self):
        fock = FockData({0: -1.0, 1: -1.0, 2: 0.5, 3: 0.5}, n_electrons=2)
        seq = OrbitalSequence("double", (2, 3, 0, 1))
        assert fock.denominator(seq) == pytest.approx(-3.0)

    def test_single_denominator(self):
        fock = FockData({0: -0.6, 1: -0.6, 2: 0.4, 3: 0.4}, n_electrons=2)
        assert fock.denominator(OrbitalSequence("single", (2, 0))) == pytest.approx(-1.0)


class TestAnticommutationCheck:
    def test_jw_two_modes(self):
        report = anticommutation_check(2, Transform.jordan_wigner(2))
        assert report.ok
        assert report.violations == []
        assert "hold" in str(report)

    def test_random_beta_four_modes(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            t = Transform(_random_beta(rng, 4))
            assert anticommutation_check(4, t).ok

    def test_corrupted_beta_rejected_before_check(self):
        beta = np.eye(3, dtype=np.uint8)
        beta[1, 1] = 0
        with pytest.raises(ValueError):
            Transform(beta)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            anticommutation_check(7, Transform.jordan_wigner(7))

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            anticommutation_check(3, Transform.jordan_wigner(4))

    def test_report_lists_violations(self):
        report = AnticommutationReport(2, False, [("{a,a}", 0, 1, 0.5)])
        assert "violations" in str(report)
