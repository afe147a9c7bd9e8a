import re
from pathlib import Path

import numpy as np
import pytest

from fqcc.fcidump import FcidumpError, load_fcidump, parse_fcidump
from fqcc.fermions import build_hamiltonian
from fqcc.hmp2 import mp2_classical
from fqcc.transform import Transform

import oracles

FIXTURES = Path(__file__).parent / "fixtures"

MINIMAL = """\
 &FCI NORB=1,NELEC=2,MS2=0,
  ORBSYM=1,
  ISYM=1,
 &END
  0.5000000000000000E+00    1    1    1    1
 -0.1250000000000000E+01    1    1    0    0
 -0.7500000000000000E+00    1    0    0    0
  0.7137000000000000E+00    0    0    0    0
"""


class TestParsing:
    def test_minimal_single_orbital(self):
        rec = parse_fcidump(MINIMAL)
        assert rec.norb == 1
        assert rec.nelec == 2
        assert rec.ms2 == 0
        assert rec.orbsym == (1,)
        assert rec.h1[0, 0] == pytest.approx(-1.25)
        assert rec.g2[0, 0, 0, 0] == pytest.approx(0.5)
        assert rec.orbital_energies[0] == pytest.approx(-0.75)
        assert rec.core_energy == pytest.approx(0.7137)

    def test_slash_terminator(self):
        text = MINIMAL.replace(" &END", " /")
        assert parse_fcidump(text).norb == 1

    def test_missing_nelec(self):
        text = MINIMAL.replace("NELEC=2,", "")
        with pytest.raises(FcidumpError, match="NELEC"):
            parse_fcidump(text)

    def test_missing_terminator(self):
        with pytest.raises(FcidumpError, match="terminator"):
            parse_fcidump(" &FCI NORB=1,NELEC=2,\n 0.5 1 1 1 1\n")

    def test_bad_data_line_reports_line_number(self):
        text = MINIMAL + " 0.5 1 1\n"
        with pytest.raises(FcidumpError, match="line 9"):
            parse_fcidump(text)

    def test_index_overflow(self):
        text = MINIMAL + " 0.5 2 1 1 1\n"
        with pytest.raises(FcidumpError, match="outside"):
            parse_fcidump(text)

    def test_permutational_symmetry_expanded(self):
        text = """\
 &FCI NORB=2,NELEC=2,MS2=0, ORBSYM=1,1, ISYM=1,
 &END
  0.3000000000000000E+00    2    1    1    1
"""
        rec = parse_fcidump(text)
        for key in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
            assert rec.g2[key] == pytest.approx(0.3)


class TestPartialOrbitalEnergies:
    TWO_ORBITALS = """\
 &FCI NORB=2,NELEC=2,MS2=0, ORBSYM=1,1, ISYM=1,
 &END
  0.3000000000000000E+00    1    1    1    1
 -0.6000000000000000E+00    1    0    0    0
"""

    def test_missing_energies_rejected(self):
        # zero-filling orbital 2 would give a silently wrong Fock denominator
        with pytest.raises(FcidumpError, match=r"not for orbitals 2$"):
            parse_fcidump(self.TWO_ORBITALS)
        full = self.TWO_ORBITALS + "  0.4000000000000000E+00    2    0    0    0\n"
        assert parse_fcidump(full).orbital_energies.tolist() == [-0.6, 0.4]

    @pytest.mark.parametrize("nelec", [-1, 5])
    def test_nelec_outside_the_register_rejected(self, nelec):
        text = self.TWO_ORBITALS.replace("NELEC=2,", f"NELEC={nelec},")
        text += "  0.4000000000000000E+00    2    0    0    0\n"
        with pytest.raises(FcidumpError, match=r"NELEC=-?\d+ is outside 0\.\.4"):
            parse_fcidump(text)


class TestMissingOrbitalEnergies:
    # an orbital-energy line is "value i 0 0 0" with i >= 1
    _EPS_LINE = re.compile(r"^\s*\S+\s+[1-9]\d*\s+0\s+0\s+0\s*$\n", re.MULTILINE)

    def test_water_energies_from_fock_diagonal(self):
        text = (FIXTURES / "h2o_sto3g.fcidump").read_text()
        stripped = self._EPS_LINE.sub("", text)
        assert len(stripped.splitlines()) == len(text.splitlines()) - 7
        full, derived = parse_fcidump(text), parse_fcidump(stripped)
        assert np.allclose(derived.orbital_energies, full.orbital_energies, rtol=0, atol=1e-9)
        ham, fock = full.to_spin_orbital()
        ham_d, fock_d = derived.to_spin_orbital()
        want = mp2_classical(ham, fock)
        got = mp2_classical(ham_d, fock_d)
        assert want.e_corr < -1e-3 and set(got.amplitudes) == set(want.amplitudes)
        assert got.e_corr == pytest.approx(want.e_corr, abs=1e-9)

    @pytest.mark.parametrize("nelec", [1, 4])
    def test_no_closed_shell_rejected(self, nelec):
        # one orbital holds no 1 or 4 electrons in a closed shell
        text = self._EPS_LINE.sub("", MINIMAL.replace("NELEC=2,", f"NELEC={nelec},"))
        with pytest.raises(FcidumpError, match="closed-shell"):
            parse_fcidump(text)


class TestSpinOrbitalExpansion:
    def test_matches_oracle_on_h2(self):
        path = FIXTURES / "h2_sto3g.fcidump"
        rec = load_fcidump(path)
        ham, fock = rec.to_spin_orbital()
        h1, g2, ecore, eps, n_so, nelec = oracles.read_fcidump_so(path)
        assert ham.n_modes == n_so == 4
        assert fock.n_electrons == nelec == 2
        assert ham.core_energy == pytest.approx(ecore, abs=1e-14)
        for (p, r), v in ham.h1.items():
            assert v == pytest.approx(h1[p, r], abs=1e-14)
        assert np.allclose(
            [fock.orbital_energies[m] for m in range(n_so)], eps, atol=1e-14
        )
        # two-body terms must reproduce the oracle's 0.5*(pq|rs) a+p a+r a_s a_q form
        for (p, r, s, q), v in ham.h2.items():
            assert v == pytest.approx(0.5 * g2[p, q, r, s], abs=1e-14)

    def test_hermitian(self):
        rec = load_fcidump(FIXTURES / "h2_sto3g.fcidump")
        ham, _ = rec.to_spin_orbital()
        assert ham.hermiticity_violations() == []

    def test_h2_ground_energy_matches_dense_oracle(self):
        path = FIXTURES / "h2_sto3g.fcidump"
        ham, _ = load_fcidump(path).to_spin_orbital()
        pauli = build_hamiltonian(ham).to_pauli(Transform.jordan_wigner(4))
        dense = oracles.sum_matrix(pauli)
        assert np.allclose(dense, dense.conj().T, atol=1e-12)
        ground = np.linalg.eigvalsh(dense)[0]
        h1, g2, ecore, eps, n_so, nelec = oracles.read_fcidump_so(path)
        want = oracles.fci_ground_energy(h1, g2, ecore, n_so, 1, 1)
        assert ground == pytest.approx(want, abs=1e-10)
        # sanity: the known curve value near equilibrium
        assert ground == pytest.approx(-1.1373, abs=5e-4)

    def test_water_record_shape(self):
        rec = load_fcidump(FIXTURES / "h2o_sto3g.fcidump")
        assert rec.norb == 7
        assert rec.nelec == 10
        ham, fock = rec.to_spin_orbital()
        assert ham.n_modes == 14
        assert ham.hermiticity_violations() == []
        assert fock.n_electrons == 10
        # orbital energies come out sorted from the SCF
        eps = [fock.orbital_energies[2 * p] for p in range(7)]
        assert eps == sorted(eps)
