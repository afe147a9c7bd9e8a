import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc import hmp2
from fqcc.fcidump import load_fcidump
from fqcc.fermions import (
    FockData,
    MolecularHamiltonian,
    build_hamiltonian,
    excitation_generator,
    uccsd_pool,
)
from fqcc.hmp2 import (
    HMP2Config,
    candidate_scores,
    first_order_numerators,
    mp2_classical,
    run_hmp2_loop,
    select_next,
    write_cycles_csv,
    ztilde_operator,
)
from fqcc.paulis import CompiledSum, PauliSum
from fqcc.simulate import AnsatzOp, apply_ansatz, hf_state, spin_sector, vqe_minimize
from fqcc.transform import Transform

import oracles

H2_PATH = "tests/fixtures/h2_sto3g.fcidump"
H2O_PATH = "tests/fixtures/h2o_sto3g.fcidump"

# reference total energies for the water fixture geometry
WATER_E_MP2 = -74.9977
ENERGY_TOL = 2e-3


def _sum_matrix(op: PauliSum):
    return oracles.paulisum_matrix(op.n_qubits, [(s.coeff, s.letters()) for s in op])


def _second_order(state, hamiltonian, fock, pool, ztilde, transform):
    """(energy correction sum N_a^2 / dE_a, amplitudes N_a / dE_a) over ``pool``."""
    numerators = first_order_numerators(state, hamiltonian, pool, ztilde, transform)
    deltas = {seq.name: fock.denominator(seq) for seq in pool}
    energy = sum(numerators[name] ** 2 / delta for name, delta in deltas.items())
    return energy, {name: numerators[name] / delta for name, delta in deltas.items()}


def _select(current, pool, amplitudes, contributions=None, threshold=None):
    scores = candidate_scores(pool, current, amplitudes)
    return select_next(pool, scores, amplitudes, contributions, threshold)


@pytest.fixture(scope="module")
def h2():
    ham, fock = load_fcidump(H2_PATH).to_spin_orbital()
    return ham, fock


@pytest.fixture(scope="module")
def h2o():
    ham, fock = load_fcidump(H2O_PATH).to_spin_orbital()
    return ham, fock


@pytest.fixture(scope="module")
def h2_fci():
    h1, g2, ecore, eps, norb, nelec = oracles.read_fcidump_so(H2_PATH)
    return oracles.fci_ground_energy(h1, g2, ecore, norb, nelec // 2, nelec // 2)


class TestMp2Classical:
    def test_h2_matches_determinant_oracle(self, h2):
        ham, fock = h2
        h1, g2, ecore, eps, _, nelec = oracles.read_fcidump_so(H2_PATH)
        e2, amps = oracles.mp2_oracle(h1, g2, ecore, eps, nelec)
        res = mp2_classical(ham, fock)
        assert res.e_corr == pytest.approx(e2, abs=1e-12)
        # amplitude magnitudes agree excitation by excitation
        from fqcc.hmp2 import _apply_ladder

        ref = (1 << fock.n_electrons) - 1
        for seq in uccsd_pool(range(2), range(2, 4)):
            if seq.kind != "double":
                continue
            _, det = _apply_ladder(ref, seq.term().ops)
            assert abs(res.amplitudes[seq.name]) == pytest.approx(
                abs(amps.get(det, 0.0)), abs=1e-12
            )

    def test_water_matches_determinant_oracle(self, h2o):
        ham, fock = h2o
        h1, g2, ecore, eps, _, nelec = oracles.read_fcidump_so(H2O_PATH)
        e2, _ = oracles.mp2_oracle(h1, g2, ecore, eps, nelec)
        res = mp2_classical(ham, fock)
        assert res.e_corr == pytest.approx(e2, abs=1e-10)

    def test_water_total_energy(self, h2o):
        ham, fock = h2o
        h1, g2, ecore, _, _, nelec = oracles.read_fcidump_so(H2O_PATH)
        e_hf = oracles.hf_energy(h1, g2, ecore, nelec)
        res = mp2_classical(ham, fock)
        assert e_hf + res.e_corr == pytest.approx(WATER_E_MP2, abs=ENERGY_TOL)

    def test_no_interaction_means_no_correction(self, h2):
        _, fock = h2
        bare = MolecularHamiltonian(
            4, 0.0, {(p, p): float(fock.orbital_energies[p]) for p in range(4)}, {}
        )
        res = mp2_classical(bare, fock)
        assert res.e_corr == 0.0
        assert all(a == 0.0 for a in res.amplitudes.values())

    def test_negative_correction(self, h2):
        ham, fock = h2
        assert mp2_classical(ham, fock).e_corr < 0.0

    def test_degenerate_denominator_warns_and_excludes(self, h2):
        ham, _ = h2
        flat = FockData({p: 1.0 for p in range(4)}, 2)
        with pytest.warns(UserWarning, match="degenerate"):
            res = mp2_classical(ham, flat)
        assert "d_2_3_0_1" in res.excluded
        assert "d_2_3_0_1" not in res.amplitudes


class TestReferenceOrthogonality:
    def test_one_body_diagonal_has_no_off_reference_elements(self, h2o):
        """Substituted references never couple to the reference through the
        diagonal one-body part, so its second-order correction vanishes."""
        _, fock = h2o
        n = 14
        diag = MolecularHamiltonian(
            n, 0.0, {(p, p): float(fock.orbital_energies[p]) for p in range(n)}, {}
        )
        pool = uccsd_pool(range(fock.n_electrons), range(fock.n_electrons, n))
        res = mp2_classical(diag, fock, pool=pool)
        assert res.e_corr == 0.0
        assert all(abs(a) < 1e-12 for a in res.amplitudes.values())

    def test_quantum_route_agrees(self, h2):
        _, fock = h2
        tr = Transform.jordan_wigner(4)
        diag = MolecularHamiltonian(
            4, 0.0, {(p, p): float(fock.orbital_energies[p]) for p in range(4)}, {}
        )
        f_pauli = build_hamiltonian(diag).to_pauli(tr)
        pool = uccsd_pool(range(2), range(2, 4))
        nums = first_order_numerators(hf_state(2, 4), f_pauli, pool, None, tr)
        assert all(abs(v) < 1e-10 for v in nums.values())


class TestCorrectionBracket:
    @pytest.mark.parametrize("make", [Transform.jordan_wigner, Transform.bravyi_kitaev])
    def test_identity_ansatz_reduces_to_mp2(self, h2, make):
        ham, fock = h2
        tr = make(4)
        h_pauli = build_hamiltonian(ham).to_pauli(tr)
        ref = hf_state(2, 4, tr)
        doubles = [s for s in uccsd_pool(range(2), range(2, 4)) if s.kind == "double"]
        corr, _ = _second_order(ref, h_pauli, fock, doubles, None, tr)
        assert corr == pytest.approx(mp2_classical(ham, fock).e_corr, abs=1e-10)

    def test_identity_ansatz_amplitudes_reduce_to_mp2(self, h2):
        ham, fock = h2
        tr = Transform.jordan_wigner(4)
        h_pauli = build_hamiltonian(ham).to_pauli(tr)
        doubles = [s for s in uccsd_pool(range(2), range(2, 4)) if s.kind == "double"]
        _, wf = _second_order(hf_state(2, 4), h_pauli, fock, doubles, None, tr)
        mp2 = mp2_classical(ham, fock)
        for name, amp in mp2.amplitudes.items():
            assert wf[name] == pytest.approx(amp, abs=1e-10)

    def test_constant_shift_does_not_leak(self, h2):
        ham, fock = h2
        tr = Transform.jordan_wigner(4)
        h_pauli = build_hamiltonian(ham).to_pauli(tr)
        shifted = h_pauli + PauliSum(4, {(0, 0): 100.0})
        pool = uccsd_pool(range(2), range(2, 4))
        # a partially-optimized state so the first-order expansion is active
        seq = next(s for s in pool if s.kind == "double")
        ansatz = AnsatzOp.build(tr, (seq,), (0.05,))
        state = apply_ansatz(hf_state(2, 4), ansatz)
        zt = ztilde_operator(ansatz)
        a, _ = _second_order(state, h_pauli, fock, pool, zt, tr)
        b, _ = _second_order(state, shifted, fock, pool, zt, tr)
        assert a == pytest.approx(b, abs=1e-10)

    def test_ztilde_is_anti_hermitian(self, h2):
        _, _ = h2
        tr = Transform.jordan_wigner(4)
        pool = uccsd_pool(range(2), range(2, 4))
        values = [0.1 * (i + 1) for i in range(len(pool))]
        zt = ztilde_operator(AnsatzOp.build(tr, pool, values))
        m = _sum_matrix(zt)
        assert np.max(np.abs(m + m.conj().T)) < 1e-12

    def test_ztilde_is_the_weighted_generator_sum(self, h2):
        tr = Transform.bravyi_kitaev(4)
        pool = uccsd_pool(range(2), range(2, 4))
        values = [0.1 * (i + 1) for i in range(len(pool))]
        want = sum(
            v * _sum_matrix(excitation_generator(s, 4).to_pauli(tr)) for s, v in zip(pool, values)
        )
        assert np.max(np.abs(_sum_matrix(ztilde_operator(AnsatzOp.build(tr, pool, values))) - want)) < 1e-14
        sector = spin_sector(4, 1, 1, tr)
        on_sector = ztilde_operator(AnsatzOp.build(tr, pool, values, sector=sector))
        vec = np.random.default_rng(2).normal(size=len(sector)).astype(complex)
        full = np.zeros(16, dtype=complex)
        full[sector] = vec
        assert np.max(np.abs(on_sector.apply(vec) - (want @ full)[sector])) < 1e-14

    def test_ztilde_empty_for_zero_parameters(self):
        tr = Transform.jordan_wigner(4)
        pool = uccsd_pool(range(2), range(2, 4))
        zt = ztilde_operator(AnsatzOp.build(tr, pool))
        assert len(zt) == 0

    def test_converged_ansatz_leaves_no_residual(self, h2):
        ham, fock = h2
        tr = Transform.jordan_wigner(4)
        h_pauli = build_hamiltonian(ham).to_pauli(tr)
        pool = uccsd_pool(range(2), range(2, 4))
        ansatz = AnsatzOp.build(tr, pool)
        res = vqe_minimize(h_pauli, ansatz, hf_state(2, 4))
        state = apply_ansatz(hf_state(2, 4), ansatz.with_values(res.values))
        zt = ztilde_operator(ansatz.with_values(res.values))
        corr, wf = _second_order(state, h_pauli, fock, pool, zt, tr)
        assert abs(corr) < 1e-6
        # the double that carries all the correlation is already captured
        assert abs(wf["d_2_3_0_1"]) < 1e-3


class TestSelectNext:
    def _pool(self):
        return uccsd_pool(range(2), range(2, 4))

    def test_picks_largest_amplitude_per_operator(self):
        pool = self._pool()
        amps = {"s_2_0": 0.1, "s_3_1": 0.02, "d_2_3_0_1": 0.3}
        sel = _select((), pool, amps)
        assert sel.term.name == "d_2_3_0_1"
        assert sel.score == pytest.approx(0.3 / 4)
        assert sel.guess == 0.3

    def test_operator_count_normalization(self):
        pool = self._pool()
        # single at 0.1 scores 0.05; double at 0.16 scores 0.04
        amps = {"s_2_0": 0.1, "s_3_1": 0.0, "d_2_3_0_1": 0.16}
        sel = _select((), pool, amps)
        assert sel.term.name == "s_2_0"

    def test_tie_breaks_canonically(self):
        pool = self._pool()
        amps = {"s_2_0": -0.1, "s_3_1": 0.1, "d_2_3_0_1": 0.0}
        sel = _select((), pool, amps)
        assert sel.term.name == "s_2_0"
        assert sel.guess == -0.1

    def test_exhausted_pool_returns_none(self):
        pool = self._pool()
        amps = {s.name: 1.0 for s in pool}
        assert _select(pool, pool, amps) is None

    def test_threshold_signals_convergence(self):
        pool = self._pool()
        amps = {s.name: 0.1 for s in pool}
        contribs = {s.name: 1e-9 for s in pool}
        assert _select((), pool, amps, contribs, threshold=1e-6) is None
        sel = _select((), pool, amps, contribs, threshold=1e-10)
        assert sel is not None

    def test_terms_without_amplitudes_are_ignored(self):
        pool = self._pool()
        amps = {"s_3_1": 0.2}
        sel = _select((), pool, amps)
        assert sel.term.name == "s_3_1"

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3
        )
    )
    def test_score_is_maximal(self, values):
        pool = self._pool()
        amps = {s.name: v for s, v in zip(pool, values)}
        sel = _select((), pool, amps)
        weights = {"single": 2, "double": 4}
        best = max(abs(amps[s.name]) / weights[s.kind] for s in pool)
        assert sel.score == pytest.approx(best, abs=1e-15)


class TestRunLoop:
    def test_h2_converges_to_exact_energy(self, h2, h2_fci):
        ham, fock = h2
        run = run_hmp2_loop(ham, fock, HMP2Config(delta_e=1e-9, max_cycles=10))
        assert run.converged
        assert run.final.e_total == pytest.approx(h2_fci, abs=1e-8)
        assert abs(run.final.e_corr2) < 1e-8

    def test_cycle_zero_is_classical(self, h2):
        ham, fock = h2
        h1, g2, ecore, _, _, nelec = oracles.read_fcidump_so(H2_PATH)
        run = run_hmp2_loop(ham, fock, HMP2Config(delta_e=1e-9, max_cycles=10))
        first = run.reports[0]
        assert first.cycle == 0
        assert first.n_terms == 0
        assert first.e_vqe == pytest.approx(
            oracles.hf_energy(h1, g2, ecore, nelec), abs=1e-10
        )
        assert first.e_corr2 == pytest.approx(
            mp2_classical(ham, fock).e_corr, abs=1e-10
        )

    def test_total_is_sum_of_parts_and_descends(self, h2):
        ham, fock = h2
        run = run_hmp2_loop(ham, fock, HMP2Config(delta_e=1e-9, max_cycles=10))
        totals = [r.e_total for r in run.reports]
        for r in run.reports:
            assert r.e_total == r.e_vqe + r.e_corr2
        assert all(b <= a + 1e-10 for a, b in zip(totals, totals[1:]))

    def test_one_term_per_cycle_mode(self, h2, h2_fci):
        ham, fock = h2
        cfg = HMP2Config(delta_e=1e-9, initial_threshold=math.inf, max_cycles=10)
        run = run_hmp2_loop(ham, fock, cfg)
        assert run.reports[0].chosen == "d_2_3_0_1"
        assert run.reports[0].guess is not None
        assert [r.n_terms for r in run.reports] == list(range(len(run.reports)))
        assert run.final.e_total == pytest.approx(h2_fci, abs=1e-8)

    def test_loose_threshold_stops_immediately(self, h2):
        ham, fock = h2
        run = run_hmp2_loop(ham, fock, HMP2Config(delta_e=1.0, max_cycles=10))
        assert run.converged
        assert len(run.reports) == 1
        assert run.reason == "no candidate above threshold"

    def test_cycle_cap_flags_partial_run(self, h2):
        ham, fock = h2
        run = run_hmp2_loop(ham, fock, HMP2Config(delta_e=1e-12, max_cycles=0))
        assert not run.converged
        assert run.reason == "cycle cap reached"
        assert len(run.reports) == 1

    def test_fenwick_encoding_agrees(self, h2, h2_fci):
        ham, fock = h2
        run = run_hmp2_loop(
            ham, fock, HMP2Config(delta_e=1e-9, max_cycles=10),
            Transform.bravyi_kitaev(4),
        )
        assert run.converged
        assert run.final.e_total == pytest.approx(h2_fci, abs=1e-8)

    def test_csv_round_trip(self, h2, tmp_path):
        ham, fock = h2
        cfg = HMP2Config(delta_e=1e-9, initial_threshold=math.inf, max_cycles=10)
        run = run_hmp2_loop(ham, fock, cfg)
        path = tmp_path / "cycles.csv"
        write_cycles_csv(run, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(run.reports)
        for row, report in zip(rows, run.reports):
            assert int(row["cycle"]) == report.cycle
            assert int(row["n_terms"]) == report.n_terms
            assert float(row["e_total"]) == pytest.approx(report.e_total, abs=1e-9)
            assert row["chosen_term"] == (report.chosen or "")
            assert int(row["vqe_iterations"]) == report.vqe_iterations
            assert row["vqe_message"] == report.vqe_message
        assert rows[0]["vqe_message"] == "no parameters"
        assert all(int(row["vqe_iterations"]) > 0 for row in rows[1:])

    def test_final_values_reproduce_energy(self, h2):
        ham, fock = h2
        run = run_hmp2_loop(ham, fock, HMP2Config(delta_e=1e-9, max_cycles=10))
        tr = Transform.jordan_wigner(4)
        h_pauli = build_hamiltonian(ham).to_pauli(tr)
        pool = uccsd_pool(range(2), range(2, 4))
        by_name = {s.name: s for s in pool}
        terms = tuple(by_name[name] for name in run.final.term_names)
        ansatz = AnsatzOp.build(tr, terms, run.final_values)
        state = apply_ansatz(hf_state(2, 4, tr), ansatz)
        assert state.expectation(h_pauli) == pytest.approx(run.final.e_vqe, abs=1e-9)


# water under JW on the full 2^14 space, before the loop moved to the sector
WATER_JW_E_VQE = [
    -74.96311985205668, -75.01242005714579, -75.0125582890435,
    -75.01264998557484, -75.0126551807535,
]
WATER_JW_E_TOTAL = [
    -74.99872108208496, -75.01258185630422, -75.01262143350525,
    -75.012659936288, -75.0126608334184,
]


# the sign-resolved guesses of water's cycles 1-3 under JW
WATER_JW_GUESSES = [0.007914079984287531, 0.0066346408657548435, -0.0015264056944894774]


def _recording(log, fn):
    def wrapper(*args, **kwargs):
        log.append(fn(*args, **kwargs))
        return log[-1]

    return wrapper


@pytest.fixture(scope="module", params=["jw", "bk"])
def water_run(request, h2o):
    """(kind, transform, run, each cycle's VQE result, each pool scoring)."""
    ham, fock = h2o
    make = {"jw": Transform.jordan_wigner, "bk": Transform.bravyi_kitaev}[request.param]
    tr = make(ham.n_modes)
    vqe_results, scorings = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hmp2, "vqe_minimize", _recording(vqe_results, hmp2.vqe_minimize))
        mp.setattr(hmp2, "candidate_scores", _recording(scorings, hmp2.candidate_scores))
        run = run_hmp2_loop(ham, fock, transform=tr)
    return request.param, tr, run, vqe_results, scorings


class TestWaterOnTheSector:
    def test_cycles_are_pinned(self, water_run):
        _, _, run, *_ = water_run
        assert run.converged and run.reason == "energy change below threshold"
        assert [r.n_terms for r in run.reports] == [0, 36, 37, 38, 39]
        assert [r.chosen for r in run.reports] == [None, "s_11_7", "s_10_6", "s_13_5", None]
        assert np.max(np.abs(np.array([r.e_vqe for r in run.reports]) - WATER_JW_E_VQE)) < 1e-10
        assert np.max(np.abs(np.array([r.e_total for r in run.reports]) - WATER_JW_E_TOTAL)) < 1e-10
        assert all(r.vqe_iterations > 0 and r.vqe_message for r in run.reports[1:])

    def test_pool_is_scored_once_per_report(self, water_run):
        _, _, run, _, scorings = water_run
        assert len(scorings) == len(run.reports) == 5
        assert all(scores is r.scores for scores, r in zip(scorings, run.reports))

    def test_sign_guesses(self, h2o, water_run):
        """The guesses are pinned under JW, and under either transform each
        chosen sign, run through the whole ansatz, is the lower-energy one."""
        ham, fock = h2o
        kind, tr, run, vqe_results, _ = water_run
        guesses = [r.guess for r in run.reports]
        assert guesses[0] is None and guesses[-1] is None
        if kind == "jw":
            assert np.max(np.abs(np.array(guesses[1:-1]) - WATER_JW_GUESSES)) < 1e-10
        n, n_e = ham.n_modes, fock.n_electrons
        sector = spin_sector(n, n_e // 2, n_e // 2, tr)
        by_name = {s.name: s for s in uccsd_pool(range(n_e), range(n_e, n))}
        h = CompiledSum(build_hamiltonian(ham).to_pauli(tr), sector)
        reference = hf_state(n_e, n, tr, sector)
        table = {}
        assert len(vqe_results) == len(run.reports) - 1
        for report, result in zip(run.reports[1:-1], vqe_results):
            terms = [by_name[name] for name in report.term_names + (report.chosen,)]
            energy = {}
            for value in (report.guess, -report.guess):
                ansatz = AnsatzOp.build(
                    tr, terms, result.values + (value,), table=table, sector=sector
                )
                energy[value] = apply_ansatz(reference, ansatz).expectation(h)
            assert energy[report.guess] <= energy[-report.guess]

    def test_full_space_agrees(self, h2o, water_run):
        """The loop's final ansatz and brackets, redone on all 2^14 amplitudes."""
        ham, fock = h2o
        _, tr, run, *_ = water_run
        n, n_e = ham.n_modes, fock.n_electrons
        pool = uccsd_pool(range(n_e), range(n_e, n))
        by_name = {s.name: s for s in pool}
        terms = [by_name[name] for name in run.final.term_names]
        h_pauli = build_hamiltonian(ham).to_pauli(tr)
        sector = spin_sector(n, n_e // 2, n_e // 2, tr)
        states, numerators = [], []
        for space in (None, sector):
            ansatz = AnsatzOp.build(tr, terms, run.final_values, sector=space)
            state = apply_ansatz(hf_state(n_e, n, tr, space), ansatz)
            states.append(state)
            numerators.append(
                first_order_numerators(state, h_pauli, pool, ztilde_operator(ansatz), tr)
            )
        full, small = states
        assert full.expectation(h_pauli) == pytest.approx(run.final.e_vqe, abs=1e-9)
        assert np.max(np.abs(full.amplitudes[sector] - small.amplitudes)) < 1e-12
        assert np.linalg.norm(full.amplitudes[sector]) == pytest.approx(1.0, abs=1e-12)
        for name, value in numerators[0].items():
            assert numerators[1][name] == pytest.approx(value, abs=1e-10)

    def test_numerators_compile_only_what_the_ansatz_lacks(self, h2o, water_run, monkeypatch):
        ham, fock = h2o
        _, tr, run, *_ = water_run
        n, n_e = ham.n_modes, fock.n_electrons
        sector = spin_sector(n, n_e // 2, n_e // 2, tr)
        pool = uccsd_pool(range(n_e), range(n_e, n))
        by_name = {s.name: s for s in pool}
        terms = [by_name[name] for name in run.final.term_names]
        from fqcc.hmp2 import _without_identity

        h = CompiledSum(_without_identity(build_hamiltonian(ham).to_pauli(tr)), sector)
        table = {}
        ansatz = AnsatzOp.build(tr, terms, run.final_values, table=table, sector=sector)
        state = apply_ansatz(hf_state(n_e, n, tr, sector), ansatz)
        zt = ztilde_operator(ansatz)
        fresh = first_order_numerators(state, h, pool, zt, tr)
        compiled = []
        init = CompiledSum.__init__

        def counting(self, op, sector=None):
            compiled.append(op)
            init(self, op, sector)

        monkeypatch.setattr(CompiledSum, "__init__", counting)
        assert first_order_numerators(state, h, pool, zt, tr, table) == fresh
        assert len(compiled) == len(pool) - len(terms)
        assert all(table[seq] is k for seq, k in zip(ansatz.terms, ansatz.generators))
        assert first_order_numerators(state, h, pool, zt, tr, table) == fresh
        assert len(compiled) == len(pool) - len(terms)

    def test_bracket_takes_a_compiled_hamiltonian(self, h2o, water_run):
        ham, fock = h2o
        _, tr, run, *_ = water_run
        n, n_e = ham.n_modes, fock.n_electrons
        sector = spin_sector(n, n_e // 2, n_e // 2, tr)
        h_pauli = build_hamiltonian(ham).to_pauli(tr)
        pool = uccsd_pool(range(n_e), range(n_e, n))[:12]
        state = hf_state(n_e, n, tr, sector)
        from fqcc.hmp2 import _without_identity

        a = first_order_numerators(state, h_pauli, pool, None, tr)
        b = first_order_numerators(state, CompiledSum(_without_identity(h_pauli), sector), pool, None, tr)
        assert a == b
        with pytest.raises(ValueError, match="different sector"):
            first_order_numerators(state, CompiledSum(h_pauli), pool, None, tr)
