"""Perturbative predictor/corrector loop around exact-statevector VQE.

Each cycle minimizes the energy over the current excitation list, then uses
second-order perturbation theory around the converged state to do two jobs
at once: correct the energy, and rank every candidate excitation for the
next cycle.  The key quantity per excitation a is the bracket

    N_a = <psi| Dt_a+ H - Dt_a+ Zt H + Zt Dt_a+ H |psi>,

where Dt_a = D_a - D_a+ is the anti-Hermitian image of the excitation and
Zt is the parameter-weighted sum of the ansatz generators (the first-order
expansion of the ansatz exponentials, consistent with a first-order product
formula).  The energy correction is sum |N_a|^2 / dE_a over the candidate
set, the first-order wavefunction amplitude per excitation is N_a / dE_a,
and the next term is the candidate with the largest amplitude per added
ladder operator.  With an empty ansatz the whole construction is classical
and reduces exactly to second-order Moller-Plesset theory, which also seeds
the first cycle.

Orbital-energy denominators dE come from the reference orbital energies
(annihilated minus created); near-degenerate denominators are excluded with
a warning.  The bracket is blind to any constant in H: the constant adds
c <psi|Dt+|psi>, which is 0 because Dt psi is orthogonal to psi (Dt is real
and antisymmetric, psi real), and c <psi|[Zt, Dt+]|psi>, whose two halves
cancel for the same reason.

The loop runs in the emulator's occupation basis, on its reference's
fixed-(N_alpha, N_beta) sector of occupation masks (``simulate.spin_sector``):
the Hamiltonian, the ansatz generators and every candidate conserve N and
S_z, so the whole loop needs only the sector's amplitudes.  H's ladder form
is built once per run and serves both the classical cycle 0 and the
mapping.  One operator is compiled per run: H - E_HF, with H's identity
folded into the shift, so the VQE minimizes an energy near 0 whose last
decreases round-off does not hide (``simulate.vqe_minimize``).  The VQE,
the sign guesses (energy differences) and the bracket (blind to the
constant) all use it, and the reports add E_HF back.  Every pool
generator is built once per run, up front and from the occupation masks,
in batched passes (``simulate.compile_generators``), and Zt stacks their
weighted rows.  The loop carries the ansatz's values as a tuple parallel
to its terms, and each new term is appended last, so the sign of its
starting value is resolved by applying its one exponential to the cycle's
state.

``run_hmp2_loop`` is the one path through these steps: it forms N_a with
``first_order_numerators``, divides by ``FockData.denominator`` for the
amplitudes and energy contributions, scores the candidates with
``candidate_scores`` and picks the next term with ``select_next``.
``write_cycles_csv`` writes a run's per-cycle table.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fermions import (
    FockData,
    MolecularHamiltonian,
    OrbitalSequence,
    build_hamiltonian,
    uccsd_pool,
)
from .paulis import CompiledSum, RowKernel, _shifted
from .simulate import (
    AnsatzOp, Statevector, _check_space, _occupation_image, _run_terms, _sweep_terms,
    apply_ansatz, compile_generators, hf_state, spin_sector, vqe_minimize,
)

__all__ = [
    "MP2Result", "mp2_classical",
    "ztilde_operator", "first_order_numerators",
    "SelectionResult", "candidate_scores", "select_next",
    "HMP2Config", "HMP2Report", "HMP2Run", "run_hmp2_loop", "write_cycles_csv",
]

_DEGENERATE_TOL = 1e-8
_TIE_WINDOW = 1e-4  # relative score gap within which select_next calls a tie


# ---------------------------------------------------------------------------
# classical reference calculation
# ---------------------------------------------------------------------------


def _apply_ladder(mask: int, ops) -> tuple[int, int]:
    """Apply ladder operators (rightmost first) to an occupation bitmask.

    Returns (sign, mask); sign 0 when the product annihilates the state.
    The sign convention counts occupied modes below the acted-on mode,
    matching the canonical anticommutation ordering.
    """
    sign = 1
    for op in reversed(ops):
        occupied = mask >> op.mode & 1
        if occupied == (1 if op.dagger else 0):
            return 0, 0
        if (mask & ((1 << op.mode) - 1)).bit_count() & 1:
            sign = -sign
        mask ^= 1 << op.mode
    return sign, mask


def _h_on_reference(ham: MolecularHamiltonian, fermion, ref_mask: int) -> dict[int, float]:
    """H|ref> as a map from occupation bitmask to amplitude, classically,
    from H's ladder form ``fermion`` (``build_hamiltonian(ham)``)."""
    out: dict[int, float] = {}
    for term in fermion.terms:
        sign, mask = _apply_ladder(ref_mask, term.ops)
        if sign:
            out[mask] = out.get(mask, 0.0) + sign * term.coefficient.real
    if ham.core_energy:
        out[ref_mask] = out.get(ref_mask, 0.0) + ham.core_energy
    return out


@dataclass(slots=True)
class MP2Result:
    """Second-order correction from the bare reference.  A term with a
    degenerate denominator has no amplitude; the warning names it."""

    e_corr: float
    amplitudes: dict
    contributions: dict


def mp2_classical(
    ham: MolecularHamiltonian,
    fock: FockData,
    pool=None,
) -> MP2Result:
    """Second-order energy and amplitudes over double substitutions.

    Matrix elements <ref_D|H|ref> are evaluated with exact ladder-operator
    arithmetic on occupation bitmasks — no qubit mapping involved.  The
    returned amplitudes seed variational parameters and the first term
    choice.
    """
    if pool is None:
        n_e = fock.n_electrons
        pool = [
            seq
            for seq in uccsd_pool(range(n_e), range(n_e, ham.n_modes))
            if seq.kind == "double"
        ]
    ref_mask = (1 << fock.n_electrons) - 1
    return _mp2(fock, pool, _h_on_reference(ham, build_hamiltonian(ham), ref_mask))


def _mp2(fock, pool, hpsi) -> MP2Result:
    """``mp2_classical`` over ``pool``, with H|ref> (``_h_on_reference``)
    already built."""
    ref_mask = (1 << fock.n_electrons) - 1
    e_corr = 0.0
    amplitudes: dict[str, float] = {}
    contributions: dict[str, float] = {}
    for seq in pool:
        sign, mask = _apply_ladder(ref_mask, seq.term().ops)
        numerator = sign * hpsi.get(mask, 0.0) if sign else 0.0
        delta = fock.denominator(seq)
        if abs(delta) < _DEGENERATE_TOL:
            if numerator:
                warnings.warn(
                    f"excluding {seq.name}: degenerate denominator {delta!r}"
                )
            continue
        amplitudes[seq.name] = numerator / delta
        contributions[seq.name] = numerator * numerator / delta
        e_corr += contributions[seq.name]
    return MP2Result(e_corr, amplitudes, contributions)


# ---------------------------------------------------------------------------
# perturbation around the converged ansatz state
# ---------------------------------------------------------------------------


def ztilde_operator(ansatz: AnsatzOp) -> RowKernel:
    """Parameter-weighted sum of the ansatz generators (first-order ansatz).

    The stack of each term's generator row weighted by its value, over the
    terms with a nonzero value, on the ansatz's sector: an apply adds the
    weighted generators' entries in term order.
    """
    rows = [(value, kernel) for value, kernel in zip(ansatz.values, ansatz.generators) if value]
    shape = (len(rows), 1 << ansatz.n_qubits if ansatz.sector is None else len(ansatz.sector))
    values = np.array([v * kernel.values[0] for v, kernel in rows], dtype=np.complex128)
    columns = np.array([kernel.columns[0] for _, kernel in rows], dtype=np.intp)
    return RowKernel(ansatz.n_qubits, ansatz.sector, values.reshape(shape), columns.reshape(shape))


def first_order_numerators(
    state: Statevector,
    hamiltonian: CompiledSum,
    alphas,
    ztilde: RowKernel | None,
    table: dict | None = None,
) -> dict[str, float]:
    """The correction bracket N_a for each candidate excitation.

    Computes <psi| Dt+ H |psi> - <psi| Dt+ Zt H |psi> + <psi| Zt Dt+ H |psi>
    exactly on the statevector (on its sector, if it has one), sharing
    H|psi> and Zt|psi> across the set.  H and Zt (``ztilde_operator``)
    must be compiled on the state's sector.  H may carry any constant (the
    loop passes H - E_HF): the bracket is blind to it (module docstring),
    up to round-off.  Each candidate's generator
    comes from ``simulate.compile_generators`` on the state's sector, the
    missing ones built together; a shared ``table`` (one per sector) reuses
    the generators an ansatz or an earlier sweep already compiled.
    """
    psi = state.amplitudes
    _check_space("H", state.sector, hamiltonian.sector)
    hpsi = hamiltonian.apply(psi)
    zhpsi = zpsi = None
    if ztilde is not None and len(ztilde):
        _check_space("Zt", state.sector, ztilde.sector)
        zhpsi = ztilde.apply(hpsi)
        zpsi = ztilde.apply(psi)
    table = {} if table is None else table
    out: dict[str, float] = {}
    alphas = list(alphas)
    for seq, dt in zip(alphas, compile_generators(alphas, state.n_qubits, state.sector, table)):
        dpsi = dt.apply(psi)
        bracket = np.vdot(dpsi, hpsi)
        if zpsi is not None:
            bracket -= np.vdot(dpsi, zhpsi)
            # <psi|Zt Dt+ H|psi> = -<Dt Zt psi|H psi> since Zt+ = -Zt
            bracket -= np.vdot(dt.apply(zpsi), hpsi)
        out[seq.name] = float(np.real(bracket))
    return out


def _denominators(fock: FockData, alphas) -> dict[str, float]:
    out = {}
    for seq in alphas:
        delta = fock.denominator(seq)
        if abs(delta) < _DEGENERATE_TOL:
            warnings.warn(f"excluding {seq.name}: degenerate denominator {delta!r}")
            continue
        out[seq.name] = delta
    return out


def _second_order(numerators, deltas):
    """(amplitudes N_a / dE_a, energy contributions N_a^2 / dE_a) per candidate."""
    amplitudes = {name: numerators[name] / delta for name, delta in deltas.items()}
    contributions = {name: numerators[name] ** 2 / delta for name, delta in deltas.items()}
    return amplitudes, contributions


# ---------------------------------------------------------------------------
# term selection
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SelectionResult:
    term: OrbitalSequence
    guess: float


def _ladder_count(seq: OrbitalSequence) -> int:
    return len(seq.creations()) + len(seq.annihilations())


def candidate_scores(pool, current, amplitudes) -> dict[str, float]:
    """|amplitude| / ladder-operator count for each candidate: a pool term
    not in ``current`` that has an amplitude."""
    have = {seq.name for seq in current}
    return {
        seq.name: abs(amplitudes[seq.name]) / _ladder_count(seq)
        for seq in pool
        if seq.name not in have and seq.name in amplitudes
    }


def select_next(
    pool,
    scores: dict,
    amplitudes: dict,
    contributions: dict | None = None,
    threshold: float | None = None,
) -> SelectionResult | None:
    """Pick the candidate with the largest score (``candidate_scores``).

    Ties (scores within a relative ``_TIE_WINDOW`` of the best) break on
    the canonical term order; the guess is the winner's amplitude.  The
    window is wide on purpose: spin partners (the alpha and beta copies of
    one excitation) score equal at the VQE's stationary point, but a VQE
    stopped at a gradient of 1e-7 leaves them up to a few 1e-6 apart, in a
    direction set by the optimizer's path.  On water every candidate that
    is not a spin partner of the top one scores at least 42% below it.

    Returns None when no candidate is scored (the pool is exhausted) or,
    when a threshold and per-term energy contributions are given, when no
    scored candidate's |contribution| reaches it (the loop-complete
    signal).
    """
    if not scores:
        return None
    if threshold is not None and contributions is not None:
        best_gain = max(abs(contributions.get(name, 0.0)) for name in scores)
        if best_gain < threshold:
            return None
    top_score = max(scores.values())
    tied = [
        s for s in pool
        if s.name in scores and top_score - scores[s.name] <= _TIE_WINDOW * top_score
    ]
    best = min(tied, key=OrbitalSequence.sort_key)
    return SelectionResult(best, amplitudes[best.name])


# ---------------------------------------------------------------------------
# the full cycle
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class HMP2Config:
    """Loop controls.

    ``delta_e``: converged when no candidate's predicted energy gain, nor
    the realized change of the last cycle, reaches it.  ``initial_threshold``
    seeds the first ansatz with every term whose classical second-order
    contribution exceeds it (None follows ``delta_e``; ``math.inf`` starts
    from the bare reference and grows one term per cycle).  ``vqe_gtol`` is
    each VQE's stop rule, on the gradient's max-norm
    (``simulate.vqe_minimize``): 1e-7 is the floor measured on water, where
    a tenth of it ends some cycles in line-search failures.  A negative
    ``max_cycles`` or ``vqe_maxiter``, or a negative or NaN ``delta_e`` or
    ``vqe_gtol``, raises ``ValueError``.
    """

    delta_e: float = 1e-6
    initial_threshold: float | None = None
    max_cycles: int = 50
    vqe_gtol: float = 1e-7
    vqe_maxiter: int = 2000

    def __post_init__(self):
        if self.max_cycles < 0 or self.vqe_maxiter < 0:
            raise ValueError("max_cycles and vqe_maxiter must be non-negative")
        if not (self.delta_e >= 0 and self.vqe_gtol >= 0):
            raise ValueError("delta_e and vqe_gtol must be non-negative numbers")


@dataclass(slots=True)
class HMP2Report:
    cycle: int
    n_terms: int
    term_names: tuple
    e_vqe: float
    e_corr2: float
    e_total: float
    amplitudes: dict
    scores: dict
    chosen: str | None
    guess: float | None
    vqe_converged: bool
    vqe_grad_norm: float
    vqe_iterations: int
    vqe_evaluations: int
    vqe_message: str


@dataclass(slots=True)
class HMP2Run:
    """The per-cycle reports, the stop status, and the optimized values of
    the final report's ansatz, parallel to ``final.term_names``.

    ``converged`` holds only when the loop met its stop rule and every
    cycle's VQE converged; ``reason`` says why the loop stopped.
    """

    reports: list
    converged: bool
    reason: str
    final_values: tuple

    @property
    def final(self) -> HMP2Report:
        return self.reports[-1]


def _resolved_sign_guess(h_compiled, state, kernel, guess):
    """Keep whichever sign of the new term's value gives the lower energy.

    The new term comes last in the ansatz, so its exponential (generator
    ``kernel``) acts on ``state``, the current ansatz's state.
    """
    best_value, best_energy = 0.0, math.inf
    for value in (guess, -guess):
        trial = _run_terms(_sweep_terms((kernel,), (value,)), state.amplitudes)
        energy = float(np.real(h_compiled.expectation(trial)))
        if energy < best_energy:
            best_value, best_energy = value, energy
    return best_value


def _hamiltonian_minus_hf(ham: MolecularHamiltonian, n_e: int, sector):
    """(H|ref>, E_HF, H - E_HF compiled on ``sector``), the reference
    filling modes 0 .. n_e - 1.  H's ladder form is built once: it gives
    H|ref> (``_h_on_reference``), whose reference entry is E_HF, and H's
    Jordan-Wigner image, which is shifted (``paulis._shifted``) and compiled."""
    fermion = build_hamiltonian(ham)
    ref_mask = (1 << n_e) - 1
    h_ref = _h_on_reference(ham, fermion, ref_mask)
    e_hf = h_ref[ref_mask]
    return h_ref, e_hf, CompiledSum(_shifted(_occupation_image(fermion), -e_hf), sector)


def run_hmp2_loop(
    ham: MolecularHamiltonian,
    fock: FockData,
    config: HMP2Config | None = None,
) -> HMP2Run:
    """Alternate exact VQE with the perturbative corrector until converged.

    Cycle 0 is fully classical (bare-reference second-order theory) and
    seeds the first ansatz.  Each later cycle minimizes, corrects the
    energy over the full candidate set, and appends the best-scoring new
    term with a sign-resolved initial guess.  Stops when the energy gain
    available (predicted or realized) falls below ``delta_e``, the pool is
    exhausted, or the cycle cap is hit (flagged unconverged).  A run in
    which any cycle's VQE did not converge (for one, it hit
    ``vqe_maxiter``) is flagged unconverged too, its reason naming the
    first such cycle.  Every state lives on the reference's (N_alpha,
    N_beta) sector.
    """
    config = config or HMP2Config()
    n = ham.n_modes
    n_e = fock.n_electrons
    pool = uccsd_pool(range(n_e), range(n_e, n))
    # the reference fills modes 0 .. n_e-1, alpha (even) and beta (odd) in turn
    sector = spin_sector(n, (n_e + 1) // 2, n_e // 2)
    reference = hf_state(n_e, n, sector=sector)
    h_ref, e_hf, h_compiled = _hamiltonian_minus_hf(ham, n_e, sector)

    # cycle 0: fully classical bootstrap over the whole candidate pool
    mp2 = _mp2(fock, pool, h_ref)
    amplitudes0 = mp2.amplitudes
    contributions0 = mp2.contributions
    e_corr2 = mp2.e_corr
    scores0 = candidate_scores(pool, (), amplitudes0)
    reports = [
        HMP2Report(
            cycle=0,
            n_terms=0,
            term_names=(),
            e_vqe=e_hf,
            e_corr2=e_corr2,
            e_total=e_hf + e_corr2,
            amplitudes=amplitudes0,
            scores=scores0,
            chosen=None,
            guess=None,
            vqe_converged=True,
            vqe_grad_norm=0.0,
            vqe_iterations=0,
            vqe_evaluations=0,
            vqe_message="no parameters",
        )
    ]

    f_threshold = (
        config.initial_threshold if config.initial_threshold is not None else config.delta_e
    )
    seeds = [
        seq
        for seq in pool
        if abs(contributions0.get(seq.name, 0.0)) > f_threshold
    ]
    seeds.sort(key=lambda s: -abs(contributions0[s.name]))
    terms: list[OrbitalSequence] = list(seeds)
    start = tuple(amplitudes0[s.name] for s in seeds)  # VQE's starting values

    # one generator per pool excitation on the sector, built together; every
    # selected term is a pool member, so its kernel is read from this table
    generators: dict[OrbitalSequence, RowKernel] = {}
    compile_generators(pool, n, sector, generators)
    if not terms:
        selection = select_next(pool, scores0, amplitudes0, contributions0, config.delta_e)
        if selection is None:
            return HMP2Run(reports, True, "no candidate above threshold", ())
        kernel = generators[selection.term]
        guess = _resolved_sign_guess(h_compiled, reference, kernel, selection.guess)
        reports[0].chosen = selection.term.name
        reports[0].guess = guess
        terms = [selection.term]
        start = (guess,)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degeneracies already reported by cycle 0
        deltas = _denominators(fock, pool)
    converged, reason = False, "cycle cap reached"
    values = ()  # the optimized values of the latest report's ansatz
    for cycle in range(1, config.max_cycles + 1):
        ansatz = AnsatzOp.build(n, terms, start, table=generators, sector=sector)
        result = vqe_minimize(
            h_compiled, ansatz, reference,
            gtol=config.vqe_gtol, maxiter=config.vqe_maxiter,
        )
        values = result.values
        ansatz = ansatz.with_values(values)
        state = apply_ansatz(reference, ansatz)
        ztilde = ztilde_operator(ansatz)
        numerators = first_order_numerators(state, h_compiled, pool, ztilde, generators)
        amplitudes, contributions = _second_order(numerators, deltas)
        e_corr2 = sum(contributions.values())
        e_vqe = e_hf + result.energy
        e_total = e_vqe + e_corr2
        scores = candidate_scores(pool, terms, amplitudes)
        selection = select_next(pool, scores, amplitudes, contributions, config.delta_e)
        report = HMP2Report(
            cycle=cycle,
            n_terms=len(terms),
            term_names=tuple(s.name for s in terms),
            e_vqe=e_vqe,
            e_corr2=e_corr2,
            e_total=e_total,
            amplitudes=amplitudes,
            scores=scores,
            chosen=None,
            guess=None,
            vqe_converged=result.converged,
            vqe_grad_norm=result.grad_norm,
            vqe_iterations=result.n_iterations,
            vqe_evaluations=result.n_evaluations,
            vqe_message=result.message,
        )
        reports.append(report)
        if abs(e_total - reports[-2].e_total) < config.delta_e:
            converged, reason = True, "energy change below threshold"
            break
        if selection is None:
            done_pool = len(terms) == len(pool)
            converged = True
            reason = "pool exhausted" if done_pool else "no candidate above threshold"
            break
        kernel = generators[selection.term]
        guess = _resolved_sign_guess(h_compiled, state, kernel, selection.guess)
        report.chosen = selection.term.name
        report.guess = guess
        terms.append(selection.term)
        start = values + (guess,)
    unconverged = next((r for r in reports if not r.vqe_converged), None)
    if unconverged is not None:
        converged = False
        reason = (
            f"cycle {unconverged.cycle}'s VQE did not converge "
            f"({unconverged.vqe_message}); the loop stopped: {reason}"
        )
    return HMP2Run(reports, converged, reason, values)


def write_cycles_csv(reports, path) -> None:
    """Per-cycle convergence table (the data behind energy-descent plots),
    with each cycle's VQE iterations, energy-and-gradient evaluations, final
    gradient norm and stop message."""
    rows = reports.reports if isinstance(reports, HMP2Run) else reports
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "cycle", "n_terms", "e_vqe", "e_corr2", "e_total", "chosen_term", "f_score",
                "vqe_iterations", "vqe_evaluations", "vqe_grad_norm", "vqe_message",
            ]
        )
        for r in rows:
            score = "" if r.chosen is None else f"{r.scores.get(r.chosen, 0.0):.12g}"
            writer.writerow(
                [
                    r.cycle,
                    r.n_terms,
                    f"{r.e_vqe:.12f}",
                    f"{r.e_corr2:.12f}",
                    f"{r.e_total:.12f}",
                    r.chosen or "",
                    score,
                    r.vqe_iterations,
                    r.vqe_evaluations,
                    f"{r.vqe_grad_norm:.12g}",
                    r.vqe_message,
                ]
            )
