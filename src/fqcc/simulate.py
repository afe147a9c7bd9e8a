"""Exact-statevector emulation of excitation ansatzes and their minimization.

The emulator runs in the occupation basis: basis index bit q holds the
occupation of spin orbital q, which is the Jordan-Wigner encoding.  Exact
energies do not depend on the encoding: under a linear encoding x -> beta x
the sector, the reference, H and every generator are the occupation-basis
ones conjugated by that permutation of the basis states, so only circuits
need an encoding.

The ansatz is an ordered product of exponentials exp(t_j (T_j - T_j+)), one
per excitation, applied term-exactly: an excitation's modes are distinct
(``OrbitalSequence`` rejects any other), so its generator K satisfies
K^3 = -K and its exponential acts in closed form as 1 + sin(t) K +
(1 - cos(t)) K^2.  On occupation masks K is a signed permutation, so K is
one gather and K^2 is diagonal: an exponential costs one gather, and no
matrix or Pauli string is ever built.  Every operator the emulator
applies is a ``paulis.RowKernel``, the one row layout: H as a
``CompiledSum`` (a layout above the cap on stored nonzeros raises
``ValueError``), each generator with width 1 and the diagonal of K^2, and
Zt.  ``compile_generators`` is the one place excitations become such
kernels, read off the ladder rule in
batched numpy passes, one ladder count at a time, for all the excitations
a table lacks; an ansatz holds one per term, in term order, and ansatzes
built over one table share them.  Its parameters are a float tuple in the
same order, one angle per term; a tuple of the wrong length raises
``ValueError``.  Term order is preserved because a first-order product
formula is order-sensitive.
Expectations are exact (emulating the infinite-shot limit), and gradients
come from an adjoint sweep, so the minimizer sees analytically exact
derivatives.

A sweep works on a few hundred amplitudes per exponential (441 for
water), so numpy's per-call overhead, not arithmetic, sets its cost.  It
reads each generator's arrays once per call, takes every angle's sine and
cosine from one vector ``np.sin`` and ``np.cos`` call, forms each
(1 - cos(t)) K^2 diagonal once for both passes, and updates its vectors
in place.  Each exponential still adds v, sin(t) K v and
(1 - cos(t)) K^2 v in that order, so every result equals the sweep of two
kernel applies and scalar sin and cos per exponential bit for bit
(``oracles.energy_and_gradient_reference``).  That rests on numpy's sin and
cos giving the same bits for a vector as for each element alone, and on
sin(-t) = -sin(t) and cos(-t) = cos(t) bit for bit; the tests compare the
two sweeps wherever they run.  A single exponential, such as HMP2's sign
guess, runs the same path on a one-term sweep.

A state lives either on all 2^n basis states or on a sector: the sorted
occupation masks of the determinants with fixed (N_alpha, N_beta)
(``spin_sector``).  Number- and spin-conserving ansatzes never leave their
reference's sector, so the same kernels and the same sweep run on C(n/2,
N_alpha) * C(n/2, N_beta) amplitudes instead of 2^n (441 against 16,384
for water).  The sector travels with the state, the ansatz and the compiled
operators, and mixing spaces raises ``ValueError``.

``vqe_minimize`` runs an unbounded limited-memory BFGS written with numpy
only (Nocedal and Wright, *Numerical Optimization*: the two-loop recursion,
Algorithm 7.4, with memory 10, and a strong-Wolfe line search with zoom and
cubic interpolation, Algorithms 3.5-3.6), so the emulator loads no scipy.
It stops only when the gradient's max-norm is at most ``gtol``; a failed
line search or the iteration cap ends it unconverged at the best point it
evaluated.  The line search compares energies, so an objective far from 0
(a molecular energy of -75 Ha) hides its last decreases in round-off:
shift it by a constant close to the answer (``hmp2`` minimizes H - E_HF).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fermions import FermionOperator, spin_of
from .paulis import CompiledSum, PauliSum, RowKernel, _parity_of, same_sector
from .transform import Transform

__all__ = [
    "spin_sector", "Statevector", "hf_state", "compile_generators",
    "AnsatzOp", "apply_ansatz", "VQEResult", "vqe_minimize",
]

_NORM_TOL = 1e-9


def _check_space(what, sector, other):
    if not same_sector(sector, other):
        raise ValueError(f"{what} lives on a different sector")


def _occupation_image(op: FermionOperator) -> PauliSum:
    """A fermion operator as a Pauli sum on the occupation basis (JW)."""
    return op.to_pauli(Transform.jordan_wigner(op.n_modes))


def spin_sector(n_modes: int, n_alpha: int, n_beta: int) -> np.ndarray:
    """Sorted occupation masks of the determinants with n_alpha alpha and
    n_beta beta electrons (``fermions.spin_of``)."""
    modes = [[m for m in range(n_modes) if spin_of(m) == s] for s in (0, 1)]
    masks = [
        np.array([sum(1 << m for m in occ) for occ in combinations(ms, k)], dtype=np.int64)
        for ms, k in zip(modes, (n_alpha, n_beta))
    ]
    return np.sort((masks[0][:, None] | masks[1][None, :]).ravel())


@dataclass(slots=True)
class Statevector:
    """A normalized amplitude vector over 2^n computational basis states,
    or over a sector of them (``spin_sector``): one amplitude per sector
    index, in sector order.

    Basis index bit q holds the occupation of spin orbital q (little-endian
    occupancy convention).
    """

    n_qubits: int
    amplitudes: np.ndarray
    sector: np.ndarray | None = None

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.sector is not None:
            self.sector = np.asarray(self.sector, dtype=np.int64)
        size = 1 << self.n_qubits if self.sector is None else len(self.sector)
        if amps.shape != (size,):
            raise ValueError(f"expected {size} amplitudes, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} is not 1")
        self.amplitudes = amps

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "Statevector":
        if not 0 <= index < (1 << n_qubits):
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)


def hf_state(n_electrons: int, n_modes: int, *, sector=None) -> Statevector:
    """Single-reference state: the n_electrons lowest spin orbitals occupied.

    With a sector the state lives on it, which must hold the reference.
    """
    if not 0 <= n_electrons <= n_modes:
        raise ValueError(
            f"cannot place {n_electrons} electrons in {n_modes} spin orbitals"
        )
    index = (1 << n_electrons) - 1
    if sector is None:
        return Statevector.basis(n_modes, index)
    sector = np.asarray(sector, dtype=np.int64)
    pos = int(np.searchsorted(sector, index))
    if pos == len(sector) or sector[pos] != index:
        raise ValueError(f"the reference (basis index {index}) is not in the sector")
    amps = np.zeros(len(sector), dtype=np.complex128)
    amps[pos] = 1.0
    return Statevector(n_modes, amps, sector)


def _apply_ladders(masks: np.ndarray, modes: np.ndarray, daggers) -> tuple[np.ndarray, np.ndarray]:
    """``hmp2._apply_ladder`` on every mask at once, for a batch of ladder
    products: row b of ``modes`` (rows, k) is one product of k ladders,
    ladder i on mode ``modes[b, i]`` and a creation when ``daggers[i]``,
    applied rightmost first.  Returns (signs, masks), each (rows, len(masks)),
    both 0 where the product annihilates the state.  The sign's parity is
    that of the xor of the occupied modes below each acted-on mode."""
    alive = np.ones((len(modes), len(masks)), dtype=bool)
    below = np.zeros(alive.shape, dtype=np.int64)
    bits = 1 << modes[:, :, None]
    for i in reversed(range(len(daggers))):
        bit = bits[:, i]
        alive &= ((masks & bit) == 0) == daggers[i]
        below ^= masks & (bit - 1)
        masks = masks ^ bit
    signs = (1 - 2 * _parity_of(below).astype(np.int64)) * alive
    return signs, np.where(alive, masks, 0)


# amplitudes per generator batch: each kernel keeps its row of the batch's
# arrays, and batches of 1 << 14 raised a water HMP2 run's peak RSS by 0.4-1 MB
_BATCH_ENTRIES = 1 << 12


def _generator_kernels(seqs, n_modes: int, sector) -> list:
    """T - T+ of each excitation as a width-1 ``RowKernel``: row r holds +s
    at c where T+|r> = s|c>, or -s at c where T|r> = s|c>.

    Excitations with the same ladder count are built together, a batch of
    up to ``_BATCH_ENTRIES`` amplitudes at a time, and each kernel's arrays
    are its row of the batch's.  A product a+... a... of k ladders and its
    adjoint share the dagger pattern, k/2 creations first, on reversed
    modes.  The first excitation (in ``seqs`` order) that couples the
    sector to a state outside it raises ``ValueError``.
    """
    if sector is not None:
        sector = np.asarray(sector, dtype=np.int64)
    points = np.arange(1 << n_modes, dtype=np.int64) if sector is None else sector
    dim = len(points)
    step = max(_BATCH_ENTRIES // dim, 1)
    kernels, leaving = [None] * len(seqs), []
    by_count: dict[int, list] = {}
    for i, seq in enumerate(seqs):
        by_count.setdefault(len(seq.indices), []).append(i)
    for k, members in by_count.items():
        daggers = (True,) * (k // 2) + (False,) * (k // 2)
        for start in range(0, len(members), step):
            batch = members[start : start + step]
            modes = np.array([seqs[i].indices for i in batch], dtype=np.int64)
            values = np.zeros((len(batch), dim), dtype=np.complex128)
            columns = np.tile(np.arange(dim, dtype=np.intp), (len(batch), 1))
            for ladder_modes, sense in ((modes[:, ::-1], 1), (modes, -1)):
                signs, partners = _apply_ladders(points, ladder_modes, daggers)
                rows = np.nonzero(signs)
                partners = partners[rows]
                if sector is not None:
                    pos = np.minimum(np.searchsorted(sector, partners), dim - 1)
                    leaving += [batch[b] for b in rows[0][sector[pos] != partners].tolist()]
                    partners = pos
                values[rows] = sense * signs[rows]
                columns[rows] = partners
            square = values * np.take_along_axis(values, columns, axis=1)
            for b, i in enumerate(batch):
                kernels[i] = RowKernel(
                    n_modes, sector, values[b : b + 1], columns[b : b + 1], square[b]
                )
    if leaving:
        raise ValueError(f"{seqs[min(leaving)].name} couples the sector to states outside it")
    return kernels


def compile_generators(seqs, n_modes: int, sector, table: dict) -> tuple:
    """T - T+ for each excitation on ``n_modes`` modes, compiled on the
    occupation basis restricted to the sector (None: the full space), in
    ``seqs`` order.

    Built by the ladder rule on the occupation masks: each state meets at
    most one of T and T+, so K has one entry per row.  A sector state that
    K takes out of the sector raises ``ValueError``, naming the first such
    excitation, and leaves ``table`` unchanged.  ``table`` (excitation ->
    compiled generator) is shared, not copied: an excitation already in it
    is returned as is, and the missing ones are built together, in batches
    of one ladder count (``_generator_kernels``), so callers that pass one
    table per sector compile each generator once.
    """
    missing = [seq for seq in dict.fromkeys(seqs) if seq not in table]
    if missing:
        table.update(zip(missing, _generator_kernels(missing, n_modes, sector)))
    return tuple(table[seq] for seq in seqs)


def _term_values(values, n_terms: int) -> tuple:
    values = tuple(float(v) for v in values)
    if len(values) != n_terms:
        raise ValueError(f"{len(values)} values for {n_terms} ansatz terms")
    return values


@dataclass(slots=True)
class AnsatzOp:
    """An ordered excitation list on ``n_qubits`` modes, one qubit per
    mode, and one value per term.

    ``generators`` and ``values`` run parallel to ``terms``: each term's
    T - T+ as a ``RowKernel`` on the ansatz's sector (None: the full
    space), built by ``compile_generators`` when the ansatz is built, and
    the term's angle.
    """

    n_qubits: int
    terms: tuple
    generators: tuple
    values: tuple
    sector: np.ndarray | None = None

    @classmethod
    def build(
        cls,
        n_qubits: int,
        terms,
        values=None,
        *,
        table: dict | None = None,
        sector=None,
    ) -> "AnsatzOp":
        """Validate the term list and compile its generators through
        ``table`` (``compile_generators``), so ansatzes built over one table
        hold the same compiled generators for the terms they share.
        ``values`` (None: all zero) must hold one angle per term.  On a
        sector, a term that leaves it raises ``ValueError``.
        """
        terms = tuple(terms)
        if len(set(terms)) != len(terms):
            raise ValueError("duplicate excitation in ansatz")
        values = (0.0,) * len(terms) if values is None else _term_values(values, len(terms))
        table = {} if table is None else table
        generators = compile_generators(terms, n_qubits, sector, table)
        return cls(n_qubits, terms, generators, values, sector)

    def with_values(self, values) -> "AnsatzOp":
        """The same terms and generators with new angles, one per term."""
        values = _term_values(values, len(self.terms))
        return AnsatzOp(self.n_qubits, self.terms, self.generators, values, self.sector)


def _rotate(vec, kvec, sin, one_minus_cos_square, scratch):
    """exp(theta K) vec, written over ``vec``: vec + sin(theta) K vec +
    (1 - cos(theta)) d * vec, added in that order, from ``kvec`` = K vec
    (scaled in place) and (1 - cos(theta)) d, with d the diagonal of K^2;
    ``scratch`` is a work vector.  K v = t * v[pos] is one gather, and K^2 v
    = t * t[pos] * v[pos[pos]] = d * v, since pos is an involution wherever
    t is nonzero.  A generator's entries are exactly 0, +-1 or +-i, so d * v
    equals K (K v) bit for bit, and d is 0 or -1, so ((1 - cos(theta)) d)
    vec equals (1 - cos(theta)) (d vec) exactly: those products round
    nothing."""
    np.multiply(one_minus_cos_square, vec, out=scratch)
    kvec *= sin
    vec += kvec
    vec += scratch


def _sweep_terms(generators, x) -> list:
    """Per term, (t, pos, theta, sin(theta), (1 - cos(theta)) d): its
    generator's row values and columns, each read once, its angle, and the
    angle's sine and 1 - cosine, from one ``np.sin`` and one ``np.cos`` call
    over all angles, the latter times d, the diagonal of K^2.  Elementwise,
    those calls equal the scalar ones bit for bit; sine is odd and cosine
    even, so the inverse factor exp(-theta K) takes -sin and the same
    (1 - cos(theta)) d."""
    x = np.asarray(x, dtype=float)
    one_minus_cos = (1.0 - np.cos(x)).tolist()
    return [
        (k.values[0], k.columns[0], theta, sin, c * k.square)
        for k, theta, sin, c in zip(generators, x.tolist(), np.sin(x).tolist(), one_minus_cos)
    ]


def _run_terms(terms, vec):
    """A copy of ``vec`` with each exponential of ``_sweep_terms`` applied
    in term order; a zero angle is skipped.  One exponential on its own is
    ``_run_terms(_sweep_terms((kernel,), (theta,)), vec)``."""
    vec = np.array(vec, dtype=np.complex128)
    scratch = np.empty_like(vec)
    for values, columns, theta, sin, one_minus_cos_square in terms:
        if theta:
            kvec = vec[columns]
            kvec *= values
            _rotate(vec, kvec, sin, one_minus_cos_square, scratch)
    return vec


def apply_ansatz(state: Statevector, ansatz: AnsatzOp) -> Statevector:
    """Apply each excitation exponential in term order, exactly."""
    if state.n_qubits != ansatz.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, ansatz expects {ansatz.n_qubits}"
        )
    _check_space("the ansatz", state.sector, ansatz.sector)
    amps = _run_terms(_sweep_terms(ansatz.generators, ansatz.values), state.amplitudes)
    return Statevector(state.n_qubits, amps, state.sector)


@dataclass(slots=True)
class VQEResult:
    """The minimized energy and its angles, one per ansatz term in order.

    ``converged`` holds exactly when ``grad_norm``, the gradient's max-norm
    at ``values``, is at most the run's ``gtol``; ``message`` names the rule
    that stopped the run.  ``n_iterations`` counts accepted steps and
    ``n_evaluations`` the energy-and-gradient evaluations, line searches
    included.
    """

    energy: float
    values: tuple
    converged: bool
    grad_norm: float
    n_iterations: int
    n_evaluations: int
    message: str


def _energy_and_gradient(x, hamiltonian, ansatz, reference):
    """Exact energy and adjoint-sweep gradient at parameter vector x.

    With psi = U_M ... U_1 |ref> and K_j commuting with U_j, the derivative
    for term j is 2 Re <bra_j| K_j |ket_j> where ket_j carries the first j
    factors and bra_j is H psi pulled back through the later factors.  The
    sweep's K_j ket_j also serves ket's step back through U_j, so each
    step costs two gathers: K_j ket_j and K_j bra_j.  Each generator's
    arrays, each angle's sine and (1 - cos) d are formed once per call
    (``_sweep_terms``) and serve both passes, and each factor's arithmetic
    is ``_rotate``'s, so the result equals the sweep of two kernel applies
    per exponential bit for bit
    (``oracles.energy_and_gradient_reference``).
    """
    terms = _sweep_terms(ansatz.generators, x)
    psi = _run_terms(terms, reference.amplitudes)
    hpsi = hamiltonian.apply(psi)
    energy = float(np.vdot(psi, hpsi).real)
    grad = []
    ket, bra = psi, hpsi
    scratch = np.empty_like(psi)
    for j in range(len(terms) - 1, -1, -1):
        values, columns, _, sin, one_minus_cos_square = terms[j]
        kvec = ket[columns]
        kvec *= values
        grad.append(2.0 * float(np.vdot(bra, kvec).real))
        if j:
            # ket and bra step back through U_j in place
            _rotate(ket, kvec, -sin, one_minus_cos_square, scratch)
            kvec = bra[columns]
            kvec *= values
            _rotate(bra, kvec, -sin, one_minus_cos_square, scratch)
    grad.reverse()
    return energy, np.array(grad)


_MEMORY = 10  # correction pairs kept by the two-loop recursion
_C1, _C2 = 1e-4, 0.9  # strong-Wolfe constants: sufficient decrease, curvature
_LINE_EVALS = 20  # evaluations one line search may spend


def _two_loop(g, pairs):
    """-H g for the L-BFGS inverse-Hessian estimate H of the correction
    ``pairs`` (s, y, 1 / (y . s)), oldest first, with H0 = (s.y / y.y) I
    from the newest (Nocedal and Wright, Algorithm 7.4)."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        q /= rho * (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return -q


def _cubic_step(lo, hi):
    """The step of the zoom interval's next trial: the minimizer of the
    cubic through both ends' energies and slopes (Nocedal and Wright, eq.
    3.59), kept a tenth of the interval away from either end, else its
    midpoint.  ``lo`` and ``hi`` are (step, energy, slope, ...) points."""
    (a, fa, da), (b, fb, db) = lo[:3], hi[:3]
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    margin = 0.1 * abs(b - a)
    if disc >= 0.0:
        d2 = math.copysign(math.sqrt(disc), b - a)
        denom = db - da + 2.0 * d2
        if denom:
            step = b - (b - a) * (db + d2 - d1) / denom
            if min(a, b) + margin <= step <= max(a, b) - margin:
                return step
    return 0.5 * (a + b)


def _line_search(evaluate, f0, slope0, step):
    """A point (step, energy, slope, gradient, x) along the search
    direction that meets the strong Wolfe conditions, or None when
    ``_LINE_EVALS`` evaluations find none.

    ``evaluate(step)`` returns the point at ``step``.  Trial steps double
    until one brackets an acceptable step (Nocedal and Wright, Algorithm
    3.5); the bracket [lo, hi] then shrinks by safeguarded cubic
    interpolation (Algorithm 3.6).  ``lo`` is always the lowest point found
    that meets the sufficient-decrease condition.
    """
    lo, hi = (0.0, f0, slope0), None
    for _ in range(_LINE_EVALS):
        point = evaluate(step if hi is None else _cubic_step(lo, hi))
        trial, f, slope = point[:3]
        if f > f0 + _C1 * trial * slope0 or f >= lo[1]:
            hi = point
        elif abs(slope) <= -_C2 * slope0:
            return point
        else:
            # a slope pointing back past lo (or up, before any bracket):
            # the old lo bounds the far side
            if slope * ((hi[0] if hi is not None else math.inf) - lo[0]) >= 0.0:
                hi = lo
            lo = point
            step = 2.0 * trial
    return None


def _lbfgs(fun, x, gtol, maxiter):
    """Minimize ``fun`` (x -> (f, gradient)) from x by L-BFGS: returns a
    point (x, f, g) and (iterations, evaluations, message).  Stops at the
    current iterate when max |g| <= gtol, or at the lowest point evaluated
    after ``maxiter`` steps or when a line search fails."""
    f, g = fun(x)
    best = (x, f, g)
    pairs = []
    n_iter, n_eval = 0, 1

    def evaluate(step):
        nonlocal best, n_eval
        xt = x + step * direction
        ft, gt = fun(xt)
        n_eval += 1
        if ft < best[1]:
            best = (xt, ft, gt)
        return step, ft, float(gt @ direction), gt, xt

    while True:
        if np.max(np.abs(g)) <= gtol:
            return (x, f, g), (n_iter, n_eval, "gradient max-norm at or below gtol")
        if n_iter == maxiter:
            return best, (n_iter, n_eval, "iteration cap reached")
        direction = _two_loop(g, pairs)
        step = 1.0 if pairs else min(1.0, 1.0 / float(np.linalg.norm(g)))
        point = _line_search(evaluate, f, float(g @ direction), step)
        if point is None:
            return best, (n_iter, n_eval, "line search failed")
        _, f_new, _, g_new, x_new = point
        s, y = x_new - x, g_new - g
        if s @ y > 0.0:
            pairs = (pairs + [(s, y, 1.0 / (s @ y))])[-_MEMORY:]
        x, f, g = x_new, f_new, g_new
        n_iter += 1


def vqe_minimize(
    hamiltonian: CompiledSum,
    ansatz: AnsatzOp,
    reference: Statevector,
    gtol: float = 1e-7,
    maxiter: int = 2000,
) -> VQEResult:
    """Minimize <ref| U+ H U |ref> over the ansatz parameters.

    Exact expectations and analytic gradients feed L-BFGS (module
    docstring) from the ansatz's values, so a warm start is
    ``ansatz.with_values(x)``; the run is deterministic for a given start.
    It is ``converged`` only when the gradient's max-norm falls to ``gtol``
    or below.  A run that takes ``maxiter`` steps, or whose line search
    fails (round-off hides any further decrease), comes back flagged
    ``converged=False`` with the lowest-energy point it evaluated, and
    ``message`` says which rule stopped it.  The reference, the ansatz and
    the compiled Hamiltonian must share one sector.  A negative ``maxiter``,
    or a negative or NaN ``gtol``, raises ``ValueError``.
    """
    if maxiter < 0:
        raise ValueError("maxiter must be non-negative")
    if not gtol >= 0:
        raise ValueError("gtol must be a non-negative number")
    _check_space("the Hamiltonian", reference.sector, hamiltonian.sector)
    _check_space("the ansatz", reference.sector, ansatz.sector)
    if not ansatz.terms:
        energy = float(np.real(hamiltonian.expectation(reference.amplitudes)))
        return VQEResult(energy, (), True, 0.0, 0, 1, "no parameters")
    (x, energy, grad), (n_iter, n_eval, message) = _lbfgs(
        lambda v: _energy_and_gradient(v, hamiltonian, ansatz, reference),
        np.array(ansatz.values), gtol, maxiter,
    )
    grad_norm = float(np.max(np.abs(grad)))
    return VQEResult(
        energy=energy,
        values=tuple(x.tolist()),
        converged=grad_norm <= gtol,
        grad_norm=grad_norm,
        n_iterations=n_iter,
        n_evaluations=n_eval,
        message=message,
    )
