"""Exact-statevector emulation of excitation ansatzes and their minimization.

The ansatz is an ordered product of exponentials exp(t_j (T_j - T_j+)), one
per excitation, applied term-exactly: an excitation's modes are distinct
(``OrbitalSequence`` rejects any other), so its generator K satisfies
K^3 = -K and its exponential acts in closed form as 1 + sin(t) K +
(1 - cos(t)) K^2 -- two kernel applications, no matrix ever built.
``compile_generator`` is the one place an excitation becomes such a kernel;
an ansatz holds one per term, in term order, and ansatzes built over one
table share them.  Its parameters are a float tuple in the same order, one
angle per term; a tuple of the wrong length raises ``ValueError``.  Term
order is preserved because a first-order product formula is
order-sensitive.  Expectations are exact (emulating the infinite-shot
limit), and gradients come from an adjoint sweep, so the minimizer sees
analytically exact derivatives.

A state lives either on all 2^n basis states or on a sector: the sorted
basis indices that the determinants with fixed (N_alpha, N_beta) encode to
(``spin_sector``).  Number- and spin-conserving ansatzes never leave their
reference's sector, so the same kernels and the same sweep run on C(n/2,
N_alpha) * C(n/2, N_beta) amplitudes instead of 2^n (441 against 16,384
for water).  The sector travels with the state, the ansatz and the compiled
operators, and mixing spaces raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import minimize

from .fermions import OrbitalSequence, excitation_generator, spin_of
from .paulis import CompiledSum, PauliSum, same_sector

__all__ = [
    "spin_sector", "Statevector", "hf_state", "compile_generator", "AnsatzOp", "apply_ansatz",
    "VQEResult", "vqe_minimize",
]

_NORM_TOL = 1e-9


def _check_space(what, sector, other):
    if not same_sector(sector, other):
        raise ValueError(f"{what} lives on a different sector")


def spin_sector(n_modes: int, n_alpha: int, n_beta: int, transform=None) -> np.ndarray:
    """Sorted basis indices of the determinants with n_alpha alpha and n_beta
    beta electrons (``fermions.spin_of``), encoded through the transform
    when one is given (x = beta n is linear, so each index is the XOR of
    the encoded single-mode columns of its occupied modes).
    """
    modes = [[m for m in range(n_modes) if spin_of(m) == s] for s in (0, 1)]
    masks = [
        np.array([sum(1 << m for m in occ) for occ in combinations(ms, k)], dtype=np.int64)
        for ms, k in zip(modes, (n_alpha, n_beta))
    ]
    occupations = (masks[0][:, None] | masks[1][None, :]).ravel()
    if transform is None:
        return np.sort(occupations)
    codes = np.zeros_like(occupations)
    for m in range(n_modes):
        column = transform.encode_occupation(1 << m)
        codes ^= np.where(occupations >> m & 1, column, 0)
    return np.sort(codes)


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

    def expectation(self, op) -> float:
        """Exact <psi|op|psi> for a Hermitian PauliSum (real part returned)."""
        if isinstance(op, PauliSum):
            op = CompiledSum(op, self.sector)
        _check_space("the operator", self.sector, op.sector)
        return float(np.real(op.expectation(self.amplitudes)))


def hf_state(n_electrons: int, n_modes: int, transform=None, sector=None) -> Statevector:
    """Single-reference state: the n_electrons lowest spin orbitals occupied.

    With a transform the occupation pattern is pushed through its encoding,
    so the returned basis state is the reference in that transform's qubit
    convention; without one the occupation bits are the qubit bits.  With a
    sector the state lives on it, which must hold the reference.
    """
    if not 0 <= n_electrons <= n_modes:
        raise ValueError(
            f"cannot place {n_electrons} electrons in {n_modes} spin orbitals"
        )
    occupation = (1 << n_electrons) - 1
    index = occupation if transform is None else transform.encode_occupation(occupation)
    if sector is None:
        return Statevector.basis(n_modes, index)
    sector = np.asarray(sector, dtype=np.int64)
    pos = int(np.searchsorted(sector, index))
    if pos == len(sector) or sector[pos] != index:
        raise ValueError(f"the reference (basis index {index}) is not in the sector")
    amps = np.zeros(len(sector), dtype=np.complex128)
    amps[pos] = 1.0
    return Statevector(n_modes, amps, sector)


def compile_generator(seq: OrbitalSequence, transform, sector, table: dict) -> CompiledSum:
    """T - T+ for one excitation, mapped through the transform and compiled
    on the sector (None: the full space).

    ``table`` (excitation -> compiled generator) is shared, not copied: an
    excitation already in it is returned as is, so callers that pass one
    table per transform and sector compile each generator once.
    """
    compiled = table.get(seq)
    if compiled is None:
        op = excitation_generator(seq, transform.n_modes).to_pauli(transform)
        compiled = table[seq] = CompiledSum(op, sector)
    return compiled


def _term_values(values, n_terms: int) -> tuple:
    values = tuple(float(v) for v in values)
    if len(values) != n_terms:
        raise ValueError(f"{len(values)} values for {n_terms} ansatz terms")
    return values


@dataclass(slots=True)
class AnsatzOp:
    """An ordered excitation list, its transform, and one value per term.

    ``generators`` and ``values`` run parallel to ``terms``: the compiled
    image of each term's T - T+ on the ansatz's sector (None: the full
    space), built by ``compile_generator`` when the ansatz is built, and
    the term's angle.
    """

    transform: object
    terms: tuple
    generators: tuple
    values: tuple
    sector: np.ndarray | None = None

    @classmethod
    def build(
        cls,
        transform,
        terms,
        values=None,
        *,
        table: dict | None = None,
        sector=None,
    ) -> "AnsatzOp":
        """Validate the term list and compile its generators through
        ``table`` (``compile_generator``), so ansatzes built over one table
        hold the same compiled generators for the terms they share.
        ``values`` (None: all zero) must hold one angle per term.  On a
        sector, a term that leaves it raises ``ValueError``.
        """
        terms = tuple(terms)
        if len(set(terms)) != len(terms):
            raise ValueError("duplicate excitation in ansatz")
        values = (0.0,) * len(terms) if values is None else _term_values(values, len(terms))
        table = {} if table is None else table
        generators = tuple(compile_generator(seq, transform, sector, table) for seq in terms)
        return cls(transform, terms, generators, values, sector)

    @property
    def n_qubits(self) -> int:
        return self.transform.n_modes

    def with_values(self, values) -> "AnsatzOp":
        """The same terms and generators with new angles, one per term."""
        values = _term_values(values, len(self.terms))
        return AnsatzOp(self.transform, self.terms, self.generators, values, self.sector)


def _apply_exponential(kernel: CompiledSum, theta: float, vec):
    """exp(theta K) vec in closed form, for a generator with K^3 = -K."""
    kv = kernel.apply(vec)
    kkv = kernel.apply(kv)
    return vec + np.sin(theta) * kv + (1.0 - np.cos(theta)) * kkv


def _run_terms(ansatz: AnsatzOp, values, vec):
    for kernel, theta in zip(ansatz.generators, values):
        if theta:
            vec = _apply_exponential(kernel, theta, vec)
    return vec


def apply_ansatz(state: Statevector, ansatz: AnsatzOp) -> Statevector:
    """Apply each excitation exponential in term order, exactly."""
    if state.n_qubits != ansatz.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, ansatz expects {ansatz.n_qubits}"
        )
    _check_space("the ansatz", state.sector, ansatz.sector)
    amps = _run_terms(ansatz, ansatz.values, state.amplitudes)
    return Statevector(state.n_qubits, amps, state.sector)


@dataclass(slots=True)
class VQEResult:
    """The minimized energy and its angles, one per ansatz term in order."""

    energy: float
    values: tuple
    converged: bool
    grad_norm: float
    n_iterations: int
    message: str


def _energy_and_gradient(x, hamiltonian, ansatz, reference):
    """Exact energy and adjoint-sweep gradient at parameter vector x.

    With psi = U_M ... U_1 |ref> and K_j commuting with U_j, the derivative
    for term j is 2 Re <bra_j| K_j |ket_j> where ket_j carries the first j
    factors and bra_j is H psi pulled back through the later factors.
    """
    psi = _run_terms(ansatz, x, reference.amplitudes)
    hpsi = hamiltonian.apply(psi)
    energy = float(np.real(np.vdot(psi, hpsi)))
    grad = np.zeros(len(x))
    ket, bra = psi, hpsi
    for j in range(len(x) - 1, -1, -1):
        kernel = ansatz.generators[j]
        grad[j] = 2.0 * float(np.real(np.vdot(bra, kernel.apply(ket))))
        if j:
            ket = _apply_exponential(kernel, -x[j], ket)
            bra = _apply_exponential(kernel, -x[j], bra)
    return energy, grad


def vqe_minimize(
    hamiltonian,
    ansatz: AnsatzOp,
    reference: Statevector,
    gtol: float = 1e-7,
    maxiter: int = 2000,
) -> VQEResult:
    """Minimize <ref| U+ H U |ref> over the ansatz parameters.

    Exact expectations and analytic gradients feed a bounded quasi-Newton
    search (L-BFGS-B) from the ansatz's values, so a warm start is
    ``ansatz.with_values(x)``; the run is deterministic for a given start.
    A result that exhausts the iteration cap before reaching the gradient
    tolerance comes back flagged ``converged=False`` with the best point
    found.  The reference, the ansatz and a compiled Hamiltonian must share
    one sector; a PauliSum Hamiltonian is compiled onto the reference's.
    """
    if isinstance(hamiltonian, PauliSum):
        hamiltonian = CompiledSum(hamiltonian, reference.sector)
    _check_space("the Hamiltonian", reference.sector, hamiltonian.sector)
    _check_space("the ansatz", reference.sector, ansatz.sector)
    if not ansatz.terms:
        energy = float(np.real(hamiltonian.expectation(reference.amplitudes)))
        return VQEResult(energy, (), True, 0.0, 0, "no parameters")
    res = minimize(
        _energy_and_gradient,
        np.array(ansatz.values),
        args=(hamiltonian, ansatz, reference),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "gtol": gtol, "ftol": 1e-14},
    )
    grad_norm = float(np.max(np.abs(res.jac)))
    message = res.message if isinstance(res.message, str) else res.message.decode()
    return VQEResult(
        energy=float(res.fun),
        values=tuple(res.x.tolist()),
        converged=grad_norm < gtol,
        grad_norm=grad_norm,
        n_iterations=int(res.nit),
        message=message,
    )
