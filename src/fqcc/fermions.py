"""Second-quantized fermionic operators and UCCSD cluster bookkeeping.

Spin-orbital indexing is interleaved: even index = alpha spin, odd index =
beta spin of the same spatial orbital, so the two spin-orbitals of spatial
orbital l sit on adjacent modes (2l, 2l+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_HERMITICITY_TOL = 1e-10


def spin_of(mode):
    """0 for alpha (even modes), 1 for beta (odd modes)."""
    return mode & 1


@dataclass(frozen=True, slots=True)
class LadderOp:
    """A single creation (dagger=True) or annihilation operator."""

    mode: int
    dagger: bool

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError("mode must be non-negative")

    def adjoint(self):
        return LadderOp(self.mode, not self.dagger)

    def __str__(self):
        return f"a+_{self.mode}" if self.dagger else f"a_{self.mode}"


@dataclass(frozen=True, slots=True)
class FermionTerm:
    """coefficient * (ordered product of ladder operators)."""

    coefficient: complex
    ops: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        object.__setattr__(self, "ops", tuple(self.ops))

    def adjoint(self):
        return FermionTerm(
            self.coefficient.conjugate(),
            tuple(op.adjoint() for op in reversed(self.ops)),
        )

    def max_mode(self):
        return max((op.mode for op in self.ops), default=-1)

    def __str__(self):
        body = " ".join(str(op) for op in self.ops) or "1"
        return f"{self.coefficient} * {body}"


class FermionOperator:
    """An ordered collection of FermionTerm plus a scalar constant."""

    __slots__ = ("n_modes", "terms", "constant")

    def __init__(self, n_modes, terms=(), constant=0.0):
        self.n_modes = n_modes
        self.terms = list(terms)
        self.constant = complex(constant)
        for t in self.terms:
            if t.max_mode() >= n_modes:
                raise ValueError(f"term {t} references mode >= {n_modes}")

    def adjoint(self):
        return FermionOperator(
            self.n_modes,
            [t.adjoint() for t in self.terms],
            self.constant.conjugate(),
        )

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            return FermionOperator(self.n_modes, self.terms, self.constant + other)
        if other.n_modes != self.n_modes:
            raise ValueError("mode-count mismatch")
        return FermionOperator(
            self.n_modes, self.terms + other.terms, self.constant + other.constant
        )

    def __mul__(self, scalar):
        return FermionOperator(
            self.n_modes,
            [FermionTerm(t.coefficient * scalar, t.ops) for t in self.terms],
            self.constant * scalar,
        )

    __rmul__ = __mul__

    def __len__(self):
        return len(self.terms)

    def to_pauli(self, transform):
        """Map through a fermion-to-qubit transform to a PauliSum."""
        if transform.n_modes != self.n_modes:
            raise ValueError("transform mode count does not match operator")
        raw = [
            (t.coefficient, tuple((op.mode, op.dagger) for op in t.ops))
            for t in self.terms
        ]
        return transform.map_operator(raw, constant=self.constant)


# ---------------------------------------------------------------------------
# molecular Hamiltonian
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class MolecularHamiltonian:
    """Second-quantized coefficients.

    ``h1[(p, r)]`` multiplies a+_p a_r and ``h2[(p, q, r, s)]`` multiplies
    a+_p a+_q a_r a_s, both in hartree.
    """

    n_modes: int
    core_energy: float = 0.0
    h1: dict = field(default_factory=dict)
    h2: dict = field(default_factory=dict)

    def hermiticity_violations(self):
        """Index tuples whose coefficients break Hermiticity by more than ``_HERMITICITY_TOL``."""
        bad = []
        for (p, r), v in self.h1.items():
            if abs(np.conj(v) - self.h1.get((r, p), 0.0)) > _HERMITICITY_TOL:
                bad.append(("h1", (p, r)))
        for (p, q, r, s), v in self.h2.items():
            # (a+_p a+_q a_r a_s)+ = a+_s a+_r a_q a_p
            if abs(np.conj(v) - self.h2.get((s, r, q, p), 0.0)) > _HERMITICITY_TOL:
                bad.append(("h2", (p, q, r, s)))
        return bad


def build_hamiltonian(h: MolecularHamiltonian) -> FermionOperator:
    """Assemble the ladder-operator form, validating Hermiticity first."""
    bad = h.hermiticity_violations()
    if bad:
        listing = ", ".join(f"{kind}{idx}" for kind, idx in bad[:12])
        more = "" if len(bad) <= 12 else f" (+{len(bad) - 12} more)"
        raise ValueError(f"non-Hermitian coefficients at {listing}{more}")
    terms = []
    for (p, r), v in sorted(h.h1.items()):
        if v != 0.0:
            terms.append(FermionTerm(v, (LadderOp(p, True), LadderOp(r, False))))
    for (p, q, r, s), v in sorted(h.h2.items()):
        if v != 0.0:
            terms.append(
                FermionTerm(
                    v,
                    (
                        LadderOp(p, True),
                        LadderOp(q, True),
                        LadderOp(r, False),
                        LadderOp(s, False),
                    ),
                )
            )
    return FermionOperator(h.n_modes, terms, h.core_energy)


# ---------------------------------------------------------------------------
# UCCSD cluster operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OrbitalSequence:
    """One excitation: creations into virtuals, annihilations out of occupieds.

    Singles carry indices (p, r) for a+_p a_r; doubles carry (p, q, r, s) for
    a+_p a+_q a_r a_s with p < q and r < s (the canonical sign convention).
    Every index is a distinct mode, so the generator K = T - T+ satisfies
    K^3 = -K, which the closed-form exponential in ``simulate`` relies on.
    """

    kind: str
    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if self.kind == "single":
            if len(self.indices) != 2:
                raise ValueError("single excitations take (p, r)")
        elif self.kind == "double":
            if len(self.indices) != 4:
                raise ValueError("double excitations take (p, q, r, s)")
            p, q, r, s = self.indices
            if not (p < q and r < s):
                raise ValueError("double indices must satisfy p < q and r < s")
        else:
            raise ValueError(f"unknown excitation kind {self.kind!r}")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"excitation {self.kind} {self.indices} repeats a mode")

    def creations(self):
        return self.indices[:1] if self.kind == "single" else self.indices[:2]

    def annihilations(self):
        return self.indices[1:] if self.kind == "single" else self.indices[2:]

    @property
    def name(self):
        return f"{self.kind[0]}_" + "_".join(str(i) for i in self.indices)

    def sort_key(self):
        return (0 if self.kind == "single" else 1, self.indices)

    def conserves_spin(self):
        return sum(spin_of(i) for i in self.creations()) == sum(
            spin_of(i) for i in self.annihilations()
        )

    def term(self):
        """a+... a... as a FermionTerm with unit coefficient."""
        ops = tuple(LadderOp(i, True) for i in self.creations()) + tuple(
            LadderOp(i, False) for i in self.annihilations()
        )
        return FermionTerm(1.0, ops)

    def __str__(self):
        return self.name


@dataclass(slots=True)
class FockData:
    """Orbital energies and the reference-energy bookkeeping built on them."""

    orbital_energies: dict
    n_electrons: int

    def denominator(self, seq: OrbitalSequence):
        """Sum of annihilated orbital energies minus created ones.

        Negative for excitations out of the reference into higher orbitals;
        this is the perturbation-theory energy denominator for the excitation.
        """
        out = sum(self.orbital_energies[i] for i in seq.annihilations())
        out -= sum(self.orbital_energies[i] for i in seq.creations())
        return out


def uccsd_pool(occ, virt):
    """All spin-conserving singles and doubles from occ into virt, in canonical order."""
    occ = sorted(occ)
    virt = sorted(virt)
    if set(occ) & set(virt):
        raise ValueError("occupied and virtual index sets overlap")
    pool = []
    for r in occ:
        for p in virt:
            seq = OrbitalSequence("single", (p, r))
            if seq.conserves_spin():
                pool.append(seq)
    for ai, r in enumerate(occ):
        for s in occ[ai + 1 :]:
            for ci, p in enumerate(virt):
                for q in virt[ci + 1 :]:
                    seq = OrbitalSequence("double", (p, q, r, s))
                    if seq.conserves_spin():
                        pool.append(seq)
    pool.sort(key=OrbitalSequence.sort_key)
    return pool


def excitation_generator(seq: OrbitalSequence, n_modes) -> FermionOperator:
    """T - T+ for a single excitation with unit amplitude."""
    fwd = seq.term()
    rev = fwd.adjoint()
    return FermionOperator(n_modes, [fwd, FermionTerm(-rev.coefficient, rev.ops)])
