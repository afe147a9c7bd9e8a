"""Measurement planning: register reduction and commuting-group partitions.

Two independent reductions of the Pauli strings an expectation value needs:

* **Qubit-space reduction (QSR).**  Partition the register into qubits that
  are genuinely entangled, qubits frozen in a known basis state, and orbital
  pairs confined to the equal-occupation subspace span{|00>, |11>}.  Letters
  on frozen qubits evaluate to scalars, and letters on a confined pair
  collapse to one letter on a single compressed wire.  Both rules read the
  string's bit masks: an x bit on a frozen qubit drops the string and a z
  bit on a frozen 1 flips the sign; a pair whose two x bits differ drops the
  string, otherwise its wire keeps that x bit and takes the xor of the two
  z bits, and YY gives a factor of -1.  Expectations are preserved exactly
  for states of the declared product form.

* **Commuting-group partitions.**  Greedy first-fit grouping of strings that
  can be measured simultaneously, under qubit-wise commutation (QWC: joint
  eigenbasis is a product basis, no extra gates) or general commutation (GC:
  fewer groups, but each needs a basis-change Clifford).  The GC circuit is
  built by symplectic elimination over the group's independent generators
  and its two-qubit gate count is the reported measurement overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuits import Circuit
from .paulis import PauliString, PauliSum, word_key

__all__ = [
    "QSRContext", "qsr_context_from_terms", "qsr_compress", "qsr_compress_sum",
    "MeasurementGroup", "MeasurementPlan",
    "partition_qwc", "partition_gc",
]


# ---------------------------------------------------------------------------
# qubit-space reduction
# ---------------------------------------------------------------------------


@dataclass(slots=True, frozen=True)
class QSRContext:
    """How each physical qubit is used: entangled, frozen, or pair-confined.

    ``classical`` maps a frozen qubit to its basis value; ``pairs`` lists
    orbital pairs confined to span{|00>, |11|}.  Together with ``entangled``
    they must partition the register.  The reduced register keeps one wire
    per entangled qubit and one per pair, ordered by smallest physical index;
    ``slots`` lists that layout, built once with the context.
    """

    n_qubits: int
    entangled: tuple
    classical: dict
    pairs: tuple
    # reduced-register layout: ("qubit", q) and ("pair", (a, b)) entries
    slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = list(self.entangled) + list(self.classical)
        for a, b in self.pairs:
            members += [a, b]
        if sorted(members) != list(range(self.n_qubits)):
            raise ValueError("entangled, classical, and pair qubits must partition the register")
        entries = [("qubit", q) for q in self.entangled]
        entries += [("pair", (a, b)) for a, b in self.pairs]
        entries.sort(key=lambda e: e[1] if e[0] == "qubit" else min(e[1]))
        object.__setattr__(self, "slots", tuple(entries))

    @property
    def reduced_n(self):
        return len(self.entangled) + len(self.pairs)


def qsr_context_from_terms(terms, n_modes, n_electrons) -> QSRContext:
    """Classify the register from the excitations an ansatz currently uses.

    Assumes the occupancy-aligned encoding (qubit q holds orbital q) with
    orbital pairs (2k, 2k+1).  A pair nothing touches stays a frozen product
    of reference bits; a pair touched only as a complete unit — every
    touching excitation creates or annihilates both of its orbitals together
    — stays inside the equal-occupation subspace and compresses to one wire;
    anything else is entangled.
    """
    if n_modes % 2:
        raise ValueError("orbital pairing needs an even mode count")
    terms = list(terms)
    touched: dict[int, list] = {q: [] for q in range(n_modes)}
    for seq in terms:
        for q in (*seq.creations(), *seq.annihilations()):
            touched[q].append(seq)

    entangled: list[int] = []
    classical: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for k in range(n_modes // 2):
        a, b = 2 * k, 2 * k + 1
        touching = {*touched[a], *touched[b]}
        if not touching:
            classical[a] = 1 if a < n_electrons else 0
            classical[b] = 1 if b < n_electrons else 0
            continue
        unit = all(
            seq.kind == "double"
            and (seq.creations() == (a, b) or not set(seq.creations()) & {a, b})
            and (seq.annihilations() == (a, b) or not set(seq.annihilations()) & {a, b})
            for seq in touching
        )
        if unit:
            pairs.append((a, b))
        else:
            for q in (a, b):
                if touched[q]:
                    entangled.append(q)
                else:
                    classical[q] = 1 if q < n_electrons else 0
    return QSRContext(n_modes, tuple(entangled), classical, tuple(pairs))


def qsr_compress(s: PauliString, ctx: QSRContext):
    """One string through the reduction: (reduced string or None, factor).

    The original expectation factorizes as factor * <reduced> on the reduced
    register; a None string means the factor is exactly zero (the string has
    no support on the declared state space).
    """
    if s.n_qubits != ctx.n_qubits:
        raise ValueError("string and context qubit counts differ")
    sx, sz = s.xmask, s.zmask
    factor = 1.0
    for q, bit in ctx.classical.items():
        if sx >> q & 1:
            return None, 0.0
        if bit and sz >> q & 1:
            factor = -factor
    x = z = 0
    for slot, (kind, where) in enumerate(ctx.slots):
        if kind == "qubit":
            xb, zb = sx >> where & 1, sz >> where & 1
        else:
            a, b = where
            xb, zb = sx >> a & 1, (sz >> a ^ sz >> b) & 1
            if xb != sx >> b & 1:
                return None, 0.0
            if xb and sz >> a & sz >> b & 1:
                factor = -factor
        x |= xb << slot
        z |= zb << slot
    return PauliString(max(ctx.reduced_n, 1), x, z, complex(s.coeff)), factor


def qsr_compress_sum(op: PauliSum, ctx: QSRContext) -> PauliSum:
    """Whole-operator reduction: factors folded in, null strings dropped."""
    kept = []
    for s in op.strings():
        reduced, factor = qsr_compress(s, ctx)
        if reduced is not None and factor:
            kept.append(PauliString(reduced.n_qubits, reduced.xmask, reduced.zmask, reduced.coeff * factor))
    return PauliSum.from_strings(kept, n_qubits=max(ctx.reduced_n, 1))


# ---------------------------------------------------------------------------
# Clifford conjugation of Pauli strings
# ---------------------------------------------------------------------------


def _conjugate_masks(x, z, sign, kind, qubits):
    """Tableau update for P -> U P U+ with U in {H, S, Sdg, CNOT, CZ}."""
    if kind == "H":
        (q,) = qubits
        xb, zb = x >> q & 1, z >> q & 1
        if xb & zb:
            sign = -sign
        x ^= (xb ^ zb) << q
        z ^= (xb ^ zb) << q
    elif kind == "S":
        (q,) = qubits
        if x >> q & 1 and z >> q & 1:
            sign = -sign
        z ^= (x >> q & 1) << q
    elif kind == "Sdg":
        (q,) = qubits
        if x >> q & 1 and not z >> q & 1:
            sign = -sign
        z ^= (x >> q & 1) << q
    elif kind == "CNOT":
        c, t = qubits
        if x >> c & 1 and z >> t & 1 and not ((x >> t & 1) ^ (z >> c & 1)):
            sign = -sign
        x ^= (x >> c & 1) << t
        z ^= (z >> t & 1) << c
    elif kind == "CZ":
        a, b = qubits
        if x >> a & 1 and x >> b & 1 and ((z >> a & 1) ^ (z >> b & 1)):
            sign = -sign
        z ^= (x >> b & 1) << a
        z ^= (x >> a & 1) << b
    else:
        raise ValueError(f"cannot conjugate through gate kind {kind!r}")
    return x, z, sign


# ---------------------------------------------------------------------------
# commuting-group partitions
# ---------------------------------------------------------------------------


def _qwc_compatible(profile, s):
    px, pz, psup = profile
    sup = s.xmask | s.zmask
    common = sup & psup
    return not ((s.xmask ^ px) & common or (s.zmask ^ pz) & common)


def _commutes(a, b):
    return not (((a.xmask & b.zmask).bit_count() ^ (a.zmask & b.xmask).bit_count()) & 1)


@dataclass(slots=True)
class MeasurementGroup:
    """Strings measured in one shot, plus the basis change that enables it."""

    strings: tuple
    basis_change: Circuit
    extra_two_qubit: int


@dataclass(slots=True)
class MeasurementPlan:
    """A full partition of the input strings into measurable groups."""

    criterion: str
    groups: tuple

    @property
    def n_groups(self):
        return len(self.groups)


def _ordered(strings):
    items = strings.strings() if isinstance(strings, PauliSum) else list(strings)
    return sorted(items, key=lambda s: (-abs(s.coeff), word_key(s.n_qubits, s.xmask, s.zmask)))


def partition_qwc(strings) -> MeasurementPlan:
    """Greedy qubit-wise-commuting partition; measuring costs no extra gates."""
    groups: list[list] = []
    profiles: list[tuple] = []
    for s in _ordered(strings):
        for i, profile in enumerate(profiles):
            if _qwc_compatible(profile, s):
                groups[i].append(s)
                px, pz, psup = profile
                profiles[i] = (px | s.xmask, pz | s.zmask, psup | s.xmask | s.zmask)
                break
        else:
            groups.append([s])
            profiles.append((s.xmask, s.zmask, s.xmask | s.zmask))
    n = strings.n_qubits if isinstance(strings, PauliSum) else (groups[0][0].n_qubits if groups else 1)
    return MeasurementPlan(
        "qwc",
        tuple(
            MeasurementGroup(tuple(g), Circuit(n), 0) for g in groups
        ),
    )


def _independent_generators(group, n):
    """GF(2) basis of the group's (x|z) row space, as (x, z) mask pairs."""
    basis: dict[int, int] = {}
    out = []
    for s in group:
        v = (s.xmask << n) | s.zmask
        while v:
            hi = v.bit_length() - 1
            if hi in basis:
                v ^= basis[hi]
            else:
                basis[hi] = v
                out.append(v)
                break
    mask = (1 << n) - 1
    return [(v >> n, v & mask) for v in out]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _diagonalizing_circuit(group, n) -> Circuit:
    """Clifford mapping every string in a GC group to Z-type.

    Symplectic elimination over the independent generators: each round takes
    a generator still carrying X support, clears the other X bits with CNOTs
    from a pivot, clears stray Z bits with CZs, folds a leftover Y at the
    pivot with S, and finishes with H so the generator becomes a single Z.
    Mutual commutation keeps finished pivots clean for every later round.
    """
    gens = [[x, z] for x, z in _independent_generators(group, n)]
    circ = Circuit(n)

    def emit(kind, *qubits):
        circ.add(kind, *qubits)
        for g in gens:
            g[0], g[1], _ = _conjugate_masks(g[0], g[1], 1.0, kind, qubits)

    while True:
        active = next((g for g in gens if g[0]), None)
        if active is None:
            break
        pivot = (active[0] & -active[0]).bit_length() - 1
        for q in _bits(active[0]):
            if q != pivot:
                emit("CNOT", pivot, q)
        for q in _bits(active[1]):
            if q != pivot:
                emit("CZ", pivot, q)
        if active[1] >> pivot & 1:
            emit("S", pivot)
        emit("H", pivot)
    return circ


def partition_gc(strings) -> MeasurementPlan:
    """Greedy general-commutation partition with basis-change accounting.

    Fewer groups than qubit-wise commutation, but each group must be rotated
    into the computational basis before measuring; the group's extra cost is
    the two-qubit gate count of that Clifford.
    """
    groups: list[list] = []
    for s in _ordered(strings):
        for group in groups:
            if all(_commutes(s, member) for member in group):
                group.append(s)
                break
        else:
            groups.append([s])
    n = strings.n_qubits if isinstance(strings, PauliSum) else (groups[0][0].n_qubits if groups else 1)
    out = []
    for group in groups:
        circ = _diagonalizing_circuit(group, n)
        cost = sum(1 for g in circ.gates if g.kind in ("CNOT", "CZ"))
        out.append(MeasurementGroup(tuple(group), circ, cost))
    return MeasurementPlan("gc", tuple(out))
