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
  fewer groups, but each needs a basis-change Clifford whose two-qubit gate
  count, ``circuits.metrics``, is the measurement overhead).  Both run on
  Python-int bit columns.  Under GC, a string's anticommuting generator
  slots are the xor of one column per bit of its row, and one add finds
  the first group whose field of slots is zero.  The basis change is
  symplectic elimination on per-qubit columns over the group's generators,
  one or two xors per gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuits import Circuit, shared_gate
from .paulis import PauliString, PauliSum

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
    orbital pairs confined to span{|00>, |11>}.  Together with ``entangled``
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
# commuting-group partitions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class MeasurementGroup:
    """Strings measured in one shot, plus the basis change that enables it."""

    strings: tuple
    basis_change: Circuit


@dataclass(slots=True)
class MeasurementPlan:
    """A full partition of the input strings into measurable groups."""

    criterion: str
    groups: tuple

    @property
    def n_groups(self):
        return len(self.groups)


def _ordered(paulis):
    """The sum's strings by decreasing |coefficient|, ties in word order.

    A stable sort on -|coefficient| alone: ``PauliSum.strings`` is already
    in word order, and no two strings share a word, so this is the order of
    the key (-|coefficient|, ``word_key``).  Both partitions of one sum
    read the same canonical list, sorted once by the sum.
    """
    return sorted(paulis.strings(), key=lambda s: -abs(s.coeff))


def _width(paulis, ordered):
    """The sum's register; both partitions index qubits by it, so a string
    acting beyond it is rejected."""
    n = paulis.n_qubits
    if any((s.xmask | s.zmask) >> n for s in ordered):
        raise ValueError(f"a string acts beyond the {n}-qubit register")
    return n


def partition_qwc(paulis: PauliSum) -> MeasurementPlan:
    """Greedy qubit-wise-commuting partition; measuring costs no extra gates.

    Strings are taken by decreasing |coefficient|, ties in word order, from
    the sum's one canonical list (``_ordered``), and each joins the first
    group whose members agree with its letter on every qubit they share, or
    opens a new group.  Groups are bits of Python-int bitsets:
    ``touched[q]`` holds the groups with a letter on qubit q and ``having[4
    q + letter]`` those with that letter there (letter = x bit | z bit <<
    1).  One pass over a string's support collects its conflicts,
    ``touched[q] ^ having[4 q + letter]`` on each of its qubits, and its
    (q, 4 q + letter) pairs; it joins the lowest group bit outside the
    union of the conflicts.
    """
    ordered = _ordered(paulis)
    n = _width(paulis, ordered)
    touched = [0] * n
    having = [0] * (4 * n)
    groups: list[list] = []
    for s in ordered:
        x, z = s.xmask, s.zmask
        support = x | z
        letters = []
        conflict = 0
        while support:
            low = support & -support
            q = low.bit_length() - 1
            k = 4 * q + (x >> q & 1 | (z >> q & 1) << 1)
            conflict |= touched[q] ^ having[k]
            letters.append((q, k))
            support ^= low
        # the lowest clear bit of conflict
        g = (~conflict & (conflict + 1)).bit_length() - 1
        if g == len(groups):
            groups.append([])
        groups[g].append(s)
        bit = 1 << g
        for q, k in letters:
            touched[q] |= bit
            having[k] |= bit
    return MeasurementPlan("qwc", tuple(MeasurementGroup(tuple(g), Circuit(n)) for g in groups))


def _add_generator(basis, v):
    """Grow a GF(2) row basis by the (x << n | z) row v, unless v is in its span.

    ``basis`` maps each generator's highest bit to the generator; v is
    reduced by the generators in turn and kept, reduced, under its new
    highest bit.  The generators in insertion order are a basis of the
    rows added so far.  Returns the generator kept, or 0 when v is in
    the span.
    """
    while v:
        hi = v.bit_length() - 1
        if hi not in basis:
            basis[hi] = v
            break
        v ^= basis[hi]
    return v


def _anticommuting(cols, swapped):
    """The generator slots that anticommute with a string: the xor of
    ``cols[b]`` over the set bits b of its swapped row ``z << n | x``."""
    f = 0
    while swapped:
        low = swapped & -swapped
        f ^= cols[low.bit_length() - 1]
        swapped ^= low
    return f


def _mark(cols, row, slot):
    """Record the generator ``row`` under the slot bit ``slot`` in each of
    its bits' columns."""
    while row:
        low = row & -row
        cols[low.bit_length() - 1] |= slot
        row ^= low


def _diagonalizing_circuit(basis, n) -> Circuit:
    """Clifford mapping every string in a GC group to Z-type.

    ``basis`` holds the group's k independent generators
    (``_add_generator``); generators that do not all commute raise
    ``ValueError``.  The generators live as columns: ``X[q]`` and ``Z[q]``
    are k-bit ints whose bit j is generator j's x or z bit on qubit q, in
    insertion order.  Symplectic elimination over them: each round takes
    the first generator still carrying X support (the lowest bit of the
    OR of the X columns), clears its other X bits with CNOTs from its
    lowest one, the pivot, then its stray Z bits with CZs, folds a
    leftover Y at the pivot with S, and finishes with H so the generator
    becomes a single Z.  Each gate updates every generator at once with
    one or two xors (CNOT(c, t): ``X[t] ^= X[c]``, ``Z[c] ^= Z[t]``; S:
    ``Z[q] ^= X[q]``; H swaps ``X[q]`` and ``Z[q]``).  Mutual commutation
    keeps finished pivots clean for every later round and keeps every
    Z-type generator Z-type, so each round finishes one generator.
    """
    mask = (1 << n) - 1
    cols = [0] * (2 * n)  # cols[b]: the generators whose row has bit b
    for j, u in enumerate(basis.values()):
        if _anticommuting(cols, (u & mask) << n | u >> n):
            raise ValueError("the group's strings do not all commute")
        _mark(cols, u, 1 << j)
    Z, X = cols[:n], cols[n:]
    circ = Circuit(n)
    gates = circ.gates
    while True:
        live = 0
        for column in X:
            live |= column
        if not live:
            return circ
        active = live & -live
        pivot = next(q for q in range(n) if X[q] & active)
        for q in range(pivot + 1, n):
            if X[q] & active:
                gates.append(shared_gate("CNOT", (pivot, q)))
                X[q] ^= X[pivot]
                Z[pivot] ^= Z[q]
        for q in range(n):
            if q != pivot and Z[q] & active:
                gates.append(shared_gate("CZ", (pivot, q)))
                Z[pivot] ^= X[q]
                Z[q] ^= X[pivot]
        if Z[pivot] & active:
            gates.append(shared_gate("S", (pivot,)))
            Z[pivot] ^= X[pivot]
        gates.append(shared_gate("H", (pivot,)))
        X[pivot], Z[pivot] = Z[pivot], X[pivot]


def partition_gc(paulis: PauliSum) -> MeasurementPlan:
    """Greedy general-commutation partition with a basis change per group.

    Fewer groups than qubit-wise commutation, but each group must be rotated
    into the computational basis before measuring by the group's
    ``basis_change`` Clifford, whose two-qubit gates are the extra cost.
    Strings are taken as in ``partition_qwc`` and each joins the first
    group it commutes with.  A string is tested against each group's
    independent generators, grown by ``_add_generator`` as members join,
    rather than against every member: what commutes with a basis commutes
    with its span.  Commuting generators span an isotropic subspace, so a
    group has at most n of them.

    Every group is tested at once.  Group g owns a field of n + 1 bits at
    bit g (n + 1): n generator slots and a guard bit above them.
    ``cols[b]`` holds the slots of the generators whose row ``x << n | z``
    has bit b, so the xor of ``cols[b]`` over the set bits of a string's
    swapped row ``z << n | x`` is f, the slots that anticommute with it.
    Adding L, each field's slot bits all set, carries into a field's guard
    exactly when its part of f is nonzero, so the first group the string
    commutes with holds the lowest guard of G (the guards) left clear in
    f + L.  The field just past the last group is always zero, so the same
    test opens a new group.
    """
    ordered = _ordered(paulis)
    n = _width(paulis, ordered)
    width = n + 1
    low, guard = (1 << n) - 1, 1 << n
    lows, guards = low, guard  # L and G over the groups and the field past them
    cols = [0] * (2 * n)
    groups: list[list] = []
    bases: list[dict] = []
    for s in ordered:
        x, z = s.xmask, s.zmask
        free = guards & ~(_anticommuting(cols, z << n | x) + lows)
        g = (free & -free).bit_length() // width - 1
        if g == len(groups):
            groups.append([])
            bases.append({})
            lows |= low << width * (g + 1)
            guards |= guard << width * (g + 1)
        groups[g].append(s)
        basis = bases[g]
        row = _add_generator(basis, x << n | z)
        if row:
            _mark(cols, row, 1 << width * g + len(basis) - 1)
    out = []
    for group, basis in zip(groups, bases):
        out.append(MeasurementGroup(tuple(group), _diagonalizing_circuit(basis, n)))
    return MeasurementPlan("gc", tuple(out))
