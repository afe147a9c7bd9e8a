"""Pauli strings on integer bit masks, and the statevector kernel.

``PauliString`` and ``PauliSum`` hold what a mapping produces: a string's
masks and coefficient, and a sum merged by key, its strings sorted once
into letter-word order.  Bit q of a string's ``xmask`` / ``zmask`` is the
X / Z part of its letter on qubit q (X = 10, Z = 01, Y = 11, I = 00);
qubit 0 is the least significant bit of a basis index (rightmost factor).

``RowKernel`` is the emulator's one kernel type: an operator laid out by
rows, applied with one gather, one multiply and one row sum, on all 2^n
basis states or on a sector of them.  ``CompiledSum`` is a sum frozen into
that layout, its matrix's nonzeros row by row.  It adds each row's entries
in the order of its X-mask groups, so its results are those of applying
one group at a time, bit for bit.  A layout above ``_ENTRY_LIMIT`` stored
nonzeros is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

COEFF_TOL = 1e-12

# bit i of a byte moved to bit 14 - 2i: the byte's first qubit leads
_SPREAD = tuple(sum((b >> i & 1) << (14 - 2 * i) for i in range(8)) for b in range(256))


def word_key(n_qubits, xmask, zmask):
    """Integer that orders strings as their letter words, qubit 0 first.

    Each qubit is one base-4 digit ``(x ^ z) | z << 1``, so I < X < Y < Z,
    with qubit 0 the most significant.  Keys compare only between strings
    on the same number of qubits.
    """
    a = xmask ^ zmask
    key = 0
    for shift in range(0, n_qubits, 8):
        key = key << 16 | _SPREAD[a >> shift & 255] | _SPREAD[zmask >> shift & 255] << 1
    return key


@dataclass(frozen=True, slots=True)
class PauliString:
    """One Pauli string with a complex coefficient."""

    n_qubits: int
    xmask: int
    zmask: int
    coeff: complex = 1.0

    @property
    def key(self):
        return (self.xmask, self.zmask)

    def commutes_general(self, other):
        """True when the two strings commute as operators."""
        a = (self.xmask & other.zmask).bit_count() & 1
        b = (self.zmask & other.xmask).bit_count() & 1
        return a == b

    def commutes_qubitwise(self, other):
        """True when on every qubit the letters are equal or one is identity."""
        both = (self.xmask | self.zmask) & (other.xmask | other.zmask)
        differ = (self.xmask ^ other.xmask) | (self.zmask ^ other.zmask)
        return both & differ == 0


class PauliSum:
    """A complex-weighted sum of Pauli strings, merged by key."""

    __slots__ = ("n_qubits", "_terms", "_strings")

    def __init__(self, n_qubits, terms=None):
        self.n_qubits = n_qubits
        self._terms = dict(terms or {})
        self._strings = None  # the terms' strings in canonical order, built on first use

    @classmethod
    def from_strings(cls, strings, n_qubits=None):
        strings = list(strings)
        if n_qubits is None:
            if not strings:
                raise ValueError("cannot infer qubit count from no strings")
            n_qubits = strings[0].n_qubits
        out = cls(n_qubits)
        for s in strings:
            out._add_term(s.xmask, s.zmask, s.coeff)
        return out.simplify()

    def _add_term(self, x, z, coeff):
        self._strings = None
        c = self._terms.get((x, z), 0.0) + coeff
        if c == 0.0:
            self._terms.pop((x, z), None)
        else:
            self._terms[x, z] = c

    def _canonical_keys(self):
        """The terms' (x, z) keys in canonical (letter-word) order."""
        n = self.n_qubits
        return sorted(self._terms, key=lambda k: word_key(n, *k))

    def strings(self):
        """Terms as PauliString objects in canonical (letter-word) order: a fresh
        list of the strings built and sorted once per change of the terms."""
        if self._strings is None:
            n = self.n_qubits
            self._strings = [PauliString(n, x, z, self._terms[x, z]) for x, z in self._canonical_keys()]
        return list(self._strings)

    def __len__(self):
        return len(self._terms)

    def simplify(self):
        """Drop every coefficient of magnitude ``COEFF_TOL`` or less."""
        self._strings = None
        self._terms = {k: c for k, c in self._terms.items() if abs(c) > COEFF_TOL}
        return self


def _shifted(op: PauliSum, shift) -> PauliSum:
    """``op`` plus ``shift`` times the identity, its terms in canonical
    order: the sum ``PauliSum.from_strings(op.strings() + [PauliString(n,
    0, 0, shift)])`` builds, coefficient for coefficient, without a string
    object per term."""
    out = PauliSum(op.n_qubits, {key: 0.0 + op._terms[key] for key in op._canonical_keys()})
    out._add_term(0, 0, shift)
    return out.simplify()


# ---------------------------------------------------------------------------
# statevector kernels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _parity_lut():
    """Parity of every 16-bit index, built on first use."""
    fold = np.arange(1 << 16, dtype=np.uint16)
    for shift in (8, 4, 2, 1):
        fold ^= fold >> shift
    return (fold & 1).astype(np.uint8)


def _parity_of(arr, bits=64):
    """Parity of each entry of a non-negative integer array whose entries
    fit in ``bits`` bits: halves are folded together down to 16 bits, then
    read off the table."""
    folded = arr
    if bits > 32 and folded.dtype.itemsize * 8 > 32:
        folded = folded ^ (folded >> 32)
    if bits > 16:
        folded = (folded ^ (folded >> 16)) & 0xFFFF
    return _parity_lut()[folded]


_ENTRY_LIMIT = 1 << 23  # cap on the stored nonzeros of a sum's row layout
SECTOR_TOL = 1e-10  # largest matrix element out of a sector that compiling onto it allows


def same_sector(a, b):
    """True when two sectors (sorted basis-index arrays, None for the full
    space) are the same space."""
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


_BLOCK_ENTRIES = 1 << 14  # table entries per block of groups, bounding its scratch arrays


def _ordered_sums(points, counts, starts, strings, masks, weights, bits):
    """Row b: the sum of w * (-1)^parity(point & m) at each point of
    ``points[b]``, over the strings (m, w) = (``masks[j]``, ``weights[j]``)
    for j in ``strings[starts[b] : starts[b] + counts[b]]``, added one
    string at a time in that order, from 0.  Points and masks fit in
    ``bits`` bits.

    Rows come sorted by count, most first, so step i adds the i-th string
    of a leading block of rows: every row sees its own strings' additions
    in order, as a loop over one row at a time would make them.  Each
    addend is w or -w, exactly w times the sign.
    """
    out = np.zeros(points.shape, dtype=np.complex128)
    for i, active in enumerate((len(counts) - np.cumsum(np.bincount(counts)))[:-1].tolist()):
        j = strings[starts[:active, None] + i]
        w = weights[j]
        out[:active] += np.where(_parity_of(points[:active] & masks[j], bits), -w, w)
    return out


def _pack(tables, columns):
    """Row layout of stacked (groups, dim) phase tables and partner columns:
    (values, columns, nonzeros).

    ``values[k, r]`` is row r's k-th nonzero in group order and
    ``columns[k, r]`` the index it multiplies; a row with fewer nonzeros
    than the width is padded with 0 times its own entry.  The width is at
    least 1.
    """
    hit = tables != 0
    group, row = np.nonzero(hit)
    slot = (np.cumsum(hit, axis=0) - 1)[group, row]
    dim = tables.shape[1]
    width = max(int(hit.sum(axis=0).max(initial=0)), 1)
    values = np.zeros((width, dim), dtype=np.complex128)
    index = np.tile(np.arange(dim, dtype=np.intp), (width, 1))
    values[slot, row] = tables[group, row]
    index[slot, row] = columns[group, row]
    return values, index, len(row)


@dataclass(frozen=True, slots=True, eq=False)
class RowKernel:
    """An operator by rows, the emulator's one kernel layout: ``values`` and
    ``columns`` are (width, dim) arrays, and column r holds row r's entries
    and the indices of the amplitudes they multiply, so an apply is one
    gather, one multiply and a ``sum(axis=0)`` in slot order.  A row with
    fewer entries than the width is padded with 0 times its own amplitude.

    Three operators take this form: a Pauli sum (``CompiledSum``), an
    excitation generator K of width 1 (``simulate.compile_generators``),
    which also carries ``square``, the diagonal of K^2, and Zt
    (``hmp2.ztilde_operator``), which stacks one weighted generator row per
    term.  ``sector`` is None on all 2^n basis states, or the sorted basis
    indices the vectors are restricted to, one amplitude per sector state.
    """

    n_qubits: int
    sector: np.ndarray | None
    values: np.ndarray
    columns: np.ndarray
    square: np.ndarray | None = None

    def __len__(self):
        return len(self.values)

    def apply(self, vec):
        """Return (operator) @ vec: one gather over the row layout."""
        return (self.values * vec[self.columns]).sum(axis=0)

    def expectation(self, vec):
        return complex(np.vdot(vec, self.apply(vec)))


def _tables(op: PauliSum, sector):
    """(tables, columns), each (groups, dim): every X-mask group's phase
    table and its rows' partner columns, on all 2^n basis states or on
    ``sector``, in group order (the order of first appearance among
    ``op``'s terms).

    String (x, z) with coefficient c maps basis state r to r ^ x with the
    factor w * (-1)^parity(r & z), w = c * i^popcount(x & z).  Group f's
    table at row r sums w * (-1)^parity((r ^ f) & z) over its strings in
    term order, one string at a time, for blocks of groups at once
    (``_ordered_sums``, most strings first, up to ``_BLOCK_ENTRIES``
    entries a block), so each entry equals that of a loop over the groups
    and their strings (``oracles.compiled_tables_loop``).  On a sector, the
    entries of rows whose partner r ^ f is outside it, and the table at
    those partners, w * (-1)^parity(r & z) summed alike, are the matrix
    elements out of the sector and into it that the sum drops.
    """
    dim = 1 << op.n_qubits if sector is None else len(sector)
    if not op._terms:
        return np.zeros((0, dim), dtype=np.complex128), np.zeros((0, dim), dtype=np.intp)
    keys = np.array(list(op._terms), dtype=np.int64)
    weights = np.array(
        [c * 1j ** ((x & z).bit_count() % 4) for (x, z), c in op._terms.items()],
        dtype=np.complex128,
    )
    points = np.arange(dim, dtype=np.int64) if sector is None else sector
    flips, first, group = np.unique(keys[:, 0], return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    flips = flips[by_first]
    group = np.argsort(by_first)[group]
    counts = np.bincount(group, minlength=len(flips))
    # group g's strings, in order, are strings[starts[g] : starts[g] + counts[g]]
    strings = np.argsort(group, kind="stable")
    starts = np.cumsum(counts) - counts
    partners = points ^ flips[:, None]
    if sector is not None:
        columns = np.minimum(np.searchsorted(sector, partners), dim - 1)
        outside = sector[columns] != partners
        leaks = np.zeros(len(flips))
    else:
        columns = partners.astype(np.intp)
    tables = np.empty(partners.shape, dtype=np.complex128)
    most = np.argsort(-counts, kind="stable")
    block = max(_BLOCK_ENTRIES // dim, 1)
    for start in range(0, len(most), block):
        g = most[start : start + block]
        parts = (counts[g], starts[g], strings, keys[:, 1], weights, op.n_qubits)
        tables[g] = _ordered_sums(partners[g], *parts)
        if sector is not None:
            into = _ordered_sums(np.broadcast_to(points, (len(g), dim)), *parts)
            leak = np.maximum(np.abs(tables[g]), np.abs(into))
            leaks[g] = np.where(outside[g], leak, 0.0).max(axis=1)
    if sector is not None:
        bad = np.flatnonzero(leaks > SECTOR_TOL)
        if bad.size:
            raise ValueError(
                f"operator couples the sector to states outside it "
                f"(matrix element {leaks[bad[0]]:.3g})"
            )
        tables[outside] = 0.0
    return tables, columns


class CompiledSum(RowKernel):
    """A PauliSum frozen into the row layout of its matrix's nonzeros.

    Strings sharing an X-mask are the same index permutation, so their
    phases fold into one table per X-mask group: the group's matrix is
    diag(table) times that permutation.  The sum keeps only the tables'
    nonzeros (``_tables``, then ``_pack``), laid out by row in group order
    and padded with zeros to the widest row (81 for water's Hamiltonian on
    its spin sector).  An apply's ``sum(axis=0)`` therefore adds each row's
    entries in group order, exactly as a loop adding one group's ``table *
    vec[partner]`` at a time would, and the padding adds exact zeros, so the
    result does not depend on the layout bit for bit
    (``oracles.compiled_apply_reference`` keeps that loop).  A layout of
    more than ``_ENTRY_LIMIT`` nonzeros raises ``ValueError``.

    With a ``sector``, columns are the sector positions of each state's
    partners.  Compiling onto a sector raises ``ValueError`` when the
    operator couples it to states outside it by more than ``SECTOR_TOL``;
    the entries below that are dropped.
    """

    __slots__ = ()

    def __init__(self, op: PauliSum, sector=None):
        if op.n_qubits > 60:
            raise ValueError("compiled kernel supports at most 60 qubits")
        sector = None if sector is None else np.asarray(sector, dtype=np.int64)
        values, columns, nonzeros = _pack(*_tables(op, sector))
        if nonzeros > _ENTRY_LIMIT:
            raise ValueError(
                f"row layout of {nonzeros} nonzeros is above the cap of {_ENTRY_LIMIT}"
            )
        super().__init__(op.n_qubits, sector, values, columns)
