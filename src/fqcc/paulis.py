"""Pauli strings on integer bit masks, and the statevector kernel.

``PauliString`` and ``PauliSum`` hold what a mapping produces: a string's
masks and coefficient, and a sum merged by key and listed in letter-word
order.  A string is stored as a pair of masks: bit q of ``xmask`` /
``zmask`` says whether the letter on qubit q has an X / Z component (X =
10, Z = 01, Y = 11, I = 00).  Qubit 0 is the least significant bit of a basis index,
i.e. the rightmost tensor factor.

``CompiledSum`` is the statevector kernel: a sum frozen into a row layout
of its matrix's nonzeros, applied with one gather, one multiply and one
row sum, on all 2^n basis states or on a sector of them.  It adds each
row's entries in the order of its X-mask groups, so its results are those
of applying one group at a time, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def weight(self):
        return (self.xmask | self.zmask).bit_count()

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

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits, terms=None):
        self.n_qubits = n_qubits
        self._terms = dict(terms or {})

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
        key = (x, z)
        c = self._terms.get(key, 0.0) + coeff
        if c == 0.0:
            self._terms.pop(key, None)
        else:
            self._terms[key] = c

    def strings(self):
        """Terms as PauliString objects in canonical (letter-word) order."""
        n = self.n_qubits
        keys = sorted(self._terms, key=lambda k: word_key(n, *k))
        return [PauliString(n, x, z, self._terms[x, z]) for x, z in keys]

    def __len__(self):
        return len(self._terms)

    def simplify(self):
        """Drop every coefficient of magnitude ``COEFF_TOL`` or less."""
        self._terms = {k: c for k, c in self._terms.items() if abs(c) > COEFF_TOL}
        return self


# ---------------------------------------------------------------------------
# statevector kernels
# ---------------------------------------------------------------------------

_PARITY_LUT = None


def _parity_lut():
    """Parity of every 16-bit index, built on first use."""
    global _PARITY_LUT
    if _PARITY_LUT is None:
        fold = np.arange(1 << 16, dtype=np.uint16)
        for shift in (8, 4, 2, 1):
            fold ^= fold >> shift
        _PARITY_LUT = (fold & 1).astype(np.uint8)
    return _PARITY_LUT


def _parity_of(arr):
    folded = arr
    if folded.dtype.itemsize * 8 > 32:
        folded = folded ^ (folded >> 32)
    folded = folded ^ (folded >> 16)
    return _parity_lut()[folded & 0xFFFF]


_ENTRY_LIMIT = 1 << 23  # cap on the stored nonzeros of a sum's row layout
SECTOR_TOL = 1e-10  # largest matrix element out of a sector that compiling onto it allows


def same_sector(a, b):
    """True when two sectors (sorted basis-index arrays, None for the full
    space) are the same space."""
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def _phase_table(points, masks, signed):
    """sum of w * (-1)^parity(point & m) over the (m, w) pairs of ``masks``
    and ``signed``, at each point, added one string at a time."""
    signs = 1.0 - 2.0 * _parity_of(points & masks[:, None])
    table = np.zeros(len(points), dtype=np.complex128)
    for row in signed[:, None] * signs:
        table += row
    return table


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


class CompiledSum:
    """A PauliSum frozen into flat arrays for fast statevector application.

    Strings sharing an X-mask are the same index permutation, so their
    phases fold into one table per X-mask group: the group's matrix is
    diag(table) times that permutation.  The sum keeps only the tables'
    nonzeros, laid out by row: ``values`` and ``columns`` are (width, dim)
    arrays whose column r holds row r's nonzeros in group order, padded
    with zeros to the widest row (81 for water's Hamiltonian on its spin
    sector).  An apply is then one gather, one multiply and one
    ``sum(axis=0)``.  That sum adds each row's entries in slot order, i.e.
    in group order, exactly as a loop adding one group's ``table *
    vec[partner]`` at a time would, and the padding adds exact zeros, so the
    result does not depend on the layout bit for bit
    (``oracles.compiled_apply_reference`` keeps that loop).  A sum with more
    than ``_ENTRY_LIMIT`` nonzeros keeps no layout and rebuilds it on each
    apply; ``values`` and ``columns`` are then None.

    With a ``sector`` (the sorted basis indices a vector is restricted to,
    e.g. the encoded fixed-(N_alpha, N_beta) determinants) vectors hold one
    amplitude per sector state, and columns are the sector positions of
    each state's partners.  Compiling onto a sector raises ``ValueError``
    when the operator couples it to states outside it by more than
    ``SECTOR_TOL``; the entries below that are dropped.
    """

    __slots__ = ("n_qubits", "sector", "flips", "masks", "weights", "values", "columns")

    def __init__(self, op: PauliSum, sector=None):
        if op.n_qubits > 60:
            raise ValueError("compiled kernel supports at most 60 qubits")
        flips, masks, weights = [], [], []
        for (x, z), c in op._terms.items():
            flips.append(x)
            masks.append(z)
            weights.append(c * 1j ** ((x & z).bit_count() % 4))
        self.n_qubits = op.n_qubits
        self.sector = None if sector is None else np.asarray(sector, dtype=np.int64)
        self.flips = np.asarray(flips, dtype=np.int64)
        self.masks = np.asarray(masks, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.complex128)
        values, columns, nonzeros = _pack(*self._tables())
        kept = nonzeros <= _ENTRY_LIMIT
        self.values = values if kept else None
        self.columns = columns if kept else None

    @property
    def dim(self):
        """Length of the vectors this sum acts on."""
        return 1 << self.n_qubits if self.sector is None else len(self.sector)

    def _tables(self):
        """(tables, columns), each (groups, dim): every X-mask group's phase
        table and its rows' partner columns, in group order (the order of
        first appearance in ``flips``)."""
        by_flip: dict[int, list] = {}
        for i, f in enumerate(self.flips.tolist()):
            by_flip.setdefault(f, []).append(i)
        sector = self.sector
        tables = np.empty((len(by_flip), self.dim), dtype=np.complex128)
        columns = np.empty((len(by_flip), self.dim), dtype=np.intp)
        for g, (f, members) in enumerate(by_flip.items()):
            masks = self.masks[members]
            # parity((i^f) & m) splits into parity(i&m) and a sign bit
            signed = self.weights[members] * (1.0 - 2.0 * _parity_of(masks & f))
            if sector is None:
                idx = np.arange(1 << self.n_qubits, dtype=np.int64)
                tables[g] = _phase_table(idx, masks, signed)
                columns[g] = idx ^ f
                continue
            partner = sector ^ f
            pos = np.minimum(np.searchsorted(sector, partner), len(sector) - 1)
            inside = sector[pos] == partner
            # the table at the sector and at the partners outside it: the
            # matrix elements into the sector and out of it that it drops
            table = _phase_table(np.concatenate([sector, partner[~inside]]), masks, signed)
            leak = np.abs(np.concatenate([table[len(sector):], table[: len(sector)][~inside]]))
            if leak.size and leak.max() > SECTOR_TOL:
                raise ValueError(
                    f"operator couples the sector to states outside it "
                    f"(matrix element {leak.max():.3g})"
                )
            tables[g] = table[: len(sector)]
            tables[g, ~inside] = 0.0
            columns[g] = pos
        return tables, columns

    def apply(self, vec):
        """Return (sum of strings) @ vec: one gather over the row layout."""
        values, columns = self.values, self.columns
        if values is None:
            values, columns, _ = _pack(*self._tables())
        return (values * vec[columns]).sum(axis=0)

    def expectation(self, vec):
        return complex(np.vdot(vec, self.apply(vec)))
