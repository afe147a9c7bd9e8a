"""Pauli-string algebra on integer bit masks.

A string is stored as a pair of masks: bit q of ``xmask`` / ``zmask`` says
whether the letter on qubit q has an X / Z component (X = 10, Z = 01,
Y = 11, I = 00).  Qubit 0 is the least significant bit of a basis index,
i.e. the rightmost tensor factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BITS_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_PHASES = tuple(1j**k for k in range(4))

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


def _fmt_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return repr(c.real)
    return repr(complex(c))


@dataclass(frozen=True, slots=True)
class PauliString:
    """One Pauli string with a complex coefficient."""

    n_qubits: int
    xmask: int
    zmask: int
    coeff: complex = 1.0

    # -- structure ---------------------------------------------------------

    @property
    def key(self):
        return (self.xmask, self.zmask)

    def letter(self, q):
        return _BITS_LETTER[(self.xmask >> q & 1, self.zmask >> q & 1)]

    def letters(self):
        """Support as a {qubit: letter} dict."""
        out = {}
        mask = self.xmask | self.zmask
        q = 0
        while mask:
            if mask & 1:
                out[q] = self.letter(q)
            mask >>= 1
            q += 1
        return out

    @property
    def weight(self):
        return (self.xmask | self.zmask).bit_count()

    def with_coeff(self, coeff):
        return PauliString(self.n_qubits, self.xmask, self.zmask, complex(coeff))

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.with_coeff(self.coeff * other)
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit-count mismatch")
        x1, z1, x2, z2 = self.xmask, self.zmask, other.xmask, other.zmask
        plus = ((x1 & ~z1) & (x2 & z2)) | ((x1 & z1) & (z2 & ~x2)) | ((z1 & ~x1) & (x2 & ~z2))
        minus = ((x1 & z1) & (x2 & ~z2)) | ((z1 & ~x1) & (x2 & z2)) | ((x1 & ~z1) & (z2 & ~x2))
        phase = 1j ** ((plus.bit_count() - minus.bit_count()) % 4)
        return PauliString(self.n_qubits, x1 ^ x2, z1 ^ z2, self.coeff * other.coeff * phase)

    __rmul__ = __mul__

    def dagger(self):
        # every Pauli string is Hermitian; only the coefficient conjugates
        return self.with_coeff(self.coeff.conjugate())

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

    # -- text --------------------------------------------------------------

    def to_text(self):
        letters = self.letters()
        if not letters:
            return f"{_fmt_coeff(self.coeff)} * I"
        body = " ".join(f"{letters[q]}{q}" for q in sorted(letters))
        return f"{_fmt_coeff(self.coeff)} * {body}"

    def __str__(self):
        return self.to_text()


class PauliSum:
    """A complex-weighted sum of Pauli strings with canonical merging."""

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

    # -- container protocol --------------------------------------------------

    @property
    def n_terms(self):
        return len(self._terms)

    def coeff(self, x, z):
        return self._terms.get((x, z), 0.0)

    def items(self):
        """((x, z), coeff) pairs, unsorted."""
        return self._terms.items()

    def strings(self):
        """Terms as PauliString objects in canonical (letter-word) order."""
        n = self.n_qubits
        keys = sorted(self._terms, key=lambda k: word_key(n, *k))
        return [PauliString(n, x, z, self._terms[x, z]) for x, z in keys]

    def __iter__(self):
        return iter(self.strings())

    def __len__(self):
        return len(self._terms)

    # -- algebra -------------------------------------------------------------

    def _check(self, other):
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit-count mismatch")

    def _accumulate(self, other):
        """Add ``other`` in place, keeping small coefficients until ``simplify``."""
        self._check(other)
        for (x, z), c in other._terms.items():
            self._add_term(x, z, c)
        return self

    def __add__(self, other):
        if isinstance(other, PauliString):
            other = PauliSum.from_strings([other])
        return PauliSum(self.n_qubits, self._terms)._accumulate(other).simplify()

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return PauliSum(self.n_qubits, {k: c * other for k, c in self._terms.items()})
        if isinstance(other, PauliString):
            other = PauliSum.from_strings([other])
        self._check(other)
        out = PauliSum(self.n_qubits)
        add = out._add_term
        # per right-hand term: masks, its X / Y / Z letter masks, coefficient
        right = [
            (x2, z2, x2 & ~z2, x2 & z2, z2 & ~x2, c2) for (x2, z2), c2 in other._terms.items()
        ]
        for (x1, z1), c1 in self._terms.items():
            xo, yo, zo = x1 & ~z1, x1 & z1, z1 & ~x1
            for x2, z2, xt, yt, zt, c2 in right:
                # the phase rule of PauliString.__mul__: XY, YZ, ZX give +i
                plus = (xo & yt) | (yo & zt) | (zo & xt)
                minus = (yo & xt) | (zo & yt) | (xo & zt)
                add(x1 ^ x2, z1 ^ z2, c1 * c2 * _PHASES[(plus.bit_count() - minus.bit_count()) % 4])
        return out.simplify()

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def dagger(self):
        return PauliSum(self.n_qubits, {k: c.conjugate() for k, c in self._terms.items()})

    def simplify(self):
        """Drop every coefficient of magnitude ``COEFF_TOL`` or less."""
        self._terms = {k: c for k, c in self._terms.items() if abs(c) > COEFF_TOL}
        return self

    # -- text ------------------------------------------------------------------

    def to_text(self):
        return "\n".join(s.to_text() for s in self.strings())

    def __str__(self):
        return self.to_text()


# ---------------------------------------------------------------------------
# statevector kernels
# ---------------------------------------------------------------------------

_PARITY_LUT = None
_INDEX_CACHE: dict[int, np.ndarray] = {}


def _parity_lut():
    global _PARITY_LUT
    if _PARITY_LUT is None:
        lut = np.zeros(1 << 16, dtype=np.uint8)
        for i in range(1, 1 << 16):
            lut[i] = lut[i >> 1] ^ (i & 1)
        _PARITY_LUT = lut
    return _PARITY_LUT


def _indices(n_qubits):
    idx = _INDEX_CACHE.get(n_qubits)
    if idx is None:
        idx = np.arange(1 << n_qubits, dtype=np.int64)
        _INDEX_CACHE[n_qubits] = idx
    return idx


def _parity_of(arr):
    folded = arr
    if folded.dtype.itemsize * 8 > 32:
        folded = folded ^ (folded >> 32)
    folded = folded ^ (folded >> 16)
    return _parity_lut()[folded & 0xFFFF]


_GROUP_ENTRY_LIMIT = 1 << 23  # cap on precomputed phase-table entries
SECTOR_TOL = 1e-10  # largest matrix element out of a sector that compiling onto it allows


def same_sector(a, b):
    """True when two sectors (sorted basis-index arrays, None for the full
    space) are the same space."""
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def _phase_table(points, strings):
    """sum of w * (-1)^parity(point & m) over the (m, w) pairs, at each point."""
    table = np.zeros(len(points), dtype=np.complex128)
    for m, signed in strings:
        table += signed * (1.0 - 2.0 * _parity_of(points & np.int64(m)))
    return table


class CompiledSum:
    """A PauliSum frozen into flat arrays for fast statevector application.

    Strings sharing an X-mask are the same index permutation, so their
    phases fold into one precomputed table and the whole group costs a
    single gather per apply.  Above an entry cap the tables are rebuilt on
    each apply instead of kept.

    With a ``sector`` (the sorted basis indices a vector is restricted to,
    e.g. the encoded fixed-(N_alpha, N_beta) determinants) vectors hold one
    amplitude per sector state.  Each group then keeps its table on the
    sector and the sector position of every state's partner, so an apply is
    still one gather per group.  Compiling onto a sector raises
    ``ValueError`` when the operator couples it to states outside it by more
    than ``SECTOR_TOL``; the entries below that are dropped.
    """

    __slots__ = ("n_qubits", "sector", "flips", "masks", "weights", "_groups")

    def __init__(self, op: PauliSum, sector=None):
        if op.n_qubits > 60:
            raise ValueError("compiled kernel supports at most 60 qubits")
        flips, masks, weights = [], [], []
        for (x, z), c in op._terms.items():
            flips.append(x)
            masks.append(z)
            weights.append(c * 1j ** ((x & z).bit_count() % 4))
        self._set_strings(op.n_qubits, sector, flips, masks, weights)
        if len(set(flips)) * self.dim <= _GROUP_ENTRY_LIMIT:
            self._groups = tuple(self._tables())
        else:
            self._groups = None
            if sector is not None:
                for _ in self._tables():  # run the sector check now, not at apply
                    pass

    def _set_strings(self, n_qubits, sector, flips, masks, weights):
        self.n_qubits = n_qubits
        self.sector = None if sector is None else np.asarray(sector, dtype=np.int64)
        self.flips = np.asarray(flips, dtype=np.int64)
        self.masks = np.asarray(masks, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.complex128)

    @classmethod
    def combination(cls, parts, n_qubits, sector=None):
        """sum of c * K over (c, K) pairs compiled on one space.

        Built from the parts' own tables: each X-mask group's table is the
        weighted sum of the parts' tables for that mask, so no phase is
        computed again.
        """
        strings: dict[tuple, complex] = {}
        groups: dict[int, tuple] = {}
        tabled = True
        for c, part in parts:
            if part.n_qubits != n_qubits or not same_sector(part.sector, sector):
                raise ValueError("parts are compiled on different spaces")
            for f, m, w in zip(part.flips.tolist(), part.masks.tolist(), part.weights.tolist()):
                strings[f, m] = strings.get((f, m), 0.0) + c * w
            tabled = tabled and part._groups is not None
            for f, table, pos in part._groups or ():
                prev = groups.get(f)
                groups[f] = (f, c * table if prev is None else prev[1] + c * table, pos)
        out = cls.__new__(cls)
        keys = list(strings)
        out._set_strings(
            n_qubits, sector, [f for f, _ in keys], [m for _, m in keys], list(strings.values())
        )
        tabled = tabled and len(groups) * out.dim <= _GROUP_ENTRY_LIMIT
        out._groups = tuple(groups.values()) if tabled else None
        return out

    @property
    def dim(self):
        """Length of the vectors this sum acts on."""
        return 1 << self.n_qubits if self.sector is None else len(self.sector)

    def __len__(self):
        return len(self.flips)

    def __iter__(self):
        """The compiled strings as PauliStrings (weight over i^popcount(x & z))."""
        for f, m, w in zip(self.flips.tolist(), self.masks.tolist(), self.weights.tolist()):
            yield PauliString(self.n_qubits, f, m, w * _PHASES[-(f & m).bit_count() % 4])

    def _tables(self):
        """(X-mask, phase table, gather positions or None) for each X-mask group."""
        by_flip: dict[int, list] = {}
        for f, m, w in zip(self.flips.tolist(), self.masks.tolist(), self.weights):
            # parity((i^f) & m) splits into parity(i&m) and a sign bit
            by_flip.setdefault(f, []).append((m, w * (1.0 - 2.0 * ((f & m).bit_count() & 1))))
        sector = self.sector
        for f, strings in by_flip.items():
            if sector is None:
                yield f, _phase_table(_indices(self.n_qubits), strings), None
                continue
            partner = sector ^ f
            pos = np.minimum(np.searchsorted(sector, partner), len(sector) - 1)
            inside = sector[pos] == partner
            # the table at the sector and at the partners outside it: the
            # matrix elements into the sector and out of it that it drops
            table = _phase_table(np.concatenate([sector, partner[~inside]]), strings)
            leak = np.abs(np.concatenate([table[len(sector):], table[: len(sector)][~inside]]))
            if leak.size and leak.max() > SECTOR_TOL:
                raise ValueError(
                    f"operator couples the sector to states outside it "
                    f"(matrix element {leak.max():.3g})"
                )
            table = table[: len(sector)]
            table[~inside] = 0.0
            yield f, table, pos if f else None

    def apply(self, vec):
        """Return (sum of strings) @ vec."""
        out = np.zeros(vec.shape, dtype=np.promote_types(vec.dtype, np.complex128))
        idx = _indices(self.n_qubits) if self.sector is None else None
        for f, table, pos in self._groups if self._groups is not None else self._tables():
            if pos is not None:
                out += table * vec[pos]
            elif f:
                out += table * vec[idx ^ f]
            else:
                out += table * vec
        return out

    def expectation(self, vec):
        return complex(np.vdot(vec, self.apply(vec)))
