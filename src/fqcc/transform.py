"""Linear-encoding fermion-to-qubit transforms.

A transform is parameterized by an invertible binary matrix beta that maps
occupation vectors to code vectors, x -> beta x over GF(2).  Mode i is row i;
beta is unit lower triangular in this (logical) ordering, so the free bits
sit strictly below the diagonal.  Jordan-Wigner is beta = identity and the
Fenwick-tree choice of beta reproduces the Bravyi-Kitaev transform.

Every such encoding is Jordan-Wigner followed by the CNOT network B with
B|x> = |beta x> (``basis_circuit``).  Operators are therefore mapped and
expanded under Jordan-Wigner, where a_j is Z_{<j} (X_j + i Y_j) / 2 in
closed form, and each string of the merged sum is conjugated once by B
(``Transform.frame``): B X^x Z^z B+ = X^(beta x) Z^(beta^-T z), so a
string P(x, z), with Y = iXZ on the wires of x & z, goes to
i^(|x & z| - |x' & z'|) P(x', z').  An operator's image under an
encoding is thus its Jordan-Wigner sum framed by B
(``Transform.frame_sum``); ``FermionOperator`` maps itself under
Jordan-Wigner once and frames that sum for each encoding it is asked for.

The frame reads beta only through byte tables of its columns and of the
rows of beta^-1, and these are built for many encodings at once: an
``EncodingStack`` holds the row masks of a batch of betas, read straight
from the swarm's lower-bit masks or from ``Transform``s, takes every
beta^-1 by one forward substitution over the batch, and frames strings
under all of them in one gather (``frame_stack``).  A ``Transform``'s own
tables are those of its stack of one.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .paulis import COEFF_TOL, PauliSum


# masks live in int64 arrays
_MAX_MODES = 63
# i^e
_UNITS = np.array([1, 1j, -1, -1j])


def _popcount(v):
    """Set bits of each entry of the int64 array ``v``, whose entries are
    non-negative: the arithmetic (SWAR) count, which sums bit pairs, then
    nibbles, then bytes, and multiplies the eight byte sums into the top
    byte."""
    count = v >> 1
    count &= 0x5555555555555555
    np.subtract(v, count, out=count)
    part = count >> 2
    part &= 0x3333333333333333
    count &= 0x3333333333333333
    count += part
    np.right_shift(count, 4, out=part)
    count += part
    count &= 0x0F0F0F0F0F0F0F0F
    count *= 0x0101010101010101
    count >>= 56
    return count


def _frozen(a):
    a.setflags(write=False)
    return a


@functools.cache
def _ladder_order(k):
    """``later[a, b]``: of k ladders, ladder b comes after ladder a."""
    return _frozen(np.triu(np.ones((k, k), dtype=bool), 1))


@functools.cache
def _choices(d):
    """Each of the 2^d choices of d free ladders, the first one leading."""
    return _frozen(np.arange(1 << d)[:, None] >> np.arange(d - 1, -1, -1) & 1)


def _jw_products(lad):
    """Jordan-Wigner products of each row of ladders (2 * mode + dagger).

    a_j = (X_j + i Y_j) Z_{<j} / 2, and i Y_j = i^2 X_j Z_j (-i Y_j = X_j Z_j
    for the adjoint): as i^f X^x Z^z, string 0 is X_j Z_{<j} with f = 0 and
    string 1 adds (dz, df) = (1 << j, 2 - 2 dagger).  Returns x, z and f of
    the product of every ladder's string 0, and (dz, df) by ladder.  Each
    later X_m that moves left past an earlier Z_{<j}, m < j, adds 2 to f.
    """
    mode = lad >> 1
    bit = 1 << mode
    x = np.bitwise_xor.reduce(bit, axis=1)
    z = np.bitwise_xor.reduce(bit - 1, axis=1)
    passes = (mode[:, :, None] > mode[:, None, :]) & _ladder_order(lad.shape[1])
    return x, z, 2 * passes.sum(axis=(1, 2)), bit, 2 - 2 * (lad & 1)


def _first_paths(lad, coeffs, place0, columns):
    """Append the Jordan-Wigner strings of products of k ladders each to
    ``columns``, for ``Transform.map_operator``, and return each term's
    number of distinct modes D.

    ``lad`` has one row per term, entries 2 * mode + dagger.  For every
    string of every term that is neither 0 nor cut (``coeffs``), the four
    columns get x, z, the power of i of its first path, and its place:
    ``place0`` of the term plus the index of that path among the 2^D.
    """
    k = lad.shape[1]
    mode = lad >> 1
    later = _ladder_order(k)
    same = mode[:, :, None] == mode[:, None, :]
    # the choice at a mode's last ladder is free, the others take string 0
    free = ~(same & later).any(axis=2)
    distinct = free.sum(axis=1)
    # a mode alternates between creation and annihilation when its dagger
    # xor its count of earlier ladders is the same at each of its ladders
    turn = (lad & 1) ^ (same & later.T).sum(axis=2) & 1
    alive = ~(same & (turn[:, :, None] != turn[:, None, :])).any(axis=(1, 2))
    alive &= (np.abs(coeffs * 0.5**distinct) > COEFF_TOL) | (k == 0)
    # String 1 at a free ladder of mode j adds its own df and no sign: its
    # extra Z_j anticommutes with X_j alone, and no later ladder has mode j.
    x, z, f, dz, df = _jw_products(lad)
    for d in sorted(set(distinct[alive].tolist())):
        rows = np.flatnonzero(alive & (distinct == d))
        at = free[rows]
        zd, e = _paths(
            x[rows], z[rows], f[rows],
            dz[rows][at].reshape(len(rows), d), df[rows][at].reshape(len(rows), d),
        )
        place = place0[rows, None] + np.arange(1 << d)
        for column, part in zip(columns, (x[rows].repeat(1 << d), zd, e.astype(np.int8), place)):
            column.append(part.ravel())
    return distinct


def _paths(x, z, f, dz, df):
    """(z, e) of the 2^d paths of each row over its d free ladders.

    A row's first path is i^f X^x Z^z; taking string 1 at free ladder i
    adds ``dz[:, i]`` to z and ``df[:, i]`` to f.  Paths run as
    ``_choices(d)``, the first ladder leading, and e is the power of i of
    the path as i^e P(x, z).
    """
    choice = _choices(dz.shape[1])
    zd = np.repeat(z[:, None], len(choice), axis=1)
    for i, step in enumerate(dz.T):
        zd ^= step[:, None] * choice[:, i]
    e = f[:, None] + df @ choice.T
    # Y = iXZ, so i^f X^x Z^z = i^(f - |x & z|) P(x, z)
    e -= _popcount(zd & x[:, None])
    e &= 3
    return zd, e


def ladder_products(ladders):
    """Every Jordan-Wigner string product of each row of ladders on distinct modes.

    ``ladders`` is an int64 array of shape (rows, k), entries
    2 * mode + dagger, with no mode twice in a row.  Returns ``(x, z,
    e)``: ``x`` of shape (rows,), shared by a row's products, and ``z``
    and ``e`` of shape (rows, 2^k).  Product c takes string b_i at
    ladder i, b_0 the most significant bit of c, and is i^e P(x, z) / 2^k
    under Jordan-Wigner, the paths of ``Transform.map_operator`` with
    D = k.  An encoding's products are these framed by its basis change
    (``frame_stack``), with q added to e.
    """
    x, z, f, dz, df = _jw_products(ladders)
    z, e = _paths(x, z, f, dz, df)
    return x, z, e


def _width(n):
    """``n``, or ``ValueError`` when int64 masks cannot hold n modes."""
    if n > _MAX_MODES:
        raise ValueError(f"masks hold at most {_MAX_MODES} modes, not {n}")
    return n


def _byte_tables(masks):
    """By byte c of a mask and its value v, the xor of ``masks[:, 8c + b]``
    over the set bits b of v: shape (B, C, 256) for masks of shape (B, n),
    built by doubling, bit b of v taking its upper half.  C is at least 1,
    so the tables of 0 modes map the empty string to itself."""
    size, n = masks.shape
    parts = np.zeros((size, max(n + -n % 8, 8)), np.int64)
    parts[:, :n] = masks
    parts = parts.reshape(size, -1, 8)
    table = np.zeros((size, parts.shape[1], 1), np.int64)
    for b in range(8):
        table = np.concatenate((table, table ^ parts[:, :, b, None]), axis=2)
    return table


class EncodingStack:
    """A stack of encodings of one width, held as their betas' row masks.

    ``rows`` is an int64 array of shape (B, n): bit j of ``rows[b, i]`` is
    beta[i, j] of encoding b.  A stack is built from the swarm's lower-bit
    masks (``from_lower_bits``) or read from ``Transform``s (``of``); no
    ``Transform`` is made for either.  ``stack[a:b]`` is the stack of those
    rows, and ``stack[i]`` and iteration give ``Transform``s.  ``tables``,
    ``frame_stack``'s byte tables, are built for all rows at once on first
    use and kept with the stack; the planner, which plans a large stack a
    chunk of rows at a time, builds them per chunk
    (``trotter.ansatz_two_qubit_costs``).  Masks are int64: more than 63
    modes raises ``ValueError``.
    """

    def __init__(self, n_modes, rows):
        self.n_modes = _width(n_modes)
        self.rows = _frozen(rows)

    @classmethod
    def from_lower_bits(cls, n_modes, masks):
        """The encodings whose free bits are ``masks``: bit i(i-1)/2 + j of
        a mask is beta[i, j] for j < i, ``Transform.from_lower_bits``'
        order.  A mask has d = n(n-1)/2 bits, more than int64 holds from
        12 modes on, so row i is cut from the int as (1 << i) | (mask >>
        i(i-1)/2) & ((1 << i) - 1).  A mask that is negative or not below
        2^d raises ``ValueError``."""
        d = _width(n_modes) * (n_modes - 1) // 2
        masks = [operator.index(m) for m in masks]
        if any(m < 0 or m >> d for m in masks):
            raise ValueError(f"lower-bit masks of {n_modes} modes lie in [0, 2^{d})")
        cuts = [(1 << i, i * (i - 1) // 2, (1 << i) - 1) for i in range(n_modes)]
        rows = [one | m >> shift & low for m in masks for one, shift, low in cuts]
        return cls(n_modes, np.array(rows, dtype=np.int64).reshape(len(masks), n_modes))

    @classmethod
    def of(cls, encodings):
        """``encodings`` as a stack: a stack as it is, or a sequence of
        ``Transform``s of one width read into one (of 0 modes when the
        sequence is empty)."""
        if isinstance(encodings, cls):
            return encodings
        encodings = list(encodings)
        n = _width(encodings[0].n_modes if encodings else 0)
        if any(t.n_modes != n for t in encodings):
            raise ValueError("the encodings of a stack must share their number of modes")
        betas = np.array([t.beta for t in encodings], dtype=np.int64)
        return cls(n, betas.reshape(len(encodings), n, n) @ (1 << np.arange(n, dtype=np.int64)))

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EncodingStack(self.n_modes, self.rows[index])
        return Transform(self.rows[index][:, None] >> np.arange(self.n_modes) & 1)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @functools.cached_property
    def inverse(self):
        """The row masks of each beta^-1, shape (B, n), by forward
        substitution over the whole stack at once: beta X = I gives row i
        of X as e_i plus the rows j < i of X where beta[i, j] is 1, so
        once row j is final it is added to every later row that has
        beta[i, j] = 1."""
        inverse = np.empty_like(self.rows)
        inverse[:] = 1 << np.arange(self.n_modes)
        for j in range(self.n_modes - 1):
            inverse[:, j + 1 :] ^= (self.rows[:, j + 1 :] >> j & 1) * inverse[:, j, None]
        return _frozen(inverse)

    @functools.cached_property
    def tables(self):
        """``frame_stack``'s x and z tables, each of shape (B, C, 256): by
        byte c of a mask and its value v, the x' of X^(v << 8c), an xor of
        columns of beta, and the z' of Z^(v << 8c), an xor of rows of
        beta^-1."""
        shift = np.arange(self.n_modes)
        columns = np.bitwise_or.reduce(
            (self.rows[:, :, None] >> shift & 1) << shift[:, None], axis=1
        )
        return _frozen(_byte_tables(columns)), _frozen(_byte_tables(self.inverse))


def frame_stack(encodings, x, z):
    """``Transform.frame`` under each encoding of an ``EncodingStack``.

    Returns ``(x', z', q)``, each with a leading axis over the stack and
    then the shape of the int64 mask array ``x`` (for x'), ``z`` (for z')
    or both broadcast together (for q).  The stack's byte tables
    (``EncodingStack.tables``) are looked up a byte of a mask at a time,
    for every encoding in one gather.
    """
    x_tables, z_tables = encodings.tables
    x_out = x_tables[:, 0, x & 255]
    z_out = z_tables[:, 0, z & 255]
    for c in range(1, x_tables.shape[1]):
        x_out ^= x_tables[:, c, x >> 8 * c & 255]
        z_out ^= z_tables[:, c, z >> 8 * c & 255]
    q = _popcount(x & z) - _popcount(x_out & z_out)
    return x_out, z_out, q.astype(np.int8)


class Transform:
    """A beta-parameterized encoding: Jordan-Wigner followed by the basis
    change B with B|x> = |beta x>."""

    def __init__(self, beta):
        beta = np.array(beta, dtype=np.uint8)
        if beta.ndim != 2 or beta.shape[0] != beta.shape[1]:
            raise ValueError("beta must be square")
        if (beta > 1).any():
            raise ValueError("beta must be a 0/1 matrix")
        n = beta.shape[0]
        if not (np.diag(beta) == 1).all():
            raise ValueError("beta must have a unit diagonal")
        if np.triu(beta, 1).any():
            raise ValueError("beta must be lower triangular in logical mode order")
        self.beta = beta
        self.n_modes = n

    @functools.cached_property
    def stack(self):
        """This encoding as an ``EncodingStack`` of one, which keeps
        ``frame``'s byte tables once they are built."""
        return EncodingStack.of((self,))

    # -- constructors --------------------------------------------------------

    @classmethod
    def jordan_wigner(cls, n_modes):
        return cls(np.eye(n_modes, dtype=np.uint8))

    @classmethod
    def bravyi_kitaev(cls, n_modes):
        beta = np.zeros((n_modes, n_modes), dtype=np.uint8)
        for j in range(n_modes):
            low = j - ((j + 1) & -(j + 1)) + 1
            beta[j, max(low, 0) : j + 1] = 1
        return cls(beta)

    @classmethod
    def from_lower_bits(cls, n_modes, bits):
        """Build from the n(n-1)/2 strictly-lower bits, row-major (i, j<i).
        Each bit is 0 or 1, as an int or a bool; any other entry raises
        ``ValueError``."""
        bits = np.asarray(list(bits))
        if len(bits) != n_modes * (n_modes - 1) // 2:
            raise ValueError("wrong number of free bits")
        if bits.size and (bits.dtype.kind not in "biu" or ((bits != 0) & (bits != 1)).any()):
            raise ValueError("free bits must be 0 or 1")
        beta = np.eye(n_modes, dtype=np.uint8)
        beta[np.tril_indices(n_modes, -1)] = bits
        return cls(beta)

    # -- ladder operators ------------------------------------------------------

    def frame(self, x, z):
        """Conjugate strings by the basis change: ``(x', z', q)`` with
        B P(x, z) B+ = i^q P(x', z') and q = |x & z| - |x' & z'| (int8).

        ``x`` and ``z`` are int64 mask arrays that broadcast together.
        ``frame_stack`` of this one encoding (``stack``): x' = beta x and
        z' = beta^-T z are looked up a byte at a time
        (``EncodingStack.tables``), so no array holds an entry per string
        and mode.  Masks are int64: more than 63 modes raises
        ``ValueError``.
        """
        x_out, z_out, q = frame_stack(self.stack, x, z)
        return x_out[0], z_out[0], q[0]

    def frame_sum(self, x, z, coeffs):
        """A fresh PauliSum of the strings P(x, z), ``coeffs`` their
        coefficients, each conjugated by the basis change (``frame``), in
        the same order.

        ``x`` and ``z`` are int64 mask arrays and ``coeffs`` a complex
        array of one length.  Each coefficient is multiplied by its
        string's i^q, a sign: x' . z' = x^T beta^T beta^-T z = x . z over
        GF(2), so q is even.  The sign is an exact negation, and then
        ``+ 0.0`` makes a zero part +0, as a sum started from +0 leaves it.
        """
        x, z, q = self.frame(x, z)
        framed = np.where(q & 2, -coeffs, coeffs) + 0.0
        keys = zip(x.tolist(), z.tolist())
        return PauliSum(self.n_modes, dict(zip(keys, framed.tolist())))

    def map_operator(self, terms, constant=0.0):
        """Map [(coeff, ((mode, dagger), ...)), ...] to a PauliSum.

        All terms are mapped in one numpy pass under Jordan-Wigner.  A term
        of k ladders has 2^k paths, one string per ladder, the first
        ladder's choice leading; as in ``trotter.expand_term``, a path's
        product is i^f X^x Z^z with integer f and z, and x is shared by the
        term.  The two strings of mode j differ in z by Z_j, so paths reach
        the same z exactly when they agree on the parity of each mode's
        choices: D distinct modes give 2^D strings, each reached first by
        the path that takes string 0 at every ladder but its mode's last.
        The product is a fermion operator, so it is 0 (some mode's ladders
        do not alternate between creation and annihilation) or each string
        has coefficient coeff i^e / 2^D: the merged weight of its 2^(k - D)
        paths is 2^(k - D) i^e, e that of the first.  Only first paths are
        enumerated.  The additions ``coeff * (i^e * 2^-D)`` of all terms
        are sorted by string, then by term and path, and each string's
        additions are summed in that order, one at a time.  The merged
        Jordan-Wigner sum is then framed once by B (``frame_sum``).  The
        frame is a bijection, and i^q is the same sign for all of a
        string's additions; rounding is symmetric under negation, so
        framing the sum gives the bits that framing each addition would.

        The result is that of multiplying each term's ladders as Pauli
        sums and adding the products in term order
        (``oracles.map_operator_via_paulisum`` in the tests): the same
        items, in the same order, with every coefficient equal bit for bit (above
        underflow).  A running sum that is exactly 0 drops its string,
        which goes to the end if it comes back.  After each ladder, a
        product's coefficients of magnitude ``COEFF_TOL`` or less are
        dropped, and so are the sum's at the end; a term without ladders
        is added as given.  A term's partial products are exact and never
        grow, so the per-ladder cut is the cut of the whole product.

        Masks are int64: ``frame_sum`` raises ``ValueError`` for a
        transform of more than 63 modes.
        """
        n = self.n_modes
        terms = list(terms)
        ladders = np.array(
            [2 * mode + (1 if dagger else 0) for _, ops in terms for mode, dagger in ops],
            dtype=np.int64,
        )
        bad = (ladders < 0) | (ladders >= 2 * n)
        if bad.any():
            raise ValueError(f"mode {int(ladders[bad][0]) >> 1} out of range")
        if constant:
            c = 0.0 + complex(constant)
            if abs(c) > COEFF_TOL:
                # the first string in, as a term without ladders
                terms.insert(0, (c, ()))
        if not terms:
            return PauliSum(n)
        coeffs = np.array([c for c, _ in terms], dtype=complex)
        lengths = np.array([len(ops) for _, ops in terms], dtype=np.int64)
        first = np.cumsum(lengths) - lengths
        # room for the 2^D first paths of a term, D <= k and D <= n
        n_paths = 1 << min(int(lengths.max()), n)
        scale = np.empty_like(coeffs)
        columns = ([], [], [], [])
        for k in sorted(set(lengths.tolist())):
            rows = np.flatnonzero(lengths == k)
            lad = ladders[first[rows, None] + np.arange(k)]
            distinct = _first_paths(lad, coeffs[rows], rows * n_paths, columns)
            scale[rows] = coeffs[rows] * 0.5**distinct
        if not columns[0]:
            return PauliSum(n)
        # each array is dropped once it is used, to keep the peak memory low
        joined = []
        for column in columns:
            joined.append(np.concatenate(column))
            column.clear()
        x, z, e, place = joined
        del joined

        # sort by string, then by place; keep one (x, z) per string
        order = np.lexsort((place, z, x))
        x = x[order]
        z = z[order]
        edge = np.ones(len(x) + 1, bool)
        edge[1:-1] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
        bounds = np.flatnonzero(edge)
        heads, counts = bounds[:-1], bounds[1:] - bounds[:-1]
        x, z = x[heads], z[heads]
        e = e[order]
        place = place[order]
        del order
        value = scale[place // n_paths]
        for q in (1, 2, 3):
            np.multiply(value, _UNITS[q], out=value, where=e == q)
        del e

        # sum each string's contributions one at a time: step i adds the
        # i-th of every string that has more than i, most first.  A string
        # enters at its first contribution after its running sum was last
        # exactly 0.
        most = np.argsort(-counts, kind="stable")
        starts = heads[most]
        total = np.zeros(len(heads), complex)
        enters = starts.copy()
        for i, active in enumerate((len(heads) - np.cumsum(np.bincount(counts)))[:-1].tolist()):
            at = starts[:active] + i
            run = total[:active]
            run += value[at]
            np.copyto(enters[:active], at + 1, where=run == 0)
        out = np.flatnonzero(np.abs(total) > COEFF_TOL)
        out = out[np.argsort(place[enters[out]])]
        return self.frame_sum(x[most[out]], z[most[out]], total[out])

    # -- encoding circuit --------------------------------------------------------

    def basis_circuit(self):
        """CNOT network B with B|x> = |beta x> on computational basis states.

        Rows are processed from the top mode down so that every source wire
        still carries its original bit when it is read.  ``circuits`` is
        imported here, so mapping an operator (the emulator's only use of
        a transform) does not load it.
        """
        from .circuits import Circuit

        circ = Circuit(self.n_modes)
        for i in range(self.n_modes - 1, 0, -1):
            for j in range(i):
                if self.beta[i, j]:
                    circ.add("CNOT", j, i)
        return circ
