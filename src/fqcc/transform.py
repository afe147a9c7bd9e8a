"""Linear-encoding fermion-to-qubit transforms.

A transform is parameterized by an invertible binary matrix beta that maps
occupation vectors to code vectors, x -> beta x over GF(2).  Mode i is row i;
beta is unit lower triangular in this (logical) ordering, so the free bits
sit strictly below the diagonal.  Jordan-Wigner is beta = identity and the
Fenwick-tree choice of beta reproduces the Bravyi-Kitaev transform.

Ladder operators map to two-string Pauli sums whose supports are read off
three derived index sets per mode j:

* update set U(j): rows i != j with beta[i, j] = 1 (X support above j),
* parity set P(j): nonzero columns of row j of pi beta^-1 xor beta^-1,
* remainder set R(j): nonzero columns of row j of pi beta^-1,

where pi is the inclusive lower-triangular parity accumulator.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit
from .paulis import _PHASES, COEFF_TOL, PauliSum


# power-of-i exponents of a ladder's strings (x, z_parity) and (x, z_remainder):
# a_mode is (P(x, z_parity) + i P(x, z_remainder)) / 2, its adjoint the same
# with -i = i^3
_LADDER_EXPONENTS = ((0, 1), (0, 3))


def _gf2_inv(a):
    a = np.array(a, dtype=np.uint8) & 1
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.uint8)], axis=1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r, c]), None)
        if pivot is None:
            raise ValueError("beta is singular over GF(2)")
        if pivot != c:
            aug[[c, pivot]] = aug[[pivot, c]]
        for r in range(n):
            if r != c and aug[r, c]:
                aug[r] ^= aug[c]
    return aug[:, n:]


def _mask(row):
    """Bit mask of the nonzero entries of a 0/1 row."""
    return sum(1 << k for k in np.flatnonzero(row).tolist())


class Transform:
    """A beta-parameterized encoding and the Pauli strings of its ladder operators.

    ``ladder_strings[mode][dagger]`` holds the two strings of a_mode
    (``dagger`` 0) or of its adjoint (1) as ``(x, z, e)``: each string
    carries the coefficient i^e / 2.
    """

    def __init__(self, beta):
        beta = np.array(beta, dtype=np.uint8)
        if beta.ndim != 2 or beta.shape[0] != beta.shape[1]:
            raise ValueError("beta must be square")
        if not np.isin(beta, (0, 1)).all():
            raise ValueError("beta must be a 0/1 matrix")
        n = beta.shape[0]
        if not (np.diag(beta) == 1).all():
            raise ValueError("beta must have a unit diagonal")
        if np.triu(beta, 1).any():
            raise ValueError("beta must be lower triangular in logical mode order")
        self.beta = beta
        self.n_modes = n
        self.beta_inv = _gf2_inv(beta)
        pi = np.tril(np.ones((n, n), dtype=np.uint8))
        m_r = (pi @ self.beta_inv) & 1
        m_p = m_r ^ self.beta_inv
        # per mode j, the masks (x, z_parity, z_remainder) of its ladder
        # strings: U(j) and j (column j of beta), P(j) (row j of m_p) and
        # R(j) and j (row j of m_r, whose diagonal is 1)
        ladder_masks = ((_mask(beta[:, j]), _mask(m_p[j]), _mask(m_r[j])) for j in range(n))
        self.ladder_strings = tuple(
            tuple(((x, zp, ep), (x, zr, er)) for ep, er in _LADDER_EXPONENTS)
            for x, zp, zr in ladder_masks
        )

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
        """Build from the n(n-1)/2 strictly-lower bits, row-major (i, j<i)."""
        bits = list(bits)
        if len(bits) != n_modes * (n_modes - 1) // 2:
            raise ValueError("wrong number of free bits")
        beta = np.eye(n_modes, dtype=np.uint8)
        k = 0
        for i in range(n_modes):
            for j in range(i):
                beta[i, j] = 1 if bits[k] else 0
                k += 1
        return cls(beta)

    def encode_occupation(self, occupation_mask):
        """Computational-basis index encoding an occupation bitmask (x = beta n)."""
        n = self.n_modes
        if not 0 <= occupation_mask < (1 << n):
            raise ValueError("occupation mask out of range for this transform")
        bits = np.array([occupation_mask >> k & 1 for k in range(n)], dtype=np.uint8)
        code = (self.beta @ bits) & 1
        return int(sum(int(b) << i for i, b in enumerate(code)))

    # -- ladder operators ------------------------------------------------------

    def map_operator(self, terms, constant=0.0):
        """Map [(coeff, ((mode, dagger), ...)), ...] to a PauliSum.

        Each term's ladders are multiplied in one loop over the masks of
        each ladder's two strings, with ``PauliSum.__mul__``'s phase
        rule and its merge: a key whose sum is exactly 0 is dropped, and
        after each ladder every coefficient of magnitude ``COEFF_TOL`` or
        less.  Products accumulate into one dict in term order, filtered
        the same way at the end.  Enumeration and merge order are those
        of multiplying and adding ``PauliSum`` objects, so the items, their
        order and every coefficient are the same, bit for bit.
        """
        n = self.n_modes
        # per mode, the strings of a_mode and of its adjoint as
        # (x, z, X letters, Y letters, Z letters, coefficient)
        right = [
            tuple(
                tuple((x, z, x & ~z, x & z, z & ~x, 0.5 * _PHASES[e]) for x, z, e in strings)
                for strings in per_mode
            )
            for per_mode in self.ladder_strings
        ]
        out = {}
        if constant:
            c = 0.0 + complex(constant)
            if abs(c) > COEFF_TOL:
                out[0, 0] = c
        phases = _PHASES
        for coeff, ops in terms:
            prod = {(0, 0): complex(coeff)}
            for mode, dagger in ops:
                if not 0 <= mode < n:
                    raise ValueError(f"mode {mode} out of range")
                step = {}
                get = step.get
                for (x1, z1), c1 in prod.items():
                    xo, yo, zo = x1 & ~z1, x1 & z1, z1 & ~x1
                    for x2, z2, xt, yt, zt, c2 in right[mode][1 if dagger else 0]:
                        # XY, YZ, ZX give +i
                        plus = (xo & yt) | (yo & zt) | (zo & xt)
                        minus = (yo & xt) | (zo & yt) | (xo & zt)
                        key = (x1 ^ x2, z1 ^ z2)
                        c = get(key, 0.0) + c1 * c2 * phases[(plus.bit_count() - minus.bit_count()) % 4]
                        if c == 0.0:
                            step.pop(key, None)
                        else:
                            step[key] = c
                if step and min(map(abs, step.values())) <= COEFF_TOL:
                    step = {k: c for k, c in step.items() if abs(c) > COEFF_TOL}
                prod = step
            for key, c in prod.items():
                c = out.get(key, 0.0) + c
                if c == 0.0:
                    out.pop(key, None)
                else:
                    out[key] = c
        return PauliSum(n, {k: c for k, c in out.items() if abs(c) > COEFF_TOL})

    # -- encoding circuit --------------------------------------------------------

    def basis_circuit(self):
        """CNOT network B with B|x> = |beta x> on computational basis states.

        Rows are processed from the top mode down so that every source wire
        still carries its original bit when it is read.
        """
        circ = Circuit(self.n_modes)
        for i in range(self.n_modes - 1, 0, -1):
            for j in range(i):
                if self.beta[i, j]:
                    circ.add("CNOT", j, i)
        return circ
