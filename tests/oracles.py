"""Independent reference implementations used to check package results.

Everything in this module is written from first principles — explicit kron
products, occupation-number bookkeeping, Gaussian elimination over GF(2),
determinant enumeration — so that the package is always compared against a
second, structurally different computation.  Nothing here imports from fqcc,
except three references for the mask-level and closed-form code paths:
``expand_term_via_paulis`` keeps the generic FermionOperator -> PauliSum route
and letter-word sort that ``trotter.expand_term`` once used,
``map_operator_via_paulisum`` keeps the Pauli-sum-product route that
``Transform.map_operator`` once used, and ``paired_compression_reference``
keeps the Jordan-Wigner projection route that ``trotter.compressed_circuit``
once used.  ``ordered_reference`` keeps the (-|coefficient|, word key)
sort that ``measure._ordered`` once ran, ``qwc_groups_reference`` and
``gc_groups_reference`` the profile and member-by-member loops that
``measure.partition_qwc`` and ``partition_gc`` once ran,
``diagonalizing_circuit_reference`` the basis change that conjugated
every generator, and
``term_circuit_reference`` the full blocks that ``trotter.term_circuit``
once emitted.  The planner's references are in ``planner_oracles``.
``compiled_apply_reference`` keeps the X-mask group loop that
``CompiledSum.apply`` once ran, ``compiled_tables_loop`` the group and
member loops that built ``CompiledSum``'s tables, both over the string
arrays of ``compiled_strings``,
``energy_and_gradient_reference`` and ``ansatz_state_reference`` the
VQE sweep on it, with two applies and scalar sin and cos per
exponential, and ``stacked_sum_reference`` the one-generator-at-a-time
loop that Zt's stacked rows replace.  ``generator_kernel_reference``
keeps the one-excitation-at-a-time ladder rule that
``simulate.compile_generators`` now runs in batches.
``lbfgsb_reference`` runs scipy's L-BFGS-B, the minimizer that
``simulate.vqe_minimize`` once called, on the same energy and gradient.
``encoded_generators`` keeps the Pauli route
(``excitation_generator`` mapped and compiled) that
``simulate.compile_generator`` once took, under any encoding.

``letter``, ``letters``, ``string_product``, ``sum_product``,
``sum_matrix`` and ``expectation`` are the Pauli algebra that fqcc's
``PauliString`` and ``PauliSum`` do not carry, since no pipeline
multiplies, conjugates or prints an operator: the tests read letters,
build products and take expectations with them, and
``map_operator_via_paulisum`` multiplies with ``sum_product``.  The last
two sections hold what only tests call on fqcc's own objects: the dense
self-checks (circuit unitaries and statevectors, the anticommutation
check, Clifford conjugation of a string, a term's signed rotations),
which run the package's own gate matrices (conjugation runs
``conjugate_masks``, the tableau update kept next to
``diagonalizing_circuit_reference``); and test
inputs (a transform's free bits, its encoded sectors, states and
generators, a ladder as a PauliSum, Pauli strings from letters or from the
text format).  A transform's ladder strings and encoded basis indices are
computed here from its beta alone (``ladder_strings``,
``encode_occupation``).
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# dense Pauli algebra
# ---------------------------------------------------------------------------

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def string_matrix(n, letters, coeff=1.0):
    """Dense matrix of ``coeff * prod_q sigma_{letters[q]}`` on n qubits.

    ``letters`` maps qubit index -> letter.  Qubit 0 is the least significant
    bit of the basis index, i.e. the rightmost tensor factor.
    """
    m = np.array([[coeff]], dtype=complex)
    for q in range(n - 1, -1, -1):
        m = np.kron(m, PAULI_1Q[letters.get(q, "I")])
    return m


def paulisum_matrix(n, terms):
    """Dense matrix of a list of (coeff, letters-dict) pairs."""
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    for coeff, letters in terms:
        m += string_matrix(n, letters, coeff)
    return m


def apply_string(s, vec):
    """A Pauli string applied to a statevector, one basis state at a time.

    Reads the string's masks: P|b> = c * i^|x & z| * (-1)^|b & z| * |b ^ x>,
    scattered into a fresh array.
    """
    out = np.zeros(len(vec), dtype=complex)
    w = s.coeff * 1j ** ((s.xmask & s.zmask).bit_count() % 4)
    for b, amp in enumerate(vec):
        out[b ^ s.xmask] += w * (-1) ** (b & s.zmask).bit_count() * amp
    return out


# ---------------------------------------------------------------------------
# fermionic ladder operators in the occupation-number basis
# ---------------------------------------------------------------------------


def ladder_matrix(n_modes, mode, dagger):
    """Dense creation/annihilation operator.

    Basis index bit j holds the occupation of mode j; the sign of an
    application is (-1)**(number of occupied modes below ``mode``).
    """
    dim = 1 << n_modes
    m = np.zeros((dim, dim), dtype=complex)
    below = (1 << mode) - 1
    for s in range(dim):
        occupied = s >> mode & 1
        if dagger and not occupied:
            sign = (-1) ** int(bin(s & below).count("1"))
            m[s | 1 << mode, s] = sign
        elif not dagger and occupied:
            sign = (-1) ** int(bin(s & below).count("1"))
            m[s ^ 1 << mode, s] = sign
    return m


def ladder_product_matrix(n_modes, ops, coeff=1.0):
    """Dense matrix of coeff * a(+)_{p1} a(+)_{p2} ... (ops applied right to left).

    ``ops`` is a list of (mode, dagger) pairs given left-to-right.
    """
    dim = 1 << n_modes
    m = np.eye(dim, dtype=complex) * coeff
    for mode, dagger in ops:
        m = m @ ladder_matrix(n_modes, mode, dagger)
    return m


# ---------------------------------------------------------------------------
# GF(2) linear algebra
# ---------------------------------------------------------------------------


def gf2_mul(a, b):
    return (np.asarray(a, dtype=np.uint8) @ np.asarray(b, dtype=np.uint8)) & 1


def gf2_inv(a):
    """Inverse over GF(2) by Gauss-Jordan; raises if singular.  The
    package ran this routine before its forward substitution on unit
    lower-triangular rows (now ``EncodingStack.inverse``)."""
    a = np.array(a, dtype=np.uint8) & 1
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.uint8)], axis=1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r, c]), None)
        if pivot is None:
            raise ValueError("matrix is singular over GF(2)")
        aug[[c, pivot]] = aug[[pivot, c]]
        for r in range(n):
            if r != c and aug[r, c]:
                aug[r] ^= aug[c]
    return aug[:, n:]


def ladder_sets(beta):
    """(U(j), P(j), R(j)) of each mode j of a unit lower-triangular beta, as
    sets, by the definitions in ``fqcc.transform``'s docstring.

    U(j): rows i != j with beta[i, j] = 1; P(j): nonzero columns k != j of
    row j of pi beta^-1 xor beta^-1; R(j): those of row j of pi beta^-1, where
    pi is the inclusive lower-triangular parity accumulator.
    """
    beta = np.asarray(beta, dtype=np.uint8)
    n = beta.shape[0]
    inv = gf2_inv(beta)
    m_r = gf2_mul(np.tril(np.ones((n, n), dtype=np.uint8)), inv)
    m_p = m_r ^ inv
    return [
        (
            {i for i in range(n) if i != j and beta[i, j]},
            {k for k in range(n) if k != j and m_p[j, k]},
            {k for k in range(n) if k != j and m_r[j, k]},
        )
        for j in range(n)
    ]


def ladder_strings(transform):
    """The two Pauli strings of each ladder operator under ``transform``,
    from its beta alone.

    ``out[mode][dagger]`` holds the strings of a_mode (``dagger`` 0) or of
    its adjoint (1) as ``(x, z, e)``, each carrying the coefficient i^e / 2:
    a_j = (P(x, z_0) + i P(x, z_1)) / 2, its adjoint the same with -i = i^3.
    x is U(j) and j (column j of beta), z_0 is P(j) and z_1 is R(j) and j
    (``ladder_sets``), as Python ints at any width.
    """
    beta = np.asarray(transform.beta, dtype=np.uint8)
    return _ladder_strings(beta.tobytes(), beta.shape[0])


@functools.lru_cache(maxsize=256)
def _ladder_strings(beta_bytes, n):
    """``ladder_strings`` of the n x n beta in ``beta_bytes``, kept per beta:
    the references map one ladder at a time."""
    beta = np.frombuffer(beta_bytes, dtype=np.uint8).reshape(n, n)
    inv = gf2_inv(beta)
    m_r = gf2_mul(np.tril(np.ones((n, n), dtype=np.uint8)), inv)
    m_p = m_r ^ inv

    def mask(row):
        return sum(1 << k for k in np.flatnonzero(row).tolist())

    out = []
    for j in range(n):
        x, zp, zr = mask(beta[:, j]), mask(m_p[j]), mask(m_r[j])
        out.append(tuple(((x, zp, ep), (x, zr, er)) for ep, er in ((0, 1), (0, 3))))
    return tuple(out)


def encode_occupation(transform, occupation):
    """The basis index x = beta n that ``transform`` gives occupation mask n."""
    n = transform.n_modes
    if not 0 <= occupation < (1 << n):
        raise ValueError(f"occupation {occupation} out of range for {n} modes")
    bits = np.array([occupation >> k & 1 for k in range(n)], dtype=np.uint8)
    return sum(int(b) << i for i, b in enumerate(gf2_mul(transform.beta, bits)))


# ---------------------------------------------------------------------------
# dense circuit simulation (independent of the package's circuit IR)
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_S = np.diag([1.0, 1.0j]).astype(complex)
_T = np.diag([1.0, np.exp(0.25j * np.pi)]).astype(complex)


def _one_qubit_matrix(kind, theta):
    if kind == "H":
        return _H
    if kind == "S":
        return _S
    if kind == "Sdg":
        return _S.conj().T
    if kind == "T":
        return _T
    if kind == "Tdg":
        return _T.conj().T
    if kind == "X":
        return PAULI_1Q["X"]
    if kind == "Z":
        return PAULI_1Q["Z"]
    if kind == "Rz":
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    if kind == "Rx":
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        return np.array([[c, -1.0j * s], [-1.0j * s, c]])
    raise ValueError(f"unknown one-qubit gate {kind}")


def apply_gate(vec_matrix, kind, qubits, n, theta=None):
    """Apply one gate to each column of a 2^n x k array (or a vector)."""
    out = np.array(vec_matrix, dtype=complex, copy=True)
    single = out.ndim == 1
    if single:
        out = out[:, None]
    dim = out.shape[0]
    idx = np.arange(dim)
    if kind == "CNOT":
        c, t = qubits
        mask = (idx >> c & 1).astype(bool)
        out[idx[mask]] = out[idx[mask] ^ (1 << t)]
    elif kind == "CZ":
        a, b = qubits
        mask = ((idx >> a & 1) & (idx >> b & 1)).astype(bool)
        out[mask] *= -1.0
    else:
        (q,) = qubits
        g = _one_qubit_matrix(kind, theta)
        bit = (idx >> q & 1).astype(bool)
        lo, hi = out[~bit], out[bit]
        # rows of `out` with bit q clear pair with the same index with bit set
        out[~bit] = g[0, 0] * lo + g[0, 1] * hi
        out[bit] = g[1, 0] * lo + g[1, 1] * hi
    return out[:, 0] if single else out


def circuit_matrix(n, ops, global_phase=1.0):
    """Unitary of a gate list [(kind, qubits, theta), ...], first gate applied first."""
    u = np.eye(1 << n, dtype=complex) * global_phase
    for op in ops:
        kind, qubits = op[0], tuple(op[1])
        theta = op[2] if len(op) > 2 else None
        u = apply_gate(u, kind, qubits, n, theta)
    return u


# ---------------------------------------------------------------------------
# per-term CNOT count of a rotation chain: loop references and enumeration
# ---------------------------------------------------------------------------


def _boundary_cnots(first, second, target):
    """CNOTs cancelled where a block on ``first`` meets one on ``second``.

    Blocks are basis change + CNOT ladder onto ``target`` + Rz; on every
    other wire that both words touch, equal letters cancel both ladder
    CNOTs and different letters cancel one.
    """
    saved = 0
    for q, here in first.items():
        if q != target and q in second:
            saved += 2 if second[q] == here else 1
    return saved


def boundary_saving_reference(first, second, target):
    """(two_cnot, one_cnot) savings where blocks on two strings meet.

    Letter by letter over ``first``'s support: a wire other than ``target``
    where ``second`` is not identity saves two CNOTs when the letters agree
    and one when they differ.
    """
    two = one = 0
    for q, here in letters(first).items():
        if q == target:
            continue
        other = letter(second, q)
        if other == "I":
            continue
        if other == here:
            two += 1
        else:
            one += 1
    return two, one


def max_path_reference(savings):
    """Maximum-weight Hamiltonian path; lexicographically smallest argmax.

    Returns (weight, path).  ``f[mask][last]`` holds the best achievable
    suffix weight starting at ``last`` with ``mask`` already visited, so the
    path can be rebuilt greedily smallest-node-first.
    """
    k = len(savings)
    full = (1 << k) - 1
    f = [[0] * k for _ in range(1 << k)]
    for mask in range(full, 0, -1):
        for last in range(k):
            if not mask >> last & 1:
                continue
            best = 0
            row = savings[last]
            for nxt in range(k):
                if mask >> nxt & 1:
                    continue
                cand = row[nxt] + f[mask | (1 << nxt)][nxt]
                if cand > best:
                    best = cand
            f[mask][last] = best
    weight = max(f[1 << v][v] for v in range(k))
    path = []
    mask = 0
    remaining = weight
    prev = None
    for _ in range(k):
        for v in range(k):
            if mask >> v & 1:
                continue
            gain = 0 if prev is None else savings[prev][v]
            if gain + f[mask | (1 << v)][v] == remaining:
                path.append(v)
                mask |= 1 << v
                remaining -= gain
                prev = v
                break
    return weight, tuple(path)


def letter_word(string):
    """The string's letters on every qubit, qubit 0 first ("I" for identity)."""
    return "".join(letter(string, q) for q in range(string.n_qubits))


_CANONICAL_WORDS = {
    word: rank
    for rank, word in enumerate(
        ("XXXX", "XXYY", "XYYX", "XYXY", "YYXX", "YXXY", "YXYX", "YYYY")
    )
}


def expand_term_via_paulis(seq, transform, theta=1.0, *, anti=False):
    """``trotter.expand_term`` through the generic operator algebra.

    Builds T - T+ (or T + T+) as a FermionOperator, maps both products
    through ``to_pauli``, and sorts the strings by their letter words.
    """
    from fqcc.fermions import FermionOperator
    from fqcc.paulis import PauliString
    from fqcc.trotter import TrotterTerm

    n = transform.n_modes
    if anti:
        op = excitation_generator(seq, n)
    else:
        fwd = seq.term()
        op = FermionOperator(n, [fwd, fwd.adjoint()])
    raw = sorted(op.to_pauli(transform).strings(), key=letter_word)
    assert len(raw) == (8 if seq.kind == "double" else 2)
    signed, magnitudes = [], []
    for s in raw:
        if anti:
            assert abs(s.coeff.real) <= 1e-9
            rot = -2.0 * s.coeff.imag
        else:
            assert abs(s.coeff.imag) <= 1e-9
            rot = s.coeff.real
        magnitudes.append(abs(rot))
        signed.append(PauliString(n, s.xmask, s.zmask, complex(1.0 if rot >= 0 else -1.0)))
    assert all(abs(m - magnitudes[0]) <= 1e-9 for m in magnitudes)

    xy = sorted(
        q for q in letters(signed[0]) if all(letter(s, q) in ("X", "Y") for s in signed)
    )

    def rank(s):
        word = "".join(letter(s, q) for q in xy)
        return (_CANONICAL_WORDS.get(word, len(_CANONICAL_WORDS)), word, letter_word(s))

    ordered = tuple(sorted(signed, key=rank))
    eligible = tuple(
        t for t in sorted(set(seq.indices)) if all(letter(s, t) != "I" for s in ordered)
    )
    return TrotterTerm(
        source=seq,
        n_qubits=n,
        theta=theta,
        angle=theta * magnitudes[0],
        strings=ordered,
        eligible_targets=eligible,
        anti=anti,
    )


def intra_minima(words, targets):
    """(cheapest CNOT count, sorted [(target, ordering)] attaining it).

    ``words`` are letter maps {qubit: "X" | "Y" | "Z"} of the rotations of
    one term; each block costs 2 * (weight - 1) CNOTs.  Every ordering of
    every target is scored, each ordering up to reversal (the
    lexicographically smaller of the pair is kept).
    """
    k = len(words)
    base = sum(2 * (len(w) - 1) for w in words)
    best, minima = None, []
    for t in targets:
        saved = [[_boundary_cnots(words[a], words[b], t) for b in range(k)] for a in range(k)]
        for perm in itertools.permutations(range(k)):
            if perm[::-1] < perm:
                continue
            cost = base - sum(saved[a][b] for a, b in zip(perm, perm[1:]))
            if best is None or cost < best:
                best, minima = cost, []
            if cost == best:
                minima.append((t, perm))
    return best, sorted(minima)


def map_operator_via_paulisum(transform, terms, constant=0.0):
    """``Transform.map_operator`` as a product of Pauli sums.

    Imports fqcc: each term's ladders are multiplied as ``map_ladder``
    sums, one ``sum_product`` (with its ``simplify``) per ladder, and the
    products are accumulated in term order before one last ``simplify``.
    The mask loop must give the same items, in the same order, with
    bit-equal coefficients.
    """
    from fqcc.paulis import PauliSum

    n = transform.n_modes
    out = PauliSum(n)
    if constant:
        out._add_term(0, 0, complex(constant))
        out.simplify()
    for coeff, ops in terms:
        prod = PauliSum(n, {(0, 0): complex(coeff)})
        for mode, dagger in ops:
            prod = sum_product(prod, map_ladder(transform, mode, dagger))
        for (x, z), c in prod._terms.items():
            out._add_term(x, z, c)
    return out.simplify()


# ---------------------------------------------------------------------------
# Pauli algebra on fqcc's strings and sums, which fqcc itself never runs
# ---------------------------------------------------------------------------


def letter(string, q):
    """The string's letter on qubit q: "I", "X", "Y" or "Z"."""
    return "IXZY"[(string.xmask >> q & 1) | (string.zmask >> q & 1) << 1]


def letters(string):
    """The string's support as a {qubit: letter} dict, in qubit order."""
    support = string.xmask | string.zmask
    return {q: letter(string, q) for q in range(support.bit_length()) if support >> q & 1}


def _product_masks(x1, z1, x2, z2):
    """(x, z, phase) of the product of the strings (x1, z1) and (x2, z2):
    XY, YZ and ZX give +i, their reverses -i."""
    xo, yo, zo = x1 & ~z1, x1 & z1, z1 & ~x1
    xt, yt, zt = x2 & ~z2, x2 & z2, z2 & ~x2
    plus = (xo & yt) | (yo & zt) | (zo & xt)
    minus = (yo & xt) | (zo & yt) | (xo & zt)
    return x1 ^ x2, z1 ^ z2, 1j ** ((plus.bit_count() - minus.bit_count()) % 4)


def string_product(a, b):
    """The PauliString a b, coefficients and phase included."""
    from fqcc.paulis import PauliString

    x, z, phase = _product_masks(a.xmask, a.zmask, b.xmask, b.zmask)
    return PauliString(a.n_qubits, x, z, a.coeff * b.coeff * phase)


def sum_product(a, b):
    """The PauliSum a b: each pair of terms multiplied, ``a``'s terms
    outermost, added by key in that order, then ``simplify``."""
    from fqcc.paulis import PauliSum

    out = PauliSum(a.n_qubits)
    for (x1, z1), c1 in a._terms.items():
        for (x2, z2), c2 in b._terms.items():
            x, z, phase = _product_masks(x1, z1, x2, z2)
            out._add_term(x, z, c1 * c2 * phase)
    return out.simplify()


def sum_matrix(op):
    """Dense matrix of a PauliSum."""
    return paulisum_matrix(op.n_qubits, [(s.coeff, letters(s)) for s in op.strings()])


def expectation(state, op):
    """<psi|op|psi> (real part) of a PauliSum, compiled onto the state's
    sector (``simulate.Statevector``)."""
    from fqcc.paulis import CompiledSum

    return float(np.real(CompiledSum(op, state.sector).expectation(state.amplitudes)))


# ---------------------------------------------------------------------------
# paired-double compression through the Jordan-Wigner expansion
# ---------------------------------------------------------------------------

# Letter pair on one orbital pair -> (compressed letter, factor).  Pairs
# mixing {X, Y} with {I, Z} have no action on span{|00>, |11>}.
_PAIR_LETTERS = {
    ("I", "I"): ("I", 1.0),
    ("I", "Z"): ("Z", 1.0),
    ("Z", "I"): ("Z", 1.0),
    ("Z", "Z"): ("I", 1.0),
    ("X", "X"): ("X", 1.0),
    ("X", "Y"): ("Y", 1.0),
    ("Y", "X"): ("Y", 1.0),
    ("Y", "Y"): ("X", -1.0),
}


def paired_compression_reference(seq, n_modes, theta, *, anti):
    """``trotter.compressed_circuit`` of a paired double, the long way.

    Imports fqcc: expands ``seq`` under Jordan-Wigner with
    ``trotter.expand_term`` at unit angle, projects each string letter by
    letter onto span{|00>, |11>} of every pair (2l, 2l+1), merges the
    projections and checks their structure: two strings of equal magnitude,
    opposite with ``anti`` and equal without, X or Y on the same two pair
    wires and Z on any other ("chain") wire.  The circuit is the two-CNOT
    core on wires 2P < 2R, flanked by a CZ from each chain pair's wire.  Its
    angle is |theta| times the merged magnitude, signed by theta (``theta <
    0``) and by the lead string: the one with X on the lower wire when
    ``anti``, else either.  Returns (kind, qubits, theta) tuples.
    """
    from fqcc.transform import Transform
    from fqcc.trotter import expand_term

    n_pairs = n_modes // 2
    full = expand_term(seq, Transform.jordan_wigner(n_modes), 1.0, anti=anti)
    merged = {}
    for string, rot in rotations(full):
        word, factor = "", 1.0
        for l in range(n_pairs):
            pair, sign = _PAIR_LETTERS[letter(string, 2 * l), letter(string, 2 * l + 1)]
            word += pair
            factor *= sign
        merged[word] = merged.get(word, 0.0) + rot * factor
    merged = {w: v for w, v in merged.items() if abs(v) > 1e-12}
    assert len(merged) == 2
    (w1, v1), (w2, v2) = merged.items()
    assert abs(abs(v1) - abs(v2)) <= 1e-9
    assert abs(v1 + v2) <= 1e-9 if anti else abs(v1 - v2) <= 1e-9
    xy = [l for l in range(n_pairs) if w1[l] in "XY"]
    chain = [l for l in range(n_pairs) if w1[l] == "Z"]
    assert len(xy) == 2 and all(w2[l] in "XY" for l in xy)
    assert all(w1[l] == w2[l] for l in range(n_pairs) if l not in xy)

    lead = next(v for w, v in merged.items() if w[xy[0]] == "X") if anti else v1
    flip = -1.0 if theta < 0 else 1.0
    beta = abs(theta) * abs(v1) * (flip * (1.0 if lead >= 0 else -1.0))
    a, b = 2 * xy[0], 2 * xy[1]
    flank = [("CZ", (2 * c, b), None) for c in chain]
    gates = flank + ([("Sdg", (b,), None)] if anti else [])
    for q in (a, b):
        gates += [("H", (q,), None), ("Sdg", (q,), None), ("H", (q,), None)]
    cnot = ("CNOT", (a, b), None)
    gates += [cnot, ("Rx", (a,), beta), ("Rz", (b,), beta), cnot]
    for q in (a, b):
        gates += [("H", (q,), None), ("S", (q,), None), ("H", (q,), None)]
    return gates + ([("S", (b,), None)] if anti else []) + flank[::-1]


# ---------------------------------------------------------------------------
# FCIDUMP parsing (independent of fqcc.fcidump)
# ---------------------------------------------------------------------------


def read_fcidump_so(path):
    """Parse a Molpro-style FCIDUMP into spin-orbital arrays.

    Returns (h1, g2, ecore, eps, norb_so, nelec) where h1/g2/eps are
    spin-orbital quantities in the interleaved convention (even index =
    alpha), g2 in chemist order (pq|rs), with the 8-fold permutational
    symmetry of real integrals expanded.
    """
    text = Path(path).read_text()
    head, _, body = text.partition("&END")
    if not body:
        head, _, body = text.partition("/")
    flat = head.replace("\n", " ").replace(",", " ")
    tokens = flat.split()
    norb = nelec = None
    for tok in tokens:
        if tok.upper().startswith("NORB="):
            norb = int(tok.split("=")[1])
        elif tok.upper().startswith("NELEC="):
            nelec = int(tok.split("=")[1])
    if norb is None or nelec is None:
        raise ValueError("FCIDUMP header is missing NORB or NELEC")
    h_sp = np.zeros((norb, norb))
    g_sp = np.zeros((norb, norb, norb, norb))
    eps_sp = np.zeros(norb)
    ecore = 0.0
    for line in body.strip().splitlines():
        parts = line.split()
        if len(parts) != 5:
            continue
        v = float(parts[0])
        i, j, k, l = (int(p) for p in parts[1:])
        if i == j == k == l == 0:
            ecore = v
        elif j == k == l == 0:
            eps_sp[i - 1] = v
        elif k == l == 0:
            h_sp[i - 1, j - 1] = v
            h_sp[j - 1, i - 1] = v
        else:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b in ((p, q), (q, p)):
                for c, d in ((r, s), (s, r)):
                    g_sp[a, b, c, d] = v
                    g_sp[c, d, a, b] = v
    n_so = 2 * norb
    h1 = np.zeros((n_so, n_so))
    g2 = np.zeros((n_so, n_so, n_so, n_so))
    eps = np.zeros(n_so)
    for p in range(norb):
        for sp in (0, 1):
            eps[2 * p + sp] = eps_sp[p]
            for q in range(norb):
                h1[2 * p + sp, 2 * q + sp] = h_sp[p, q]
    for p in range(norb):
        for q in range(norb):
            for r in range(norb):
                for s in range(norb):
                    v = g_sp[p, q, r, s]
                    if v == 0.0:
                        continue
                    for sp in (0, 1):
                        for tau in (0, 1):
                            g2[2 * p + sp, 2 * q + sp, 2 * r + tau, 2 * s + tau] = v
    return h1, g2, ecore, eps, n_so, nelec


# ---------------------------------------------------------------------------
# determinant-space Hamiltonian, FCI and MP2 oracles
# ---------------------------------------------------------------------------


def hf_det(n_elec):
    return (1 << n_elec) - 1


def _parity_below(det, p):
    return int(bin(det & ((1 << p) - 1)).count("1")) & 1


def apply_ladder_chain(det, ops):
    """Apply (mode, dagger) pairs right-to-left to a determinant bitmask.

    Returns (new_det, sign) or None when the result vanishes.
    """
    sign = 1
    for mode, dagger in reversed(ops):
        occ = det >> mode & 1
        if dagger:
            if occ:
                return None
            if _parity_below(det, mode):
                sign = -sign
            det |= 1 << mode
        else:
            if not occ:
                return None
            if _parity_below(det, mode):
                sign = -sign
            det ^= 1 << mode
    return det, sign


def _nonzero_terms(h1, g2):
    one = [(p, q, h1[p, q]) for p in range(h1.shape[0]) for q in range(h1.shape[0]) if h1[p, q] != 0.0]
    two = []
    n = h1.shape[0]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    v = g2[p, q, r, s]
                    if v != 0.0:
                        two.append((p, r, s, q, 0.5 * v))
    return one, two


def apply_hamiltonian_det(det, one, two):
    """All (target_det, amplitude) contributions of H applied to one determinant."""
    out = {}
    for p, q, v in one:
        res = apply_ladder_chain(det, [(p, True), (q, False)])
        if res is not None:
            t, sgn = res
            out[t] = out.get(t, 0.0) + sgn * v
    for p, r, s, q, v in two:
        res = apply_ladder_chain(det, [(p, True), (r, True), (s, False), (q, False)])
        if res is not None:
            t, sgn = res
            out[t] = out.get(t, 0.0) + sgn * v
    return out


def sector_dets(n_modes, n_alpha, n_beta):
    """All determinants with fixed alpha/beta counts (even modes = alpha)."""
    alphas = [m for m in range(n_modes) if m % 2 == 0]
    betas = [m for m in range(n_modes) if m % 2 == 1]
    dets = []
    for occ_a in itertools.combinations(alphas, n_alpha):
        mask_a = sum(1 << m for m in occ_a)
        for occ_b in itertools.combinations(betas, n_beta):
            dets.append(mask_a + sum(1 << m for m in occ_b))
    return sorted(dets)


def sector_hamiltonian(h1, g2, ecore, dets):
    one, two = _nonzero_terms(h1, g2)
    index = {d: i for i, d in enumerate(dets)}
    h = np.zeros((len(dets), len(dets)))
    for j, det in enumerate(dets):
        for t, amp in apply_hamiltonian_det(det, one, two).items():
            i = index.get(t)
            if i is not None:
                h[i, j] += amp
    return h + ecore * np.eye(len(dets))


def fci_ground_energy(h1, g2, ecore, n_modes, n_alpha, n_beta):
    dets = sector_dets(n_modes, n_alpha, n_beta)
    h = sector_hamiltonian(h1, g2, ecore, dets)
    return float(np.linalg.eigvalsh(h)[0])


def hf_energy(h1, g2, ecore, n_elec):
    occ = range(n_elec)
    e = sum(h1[p, p] for p in occ)
    e += 0.5 * sum(g2[p, p, q, q] - g2[p, q, q, p] for p in occ for q in occ)
    return float(e + ecore)


def mp2_oracle(h1, g2, ecore, eps, n_elec):
    """Brute-force second-order Moller-Plesset correction.

    Enumerates every single/double substitution of the HF determinant,
    computes <D|H|HF> by direct operator application and divides by the
    orbital-energy denominator.  Returns (E2, {det: amplitude}).
    """
    n_modes = h1.shape[0]
    ref = hf_det(n_elec)
    one, two = _nonzero_terms(h1, g2)
    bra_amp = apply_hamiltonian_det(ref, one, two)
    occ = list(range(n_elec))
    virt = list(range(n_elec, n_modes))
    e2 = 0.0
    amps = {}
    targets = set()
    for i in occ:
        for a in virt:
            targets.add((ref ^ (1 << i)) | (1 << a))
    for i, j in itertools.combinations(occ, 2):
        for a, b in itertools.combinations(virt, 2):
            targets.add((ref ^ (1 << i) ^ (1 << j)) | (1 << a) | (1 << b))
    for det in targets:
        v = bra_amp.get(det, 0.0)
        if v == 0.0:
            continue
        removed = [p for p in occ if not det >> p & 1]
        added = [p for p in virt if det >> p & 1]
        denom = sum(eps[p] for p in removed) - sum(eps[p] for p in added)
        if abs(denom) < 1e-12:
            continue
        amps[det] = v / denom
        e2 += v * v / denom
    return float(e2), amps


# ---------------------------------------------------------------------------
# peephole pass on 2x2 numpy matrices, rescanning the whole gate list
# ---------------------------------------------------------------------------
#
# The reference for fqcc.circuits.peephole_cancel: the same rewrites in the
# same order, with commutation decided by np.allclose on 2x2 products and
# every scan running over all later gates.  Gates are (kind, qubits, theta)
# tuples.  The control run's product and the Euler angles are numpy
# arithmetic here and in the package alike (np.matmul, np.angle), so
# emitted angles agree to the last bit.  The Euler candidates are rebuilt
# and compared here in numpy (np.allclose), and in the package in Python
# complexes under the same closeness rule, which makes this the
# independent check of that step.

PeepholeOp = collections.namedtuple("PeepholeOp", "kind qubits theta")

_PH_ROTATIONS = {"Rz", "Rx"}
_PH_INVERSE = {
    "H": "H", "X": "X", "Z": "Z", "CNOT": "CNOT", "CZ": "CZ",
    "S": "Sdg", "Sdg": "S", "T": "Tdg", "Tdg": "T",
    "RelPhaseToffoli3": "RelPhaseToffoli3Inverse",
    "RelPhaseToffoli3Inverse": "RelPhaseToffoli3",
}
_PH_MAT = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "S": np.diag([1.0, 1.0j]),
    "Sdg": np.diag([1.0, -1.0j]),
    "T": np.diag([1.0, np.exp(0.25j * np.pi)]),
    "Tdg": np.diag([1.0, np.exp(-0.25j * np.pi)]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}
_PH_DIAG = "diag"
_PH_XTYPE = "xtype"
_PH_OTHER = "other"


def _ph_rot(kind, theta):
    if kind == "Rz":
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ph_matrix(op):
    if op.kind in _PH_ROTATIONS:
        return _ph_rot(op.kind, op.theta)
    return _PH_MAT[op.kind]


def _ph_is_diag(m, tol=1e-10):
    return abs(m[0, 1]) <= tol and abs(m[1, 0]) <= tol


def _ph_is_xtype(m, tol=1e-10):
    x = _PH_MAT["X"]
    return bool(np.allclose(m @ x, x @ m, atol=tol))


def _ph_wire_action(op, q):
    if op.kind == "CNOT":
        return _PH_DIAG if q == op.qubits[0] else _PH_XTYPE
    if op.kind == "CZ":
        return _PH_DIAG
    if op.kind in ("RelPhaseToffoli3", "RelPhaseToffoli3Inverse"):
        return _PH_DIAG if q in op.qubits[:3] else _PH_OTHER
    return _ph_matrix(op)


def _ph_actions_commute(a, b):
    a_mat = isinstance(a, np.ndarray)
    b_mat = isinstance(b, np.ndarray)
    if a_mat and b_mat:
        return bool(np.allclose(a @ b, b @ a, atol=1e-10))
    if a_mat:
        a, b = b, a
        a_mat, b_mat = b_mat, a_mat
    if a == _PH_OTHER:
        return False
    if b_mat:
        return _ph_is_diag(b) if a == _PH_DIAG else _ph_is_xtype(b)
    if b == _PH_OTHER:
        return False
    return a == b


def _ph_commute(g1, g2):
    shared = set(g1.qubits) & set(g2.qubits)
    return all(
        _ph_actions_commute(_ph_wire_action(g1, q), _ph_wire_action(g2, q)) for q in shared
    )


def _ph_norm_angle(theta):
    k = round(theta / (2.0 * math.pi))
    rem = theta - 2.0 * math.pi * k
    if rem <= -math.pi + 1e-12:
        rem += 2.0 * math.pi
        k -= 1
    return rem, (-1.0 + 0.0j) ** (k % 2)


def _ph_emit_diag(angle, wire):
    rem, phase = _ph_norm_angle(angle)
    if abs(rem) < 1e-12:
        return [], phase
    for target, kind, ph in (
        (math.pi / 2, "S", np.exp(-0.25j * math.pi)),
        (-math.pi / 2, "Sdg", np.exp(0.25j * math.pi)),
        (math.pi, "Z", np.exp(-0.5j * math.pi)),
    ):
        if abs(rem - target) < 1e-12:
            return [PeepholeOp(kind, (wire,), None)], phase * ph
    return [PeepholeOp("Rz", (wire,), rem)], phase


def _ph_euler_zxz(g):
    a00, a01, a10, a11 = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    phi = 2.0 * math.atan2(abs(a01), abs(a00))
    ang = np.angle
    if abs(math.sin(phi / 2.0)) <= 1e-12:
        u0 = (ang(a11) - ang(a00)) / 2.0
        pairs = [(u, 0.0) for u in (u0, u0 + math.pi)]
    elif abs(math.cos(phi / 2.0)) <= 1e-12:
        w0 = (ang(a10) - ang(a01)) / 2.0
        pairs = [(0.0, w) for w in (w0, w0 + math.pi)]
    else:
        u0 = (ang(a11) - ang(a00)) / 2.0
        w0 = (ang(a10) - ang(a01)) / 2.0
        pairs = [(u, w) for u in (u0, u0 + math.pi) for w in (w0, w0 + math.pi)]
    for u, w in pairs:
        alpha, beta = u + w, u - w
        base = ang(a00) + u if abs(a00) > 1e-12 else ang(a10) - w + math.pi / 2.0
        for delta in (base, base + math.pi):
            rec = np.exp(1j * delta) * _ph_rot("Rz", alpha) @ _ph_rot("Rx", phi) @ _ph_rot("Rz", beta)
            if np.allclose(rec, g, atol=1e-9):
                return delta, alpha, phi, beta
    raise ValueError("not unitary up to tolerance")


def _ph_xx_half(v, t, sign):
    op = PeepholeOp
    if sign > 0:
        ops = [
            op("H", (v,), None), op("CNOT", (v, t), None), op("S", (v,), None), op("H", (v,), None),
            op("H", (t,), None), op("S", (t,), None), op("H", (t,), None),
        ]
        return ops, np.exp(-0.25j * math.pi)
    ops = [
        op("H", (t,), None), op("Sdg", (t,), None), op("H", (t,), None),
        op("H", (v,), None), op("Sdg", (v,), None), op("CNOT", (v, t), None), op("H", (v,), None),
    ]
    return ops, np.exp(0.25j * math.pi)


class _PhState:
    def __init__(self, ops, phase):
        self.gates = list(ops)
        self.phase = phase
        self.changed = False


def _ph_simple_pass(st):
    i = 0
    while i < len(st.gates):
        g = st.gates[i]
        if g.kind in _PH_ROTATIONS:
            rem, ph = _ph_norm_angle(g.theta)
            if abs(rem) < 1e-12:
                st.phase *= ph
                del st.gates[i]
                st.changed = True
                continue
            if ph != 1.0 or rem != g.theta:
                st.gates[i] = PeepholeOp(g.kind, g.qubits, rem)
                st.phase *= ph
                g = st.gates[i]
                st.changed = True
        j = i + 1
        matched = False
        while j < len(st.gates):
            h = st.gates[j]
            same_wires = h.qubits == g.qubits or (
                g.kind == "CZ" and h.kind == "CZ" and set(h.qubits) == set(g.qubits)
            )
            if same_wires and h.kind == g.kind and g.kind in _PH_ROTATIONS:
                st.gates[i] = PeepholeOp(g.kind, g.qubits, g.theta + h.theta)
                del st.gates[j]
                st.changed = True
                matched = True
                break
            if same_wires and g.theta is None and h.kind == _PH_INVERSE.get(g.kind):
                del st.gates[j]
                del st.gates[i]
                st.changed = True
                matched = True
                break
            if set(g.qubits) & set(h.qubits) and not _ph_commute(g, h):
                break
            j += 1
        if not matched:
            i += 1


def _ph_junction_pass(st):
    i = 0
    while i < len(st.gates):
        g = st.gates[i]
        if g.kind != "CNOT":
            i += 1
            continue
        v, t = g.qubits
        v_run = np.eye(2, dtype=complex)
        v_clean = True
        t_run = np.eye(2, dtype=complex)
        ok = True
        j = i + 1
        partner = -1
        v_single_idx = []
        while j < len(st.gates):
            h = st.gates[j]
            if h.kind == "CNOT" and h.qubits == (v, t):
                partner = j
                break
            hw = set(h.qubits)
            if len(hw) == 1:
                (q,) = hw
                if q == v:
                    v_run = _ph_matrix(h) @ v_run
                    v_single_idx.append(j)
                elif q == t:
                    t_run = _ph_matrix(h) @ t_run
                j += 1
                continue
            if t in hw:
                if not _ph_is_xtype(t_run):
                    ok = False
                    break
                t_run = np.eye(2, dtype=complex)
                if _ph_wire_action(h, t) != _PH_XTYPE:
                    ok = False
                    break
            if v in hw:
                if _ph_wire_action(h, v) != _PH_DIAG or not _ph_is_diag(v_run):
                    ok = False
                    break
                v_clean = False
                v_run = np.eye(2, dtype=complex)
                v_single_idx = []
            j += 1
        if partner < 0 or not ok or not _ph_is_xtype(t_run):
            i += 1
            continue
        if _ph_is_diag(v_run):
            del st.gates[partner]
            del st.gates[i]
            st.changed = True
            continue
        if not v_clean:
            i += 1
            continue
        try:
            delta, alpha, phi, beta = _ph_euler_zxz(v_run)
        except ValueError:
            i += 1
            continue
        if not (abs(abs(phi) - math.pi / 2.0) < 1e-9):
            i += 1
            continue
        middle = [st.gates[k] for k in range(i + 1, partner) if k not in v_single_idx]
        pre, ph_pre = _ph_emit_diag(beta, v)
        xx, ph_xx = _ph_xx_half(v, t, 1.0 if phi > 0 else -1.0)
        post, ph_post = _ph_emit_diag(alpha, v)
        st.phase *= np.exp(1j * delta) * ph_pre * ph_xx * ph_post
        st.gates[i : partner + 1] = middle + pre + xx + post
        st.changed = True


def peephole_reference(ops, phase=1.0):
    """(ops, phase) after the fixpoint peephole pass; ops are (kind, qubits, theta)."""
    st = _PhState((PeepholeOp(*op) for op in ops), phase)
    while True:
        st.changed = False
        _ph_simple_pass(st)
        _ph_junction_pass(st)
        if not st.changed:
            break
    return [tuple(op) for op in st.gates], st.phase


# ---------------------------------------------------------------------------
# first-fit measurement groups: the loops measure.partition_* once ran
# ---------------------------------------------------------------------------


def ordered_reference(paulis):
    """The strings of the PauliSum ``paulis`` by the key (-|coefficient|,
    ``paulis.word_key``), the sort ``measure._ordered`` once ran.  Imports
    fqcc for the sum's strings and the key."""
    from fqcc.paulis import word_key

    return sorted(paulis.strings(), key=lambda s: (-abs(s.coeff), word_key(s.n_qubits, s.xmask, s.zmask)))


def qwc_groups_reference(ordered):
    """First-fit qubit-wise-commuting groups of ``ordered``, kept in that order.

    Each group keeps the OR of its members' x, z and support masks; a
    string joins the first group whose masks agree with its own on their
    common support.
    """
    groups, profiles = [], []
    for s in ordered:
        sup = s.xmask | s.zmask
        for i, (px, pz, psup) in enumerate(profiles):
            common = sup & psup
            if not ((s.xmask ^ px) & common or (s.zmask ^ pz) & common):
                groups[i].append(s)
                profiles[i] = (px | s.xmask, pz | s.zmask, psup | sup)
                break
        else:
            groups.append([s])
            profiles.append((s.xmask, s.zmask, sup))
    return groups


def gc_groups_reference(ordered):
    """First-fit commuting groups of ``ordered``, each string tested against every member."""

    def commute(a, b):
        return not (((a.xmask & b.zmask).bit_count() ^ (a.zmask & b.xmask).bit_count()) & 1)

    groups = []
    for s in ordered:
        for group in groups:
            if all(commute(s, member) for member in group):
                group.append(s)
                break
        else:
            groups.append([s])
    return groups


def conjugate_masks(x, z, sign, kind, qubits):
    """Tableau update for P -> U P U+ with U in {H, S, Sdg, CNOT, CZ}, on a
    string's x and z masks and its sign."""
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


def diagonalizing_circuit_reference(basis, n):
    """``measure._diagonalizing_circuit`` as it once ran: one [x, z] pair
    per generator, finished or not, conjugated through every gate by the
    tableau update, and unbounded rounds.  Imports fqcc for the gates.
    Returns the circuit."""
    from fqcc.circuits import Circuit, shared_gate

    mask = (1 << n) - 1
    gens = [[v >> n, v & mask] for v in basis.values()]
    circ = Circuit(n)

    def emit(kind, *qubits):
        circ.gates.append(shared_gate(kind, qubits))
        for g in gens:
            g[0], g[1], _ = conjugate_masks(g[0], g[1], 1.0, kind, qubits)

    while True:
        active = next((g for g in gens if g[0]), None)
        if active is None:
            return circ
        pivot = (active[0] & -active[0]).bit_length() - 1
        for q in [q for q in range(n) if active[0] >> q & 1]:
            if q != pivot:
                emit("CNOT", pivot, q)
        for q in [q for q in range(n) if active[1] >> q & 1]:
            if q != pivot:
                emit("CZ", pivot, q)
        if active[1] >> pivot & 1:
            emit("S", pivot)
        emit("H", pivot)


def term_circuit_reference(term, ordering=None, target=None):
    """``trotter.term_circuit`` as it once ran: every string's full block,
    basis change, CNOT ladder, Rz, ladder and basis undo, with nothing left
    out at the boundaries.  ``target`` defaults to the first eligible wire.
    Imports fqcc for the gates.  Returns the circuit."""
    from fqcc.circuits import Circuit, Gate, shared_gate

    order = range(len(term.strings)) if ordering is None else ordering
    t = term.eligible_targets[0] if target is None else target
    gates = []
    for j in order:
        string = term.strings[j]
        x, z = string.xmask, string.zmask
        wires = [q for q in range(term.n_qubits) if (x | z) >> q & 1]
        ladder = [shared_gate("CNOT", (q, t)) for q in wires if q != t]
        for q in wires:
            if x >> q & 1:
                if z >> q & 1:
                    gates.append(shared_gate("Sdg", (q,)))
                gates.append(shared_gate("H", (q,)))
        gates += ladder
        gates.append(Gate("Rz", (t,), term.angle * string.coeff.real))
        gates += reversed(ladder)
        for q in reversed(wires):
            if x >> q & 1:
                gates.append(shared_gate("H", (q,)))
                if z >> q & 1:
                    gates.append(shared_gate("S", (q,)))
    return Circuit(term.n_qubits, 0, gates)


# ---------------------------------------------------------------------------
# the X-mask group loop CompiledSum.apply once ran, and the VQE sweep on it
# ---------------------------------------------------------------------------


def compiled_strings(op, sector=None):
    """``op``'s strings as the arrays ``CompiledSum`` once kept, in term
    order: X masks ``flips``, Z masks ``masks`` and ``weights``, each
    coefficient times i^popcount(x & z), with ``n_qubits`` and ``sector``
    (None: the full space).  The loops below read these."""
    from types import SimpleNamespace

    keys = list(op._terms)
    return SimpleNamespace(
        n_qubits=op.n_qubits,
        sector=None if sector is None else np.asarray(sector, dtype=np.int64),
        flips=np.array([x for x, _ in keys], dtype=np.int64),
        masks=np.array([z for _, z in keys], dtype=np.int64),
        weights=np.array(
            [op._terms[x, z] * 1j ** ((x & z).bit_count() % 4) for x, z in keys], dtype=complex
        ),
    )


def compiled_tables_reference(compiled):
    """One (X mask, table, partner index) per X-mask group of
    ``compiled_strings``, in first-appearance order, as ``CompiledSum`` once
    kept them: table[r] sums w * (-1)^parity((point_r ^ f) & m) over the
    group's strings one string at a time, and on a sector an entry whose
    partner leaves it is 0 (its partner index then points anywhere)."""
    n, sector = compiled.n_qubits, compiled.sector
    points = np.arange(1 << n) if sector is None else sector
    bits = (points[:, None] >> np.arange(n)) & 1
    groups = {}
    for f, m, w in zip(compiled.flips.tolist(), compiled.masks.tolist(), compiled.weights):
        signed = w * (1.0 - 2.0 * ((f & m).bit_count() & 1))
        parity = bits[:, [q for q in range(n) if m >> q & 1]].sum(axis=1) & 1
        groups.setdefault(f, []).append(signed * (1.0 - 2.0 * parity))
    out = []
    for f, rows in groups.items():
        table = np.zeros(len(points), dtype=np.complex128)
        for row in rows:
            table += row
        if sector is None:
            partner = points ^ f
        else:
            partner = np.minimum(np.searchsorted(sector, points ^ f), len(sector) - 1)
            table[sector[partner] != points ^ f] = 0.0
        out.append((f, table, partner))
    return out


def _parity(a):
    """Parity of the set bits of each entry of an int64 array."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    return np.unpackbits(a.view(np.uint8)).reshape(*a.shape, 64).sum(axis=-1, dtype=np.int64) & 1


def compiled_tables_loop(compiled, sector_tol=1e-10):
    """(tables, columns), each (groups, dim), as ``paulis._tables`` once
    built them: a loop over the X-mask groups of ``compiled.flips`` in
    first-appearance order and, in each, over its strings, adding one
    string's phase row at a time from 0.  On a sector, the table is also
    taken at the partners outside it, and a matrix element into or out of
    the sector above ``sector_tol`` raises ``ValueError`` at the first group
    that has one; the entries whose partner leaves the sector are set to 0.
    ``compiled`` is a ``compiled_strings``."""
    by_flip = {}
    for i, f in enumerate(compiled.flips.tolist()):
        by_flip.setdefault(f, []).append(i)
    sector = compiled.sector
    dim = 1 << compiled.n_qubits if sector is None else len(sector)
    tables = np.empty((len(by_flip), dim), dtype=np.complex128)
    columns = np.empty((len(by_flip), dim), dtype=np.intp)

    def phase_table(points, masks, signed):
        signs = 1.0 - 2.0 * _parity(points & masks[:, None])
        table = np.zeros(len(points), dtype=np.complex128)
        for row in signed[:, None] * signs:
            table += row
        return table

    for g, (f, members) in enumerate(by_flip.items()):
        masks = compiled.masks[members]
        signed = compiled.weights[members] * (1.0 - 2.0 * _parity(masks & f))
        if sector is None:
            idx = np.arange(dim, dtype=np.int64)
            tables[g] = phase_table(idx, masks, signed)
            columns[g] = idx ^ f
            continue
        partner = sector ^ f
        pos = np.minimum(np.searchsorted(sector, partner), len(sector) - 1)
        inside = sector[pos] == partner
        table = phase_table(np.concatenate([sector, partner[~inside]]), masks, signed)
        leak = np.abs(np.concatenate([table[len(sector):], table[: len(sector)][~inside]]))
        if leak.size and leak.max() > sector_tol:
            raise ValueError(
                f"operator couples the sector to states outside it "
                f"(matrix element {leak.max():.3g})"
            )
        tables[g] = table[: len(sector)]
        tables[g, ~inside] = 0.0
        columns[g] = pos
    return tables, columns


def compiled_apply_reference(compiled, vec):
    """``compiled @ vec``, for a ``compiled_strings``, by the group loop
    ``CompiledSum.apply`` once ran: out starts at 0 and adds ``table *
    vec[partner]`` one X-mask group at a time."""
    out = np.zeros(vec.shape, dtype=np.promote_types(vec.dtype, np.complex128))
    for _, table, partner in compiled_tables_reference(compiled):
        out += table * vec[partner]
    return out


def stacked_sum_reference(parts, vec):
    """sum of c * K vec over (c, K) pairs of a value and a generator
    (``paulis.RowKernel`` of width 1), by a loop: out starts at 0 and adds
    ``(c * t) * vec[pos]`` one generator at a time, with t and pos its
    row's values and columns, as ``hmp2.ztilde_operator``'s stack must sum
    them."""
    out = np.zeros(vec.shape, dtype=np.promote_types(vec.dtype, np.complex128))
    for c, kernel in parts:
        out += (c * kernel.values[0]) * vec[kernel.columns[0]]
    return out


def exponential_reference(kernel, theta, vec):
    """exp(theta K) vec = vec + sin(theta) K vec + (1 - cos(theta)) K (K vec)
    for a generator with K^3 = -K, by two applies."""
    kv = kernel.apply(vec)
    kkv = kernel.apply(kv)
    return vec + np.sin(theta) * kv + (1.0 - np.cos(theta)) * kkv


def ansatz_state_reference(ansatz, x, amplitudes):
    """The ansatz's exponentials at angles ``x`` applied to ``amplitudes``
    in term order, one ``exponential_reference`` (two applies and scalar
    sin and cos) per nonzero angle."""
    psi = amplitudes
    for kernel, theta in zip(ansatz.generators, x):
        if theta:
            psi = exponential_reference(kernel, theta, psi)
    return psi


def energy_and_gradient_reference(x, hamiltonian, ansatz, reference):
    """The exact energy and adjoint-sweep gradient as
    ``simulate._energy_and_gradient`` once computed them: every product
    with H (``hamiltonian``, a ``compiled_strings``) by the group loop, and
    each backward step five generator applies (K ket for the gradient, two
    for each exponential)."""
    psi = ansatz_state_reference(ansatz, x, reference.amplitudes)
    hpsi = compiled_apply_reference(hamiltonian, psi)
    energy = float(np.real(np.vdot(psi, hpsi)))
    grad = np.zeros(len(x))
    ket, bra = psi, hpsi
    for j in range(len(x) - 1, -1, -1):
        kernel = ansatz.generators[j]
        grad[j] = 2.0 * float(np.real(np.vdot(bra, kernel.apply(ket))))
        if j:
            ket = exponential_reference(kernel, -x[j], ket)
            bra = exponential_reference(kernel, -x[j], bra)
    return energy, grad


def lbfgsb_reference(energy_and_gradient, x0, gtol):
    """(energy, x, gradient max-norm) where scipy's L-BFGS-B stops from
    ``x0`` with its relative-reduction test off (``ftol=0``), so only the
    projected gradient's max-norm reaching ``gtol`` (or a line-search
    failure) ends it; no bounds, so the projection is the identity."""
    from scipy.optimize import minimize

    res = minimize(
        energy_and_gradient, np.asarray(x0, dtype=float), jac=True, method="L-BFGS-B",
        options={"maxiter": 2000, "gtol": gtol, "ftol": 0.0},
    )
    return float(res.fun), res.x, float(np.max(np.abs(res.jac)))


# ---------------------------------------------------------------------------
# self-checks on fqcc's own objects: circuits, terms, conjugation, CAR
# ---------------------------------------------------------------------------


def _apply_dense(mat, gate, n):
    """One ``fqcc.circuits.Gate`` applied to the rows of ``mat``, in place."""
    idx = np.arange(1 << n)
    if gate.kind == "CNOT":
        c, t = gate.qubits
        sel = (idx >> c & 1).astype(bool)
        mat[idx[sel]] = mat[idx[sel] ^ (1 << t)]
        return mat
    if gate.kind == "CZ":
        a, b = gate.qubits
        sel = ((idx >> a & 1) & (idx >> b & 1)).astype(bool)
        mat[sel] *= -1.0
        return mat
    (q,) = gate.qubits
    g = gate.matrix_1q()
    sel = (idx >> q & 1).astype(bool)
    lo = mat[~sel]
    hi = mat[sel]
    mat[~sel] = g[0, 0] * lo + g[0, 1] * hi
    mat[sel] = g[1, 0] * lo + g[1, 1] * hi
    return mat


def unitary(circ):
    """Dense unitary of an fqcc ``Circuit`` on all wires (data + ancilla); at most 12."""
    from fqcc.circuits import expand_toffolis

    n = circ.n_qubits
    if n > 12:
        raise ValueError("dense unitary is limited to 12 qubits")
    work = expand_toffolis(circ)
    u = np.eye(1 << n, dtype=complex) * work.global_phase
    for g in work.gates:
        u = _apply_dense(u, g, n)
    return u


def apply_to_state(circ, vec):
    """An fqcc ``Circuit`` applied to a dense statevector."""
    from fqcc.circuits import expand_toffolis

    work = expand_toffolis(circ)
    out = np.array(vec, dtype=complex, copy=True) * work.global_phase
    out = out[:, None]
    for g in work.gates:
        out = _apply_dense(out, g, circ.n_qubits)
    return out[:, 0]


def data_block(u, n_data, n_ancilla):
    """(block, leakage): the <0_anc|U|0_anc> block and the worst column leak.

    Ancillas are the high wires, so the |0_anc> block is the top-left corner.
    """
    d = 1 << n_data
    block = u[:d, :d]
    leak = 0.0 if n_ancilla == 0 else float(np.max(np.abs(u[d:, :d])))
    return block, leak


def equal_up_to_phase(a, b, tol=1e-10):
    ab = a.conj().T @ b
    lead = ab.flat[np.argmax(np.abs(ab))]
    if abs(abs(lead) - 1.0) > tol:
        return False
    return bool(np.allclose(ab, lead * np.eye(a.shape[0]), atol=tol))


def rotations(term):
    """A ``trotter.TrotterTerm``'s (string, signed angle) pairs in stored order."""
    return tuple((s, term.angle * s.coeff.real) for s in term.strings)


def conjugate_string(s, gates):
    """Map a string through a Clifford gate list: s -> U s U+ exactly.

    Runs ``conjugate_masks``; gates are ``Gate``s or (kind, qubits).
    """
    from fqcc.paulis import PauliString

    x, z, sign = s.xmask, s.zmask, 1.0
    for gate in gates:
        kind, qubits = (gate.kind, gate.qubits) if hasattr(gate, "kind") else gate
        x, z, sign = conjugate_masks(x, z, sign, kind, qubits)
    return PauliString(s.n_qubits, x, z, s.coeff * sign)


@dataclass(slots=True)
class AnticommutationReport:
    n_modes: int
    ok: bool
    violations: list

    def __str__(self):
        if self.ok:
            return f"all canonical anticommutation relations hold on {self.n_modes} modes"
        lines = [f"{len(self.violations)} violations on {self.n_modes} modes:"]
        lines += [f"  {rel} ({i},{j}): deviation {dev:.3e}" for rel, i, j, dev in self.violations]
        return "\n".join(lines)


def anticommutation_check(n_modes, transform, tol=1e-10):
    """Dense check of the canonical anticommutation relations under a transform."""
    if n_modes > 6:
        raise ValueError("dense anticommutation check supports at most 6 modes")
    if transform.n_modes != n_modes:
        raise ValueError("transform mode count mismatch")
    from fqcc.paulis import CompiledSum

    dim = 1 << n_modes
    eye = np.eye(dim)

    def dense(mode, dagger):
        return operator_matrix(CompiledSum(map_ladder(transform, mode, dagger)), dim)

    a = [dense(j, False) for j in range(n_modes)]
    ad = [dense(j, True) for j in range(n_modes)]
    violations = []
    for i in range(n_modes):
        for j in range(i, n_modes):
            dev = np.abs(a[i] @ a[j] + a[j] @ a[i]).max()
            if dev > tol:
                violations.append(("{a,a}", i, j, float(dev)))
            dev = np.abs(ad[i] @ ad[j] + ad[j] @ ad[i]).max()
            if dev > tol:
                violations.append(("{a+,a+}", i, j, float(dev)))
    for i in range(n_modes):
        for j in range(n_modes):
            anti = a[i] @ ad[j] + ad[j] @ a[i]
            want = eye if i == j else 0.0
            dev = np.abs(anti - want).max()
            if dev > tol:
                violations.append(("{a,a+}", i, j, float(dev)))
    return AnticommutationReport(n_modes, not violations, violations)


# ---------------------------------------------------------------------------
# test inputs on fqcc's own objects: encoding bits, encoded sectors, states
# and generators, ladder sums, Pauli strings from letters and from the text
# format
# ---------------------------------------------------------------------------


def lower_bits(transform):
    """A transform's strictly-lower beta bits, row-major (i, j < i), as
    ``Transform.from_lower_bits`` takes them."""
    n = transform.n_modes
    return tuple(int(transform.beta[i, j]) for i in range(n) for j in range(i))


def encoded_sector(transform, n_alpha, n_beta):
    """``simulate.spin_sector`` under ``transform``: the sorted basis indices
    beta n of the determinants n with n_alpha alpha and n_beta beta
    electrons."""
    dets = sector_dets(transform.n_modes, n_alpha, n_beta)
    return np.array(sorted(encode_occupation(transform, d) for d in dets), dtype=np.int64)


def encoded_amplitudes(transform, vec):
    """A full-space vector of the occupation basis in ``transform``'s basis:
    the amplitude of occupation n moves to basis index beta n."""
    codes = [encode_occupation(transform, occupation) for occupation in range(len(vec))]
    out = np.zeros_like(vec)
    out[codes] = vec
    return out


def excitation_generator(seq, n_modes):
    """T - T+ for a single excitation with unit amplitude, as the
    FermionOperator that the Pauli route maps."""
    from fqcc.fermions import FermionOperator, FermionTerm

    fwd = seq.term()
    rev = fwd.adjoint()
    return FermionOperator(n_modes, [fwd, FermionTerm(-rev.coefficient, rev.ops)])


def generator_kernel_reference(seq, n_modes, sector):
    """(values, columns, square) of T - T+ for one excitation, as
    ``simulate`` once built each generator on its own: the ladder rule
    applied to every state, T+ then T, one ladder at a time, each state's
    sign from the parity of the occupied modes below each acted-on mode.
    Row r holds +s at c where T+|r> = s|c> and -s at c where T|r> = s|c>;
    values and columns are (1, dim), and square is values * values[columns].
    A partner outside the sector raises ``ValueError`` naming the
    excitation."""
    points = np.arange(1 << n_modes, dtype=np.int64) if sector is None else sector
    creations, annihilations = seq.creations(), seq.annihilations()
    term = [(m, True) for m in creations] + [(m, False) for m in annihilations]
    adjoint = [(m, not dagger) for m, dagger in reversed(term)]
    values = np.zeros(len(points), dtype=np.complex128)
    columns = np.arange(len(points), dtype=np.intp)
    for ops, sense in ((adjoint, 1), (term, -1)):
        masks = points
        alive = np.ones(len(points), dtype=bool)
        below = np.zeros_like(points)
        for mode, dagger in reversed(ops):
            bit = 1 << mode
            alive &= ((masks & bit) == 0) == dagger
            below ^= masks & (bit - 1)
            masks = masks ^ bit
        signs = (1 - 2 * _parity(below)) * alive
        rows = np.flatnonzero(signs)
        partners = masks[rows]
        if sector is not None:
            pos = np.minimum(np.searchsorted(sector, partners), len(sector) - 1)
            if np.any(sector[pos] != partners):
                raise ValueError(f"{seq.name} couples the sector to states outside it")
            partners = pos
        values[rows] = sense * signs[rows]
        columns[rows] = partners
    return values[None, :], columns[None, :], values * values[columns]


def encoded_generators(seqs, transform, sector=None):
    """{excitation: its T - T+ mapped under ``transform`` and compiled on
    ``sector``}, a table that ``simulate.AnsatzOp.build`` and
    ``hmp2.first_order_numerators`` take in place of the occupation-basis
    generators they would compile.

    This is the Pauli route ``simulate.compile_generator`` once took: the
    image is one X-mask group (checked), so its compiled row layout has
    width 1, and it is handed over as a ``paulis.RowKernel`` carrying
    the diagonal of K^2.
    """
    from fqcc.paulis import CompiledSum, RowKernel

    n = transform.n_modes
    out = {}
    for seq in seqs:
        image = excitation_generator(seq, n).to_pauli(transform)
        assert len({x for x, _ in image._terms}) == 1, f"{seq.name}: not one X-mask group"
        compiled = CompiledSum(image, sector)
        values, columns = compiled.values, compiled.columns
        square = values[0] * values[0][columns[0]]
        out[seq] = RowKernel(n, compiled.sector, values, columns, square)
    return out


def operator_matrix(op, dim):
    """The dense matrix of any operator with an ``apply``, one column per
    basis vector of its ``dim``-long space."""
    eye = np.eye(dim, dtype=complex)
    return np.column_stack([op.apply(eye[col]) for col in range(dim)])


def map_ladder(transform, mode, dagger):
    """PauliSum of a_mode (``dagger`` false) or its adjoint under ``transform``,
    from ``ladder_strings``."""
    from fqcc.paulis import PauliSum

    strings = ladder_strings(transform)[mode][1 if dagger else 0]
    return PauliSum(transform.n_modes, {(x, z): 0.5 * 1j**e for x, z, e in strings})


_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def from_letters(n_qubits, letters, coeff=1.0):
    """A PauliString from a {qubit: letter} mapping."""
    from fqcc.paulis import PauliString

    x = z = 0
    for q, letter in letters.items():
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit {q} out of range for {n_qubits} qubits")
        xb, zb = _LETTER_BITS[letter]
        x |= xb << q
        z |= zb << q
    return PauliString(n_qubits, x, z, complex(coeff))


def pauli_string(text, n_qubits=None):
    """A PauliString from the text ``coeff * X0 Z3 Y5`` ("coeff * I" for identity)."""
    head, _, tail = text.partition("*")
    coeff = complex(head.strip().replace(" ", ""))
    letters = {}
    for tok in tail.split():
        if tok == "I":
            continue
        letter, q = tok[0].upper(), int(tok[1:])
        if letter not in "XYZ":
            raise ValueError(f"bad Pauli token {tok!r}")
        letters[q] = letter
    if n_qubits is None:
        n_qubits = max(letters, default=-1) + 1
    return from_letters(max(n_qubits, 1), letters, coeff)


def pauli_sum(text, n_qubits=None):
    """A PauliSum from one ``pauli_string`` line per string."""
    from fqcc.paulis import PauliString, PauliSum

    strings = [pauli_string(line, n_qubits) for line in text.splitlines() if line.strip()]
    if n_qubits is None and strings:
        n_qubits = max(s.n_qubits for s in strings)
        strings = [PauliString(n_qubits, s.xmask, s.zmask, s.coeff) for s in strings]
    return PauliSum.from_strings(strings, n_qubits)
