"""Trotter-step synthesis and two-qubit-count reduction heuristics.

A fermionic excitation term is expanded into a set of commuting Pauli
rotations, each synthesized as a basis-change + CNOT-ladder + Rz block.
Adjacent blocks that share a ladder target cancel gates at their boundary,
so the total two-qubit count depends on the string ordering, the choice of
target wire, the labeling of fermion levels, and whether spatially paired
excitations are compressed onto half the register.  A plan is a few numpy
passes over mask arrays: one expansion of the whole pool, one savings
pass per string count, batched Held-Karp, and one junction matrix per
class.  This module provides:

- ``expand_term``: excitation -> rotation list under a chosen transform,
  the one-excitation call of the pool expansion (``_expand_pool``), which
  takes every term's 2^k string products in one pass per ladder count
  (``Transform.ladder_products``: Jordan-Wigner products in closed form,
  conjugated once by the encoding's basis change), each with an integer
  power of i (no complex arithmetic and no merge; T+ is the conjugate on
  the same strings), and sorts each term's strings on mask keys,
- ``term_circuit``: circuit emission through one block emitter that
  reads each string's letters from its masks and appends shared,
  already-validated H / S / Sdg / CNOT gates
  (``circuits.shared_gate``); only the Rz of each rotation is built per
  angle, no gate is re-validated on its way into the circuit, and the
  gates that cancel at a boundary between a term's blocks are never
  emitted,
- ``inter_order``: greedy cross-term concatenation by shared target; classes
  are formed from the eligible targets first, so the per-term string order
  is found only at each term's class target, for all terms in one batch,
  and each class chain grows on one matrix of its oriented members'
  junction savings.  The string order is dynamic programming over an
  exact additive cost model (``_dp_choices``): every (term, target)
  savings matrix of one string count comes from the strings' (x, z) mask
  arrays at once, and a Held-Karp pass in numpy, batched by a budget of
  table entries, visits only the valid (visited mask, last node, next
  node) triples, one gather-add and one group max per popcount layer,
- ``relabel_levels``: greedy descent over single orbital-pair swaps of the
  fermion levels, each candidate labeling scored by ``plan_ansatz``'s own
  count, so relabeling never raises it,
- ``bosonic_reduce``: compression of spatially paired double excitations
  onto one wire per orbital pair (pair l on wire 2l), plus the restoration
  network; a compressed term is the closed-form two-wire hop of
  ``CompressedTerm``, built from the excitation's pair indices and angle
  alone, with no cache and no Jordan-Wigner re-expansion,
- ``plan_ansatz``: the one planner (relabel, expand, compress, order) and
  its two-qubit count, the only cost model: the swarm's cost function
  (``ansatz_two_qubit_cost``) and the relabeling both read that count,
- ``emit_circuit``: the circuit of a plan; ``synthesize_ansatz`` is plan
  followed by emit, with a structured plan report.

The cost model counts, per block, ``2 * (weight - 1)`` CNOTs and, per
boundary between consecutive blocks, a two-CNOT saving on every non-target
wire where both letters are equal and non-identity, or a one-CNOT saving
where they differ and neither is identity (``_boundary_wires``).  Inside a
term at a shared target, ``term_circuit`` realizes the two-CNOT savings as
it emits: on an agreeing wire the closing CNOT and basis undo of one block
and the basis change and opening CNOT of the next are left out, which is
exact because the strings of a term share their x mask (see
``term_circuit``).  ``peephole_cancel`` realizes the one-CNOT savings, the
savings at junctions between chained terms, and those of terms with
per-string targets, so model and circuit agree gate-for-gate.  The
expansion and the planner, chain junctions included, read letters only
through the strings' bit masks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

import numpy as np

from .circuits import Circuit, Gate, metrics, peephole_cancel, shared_gate
from .fermions import OrbitalSequence
from .paulis import PauliString


# ---------------------------------------------------------------------------
# excitation expansion
# ---------------------------------------------------------------------------

_PLUS, _MINUS = complex(1.0), complex(-1.0)

# Four-letter rotation sets are listed in this fixed x/y-word order; any
# other shape falls back to lexicographic word order.  A word is indexed by
# its z bits on the x/y wires (X = 0, Y = 1), the lowest wire the most
# significant bit.
_CANONICAL_WORDS = ("XXXX", "XXYY", "XYYX", "XYXY", "YYXX", "YXXY", "YXYX", "YYYY")
_WORD_RANK = np.array(
    [
        _CANONICAL_WORDS.index(w) if w in _CANONICAL_WORDS else len(_CANONICAL_WORDS)
        for w in (f"{b:04b}".replace("0", "X").replace("1", "Y") for b in range(16))
    ]
)


@dataclass(frozen=True, slots=True)
class TrotterTerm:
    """One excitation expanded into equal-magnitude Pauli rotations.

    ``strings`` carry coefficients of exactly +1 or -1; string ``j``
    contributes the rotation exp(-i * angle * sign_j / 2 * P_j).  With
    ``anti`` set the term implements exp(theta * (T - T+)) (the unitary
    cluster convention); otherwise exp(-i * theta / 2 * (T + T+)).
    """

    source: OrbitalSequence | None
    n_qubits: int
    theta: float
    angle: float
    strings: tuple[PauliString, ...]
    eligible_targets: tuple[int, ...]
    anti: bool = False


def _canonical_order(x, z, n):
    """Flat indices of ``z`` that sort each row's strings canonically.

    ``x`` (rows,) is a row's shared x mask and ``z`` (rows, s) its
    strings' z masks, on n qubits; the x/y wires are the set bits of x.
    Strings sort by canonical word rank, then word, then
    ``paulis.word_key``.  A row with four x/y wires ranks each string's
    four-letter word by ``_CANONICAL_WORDS``; every other word, and every
    word of another length, ranks last.  The word is compared letter by
    letter from the lowest wire.  With x shared, the word and ``word_key``
    both compare z from qubit 0 up, so they are the integer order of z
    read with qubit 0 as the most significant bit, on the x/y wires and
    on all wires.
    """
    qubits = np.arange(n)
    wires = x[:, None] >> qubits & 1
    bits = z[:, :, None] >> qubits & 1
    on_wires = bits & wires[:, None, :]
    # a row's first four x/y wires weigh 8, 4, 2 and 1 in its word
    count = np.cumsum(wires, axis=1)
    word = (on_wires @ ((wires << 4) >> count)[:, :, None])[..., 0]
    rank = np.where(count[:, -1:] == 4, _WORD_RANK[word], len(_CANONICAL_WORDS))
    rank += 16 * np.arange(len(z))[:, None]  # rows stay apart, in order
    lead = 1 << (n - 1 - qubits)
    return np.lexsort(((bits @ lead).ravel(), (on_wires @ lead).ravel(), rank.ravel()))


def _expand_pool(seqs, transform, thetas, *, anti):
    """The TrotterTerm of each excitation at its angle, as ``expand_term``.

    The excitations are grouped by ladder count k, and each group's 2^k
    string products, their powers of i and the canonical order of the kept
    strings come from a few numpy passes over all its terms at once; then
    the strings and terms are built.
    """
    seqs = list(seqs)
    n = transform.n_modes
    by_count = {}
    for row, seq in enumerate(seqs):
        for mode in seq.indices:
            if not 0 <= mode < n:
                raise ValueError(f"mode {mode} out of range")
        by_count.setdefault(len(seq.indices), []).append(row)
    # T + T+ keeps the even powers of i, sign + at i^0; T - T+ the odd, + at i^3
    parity, plus = (1, 3) if anti else (0, 0)
    terms = [None] * len(seqs)
    for k, rows in by_count.items():
        group = [seqs[r] for r in rows]
        ladders = np.array(
            [
                [2 * m + 1 for m in seq.creations()] + [2 * m for m in seq.annihilations()]
                for seq in group
            ],
            dtype=np.int64,
        )
        x, z, e = transform.ladder_products(ladders)
        kept = (e & 1) == parity
        expected = 1 << (k - 1)
        z = z[kept].reshape(len(group), expected)
        order = _canonical_order(x, z, n)
        positive = e[kept][order] == plus
        z = z.ravel()[order]
        common = x | np.bitwise_and.reduce(z.reshape(len(group), expected), axis=1)
        mag = (4.0 if anti else 2.0) / (1 << k)
        strings = [
            PauliString(n, xs, zs, (_MINUS, _PLUS)[sign])
            for xs, zs, sign in zip(x.repeat(expected).tolist(), z.tolist(), positive.tolist())
        ]
        for j, (r, seq, support) in enumerate(zip(rows, group, common.tolist())):
            theta = thetas[r]
            terms[r] = TrotterTerm(
                seq,
                n,
                theta,
                theta * mag,
                tuple(strings[j * expected : (j + 1) * expected]),
                tuple(t for t in sorted(seq.indices) if support >> t & 1),
                anti,
            )
    return tuple(terms)


def expand_term(seq, transform, theta=1.0, *, anti=False):
    """Expand one excitation under ``transform`` into a TrotterTerm.

    This is the one-excitation call of the pool expansion that
    ``plan_ansatz`` runs (``_expand_pool``).  Two-body sequences produce
    exactly eight strings and one-body sequences exactly two; eligibility
    keeps the fermion-label wires whose letter is non-identity in every
    string.

    T = a+... a... is enumerated as its 2^k string products
    (``Transform.ladder_products``), each with an integer power of i; no
    complex number is formed.  The products are taken under Jordan-Wigner
    and then conjugated by the basis change B (``Transform.frame``).  A
    product is carried as i^f X^x Z^z, so multiplying by i^f' X^x' Z^z'
    adds f' and twice |z & x'| to f; every ladder of one mode shares its
    x, so x is common to all products.  The products never merge: under
    Jordan-Wigner the two strings of mode j differ by Z_j, so products
    over distinct modes have distinct z masks, and the frame is a
    bijection (``oracles.expand_term_reference`` checks this).  As every
    coefficient is i^e / 2^k and every string is Hermitian, T+
    has the conjugate coefficient on the same string: T + T+ keeps the
    even e with magnitude 2 / 2^k (sign + for e = 0) and T - T+ the odd e
    with magnitude 4 / 2^k (sign + for e = 3, the rotation angle being the
    negated imaginary part).  No coefficient is ever summed, so the kept
    strings are exactly hermitian (or anti-hermitian) and of one magnitude.
    The strings are sorted by ``_canonical_order``.  A transform of more
    than 63 modes raises ``ValueError``.
    """
    return _expand_pool([seq], transform, [theta], anti=anti)[0]


# ---------------------------------------------------------------------------
# per-string synthesis
# ---------------------------------------------------------------------------

def _wires(mask):
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _emit_block(gates, string, rz, held_in=0, held_out=0):
    """Append exp(-i theta/2 * string) to ``gates``, ``rz`` being its Rz(theta).

    The ladder targets the wire ``rz`` acts on.  Letters are read from the
    masks: an X wire is wound with H, a Y wire with Sdg then H, a Z wire
    with nothing.  Every gate but ``rz`` is a ``shared_gate``.

    ``held_in`` and ``held_out`` mask non-target wires that the previous
    and the next block of the same target wind with the same letter: on
    them the basis change and ladder CNOT (``held_in``), or the ladder CNOT
    and basis undo (``held_out``), are left out, as the neighbouring block
    leaves them in place.
    """
    x, z = string.xmask, string.zmask
    target = rz.qubits[0]
    support = x | z
    opening = _wires(support & ~held_in)
    closing = _wires(support & ~held_out)
    for q in opening:
        if x >> q & 1:
            if z >> q & 1:
                gates.append(shared_gate("Sdg", (q,)))
            gates.append(shared_gate("H", (q,)))
    gates += [shared_gate("CNOT", (q, target)) for q in opening if q != target]
    gates.append(rz)
    closing.reverse()
    gates += [shared_gate("CNOT", (q, target)) for q in closing if q != target]
    for q in closing:
        if x >> q & 1:
            gates.append(shared_gate("H", (q,)))
            if z >> q & 1:
                gates.append(shared_gate("S", (q,)))


def term_circuit(term, ordering=None, target=None):
    """Blocks for every rotation of ``term``, sharing one ladder target.

    ``ordering`` permutes the stored strings; ``target`` defaults to the
    first eligible wire and must carry a letter in every string.  A term
    with no eligible target falls back to per-string targets (the highest
    support wire of each string), and each block is emitted whole.

    At a shared target, each boundary between consecutive blocks leaves
    out, on every wire where both strings carry the same letter
    (``_boundary_wires``), the first block's closing CNOT and basis undo
    and the second's basis change and opening CNOT: the two-CNOT saving of
    the cost model.  This is exact.  The basis undo and change cancel on
    that wire, and the CNOT pair commutes with everything between it: the
    strings of one term share their x mask, so the target is X or Y in
    both strings or Z in both, and its one-qubit run between the CNOTs
    commutes with X (it is empty, H H, or an X rotation such as H Sdg H),
    as do the other ladder CNOTs, which act on it as targets.
    ``peephole_cancel`` realizes the one-CNOT savings.
    """
    n = term.n_qubits
    order = tuple(ordering) if ordering is not None else tuple(range(len(term.strings)))
    if sorted(order) != list(range(len(term.strings))):
        raise ValueError(f"ordering {order} is not a permutation")
    if target is None and term.eligible_targets:
        target = term.eligible_targets[0]
    support, common = 0, -1
    for string in term.strings:
        support |= string.xmask | string.zmask
        common &= string.xmask | string.zmask
    if support.bit_length() > n or (target is not None and not 0 <= target < n):
        raise ValueError(f"term does not fit on {n} wires")
    if target is not None and not common >> target & 1:
        raise ValueError(f"target {target} carries identity in a string of the term")
    strings = [term.strings[j] for j in order]
    # held[j]: the wires blocks j - 1 and j wind alike; none at either end
    held = [0] * (len(strings) + 1)
    if target is not None:
        held[1:-1] = [_boundary_wires(a, b, target)[0] for a, b in zip(strings, strings[1:])]
    gates = []
    for j, string in enumerate(strings):
        t = target if target is not None else (string.xmask | string.zmask).bit_length() - 1
        rz = Gate("Rz", (t,), term.angle * string.coeff.real)
        _emit_block(gates, string, rz, held[j], held[j + 1])
    return Circuit(n, 0, gates)


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Additive CNOT accounting for one (ordering, target) realization."""

    letter_counts: tuple[int, ...]
    two_cnot_savings: tuple[int, ...]
    one_cnot_savings: tuple[int, ...]

    @property
    def base(self):
        return 2 * (sum(self.letter_counts) - len(self.letter_counts))

    @property
    def saved(self):
        return 2 * sum(self.two_cnot_savings) + sum(self.one_cnot_savings)

    @property
    def total(self):
        return self.base - self.saved


@dataclass(frozen=True, slots=True)
class IntraChoice:
    ordering: tuple[int, ...]
    target: int | None
    breakdown: CostBreakdown

    @property
    def cost(self):
        return self.breakdown.total


def _boundary_wires(first, second, target):
    """(agree, differ): masks of the wires other than ``target`` where both
    strings act, with the same letter or with different ones.

    The model saves two CNOTs on each ``agree`` wire and one on each
    ``differ`` wire; ``term_circuit`` leaves the ``agree`` wires' gates
    out of the blocks it emits.
    """
    both = (first.xmask | first.zmask) & (second.xmask | second.zmask) & ~(1 << target)
    diff = (first.xmask ^ second.xmask) | (first.zmask ^ second.zmask)
    return both & ~diff, both & diff


def _boundary_saving(first, second, target):
    """(two_cnot, one_cnot) savings at the boundary of two blocks."""
    agree, differ = _boundary_wires(first, second, target)
    return agree.bit_count(), differ.bit_count()


def _top_wire(string):
    return (string.xmask | string.zmask).bit_length() - 1


def cost_breakdown(term, ordering, target):
    """Recount the additive model for an explicit (ordering, target)."""
    seq = [term.strings[j] for j in ordering]
    counts = tuple(s.weight for s in seq)
    twos, ones = [], []
    for a, b in zip(seq, seq[1:]):
        two, one = _boundary_saving(a, b, target)
        twos.append(two)
        ones.append(one)
    return CostBreakdown(counts, tuple(twos), tuple(ones))


def _fallback_choice(term):
    """Per-string-target accounting for terms with no shared target."""
    seq = term.strings
    counts = tuple(s.weight for s in seq)
    twos, ones = [], []
    for a, b in zip(seq, seq[1:]):
        if _top_wire(a) == _top_wire(b):
            two, one = _boundary_saving(a, b, _top_wire(a))
        else:
            two = one = 0
        twos.append(two)
        ones.append(one)
    breakdown = CostBreakdown(counts, tuple(twos), tuple(ones))
    return IntraChoice(tuple(range(len(seq))), None, breakdown)


# Table entries of one Held-Karp batch.  c matrices of k nodes fill a table
# of c * k * 2^k int32 entries, so a batch holds as many as fit, and at
# least one: the table takes at most 256 KB and the batch's savings, k^2 c
# int32 entries, at most 128 KB (at k <= 2), so one batch's tables stay
# under 1 MB.  The triples gathered for one layer of p visited nodes,
# c * C(k, p) * p * (k - p), stay below the table up to k = 25 (below 0.8
# of it up to k = 16).  At k = 8 a batch is 32 matrices.
_DP_ENTRIES = 1 << 16


@lru_cache(maxsize=None)
def _dp_triples(k):
    """Held-Karp sweep over k nodes: the valid (mask, last, next) triples of
    each popcount layer p = k-1 .. 1, with ``last`` in and ``next`` out of
    ``mask``, as flat row indices.

    Each entry holds the rows written, ``mask * k + last``, with (mask,
    last) ascending; the savings rows, ``last * k + next``; the table rows,
    ``(mask | 1 << next) * k + next``; and the group width ``k - p``.  The
    savings and table rows run by rank of ``next`` among the unvisited
    nodes, then by (mask, last): the j-th block of ``len(rows)`` triples
    holds each group's j-th unvisited node, so a group max is an
    elementwise max over ``k - p`` contiguous blocks.
    """
    layers = []
    for p in range(k - 1, 0, -1):
        rows, sav, tab = [], [], []
        for mask in range(1 << k):
            if mask.bit_count() != p:
                continue
            free = [nxt for nxt in range(k) if not mask >> nxt & 1]
            for last in range(k):
                if mask >> last & 1:
                    rows.append(mask * k + last)
                    sav.append([last * k + nxt for nxt in free])
                    tab.append([(mask | 1 << nxt) * k + nxt for nxt in free])
        sav, tab = (np.array(a).T.ravel() for a in (sav, tab))
        layers.append((np.array(rows), sav, tab, k - p))
    return tuple(layers)


def _held_karp(savings):
    """Maximum-weight Hamiltonian paths of a (C, k, k) non-negative int32 stack.

    ``f[mask * k + last, c]`` holds the best suffix weight from ``last``
    with ``mask`` already visited (0 when no move is left); each layer is one
    gather-add over its valid triples and one max per (mask, last) group
    over the group's blocks (``_dp_triples``), with the batch innermost.
    Savings are non-negative, so no move is masked out and no weight is
    floored at 0.  Each path is rebuilt greedily: at every step the
    smallest unvisited node that attains the optimum, the first argmax of
    its group; the last step has one node left.
    """
    c, k, _ = savings.shape
    gain = np.ascontiguousarray(savings.reshape(c, k * k).T)
    f = np.zeros(((1 << k) * k, c), dtype=np.int32)
    for rows, sav, tab, width in _dp_triples(k):
        cand = np.take(gain, sav, axis=0)
        cand += np.take(f, tab, axis=0)
        f[rows] = cand.reshape(width, -1, c).max(axis=0)

    # f and gain indexed [mask, last, c] and [last, next, c]
    f, gain = f.reshape(1 << k, k, c), gain.reshape(k, k, c)
    nodes = np.arange(k)[:, None]
    bits = 1 << nodes
    cols = np.arange(c)
    start = f[bits, nodes, cols]
    path = np.empty((k, c), dtype=np.int64)
    v = path[0] = start.argmax(axis=0)
    mask = 1 << v
    for step in range(1, k - 1):
        reach = mask | bits
        cand = gain[v, nodes, cols] + f[reach, nodes, cols]
        cand[reach == mask] = -1  # visited: below every real candidate
        v = path[step] = cand.argmax(axis=0)
        mask |= 1 << v
    # the last step takes the one node left
    path[k - 1] = k * (k - 1) // 2 - path[: k - 1].sum(axis=0)
    return list(zip(start.max(axis=0).tolist(), map(tuple, path.T.tolist())))


def _max_paths(matrices):
    """(weight, path) of each non-negative integer matrix; sizes may mix.

    The path is the lexicographically smallest maximum-weight Hamiltonian
    path.  Matrices of one size k are solved in int32, in batches of
    ``_DP_ENTRIES // (k * 2^k)`` matrices (at least one), so one batch's
    table holds at most ``_DP_ENTRIES`` entries (256 KB) and its savings
    at most 128 KB; a negative entry, or a k x k matrix whose
    (k - 1) * max entry reaches 2**31 (a path weight could overflow),
    raises ValueError.  Boundary savings are at most twice the register
    width per step.
    """
    out = [None] * len(matrices)
    by_size = {}
    for idx, mat in enumerate(matrices):
        by_size.setdefault(len(mat), []).append(idx)
    for k, idxs in by_size.items():
        stack = np.array([matrices[i] for i in idxs], dtype=np.int64)
        if stack.min() < 0:
            raise ValueError("savings matrices must be non-negative")
        if (k - 1) * int(stack.max()) >= 2**31:
            raise ValueError(f"a {k} x {k} savings matrix's path weight may overflow int32")
        stack = stack.astype(np.int32)
        batch = max(1, _DP_ENTRIES // (k << k))
        for start in range(0, len(idxs), batch):
            solved = _held_karp(stack[start : start + batch])
            for i, result in zip(idxs[start : start + batch], solved):
                out[i] = result
    return out


def _mask_arrays(strings):
    """int64 arrays of the x and z masks of a nested list of strings."""
    x = np.array([[s.xmask for s in row] for row in strings], dtype=np.int64)
    z = np.array([[s.zmask for s in row] for row in strings], dtype=np.int64)
    return x, z


# a wire's letter features, indexed by its x bit + 2 * its z bit (I, X, Z, Y):
# whether the string acts on the wire, then one-hot X, Y and Z
_LETTER_FEATURES = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0]])


def _letter_features(x, z, target):
    """Each string's letters as 0/1 int64 features, shape (..., n, 4).

    The n wires run up to the highest set bit of any mask or ``target``.
    Per wire: whether the string acts on it, then one-hot X, Y and Z.  The
    dot product of two strings' features is the number of wires where both
    act plus the number where their letters agree, 2 * agree + differ in
    ``_boundary_wires``' terms, and the first column alone counts the wires
    where both act.  Zeroing a wire's features on one side leaves the wire
    out.
    """
    wires = np.arange(max(int((x | z).max()).bit_length(), int(target) + 1))
    return _LETTER_FEATURES[(x[..., None] >> wires & 1) | (z[..., None] >> wires & 1) << 1]


def _boundary_counts(strings, targets):
    """(weight, agree, differ, savings) of each row of ``strings`` at its target.

    ``strings`` holds one row of k strings per target.  ``weight`` (rows,
    k) counts each string's letters; ``agree``, ``differ`` and ``savings``
    (rows, k, k) count, at the boundary of strings a and b, the wires
    other than the target where both act with the same letter, with
    different ones, and 2 * agree + differ (``_boundary_wires``): products
    of letter features with the target left out of one side.
    """
    feats = _letter_features(*_mask_arrays(strings), targets.max())
    off = feats.copy()
    off[np.arange(len(targets)), :, targets] = 0
    both = off[..., 0] @ feats[..., 0].transpose(0, 2, 1)
    flat = feats.reshape(*feats.shape[:2], -1)
    savings = off.reshape(flat.shape) @ flat.transpose(0, 2, 1)
    return feats[..., 0].sum(axis=2), savings - both, 2 * both - savings, savings


def _dp_choices(pairs):
    """The maximum-saving IntraChoice of each (term, target) pair.

    Pairs are grouped by string count k, and each group's savings
    matrices come at once from its (pairs, k) x and z mask arrays
    (``_boundary_counts``).  All groups' matrices go to ``_max_paths`` in
    one call.  Savings are symmetric, so a path and its reversal save the
    same, and the lexicographically smallest best path is never greater
    than its reversal.  Its CostBreakdown, the letter counts and each
    boundary's agree and differ counts along it, is read from the same
    arrays, equal to ``cost_breakdown``'s.
    """
    by_count = {}
    for idx, (term, _) in enumerate(pairs):
        by_count.setdefault(len(term.strings), []).append(idx)
    groups, matrices = [], []
    for k, idxs in by_count.items():
        targets = np.array([pairs[i][1] for i in idxs], dtype=np.int64)
        strings = [pairs[i][0].strings for i in idxs]
        weight, agree, differ, savings = _boundary_counts(strings, targets)
        savings[:, np.arange(k), np.arange(k)] = 0  # a string never meets itself
        groups.append((idxs, weight, agree, differ))
        matrices += list(savings)
    solved = iter(_max_paths(matrices))
    choices = [None] * len(pairs)
    for idxs, weight, agree, differ in groups:
        paths = [path for _, path in (next(solved) for _ in idxs)]
        at = np.array(paths, dtype=np.int64)
        rows = np.arange(len(idxs))[:, None]
        counts = weight[rows, at].tolist()
        twos = agree[rows, at[:, :-1], at[:, 1:]].tolist()
        ones = differ[rows, at[:, :-1], at[:, 1:]].tolist()
        for i, path, c, two, one in zip(idxs, paths, counts, twos, ones):
            breakdown = CostBreakdown(tuple(c), tuple(two), tuple(one))
            choices[i] = IntraChoice(path, pairs[i][1], breakdown)
    return choices


# ---------------------------------------------------------------------------
# level relabeling
# ---------------------------------------------------------------------------


def permute_sequence(seq, mode_perm):
    """Relabel a sequence's modes; returns (new sequence, amplitude sign).

    Re-sorting a double's creation or annihilation pair after relabeling
    swaps ladder operators once, which flips the amplitude sign.
    """
    mapped = [mode_perm[i] for i in seq.indices]
    sign = 1
    if seq.kind == "double":
        (p, q), (r, s) = mapped[:2], mapped[2:]
        if p > q:
            p, q = q, p
            sign = -sign
        if r > s:
            r, s = s, r
            sign = -sign
        mapped = [p, q, r, s]
    return OrbitalSequence(seq.kind, tuple(mapped)), sign


def _relabeled(seqs, angles, occupied, labels):
    """The pool relabeled by ``labels``, each angle signed by its remap,
    and the occupied modes mapped through the labels."""
    relabeled = [permute_sequence(seq, labels) for seq in seqs]
    seqs = [mapped for mapped, _ in relabeled]
    angles = [sign * theta for (_, sign), theta in zip(relabeled, angles)]
    return seqs, angles, None if occupied is None else [labels[m] for m in occupied]


def _pair_swap_perms(n_spatial):
    """Mode permutations that swap two spatial orbitals, (2a, 2a+1) with
    (2b, 2b+1), for each pair a < b in ascending order."""
    perms = []
    for a, b in combinations(range(n_spatial), 2):
        spatial = list(range(n_spatial))
        spatial[a], spatial[b] = b, a
        perms.append(tuple(2 * spatial[m >> 1] + (m & 1) for m in range(2 * n_spatial)))
    return perms


def relabel_levels(seqs, transform, config, *, occupied=None):
    """Greedy orbital-pair relabeling scored by the planner's own count.

    Mode m is relabeled ``labels[m]`` (``permute_sequence``).  From the
    identity, each round tries every swap of two spatial orbitals applied
    after the current labels, C(n/2, 2) candidates, and plans each
    relabeled pool with ``plan_ansatz`` under ``config`` with relabeling
    off and ``occupied`` mapped through the trial labels.  The candidate
    with the lowest ``model_two_qubit`` is adopted if it is strictly below
    the current count (ties to the first swap in ``_pair_swap_perms``
    order), and the descent stops on the first round without one.  So the
    result's count is never above the identity's, and no single swap of it
    lowers that count.  Returns the labels.
    """
    n = transform.n_modes
    if n % 2:
        raise ValueError("relabeling pairs spatial orbitals; mode count must be even")
    seqs = list(seqs)
    config = replace(config, relabel=False)

    def count(labels):
        mapped, angles, occ = _relabeled(seqs, [1.0] * len(seqs), occupied, labels)
        return plan_ansatz(mapped, transform, angles, config, occupied=occ).model_two_qubit

    candidates = _pair_swap_perms(n // 2)
    labels = tuple(range(n))
    cost = count(labels)
    while True:
        best_cost, best_labels = cost, None
        for perm in candidates:
            trial = tuple(perm[m] for m in labels)
            trial_cost = count(trial)
            if trial_cost < best_cost:
                best_cost, best_labels = trial_cost, trial
        if best_labels is None:
            return labels
        labels, cost = best_labels, best_cost


# ---------------------------------------------------------------------------
# cross-term ordering
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TermPlacement:
    """One term inside a class chain: index, orientation, realized choice."""

    index: int
    choice: IntraChoice
    reverse: bool = False

    @property
    def ordering(self):
        return self.choice.ordering[::-1] if self.reverse else self.choice.ordering


@dataclass(frozen=True, slots=True)
class ClassPlan:
    target: int
    placements: tuple[TermPlacement, ...]
    junction_savings: tuple[int, ...]

    @property
    def cost(self):
        return sum(p.choice.cost for p in self.placements) - sum(self.junction_savings)


@dataclass(frozen=True, slots=True)
class InterPlan:
    classes: tuple[ClassPlan, ...]
    standalone: tuple[TermPlacement, ...]

    @property
    def cost(self):
        return sum(c.cost for c in self.classes) + sum(
            p.choice.cost for p in self.standalone
        )


def inter_order(terms):
    """Group terms by shared eligible target and chain them greedily.

    Classes are formed around the most frequently eligible wire (ties to
    the smallest index), removing claimed terms and repeating; this reads
    only the eligible targets.  Each member's string order is then the
    dynamic program's at its class target alone, all members solved in one
    batch.  A member is placed in its string order or reversed, and a
    junction saving is the boundary saving, at the class target, of one
    placed member's last string and the next one's first; each class
    scores all of them once, in one matrix (``_junction_matrix``).  The
    chain is seeded with the pair of distinct members with the largest
    junction saving, then grown one member at a time, placed before the
    chain's first member or after its last, wherever the saving is
    largest.  Ties go to the first strict maximum in this order: the seed
    runs over the left member, then the right member (each in class
    order), then the left one reversed or not (not first), then the right
    one; a growth step runs over the members left (in class order), then
    before the chain or after it (before first), then not reversed or
    reversed.
    """
    standalone = tuple(
        TermPlacement(i, _fallback_choice(terms[i]))
        for i in range(len(terms))
        if not terms[i].eligible_targets
    )
    remaining = [i for i in range(len(terms)) if terms[i].eligible_targets]

    groups = []
    while remaining:
        counts = {}
        for i in remaining:
            for t in terms[i].eligible_targets:
                counts[t] = counts.get(t, 0) + 1
        target = min(counts, key=lambda t: (-counts[t], t))
        members = [i for i in remaining if target in terms[i].eligible_targets]
        remaining = [i for i in remaining if target not in terms[i].eligible_targets]
        groups.append((target, members))

    choices = iter(_dp_choices([(terms[i], t) for t, members in groups for i in members]))
    classes = tuple(
        _chain_class(terms, {i: next(choices) for i in members}, members, target)
        for target, members in groups
    )
    return InterPlan(classes, standalone)


def _junction_matrix(terms, choices, members, target):
    """Junction savings of every ordered pair of oriented class members.

    Oriented member 2 * j + r is ``members[j]`` in its chosen string order,
    reversed when r is 1.  Entry [a, b] is the boundary saving, as
    2 * two + one (``_boundary_saving``), of a's last string followed by
    b's first string at ``target``: one product of letter features
    (``_letter_features``), the target left out of the last strings'.
    """
    firsts, lasts = [], []
    for i in members:
        strings, ordering = terms[i].strings, choices[i].ordering
        head, tail = strings[ordering[0]], strings[ordering[-1]]
        firsts += (head, tail)
        lasts += (tail, head)
    first, last = _letter_features(*_mask_arrays([firsts, lasts]), target)
    last[:, target] = 0
    return last.reshape(len(lasts), -1) @ first.reshape(len(firsts), -1).T


def _chain_class(terms, choices, members, target):
    """One class's chain, seeded and grown on its junction matrix as
    ``inter_order`` describes.  ``argmax`` returns the first maximum in
    row-major order, so each candidate array's axes run in the order of
    the tie rule."""
    if len(members) == 1:
        return ClassPlan(target, (TermPlacement(members[0], choices[members[0]]),), ())

    m = len(members)
    junction = _junction_matrix(terms, choices, members, target)
    # the seed: (left member, right member, left reversed, right reversed)
    seed = junction.reshape(m, 2, m, 2).transpose(0, 2, 1, 3).copy()
    seed[np.arange(m), np.arange(m)] = -1  # savings are non-negative
    li, ri, lr, rr = np.unravel_index(int(seed.argmax()), seed.shape)
    left, right = 2 * int(li) + int(lr), 2 * int(ri) + int(rr)
    chain = [left, right]
    savings = [int(junction[left, right])]

    # cand[j, end, r]: the saving of member j, reversed when r is 1, placed
    # before the chain (end 0, column of the first member) or after it
    # (end 1, row of the last); placed members read -1
    placed = np.zeros(m, dtype=bool)
    placed[[li, ri]] = True
    cand = np.stack((junction[:, left].reshape(m, 2), junction[right].reshape(m, 2)), axis=1)
    cand[placed] = -1
    for _ in range(m - 2):
        best = int(cand.argmax())
        j, end, reverse = best >> 2, best >> 1 & 1, best & 1
        value = int(cand.flat[best])
        o = 2 * j + reverse
        placed[j] = True
        cand[j] = -1
        if end:
            chain.append(o)
            savings.append(value)
            cand[:, 1] = junction[o].reshape(m, 2)
        else:
            chain.insert(0, o)
            savings.insert(0, value)
            cand[:, 0] = junction[:, o].reshape(m, 2)
        cand[placed, end] = -1
    placements = tuple(
        TermPlacement(members[o >> 1], choices[members[o >> 1]], bool(o & 1)) for o in chain
    )
    return ClassPlan(target, placements, tuple(savings))


# ---------------------------------------------------------------------------
# paired-excitation compression
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CompressedTerm:
    """A paired double excitation on one wire per orbital pair.

    Pair l holds spin orbitals (2l, 2l+1) and sits on wire 2l.  On the
    subspace where every pair is empty or full, a+_2P a+_2P+1 a_2R a_2R+1
    acts as -s+_P s-_R, with s+ = |1><0| = (X - iY)/2 filling a pair and
    s- = |0><1| = (X + iY)/2 emptying it: the pairs between P and R read
    ZZ or II under Jordan-Wigner, so no parity string is left.  Hence
    T + T+ = -1/2 (X_P X_R + Y_P Y_R) and T - T+ = i/2 (Y_P X_R - X_P Y_R),
    whichever of P and R is larger, and the circuit uses two CNOTs.
    """

    source: OrbitalSequence
    theta: float
    plus_pair: int
    minus_pair: int
    anti: bool = False

    two_qubit_cost = 2


@dataclass(frozen=True, slots=True)
class BosonicSplit:
    compressed: tuple[CompressedTerm, ...]
    kept: tuple[int, ...]
    touched_pairs: tuple[int, ...]

    @property
    def restoration_cnots(self):
        return len(self.touched_pairs)


def _pair_index(modes):
    """The orbital pair that ``modes`` (ascending) fill, or None."""
    low, high = modes
    return low // 2 if low % 2 == 0 and high == low + 1 else None


def bosonic_reduce(terms, *, occupied=None):
    """Split terms into compressible paired doubles and everything else.

    A double excitation compresses when its creations fill one orbital pair
    (2l, 2l+1) and its annihilations another; a reference occupation (when
    given) must fill or empty each such pair entirely, otherwise the term
    is kept uncompressed.  Returns a BosonicSplit with term indices
    preserved.
    """
    if not terms:
        return BosonicSplit((), (), ())
    if terms[0].n_qubits % 2:
        raise ValueError("orbital pairing needs an even number of modes")
    occ = None if occupied is None else set(occupied)

    compressed, kept, touched = [], [], set()
    for i, term in enumerate(terms):
        seq = term.source
        ok = seq is not None and seq.kind == "double"
        if ok:
            plus = _pair_index(seq.creations())
            minus = _pair_index(seq.annihilations())
            ok = plus is not None and minus is not None
        if ok and occ is not None:
            ok = all(
                len(occ.intersection(pair)) != 1 for pair in (seq.creations(), seq.annihilations())
            )
        if not ok:
            kept.append(i)
            continue
        compressed.append(CompressedTerm(seq, term.theta, plus, minus, term.anti))
        touched.update((plus, minus))
    return BosonicSplit(tuple(compressed), tuple(kept), tuple(sorted(touched)))


def compressed_circuit(cterm, n_qubits):
    """The two-CNOT rotation of a compressed term on wires 2P and 2R.

    exp(-i b/2 (XX + ZZ)) equals CNOT . (Rx(b) x Rz(b)) . CNOT; conjugating
    both wires with HSH (a Clifford x-rotation) turns ZZ into YY, and an
    extra S on the upper wire turns XX + YY into XY - YX.  The angle b is
    |theta| times the rotation magnitude (1/2, or 1 with ``anti``), signed
    by theta's sign (a negative zero counts as positive) and by the sign of
    the lower wire's X string.  Every gate but the two rotations is a
    ``shared_gate``.
    """
    low, high = sorted((cterm.plus_pair, cterm.minus_pair))
    a, b = 2 * low, 2 * high
    if b >= n_qubits:
        raise ValueError(f"pair {high} does not fit on {n_qubits} wires")
    if cterm.anti:
        # the lower wire's X string is X_P Y_R (+1) when P < R, else Y_P X_R (-1)
        magnitude, sign = 1.0, (1.0 if cterm.plus_pair < cterm.minus_pair else -1.0)
    else:
        magnitude, sign = 0.5, -1.0
    beta = abs(cterm.theta) * magnitude * ((-1.0 if cterm.theta < 0 else 1.0) * sign)
    gates = []
    if cterm.anti:
        gates.append(shared_gate("Sdg", (b,)))
    for q in (a, b):
        gates += (shared_gate("H", (q,)), shared_gate("Sdg", (q,)), shared_gate("H", (q,)))
    cnot = shared_gate("CNOT", (a, b))
    gates += (cnot, Gate("Rx", (a,), beta), Gate("Rz", (b,), beta), cnot)
    for q in (a, b):
        gates += (shared_gate("H", (q,)), shared_gate("S", (q,)), shared_gate("H", (q,)))
    if cterm.anti:
        gates.append(shared_gate("S", (b,)))
    return Circuit(n_qubits, 0, gates)


def restoration_circuit(touched_pairs, n_qubits):
    """Fan each compressed pair wire 2l back out to its partner 2l+1."""
    if touched_pairs and 2 * max(touched_pairs) + 1 >= n_qubits:
        raise ValueError(f"pair {max(touched_pairs)} does not fit on {n_qubits} wires")
    return Circuit(n_qubits, 0, [shared_gate("CNOT", (2 * l, 2 * l + 1)) for l in touched_pairs])


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HeuristicConfig:
    """Which reduction passes ``plan_ansatz`` runs, and the rotation convention.

    ``reorder`` runs the per-term and cross-term ordering, ``bosonic`` the
    paired-double compression, and ``relabel`` the orbital-pair relabeling
    (``relabel_levels``).  ``anti`` expands each
    term as exp(theta * (T - T+)) rather than exp(-i theta / 2 (T + T+)).
    Relabeling plans the pool C(n/2, 2) times per descent round, dozens
    of plans on STO-3G water, so it is off by default.
    """

    reorder: bool = True
    bosonic: bool = True
    relabel: bool = False
    anti: bool = True


@dataclass(slots=True)
class AnsatzPlan:
    """Planner output: the choices, their two-qubit accounting, and the circuit.

    ``circuit`` stays None until the plan is emitted.  The circuit runs the
    source terms in ``order``: compressed terms, then the class chains, then
    the standalone terms.
    """

    n_qubits: int
    labels: tuple[int, ...]
    terms: tuple[TrotterTerm, ...]
    kept: tuple[int, ...]
    inter: InterPlan
    compressed: tuple[CompressedTerm, ...]
    touched_pairs: tuple[int, ...]
    model_two_qubit: int
    circuit: Circuit | None = None

    @property
    def order(self):
        """Source-term indices in the order the circuit runs them."""
        kept = set(self.kept)
        placements = [p for cls in self.inter.classes for p in cls.placements]
        placements += self.inter.standalone
        return tuple(i for i in range(len(self.terms)) if i not in kept) + tuple(
            self.kept[p.index] for p in placements
        )


def plan_ansatz(seqs, transform, angles=None, config=HeuristicConfig(), *, occupied=None):
    """Plan the reduction pipeline over a sequence of excitations.

    Passes run in order: level relabeling (only with ``config.relabel``),
    expansion, paired-double compression, then per-term and cross-term
    ordering of the remainder (without ``config.reorder``, each term keeps
    its stored string order at its first eligible target).  A relabeled
    plan runs each excitation with its modes mapped through
    ``plan.labels`` and its angle signed by the remap
    (``permute_sequence``), and ``occupied`` is mapped through the labels
    before compression, so the plan's reference is the relabeled one.
    ``model_two_qubit`` is the additive accounting; the emitted circuit's
    metrics may only undercut it.  No circuit is built.
    """
    seqs = list(seqs)
    n = transform.n_modes
    if angles is None:
        angles = [1.0] * len(seqs)
    if len(angles) != len(seqs):
        raise ValueError("angles and sequences differ in length")

    labels = tuple(range(n))
    if config.relabel:
        occupied = None if occupied is None else tuple(occupied)
        labels = relabel_levels(seqs, transform, config, occupied=occupied)
        seqs, angles, occupied = _relabeled(seqs, angles, occupied, labels)

    terms = _expand_pool(seqs, transform, angles, anti=config.anti)

    if config.bosonic and n % 2 == 0:
        split = bosonic_reduce(terms, occupied=occupied)
    else:
        split = BosonicSplit((), tuple(range(len(terms))), ())

    kept_terms = [terms[i] for i in split.kept]
    inter = inter_order(kept_terms) if config.reorder else _unchained(kept_terms)
    model = (
        inter.cost
        + sum(c.two_qubit_cost for c in split.compressed)
        + split.restoration_cnots
    )
    return AnsatzPlan(
        n_qubits=n,
        labels=labels,
        terms=terms,
        kept=split.kept,
        inter=inter,
        compressed=split.compressed,
        touched_pairs=split.touched_pairs,
        model_two_qubit=model,
    )


def _unchained(terms):
    """Each term alone at its first eligible target, strings in stored order."""
    placements = []
    for i, term in enumerate(terms):
        if term.eligible_targets:
            target = term.eligible_targets[0]
            ordering = tuple(range(len(term.strings)))
            choice = IntraChoice(ordering, target, cost_breakdown(term, ordering, target))
        else:
            choice = _fallback_choice(term)
        placements.append(TermPlacement(i, choice))
    return InterPlan(
        tuple(
            ClassPlan(p.choice.target, (p,), ())
            for p in placements
            if p.choice.target is not None
        ),
        tuple(p for p in placements if p.choice.target is None),
    )


def emit_circuit(plan):
    """The circuit of a plan, in ``plan.order``.

    Compressed blocks lead, followed by the restoration fan-out, then one
    block per class chain and per standalone term.  ``term_circuit``
    emits each term with the two-CNOT savings between its own blocks
    already taken, and ``peephole_cancel`` then reduces each chain or
    standalone block, realizing the remaining savings that
    ``plan.model_two_qubit`` counts: the one-CNOT ones and those at the
    junctions between chained terms, which are emitted whole.  Compressed blocks act in the
    Jordan-Wigner frame and kept terms in the transform's, and no basis
    change is emitted between the two: under a non-identity encoding with
    compressed terms the circuit is not yet the ansatz.
    """
    n = plan.n_qubits
    # every part is built on the plan's n wires, so its gates are appended unchecked
    circ = Circuit(n)
    for cterm in plan.compressed:
        circ.gates += compressed_circuit(cterm, n).gates
    circ.gates += restoration_circuit(plan.touched_pairs, n).gates
    blocks = [(cls.placements, cls.target) for cls in plan.inter.classes]
    blocks += [((p,), None) for p in plan.inter.standalone]
    for placements, target in blocks:
        block = Circuit(n)
        for p in placements:
            term = plan.terms[plan.kept[p.index]]
            block.gates += term_circuit(term, p.ordering, target).gates
        block = peephole_cancel(block)
        circ.gates += block.gates
        circ.global_phase *= block.global_phase
    return circ


def synthesize_ansatz(seqs, transform, angles=None, config=HeuristicConfig(), *, occupied=None):
    """``plan_ansatz`` followed by ``emit_circuit``: the plan with its circuit."""
    plan = plan_ansatz(seqs, transform, angles, config, occupied=occupied)
    plan.circuit = emit_circuit(plan)
    return plan


def ansatz_two_qubit_cost(seqs, transform, config=HeuristicConfig(), *, occupied=None):
    """The planner's two-qubit count, without circuit emission."""
    return plan_ansatz(seqs, transform, None, config, occupied=occupied).model_two_qubit


def plan_report(plan):
    """JSON-ready description of an AnsatzPlan; circuit metrics once emitted."""
    kept_terms = [plan.terms[i] for i in plan.kept]
    classes = []
    for cls in plan.inter.classes:
        classes.append(
            {
                "target": cls.target,
                "members": [
                    {
                        "term": _term_name(kept_terms[p.index]),
                        "ordering": list(p.ordering),
                        "reversed": p.reverse,
                        "cost": p.choice.cost,
                    }
                    for p in cls.placements
                ],
                "junction_savings": list(cls.junction_savings),
                "cost": cls.cost,
            }
        )
    report = {
        "n_qubits": plan.n_qubits,
        "labels": list(plan.labels),
        "classes": classes,
        "standalone": [
            {"term": _term_name(kept_terms[p.index]), "cost": p.choice.cost}
            for p in plan.inter.standalone
        ],
        "compressed": [
            {
                "term": _term_name(c),
                "plus_pair": c.plus_pair,
                "minus_pair": c.minus_pair,
                "cost": c.two_qubit_cost,
            }
            for c in plan.compressed
        ],
        "restoration_cnots": len(plan.touched_pairs),
        "model_two_qubit": plan.model_two_qubit,
    }
    if plan.circuit is None:
        return report
    m = metrics(plan.circuit)
    report["metrics"] = {
        "two_qubit": m.two_qubit,
        "rz_count": m.rz_count,
        "rz_depth": m.rz_depth,
        "t_count": m.t_count,
        "n_gates": m.n_gates,
    }
    return report


def _term_name(term):
    return term.source.name if term.source is not None else "term"
