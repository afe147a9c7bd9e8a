"""Trotter-step synthesis and two-qubit-count reduction heuristics.

A fermionic excitation term is expanded into a set of commuting Pauli
rotations, each synthesized as a basis-change + CNOT-ladder + Rz block.
Adjacent blocks that share a ladder target cancel gates at their boundary,
so the total two-qubit count depends on the string ordering, the choice of
target wire, the labeling of fermion levels, and whether spatially paired
excitations are compressed onto half the register.

The planner is one set of numpy passes over mask arrays, batched over
encodings: a stack of T encodings of one pool is planned as one, and a
single plan is a stack of one.  The pool's Jordan-Wigner string products
are taken once (``_jw_pool``), framed for every encoding of an
``EncodingStack`` from its byte tables (``_expand``), and sorted
canonically for every (encoding, term) row in one pass; the
paired-double split reads only the excitations and the reference, so it
runs once (``_pair_split``); ``inter_order`` forms
every encoding's classes at once, solves every (term, target) string order
of one string count in one deduplicated Held-Karp pass, and seeds and
grows the chains of all classes, padded to a common member count, in one
loop.  The swarm's cost reads only the counts
(``ansatz_two_qubit_costs``), and ``plan_ansatz`` reads the arrays of a
stack of one into the terms, strings and class chains that the emitter
uses.

Every term has an eligible target: ``Transform`` accepts only a unit
lower-triangular beta, which maps an excitation's shared x mask to beta x,
and beta x has the bit of the excitation's lowest mode m set (beta[m, m] =
1, and beta[m, j] = 0 for every higher mode j), so wire m is X or Y in
every string of the term.  So every kept term sits in a class, at the
class's target, and the plan is its class chains.  This module provides:

- ``expand_term``: excitation -> rotation list under a chosen transform,
  the planner's expansion of one excitation: every term's 2^k string
  products (``transform.ladder_products``: Jordan-Wigner products in
  closed form, conjugated by the encoding's basis change,
  ``frame_stack``), each with an integer power of i (no complex arithmetic
  and no merge; T+ is the conjugate on the same strings), and each term's
  strings sorted on mask keys,
- ``term_circuit``: one term's circuit through the chain emitter
  (``_emit_chain``), which reads each string's letters from its masks,
  takes every angle-free gate from a per-(wires, target) table of
  ``circuits.shared_gate`` instances built once (``_wire_gates``), builds
  only the Rz gates per angle and emits no gate the peephole would cancel,
  so no peephole runs on its output,
- ``inter_order``: greedy cross-term concatenation by shared target; classes
  are formed from the eligible targets first, so the per-term string order
  is found only at each term's class target, for all terms of all
  encodings in one batch, and each class chain grows on one matrix of its
  oriented members' junction savings.  The string order is dynamic
  programming over an exact additive cost model (``_dp_paths``): every
  (term, target) savings matrix of one string count comes from the
  strings' (x, z) mask arrays at once, and a Held-Karp pass in numpy,
  batched by a budget of table entries, visits only the valid (visited
  mask, last node, next node) triples, one gather-add and one group max
  per popcount layer,
- ``relabel_levels``: greedy descent over single orbital-pair swaps of the
  fermion levels, each candidate labeling scored by the planner's own
  count, so relabeling never raises it,
- ``bosonic_reduce``: compression of spatially paired double excitations
  onto one wire per orbital pair (pair l on wire 2l), plus the restoration
  network; a compressed term is the closed-form two-wire hop of
  ``CompressedTerm``, built from the excitation's pair indices and angle
  alone, with no cache and no Jordan-Wigner re-expansion,
- ``plan_ansatz``: the one planner (relabel, expand, compress, order) and
  its two-qubit count, the only cost model: the swarm's cost function
  (``ansatz_two_qubit_costs``, one encoding or many) and the relabeling
  both read that count,
- ``emit_circuit``: the circuit of a plan; ``synthesize_ansatz`` is plan
  followed by emit, with a structured plan report.

The cost model counts, per block, ``2 * (weight - 1)`` CNOTs and, per
boundary between consecutive blocks, a two-CNOT saving on every non-target
wire where both letters are equal and non-identity, or a one-CNOT saving
where they differ and neither is identity.  The emitter takes every one
of them, the same way at every boundary of a class chain, inside a term
or at a junction between terms (``_emit_chain``), so each chain comes out
in the form the peephole leaves it, and is appended as it is emitted;
with every angle nonzero, model and circuit agree gate-for-gate.  The
peephole runs once per circuit, on the prefix that is not emitted at its
fixpoint (the compressed blocks and the restoration fan-out), where it
halves the gates and keeps the CNOTs.  The expansion, the planner and
the emitter read letters only through the strings' bit masks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .circuits import Circuit, Gate, metrics, peephole_cancel, shared_gate
from .circuits import _INVERSE, _junction_rewrite, _norm_angle, _xx_half_gates
from .fermions import OrbitalSequence
from .paulis import PauliString
from .transform import EncodingStack, _popcount, frame_stack, ladder_products


# ---------------------------------------------------------------------------
# excitation expansion
# ---------------------------------------------------------------------------

_PLUS, _MINUS = complex(1.0), complex(-1.0)

# Four-letter rotation sets are listed in this fixed x/y-word order; any
# other shape falls back to lexicographic word order.  A word is indexed by
# its z bits on the x/y wires (X = 0, Y = 1), the lowest wire the most
# significant bit.
_CANONICAL_WORDS = ("XXXX", "XXYY", "XYYX", "XYXY", "YYXX", "YXXY", "YXYX", "YYYY")
# each byte value with its eight bits reversed
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint64)
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


def _reversed_bits(v, n):
    """Each entry of the non-negative int64 array ``v`` with its low n bits
    reversed, as uint64: qubit 0 becomes the most significant bit.  The
    bytes of ``v`` are reversed by table, then shifted into place."""
    width = -(-n // 8) * 8
    out = _REVERSED_BYTES[v & 255]
    for c in range(8, width, 8):
        out <<= np.uint64(8)
        out |= _REVERSED_BYTES[v >> c & 255]
    return out >> np.uint64(width - n)


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
    rows = len(z)
    on_wires = z & x[:, None]
    # a four-wire row's word: its z bits on the wires, the lowest wire leading
    four = np.flatnonzero(_popcount(x) == 4)
    rank = np.full(z.shape, len(_CANONICAL_WORDS), dtype=np.int64)
    if len(four):
        rest, word = x[four], np.zeros((len(four), z.shape[1]), dtype=np.int64)
        for lead in (8, 4, 2, 1):
            low = rest & -rest
            rest ^= low
            word += (on_wires[four] & low[:, None] != 0) * lead
        rank[four] = _WORD_RANK[word]
    rank += 16 * np.arange(rows)[:, None]  # rows stay apart, in order
    return np.lexsort(
        (_reversed_bits(z, n).ravel(), _reversed_bits(on_wires, n).ravel(), rank.ravel())
    )


class _Group(NamedTuple):
    """The pool's excitations of one ladder count k under each of T
    encodings: R terms of s = 2^(k-1) strings each.

    ``rows`` (R,) are the terms' indices in the pool, ascending; ``x``
    (T, R) is each term's shared x mask, ``z`` (T, R, s) its strings' z
    masks in canonical order and ``plus`` (T, R, s) whether each string's
    sign is +; ``eligible`` (T, R) masks the fermion-label wires whose
    letter is non-identity in every string of the term.
    """

    rows: np.ndarray
    x: np.ndarray
    z: np.ndarray
    plus: np.ndarray
    eligible: np.ndarray


def _jw_pool(seqs, n):
    """The pool's Jordan-Wigner string products, one entry per ladder
    count k: (rows, x, z, e, modes), with ``ladder_products``' x, z and e
    of the rows' excitations (creations, then annihilations) and
    ``modes`` the mask of each excitation's fermion labels.  Any encoding's
    expansion frames these (``_expand``)."""
    by_count = {}
    for row, seq in enumerate(seqs):
        for mode in seq.indices:
            if not 0 <= mode < n:
                raise ValueError(f"mode {mode} out of range")
        by_count.setdefault(len(seq.indices), []).append(row)
    pool = []
    for k in sorted(by_count):
        group = [seqs[r] for r in by_count[k]]
        ladders = np.array(
            [
                [2 * m + 1 for m in seq.creations()] + [2 * m for m in seq.annihilations()]
                for seq in group
            ],
            dtype=np.int64,
        )
        modes = np.bitwise_or.reduce(1 << (ladders >> 1), axis=1)
        pool.append((np.array(by_count[k], dtype=np.int64), *ladder_products(ladders), modes))
    return pool


def _expand(pool, encodings, *, anti):
    """Each ladder count's terms (``_Group``) under every encoding of the
    stack ``encodings``, from the Jordan-Wigner products of ``_jw_pool``.

    Each group's products are framed for all encodings in one call
    (``frame_stack``), every group from the stack's one set of tables.  T + T+ keeps the even powers of i, with sign + at
    i^0, and T - T+ the odd ones, with sign + at i^3; exactly half of a
    term's 2^k products are kept.  The kept strings of every (encoding,
    term) row are sorted by ``_canonical_order`` in one pass.
    """
    parity, plus = (1, 3) if anti else (0, 0)
    n = encodings.n_modes
    groups = []
    for rows, x, z, e, modes in pool:
        x, z, q = frame_stack(encodings, x[:, None], z)
        e = (e + q) & 3
        kept = (e & 1) == parity
        n_enc, n_rows, s = len(encodings), len(rows), z.shape[2] // 2
        x = x[:, :, 0]
        z = z[kept].reshape(n_enc * n_rows, s)
        order = _canonical_order(x.ravel(), z, n)
        z = z.ravel()[order].reshape(n_enc, n_rows, s)
        positive = (e[kept][order] == plus).reshape(n_enc, n_rows, s)
        support = x | np.bitwise_and.reduce(z, axis=2)
        groups.append(_Group(rows, x, z, positive, support & modes))
    return groups


def _terms(seqs, thetas, groups, n, anti):
    """The TrotterTerm of each excitation at its angle under the first
    encoding of ``groups``: its strings, signs and eligible targets read
    off the arrays."""
    terms = [None] * len(seqs)
    for group in groups:
        s = group.z.shape[2]
        mag = (4.0 if anti else 2.0) / (2 * s)
        strings = [
            PauliString(n, xs, zs, (_MINUS, _PLUS)[sign])
            for xs, zs, sign in zip(
                group.x[0].repeat(s).tolist(), group.z[0].ravel().tolist(),
                group.plus[0].ravel().tolist(),
            )
        ]
        for j, (r, support) in enumerate(zip(group.rows.tolist(), group.eligible[0].tolist())):
            seq, theta = seqs[r], thetas[r]
            terms[r] = TrotterTerm(
                seq,
                n,
                theta,
                theta * mag,
                tuple(strings[j * s : (j + 1) * s]),
                tuple(t for t in sorted(seq.indices) if support >> t & 1),
                anti,
            )
    return tuple(terms)


def _expand_pool(seqs, transform, thetas, *, anti):
    """The TrotterTerm of each excitation at its angle under one encoding:
    ``_expand`` of a stack of one, read into objects (``_terms``)."""
    seqs = list(seqs)
    n = transform.n_modes
    groups = _expand(_jw_pool(seqs, n), transform.stack, anti=anti)
    return _terms(seqs, thetas, groups, n, anti)


def expand_term(seq, transform, theta=1.0, *, anti=False):
    """Expand one excitation under ``transform`` into a TrotterTerm.

    This is the planner's expansion (``_expand``) of a pool of one
    excitation under one encoding.  Two-body sequences produce
    exactly eight strings and one-body sequences exactly two; eligibility
    keeps the fermion-label wires whose letter is non-identity in every
    string.

    T = a+... a... is enumerated as its 2^k string products
    (``transform.ladder_products``), each with an integer power of i; no
    complex number is formed.  The products are taken under Jordan-Wigner
    and then conjugated by the basis change B (``frame_stack``).  A
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


# a letter's basis change and undo, indexed by its x bit + 2 * its z bit (I, X, Z, Y)
_CHANGE = ((), ("H",), (), ("Sdg", "H"))
_UNDO = ((), ("H",), (), ("H", "S"))


@lru_cache(maxsize=None)
def _run_rewrite(run):
    """``_junction_rewrite`` of a control run given as its gate kinds."""
    return _junction_rewrite([shared_gate(kind, (0,)) for kind in run])


@lru_cache(maxsize=None)
def _wire_gates(n, t):
    """Each wire's ``shared_gate`` instances at ladder target ``t``: H, S, Sdg
    and Z by kind, CNOT onto ``t`` and ``_xx_half_gates`` by sign (None on t)."""
    one = [{kind: shared_gate(kind, (q,)) for kind in ("H", "S", "Sdg", "Z")} for q in range(n)]
    cnot = [shared_gate("CNOT", (q, t)) if q != t else None for q in range(n)]
    xx = [[_xx_half_gates(q, t, s) for s in (False, True)] if q != t else None for q in range(n)]
    return one, cnot, xx


def _emit_chain(chain, target, n):
    """The gates and global phase of a chain of rotations at one target,
    in the form ``peephole_cancel`` leaves them.

    ``chain`` lists (x mask, z mask, angle) per string, each string the
    rotation exp(-i angle/2 * P).  Each angle is folded by ``_norm_angle``,
    its phase multiplied in; a string whose angle folds to 0 within 1e-12
    is that phase times the identity, and is dropped before any boundary
    is computed.  A kept string's block is its basis change (X: H; Y: Sdg
    then H), the CNOT ladder onto ``target`` in ascending wire order, Rz,
    the ladder descending and the basis undo.  The target must be X or Y
    in every string, or Z in every string, so that its one-qubit run
    between two ladders commutes with X, as an expanded term's eligible
    target is.  At each boundary between strings, on each wire other than
    the target where both act, the first block's closing CNOT and undo and
    the second's change are left out; an agreeing wire also loses the
    opening CNOT, and a differing wire's opening CNOT becomes the
    peephole's junction rewrite of its control run, the undo followed by
    the change (``_junction_rewrite``, memoised per run), whose phase
    factor is multiplied in.

    The S of a Y undo cancels the Sdg of the wire's next Y change when only
    Z and identity letters (diagonal gates) lie between; a control run
    holding either loses it.  Every other one-qubit Clifford cancels on
    append: an H against an H just before it on its wire, an S, Sdg or Z
    against its inverse back through diagonal gates and CNOT controls.
    Each angle-free gate is its wire's entry of ``_wire_gates``.
    """
    t = target
    tbit = 1 << t
    phase = complex(1.0)
    folded = []  # (x, z, angle, phase factor) of each kept string
    for x, z, theta in chain:
        rem, ph = _norm_angle(theta)
        if abs(rem) < 1e-12:
            phase *= ph
        else:
            folded.append((x, z, rem, ph))
    m = len(folded)
    # drop_sdg[j] and drop_s[j]: the wires whose Y change before string j,
    # or Y undo after it, cancels across Z and identity letters (ys[m] pads)
    ys = [x & z & ~tbit for x, z, _, _ in folded] + [0]
    drop_sdg, drop_s = [0] * m, [0] * m
    pending = 0
    for j, (x, _, _, _) in enumerate(folded):
        drop_sdg[j] = pending & ys[j] & ~ys[j - 1]
        pending = (pending & ~x) | ys[j]
    pending = 0
    for j in range(m - 1, -1, -1):
        drop_s[j] = pending & ys[j] & ~ys[j + 1]
        pending = (pending & ~folded[j][0]) | ys[j]

    one, cnot, xx = _wire_gates(n, t)
    gates = []
    stacks = [[] for _ in range(n)]  # the live gates on each wire, by index
    on_t = stacks[t]

    def clifford(kind, q):
        stack = stacks[q]
        if kind == "H":
            if stack and gates[stack[-1]].kind == "H":
                gates[stack.pop()] = None
                return
        else:
            inverse = _INVERSE[kind]
            for k in range(len(stack) - 1, -1, -1):
                g = gates[stack[k]]
                if g.kind == inverse:
                    gates[stack.pop(k)] = None
                    return
                if g.kind == "H" or g.kind == "CNOT" and g.qubits[1] == q:
                    break
        stack.append(len(gates))
        gates.append(one[q][kind])

    def diagonal(spec, q):
        if spec[1] is None:
            return clifford(spec[0], q)
        stacks[q].append(len(gates))
        gates.append(Gate(spec[0], (q,), spec[1]))

    def close(x, z, wires, drop):
        for q in reversed(_wires(wires & ~tbit)):
            stacks[q].append(len(gates))
            on_t.append(len(gates))
            gates.append(cnot[q])
        for q in reversed(_wires(wires & x)):
            clifford("H", q)
            if z >> q & 1 and not drop >> q & 1:
                clifford("S", q)

    px = pz = 0
    for j, (x, z, rem, ph) in enumerate(folded):
        support = x | z
        both = (px | pz) & support & ~tbit
        differ = both & ((px ^ x) | (pz ^ z))
        if j:
            close(px, pz, (px | pz) & ~both, drop_s[j - 1])
        for q in _wires(support & ~both & x):
            if z >> q & 1 and not drop_sdg[j] >> q & 1:
                clifford("Sdg", q)
            clifford("H", q)
        for q in _wires(support & ~tbit):
            if differ >> q & 1:
                undo = _UNDO[(px >> q & 1) | (pz >> q & 1) << 1][: 2 - (drop_s[j - 1] >> q & 1)]
                change = _CHANGE[(x >> q & 1) | (z >> q & 1) << 1][drop_sdg[j] >> q & 1 :]
                pre, positive, post, factor = _run_rewrite(undo + change)
                if pre is not None:
                    diagonal(pre, q)
                for g in xx[q][positive]:
                    if g.kind == "CNOT":
                        stacks[q].append(len(gates))
                        on_t.append(len(gates))
                        gates.append(g)
                    else:
                        clifford(g.kind, g.qubits[0])
                if post is not None:
                    diagonal(post, q)
                phase *= factor
            elif not both >> q & 1:
                stacks[q].append(len(gates))
                on_t.append(len(gates))
                gates.append(cnot[q])
        phase *= ph
        on_t.append(len(gates))
        gates.append(Gate("Rz", (t,), rem))
        px, pz = x, z
    if m:
        close(px, pz, px | pz, 0)
    return [g for g in gates if g is not None], phase


def term_circuit(term, ordering=None, target=None):
    """The blocks of every rotation of ``term`` at one ladder target, as
    ``peephole_cancel`` leaves them: ``_emit_chain`` of its strings, where a
    string whose angle folds to 0 leaves no block, only its phase.

    ``ordering`` permutes the stored strings; ``target`` defaults to the
    first eligible wire and must carry a letter in every string.  A term
    with no eligible target and no ``target`` raises ``ValueError``; no
    expanded term is one (see the module docstring).  The strings of one
    term share their x mask, so the target is X or Y in all of them or Z
    in all of them, as ``_emit_chain`` needs.
    """
    n = term.n_qubits
    order = tuple(ordering) if ordering is not None else tuple(range(len(term.strings)))
    if sorted(order) != list(range(len(term.strings))):
        raise ValueError(f"ordering {order} is not a permutation")
    if target is None:
        if not term.eligible_targets:
            raise ValueError("term has no eligible target; pass one")
        target = term.eligible_targets[0]
    support, common = 0, -1
    for string in term.strings:
        support |= string.xmask | string.zmask
        common &= string.xmask | string.zmask
    if support.bit_length() > n or not 0 <= target < n:
        raise ValueError(f"term does not fit on {n} wires")
    if not common >> target & 1:
        raise ValueError(f"target {target} carries identity in a string of the term")
    return Circuit(n, 0, *_emit_chain(_rotations(term, order), target, n))


def _rotations(term, ordering):
    """(x mask, z mask, angle) of each of ``term``'s strings in ``ordering``."""
    strings = map(term.strings.__getitem__, ordering)
    return [(s.xmask, s.zmask, term.angle * s.coeff.real) for s in strings]


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


# Table entries of one Held-Karp batch, counted in int32: c matrices of k
# nodes fill a table of c * k * 2^k entries, so a batch holds as many as
# fit in 256 KB (twice as many in int16), and at least one, and the
# batch's savings, k^2 c entries, take at most 128 KB (at k <= 2), so one
# batch's tables stay under 1 MB.  The triples gathered for one layer of p
# visited nodes, c * C(k, p) * p * (k - p), stay below the table up to
# k = 25 (below 0.8 of it up to k = 16).  At k = 8 an int16 batch is 64
# matrices.  The savings matrices, the chains' junction matrices and the
# encodings planned together are bounded by this many entries too.
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
    """Maximum-weight Hamiltonian paths of a (C, k, k) non-negative integer
    stack whose path weights fit its dtype.

    ``f[mask * k + last, c]`` holds the best suffix weight from ``last``
    with ``mask`` already visited (0 when no move is left); each layer is one
    gather-add over its valid triples and one max per (mask, last) group
    over the group's blocks (``_dp_triples``), with the batch innermost.
    Savings are non-negative, so no move is masked out and no weight is
    floored at 0.  Each path is rebuilt greedily: at every step the
    smallest unvisited node that attains the optimum, the first argmax of
    its group; the last step has one node left.  Returns the weights (C,)
    and the paths (C, k).
    """
    c, k, _ = savings.shape
    gain = np.ascontiguousarray(savings.reshape(c, k * k).T)
    f = np.zeros(((1 << k) * k, c), dtype=savings.dtype)
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
    return start.max(axis=0), path.T


def _max_paths(matrices):
    """(weights, paths) of a (C, k, k) stack of non-negative integer matrices.

    Each path is the lexicographically smallest maximum-weight Hamiltonian
    path of its matrix; ``weights`` (C,) and ``paths`` (C, k) are int64.
    The stack is solved in int16 when (k - 1) times its largest entry, a
    bound on every path weight, is below 2**15, and in int32 otherwise, in
    batches of ``_DP_ENTRIES // (k * 2^k)`` matrices in int32 and twice as
    many in int16 (at least one), so one batch's table takes at most 256 KB
    and its savings at most 128 KB; a negative entry, or a k x k stack
    whose (k - 1) * max entry reaches 2**31 (a path weight could
    overflow), raises ValueError.  Boundary savings are at most twice the
    register width per step, so the planner's matrices take int16.
    """
    stack = np.asarray(matrices, dtype=np.int64)
    c, k = stack.shape[:2]
    weights, paths = np.zeros(c, dtype=np.int64), np.zeros((c, k), dtype=np.int64)
    if not c:
        return weights, paths
    if stack.min() < 0:
        raise ValueError("savings matrices must be non-negative")
    top = (k - 1) * int(stack.max())
    if top >= 2**31:
        raise ValueError(f"a {k} x {k} savings matrix's path weight may overflow int32")
    stack = stack.astype(np.int16 if top < 2**15 else np.int32)
    batch = max(1, _DP_ENTRIES * 4 // (stack.itemsize * (k << k)))
    for start in range(0, c, batch):
        weights[start : start + batch], paths[start : start + batch] = _held_karp(
            stack[start : start + batch]
        )
    return weights, paths


def _along(x, z, path, target):
    """Letter counts along each path and each boundary's agree and differ
    counts: (weight (P, s), agree (P, s - 1), differ (P, s - 1)).

    Row p is one term: ``x[p]`` its strings' shared x mask and ``z[p]``
    (s,) their z masks; ``path[p]`` orders them (None: stored order), and
    ``target`` (P,) is each row's shared target.  At a boundary the wires
    other than the target where both strings act with the same letter
    agree and those with different ones differ.  As
    x is shared, the strings differ in letter exactly where their z masks
    differ, and both act on a wire of x or of both z masks.
    """
    if path is not None:
        z = np.take_along_axis(z, path, axis=1)
    weight = _popcount(x[:, None] | z)
    a, b = z[:, :-1], z[:, 1:]
    differ = a ^ b
    both = (x[:, None] | (a & b)) & ~(1 << target)[:, None]
    return weight, _popcount(both & ~differ), _popcount(both & differ)


def _costs(weight, agree, differ):
    """Each row's CNOT count: 2 (weight - 1) per block, less 2 per agreeing
    and 1 per differing wire at each boundary."""
    return 2 * (weight.sum(axis=1) - weight.shape[1]) - 2 * agree.sum(axis=1) - differ.sum(axis=1)


def _savings(x, z, target):
    """The (P, s, s) boundary savings 2 * agree + differ of every ordered
    pair of each row's strings at its target (0 on the diagonal), from the
    masks as in ``_along``."""
    a, b = z[:, :, None], z[:, None, :]
    both = a & b
    both |= x[:, None, None]
    both &= ~(1 << target)[:, None, None]
    savings = _popcount(both)
    agree = a ^ b
    np.invert(agree, out=agree)
    agree &= both
    savings += _popcount(agree)
    s = z.shape[1]
    savings[:, np.arange(s), np.arange(s)] = 0  # a string never meets itself
    return savings


def _dp_paths(x, z, target):
    """The maximum-saving string order of each (term, target) row: the
    lexicographically smallest best path of its savings matrix
    (``_savings``, ``_max_paths``).  Savings are symmetric, so a path and
    its reversal save the same, and that path is never greater than its
    reversal.

    Rows with equal masks and target, which neighbouring encodings share
    for the terms their change does not touch, are solved once: the rows
    are sorted on (x, target, z), and each run of equal keys takes its
    first row's path.  The distinct rows' matrices are built and solved in
    chunks of at most ``_DP_ENTRIES // 8`` matrix entries.
    """
    rows, s = z.shape
    paths = np.empty((rows, s), dtype=np.int64)
    if not rows:
        return paths
    keys = np.column_stack((x, target, z))
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    fresh = np.ones(rows, dtype=bool)
    fresh[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    heads = order[fresh]
    solved = np.empty((len(heads), s), dtype=np.int64)
    chunk = max(1, _DP_ENTRIES // (8 * s * s))
    for start in range(0, len(heads), chunk):
        at = heads[start : start + chunk]
        solved[start : start + chunk] = _max_paths(_savings(x[at], z[at], target[at]))[1]
    paths[order] = solved[np.cumsum(fresh) - 1]
    return paths


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


def _frozen(occupied):
    """``occupied`` read once into a tuple (None stays None): a one-shot
    iterator then serves every plan of a call."""
    return None if occupied is None else tuple(occupied)


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
    after the current labels, C(n/2, 2) candidates, and counts each
    relabeled pool's plan (``ansatz_two_qubit_costs``) under ``config``
    with relabeling off and ``occupied`` mapped through the trial labels.
    The candidate with the lowest count is adopted if it is strictly below
    the current count (ties to the first swap in ``_pair_swap_perms``
    order), and the descent stops on the first round without one.  So the
    result's count is never above the identity's, and no single swap of it
    lowers that count.  Returns the labels.
    """
    return _descend(seqs, transform, config, _frozen(occupied))[0]


def _descend(seqs, transform, config, occupied):
    """``relabel_levels``' descent: the labels and their count."""
    n = transform.n_modes
    if n % 2:
        raise ValueError("relabeling pairs spatial orbitals; mode count must be even")
    seqs = list(seqs)
    config = replace(config, relabel=False)

    def count(labels):
        mapped, _, occ = _relabeled(seqs, [1.0] * len(seqs), occupied, labels)
        return ansatz_two_qubit_costs(mapped, transform.stack, config, occupied=occ)[0]

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
            return labels, cost
        labels, cost = best_labels, best_cost


# ---------------------------------------------------------------------------
# cross-term ordering
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TermPlacement:
    """One kept term in a class chain: its index among the kept terms, its
    string order as emitted (the dynamic program's, reversed when
    ``reverse`` is set), and its CNOT count at the class target."""

    index: int
    ordering: tuple[int, ...]
    reverse: bool
    cost: int


@dataclass(frozen=True, slots=True)
class ClassPlan:
    target: int
    placements: tuple[TermPlacement, ...]
    junction_savings: tuple[int, ...]

    @property
    def cost(self):
        return sum(p.cost for p in self.placements) - sum(self.junction_savings)


class _Order(NamedTuple):
    """``inter_order``'s placements of the kept terms under a stack of T
    encodings, as arrays.

    ``counts`` (T,) is each encoding's CNOT count of the kept terms.  A
    class (id c, ascending in the order classes are formed) has target
    ``class_target[c]``; its members are the pairs p with
    ``pair_class[p] == c``, kept term ``pair_term[p]``, listed by class and
    then by term.  ``placed`` holds, per ladder count, pair ids with each
    pair's string order and CNOT count at its class target; and
    ``chains``, per batch of classes of two or more members, their ids
    and member counts with ``_chains``' record of their seed and growth.
    """

    counts: np.ndarray
    class_target: np.ndarray
    pair_term: np.ndarray
    pair_class: np.ndarray
    placed: tuple
    chains: tuple


def _classes(eligible, n):
    """The classes of every encoding's kept terms, from their eligible masks.

    ``eligible`` is (T, K).  In every encoding at once, the wire most
    often eligible among the remaining terms (ties to the smallest wire)
    forms a class of the remaining terms eligible there, which are then
    removed, until every term is in a class.  Returns
    ``class_b`` and ``class_target`` (C,), each class's encoding and
    target, the classes of one encoding in the order they were formed;
    and ``pair_b``, ``pair_term`` and ``pair_class`` (P,), one entry per
    member, by class and then by term.
    """
    bits = (eligible[:, :, None] >> np.arange(n) & 1).astype(bool)
    remaining = eligible != 0
    parts = ([], [], [], [], [])
    n_classes = 0
    while True:
        active = np.flatnonzero(remaining.any(axis=1))
        if not len(active):
            break
        open_terms = remaining[active]
        target = (bits[active] & open_terms[:, :, None]).sum(axis=1).argmax(axis=1)
        members = open_terms & bits[active, :, target]
        remaining[active] = open_terms & ~members
        b, term = np.nonzero(members)
        for part, values in zip(parts, (active, target, active[b], term, n_classes + b)):
            part.append(values)
        n_classes += len(active)
    return [np.concatenate(part) if part else np.zeros(0, dtype=np.int64) for part in parts]


# a wire's letter features, indexed by its x bit + 2 * its z bit (I, X, Z, Y):
# whether the string acts on the wire, then one-hot X, Y and Z.  They are
# float32 so that products of them run in BLAS; every such product is a
# count of at most 2 per wire, exact in float32.
_LETTER_FEATURES = np.array(
    [[0, 0, 0, 0], [1, 1, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0]], dtype=np.float32
)


def _junctions(last, first, target):
    """The junction savings of each class's oriented members, (C, 2m, 2m) int16.

    Entry [c, a, b] is the boundary saving 2 * agree + differ, at the
    class target, of oriented member a's last string followed by oriented
    member b's first; ``last`` and ``first`` are the
    (x, z) masks, (C, 2m) each, of each oriented member's last and first
    strings.  Per wire, the dot product of two strings' letter features
    counts 1 where both act and 1 more where their letters agree, so one
    batched product of the features, with the target left out of the last
    strings', gives the matrices.
    """
    n = max(int(np.bitwise_or.reduce(np.concatenate(last + first), axis=None)).bit_length(),
            int(target.max()) + 1)
    wires = np.arange(n)
    lf, ff = (
        _LETTER_FEATURES[(x[..., None] >> wires & 1) | (z[..., None] >> wires & 1) << 1]
        for x, z in (last, first)
    )
    lf[np.arange(len(target)), :, target] = 0
    shape = (*lf.shape[:2], 4 * n)
    return (lf.reshape(shape) @ ff.reshape(shape).transpose(0, 2, 1)).astype(np.int16)


def _chains(first, last, target, members, sizes):
    """Seed and grow the chains of C classes at once.

    Class c has ``sizes[c]`` >= 2 members, the ids in the first
    ``sizes[c]`` columns of ``members`` (C, M) in class order (the other
    columns pad it to M), and target ``target[c]``.  Oriented member
    2 * j + r is member j in its order, reversed when r is 1;
    ``first`` and ``last`` are the (x, z) masks of the first and last
    strings of each oriented id 2 * id + r.  The classes' junction
    matrices (``_junctions``) are built in one pass, padded members
    reading -1 there, so they are never picked.  The seed and each growth
    step are one argmax per class over candidates laid out in the order
    of ``inter_order``'s tie rule, so each takes the first maximum; class
    c's steps after its first ``sizes[c] - 2`` change nothing.  Returns
    the savings of each chain (C,) and its record for ``_chain_order``:
    the seed's left and right oriented members and saving (C,) each, and
    each growth step's pick and saving (C, M - 2), the pick being the
    flat index 4 j + 2 end + r of the candidates, end 1 when the member
    joins after the chain.
    """
    n_cls, m = members.shape
    cls = np.arange(n_cls)
    ids = (2 * members[:, :, None] + np.arange(2)).reshape(n_cls, 2 * m)
    junction = _junctions(tuple(a[ids] for a in last), tuple(a[ids] for a in first), target)
    padded = np.arange(2 * m) >= 2 * sizes[:, None]
    junction[padded] = -1
    junction.transpose(0, 2, 1)[padded] = -1
    # the seed: (left member, right member, left reversed, right reversed)
    seed = junction.reshape(n_cls, m, 2, m, 2).transpose(0, 1, 3, 2, 4).copy()
    seed[:, np.arange(m), np.arange(m)] = -1  # savings are non-negative
    best = seed.reshape(n_cls, -1).argmax(axis=1)
    li, ri = best // (4 * m), best // 4 % m
    left, right = 2 * li + (best >> 1 & 1), 2 * ri + (best & 1)
    seed_saving = junction[cls, left, right].astype(np.int64)

    # rows[c, 0, lo] and rows[c, 1, hi]: the saving of each oriented member
    # o placed before the chain's first oriented member lo, or after its
    # last, hi.  cand[c, j, end, r] holds them for o = 2 j + r at both ends
    # of the chain, placed members -1; slots[c, end, o] is that entry's
    # flat index.  A pick 4 j + 2 end + r makes o the new end, whose row
    # is rows[c, end, o].
    rows = np.stack((junction.transpose(0, 2, 1), junction), axis=1).reshape(n_cls * 4 * m, 2 * m)
    o = np.arange(2 * m)
    slots = (cls * 4 * m)[:, None, None] + 2 * np.arange(2)[:, None] + 4 * (o >> 1) + (o & 1)
    placed = np.zeros((n_cls, 2 * m), dtype=bool)
    for j in (li, ri):
        placed.reshape(n_cls, m, 2)[cls, j] = True
    cand = np.empty(n_cls * 4 * m, dtype=np.int16)
    for end, ends in enumerate((left, right)):
        new = rows[cls * 4 * m + 2 * m * end + ends]
        new[placed] = -1
        cand[slots[:, end]] = new
    flat, quads = cand.reshape(n_cls, 4 * m), cand.reshape(n_cls * m, 4)
    picks, values = (np.zeros((n_cls, m - 2), dtype=np.int64) for _ in range(2))
    for step in range(m - 2):
        best = picks[:, step] = flat.argmax(axis=1)
        values[:, step] = flat[cls, best]
        end, member = best >> 1 & 1, cls * m + (best >> 2)
        placed.reshape(n_cls * m, 2)[member] = True
        quads[member] = -1
        new = rows[cls * 4 * m + 2 * m * end + (best >> 1 & -2) + (best & 1)]
        new[placed] = -1
        cand[slots[cls, end]] = new
    values *= np.arange(m - 2) < (sizes - 2)[:, None]
    saved = seed_saving + values.sum(axis=1)
    return saved, (left, right, seed_saving, picks, values)


def _chain_batches(size, n):
    """The classes of two or more members, largest first, in batches for
    ``_chains``: each batch pads its classes to its first class's member
    count M, and its junction matrices and the letter features they are
    built from, 2M (2M + 4n) entries per class on n wires, hold at most
    ``_DP_ENTRIES`` entries (at least one class)."""
    order = np.argsort(-size, kind="stable")
    order = order[size[order] > 1]
    batches, at = [], 0
    while at < len(order):
        m = int(size[order[at]])
        count = max(1, _DP_ENTRIES // (2 * m * (2 * m + 4 * n)))
        batches.append(order[at : at + count])
        at += count
    return batches


def _chain_order(size, left, right, saving, picks, values):
    """A chain's oriented members, first to last, and its junction savings,
    from the ``_chains`` record of one class of ``size`` members."""
    chain, savings = [left, right], [saving]
    for best, value in zip(picks[: size - 2], values):
        o = (best >> 1 & -2) | (best & 1)
        if best >> 1 & 1:
            chain.append(o)
            savings.append(value)
        else:
            chain.insert(0, o)
            savings.insert(0, value)
    return chain, savings


def inter_order(groups, kept, n, n_enc, *, reorder=True):
    """Place the kept terms under each encoding of a stack: ``_Order``.

    ``groups`` are the pool's terms under the T = ``n_enc`` encodings
    (``_expand``) and ``kept`` the pool rows that compression leaves,
    ascending.  Every term has an eligible target (see the module
    docstring), so every term joins a class.  Classes are formed around
    the most frequently eligible wire (``_classes``); this reads only the
    eligible targets.  Each member's string order is then the dynamic
    program's at its class target alone (``_dp_paths``), all members of
    all encodings of one string count in one pass.  A member is placed in
    its string order or reversed, and a junction saving is the boundary
    saving, at the class target, of one placed member's last string and
    the next one's first; each class scores all of them once, in one
    matrix (``_junctions``).  The chain is seeded with the pair of
    distinct members with the largest junction saving, then grown one
    member at a time, placed before the chain's first member or after its
    last, wherever the saving is largest (``_chains``, every class of a
    batch at once, the batch padded to its largest member count).  Ties go
    to the first strict maximum in this order: the seed runs over the left
    member, then the right member (each in class order), then the left one
    reversed or not (not first), then the right one; a growth step runs
    over the members left (in class order), then before the chain or after
    it (before first), then not reversed or reversed.  Without
    ``reorder``, each term is its own class at its first eligible target,
    strings in stored order.
    """
    where = {}
    for g, group in enumerate(groups):
        where.update((row, (g, r)) for r, row in enumerate(group.rows.tolist()))
    g_of, r_of = np.array([where[row] for row in kept], dtype=np.int64).reshape(-1, 2).T
    eligible = np.zeros((n_enc, len(kept)), dtype=np.int64)
    for g, group in enumerate(groups):
        at = np.flatnonzero(g_of == g)
        eligible[:, at] = group.eligible[:, r_of[at]]
    if reorder:
        class_b, class_target, pair_b, pair_term, pair_class = _classes(eligible, n)
    else:
        pair_b, pair_term = np.nonzero(eligible)
        pair_class = np.arange(len(pair_b))
        low = eligible[pair_b, pair_term]
        class_b, class_target = pair_b, _popcount((low & -low) - 1)
    pair_target = class_target[pair_class]

    counts = np.zeros(n_enc, dtype=np.int64)
    x_of, head, tail = (np.zeros(len(pair_b), dtype=np.int64) for _ in range(3))
    placed = []
    for g, group in enumerate(groups):
        at = np.flatnonzero(g_of[pair_term] == g)
        if not len(at):
            continue
        b, r, target = pair_b[at], r_of[pair_term[at]], pair_target[at]
        x, z = group.x[b, r], group.z[b, r]
        if reorder:
            path = _dp_paths(x, z, target)
        else:
            path = np.broadcast_to(np.arange(z.shape[1]), z.shape)
        cost = _costs(*_along(x, z, path, target))
        np.add.at(counts, b, cost)
        rows = np.arange(len(at))
        x_of[at], head[at], tail[at] = x, z[rows, path[:, 0]], z[rows, path[:, -1]]
        placed.append((at, path, cost))

    chains = []
    if reorder and len(pair_class):
        # oriented id 2 p + r: pair p in its order, reversed when r is 1
        x2 = x_of.repeat(2)
        first = (x2, np.stack((head, tail), axis=1).ravel())
        last = (x2, np.stack((tail, head), axis=1).ravel())
        size = np.bincount(pair_class)
        start = np.cumsum(size) - size
        for cls in _chain_batches(size, n):
            m = int(size[cls[0]])
            members = start[cls, None] + np.minimum(np.arange(m), size[cls, None] - 1)
            saved, record = _chains(first, last, class_target[cls], members, size[cls])
            np.add.at(counts, class_b[cls], -saved)
            chains.append((cls, size[cls], *record))
    return _Order(counts, class_target, pair_term, pair_class, tuple(placed), tuple(chains))


def _class_plans(order):
    """The ClassPlans of ``order``, the placements of a stack of one, in
    the order the classes were formed."""
    choices = {}
    for ids, paths, costs in order.placed:
        choices.update(zip(ids.tolist(), zip(map(tuple, paths.tolist()), costs.tolist())))
    terms = order.pair_term.tolist()

    def place(p, reverse=False):
        path, cost = choices[p]
        return TermPlacement(terms[p], path[::-1] if reverse else path, reverse, cost)

    records = {}
    for cls, *record in order.chains:
        for c, *fields in zip(cls.tolist(), *(part.tolist() for part in record)):
            records[c] = fields
    members = {}
    for p, c in enumerate(order.pair_class.tolist()):
        members.setdefault(c, []).append(p)
    classes = []
    for c, pairs in members.items():
        if c in records:
            chain, savings = _chain_order(*records[c])
            placements = tuple(place(pairs[o >> 1], bool(o & 1)) for o in chain)
        else:
            placements, savings = (place(pairs[0]),), ()
        classes.append(ClassPlan(int(order.class_target[c]), placements, tuple(savings)))
    return tuple(classes)


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


def _pair_split(seqs, occupied):
    """``bosonic_reduce``'s split of a pool of excitations (None for a term
    without one): the kept rows, (row, plus pair, minus pair) of each
    compressed one, and the touched pairs, ascending.  It reads only the
    excitations and ``occupied``, so it holds under every encoding."""
    occ = None if occupied is None else set(occupied)
    kept, compressed, touched = [], [], set()
    for i, seq in enumerate(seqs):
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
        compressed.append((i, plus, minus))
        touched.update((plus, minus))
    return tuple(kept), compressed, tuple(sorted(touched))


def bosonic_reduce(terms, *, occupied=None):
    """Split terms into compressible paired doubles and everything else.

    A double excitation compresses when its creations fill one orbital pair
    (2l, 2l+1) and its annihilations another; a reference occupation (when
    given) must fill or empty each such pair entirely, otherwise the term
    is kept uncompressed (``_pair_split``).  Returns a BosonicSplit with
    term indices preserved.
    """
    if not terms:
        return BosonicSplit((), (), ())
    if terms[0].n_qubits % 2:
        raise ValueError("orbital pairing needs an even number of modes")
    return _bosonic_split(_pair_split([term.source for term in terms], occupied), terms)


def _bosonic_split(split, terms):
    """The BosonicSplit of ``_pair_split``'s ``split`` of ``terms``."""
    kept, compressed, touched = split
    return BosonicSplit(
        tuple(
            CompressedTerm(terms[i].source, terms[i].theta, plus, minus, terms[i].anti)
            for i, plus, minus in compressed
        ),
        kept,
        touched,
    )


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
    """Planner output: the class chains, their two-qubit accounting, and the circuit.

    ``classes`` chain every kept term, each at its class's target.
    ``circuit`` stays None until the plan is emitted.  The circuit runs the
    source terms in ``order``: compressed terms, then the class chains.
    """

    n_qubits: int
    labels: tuple[int, ...]
    terms: tuple[TrotterTerm, ...]
    kept: tuple[int, ...]
    classes: tuple[ClassPlan, ...]
    compressed: tuple[CompressedTerm, ...]
    touched_pairs: tuple[int, ...]
    model_two_qubit: int
    circuit: Circuit | None = None

    @property
    def order(self):
        """Source-term indices in the order the circuit runs them."""
        kept = set(self.kept)
        return tuple(i for i in range(len(self.terms)) if i not in kept) + tuple(
            self.kept[p.index] for cls in self.classes for p in cls.placements
        )


def _plan_arrays(seqs, encodings, config, occupied, pool):
    """The planner on one pool under a stack of encodings
    (``EncodingStack``), relabeling aside: ``(split, groups, order, counts)``, with ``pool`` the pool's
    Jordan-Wigner products (``_jw_pool``), ``split`` as ``_pair_split``'s
    (every row kept when compression is off) and ``counts`` (T,) each
    encoding's ``model_two_qubit``.

    Compression (``_pair_split``) reads only the excitations and
    ``occupied``, so it runs once for the stack; expansion
    (``_expand``) and ordering (``inter_order``) each run once over all
    encodings.
    """
    n = encodings.n_modes
    if config.bosonic and n % 2 == 0:
        split = _pair_split(seqs, occupied)
    else:
        split = (tuple(range(len(seqs))), (), ())
    kept, compressed, touched = split
    groups = _expand(pool, encodings, anti=config.anti)
    order = inter_order(groups, kept, n, len(encodings), reorder=config.reorder)
    counts = order.counts + CompressedTerm.two_qubit_cost * len(compressed) + len(touched)
    return split, groups, order, counts


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
    The passes are the swarm's (``ansatz_two_qubit_costs``) on a stack of
    one encoding (``_plan_arrays``); only then are the terms, strings and
    class chains built from their arrays.  ``model_two_qubit`` is the additive
    accounting; the emitted circuit's metrics may only undercut it.  No
    circuit is built.
    """
    seqs, occupied = list(seqs), _frozen(occupied)
    n = transform.n_modes
    if angles is None:
        angles = [1.0] * len(seqs)
    if len(angles) != len(seqs):
        raise ValueError("angles and sequences differ in length")

    labels = tuple(range(n))
    if config.relabel:
        labels = relabel_levels(seqs, transform, config, occupied=occupied)
        seqs, angles, occupied = _relabeled(seqs, angles, occupied, labels)

    split, groups, order, counts = _plan_arrays(
        seqs, transform.stack, config, occupied, _jw_pool(seqs, n)
    )
    terms = _terms(seqs, angles, groups, n, config.anti)
    split = _bosonic_split(split, terms)
    return AnsatzPlan(
        n_qubits=n,
        labels=labels,
        terms=terms,
        kept=split.kept,
        classes=_class_plans(order),
        compressed=split.compressed,
        touched_pairs=split.touched_pairs,
        model_two_qubit=int(counts[0]),
    )


def emit_circuit(plan):
    """The circuit of a plan, in ``plan.order``.

    The prefix leads: the compressed blocks, then the restoration fan-out,
    reduced by one ``peephole_cancel`` call, which on water halves its
    gates and keeps its CNOTs.  Then comes one block per class chain,
    every term at its class's target.  Each chain's strings, in placement
    order, are emitted at once (``_emit_chain``) with every saving that
    ``plan.model_two_qubit`` counts taken, at junctions between terms as
    inside them, in the form ``peephole_cancel`` leaves them, at any
    angles (strings folding to 0 are dropped first), so each chain is
    appended as it is emitted.  Compressed blocks act in the Jordan-Wigner
    frame and kept terms in the transform's, and no basis change is
    emitted between the two: under a non-identity encoding with compressed
    terms the circuit is not yet the ansatz.
    """
    n = plan.n_qubits
    # every part is built on the plan's n wires, so its gates are appended unchecked
    prefix = Circuit(n)
    for cterm in plan.compressed:
        prefix.gates += compressed_circuit(cterm, n).gates
    prefix.gates += restoration_circuit(plan.touched_pairs, n).gates
    circ = peephole_cancel(prefix)
    for cls in plan.classes:
        chain = []
        for p in cls.placements:
            chain += _rotations(plan.terms[plan.kept[p.index]], p.ordering)
        gates, phase = _emit_chain(chain, cls.target, n)
        circ.gates += gates
        circ.global_phase *= phase
    return circ


def synthesize_ansatz(seqs, transform, angles=None, config=HeuristicConfig(), *, occupied=None):
    """``plan_ansatz`` followed by ``emit_circuit``: the plan with its circuit."""
    plan = plan_ansatz(seqs, transform, angles, config, occupied=occupied)
    plan.circuit = emit_circuit(plan)
    return plan


def ansatz_two_qubit_costs(seqs, encodings, config=HeuristicConfig(), *, occupied=None):
    """The planner's two-qubit count of one pool under each encoding of
    ``encodings``, without building a term, a string or a circuit.

    ``encodings`` is an ``EncodingStack``, such as the swarm builds from
    its bit masks, or a sequence of ``Transform``s of one width, read into
    one stack here.  The pool's Jordan-Wigner products are taken once, and
    the encodings are planned together (``_plan_arrays``) in chunks of
    rows of at most ``_DP_ENTRIES`` string products, each chunk's frame
    tables built for it alone (``EncodingStack.tables``).  Each count
    equals ``plan_ansatz``'s ``model_two_qubit`` for that encoding,
    whatever the other encodings and their order.  With
    ``config.relabel``, each encoding's relabeling descent runs in turn
    (``ansatz_two_qubit_cost``).  Nothing is kept between calls.
    """
    seqs, occupied = list(seqs), _frozen(occupied)
    encodings = EncodingStack.of(encodings)
    if config.relabel:
        return [ansatz_two_qubit_cost(seqs, t, config, occupied=occupied) for t in encodings]
    if not len(encodings):
        return []
    pool = _jw_pool(seqs, encodings.n_modes)
    size = max(1, _DP_ENTRIES // max(1, sum(z.size for _, _, z, _, _ in pool)))
    counts = []
    for start in range(0, len(encodings), size):
        part = encodings[start : start + size]
        counts += _plan_arrays(seqs, part, config, occupied, pool)[3].tolist()
    return counts


def ansatz_two_qubit_cost(seqs, transform, config=HeuristicConfig(), *, occupied=None):
    """The planner's two-qubit count under one encoding, without circuit
    emission: ``ansatz_two_qubit_costs`` of its stack of one, or with
    ``config.relabel`` the count of the labels its descent ends on."""
    if config.relabel:
        return _descend(seqs, transform, config, _frozen(occupied))[1]
    return ansatz_two_qubit_costs(seqs, transform.stack, config, occupied=occupied)[0]


def plan_report(plan):
    """JSON-ready description of an AnsatzPlan; circuit metrics once emitted."""
    kept_terms = [plan.terms[i] for i in plan.kept]
    classes = []
    for cls in plan.classes:
        classes.append(
            {
                "target": cls.target,
                "members": [
                    {
                        "term": _term_name(kept_terms[p.index]),
                        "ordering": list(p.ordering),
                        "reversed": p.reverse,
                        "cost": p.cost,
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
