"""Trotter-step synthesis and two-qubit-count reduction heuristics.

A fermionic excitation term is expanded into a set of commuting Pauli
rotations, each synthesized as a basis-change + CNOT-ladder + Rz block.
Adjacent blocks that share a ladder target cancel gates at their boundary,
so the total two-qubit count depends on the string ordering, the choice of
target wire, the labeling of fermion levels, and whether spatially paired
excitations are compressed onto half the register.  This module provides:

- product-formula sequencing (first order, and the recursive even orders),
- ``expand_term``: excitation -> rotation list under a chosen transform,
  with T's 2^k string products enumerated on the transform's ladder masks
  with an integer power of i each (no complex arithmetic and no merge; T+
  is the conjugate on the same strings), and the strings sorted on mask
  keys,
- ``term_circuit``: circuit emission through one block emitter that
  reads each string's letters from its masks and appends shared,
  already-validated H / S / Sdg / CNOT gates
  (``circuits.shared_gate``); only the Rz of each rotation is built per
  angle, no gate is re-validated on its way into the circuit, and the
  gates that cancel at a boundary between a term's blocks are never
  emitted,
- ``intra_order``: per-term string order for each ladder target, by
  dynamic programming over an exact additive cost model (a Held-Karp pass
  in numpy, batched over (term, target) pairs, that visits only the valid
  (visited mask, last node, next node) triples, one gather-add and one
  group max per popcount layer),
- ``relabel_levels``: greedy level-relabeling over pair-swap permutations,
- ``inter_order``: greedy cross-term concatenation by shared target; classes
  are formed from the eligible targets first, so the dynamic program runs
  only at each term's class target, for all terms in one batch,
- ``bosonic_reduce``: compression of spatially paired double excitations
  onto one wire per orbital pair (pair l on wire 2l), plus the restoration
  network; a compressed term is the closed-form two-wire hop of
  ``CompressedTerm``, built from the excitation's pair indices and angle
  alone, with no cache and no Jordan-Wigner re-expansion,
- ``plan_ansatz``: the one planner (relabel, expand, compress, order) and
  its two-qubit count; the swarm's cost function
  (``ansatz_two_qubit_cost``) reads that count,
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

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .circuits import Circuit, Gate, metrics, peephole_cancel, shared_gate
from .fermions import OrbitalSequence
from .paulis import PauliString, word_key


# ---------------------------------------------------------------------------
# product-formula sequencing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PFConfig:
    """Product-formula shape: expansion order and repetition count."""

    order: int = 1
    steps: int = 1

    def __post_init__(self):
        if self.order != 1 and (self.order < 2 or self.order % 2):
            raise ValueError(f"order must be 1 or an even integer, got {self.order}")
        if self.steps < 1:
            raise ValueError(f"steps must be positive, got {self.steps}")


def suzuki_coefficient(k):
    """Recursive splitting coefficient p_k = 1 / (4 - 4^(1/(2k-1)))."""
    if k < 2:
        raise ValueError("the splitting coefficient is defined for k >= 2")
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))


def _suzuki(pairs, order):
    if order == 1:
        return list(pairs)
    if order == 2:
        half = [(label, angle / 2.0) for label, angle in pairs]
        return half + half[::-1]
    p = suzuki_coefficient(order // 2)
    outer = _suzuki([(l, a * p) for l, a in pairs], order - 2)
    middle = _suzuki([(l, a * (1.0 - 4.0 * p)) for l, a in pairs], order - 2)
    return outer + outer + middle + outer + outer


def pf_sequence(pairs, config=PFConfig()):
    """Flatten (label, angle) pairs into one product-formula pass.

    Each input angle is divided by ``config.steps``, expanded at
    ``config.order``, and the resulting block is repeated ``steps`` times.
    Labels are passed through untouched, so callers may sequence Pauli
    strings, excitation names, or any other handle.
    """
    pairs = list(pairs)
    step = [(label, angle / config.steps) for label, angle in pairs]
    block = _suzuki(step, config.order)
    return block * config.steps


# ---------------------------------------------------------------------------
# excitation expansion
# ---------------------------------------------------------------------------

_PLUS, _MINUS = complex(1.0), complex(-1.0)

# Four-letter rotation sets are listed in this fixed x/y-word order (as z
# bits on the x/y wires, X = 0, Y = 1); any other shape falls back to
# lexicographic word order.
_CANONICAL_WORDS = {
    tuple(int(letter == "Y") for letter in word): rank
    for rank, word in enumerate(
        ("XXXX", "XXYY", "XYYX", "XYXY", "YYXX", "YXXY", "YXYX", "YYYY")
    )
}


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


def _canonical_string_order(strings):
    n = strings[0].n_qubits
    xy = strings[0].xmask
    for s in strings:
        xy &= s.xmask
    wires = [q for q in range(n) if xy >> q & 1]

    def rank(s):
        word = tuple(s.zmask >> q & 1 for q in wires)
        return (_CANONICAL_WORDS.get(word, len(_CANONICAL_WORDS)), word, word_key(n, s.xmask, s.zmask))

    return tuple(sorted(strings, key=rank))


def expand_term(seq, transform, theta=1.0, *, anti=False):
    """Expand one excitation under ``transform`` into a TrotterTerm.

    Two-body sequences produce exactly eight strings and one-body sequences
    exactly two; eligibility keeps the fermion-label wires whose letter is
    non-identity in every string.

    T = a+... a... is enumerated as its 2^k string products on the
    transform's ladder strings (``Transform.ladder_strings``), each with an
    integer power of i; no complex number is formed.  A product is carried
    as i^f X^x Z^z, so multiplying by i^f' X^x' Z^z' adds f' and twice
    |z & x'| to f; every ladder of one mode shares its x, so x is common to
    all products.  The products never merge: the two strings of mode j
    differ by z = row j of beta^-1, and the modes are distinct rows of an
    invertible matrix, so the 2^k z masks are distinct (checked).  As
    every coefficient is i^e / 2^k and every string is Hermitian, T+ has
    the conjugate coefficient on the same string: T + T+ keeps the even
    e with magnitude 2 / 2^k (sign + for e = 0) and T - T+ the odd e with
    magnitude 4 / 2^k (sign + for e = 3, the rotation angle being the
    negated imaginary part).  No coefficient is ever summed, so the kept
    strings are exactly hermitian (or anti-hermitian) and of one magnitude.
    """
    n = transform.n_modes
    ladders = transform.ladder_strings
    ops = [(mode, 1) for mode in seq.creations()] + [(mode, 0) for mode in seq.annihilations()]
    x = 0
    # partial products i^f X^x Z^z as (z, f mod 4); x is shared by all
    prods = [(0, 0)]
    for mode, dagger in ops:
        if not 0 <= mode < n:
            raise ValueError(f"mode {mode} out of range")
        (xl, zp, ep), (_, zr, er) = ladders[mode][dagger]
        # each ladder string i^e P(x, z) in the X^x Z^z form: Y = iXZ
        steps = ((zp, ep + (xl & zp).bit_count()), (zr, er + (xl & zr).bit_count()))
        prods = [
            (z ^ zl, (f + fl + 2 * (z & xl).bit_count()) & 3)
            for z, f in prods
            for zl, fl in steps
        ]
        x ^= xl
    if len({z for z, _ in prods}) != len(prods):
        raise ValueError(f"{seq.name}: ladder products collide")

    parity, plus = (1, 3) if anti else (0, 0)
    signed = []
    for z, f in prods:
        e = (f - (x & z).bit_count()) & 3
        if e & 1 == parity:
            signed.append(PauliString(n, x, z, _PLUS if e == plus else _MINUS))
    expected = 8 if seq.kind == "double" else 2
    if len(signed) != expected:
        raise ValueError(
            f"{seq.name} expanded to {len(signed)} strings, expected {expected}"
        )
    mag = (4.0 if anti else 2.0) / len(prods)

    ordered = _canonical_string_order(signed)
    support = ordered[0].xmask | ordered[0].zmask
    for s in ordered:
        support &= s.xmask | s.zmask
    eligible = tuple(t for t in sorted(set(seq.indices)) if support >> t & 1)
    return TrotterTerm(
        source=seq,
        n_qubits=n,
        theta=theta,
        angle=theta * mag,
        strings=ordered,
        eligible_targets=eligible,
        anti=anti,
    )


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
        return sum(2 * (n - 1) for n in self.letter_counts)

    @property
    def saved(self):
        return sum(2 * m + n for m, n in zip(self.two_cnot_savings, self.one_cnot_savings))

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


@dataclass(frozen=True, slots=True)
class IntraResult:
    """Per-target optima and the cheapest count over targets."""

    per_target: dict[int, IntraChoice]
    min_cost: int


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


def _savings_matrix(strings, target):
    k = len(strings)
    mat = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            agree, differ = _boundary_wires(strings[i], strings[j], target)
            mat[i][j] = mat[j][i] = 2 * agree.bit_count() + differ.bit_count()
    return mat


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


# Savings matrices solved together in one Held-Karp pass; bounds the pass's
# working set at 16 * 2^k * k table entries plus one popcount layer's
# gathered triples, 16 * C(k, p) * p * (k - p) at most.
_DP_CHUNK = 16


@lru_cache(maxsize=None)
def _dp_triples(k):
    """Held-Karp sweep over k nodes: the valid (mask, last, next) triples of
    each popcount layer p = k-1 .. 1, with ``last`` in and ``next`` out of
    ``mask``, as flat row indices.

    Each entry holds the rows written, ``mask * k + last``; the savings rows,
    ``last * k + next``; the table rows, ``(mask | 1 << next) * k + next``;
    and the group width ``k - p``.  Triples run mask, last, next ascending,
    so each (mask, last) group is ``k - p`` consecutive rows.
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
                    sav.extend(last * k + nxt for nxt in free)
                    tab.extend((mask | 1 << nxt) * k + nxt for nxt in free)
        layers.append((np.array(rows), np.array(sav), np.array(tab), k - p))
    return tuple(layers)


def _held_karp(savings):
    """Maximum-weight Hamiltonian paths of a (C, k, k) non-negative int32 stack.

    ``f[mask * k + last, c]`` holds the best suffix weight from ``last``
    with ``mask`` already visited (0 when no move is left); each layer is one
    gather-add over its valid triples and one max per (mask, last) group, with
    the batch innermost.  Savings are non-negative, so no move is masked out
    and no weight is floored at 0.  Each path is rebuilt greedily: at every
    step the smallest unvisited node that attains the optimum, the first
    argmax of its group.
    """
    c, k, _ = savings.shape
    gain = np.ascontiguousarray(savings.reshape(c, k * k).T)
    f = np.zeros(((1 << k) * k, c), dtype=np.int32)
    for rows, sav, tab, width in _dp_triples(k):
        cand = np.take(gain, sav, axis=0)
        cand += np.take(f, tab, axis=0)
        f[rows] = cand.reshape(-1, width, c).max(axis=1)

    nodes = np.arange(k)[:, None]
    cols = np.arange(c)
    weight = f[(1 << nodes) * k + nodes, cols].max(axis=0)
    mask = np.zeros(c, dtype=np.int64)
    step_gain = np.zeros((k, c), dtype=np.int32)
    path = np.empty((k, c), dtype=np.int64)
    for step in range(k):
        reach = mask | 1 << nodes
        cand = step_gain + f[reach * k + nodes, cols]
        cand[reach == mask] = -1  # visited: below every real candidate
        v = cand.argmax(axis=0)
        path[step] = v
        mask |= 1 << v
        step_gain = gain[v * k + nodes, cols]
    return list(zip(weight.tolist(), map(tuple, path.T.tolist())))


def _max_paths(matrices):
    """(weight, path) of each non-negative integer matrix; sizes may mix.

    The path is the lexicographically smallest maximum-weight Hamiltonian
    path.  Matrices of one size are solved ``_DP_CHUNK`` at a time, in int32;
    a negative entry, or a k x k matrix whose (k - 1) * max entry reaches
    2**31 (a path weight could overflow), raises ValueError.  Boundary
    savings are at most twice the register width per step.
    """
    out = [None] * len(matrices)
    by_size = {}
    for idx, mat in enumerate(matrices):
        by_size.setdefault(len(mat), []).append(idx)
    for k, idxs in by_size.items():
        for start in range(0, len(idxs), _DP_CHUNK):
            chunk = idxs[start : start + _DP_CHUNK]
            stack = np.array([matrices[i] for i in chunk], dtype=np.int64)
            if stack.min() < 0:
                raise ValueError("savings matrices must be non-negative")
            if (k - 1) * int(stack.max()) >= 2**31:
                raise ValueError(f"a {k} x {k} savings matrix's path weight may overflow int32")
            for i, result in zip(chunk, _held_karp(stack.astype(np.int32))):
                out[i] = result
    return out


def _dp_choices(pairs):
    """The maximum-saving IntraChoice of each (term, target) pair.

    Of a path and its reversal (equal savings), the lexicographically
    smaller ordering is kept.
    """
    solved = _max_paths([_savings_matrix(term.strings, target) for term, target in pairs])
    choices = []
    for (term, target), (_, path) in zip(pairs, solved):
        if path[::-1] < path:
            path = path[::-1]
        choices.append(IntraChoice(path, target, cost_breakdown(term, path, target)))
    return choices


def intra_order(term):
    """Optimize string order for each eligible ladder target of one term.

    Each target's ordering is the maximum-saving path over boundary savings
    (dynamic programming); ``min_cost`` is the cheapest target's count, or
    the per-string-target fallback when no wire is eligible.
    """
    if not term.eligible_targets:
        return IntraResult({}, _fallback_choice(term).cost)
    choices = _dp_choices([(term, t) for t in term.eligible_targets])
    return IntraResult(dict(zip(term.eligible_targets, choices)), min(c.cost for c in choices))


def term_min_cost(term):
    """Cheapest CNOT count over eligible targets (additive model)."""
    return intra_order(term).min_cost


# ---------------------------------------------------------------------------
# level relabeling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LabelingState:
    """Result of greedy relabeling: mode permutation, cost, round count."""

    labels: tuple[int, ...]
    cost: int
    rounds: int


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


def _pair_swap_perms(n_spatial, k):
    """Mode permutations made of 1..k disjoint orbital-pair transpositions."""
    transpositions = list(combinations(range(n_spatial), 2))
    perms = []
    for count in range(1, k + 1):
        for chosen in combinations(transpositions, count):
            flat = [x for pair in chosen for x in pair]
            if len(set(flat)) != len(flat):
                continue
            spatial = list(range(n_spatial))
            for a, b in chosen:
                spatial[a], spatial[b] = spatial[b], spatial[a]
            mode = [0] * (2 * n_spatial)
            for l, m in enumerate(spatial):
                mode[2 * l] = 2 * m
                mode[2 * l + 1] = 2 * m + 1
            perms.append(tuple(mode))
    return perms


def _labeling_cost(seqs, transform, labels, *, anti, memo):
    total = 0
    for seq in seqs:
        mapped, _ = permute_sequence(seq, labels)
        key = (mapped.kind, mapped.indices)
        cost = memo.get(key)
        if cost is None:
            cost = term_min_cost(expand_term(mapped, transform, anti=anti))
            memo[key] = cost
        total += cost
    return total


def relabel_levels(seqs, transform, *, anti=False, memo=None):
    """Greedy pair-swap relabeling that lowers the summed per-term cost.

    Each round scores every permutation of one or two disjoint orbital-pair
    transpositions applied to the current labeling and adopts the best
    strict improvement; the search stops on the first round with no
    improvement.
    """
    n = transform.n_modes
    if n % 2:
        raise ValueError("relabeling pairs spatial orbitals; mode count must be even")
    memo = {} if memo is None else memo
    candidates = _pair_swap_perms(n // 2, 2)
    labels = tuple(range(n))
    cost = _labeling_cost(seqs, transform, labels, anti=anti, memo=memo)
    rounds = 0
    while True:
        rounds += 1
        best_cost, best_labels = cost, None
        for perm in candidates:
            trial = tuple(perm[labels[i]] for i in range(n))
            trial_cost = _labeling_cost(seqs, transform, trial, anti=anti, memo=memo)
            if trial_cost < best_cost:
                best_cost, best_labels = trial_cost, trial
        if best_labels is None:
            return LabelingState(labels, cost, rounds)
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
    batch.  Within a class the chain is seeded with the best scoring
    oriented pair, then grown one term at a time, trying prefix/suffix
    placement of the original or reversed per-term ordering and keeping the
    best boundary saving (ties resolved in enumeration order).
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


def _chain_class(terms, choices, members, target):
    if len(members) == 1:
        return ClassPlan(target, (TermPlacement(members[0], choices[members[0]]),), ())

    # (member, reverse) -> its (first, last) string as (x, z, support off target)
    keep = ~(1 << target)
    edges = {}
    for i in members:
        ordering = choices[i].ordering
        head, tail = (
            (s.xmask, s.zmask, (s.xmask | s.zmask) & keep)
            for s in (terms[i].strings[ordering[0]], terms[i].strings[ordering[-1]])
        )
        edges[i, False] = (head, tail)
        edges[i, True] = (tail, head)

    def junction(left, right):
        # _boundary_saving of left's last string and right's first, as 2 * two + one
        ax, az, asup = edges[left][1]
        bx, bz, bsup = edges[right][0]
        both = asup & bsup
        diff = both & ((ax ^ bx) | (az ^ bz))
        return 2 * both.bit_count() - diff.bit_count()

    best = None
    for i in members:
        for j in members:
            if i == j:
                continue
            for a in ((i, False), (i, True)):
                for b in ((j, False), (j, True)):
                    value = junction(a, b)
                    if best is None or value > best[0]:
                        best = (value, a, b)
    value, left, right = best
    chain = [left, right]
    savings = [value]
    used = {left[0], right[0]}

    while len(used) < len(members):
        pick = None
        for i in members:
            if i in used:
                continue
            for prefix in (True, False):
                for cand in ((i, False), (i, True)):
                    value = junction(cand, chain[0]) if prefix else junction(chain[-1], cand)
                    if pick is None or value > pick[0]:
                        pick = (value, cand, prefix)
        value, cand, prefix = pick
        if prefix:
            chain.insert(0, cand)
            savings.insert(0, value)
        else:
            chain.append(cand)
            savings.append(value)
        used.add(cand[0])
    placements = tuple(TermPlacement(i, choices[i], reverse) for i, reverse in chain)
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
    paired-double compression, and ``relabel`` the pair-swap relabeling
    (``relabel_levels``).  ``anti`` expands each
    term as exp(theta * (T - T+)) rather than exp(-i theta / 2 (T + T+)).
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
    its stored string order at its first eligible target).
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
        labels = relabel_levels(seqs, transform, anti=config.anti).labels
        relabeled = [permute_sequence(seq, labels) for seq in seqs]
        seqs = [mapped for mapped, _ in relabeled]
        angles = [sign * theta for (_, sign), theta in zip(relabeled, angles)]

    terms = tuple(
        expand_term(seq, transform, theta, anti=config.anti) for seq, theta in zip(seqs, angles)
    )

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
