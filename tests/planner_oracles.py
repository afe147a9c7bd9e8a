"""Reference implementations of the planner in ``fqcc.trotter``.

``expand_term_reference``, ``dp_choices_reference``,
``chain_class_reference`` and ``plan_ansatz_reference`` keep the planner
as it ran on Python ints: one expansion per term, each savings matrix
filled pair by pair, and one junction per oriented pair tried.
``plan_per_encoding`` keeps the array planner as it ran before it was
batched over encodings: one pool expansion per encoding, terms and
strings built first, then each stage on their masks, and
``plan_count_per_encoding`` is its count, the reference of the swarm's
batched cost.  ``cost_breakdown``, ``model_cost`` and ``unchained``
recount a term's accounting from its strings, as the planner once did.
A ``Choice`` is one term's string order and CNOT count at one target, and
``placement`` puts it in a chain.  ``emit_circuit_reference`` keeps the
emitter as it ran before each chain was emitted at the peephole's
fixpoint: whole blocks at the junctions, each chain reduced by
``peephole_cancel``, after the prefix (``prefix_reference``) reduced as
the emitter reduces it.

They live apart from ``oracles``, which the benchmark's HMP2 workload
imports for its FCI reference: a process that imports a module without
cached bytecode compiles it, and the compiler's memory counts in that
process's peak.
"""

from typing import NamedTuple

import numpy as np

from oracles import ladder_strings


class Choice(NamedTuple):
    """One term's string order at one target and its CNOT count there."""

    ordering: tuple
    cost: int


def placement(index, choice, reverse=False):
    """The ``TermPlacement`` of kept term ``index`` placed in ``choice``'s
    string order, reversed when ``reverse`` is set."""
    from fqcc.trotter import TermPlacement

    ordering = choice.ordering[::-1] if reverse else choice.ordering
    return TermPlacement(index, ordering, reverse, choice.cost)


# ---------------------------------------------------------------------------
# the planner as it ran on Python ints, one term and one pair at a time
# ---------------------------------------------------------------------------

# x/y words of four-letter rotation sets in canonical order, as z bits on the
# x/y wires (X = 0, Y = 1)
_CANONICAL_ZWORDS = {
    tuple(int(letter == "Y") for letter in word): rank
    for rank, word in enumerate(
        ("XXXX", "XXYY", "XYYX", "XYXY", "YYXX", "YXXY", "YXYX", "YYYY")
    )
}


def expand_term_reference(seq, transform, theta=1.0, *, anti=False):
    """``trotter.expand_term`` one excitation at a time on Python ints.

    The 2^k products of the transform's ladder strings
    (``ladder_strings``) are built as (z, power of i) pairs, x
    shared; the kept strings are sorted by canonical word rank, then word,
    then ``word_key``.
    """
    from fqcc.paulis import PauliString, word_key
    from fqcc.trotter import TrotterTerm

    n = transform.n_modes
    ladders = ladder_strings(transform)
    ops = [(mode, 1) for mode in seq.creations()] + [(mode, 0) for mode in seq.annihilations()]
    x = 0
    prods = [(0, 0)]
    for mode, dagger in ops:
        if not 0 <= mode < n:
            raise ValueError(f"mode {mode} out of range")
        (xl, zp, ep), (_, zr, er) = ladders[mode][dagger]
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
            signed.append(PauliString(n, x, z, complex(1.0) if e == plus else complex(-1.0)))
    expected = 8 if seq.kind == "double" else 2
    if len(signed) != expected:
        raise ValueError(f"{seq.name} expanded to {len(signed)} strings, expected {expected}")
    mag = (4.0 if anti else 2.0) / len(prods)

    wires = [q for q in range(n) if x >> q & 1]

    def rank(s):
        word = tuple(s.zmask >> q & 1 for q in wires)
        rank = _CANONICAL_ZWORDS.get(word, len(_CANONICAL_ZWORDS))
        return rank, word, word_key(n, s.xmask, s.zmask)

    ordered = tuple(sorted(signed, key=rank))
    support = ordered[0].xmask | ordered[0].zmask
    for s in ordered:
        support &= s.xmask | s.zmask
    eligible = tuple(t for t in sorted(set(seq.indices)) if support >> t & 1)
    return TrotterTerm(seq, n, theta, theta * mag, ordered, eligible, anti)


def boundary_wires(first, second, target):
    """(agree, differ): masks of the wires other than ``target`` where both
    strings act, with the same letter or with different ones.

    The model saves two CNOTs on each ``agree`` wire and one on each
    ``differ`` wire, and the emitter (``trotter._emit_chain``) takes both
    savings.
    """
    both = (first.xmask | first.zmask) & (second.xmask | second.zmask) & ~(1 << target)
    diff = (first.xmask ^ second.xmask) | (first.zmask ^ second.zmask)
    return both & ~diff, both & diff


def savings_matrix_reference(strings, target):
    """Boundary savings 2 * two + one of every string pair, pair by pair."""
    k = len(strings)
    mat = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            agree, differ = boundary_wires(strings[i], strings[j], target)
            mat[i][j] = mat[j][i] = 2 * agree.bit_count() + differ.bit_count()
    return mat


def dp_choices_reference(pairs):
    """``trotter._dp_choices`` with each savings matrix filled pair by pair
    and each count recounted by ``model_cost``."""
    solved = max_paths_list(
        [savings_matrix_reference(term.strings, target) for term, target in pairs]
    )
    choices = []
    for (term, target), (_, path) in zip(pairs, solved):
        if path[::-1] < path:
            path = path[::-1]
        choices.append(Choice(path, model_cost(term, path, target)))
    return choices


def chain_class_reference(terms, choices, members, target):
    """``trotter._chain_class`` scoring one junction per oriented pair it
    tries: the seed scans every oriented pair, each growth step every
    remaining member at both ends, and the first strict maximum wins."""
    from fqcc.trotter import ClassPlan

    if len(members) == 1:
        return ClassPlan(target, (placement(members[0], choices[members[0]]),), ())

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
    placements = tuple(placement(i, choices[i], reverse) for i, reverse in chain)
    return ClassPlan(target, placements, tuple(savings))


def inter_order_reference(terms):
    """``trotter.inter_order``'s class chains on ``dp_choices_reference``
    and ``chain_class_reference``."""
    groups = _classes_of(terms)
    choices = iter(dp_choices_reference([(terms[i], t) for t, members in groups for i in members]))
    return tuple(
        chain_class_reference(terms, {i: next(choices) for i in members}, members, target)
        for target, members in groups
    )


def plan_ansatz_reference(seqs, transform, config=None, *, occupied=None, labels=None):
    """``trotter.plan_ansatz`` at unit angles on the reference routines
    above: one expansion per term, pair-by-pair savings matrices and
    junctions.  Compression is ``trotter``'s own.  No labeling is
    searched: given ``labels``, the pool and ``occupied`` are relabeled by
    them as a relabeled plan's are, and ``config.relabel`` is ignored."""
    from fqcc import trotter as tr

    config = tr.HeuristicConfig() if config is None else config
    seqs = list(seqs)
    n = transform.n_modes
    angles = [1.0] * len(seqs)
    if labels is None:
        labels = tuple(range(n))
    else:
        relabeled = [tr.permute_sequence(seq, labels) for seq in seqs]
        seqs = [mapped for mapped, _ in relabeled]
        angles = [sign * theta for (_, sign), theta in zip(relabeled, angles)]
        occupied = None if occupied is None else [labels[m] for m in occupied]
    terms = tuple(
        expand_term_reference(seq, transform, theta, anti=config.anti)
        for seq, theta in zip(seqs, angles)
    )
    if config.bosonic and n % 2 == 0:
        split = tr.bosonic_reduce(terms, occupied=occupied)
    else:
        split = tr.BosonicSplit((), tuple(range(len(terms))), ())
    kept_terms = [terms[i] for i in split.kept]
    classes = inter_order_reference(kept_terms) if config.reorder else unchained(kept_terms)
    return _plan(n, labels, terms, split, classes)


# ---------------------------------------------------------------------------
# the planner one encoding at a time
# ---------------------------------------------------------------------------
#
# The array planner as it ran before it was batched over encodings: one
# pool expansion per encoding, TrotterTerm objects first, then each
# stage on their masks.  ``plan_per_encoding`` composes the stages as
# ``trotter.plan_ansatz`` once did, and ``plan_count_per_encoding`` is its
# count, the reference of ``trotter.ansatz_two_qubit_costs``.


def _boundary_saving(first, second, target):
    """(two_cnot, one_cnot) savings at the boundary of two blocks."""
    agree, differ = boundary_wires(first, second, target)
    return agree.bit_count(), differ.bit_count()


def cost_breakdown(term, ordering, target):
    """Recount the additive model for an explicit (ordering, target): each
    block's letter count, then each boundary's two-CNOT and one-CNOT
    savings."""
    seq = [term.strings[j] for j in ordering]
    counts = tuple((s.xmask | s.zmask).bit_count() for s in seq)
    twos, ones = [], []
    for a, b in zip(seq, seq[1:]):
        two, one = _boundary_saving(a, b, target)
        twos.append(two)
        ones.append(one)
    return counts, tuple(twos), tuple(ones)


def breakdown_cost(counts, twos, ones):
    """A breakdown's CNOT count: 2 (weight - 1) per block, less 2 per
    agreeing and 1 per differing wire at each boundary."""
    return 2 * (sum(counts) - len(counts)) - 2 * sum(twos) - sum(ones)


def model_cost(term, ordering, target):
    """The additive model's CNOT count for an explicit (ordering, target)."""
    return breakdown_cost(*cost_breakdown(term, ordering, target))


def unchained(terms):
    """Each term its own class at its first eligible target, strings in
    stored order."""
    from fqcc.trotter import ClassPlan

    classes = []
    for i, term in enumerate(terms):
        target = term.eligible_targets[0]
        ordering = tuple(range(len(term.strings)))
        choice = Choice(ordering, model_cost(term, ordering, target))
        classes.append(ClassPlan(target, (placement(i, choice),), ()))
    return tuple(classes)


def _plan(n, labels, terms, split, classes):
    """The AnsatzPlan of ``split``'s kept terms chained in ``classes``."""
    from fqcc.trotter import AnsatzPlan

    model = sum(cls.cost for cls in classes)
    model += sum(c.two_qubit_cost for c in split.compressed) + split.restoration_cnots
    return AnsatzPlan(
        n, labels, terms, split.kept, classes, split.compressed, split.touched_pairs, model
    )


def max_paths_list(matrices):
    """(weight, path) of each matrix of a list of mixed sizes, through
    ``trotter._max_paths`` one size at a time."""
    from fqcc import trotter as tr

    out = [None] * len(matrices)
    by_size = {}
    for idx, mat in enumerate(matrices):
        by_size.setdefault(len(mat), []).append(idx)
    for k, idxs in by_size.items():
        weights, paths = tr._max_paths(np.array([matrices[i] for i in idxs], dtype=np.int64))
        for i, w, path in zip(idxs, weights.tolist(), paths.tolist()):
            out[i] = (w, tuple(path))
    return out


def _canonical_order_per_encoding(x, z, n):
    """Flat indices that sort each row's strings canonically, from one
    (rows, s, n) array of bits."""
    from fqcc.trotter import _CANONICAL_WORDS, _WORD_RANK

    qubits = np.arange(n)
    wires = x[:, None] >> qubits & 1
    bits = z[:, :, None] >> qubits & 1
    on_wires = bits & wires[:, None, :]
    count = np.cumsum(wires, axis=1)
    word = (on_wires @ ((wires << 4) >> count)[:, :, None])[..., 0]
    rank = np.where(count[:, -1:] == 4, _WORD_RANK[word], len(_CANONICAL_WORDS))
    rank += 16 * np.arange(len(z))[:, None]
    lead = 1 << (n - 1 - qubits)
    return np.lexsort(((bits @ lead).ravel(), (on_wires @ lead).ravel(), rank.ravel()))


def expand_pool_per_encoding(seqs, transform, thetas, *, anti):
    """The TrotterTerm of each excitation under one encoding, one ladder
    count at a time, each product framed by ``Transform.frame``."""
    from fqcc.paulis import PauliString
    from fqcc.transform import ladder_products
    from fqcc.trotter import TrotterTerm

    seqs = list(seqs)
    n = transform.n_modes
    by_count = {}
    for row, seq in enumerate(seqs):
        for mode in seq.indices:
            if not 0 <= mode < n:
                raise ValueError(f"mode {mode} out of range")
        by_count.setdefault(len(seq.indices), []).append(row)
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
        x, z, e = ladder_products(ladders)
        x, z, q = transform.frame(x[:, None], z)
        x, e = x[:, 0], (e + q) & 3
        kept = (e & 1) == parity
        expected = 1 << (k - 1)
        z = z[kept].reshape(len(group), expected)
        order = _canonical_order_per_encoding(x, z, n)
        positive = e[kept][order] == plus
        z = z.ravel()[order]
        common = x | np.bitwise_and.reduce(z.reshape(len(group), expected), axis=1)
        mag = (4.0 if anti else 2.0) / (1 << k)
        strings = [
            PauliString(n, xs, zs, complex(1.0) if sign else complex(-1.0))
            for xs, zs, sign in zip(x.repeat(expected).tolist(), z.tolist(), positive.tolist())
        ]
        for j, (r, seq, support) in enumerate(zip(rows, group, common.tolist())):
            theta = thetas[r]
            terms[r] = TrotterTerm(
                seq, n, theta, theta * mag,
                tuple(strings[j * expected : (j + 1) * expected]),
                tuple(t for t in sorted(seq.indices) if support >> t & 1),
                anti,
            )
    return tuple(terms)


def _mask_arrays(strings):
    x = np.array([[s.xmask for s in row] for row in strings], dtype=np.int64)
    z = np.array([[s.zmask for s in row] for row in strings], dtype=np.int64)
    return x, z


# a wire's letter features by its x bit + 2 * its z bit (I, X, Z, Y): whether
# the string acts on the wire, then one-hot X, Y and Z
_LETTER_FEATURES = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0]])


def _letter_features(x, z, target):
    wires = np.arange(max(int((x | z).max()).bit_length(), int(target) + 1))
    return _LETTER_FEATURES[(x[..., None] >> wires & 1) | (z[..., None] >> wires & 1) << 1]


def _boundary_counts(strings, targets):
    """(weight, agree, differ, savings) of each row of strings at its target,
    from products of letter features."""
    feats = _letter_features(*_mask_arrays(strings), targets.max())
    off = feats.copy()
    off[np.arange(len(targets)), :, targets] = 0
    both = off[..., 0] @ feats[..., 0].transpose(0, 2, 1)
    flat = feats.reshape(*feats.shape[:2], -1)
    savings = off.reshape(flat.shape) @ flat.transpose(0, 2, 1)
    return feats[..., 0].sum(axis=2), savings - both, 2 * both - savings, savings


def dp_choices_per_encoding(pairs):
    """The maximum-saving Choice of each (term, target) pair, its
    savings matrices from letter features, grouped by string count."""
    by_count = {}
    for idx, (term, _) in enumerate(pairs):
        by_count.setdefault(len(term.strings), []).append(idx)
    groups, matrices = [], []
    for k, idxs in by_count.items():
        targets = np.array([pairs[i][1] for i in idxs], dtype=np.int64)
        strings = [pairs[i][0].strings for i in idxs]
        weight, agree, differ, savings = _boundary_counts(strings, targets)
        savings[:, np.arange(k), np.arange(k)] = 0
        groups.append((idxs, weight, agree, differ))
        matrices += list(savings)
    solved = iter(max_paths_list(matrices))
    choices = [None] * len(pairs)
    for idxs, weight, agree, differ in groups:
        paths = [path for _, path in (next(solved) for _ in idxs)]
        at = np.array(paths, dtype=np.int64)
        rows = np.arange(len(idxs))[:, None]
        counts = weight[rows, at].tolist()
        twos = agree[rows, at[:, :-1], at[:, 1:]].tolist()
        ones = differ[rows, at[:, :-1], at[:, 1:]].tolist()
        for i, path, c, two, one in zip(idxs, paths, counts, twos, ones):
            choices[i] = Choice(path, breakdown_cost(c, two, one))
    return choices


def junction_matrix_per_encoding(terms, choices, members, target):
    """Junction savings of every ordered pair of oriented class members,
    oriented member 2 * j + r being members[j], reversed when r is 1."""
    firsts, lasts = [], []
    for i in members:
        strings, ordering = terms[i].strings, choices[i].ordering
        head, tail = strings[ordering[0]], strings[ordering[-1]]
        firsts += (head, tail)
        lasts += (tail, head)
    first, last = _letter_features(*_mask_arrays([firsts, lasts]), target)
    last[:, target] = 0
    return last.reshape(len(lasts), -1) @ first.reshape(len(firsts), -1).T


def chain_class_per_encoding(terms, choices, members, target):
    """One class's chain, seeded and grown on its junction matrix, the
    first maximum in row-major order winning each tie."""
    from fqcc.trotter import ClassPlan

    if len(members) == 1:
        return ClassPlan(target, (placement(members[0], choices[members[0]]),), ())
    m = len(members)
    junction = junction_matrix_per_encoding(terms, choices, members, target)
    seed = junction.reshape(m, 2, m, 2).transpose(0, 2, 1, 3).copy()
    seed[np.arange(m), np.arange(m)] = -1
    li, ri, lr, rr = np.unravel_index(int(seed.argmax()), seed.shape)
    left, right = 2 * int(li) + int(lr), 2 * int(ri) + int(rr)
    chain = [left, right]
    savings = [int(junction[left, right])]
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
        placement(members[o >> 1], choices[members[o >> 1]], bool(o & 1)) for o in chain
    )
    return ClassPlan(target, placements, tuple(savings))


def _classes_of(terms):
    """(target, members) of each class, most frequent eligible wire first."""
    remaining = list(range(len(terms)))
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
    return groups


def inter_order_per_encoding(terms):
    """Classes by shared eligible target, every member's DP in one batch,
    and each class chained on its junction matrix."""
    groups = _classes_of(terms)
    choices = iter(
        dp_choices_per_encoding([(terms[i], t) for t, members in groups for i in members])
    )
    return tuple(
        chain_class_per_encoding(terms, {i: next(choices) for i in members}, members, target)
        for target, members in groups
    )


def plan_per_encoding(seqs, transform, config=None, *, occupied=None, labels=None):
    """The plan as ``trotter.plan_ansatz`` built it one encoding at a time,
    at unit angles; given ``labels``, on the pool relabeled by them
    (``config.relabel`` is ignored)."""
    from fqcc import trotter as tr

    config = tr.HeuristicConfig() if config is None else config
    seqs = list(seqs)
    n = transform.n_modes
    angles = [1.0] * len(seqs)
    if labels is None:
        labels = tuple(range(n))
    else:
        seqs, angles, occupied = tr._relabeled(seqs, angles, occupied, labels)
    terms = expand_pool_per_encoding(seqs, transform, angles, anti=config.anti)
    if config.bosonic and n % 2 == 0:
        split = tr.bosonic_reduce(terms, occupied=occupied)
    else:
        split = tr.BosonicSplit((), tuple(range(len(terms))), ())
    kept_terms = [terms[i] for i in split.kept]
    classes = inter_order_per_encoding(kept_terms) if config.reorder else unchained(kept_terms)
    return _plan(n, labels, terms, split, classes)


def plan_count_per_encoding(seqs, transform, config=None, *, occupied=None):
    """``plan_per_encoding``'s two-qubit count; with ``config.relabel``,
    after the greedy orbital-pair descent of ``trotter.relabel_levels``
    scored by this count."""
    from fqcc import trotter as tr

    config = tr.HeuristicConfig() if config is None else config
    seqs = list(seqs)

    def count(labels):
        plan = plan_per_encoding(seqs, transform, config, occupied=occupied, labels=labels)
        return plan.model_two_qubit

    n = transform.n_modes
    labels = tuple(range(n))
    cost = count(labels)
    if not config.relabel:
        return cost
    candidates = tr._pair_swap_perms(n // 2)
    while True:
        best_cost, best_labels = cost, None
        for perm in candidates:
            trial = tuple(perm[m] for m in labels)
            trial_cost = count(trial)
            if trial_cost < best_cost:
                best_cost, best_labels = trial_cost, trial
        if best_labels is None:
            return cost
        labels, cost = best_labels, best_cost


# ---------------------------------------------------------------------------
# the emitter as it ran before each chain was emitted at the fixpoint
# ---------------------------------------------------------------------------
#
# Each term's blocks with only the two-CNOT savings inside the term left
# out, the terms of a class chain concatenated whole, and each chain
# reduced by ``peephole_cancel``: the one-CNOT savings and every saving at
# a junction between terms were realized by the peephole.


def _wires(mask):
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


def _emit_block_reference(gates, string, rz, held_in=0, held_out=0):
    """One string's block: basis change, CNOT ladder, ``rz``, ladder and
    basis undo, leaving out the change and opening CNOT on ``held_in``
    wires and the closing CNOT and undo on ``held_out`` wires."""
    from fqcc.circuits import shared_gate

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


def term_blocks_reference(term, ordering, target):
    """One term's blocks at ``target`` in ``ordering``, each boundary's
    agreeing wires left out (``boundary_wires``), as the gate list
    ``term_circuit`` once returned before any peephole."""
    from fqcc.circuits import Gate

    strings = [term.strings[j] for j in ordering]
    held = [0] * (len(strings) + 1)
    held[1:-1] = [boundary_wires(a, b, target)[0] for a, b in zip(strings, strings[1:])]
    gates = []
    for j, string in enumerate(strings):
        rz = Gate("Rz", (target,), term.angle * string.coeff.real)
        _emit_block_reference(gates, string, rz, held[j], held[j + 1])
    return gates


def chain_blocks_reference(plan, cls):
    """The unreduced circuit of one class chain: every placed term's
    ``term_blocks_reference``, whole at the junctions."""
    from fqcc.circuits import Circuit

    gates = []
    for p in cls.placements:
        term = plan.terms[plan.kept[p.index]]
        gates += term_blocks_reference(term, p.ordering, cls.target)
    return Circuit(plan.n_qubits, 0, gates)


def prefix_reference(plan):
    """The unreduced prefix of a plan's circuit: every compressed block,
    then the restoration fan-out."""
    from fqcc.circuits import Circuit
    from fqcc.trotter import compressed_circuit, restoration_circuit

    n = plan.n_qubits
    prefix = Circuit(n)
    for cterm in plan.compressed:
        prefix.gates += compressed_circuit(cterm, n).gates
    prefix.gates += restoration_circuit(plan.touched_pairs, n).gates
    return prefix


def emit_circuit_reference(plan):
    """``trotter.emit_circuit`` from whole blocks: ``prefix_reference``
    through one ``peephole_cancel``, as the emitter reduces it, then each
    chain's ``chain_blocks_reference`` through ``peephole_cancel``, as the
    emitter once ran."""
    from fqcc.circuits import peephole_cancel

    circ = peephole_cancel(prefix_reference(plan))
    for cls in plan.classes:
        block = peephole_cancel(chain_blocks_reference(plan, cls))
        circ.gates += block.gates
        circ.global_phase *= block.global_phase
    return circ
