"""Circuit IR, resource metrics and a peephole optimizer.

Gates act on wires numbered 0..n_data+n_ancilla-1; ancilla wires are the
highest indices and must enter and leave every circuit in |0>.  A circuit
carries an explicit ``global_phase`` so that rewrites which trade gates for
phases still preserve the unitary exactly.

The peephole pass removes commuting inverse pairs, merges rotations, and
rewrites a two-CNOT conjugation sandwich ``CNOT (v,t) . G(v) . CNOT (v,t)``
into a single-CNOT form whenever the sandwiched one-qubit product G is an
X-rotation up to Z-rotations (an Euler angle phi = +-pi/2), which is exactly
the situation arising between adjacent exponential blocks that share wires.
``trotter``'s chain emitter builds each class chain in the form this pass
leaves it, with the same rewrite (``_junction_rewrite``, ``_xx_half_gates``)
and angle fold (``_norm_angle``), so no chain goes through the pass;
``trotter.emit_circuit`` runs it once per circuit, on the compressed blocks
and the restoration fan-out that lead the circuit, where it cancels and
merges about half of their gates.

The pass keeps its working circuit as integer state (``_Peephole``).  Gate
i's k-th wire is slot ``i << sh | k``, where ``sh`` is 1, or 2 when a 4-wire
``RelPhaseToffoli3`` is present.  Slots are linked along their wire, so a
search for a cancellation partner or for the CNOT closing a sandwich steps
``s = nxt[s]`` along only the wires it concerns, and a deletion costs
O(wires).  Each slot holds an action code: 0 diag (a CNOT control, a CZ, a
Toffoli control), 1 xtype (a CNOT target), 2 other (a Toffoli target), or
an interned one-qubit product: 3 is the empty product, and each (kind,
angle) and each run of them met in a walk gets the next code.  A code's
2x2 matrix is held as four Python complexes, with flags for whether it
commutes with a diag and with an xtype action.  Commutation and closeness
use np.allclose's rule |a - b| <= 1e-10 + 1e-5 |b| in plain complex
arithmetic.  Each gate carries interned (kind, wires) signatures of itself
and of the gate that cancels it, so a partner test is one int compare.

The junction rewrite depends only on the control run's codes, so it is
worked out once per run and call: the numpy product gate by gate, the
Euler angles (np.angle, candidates checked in Python complexes at atol
1e-9), and the phase factor ``exp(i delta) ph_pre ph_xx ph_post``.
The fixpoint alternates the simple pass and the junction pass until a
round changes nothing.  It stops one junction pass early when the simple
pass changed nothing and the previous junction pass changed nothing: the
junction pass would meet exactly the state it last left unchanged.  Dense
unitaries of circuits are a test oracle and live in ``tests/oracles.py``.

``Gate`` instances are immutable and shared: ``shared_gate`` hands out one
validated instance per angle-free (kind, wires), which emitters and
rewrites append as they are; only rotations are built per angle.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

import numpy as np

GATE_KINDS = {
    "H", "S", "Sdg", "T", "Tdg", "X", "Z", "Rz", "Rx", "CNOT", "CZ",
    "RelPhaseToffoli3", "RelPhaseToffoli3Inverse",
}
_ROTATIONS = {"Rz", "Rx"}
_TWO_QUBIT = {"CNOT", "CZ"}
_INVERSE = {
    "H": "H", "X": "X", "Z": "Z", "CNOT": "CNOT", "CZ": "CZ",
    "S": "Sdg", "Sdg": "S", "T": "Tdg", "Tdg": "T",
    "RelPhaseToffoli3": "RelPhaseToffoli3Inverse",
    "RelPhaseToffoli3Inverse": "RelPhaseToffoli3",
}
_ARITY = {"CNOT": 2, "CZ": 2, "RelPhaseToffoli3": 4, "RelPhaseToffoli3Inverse": 4}

_SQRT2 = math.sqrt(2.0)
_MAT_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "S": np.diag([1.0, 1.0j]),
    "Sdg": np.diag([1.0, -1.0j]),
    "T": np.diag([1.0, np.exp(0.25j * np.pi)]),
    "Tdg": np.diag([1.0, np.exp(-0.25j * np.pi)]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def _rot_matrix(kind, theta):
    if kind == "Rz":
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = _ARITY.get(self.kind, 1)
        if len(self.qubits) != want:
            raise ValueError(f"{self.kind} takes {want} wires, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated wire in {self.kind} {self.qubits}")
        if (self.theta is None) == (self.kind in _ROTATIONS):
            raise ValueError(f"theta mismatch for {self.kind}")

    def inverse(self):
        if self.kind in _ROTATIONS:
            return Gate(self.kind, self.qubits, -self.theta)
        return Gate(_INVERSE[self.kind], self.qubits)

    def matrix_1q(self):
        if self.kind in _ROTATIONS:
            return _rot_matrix(self.kind, self.theta)
        return _MAT_1Q[self.kind]


@lru_cache(maxsize=1 << 14)
def shared_gate(kind, qubits):
    """The one validated ``Gate`` of an angle-free kind on ``qubits``.

    Gates are immutable, so emitters and rewrites append these shared
    instances instead of building and validating a new one per use.
    """
    return Gate(kind, qubits)


# Fig.-style relative-phase triply-controlled X: 8 T gates, 6 CNOTs, all on
# the target wire.  Controls pick up relative phases only; conjugating a
# diagonal core with the gate and its inverse cancels them exactly.
def _rpt3_body(c0, c1, c2, t, inverse=False):
    seq = [
        Gate("H", (t,)), Gate("T", (t,)), Gate("CNOT", (c2, t)), Gate("Tdg", (t,)), Gate("H", (t,)),
        Gate("CNOT", (c0, t)), Gate("T", (t,)), Gate("CNOT", (c1, t)), Gate("Tdg", (t,)),
        Gate("CNOT", (c0, t)), Gate("T", (t,)), Gate("CNOT", (c1, t)), Gate("Tdg", (t,)),
        Gate("H", (t,)), Gate("T", (t,)), Gate("CNOT", (c2, t)), Gate("Tdg", (t,)), Gate("H", (t,)),
    ]
    if inverse:
        seq = [g.inverse() for g in reversed(seq)]
    return seq


@dataclass
class Circuit:
    n_data: int
    n_ancilla: int = 0
    gates: list[Gate] = field(default_factory=list)
    global_phase: complex = 1.0

    @property
    def n_qubits(self):
        return self.n_data + self.n_ancilla

    def add(self, kind, *qubits, theta=None):
        g = Gate(kind, tuple(qubits), theta)
        if any(q < 0 or q >= self.n_qubits for q in qubits):
            raise ValueError(f"wire out of range in {g}")
        self.gates.append(g)
        return self

    def extend(self, gates):
        """Append already-validated ``Gate`` objects, checking their wires."""
        n = self.n_qubits
        for g in gates:
            if any(q < 0 or q >= n for q in g.qubits):
                raise ValueError(f"wire out of range in {g}")
            self.gates.append(g)
        return self


def expand_toffolis(circ: Circuit) -> Circuit:
    out = Circuit(circ.n_data, circ.n_ancilla, [], circ.global_phase)
    for g in circ.gates:
        if g.kind == "RelPhaseToffoli3":
            out.gates.extend(_rpt3_body(*g.qubits))
        elif g.kind == "RelPhaseToffoli3Inverse":
            out.gates.extend(_rpt3_body(*g.qubits, inverse=True))
        else:
            out.gates.append(g)
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Metrics:
    two_qubit: int
    rz_count: int
    rz_depth: int
    t_count: int
    ancilla_count: int
    n_gates: int


def metrics(circ: Circuit) -> Metrics:
    """Count resources of the circuit with its composite Toffolis expanded.

    ``rz_count`` counts continuous-angle rotations (Rz/Rx), ``t_count``
    counts T/Tdg only, and ``rz_depth`` is the depth of the circuit counting
    only rotation layers under ASAP scheduling.
    """
    work = expand_toffolis(circ)
    two = rz = tc = 0
    level: dict[int, int] = {}
    depth = 0
    for g in work.gates:
        if g.kind in _TWO_QUBIT:
            two += 1
        elif g.kind in ("T", "Tdg"):
            tc += 1
        lvl = max((level.get(q, 0) for q in g.qubits), default=0)
        if g.kind in _ROTATIONS:
            rz += 1
            lvl += 1
        for q in g.qubits:
            level[q] = lvl
        depth = max(depth, lvl)
    return Metrics(two, rz, depth, tc, circ.n_ancilla, len(work.gates))


# ---------------------------------------------------------------------------
# peephole pass
# ---------------------------------------------------------------------------

# np.allclose's test |a - b| <= atol + rtol * |b|, elementwise
_ATOL = 1e-10
_RTOL = 1e-5

_TUPLE_1Q = {kind: tuple(complex(x) for x in m.flat) for kind, m in _MAT_1Q.items()}


@lru_cache(maxsize=4096)
def _mat_tuple(kind, theta):
    """A one-qubit gate's matrix as (m00, m01, m10, m11) in Python complexes."""
    if kind == "Rz":
        return (cmath.exp(-0.5j * theta), 0j, 0j, cmath.exp(0.5j * theta))
    if kind == "Rx":
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return (complex(c), -1j * s, -1j * s, complex(c))
    return _TUPLE_1Q[kind]


def _mul(a, b):
    """The 2x2 product a @ b of two matrix tuples."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)


def _close(a, b):
    return abs(a - b) <= _ATOL + _RTOL * abs(b)


def _is_diag(m):
    """Off-diagonal entries within 1e-10."""
    return abs(m[1]) <= _ATOL and abs(m[2]) <= _ATOL


def _is_xtype(m):
    """m @ X is close to X @ m."""
    m0, m1, m2, m3 = m
    # m @ X = (m1, m0, m3, m2) and X @ m = (m2, m3, m0, m1)
    return _close(m1, m2) and _close(m0, m3) and _close(m3, m0) and _close(m2, m1)


def _norm_angle(theta):
    """Fold an Rz/Rx angle into (-pi, pi]; returns (angle, phase_factor)."""
    k = round(theta / (2.0 * math.pi))
    rem = theta - 2.0 * math.pi * k
    if rem <= -math.pi + 1e-12:
        rem += 2.0 * math.pi
        k -= 1
    return rem, (-1.0 + 0.0j) ** (k % 2)


# (angle, gate, phase) with Rz(angle) = phase * gate
_CLIFFORD_RZ = (
    (math.pi / 2, "S", np.exp(-0.25j * math.pi)),
    (-math.pi / 2, "Sdg", np.exp(0.25j * math.pi)),
    (math.pi, "Z", np.exp(-0.5j * math.pi)),
)


def _diag_gate(angle):
    """Rz(angle) as at most one gate, Cliffordized at pi/2 multiples.

    Returns (spec, phase) with Rz(angle) = phase * gate: spec is None for
    the identity, (kind, None) for S, Sdg or Z, and ("Rz", rem) otherwise.
    """
    rem, phase = _norm_angle(angle)
    if abs(rem) < 1e-12:
        return None, phase
    for target, kind, ph in _CLIFFORD_RZ:
        if abs(rem - target) < 1e-12:
            return (kind, None), phase * ph
    return ("Rz", rem), phase


def _euler_zxz(g):
    """g = e^{i delta} Rz(alpha) Rx(phi) Rz(beta); matrix order, beta applied first.

    ``g`` is a 2x2 numpy array and the angles come from np.angle on its
    entries.  Each candidate is rebuilt from ``_mat_tuple`` products and
    compared with g under np.allclose's rule at atol 1e-9, in Python
    complexes.
    """
    a00, a01, a10, a11 = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    want = (complex(a00), complex(a01), complex(a10), complex(a11))
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
        rot = _mul(_mul(_mat_tuple("Rz", alpha), _mat_tuple("Rx", phi)), _mat_tuple("Rz", beta))
        for delta in (base, base + math.pi):
            ph = cmath.exp(1j * delta)
            if all(abs(ph * r - w) <= 1e-9 + _RTOL * abs(w) for r, w in zip(rot, want)):
                return delta, alpha, phi, beta
    raise ValueError("not unitary up to tolerance")


# exp(-i (+-pi/2)/2 X_v X_t) = phase * (_xx_half_gates), for + and for -
_XX_PHASE = (np.exp(-0.25j * math.pi), np.exp(0.25j * math.pi))


def _xx_half_gates(v, t, positive):
    """Gates for exp(-i (+-pi/2)/2 X_v X_t) up to the phase in ``_XX_PHASE``."""
    g = shared_gate
    if positive:
        return [
            g("H", (v,)), g("CNOT", (v, t)), g("S", (v,)), g("H", (v,)),
            g("H", (t,)), g("S", (t,)), g("H", (t,)),
        ]
    return [
        g("H", (t,)), g("Sdg", (t,)), g("H", (t,)),
        g("H", (v,)), g("Sdg", (v,)), g("CNOT", (v, t)), g("H", (v,)),
    ]


def _junction_rewrite(singles):
    """The rewrite recipe for a sandwich whose control run is ``singles``.

    None when the run's product is no X-rotation up to Z-rotations;
    otherwise (pre, positive, post, factor): the Rz specs before and after
    the half XX rotation, the sign of its angle, and the phase factor the
    rewrite multiplies into the circuit's phase.  The product is numpy,
    gate by gate.
    """
    v_run = np.eye(2, dtype=complex)
    for g in singles:
        v_run = g.matrix_1q() @ v_run
    try:
        delta, alpha, phi, beta = _euler_zxz(v_run)
    except ValueError:
        return None
    if not (abs(abs(phi) - math.pi / 2.0) < 1e-9):
        return None
    pre, ph_pre = _diag_gate(beta)
    positive = phi > 0
    ph_xx = _XX_PHASE[0] if positive else _XX_PHASE[1]
    post, ph_post = _diag_gate(alpha)
    return pre, positive, post, np.exp(1j * delta) * ph_pre * ph_xx * ph_post


def _spec_gate(spec, wire):
    kind, theta = spec
    return shared_gate(kind, (wire,)) if theta is None else Gate(kind, (wire,), theta)


_QUBITS = attrgetter("qubits")

# action codes: how a gate acts on one of its wires
_DIAG = 0  # a CNOT control, a CZ, a RelPhaseToffoli3 control
_XTYPE = 1  # a CNOT target
_OTHER = 2  # a RelPhaseToffoli3 target
_ID = 3  # the empty one-qubit product; one-qubit codes follow


class _Peephole:
    """The peephole's working circuit as integer state, linked per wire.

    Gates are addressed by index.  ``gates[i]`` becomes None when gate i is
    deleted, and ``order[i]`` is the next gate in circuit order (-1 at the
    end); a deleted gate keeps its ``order`` entry, so stepping on from it
    still reaches its successors.  Gates put in by a rewrite are appended.
    ``order``, ``nxt`` and ``prv`` are ``array('i')``: slot numbers run
    past the small ints Python shares, and a list would hold an int object
    for each.

    Gate i's k-th wire is slot ``i << sh | k``, with ``sh`` 2 when a 4-wire
    gate is present and 1 otherwise.  ``nxt[s]`` and ``prv[s]`` are the
    slots after and before slot s on its wire (-1 for none), and ``act[s]``
    is its action code.  ``mats``, ``cd`` and ``cx`` hold each code's
    one-qubit matrix and whether it commutes with a ``_DIAG`` and with an
    ``_XTYPE`` action; ``_DIAG``, ``_XTYPE`` and ``_OTHER`` have no matrix.
    ``sig[i]`` and ``want[i]`` are interned (kind, wires) signatures of
    gate i and of the gate that cancels it (or merges with it, for a
    rotation); a CZ's wires are sorted.
    """

    def __init__(self, gates, phase):
        self.gates = gates = list(gates)
        self.phase = phase
        n = len(gates)
        self.sh = sh = 2 if max(map(len, map(_QUBITS, gates)), default=0) > 2 else 1
        self.order = array("i", range(1, n + 1))
        if n:
            self.order[-1] = -1
        # one gate's slots, unlinked
        self.pad = array("i", [-1]) * (1 << sh)
        self.nxt = nxt = self.pad * n
        self.prv = prv = self.pad * n
        self.sigs, self.codes = {}, {}
        self.mats = [None, None, None, (1 + 0j, 0j, 0j, 1 + 0j)]
        self.cd = [True, False, False, True]
        self.cx = [False, True, False, True]
        # run products: (run code, gate code) -> code of the longer run
        self.step = {}
        # (code, code) -> whether two one-qubit codes commute
        self.comm = {}
        # run code -> _junction_rewrite of that control run
        self.rewrites = {}
        # id(gate) -> (sig, want, slot codes, gate); shared gates repeat, and
        # holding the gate keeps its id from being reused
        self.described = {}
        self.sig, self.want, self.act = [], [], []
        last = {}
        for i, g in enumerate(gates):
            self._append(g)
            s = i << sh
            for q in g.qubits:
                j = last.get(q, -1)
                if j >= 0:
                    prv[s] = j
                    nxt[j] = s
                last[q] = s
                s += 1

    def code(self, kind, theta):
        """The action code of a one-qubit gate, interned per (kind, theta)."""
        key = (kind, theta)
        c = self.codes.get(key)
        if c is None:
            c = self.codes[key] = self._intern(_mat_tuple(kind, theta))
            self.step[_ID, c] = c
        return c

    def _intern(self, m):
        c = len(self.mats)
        self.mats.append(m)
        self.cd.append(_is_diag(m))
        self.cx.append(_is_xtype(m))
        return c

    def product(self, run, c):
        """The code of the one-qubit run ``run`` followed by gate code ``c``, remembered in ``step``."""
        r = self.step[run, c] = self._intern(_mul(self.mats[c], self.mats[run]))
        return r

    def commute(self, a, b):
        """Whether one-qubit codes a and b commute (ab close to ba), remembered in ``comm``."""
        ma, mb = self.mats[a], self.mats[b]
        ok = self.comm[a, b] = all(_close(x, y) for x, y in zip(_mul(ma, mb), _mul(mb, ma)))
        return ok

    def _append(self, g):
        """Append gate g's signatures and slot codes."""
        d = self.described.get(id(g)) or self._describe(g)
        self.sig.append(d[0])
        self.want.append(d[1])
        self.act += d[2]

    def _describe(self, g):
        """(sig, want, slot codes, g) of gate g, remembered by identity."""
        kind, qs = g.kind, g.qubits
        sigs = self.sigs
        key = (kind, tuple(sorted(qs)) if kind == "CZ" else qs)
        sig = sigs.setdefault(key, len(sigs))
        if kind not in _ROTATIONS:
            key = (_INVERSE[kind], key[1])
        want = sigs.setdefault(key, len(sigs))
        acts = [_DIAG] * (1 << self.sh)
        if len(qs) == 1:
            acts[0] = self.code(kind, g.theta)
        elif kind == "CNOT":
            acts[1] = _XTYPE
        elif len(qs) == 4:
            acts[3] = _OTHER
        d = self.described[id(g)] = (sig, want, acts, g)
        return d

    def set_rotation(self, i, g):
        """Put rotation g in place of gate i, on the same wire."""
        self.gates[i] = g
        self.act[i << self.sh] = self.code(g.kind, g.theta)

    def live(self):
        """The indices of the gates not deleted, in circuit order.

        The next index is read when it is asked for, so gates that a step
        deletes or puts in after the current one are skipped or visited.
        """
        gates, order = self.gates, self.order
        # gate 0 stays first in circuit order, deleted or not
        i = 0 if gates else -1
        while i >= 0:
            if gates[i] is not None:
                yield i
            i = order[i]

    def remove(self, i):
        nxt, prv = self.nxt, self.prv
        s = i << self.sh
        for s in range(s, s + len(self.gates[i].qubits)):
            before, after = prv[s], nxt[s]
            if before >= 0:
                nxt[before] = after
            if after >= 0:
                prv[after] = before
        self.gates[i] = None

    def replace(self, i, gates):
        """Delete gate i and put ``gates``, which act only on its wires, in its place."""
        nxt, prv, sh, order = self.nxt, self.prv, self.sh, self.order
        s = i << sh
        wires = self.gates[i].qubits
        before = {q: prv[s + k] for k, q in enumerate(wires)}
        after = {q: nxt[s + k] for k, q in enumerate(wires)}
        self.gates[i] = None
        j = len(self.gates)
        if gates:
            order.extend(range(j + 1, j + len(gates) + 1))
            order[-1] = order[i]
            order[i] = j
        nxt.extend(self.pad * len(gates))
        prv.extend(self.pad * len(gates))
        for gate in gates:
            self._append(gate)
            self.gates.append(gate)
            s = j << sh
            for q in gate.qubits:
                left = before[q]
                prv[s] = left
                if left >= 0:
                    nxt[left] = s
                before[q] = s
                s += 1
            j += 1
        for q, left in before.items():
            right = after[q]
            if left >= 0:
                nxt[left] = right
            if right >= 0:
                prv[right] = left


def _simple_pass(st: _Peephole):
    """Normalize rotations, merge them, and cancel inverse pairs; True if anything changed.

    A gate's partner is the later gate whose signature is its ``want``,
    with every gate in between on a shared wire commuting with it there.
    Each wire is followed to its first partner or blocker; a partner acts
    on all of the gate's wires, so when every wire reaches one it is the
    same gate and nothing on any wire blocks it.
    """
    gates, nxt, act, sig, want = st.gates, st.nxt, st.act, st.sig, st.want
    cd, cx, sh, comm = st.cd, st.cx, st.sh, st.comm
    changed = False
    for i in st.live():
        # a rotation absorbs its partners one at a time
        while True:
            g = gates[i]
            kind = g.kind
            if kind in _ROTATIONS:
                rem, ph = _norm_angle(g.theta)
                if abs(rem) < 1e-12:
                    st.phase *= ph
                    st.remove(i)
                    changed = True
                    break
                if ph != 1.0 or rem != g.theta:
                    g = Gate(kind, g.qubits, rem)
                    st.set_rotation(i, g)
                    st.phase *= ph
                    changed = True
            w = want[i]
            s = i << sh
            for s in range(s, s + len(g.qubits)):
                mine = act[s]
                h = nxt[s]
                while h >= 0 and sig[h >> sh] != w:
                    c = act[h]
                    if mine < _ID:
                        ok = mine != _OTHER and (cd if mine == _DIAG else cx)[c]
                    elif c < _ID:
                        ok = c != _OTHER and (cd if c == _DIAG else cx)[mine]
                    else:
                        ok = comm.get((mine, c))
                        if ok is None:
                            ok = st.commute(mine, c)
                    h = nxt[h] if ok else -1
                if h < 0:
                    break
            if h < 0:
                break
            j = h >> sh
            changed = True
            if kind not in _ROTATIONS:
                st.remove(j)
                st.remove(i)
                break
            theta = gates[j].theta
            st.remove(j)
            st.set_rotation(i, Gate(kind, g.qubits, g.theta + theta))
    return changed


def _junction_pass(st: _Peephole):
    """Rewrite two-CNOT sandwiches ``CNOT (v,t) . G(v) . CNOT (v,t)``; True if anything changed.

    On the target wire, the one-qubit product between multi-qubit gates
    must commute with X and each multi-qubit gate must act as an X there.
    On the control wire each multi-qubit gate must act diagonally and meet
    a diagonal product.  A diagonal control run lets the pair annihilate;
    a control run with no multi-qubit gate, whose product is an X-rotation
    up to Z-rotations, becomes one CNOT inside a half XX rotation.
    """
    gates, nxt, act, sig = st.gates, st.nxt, st.act, st.sig
    cd, cx, sh, step, rewrites = st.cd, st.cx, st.sh, st.step, st.rewrites
    changed = False
    for i in st.live():
        if gates[i].kind != "CNOT":
            continue
        s = i << sh
        w = sig[i]
        # the closing CNOT, along the target wire
        run = _ID
        h = nxt[s + 1]
        while h >= 0 and sig[h >> sh] != w:
            c = act[h]
            if c > _ID:
                run = step.get((run, c)) or st.product(run, c)
            elif c != _XTYPE or not cx[run]:
                h = -1
                break
            else:
                run = _ID
            h = nxt[h]
        if h < 0 or not cx[run]:
            continue
        partner = h >> sh
        # the control run after the last multi-qubit gate on the control wire
        stop = partner << sh
        run, clean = _ID, True
        h = nxt[s]
        while h != stop:
            c = act[h]
            if c > _ID:
                run = step.get((run, c)) or st.product(run, c)
            elif c != _DIAG or not cd[run]:
                break
            else:
                run, clean = _ID, False
            h = nxt[h]
        if h != stop:
            continue
        if cd[run]:
            # the middle commutes with the CNOT entirely: the pair annihilates
            st.remove(partner)
            st.remove(i)
            changed = True
            continue
        if not clean:
            continue
        singles = []
        h = nxt[s]
        while h != stop:
            singles.append(h >> sh)
            h = nxt[h]
        if run in rewrites:
            recipe = rewrites[run]
        else:
            recipe = rewrites[run] = _junction_rewrite([gates[j] for j in singles])
        if recipe is None:
            continue
        pre, positive, post, factor = recipe
        v, t = gates[i].qubits
        new = [] if pre is None else [_spec_gate(pre, v)]
        new += _xx_half_gates(v, t, positive)
        if post is not None:
            new.append(_spec_gate(post, v))
        st.phase *= factor
        for j in singles:
            st.remove(j)
        st.remove(i)
        st.replace(partner, new)
        changed = True
    return changed


def peephole_cancel(circ: Circuit) -> Circuit:
    """Fixpoint gate-cancellation pass; never increases the two-qubit count.

    The input circuit is left as it is.
    """
    st = _Peephole(circ.gates, circ.global_phase)
    junction_changed = True
    while True:
        simple_changed = _simple_pass(st)
        if not (simple_changed or junction_changed):
            # the junction pass would meet the state it last left unchanged
            break
        junction_changed = _junction_pass(st)
        if not (simple_changed or junction_changed):
            break
    return Circuit(circ.n_data, circ.n_ancilla, [st.gates[i] for i in st.live()], st.phase)
