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

The pass works on a gate list linked both in circuit order and along each
wire, so a search for a cancellation partner or for the CNOT closing a
sandwich follows only the wires it concerns, and a deletion costs O(wires).
On each wire a gate acts through a tag (``diag`` for a CNOT control or a CZ,
``xtype`` for a CNOT target, ``other``) or, for a one-qubit gate, through its
2x2 matrix held as four Python complexes and cached per (kind, angle).
Commutation and closeness use np.allclose's rule |a - b| <= 1e-10 +
1e-5 |b| in plain complex arithmetic.  Numpy runs in the peephole only
when a junction rewrite is tried: the control run's product and the Euler
angles (np.angle) are numpy, while the Euler candidates are rebuilt and
checked in Python complexes (atol 1e-9).  Dense unitaries of circuits
are a test oracle and live in ``tests/oracles.py``.

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

_DIAG = "diag"
_XTYPE = "xtype"
_OTHER = "other"

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
    """Off-diagonal entries within 1e-10; ``None`` is the identity."""
    return m is None or (abs(m[1]) <= _ATOL and abs(m[2]) <= _ATOL)


def _is_xtype(m):
    """m @ X is close to X @ m; ``None`` is the identity."""
    if m is None:
        return True
    m0, m1, m2, m3 = m
    # m @ X = (m1, m0, m3, m2) and X @ m = (m2, m3, m0, m1)
    return _close(m1, m2) and _close(m0, m3) and _close(m3, m0) and _close(m2, m1)


def _wire_action(gate: Gate, q):
    """How a gate acts on wire q: a tag, or the (kind, theta) of a one-qubit gate."""
    if gate.kind == "CNOT":
        return _DIAG if q == gate.qubits[0] else _XTYPE
    if gate.kind == "CZ":
        return _DIAG
    if gate.kind in ("RelPhaseToffoli3", "RelPhaseToffoli3Inverse"):
        return _DIAG if q in gate.qubits[:3] else _OTHER
    return (gate.kind, gate.theta)


@lru_cache(maxsize=4096)
def _actions_commute(a, b):
    a_tag = a.__class__ is str
    b_tag = b.__class__ is str
    if a_tag and b_tag:
        return a == b != _OTHER
    if not (a_tag or b_tag):
        ma, mb = _mat_tuple(*a), _mat_tuple(*b)
        return all(_close(x, y) for x, y in zip(_mul(ma, mb), _mul(mb, ma)))
    if a_tag:
        a, b = b, a
    # `a` is a one-qubit gate, `b` a tag
    if b == _OTHER:
        return False
    m = _mat_tuple(*a)
    return _is_diag(m) if b == _DIAG else _is_xtype(m)


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


def _emit_diag(angle, wire):
    """Gates realizing Rz(angle) exactly, Cliffordized at pi/2 multiples.

    Returns (gates, phase) with Rz(angle) = phase * product(gates).
    """
    rem, phase = _norm_angle(angle)
    if abs(rem) < 1e-12:
        return [], phase
    for target, kind, ph in _CLIFFORD_RZ:
        if abs(rem - target) < 1e-12:
            return [shared_gate(kind, (wire,))], phase * ph
    return [Gate("Rz", (wire,), rem)], phase


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


_XX_PHASE = (np.exp(-0.25j * math.pi), np.exp(0.25j * math.pi))


def _xx_half_gates(v, t, sign):
    """Gate list for exp(-i (sign*pi/2)/2 X_v X_t); returns (gates, phase)."""
    g = shared_gate
    if sign > 0:
        gates = [
            g("H", (v,)), g("CNOT", (v, t)), g("S", (v,)), g("H", (v,)),
            g("H", (t,)), g("S", (t,)), g("H", (t,)),
        ]
        return gates, _XX_PHASE[0]
    gates = [
        g("H", (t,)), g("Sdg", (t,)), g("H", (t,)),
        g("H", (v,)), g("Sdg", (v,)), g("CNOT", (v, t)), g("H", (v,)),
    ]
    return gates, _XX_PHASE[1]


class _GateList:
    """The peephole's working circuit, linked in circuit order and per wire.

    Gates are addressed by index.  ``gates[i]`` becomes None when gate i is
    deleted, and ``order[i]`` is the next gate in circuit order (-1 at the
    end); a deleted gate keeps its ``order`` entry, so stepping on from it
    still reaches its successors.  ``links[2k][i]`` and ``links[2k + 1][i]``
    are the gates before and after gate i on wire ``gates[i].qubits[k]``
    (-1 for none).  Gates put in by a rewrite are appended.
    """

    def __init__(self, gates, phase):
        self.gates = list(gates)
        self.phase = phase
        self.changed = False
        n = len(self.gates)
        self.first = 0 if n else -1
        self.order = array("i", range(1, n + 1))
        if n:
            self.order[-1] = -1
        width = max([2] + [len(g.qubits) for g in self.gates])
        self.links = [array("i", [-1]) * n for _ in range(2 * width)]
        last = {}
        for i, gate in enumerate(self.gates):
            for k, q in enumerate(gate.qubits):
                j = last.get(q, -1)
                if j >= 0:
                    self.links[2 * k][i] = j
                    self.links[self.slot(j, q) + 1][j] = i
                last[q] = i

    def slot(self, i, q):
        """Index into ``links`` of the link to the gate before gate i on wire q."""
        qs = self.gates[i].qubits
        return 0 if qs[0] == q else 2 * qs.index(q)

    def live(self, i):
        """The first gate not deleted at or after i in circuit order, or -1."""
        gates, order = self.gates, self.order
        while i >= 0 and gates[i] is None:
            i = order[i]
        return i

    def circuit_gates(self):
        out = []
        i = self.live(self.first)
        while i >= 0:
            out.append(self.gates[i])
            i = self.live(self.order[i])
        return out

    def remove(self, i):
        links = self.links
        for k, q in enumerate(self.gates[i].qubits):
            before, after = links[2 * k][i], links[2 * k + 1][i]
            if before >= 0:
                links[self.slot(before, q) + 1][before] = after
            if after >= 0:
                links[self.slot(after, q)][after] = before
        self.gates[i] = None

    def replace(self, i, gates):
        """Delete gate i and put ``gates``, which act only on its wires, in its place."""
        links = self.links
        wires = self.gates[i].qubits
        before = {q: links[2 * k][i] for k, q in enumerate(wires)}
        after = {q: links[2 * k + 1][i] for k, q in enumerate(wires)}
        self.remove(i)
        prev, tail = i, self.order[i]
        for gate in gates:
            j = len(self.gates)
            self.gates.append(gate)
            self.order.append(-1)
            for arr in links:
                arr.append(-1)
            self.order[prev] = j
            prev = j
            for k, q in enumerate(gate.qubits):
                left = before[q]
                links[2 * k][j] = left
                if left >= 0:
                    links[self.slot(left, q) + 1][left] = j
                before[q] = j
        self.order[prev] = tail
        for q, left in before.items():
            right = after[q]
            if left >= 0:
                links[self.slot(left, q) + 1][left] = right
            if right >= 0:
                links[self.slot(right, q)][right] = left


def _cancel_partner(gl: _GateList, i):
    """The later gate that cancels gate i, or merges with it (rotations).

    Every gate in between on a shared wire must commute with gate i there.
    Each wire is followed to its first partner or blocker; a partner acts on
    all of gate i's wires, so when every wire reaches one it is the same
    gate and nothing on any wire blocks it.
    """
    gates, links = gl.gates, gl.links
    g = gates[i]
    qs = g.qubits
    want = g.kind if g.kind in _ROTATIONS else _INVERSE[g.kind]
    found = -1
    for k, q in enumerate(qs):
        mine = _wire_action(g, q)
        h = links[2 * k + 1][i]
        while h >= 0:
            hg = gates[h]
            hq = hg.qubits
            if hg.kind == want and (hq == qs or (want == "CZ" and set(hq) == set(qs))):
                break
            if not _actions_commute(mine, _wire_action(hg, q)):
                return -1
            h = links[1 if hq[0] == q else 2 * hq.index(q) + 1][h]
        if h < 0:
            return -1
        found = h
    return found


def _simple_pass(gl: _GateList):
    gates = gl.gates
    i = gl.live(gl.first)
    while i >= 0:
        g = gates[i]
        # drop/normalize null rotations
        if g.kind in _ROTATIONS:
            rem, ph = _norm_angle(g.theta)
            if abs(rem) < 1e-12:
                gl.phase *= ph
                gl.remove(i)
                gl.changed = True
                i = gl.live(gl.order[i])
                continue
            if ph != 1.0 or rem != g.theta:
                g = gates[i] = Gate(g.kind, g.qubits, rem)
                gl.phase *= ph
                gl.changed = True
        j = _cancel_partner(gl, i)
        if j < 0:
            i = gl.live(gl.order[i])
            continue
        gl.changed = True
        if g.kind in _ROTATIONS:
            theta = gates[j].theta
            gl.remove(j)
            gates[i] = Gate(g.kind, g.qubits, g.theta + theta)
        else:
            gl.remove(j)
            gl.remove(i)
            i = gl.live(gl.order[i])


def _sandwich_partner(gl: _GateList, i):
    """The CNOT (v, t) closing the sandwich that CNOT (v, t) at i opens, or -1.

    On the target wire, the one-qubit product between multi-qubit gates
    must commute with X and each multi-qubit gate must act as an X there
    (a CNOT target).
    """
    gates, links = gl.gates, gl.links
    qs = gates[i].qubits
    t = qs[1]
    run = None
    h = links[3][i]
    while h >= 0:
        hg = gates[h]
        hq = hg.qubits
        if hq == qs and hg.kind == "CNOT":
            return h if _is_xtype(run) else -1
        if len(hq) == 1:
            m = _mat_tuple(hg.kind, hg.theta)
            run = m if run is None else _mul(m, run)
        elif not _is_xtype(run) or _wire_action(hg, t) != _XTYPE:
            return -1
        else:
            run = None
        h = links[1 if hq[0] == t else 2 * hq.index(t) + 1][h]
    return -1


def _control_run(gl: _GateList, i, partner):
    """(product, one-qubit gates, clean) on the control wire inside a sandwich.

    The product and the gate indices cover the one-qubit gates after the
    last multi-qubit gate on the control; ``clean`` means there is none.
    None when such a gate does not act diagonally there or meets a
    non-diagonal product.
    """
    gates, links = gl.gates, gl.links
    v = gates[i].qubits[0]
    run, singles, clean = None, [], True
    h = links[1][i]
    while h != partner:
        hg = gates[h]
        hq = hg.qubits
        if len(hq) == 1:
            m = _mat_tuple(hg.kind, hg.theta)
            run = m if run is None else _mul(m, run)
            singles.append(h)
        elif _wire_action(hg, v) != _DIAG or not _is_diag(run):
            return None
        else:
            run, singles, clean = None, [], False
        h = links[1 if hq[0] == v else 2 * hq.index(v) + 1][h]
    return run, singles, clean


def _junction_pass(gl: _GateList):
    gates = gl.gates
    i = gl.live(gl.first)
    while i >= 0:
        if gates[i].kind != "CNOT":
            i = gl.live(gl.order[i])
            continue
        partner = _sandwich_partner(gl, i)
        found = None if partner < 0 else _control_run(gl, i, partner)
        if found is None:
            i = gl.live(gl.order[i])
            continue
        run, singles, clean = found
        if _is_diag(run):
            # middle commutes with the CNOT entirely: the pair annihilates
            gl.remove(partner)
            gl.remove(i)
            gl.changed = True
            i = gl.live(gl.order[i])
            continue
        if not clean:
            i = gl.live(gl.order[i])
            continue
        # the rewrite's angles come from the numpy product, gate by gate
        v_run = np.eye(2, dtype=complex)
        for j in singles:
            v_run = gates[j].matrix_1q() @ v_run
        try:
            delta, alpha, phi, beta = _euler_zxz(v_run)
        except ValueError:
            i = gl.live(gl.order[i])
            continue
        if not (abs(abs(phi) - math.pi / 2.0) < 1e-9):
            i = gl.live(gl.order[i])
            continue
        v, t = gates[i].qubits
        pre, ph_pre = _emit_diag(beta, v)
        xx, ph_xx = _xx_half_gates(v, t, 1.0 if phi > 0 else -1.0)
        post, ph_post = _emit_diag(alpha, v)
        gl.phase *= np.exp(1j * delta) * ph_pre * ph_xx * ph_post
        for j in singles:
            gl.remove(j)
        gl.remove(i)
        gl.replace(partner, pre + xx + post)
        gl.changed = True
        i = gl.live(gl.order[i])


def peephole_cancel(circ: Circuit) -> Circuit:
    """Fixpoint gate-cancellation pass; never increases the two-qubit count."""
    gl = _GateList(circ.gates, circ.global_phase)
    while True:
        gl.changed = False
        _simple_pass(gl)
        _junction_pass(gl)
        if not gl.changed:
            break
    return Circuit(circ.n_data, circ.n_ancilla, gl.circuit_gates(), gl.phase)
