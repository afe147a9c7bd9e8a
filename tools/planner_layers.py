#!/usr/bin/env python3
"""Per-layer times of planning, emission and measurement planning on H4 and water.

Plans each system's UCCSD pool with ``trotter.plan_ansatz`` (default
config, HF modes occupied) three times per encoding, emits the last plan
three times with ``trotter.emit_circuit``, and prints one JSON object.  For
each system and encoding it holds the planner's model two-qubit count, the
emitted circuit's two-qubit count (``circuit_two_qubit``), and the
``time.perf_counter`` seconds and call counts of these layers: a planning
layer's summed over the plans, and an emission layer's (``emit`` to
``peephole_junction``) those of the fastest emission, the one of least
``emit`` seconds, so that first-use cache fills and the host's drift
weigh less than a layer change:

    plan         trotter.plan_ansatz, the whole planner
    expand       trotter._expand: the pool's expansion under a stack of
                 encodings (here a stack of one), one per plan
    frame        transform.frame_stack: the basis change of one ladder
                 count's products under the stack, inside expand; the
                 first call on a stack also builds its byte tables
                 (``EncodingStack.tables``)
    compression  trotter._pair_split: the paired-double split, one per plan
    ordering     trotter.inter_order: classes, string orders and chains
    held_karp    trotter._dp_paths: one ladder count's savings matrices and
                 their DP, inside ordering
    dp           trotter._max_paths: a batched DP alone, inside held_karp
    chaining     trotter._chains: the chains of all classes of one member
                 count, inside ordering
    junctions    trotter._junctions: those classes' junction matrices,
                 inside chaining
    emit         trotter.emit_circuit, the whole emission
    chain        trotter._emit_chain: one class chain's gates, emitted in
                 the form the peephole leaves them and appended as they are
    peephole     trotter.peephole_cancel: the prefix (the compressed blocks,
                 then the restoration fan-out), once per emission
    peephole_simple    circuits._simple_pass: one cancel-and-merge pass
    peephole_junction  circuits._junction_pass: one sandwich-rewrite pass

Next to the encodings, ``cost_batch`` times the swarm's cost on a batch
(``trotter.ansatz_two_qubit_costs``, the ``many`` form of
``pso.ansatz_cost_fn``): one call over a system's batch of encodings
(H4: 28 encodings drawn from seed 0; water: the 91 one-bit neighbours of
JW), against one ``ansatz_two_qubit_cost`` call per encoding.  It reports
the best of three rounds of each, as seconds per encoding, and whether
the counts agree.  ``stack_build`` times what a swarm step pays before
planning, over the one-bit encodings (H4's 28, water's 91): one
``EncodingStack`` built from their lower-bit masks with its byte tables,
against one ``Transform`` per encoding with the tables of each.  It
reports the best of three rounds of each, as seconds per encoding.

``measurement`` times the measurement planning of each system's
Hamiltonian (its FCIDUMP in ``tests/fixtures``) under compile-water's
three encodings, JW, BK and a β seeded by ``np.random.default_rng(1)``,
summed over three rounds of one map and both partitions, as compile-water
runs them.  The operator is built afresh for each encoding, so each entry
holds its one merge; compile-water maps one operator under three
encodings and pays the merge once:

    to_pauli      fermions.FermionOperator.to_pauli: the map, one merge per
                  operator (on its first call) plus one frame per call
    merge         transform.Transform.map_operator: the Jordan-Wigner
                  merge, inside the first to_pauli, with its own frame
    frame_sum     transform.Transform.frame_sum: one basis change of a
                  merged sum, one per to_pauli and one inside the merge
    strings       paulis.PauliSum.strings: the sum's canonical string list
    sort          paulis.PauliSum._canonical_keys: its canonical sort
    qwc           measure.partition_qwc
    gc            measure.partition_gc
    diagonalize   measure._diagonalizing_circuit: one GC group's basis
                  change, inside gc

with the sum's string count, both partitions' group counts, and
``sorts_per_sum``, the canonical sorts per ``to_pauli`` result over both
partitions (the merge's own Jordan-Wigner sum is never sorted).

The peephole runs the two passes in turn until neither changes
anything, and skips the last junction pass when it would meet the state
the previous one left unchanged.  It runs only on the prefix: the chain
emitter already takes every saving the peephole would on a class chain,
while the prefix's one-qubit gates cancel and merge, so the peephole
removes about half of its gates and keeps its CNOTs.

``peephole_gates_in`` and ``peephole_gates_out`` are the gates of the
prefix the peephole was given and returned, and ``peephole_two_qubit_in``
and ``peephole_two_qubit_out`` their two-qubit gates, which are equal;
like the emission layers' calls, they count one emission.  The counting
runs outside the peephole's time and inside the emission's.  Everything
runs in this one process on one thread, so ``workers`` is 1.  The
checkout's ``src`` is imported, not an installed fqcc.

Usage: python3 tools/planner_layers.py [--systems h4 water]
"""

import argparse
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fqcc.measure  # noqa: E402
from fqcc import circuits, trotter  # noqa: E402
from fqcc.circuits import metrics  # noqa: E402
from fqcc.fcidump import load_fcidump  # noqa: E402
from fqcc.fermions import FermionOperator, build_hamiltonian, uccsd_pool  # noqa: E402
from fqcc.paulis import PauliSum  # noqa: E402
from fqcc.transform import EncodingStack, Transform  # noqa: E402

# (spin orbitals, electrons) of the STO-3G systems
SYSTEMS = {"h4": (8, 4), "water": (14, 10)}
FIXTURES = {"h4": "h4_sto3g.fcidump", "water": "h2o_sto3g.fcidump"}
ENCODINGS = {"jw": Transform.jordan_wigner, "bk": Transform.bravyi_kitaev}


def seeded_beta(n_modes):
    """The seeded random encoding: lower bits from ``np.random.default_rng(1)``."""
    d = n_modes * (n_modes - 1) // 2
    return Transform.from_lower_bits(n_modes, np.random.default_rng(1).integers(0, 2, d).tolist())


MEASUREMENT_ENCODINGS = {**ENCODINGS, "beta": seeded_beta}
REPEAT = 3  # plans, and emissions, per system and encoding
EMISSION = ("emit", "chain", "peephole", "peephole_simple", "peephole_junction")
LAYERS = {
    "plan": (trotter, "plan_ansatz"),
    "expand": (trotter, "_expand"),
    "frame": (trotter, "frame_stack"),
    "compression": (trotter, "_pair_split"),
    "ordering": (trotter, "inter_order"),
    "held_karp": (trotter, "_dp_paths"),
    "dp": (trotter, "_max_paths"),
    "chaining": (trotter, "_chains"),
    "junctions": (trotter, "_junctions"),
    "emit": (trotter, "emit_circuit"),
    "chain": (trotter, "_emit_chain"),
    "peephole": (trotter, "peephole_cancel"),
    "peephole_simple": (circuits, "_simple_pass"),
    "peephole_junction": (circuits, "_junction_pass"),
}
MEASUREMENT_LAYERS = {
    "to_pauli": (FermionOperator, "to_pauli"),
    "merge": (Transform, "map_operator"),
    "frame_sum": (Transform, "frame_sum"),
    "strings": (PauliSum, "strings"),
    "sort": (PauliSum, "_canonical_keys"),
    "qwc": (fqcc.measure, "partition_qwc"),
    "gc": (fqcc.measure, "partition_gc"),
    "diagonalize": (fqcc.measure, "_diagonalizing_circuit"),
}


def batch(name, n_modes):
    """The encodings ``cost_batch`` scores for a system."""
    d = n_modes * (n_modes - 1) // 2
    if name == "h4":
        rng = np.random.default_rng(0)
        bits = [rng.integers(0, 2, d).tolist() for _ in range(28)]
        return [Transform.from_lower_bits(n_modes, b) for b in bits]
    return [Transform.from_lower_bits(n_modes, [int(j == i) for j in range(d)]) for i in range(d)]


def cost_batch(name, n_modes, n_electrons):
    """Seconds per encoding of one batched cost call and of single calls."""
    pool = uccsd_pool(range(n_electrons), range(n_electrons, n_modes))
    occupied = range(n_electrons)
    transforms = batch(name, n_modes)
    batched, single = [], []
    for _ in range(REPEAT):
        start = perf_counter()
        many = trotter.ansatz_two_qubit_costs(pool, transforms, occupied=occupied)
        batched.append(perf_counter() - start)
        start = perf_counter()
        one = [trotter.ansatz_two_qubit_cost(pool, t, occupied=occupied) for t in transforms]
        single.append(perf_counter() - start)
    return {
        "encodings": len(transforms),
        "per_encoding_s": round(min(batched) / len(transforms), 7),
        "single_per_encoding_s": round(min(single) / len(transforms), 7),
        "counts_equal": many == one,
    }


def stack_build(n_modes):
    """Seconds per encoding to build the one-bit encodings' frame tables
    as one stack from their masks and as one ``Transform`` each."""
    d = n_modes * (n_modes - 1) // 2
    masks = [1 << i for i in range(d)]
    stacked, single = [], []
    for _ in range(REPEAT):
        start = perf_counter()
        EncodingStack.from_lower_bits(n_modes, masks).tables
        stacked.append(perf_counter() - start)
        start = perf_counter()
        for mask in masks:
            Transform.from_lower_bits(n_modes, [mask >> j & 1 for j in range(d)]).stack.tables
        single.append(perf_counter() - start)
    return {
        "encodings": d,
        "per_encoding_s": round(min(stacked) / d, 7),
        "transform_per_encoding_s": round(min(single) / d, 7),
    }


def _timed(fn, totals):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[0] += perf_counter() - start
            totals[1] += 1

    return wrapper


@contextmanager
def _wrapped(layers, wrap):
    """Each layer's attribute replaced by ``wrap(layer, original)`` inside
    the block, and restored after it."""
    originals = {layer: getattr(owner, attr) for layer, (owner, attr) in layers.items()}
    try:
        for layer, (owner, attr) in layers.items():
            setattr(owner, attr, wrap(layer, originals[layer]))
        yield
    finally:
        for layer, (owner, attr) in layers.items():
            setattr(owner, attr, originals[layer])


def _two_qubit(circ):
    """The circuit's two-wire gates (CNOT and CZ); emitted blocks hold no Toffoli."""
    return sum(len(g.qubits) == 2 for g in circ.gates)


def _counted_peephole(fn, gates):
    """``fn`` that also adds its input and output gate counts, then their
    two-qubit counts, to ``gates``."""

    def wrapper(circ, *args, **kwargs):
        out = fn(circ, *args, **kwargs)
        gates[0] += len(circ.gates)
        gates[1] += len(out.gates)
        gates[2] += _two_qubit(circ)
        gates[3] += _two_qubit(out)
        return out

    return wrapper


def measure(n_modes, n_electrons, transform):
    """Layer seconds and calls over ``REPEAT`` plans of one pool, and of the
    fastest of ``REPEAT`` emissions of the last plan."""
    pool = uccsd_pool(range(n_electrons), range(n_electrons, n_modes))
    totals = defaultdict(lambda: [0.0, 0])
    gates = [0, 0, 0, 0]

    def wrap(layer, fn):
        fn = _timed(fn, totals[layer])
        return _counted_peephole(fn, gates) if layer == "peephole" else fn

    with _wrapped(LAYERS, wrap):
        for _ in range(REPEAT):
            plan = trotter.plan_ansatz(pool, transform, occupied=range(n_electrons))
        emissions = []  # (emission layers' totals, peephole gate counts) per emission
        for _ in range(REPEAT):
            for layer in EMISSION:
                totals[layer][:] = [0.0, 0]
            gates[:] = [0, 0, 0, 0]
            circuit = trotter.emit_circuit(plan)
            emissions.append(({layer: list(totals[layer]) for layer in EMISSION}, list(gates)))
    fastest, gates = min(emissions, key=lambda emission: emission[0]["emit"][0])
    totals.update(fastest)
    out = {
        "model_two_qubit": plan.model_two_qubit,
        "circuit_two_qubit": metrics(circuit).two_qubit,
        "peephole_gates_in": gates[0],
        "peephole_gates_out": gates[1],
        "peephole_two_qubit_in": gates[2],
        "peephole_two_qubit_out": gates[3],
    }
    for layer in LAYERS:
        seconds, calls = totals[layer]
        out[f"{layer}_s"] = round(seconds, 6)
        out[f"{layer}_calls"] = calls
    return out


def measurement(name, n_modes):
    """Measurement-planning layer seconds and calls over ``REPEAT`` maps and
    partitions of the system's Hamiltonian, per encoding."""
    ham, _ = load_fcidump(ROOT / "tests" / "fixtures" / FIXTURES[name]).to_spin_orbital()
    out = {}
    for enc, make in MEASUREMENT_ENCODINGS.items():
        hamiltonian = build_hamiltonian(ham)
        transform = make(n_modes)
        totals = defaultdict(lambda: [0.0, 0])
        with _wrapped(MEASUREMENT_LAYERS, lambda layer, fn: _timed(fn, totals[layer])):
            for _ in range(REPEAT):
                paulis = hamiltonian.to_pauli(transform)
                qwc = fqcc.measure.partition_qwc(paulis)
                gc = fqcc.measure.partition_gc(paulis)
        entry = out[enc] = {
            "strings": len(paulis),
            "qwc_groups": qwc.n_groups,
            "gc_groups": gc.n_groups,
            "sorts_per_sum": totals["sort"][1] / totals["to_pauli"][1],
        }
        for layer in MEASUREMENT_LAYERS:
            entry[f"{layer}_s"] = round(totals[layer][0], 6)
            entry[f"{layer}_calls"] = totals[layer][1]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--systems", nargs="+", choices=sorted(SYSTEMS), default=sorted(SYSTEMS))
    args = parser.parse_args(argv)
    result = {"workers": 1, "repeat": REPEAT, "systems": {}}
    for name in args.systems:
        n_modes, n_electrons = SYSTEMS[name]
        result["systems"][name] = {
            enc: measure(n_modes, n_electrons, make(n_modes))
            for enc, make in ENCODINGS.items()
        }
        result["systems"][name]["cost_batch"] = cost_batch(name, n_modes, n_electrons)
        result["systems"][name]["stack_build"] = stack_build(n_modes)
        result["systems"][name]["measurement"] = measurement(name, n_modes)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
