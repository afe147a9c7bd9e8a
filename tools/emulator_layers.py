#!/usr/bin/env python3
"""Per-layer times of the statevector emulator on H2 and water.

The emulator runs in the occupation basis (Jordan-Wigner), so there is one
entry per system and no encoding to choose.  For each system, runs
``hmp2.run_hmp2_loop`` once with the default config (timing each cycle's ``vqe_minimize`` call), then times the
emulator's kernels on the run's spin sector and final ansatz, and prints one
JSON object.  Each kernel time is seconds per call, the median of ``REPEAT``
rounds of ``time.perf_counter`` over a fixed number of calls:

    h_build_s          hmp2._hamiltonian_minus_hf: H - E_HF from the integrals,
                       as each HMP2 run builds it (ladder form, H|ref> and
                       E_HF, Jordan-Wigner map, shift and compile onto the
                       sector)
    h_compile_s        paulis.CompiledSum: H (already mapped) onto the sector
    generators_s       simulate.compile_generators: every pool generator built
                       on the sector, from the occupation masks, into a
                       fresh table in one call, as each HMP2 run builds
                       them (seconds per whole pool)
    h_apply_s          RowKernel.apply of the compiled H on the final ansatz state
    exponential_s      one excitation exponential (the pool's last double) on
                       that state, by the sweep's one-term path
                       (simulate._run_terms of a one-term _sweep_terms)
    energy_gradient_s  simulate._energy_and_gradient: one VQE energy and
                       gradient at the run's final values

``h_width`` and ``h_nonzeros`` describe H's row layout (the widest row and
the stored nonzeros), and ``cycles`` lists, per VQE cycle, its seconds,
L-BFGS iterations and energy-and-gradient evaluations.  Everything runs in
this one process on one thread, so ``workers`` is 1.  The checkout's
``src`` is imported, not an installed fqcc.

Usage: python3 tools/emulator_layers.py [--systems h2 water]
"""

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fqcc import hmp2  # noqa: E402
from fqcc.fcidump import load_fcidump  # noqa: E402
from fqcc.fermions import build_hamiltonian, uccsd_pool  # noqa: E402
from fqcc.paulis import CompiledSum  # noqa: E402
from fqcc.simulate import (  # noqa: E402
    AnsatzOp, _energy_and_gradient, _occupation_image, _run_terms, _sweep_terms, apply_ansatz,
    compile_generators, hf_state, spin_sector,
)

SYSTEMS = {"h2": "h2_sto3g", "water": "h2o_sto3g"}
REPEAT = 7  # timing rounds per kernel; the median round is reported


def _per_call(fn, calls):
    """Median over ``REPEAT`` rounds of the seconds per call of ``fn``."""
    rounds = []
    for _ in range(REPEAT):
        start = perf_counter()
        for _ in range(calls):
            fn()
        rounds.append((perf_counter() - start) / calls)
    return round(statistics.median(rounds), 9)


def _timed_vqe(vqe, cycles):
    """``vqe`` (``hmp2.vqe_minimize``) that appends each call's seconds and
    iterations to ``cycles``."""

    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = vqe(*args, **kwargs)
        cycles.append({"vqe_s": round(perf_counter() - start, 6),
                       "vqe_iterations": result.n_iterations,
                       "vqe_evaluations": result.n_evaluations})
        return result

    return wrapper


def measure(ham, fock):
    """One HMP2 run's VQE cycles and the kernel times on its final ansatz."""
    n, n_e = ham.n_modes, fock.n_electrons
    cycles = []
    vqe = hmp2.vqe_minimize
    hmp2.vqe_minimize = _timed_vqe(vqe, cycles)
    try:
        start = perf_counter()
        run = hmp2.run_hmp2_loop(ham, fock)
        hmp2_s = perf_counter() - start
    finally:
        hmp2.vqe_minimize = vqe

    pool = uccsd_pool(range(n_e), range(n_e, n))
    by_name = {s.name: s for s in pool}
    sector = spin_sector(n, (n_e + 1) // 2, n_e // 2)
    reference = hf_state(n_e, n, sector=sector)
    h_pauli = _occupation_image(build_hamiltonian(ham))
    h = CompiledSum(h_pauli, sector)
    terms = [by_name[name] for name in run.final.term_names]
    ansatz = AnsatzOp.build(n, terms, run.final_values, sector=sector)
    x = np.array(ansatz.values)
    vec = apply_ansatz(reference, ansatz).amplitudes
    double = [s for s in pool if s.kind == "double"][-1]
    kernel = compile_generators((double,), n, sector, {})[0]
    return {
        "sector_dim": len(sector),
        "h_strings": len(h_pauli),
        "h_width": int(h.values.shape[0]),
        "h_nonzeros": int(np.count_nonzero(h.values)),
        "ansatz_terms": len(terms),
        "h_build_s": _per_call(lambda: hmp2._hamiltonian_minus_hf(ham, n_e, sector), 3),
        "h_compile_s": _per_call(lambda: CompiledSum(h_pauli, sector), 3),
        "generators_s": _per_call(lambda: compile_generators(pool, n, sector, {}), 1),
        "h_apply_s": _per_call(lambda: h.apply(vec), 200),
        "exponential_s": _per_call(
            lambda: _run_terms(_sweep_terms((kernel,), (0.1,)), vec), 2000
        ),
        "energy_gradient_s": _per_call(
            lambda: _energy_and_gradient(x, h, ansatz, reference), 20
        ),
        "hmp2_s": round(hmp2_s, 6),
        "cycles": cycles,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--systems", nargs="+", choices=sorted(SYSTEMS), default=sorted(SYSTEMS))
    args = parser.parse_args(argv)
    result = {"workers": 1, "repeat": REPEAT, "systems": {}}
    for name in args.systems:
        path = ROOT / "tests" / "fixtures" / f"{SYSTEMS[name]}.fcidump"
        ham, fock = load_fcidump(path).to_spin_orbital()
        result["systems"][name] = measure(ham, fock)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
