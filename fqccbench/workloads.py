"""The benchmark's workloads: seeded inputs, one batch job, output checks.

Each workload is a frozen dataclass, so a set-up probe process can rebuild it
from JSON.  ``setup`` does every import and input build the job needs and is
what ``setup_s`` times.  ``reference`` is the benchmark's own oracle work and
is never timed.  ``operations`` lists the job's operations in order; one
operation is one encoding compile, one search or one HMP2 run.  ``check``
returns the problems found in one operation's result.

compile-water  the compile user's job: emission and peephole dominate, and no
               statevector is touched.
search-h4      the same planner as compile-water, as thousands of small plans
               across encodings: no emission, no peephole, no statevector.
hmp2-water     the emulator user's job: pso and trotter never run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
WATER = "tests/fixtures/h2o_sto3g.fcidump"
ENCODINGS = ("jw", "bk", "beta")
MAX_ERROR_MHA = 1.6  # largest HMP2 error against FCI that passes the check


def use_checkout():
    """Import fqcc from the checkout's ``src`` and the oracles from ``tests``."""
    for sub in ("tests", "src"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)


def _plan_problems(label, paulis, plan, commute):
    """A measurement plan must hold every string once, in commuting groups."""
    problems = []
    want = Counter(s.key for s in paulis.strings())
    got = Counter(s.key for g in plan.groups for s in g.strings)
    if got != want:
        problems.append(f"{label}: {plan.criterion} plan does not cover each string once")
    for group in plan.groups:
        if not all(commute(a, b) for a, b in combinations(group.strings, 2)):
            problems.append(f"{label}: {plan.criterion} group does not commute")
            break
    return problems


@dataclass(frozen=True)
class CompileWorkload:
    """Map H, plan QWC and GC measurement and synthesize the UCCSD ansatz.

    Runs under JW, BK and one unit-triangular encoding drawn from the seed.
    """

    fixture: str = WATER
    kind = "compile"

    def setup(self, seed):
        import numpy as np

        # the job's modules load here, so setup_s counts their import
        from fqcc import fcidump, fermions, measure, transform, trotter  # noqa: F401

        ham, fock = fcidump.load_fcidump(ROOT / self.fixture).to_spin_orbital()
        n, n_e = ham.n_modes, fock.n_electrons
        bits = np.random.default_rng(seed).integers(0, 2, n * (n - 1) // 2)
        t = transform.Transform
        return SimpleNamespace(
            hamiltonian=fermions.build_hamiltonian(ham),
            pool=fermions.uccsd_pool(range(n_e), range(n_e, n)),
            occupied=range(n_e),
            encodings=dict(
                zip(
                    ENCODINGS,
                    (t.jordan_wigner(n), t.bravyi_kitaev(n), t.from_lower_bits(n, bits.tolist())),
                )
            ),
        )

    def reference(self, inputs):
        return None

    def operations(self, inputs):
        from fqcc import measure, trotter

        def compile_one(transform):
            paulis = inputs.hamiltonian.to_pauli(transform)
            return SimpleNamespace(
                paulis=paulis,
                qwc=measure.partition_qwc(paulis),
                gc=measure.partition_gc(paulis),
                plan=trotter.synthesize_ansatz(inputs.pool, transform, occupied=inputs.occupied),
            )

        return [(name, partial(compile_one, t)) for name, t in inputs.encodings.items()]

    def check(self, inputs, reference, label, out):
        from fqcc import circuits, trotter
        from fqcc.paulis import PauliString

        plan = out.plan
        problems = []
        model = trotter.ansatz_two_qubit_cost(
            inputs.pool, inputs.encodings[label], occupied=inputs.occupied
        )
        if model != plan.model_two_qubit:
            problems.append(f"{label}: cost model {model} != plan {plan.model_two_qubit}")
        if circuits.metrics(plan.circuit).two_qubit > plan.model_two_qubit:
            problems.append(f"{label}: circuit has more two-qubit gates than the model")
        if len(plan.compressed) + len(plan.kept) != len(inputs.pool):
            problems.append(f"{label}: compressed + kept terms != pool")
        problems += _plan_problems(label, out.paulis, out.qwc, PauliString.commutes_qubitwise)
        problems += _plan_problems(label, out.paulis, out.gc, PauliString.commutes_general)
        return problems

    def two_qubit(self, inputs, results):
        from fqcc import circuits

        return circuits.metrics(results["jw"].plan.circuit).two_qubit

    def named_metrics(self, inputs, reference, results, job_s):
        return {
            "compile_s": (job_s, "s"),
            "two_qubit_jw": (self.two_qubit(inputs, results), "count"),
            "gc_groups_jw": (results["jw"].gc.n_groups, "count"),
        }

    def layer_values(self, inputs, results):
        from fqcc import circuits

        out = {"trotter.compressed_terms": sum(len(r.plan.compressed) for r in results.values())}
        for name, r in results.items():
            m = circuits.metrics(r.plan.circuit)
            out[f"trotter.model_two_qubit.{name}"] = r.plan.model_two_qubit
            out[f"circuits.two_qubit.{name}"] = m.two_qubit
            out[f"circuits.n_gates.{name}"] = m.n_gates
            out[f"measure.qwc_groups.{name}"] = r.qwc.n_groups
            out[f"measure.gc_groups.{name}"] = r.gc.n_groups
        return out

    def fingerprint(self, results):
        return {
            name: [
                len(r.paulis), r.qwc.n_groups, r.gc.n_groups, r.plan.model_two_qubit,
                len(r.plan.compressed), len(r.plan.circuit.gates),
            ]
            for name, r in results.items()
        }


@dataclass(frozen=True)
class SearchWorkload:
    """``pso.run`` over encodings of a UCCSD pool, scored by the planner's model.

    One job is ``searches`` independent searches, with swarm seeds drawn from
    the run's seed.  How much work one swarm does depends on its seed; a job
    of several swarms lets the seed move the job time less.
    """

    n_modes: int = 8
    n_electrons: int = 4
    k_max: int = 1
    t_max: int = 3
    searches: int = 2
    kind = "search"

    def setup(self, seed):
        from fqcc import fermions, pso

        occupied = range(self.n_electrons)
        pool = fermions.uccsd_pool(occupied, range(self.n_electrons, self.n_modes))
        return SimpleNamespace(
            pool=pool,
            cost_fn=pso.ansatz_cost_fn(pool, occupied=occupied),
            configs=[
                pso.SwarmConfig(
                    n_modes=self.n_modes, k_max=self.k_max, t_max=self.t_max,
                    seed=seed * self.searches + i,
                )
                for i in range(self.searches)
            ],
        )

    def reference(self, inputs):
        return None

    def operations(self, inputs):
        from fqcc import pso

        def search(config):
            # the swarm pso.run would build itself, kept for its cache size
            swarm = pso.init_swarm(config.n_modes, config=config)
            return SimpleNamespace(report=pso.run(config, inputs.cost_fn, swarm=swarm), swarm=swarm)

        return [(f"search{i}", partial(search, c)) for i, c in enumerate(inputs.configs)]

    def check(self, inputs, reference, label, out):
        report = out.report
        problems = []
        cost = int(inputs.cost_fn(report.best_transform()))
        if cost != report.best_cost:
            problems.append(f"{label}: best_cost {report.best_cost} != cost of best encoding {cost}")
        history = report.best_history
        if any(b > a for a, b in zip(history, history[1:])):
            problems.append(f"{label}: best_history increases")
        return problems

    def two_qubit(self, inputs, results):
        """The lowest cost any of the job's searches found."""
        return min(out.report.best_cost for out in results.values())

    def named_metrics(self, inputs, reference, results, job_s):
        return {"search_s": (job_s, "s")}

    def layer_values(self, inputs, results):
        reports = [out.report for out in results.values()]
        return {
            "pso.steps": sum(r.steps for r in reports),
            "pso.particles": sum(r.n_particles for r in reports),
            "pso.evaluations": sum(len(out.swarm.cost_cache) for out in results.values()),
            "pso.best_cost": self.two_qubit(inputs, results),
            "pso.jw_cost": reports[0].jw_cost,
            "pso.bk_cost": reports[0].bk_cost,
        }

    def fingerprint(self, results):
        return {
            label: {
                "best_bits": "".join(map(str, out.report.best_bits)),
                "best_history": list(out.report.best_history),
                "evaluations": len(out.swarm.cost_cache),
                "steps": out.report.steps,
            }
            for label, out in results.items()
        }


def _error_mha(run, e_fci):
    return abs(run.final.e_total - e_fci) * 1e3


@dataclass(frozen=True)
class Hmp2Workload:
    """``run_hmp2_loop`` under JW with the default config, run to convergence."""

    fixture: str = WATER
    kind = "hmp2"

    def setup(self, seed):
        # the job's modules load here, so setup_s counts their import
        from fqcc import fcidump, hmp2  # noqa: F401

        ham, fock = fcidump.load_fcidump(ROOT / self.fixture).to_spin_orbital()
        return SimpleNamespace(ham=ham, fock=fock)

    def reference(self, inputs):
        """FCI ground energy from the determinant-space oracle in ``tests``."""
        import oracles

        h1, g2, ecore, _, n_so, n_e = oracles.read_fcidump_so(ROOT / self.fixture)
        return oracles.fci_ground_energy(h1, g2, ecore, n_so, n_e - n_e // 2, n_e // 2)

    def operations(self, inputs):
        from fqcc import hmp2

        return [("hmp2", lambda: hmp2.run_hmp2_loop(inputs.ham, inputs.fock))]

    def check(self, inputs, e_fci, label, run):
        problems = []
        if not run.converged:
            problems.append(f"HMP2 did not converge: {run.reason}")
        error = _error_mha(run, e_fci)
        if not error < MAX_ERROR_MHA:
            problems.append(f"energy error {error:.4f} mHa >= {MAX_ERROR_MHA}")
        if any(r.e_vqe < e_fci - 1e-9 for r in run.reports):
            problems.append("a VQE energy lies below FCI")
        return problems

    def two_qubit(self, inputs, results):
        """Planner two-qubit count of the final ansatz under JW."""
        from fqcc import fermions, transform, trotter

        n, n_e = inputs.ham.n_modes, inputs.fock.n_electrons
        pool = {s.name: s for s in fermions.uccsd_pool(range(n_e), range(n_e, n))}
        terms = [pool[name] for name in results["hmp2"].final.term_names]
        return trotter.ansatz_two_qubit_cost(
            terms, transform.Transform.jordan_wigner(n), occupied=range(n_e)
        )

    def named_metrics(self, inputs, e_fci, results, job_s):
        return {"hmp2_s": (job_s, "s"), "energy_error_mha": (_error_mha(results["hmp2"], e_fci), "mHa")}

    def layer_values(self, inputs, results):
        run = results["hmp2"]
        return {"hmp2.cycles": len(run.reports) - 1, "hmp2.terms_final": run.final.n_terms}

    def fingerprint(self, results):
        run = results["hmp2"]
        return {
            "reason": run.reason,
            "cycles": [[r.n_terms, r.chosen] for r in run.reports],
        }


WORKLOADS = {
    "compile-water": CompileWorkload(),
    "search-h4": SearchWorkload(),
    "hmp2-water": Hmp2Workload(),
}
_KINDS = {cls.kind: cls for cls in (CompileWorkload, SearchWorkload, Hmp2Workload)}


def to_spec(workload):
    return json.dumps([workload.kind, dataclasses.asdict(workload)])


def from_spec(spec):
    kind, fields = json.loads(spec)
    return _KINDS[kind](**fields)
