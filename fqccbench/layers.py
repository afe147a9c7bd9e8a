"""Which fqcc calls the traced run wraps, and the per-layer metrics from them.

Layers are named by module.  ``ftgates`` is left out: its gadgets have a
fixed size, so no workload changes their cost.  README.md lists which
end-to-end metric each layer metric should move, on which workload.
"""

from __future__ import annotations

import statistics

from spans import Summary

# per-layer metrics read off a workload's outputs rather than off spans
OUTPUT_METRICS = (
    "hmp2.cycles",
    "hmp2.terms_final",
    "trotter.compressed_terms",
    *(f"{kind}.{enc}" for kind in (
        "trotter.model_two_qubit", "circuits.two_qubit", "circuits.n_gates",
        "measure.qwc_groups", "measure.gc_groups",
    ) for enc in ("jw", "bk", "beta")),
    "pso.steps",
    "pso.particles",
    "pso.evaluations",
    "pso.best_cost",
    "pso.jw_cost",
    "pso.bk_cost",
)


def _count_vqe(_, result, counters):
    counters["simulate.vqe_iterations"] += result.n_iterations
    counters["simulate.vqe_unconverged"] += not result.converged


def _gates_in(circ, *args, **kwargs):
    return len(circ.gates)


def _count_peephole(n_in, result, counters):
    counters["circuits.peephole_gates_in"] += n_in
    counters["circuits.peephole_gates_out"] += len(result.gates)


def _movers(swarm, *args, **kwargs):
    return swarm.n_active


def _count_lookups(movers, result, counters):
    counters["pso.lookups"] += movers


def install(rec):
    """Wrap each layer's public calls where their callers look them up."""
    from fqcc import fcidump, fermions, hmp2, measure, paulis, pso, transform, trotter

    for owner, attr, name, hooks in (
        (fcidump, "load_fcidump", "fcidump.load", {}),
        (fermions.FermionOperator, "to_pauli", "fermions.to_pauli", {}),
        (transform.Transform, "map_operator", "transform.map_operator", {}),
        (paulis.CompiledSum, "__init__", "paulis.compiled_sum", {}),
        (paulis.CompiledSum, "apply", "paulis.apply", {}),
        (hmp2, "run_hmp2_loop", "hmp2.loop", {}),
        (hmp2, "mp2_classical", "hmp2.mp2", {}),
        (hmp2, "ztilde_operator", "hmp2.ztilde", {}),
        (hmp2, "first_order_numerators", "hmp2.numerators", {}),
        (hmp2, "vqe_minimize", "simulate.vqe", {"after": _count_vqe}),
        (hmp2, "apply_ansatz", "simulate.apply_ansatz", {}),
        (trotter, "synthesize_ansatz", "trotter.synthesize", {}),
        (trotter, "expand_term", "trotter.expand", {}),
        (trotter, "bosonic_reduce", "trotter.bosonic", {}),
        (trotter, "inter_order", "trotter.inter_order", {}),
        (trotter, "term_circuit", "trotter.term_circuit", {}),
        (trotter, "peephole_cancel", "circuits.peephole",
         {"before": _gates_in, "after": _count_peephole}),
        (pso, "run", "pso.run", {}),
        (pso, "step", "pso.step", {"before": _movers, "after": _count_lookups}),
        (measure, "partition_qwc", "measure.qwc", {}),
        (measure, "partition_gc", "measure.gc", {}),
    ):
        rec.wrap(owner, attr, name, **hooks)


def install_inputs(rec, inputs):
    """Wrap the cost function a search workload hands to ``pso.run``."""
    if hasattr(inputs, "cost_fn"):
        rec.wrap(inputs, "cost_fn", "trotter.cost")


def _percentile_ms(durations, decile):
    if len(durations) < 2:
        return 1e3 * sum(durations)
    return 1e3 * statistics.quantiles(durations, n=10)[decile - 1]


def per_layer(spans, counters, values, overhead_frac):
    """Every per-layer metric of one traced job; layers that did not run read 0."""
    s = Summary(spans)
    out = {
        "fcidump.load_s": s.total["fcidump.load"],
        "fermions.to_pauli_calls": s.calls["fermions.to_pauli"],
        "transform.map_operator_calls": s.calls["transform.map_operator"],
        "transform.map_operator_s": s.total["transform.map_operator"],
        "paulis.compiled_sums": s.calls["paulis.compiled_sum"],
        "paulis.apply_calls": s.calls["paulis.apply"],
        "paulis.apply_s": s.total["paulis.apply"],
        "simulate.vqe_calls": s.calls["simulate.vqe"],
        "simulate.vqe_s": s.total["simulate.vqe"],
        "simulate.vqe_iterations": counters["simulate.vqe_iterations"],
        "simulate.vqe_unconverged": counters["simulate.vqe_unconverged"],
        "simulate.apply_ansatz_s": s.total["simulate.apply_ansatz"],
        "hmp2.mp2_s": s.total["hmp2.mp2"],
        "hmp2.ztilde_s": s.total["hmp2.ztilde"],
        "hmp2.numerators_s": s.total["hmp2.numerators"],
        "hmp2.loop_self_s": s.self_total["hmp2.loop"],
        "trotter.expand_calls": s.calls["trotter.expand"],
        "trotter.expand_s": s.total["trotter.expand"],
        "trotter.inter_order_s": s.total["trotter.inter_order"],
        "trotter.bosonic_s": s.total["trotter.bosonic"],
        "trotter.term_circuit_s": s.total["trotter.term_circuit"],
        "trotter.cost_calls": s.calls["trotter.cost"],
        "trotter.cost_s": s.total["trotter.cost"],
        "pso.eval_p50_ms": _percentile_ms(s.durations["trotter.cost"], 5),
        "pso.eval_p90_ms": _percentile_ms(s.durations["trotter.cost"], 9),
        "circuits.peephole_calls": s.calls["circuits.peephole"],
        "circuits.peephole_s": s.total["circuits.peephole"],
        "circuits.peephole_gates_in": counters["circuits.peephole_gates_in"],
        "circuits.peephole_gates_out": counters["circuits.peephole_gates_out"],
        "pso.step_self_s": s.self_total["pso.step"],
        "measure.qwc_s": s.total["measure.qwc"],
        "measure.gc_s": s.total["measure.gc"],
        "trace.overhead_frac": overhead_frac,
    }
    out.update({name: values.get(name, 0) for name in OUTPUT_METRICS})
    lookups = out["pso.particles"] + counters["pso.lookups"]
    out["pso.lookups"] = lookups
    out["pso.cache_hit_ratio"] = (lookups - out["pso.evaluations"]) / lookups if lookups else 0.0
    return out
