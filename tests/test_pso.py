import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc import pso
from fqcc.fermions import uccsd_pool
from fqcc.transform import EncodingStack, Transform
from fqcc.trotter import HeuristicConfig, plan_ansatz

import oracles


def bit_cost(transform):
    """Toy objective: weighted popcount of the free bits (minimum at identity)."""
    bits = oracles.lower_bits(transform)
    return 3 * sum(bits) + sum(j * b for j, b in enumerate(bits)) % 5


def _text_checkpoint(version):
    """A whole checkpoint of one 4-mode particle in the tagged-line text of
    versions 3 and 4; version 3 also carried ``sigmoid_sets_one``."""
    head = [f"fqcc-swarm {version}", "n 4", "inertia 1.0", "cognitive 2.0", "social 2.0"]
    head += ["k_max 1", "t_max 10000", "osc_window 10", "drift_distance 6", "drift_window 10"]
    head += ["particles_cap 20000", "seed 0"] + ["sigmoid_sets_one 0"] * (version == 3)
    body = ["t 0", "best_cost 3", "best 100000", "cache 1", "c 100000 3", "particle 1 3 0"]
    body += ["x 100000", "x0 100000", "l 100000", "v " + " ".join(["0.0"] * 6)]
    body += ["r " + json.dumps(np.random.default_rng(0).bit_generator.state), "w 100000"]
    return "\n".join(head + body) + "\n"


def _init(n, k_max, seed, **kwargs):
    return pso.init_swarm(n, config=pso.SwarmConfig(n_modes=n, k_max=k_max, seed=seed, **kwargs))


class TestSwarmConfig:
    def test_width_defaults(self):
        small = pso.SwarmConfig(n_modes=8)
        wide = pso.SwarmConfig(n_modes=9)
        assert (small.k_max, small.t_max) == (6, 10000)
        assert (wide.k_max, wide.t_max) == (3, 100)

    def test_explicit_sizes_kept(self):
        cfg = pso.SwarmConfig(n_modes=4, k_max=2, t_max=17)
        assert (cfg.k_max, cfg.t_max) == (2, 17)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inertia": 4.5},
            {"inertia": -4.5},
            {"cognitive": -0.1},
            {"cognitive": 2.5},
            {"social": 3.0},
            {"k_max": 0},
            {"t_max": -1},
            {"particles_cap": 0},
            {"osc_window": 0},
        ],
    )
    def test_bounds_enforced(self, kwargs):
        with pytest.raises(ValueError):
            pso.SwarmConfig(n_modes=4, **kwargs)

    def test_needs_two_modes(self):
        with pytest.raises(ValueError, match="two modes"):
            pso.SwarmConfig(n_modes=1)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"n_modes": 4.0}, "n_modes"),
            ({"n_modes": "4"}, "n_modes"),
            ({"n_modes": 4, "k_max": True}, "k_max"),
            ({"n_modes": 4, "t_max": 5.0}, "t_max"),
            ({"n_modes": 4, "seed": np.int64(1)}, "seed"),
            ({"n_modes": 4, "social": "2"}, "social"),
            ({"n_modes": 4, "inertia": None}, "inertia"),
        ],
    )
    def test_field_types_enforced(self, kwargs, field):
        """A bool is not an int, and neither is a float or a numpy integer."""
        with pytest.raises(TypeError, match=f"config field '{field}'"):
            pso.SwarmConfig(**kwargs)

    def test_int_weights_pass_for_floats(self):
        cfg = pso.SwarmConfig(n_modes=4, inertia=1, cognitive=0, social=2, k_max=None)
        assert (cfg.inertia, cfg.cognitive, cfg.k_max) == (1, 0, 6)

    def test_dimension(self):
        assert pso.SwarmConfig(n_modes=4).dimension == 6
        assert pso.SwarmConfig(n_modes=14).dimension == 91


class TestInitSwarm:
    def test_counts_small(self):
        assert len(_init(3, 1, 0).particles) == 3
        assert len(_init(4, 2, 0).particles) == 21

    def test_velocities_start_zero(self):
        swarm = _init(4, 2, 0)
        assert all((p.velocity == 0.0).all() for p in swarm.particles)

    def test_positions_are_khot_and_distinct(self):
        swarm = _init(4, 2, 0)
        masks = [p.position for p in swarm.particles]
        assert len(set(masks)) == len(masks)
        assert all(1 <= m.bit_count() <= 2 for m in masks)
        for p in swarm.particles:
            assert p.best_position == p.initial_position == p.position

    def test_every_position_decodes(self):
        swarm = _init(5, 3, 0)
        d = swarm.config.dimension
        for p in swarm.particles:
            t = Transform.from_lower_bits(5, [(p.position >> j) & 1 for j in range(d)])
            assert (np.diag(t.beta) == 1).all()

    def test_cap_subsamples_deterministically(self):
        full = {p.position for p in _init(4, 2, 7).particles}
        a = _init(4, 2, 7, particles_cap=10)
        b = _init(4, 2, 7, particles_cap=10)
        masks = [p.position for p in a.particles]
        assert len(masks) == 10
        assert len(set(masks)) == 10
        assert set(masks) < full
        assert masks == [p.position for p in b.particles]

    def test_rejection_sampling_path(self):
        # d = 435: the binomial total is far past the enumeration limit
        swarm = _init(30, 3, 5, particles_cap=50)
        masks = [p.position for p in swarm.particles]
        assert len(set(masks)) == 50
        assert all(1 <= m.bit_count() <= 3 for m in masks)
        again = _init(30, 3, 5, particles_cap=50)
        assert masks == [p.position for p in again.particles]

    def test_default_config_and_width_check(self):
        assert pso.init_swarm(4).config == pso.SwarmConfig(n_modes=4)
        with pytest.raises(ValueError, match="6 modes, not 4"):
            pso.init_swarm(4, config=pso.SwarmConfig(n_modes=6))

    def test_minimal_register(self):
        swarm = _init(2, 6, 0)
        assert [p.position for p in swarm.particles] == [1]

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 6),
        k_max=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_swarm_validity(self, n, k_max, seed):
        swarm = _init(n, k_max, seed)
        d = n * (n - 1) // 2
        total = sum(math.comb(d, k) for k in range(1, min(k_max, d) + 1))
        masks = [p.position for p in swarm.particles]
        assert len(masks) == min(total, swarm.config.particles_cap)
        assert len(set(masks)) == len(masks)
        for m in masks:
            assert 1 <= m.bit_count() <= k_max
            Transform.from_lower_bits(n, [(m >> j) & 1 for j in range(d)])


class TestStep:
    def test_particle_at_global_best_keeps_zero_velocity(self):
        swarm = _init(4, 2, 3)
        pso.step(swarm, lambda t: 5)
        leader = next(
            p for p in swarm.particles if p.best_position == swarm.best_position
        )
        assert (leader.velocity == 0.0).all()

    def test_zero_weights_flip_fairly(self):
        cfg = pso.SwarmConfig(n_modes=6, k_max=2, inertia=0.0, cognitive=0.0, social=0.0, seed=12)
        swarm = pso.init_swarm(6, config=cfg)
        pso.step(swarm, bit_cost)
        total_bits = len(swarm.particles) * cfg.dimension
        ones = sum(p.position.bit_count() for p in swarm.particles)
        assert 0.42 < ones / total_bits < 0.58

    def test_saturated_velocity_follows_convention(self):
        """A bit becomes 0 when its draw lands at or below sigmoid(v), so a
        saturated positive velocity clears every bit."""
        cfg = pso.SwarmConfig(n_modes=4, k_max=1, inertia=1.0, cognitive=0.0, social=0.0, seed=0)
        swarm = pso.init_swarm(4, config=cfg)
        pso.step(swarm, bit_cost)
        for p in swarm.particles:
            p.velocity = np.full(cfg.dimension, 500.0)
        pso.step(swarm, bit_cost)
        assert all(p.position == 0 for p in swarm.particles)

    def test_sigmoid_is_scipy_expit(self):
        """Bit for bit, so seeded trajectories match the scipy sigmoid's;
        exp(-v) overflows below v = -709.78, where both give 0.0."""
        from scipy.special import expit

        edges = [709.78, 709.79, 745.2, 1e308, math.inf, 0.0, 5e-324, 36.0, 37.0]
        for v in (np.linspace(-800.0, 800.0, 400_011), np.array(edges + [-e for e in edges])):
            assert np.array_equal(pso._sigmoid(v), expit(v))

    def test_bests_refresh_and_t_advances(self):
        swarm = _init(4, 2, 1)
        pso.step(swarm, bit_cost)
        assert swarm.t == 1
        initial_best = swarm.best_cost
        for _ in range(5):
            pso.step(swarm, bit_cost)
        assert swarm.t == 6
        assert swarm.best_cost <= initial_best
        for p in swarm.particles:
            assert p.best_cost <= swarm.cost_cache[p.initial_position]

    def test_stopped_particles_freeze(self):
        swarm = _init(4, 2, 1)
        pso.step(swarm, bit_cost)
        victim = swarm.particles[0]
        victim.active = False
        pos, vel = victim.position, victim.velocity.copy()
        pso.step(swarm, bit_cost)
        assert victim.position == pos
        assert (victim.velocity == vel).all()


class TestRun:
    def test_zero_steps_returns_best_initial(self):
        cfg = pso.SwarmConfig(n_modes=4, k_max=2, t_max=0, seed=1)
        report = pso.run(cfg, bit_cost)
        assert report.steps == 0
        assert report.best_history == (report.best_cost,)
        swarm = pso.init_swarm(4, config=cfg)
        stack = EncodingStack.from_lower_bits(4, [p.position for p in swarm.particles])
        initial = min(bit_cost(t) for t in stack)
        assert report.best_cost == initial

    def test_best_history_monotone(self):
        cfg = pso.SwarmConfig(n_modes=4, k_max=2, t_max=60, seed=4)
        report = pso.run(cfg, bit_cost)
        assert all(a >= b for a, b in zip(report.best_history, report.best_history[1:]))
        assert report.best_history[-1] == report.best_cost

    def test_seeded_runs_are_identical(self):
        cfg = pso.SwarmConfig(n_modes=4, k_max=6, t_max=25, seed=3)
        cost = pso.ansatz_cost_fn(uccsd_pool((0, 1), (2, 3)))
        assert pso.run(cfg, cost) == pso.run(cfg, cost)

    @pytest.mark.parametrize("change", [{"n_modes": 5}, {"seed": 10}, {"inertia": 0.5}])
    def test_resume_needs_the_swarms_config(self, change):
        """A resume may extend ``t_max``; any other config field must match
        the swarm's, or the report would describe another search."""
        cfg = pso.SwarmConfig(n_modes=4, k_max=1, t_max=2, seed=9)
        swarm = pso.init_swarm(4, config=cfg)
        pso.run(cfg, bit_cost, swarm=swarm)
        other = dataclasses.replace(cfg, t_max=6, **change)
        with pytest.raises(ValueError, match="t_max only"):
            pso.run(other, bit_cost, swarm=swarm)
        assert swarm.t == 2
        report = pso.run(dataclasses.replace(cfg, t_max=6), bit_cost, swarm=swarm)
        assert report.steps == swarm.t > 2

    def test_cost_fn_closes_over_one_config(self):
        pool = uccsd_pool((0, 1), (2, 3, 4, 5))
        bk = Transform.bravyi_kitaev(6)
        for cfg in (HeuristicConfig(), HeuristicConfig(bosonic=False, reorder=False)):
            cost = pso.ansatz_cost_fn(pool, cfg, occupied=range(2))
            assert cost(bk) == plan_ansatz(pool, bk, config=cfg, occupied=range(2)).model_two_qubit

    def test_one_shot_occupied_scores_alike_on_every_call(self):
        """``occupied`` given as an iterator is read once: H4 under BK
        scores the same on the first call, the second and through ``many``."""
        pool = uccsd_pool(range(4), range(4, 8))
        bk = Transform.bravyi_kitaev(8)
        want = plan_ansatz(pool, bk, occupied=(0,)).model_two_qubit
        cost = pso.ansatz_cost_fn(pool, occupied=iter([0]))
        assert [cost(bk), cost(bk)] == cost.many([bk, bk]) == [want, want]

    def test_oscillation_rule_stops_early(self):
        cfg = pso.SwarmConfig(n_modes=4, k_max=2, t_max=4000, seed=2, inertia=-2.0)
        report = pso.run(cfg, bit_cost)
        assert report.steps < 4000

    def test_drift_rule_stops_early(self):
        # d = 15 > drift_distance, positive inertia locks wanderers far out
        cfg = pso.SwarmConfig(n_modes=6, k_max=2, t_max=3000, seed=5)
        report = pso.run(cfg, lambda t: 3 * sum(oracles.lower_bits(t)))
        assert report.steps < 3000

    def test_report_arithmetic_is_self_consistent(self):
        cfg = pso.SwarmConfig(n_modes=4, k_max=2, t_max=30, seed=9)
        report = pso.run(cfg, bit_cost)
        assert report.n_particles == 21
        assert report.resource_fraction == pytest.approx(21 / 64)
        assert report.improvement == pytest.approx(
            pso.improvement_fraction(report.jw_cost, report.best_cost)
        )
        assert bit_cost(report.best_transform()) == report.best_cost
        assert report.jw_cost == bit_cost(Transform.jordan_wigner(4))
        assert report.bk_cost == bit_cost(Transform.bravyi_kitaev(4))

    def test_search_beats_identity_on_molecular_pool(self):
        cost = pso.ansatz_cost_fn(uccsd_pool((0, 1), (2, 3)))
        cfg = pso.SwarmConfig(n_modes=4, k_max=6, t_max=40, seed=3)
        report = pso.run(cfg, cost)
        assert report.best_cost <= report.jw_cost
        assert report.improvement > 0.0
        assert cost(report.best_transform()) == report.best_cost

    @pytest.mark.parametrize("seed, evaluations", [(2, 110), (3, 111)])
    def test_h4_search_pins(self, seed, evaluations):
        """The search-h4 benchmark's seed-1 searches: H4's 26-term pool,
        HF modes occupied, default planner config."""
        cost = pso.ansatz_cost_fn(uccsd_pool(range(4), range(4, 8)), occupied=range(4))
        cfg = pso.SwarmConfig(n_modes=8, k_max=1, t_max=3, seed=seed)
        swarm = pso.init_swarm(8, config=cfg)
        report = pso.run(cfg, cost, swarm=swarm)
        assert "".join(map(str, report.best_bits)) == "0000000000000000000010000000"
        assert report.best_history == (206, 206, 206, 206)
        assert len(swarm.cost_cache) == report.evaluations == evaluations

    @pytest.mark.parametrize("seed", [2, 3])
    def test_batched_cost_gives_the_plain_search(self, seed):
        """The search-h4 searches scored through ``many`` and through a
        plain wrapper that scores one encoding per call: the same report
        and the same cost cache, in the same order."""
        cost = pso.ansatz_cost_fn(uccsd_pool(range(4), range(4, 8)), occupied=range(4))
        cfg = pso.SwarmConfig(n_modes=8, k_max=1, t_max=3, seed=seed)
        runs = []
        for fn in (cost, lambda t: cost(t)):
            swarm = pso.init_swarm(8, config=cfg)
            runs.append((pso.run(cfg, fn, swarm=swarm), list(swarm.cost_cache.items())))
        assert runs[0] == runs[1]

    def test_many_is_called_once_per_evaluation(self, monkeypatch):
        """One ``many`` call per ``_evaluate`` that meets new positions,
        each with exactly the new ones, and one for both baselines."""
        cost = pso.ansatz_cost_fn(uccsd_pool((0, 1), (2, 3, 4, 5)), occupied=range(2))
        batches, evaluations = [], []
        many = cost.many

        def recording(transforms):
            batches.append([oracles.lower_bits(t) for t in transforms])
            return many(transforms)

        cost.many = recording
        evaluate = pso._evaluate

        def counting(swarm, cost_fn, masks):
            new = sorted({m for m in masks if m not in swarm.cost_cache})
            if new:
                evaluations.append(new)
            return evaluate(swarm, cost_fn, masks)

        monkeypatch.setattr(pso, "_evaluate", counting)
        cfg = pso.SwarmConfig(n_modes=6, k_max=2, t_max=4, seed=1)
        report = pso.run(cfg, cost)
        d = cfg.dimension
        masks = [[sum(b << j for j, b in enumerate(bits)) for bits in batch] for batch in batches]
        assert masks[:-1] == evaluations
        assert batches[-1] == [(0,) * d, oracles.lower_bits(Transform.bravyi_kitaev(6))]
        # the initial swarm and every step met new positions here
        assert len(evaluations) == report.steps + 1 == len(batches) - 1

    def test_many_builds_no_transform_per_position(self, monkeypatch):
        """With ``many``, each batch of new positions reaches it as one
        ``EncodingStack`` read from the masks: the only ``Transform``s a
        search builds are its JW and BK baselines."""
        cost = pso.ansatz_cost_fn(uccsd_pool((0, 1), (2, 3, 4, 5)), occupied=range(2))
        stacks, built = [], []
        many = cost.many

        def recording(encodings):
            stacks.append(encodings)
            return many(encodings)

        cost.many = recording
        init = Transform.__init__

        def counting(self, beta):
            built.append(1)
            init(self, beta)

        monkeypatch.setattr(Transform, "__init__", counting)
        report = pso.run(pso.SwarmConfig(n_modes=6, k_max=2, t_max=4, seed=1), cost)
        assert all(isinstance(stack, EncodingStack) for stack in stacks)
        assert len(stacks) == report.steps + 2
        assert sum(map(len, stacks[:-1])) == report.evaluations
        assert len(built) == 2

    def test_improvement_pins(self):
        assert pso.improvement_fraction(42, 33) == pytest.approx(0.2143, abs=5e-5)
        assert pso.improvement_fraction(30, 25) == pytest.approx(0.1667, abs=5e-5)
        assert pso.improvement_fraction(0, 7) == 0.0

    def test_cost_delta_ratio_pins(self):
        assert pso.cost_delta_ratio(42, 33) == pytest.approx(33 / -9)
        assert pso.cost_delta_ratio(5, 5) == math.inf

    def test_report_dict_round_trips_bits(self):
        cfg = pso.SwarmConfig(n_modes=4, k_max=2, t_max=5, seed=6)
        report = pso.run(cfg, bit_cost)
        payload = report.as_dict()
        assert payload["best_bits"] == "".join(str(b) for b in report.best_bits)
        assert payload["best_cost"] == report.best_cost
        assert payload["steps"] == report.steps

    def test_report_dict_carries_history_and_evaluations(self):
        cfg = pso.SwarmConfig(n_modes=4, k_max=2, t_max=5, seed=6)
        swarm = pso.init_swarm(4, config=cfg)
        report = pso.run(cfg, bit_cost, swarm=swarm)
        payload = json.loads(json.dumps(report.as_dict(), allow_nan=False))
        assert tuple(payload["best_history"]) == report.best_history
        assert len(payload["best_history"]) == report.steps + 1
        assert payload["evaluations"] == report.evaluations == len(swarm.cost_cache)

    def test_report_dict_is_strict_json_on_a_tie(self):
        report = pso.run(pso.SwarmConfig(n_modes=4, k_max=2, t_max=5, seed=6), lambda t: 5)
        assert report.cost_delta_ratio == math.inf
        payload = json.loads(json.dumps(report.as_dict(), allow_nan=False))
        assert payload["cost_delta_ratio"] is None
        assert payload["best_cost"] == payload["jw_cost"] == 5


class TestCheckpoint:
    def _swarm(self):
        swarm = _init(4, 2, 9)
        for _ in range(3):
            pso.step(swarm, bit_cost)
        return swarm

    def test_round_trip_exact(self, tmp_path):
        swarm = self._swarm()
        path = tmp_path / "swarm.txt"
        pso.write_checkpoint(swarm, path)
        back = pso.read_checkpoint(path)
        assert back.config == swarm.config
        assert back.t == swarm.t
        assert back.best_position == swarm.best_position
        assert back.best_cost == swarm.best_cost
        assert len(back.particles) == len(swarm.particles)
        for a, b in zip(back.particles, swarm.particles):
            assert a.position == b.position
            assert a.initial_position == b.initial_position
            assert a.best_position == b.best_position
            assert a.best_cost == b.best_cost
            assert a.active == b.active
            assert a.drift_steps == b.drift_steps
            assert (a.velocity == b.velocity).all()
            assert a.recent == b.recent
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
        assert back.cost_cache == swarm.cost_cache

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 8),
        k_max=st.integers(1, 2),
        cap=st.integers(1, 30),
        inertia=st.floats(-4, 4),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(-1, 3),
    )
    def test_round_trip_every_field(self, tmp_path_factory, n, k_max, cap, inertia, seed, steps):
        """Every field of the swarm, its config and its particles reads back
        with its type and value, the velocities bit for bit, the random
        streams' states and the cost cache's order with them.  ``steps`` -1
        leaves the swarm unevaluated: no global best and infinite costs."""
        cfg = pso.SwarmConfig(n_modes=n, k_max=k_max, particles_cap=cap, inertia=inertia, seed=seed)
        swarm = pso.init_swarm(n, config=cfg)
        if steps >= 0:
            pso._ensure_evaluated(swarm, bit_cost)
        for _ in range(steps):
            pso.step(swarm, bit_cost)
        path = tmp_path_factory.mktemp("round_trip") / "swarm.json"
        pso.write_checkpoint(swarm, path)
        back = pso.read_checkpoint(path)
        if steps < 0:
            assert back.best_position is None
            assert all(p.best_cost == math.inf for p in back.particles)

        def same(a, b):
            assert type(a) is type(b) and a == b

        for f in dataclasses.fields(pso.SwarmConfig):
            same(getattr(back.config, f.name), getattr(swarm.config, f.name))
        for f in dataclasses.fields(pso.Swarm):
            if f.name not in ("config", "particles"):
                same(getattr(back, f.name), getattr(swarm, f.name))
        assert list(back.cost_cache.items()) == list(swarm.cost_cache.items())
        assert len(back.particles) == len(swarm.particles)
        for a, b in zip(back.particles, swarm.particles):
            for f in dataclasses.fields(pso.Particle):
                x, y = getattr(a, f.name), getattr(b, f.name)
                if f.name == "velocity":
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
                elif f.name == "rng":
                    assert x.bit_generator.state == y.bit_generator.state
                    assert x.random(3).tobytes() == y.random(3).tobytes()
                else:
                    same(x, y)

    def test_resume_continues_search(self, tmp_path):
        swarm = self._swarm()
        path = tmp_path / "swarm.txt"
        pso.write_checkpoint(swarm, path)
        resumed = pso.read_checkpoint(path)
        checkpoint_best = resumed.best_cost
        cfg = pso.SwarmConfig(n_modes=4, k_max=2, t_max=20, seed=9)
        report = pso.run(cfg, bit_cost, swarm=resumed)
        assert report.best_cost <= checkpoint_best
        assert report.steps >= swarm.t

    def test_resume_equals_unbroken_run(self, tmp_path):
        calls = []

        def hashed_cost(transform):
            # a rugged objective that keeps improving over several steps
            bits = oracles.lower_bits(transform)
            calls.append(bits)
            return (123 + sum(7**j * b for j, b in enumerate(bits))) % 1009

        cfg = pso.SwarmConfig(n_modes=8, k_max=1, t_max=10, seed=5)
        whole = pso.init_swarm(8, config=cfg)
        unbroken = pso.run(cfg, hashed_cost, swarm=whole)
        unbroken_calls = len(calls)
        calls.clear()
        path = tmp_path / "swarm.txt"
        first = pso.run(
            pso.SwarmConfig(n_modes=8, k_max=1, t_max=3, seed=5), hashed_cost, checkpoint_path=path
        )
        resumed = pso.read_checkpoint(path)
        rest = pso.run(cfg, hashed_cost, swarm=resumed)
        # each run also scores the JW and BK baselines, outside the cache, so
        # the split search makes exactly one pair of calls more
        assert len(calls) - 2 <= unbroken_calls
        assert len(set(unbroken.best_history)) > 1
        assert rest.best_bits == unbroken.best_bits
        assert rest.best_cost == unbroken.best_cost
        assert first.best_history + rest.best_history[1:] == unbroken.best_history
        assert first.evaluations + rest.evaluations == unbroken.evaluations == len(whole.cost_cache)
        for a, b in zip(resumed.particles, whole.particles):
            assert (a.position, a.active, a.recent) == (b.position, b.active, b.recent)

    def _doc(self, tmp_path):
        """A stepped swarm's checkpoint path and its document."""
        path = tmp_path / "swarm.json"
        pso.write_checkpoint(self._swarm(), path)
        return path, json.loads(path.read_text())

    def _rejects(self, path, doc, match):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            pso.read_checkpoint(path)

    def test_rejects_truncated_particle(self, tmp_path):
        path, doc = self._doc(tmp_path)
        del doc["particles"][-1]["rng"]
        self._rejects(path, doc, "particle is missing the 'rng' field")
        # a file cut short is not JSON
        path.write_text(json.dumps(doc)[:-40])
        with pytest.raises(ValueError, match="not a swarm checkpoint file"):
            pso.read_checkpoint(path)

    @pytest.mark.parametrize(
        "field", ["t", "best_cost", "best_position", "config", "cost_cache", "particles"]
    )
    def test_rejects_missing_header_field(self, tmp_path, field):
        path, doc = self._doc(tmp_path)
        del doc[field]
        self._rejects(path, doc, f"missing the '{field}' field")

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(pso.SwarmConfig)])
    def test_rejects_missing_config_field(self, tmp_path, field):
        path, doc = self._doc(tmp_path)
        del doc["config"][field]
        self._rejects(path, doc, f"config is missing the '{field}' field")

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(pso.Particle)])
    def test_rejects_missing_particle_field(self, tmp_path, field):
        path, doc = self._doc(tmp_path)
        del doc["particles"][0][field]
        self._rejects(path, doc, f"particle is missing the '{field}' field")

    @pytest.mark.parametrize(
        "where,key,value,match",
        [
            ("document", "extra", 1, "document has an unknown 'extra' field"),
            ("document", "t", 1.0, "bad step count"),
            ("document", "best_cost", "3", "bad best cost"),
            ("document", "particles", {}, "bad particle list"),
            ("config", "extra", 1, "config has an unknown 'extra' field"),
            ("particle", "extra", 1, "particle has an unknown 'extra' field"),
            ("particle", "active", 1, "bad active flag"),
            ("particle", "drift_steps", 1.5, "bad drift step count"),
            ("particle", "best_cost", None, "bad best cost"),
            ("particle", "recent", 5, "bad recent positions"),
        ],
    )
    def test_rejects_malformed_field(self, tmp_path, where, key, value, match):
        path, doc = self._doc(tmp_path)
        records = {"document": doc, "config": doc["config"], "particle": doc["particles"][0]}
        records[where][key] = value
        self._rejects(path, doc, match)

    def test_rejects_malformed_particle(self, tmp_path):
        path, doc = self._doc(tmp_path)
        doc["particles"][0] = list(doc["particles"][0].values())
        self._rejects(path, doc, "particle is not a record")

    @pytest.mark.parametrize(
        "cache,match",
        [
            pytest.param({}, "bad cost cache in checkpoint", id="not-a-list"),
            pytest.param([[1]], "bad cost cache entry", id="short-entry"),
            pytest.param([[1, 2, 3]], "bad cost cache entry", id="long-entry"),
            pytest.param([{"1": 2}], "bad cost cache entry", id="object-entry"),
            pytest.param([[64, 2]], "bad cached position", id="mask-out-of-range"),
            pytest.param([[-1, 2]], "bad cached position", id="negative-mask"),
            pytest.param([[True, 2]], "bad cached position", id="bool-mask"),
            pytest.param([["000001", 2]], "bad cached position", id="bit-string-mask"),
        ],
    )
    def test_rejects_malformed_cost_cache(self, tmp_path, cache, match):
        path, doc = self._doc(tmp_path)
        doc["cost_cache"] = cache
        self._rejects(path, doc, match)

    def test_rejects_bad_cached_cost(self, tmp_path):
        path, doc = self._doc(tmp_path)
        cache = doc["cost_cache"]
        assert len(cache) > 1
        for bad in (3.5, True, None, "3"):
            cache[0][1] = bad
            self._rejects(path, doc, "bad cached cost")
        cache[0] = list(cache[1])
        self._rejects(path, doc, "repeated position")

    @pytest.mark.parametrize(
        "velocity",
        [[0.0] * 5, [0.0] * 7, [0.0] * 5 + ["1.0"], [0.0] * 5 + [None], [0.0] * 5 + [True], "0.0"],
    )
    def test_rejects_bad_velocity(self, tmp_path, velocity):
        path, doc = self._doc(tmp_path)
        doc["particles"][0]["velocity"] = velocity
        self._rejects(path, doc, "bad velocity")

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("n_modes", 1, "at least two modes"),
            ("inertia", 9.0, "inertia weight"),
            ("social", -1, "social weight"),
            ("k_max", 0, "k_max must be positive"),
            ("particles_cap", 0, "particle cap"),
            ("n_modes", 4.0, "bad config field 'n_modes'"),
            ("n_modes", "4", "bad config field 'n_modes'"),
            ("seed", True, "bad config field 'seed'"),
            ("cognitive", [2.0], "bad config field 'cognitive'"),
        ],
    )
    def test_rejects_bad_config(self, tmp_path, field, value, match):
        path, doc = self._doc(tmp_path)
        doc["config"][field] = value
        self._rejects(path, doc, match)

    @pytest.mark.parametrize(
        "change",
        [
            lambda state: "PCG64",
            lambda state: {**state, "bit_generator": "MT19937"},
            lambda state: {**state, "state": "0"},
            lambda state: {k: v for k, v in state.items() if k != "state"},
        ],
    )
    def test_rejects_bad_random_state(self, tmp_path, change):
        path, doc = self._doc(tmp_path)
        doc["particles"][0]["rng"] = change(doc["particles"][0]["rng"])
        self._rejects(path, doc, "bad random state")

    def test_run_writes_checkpoints(self, tmp_path):
        path = tmp_path / "live.txt"
        cfg = pso.SwarmConfig(n_modes=4, k_max=2, t_max=8, seed=2)
        report = pso.run(cfg, bit_cost, checkpoint_path=path, checkpoint_every=3)
        saved = pso.read_checkpoint(path)
        assert saved.t == report.steps
        assert int(saved.best_cost) == report.best_cost

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        swarm = self._swarm()
        path = tmp_path / "swarm.txt"
        pso.write_checkpoint(swarm, path)
        before = path.read_text()

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("disk full")

        real_open = open
        monkeypatch.setattr(pso, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)), raising=False)
        pso.step(swarm, bit_cost)
        with pytest.raises(OSError, match="disk full"):
            pso.write_checkpoint(swarm, path)
        monkeypatch.undo()
        assert path.read_text() == before
        assert pso.read_checkpoint(path).t == swarm.t - 1
        assert [p.name for p in tmp_path.iterdir()] == ["swarm.txt"]

    def test_rejects_version_3_files(self, tmp_path):
        """Version 3 carried the dropped ``sigmoid_sets_one`` field."""
        path = tmp_path / "swarm.txt"
        path.write_text(_text_checkpoint(3))
        with pytest.raises(ValueError, match="not a swarm checkpoint file"):
            pso.read_checkpoint(path)

    def test_rejects_version_4_files(self, tmp_path):
        path = tmp_path / "swarm.txt"
        path.write_text(_text_checkpoint(4))
        with pytest.raises(ValueError, match="not a swarm checkpoint file"):
            pso.read_checkpoint(path)
        # nor does a JSON document that names another format, or none
        path, doc = self._doc(tmp_path)
        assert doc["format"] == "fqcc-swarm 5"
        for other in ("fqcc-swarm 4", None):
            doc["format"] = other
            self._rejects(path, doc, "not a swarm checkpoint file")
        del doc["format"]
        self._rejects(path, doc, "not a swarm checkpoint file")
        for text in ("[1, 2]", "4", "null"):
            path.write_text(text)
            with pytest.raises(ValueError, match="not a swarm checkpoint file"):
                pso.read_checkpoint(path)
        path.write_bytes(b"\xff\xfe\x00junk")
        with pytest.raises(ValueError, match="not a swarm checkpoint file"):
            pso.read_checkpoint(path)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="checkpoint"):
            pso.read_checkpoint(path)

    def test_rejects_corrupt_bits(self, tmp_path):
        """Every mask of a 4-mode swarm is an int in [0, 64), and only the
        global best may be null."""
        path, doc = self._doc(tmp_path)
        for bad in (64, -1, True, 1.0, "000001", None):
            for field in ("position", "best_position", "initial_position", "recent"):
                broken = copy.deepcopy(doc)
                particle = broken["particles"][0]
                if field == "recent":
                    particle["recent"][-1] = bad
                else:
                    particle[field] = bad
                self._rejects(path, broken, f"bad {field.replace('_', ' ')}")
            if bad is not None:
                broken = copy.deepcopy(doc)
                broken["best_position"] = bad
                self._rejects(path, broken, "bad best position")
