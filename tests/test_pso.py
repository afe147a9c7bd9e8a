import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcc import pso
from fqcc.fermions import uccsd_pool
from fqcc.transform import Transform
from fqcc.trotter import HeuristicConfig, plan_ansatz

import oracles


def bit_cost(transform):
    """Toy objective: weighted popcount of the free bits (minimum at identity)."""
    bits = oracles.lower_bits(transform)
    return 3 * sum(bits) + sum(j * b for j, b in enumerate(bits)) % 5


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
        for sets_one, expected in ((False, 0), (True, (1 << 6) - 1)):
            cfg = pso.SwarmConfig(
                n_modes=4, k_max=1, inertia=1.0, cognitive=0.0, social=0.0,
                seed=0, sigmoid_sets_one=sets_one,
            )
            swarm = pso.init_swarm(4, config=cfg)
            pso.step(swarm, bit_cost)
            for p in swarm.particles:
                p.velocity = np.full(cfg.dimension, 500.0)
            pso.step(swarm, bit_cost)
            assert all(p.position == expected for p in swarm.particles)

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
        initial = min(bit_cost(pso._decode(4, 6, p.position)) for p in swarm.particles)
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

    def test_cost_fn_closes_over_one_config(self):
        pool = uccsd_pool((0, 1), (2, 3, 4, 5))
        bk = Transform.bravyi_kitaev(6)
        for cfg in (HeuristicConfig(), HeuristicConfig(bosonic=False, reorder=False)):
            cost = pso.ansatz_cost_fn(pool, cfg, occupied=range(2))
            assert cost(bk) == plan_ansatz(pool, bk, config=cfg, occupied=range(2)).model_two_qubit

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

    def test_rejects_truncated_particle(self, tmp_path):
        path = tmp_path / "swarm.txt"
        pso.write_checkpoint(self._swarm(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            pso.read_checkpoint(path)

    @pytest.mark.parametrize("field", ["t", "best_cost", "best"])
    def test_rejects_missing_header_field(self, tmp_path, field):
        path = tmp_path / "swarm.txt"
        pso.write_checkpoint(self._swarm(), path)
        lines = [ln for ln in path.read_text().splitlines() if ln.partition(" ")[0] != field]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"missing the '{field}' field"):
            pso.read_checkpoint(path)

    @pytest.mark.parametrize(
        "new,match",
        [("pxrticle 1 5.0 0", "expected a 'particle' line"), ("particle 1 5.0", "bad particle line")],
    )
    def test_rejects_malformed_particle_header(self, tmp_path, new, match):
        path = tmp_path / "swarm.txt"
        pso.write_checkpoint(self._swarm(), path)
        lines = path.read_text().splitlines()
        at = next(j for j, line in enumerate(lines) if line.startswith("particle "))
        lines[at] = new
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=match):
            pso.read_checkpoint(path)

    @pytest.mark.parametrize(
        "old,new,match",
        [
            ("cache ", "cache x", "cost cache count"),
            ("cache ", "cache 9999", "truncated cost cache"),
            ("\nc ", "\nc 2", "bit line"),
            ("\nc ", "\nk ", "expected a 'c' line"),
        ],
    )
    def test_rejects_malformed_cost_cache(self, tmp_path, old, new, match):
        path = tmp_path / "swarm.txt"
        pso.write_checkpoint(self._swarm(), path)
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(ValueError, match=match):
            pso.read_checkpoint(path)

    def test_rejects_bad_cached_cost(self, tmp_path):
        path = tmp_path / "swarm.txt"
        pso.write_checkpoint(self._swarm(), path)
        lines = path.read_text().splitlines()
        at = next(j for j, line in enumerate(lines) if line.startswith("c "))
        lines[at] = lines[at].rsplit(" ", 1)[0] + " 3.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="cost cache line"):
            pso.read_checkpoint(path)
        lines[at] = lines[at + 1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="repeated position"):
            pso.read_checkpoint(path)
        del lines[at]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="expected a 'c' line"):
            pso.read_checkpoint(path)

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

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="checkpoint"):
            pso.read_checkpoint(path)

    def test_rejects_corrupt_bits(self, tmp_path):
        swarm = self._swarm()
        path = tmp_path / "swarm.txt"
        pso.write_checkpoint(swarm, path)
        text = path.read_text().replace("x 0", "x 2", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="bit line"):
            pso.read_checkpoint(path)
