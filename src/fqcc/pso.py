"""Binary swarm search over encoding matrices.

The strictly-triangular free bits of a unit-triangular GF(2) encoding
matrix form a flat binary search space of dimension d = n(n-1)/2.  A
swarm of bit-vector particles explores that space for the encoding whose
synthesized ansatz circuit needs the fewest two-qubit gates.

The swarm starts with one zero-velocity particle per k-hot bit pattern
for k = 1..k_max (capped by seeded uniform subsampling when the binomial
totals explode).  Each step updates velocities deterministically from the
personal- and global-best positions, then resamples every bit: a bit
becomes 0 when a uniform draw lands at or below sigmoid(velocity) and 1
otherwise (``sigmoid_sets_one`` selects the inverse convention, set-to-1
with sigmoid probability).  Particles stop individually when their
position alternates between exactly two patterns for a full window, or
when they sit further than ``drift_distance`` bit flips from home for
more than ``drift_window`` consecutive steps without a new personal
best; the search ends at ``t_max`` steps or when every particle has
stopped.

Cost evaluations are pure functions of the decoded encoding, cached per
bit pattern and run serially; randomness is partitioned into one stream
per particle.  Checkpoints are plain text, carry the cost cache, and are
replaced atomically.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .transform import Transform
from .trotter import HeuristicConfig, ansatz_two_qubit_cost

__all__ = [
    "SwarmConfig",
    "Particle",
    "Swarm",
    "SearchReport",
    "init_swarm",
    "step",
    "run",
    "ansatz_cost_fn",
    "improvement_fraction",
    "cost_delta_ratio",
    "write_checkpoint",
    "read_checkpoint",
]

_ENUMERATION_LIMIT = 2_000_000


def default_k_max(n_modes):
    """Initialization density bound: 6 on small registers, 3 beyond."""
    return 6 if n_modes <= 8 else 3


def default_t_max(n_modes):
    """Step budget: 10000 on small registers, 100 beyond."""
    return 10000 if n_modes <= 8 else 100


@dataclass(slots=True, frozen=True)
class SwarmConfig:
    """Search hyperparameters; size-dependent fields default by register width.

    ``inertia`` must lie in [-4, 4] and the cognitive/social weights in
    [0, 2].  ``k_max`` and ``t_max`` left as None resolve to the width
    defaults.  ``sigmoid_sets_one`` flips the bit-resampling convention.
    """

    n_modes: int
    inertia: float = 1.0
    cognitive: float = 2.0
    social: float = 2.0
    k_max: int | None = None
    t_max: int | None = None
    osc_window: int = 10
    drift_distance: int = 6
    drift_window: int = 10
    particles_cap: int = 20000
    seed: int = 0
    sigmoid_sets_one: bool = False

    def __post_init__(self):
        if self.n_modes < 2:
            raise ValueError("need at least two modes to search over")
        if not -4.0 <= self.inertia <= 4.0:
            raise ValueError("inertia weight must lie in [-4, 4]")
        if not 0.0 <= self.cognitive <= 2.0:
            raise ValueError("cognitive weight must lie in [0, 2]")
        if not 0.0 <= self.social <= 2.0:
            raise ValueError("social weight must lie in [0, 2]")
        if self.k_max is None:
            object.__setattr__(self, "k_max", default_k_max(self.n_modes))
        if self.t_max is None:
            object.__setattr__(self, "t_max", default_t_max(self.n_modes))
        if self.k_max < 1:
            raise ValueError("k_max must be positive")
        if self.t_max < 0:
            raise ValueError("t_max must be non-negative")
        if self.osc_window < 1 or self.drift_window < 1 or self.drift_distance < 0:
            raise ValueError("stop-rule windows must be positive")
        if self.particles_cap < 1:
            raise ValueError("particle cap must be positive")

    @property
    def dimension(self):
        return self.n_modes * (self.n_modes - 1) // 2


@dataclass(slots=True)
class Particle:
    """One search agent: bit-mask position, velocity, and best-seen memory."""

    position: int
    velocity: np.ndarray
    best_position: int
    best_cost: float = math.inf
    initial_position: int = 0
    active: bool = True
    drift_steps: int = 0
    recent: list = field(default_factory=list)
    rng: np.random.Generator | None = None


@dataclass(slots=True)
class Swarm:
    """Particle population with global-best bookkeeping and a cost cache."""

    config: SwarmConfig
    particles: list
    t: int = 0
    best_position: int | None = None
    best_cost: float = math.inf
    cost_cache: dict = field(default_factory=dict)

    @property
    def n_active(self):
        return sum(1 for p in self.particles if p.active)


@dataclass(slots=True, frozen=True)
class SearchReport:
    """Search outcome with identity- and tree-encoding baselines.

    ``improvement`` is the fractional two-qubit saving against the
    identity-encoding baseline; ``cost_delta_ratio`` is the alternate
    diagnostic best/(best - baseline), negative whenever the search won.
    ``resource_fraction`` compares the particle count against the full
    2^d search space.  ``evaluations`` counts the distinct encodings the
    cost function scored for the swarm in this call (the two baselines
    aside); a resumed swarm's cached scores are not counted again.
    """

    n_modes: int
    best_bits: tuple
    best_cost: int
    jw_cost: int
    bk_cost: int
    improvement: float
    cost_delta_ratio: float
    n_particles: int
    resource_fraction: float
    steps: int
    best_history: tuple
    evaluations: int

    def best_transform(self) -> Transform:
        return Transform.from_lower_bits(self.n_modes, self.best_bits)

    def as_dict(self):
        """The report as strict JSON values: a tie with JW's cost, whose
        ``cost_delta_ratio`` is infinite, reads None there."""
        return {
            "n_modes": self.n_modes,
            "best_bits": "".join(str(b) for b in self.best_bits),
            "best_cost": self.best_cost,
            "jw_cost": self.jw_cost,
            "bk_cost": self.bk_cost,
            "improvement": self.improvement,
            "cost_delta_ratio": (
                None if math.isinf(self.cost_delta_ratio) else self.cost_delta_ratio
            ),
            "n_particles": self.n_particles,
            "resource_fraction": self.resource_fraction,
            "steps": self.steps,
            "best_history": list(self.best_history),
            "evaluations": self.evaluations,
        }


def improvement_fraction(baseline_cost, optimized_cost):
    """Fractional saving (baseline - optimized) / baseline; 0 on an empty baseline."""
    if baseline_cost == 0:
        return 0.0
    return (baseline_cost - optimized_cost) / baseline_cost


def cost_delta_ratio(baseline_cost, optimized_cost):
    """Optimized cost over its signed change from the baseline.

    Negative on improvement, infinite when the costs tie; reported next to
    ``improvement_fraction`` as an alternate diagnostic.
    """
    delta = optimized_cost - baseline_cost
    if delta == 0:
        return math.inf
    return optimized_cost / delta


# ---------------------------------------------------------------------------
# swarm construction
# ---------------------------------------------------------------------------


def _khot_masks(d, k_max, cap, rng):
    """All k-hot bit masks for k = 1..k_max, uniformly subsampled past cap."""
    ks = range(1, min(k_max, d) + 1)
    total = sum(math.comb(d, k) for k in ks)

    def enumerate_all():
        return [
            sum(1 << q for q in combo)
            for k in ks
            for combo in itertools.combinations(range(d), k)
        ]

    if total <= cap:
        return enumerate_all()
    if total <= _ENUMERATION_LIMIT:
        masks = enumerate_all()
        picked = rng.choice(total, size=cap, replace=False)
        return [masks[i] for i in np.sort(picked)]
    weights = np.array([math.comb(d, k) for k in ks], dtype=float)
    weights /= weights.sum()
    seen: set[int] = set()
    while len(seen) < cap:
        k = int(rng.choice(np.array(ks), p=weights))
        qs = rng.choice(d, size=k, replace=False)
        seen.add(int(sum(1 << int(q) for q in qs)))
    return sorted(seen, key=lambda m: (m.bit_count(), m))


def init_swarm(n, *, config=None) -> Swarm:
    """Seed one zero-velocity particle per k-hot pattern, k = 1..k_max.

    ``config`` defaults to ``SwarmConfig(n_modes=n)``; a config for another
    number of modes raises ``ValueError``.
    """
    if config is None:
        config = SwarmConfig(n_modes=n)
    elif config.n_modes != n:
        raise ValueError(f"swarm config is for {config.n_modes} modes, not {n}")
    d = config.dimension
    entropy = np.random.SeedSequence(config.seed)
    sampler = np.random.default_rng(entropy)
    masks = _khot_masks(d, config.k_max, config.particles_cap, sampler)
    streams = entropy.spawn(len(masks))
    particles = [
        Particle(
            position=mask,
            velocity=np.zeros(d),
            best_position=mask,
            initial_position=mask,
            rng=np.random.default_rng(stream),
        )
        for mask, stream in zip(masks, streams)
    ]
    return Swarm(config=config, particles=particles)


# ---------------------------------------------------------------------------
# search loop
# ---------------------------------------------------------------------------


def _decode(n, d, mask):
    return Transform.from_lower_bits(n, [(mask >> j) & 1 for j in range(d)])


def _evaluate(swarm, cost_fn, masks):
    """Costs for a batch of positions; each new position is evaluated once."""
    cache = swarm.cost_cache
    n, d = swarm.config.n_modes, swarm.config.dimension
    for m in sorted({m for m in masks if m not in cache}):
        cache[m] = int(cost_fn(_decode(n, d, m)))
    return [cache[m] for m in masks]


def _refresh_global(swarm):
    for p in swarm.particles:
        if p.best_cost < swarm.best_cost:
            swarm.best_cost = p.best_cost
            swarm.best_position = p.best_position


def _ensure_evaluated(swarm, cost_fn):
    if swarm.best_position is not None:
        return
    costs = _evaluate(swarm, cost_fn, [p.position for p in swarm.particles])
    for p, cost in zip(swarm.particles, costs):
        p.best_cost = cost
        p.best_position = p.position
        p.recent.append(p.position)
    _refresh_global(swarm)


def _bits_vector(mask, d):
    return np.array([(mask >> j) & 1 for j in range(d)], dtype=float)


def _oscillating(recent, window):
    """Last ``window`` positions alternate between exactly two patterns."""
    if window < 2 or len(recent) < window:
        return False
    tail = recent[-window:]
    a, b = tail[0], tail[1]
    if a == b:
        return False
    return all(v == (a if i % 2 == 0 else b) for i, v in enumerate(tail))


def step(swarm, cost_fn) -> Swarm:
    """One synchronized move: velocities, bit resampling, bests, stop rules."""
    cfg = swarm.config
    _ensure_evaluated(swarm, cost_fn)
    d = cfg.dimension
    global_bits = _bits_vector(swarm.best_position, d)
    movers = [p for p in swarm.particles if p.active]
    for p in movers:
        x = _bits_vector(p.position, d)
        local_bits = _bits_vector(p.best_position, d)
        p.velocity = (
            cfg.inertia * p.velocity
            + cfg.cognitive * (local_bits - x)
            + cfg.social * (global_bits - x)
        )
        draws = p.rng.random(d)
        if cfg.sigmoid_sets_one:
            ones = draws <= expit(p.velocity)
        else:
            ones = draws > expit(p.velocity)
        p.position = int(sum(1 << int(j) for j in np.flatnonzero(ones)))

    costs = _evaluate(swarm, cost_fn, [p.position for p in movers])
    window = 2 * cfg.osc_window
    for p, cost in zip(movers, costs):
        improved = cost < p.best_cost
        if improved:
            p.best_cost = cost
            p.best_position = p.position
        far = (p.position ^ p.initial_position).bit_count() > cfg.drift_distance
        p.drift_steps = p.drift_steps + 1 if far and not improved else 0
        p.recent.append(p.position)
        if len(p.recent) > window:
            del p.recent[: len(p.recent) - window]
        if p.drift_steps > cfg.drift_window or _oscillating(p.recent, window):
            p.active = False
    _refresh_global(swarm)
    swarm.t += 1
    return swarm


def run(config, cost_fn, *, swarm=None, checkpoint_path=None, checkpoint_every=0) -> SearchReport:
    """Full search against the identity/tree baselines.

    ``cost_fn`` maps a Transform to the two-qubit count of the synthesized
    circuit (pure and deterministic; see ``ansatz_cost_fn``).  Passing a
    ``swarm`` resumes it in place.  ``best_history`` records the global
    best after initialization and after each step of this call.
    """
    if swarm is None:
        swarm = init_swarm(config.n_modes, config=config)
    cached = len(swarm.cost_cache)
    _ensure_evaluated(swarm, cost_fn)
    history = [int(swarm.best_cost)]
    while swarm.t < config.t_max and any(p.active for p in swarm.particles):
        step(swarm, cost_fn)
        history.append(int(swarm.best_cost))
        if checkpoint_path and checkpoint_every and swarm.t % checkpoint_every == 0:
            write_checkpoint(swarm, checkpoint_path)
    if checkpoint_path:
        write_checkpoint(swarm, checkpoint_path)

    n, d = config.n_modes, config.dimension
    jw_cost = int(cost_fn(Transform.jordan_wigner(n)))
    bk_cost = int(cost_fn(Transform.bravyi_kitaev(n)))
    best_cost = int(swarm.best_cost)
    bits = tuple((swarm.best_position >> j) & 1 for j in range(d))
    return SearchReport(
        n_modes=n,
        best_bits=bits,
        best_cost=best_cost,
        jw_cost=jw_cost,
        bk_cost=bk_cost,
        improvement=improvement_fraction(jw_cost, best_cost),
        cost_delta_ratio=cost_delta_ratio(jw_cost, best_cost),
        n_particles=len(swarm.particles),
        resource_fraction=len(swarm.particles) / float(1 << d),
        steps=swarm.t,
        best_history=tuple(history),
        evaluations=len(swarm.cost_cache) - cached,
    )


def ansatz_cost_fn(seqs, config=HeuristicConfig(), *, occupied=None):
    """Two-qubit planner count of a fixed excitation list, as f(transform)."""
    seqs = tuple(seqs)

    def cost(transform):
        return ansatz_two_qubit_cost(seqs, transform, config, occupied=occupied)

    return cost


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_MAGIC = "fqcc-swarm 3"


def _bitline(mask, d):
    return "".join("1" if mask >> j & 1 else "0" for j in range(d))


def write_checkpoint(swarm, path):
    """Persist config, the global best, the cost cache and per-particle state.

    The cost cache is a ``cache <count>`` line followed by one ``c <bits>
    <cost>`` line per scored position.  A particle's state includes its
    random stream (the bit generator's state as one JSON line) and its
    recent positions, the oscillation test's window.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one step: a failed write leaves the previous
    checkpoint intact.
    """
    cfg = swarm.config
    d = cfg.dimension
    lines = [
        _CHECKPOINT_MAGIC,
        f"n {cfg.n_modes}",
        f"inertia {cfg.inertia!r}",
        f"cognitive {cfg.cognitive!r}",
        f"social {cfg.social!r}",
        f"k_max {cfg.k_max}",
        f"t_max {cfg.t_max}",
        f"osc_window {cfg.osc_window}",
        f"drift_distance {cfg.drift_distance}",
        f"drift_window {cfg.drift_window}",
        f"particles_cap {cfg.particles_cap}",
        f"seed {cfg.seed}",
        f"sigmoid_sets_one {int(cfg.sigmoid_sets_one)}",
        f"t {swarm.t}",
        f"best_cost {swarm.best_cost!r}",
        "best " + (_bitline(swarm.best_position, d) if swarm.best_position is not None else "-"),
        f"cache {len(swarm.cost_cache)}",
    ]
    lines += [f"c {_bitline(m, d)} {cost}" for m, cost in swarm.cost_cache.items()]
    for p in swarm.particles:
        lines.append(f"particle {int(p.active)} {p.best_cost!r} {p.drift_steps}")
        lines.append("x " + _bitline(p.position, d))
        lines.append("x0 " + _bitline(p.initial_position, d))
        lines.append("l " + _bitline(p.best_position, d))
        lines.append("v " + " ".join(repr(float(v)) for v in p.velocity))
        lines.append("r " + json.dumps(p.rng.bit_generator.state))
        lines.append("w " + " ".join(_bitline(m, d) for m in p.recent))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with open(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_checkpoint(path) -> Swarm:
    """Rebuild a swarm from its checkpoint.

    Random streams, oscillation windows and the cost cache are restored, so
    a resumed search takes the same steps as the unbroken run and scores no
    position twice.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        raise ValueError("not a swarm checkpoint file")
    head = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("cache "):
        key, _, value = lines[i].partition(" ")
        head[key] = value
        i += 1
    try:
        config = SwarmConfig(
            n_modes=int(head["n"]),
            inertia=float(head["inertia"]),
            cognitive=float(head["cognitive"]),
            social=float(head["social"]),
            k_max=int(head["k_max"]),
            t_max=int(head["t_max"]),
            osc_window=int(head["osc_window"]),
            drift_distance=int(head["drift_distance"]),
            drift_window=int(head["drift_window"]),
            particles_cap=int(head["particles_cap"]),
            seed=int(head["seed"]),
            sigmoid_sets_one=head["sigmoid_sets_one"] == "1",
        )
        t, best_cost, best_line = int(head["t"]), float(head["best_cost"]), head["best"]
    except KeyError as exc:
        raise ValueError(f"checkpoint is missing the {exc.args[0]!r} field") from exc
    d = config.dimension

    def mask_of(text):
        if len(text) != d or set(text) - {"0", "1"}:
            raise ValueError("bad bit line in checkpoint")
        return sum(1 << j for j, ch in enumerate(text) if ch == "1")

    def tagged(line, tag):
        prefix, _, rest = line.partition(" ")
        if prefix != tag:
            raise ValueError(f"expected a {tag!r} line in checkpoint")
        return rest

    def rng_of(text):
        rng = np.random.Generator(np.random.PCG64())
        try:
            rng.bit_generator.state = json.loads(text)
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError("bad random state in checkpoint") from exc
        return rng

    if i == len(lines):
        raise ValueError("checkpoint has no cost cache section")
    count = tagged(lines[i], "cache")
    if not count.isdigit():
        raise ValueError("bad cost cache count in checkpoint")
    entries = lines[i + 1 : i + 1 + int(count)]
    if len(entries) != int(count):
        raise ValueError("truncated cost cache in checkpoint")
    cost_cache = {}
    for line in entries:
        bits, _, cost = tagged(line, "c").partition(" ")
        try:
            value = int(cost)
        except ValueError:
            raise ValueError("bad cost cache line in checkpoint") from None
        mask = mask_of(bits)
        if mask in cost_cache:
            raise ValueError("repeated position in checkpoint's cost cache")
        cost_cache[mask] = value
    i += 1 + len(entries)

    particles = []
    while i < len(lines):
        if i + 6 >= len(lines):
            raise ValueError("truncated particle record in checkpoint")
        fields = tagged(lines[i], "particle").split()
        if len(fields) != 3:
            raise ValueError("bad particle line in checkpoint")
        active, p_best_cost, drift = fields
        particles.append(
            Particle(
                position=mask_of(tagged(lines[i + 1], "x")),
                velocity=np.array(
                    [float(tok) for tok in tagged(lines[i + 4], "v").split()]
                ),
                best_position=mask_of(tagged(lines[i + 3], "l")),
                best_cost=float(p_best_cost),
                initial_position=mask_of(tagged(lines[i + 2], "x0")),
                active=active == "1",
                drift_steps=int(drift),
                recent=[mask_of(bits) for bits in tagged(lines[i + 6], "w").split()],
                rng=rng_of(tagged(lines[i + 5], "r")),
            )
        )
        if len(particles[-1].velocity) != d:
            raise ValueError("bad velocity line in checkpoint")
        i += 7
    return Swarm(
        config=config,
        particles=particles,
        t=t,
        best_position=None if best_line == "-" else mask_of(best_line),
        best_cost=best_cost,
        cost_cache=cost_cache,
    )
