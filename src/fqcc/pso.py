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
otherwise.  Particles stop individually when their position alternates
between exactly two patterns for a full window, or when they sit further
than ``drift_distance`` bit flips from home for more than
``drift_window`` consecutive steps without a new personal best; the
search ends at ``t_max`` steps or when every particle has stopped.  The
sigmoid is 1 / (1 + exp(-v)) with ``math.exp``, which equals
``scipy.special.expit`` bit for bit; scipy is not imported, since its
import would take most of a search process's start-up.

Cost evaluations are pure functions of the decoded encoding, cached per
bit pattern.  The new positions of the initial swarm and of each step are
read, as one batch, straight from their bit masks into an
``EncodingStack`` (no ``Transform`` per position), and the closing JW and
BK baselines into another; each stack is scored in one call of the cost
function's optional ``many(stack)`` form, which ``ansatz_cost_fn``
provides as one batched planner pass.  A cost function without it is
called once per encoding, on the ``Transform``s the stack yields, with
the same results.
Randomness is partitioned into one stream per particle.  A checkpoint is
one JSON document written from the dataclasses' fields, with the random
streams and the cost cache, and is replaced atomically.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .transform import EncodingStack, Transform
from .trotter import HeuristicConfig, ansatz_two_qubit_cost, ansatz_two_qubit_costs

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
    defaults.  A value not of its field's type raises ``TypeError`` naming
    the field: a bool is not an int, and an int passes for a float.
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

    def __post_init__(self):
        for name, hint in _CONFIG_TYPES.items():
            value, kinds = getattr(self, name), (int, float) if hint is float else hint
            if not isinstance(value, kinds) or isinstance(value, bool) != (hint is bool):
                kind = getattr(hint, "__name__", hint)
                raise TypeError(f"config field {name!r} of type {type(value).__name__}, not {kind}")
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


# each field's type hint, read once for ``SwarmConfig.__post_init__``
_CONFIG_TYPES = typing.get_type_hints(SwarmConfig)


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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["best_bits"] = "".join(str(b) for b in self.best_bits)
        out["best_history"] = list(self.best_history)
        if math.isinf(self.cost_delta_ratio):
            out["cost_delta_ratio"] = None
        return out


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


def _scores(cost_fn, stack):
    """``cost_fn``'s count of each encoding of an ``EncodingStack``: one
    ``cost_fn.many`` call when the cost function has that form, otherwise
    one call per ``Transform`` of the stack."""
    many = getattr(cost_fn, "many", None)
    costs = many(stack) if many is not None else [cost_fn(t) for t in stack]
    return [int(c) for c in costs]


def _evaluate(swarm, cost_fn, masks):
    """Costs for a batch of positions; each new position is evaluated once,
    all of them in one ``_scores`` call on the stack of their masks."""
    cache = swarm.cost_cache
    new = sorted({m for m in masks if m not in cache})
    if new:
        stack = EncodingStack.from_lower_bits(swarm.config.n_modes, new)
        cache.update(zip(new, _scores(cost_fn, stack)))
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


def _sigmoid(velocity):
    """1 / (1 + exp(-v)) per entry, with libm's ``exp`` as scipy's ``expit`` uses.

    Equal to ``scipy.special.expit`` bit for bit, so seeded trajectories do
    not depend on which one runs; ``np.exp`` is off by a few ulp on some
    inputs.  Where exp(-v) overflows the sigmoid is 0.0, as 1 / (1 + inf).
    """
    out = np.empty(len(velocity))
    for j, v in enumerate(velocity.tolist()):
        try:
            out[j] = 1.0 / (1.0 + math.exp(-v))
        except OverflowError:
            out[j] = 0.0
    return out


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
        ones = p.rng.random(d) > _sigmoid(p.velocity)
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
    circuit (see ``ansatz_cost_fn``).  It must be pure: a count depends on
    the encoding alone, never on which encodings are scored with it, in
    what order, or what was scored before, so a seeded search is the same
    whichever way its scores are taken.  A ``many(stack)`` attribute,
    returning the counts of the encodings of an ``EncodingStack`` in its
    row order, is optional: when present, each batch of new positions (the
    initial swarm, then each step) is built as one stack from its bit
    masks, sorted, and scored in one ``many`` call, and so is the stack of
    the closing JW and BK baselines; otherwise ``cost_fn`` is called once
    per ``Transform`` of each stack.
    Passing a ``swarm`` resumes it in place up to ``config.t_max`` steps; a
    swarm config that differs from ``config`` elsewhere raises ValueError.
    ``checkpoint_path`` is written every ``checkpoint_every`` steps (if
    positive) and at the end.  ``best_history`` records the global best
    after initialization and after each step of this call.
    """
    if swarm is None:
        swarm = init_swarm(config.n_modes, config=config)
    elif replace(swarm.config, t_max=config.t_max) != config:
        raise ValueError("a resumed swarm's config may differ from the run's in t_max only")
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
    baselines = EncodingStack.of([Transform.jordan_wigner(n), Transform.bravyi_kitaev(n)])
    jw_cost, bk_cost = _scores(cost_fn, baselines)
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
    """Two-qubit planner count of a fixed excitation list, as f(transform).

    The function also has the form ``many(encodings)``, the counts of an
    ``EncodingStack`` (or a list of transforms) from one batched planner
    call (``trotter.ansatz_two_qubit_costs``), equal to calling it on each.
    The count is pure: it depends on the encoding alone, not on the other
    encodings of a call, their order or earlier calls.  ``occupied`` is
    read once, here, so a one-shot iterator serves every call.
    """
    seqs = tuple(seqs)
    occupied = None if occupied is None else tuple(occupied)

    def cost(transform):
        return ansatz_two_qubit_cost(seqs, transform, config, occupied=occupied)

    def many(encodings):
        return ansatz_two_qubit_costs(seqs, encodings, config, occupied=occupied)

    cost.many = many
    return cost


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "fqcc-swarm 5"


def write_checkpoint(swarm, path):
    """Persist a swarm as one JSON document, ``"format": "fqcc-swarm 5"``.

    The document has a key per ``Swarm`` field: ``config`` with every
    ``SwarmConfig`` field, ``best_position`` (null before the first
    evaluation), the cost cache as ``[mask, cost]`` pairs in cache order,
    and a record per particle with every ``Particle`` field, its velocity
    as a list of floats and its random stream as the bit generator's
    ``state``.  A mask is the int in [0, 2^d) whose bit j is free bit j.
    Floats go through ``repr`` and an unevaluated cost is ``Infinity``, so
    every field reads back exactly.  The text goes to a temporary file in
    the same directory, which then replaces ``path`` in one step: a failed
    write leaves the previous checkpoint intact.
    """
    doc = {f.name: getattr(swarm, f.name) for f in fields(Swarm)}
    doc["config"] = {f.name: getattr(swarm.config, f.name) for f in fields(SwarmConfig)}
    doc["cost_cache"] = [[mask, cost] for mask, cost in swarm.cost_cache.items()]
    doc["particles"] = [
        {f.name: getattr(p, f.name) for f in fields(Particle)}
        | {"velocity": p.velocity.tolist(), "rng": p.rng.bit_generator.state}
        for p in swarm.particles
    ]
    text = json.dumps({"format": _CHECKPOINT_FORMAT, **doc})
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with open(fd, "w") as fh:
            fh.write(text + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _record(value, cls, where):
    """``value`` if it is a JSON object with exactly ``cls``'s fields."""
    if not isinstance(value, dict):
        raise ValueError(f"checkpoint's {where} is not a record")
    names = {f.name for f in fields(cls)}
    for name in sorted(names ^ value.keys()):
        problem = "is missing the" if name in names else "has an unknown"
        raise ValueError(f"checkpoint's {where} {problem} {name!r} field")
    return value


def _typed(value, kinds, what, d=None):
    """``value`` if its type is one of ``kinds`` (a bool is not an int) and,
    given the dimension ``d``, it is a mask in [0, 2^d)."""
    if type(value) not in kinds or d is not None and not 0 <= value < 1 << d:
        raise ValueError(f"bad {what} in checkpoint")
    return value


def _config(record):
    """A config record's ``SwarmConfig``, which checks the types and values."""
    try:
        return SwarmConfig(**record)
    except TypeError as exc:
        raise ValueError(f"bad {exc}, in checkpoint") from exc


def _particle(record, d):
    velocity = _typed(record["velocity"], (list,), "velocity")
    if len(velocity) != d or any(type(v) not in (int, float) for v in velocity):
        raise ValueError("bad velocity in checkpoint")
    rng = np.random.Generator(np.random.PCG64())
    try:
        rng.bit_generator.state = record["rng"]
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ValueError("bad random state in checkpoint") from exc
    recent = _typed(record["recent"], (list,), "recent positions")
    return Particle(
        position=_typed(record["position"], (int,), "position", d),
        velocity=np.array(velocity, dtype=float),
        best_position=_typed(record["best_position"], (int,), "best position", d),
        best_cost=_typed(record["best_cost"], (int, float), "best cost"),
        initial_position=_typed(record["initial_position"], (int,), "initial position", d),
        active=_typed(record["active"], (bool,), "active flag"),
        drift_steps=_typed(record["drift_steps"], (int,), "drift step count"),
        recent=[_typed(m, (int,), "recent position", d) for m in recent],
        rng=rng,
    )


def read_checkpoint(path) -> Swarm:
    """Rebuild a swarm from its checkpoint (see ``write_checkpoint``).

    Random streams, oscillation windows and the cost cache are restored, so
    a resumed search takes the same steps as the unbroken run and scores no
    position twice.  Anything but a well-formed ``fqcc-swarm 5``
    document, such as an earlier version's text file, raises ``ValueError``
    naming the problem.
    """
    with open(path, "rb") as fh:
        try:
            doc = json.load(fh)
        except ValueError:
            doc = None
    if not isinstance(doc, dict) or doc.pop("format", None) != _CHECKPOINT_FORMAT:
        raise ValueError("not a swarm checkpoint file")
    _record(doc, Swarm, "document")
    config = _config(_record(doc["config"], SwarmConfig, "config"))
    d = config.dimension
    cost_cache = {}
    for entry in _typed(doc["cost_cache"], (list,), "cost cache"):
        if type(entry) is not list or len(entry) != 2:
            raise ValueError("bad cost cache entry in checkpoint")
        mask, cost = entry
        if _typed(mask, (int,), "cached position", d) in cost_cache:
            raise ValueError("repeated position in checkpoint's cost cache")
        cost_cache[mask] = _typed(cost, (int,), "cached cost")
    best = doc["best_position"]
    return Swarm(
        config=config,
        particles=[
            _particle(_record(p, Particle, "particle"), d)
            for p in _typed(doc["particles"], (list,), "particle list")
        ],
        t=_typed(doc["t"], (int,), "step count"),
        best_position=None if best is None else _typed(best, (int,), "best position", d),
        best_cost=_typed(doc["best_cost"], (int, float), "best cost"),
        cost_cache=cost_cache,
    )
