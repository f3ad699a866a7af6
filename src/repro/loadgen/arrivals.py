"""Deterministic arrival processes and workload sequence planning.

An :class:`ArrivalConfig` describes *when* requests arrive (Poisson,
2-state MMPP bursts, or a recorded trace of offsets) and *what* they
ask for (a pool of generator/DAX schedule specs crossed with weighted
tenants and priority classes, with an optional heavy-tail batch knob).
:func:`generate_sequence` expands it into the full list of
:class:`PlannedRequest`\\ s **up front**, as a pure function of the
config and its seed: replay mechanics — thread counts, pacing, the
target server — never touch the sequence, which is what makes a load
run reproducible and lets two same-seed runs be compared request for
request (:func:`sequence_fingerprint` is the bit-identity check CI
uses).

Every random draw comes from one ``random.Random(seed)`` (Mersenne
Twister — stable across platforms and Python versions), consumed in a
fixed documented order: first all arrival offsets, then per request the
spec / tenant / priority picks.

The MMPP ("Markov-modulated Poisson process") alternates between a
*calm* and a *burst* state with exponentially distributed dwell times;
within a state, inter-arrivals are exponential at the state's rate.
``rate`` is the long-run average; ``burstiness`` is the burst:calm rate
ratio, so the calm rate is solved from the stationary state
probabilities. Exponential memorylessness makes redrawing the gap at a
state switch exact, not an approximation.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..errors import ServiceError
from ..io import fingerprint as _fingerprint
from ..service.spec import PRIORITIES, ScheduleRequest
from ..workflow.generators import FAMILIES

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalConfig",
    "PlannedRequest",
    "generate_sequence",
    "sequence_fingerprint",
    "load_trace_offsets",
]

#: Supported arrival processes.
ARRIVAL_PROCESSES = ("poisson", "mmpp", "trace")

#: Smallest workflow each generator family can produce; config validation
#: rejects a workload mix that would only fail at replay time.
_FAMILY_MIN_TASKS = {
    "cybershake": 4,
    "epigenomics": 8,
    "ligo": 4,
    "montage": 12,
    "random": 1,
    "sipht": 6,
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


@dataclass(frozen=True)
class PlannedRequest:
    """One planned arrival: when, what, and for whom.

    ``request`` is a JSON-ready :class:`ScheduleRequest` payload
    (including ``tenant`` / ``priority``); ``fingerprint`` is the spec's
    content-addressed identity (tenant/priority excluded, same as the
    service cache key).
    """

    index: int
    offset_s: float
    request: Dict[str, Any]
    fingerprint: str
    tenant: str
    priority: str


@dataclass(frozen=True)
class ArrivalConfig:
    """A complete, seedable description of one load run's workload.

    Arrival knobs
    -------------
    ``process``
        ``"poisson"`` | ``"mmpp"`` | ``"trace"``.
    ``rate``
        Long-run offered rate in requests/second (poisson, mmpp).
    ``n_requests``
        Total requests to plan (for ``trace``: capped at the trace
        length; 0 means the whole trace).
    ``burstiness`` / ``mean_burst_s`` / ``mean_calm_s``
        MMPP shape: burst:calm rate ratio and mean dwell seconds.
    ``batch_tail_alpha`` / ``batch_max``
        Heavy-tail batches: each arrival instant carries
        ``1 + ⌊Pareto(alpha)⌋`` requests (capped); 0 disables batching.
    ``trace_offsets``
        Recorded arrival offsets (seconds, ascending) for
        ``process="trace"`` — load from a file with
        :func:`load_trace_offsets`.

    Workload-mix knobs
    ------------------
    ``families`` × ``n_tasks`` × ``algorithms`` × ``budgets`` ×
    ``spec_seeds`` generator specs, plus one spec per inline ``daxes``
    document, form the spec pool; each arrival draws uniformly from it.
    ``tenants`` and ``priorities`` are weighted mixes.
    """

    process: str = "poisson"
    rate: float = 50.0
    n_requests: int = 1000
    seed: int = 0
    # mmpp shape
    burstiness: float = 4.0
    mean_burst_s: float = 2.0
    mean_calm_s: float = 8.0
    # heavy-tail batches
    batch_tail_alpha: float = 0.0
    batch_max: int = 64
    # trace replay
    trace_offsets: Tuple[float, ...] = ()
    # workload mix
    families: Tuple[str, ...] = ("montage", "ligo")
    n_tasks: Tuple[int, ...] = (15,)
    algorithms: Tuple[str, ...] = ("heft_budg",)
    budgets: Tuple[float, ...] = (2.0,)
    spec_seeds: int = 3
    sigma_ratio: float = 0.5
    n_reps: int = 2
    daxes: Tuple[str, ...] = ()
    tenants: Mapping[str, float] = field(
        default_factory=lambda: {"default": 1.0}
    )
    priorities: Mapping[str, float] = field(
        default_factory=lambda: {"interactive": 0.2, "batch": 0.7,
                                 "best_effort": 0.1}
    )

    def __post_init__(self) -> None:
        _require(self.process in ARRIVAL_PROCESSES,
                 f"process must be one of {ARRIVAL_PROCESSES}, "
                 f"got {self.process!r}")
        if self.process == "trace":
            _require(bool(self.trace_offsets),
                     "trace process needs trace_offsets (see "
                     "load_trace_offsets)")
            offsets = self.trace_offsets
            _require(all(b >= a for a, b in zip(offsets, offsets[1:])),
                     "trace_offsets must be non-decreasing")
            _require(offsets[0] >= 0.0,
                     "trace_offsets must be non-negative")
        else:
            _require(math.isfinite(self.rate) and self.rate > 0.0,
                     f"rate must be finite and > 0, got {self.rate}")
            _require(self.n_requests > 0,
                     f"n_requests must be > 0, got {self.n_requests}")
        _require(self.n_requests >= 0,
                 f"n_requests must be >= 0, got {self.n_requests}")
        if self.process == "mmpp":
            _require(self.burstiness > 1.0,
                     f"burstiness must be > 1, got {self.burstiness}")
            _require(self.mean_burst_s > 0.0 and self.mean_calm_s > 0.0,
                     "mmpp dwell means must be > 0")
        _require(self.batch_tail_alpha >= 0.0,
                 f"batch_tail_alpha must be >= 0, "
                 f"got {self.batch_tail_alpha}")
        _require(self.batch_max >= 1,
                 f"batch_max must be >= 1, got {self.batch_max}")
        _require(bool(self.families) or bool(self.daxes),
                 "workload mix needs at least one family or DAX")
        for family in self.families:
            _require(family.lower() in FAMILIES,
                     f"unknown workflow family {family!r}; "
                     f"available: {sorted(FAMILIES)}")
        _require(bool(self.n_tasks) and all(n > 0 for n in self.n_tasks),
                 "n_tasks must be a non-empty tuple of positive sizes")
        for family in self.families:
            minimum = _FAMILY_MIN_TASKS.get(family.lower(), 1)
            for n in self.n_tasks:
                _require(n >= minimum,
                         f"family {family!r} needs at least {minimum} "
                         f"tasks, got n_tasks={n}")
        _require(self.spec_seeds >= 1,
                 f"spec_seeds must be >= 1, got {self.spec_seeds}")
        _require(self.n_reps >= 0,
                 f"n_reps must be >= 0, got {self.n_reps}")
        for mix, what in ((self.tenants, "tenants"),
                          (self.priorities, "priorities")):
            _require(bool(mix), f"{what} mix must not be empty")
            _require(all(w > 0.0 for w in mix.values()),
                     f"{what} weights must be > 0")
        for priority in self.priorities:
            _require(priority in PRIORITIES,
                     f"unknown priority {priority!r}; one of {PRIORITIES}")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready encoding (drives :meth:`fingerprint`).

        Inline DAX documents are folded to content hashes so the
        fingerprint stays small while still covering the documents.
        """
        out: Dict[str, Any] = {}
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Mapping):
                value = dict(value)
            out[f.name] = value
        out["daxes"] = [
            hashlib.sha256(doc.encode("utf-8")).hexdigest()
            for doc in self.daxes
        ]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArrivalConfig":
        """Decode (inverse of :meth:`to_dict` minus the DAX hashing)."""
        names = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - names
        _require(not unknown,
                 f"unknown arrival config fields: {sorted(unknown)}")
        kwargs: Dict[str, Any] = dict(data)
        for key in ("trace_offsets", "families", "n_tasks", "algorithms",
                    "budgets", "daxes"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def fingerprint(self) -> str:
        """Content-addressed identity of this workload description."""
        return _fingerprint(self.to_dict())

    # ------------------------------------------------------------------
    def spec_pool(self) -> List[Dict[str, Any]]:
        """The deterministic, ordered pool of schedule-request payloads.

        Fixed enumeration order (families × sizes × algorithms ×
        budgets × seeds, then DAX documents) — the pool index an arrival
        draws is therefore stable across runs.
        """
        pool: List[Dict[str, Any]] = []
        evaluation = {"n_reps": self.n_reps, "seed": 0}
        for family in self.families:
            for n in self.n_tasks:
                for algorithm in self.algorithms:
                    for budget in self.budgets:
                        for rng in range(1, self.spec_seeds + 1):
                            pool.append({
                                "workflow": {
                                    "family": family, "n_tasks": n,
                                    "rng": rng,
                                    "sigma_ratio": self.sigma_ratio,
                                },
                                "algorithm": algorithm,
                                "budget": {"amount": budget},
                                "evaluation": dict(evaluation),
                            })
        for dax in self.daxes:
            for algorithm in self.algorithms:
                for budget in self.budgets:
                    pool.append({
                        "workflow": {"dax": dax,
                                     "sigma_ratio": self.sigma_ratio},
                        "algorithm": algorithm,
                        "budget": {"amount": budget},
                        "evaluation": dict(evaluation),
                    })
        return pool

    @property
    def offered_rate(self) -> float:
        """Long-run offered rate implied by the config (req/s)."""
        if self.process != "trace":
            return self.rate
        offsets = self.trace_offsets
        span = offsets[-1] - offsets[0]
        return len(offsets) / span if span > 0 else float(len(offsets))


# ----------------------------------------------------------------------
# arrival offsets
# ----------------------------------------------------------------------
def _poisson_offsets(config: ArrivalConfig,
                     rng: random.Random) -> List[float]:
    t = 0.0
    out: List[float] = []
    while len(out) < config.n_requests:
        t += rng.expovariate(config.rate)
        out.append(t)
    return out


def _mmpp_offsets(config: ArrivalConfig, rng: random.Random) -> List[float]:
    # Stationary probability of the calm state, then solve the calm rate
    # so the long-run average matches config.rate.
    pi_calm = config.mean_calm_s / (config.mean_calm_s
                                    + config.mean_burst_s)
    pi_burst = 1.0 - pi_calm
    rate_calm = config.rate / (pi_calm + pi_burst * config.burstiness)
    rate_burst = rate_calm * config.burstiness
    t = 0.0
    in_burst = False
    state_end = rng.expovariate(1.0 / config.mean_calm_s)
    out: List[float] = []
    while len(out) < config.n_requests:
        rate = rate_burst if in_burst else rate_calm
        gap = rng.expovariate(rate)
        if t + gap >= state_end:
            # Memoryless: jump to the switch point and redraw there.
            t = state_end
            in_burst = not in_burst
            mean_dwell = (config.mean_burst_s if in_burst
                          else config.mean_calm_s)
            state_end = t + rng.expovariate(1.0 / mean_dwell)
            continue
        t += gap
        out.append(t)
    return out


def _trace_offsets(config: ArrivalConfig) -> List[float]:
    offsets = list(config.trace_offsets)
    if config.n_requests > 0:
        offsets = offsets[:config.n_requests]
    base = offsets[0] if offsets else 0.0
    return [o - base for o in offsets]


def _apply_batches(offsets: List[float], config: ArrivalConfig,
                   rng: random.Random) -> List[float]:
    """Regroup arrival instants into heavy-tail batches (same offset).

    The total request count is preserved: Pareto-sized batches consume
    the planned instants in order, so the knob reshapes *clustering*
    (many requests landing on one instant) without changing volume.
    """
    if config.batch_tail_alpha <= 0.0:
        return offsets
    out: List[float] = []
    for offset in offsets:
        size = min(int(rng.paretovariate(config.batch_tail_alpha)),
                   config.batch_max)
        out.extend([offset] * size)
        if len(out) >= len(offsets):
            break
    return out[:len(offsets)]


def load_trace_offsets(path: str) -> Tuple[float, ...]:
    """Arrival offsets from a trace file: one float per line (seconds).

    Blank lines and ``#`` comments are skipped; offsets must be
    non-decreasing (validated by :class:`ArrivalConfig`).
    """
    offsets: List[float] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                offsets.append(float(text))
            except ValueError:
                raise ServiceError(
                    f"{path}:{lineno}: not a number: {text!r}") from None
    _require(bool(offsets), f"trace file {path} holds no offsets")
    return tuple(offsets)


# ----------------------------------------------------------------------
# sequence planning
# ----------------------------------------------------------------------
def _weighted_pick(mix: Mapping[str, float], rng: random.Random) -> str:
    """One weighted draw, in the mapping's (insertion) key order."""
    names = list(mix)
    total = float(sum(mix[name] for name in names))
    x = rng.random() * total
    acc = 0.0
    for name in names:
        acc += float(mix[name])
        if x < acc:
            return name
    return names[-1]


def generate_sequence(config: ArrivalConfig) -> List[PlannedRequest]:
    """Expand ``config`` into its full planned request sequence.

    Pure function of ``(config, config.seed)``: offsets first, then per
    arrival the spec / tenant / priority draws — so the sequence is
    bit-identical however it is later replayed. Spec fingerprints are
    computed once per pool entry (they exclude tenant/priority).
    """
    rng = random.Random(config.seed)
    if config.process == "poisson":
        offsets = _poisson_offsets(config, rng)
    elif config.process == "mmpp":
        offsets = _mmpp_offsets(config, rng)
    else:
        offsets = _trace_offsets(config)
    offsets = _apply_batches(offsets, config, rng)

    pool = config.spec_pool()
    # Validate + fingerprint each pool entry exactly once.
    pool_fingerprints = [
        ScheduleRequest.from_dict(payload).fingerprint() for payload in pool
    ]
    planned: List[PlannedRequest] = []
    for index, offset in enumerate(offsets):
        which = rng.randrange(len(pool))
        tenant = _weighted_pick(config.tenants, rng)
        priority = _weighted_pick(config.priorities, rng)
        request = dict(pool[which])
        request["tenant"] = tenant
        request["priority"] = priority
        planned.append(PlannedRequest(
            index=index,
            offset_s=offset,
            request=request,
            fingerprint=pool_fingerprints[which],
            tenant=tenant,
            priority=priority,
        ))
    return planned


def sequence_fingerprint(planned: Sequence[PlannedRequest]) -> str:
    """Bit-identity of a planned sequence (offsets + specs + routing).

    ``repr`` of the float offset keeps full precision, so two sequences
    hash equal iff they are bit-identical — the CI determinism check.
    """
    digest = hashlib.sha256()
    for p in planned:
        digest.update(
            f"{p.offset_s!r}|{p.fingerprint}|{p.tenant}|{p.priority}\n"
            .encode("utf-8")
        )
    return digest.hexdigest()
