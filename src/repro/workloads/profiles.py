"""Statistical primitives describing workload behaviour.

Three kinds of profile together describe how a benchmark exercises a
microarchitecture:

* :class:`ReuseProfile` — a mixture of lognormal reuse-distance components
  plus a "cold" mass, describing temporal locality of a reference stream
  (data or instruction, at cache-line or page granularity).
* :class:`BranchProfile` — a mixture of branch-bias classes describing how
  predictable the dynamic branch stream is.
* :class:`InstructionMix` — the fraction of loads, stores, branches and
  compute operations in the dynamic instruction stream.

These are microarchitecture-*independent* descriptions.  The trace
engine (:mod:`repro.perf.trace_engine`) and the analytic engine
(:mod:`repro.perf.analytic`) combine them with machine configurations
to produce the microarchitecture-*dependent* counter values the paper
measures with ``perf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.stats.special import erf

__all__ = [
    "ReuseComponent",
    "ReuseProfile",
    "BranchClass",
    "BranchProfile",
    "InstructionMix",
    "MissRatioRequest",
    "RowTable",
    "miss_ratios",
]

# Number of quadrature points used when integrating hit probability over a
# lognormal reuse-distance component.  512 points keeps the integration
# error well below the modelling error.
_QUADRATURE_POINTS = 512

# Quadrature spans this many standard deviations of the log-distance.
_QUADRATURE_SPAN = 6.0


@dataclass(frozen=True)
class ReuseComponent:
    """One lognormal component of a reuse-distance mixture.

    Parameters
    ----------
    weight:
        Relative weight of the component within its profile.  Weights are
        normalised by :class:`ReuseProfile`, so only ratios matter.
    median:
        Median reuse distance in *blocks* (cache lines for line-granularity
        profiles, pages for page-granularity profiles).  A reference with
        reuse distance ``d`` hits in a fully-associative LRU cache of
        capacity ``C`` blocks iff ``d < C``.
    sigma:
        Standard deviation of the natural log of the distance.  Larger
        values spread the working set over a wider range of cache sizes.
    """

    weight: float
    median: float
    sigma: float

    def __post_init__(self) -> None:
        if self.weight < 0.0:
            raise ConfigurationError(f"component weight must be >= 0, got {self.weight}")
        if self.median <= 0.0:
            raise ConfigurationError(f"component median must be > 0, got {self.median}")
        if self.sigma <= 0.0:
            raise ConfigurationError(f"component sigma must be > 0, got {self.sigma}")

    @property
    def mu(self) -> float:
        """Mean of the log-distance (``ln median``)."""
        return math.log(self.median)


@dataclass(frozen=True)
class ReuseProfile:
    """A reuse-distance distribution: lognormal mixture plus cold mass.

    ``cold_fraction`` is the probability that a reference can never hit
    (compulsory misses and streaming data whose reuse distance exceeds any
    realistic cache).  The remaining mass is distributed over the mixture
    components in proportion to their weights.
    """

    components: Tuple[ReuseComponent, ...]
    cold_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigurationError("a reuse profile needs at least one component")
        if not 0.0 <= self.cold_fraction < 1.0:
            raise ConfigurationError(
                f"cold_fraction must be in [0, 1), got {self.cold_fraction}"
            )
        total = sum(component.weight for component in self.components)
        if total <= 0.0:
            raise ConfigurationError("component weights must sum to a positive value")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        components: Iterable[Tuple[float, float, float]],
        cold_fraction: float = 0.0,
    ) -> "ReuseProfile":
        """Build a profile from ``(weight, median, sigma)`` tuples."""
        return cls(
            components=tuple(ReuseComponent(w, m, s) for w, m, s in components),
            cold_fraction=cold_fraction,
        )

    def scaled(self, distance_factor: float) -> "ReuseProfile":
        """Return a profile with all reuse distances scaled by a factor.

        Used to derive e.g. the larger-footprint "speed" variant of a
        benchmark from its "rate" variant, or a page-granularity profile
        from a line-granularity one.
        """
        if distance_factor <= 0.0:
            raise ConfigurationError(
                f"distance_factor must be > 0, got {distance_factor}"
            )
        return ReuseProfile(
            components=tuple(
                replace(c, median=c.median * distance_factor) for c in self.components
            ),
            cold_fraction=self.cold_fraction,
        )

    def with_cold_fraction(self, cold_fraction: float) -> "ReuseProfile":
        """Return a copy with a different cold mass."""
        return ReuseProfile(components=self.components, cold_fraction=cold_fraction)

    # -- derived quantities ----------------------------------------------------

    @property
    def normalized_weights(self) -> np.ndarray:
        """Component probabilities (excluding the cold mass)."""
        weights = np.array([c.weight for c in self.components], dtype=float)
        return weights / weights.sum() * (1.0 - self.cold_fraction)

    def mean_log_distance(self) -> float:
        """Weighted mean of the log reuse distance of the warm mass."""
        weights = self.normalized_weights
        warm = weights.sum()
        if warm == 0.0:
            return 0.0
        mus = np.array([c.mu for c in self.components])
        return float((weights * mus).sum() / warm)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` reuse distances.  Cold references are ``np.inf``.

        Distances are continuous; consumers round or compare as needed.
        """
        if n < 0:
            raise ConfigurationError(f"sample size must be >= 0, got {n}")
        weights = self.normalized_weights
        probabilities = np.append(weights, self.cold_fraction)
        probabilities = probabilities / probabilities.sum()
        choices = rng.choice(len(probabilities), size=n, p=probabilities)
        distances = np.empty(n, dtype=float)
        for index, component in enumerate(self.components):
            mask = choices == index
            count = int(mask.sum())
            if count:
                distances[mask] = rng.lognormal(component.mu, component.sigma, count)
        distances[choices == len(self.components)] = np.inf
        return distances

    # -- cache behaviour -------------------------------------------------------

    def miss_ratio(self, capacity_blocks: float, associativity: int = 0) -> float:
        """Probability that a reference misses in an LRU cache.

        Parameters
        ----------
        capacity_blocks:
            Total cache capacity in blocks (lines or pages, matching the
            granularity of this profile).
        associativity:
            Number of ways.  ``0`` (the default) models a fully-associative
            cache: a reference hits iff its reuse distance is below the
            capacity.  For a set-associative cache the classic binomial
            set-occupancy model is used: with ``S = capacity / assoc`` sets,
            a reference with reuse distance ``d`` hits iff fewer than
            ``assoc`` of the ``d`` intervening distinct blocks landed in
            its set, i.e. ``P(hit | d) = P(Binomial(d, 1/S) < assoc)``.

        A batch of one :func:`miss_ratios` lookup.
        """
        return miss_ratios([(self, capacity_blocks, associativity)])[0]


#: One miss-ratio lookup: ``(profile, capacity_blocks, associativity)``,
#: with the meaning of :meth:`ReuseProfile.miss_ratio`'s arguments.
MissRatioRequest = Tuple[ReuseProfile, float, int]

#: A binomial quadrature row: ``(median, sigma, capacity, associativity)``.
RowKey = Tuple[float, float, float, int]

#: Caller-owned quadrature rows: each row's integrated hit probability
#: by :data:`RowKey`.  A row's value depends only on its key, so one
#: table can serve any number of :func:`miss_ratios` calls.
RowTable = Dict[RowKey, float]

#: Quadrature rows per array program.  Blocking bounds the ``(rows,
#: points)`` temporaries of a large batch; rows are independent, so the
#: block size never changes a result.
_ROW_BLOCK = 32


def miss_ratios(
    requests: Sequence[MissRatioRequest], table: Optional[RowTable] = None
) -> List[float]:
    """Miss ratios of many lookups, as :meth:`ReuseProfile.miss_ratio`.

    Each lognormal component is integrated over its own
    ``_QUADRATURE_POINTS``-point log-distance grid with its own
    self-normalised density.  Every distinct (component, capacity,
    associativity) binomial row of the batch that ``table`` does not
    hold yet is evaluated in one ``(rows, points)`` array program, in
    blocks of ``_ROW_BLOCK`` rows, and stored in ``table``.  Each row is
    summed along its contiguous axis — the same pairwise summation as a
    1-D sum — so a batch is bit-identical to its lookups made one at a
    time, whatever rows the table already held.  Without a table, the
    rows are shared within this call only.  Fully-associative lookups
    (``associativity <= 0``) use the closed form; zero capacity always
    misses.
    """
    if table is None:
        table = {}
    # hits[i] is one component's hit probability on one geometry;
    # binomial rows get a slot now and a value from the table below.
    hits: List[float] = []
    row_slots: Dict[RowKey, int] = {}
    # By identity: a batch repeats a few profile objects many times, and
    # both hashing a profile and normalising its weights walk it whole.
    weights: Dict[int, np.ndarray] = {}
    terms: List[Optional[List[Tuple[float, int]]]] = []
    for profile, capacity_blocks, associativity in requests:
        if capacity_blocks <= 0.0:
            terms.append(None)
            continue
        if id(profile) not in weights:
            weights[id(profile)] = profile.normalized_weights
        request_terms = []
        for weight, component in zip(weights[id(profile)], profile.components):
            if associativity <= 0:
                # Fully associative LRU: hit iff d < capacity.
                z = (math.log(capacity_blocks) - component.mu) / component.sigma
                slot = len(hits)
                hits.append(_normal_cdf(z))
            else:
                key = (component.median, component.sigma, capacity_blocks, associativity)
                slot = row_slots.setdefault(key, len(hits))
                if slot == len(hits):
                    hits.append(0.0)
            request_terms.append((weight, slot))
        terms.append(request_terms)
    if row_slots:
        # Requested beside analytic.quadratures (evaluated): their
        # ratio is the table's share.
        obs_metrics.incr("analytic.rows_requested", len(row_slots))
        # Each row is read from the table once.  Another thread sharing
        # it can at worst evaluate a row twice and store an equal value.
        missing: Dict[RowKey, int] = {}
        for key, slot in row_slots.items():
            value = table.get(key)
            if value is None:
                missing[key] = slot
            else:
                hits[slot] = value
        if missing:
            values = _binomial_rows(list(missing))
            for slot, value in zip(missing.values(), values):
                hits[slot] = value
            table.update(zip(missing, values))
    ratios = []
    for request_terms in terms:
        if request_terms is None:
            ratios.append(1.0)
            continue
        warm_hit = 0.0
        for weight, slot in request_terms:
            warm_hit += weight * hits[slot]
        ratios.append(float(min(1.0, max(0.0, 1.0 - warm_hit))))
    return ratios


def _binomial_rows(rows: Sequence[RowKey]) -> List[float]:
    """Integrate ``P(hit | d)`` over each ``(median, sigma, capacity, assoc)`` row.

    ``P(hit | d) = P(Binomial(d, 1/sets) <= assoc - 1)`` under a normal
    approximation, exactly 1 for ``d < assoc``; a single-set cache hits
    iff ``d < assoc``.  The in-place steps only reorder commutative
    operands, so every element rounds as in the textbook expression,
    and :func:`~repro.stats.special.erf` returns scipy's bits.
    """
    obs_metrics.incr("analytic.quadratures", len(rows))
    # Each component's own grid — np.linspace(mu - 6 sigma, mu + 6 sigma,
    # points), spelled out to build all grids at once — and its own
    # self-normalised density.
    grids: Dict[Tuple[float, float], int] = {}
    for median, sigma, _capacity, _associativity in rows:
        grids.setdefault((median, sigma), len(grids))
    mus = np.array([math.log(median) for median, _ in grids])[:, None]
    sigmas = np.array([sigma for _, sigma in grids])[:, None]
    low = mus - _QUADRATURE_SPAN * sigmas
    high = mus + _QUADRATURE_SPAN * sigmas
    step = (high - low) / (_QUADRATURE_POINTS - 1)
    log_d = np.arange(_QUADRATURE_POINTS) * step + low
    log_d[:, -1:] = high
    densities = np.exp(-0.5 * ((log_d - mus) / sigmas) ** 2)
    densities /= densities.sum(axis=1, keepdims=True)
    distances = np.exp(log_d)
    grid = np.array([grids[(median, sigma)] for median, sigma, _, _ in rows])
    ways = np.array([float(associativity) for *_, associativity in rows])
    sets = np.array(
        [max(1.0, capacity / associativity) for _, _, capacity, associativity in rows]
    )
    p = 1.0 / sets
    q = 1.0 - p
    hit_sums = np.empty(len(rows))
    for start in range(0, len(rows), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        members = grid[block]
        d = distances[members]
        assoc = ways[block, None]
        mean = d * p[block, None]
        scale = mean * q[block, None]            # var = d * p * (1 - p)
        np.maximum(scale, 1e-12, out=scale)
        np.sqrt(scale, out=scale)
        hit = np.subtract(assoc - 0.5, mean, out=mean)
        hit /= scale
        hit /= math.sqrt(2.0)
        erf(hit, out=hit)
        hit += 1.0
        hit *= 0.5                               # normal CDF of the z-score
        hit[sets[block] <= 1.0] = 0.0
        hit[d < assoc] = 1.0
        hit[~np.isfinite(d)] = 0.0
        hit *= densities[members]
        hit_sums[block] = hit.sum(axis=1)
    return hit_sums.tolist()


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))



@dataclass(frozen=True)
class BranchClass:
    """A class of dynamic branches sharing predictability behaviour.

    Parameters
    ----------
    weight:
        Relative weight within the profile.
    bias:
        Probability of the branch's majority direction, in ``[0.5, 1]``.
        A static majority predictor mispredicts at rate ``1 - bias``.
    pattern:
        Fraction of the minority-direction occurrences that follow a
        learnable pattern.  A history-based predictor of strength ``s``
        removes ``pattern * s`` of the static mispredictions, so its
        misprediction rate for this class is
        ``(1 - bias) * (1 - pattern * s)``.
    """

    weight: float
    bias: float
    pattern: float = 0.0

    def __post_init__(self) -> None:
        if self.weight < 0.0:
            raise ConfigurationError(f"class weight must be >= 0, got {self.weight}")
        if not 0.5 <= self.bias <= 1.0:
            raise ConfigurationError(f"bias must be in [0.5, 1], got {self.bias}")
        if not 0.0 <= self.pattern <= 1.0:
            raise ConfigurationError(f"pattern must be in [0, 1], got {self.pattern}")

    def mispredict_rate(self, strength: float) -> float:
        """Misprediction rate under a predictor of the given strength."""
        if not 0.0 <= strength <= 1.0:
            raise ConfigurationError(f"strength must be in [0, 1], got {strength}")
        return (1.0 - self.bias) * (1.0 - self.pattern * strength)


@dataclass(frozen=True)
class BranchProfile:
    """The dynamic branch behaviour of a workload.

    Parameters
    ----------
    taken_fraction:
        Fraction of dynamic branches that are taken.
    classes:
        Mixture of :class:`BranchClass` describing predictability.
    static_branches:
        Approximate number of static branch sites; drives aliasing in
        small predictor tables.
    """

    taken_fraction: float
    classes: Tuple[BranchClass, ...]
    static_branches: int = 1024

    def __post_init__(self) -> None:
        if not 0.0 <= self.taken_fraction <= 1.0:
            raise ConfigurationError(
                f"taken_fraction must be in [0, 1], got {self.taken_fraction}"
            )
        if not self.classes:
            raise ConfigurationError("a branch profile needs at least one class")
        if self.static_branches <= 0:
            raise ConfigurationError(
                f"static_branches must be > 0, got {self.static_branches}"
            )
        total = sum(c.weight for c in self.classes)
        if total <= 0.0:
            raise ConfigurationError("class weights must sum to a positive value")

    @classmethod
    def from_tuples(
        cls,
        taken_fraction: float,
        classes: Iterable[Tuple[float, float, float]],
        static_branches: int = 1024,
    ) -> "BranchProfile":
        """Build a profile from ``(weight, bias, pattern)`` tuples."""
        return cls(
            taken_fraction=taken_fraction,
            classes=tuple(BranchClass(w, b, p) for w, b, p in classes),
            static_branches=static_branches,
        )

    @property
    def normalized_weights(self) -> np.ndarray:
        weights = np.array([c.weight for c in self.classes], dtype=float)
        return weights / weights.sum()

    def static_mispredict_rate(self) -> float:
        """Misprediction rate of an ideal static (majority) predictor."""
        return self.mispredict_rate(strength=0.0, table_entries=0)

    def mispredict_rate(self, strength: float, table_entries: int = 0) -> float:
        """Misprediction rate under a predictor.

        Parameters
        ----------
        strength:
            Pattern-learning strength of the predictor in ``[0, 1]``
            (0 = static majority predictor, 1 = ideal history predictor).
        table_entries:
            Size of the predictor's counter table.  When positive,
            destructive aliasing between the workload's static branches
            and the table adds mispredictions: colliding branches fall
            back toward a 50% outcome on a fraction of references.
        """
        weights = self.normalized_weights
        rate = float(
            sum(
                weight * cls.mispredict_rate(strength)
                for weight, cls in zip(weights, self.classes)
            )
        )
        if table_entries > 0:
            # Probability a branch site shares its entry with another site
            # (birthday-style occupancy); colliding references behave as if
            # half-biased for the colliding fraction.
            load = self.static_branches / table_entries
            collision = 1.0 - math.exp(-load)
            aliased_penalty = 0.10 * collision
            rate = rate + aliased_penalty * (1.0 - rate)
        return min(0.5, rate)

    def sample_outcomes(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` (branch site id, taken) pairs for trace synthesis.

        Sites are assigned to predictability classes proportionally to
        the class weights.  Each site emits its minority direction at
        rate ``1 - bias``; the class's ``pattern`` fraction of minority
        events is emitted in *runs* (learnable structure that history
        predictors exploit), while the remainder occurs i.i.d.  Majority
        directions are distributed so the aggregate taken fraction
        approximates the profile's.
        """
        weights = self.normalized_weights
        site_classes = rng.choice(
            len(self.classes), size=self.static_branches, p=weights
        )
        biases = np.array([c.bias for c in self.classes])
        patterns = np.array([c.pattern for c in self.classes])
        site_bias = biases[site_classes]
        site_pattern = patterns[site_classes]
        site_majority_taken = rng.random(self.static_branches) < _majority_taken_share(
            float(site_bias.mean()), self.taken_fraction
        )
        sites = rng.integers(0, self.static_branches, size=n)
        minority = np.zeros(n, dtype=bool)
        # Per-site run-structured minority placement: process each site's
        # occurrence positions in order and emit minority events in runs
        # of length 1 / (1 - pattern).
        order = np.argsort(sites, kind="stable")
        sorted_sites = sites[order]
        boundaries = np.nonzero(np.diff(sorted_sites))[0] + 1
        groups = np.split(order, boundaries)
        for group in groups:
            if group.size == 0:
                continue
            site = int(sites[group[0]])
            rate = 1.0 - float(site_bias[site])
            if rate <= 0.0:
                continue
            run_length = max(1, int(round(1.0 / max(1e-9, 1.0 - site_pattern[site]))))
            k = group.size
            run_starts = rng.random(k) < rate / run_length
            flags = np.zeros(k, dtype=bool)
            start_positions = np.nonzero(run_starts)[0]
            for start in start_positions:
                flags[start : start + run_length] = True
            minority[group] = flags
        toward_majority = ~minority
        taken = np.where(
            site_majority_taken[sites], toward_majority, ~toward_majority
        )
        return sites, taken


def _majority_taken_share(mean_bias: float, taken_fraction: float) -> float:
    """Share of sites whose majority direction is 'taken'.

    Solves ``share * b + (1 - share) * (1 - b) = taken_fraction`` for the
    share of taken-majority sites given the mean bias ``b``.
    """
    b = min(max(mean_bias, 0.5 + 1e-9), 1.0 - 1e-9)
    share = (taken_fraction - (1.0 - b)) / (2.0 * b - 1.0)
    return min(1.0, max(0.0, share))


@dataclass(frozen=True)
class InstructionMix:
    """Dynamic instruction mix of a workload.

    ``load + store + branch + int_alu + fp + other`` must sum to 1.
    ``simd`` is the fraction of *all* dynamic instructions executed as
    SIMD operations (vectorized FP or integer SIMD, e.g. x264's integer
    vector kernels); ``kernel`` is the fraction of execution spent in
    kernel mode.
    """

    load: float
    store: float
    branch: float
    int_alu: float
    fp: float
    other: float = 0.0
    simd: float = 0.0
    kernel: float = 0.01

    def __post_init__(self) -> None:
        fields = {
            "load": self.load,
            "store": self.store,
            "branch": self.branch,
            "int_alu": self.int_alu,
            "fp": self.fp,
            "other": self.other,
        }
        for name, value in fields.items():
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        total = sum(fields.values())
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise ConfigurationError(
                f"instruction mix fractions must sum to 1, got {total:.6f}"
            )
        if not 0.0 <= self.simd <= 1.0:
            raise ConfigurationError(f"simd must be in [0, 1], got {self.simd}")
        if not 0.0 <= self.kernel <= 1.0:
            raise ConfigurationError(f"kernel must be in [0, 1], got {self.kernel}")

    @classmethod
    def from_percentages(
        cls,
        load: float,
        store: float,
        branch: float,
        fp: float = 0.0,
        simd: float = 0.0,
        kernel: float = 1.0,
    ) -> "InstructionMix":
        """Build a mix from Table I style percentages.

        ``load``, ``store``, ``branch`` and ``fp`` are percentages of the
        dynamic instruction stream; the remainder is assigned to integer
        ALU operations.  ``simd`` is the absolute SIMD fraction (0-1) and
        ``kernel`` is the kernel-mode percentage.
        """
        load_f, store_f, branch_f, fp_f = (
            load / 100.0,
            store / 100.0,
            branch / 100.0,
            fp / 100.0,
        )
        remainder = 1.0 - (load_f + store_f + branch_f + fp_f)
        if remainder < 0.0:
            raise ConfigurationError(
                "load + store + branch + fp percentages exceed 100"
            )
        return cls(
            load=load_f,
            store=store_f,
            branch=branch_f,
            int_alu=remainder,
            fp=fp_f,
            simd=simd,
            kernel=kernel / 100.0,
        )

    @property
    def memory(self) -> float:
        """Fraction of instructions that access data memory."""
        return self.load + self.store

    @property
    def compute(self) -> float:
        """Fraction of instructions that are ALU/FP compute."""
        return self.int_alu + self.fp

    def as_dict(self) -> dict:
        """All fractions as a plain dictionary (for reporting)."""
        return {
            "load": self.load,
            "store": self.store,
            "branch": self.branch,
            "int_alu": self.int_alu,
            "fp": self.fp,
            "other": self.other,
            "simd": self.simd,
            "kernel": self.kernel,
        }
