"""Parametric service-time distributions.

Every distribution here has closed-form raw moments, a closed-form
Laplace-Stieltjes transform on the real axis, an exact CDF, and a sampler,
so downstream numerics can always be checked against analytic values.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Marker returned by ``lst`` outside the convergence region.  It is set
#: deliberately from the known convergence abscissa, never produced by
#: floating-point overflow, so domain boundaries stay exactly testable.
DIVERGENT = math.inf

_MAX_MOMENT_ORDER = 150


class DistributionSpecError(ValueError):
    """Malformed distribution spec string or invalid parameters."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DistributionSpecError(message)


@dataclass(frozen=True)
class ServiceDistribution:
    """Base class for a service-time law on [0, inf)."""

    def moment(self, k: int) -> float:
        """Exact k-th raw moment, k >= 1."""
        self._check_order(k)
        return self._moment(k)

    def _moment(self, k: int) -> float:
        raise NotImplementedError

    @staticmethod
    def _check_order(k: int) -> None:
        if k < 1 or k != int(k):
            raise ValueError(f"moment order must be a positive integer, got {k}")
        if k > _MAX_MOMENT_ORDER:
            raise ValueError(
                f"moment order {k} exceeds supported range (factorial terms "
                f"overflow beyond k={_MAX_MOMENT_ORDER})"
            )

    def lst(self, s: float) -> float:
        """E exp(-s X); returns DIVERGENT for s <= -cramer_abscissa()."""
        if s <= -self.cramer_abscissa():
            return DIVERGENT
        return self._lst(s)

    def _lst(self, s: float) -> float:
        raise NotImplementedError

    def cramer_abscissa(self) -> float:
        """Supremum of d with E exp(d X) finite (math.inf for bounded support)."""
        raise NotImplementedError

    def cdf(self, x):
        """P(X <= x); accepts scalars or arrays."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        """Draw variates; deterministic given the generator state."""
        raise NotImplementedError

    def spec_string(self) -> str:
        """Round-trippable CLI/config representation."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    rate: float

    def __post_init__(self):
        _require(self.rate > 0, f"exponential rate must be > 0, got {self.rate}")

    def _moment(self, k: int) -> float:
        return math.factorial(k) / self.rate**k

    def _lst(self, s: float) -> float:
        return self.rate / (self.rate + s)

    def cramer_abscissa(self) -> float:
        return self.rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)[()]

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size=size)

    def spec_string(self) -> str:
        return f"exp:rate={_number(self.rate)}"


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    value: float

    def __post_init__(self):
        _require(self.value > 0, f"deterministic value must be > 0, got {self.value}")

    def _moment(self, k: int) -> float:
        return self.value**k

    def _lst(self, s: float) -> float:
        # finite for every s; math.inf only when the value exceeds float range
        if -s * self.value > 709.0:
            return math.inf
        return math.exp(-s * self.value)

    def cramer_abscissa(self) -> float:
        return math.inf

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.value, 1.0, 0.0)[()]

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def spec_string(self) -> str:
        return f"det:value={_number(self.value)}"


@dataclass(frozen=True)
class Erlang(ServiceDistribution):
    shape: int
    rate: float

    def __post_init__(self):
        _require(self.shape >= 1 and self.shape == int(self.shape),
                 f"erlang shape must be a positive integer, got {self.shape}")
        _require(self.rate > 0, f"erlang rate must be > 0, got {self.rate}")

    def _moment(self, k: int) -> float:
        # Gamma(shape + k) / Gamma(shape) = shape (shape+1) ... (shape+k-1)
        num = 1.0
        for j in range(k):
            num *= self.shape + j
        return num / self.rate**k

    def _lst(self, s: float) -> float:
        try:
            return (self.rate / (self.rate + s)) ** self.shape
        except OverflowError:
            return math.inf

    def cramer_abscissa(self) -> float:
        return self.rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        y = self.rate * np.maximum(x, 0.0)
        # 1 - sum_{j<shape} y^j e^{-y} / j!
        total = np.zeros_like(y)
        term = np.ones_like(y)
        for j in range(self.shape):
            if j > 0:
                term = term * y / j
            total += term
        return np.where(x > 0, 1.0 - np.exp(-y) * total, 0.0)[()]

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    def spec_string(self) -> str:
        return f"erlang:shape={self.shape},rate={_number(self.rate)}"


@dataclass(frozen=True)
class HyperExponential(ServiceDistribution):
    weights: tuple
    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        _require(len(self.weights) == len(self.rates) and len(self.rates) >= 1,
                 "hyperexp weights and rates must have equal, nonzero length")
        _require(all(w >= 0 for w in self.weights), "hyperexp weights must be >= 0")
        _require(abs(sum(self.weights) - 1.0) <= 1e-12,
                 f"hyperexp weights must sum to 1, got {sum(self.weights)!r}")
        _require(all(r > 0 for r in self.rates), "hyperexp rates must be > 0")

    def _moment(self, k: int) -> float:
        fk = math.factorial(k)
        return sum(w * fk / r**k for w, r in zip(self.weights, self.rates))

    def _lst(self, s: float) -> float:
        return sum(w * r / (r + s) for w, r in zip(self.weights, self.rates))

    def cramer_abscissa(self) -> float:
        return min(r for w, r in zip(self.weights, self.rates) if w > 0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xc = np.maximum(x, 0.0)
        val = np.zeros_like(xc)
        for w, r in zip(self.weights, self.rates):
            val += w * -np.expm1(-r * xc)
        return np.where(x > 0, val, 0.0)[()]

    @cached_property
    def _mixer(self):
        """Normalized cumulative weights and component scales.  The weights
        are formed as ``Generator.choice(p=weights)`` forms them, so one
        uniform per draw picks the component ``choice`` would, without
        ``choice``'s per-call validation."""
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        return cdf.tolist(), 1.0 / np.asarray(self.rates)

    def sample(self, rng, size=None):
        cdf, scales = self._mixer
        if size is None:
            return rng.exponential(scales[bisect.bisect_right(cdf, rng.random())])
        idx = np.searchsorted(cdf, rng.random(size), side="right")
        return rng.exponential(scales[idx])

    def spec_string(self) -> str:
        w = "|".join(map(_number, self.weights))
        r = "|".join(map(_number, self.rates))
        return f"hyperexp:w={w},rate={r}"


@dataclass(frozen=True)
class Uniform(ServiceDistribution):
    lo: float
    hi: float

    def __post_init__(self):
        _require(self.lo > 0, f"uniform lo must be > 0, got {self.lo}")
        _require(self.hi > self.lo,
                 f"uniform needs lo < hi, got lo={self.lo}, hi={self.hi}")

    def _moment(self, k: int) -> float:
        return (self.hi ** (k + 1) - self.lo ** (k + 1)) / ((k + 1) * (self.hi - self.lo))

    def _lst(self, s: float) -> float:
        if -s * self.hi > 709.0:
            return math.inf
        x = s * (self.hi - self.lo)
        if x == 0.0:
            # s == 0, or s so small that s * width underflows: the ratio
            # -expm1(-x) / x is 1 to double precision
            return math.exp(-s * self.lo)
        # expm1 keeps the ratio stable for s near 0
        return math.exp(-s * self.lo) * -math.expm1(-x) / x

    def cramer_abscissa(self) -> float:
        return math.inf

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)[()]

    def sample(self, rng, size=None):
        return rng.uniform(self.lo, self.hi, size=size)

    def spec_string(self) -> str:
        return f"uniform:lo={_number(self.lo)},hi={_number(self.hi)}"


def _number(value: float) -> str:
    """``:g``'s six digits if they parse back to ``value``, else its repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def _parse_fields(body: str, spec: str) -> dict:
    fields = {}
    for part in body.split(","):
        if "=" not in part:
            raise DistributionSpecError(f"bad field {part!r} in spec {spec!r}")
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    return fields


def parse_service_spec(spec: str) -> ServiceDistribution:
    """Parse a distribution spec string.

    Accepted forms::

        exp:rate=1.0
        det:value=1.0
        erlang:shape=2,rate=2.0
        hyperexp:w=0.3|0.7,rate=1.0|2.0
        uniform:lo=0.5,hi=1.5
    """
    kind, sep, body = spec.partition(":")
    if not sep:
        raise DistributionSpecError(f"missing ':' in service spec {spec!r}")
    fields = _parse_fields(body, spec)
    try:
        if kind == "exp":
            dist = Exponential(rate=float(fields.pop("rate")))
        elif kind == "det":
            dist = Deterministic(value=float(fields.pop("value")))
        elif kind == "erlang":
            dist = Erlang(shape=int(fields.pop("shape")), rate=float(fields.pop("rate")))
        elif kind == "hyperexp":
            weights = tuple(float(v) for v in fields.pop("w").split("|"))
            rates = tuple(float(v) for v in fields.pop("rate").split("|"))
            dist = HyperExponential(weights=weights, rates=rates)
        elif kind == "uniform":
            dist = Uniform(lo=float(fields.pop("lo")), hi=float(fields.pop("hi")))
        else:
            raise DistributionSpecError(
                f"unknown distribution kind {kind!r} "
                f"(expected exp, det, erlang, hyperexp, uniform)"
            )
    except KeyError as exc:
        raise DistributionSpecError(f"spec {spec!r} is missing field {exc}") from None
    except ValueError as exc:
        if isinstance(exc, DistributionSpecError):
            raise
        raise DistributionSpecError(f"bad numeric value in spec {spec!r}: {exc}") from None
    if fields:
        raise DistributionSpecError(
            f"unexpected field(s) {sorted(fields)} in spec {spec!r}"
        )
    return dist
