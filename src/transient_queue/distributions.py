"""Parametric service-time distributions.

Every distribution here has a closed-form mean, second moment and
Laplace-Stieltjes transform on the real axis, an exact CDF, and a sampler,
so downstream numerics can always be checked against analytic values.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

#: Marker returned by ``lst`` outside the convergence region.  It is set
#: deliberately from the known convergence abscissa, never produced by
#: floating-point overflow, so domain boundaries stay exactly testable.
DIVERGENT = math.inf


class DistributionSpecError(ValueError):
    """Malformed distribution spec string or invalid parameters."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DistributionSpecError(message)


@dataclass(frozen=True)
class ServiceDistribution:
    """Base class for a service-time law on [0, inf).  Each law states its
    spec ``kind`` and, per dataclass field in order, a (spec name, parser)
    pair in ``spec_fields``; the spec string, the parser and the finiteness
    check read them, then the law's ``_validate`` checks the rest."""

    def __post_init__(self):
        for name, numbers in self._spec_items():
            _require(all(map(math.isfinite, numbers)),
                     f"{self.kind} {name} must be finite, got "
                     f"{'|'.join(map(str, numbers))}")
        self._validate()

    def _spec_items(self):
        """(spec name, the field's numbers as a tuple) for each spec field."""
        for (name, _), field in zip(self.spec_fields, fields(self)):
            value = getattr(self, field.name)
            yield name, value if isinstance(value, tuple) else (value,)

    def moment(self, k: int) -> float:
        """Exact mean (k = 1) or second moment (k = 2), the two the M/G/1
        formulas read.  Each law's ``_moments`` yields them in turn in closed
        form, so a second moment past double range never stops the mean."""
        if k not in (1, 2):
            raise ValueError(f"moment order must be 1 or 2, got {k!r}")
        moments = self._moments()
        mean = next(moments)
        return mean if k == 1 else next(moments)

    def lst(self, s: float) -> float:
        """E exp(-s X); returns DIVERGENT for s <= -cramer_abscissa(), and
        math.inf where the closed form overflows."""
        if s <= -self.cramer_abscissa():
            return DIVERGENT
        try:
            return self._lst(s)
        except OverflowError:
            return math.inf

    def _lst(self, s: float) -> float:
        raise NotImplementedError

    def cramer_abscissa(self) -> float:
        """Supremum of d with E exp(d X) finite (math.inf for bounded support)."""
        raise NotImplementedError

    def cdf(self, x):
        """P(X <= x); accepts scalars or arrays, and is 0 for x <= 0 or NaN."""
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, self._cdf(np.maximum(x, 0.0)), 0.0)[()]

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        """P(X <= x) for an array of x >= 0."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        """Draw variates; deterministic given the generator state."""
        raise NotImplementedError

    def spec_string(self) -> str:
        """Round-trippable CLI/config representation."""
        body = ",".join(f"{name}={'|'.join(map(_number, numbers))}"
                        for name, numbers in self._spec_items())
        return f"{self.kind}:{body}"


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split("|"))


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    rate: float
    kind = "exp"
    spec_fields = (("rate", float),)

    def _validate(self):
        _require(self.rate > 0, f"exponential rate must be > 0, got {self.rate}")

    def _moments(self):
        yield 1 / self.rate
        yield 2 / self.rate**2

    def _lst(self, s: float) -> float:
        return self.rate / (self.rate + s)

    def cramer_abscissa(self) -> float:
        return self.rate

    def _cdf(self, x):
        return -np.expm1(-self.rate * x)

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size=size)


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    value: float
    kind = "det"
    spec_fields = (("value", float),)

    def _validate(self):
        _require(self.value > 0, f"deterministic value must be > 0, got {self.value}")

    def _moments(self):
        yield self.value
        yield self.value**2

    def _lst(self, s: float) -> float:
        return math.exp(-s * self.value)

    def cramer_abscissa(self) -> float:
        return math.inf

    def _cdf(self, x):
        return np.where(x >= self.value, 1.0, 0.0)

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


@dataclass(frozen=True)
class Erlang(ServiceDistribution):
    shape: int
    rate: float
    kind = "erlang"
    spec_fields = (("shape", int), ("rate", float))

    def _validate(self):
        _require(self.shape >= 1 and self.shape == int(self.shape),
                 f"erlang shape must be a positive integer, got {self.shape}")
        _require(self.rate > 0, f"erlang rate must be > 0, got {self.rate}")
        # a whole float such as 2.0 is stored as the int the cdf loop needs
        object.__setattr__(self, "shape", int(self.shape))

    def _moments(self):
        yield self.shape / self.rate
        yield self.shape * (self.shape + 1) / self.rate**2

    def _lst(self, s: float) -> float:
        return (self.rate / (self.rate + s)) ** self.shape

    def cramer_abscissa(self) -> float:
        return self.rate

    def _cdf(self, x):
        y = self.rate * x
        # 1 - sum_{j<shape} y^j e^{-y} / j!
        total = np.zeros_like(y)
        term = np.ones_like(y)
        for j in range(self.shape):
            if j > 0:
                term = term * y / j
            total += term
        return 1.0 - np.exp(-y) * total

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)


@dataclass(frozen=True)
class HyperExponential(ServiceDistribution):
    weights: tuple
    rates: tuple
    kind = "hyperexp"
    spec_fields = (("w", _floats), ("rate", _floats))

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        super().__post_init__()

    def _validate(self):
        _require(len(self.weights) == len(self.rates) and len(self.rates) >= 1,
                 "hyperexp weights and rates must have equal, nonzero length")
        _require(all(w >= 0 for w in self.weights), "hyperexp weights must be >= 0")
        _require(abs(sum(self.weights) - 1.0) <= 1e-12,
                 f"hyperexp weights must sum to 1, got {sum(self.weights)!r}")
        _require(all(r > 0 for r in self.rates), "hyperexp rates must be > 0")

    def _moments(self):
        yield sum(w / r for w, r in zip(self.weights, self.rates))
        yield sum(w * 2 / r**2 for w, r in zip(self.weights, self.rates))

    def _lst(self, s: float) -> float:
        return sum(w * r / (r + s) for w, r in zip(self.weights, self.rates)
                   if w > 0)

    def cramer_abscissa(self) -> float:
        return min(r for w, r in zip(self.weights, self.rates) if w > 0)

    def _cdf(self, x):
        val = np.zeros_like(x)
        for w, r in zip(self.weights, self.rates):
            val += w * -np.expm1(-r * x)
        return val

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
        # the bits of rng.exponential(scales[idx]), without its per-draw
        # scale array
        return scales[idx] * rng.standard_exponential(size)


@dataclass(frozen=True)
class Uniform(ServiceDistribution):
    lo: float
    hi: float
    kind = "uniform"
    spec_fields = (("lo", float), ("hi", float))

    def _validate(self):
        _require(self.lo > 0, f"uniform lo must be > 0, got {self.lo}")
        _require(self.hi > self.lo,
                 f"uniform needs lo < hi, got lo={self.lo}, hi={self.hi}")

    def _moments(self):
        # sums: a difference of powers over hi - lo cancels when hi ~ lo
        yield (self.lo + self.hi) / 2
        yield (self.lo * self.lo + self.lo * self.hi + self.hi * self.hi) / 3

    def _lst(self, s: float) -> float:
        x = s * (self.hi - self.lo)
        if x == 0.0:
            # s == 0, or s so small that s * width underflows: the ratio
            # -expm1(-x) / x is 1 to double precision
            return math.exp(-s * self.lo)
        # expm1 keeps the ratio stable for s near 0
        return math.exp(-s * self.lo) * -math.expm1(-x) / x

    def cramer_abscissa(self) -> float:
        return math.inf

    def _cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def sample(self, rng, size=None):
        return rng.uniform(self.lo, self.hi, size=size)


def _number(value) -> str:
    """An int's digits; else ``:g``'s six digits if they parse back to
    ``value``, else its repr."""
    if isinstance(value, int):
        return str(value)
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


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
    laws = {law.kind: law for law in (Exponential, Deterministic, Erlang,
                                      HyperExponential, Uniform)}
    if kind not in laws:
        raise DistributionSpecError(
            f"unknown distribution kind {kind!r} (expected {', '.join(laws)})")
    given = {}
    for part in body.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise DistributionSpecError(f"bad field {part!r} in spec {spec!r}")
        given[key.strip()] = value.strip()
    try:
        values = [parse(given.pop(name)) for name, parse in laws[kind].spec_fields]
    except KeyError as exc:
        raise DistributionSpecError(f"spec {spec!r} is missing field {exc}") from None
    except ValueError as exc:
        raise DistributionSpecError(
            f"bad numeric value in spec {spec!r}: {exc}") from None
    if given:
        raise DistributionSpecError(
            f"unexpected field(s) {sorted(given)} in spec {spec!r}")
    return laws[kind](*values)
