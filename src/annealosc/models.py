"""Reduced-basis Hamiltonian paths for symmetric-qubit annealing and adiabatic search.

Each model is a pair of endpoint matrices (h0, h1) plus an annealing schedule
g(s), with H(s) = (1 - g(s)) h0 + g(s) h1, and every model is a symmetric
tridiagonal pair.  The symmetric qubit models live in the Hamming-weight basis
(dimension n+1), where the transverse field couples only neighbouring weights;
the search model lives in the 2-dimensional invariant subspace spanned by the
uniform superpositions of target and non-target basis states.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

# the fields each model kind reads besides kind; from_dict rejects the others
_KIND_FIELDS = {"barrier": ("n", "mu", "alpha", "beta"), "cubic": ("n",),
                "nobarrier": ("n", "mu"), "grover": ("big_n", "big_m")}
MODEL_KINDS = tuple(_KIND_FIELDS)


def _check_int(name: str, value) -> None:
    """Raise ValueError unless value is an int (a float or bool would be truncated)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value, positive: bool = False) -> None:
    """Raise ValueError unless value is a real number within the float range,
    so finite, and above 0 if positive.  A bool (a JSON true, which arithmetic
    reads as 1), a str or None is no number; NaN and an int too large for a
    float fall outside the range."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max or (positive and not value > 0)):
        rule = "positive and finite" if positive else "a finite number"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Parameters selecting one of the supported annealing problems.

    kind: one of "barrier", "cubic", "nobarrier", "grover".
    n: qubit count (qubit models).
    mu: slope of the linear Hamming-weight cost (barrier / nobarrier).
    alpha, beta: barrier width / height exponents (width ~ n**alpha,
        peak height = n**beta).
    big_n, big_m: search-space size and target count (grover).
    `from_dict` takes only the fields the kind reads (_KIND_FIELDS).
    """

    kind: str
    n: int | None = None
    mu: float = 1.0
    alpha: float | None = None
    beta: float | None = None
    big_n: int | None = None
    big_m: int | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        for name in ("n", "big_n", "big_m"):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name))
        _check_real("mu", self.mu, positive=True)
        for name in ("alpha", "beta"):  # set for a barrier, optional for the rest
            if self.kind == "barrier" or getattr(self, name) is not None:
                _check_real(name, getattr(self, name))
        if self.kind == "grover":
            if self.big_n is None or self.big_m is None:
                raise ValueError("grover model requires big_n and big_m")
            if not 1 <= self.big_m < self.big_n:
                raise ValueError(f"need 1 <= M < N, got M={self.big_m}, N={self.big_n}")
        else:
            if self.n is None or self.n < 1:
                raise ValueError("qubit models require n >= 1")
            if self.kind == "barrier":
                try:
                    math.pow(self.n, self.beta)
                except OverflowError:
                    raise ValueError(f"beta must give a finite peak height n**beta, "
                                     f"got {self.beta} with n = {self.n}") from None

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown ModelSpec fields: {sorted(extra)}")
        kind = d.get("kind")
        if kind in MODEL_KINDS and (unread := set(d) - {"kind", *_KIND_FIELDS[kind]}):
            raise ValueError(f"a {kind} model reads no fields {sorted(unread)}")
        return cls(**d)


@dataclass(frozen=True)
class ReducedHamiltonian:
    """H(s) = (1 - g(s)) h0 + g(s) h1, h0 and h1 a symmetric tridiagonal pair."""

    h0: np.ndarray
    h1: np.ndarray
    schedule: Callable[[float], float]
    schedule_deriv: Callable[[float], float]
    label: str = ""

    def __post_init__(self):
        for m in (self.h0, self.h1):
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"h0 {self.h0.shape} and h1 {self.h1.shape} must be square "
                                 f"matrices of one shape")
            if not np.array_equal(m, m.T) or np.triu(m, 2).any():
                raise ValueError("endpoint matrices must be symmetric and tridiagonal")
            m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]


def barrier_profile(n: int, alpha: float, beta: float) -> np.ndarray:
    """Binomial bump b(k), k = 0..n: width ceil(n**alpha) rounded up to even,
    centered at ceil(n/4), normalized to peak height n**beta."""
    width = math.ceil(n**alpha)
    width += width % 2
    center = math.ceil(n / 4)
    if center - width // 2 < 0 or center + width // 2 > n:
        raise ValueError(
            f"barrier support [{center - width // 2}, {center + width // 2}] "
            f"exceeds [0, {n}]"
        )
    peak = math.comb(width, width // 2)
    b = np.zeros(n + 1)
    for k in range(center - width // 2, center + width // 2 + 1):
        b[k] = n**beta * (math.comb(width, k - center + width // 2) / peak)
    return b


def _identity_schedule(s):
    return s


def _identity_schedule_deriv(s):
    return 1.0 if np.isscalar(s) else np.ones_like(np.asarray(s, float))


def grover_schedule(big_n: int, big_m: int):
    """Optimal search schedule g(s) and its derivative g'(s).

    g(s) = (1/2) (1 - tan((1-2s) theta) / sqrt(q)) with q = (N-M)/M and
    theta = arctan(sqrt(q)); g is odd about s = 1/2 and slows down where the
    gap is smallest.
    """
    q = (big_n - big_m) / big_m
    sq = math.sqrt(q)
    theta = math.atan(sq)

    def g(s):
        return 0.5 * (1.0 - np.tan((1.0 - 2.0 * np.asarray(s, float)) * theta) / sq)

    def g_deriv(s):
        return theta / (np.cos((1.0 - 2.0 * np.asarray(s, float)) * theta) ** 2 * sq)

    return g, g_deriv


def build_model(spec: ModelSpec) -> ReducedHamiltonian:
    """The Hamiltonian path of spec.  Qubit models share g(s) = s and the
    transverse field h0 = (1/2) sum_i sigma_x^(i) in the Hamming-weight basis
    k = 0..n; h1 = diag f(k): mu*k, mu*k + b(k) (barrier) or n(2k/n - 1)^3 (cubic)."""
    if spec.kind == "grover":
        big_n, big_m = spec.big_n, spec.big_m
        u = np.array([math.sqrt(big_m / big_n), math.sqrt((big_n - big_m) / big_n)])
        g, g_deriv = grover_schedule(big_n, big_m)
        return ReducedHamiltonian(
            h0=-np.outer(u, u), h1=np.diag([0.0, 1.0]),
            schedule=g, schedule_deriv=g_deriv, label=f"grover(N={big_n},M={big_m})")
    n = spec.n
    k = np.arange(n + 1, dtype=float)
    if spec.kind == "cubic":
        f, label = n * (2 * k / n - 1.0) ** 3, f"cubic(n={n})"
    elif spec.kind == "nobarrier":
        f, label = spec.mu * k, f"nobarrier(n={n},mu={spec.mu})"
    else:
        f = spec.mu * k + barrier_profile(n, spec.alpha, spec.beta)
        label = f"barrier(n={n},mu={spec.mu},a={spec.alpha},b={spec.beta})"
    off = np.sqrt(k[1:] * (n - k[:-1])) / 2.0
    return ReducedHamiltonian(
        h0=np.diag(off, 1) + np.diag(off, -1), h1=np.diag(f),
        schedule=_identity_schedule, schedule_deriv=_identity_schedule_deriv, label=label)


def _check_s(s) -> None:
    """Raise ValueError unless every s lies in [0, 1] (NaN does not)."""
    s = np.asarray(s, float)
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError(f"s must lie in [0, 1], got {s}")


def hamiltonian_at(model: ReducedHamiltonian, s: float) -> np.ndarray:
    """H(s) = (1 - g(s)) h0 + g(s) h1 for s in [0, 1]."""
    _check_s(s)
    g = model.schedule(s)
    return (1.0 - g) * model.h0 + g * model.h1


def tridiagonal_bands(model: ReducedHamiltonian, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of H(s)."""
    h = hamiltonian_at(model, s)
    return np.diag(h), np.diag(h, 1)
