"""Lifetime assignment policies (paper Section II-B, Examples 3-5).

A lifetime policy decides, for each arriving interaction, how many time steps
the corresponding edge survives in the TDN.  The policy is the single knob
that configures the TDN model:

* :class:`InfiniteLifetime` — addition-only networks (ADNs, Example 3);
* :class:`ConstantLifetime` — sliding-window networks of width ``W``
  (Example 4);
* :class:`GeometricLifetime` — probabilistic time-decaying networks where
  each existing edge is forgotten with probability ``p`` per step
  (Example 5); this is the assignment used throughout the paper's
  experiments (Section V-B), truncated at the maximum lifetime ``L``;
* :class:`UniformLifetime`, :class:`PowerLawLifetime` — additional decay
  shapes mentioned in the paper's remarks on BASICREDUCTION efficiency;
* :class:`FunctionLifetime` — arbitrary user-chosen assignment, matching the
  paper's statement that ``l_tau(e)`` is a user-chosen input.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Optional

from repro.errors import check_fraction, check_positive, check_positive_int
from repro.tdn.interaction import Interaction
from repro.utils.rng import SeedLike, make_rng


class LifetimePolicy(ABC):
    """Assigns a lifetime to each arriving interaction.

    Subclasses implement :meth:`draw`; :meth:`assign` wraps it to produce a
    new :class:`Interaction` carrying the drawn lifetime.  Policies with a
    finite maximum expose it via :attr:`max_lifetime` (the paper's ``L``),
    which BASICREDUCTION uses to size its instance array.
    """

    #: Upper bound ``L`` on any drawn lifetime, or ``None`` when unbounded.
    max_lifetime: Optional[int] = None

    @abstractmethod
    def draw(self, interaction: Interaction) -> Optional[int]:
        """Return a lifetime (>= 1) for ``interaction``, or ``None`` = infinite."""

    def assign(self, interaction: Interaction) -> Interaction:
        """Return a copy of ``interaction`` carrying a freshly drawn lifetime."""
        return interaction.with_lifetime(self.draw(interaction))


class InfiniteLifetime(LifetimePolicy):
    """Every edge lives forever: the addition-only network of Example 3."""

    max_lifetime = None

    def draw(self, interaction: Interaction) -> Optional[int]:
        return None

    def __repr__(self) -> str:
        return "InfiniteLifetime()"


class ConstantLifetime(LifetimePolicy):
    """Every edge lives exactly ``window`` steps: Example 4's sliding window."""

    def __init__(self, window: int) -> None:
        self.window = check_positive_int(window, "window")
        self.max_lifetime = self.window

    def draw(self, interaction: Interaction) -> int:
        return self.window

    def __repr__(self) -> str:
        return f"ConstantLifetime(window={self.window})"


class GeometricLifetime(LifetimePolicy):
    """Lifetimes sampled from ``Pr(l) ∝ (1 - p)^(l-1) p`` truncated at ``L``.

    Equivalent to deleting each existing edge independently with probability
    ``p`` at every step (paper Example 5).  The paper's experiments use this
    policy with ``p`` between 0.001 and 0.008 and ``L`` between 1 000 and
    100 000.

    Sampling uses the inverse-CDF of the truncated geometric so that a single
    uniform draw produces the lifetime; this keeps streams with millions of
    interactions cheap to generate.
    """

    def __init__(
        self, p: float, max_lifetime: Optional[int] = None, *, seed: SeedLike = None
    ) -> None:
        self.p = check_fraction(p, "p")
        if max_lifetime is not None:
            max_lifetime = check_positive_int(max_lifetime, "max_lifetime")
        self.max_lifetime = max_lifetime
        self._rng = make_rng(seed)
        # Precompute log(1 - p) once; the inverse CDF is
        # l = ceil(log(1 - u * mass) / log(1 - p)) with mass the truncated
        # total probability.
        self._log_q = math.log1p(-self.p)
        if max_lifetime is None:
            self._trunc_mass = 1.0
        else:
            # Pr(l <= L) = 1 - (1 - p)^L
            self._trunc_mass = -math.expm1(max_lifetime * self._log_q)

    def draw(self, interaction: Interaction) -> int:
        u = self._rng.random()
        # Inverse CDF of the (truncated) geometric distribution.
        value = math.ceil(math.log1p(-u * self._trunc_mass) / self._log_q)
        value = max(1, value)
        if self.max_lifetime is not None:
            value = min(value, self.max_lifetime)
        return value

    def __repr__(self) -> str:
        return f"GeometricLifetime(p={self.p}, max_lifetime={self.max_lifetime})"


class UniformLifetime(LifetimePolicy):
    """Lifetimes drawn uniformly from ``[low, high]`` (inclusive)."""

    def __init__(self, low: int, high: int, *, seed: SeedLike = None) -> None:
        self.low = check_positive_int(low, "low")
        self.high = check_positive_int(high, "high")
        if self.high < self.low:
            raise ValueError(f"high must be >= low, got [{low}, {high}]")
        self.max_lifetime = self.high
        self._rng = make_rng(seed)

    def draw(self, interaction: Interaction) -> int:
        return self._rng.randint(self.low, self.high)

    def __repr__(self) -> str:
        return f"UniformLifetime(low={self.low}, high={self.high})"


class PowerLawLifetime(LifetimePolicy):
    """Lifetimes with ``Pr(l) ∝ l^(-alpha)`` on ``{1, ..., L}``.

    The paper remarks that power-law-distributed lifetimes keep
    BASICREDUCTION nearly as efficient as SIEVEADN because most edges fan out
    to only a few instances; this policy exists to exercise that regime in
    the ablation benchmarks.
    """

    def __init__(
        self, alpha: float, max_lifetime: int, *, seed: SeedLike = None
    ) -> None:
        self.alpha = check_positive(alpha, "alpha")
        self.max_lifetime = check_positive_int(max_lifetime, "max_lifetime")
        self._rng = make_rng(seed)
        # Build the CDF once; L is at most ~100K in the paper's experiments
        # so a table is fine and makes draws O(log L).
        weights = [n ** -self.alpha for n in range(1, self.max_lifetime + 1)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against floating-point shortfall

    def draw(self, interaction: Interaction) -> int:
        u = self._rng.random()
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo + 1

    def __repr__(self) -> str:
        return f"PowerLawLifetime(alpha={self.alpha}, max_lifetime={self.max_lifetime})"


class FunctionLifetime(LifetimePolicy):
    """Delegates lifetime assignment to a user-supplied callable.

    The callable receives the :class:`Interaction` and must return an ``int``
    (>= 1) or ``None`` for infinite.  This realizes the paper's statement
    that the lifetime assignment ``l_tau(e)`` is a user-chosen input to the
    framework.
    """

    def __init__(
        self,
        func: Callable[[Interaction], Optional[int]],
        max_lifetime: Optional[int] = None,
    ) -> None:
        if not callable(func):
            raise TypeError("func must be callable")
        self._func = func
        if max_lifetime is not None:
            max_lifetime = check_positive_int(max_lifetime, "max_lifetime")
        self.max_lifetime = max_lifetime

    def draw(self, interaction: Interaction) -> Optional[int]:
        value = self._func(interaction)
        if value is not None and value < 1:
            raise ValueError(
                f"lifetime function returned {value}; must be >= 1 or None"
            )
        if value is not None and self.max_lifetime is not None:
            value = min(value, self.max_lifetime)
        return value

    def __repr__(self) -> str:
        return f"FunctionLifetime(max_lifetime={self.max_lifetime})"
