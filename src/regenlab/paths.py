"""Cycle, path and counting-process primitives.

A cumulative process is represented as a concatenation of i.i.d. regeneration
cycles.  Each cycle records its duration ``tau``, its total increment ``xi``
(a length-``d`` vector) and the trajectory inside the cycle as an ordered
event list.  Two accrual schemes are supported:

* ``piecewise-constant`` -- the path jumps to each event value and holds;
* ``piecewise-linear``   -- the path interpolates linearly between events.

Both schemes attain their within-cycle supremum at event points, so cycle
maxima are exact.  The last event of every cycle sits at offset ``tau`` with
value ``xi``, which makes path evaluation at renewal times reproduce the
prefix sums of the ``xi`` exactly.

There is no per-cycle object: all events live in one flat (CSR) pair of
arrays sliced by ``cycle_event_ptr``, and samplers hand their cycle-relative
events to :meth:`RegenerativePath.from_cycle_events`, which checks the cycle
invariants for all cycles at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PIECEWISE_CONSTANT = "piecewise-constant"
PIECEWISE_LINEAR = "piecewise-linear"
_INTERPOLATIONS = (PIECEWISE_CONSTANT, PIECEWISE_LINEAR)


class HorizonExceededError(RuntimeError):
    """Evaluation requested beyond the simulated horizon."""


def _as_matrix(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return values


@dataclass
class RegenerativePath:
    """A finite concatenation of cycles with fast vectorized evaluation.

    The event list is stored flattened: ``event_times`` are absolute times,
    ``event_values`` are absolute cumulative values, and
    ``cycle_event_ptr[k]:cycle_event_ptr[k+1]`` slices cycle ``k``'s events.
    """

    tau: np.ndarray
    xi: np.ndarray
    renewal_times: np.ndarray
    event_times: np.ndarray
    event_values: np.ndarray
    cycle_event_ptr: np.ndarray
    interpolation: str = PIECEWISE_CONSTANT
    _prefix_xi: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.tau = np.asarray(self.tau, dtype=float)
        self.xi = _as_matrix(self.xi)
        self.renewal_times = np.asarray(self.renewal_times, dtype=float)
        self.event_times = np.asarray(self.event_times, dtype=float)
        self.event_values = _as_matrix(self.event_values)
        self.cycle_event_ptr = np.asarray(self.cycle_event_ptr, dtype=np.int64)
        if self._prefix_xi is None:
            prefix = np.zeros((self.n_cycles + 1, self.d))
            np.cumsum(self.xi, axis=0, out=prefix[1:])
            self._prefix_xi = prefix
        if self.interpolation not in _INTERPOLATIONS:
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        if self.renewal_times.size != self.n_cycles + 1:
            raise ValueError("renewal_times must have n_cycles + 1 entries")

    # -- structure ---------------------------------------------------------

    @property
    def d(self) -> int:
        return self.xi.shape[1]

    @property
    def n_cycles(self) -> int:
        return self.tau.size

    @property
    def horizon(self) -> float:
        return float(self.renewal_times[-1])

    @property
    def prefix_xi(self) -> np.ndarray:
        """Cumulative increments at renewal times, shape (n_cycles + 1, d)."""
        return self._prefix_xi

    @classmethod
    def from_cycle_events(cls, tau: np.ndarray, xi: np.ndarray,
                          offsets: np.ndarray, values: np.ndarray,
                          cycle_event_ptr: np.ndarray,
                          interpolation: str) -> "RegenerativePath":
        """Path from cycle-relative events in flat (CSR) form.

        ``offsets[ptr[k]:ptr[k+1]]`` are cycle ``k``'s event times relative to
        its start, strictly increasing in (0, tau[k]] and ending at tau[k];
        ``values`` (n_events, d) are the matching cumulative increments
        relative to the cycle start, ending at xi[k].  Raises ValueError when
        any cycle breaks these invariants.
        """
        tau = np.asarray(tau, dtype=float)
        xi = _as_matrix(xi)
        offsets = np.asarray(offsets, dtype=float)
        values = _as_matrix(values)
        ptr = np.asarray(cycle_event_ptr, dtype=np.int64)
        n, d = xi.shape
        if n == 0 or tau.shape != (n,):
            raise ValueError(
                f"need at least one cycle with one duration each, got "
                f"{tau.shape} durations for {n} increments")
        if not np.all(np.isfinite(tau) & (tau > 0)):
            raise ValueError("cycle durations must be positive and finite")
        if interpolation not in _INTERPOLATIONS:
            raise ValueError(f"unknown interpolation {interpolation!r}")
        counts = np.diff(ptr)
        if ptr.shape != (n + 1,) or ptr[0] != 0 or np.any(counts < 1):
            raise ValueError("every cycle needs at least one event (its endpoint)")
        if offsets.shape != (ptr[-1],) or values.shape != (ptr[-1], d):
            raise ValueError(
                f"{offsets.shape} offsets and {values.shape} event values do "
                f"not match {ptr[-1]} events in dimension {d}")
        first, last = ptr[:-1], ptr[1:] - 1
        steps = np.diff(offsets)
        steps[last[:-1]] = 1.0  # cycle boundaries are not within-cycle steps
        if not (np.all(steps > 0) and np.all(offsets[first] > 0)):
            raise ValueError("event offsets must be strictly increasing within (0, tau]")
        if np.any(np.abs(offsets[last] - tau) > 1e-9 * np.maximum(1.0, tau)):
            raise ValueError("last event offset of each cycle must equal its tau")
        vscale = 1.0 + np.max(np.abs(xi), axis=1)
        if np.any(np.max(np.abs(values[last] - xi), axis=1) > 1e-9 * vscale):
            raise ValueError("last event value must equal the cycle increment xi")
        renewal = np.concatenate([[0.0], np.cumsum(tau)])
        prefix = np.concatenate([np.zeros((1, d)), np.cumsum(xi, axis=0)])
        return cls(tau=tau, xi=xi, renewal_times=renewal,
                   event_times=np.repeat(renewal[:-1], counts) + offsets,
                   event_values=np.repeat(prefix[:-1], counts, axis=0) + values,
                   cycle_event_ptr=ptr, interpolation=interpolation,
                   _prefix_xi=prefix)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, u: np.ndarray, side: str = "right") -> np.ndarray:
        """Path value S(u) for an array of times, shape (len(u), d).

        Exact (bitwise) at event times; between events the value follows the
        accrual scheme.  ``side="left"`` gives the left limits S(u-), which
        differ from S(u) only at the jumps of a piecewise-constant path.
        Raises HorizonExceededError past the last renewal.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.size and (u.min() < 0 or u.max() > self.horizon):
            raise HorizonExceededError(
                f"evaluation times must lie in [0, {self.horizon}]")
        if self.interpolation == PIECEWISE_CONSTANT:
            idx = np.searchsorted(self.event_times, u, side=side)
            padded = np.concatenate([np.zeros((1, self.d)), self.event_values])
            return padded[idx]
        out = np.empty((u.size, self.d))
        xs = np.concatenate([[0.0], self.event_times])
        for j in range(self.d):
            ys = np.concatenate([[0.0], self.event_values[:, j]])
            out[:, j] = np.interp(u, xs, ys)
        return out

    def renewal_counts(self, t: np.ndarray, side: str = "right") -> np.ndarray:
        """m(t) = number of completed cycles by each time in ``t``;
        ``side="left"`` gives the left limits m(t-)."""
        t = np.asarray(t, dtype=float)
        return np.searchsorted(self.renewal_times[1:], t, side=side)

    def eta(self) -> np.ndarray:
        """Per-cycle trajectory maxima (max-norm), shape (n_cycles,)."""
        rel = np.abs(self.event_values - np.repeat(
            self._prefix_xi[:-1], np.diff(self.cycle_event_ptr), axis=0))
        per_event = rel.max(axis=1)
        return np.maximum.reduceat(per_event, self.cycle_event_ptr[:-1])


@dataclass(frozen=True)
class CountingPath:
    """A unit-jump counting process given by its sorted jump times."""

    jump_times: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "jump_times",
                           np.asarray(self.jump_times, dtype=float))
        if self.jump_times.ndim != 1:
            raise ValueError("jump_times must be one-dimensional")
        if self.jump_times.size:
            if self.jump_times[0] < 0 or np.any(np.diff(self.jump_times) < 0):
                raise ValueError("jump_times must be sorted and nonnegative")

    @property
    def n_jumps(self) -> int:
        return self.jump_times.size


def invert_counting(counting: CountingPath, level: float) -> float:
    """First passage time of the counting process to ``level``.

    Returns the time of the ceil(level)-th jump for level > 0, and 0.0 for
    level == 0.  Raises HorizonExceededError when the process never reaches
    the level within its recorded jumps.
    """
    level = float(level)
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level == 0:
        return 0.0
    k = int(np.ceil(level))
    if k > counting.n_jumps:
        raise HorizonExceededError(
            f"level {level} needs jump #{k} but only {counting.n_jumps} recorded")
    return float(counting.jump_times[k - 1])

