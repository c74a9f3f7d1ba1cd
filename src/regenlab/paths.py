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
arrays sliced by ``cycle_event_ptr``, held by the frozen record
:class:`RegenerativePath`.  This module alone lays the arrays out, through
two constructors: samplers hand their cycle-relative events to
:meth:`RegenerativePath.from_cycle_events`, which checks the cycle
invariants for all cycles at once, and families with one event per cycle
hand their durations and increments to :func:`single_event_path`.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class RegenerativePath:
    """A finite concatenation of cycles with fast vectorized evaluation.

    The event list is stored flattened: ``event_times`` are absolute times,
    ``event_values`` are absolute cumulative values, and
    ``cycle_event_ptr[k]:cycle_event_ptr[k+1]`` slices cycle ``k``'s events.
    ``prefix_xi`` (n_cycles + 1, d) holds the cumulative increments at the
    renewal times.  The record is built by its two constructors,
    :meth:`from_cycle_events` and :func:`single_event_path`, and holds
    their arrays as they are.
    """

    tau: np.ndarray
    xi: np.ndarray
    renewal_times: np.ndarray
    event_times: np.ndarray
    event_values: np.ndarray
    cycle_event_ptr: np.ndarray
    prefix_xi: np.ndarray
    interpolation: str

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
                   cycle_event_ptr=ptr, prefix_xi=prefix,
                   interpolation=interpolation)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, u: np.ndarray, side: str = "right") -> np.ndarray:
        """Path value S(u) for an array of times in any order, shape
        (len(u), d).

        S(0) = 0.  Where several events share a time (cycles too short to
        move the clock), the last one's value is the path's there.  A
        piecewise-constant path holds each event value until the next event
        and is 0 before the first; a piecewise-linear one interpolates
        between events and follows the line from the origin to the first
        event before it.  Exact (bitwise) at event times.  ``side="left"``
        gives the left limits S(u-), which differ from S(u) only at the
        jumps of a piecewise-constant path: at an event time, the value
        before the first event there.  The events are read in place, with
        no padded copy.  Raises ValueError on a NaN time and
        HorizonExceededError past the last renewal.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        low = u.min(initial=np.inf)
        if np.isnan(low):
            raise ValueError("evaluation times must not be NaN")
        if low < 0 or u.max(initial=0.0) > self.horizon:
            raise HorizonExceededError(
                f"evaluation times must lie in [0, {self.horizon}]")
        times, values = self.event_times, self.event_values
        if self.interpolation == PIECEWISE_CONSTANT:
            idx = np.searchsorted(times, u, side=side)
            out = values[idx - 1]
            if low <= times[0]:
                out[idx == 0] = 0.0
            return out
        out = np.empty((u.size, self.d))
        for j in range(self.d):
            out[:, j] = np.interp(u, times, values[:, j])
        if low < times[0]:
            head = u < times[0]
            before = u[head]
            for j in range(self.d):
                out[head, j] = np.interp(before, (0.0, times[0]),
                                         (0.0, values[0, j]))
        return out

    def event_rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """S and its left limits at the events ``lo .. hi-1``, each of shape
        (hi - lo, d): what :meth:`evaluate` gives at those event times, with
        ``side="right"`` and ``side="left"``, bit for bit.

        Without ties, S at event i is its own value, and the left limit is
        event i-1's value (0 before the first) on a piecewise-constant path
        and S itself on a continuous piecewise-linear one; both are read by
        index, S as a read-only view.  When an event of the block shares its
        time with a neighbour, the rules for tied events are
        :meth:`evaluate`'s, and the block goes through it.
        """
        times = self.event_times
        near = times[max(lo - 1, 0):hi + 1]
        if not np.all(near[1:] > near[:-1]):   # a tie
            at = times[lo:hi]
            return self.evaluate(at), self.evaluate(at, side="left")
        right = self.event_values[lo:hi]
        right.flags.writeable = False
        if self.interpolation == PIECEWISE_LINEAR:
            return right, right
        if lo > 0:
            left = self.event_values[lo - 1:hi - 1]
            left.flags.writeable = False
            return right, left
        left = np.zeros_like(right)
        left[1:] = right[:-1]
        return right, left

    def renewal_counts(self, t: np.ndarray, side: str = "right") -> np.ndarray:
        """m(t) = number of completed cycles by each time in ``t``;
        ``side="left"`` gives the left limits m(t-)."""
        t = np.asarray(t, dtype=float)
        return np.searchsorted(self.renewal_times[1:], t, side=side)

    def eta(self) -> np.ndarray:
        """Per-cycle trajectory maxima (max-norm), shape (n_cycles,)."""
        rel = np.abs(self.event_values - np.repeat(
            self.prefix_xi[:-1], np.diff(self.cycle_event_ptr), axis=0))
        per_event = rel.max(axis=1)
        return np.maximum.reduceat(per_event, self.cycle_event_ptr[:-1])


def single_event_path(tau: np.ndarray, xi: np.ndarray,
                      interpolation: str) -> RegenerativePath:
    """Path for families whose cycles carry a single event at the endpoint:
    the events are the renewals, with values the prefix sums of ``xi``.
    Raises ValueError unless there are as many durations as increments."""
    if interpolation not in _INTERPOLATIONS:
        raise ValueError(f"unknown interpolation {interpolation!r}")
    tau, xi = np.asarray(tau, dtype=float), _as_matrix(xi)
    n, d = xi.shape
    if tau.shape != (n,):
        raise ValueError(
            f"{tau.size} durations for {n} increments: need one per cycle")
    renewal = np.empty(n + 1)
    renewal[0] = 0.0
    np.cumsum(tau, out=renewal[1:])
    prefix = np.zeros((n + 1, d))
    np.cumsum(xi, axis=0, out=prefix[1:])
    return RegenerativePath(
        tau=tau, xi=xi, renewal_times=renewal, event_times=renewal[1:],
        event_values=prefix[1:], cycle_event_ptr=np.arange(n + 1),
        prefix_xi=prefix, interpolation=interpolation)


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

