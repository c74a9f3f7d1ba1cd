"""Catalog of regenerative process models.

Five families, each producing i.i.d. cycles ``(tau, xi, trajectory)``:

* ``iid-sums``          -- constant cycle duration, Gaussian increments; the
                           degenerate ``Var(tau) = 0`` case that the rest of
                           the pipeline must reject.
* ``gamma-gaussian``    -- Gamma durations, increments linear in the duration
                           plus Gaussian noise; the family whose own
                           innovations can drive the coupling exactly.
* ``pareto-cycle``      -- heavy-tailed durations with tunable moment order;
                           the increment equals the duration.
* ``mm1-busy-cycle``    -- idle period plus M/M/1 busy period; the increment
                           counts departures, giving a genuine intra-cycle
                           trajectory; closed-form moments from the
                           busy period's departure count.
* ``compound-jump``     -- exponential durations with Gaussian jumps at
                           Poisson times, dimension up to 3.

Every family declares ``p_max``, the supremum of finite moment orders of the
cycle duration and the cycle maximum; configurations requesting ``p >= p_max``
are rejected by the config layer.

All samplers are pure functions of an :class:`~regenlab.rng.RngStream`
position, so parallel replications on disjoint stream indices are exactly
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import gammainccinv, gammaincinv, hyp2f1, ndtr

from .greeks import DegenerateTauError, Greeks, matrix_sqrt_psd
from .paths import PIECEWISE_CONSTANT, PIECEWISE_LINEAR, RegenerativePath
from .rng import RngStream

SHARED_INNOVATIONS = "shared-innovations"
INDEPENDENT = "independent"
COUPLING_MODES = (SHARED_INNOVATIONS, INDEPENDENT)

FAMILIES = ("iid-sums", "gamma-gaussian", "pareto-cycle", "mm1-busy-cycle",
            "compound-jump")


class InvalidParameterError(ValueError):
    """Nonsensical family parameters (nonpositive rate, bad dimension, ...)."""


class ModeUnsupportedHookError(NotImplementedError):
    """A coupling hook was called on a family that does not provide it."""


@dataclass(frozen=True)
class CycleBatch:
    """Vectorized cycle statistics: durations, increments, trajectory maxima."""

    tau: np.ndarray   # (n,)
    xi: np.ndarray    # (n, d)
    eta: np.ndarray   # (n,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim == 1:
            xi = xi[:, None]
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))

    @property
    def d(self) -> int:
        return self.xi.shape[1]


def single_event_path(tau: np.ndarray, xi: np.ndarray,
                       interpolation: str) -> RegenerativePath:
    """Path for families whose cycles carry a single event at the endpoint."""
    xi = xi if xi.ndim == 2 else xi[:, None]
    n, d = xi.shape
    renewal = np.concatenate([[0.0], np.cumsum(tau)])
    prefix = np.zeros((n + 1, d))
    np.cumsum(xi, axis=0, out=prefix[1:])
    return RegenerativePath(
        tau=tau, xi=xi, renewal_times=renewal, event_times=renewal[1:],
        event_values=prefix[1:], cycle_event_ptr=np.arange(n + 1),
        interpolation=interpolation, _prefix_xi=prefix)


class Model:
    """Common interface of the model families.

    Subclasses set ``family``, ``interpolation`` and ``coupling_modes`` and
    implement the sampling and moment methods.  ``sample_cycles`` returns only
    the per-cycle statistics (fast, vectorized); ``sample_path`` materializes
    the full trajectory for path-level experiments.
    """

    family: ClassVar[str]
    interpolation: ClassVar[str]
    coupling_modes: ClassVar[tuple[str, ...]] = (INDEPENDENT,)

    @property
    def d(self) -> int:
        raise NotImplementedError

    @property
    def p_max(self) -> float:
        raise NotImplementedError

    def sample_cycles(self, n: int, rng: RngStream) -> CycleBatch:
        raise NotImplementedError

    def sample_path(self, n: int, rng: RngStream) -> RegenerativePath:
        """One event per cycle at its end; families with an intra-cycle
        trajectory override this."""
        batch = self.sample_cycles(n, rng)
        return single_event_path(batch.tau, batch.xi, self.interpolation)

    def true_greeks(self, p: float) -> Greeks:
        """Exact parameters from closed-form cycle moments.

        Raises DegenerateTauError when the durations carry no variance.
        """
        raise NotImplementedError

    def laplace_tau(self, b: float) -> float:
        """E exp(-b tau) for one cycle duration."""
        raise NotImplementedError

    def eta_moment(self, p: float) -> float | None:
        """Closed-form E eta^p when available, else None (use the MC estimate)."""
        return None

    def tau_from_gaussian(self, g: np.ndarray) -> np.ndarray:
        """Duration from a standard normal variate via the inverse CDF.

        Only the families supporting ``shared-innovations`` implement it.
        """
        raise ModeUnsupportedHookError(
            f"{self.family} has no duration quantile coupling")

    def increments_from(self, tau: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Cycle increments given durations and standard normal innovations.

        Only the families supporting ``shared-innovations`` implement it.
        """
        raise ModeUnsupportedHookError(
            f"{self.family} has no increment coupling hook")

    def _check_p(self, p: float) -> None:
        if not p > 2:
            raise InvalidParameterError(f"moment order p must exceed 2, got {p}")
        if p >= self.p_max:
            raise InvalidParameterError(
                f"p={p:g} >= p_max={self.p_max:g} for {self.family}")


@dataclass(frozen=True, eq=False)
class IidSumModel(Model):
    """Constant cycle duration, i.i.d. Gaussian increments (a random walk).

    The degenerate case: Var(tau) = 0, so the coupling pipeline's parameters
    (which divide by Var(tau)) do not exist and true_greeks raises.
    """

    family: ClassVar[str] = "iid-sums"
    interpolation: ClassVar[str] = PIECEWISE_CONSTANT
    coupling_modes: ClassVar[tuple[str, ...]] = ()

    xi_mean: np.ndarray = 0.0
    xi_cov: np.ndarray | None = None
    tau_const: float = 1.0
    dim: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidParameterError(f"dimension must be >= 1, got {self.dim}")
        if not self.tau_const > 0:
            raise InvalidParameterError(
                f"cycle duration must be positive, got {self.tau_const}")
        mean = np.broadcast_to(np.asarray(self.xi_mean, dtype=float),
                               (self.dim,)).copy()
        cov = np.eye(self.dim) if self.xi_cov is None \
            else np.asarray(self.xi_cov, dtype=float)
        object.__setattr__(self, "xi_mean", mean)
        object.__setattr__(self, "xi_cov", cov)
        object.__setattr__(self, "_xi_root", matrix_sqrt_psd(cov))

    @property
    def d(self) -> int:
        return self.dim

    @property
    def p_max(self) -> float:
        return math.inf

    def sample_cycles(self, n: int, rng: RngStream) -> CycleBatch:
        g = rng.generator().standard_normal((n, self.dim))
        xi = self.xi_mean + g @ self._xi_root
        tau = np.full(n, float(self.tau_const))
        return CycleBatch(tau=tau, xi=xi, eta=np.max(np.abs(xi), axis=1))

    def true_greeks(self, p: float) -> Greeks:
        self._check_p(p)
        raise DegenerateTauError(
            "iid-sums has Var(tau) = 0; the pipeline requires Var(tau) > 0")

    def laplace_tau(self, b: float) -> float:
        return math.exp(-b * self.tau_const)


@dataclass(frozen=True, eq=False)
class GammaGaussianModel(Model):
    """Gamma durations; increments linear in the duration plus Gaussian noise.

    tau ~ Gamma(tau_shape, tau_scale) and

        xi = beta * tau + (kappa - beta) * mu + noise,   noise ~ N(0, noise_cov)

    so the long-run drift is exactly ``kappa`` and the regression coefficient
    of xi on tau is exactly ``beta``.  The noise is generated as
    ``matrix_sqrt_psd(noise_cov) @ g`` with ``g`` standard normal, which is
    what lets the coupling reuse ``g`` as the Wiener driver increment with
    zero per-cycle tracking error.  The increment accrues linearly across the
    cycle.
    """

    family: ClassVar[str] = "gamma-gaussian"
    interpolation: ClassVar[str] = PIECEWISE_LINEAR
    coupling_modes: ClassVar[tuple[str, ...]] = COUPLING_MODES

    tau_shape: float = 2.0
    tau_scale: float = 1.0
    beta: np.ndarray = 0.0
    kappa: np.ndarray = 0.0
    noise_cov: np.ndarray | None = None
    dim: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidParameterError(f"dimension must be >= 1, got {self.dim}")
        if not (self.tau_shape > 0 and self.tau_scale > 0):
            raise InvalidParameterError(
                f"Gamma duration needs positive shape and scale, got "
                f"shape={self.tau_shape}, scale={self.tau_scale}")
        beta = np.broadcast_to(np.asarray(self.beta, dtype=float),
                               (self.dim,)).copy()
        kappa = np.broadcast_to(np.asarray(self.kappa, dtype=float),
                                (self.dim,)).copy()
        cov = np.eye(self.dim) if self.noise_cov is None \
            else np.asarray(self.noise_cov, dtype=float)
        if cov.shape != (self.dim, self.dim):
            raise InvalidParameterError(
                f"noise_cov shape {cov.shape} does not match dimension {self.dim}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "noise_cov", cov)
        object.__setattr__(self, "_noise_root", matrix_sqrt_psd(cov))

    @property
    def d(self) -> int:
        return self.dim

    @property
    def p_max(self) -> float:
        return math.inf

    @property
    def mu(self) -> float:
        return self.tau_shape * self.tau_scale

    @property
    def var_tau(self) -> float:
        return self.tau_shape * self.tau_scale ** 2

    def _xi_from(self, tau: np.ndarray, g: np.ndarray) -> np.ndarray:
        shift = (self.kappa - self.beta) * self.mu
        return np.outer(tau, self.beta) + shift + g @ self._noise_root

    def tau_from_gaussian(self, g: np.ndarray) -> np.ndarray:
        """Duration as an increasing function of a standard normal variate.

        Inverse-CDF transform tau = F^{-1}(Phi(g)), branch-split so both
        tails keep full relative precision.
        """
        g = np.asarray(g, dtype=float)
        out = np.empty_like(g)
        lower = g <= 0
        out[lower] = gammaincinv(self.tau_shape, ndtr(g[lower]))
        out[~lower] = gammainccinv(self.tau_shape, ndtr(-g[~lower]))
        return self.tau_scale * out

    def increments_from(self, tau: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Increments from durations and noise innovations (Gaussian residual,
        so the increment-side coupling is exact)."""
        return self._xi_from(np.asarray(tau, dtype=float),
                             np.asarray(g, dtype=float))

    def sample_cycles(self, n: int, rng: RngStream) -> CycleBatch:
        gen = rng.generator()
        tau = gen.gamma(self.tau_shape, self.tau_scale, size=n)
        xi = self._xi_from(tau, gen.standard_normal((n, self.dim)))
        return CycleBatch(tau=tau, xi=xi, eta=np.max(np.abs(xi), axis=1))

    def true_greeks(self, p: float) -> Greeks:
        self._check_p(p)
        var_tau = self.var_tau
        var_xi = self.noise_cov + np.outer(self.beta, self.beta) * var_tau
        return Greeks.from_moments(
            mu=self.mu, mean_xi=self.kappa * self.mu, var_tau=var_tau,
            var_xi=var_xi, cov_xi_tau=self.beta * var_tau, p=p)

    def laplace_tau(self, b: float) -> float:
        return (1.0 + self.tau_scale * b) ** (-self.tau_shape)


@dataclass(frozen=True, eq=False)
class ParetoCycleModel(Model):
    """Heavy-tailed cycles: tau = 1 + X with X Pareto(tail_index), xi = tau.

    P(tau > 1 + x) = x^(-tail_index) for x >= 1, so tau >= 2 and moments of
    order p exist exactly for p < tail_index.  Because the increment equals
    the duration, the residual and asymptotic covariances vanish exactly.
    """

    family: ClassVar[str] = "pareto-cycle"
    interpolation: ClassVar[str] = PIECEWISE_CONSTANT
    coupling_modes: ClassVar[tuple[str, ...]] = COUPLING_MODES

    tail_index: float = 3.5

    def __post_init__(self) -> None:
        if not self.tail_index > 2:
            raise InvalidParameterError(
                f"tail_index must exceed 2 for finite duration variance, "
                f"got {self.tail_index}")

    @property
    def d(self) -> int:
        return 1

    @property
    def p_max(self) -> float:
        return float(self.tail_index)

    def tau_from_gaussian(self, g: np.ndarray) -> np.ndarray:
        """tau = 1 + Phi(-g)^(-1/tail_index), increasing in g."""
        g = np.asarray(g, dtype=float)
        return 1.0 + ndtr(-g) ** (-1.0 / self.tail_index)

    def increments_from(self, tau: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The increment equals the duration; the noise innovation is unused
        (the residual is degenerate for this family)."""
        del g
        return np.asarray(tau, dtype=float).copy()

    def sample_cycles(self, n: int, rng: RngStream) -> CycleBatch:
        tau = 2.0 + rng.generator().pareto(self.tail_index, size=n)
        return CycleBatch(tau=tau, xi=tau, eta=tau)

    def true_greeks(self, p: float) -> Greeks:
        self._check_p(p)
        th = self.tail_index
        mean_x = th / (th - 1.0)
        var_tau = th / (th - 2.0) - mean_x * mean_x
        var = np.array([[var_tau]])
        return Greeks.from_moments(mu=1.0 + mean_x, mean_xi=1.0 + mean_x,
                                   var_tau=var_tau, var_xi=var,
                                   cov_xi_tau=np.array([var_tau]), p=p)

    def eta_moment(self, p: float) -> float | None:
        if p >= self.tail_index:
            return None
        # E(1+X)^p with X ~ Pareto(th) on [1, inf): s = 1/x turns the
        # integral into th * int_0^1 s^(th-p-1) (1+s)^p ds, Euler's integral
        # of 2F1(-p, th-p; th-p+1; -1) / (th-p).
        th = float(self.tail_index)
        return th / (th - p) * float(hyp2f1(-p, th - p, th - p + 1.0, -1.0))


@dataclass(frozen=True, eq=False)
class MM1BusyCycleModel(Model):
    """Idle period plus M/M/1 busy period; the increment counts departures.

    A cycle starts with the system empty: an Exp(arrival_rate) idle period,
    then a busy period during which events occur at rate
    ``arrival_rate + service_rate`` and each event is an arrival with
    probability ``arrival_rate / (arrival_rate + service_rate)``.  The path
    steps up by one at every departure, so cycles have a genuine intra-cycle
    trajectory and the cycle maximum equals the departure count.

    The cycle moments are closed forms.  The departure count N of a busy
    period has E N = 1/(1 - rho) and Var N = rho (1 + rho) / (1 - rho)^3
    with rho = arrival_rate / service_rate (Takacs 1962; Kleinrock 1975,
    Queueing Systems I, sec. 5.8).  A walk that empties the queue after N
    departures takes 2N - 1 events, so given N the busy period is
    Erlang(2N - 1, arrival_rate + service_rate), which is how both samplers
    build it; the idle period is independent of it.  Conditioning on N gives
    the duration moments and Cov(N, tau), and the drift is exactly the
    arrival rate.
    """

    family: ClassVar[str] = "mm1-busy-cycle"
    interpolation: ClassVar[str] = PIECEWISE_CONSTANT

    arrival_rate: float = 0.5
    service_rate: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.arrival_rate < self.service_rate):
            raise InvalidParameterError(
                f"need 0 < arrival_rate < service_rate for stability, got "
                f"arrival={self.arrival_rate}, service={self.service_rate}")

    @property
    def d(self) -> int:
        return 1

    @property
    def p_max(self) -> float:
        # The busy period has a finite exponential moment, hence all
        # polynomial moments; so does the departure count.
        return math.inf

    def true_greeks(self, p: float) -> Greeks:
        self._check_p(p)
        la = self.arrival_rate
        rho = la / self.service_rate
        rate = la + self.service_rate
        mean_n = 1.0 / (1.0 - rho)
        var_n = rho * (1.0 + rho) / (1.0 - rho) ** 3
        stages = 2.0 * mean_n - 1.0           # E(2N - 1) Erlang stages
        # Var tau = Var idle + E Var(busy | N) + Var E(busy | N)
        var_tau = 1.0 / la ** 2 + stages / rate ** 2 + 4.0 * var_n / rate ** 2
        return Greeks.from_moments(
            mu=1.0 / la + stages / rate, mean_xi=np.array([mean_n]),
            var_tau=var_tau, var_xi=np.array([[var_n]]),
            cov_xi_tau=np.array([2.0 * var_n / rate]), p=p)

    def sample_cycles(self, n: int, rng: RngStream) -> CycleBatch:
        """Vectorized batch: walk all busy periods forward in lockstep rounds.

        Each round advances every still-busy cycle by one event; the queue
        length does a +/-1 random walk from 1 down to 0.  Only the heights
        of the still-busy cycles are kept, compacted each round, and a cycle
        records its event count in the round that empties the queue.  A walk
        from 1 to 0 in ``steps`` events makes ``(steps + 1) // 2`` downward
        moves, the departures.  Total event counts then determine the busy
        duration as an Erlang sum.
        """
        gen = rng.generator()
        total_rate = self.arrival_rate + self.service_rate
        p_up = self.arrival_rate / total_rate
        steps = np.zeros(n, dtype=np.int64)
        active = np.arange(n)
        height = np.ones(n, dtype=np.int64)
        rounds = 0
        while active.size:
            rounds += 1
            height += np.where(gen.random(active.size) < p_up, 1, -1)
            alive = height > 0
            steps[active[~alive]] = rounds
            active = active[alive]
            height = height[alive]
        departures = (steps + 1) // 2
        busy = gen.gamma(shape=steps.astype(float)) / total_rate
        idle = gen.exponential(1.0 / self.arrival_rate, size=n)
        tau = idle + busy
        xi = departures.astype(float)
        return CycleBatch(tau=tau, xi=xi, eta=xi)

    def sample_path(self, n: int, rng: RngStream) -> RegenerativePath:
        """Full trajectories: one event per departure, cycle by cycle.

        The scalar draw order (idle period, then one exponential and one
        uniform per busy-period event) is part of the stream contract.
        """
        gen = rng.generator()
        total_rate = self.arrival_rate + self.service_rate
        p_up = self.arrival_rate / total_rate
        offsets, values, ptr = [], [], [0]
        for _ in range(n):
            t = gen.exponential(1.0 / self.arrival_rate)
            height = 1
            count = 0
            while height > 0:
                t += gen.exponential(1.0 / total_rate)
                if gen.random() < p_up:
                    height += 1
                else:
                    height -= 1
                    count += 1
                    offsets.append(t)
                    values.append(float(count))
            ptr.append(len(offsets))
        last = np.array(ptr[1:], dtype=np.int64) - 1
        offsets, values = np.array(offsets), np.array(values)
        return RegenerativePath.from_cycle_events(
            offsets[last], values[last], offsets, values, ptr,
            self.interpolation)

    def laplace_tau(self, b: float) -> float:
        """Closed form: Exp idle transform times the busy-period transform."""
        b = float(b)
        la, mu_s = self.arrival_rate, self.service_rate
        s = mu_s + la + b
        busy = (s - math.sqrt(s * s - 4.0 * la * mu_s)) / (2.0 * la)
        return la / (la + b) * busy


@dataclass(frozen=True, eq=False)
class CompoundJumpModel(Model):
    """Exponential cycles carrying Gaussian jumps at Poisson times, d <= 3.

    tau ~ Exp(cycle_rate); given tau, jumps arrive at rate jump_rate and each
    jump is Normal(jump_mean, jump_cov).  The increment is the jump sum, so
    the drift and regression coefficients coincide and the centered pair is
    uncorrelated beyond the duration itself.
    """

    family: ClassVar[str] = "compound-jump"
    interpolation: ClassVar[str] = PIECEWISE_CONSTANT

    cycle_rate: float = 1.0
    jump_rate: float = 1.0
    jump_mean: np.ndarray = 0.0
    jump_cov: np.ndarray | None = None
    dim: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= 3:
            raise InvalidParameterError(
                f"compound-jump supports dimensions 1..3, got {self.dim}")
        if not (self.cycle_rate > 0 and self.jump_rate > 0):
            raise InvalidParameterError(
                f"rates must be positive, got cycle_rate={self.cycle_rate}, "
                f"jump_rate={self.jump_rate}")
        mean = np.broadcast_to(np.asarray(self.jump_mean, dtype=float),
                               (self.dim,)).copy()
        cov = np.eye(self.dim) if self.jump_cov is None \
            else np.asarray(self.jump_cov, dtype=float)
        object.__setattr__(self, "jump_mean", mean)
        object.__setattr__(self, "jump_cov", cov)
        object.__setattr__(self, "_jump_root", matrix_sqrt_psd(cov))

    @property
    def d(self) -> int:
        return self.dim

    @property
    def p_max(self) -> float:
        return math.inf

    def _draw(self, n: int, gen: np.random.Generator):
        tau = gen.exponential(1.0 / self.cycle_rate, size=n)
        counts = gen.poisson(self.jump_rate * tau)
        total = int(counts.sum())
        jumps = self.jump_mean + \
            gen.standard_normal((total, self.dim)) @ self._jump_root
        return tau, counts, jumps

    def sample_cycles(self, n: int, rng: RngStream) -> CycleBatch:
        tau, counts, jumps = self._draw(n, rng.generator())
        starts = np.concatenate([[0], np.cumsum(counts)])
        running = np.cumsum(jumps, axis=0)
        base = np.concatenate([np.zeros((1, self.dim)), running])
        xi = base[starts[1:]] - base[starts[:-1]]
        eta = np.zeros(n)
        nonempty = counts > 0
        if np.any(nonempty):
            rel = np.max(np.abs(running - np.repeat(
                base[starts[:-1]], counts, axis=0)), axis=1)
            eta[nonempty] = np.maximum.reduceat(
                rel, starts[:-1][nonempty])
        return CycleBatch(tau=tau, xi=xi, eta=eta)

    def sample_path(self, n: int, rng: RngStream) -> RegenerativePath:
        """Jump events plus a flat terminal event closing each cycle."""
        gen = rng.generator()
        tau, counts, jumps = self._draw(n, gen)
        total = jumps.shape[0]
        cycle = np.repeat(np.arange(n), counts)
        u = gen.random(total)
        jump_offsets = u[np.lexsort((u, cycle))] * tau[cycle]
        # Within-cycle running sums, accumulated one position at a time so
        # each cycle's sum has exactly the bits of its own sequential cumsum.
        starts = np.concatenate([[0], np.cumsum(counts)])
        position = np.arange(total) - starts[cycle]
        running = jumps.copy()
        for j in range(1, int(counts.max(initial=0))):
            at = np.flatnonzero(position == j)
            running[at] += running[at - 1]
        xi = np.zeros((n, self.dim))
        nonempty = counts > 0
        xi[nonempty] = running[starts[1:][nonempty] - 1]
        # Each cycle's events: its jumps, then the terminal event (tau, xi).
        slot = np.arange(total) + cycle
        end = starts[1:] + np.arange(n)
        offsets = np.empty(total + n)
        offsets[slot] = jump_offsets
        offsets[end] = tau
        values = np.empty((total + n, self.dim))
        values[slot] = running
        values[end] = xi
        ptr = np.concatenate([[0], end + 1])
        return RegenerativePath.from_cycle_events(
            tau, xi, offsets, values, ptr, self.interpolation)

    def true_greeks(self, p: float) -> Greeks:
        self._check_p(p)
        mu = 1.0 / self.cycle_rate
        var_tau = mu * mu
        m, nu = self.jump_mean, self.jump_rate
        mm = np.outer(m, m)
        var_xi = nu * mu * (self.jump_cov + mm) + nu * nu * mm * var_tau
        return Greeks.from_moments(
            mu=mu, mean_xi=nu * mu * m, var_tau=var_tau, var_xi=var_xi,
            cov_xi_tau=nu * m * var_tau, p=p)

    def laplace_tau(self, b: float) -> float:
        return self.cycle_rate / (self.cycle_rate + float(b))


# -- module-level operations ------------------------------------------------


def reference_greeks(model: Model, p: float) -> Greeks:
    """Ground truth for the coupling pipeline: the family's closed form."""
    return model.true_greeks(p)


def eta_moment(model: Model, p: float, n: int = 200_000,
               rng: RngStream | None = None) -> float:
    """E eta^p: closed form when the family has one, else a plug-in estimate."""
    closed = model.eta_moment(p)
    if closed is not None:
        return closed
    if rng is None:
        rng = RngStream(0, 2 ** 62 + 211)
    batch = model.sample_cycles(n, rng)
    return float(np.mean(batch.eta ** p))
