"""Byte identity of the trajectory samplers.

The sha256 values pin every array of ``sample_path`` (plus ``eta()``) for the
two families with a genuine intra-cycle trajectory.  A change in draw order,
in summation order or in the covariance root (``matrix_sqrt_psd``, which
scales the d > 1 jumps) shows here first.
"""
import hashlib

import numpy as np
import pytest

from regenlab.models import CompoundJumpModel, MM1BusyCycleModel
from regenlab.rng import RngStream

CASES = {
    "compound-jump-d1-n1": (CompoundJumpModel(dim=1), 1),
    "compound-jump-d2": (CompoundJumpModel(
        cycle_rate=2.0, jump_rate=0.7, jump_mean=np.array([0.3, -0.2]),
        jump_cov=np.array([[1.0, 0.3], [0.3, 0.8]]), dim=2), 200),
    "compound-jump-d3": (CompoundJumpModel(
        cycle_rate=0.5, jump_rate=1.5, jump_mean=0.1, dim=3), 50),
    "mm1-rho0.5": (MM1BusyCycleModel(arrival_rate=0.5, service_rate=1.0), 200),
    "mm1-rho0.9": (MM1BusyCycleModel(arrival_rate=0.9, service_rate=1.0), 200),
}

DIGESTS = {
    "compound-jump-d1-n1":
        "5ceb71148919ae5159de0e012cd605c3e8fdc72bcf696232f05aeb889b16a501",
    "compound-jump-d2":
        "92427be4c6c43e43750dcc78447a3f326e755c3543ec0c6544132b77b09c4007",
    "compound-jump-d3":
        "9c52d0f9d0eee894221f1221db2b331049feefcb65921ded164301555d7aea11",
    "mm1-rho0.5":
        "c57a63c66cb34e8a8b3739ad030cf07a85598195e828ee777e941d931cec783b",
    "mm1-rho0.9":
        "9a389f6e3a7733207c99190adfab69b99ff7c1903195a9cde58c1d4561703898",
}


def _sample(name):
    model, n = CASES[name]
    return model.sample_path(n, RngStream(2024, 17))


def _digest(path) -> str:
    h = hashlib.sha256()
    for array in (path.tau, path.xi, path.renewal_times, path.event_times,
                  path.event_values, path.cycle_event_ptr, path.prefix_xi,
                  path.eta()):
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_sample_path_bytes(name):
    assert _digest(_sample(name)) == DIGESTS[name]


# ``MM1BusyCycleModel.sample_cycles``, the moment oracle's sampler: its draw
# order is part of the stream contract just as ``sample_path``'s is.
CYCLE_DIGESTS = {
    0.5: "0a4aba29544abfdb8c48f7b815ccf22651c54f12fb884ad2de29e8df0e14e6e6",
    0.9: "39b847ff9d3d3517a367a2c344fa35198030ec42545206b0219bb558234fdd21",
}


@pytest.mark.parametrize("rho", sorted(CYCLE_DIGESTS))
def test_mm1_sample_cycles_bytes(rho):
    batch = MM1BusyCycleModel(arrival_rate=rho, service_rate=1.0) \
        .sample_cycles(5000, RngStream(2024, 17))
    h = hashlib.sha256()
    for array in (batch.tau, batch.xi, batch.eta):
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(array.tobytes())
    assert h.hexdigest() == CYCLE_DIGESTS[rho]


def test_cases_cover_cycles_without_jumps():
    counts = np.diff(_sample("compound-jump-d2").cycle_event_ptr)
    assert np.any(counts == 1) and np.any(counts > 2)
