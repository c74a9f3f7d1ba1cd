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
        "4546c4572850347ac55c30a7358396867a4f0ebd075c4d401694ba8737e23cdc",
    "mm1-rho0.9":
        "5244c3abdc981bd4bb17cee99c9318e186da9f6df6c9b557c722b05524fc366c",
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


# ``MM1BusyCycleModel.sample_cycles`` walks the same busy cycles as
# ``sample_path``; its bytes are pinned as well.
CYCLE_DIGESTS = {
    0.5: "c87c6f8f46f76ec3bcd2872827b2ec9f0f2d801575eb82dde2fc3c1fb3c164e3",
    0.9: "915fa6a024998a87dc3e3de865a14169b03683248715a2bb9cddbc67423e4855",
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
