"""Unit tests for Table-I machine sampling."""

import numpy as np
import pytest

from repro.cloud.machine import CMAX, CMAX_VECTOR, sample_machines
from repro.cloud.resources import RESOURCE_DIMS
from repro.cloud.tasks import demand_fits_cmax
from repro.testing import reference_sample_machine


def test_cmax_matches_table_one_maxima():
    assert CMAX_VECTOR.as_dict() == {
        "cpu": 25.6,
        "io": 80.0,
        "net": 10.0,
        "disk": 240.0,
        "mem": 4096.0,
    }


def test_demand_upper_bounds_equal_cmax():
    # Table II's demand ranges top out exactly at Table I's capacities.
    assert demand_fits_cmax()


def test_sampled_machines_within_table_one():
    rng = np.random.default_rng(0)
    for m in sample_machines(rng, [7.5] * 200):
        assert m.processors in (1, 2, 4, 8)
        assert m.rate_per_processor in (1.0, 2.0, 2.4, 3.2)
        assert m.io_speed in (20.0, 40.0, 60.0, 80.0)
        assert m.memory_size in (512.0, 1024.0, 2048.0, 4096.0)
        assert m.disk_size in (20.0, 60.0, 120.0, 240.0)
        cap = m.capacity
        assert np.all(cap.values <= CMAX + 1e-12)
        assert np.all(cap.values > 0)


def test_capacity_vector_layout():
    rng = np.random.default_rng(1)
    (m,) = sample_machines(rng, [6.0])
    cap = m.capacity
    assert cap["cpu"] == m.processors * m.rate_per_processor
    assert cap["net"] == 6.0
    assert list(cap.as_dict()) == list(RESOURCE_DIMS)


def test_all_configurations_reachable():
    rng = np.random.default_rng(2)
    procs = {m.processors for m in sample_machines(rng, [5.0] * 500)}
    assert procs == {1, 2, 4, 8}


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_sample_machines_is_stream_compatible_with_sample_machine(seed, n):
    """One batched draw gives the seed's per-host configurations and
    leaves the generator exactly where the per-host calls leave it."""
    bandwidths = np.random.default_rng(seed + 1).uniform(5.0, 10.0, n).tolist()
    batched_rng = np.random.default_rng(seed)
    sequential_rng = np.random.default_rng(seed)
    batched = sample_machines(batched_rng, bandwidths)
    sequential = [
        reference_sample_machine(sequential_rng, bw) for bw in bandwidths
    ]
    assert batched == sequential
    assert [type(m.processors) for m in batched] == [int] * n
    assert batched_rng.random() == sequential_rng.random()
