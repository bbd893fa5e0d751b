"""``mix64_batch`` equals the scalar ``mix64`` at the edges of uint64.

Keys in ``[0, 2**64)`` take the numpy kernel; a list holding any key
outside it (numpy refuses to convert one) takes the scalar loop whole.
Each row runs with numpy and with numpy blocked.
"""

import pytest

import repro.hashing.batch as batch
from repro.hashing.batch import mix64_batch
from repro.hashing.mix import mix64

EDGE_KEYS = [0, 2**64 - 1, -1, 2**64, 2**80]

#: Lists that mix in-range keys with each edge, in both positions.
LISTS = [[key] for key in EDGE_KEYS] + [
    [7, key, 2**63] for key in EDGE_KEYS
] + [[key, 3, 2**64 - 1] for key in EDGE_KEYS] + [EDGE_KEYS, []]


@pytest.fixture(params=["numpy", "blocked"])
def numpy_mode(request, monkeypatch):
    if request.param == "blocked":
        monkeypatch.setattr(batch, "_numpy", lambda: None)
    elif batch._numpy() is None:
        pytest.skip("numpy is not installed")
    return request.param


@pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
@pytest.mark.parametrize("keys", LISTS, ids=repr)
def test_mix64_batch_equals_the_scalar_mix(keys, seed, numpy_mode):
    got = mix64_batch(keys, seed)
    assert got == [mix64(x, seed) for x in keys]
    assert all(type(h) is int for h in got)


def test_an_out_of_range_key_takes_the_scalar_loop(monkeypatch):
    if batch._numpy() is None:
        pytest.skip("numpy is not installed")
    calls = []
    kernel = batch._mix64_np

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(batch, "_mix64_np", counted)
    mix64_batch([1, 2, 2**64 - 1])
    assert len(calls) == 1
    for key in (-1, 2**64, 2**80):
        mix64_batch([1, key, 2])
    assert len(calls) == 1
