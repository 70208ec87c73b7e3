"""`netsim.Rng`, the one random stream of the code, against numpy's
`Generator` as its oracle: draw for draw over many seeds, in the order each
caller draws, and pinned by digest so that a moved stream fails by name."""

import hashlib

import numpy as np
import pytest

from ccprobe.netsim import Rng

# seeds 0-63, and seeds of two, three and seven 32-bit words
SEEDS = list(range(64)) + [2**64 + 12345, 2**95 - 1, 2**200 + 7]
POP, DIM = 32, 6


def _cem(rng, numpy_side):
    # `cem.cem_maximize`: per generation a (population, dim) normal draw,
    # then one episode seed per row
    out = []
    for _ in range(3):
        out += [x.hex() for x in rng.standard_normal((POP, DIM)).ravel().tolist()]
        if numpy_side:
            out += [int(rng.integers(0, 2**31 - 1)) for _ in range(POP)]
        else:
            out += rng.integers(0, 2**31 - 1, POP).tolist()
    return out


def _pool(rng, numpy_side):
    # `advtrain.sample_trace`, twice on one stream: the Bernoulli draw, then
    # the index
    out = []
    for n in (5, 3):
        out += [float(rng.random()).hex(), int(rng.integers(0, n))]
    return out


def _trace(rng, numpy_side):
    # `tracegen.gen_random_trace`'s proposals
    return [x.hex() for x in rng.uniform(1.0, 96.0, 600).tolist()]


def _driver(rng, numpy_side):
    # `select_worst_trace`'s initial capacities, then a policy-less
    # adversary's draw at each interval (`EnvBandwidthDriver`,
    # `FeatureIntercept` with random noise)
    out = [x.hex() for x in rng.uniform(1.0, 96.0, 8).tolist()]
    return out + [float(rng.uniform(0.5, 1.5)).hex() for _ in range(50)]


STREAMS = {"cem": _cem, "pool": _pool, "trace": _trace, "driver": _driver}

# sha256 of each stream's draws over SEEDS, as `_digest` writes them
PINNED = {
    "cem": "b632f99f9a85155332c9155f3a21dfe741d6d9edbdcb6f1c4453a166d8085f51",
    "pool": "399952c73b617ef14414eb40ffa3b4814b7d270d9c7e926a461a6c8af8abf6c8",
    "trace": "38e5b18407fd084128b879bf925a4cf5661de63f171481fc653614bca33642f3",
    "driver": "e8beedfe6ffae0b6e025c91d10dfb7d903e702aaf2e9bd04e241abaa29abdef4",
}


def _digest(stream) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(repr(STREAMS[stream](Rng(seed), False)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_rng_draws_what_numpys_generator_draws(stream):
    for seed in SEEDS:
        ours, theirs = Rng(seed), np.random.default_rng(seed)
        assert (STREAMS[stream](ours, False)
                == STREAMS[stream](theirs, True)), (stream, seed)
        state = theirs.bit_generator.state
        assert repr(ours) == (f"Rng(state={state['state']['state']:#x}, "
                              f"inc={state['state']['inc']:#x}, "
                              f"has_uint32={state['has_uint32']}, "
                              f"uinteger={state['uinteger']})"), (stream, seed)


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_rng_stream_is_pinned(stream):
    # the bytes of every output follow these streams: a numpy whose C
    # distributions moved, or an edit of `tl_rng`, fails here by name
    assert _digest(stream) == PINNED[stream]


def test_rng_keeps_numpys_errors():
    for rng in (Rng(0), np.random.default_rng(0)):
        with pytest.raises(ValueError, match="low >= high"):
            rng.integers(5, 5)
        with pytest.raises(ValueError, match="low >= high"):
            rng.integers(5, 2, 3)
        for low, high in ((0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0),
                          (-1e308, 1e308)):
            with pytest.raises(OverflowError, match="range exceeds valid bounds"):
                rng.uniform(low, high)
    for make in (Rng, np.random.default_rng):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            make(-1)


def test_rng_repr_is_its_whole_state():
    # equal seeds give equal reprs and different seeds different ones; the
    # repr carries no address, and it moves with every draw, a 32-bit draw's
    # kept half too
    assert repr(Rng(3)) == repr(Rng(3))
    assert len({repr(Rng(s)) for s in SEEDS}) == len(SEEDS)
    assert " at 0x" not in repr(Rng(3))
    a, b = Rng(3), Rng(3)
    a.integers(0, 10)
    assert repr(a) != repr(b) and "has_uint32=1" in repr(a)
    b.integers(0, 10)
    assert repr(a) == repr(b)
    assert not hasattr(Rng(0), "__dict__")
