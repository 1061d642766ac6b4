"""numpy's random streams that the package draws with, each pinned by the sha256 of a small fixed draw.

Worlds draw on Philox streams; splits, topic vectors, key embeddings, drift,
the bootstrap and the interaction test draw on PCG64 through default_rng.
A numpy release that changes one of these streams changes the package's
outputs, and fails here the case that names the bit generator and method.
"""

import hashlib

import numpy as np
import pytest

from gatedmem.util import derive_seed, stable_digest

KEY = 0x9E3779B97F4A7C15  # a 64-bit key or seed, as util.derive_seed gives


def _philox():
    return np.random.Generator(np.random.Philox(key=KEY))


def _pcg64():
    return np.random.default_rng(KEY)


# each draw is as the package makes it: shapes, array parameters and out= as in its calls
DRAWS = {
    "philox-random": lambda: _philox().random((4, 3)),
    "philox-integers": lambda: _philox().integers(12, size=16),
    "philox-beta": lambda: _philox().beta(np.array([2.0, 0.5, 7.0]), np.array([5.0, 0.5, 1.5]), size=(4, 3)),
    "philox-standard_normal": lambda: _philox().standard_normal(out=np.empty((4, 4))),
    "pcg64-permutation": lambda: np.random.default_rng(0).permutation(16),  # the fit/test split's seed
    "pcg64-standard_normal": lambda: _pcg64().standard_normal(16),
    "pcg64-integers": lambda: _pcg64().integers(12, size=16),
    "pcg64-multinomial": lambda: _pcg64().multinomial(20, [0.2, 0.5, 0.3], size=4),
    "pcg64-multivariate_hypergeometric": lambda: _pcg64().multivariate_hypergeometric([5, 7, 4], 6, size=4),
}

# sha256 of each draw as little-endian float64
PINNED = {
    "philox-random": "c01741a183c95d9a5388034ef193c6667ee4208deb0b88114d6002e77260838b",
    "philox-integers": "d9b9e6bf1bccde6d6bb4e3155c972e1671391741ff47f1fa015d4509c0cee9fe",
    "philox-beta": "71b4bdf34cb068cc8dbeac4c66ca3f2fa2d779f28972fa14df502ca797e7f058",
    "philox-standard_normal": "e1e205b5479deb7e42fcb53054f87aa03864308679c4291b189d56753c8ee0b9",
    "pcg64-permutation": "9d76dd70ccc96781b2a483fe64db6df6db5bd09446a4b0b18a096271a2d72952",
    "pcg64-standard_normal": "5460db40dce3e3a1ff56f9a47c11b99b2ff91620a85a6352f99ce170f0a1486c",
    "pcg64-integers": "35c202e7a580277bec8a2461f32d62d26e075a267dd73a5b18357fe57565191f",
    "pcg64-multinomial": "126809ceb93c5c79110e5e31215bb7be3cd1ca4d1c80546940011c2eb71e0ca6",
    "pcg64-multivariate_hypergeometric": "60187191d98517e38d64c230e39b5202df0944e7b3b9258820afc2ab5a34d402",
}


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_stream_is_pinned(name):
    assert hashlib.sha256(np.asarray(DRAWS[name](), "<f8").tobytes()).hexdigest() == PINNED[name]


@pytest.mark.parametrize("digest", [stable_digest, derive_seed])
@pytest.mark.parametrize("value", [np.arange(3), np.int64(3)], ids=["ndarray", "int64"])
def test_digest_refuses_a_value_json_cannot_encode(digest, value):
    # hashing str(value) would key np.arange(3) the same as the string "[0 1 2]"
    with pytest.raises(TypeError):
        digest("key", value)
