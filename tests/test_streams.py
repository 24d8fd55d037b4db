"""Golden hashes pinning the random streams and the float masses.

The pa and uniform digests were recorded before the three per-mechanism
samplers and mass formulas were folded into one affine kernel, and they
must not move. The affine-pa digests (a > 0) were re-recorded when the
per-arrival urn loop gave way to the vectorized sampler, which draws all
slot indices, then all uniform picks, then all coins. A changed digest
means a changed random stream or a changed float result, which breaks the
reproducibility of every stored trajectory.

The per-arrival urn loop stays here as the reference: the sampler must
reproduce its stream bit for bit for pa and affine-pa with a = 0, and
the loop fed with block-order draws for affine-pa with a > 0.
"""

import hashlib

import numpy as np
import pytest

from dyngof.models import (
    ModelSpec,
    affine_pref_attach,
    pref_attach,
    replay,
    sample_trajectory,
    step_distribution,
    uniform_attach,
)
from dyngof.rng import stream

SEEDS = (0, 7, 2**63 - 5)

# (kind, a, m) -> (sha256 of the choices on SEEDS at n=300,
#                  sha256 of the masses along one n=200 trajectory, seed 11)
GOLDEN = {
    ("pa", 0.0, 1): ("e004604759637d3244069a11224a77af2ab1e125e4f18b744ca745048d2f4732", "2bf9ccb128bde527895016a7a4cc17dce8536f79cf8ff745090cdf9875e64163"),
    ("pa", 0.0, 2): ("8a73af070cf4fbb5a2cb89436500625a11513da3e7aa8efa113e026e5fa9ca2f", "78920a011834a7a83d3a5db97fdbe2a77e607b202a10b8276a9760d92a1ffcce"),
    ("pa", 0.0, 3): ("ca8e54884e5b0756668d3c29d2c9c4215f1cb2c696aa60d3e5ddd606ef2aa58c", "a2a9179dd84ba69a76d5a961cfe7e8ce982c1cc173aa3a2c8640d28b7bfed6b7"),
    ("uniform", 0.0, 1): ("db79b9dbc2b5e12f535dc11b6e573a5441ffbd200f737e31b9bf69a9f9240c24", "f8e9e84af43d12d4e39e9af926a7a8eb32110bb446a80c088f79bf09fdc7088a"),
    ("uniform", 0.0, 2): ("1d6f837332f17cad6e00d1f962e0f2c48174f19eea764ec89e027b4b6278e550", "f8e9e84af43d12d4e39e9af926a7a8eb32110bb446a80c088f79bf09fdc7088a"),
    ("uniform", 0.0, 3): ("b5acfea7ecbac8e5b87583659f11278bc5ccf02cecf56ed9d6881457cead39d6", "f8e9e84af43d12d4e39e9af926a7a8eb32110bb446a80c088f79bf09fdc7088a"),
    ("affine-pa", 0.5, 1): ("5dc099f075efba89fa26b435f606207a36f29ef03bc0641644c025086a2757fa", "697167fac0fdfa36a5f4c77d5f04855ce2d2a84a557bd6176b6e65fe7edc939c"),
    ("affine-pa", 0.5, 2): ("7e6748b7b98c2783dcb1fa3f347e238e0ece6589283f1015a296bd7ac9fca9ac", "bd2adccdb4d9c8e3828d539bfd33cbc6efee1971a194e6af46505a3ca67ab3a4"),
    ("affine-pa", 0.5, 3): ("c9000e2f8ea3a15189d0278c167840988bc1db05520889405879bcf8706dfcb3", "dfbcd97675c4c27f8cbe75c9d9fe58520c950b81c624ec47ebf75e8690b18d50"),
    ("affine-pa", 1.0, 1): ("a2ee71a2b174f7507e12b748b91578065ed2ee931e16f07045e90929e43aa952", "61ba27e48ca001382c823c71410ca28df0fdf36ff1d300a4ac96c5ffd34b09eb"),
    ("affine-pa", 1.0, 2): ("99987961b3cc5d403ccba40320f468735498705f95bfede1f8842bb05ffcacad", "4e328495b6e24c2a909c37df70a7207dfc61d0d3149a9d224cf951ab612a2a75"),
    ("affine-pa", 1.0, 3): ("df8f30e87aef0ce260a2c15d82046ff1dad08b8687d300d24c91823694e9f33c", "d2bd1dca4926c7dfa4f3b42d1f692838b0df23dc3eb662d7ebe9504d85d9555b"),
    ("affine-pa", 2.5, 1): ("0d50229e9d75311e3a591ec11a447d6bf9796018cdd9d96b2468cf4fd6dc49f5", "98737e813457665b4c0d36c76c8ea1da262e46b186a8e45fca7e21cc494bdd14"),
    ("affine-pa", 2.5, 2): ("5e15f46f1949abf18cd40b8c28e802172bc4042aaf22f338990000304f23c8fe", "96ac07d09119221ab585243c7f4a032e9e8298fd9363922e4cca7b7f653d1b5e"),
    ("affine-pa", 2.5, 3): ("10c36d58136a8269687a6ef27de19a6421b2055097bc739fa3ae73a09862f718", "59e5176c9fcb0282193fc1192f7afb64d3427f3fdb9774f87f0993a889bd6365"),
}


def choices_digest(model, n=300):
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(sample_trajectory(model, n, seed).choices.astype("<i8").tobytes())
    return h.hexdigest()


def mass_digest(model, n=200, seed=11):
    traj = sample_trajectory(model, n, seed)
    h = hashlib.sha256()
    for t in range(1, n):
        h.update(step_distribution(model, replay(traj, t)).mass.astype("<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind,a,m", list(GOLDEN), ids=lambda v: str(v))
def test_choices_stream_unchanged(kind, a, m):
    assert choices_digest(ModelSpec(kind, m=m, a=a)) == GOLDEN[kind, a, m][0]


@pytest.mark.parametrize("kind,a,m", list(GOLDEN), ids=lambda v: str(v))
def test_masses_unchanged(kind, a, m):
    assert mass_digest(ModelSpec(kind, m=m, a=a)) == GOLDEN[kind, a, m][1]


STREAM_SEEDS = (0, 7, 2**63 - 5, 1, 12345, 2**40 + 3)


def uniform_per_arrival(n, m, seed):
    """The uniform sampler as one integers(1, t, size=m) call per arrival t."""
    rng = stream(seed)
    return np.array([rng.integers(1, t, size=m) for t in range(2, n + 1)], dtype=np.int64).reshape(n - 1, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 17, 300, 5000])
def test_uniform_broadcast_draw_matches_per_arrival_stream(n, m):
    # The sampler draws every uniform choice in one broadcast call; numpy
    # must give it the stream of the per-arrival calls.
    for seed in STREAM_SEEDS:
        got = sample_trajectory(uniform_attach(m), n, seed).choices
        assert np.array_equal(got, uniform_per_arrival(n, m, seed))


def urn_per_arrival(n, m, pick):
    """The endpoint-urn sampler as a loop over arrivals.

    pick(t, urn) returns the m targets of arrival t; urn[:2m(t-1)] then
    holds each vertex once per unit of degree.
    """
    urn = np.empty(2 * m * n, dtype=np.int64)
    urn[: 2 * m] = 1
    choices = np.empty((n - 1, m), dtype=np.int64)
    size = 2 * m
    for t in range(2, n + 1):
        targets = pick(t, urn)
        choices[t - 2] = targets
        urn[size : size + m] = targets
        urn[size + m : size + 2 * m] = t
        size += 2 * m
    return choices


def per_arrival_reference(n, m, seed):
    """pa: one integers(0, 2m(t-1), size=m) call of urn slots per arrival t."""
    rng = stream(seed)
    return urn_per_arrival(n, m, lambda t, urn: urn[rng.integers(0, 2 * m * (t - 1), size=m)])


def block_order_reference(n, m, a, seed):
    """affine-pa(a > 0): every urn slot, then every uniform pick, then every coin."""
    rng = stream(seed)
    slots = [rng.integers(0, 2 * m * (t - 1), size=m) for t in range(2, n + 1)]
    picks = [rng.integers(1, t, size=m) for t in range(2, n + 1)]
    coins = [rng.random(m) for _ in range(2, n + 1)]
    w = 2 * m / (2 * m + a)
    return urn_per_arrival(n, m, lambda t, urn: np.where(coins[t - 2] < w, urn[slots[t - 2]], picks[t - 2]))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 17, 300, 5000])
def test_urn_sampler_matches_per_arrival_stream(n, m):
    # pa and affine-pa with a = 0 draw only urn slots, in one broadcast call
    # with the stream of the per-arrival loop; resolving the urn's pointer
    # chains must then give the loop's choices.
    for seed in STREAM_SEEDS:
        want = per_arrival_reference(n, m, seed)
        assert np.array_equal(sample_trajectory(pref_attach(m), n, seed).choices, want)
        assert np.array_equal(sample_trajectory(affine_pref_attach(0.0, m), n, seed).choices, want)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 17, 300, 5000])
def test_affine_sampler_matches_block_order_reference(n, m, a):
    for seed in STREAM_SEEDS:
        got = sample_trajectory(affine_pref_attach(a, m), n, seed).choices
        assert np.array_equal(got, block_order_reference(n, m, a, seed))
