"""Golden hashes pinning the random streams and the float masses.

The digests were recorded before the three per-mechanism samplers and
mass formulas were folded into one affine kernel; they must not move.
A changed digest means a changed random stream or a changed float
result, which breaks the reproducibility of every stored trajectory.
"""

import hashlib

import numpy as np
import pytest

from dyngof.models import ModelSpec, replay, sample_trajectory, step_distribution, uniform_attach
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
    ("affine-pa", 0.5, 1): ("9f61dc3878c9f4a2b37e5a49508732005163d01a579f7452329aa06b0a082cd9", "537b33d6eb21b395ca9b431304506e0dca6cf2a434bf83a6bba3a5242f5e2cf7"),
    ("affine-pa", 0.5, 2): ("ae64692fec35a6ce4f148b659009e5b074cee26ddf35cf97954fb98508d52345", "3892b07087e5b9b84b6c2958b8c0da1912b9da82411a3412375ad836ba80d6de"),
    ("affine-pa", 0.5, 3): ("4f0a8da14e84993666ff89b049eb414bf8f8f8be8d15ce294da55824cf6a3699", "bd1354c7b4b999f4fab29e40b003aebffcfed5c3d3f6f1f405d03a1cde30cbf6"),
    ("affine-pa", 1.0, 1): ("e78b80408b1fba9d91532c992229d4371092f6a48fa53ee51650cec9d7259b34", "8f069f6aae7e96fb640e3fbcb651c50873067c5d908919767de6fb20d3f2d7c1"),
    ("affine-pa", 1.0, 2): ("efb648e07fa00595654850543f305f7b501f3463cd27f35747d9a20b98eaccd7", "9878c62c13a0004145422951bcd42770ca9339f0a1ec34dcc5d54b687e81dec3"),
    ("affine-pa", 1.0, 3): ("92a228559b0d83f7999171ad0dc343120f1a9992f131dd25644c51ba2ef3cbb8", "47cdfd3492b342a0953a28f98257c33385f034dad6c33f5a310892edc7bf83cd"),
    ("affine-pa", 2.5, 1): ("8eb5598bc4795dfec75d6bf23cd0440413db8ed918393cd6cd753b150e0478ae", "2469275ea2b9d66d561faf49350b93259115ad254208b2d77ba4e6eab17753a4"),
    ("affine-pa", 2.5, 2): ("a8326c33f415461f4a73802b520c705638aeaf32dc55050f9659b0087fd6d58e", "f773d1c90d9260d14e54a278c4909b321f528b8c07efc86ef422a7a38d39b4f3"),
    ("affine-pa", 2.5, 3): ("f86678bd565df3ff61109e5f0c03c42dd8b5786f272d6fbb3550a211b365572c", "b8023e3f5f1a9fbd19a086c4f9d70c2c1e1988d88bca0801f7ab6d3d62c4789d"),
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


def uniform_per_arrival(n, m, seed):
    """The uniform sampler as one integers(1, t, size=m) call per arrival t."""
    rng = stream(seed)
    return np.array([rng.integers(1, t, size=m) for t in range(2, n + 1)], dtype=np.int64).reshape(n - 1, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 17, 300, 5000])
def test_uniform_broadcast_draw_matches_per_arrival_stream(n, m):
    # The sampler draws every uniform choice in one broadcast call; numpy
    # must give it the stream of the per-arrival calls.
    for seed in (0, 7, 2**63 - 5, 1, 12345, 2**40 + 3):
        got = sample_trajectory(uniform_attach(m), n, seed).choices
        assert np.array_equal(got, uniform_per_arrival(n, m, seed))
