"""Replications drawn and scored as one stacked choices array per block.

statistic_samples, dn_estimate and the success-rate experiment draw each
block of replications with one models.sample_choices call (through
gof.replication_blocks) and score it in one stacked pass. The golden
values below were recorded before replications were stacked, when every
replication was drawn by its own sample_trajectory call, dn was summed one
trajectory at a time and the success-rate experiment decided each
trajectory with test_dynamic_graph; they must not move. A changed value
means a changed random stream or a changed float result.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from dyngof import gof, sampling
from dyngof.gof import FixedAlpha, SampledAlpha, TestConfig, dn_estimate, dn_summands, statistic_samples
from dyngof.harness import ExperimentConfig, experiment_table
from dyngof.models import affine_pref_attach, pref_attach, sample_choices, sample_trajectory, uniform_attach

SEEDS = (1, 2, 3, 7919)

# gen/null -> (generating model, null model, n, replications); the config
# takes TestConfig's default fractions.
STATISTIC_CASES = {
    "pa/pa": (pref_attach(1), pref_attach(1), 1000, 8),
    "uniform/pa": (uniform_attach(1), pref_attach(1), 500, 10),
    "affine-pa(1,2)/affine-pa(1,2)": (affine_pref_attach(1.0, 2), affine_pref_attach(1.0, 2), 3000, 12),
    "pa(3)/uniform(3)": (pref_attach(3), uniform_attach(3), 500, 5),
}
# m0|m1 -> (m0, m1, n, replications)
DN_CASES = {
    "pa|uniform": (pref_attach(1), uniform_attach(1), 500, 10),
    "affine-pa(2.5,3)|pa(3)": (affine_pref_attach(2.5, 3), pref_attach(3), 200, 3),
}
CHOICE_MODELS = {
    model.label: model
    for model in (
        pref_attach(1), pref_attach(3), uniform_attach(2), affine_pref_attach(1.0, 2), affine_pref_attach(2.5, 3)
    )
}

# (gen/null, seed) -> float.hex() of each statistic_samples value.
GOLDEN_STATISTIC = {
    ("pa/pa", 1): (
        "0x1.3db3419f50a5ap+8", "0x1.454a14403fc9bp+8", "0x1.43c45dcdde6b4p+8", "0x1.3b7abf93861bcp+8",
        "0x1.3f7147750383bp+8", "0x1.3f9ab17df3f59p+8", "0x1.3dd1ee8e1a3b2p+8", "0x1.42d601c7922fcp+8",
    ),
    ("pa/pa", 2): (
        "0x1.45fa52b196563p+8", "0x1.436a1ad2b96f6p+8", "0x1.47d57482e76bep+8", "0x1.3b4aa8e98a53dp+8",
        "0x1.42a3b4f3be51ap+8", "0x1.415771f2917f1p+8", "0x1.3ec2f078b3afep+8", "0x1.3f0a3303d09cep+8",
    ),
    ("pa/pa", 3): (
        "0x1.3a3cbd7044caap+8", "0x1.3f355d2b038d3p+8", "0x1.3f6a47e1879f6p+8", "0x1.471281246d0f4p+8",
        "0x1.42a2a9a11a2b4p+8", "0x1.42258041e00fap+8", "0x1.4546208644e9cp+8", "0x1.369735ff98b99p+8",
    ),
    ("pa/pa", 7919): (
        "0x1.48aebb002a866p+8", "0x1.38a6eb0e712bap+8", "0x1.3d5072ce4d2f1p+8", "0x1.45b115a5fe572p+8",
        "0x1.435fb4fc5560fp+8", "0x1.415359f2c6c39p+8", "0x1.451f27fed9cf3p+8", "0x1.3820d2f79895ap+8",
    ),
    ("uniform/pa", 1): (
        "0x1.7c072971f6cb2p+7", "0x1.7b17cd4ef4e52p+7", "0x1.7e8e34bd46c76p+7", "0x1.773a658a8fadep+7",
        "0x1.73747816f1f28p+7", "0x1.78c88f9af0077p+7", "0x1.74e6cf5eed99bp+7", "0x1.7e7947c716a72p+7",
        "0x1.86ba830202c36p+7", "0x1.82df6f546fabap+7",
    ),
    ("uniform/pa", 2): (
        "0x1.8275add2236ffp+7", "0x1.8158e8f42cff7p+7", "0x1.84bd4e8a72465p+7", "0x1.7b4ff8855e9e3p+7",
        "0x1.8365fa8d37dd4p+7", "0x1.719fe29959040p+7", "0x1.7412b46d41edcp+7", "0x1.7db1e3c68309bp+7",
        "0x1.6e29fad3d549ep+7", "0x1.8c4f03cd07a1cp+7",
    ),
    ("uniform/pa", 3): (
        "0x1.6e50a616903f2p+7", "0x1.8846138f9b669p+7", "0x1.7a8e34423ad02p+7", "0x1.7f63746f0e0fdp+7",
        "0x1.84d8cb132214cp+7", "0x1.7e529e06bda60p+7", "0x1.87dfc454484cfp+7", "0x1.7d62fa0c7ac0ap+7",
        "0x1.82a6739e49c44p+7", "0x1.78c37cdec7038p+7",
    ),
    ("uniform/pa", 7919): (
        "0x1.801678d2f4947p+7", "0x1.7b674a72e9ff1p+7", "0x1.7d8c1a73f660ep+7", "0x1.7c05568344a65p+7",
        "0x1.7f5b59b775675p+7", "0x1.797b91bad431dp+7", "0x1.78bad4f179123p+7", "0x1.795f556de4893p+7",
        "0x1.79c65047b86dfp+7", "0x1.7d93de67b82d4p+7",
    ),
    ("affine-pa(1,2)/affine-pa(1,2)", 1): (
        "0x1.a26c12ee14eb6p+9", "0x1.a097550b60694p+9", "0x1.ab73dfad0cf29p+9", "0x1.aaea15da1e97ep+9",
        "0x1.a720e75735b99p+9", "0x1.a8a53633b80cfp+9", "0x1.a376af77947f1p+9", "0x1.aaaf89f8e546bp+9",
        "0x1.a951861e6a825p+9", "0x1.aa6d204987a40p+9", "0x1.ad52aba873028p+9", "0x1.aae63beb417c9p+9",
    ),
    ("affine-pa(1,2)/affine-pa(1,2)", 2): (
        "0x1.ab31c370a3fa4p+9", "0x1.ab302c50a8a5fp+9", "0x1.aba4f4ec29b5cp+9", "0x1.a92bfdc164044p+9",
        "0x1.a97b7ca4b1224p+9", "0x1.aa66cb7482ae5p+9", "0x1.a8531f2d4fd63p+9", "0x1.ac07bd0013ac8p+9",
        "0x1.a62a964f177edp+9", "0x1.a78bb2deb321ap+9", "0x1.a67e65bcfea8bp+9", "0x1.a8839caf3d27ep+9",
    ),
    ("affine-pa(1,2)/affine-pa(1,2)", 3): (
        "0x1.ae76f4d594a34p+9", "0x1.adb2df902c367p+9", "0x1.a7c0fa68ce6a0p+9", "0x1.a86bac19fce2fp+9",
        "0x1.a5cb7333cc591p+9", "0x1.a6ab7d075e03cp+9", "0x1.a6a46630f523dp+9", "0x1.a66557bd004f4p+9",
        "0x1.ae5ef4c4fe0bcp+9", "0x1.a3ac3fb290380p+9", "0x1.a5402c39bf11dp+9", "0x1.abcce1c214108p+9",
    ),
    ("affine-pa(1,2)/affine-pa(1,2)", 7919): (
        "0x1.a8a76d14ff32fp+9", "0x1.a6f1a7af6c56bp+9", "0x1.ab584b52da19bp+9", "0x1.a1775768691f0p+9",
        "0x1.a7e5f86a36b90p+9", "0x1.abe0fc8d59217p+9", "0x1.a78a44b52201fp+9", "0x1.a936ea233741ap+9",
        "0x1.abcc74cb80f89p+9", "0x1.ab78317d6c85ap+9", "0x1.a50f909b51026p+9", "0x1.aa23f0d0a2386p+9",
    ),
    ("pa(3)/uniform(3)", 1): (
        "0x1.1f130fb458c44p+7", "0x1.2744b96a2fdf7p+7", "0x1.2aa55f71832f2p+7", "0x1.36ba6390a3ff3p+7",
        "0x1.1b1a7f5d8b29bp+7",
    ),
    ("pa(3)/uniform(3)", 2): (
        "0x1.279448759ecd7p+7", "0x1.2fb44b1a0b786p+7", "0x1.32149d9e1c7bap+7", "0x1.27fb70a3857f2p+7",
        "0x1.25609c53834d7p+7",
    ),
    ("pa(3)/uniform(3)", 3): (
        "0x1.2392fe255c699p+7", "0x1.31776e7fb2d63p+7", "0x1.14913859b3e41p+7", "0x1.1fc1034144f03p+7",
        "0x1.29281a7a96788p+7",
    ),
    ("pa(3)/uniform(3)", 7919): (
        "0x1.1c8a7eedd5047p+7", "0x1.2e107ef96b142p+7", "0x1.2c11b8aec4b7dp+7", "0x1.1b0e44d652a69p+7",
        "0x1.1fbafdfb0cd41p+7",
    ),
}

# (m0|m1, seed) -> float.hex() of dn_estimate.
GOLDEN_DN = {
    ("pa|uniform", 1): "0x1.f9a6409c7c83ap+5",
    ("pa|uniform", 2): "0x1.ef82098c01b42p+5",
    ("pa|uniform", 3): "0x1.f30aba69975a3p+5",
    ("pa|uniform", 7919): "0x1.efc7e0b30d64bp+5",
    ("affine-pa(2.5,3)|pa(3)", 1): "0x1.0876c14d842b1p+3",
    ("affine-pa(2.5,3)|pa(3)", 2): "0x1.0b83a88a25c8ep+3",
    ("affine-pa(2.5,3)|pa(3)", 3): "0x1.0ac35ef940a93p+3",
    ("affine-pa(2.5,3)|pa(3)", 7919): "0x1.0f680b7ad0b57p+3",
}

# null/alt -> (null model, alternative model); each runs the success-rate
# experiment with D = 12, n_values (40, 150) and 6 replications per hypothesis.
SUCCESS_CASES = {
    "pa/uniform": (pref_attach(1), uniform_attach(1)),
    "pa(2)/affine-pa(2.5,2)": (pref_attach(2), affine_pref_attach(2.5, 2)),
}
SUCCESS_ALPHA = {"sampled": SampledAlpha(4), "fixed": FixedAlpha(6.0)}

# (null/alt, alpha mode, seed) -> each success-rate experiment_table row, its floats
# as float.hex(). Recorded when every replication was drawn by its own
# sample_trajectory call and decided by test_dynamic_graph.
GOLDEN_SUCCESS = {
    ("pa/uniform", "sampled", 1): (
        (40, "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p-1",
         "0x1.b0020b2d6277bp+3", "0x1.bf2a0415434fdp+3", "0x1.19d532e5e76d0p+4"),
        (150, "0x1.0000000000000p+0", "0x1.aaaaaaaaaaaabp-1", "0x1.d555555555556p-1",
         "0x1.7fe7951ec518fp+5", "0x1.c6c678ea1254bp+5", "0x1.b33fb1ace03c2p+5"),
    ),
    ("pa/uniform", "sampled", 7919): (
        (40, "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p-1",
         "0x1.97a9044c8b740p+3", "0x1.de9dafe58ff45p+3", "0x1.1d53c2ca97fa9p+4"),
        (150, "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.788310c8d450cp+5", "0x1.c9689559bf567p+5", "0x1.a0d0cb6131933p+5"),
    ),
    ("pa/uniform", "fixed", 1): (
        (40, "0x1.5555555555555p-3", "0x1.0000000000000p+0", "0x1.2aaaaaaaaaaabp-1",
         "0x1.b0020b2d6277bp+3", "0x1.bf2a0415434fdp+3", "0x1.8000000000000p+3"),
        (150, "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
         "0x1.7fe7951ec518fp+5", "0x1.c6c678ea1254bp+5", "0x1.8000000000000p+3"),
    ),
    ("pa/uniform", "fixed", 7919): (
        (40, "0x1.0000000000000p-1", "0x1.0000000000000p+0", "0x1.8000000000000p-1",
         "0x1.97a9044c8b740p+3", "0x1.de9dafe58ff45p+3", "0x1.8000000000000p+3"),
        (150, "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
         "0x1.788310c8d450cp+5", "0x1.c9689559bf567p+5", "0x1.8000000000000p+3"),
    ),
    ("pa(2)/affine-pa(2.5,2)", "sampled", 1): (
        (40, "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p-1",
         "0x1.55d3ef9f73141p+3", "0x1.47edd568cb009p+3", "0x1.07bb62452fe78p+4"),
        (150, "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p-1",
         "0x1.3b5290cb27f15p+5", "0x1.5673a6c727fcbp+5", "0x1.72a03767d8af6p+5"),
    ),
    ("pa(2)/affine-pa(2.5,2)", "sampled", 7919): (
        (40, "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p-1",
         "0x1.532f8214dae07p+3", "0x1.6ee27fe6ee5d3p+3", "0x1.fe6a9737d32adp+3"),
        (150, "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p-1",
         "0x1.3d812adc04da5p+5", "0x1.60d303580eaedp+5", "0x1.6f6abebfcb04ep+5"),
    ),
    ("pa(2)/affine-pa(2.5,2)", "fixed", 1): (
        (40, "0x1.aaaaaaaaaaaabp-1", "0x0.0p+0", "0x1.aaaaaaaaaaaabp-2",
         "0x1.55d3ef9f73141p+3", "0x1.47edd568cb009p+3", "0x1.8000000000000p+3"),
        (150, "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
         "0x1.3b5290cb27f15p+5", "0x1.5673a6c727fcbp+5", "0x1.8000000000000p+3"),
    ),
    ("pa(2)/affine-pa(2.5,2)", "fixed", 7919): (
        (40, "0x1.0000000000000p+0", "0x1.5555555555555p-2", "0x1.5555555555555p-1",
         "0x1.532f8214dae07p+3", "0x1.6ee27fe6ee5d3p+3", "0x1.8000000000000p+3"),
        (150, "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
         "0x1.3d812adc04da5p+5", "0x1.60d303580eaedp+5", "0x1.8000000000000p+3"),
    ),
}

# (model label, n) -> sha256 of the choices of sample_trajectory on SEEDS, in order.
GOLDEN_CHOICES = {
    ("pa(m=1)", 2): "5e4ffd7d196e150659e625599778aa9c37538bb184fce71b42b1d5b339f2aeec",
    ("pa(m=1)", 3): "4bceb969a21579c6bc5a0fcbb54aa78d88778821db0846e1b49a71df6ed1f0f0",
    ("pa(m=1)", 1000): "733e2ecd8de7ca1d072164a4b0a0f2f68007d6eb867c3f8716a267d4c60bf0ee",
    ("pa(m=3)", 2): "99bb8dface617aff037e050e6c51d0f8c4adb7bad06498d69e24f9d58c2adfc5",
    ("pa(m=3)", 3): "c504e82ec954b81c029b9485c52d710d8110d9ee3d4b6ee4150814ce842f74f5",
    ("pa(m=3)", 1000): "2fa58a6aada8635c77a8c386885ef4ea33a8b11fb469dcf9d744e70796f4fa8b",
    ("uniform(m=2)", 2): "4bceb969a21579c6bc5a0fcbb54aa78d88778821db0846e1b49a71df6ed1f0f0",
    ("uniform(m=2)", 3): "c8434c4ab29568d3503f1ddd5fd4e3fcc9a67ade06e0e97d81cf58b040d712da",
    ("uniform(m=2)", 1000): "4787cab102d44a7315fa1b9bfbdf4c8deb9755a114eae2165573f82193512fc5",
    ("affine-pa(a=1,m=2)", 2): "4bceb969a21579c6bc5a0fcbb54aa78d88778821db0846e1b49a71df6ed1f0f0",
    ("affine-pa(a=1,m=2)", 3): "fd1c5cfe54407d96f2547a1c69e2eaee863ad6be79f059b7df66fbe0ea49c08f",
    ("affine-pa(a=1,m=2)", 1000): "a5ce5dcc7ca4469b2177abed44ac7099c9d12f8383c3147cda967d03def1f834",
    ("affine-pa(a=2.5,m=3)", 2): "99bb8dface617aff037e050e6c51d0f8c4adb7bad06498d69e24f9d58c2adfc5",
    ("affine-pa(a=2.5,m=3)", 3): "fc909c39c962292d7917e9029a41bf8560ec12ee4375f078c93ae39e37c3ff80",
    ("affine-pa(a=2.5,m=3)", 1000): "5cdacea7d894a064c10ca05dadb885e76a28012d256d6ab5ddd051a061018338",
    # Long pointer chains; recorded when the urn was decoded with np.divmod and masked writes.
    ("pa(m=1)", 200_000): "9f42bf6e8ee0f523eb8ec270fd20ec6baf35207fb3c5c00478e381b62adb91da",
    ("affine-pa(a=1,m=2)", 200_000): "01ad4a6ff991283c2087185ff0ecb6b51a8d4203e368fd8d05b145cb03ebe543",
}
# sha256 of the K = 3 stack sample_choices(affine-pa(a=2.5, m=3), 50 000, GOLDEN_STACK_SEEDS), recorded with the above.
GOLDEN_STACK_SEEDS = (1, 2, 7919)
GOLDEN_STACK = "a631e0dcb274ff77adab849520d1359c58fab6329f2c219a9edb533e58a90129"


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("case, seed", list(GOLDEN_STATISTIC), ids=lambda v: str(v))
def test_statistic_samples_bits_unchanged(case, seed):
    gen, null, n, replications = STATISTIC_CASES[case]
    values = statistic_samples(gen, n, TestConfig(null_model=null, D=1.0), replications, seed)
    assert [float(v).hex() for v in values] == list(GOLDEN_STATISTIC[case, seed])


@pytest.mark.parametrize("case, seed", list(GOLDEN_DN), ids=lambda v: str(v))
def test_dn_estimate_bits_unchanged(case, seed):
    assert dn_estimate(*DN_CASES[case], seed).hex() == GOLDEN_DN[case, seed]


@pytest.mark.parametrize("case, mode, seed", list(GOLDEN_SUCCESS), ids=lambda v: str(v))
def test_success_experiment_bits_unchanged(case, mode, seed):
    null, alt = SUCCESS_CASES[case]
    tc = TestConfig(null_model=null, D=12.0, alpha_mode=SUCCESS_ALPHA[mode], seed=seed)
    rows = experiment_table(ExperimentConfig(experiment="success-rate", null_model=null, alt_model=alt,
                                             n_values=(40, 150), replications=6, test_config=tc)).rows
    got = tuple(tuple(v if isinstance(v, int) else float(v).hex() for v in row) for row in rows)
    assert got == GOLDEN_SUCCESS[case, mode, seed]


@pytest.mark.parametrize("label, n", list(GOLDEN_CHOICES), ids=lambda v: str(v))
def test_sample_trajectory_choices_unchanged(label, n):
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(sample_trajectory(CHOICE_MODELS[label], n, seed).choices.tobytes())
    assert h.hexdigest() == GOLDEN_CHOICES[label, n]


def test_stack_choices_unchanged():
    stack = sample_choices(affine_pref_attach(2.5, 3), 50_000, list(GOLDEN_STACK_SEEDS))
    assert stack.shape == (3, 49_999, 3)
    assert hashlib.sha256(stack.tobytes()).hexdigest() == GOLDEN_STACK


def kinds(m):
    return [pref_attach(m), uniform_attach(m)] + [affine_pref_attach(a, m) for a in (0.0, 0.5, 1.0, 2.5)]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("reps", [1, 2, 9])
def test_stack_rows_are_the_lone_trajectories(reps, m):
    draw = np.random.default_rng([reps, m, 29])
    for model in kinds(m):
        for n in (2, 3, int(draw.integers(4, 400))):
            seeds = [int(s) for s in draw.integers(1 << 62, size=reps)]
            stack = sample_choices(model, n, seeds)
            assert stack.shape == (reps, n - 1, m) and stack.dtype == np.int64
            for k, seed in enumerate(seeds):
                np.testing.assert_array_equal(stack[k], sample_trajectory(model, n, seed).choices)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_dn_matches_each_summand(m):
    draw = np.random.default_rng([m, 41])
    pool = kinds(m)
    for i, m0 in enumerate(pool):
        m1 = pool[(i + 1 + m) % len(pool)]
        for n in (2, 3, int(draw.integers(4, 300))):
            seeds = [int(s) for s in draw.integers(1 << 62, size=int(draw.integers(2, 10)))]
            got = dn_summands(m0, m1, sample_choices(m1, n, seeds))
            want = [dn_summands(m0, m1, sample_trajectory(m1, n, seed).choices[None])[0] for seed in seeds]
            np.testing.assert_array_equal(bits(got), bits(want))


@pytest.mark.parametrize("budget", [1, 7, 600, 10**6])
def test_dn_block_size_does_not_change_bits(budget, monkeypatch):
    m0, m1 = affine_pref_attach(0.5, 2), pref_attach(2)
    want = dn_estimate(m0, m1, 150, 23, seed=budget)
    monkeypatch.setattr(sampling, "BATCH_ELEMENTS", budget)
    assert dn_estimate(m0, m1, 150, 23, seed=budget).hex() == want.hex()


def test_stack_range_is_checked_once_with_the_trajectory_message(monkeypatch):
    def corrupt(model, n, seeds):
        choices = sample_choices(model, n, seeds)
        choices[-1, -1, -1] = n  # arrival n may target at most n - 1
        return choices

    monkeypatch.setattr(gof, "sample_choices", corrupt)
    cfg = TestConfig(null_model=pref_attach(), D=1.0)
    with pytest.raises(ValueError, match=r"choice targets must lie in \{1, \.\.\., t-1\}"):
        statistic_samples(pref_attach(), 100, cfg, 5, seed=1)
    with pytest.raises(ValueError, match=r"choice targets must lie in \{1, \.\.\., t-1\}"):
        dn_estimate(uniform_attach(), pref_attach(), 100, 5, seed=1)


def test_lone_trajectory_is_sampled_in_place():
    # A block of one draws into its own arrays and is not copied into a stack.
    model = affine_pref_attach(1.0, 2)
    sample_trajectory(model, 100, 1)
    tracemalloc.start()
    try:
        traj = sample_trajectory(model, 20000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * traj.choices.nbytes


def test_urn_decode_adds_no_array_of_the_choices_size():
    # x, r and a few bool masks: 3.50x the choices here. One more int64 array of the choices' size reads >= 4.1x.
    sample_choices(pref_attach(1), 100, [1])
    tracemalloc.start()
    try:
        choices = sample_choices(pref_attach(1), 200_000, [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.75 * choices.nbytes


def expected_block_count(reps, n, m):
    return min(reps, max(1, round(reps * (n - 1) * m / sampling.BATCH_ELEMENTS)))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("reps", [1, 2, 3, 7, 10, 12, 32])
def test_block_split_rule(reps, m):
    seeds = list(range(100, 100 + reps))
    for n in (2, 3, 300, 500, 700, 1000, 1366, 2049, 4097, 6000):
        blocks = list(gof.replication_blocks(pref_attach(m), n, seeds))
        ranges = [block for block, _ in blocks]
        assert [r.step for r in ranges] == [1] * len(ranges)
        assert [r.start for r in ranges] == [0] + [r.stop for r in ranges[:-1]]
        assert ranges[-1].stop == reps
        sizes = [len(r) for r in ranges]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert len(ranges) == expected_block_count(reps, n, m)
        if (n - 1) * m >= sampling.BATCH_ELEMENTS:
            assert sizes == [1] * reps
        for block, choices in blocks:
            assert choices.shape == (len(block), n - 1, m)


@pytest.mark.parametrize("n, reps, sizes", [
    (500, 10, [10]), (1000, 8, [4, 4]), (1000, 32, [4] * 8), (1000, 10, [5, 5]), (5000, 3, [1, 1, 1]),
])
def test_block_split_examples(n, reps, sizes):
    got = [len(block) for block, _ in gof.replication_blocks(pref_attach(1), n, list(range(reps)))]
    assert got == sizes
