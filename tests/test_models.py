import dataclasses
import itertools

import numpy as np
import pytest

from dyngof.models import (
    DegreeState,
    IncrementalReplay,
    ModelSpec,
    ProbVector,
    Trajectory,
    affine_pref_attach,
    final_degrees,
    pref_attach,
    read_trajectory,
    replay,
    sample_choices,
    sample_trajectory,
    sorted_hits,
    step_distribution,
    uniform_attach,
    write_trajectory,
)

ALL_MODELS = [pref_attach(), uniform_attach(), affine_pref_attach(1.0)]


def state_with(degrees):
    arr = np.asarray(degrees, dtype=np.int64)
    return DegreeState(t=len(arr), degrees=arr)


def reference_degrees(traj, t):
    """Degrees after arrival t, one arrival at a time, from the definition."""
    degrees = [2 * traj.m]
    for s in range(2, t + 1):
        for v in traj.choices[s - 2]:
            degrees[v - 1] += 1
        degrees.append(traj.m)
    return degrees


def sampled_in_blocks(model, n, reps, block=1000):
    """The flat choices of sample_trajectory(model, n, seed) for seeds 0..reps-1, as lists.

    Drawn through sample_choices in blocks: row k of a block is the lone
    trajectory of that block's k-th seed.
    """
    for s0 in range(0, reps, block):
        stack = sample_choices(model, n, list(range(s0, min(s0 + block, reps))))
        yield from stack.reshape(len(stack), -1).tolist()


class TestStepDistribution:
    def test_single_vertex_takes_all_mass(self):
        probs = step_distribution(pref_attach(), state_with([2]))
        assert probs.t == 2
        np.testing.assert_array_equal(probs.mass, [1.0])

    def test_pa_hand_evaluation(self):
        probs = step_distribution(pref_attach(), state_with([3, 1]))
        np.testing.assert_allclose(probs.mass, [0.75, 0.25])

    def test_uniform(self):
        probs = step_distribution(uniform_attach(), state_with([5, 1, 1, 1]))
        np.testing.assert_allclose(probs.mass, [0.25, 0.25, 0.25, 0.25])

    def test_affine_hand_evaluation(self):
        # (deg + a) / (2mt + at) with a=1, m=1, t=2: [4/6, 2/6]
        probs = step_distribution(affine_pref_attach(1.0), state_with([3, 1]))
        np.testing.assert_allclose(probs.mass, [4 / 6, 2 / 6])

    def test_empty_graph_rejected(self):
        empty = DegreeState(t=0, degrees=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="empty graph"):
            step_distribution(pref_attach(), empty)

    @pytest.mark.parametrize("model", ALL_MODELS + [affine_pref_attach(0.37)])
    @pytest.mark.parametrize("m", [1, 3])
    def test_mass_is_the_kernel_on_each_degree(self, model, m):
        model = ModelSpec(model.kind, m=m, a=model.a)
        traj = sample_trajectory(model, 120, seed=5)
        for t in (1, 2, 30, 119):
            state = replay(traj, t)
            mass = step_distribution(model, state).mass
            for v in range(1, t + 1):
                assert mass[v - 1] == model.attachment_probability(int(state.degrees[v - 1]), t)

    @pytest.mark.parametrize("model", ALL_MODELS + [affine_pref_attach(0.37)])
    def test_mass_matches_exact_rationals(self, model):
        from dyngof.oracle import _exact_step_probs

        traj = sample_trajectory(model, 150, seed=8)
        for t in (1, 2, 3, 40, 149):
            state = replay(traj, t)
            exact = _exact_step_probs(model, state.degrees.tolist())
            mass = step_distribution(model, state).mass
            assert np.max(np.abs(mass - np.array([float(p) for p in exact]))) <= 1e-15

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("m", [1, 3])
    def test_normalization_on_reachable_states(self, model, m):
        model = ModelSpec(model.kind, m=m, a=model.a)
        traj = sample_trajectory(model, 200, seed=91)
        for t in (1, 2, 17, 200):
            probs = step_distribution(model, replay(traj, t))
            assert abs(float(np.sum(probs.mass)) - 1.0) <= 1e-12
            assert np.all(probs.mass >= 0)


# Hex bits of ModelSpec.attachment_probability, recorded from the release
# that evaluated the rule per mechanism (a constant fill for uniform, the
# shift skipped when zero). Per model: a scalar degree at t = 1 and 999,
# then a degree array at t = 1, t = 999 and an array of times.
ATTACHMENT_BITS = {
    ("pa", 0.0, 1): (
        "0x1.4000000000000p+1", "0x1.48020cd014802p-9", "0x1.0000000000000p-1", "0x1.8000000000000p+0",
        "0x1.2800000000000p+4", "0x1.f400000000000p+8", "0x1.06680a4010668p-11", "0x1.899c0f601899cp-10",
        "0x1.2f684bda12f68p-6", "0x1.00419a0290042p-1", "0x1.0000000000000p-1", "0x1.8000000000000p-1",
        "0x1.2f1a9fbe76c8bp-5", "0x1.00419a0290042p-1",
    ),
    ("pa", 0.0, 3): (
        "0x1.aaaaaaaaaaaabp-1", "0x1.b558111570aadp-11", "0x1.0000000000000p-1", "0x1.2aaaaaaaaaaabp+0",
        "0x1.8aaaaaaaaaaabp+2", "0x1.4d55555555555p+7", "0x1.06680a4010668p-11", "0x1.32240bf568779p-10",
        "0x1.948b0fcd6e9e0p-8", "0x1.55accd58c0057p-3", "0x1.0000000000000p-1", "0x1.2aaaaaaaaaaabp-1",
        "0x1.94237fa89e60fp-7", "0x1.55accd58c0057p-3",
    ),
    ("uniform", 0.0, 1): (
        "0x1.0000000000000p+0", "0x1.06680a4010668p-10", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.06680a4010668p-10", "0x1.06680a4010668p-10",
        "0x1.06680a4010668p-10", "0x1.06680a4010668p-10", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
        "0x1.0624dd2f1a9fcp-9", "0x1.06680a4010668p-10",
    ),
    ("uniform", 0.0, 3): (
        "0x1.0000000000000p+0", "0x1.06680a4010668p-10", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.06680a4010668p-10", "0x1.06680a4010668p-10",
        "0x1.06680a4010668p-10", "0x1.06680a4010668p-10", "0x1.0000000000000p+0", "0x1.0000000000000p-1",
        "0x1.0624dd2f1a9fcp-9", "0x1.06680a4010668p-10",
    ),
    ("affine-pa", 0.1, 1): (
        "0x1.36db6db6db6dbp+1", "0x1.3ea2e7e013ea2p-9", "0x1.0c30c30c30c31p-1", "0x1.79e79e79e79e8p+0",
        "0x1.1aaaaaaaaaaabp+4", "0x1.dc3cf3cf3cf3dp+8", "0x1.12e6e62abbd92p-11", "0x1.835ca16ac2e07p-10",
        "0x1.21bd8b5167713p-6", "0x1.e827ed5ab3d7dp-2", "0x1.0c30c30c30c31p-1", "0x1.79e79e79e79e8p-1",
        "0x1.21735ee402bb1p-5", "0x1.e827ed5ab3d7dp-2",
    ),
    ("affine-pa", 0.1, 3): (
        "0x1.ac10c9714fbcep-1", "0x1.b6c7261f9520ep-11", "0x1.04325c53ef369p-1", "0x1.29f79b4758219p+0",
        "0x1.853ef368eb044p+2", "0x1.47e6d1d60864cp+7", "0x1.0ab5495e7dc8cp-11", "0x1.316c8170563c9p-10",
        "0x1.8efc9e4621549p-8", "0x1.501b7da75e731p-3", "0x1.04325c53ef369p-1", "0x1.29f79b4758219p-1",
        "0x1.8e967a469272ep-7", "0x1.501b7da75e731p-3",
    ),
    ("affine-pa", 0.5, 1): (
        "0x1.199999999999ap+1", "0x1.20a5a4e0120a6p-9", "0x1.3333333333333p-1", "0x1.6666666666666p+0",
        "0x1.e000000000000p+3", "0x1.9033333333333p+8", "0x1.3ae33f8013ae3p-11", "0x1.6f5e74c016f5ep-10",
        "0x1.ec0313381ec03p-7", "0x1.9a370b3959a37p-2", "0x1.3333333333333p-1", "0x1.6666666666666p-1",
        "0x1.eb851eb851eb8p-6", "0x1.9a370b3959a37p-2",
    ),
    ("affine-pa", 0.5, 3): (
        "0x1.b13b13b13b13bp-1", "0x1.bc1287801bc13p-11", "0x1.13b13b13b13b1p-1", "0x1.2762762762762p+0",
        "0x1.713b13b13b13bp+2", "0x1.33d89d89d89d9p+7", "0x1.1a976d8011a97p-11", "0x1.2ec6d0c012ec7p-10",
        "0x1.7a7884f017a79p-8", "0x1.3b8ccd8e93b8dp-3", "0x1.13b13b13b13b1p-1", "0x1.2762762762762p-1",
        "0x1.7a17a17a17a18p-7", "0x1.3b8ccd8e93b8dp-3",
    ),
    ("affine-pa", 2.5, 1): (
        "0x1.aaaaaaaaaaaabp+0", "0x1.b558111570aadp-10", "0x1.8e38e38e38e39p-1", "0x1.38e38e38e38e4p+0",
        "0x1.18e38e38e38e4p+3", "0x1.bd8e38e38e38ep+7", "0x1.98300ff1e09f7p-11", "0x1.40b80c87307d4p-10",
        "0x1.1feb0b3f2e707p-7", "0x1.c8b4a1d70e526p-3", "0x1.8e38e38e38e39p-1", "0x1.38e38e38e38e4p-1",
        "0x1.1fa1563e59a83p-6", "0x1.c8b4a1d70e526p-3",
    ),
    ("affine-pa", 2.5, 3): (
        "0x1.c3c3c3c3c3c3cp-1", "0x1.cf11f3f895699p-11", "0x1.4b4b4b4b4b4b5p-1", "0x1.1e1e1e1e1e1e2p+0",
        "0x1.2969696969697p+2", "0x1.d7c3c3c3c3c3cp+6", "0x1.5395b2e97ea2cp-11", "0x1.25471a83d6183p-10",
        "0x1.30dac09d403aep-8", "0x1.e39214c596b1ap-4", "0x1.4b4b4b4b4b4b5p-1", "0x1.1e1e1e1e1e1e2p-1",
        "0x1.308cb5ab6dfd6p-7", "0x1.e39214c596b1ap-4",
    ),
    ("affine-pa", 1e-05, 1): (
        "0x1.3fffc115f402fp+1", "0x1.4801cc52faa16p-9", "0x1.000053e2baa6cp-1", "0x1.7fffd60ea2acap+0",
        "0x1.27ffa44003d9bp+4", "0x1.f3ff5c7d0e2d0p+8", "0x1.0668603c32e4dp-11", "0x1.899be462075aap-10",
        "0x1.2f67edce4d3c7p-6", "0x1.0041463554660p-1", "0x1.000053e2baa6cp-1", "0x1.7fffd60ea2acap-1",
        "0x1.2f1a41cac4747p-5", "0x1.0041463554660p-1",
    ),
    ("affine-pa", 1e-05, 3): (
        "0x1.aaaab3fcc1712p-1", "0x1.b5581aa33db2bp-11", "0x1.00001bf644535p-1", "0x1.2aaaa6019f477p+0",
        "0x1.8aaa868c9269dp+2", "0x1.4d55312498e6ep+7", "0x1.066826e9777e3p-11", "0x1.3224072e81f3ap-10",
        "0x1.948aeac7f41f9p-8", "0x1.55aca84029ecep-3", "0x1.00001bf644535p-1", "0x1.2aaaa6019f477p-1",
        "0x1.94235aac9e1e7p-7", "0x1.55aca84029ecep-3",
    ),
}


@pytest.mark.parametrize("kind, a, m", list(ATTACHMENT_BITS))
def test_attachment_probability_bits_are_pinned(kind, a, m):
    model = ModelSpec(kind, m=m, a=a)
    degrees = np.array([m, 2 * m + 1, 37, 1000])
    cases = [(5, 1), (5, 999), (degrees, 1), (degrees, 999), (degrees, np.array([1, 2, 500, 999]))]
    got = []
    for d, t in cases:
        p = model.attachment_probability(d, t)
        assert np.shape(p) == np.broadcast_shapes(np.shape(d), np.shape(t))
        got += [float(x).hex() for x in np.ravel(p)]
    assert tuple(got) == ATTACHMENT_BITS[kind, a, m]


class TestProbVector:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="negative"):
            ProbVector(t=3, mass=np.array([1.5, -0.5]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            ProbVector(t=3, mass=np.array([0.5, 0.4]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            ProbVector(t=3, mass=np.array([1.0]))


class TestSampleTrajectory:
    def test_n2_forced_choice(self):
        traj = sample_trajectory(pref_attach(), 2, seed=123)
        assert traj.choices.tolist() == [[1]]

    def test_structural_invariants(self):
        traj = sample_trajectory(pref_attach(), 4, seed=7)
        assert traj.n == 4
        assert traj.choices.shape == (3, 1)
        for i, row in enumerate(traj.choices):
            assert all(1 <= v <= i + 1 for v in row)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            sample_trajectory(pref_attach(), 1, seed=0)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_deterministic_given_seed(self, model):
        a = sample_trajectory(model, 300, seed=42)
        b = sample_trajectory(model, 300, seed=42)
        np.testing.assert_array_equal(a.choices, b.choices)
        assert sample_trajectory(model, 300, seed=43).choices.tolist() != a.choices.tolist()

    def test_pa_two_step_probability(self):
        # P[arrivals 2 and 3 both pick vertex 1] = 1 * 3/4 under pa(m=1).
        # Seeds 0..reps-1 in blocks of 1000: row k of a block is the choices
        # of sample_trajectory on that block's k-th seed.
        reps, block = 100_000, 1000
        hits = 0
        for s0 in range(0, reps, block):
            stack = sample_choices(pref_attach(), 3, list(range(s0, s0 + block)))
            hits += int(np.count_nonzero(np.all(stack == 1, axis=(1, 2))))
        p_hat = hits / reps
        sigma = (0.75 * 0.25 / reps) ** 0.5
        assert abs(p_hat - 0.75) <= 3 * sigma

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_affine_with_zero_shift_draws_like_pa(self, m):
        # w = 1: the urn alone is used and no mixing coin is drawn.
        affine = sample_trajectory(ModelSpec("affine-pa", m=m, a=0.0), 300, seed=21)
        pa = sample_trajectory(pref_attach(m), 300, seed=21)
        np.testing.assert_array_equal(affine.choices, pa.choices)

    def test_affine_large_a_approaches_uniform(self):
        # With a huge shift the degree part is negligible.
        model = affine_pref_attach(1e9)
        traj = sample_trajectory(model, 500, seed=5)
        state = replay(traj, 500)
        # max degree under near-uniform attachment stays small
        assert int(state.degrees[1:].max()) < 30

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_sampler_law_matches_exact_enumeration(self, model):
        # frequency of every length-4 trajectory vs its exact probability
        from scipy.stats import chisquare

        from dyngof.oracle import enumerate_trajectories

        exact = enumerate_trajectories(model, 4)
        index = {choices: k for k, (choices, _) in enumerate(exact)}
        reps = 20_000
        observed = np.zeros(len(exact))
        for choices in sampled_in_blocks(model, 4, reps):
            observed[index[tuple(choices)]] += 1
        expected = np.array([float(p) * reps for _, p in exact])
        assert chisquare(observed, expected).pvalue > 0.01

    @pytest.mark.parametrize("model", [pref_attach(), affine_pref_attach(0.5), affine_pref_attach(2.5)],
                             ids=lambda model: model.label)
    def test_urn_law_matches_exact_enumeration_n5(self, model):
        # The urn's slot contents are resolved through pointers to earlier
        # choices; by n = 5 a slot can point at a choice that itself points
        # further back, so a wrong constant-slot rule or an off-by-one
        # pointer moves these frequencies.
        from scipy.stats import chisquare

        from dyngof.oracle import enumerate_trajectories

        exact = enumerate_trajectories(model, 5)
        index = {choices: k for k, (choices, _) in enumerate(exact)}
        reps = 20_000
        observed = np.zeros(len(exact))
        for choices in sampled_in_blocks(model, 5, reps):
            observed[index[tuple(choices)]] += 1
        expected = np.array([float(p) * reps for _, p in exact])
        assert chisquare(observed, expected).pvalue > 0.001


class TestReplay:
    def test_two_attachments_to_root(self):
        traj = Trajectory(3, 1, np.array([[1], [1]]), "pa(m=1)", 0)
        state = replay(traj, 3)
        assert state.degrees.tolist() == [4, 1, 1]

    def test_initial_self_loops(self):
        traj = sample_trajectory(pref_attach(m=3), 5, seed=1)
        assert replay(traj, 1).degrees.tolist() == [6]

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("m", [1, 2])
    def test_total_degree_handshake(self, model, m):
        model = ModelSpec(model.kind, m=m, a=model.a)
        traj = sample_trajectory(model, 50, seed=3)
        for t in (1, 2, 25, 50):
            state = replay(traj, t)
            assert state.degrees.tolist() == reference_degrees(traj, t)
            assert int(state.degrees.sum()) == 2 * m * t
            if model.kind == "pa":
                assert np.all(state.degrees >= 1)

    def test_out_of_range(self):
        traj = sample_trajectory(pref_attach(), 5, seed=1)
        with pytest.raises(ValueError):
            replay(traj, 0)
        with pytest.raises(ValueError):
            replay(traj, 6)
        with pytest.raises(ValueError, match=r"t must be in \[1, 5\]"):
            IncrementalReplay(traj).advance(6)

    def test_incremental_matches_batch(self):
        traj = sample_trajectory(pref_attach(m=2), 80, seed=17)
        scan = IncrementalReplay(traj)
        for t in (1, 2, 3, 10, 41, 80):
            scan.advance(t)
            state = scan.state()
            expected = replay(traj, t)
            assert state.t == expected.t
            np.testing.assert_array_equal(state.degrees, expected.degrees)
            assert state.degrees.tolist() == reference_degrees(traj, t)
            assert int(state.degrees.sum()) == 2 * traj.m * t

    @pytest.mark.parametrize("case", range(30))
    def test_fuzzed_replays_match_per_arrival_reference(self, case):
        rng = np.random.default_rng(case)
        n, m = int(rng.integers(2, 70)), int(rng.integers(1, 4))
        base = ALL_MODELS[case % len(ALL_MODELS)]
        traj = sample_trajectory(ModelSpec(base.kind, m=m, a=base.a), n, seed=case)
        scan = IncrementalReplay(traj)
        # Sorted draws with replacement, so some times repeat.
        for t in np.sort(rng.integers(1, n + 1, size=8)).tolist():
            scan.advance(t)
            scan.advance(t)
            expected = reference_degrees(traj, t)
            for state in (scan.state(), replay(traj, t)):
                assert state.t == t
                assert state.degrees.tolist() == expected
                assert int(state.degrees.sum()) == 2 * m * t


class TestSortedHits:
    @pytest.mark.parametrize("reps", [1, 2, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind, a", [("pa", 0.0), ("uniform", 0.0), ("affine-pa", 2.5)])
    def test_fuzzed_stacks_match_replay(self, kind, a, m, reps):
        model = ModelSpec(kind, m=m, a=a)
        draw = np.random.default_rng([reps, m, len(kind)])
        for n in (2, 3, int(draw.integers(4, 60))):
            seeds = [int(s) for s in draw.integers(1 << 62, size=reps)]
            choices = sample_choices(model, n, seeds)
            key, shift, target, row, rank, degree = sorted_hits(choices)
            total = (n - 1) * m
            # The keys are ordered as a stable argsort by (replication, target, element).
            flat = (choices.reshape(reps, total) + n * np.arange(reps)[:, None]).ravel()
            order = np.argsort(flat, kind="stable")
            k, e = np.divmod(key & ((1 << shift) - 1), n * m)
            np.testing.assert_array_equal(k * total + e, order)
            np.testing.assert_array_equal(target, flat[order])
            np.testing.assert_array_equal(row, k * n + e // m)
            # Each hit's degree is its target's replayed degree before the
            # arrival plus that arrival's earlier hits on it.
            want_degree = np.empty(reps * total, dtype=np.int64)
            want_rank = np.empty_like(want_degree)
            for r, seed in enumerate(seeds):
                scan = IncrementalReplay(Trajectory(n, m, choices[r], model.label, seed))
                hits = choices[r].ravel()
                for i, v in enumerate(hits.tolist()):
                    scan.advance(i // m + 1)
                    earlier = hits[i - i % m : i]
                    want_degree[r * total + i] = scan.state().degrees[v - 1] + np.count_nonzero(earlier == v)
                    want_rank[r * total + i] = np.count_nonzero(hits[:i] == v)
            np.testing.assert_array_equal(degree, want_degree[order])
            np.testing.assert_array_equal(rank, want_rank[order])


class TestFinalDegrees:
    @pytest.mark.parametrize("reps", [1, 2, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind, a", [("pa", 0.0), ("uniform", 0.0), ("affine-pa", 2.5)])
    def test_fuzzed_stacks_match_incremental_replay(self, kind, a, m, reps):
        model = ModelSpec(kind, m=m, a=a)
        draw = np.random.default_rng([reps, m, len(kind), 3])
        for n in (2, 3, int(draw.integers(4, 60))):
            seeds = [int(s) for s in draw.integers(1 << 62, size=reps)]
            choices = sample_choices(model, n, seeds)
            # Every prefix of arrivals is a stack too: the tail diagnostic takes all but the last.
            for t in sorted({1, int(draw.integers(1, n + 1)), n - 1, n}):
                got = final_degrees(choices[:, : t - 1])
                assert got.shape == (reps, t) and got.dtype == np.int64
                for r, seed in enumerate(seeds):
                    scan = IncrementalReplay(Trajectory(n, m, choices[r], model.label, seed))
                    scan.advance(t)
                    np.testing.assert_array_equal(got[r], scan.state().degrees)


class TestPaExactness:
    def test_chained_probabilities_match_product_formula(self):
        # Enumerate every pa(m=1) trajectory of length 5. The probability from
        # chaining step_distribution must match the direct degree-product
        # formula, and the total mass must be 1.
        n = 5
        total = 0.0
        for choice_tuple in itertools.product(*[range(1, t) for t in range(2, n + 1)]):
            choices = np.array(choice_tuple, dtype=np.int64).reshape(-1, 1)
            traj = Trajectory(n, 1, choices, "pa(m=1)", 0)
            chained = 1.0
            for t in range(2, n + 1):
                probs = step_distribution(pref_attach(), replay(traj, t - 1))
                chained *= probs.mass[choice_tuple[t - 2] - 1]
            degrees = {1: 2}
            product = 1.0
            for t in range(2, n + 1):
                product *= degrees[choice_tuple[t - 2]] / (2 * (t - 1))
                degrees[choice_tuple[t - 2]] += 1
                degrees[t] = 1
            assert chained == pytest.approx(product, rel=1e-12)
            total += chained
        assert abs(total - 1.0) <= 1e-10


class TestModelSpec:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("pa", m=0)
        with pytest.raises(ValueError):
            ModelSpec("affine-pa", a=-1.0)
        for a in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ModelSpec("affine-pa", a=a)
        with pytest.raises(ValueError):
            ModelSpec("nonsense")
        for kind, a in (("pa", 1.0), ("uniform", 0.5)):
            with pytest.raises(ValueError, match="a is only meaningful for affine-pa"):
                ModelSpec(kind, a=a)

    @pytest.mark.parametrize("m", [1.5, 2.0, True, "2", None])
    def test_rejects_non_integral_m(self, m):
        with pytest.raises(ValueError, match="expected an integer"):
            ModelSpec("pa", m=m)
        with pytest.raises(ValueError, match="expected an integer"):
            Trajectory(3, m, np.ones((2, 1), dtype=np.int64), "x", 0)

    def test_numpy_integer_m_is_stored_as_int(self):
        model = ModelSpec("pa", m=np.int64(2))
        assert model == pref_attach(2) and type(model.m) is int
        traj = Trajectory(3, np.int64(2), np.ones((2, 2), dtype=np.int64), "x", 0)
        assert type(traj.m) is int
        assert sample_trajectory(model, 5, seed=0).choices.shape == (4, 2)

    def test_replace_rederives_default_label(self):
        assert dataclasses.replace(pref_attach(1), m=3).label == "pa(m=3)"
        assert dataclasses.replace(affine_pref_attach(0.5), a=1.0).label == "affine-pa(a=1,m=1)"
        assert dataclasses.replace(ModelSpec("pa", label="mine"), m=2).label == "mine"
        traj = sample_trajectory(dataclasses.replace(uniform_attach(1), m=2), 5, seed=0)
        assert traj.model_label == "uniform(m=2)"

    def test_label_excluded_from_equality(self):
        assert ModelSpec("pa", label="x") == ModelSpec("pa", label="y")
        assert ModelSpec("pa") != ModelSpec("uniform")

    @pytest.mark.parametrize("label", ["my pa", "pa\t1", "pa\n", " pa"])
    def test_label_with_whitespace_rejected(self, label):
        with pytest.raises(ValueError, match="whitespace"):
            ModelSpec("pa", label=label)

    def test_affine_rule_parameters(self):
        assert (pref_attach(m=2).beta, pref_attach(m=2).shift) == (1, 0.0)
        assert (uniform_attach(m=2).beta, uniform_attach(m=2).shift) == (0, 1.0)
        assert (affine_pref_attach(2.5).beta, affine_pref_attach(2.5).shift) == (1, 2.5)


class TestTrajectoryFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.traj"
        traj = sample_trajectory(affine_pref_attach(0.5, m=2), 40, seed=99)
        write_trajectory(traj, str(path))
        back = read_trajectory(str(path))
        assert (back.n, back.m, back.seed, back.model_label) == (
            traj.n, traj.m, traj.seed, traj.model_label,
        )
        np.testing.assert_array_equal(back.choices, traj.choices)

    @pytest.mark.parametrize(
        "model",
        [ModelSpec(kind, m=m) for kind in ("pa", "uniform") for m in (1, 2, 3)]
        + [affine_pref_attach(a, m=m) for a in (1e-05, 0.5, 2.5) for m in (1, 2, 3)],
        ids=lambda model: model.label,
    )
    def test_round_trip_every_default_label(self, model, tmp_path):
        path = tmp_path / "t.traj"
        traj = sample_trajectory(model, 25, seed=6)
        write_trajectory(traj, str(path))
        back = read_trajectory(str(path))
        assert (back.n, back.m, back.seed, back.model_label) == (
            traj.n, traj.m, traj.seed, model.label,
        )
        np.testing.assert_array_equal(back.choices, traj.choices)

    def test_write_is_deterministic(self, tmp_path):
        traj = sample_trajectory(pref_attach(), 30, seed=4)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_trajectory(traj, str(p1))
        write_trajectory(traj, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_target_at_or_beyond_arrival(self, tmp_path):
        path = tmp_path / "bad.traj"
        path.write_text("dyngof-traj v1 n=3 m=1 model=pa(m=1) seed=0\n1\n3\n")
        with pytest.raises(ValueError, match="out of range"):
            read_trajectory(str(path))

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "short.traj"
        path.write_text("dyngof-traj v1 n=4 m=1 model=pa(m=1) seed=0\n1\n")
        with pytest.raises(ValueError, match="choice lines"):
            read_trajectory(str(path))

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "hdr.traj"
        path.write_text("something-else v1 n=3 m=1 model=x seed=0\n1\n1\n")
        with pytest.raises(ValueError, match="header"):
            read_trajectory(str(path))

    def test_rejects_non_integer_target(self, tmp_path):
        path = tmp_path / "nonint.traj"
        path.write_text("dyngof-traj v1 n=3 m=1 model=pa(m=1) seed=0\n1\nfoo\n")
        with pytest.raises(ValueError, match="non-integer"):
            read_trajectory(str(path))

    @pytest.mark.parametrize("n,body", [(2, "1\n"), (3, "\n\n"), (1, "")])
    def test_rejects_huge_m_before_allocating(self, tmp_path, n, body):
        # An (n-1) x 10**12 int64 array would need 7 TiB; the row check
        # must fail first, or the empty body must allocate nothing.
        path = tmp_path / "huge.traj"
        path.write_text(f"dyngof-traj v1 n={n} m={10**12} model=pa(m=1) seed=0\n{body}")
        if n == 1:
            assert read_trajectory(str(path)).choices.shape == (0, 10**12)
            return
        with pytest.raises(ValueError, match=f"arrival 2: expected {10**12} targets, found"):
            read_trajectory(str(path))


class TestTrajectoryValidation:
    def test_rejects_out_of_range_choice(self):
        with pytest.raises(ValueError):
            Trajectory(3, 1, np.array([[1], [3]]), "x", 0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Trajectory(3, 2, np.array([[1], [1]]), "x", 0)

    def test_rejects_label_with_whitespace(self):
        with pytest.raises(ValueError, match="whitespace"):
            Trajectory(3, 1, np.array([[1], [1]]), "my pa", 0)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError, match="positive integer"):
            Trajectory(3, 0, np.empty((2, 0)), "x", 0)

    @pytest.mark.parametrize("m", [0, -1])
    def test_reader_rejects_nonpositive_m(self, tmp_path, m):
        path = tmp_path / "m.traj"
        path.write_text(f"dyngof-traj v1 n=3 m={m} model=pa(m=1) seed=0\n\n\n")
        with pytest.raises(ValueError, match="positive integer"):
            read_trajectory(str(path))

    def test_choices_frozen(self):
        traj = sample_trajectory(pref_attach(), 5, seed=0)
        with pytest.raises(ValueError):
            traj.choices[0, 0] = 2
