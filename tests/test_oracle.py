from fractions import Fraction

import numpy as np
import pytest

from dyngof import cli
from dyngof.gof import test_statistic
from dyngof.models import Trajectory, affine_pref_attach, pref_attach, uniform_attach
from dyngof.oracle import enumerate_trajectories, exact_dn, exact_expected_statistic
from dyngof.sampling import ProbePlan

PA = pref_attach()
UNI = uniform_attach()
AFF = affine_pref_attach(1.0)


class TestEnumerateTrajectories:
    @pytest.mark.parametrize("model", [PA, UNI, AFF])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_probabilities_sum_to_one_exactly(self, model, n):
        listing = enumerate_trajectories(model, n)
        assert sum(p for _, p in listing) == Fraction(1)
        assert len(listing) == int(np.prod(range(1, n)))

    def test_choices_are_valid(self):
        for choices, prob in enumerate_trajectories(PA, 5):
            assert prob > 0
            assert all(1 <= c <= t - 1 for t, c in enumerate(choices, start=2))

    def test_pa_two_vertex_prefix(self):
        listing = dict(enumerate_trajectories(PA, 3))
        assert listing[(1, 1)] == Fraction(3, 4)
        assert listing[(1, 2)] == Fraction(1, 4)

    def test_instance_limits(self):
        with pytest.raises(ValueError, match="n <= 6"):
            enumerate_trajectories(PA, 7)
        with pytest.raises(ValueError, match="m = 1"):
            enumerate_trajectories(pref_attach(m=2), 4)
        with pytest.raises(ValueError, match="n must be at least 2"):
            enumerate_trajectories(PA, 1)


class TestExactExpectedStatistic:
    def test_degenerate_probe_is_zero(self):
        assert exact_expected_statistic(PA, 4, [2], 2) == 0

    def test_frozen_values(self):
        assert exact_expected_statistic(PA, 4, [2, 3], 2) == Fraction(5, 16)
        assert exact_expected_statistic(PA, 3, [2, 3], 1) == Fraction(3, 8)
        assert exact_expected_statistic(PA, 5, [2, 3, 4], 2) == Fraction(421, 576)

    def test_cross_model_expectation_exceeds_own(self):
        own = exact_expected_statistic(PA, 5, [3, 4], 2)
        cross = exact_expected_statistic(UNI, 5, [3, 4], 2, null_model=PA)
        assert cross > own

    def test_infeasible_probe_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            exact_expected_statistic(PA, 4, [4], 2)
        for width in (0, -1):
            with pytest.raises(ValueError, match="width must be positive"):
                exact_expected_statistic(PA, 4, [2, 3], width)
        with pytest.raises(ValueError, match="need at least one probe"):
            exact_expected_statistic(PA, 4, [], 2)

    def test_matches_float_path_on_full_space(self):
        # probability-weighted test_statistic over every trajectory must
        # reproduce the exact expectation
        plan = ProbePlan(points=np.array([2, 3, 4]), width=2)
        for model in (PA, UNI):
            expected = exact_expected_statistic(model, 5, [2, 3, 4], 2, null_model=PA)
            acc = 0.0
            for choices, prob in enumerate_trajectories(model, 5):
                traj = Trajectory(5, 1, np.array(choices).reshape(-1, 1), model.label, 0)
                acc += float(prob) * test_statistic(traj, PA, plan).S
            assert acc == pytest.approx(float(expected), abs=1e-12)


class TestExactDn:
    def test_identity(self):
        for model in (PA, UNI, AFF):
            assert exact_dn(model, model, 4) == 0

    def test_hand_value(self):
        assert exact_dn(PA, UNI, 3) == Fraction(1, 8)

    def test_nondecreasing_in_n(self):
        values = [exact_dn(PA, UNI, n) for n in range(2, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_asymmetry_permitted(self):
        # the distance is directed; both orientations are just nonnegative
        assert exact_dn(PA, UNI, 5) > 0
        assert exact_dn(UNI, PA, 5) > 0


class TestDispatcher:
    """The functionals the oracle subcommand dispatches on, and its rejection of others."""

    def test_traj_probs(self):
        listing = enumerate_trajectories(PA, 3)
        assert sum(p for _, p in listing) == 1

    def test_expected_s(self):
        value = exact_expected_statistic(PA, 4, [2, 3], 2)
        assert value == Fraction(5, 16)

    def test_dn(self):
        assert exact_dn(PA, UNI, 3) == Fraction(1, 8)

    def test_unknown_functional(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--model", "pa", "--n", "3", "--functional", "nope"])
        assert exc.value.code == 2
