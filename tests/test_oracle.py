import numpy as np
import pytest

from mptraj import (BoundaryCondition, DmpConfig, IntegratorSpec,
                    NumericalError, ValidationError, evaluate_position,
                    integrate_dmp)


def _zero_forcing_closed_form(config, y0, dy0, goal, times):
    k = config.decay_rate
    env = np.exp(-k * times)
    return (goal + (y0 - goal) * (1.0 + k * times) * env
            + dy0 * times * env)


class TestIntegratorSpec:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValidationError, match="unknown integrator"):
            IntegratorSpec("midpoint", 0.01)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValidationError):
            IntegratorSpec("rk4", 0.0)

    @pytest.mark.parametrize("dt", [np.inf, np.nan, -np.inf], ids=["inf", "nan", "-inf"])
    def test_rejects_non_finite_dt(self, dt):
        # an infinite step once passed and gave times [nan]
        with pytest.raises(ValidationError, match="dt must be finite"):
            IntegratorSpec("rk4", dt)

    def test_rejects_string_dt(self):
        # once a TypeError from comparing the string with 0.0
        with pytest.raises(ValidationError, match="dt must be finite and > 0, got '0.1'$"):
            IntegratorSpec("rk4", "0.1")


class TestInputs:
    """Inputs integrate_dmp cannot honour are ValidationErrors before any
    step: 1e-300 once ended in numpy's "Maximum allowed size exceeded",
    1e-320 in an OverflowError, and a non-finite state or weight in a
    RuntimeWarning or a divergence at step 1."""

    # 3e-6 on the 3 s config asks for 10**6 steps, so 10**6 + 1 times: one
    # more than the bound
    @pytest.mark.parametrize("dt", [3e-6, 1e-9, 1e-300, 1e-320], ids=repr)
    def test_step_count_bounded_before_allocation(self, reference_config, dt):
        with pytest.raises(ValidationError, match="takes more than 1000000 steps"):
            integrate_dmp(np.zeros(reference_config.weight_dim), [0.0], [0.0],
                          reference_config, IntegratorSpec("rk4", dt))

    @pytest.mark.parametrize("which", ["w_g", "y0", "dy0"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_input_rejected(self, reference_config, which, bad):
        inputs = {"w_g": np.zeros(reference_config.weight_dim), "y0": [0.0], "dy0": [0.0]}
        inputs[which] = np.array(inputs[which], dtype=float)
        inputs[which][0] = bad
        with pytest.raises(ValidationError, match=rf"^{which} must be finite$"):
            integrate_dmp(inputs["w_g"], inputs["y0"], inputs["dy0"], reference_config,
                          IntegratorSpec("rk4", 0.05))


class TestGrid:
    def test_divisible_dt_lands_on_duration(self, reference_config):
        w = np.zeros(reference_config.weight_dim)
        times, _, _ = integrate_dmp(w, [0.0], [0.0], reference_config,
                                    IntegratorSpec("rk4", 0.05))
        assert times[0] == 0.0
        assert times[-1] == reference_config.duration
        assert np.all(np.diff(times) > 0)

    def test_awkward_dt_covers_duration(self, reference_config):
        # non-divisible dt: the grid ends at the first step at or past the
        # horizon rather than shortening the final step
        times, _, _ = integrate_dmp(np.zeros(26), [0.0], [0.0], reference_config,
                                    IntegratorSpec("rk4", 0.07))
        assert times[-1] >= reference_config.duration
        assert times[-1] - reference_config.duration < 0.07

    def test_shapes(self, reference_config):
        w = np.zeros(2 * reference_config.weight_dim)
        times, pos, vel = integrate_dmp(w, [0.0, 1.0], [0.0, 0.0], reference_config,
                                        IntegratorSpec("rk4", 0.1))
        assert pos.shape == vel.shape == (2, times.shape[0])

    def test_mismatched_state_rejected(self, reference_config):
        with pytest.raises(ValidationError):
            integrate_dmp(np.zeros(26), [0.0, 1.0], [0.0], reference_config,
                          IntegratorSpec("rk4", 0.1))


class TestAgainstClosedForm:
    def test_equilibrium_is_fixed_point(self, reference_config):
        # at the goal with zero velocity and zero forcing nothing moves
        w = np.zeros(reference_config.weight_dim)
        w[-1] = 1.5
        for method in ("rk4", "explicit-euler"):
            _, pos, vel = integrate_dmp(w, [1.5], [0.0], reference_config,
                                        IntegratorSpec(method, 0.01))
            assert np.max(np.abs(pos - 1.5)) == 0.0
            assert np.max(np.abs(vel)) == 0.0

    def test_rk4_matches_step_response(self, reference_config):
        w = np.zeros(reference_config.weight_dim)
        w[-1] = 2.0
        times, pos, _ = integrate_dmp(w, [0.25], [-0.5], reference_config,
                                      IntegratorSpec("rk4", 1e-3))
        expected = _zero_forcing_closed_form(reference_config, 0.25, -0.5, 2.0, times)
        assert np.max(np.abs(pos[0] - expected)) < 1e-10

    def test_rk4_matches_basis_route(self, reference_bank, reference_config):
        rng = np.random.default_rng(17)
        w = rng.standard_normal(2 * reference_config.weight_dim) * 5.0
        bc = BoundaryCondition(0.0, rng.standard_normal(2),
                               rng.standard_normal(2))
        times, pos, _ = integrate_dmp(w, bc.y_b, bc.dy_b, reference_config,
                                      IntegratorSpec("rk4", 1e-3))
        closed = evaluate_position(w, bc, times, reference_bank)
        scale = np.ptp(closed)
        assert np.max(np.abs(pos - closed)) < 1e-6 * scale


class TestConvergence:
    def test_rk4_is_fourth_order(self, reference_config):
        # halving dt should shrink the error by about 2^4; demand >= 8x
        rng = np.random.default_rng(2)
        w = rng.standard_normal(reference_config.weight_dim) * 3.0
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            times, pos, _ = integrate_dmp(w, [0.1], [0.0], reference_config,
                                          IntegratorSpec("rk4", dt))
            ref_times, ref_pos, _ = integrate_dmp(w, [0.1], [0.0], reference_config,
                                                  IntegratorSpec("rk4", dt / 10))
            step = round(dt / (dt / 10))
            errs.append(np.max(np.abs(pos[0] - ref_pos[0, ::step])))
        assert errs[0] / errs[1] > 8.0
        assert errs[1] / errs[2] > 8.0

    def test_euler_converges_to_rk4(self, reference_config):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(reference_config.weight_dim) * 3.0
        _, ref, _ = integrate_dmp(w, [0.1], [0.0], reference_config,
                                  IntegratorSpec("rk4", 1e-4))
        errs = []
        for dt in (1e-2, 1e-3, 1e-4):
            times, pos, _ = integrate_dmp(w, [0.1], [0.0], reference_config,
                                          IntegratorSpec("explicit-euler", dt))
            step = round(1e-4 / 1e-4 * dt / 1e-4)
            errs.append(np.max(np.abs(pos[0] - ref[0, ::step])))
        assert errs[0] > errs[1] > errs[2]
        # first order: 10x finer dt buys roughly 10x accuracy
        assert errs[0] / errs[1] > 5.0


class TestDivergence:
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_unstable_step_size_reported(self):
        # k*dt = 12.5 is far outside the explicit-euler stability region, so
        # the error amplifies ~11.5x per step and overflows within 3 seconds
        config = DmpConfig(alpha=2500.0, tau=1.0, alpha_x=2.0, num_basis=5,
                           duration=3.0)
        with pytest.raises(NumericalError,
                           match=r"^explicit-euler diverged at step \d+ \(t = "):
            integrate_dmp(np.zeros(6), [1.0], [0.0], config,
                          IntegratorSpec("explicit-euler", 0.01))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_unstable_rk4_step_size_reported(self):
        # k*dt = 12.5 also lies far outside the rk4 stability region
        config = DmpConfig(alpha=2500.0, tau=1.0, alpha_x=2.0, num_basis=5,
                           duration=3.0)
        with pytest.raises(NumericalError, match=r"^rk4 diverged at step \d+ \(t = "):
            integrate_dmp(np.zeros(6), [1.0], [0.0], config, IntegratorSpec("rk4", 0.01))

    def test_same_config_fine_dt_is_stable(self):
        config = DmpConfig(alpha=2500.0, tau=1.0, alpha_x=2.0, num_basis=5,
                           duration=3.0)
        _, pos, _ = integrate_dmp(np.zeros(6), [1.0], [0.0], config,
                                  IntegratorSpec("explicit-euler", 1e-4))
        assert np.all(np.isfinite(pos))
        assert abs(pos[0, -1]) < 1e-3
