import numpy as np
import pytest

from oracles import mul, reshape, sum_all
from spdg.errors import ConfigError
from spdg.prompter import (
    SIGMA_FLOOR,
    BasicPrompter,
    basic_forward,
    gaussian_forward,
    init_basic_prompter,
    init_gaussian_prompter,
    load_checkpoint,
    sample_styles_batch,
    save_checkpoint,
    style_for_prompt,
)
from spdg.tensor import Tape, Tensor, finite_diff_grad_check

D_I, D_T = 16, 8


@pytest.fixture()
def basic():
    return init_basic_prompter(D_I, D_T, seed=5)


@pytest.fixture()
def gaussian():
    return init_gaussian_prompter(D_I, D_T, seed=5)


class TestBasicForward:
    def test_zero_params_zero_output(self):
        zeros = [Tensor(np.zeros(s), requires_grad=True) for s in
                 [(D_I, D_I // 2), (D_I // 2,), (D_I // 2, D_I // 2), (D_I // 2,),
                  (D_I // 2, D_T), (D_T,)]]
        p = BasicPrompter(*zeros)
        out = basic_forward(p, Tensor(np.ones((3, D_I))))
        assert np.array_equal(out.data, np.zeros((3, D_T)))

    def test_distinct_rows_distinct_outputs(self, basic, rng):
        z = rng.normal(size=(2, D_I))
        out = basic_forward(basic, Tensor(z)).data
        assert not np.allclose(out[0], out[1])

    def test_gradient_every_parameter(self, basic, rng):
        z = rng.normal(size=(4, D_I))
        probe = rng.normal(size=(4, D_T))
        for name, param in basic.parameters():
            def f(x, name=name):
                stand_in = BasicPrompter(**{k: (x if k == name else v)
                                            for k, v in basic.parameters()})
                return sum_all(mul(basic_forward(stand_in, Tensor(z)), Tensor(probe)))
            assert finite_diff_grad_check(f, param) < 1e-5, name

    def test_odd_d_i_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            init_basic_prompter(15, D_T, seed=0)

    def test_parameter_count_formula(self, basic):
        h = D_I // 2
        assert sum(p.size for _, p in basic.parameters()) == D_I * h + h + h * h + h + h * D_T + D_T


class TestGaussianForward:
    def test_sigma_positive_everywhere(self, gaussian):
        z = np.random.default_rng(0).normal(size=(1000, D_I))
        _, sigma = gaussian_forward(gaussian, Tensor(z))
        assert (sigma.data > 0).all()

    def test_sigma_floor_limit(self, gaussian, rng):
        gaussian.b_sigma.data = np.full(D_T, -40.0)
        gaussian.w_sigma.data = np.zeros((D_I // 2, D_T))
        _, sigma = gaussian_forward(gaussian, Tensor(rng.normal(size=(2, D_I))))
        assert np.allclose(sigma.data, SIGMA_FLOOR, atol=1e-12)

    def test_mu_path_gradient(self, gaussian, rng):
        z = rng.normal(size=(3, D_I))
        probe = rng.normal(size=(3, D_T))

        def f(x):
            stand_in = dict(gaussian.parameters())
            stand_in["w_mu"] = x
            p = type(gaussian)(**stand_in, sigma_floor=gaussian.sigma_floor)
            mu, _ = gaussian_forward(p, Tensor(z))
            return sum_all(mul(mu, Tensor(probe)))

        assert finite_diff_grad_check(f, gaussian.w_mu) < 1e-5

    def test_initial_sigma_near_point_one(self, gaussian, rng):
        _, sigma = gaussian_forward(gaussian, Tensor(np.zeros((1, D_I))))
        assert np.allclose(sigma.data, 0.1, atol=1e-9)

    def test_parameter_count_formula(self, gaussian):
        h = D_I // 2
        assert sum(p.size for _, p in gaussian.parameters()) == \
            D_I * h + h + h * h + h + 2 * (h * D_T + D_T)


def sample_one(mu: Tensor, sigma: Tensor, n: int, rng) -> Tensor:
    """n draws for a single (mu, sigma) pair: a one-row sample_styles_batch."""
    return sample_styles_batch(reshape(mu, (1, D_T)), reshape(sigma, (1, D_T)), n, rng)


class TestSampleStyles:
    def _dist(self, rng):
        return Tensor(rng.normal(size=D_T)), Tensor(np.abs(rng.normal(size=D_T)) + 0.05)

    def test_zero_eps_returns_mu(self, rng):
        class ZeroRng:
            def standard_normal(self, shape):
                return np.zeros(shape)

        mu, sigma = self._dist(rng)
        out = sample_one(mu, sigma, 5, ZeroRng())
        assert np.allclose(out.data, mu.data[None, :], atol=1e-15)

    def test_sigma_floor_collapse(self, rng):
        mu = Tensor(rng.normal(size=D_T))
        out = sample_one(mu, Tensor(np.full(D_T, SIGMA_FLOOR)), 50, np.random.default_rng(0))
        assert np.abs(out.data - mu.data).max() < 1e-4

    def test_law_of_large_numbers(self, rng):
        mu, sigma = self._dist(rng)
        n = 100_000
        out = sample_one(mu, sigma, n, np.random.default_rng(42)).data
        mu, sigma = mu.data, sigma.data
        assert (np.abs(out.mean(axis=0) - mu) <= 4 * sigma / np.sqrt(n)).all()
        assert (np.abs(out.std(axis=0) - sigma) <= 0.05 * sigma).all()

    def test_zero_count_rejected(self, rng):
        with pytest.raises(ConfigError):
            sample_one(*self._dist(rng), 0, np.random.default_rng(0))

    def test_fixed_seed_bit_reproducible(self, rng):
        mu, sigma = self._dist(rng)
        a = sample_one(mu, sigma, 16, np.random.default_rng(9)).data
        b = sample_one(mu, sigma, 16, np.random.default_rng(9)).data
        assert np.array_equal(a, b)

    def test_gradient_flows_through_mu_and_sigma(self, rng):
        eps = np.random.default_rng(3).standard_normal((6, D_T))
        probe = rng.normal(size=(6, D_T))

        class FixedRng:
            def standard_normal(self, shape):
                return eps

        def f_mu(x):
            out = sample_one(x, Tensor(np.full(D_T, 0.3)), 6, FixedRng())
            return sum_all(mul(out, Tensor(probe)))

        def f_sigma(x):
            return sum_all(mul(sample_one(Tensor(np.zeros(D_T)), x, 6, FixedRng()), Tensor(probe)))

        assert finite_diff_grad_check(f_mu, Tensor(rng.normal(size=D_T))) < 1e-7
        assert finite_diff_grad_check(f_sigma, Tensor(np.abs(rng.normal(size=D_T)) + 0.5)) < 1e-7


class TestStyleForPrompt:
    def test_gaussian_returns_mu_exactly(self, gaussian, rng):
        for z in (rng.normal(size=(3, D_I)), rng.normal(size=D_I)):
            mu, _ = gaussian_forward(gaussian, Tensor(z))
            style = style_for_prompt(gaussian, Tensor(z)).data
            assert style.shape == mu.data.shape and np.array_equal(style, mu.data)

    def test_basic_returns_forward_exactly(self, basic, rng):
        for z in (rng.normal(size=(3, D_I)), rng.normal(size=D_I)):
            style = style_for_prompt(basic, Tensor(z)).data
            want = basic_forward(basic, Tensor(z)).data
            assert style.shape == want.shape and np.array_equal(style, want)

    @pytest.mark.parametrize("kind", ["basic", "gaussian"])
    def test_records_no_tape_node(self, basic, gaussian, rng, kind):
        z = Tensor(rng.normal(size=(3, D_I)), requires_grad=True)
        with Tape() as tape:
            style = style_for_prompt(basic if kind == "basic" else gaussian, z)
        assert len(tape) == 0
        assert not style.requires_grad

    def test_deterministic_across_calls(self, gaussian, rng):
        z = Tensor(rng.normal(size=(2, D_I)))
        assert np.array_equal(style_for_prompt(gaussian, z).data,
                              style_for_prompt(gaussian, z).data)


class TestCheckpointIO:
    @pytest.mark.parametrize("kind", ["basic", "gaussian"])
    def test_round_trip_bit_exact(self, kind, tmp_path, basic, gaussian):
        p = basic if kind == "basic" else gaussian
        save_checkpoint(p, tmp_path / "ckpt", run_config={"note": "fixture"})
        loaded, manifest = load_checkpoint(tmp_path / "ckpt")
        assert manifest["prompter_kind"] == kind
        for (name, a), (_, b) in zip(p.parameters(), loaded.parameters()):
            assert np.array_equal(a.data, b.data), name

    def test_gaussian_forward_single_vector(self, gaussian, rng):
        mu, sigma = gaussian_forward(gaussian, Tensor(rng.normal(size=D_I)))
        assert mu.data.shape == sigma.data.shape == (D_T,)
        assert (sigma.data > 0).all()
