import hashlib
import json

import numpy as np
import pytest

from oracles import mul, prompter_shapes, reshape, sum_all
from spdg.blob import write_blob
from spdg.errors import ConfigError, FormatError
from spdg.prompter import (
    PARAMETER_NAMES,
    SIGMA_FLOOR,
    StylePrompter,
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
        zeros = [Tensor(np.zeros(s)) for s in
                 [(D_I, D_I // 2), (D_I // 2,), (D_I // 2, D_I // 2), (D_I // 2,),
                  (D_I // 2, D_T), (D_T,)]]
        p = StylePrompter("basic", dict(zip(PARAMETER_NAMES["basic"], zeros)))
        out = basic_forward(p, np.ones((3, D_I)))
        assert np.array_equal(out.data, np.zeros((3, D_T)))

    def test_distinct_rows_distinct_outputs(self, basic, rng):
        z = rng.normal(size=(2, D_I))
        out = basic_forward(basic, z).data
        assert not np.allclose(out[0], out[1])

    def test_gradient_every_parameter(self, basic, rng):
        z = rng.normal(size=(4, D_I))
        probe = rng.normal(size=(4, D_T))
        names, params = zip(*basic.parameters())

        def f(*stand_ins):
            return sum_all(mul(basic_forward(StylePrompter("basic", dict(zip(names, stand_ins))), z),
                               Tensor(probe)))

        errors = dict(zip(names, finite_diff_grad_check(f, params)))
        assert all(err < 1e-5 for err in errors.values()), errors

    def test_odd_d_i_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            init_basic_prompter(15, D_T, seed=0)

    @pytest.mark.parametrize("init", [init_basic_prompter, init_gaussian_prompter])
    @pytest.mark.parametrize("d_i, d_t", [(1, D_T), (0, D_T), (-2, D_T), (D_I, 1)])
    def test_small_dims_rejected_before_any_draw(self, init, d_i, d_t):
        with pytest.raises(ConfigError, match=f"got d_i={d_i}, d_t={d_t}"):
            init(d_i, d_t, seed=0)

    def test_parameter_count_formula(self, basic):
        h = D_I // 2
        assert sum(p.size for _, p in basic.parameters()) == D_I * h + h + h * h + h + h * D_T + D_T


def _params(kind, d_i=D_I, d_t=D_T, **changed):
    """Zero parameters of a kind's shapes at d_i and d_t, some of them replaced."""
    return {name: Tensor(changed.get(name, np.zeros(shape)))
            for name, shape in prompter_shapes(kind, d_i, d_t).items()}


@pytest.mark.parametrize("kind, params, message", [
    ("mlp", _params("basic"), "unknown prompter_kind 'mlp'"),
    (["gaussian"], _params("gaussian"), "unknown prompter_kind ['gaussian']"),
    ("basic", _params("basic", w2=np.zeros((D_I // 2, D_I // 2 + 1))),
     f"parameter w2 has shape (8, 9), but the basic prompter with d_i={D_I}, d_t={D_T} gives (8, 8)"),
    ("basic", _params("basic", w1=np.zeros((D_I // 2, D_I))), "parameter w1 has shape (8, 16)"),
    ("gaussian", _params("gaussian", b_sigma=np.zeros((1, D_T))), "parameter b_sigma has shape (1, 8)"),
    ("gaussian", _params("gaussian", w_mu=np.zeros(())), f"got d_i={D_I}, d_t=0"),
    ("basic", _params("basic", w1=np.zeros(D_I)), f"parameter w1 has shape ({D_I},)"),
    ("basic", _params("basic", 15), "d_i must be even and >= 2 and d_t >= 2, got d_i=15, d_t=8"),
    ("basic", _params("basic", 0), "got d_i=0, d_t=8"),
    ("gaussian", _params("gaussian", d_t=1), "got d_i=16, d_t=1"),
], ids=["unknown kind", "unhashable kind", "w2 one column wide", "w1 transposed",
        "b_sigma as a row", "w_mu a scalar", "w1 a vector", "odd d_i", "d_i 0", "d_t 1"])
def test_constructor_refuses(kind, params, message):
    with pytest.raises(ConfigError) as err:
        StylePrompter(kind, params)
    assert message in str(err.value)


@pytest.mark.parametrize("init, want", [(init_basic_prompter, "bd2f022f33921402"),
                                        (init_gaussian_prompter, "a95473c02d060843")])
def test_initial_parameters_are_pinned(init, want):
    """Draw order (w1, w2, then the head weights in name order), zero biases and
    the raw-sigma bias: a SHA-256 over each name and its bytes, in parameters() order."""
    digest = hashlib.sha256()
    for name, t in init(64, 32, seed=[7, 1]).parameters():
        digest.update(name.encode())
        digest.update(t.data.tobytes())
    assert digest.hexdigest()[:16] == want


class TestGaussianForward:
    def test_sigma_positive_everywhere(self, gaussian):
        z = np.random.default_rng(0).normal(size=(1000, D_I))
        _, sigma = gaussian_forward(gaussian, z)
        assert (sigma.data > 0).all()

    def test_sigma_floor_limit(self, gaussian, rng):
        gaussian.b_sigma.data = np.full(D_T, -40.0)
        gaussian.w_sigma.data = np.zeros((D_I // 2, D_T))
        _, sigma = gaussian_forward(gaussian, rng.normal(size=(2, D_I)))
        assert np.allclose(sigma.data, SIGMA_FLOOR, atol=1e-12)

    def test_mu_path_gradient(self, gaussian, rng):
        z = rng.normal(size=(3, D_I))
        probe = rng.normal(size=(3, D_T))

        def f(x):
            stand_in = dict(gaussian.parameters())
            stand_in["w_mu"] = x
            p = StylePrompter("gaussian", stand_in)
            mu, _ = gaussian_forward(p, z)
            return sum_all(mul(mu, Tensor(probe)))

        assert finite_diff_grad_check(f, [gaussian.w_mu])[0] < 1e-5

    def test_initial_sigma_near_point_one(self, gaussian, rng):
        _, sigma = gaussian_forward(gaussian, np.zeros((1, D_I)))
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

        assert finite_diff_grad_check(f_mu, [Tensor(rng.normal(size=D_T))])[0] < 1e-7
        assert finite_diff_grad_check(f_sigma, [Tensor(np.abs(rng.normal(size=D_T)) + 0.5)])[0] < 1e-7


class TestStyleForPrompt:
    def test_gaussian_returns_mu_exactly(self, gaussian, rng):
        for z in (rng.normal(size=(3, D_I)), rng.normal(size=D_I)):
            mu, _ = gaussian_forward(gaussian, z)
            style = style_for_prompt(gaussian, z).data
            assert style.shape == mu.data.shape and np.array_equal(style, mu.data)

    def test_basic_returns_forward_exactly(self, basic, rng):
        for z in (rng.normal(size=(3, D_I)), rng.normal(size=D_I)):
            style = style_for_prompt(basic, z).data
            want = basic_forward(basic, z).data
            assert style.shape == want.shape and np.array_equal(style, want)

    @pytest.mark.parametrize("kind", ["basic", "gaussian"])
    def test_records_no_tape_node(self, basic, gaussian, rng, kind):
        z = rng.normal(size=(3, D_I))
        with Tape() as tape:
            style_for_prompt(basic if kind == "basic" else gaussian, z)
        assert len(tape) == 0

    def test_deterministic_across_calls(self, gaussian, rng):
        z = rng.normal(size=(2, D_I))
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

    @pytest.mark.parametrize("kind, floor", [("gaussian", 1e-3), ("gaussian", None),
                                             ("basic", SIGMA_FLOOR)])
    def test_manifest_sigma_floor_other_than_this_builds_is_format_error(
            self, kind, floor, tmp_path, basic, gaussian):
        save_checkpoint(basic if kind == "basic" else gaussian, tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["sigma_floor"] = floor
        manifest.write_text(json.dumps(raw))
        with pytest.raises(FormatError, match="sigma_floor"):
            load_checkpoint(tmp_path / "ckpt")

    def test_odd_d_i_checkpoint_is_format_error(self, tmp_path, basic):
        save_checkpoint(basic, tmp_path / "ckpt")
        for name, shape in prompter_shapes("basic", 15, D_T).items():
            write_blob(tmp_path / "ckpt" / f"{name}.spdg", np.full(shape, 0.1))
        manifest = tmp_path / "ckpt" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                        "dims": {"d_i": 15, "d_t": D_T}}))
        with pytest.raises(FormatError, match="malformed checkpoint: ConfigError: d_i must be even"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("kind", ["conv", ["gaussian"], {"kind": "basic"}], ids=str)
    def test_unknown_prompter_kind_is_format_error(self, kind, tmp_path, gaussian):
        save_checkpoint(gaussian, tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "prompter_kind": kind}))
        with pytest.raises(FormatError, match="prompter_kind"):
            load_checkpoint(tmp_path / "ckpt")

    def test_gaussian_forward_single_vector(self, gaussian, rng):
        mu, sigma = gaussian_forward(gaussian, rng.normal(size=D_I))
        assert mu.data.shape == sigma.data.shape == (D_T,)
        assert (sigma.data > 0).all()
