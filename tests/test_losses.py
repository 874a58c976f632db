import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spdg.losses
from spdg import tensor as T
from oracles import (
    concat_rows,
    constant,
    cross_entropy_from_logits,
    embed_tokens,
    encode_text,
    encode_text_batch,
    fill_style_slot_batch,
    get_row,
    masked_log_sum_exp_rows,
    matmul,
    mean_all,
    mul,
    objective_errors_per_parameter,
    reshape,
    similarity_logits,
    style_regularization_loss,
    sub,
    sum_all,
    transpose,
)
from spdg.encoders import (
    EncoderDims,
    build_bundle,
    default_vocab,
    encode_image,
    style_prompt_text,
    tokenize,
)
from spdg.errors import BatchCompositionError, ConfigError, DegenerateVectorError, NormalizationError
from spdg.losses import (
    LOW_MASS,
    LossParts,
    LossWeights,
    build_reg_anchors,
    domain_discrimination_loss,
    prompt_text_features,
    prompted_ce_and_reg,
    total_loss,
)
from spdg.tensor import Tape, Tensor
from spdg.trainer import MAX_DOMAIN_LOSS_BYTES, stratified_batches

CLASSES = ["dog", "elephant", "guitar", "horse"]
# 1-, 3-, 2- and 1-word names, interleaved so no length group is contiguous
MIXED_CLASSES = ["dog", "hot air balloon", "ice cream", "horse"]


def naive_domain_loss(samples: np.ndarray, domains, tau: float) -> float:
    """Direct double-loop transcription of the contrastive ratio, the oracle."""
    n = samples.shape[0]
    total = 0.0
    for i in range(n):
        num = sum(np.exp(samples[i] @ samples[j] / tau)
                  for j in range(n) if j != i and domains[j] == domains[i])
        den = sum(np.exp(samples[i] @ samples[j] / tau)
                  for j in range(n) if j != i)
        total += -np.log(num / den)
    return total / n


def masked_lse_domain_loss(samples: Tensor, domains, tau: float) -> Tensor:
    """Second oracle: the loss composed from tape primitives, two masked
    log-sum-exps over one similarity matrix, each with its own row max."""
    dom = np.asarray(domains)
    n = samples.data.shape[0]
    same = dom[:, None] == dom[None, :]
    not_self = ~np.eye(n, dtype=bool)
    sims = mul(matmul(samples, transpose(samples)), constant(1.0 / tau))
    log_den = masked_log_sum_exp_rows(sims, not_self)
    log_num = masked_log_sum_exp_rows(sims, same & not_self)
    return mean_all(sub(log_den, log_num))


def loss_and_grad(loss_fn, samples: np.ndarray, domains, tau: float, **kwargs):
    x = Tensor(samples)
    with Tape() as tape:
        loss = loss_fn(x, domains, tau, **kwargs)
    (grad,) = tape.backward(loss, [x])
    return loss.item(), grad


def unit_rows(rng, n, d):
    s = rng.normal(size=(n, d))
    return s / np.linalg.norm(s, axis=1, keepdims=True)


def domains_with_pairs(rng, n, n_domains):
    while True:
        dom = rng.integers(0, n_domains, size=n)
        counts = np.bincount(dom, minlength=n_domains)
        if ((counts == 0) | (counts >= 2)).all():
            return dom


class TestDomainDiscriminationLoss:
    def test_two_samples_same_domain_exactly_zero(self, rng):
        s = unit_rows(rng, 2, 6)
        assert domain_discrimination_loss(Tensor(s), [0, 0], tau=0.7, dtype=np.float64).item() == 0.0

    def test_hand_value_two_domains(self):
        s = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
        val = domain_discrimination_loss(s, [0, 0, 1, 1], tau=1.0, dtype=np.float64).item()
        assert val == pytest.approx(np.log(1 + 2 / np.e), abs=1e-10)

    def test_rotation_invariance(self, rng):
        s = unit_rows(rng, 12, 8)
        dom = domains_with_pairs(rng, 12, 3)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        a = domain_discrimination_loss(Tensor(s), dom, 0.3, dtype=np.float64).item()
        b = domain_discrimination_loss(Tensor(s @ q), dom, 0.3, dtype=np.float64).item()
        assert abs(a - b) < 1e-10

    def test_permutation_invariance(self, rng):
        s = unit_rows(rng, 10, 5)
        dom = domains_with_pairs(rng, 10, 2)
        perm = rng.permutation(10)
        a = domain_discrimination_loss(Tensor(s), dom, 0.2, dtype=np.float64).item()
        b = domain_discrimination_loss(Tensor(s[perm]), dom[perm], 0.2, dtype=np.float64).item()
        assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_oracle_equivalence(self, n, rng):
        s = unit_rows(rng, n, 8)
        dom = domains_with_pairs(rng, n, 3)
        ours = domain_discrimination_loss(Tensor(s), dom, 0.1, dtype=np.float64).item()
        assert ours == pytest.approx(naive_domain_loss(s, dom, 0.1), abs=1e-10)

    def test_matches_composed_oracle_at_trainer_shape(self, rng):
        # 3 domains x 4 images x 40 Monte Carlo draws, as one training step sees them
        s = unit_rows(rng, 480, 32)
        dom = np.repeat(np.arange(3), 4 * 40)
        ours, grad = loss_and_grad(domain_discrimination_loss, s, dom, 0.1, dtype=np.float64)
        ref, ref_grad = loss_and_grad(masked_lse_domain_loss, s, dom, 0.1)
        assert ours == pytest.approx(ref, abs=1e-12)
        assert np.abs(grad - ref_grad).max() <= 1e-15

    def test_matches_composed_oracle_with_interleaved_trainer_domains(self, rng):
        # a real step's domains: 12 images as stratified_batches orders them, 40 draws each
        train = {d: np.arange(60 * d, 60 * (d + 1)) for d in range(3)}
        image_domains = stratified_batches(train, 12, seed=0)[0] // 60
        dom = np.repeat(image_domains, 40)
        assert (np.diff(dom) < 0).any()  # not already sorted by domain
        s = unit_rows(rng, 480, 32)
        ours, grad = loss_and_grad(domain_discrimination_loss, s, dom, 0.1, dtype=np.float64)
        ref, ref_grad = loss_and_grad(masked_lse_domain_loss, s, dom, 0.1)
        assert ours == pytest.approx(ref, abs=1e-12)
        assert np.abs(grad - ref_grad).max() <= 1e-15

    @pytest.mark.parametrize("tau, expected", [(2e-3, 999.5), (1e-3, 1999.0)])
    def test_small_temperature_positives_far_below_row_max(self, tau, expected):
        # every anchor's only positive sits near -1/tau while its row max is near
        # +1/tau, so a single shared row shift underflows the numerator to 0
        v = np.array([1.0, 0.0])
        near_v = np.array([0.999, np.sqrt(1.0 - 0.999 ** 2)])
        s = np.stack([v, -v, near_v, -v])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            val, grad = loss_and_grad(domain_discrimination_loss, s, [0, 0, 1, 1], tau,
                                      dtype=np.float64)
            _, ref_grad = loss_and_grad(masked_lse_domain_loss, s, [0, 0, 1, 1], tau)
        assert np.isfinite(val)
        assert np.isfinite(grad).all()
        assert val == pytest.approx(expected, rel=1e-12)
        assert np.abs(grad - ref_grad).max() <= 1e-12

    def test_only_some_rows_take_the_exact_fallback(self, rng):
        # twelve rows near e1 keep a positive within reach of the shared shift
        # 1/tau; the pairs (+-e2) and (+-e3) hold each other as their only
        # positive at similarity -1/tau, whose numerators underflow under it
        tau = 2e-3
        near_e1 = np.array([1.0, 0.0, 0.0]) + 0.1 * rng.normal(size=(12, 3))
        far = np.array([[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
        far += 0.01 * rng.normal(size=far.shape)
        s = np.concatenate([near_e1, far])
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        dom = np.array([0] * 12 + [1, 1, 2, 2])
        order = rng.permutation(16)
        s, dom = s[order], dom[order]
        sims = s @ s.T / tau - 1.0 / tau
        np.fill_diagonal(sims, -np.inf)
        best_positive = np.where(dom[:, None] == dom, sims, -np.inf).max(axis=1)
        assert (best_positive < -700).sum() == 4 and (best_positive[dom == 0] > -600).all()
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            val, grad = loss_and_grad(domain_discrimination_loss, s, dom, tau, dtype=np.float64)
            ref, ref_grad = loss_and_grad(masked_lse_domain_loss, s, dom, tau)
            naive = naive_domain_loss(s, dom, tau)
        assert val == pytest.approx(ref, rel=1e-12)
        assert val == pytest.approx(naive, rel=1e-12)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_norm_slack_at_tiny_temperature_cannot_overflow(self, rng):
        # rows of norm 1 + 5e-7 pass the unit-norm check, yet at tau = 1e-9 their
        # similarities exceed 1/tau by about 1000; two equal rows sit at the top
        tau = 1e-9
        s = unit_rows(rng, 16, 4)
        s[1] = s[0]
        s *= 1.0 + 5e-7
        dom = np.array([0, 0] + [1, 2, 3] * 4 + [1, 2])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            val, grad = loss_and_grad(domain_discrimination_loss, s, dom, tau, dtype=np.float64)
            ref, ref_grad = loss_and_grad(masked_lse_domain_loss, s, dom, tau)
        assert np.isfinite(val) and val > 0.0
        assert val == pytest.approx(ref, rel=1e-12)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_one_buffer_of_n_by_n(self, rng):
        # E, in float32, is the only N x N array
        n = 480
        x = Tensor(unit_rows(rng, n, 32))
        dom = np.repeat(np.arange(3), n // 3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = domain_discrimination_loss(x, dom, 0.1)
            tape.backward(loss, [x])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * n * n * 4

    # float32 twins of the oracle tests above: the block is float32 and the sums,
    # loss and gradient float64, so the loss stays within F32_LOSS_REL of the
    # oracle's and the gradient within F32_GRAD_REL of the oracle's largest entry
    F32_LOSS_REL = 1e-6
    F32_GRAD_REL = 1e-5

    def assert_float32_close(self, s, dom, tau):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            val, grad = loss_and_grad(domain_discrimination_loss, s, dom, tau, dtype=np.float32)
            ref, ref_grad = loss_and_grad(masked_lse_domain_loss, s, dom, tau)
        assert grad.dtype == np.float64
        assert val == pytest.approx(ref, rel=self.F32_LOSS_REL)
        assert np.abs(grad - ref_grad).max() <= self.F32_GRAD_REL * np.abs(ref_grad).max()

    @pytest.mark.parametrize("tau", [0.1, 0.05])
    def test_float32_matches_composed_oracle_at_trainer_shape(self, rng, tau):
        self.assert_float32_close(unit_rows(rng, 480, 32), np.repeat(np.arange(3), 4 * 40), tau)

    def test_float32_matches_composed_oracle_with_interleaved_trainer_domains(self, rng):
        train = {d: np.arange(60 * d, 60 * (d + 1)) for d in range(3)}
        dom = np.repeat(stratified_batches(train, 12, seed=0)[0] // 60, 40)
        assert (np.diff(dom) < 0).any()
        self.assert_float32_close(unit_rows(rng, 480, 32), dom, 0.1)

    def test_float32_fallback_rows_under_its_low_mass(self, rng, monkeypatch):
        # at tau = 0.03 the pairs (+-e2) and (+-e3), each other's only positive at
        # similarity -1, keep a numerator near exp(-2 / tau) = 1e-29 under the
        # shared shift: normal in float32, but below its LOW_MASS, so exactly
        # those 4 rows take the float64 fallback, which float64 would not take
        tau = 0.03
        near_e1 = np.array([1.0, 0.0, 0.0]) + 0.1 * rng.normal(size=(12, 3))
        far = np.array([[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
        far += 0.01 * rng.normal(size=far.shape)
        s = np.concatenate([near_e1, far])
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        dom = np.array([0] * 12 + [1, 1, 2, 2])
        order = rng.permutation(16)
        s, dom = s[order], dom[order]
        fallback_rows = []
        softmax_rows = spdg.losses._softmax_rows

        def spy(a):
            fallback_rows.append(a.shape[0])
            return softmax_rows(a)

        monkeypatch.setattr(spdg.losses, "_softmax_rows", spy)
        assert LOW_MASS[np.float64] < np.exp(-2.0 / tau) < LOW_MASS[np.float32]
        domain_discrimination_loss(Tensor(s), dom, tau, dtype=np.float64)
        assert fallback_rows == []
        self.assert_float32_close(s, dom, tau)
        assert fallback_rows == [4, 4]
        naive = naive_domain_loss(s, dom, tau)
        assert domain_discrimination_loss(Tensor(s), dom, tau).item() == pytest.approx(
            naive, rel=self.F32_LOSS_REL)

    def test_float32_tiny_temperature_cannot_overflow(self, rng):
        # at tau = 1e-9 a float32 GEMM's rounding alone lifts S - shift by up to
        # about 256, past exp's float32 range; the widened shift absorbs it
        s = unit_rows(rng, 480, 32)
        s[1] = s[0]
        s *= 1.0 + 5e-7
        self.assert_float32_close(s, np.repeat(np.arange(3), 160), 1e-9)

    @pytest.mark.parametrize("n", [2, 480])
    def test_float32_one_domain_exactly_zero(self, rng, n):
        # with one domain num == den bit for bit, so p - q = 0 and every term of the
        # gradient is an exact zero, in either dtype
        s = unit_rows(rng, n, 32)
        for dtype in (np.float32, np.float64):
            val, grad = loss_and_grad(domain_discrimination_loss, s, np.zeros(n), 0.1, dtype=dtype)
            assert val == 0.0
            assert not grad.any()

    # domain blocks of uneven sizes, interleaved in the caller's row order: a first
    # block of 2 rows, and with 5 domains a last one of 2 as well, each a single
    # pair on E's diagonal
    UNEVEN_BLOCKS = {"4 domains": (2, 7, 160, 3), "5 domains": (2, 9, 5, 150, 2)}

    @staticmethod
    def uneven_domains(rng, sizes):
        dom = np.repeat(np.arange(len(sizes)), sizes)
        return unit_rows(rng, dom.size, 32), dom[rng.permutation(dom.size)]

    @pytest.mark.parametrize("sizes", UNEVEN_BLOCKS.values(), ids=UNEVEN_BLOCKS.keys())
    def test_matches_composed_oracle_with_uneven_interleaved_domains(self, rng, sizes):
        s, dom = self.uneven_domains(rng, sizes)
        ours, grad = loss_and_grad(domain_discrimination_loss, s, dom, 0.1, dtype=np.float64)
        ref, ref_grad = loss_and_grad(masked_lse_domain_loss, s, dom, 0.1)
        assert ours == pytest.approx(ref, abs=1e-12)
        assert np.abs(grad - ref_grad).max() <= 1e-15

    @pytest.mark.parametrize("sizes", UNEVEN_BLOCKS.values(), ids=UNEVEN_BLOCKS.keys())
    def test_float32_matches_composed_oracle_with_uneven_interleaved_domains(self, rng, sizes):
        self.assert_float32_close(*self.uneven_domains(rng, sizes), 0.1)

    @staticmethod
    def fallback_in_middle_blocks(rng):
        # as in test_only_some_rows_take_the_exact_fallback, with the rows near e1 split
        # into the first and last domains, so the fallback pairs (+-e2) and (+-e3)
        # are the two middle blocks of four
        near_e1 = np.array([1.0, 0.0, 0.0]) + 0.1 * rng.normal(size=(14, 3))
        far = np.array([[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
        far += 0.01 * rng.normal(size=far.shape)
        s = np.concatenate([near_e1[:8], far, near_e1[8:]])
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        dom = np.array([0] * 8 + [1, 1, 2, 2] + [3] * 6)
        order = rng.permutation(18)
        return s[order], dom[order]

    @pytest.mark.parametrize("dtype, tau", [(np.float64, 2e-3), (np.float32, 0.03)])
    def test_fallback_rows_in_middle_blocks_match_composed_oracle(self, rng, monkeypatch,
                                                                  dtype, tau):
        s, dom = self.fallback_in_middle_blocks(rng)
        fallback_rows = []
        softmax_rows = spdg.losses._softmax_rows

        def spy(a):
            fallback_rows.append(a.shape[0])
            return softmax_rows(a)

        monkeypatch.setattr(spdg.losses, "_softmax_rows", spy)
        if dtype is np.float32:
            self.assert_float32_close(s, dom, tau)
        else:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                val, grad = loss_and_grad(domain_discrimination_loss, s, dom, tau, dtype=dtype)
                ref, ref_grad = loss_and_grad(masked_lse_domain_loss, s, dom, tau)
            assert val == pytest.approx(ref, rel=1e-12)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
        assert fallback_rows == [4, 4]

    def test_float32_is_the_default_and_its_low_mass_bounds_flushed_mass(self):
        assert inspect.signature(domain_discrimination_loss).parameters["dtype"].default is np.float32
        most_rows = math.isqrt(MAX_DOMAIN_LOSS_BYTES // 8)
        for dtype, low_mass in LOW_MASS.items():
            assert most_rows * np.finfo(dtype).tiny < 1e-10 * low_mass

    @pytest.mark.parametrize("dtype", [np.float16, np.longdouble, np.int64, np.complex128,
                                       "float32", None])
    def test_other_dtype_rejected(self, rng, dtype):
        with pytest.raises(ConfigError, match="float32 or float64"):
            domain_discrimination_loss(Tensor(unit_rows(rng, 4, 4)), [0, 0, 1, 1], 0.5,
                                       dtype=dtype)

    @pytest.mark.parametrize("dtype, tau", [(np.float32, 1e-39), (np.float32, 5.8e-39),
                                            (np.float64, 1e-308), (np.float64, 5e-324)])
    def test_tau_whose_inverse_or_shift_overflows_the_block_rejected(self, rng, dtype, tau):
        # below 2 / the dtype's largest value, 1/tau or the shift (about 1/tau) overflows it
        with pytest.raises(ConfigError, match="tau must be in"):
            domain_discrimination_loss(Tensor(unit_rows(rng, 8, 4)), np.repeat([0, 1], 4), tau,
                                       dtype=dtype)

    @pytest.mark.parametrize("tau", [1e-38, 2.0 / float(np.finfo(np.float32).max)],
                             ids=["1e-38", "least"])
    def test_float32_at_the_least_tau_matches_float64(self, rng, tau):
        s, dom = Tensor(unit_rows(rng, 8, 4)), np.repeat([0, 1], 4)
        got = domain_discrimination_loss(s, dom, tau).item()
        assert np.isfinite(got)
        assert got == pytest.approx(domain_discrimination_loss(s, dom, tau, dtype=np.float64).item(),
                                    rel=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, rng, bad):
        s = unit_rows(rng, 480, 32)
        s[7, 3] = bad
        with pytest.raises(NormalizationError, match="finite"):
            domain_discrimination_loss(Tensor(s), np.repeat(np.arange(3), 160), tau=0.1)

    def test_anchor_without_positive_rejected(self, rng):
        s = unit_rows(rng, 3, 4)
        with pytest.raises(BatchCompositionError, match="rows"):
            domain_discrimination_loss(Tensor(s), [0, 0, 1], tau=0.5)

    def test_unnormalized_rows_rejected(self, rng):
        s = unit_rows(rng, 4, 4) * 1.01
        with pytest.raises(NormalizationError):
            domain_discrimination_loss(Tensor(s), [0, 0, 1, 1], tau=0.5)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_temperature_rejected(self, rng, tau):
        with pytest.raises(ConfigError, match="tau must be in"):
            domain_discrimination_loss(Tensor(unit_rows(rng, 4, 4)), [0, 0, 1, 1], tau=tau)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    def test_nonnegative_and_zero_iff_single_domain(self, seed, n_domains):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2 * n_domains, 16))
        s = unit_rows(rng, n, 6)
        dom = domains_with_pairs(rng, n, n_domains)
        val = domain_discrimination_loss(Tensor(s), dom, 0.2).item()
        assert val >= 0.0
        if len(set(dom.tolist())) == 1:
            assert val == 0.0
        else:
            assert val > 0.0


class TestRegAnchors:
    def test_unit_norm_and_deterministic(self, bundle):
        t1 = build_reg_anchors(bundle, CLASSES)
        t2 = build_reg_anchors(bundle, CLASSES)
        assert np.array_equal(t1, t2)
        norms = np.linalg.norm(t1, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_anchor_is_the_mean_of_the_unit_style_texts(self, bundle):
        from spdg.encoders import STYLE_WORDS, domain_style_text
        anchors = build_reg_anchors(bundle, ["dog"])
        feats = [encode_text(bundle, Tensor(bundle.weights["tok_emb"][
            np.asarray(tokenize(domain_style_text(word, "dog"), bundle))])).data
            for word in STYLE_WORDS]
        mean = np.mean([f / np.linalg.norm(f) for f in feats], axis=0)
        assert np.allclose(anchors[0], mean / np.linalg.norm(mean), atol=1e-12)


    def test_grouped_encodes_match_per_text(self, mixed_bundle):
        from spdg.encoders import STYLE_WORDS, domain_style_text
        anchors = build_reg_anchors(mixed_bundle, MIXED_CLASSES)
        for ci, cls in enumerate(MIXED_CLASSES):
            feats = []
            for word in STYLE_WORDS:
                ids = tokenize(domain_style_text(word, cls), mixed_bundle)
                feat = encode_text(mixed_bundle, Tensor(mixed_bundle.weights["tok_emb"][ids])).data
                feats.append(feat / np.linalg.norm(feat))
            mean = np.mean(feats, axis=0)
            assert np.abs(anchors[ci] - mean / np.linalg.norm(mean)).max() <= 1e-12


class TestStyleRegularizationLoss:
    def _anchors(self, rng, d_f=48):
        return unit_rows(rng, len(CLASSES), d_f)

    def test_perfect_alignment_zero(self, rng):
        anchors = self._anchors(rng)
        labels = np.array([0, 1, 2, 3])
        feats = Tensor(anchors[labels] * 3.0)  # scale must not matter
        assert style_regularization_loss(feats, labels, anchors).item() == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_two(self, rng):
        anchors = self._anchors(rng)
        labels = np.array([0, 1])
        feats = Tensor(-anchors[labels])
        assert style_regularization_loss(feats, labels, anchors).item() == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_one(self, rng):
        anchors = self._anchors(rng)
        base = anchors[0]
        other = rng.normal(size=base.shape)
        other -= (other @ base) * base
        feats = Tensor(other[None, :])
        assert style_regularization_loss(feats, [0], anchors).item() == pytest.approx(1.0, abs=1e-10)

    def test_missing_anchor_rejected(self, rng):
        anchors = self._anchors(rng)
        with pytest.raises(ConfigError):
            style_regularization_loss(Tensor(unit_rows(rng, 1, 48)), [7], anchors)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        anchors = self._anchors(rng)
        b = int(rng.integers(1, 9))
        labels = rng.integers(0, len(CLASSES), size=b)
        feats = Tensor(rng.normal(size=(b, 48)) * rng.uniform(0.1, 5.0))
        val = style_regularization_loss(feats, labels, anchors).item()
        assert 0.0 <= val <= 2.0


class TestClassificationLoss:
    def test_uniform_logits_log_c(self):
        logits = Tensor(np.zeros((3, 4)))
        val = cross_entropy_from_logits(logits, np.array([0, 1, 2])).item()
        assert val == pytest.approx(np.log(4), abs=1e-12)

    def test_single_candidate_zero(self):
        val = cross_entropy_from_logits(Tensor(np.zeros((2, 1))), np.array([0, 0])).item()
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_saturated_correct_logits(self):
        scale = 100.0
        logits = np.full((2, 4), -scale)
        logits[0, 1] = scale
        logits[1, 3] = scale
        val = cross_entropy_from_logits(Tensor(logits), np.array([1, 3])).item()
        # softmax by hand: -log(e^s / (e^s + 3 e^-s)) = log(1 + 3 e^-2s)
        assert val == pytest.approx(np.log(1 + 3 * np.exp(-2 * scale)), abs=1e-8)
        assert val < 1e-8

    def test_per_image_constant_shift_invariance(self, rng):
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        a = cross_entropy_from_logits(Tensor(logits), labels).item()
        b = cross_entropy_from_logits(Tensor(logits + rng.normal(size=(5, 1))), labels).item()
        assert abs(a - b) < 1e-10
        assert a >= 0.0

    def test_label_out_of_range_rejected(self, bundle, rng):
        z = rng.normal(size=(2, bundle.dims.d_i))
        styles = Tensor(rng.normal(size=(2, bundle.dims.d_t)))
        with pytest.raises(ConfigError):
            prompted_ce_and_reg(bundle, z, styles, [0, 9], CLASSES)

    @pytest.mark.parametrize("bad", ["zero", "nan"])
    def test_degenerate_image_feature_raises(self, bundle, rng, bad):
        z = encode_image(bundle, rng.normal(size=(3, bundle.dims.d_x)))
        z[1] = 0.0 if bad == "zero" else np.nan   # the projection is bias-free
        styles = Tensor(rng.normal(size=(3, bundle.dims.d_t)))
        with pytest.raises(DegenerateVectorError, match="projected image feature"):
            prompted_ce_and_reg(bundle, z, styles, [0, 1, 2], CLASSES)

    def test_end_to_end_matches_manual(self, bundle, rng):
        """The CE loss equals a from-scratch softmax over per-prompt encodes."""
        z = encode_image(bundle, rng.normal(size=(2, bundle.dims.d_x)))
        styles = rng.normal(size=(2, bundle.dims.d_t))
        labels = np.array([1, 2])
        ours = prompted_ce_and_reg(bundle, z, Tensor(styles), labels, CLASSES)[0].item()

        total = 0.0
        for i in range(2):
            feats = []
            for cls in CLASSES:
                ids = tokenize(style_prompt_text(cls), bundle)
                emb = embed_tokens(bundle, ids, style=Tensor(styles[i]))
                feats.append(encode_text(bundle, emb).data)
            logits = similarity_logits(bundle, z[i], Tensor(np.stack(feats))).data
            total += -(logits[labels[i]] - np.log(np.exp(logits - logits.max()).sum()) - logits.max())
        assert ours == pytest.approx(total / 2, abs=1e-9)


class TestTotalLoss:
    def test_ce_only_when_weights_zero(self, rng):
        parts = LossParts(loss_ce=Tensor(np.asarray(1.25)), loss_d=Tensor(np.asarray(3.0)),
                          loss_reg=Tensor(np.asarray(0.5)))
        weights = LossWeights(w_d=0.0, w_reg=0.0)
        assert total_loss(parts, weights).item() == 1.25

    def test_doubling_w_d_adds_loss_d(self):
        parts = LossParts(loss_ce=Tensor(np.asarray(1.0)), loss_d=Tensor(np.asarray(2.0)))
        a = total_loss(parts, LossWeights(w_d=0.1, w_reg=0.0)).item()
        b = total_loss(parts, LossWeights(w_d=0.2, w_reg=0.0)).item()
        assert b - a == pytest.approx(0.1 * 2.0, abs=1e-15)

    def test_default_weights(self):
        w = LossWeights()
        assert w.w_d == 0.1
        assert w.w_reg in (1.0, 10.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(w_d=-0.1)

    @pytest.mark.parametrize("tau_d, accepted", [
        (1e-38, True), (2.0 / float(np.finfo(np.float32).max), True), (5.8e-39, False),
        (1e-39, False), (0.0, False), (-0.1, False)])
    def test_tau_d_keeps_the_float32_block_finite(self, tau_d, accepted):
        if accepted:
            assert LossWeights(tau_d=tau_d).tau_d == tau_d
        else:
            with pytest.raises(ConfigError, match="tau_d must be in \\[5.87"):
                LossWeights(tau_d=tau_d)


class TestSharedTextPass:
    def test_reg_rows_match_standalone(self, bundle, rng):
        z = encode_image(bundle, rng.normal(size=(3, bundle.dims.d_x)))
        styles = Tensor(rng.normal(size=(3, bundle.dims.d_t)))
        labels = np.array([0, 2, 1])
        anchors = build_reg_anchors(bundle, CLASSES)
        ce_shared, reg_shared = prompted_ce_and_reg(bundle, z, styles, labels, CLASSES, anchors)
        ce_alone, reg_none = prompted_ce_and_reg(bundle, z, styles, labels, CLASSES)
        assert reg_none is None
        assert ce_shared.item() == pytest.approx(ce_alone.item(), abs=1e-12)

        feats = prompt_text_features(bundle, styles, CLASSES).data
        own = feats[np.arange(3) * len(CLASSES) + labels]
        reg_alone = style_regularization_loss(Tensor(own), labels, anchors)
        assert reg_shared.item() == pytest.approx(reg_alone.item(), abs=1e-12)

    def test_gradient_of_total_on_small_fixture(self, bundle, rng):
        """Full objective gradient vs finite differences on one trunk weight."""
        from spdg.gradcheck import build_objective_fixture, objective_value
        from spdg.prompter import StylePrompter
        fx = build_objective_fixture(batch=4, mc_samples=2, seed=11)

        def f(x):
            stand_in = StylePrompter(
                "gaussian", {k: (x if k == "w2" else v) for k, v in fx.prompter.parameters()})
            return objective_value(fx, stand_in)

        assert T.finite_diff_grad_check(f, [dict(fx.prompter.parameters())["w2"]])[0] < 1e-4

    def test_every_parameter_receives_nonzero_gradient(self):
        from spdg.gradcheck import build_objective_fixture, objective_value
        fx = build_objective_fixture(batch=4, mc_samples=2, seed=13)
        params = [p for _, p in fx.prompter.parameters()]
        with Tape() as tape:
            loss = objective_value(fx, fx.prompter)
        for name, grad in zip(fx.prompter.names, tape.backward(loss, params)):
            assert np.abs(grad).max() > 0.0, name

    def test_frozen_boundary_no_gradient_into_bundle(self):
        from spdg.encoders import bundle_checksum
        from spdg.gradcheck import build_objective_fixture, objective_value
        fx = build_objective_fixture(batch=4, mc_samples=2, seed=13)
        before = bundle_checksum(fx.bundle)
        params = [p for _, p in fx.prompter.parameters()]
        with Tape() as tape:
            loss = objective_value(fx, fx.prompter)
        tape.backward(loss, params)
        # encoder weights live outside the tape entirely: plain arrays with no
        # gradient slot, byte-identical after the backward pass
        for name, w in fx.bundle.weights.items():
            assert isinstance(w, np.ndarray) and not isinstance(w, Tensor), name
        assert bundle_checksum(fx.bundle) == before

    def test_objective_check_runs_the_trainers_step(self, monkeypatch):
        """grad-check's objective is the trainer's step, reached through its names."""
        import spdg.trainer
        from spdg.gradcheck import build_objective_fixture, objective_value
        calls = {"domain_discrimination_loss": 0, "prompted_ce_and_reg": 0}

        def counting(name):
            original = getattr(spdg.trainer, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(spdg.trainer, name, counting(name))
        fx = build_objective_fixture(batch=4, mc_samples=2, seed=13)
        objective_value(fx, fx.prompter)
        assert calls == {"domain_discrimination_loss": 1, "prompted_ce_and_reg": 1}

    def test_objective_check_matches_the_check_one_parameter_at_a_time(self, objective_check):
        """One pass over all the parameters gives exactly the errors of a stand-in
        prompter and a tape per parameter, on the session's grad-check fixture."""
        from spdg.gradcheck import build_objective_fixture
        fx = build_objective_fixture(batch=8, n_classes=4, n_domains=3, mc_samples=4)
        assert objective_check[0] == objective_errors_per_parameter(fx)


    def test_training_step_runs_the_block_in_float32_and_grad_check_in_float64(self, monkeypatch):
        import spdg.trainer
        from spdg.gradcheck import build_objective_fixture, objective_value
        from spdg.trainer import step_losses
        dtypes = []
        original = spdg.trainer.domain_discrimination_loss

        def spy(*args, **kwargs):
            dtypes.append(kwargs["dtype"])
            return original(*args, **kwargs)

        monkeypatch.setattr(spdg.trainer, "domain_discrimination_loss", spy)
        fx = build_objective_fixture(batch=4, mc_samples=2, seed=13)
        objective_value(fx, fx.prompter)
        step_losses(fx.bundle, fx.prompter, fx.z, fx.labels, fx.domains, fx.classes, fx.anchors,
                    fx.weights, fx.mc_samples, None, eps=fx.eps)
        assert dtypes == [np.float64, np.float32]

def per_row_prompt_features(bundle, styles: Tensor, classes) -> Tensor:
    """Oracle: prompts encoded per length group, then one get_row and one
    reshape node per (image, class) row, joined by concat_rows."""
    b, n_classes = styles.data.shape[0], len(classes)
    ids_per_class = [tokenize(style_prompt_text(cls), bundle) for cls in classes]
    by_length: dict[int, list[int]] = {}
    for c, ids in enumerate(ids_per_class):
        by_length.setdefault(len(ids), []).append(c)
    rows = [None] * (b * n_classes)
    for length, group in by_length.items():
        pairs = list(itertools.product(range(b), group))
        base = np.zeros((len(pairs), length, bundle.dims.d_t))
        for k, (_, c) in enumerate(pairs):
            base[k, 1:] = bundle.weights["tok_emb"][np.asarray(ids_per_class[c][1:])]
        owner = np.asarray([i for i, _ in pairs])
        feats = encode_text_batch(bundle, fill_style_slot_batch(styles, base, owner))
        for k, (i, c) in enumerate(pairs):
            rows[i * n_classes + c] = (feats, k)
    return concat_rows([reshape(get_row(feats, pos), (1, bundle.dims.d_f))
                        for feats, pos in rows])


@pytest.fixture(scope="module")
def mixed_bundle():
    return build_bundle(EncoderDims(), default_vocab(MIXED_CLASSES), seed=0)


class TestPromptTextFeatures:
    def _features_and_grad(self, fn, bundle, styles_np, weight):
        styles = Tensor(styles_np)
        with Tape() as tape:
            feats = fn(bundle, styles, MIXED_CLASSES)
            loss = sum_all(mul(feats, constant(weight)))
        return feats.data, tape.backward(loss, [styles])[0]

    @pytest.mark.parametrize("b", [1, 3, 12, 256])
    def test_mixed_lengths_match_per_row_oracle(self, mixed_bundle, rng, b):
        # the factored encoder sums in another order than the full-sequence oracle
        styles = rng.normal(size=(b, mixed_bundle.dims.d_t))
        weight = rng.normal(size=(b * len(MIXED_CLASSES), mixed_bundle.dims.d_f))
        got, got_grad = self._features_and_grad(prompt_text_features, mixed_bundle,
                                                styles, weight)
        want, want_grad = self._features_and_grad(per_row_prompt_features, mixed_bundle,
                                                  styles, weight)
        assert np.abs(got - want).max() <= 1e-13
        assert np.abs(got_grad - want_grad).max() <= 1e-13

    @pytest.mark.parametrize("b", [1, 12, 256])
    def test_extreme_scores_match_per_row_oracle(self, mixed_bundle, rng, b):
        # styles 50x their usual scale put slot scores in the hundreds, so every
        # softmax and the class rows' slot shares saturate; padded tokens are present
        styles = 50.0 * rng.normal(size=(b, mixed_bundle.dims.d_t))
        weight = rng.normal(size=(b * len(MIXED_CLASSES), mixed_bundle.dims.d_f))
        with np.errstate(over="raise", invalid="raise"):
            got, got_grad = self._features_and_grad(prompt_text_features, mixed_bundle,
                                                    styles, weight)
            want, want_grad = self._features_and_grad(per_row_prompt_features, mixed_bundle,
                                                      styles, weight)
        for g, w in ((got, want), (got_grad, want_grad)):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_single_length_is_one_encoder_batch(self, bundle, rng):
        styles = Tensor(rng.normal(size=(3, bundle.dims.d_t)))
        with Tape() as tape:
            prompt_text_features(bundle, styles, CLASSES)
        assert len(tape) == 1

    def test_tape_size_does_not_grow_with_batch(self, mixed_bundle, rng):
        anchors = build_reg_anchors(mixed_bundle, MIXED_CLASSES)
        nodes = []
        for b in (2, 12):
            z = encode_image(mixed_bundle, rng.normal(size=(b, mixed_bundle.dims.d_x)))
            styles = Tensor(rng.normal(size=(b, mixed_bundle.dims.d_t)))
            labels = rng.integers(0, len(MIXED_CLASSES), size=b)
            with Tape() as tape:
                prompted_ce_and_reg(mixed_bundle, z, styles, labels, MIXED_CLASSES, anchors)
            nodes.append(len(tape))
        assert nodes[0] == nodes[1]
