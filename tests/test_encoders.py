import json
import re

import numpy as np
import pytest

from oracles import (
    PromptSequence,
    embed_tokens,
    fill_style_slot_batch,
    mul,
    similarity_logits,
    sum_all,
)
from spdg.encoders import (
    MAX_TEXT_LEN,
    PSEUDO_TOKEN,
    STYLE_WORDS,
    EncoderDims,
    build_bundle,
    bundle_checksum,
    class_words,
    default_vocab,
    encode_embeddings,
    encode_image,
    encode_text_batch,
    load_bundle,
    save_bundle,
    style_prompt_plan,
    style_prompt_text,
    tokenize,
)
from spdg.errors import ConfigError, DegenerateVectorError, FormatError, ShapeError, TokenizeError
from spdg.tensor import Tensor, finite_diff_grad_check

CLASSES = ["dog", "elephant", "guitar", "horse"]


class TestBuildBundle:
    def test_same_seed_byte_identical(self, dims):
        vocab = default_vocab(CLASSES)
        b1 = build_bundle(dims, vocab, seed=3)
        b2 = build_bundle(dims, vocab, seed=3)
        assert bundle_checksum(b1) == bundle_checksum(b2)

    def test_seed_sensitivity(self, dims):
        vocab = default_vocab(CLASSES)
        assert bundle_checksum(build_bundle(dims, vocab, seed=1)) != \
            bundle_checksum(build_bundle(dims, vocab, seed=2))

    @pytest.mark.parametrize("change", ["vocab", "logit_scale"])
    def test_checksum_covers_vocab_order_and_logit_scale(self, dims, change):
        from spdg.encoders import FrozenEncoderBundle
        b = build_bundle(dims, default_vocab(CLASSES), seed=0)
        vocab = b.vocab[::-1] if change == "vocab" else b.vocab
        scale = b.logit_scale * 2 if change == "logit_scale" else b.logit_scale
        same_weights = FrozenEncoderBundle(b.dims, vocab, b.seed, scale, b.weights)
        assert bundle_checksum(same_weights) != bundle_checksum(b)

    def test_duplicate_vocab_rejected(self, dims):
        with pytest.raises(ConfigError, match="duplicate"):
            build_bundle(dims, ["dog", "dog"], seed=0)

    @pytest.mark.parametrize("change, message", [
        (lambda b: {"vocab": b.vocab[:-1] + ["a"]}, "vocab has duplicate words: ['a']"),
        (lambda b: {"vocab": [None] + b.vocab[1:]}, "vocab must be a non-empty list of strings"),
        (lambda b: {"vocab": "x" * len(b.vocab)}, "vocab must be a non-empty list of strings"),
        (lambda b: {"vocab": tuple(b.vocab)}, "vocab must be a non-empty list of strings"),
        (lambda b: {"vocab": []}, "vocab must be a non-empty list of strings, got []"),
        (lambda b: {"seed": 3.0}, "seed must be an int >= 0, got float 3.0"),
        (lambda b: {"seed": False}, "seed must be an int >= 0, got bool False"),
        (lambda b: {"seed": -1}, "seed must be an int >= 0, got int -1"),
        (lambda b: {"weights": {k: v for k, v in b.weights.items() if k != "proj_w"}},
         "bundle weights must be"),
        (lambda b: {"weights": {**b.weights, "bias": np.zeros(3)}}, "bundle weights must be"),
        (lambda b: {"weights": {**b.weights, "tok_emb": b.weights["tok_emb"][1:]}},
         "bundle weight tok_emb has shape (16, 32), but the dims and the vocab's 17 words give (17, 32)"),
        (lambda b: {"weights": {**b.weights, "txt_bp": b.weights["txt_bp"][None]}},
         "bundle weight txt_bp has shape (1, 48)"),
    ], ids=["duplicate word", "word not a string", "string", "tuple", "empty", "float seed",
            "bool seed", "negative seed", "missing weight", "extra weight", "short tok_emb",
            "bias as a row"])
    def test_constructor_refuses(self, bundle, change, message):
        from spdg.encoders import FrozenEncoderBundle
        fields = {"dims": bundle.dims, "vocab": bundle.vocab, "seed": bundle.seed,
                  "logit_scale": bundle.logit_scale, "weights": bundle.weights, **change(bundle)}
        with pytest.raises(ConfigError) as err:
            FrozenEncoderBundle(**fields)
        assert message in str(err.value)

    def test_tiny_dims_rejected(self):
        with pytest.raises(ConfigError):
            build_bundle(EncoderDims(d_x=1), ["dog"], seed=0)

    @pytest.mark.parametrize("field, value, message", [
        ("d_x", 32.0, "d_x must be int, got float 32.0"),
        ("d_i", True, "d_i must be int, got bool True"),
        ("d_f", "48", "d_f must be int, got str '48'"),
        ("d_t", 100000, "dims {'d_x': 32, 'd_i': 64, 'd_t': 100000, 'd_f': 48} need "
                        "240038475136 bytes of encoder weights, over the cap of 1073741824"),
        ("d_x", 10**7, "dims {'d_x': 10000000, 'd_i': 64, 'd_t': 32, 'd_f': 48} need "
                       "5120095616 bytes of encoder weights, over the cap of 1073741824"),
        # counted in Python ints: an int64 product would wrap round to a small size
        ("d_i", 10**12, "dims {'d_x': 32, 'd_i': 1000000000000, 'd_t': 32, 'd_f': 48} need "
                        "8000000000656000000037248 bytes of encoder weights, "
                        "over the cap of 1073741824"),
        ("d_f", 10**7, "dims {'d_x': 32, 'd_i': 64, 'd_t': 32, 'd_f': 10000000} need "
                       "7760074752 bytes of encoder weights, over the cap of 1073741824"),
    ])
    def test_invalid_dims_rejected(self, field, value, message):
        with pytest.raises(ConfigError) as err:
            EncoderDims(**{field: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("spare, refused", [(0, False), (-1, True)])
    def test_bundle_cap_admits_dims_that_need_exactly_the_cap(self, monkeypatch, spare, refused):
        # the default dims' vocabulary-independent weights take 112,000 bytes
        monkeypatch.setattr("spdg.encoders.MAX_BUNDLE_BYTES", 112_000 + spare)
        if refused:
            with pytest.raises(ConfigError, match="need 112000 bytes of encoder weights, "
                                                  "over the cap of 111999"):
                EncoderDims()
        else:
            assert EncoderDims() == EncoderDims(32, 64, 32, 48)

    def test_vocab_contains_style_and_template_words(self):
        vocab = default_vocab(CLASSES)
        for word in ["a", "photo", "of", "style", ".", "art", "painting", "dog"]:
            assert word in vocab


class TestTokenize:
    def test_style_prompt(self, bundle):
        ids = tokenize("SP dog.", bundle)
        assert ids[0] == PSEUDO_TOKEN
        assert ids[1] == bundle.word_to_id["dog"]
        assert ids[2] == bundle.word_to_id["."]

    def test_photo_caption(self, bundle):
        ids = tokenize("a photo of a dog.", bundle)
        words = ["a", "photo", "of", "a", "dog", "."]
        assert ids == [bundle.word_to_id[w] for w in words]

    def test_oov_names_the_word(self, bundle):
        with pytest.raises(TokenizeError, match="xyzzy"):
            tokenize("dog xyzzy", bundle)

    def test_empty_text(self, bundle):
        with pytest.raises(TokenizeError):
            tokenize("   ", bundle)

    def test_multiword_style_name_two_tokens(self, bundle):
        ids = tokenize("art painting", bundle)
        assert len(ids) == 2

    def test_class_word_ending_in_a_period_is_in_the_vocab(self, dims):
        # the vocabulary splits a class name as the tokenizer does: "st." is "st" and "."
        b = build_bundle(dims, default_vocab(["st. bernard", "dog"]), seed=0)
        ids = tokenize("a photo of a st. bernard", b)
        assert ids == [b.word_to_id[w] for w in ["a", "photo", "of", "a", "st", ".", "bernard"]]
        assert "st." not in b.vocab

    def test_template_round_trip_all_classes(self, bundle):
        # "SP [CLASS]." renders and tokenizes for every class word in the vocab
        for cls in CLASSES:
            ids = tokenize(style_prompt_text(cls), bundle)
            assert ids[0] == PSEUDO_TOKEN and len(ids) == 3


class TestClassWords:
    def test_each_name_as_the_words_a_prompt_reads(self):
        assert class_words(["Hot  Dog", "st. bernard", "dog."]) == [
            ("hot", "dog"), ("st", ".", "bernard"), ("dog", ".")]

    @pytest.mark.parametrize("classes, message", [
        (["dog", "Dog"], "class names 'dog' and 'Dog' are the same words"),
        (["giraffe", "dog", "DOG"], "class names 'dog' and 'DOG' are the same words"),
        (["hot dog", "cat", "HOT\tDOG"], "class names 'hot dog' and 'HOT\\tDOG' are the same words"),
        (["dog.", "dog ."], "are the same words"),
        (["dog", ""], "class name '' must be one or more words"),
        (["dog", " \n"], "must be one or more words"),
        (["SP", "dog"], "none of them 'sp'"),
        (["dog", "big sp cat"], "none of them 'sp'"),
        (["dog", "cat sp."], "none of them 'sp'"),
    ], ids=repr)
    def test_names_a_prompt_cannot_hold_or_tell_apart_are_refused(self, classes, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            class_words(classes)

    def test_words_that_only_contain_sp_are_names(self):
        assert class_words(["spaniel", "wasp"]) == [("spaniel",), ("wasp",)]


class TestPromptSequence:
    def test_pseudo_must_lead(self):
        seq = PromptSequence([3, PSEUDO_TOKEN], None, "dog sp")
        with pytest.raises(TokenizeError, match="first"):
            seq.validate(vocab_size=10)

    def test_at_most_one_pseudo(self):
        seq = PromptSequence([PSEUDO_TOKEN, PSEUDO_TOKEN], None, "sp sp")
        with pytest.raises(TokenizeError, match="more than one"):
            seq.validate(vocab_size=10)


class TestEncodeImage:
    def test_deterministic(self, bundle, rng):
        x = rng.normal(size=bundle.dims.d_x)
        assert np.array_equal(encode_image(bundle, x), encode_image(bundle, x))

    def test_zero_vector_bias_propagation(self, bundle):
        # forward the zero vector by hand through the stored weights
        w = bundle.weights
        expected = np.tanh(w["img_b1"]) @ w["img_w2"] + w["img_b2"]
        assert np.allclose(encode_image(bundle, np.zeros(bundle.dims.d_x)), expected,
                           atol=1e-15)

    def test_output_length(self, bundle, rng):
        z = encode_image(bundle, rng.normal(size=bundle.dims.d_x))
        assert z.shape == (bundle.dims.d_i,)

    def test_wrong_dim_rejected(self, bundle):
        with pytest.raises(ShapeError):
            encode_image(bundle, np.zeros(bundle.dims.d_x + 1))


class TestEmbedTokens:
    def test_slot_substitution_exact(self, bundle, rng):
        style = Tensor(rng.normal(size=bundle.dims.d_t))
        ids = tokenize("SP dog.", bundle)
        emb = embed_tokens(bundle, ids, style=style)
        assert np.array_equal(emb.data[0], style.data)

    def test_style_without_slot_rejected(self, bundle, rng):
        ids = tokenize("a photo of a dog.", bundle)
        with pytest.raises(TokenizeError):
            embed_tokens(bundle, ids, style=Tensor(rng.normal(size=bundle.dims.d_t)))

    def test_slot_without_style_rejected(self, bundle):
        with pytest.raises(TokenizeError):
            embed_tokens(bundle, tokenize("SP dog.", bundle))

    def test_two_styles_differ_only_in_row_zero(self, bundle, rng):
        ids = tokenize("SP dog.", bundle)
        e1 = embed_tokens(bundle, ids, style=Tensor(rng.normal(size=bundle.dims.d_t))).data
        e2 = embed_tokens(bundle, ids, style=Tensor(rng.normal(size=bundle.dims.d_t))).data
        assert not np.array_equal(e1[0], e2[0])
        assert np.array_equal(e1[1:], e2[1:])


class TestEncodeText:
    def test_repeated_call_identical(self, bundle, rng):
        emb = rng.normal(size=(1, 4, bundle.dims.d_t))
        assert np.array_equal(encode_embeddings(bundle, emb), encode_embeddings(bundle, emb))

    def test_gradient_through_style_row(self, bundle, rng):
        probe = rng.normal(size=(1, bundle.dims.d_f))

        def f(style):
            feat = encode_text_batch(bundle, style, ["dog"])
            return sum_all(mul(feat, Tensor(probe)))

        [err] = finite_diff_grad_check(f, [Tensor(rng.normal(size=(1, bundle.dims.d_t)))])
        assert err < 1e-5

    def test_order_sensitivity(self, bundle, rng):
        emb = rng.normal(size=(3, bundle.dims.d_t))
        f_orig = encode_embeddings(bundle, emb[None])
        f_moved = encode_embeddings(bundle, emb[None, [1, 2, 0]])
        assert np.linalg.norm(f_orig - f_moved) > 1e-6

    def test_style_row_local_lipschitz(self, bundle, rng):
        # measured sensitivity bound, a sanity check rather than a proof
        base_style = rng.normal(size=(1, bundle.dims.d_t))

        def encode(style):
            return encode_text_batch(bundle, Tensor(style), ["dog"]).data

        base = encode(base_style)
        probes = []
        for _ in range(8):
            delta = rng.normal(size=base_style.shape)
            delta *= 1e-4 / np.linalg.norm(delta)
            probes.append(np.linalg.norm(encode(base_style + delta) - base) / 1e-4)
        k = 2.0 * max(probes)
        for _ in range(8):
            delta = rng.normal(size=base_style.shape)
            delta *= 1e-6 / np.linalg.norm(delta)
            assert np.linalg.norm(encode(base_style + delta) - base) < k * 1e-6

    def test_batch_matches_single(self, bundle, rng):
        embs = rng.normal(size=(5, 4, bundle.dims.d_t))
        batch = encode_embeddings(bundle, embs)
        for i in range(5):
            single = encode_embeddings(bundle, embs[i:i + 1])[0]
            assert np.allclose(batch[i], single, atol=1e-12)

    def test_length_cap(self, bundle, rng):
        with pytest.raises(ShapeError):
            encode_embeddings(bundle, rng.normal(size=(1, MAX_TEXT_LEN + 1, bundle.dims.d_t)))


class TestFillStyleSlotBatch:
    def test_forward_and_gradient(self, bundle, rng):
        b, m, length, d = 3, 6, 4, bundle.dims.d_t
        base = rng.normal(size=(m, length, d))
        owner = np.array([0, 0, 1, 1, 2, 2])
        probe = rng.normal(size=(m, length, d))

        def f(styles):
            filled = fill_style_slot_batch(styles, base, owner)
            return sum_all(mul(filled, Tensor(probe)))

        styles = Tensor(rng.normal(size=(b, d)))
        filled = fill_style_slot_batch(styles, base, owner)
        assert np.array_equal(filled.data[:, 0, :], styles.data[owner])
        assert np.array_equal(filled.data[:, 1:, :], base[:, 1:, :])
        assert finite_diff_grad_check(f, [styles])[0] < 1e-7


class TestStylePromptPlan:
    def test_second_call_does_not_tokenize(self, dims, rng, monkeypatch):
        import spdg.encoders
        fresh = build_bundle(dims, default_vocab(CLASSES), seed=0)
        calls = []
        original = spdg.encoders.tokenize
        monkeypatch.setattr(spdg.encoders, "tokenize",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        styles = Tensor(rng.normal(size=(2, dims.d_t)))
        first = encode_text_batch(fresh, styles, CLASSES).data
        assert len(calls) == len(CLASSES)
        second = encode_text_batch(fresh, styles, list(CLASSES)).data
        assert len(calls) == len(CLASSES)
        assert np.array_equal(first, second)

    def test_class_order_gets_its_own_plan(self, bundle, rng):
        styles = Tensor(rng.normal(size=(3, bundle.dims.d_t)))
        order = [2, 0, 3, 1]
        feats = encode_text_batch(bundle, styles, CLASSES).data.reshape(3, len(CLASSES), -1)
        moved = encode_text_batch(bundle, styles, [CLASSES[c] for c in order]).data
        assert style_prompt_plan(bundle, CLASSES) is not \
            style_prompt_plan(bundle, [CLASSES[c] for c in order])
        assert np.array_equal(moved.reshape(3, len(CLASSES), -1), feats[:, order])

    def test_other_weights_never_reuse_a_plan(self, dims, rng):
        vocab = default_vocab(CLASSES)
        first, other = build_bundle(dims, vocab, seed=1), build_bundle(dims, vocab, seed=2)
        styles = Tensor(rng.normal(size=(2, dims.d_t)))
        a = encode_text_batch(first, styles, CLASSES).data
        b = encode_text_batch(other, styles, CLASSES).data
        assert style_prompt_plan(first, CLASSES) is not style_prompt_plan(other, CLASSES)
        assert np.abs(a - b).max() > 1e-3
        assert np.array_equal(b, encode_text_batch(build_bundle(dims, vocab, seed=2),
                                                   styles, CLASSES).data)

    @pytest.mark.parametrize("name", ["tok_emb", "txt_wq", "txt_bp"])
    def test_bundle_weights_are_read_only(self, bundle, name):
        with pytest.raises(ValueError, match="read-only"):
            bundle.weights[name][0] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            bundle.positions[0] = 0.0

    def test_plan_arrays_are_read_only(self, bundle):
        plan = style_prompt_plan(bundle, CLASSES)
        for arr in vars(plan).values():
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0.0

    def test_second_pseudo_slot_rejected(self, dims, rng):
        odd = build_bundle(dims, default_vocab(["dog"]), seed=0)
        with pytest.raises(TokenizeError, match="more than one pseudo slot"):
            encode_text_batch(odd, Tensor(rng.normal(size=(1, dims.d_t))), ["dog sp"])

    def test_wrong_style_width_rejected(self, bundle, rng):
        with pytest.raises(ShapeError):
            encode_text_batch(bundle, Tensor(rng.normal(size=(2, bundle.dims.d_t + 1))), CLASSES)

    def test_zero_style_rows_rejected(self, bundle):
        with pytest.raises(ShapeError, match="non-empty"):
            encode_text_batch(bundle, Tensor(np.zeros((0, bundle.dims.d_t))), CLASSES)

    def test_empty_class_list_rejected(self, bundle, rng):
        with pytest.raises(ConfigError):
            encode_text_batch(bundle, Tensor(rng.normal(size=(2, bundle.dims.d_t))), [])


class TestSimilarityLogits:
    def test_parallel_gives_logit_scale(self, bundle, rng):
        from spdg.encoders import project_image
        z = encode_image(bundle, rng.normal(size=bundle.dims.d_x))
        zp = project_image(bundle, z)
        feats = Tensor(np.stack([zp, -zp]))
        logits = similarity_logits(bundle, z, feats).data
        assert logits[0] == pytest.approx(bundle.logit_scale, abs=1e-9)
        assert logits[1] == pytest.approx(-bundle.logit_scale, abs=1e-9)

    def test_positive_rescale_invariance(self, bundle, rng):
        z = encode_image(bundle, rng.normal(size=bundle.dims.d_x))
        feats = Tensor(rng.normal(size=(3, bundle.dims.d_f)))
        a = similarity_logits(bundle, z, feats).data
        b = similarity_logits(bundle, z * 10.0, feats).data
        assert np.abs(a - b).max() < 1e-10

    def test_degenerate_feature_rejected(self, bundle, rng):
        z = encode_image(bundle, rng.normal(size=bundle.dims.d_x))
        with pytest.raises(DegenerateVectorError):
            similarity_logits(bundle, z, Tensor(np.zeros((2, bundle.dims.d_f))))


class TestBundleIO:
    def test_round_trip_checksum(self, bundle, tmp_path):
        save_bundle(bundle, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        assert bundle_checksum(loaded) == bundle_checksum(bundle)
        assert loaded.vocab == bundle.vocab
        assert loaded.logit_scale == bundle.logit_scale

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: {"vocab": raw["vocab"][:-1] + ["a"]}, "vocab has duplicate words: ['a']"),
        (lambda raw: {"vocab": raw["vocab"][:-1] + [7]}, "vocab must be a non-empty list of strings"),
        (lambda raw: {"vocab": "x" * len(raw["vocab"])}, "vocab must be a non-empty list of strings"),
        (lambda raw: {"seed": 0.5}, "seed must be an int >= 0, got float 0.5"),
        (lambda raw: {"seed": 1e400}, "seed must be an int >= 0, got float inf"),
        (lambda raw: {"dims": {**raw["dims"], "d_f": 40}}, "bundle weight txt_wp has shape (32, 48)"),
        (lambda raw: {"dims": {**raw["dims"], "d_x": 32.0}}, "d_x must be int, got float 32.0"),
    ], ids=["duplicate word", "word not a string", "string vocab", "float seed", "infinite seed",
            "dims off the weights", "float d_x"])
    def test_manifest_the_constructor_refuses_is_format_error(self, bundle, tmp_path, edit, message):
        save_bundle(bundle, tmp_path / "b")
        manifest = tmp_path / "b" / "manifest.json"
        raw = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**raw, **edit(raw)}))
        with pytest.raises(FormatError) as err:
            load_bundle(tmp_path / "b")
        assert str(err.value).startswith(f"{tmp_path / 'b'}: malformed bundle: ConfigError: ")
        assert message in str(err.value)

    def test_frozen_across_use(self, bundle, rng):
        before = bundle_checksum(bundle)
        for _ in range(3):
            encode_image(bundle, rng.normal(size=bundle.dims.d_x))
            encode_embeddings(bundle, rng.normal(size=(1, 3, bundle.dims.d_t)))
            encode_text_batch(bundle, Tensor(rng.normal(size=(2, bundle.dims.d_t))), CLASSES)
        assert bundle_checksum(bundle) == before


def test_style_word_list_is_fixed():
    assert STYLE_WORDS == ["photo", "art painting", "cartoon", "sketch",
                           "clipart", "infograph", "quickdraw", "product"]
