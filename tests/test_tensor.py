import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdg import tensor as T
from spdg.errors import DegenerateVectorError, ShapeError
from oracles import (
    add,
    constant,
    cosine_similarity,
    elu,
    linear_forward,
    log_sum_exp,
    masked_log_sum_exp_rows,
    matmul,
    mul,
    primitive_cases,
    repeat_rows,
    reshape,
    sum_all,
)
from spdg.gradcheck import run_primitive_checks
from spdg.tensor import Tape, Tensor, finite_diff_grad_check


class TestLinearForward:
    def test_identity_weight(self):
        out = linear_forward(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_zero_weight_bias_passthrough(self):
        out = linear_forward(Tensor([[1.0, 2.0]]), Tensor(np.zeros((2, 2))), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [[3.0, 4.0]])

    def test_hand_matrix_multiply(self):
        out = linear_forward(Tensor([[1.0, 1.0]]), Tensor([[2.0, 3.0], [4.0, 5.0]]),
                             Tensor([1.0, 1.0]))
        assert np.array_equal(out.data, [[7.0, 9.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            linear_forward(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


class TestElu:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.0), (2.0, 2.0), (-1.0, np.exp(-1) - 1)])
    def test_pointwise(self, x, expected):
        assert elu(Tensor([x])).data[0] == pytest.approx(expected, abs=1e-12)

    def test_in_place_form_equals_where_form(self):
        grid = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -745.0, -1e3, 1e3, 0.5, -0.5,
                         1.0, -1.0, 36.0, -36.0, -np.inf, np.inf])
        with np.errstate(over="ignore"):   # the where form overflows expm1(1e3) before discarding it
            want = np.where(grid > 0, grid, np.expm1(grid))
        buf = grid.copy()
        with np.errstate(all="raise"):
            got = T.elu(buf)
        assert got is buf
        assert np.array_equal(got, want)


class TestCheckedNorms:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero-slice"])
    def test_three_d_degenerate_slice_raises(self, rng, bad):
        # (B, C, d_f) feature rows, as predict_batch checks them
        v = rng.normal(size=(4, 3, 8))
        if bad == 0.0:
            v[2, 1] = 0.0
        else:
            v[2, 1, 5] = bad
        with pytest.raises(DegenerateVectorError):
            T.checked_norms(v, "prompted text feature")

    def test_empty_input_passes(self):
        assert T.checked_norms(np.zeros((0, 3, 8)), "f").shape == (0, 3)


class TestL2Normalize:
    def test_three_four_five(self):
        out = T.l2_normalize(Tensor([3.0, 4.0]))
        assert np.allclose(out.data, [0.6, 0.8], atol=1e-15)

    def test_already_unit(self):
        assert np.allclose(T.l2_normalize(Tensor([1.0, 0.0, 0.0])).data, [1, 0, 0])

    def test_sign_preserved(self):
        assert np.allclose(T.l2_normalize(Tensor([-2.0, 0.0])).data, [-1.0, 0.0])

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateVectorError):
            T.l2_normalize(Tensor([0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_norm_errors(self, bad):
        with pytest.raises(DegenerateVectorError):
            T.l2_normalize(Tensor([[1.0, 2.0], [bad, 1.0]]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=8))
    def test_unit_norm_property(self, vals):
        x = np.asarray(vals)
        norm = np.linalg.norm(x)
        if not (1e-3 <= norm <= 1e3):
            return
        out = T.l2_normalize(Tensor(x)).data
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestCosineSimilarity:
    def test_self_is_one(self, rng):
        v = Tensor(rng.normal(size=6))
        assert cosine_similarity(v, v).item() == pytest.approx(1.0, abs=1e-12)

    def test_antipodal(self, rng):
        v = rng.normal(size=6)
        assert cosine_similarity(Tensor(v), Tensor(-v)).item() == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateVectorError):
            cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))


class TestLogSumExp:
    def test_uniform(self):
        assert log_sum_exp(Tensor([0.0, 0.0])).item() == pytest.approx(np.log(2), abs=1e-12)

    def test_max_shift_no_overflow(self):
        # naive evaluation overflows; max-subtraction must not
        val = log_sum_exp(Tensor([1000.0, 1000.0])).item()
        assert val == pytest.approx(1000.0 + np.log(2), abs=1e-9)

    def test_singleton(self):
        assert log_sum_exp(Tensor([5.0])).item() == 5.0

    def test_empty_errors(self):
        with pytest.raises(ShapeError):
            log_sum_exp(Tensor(np.zeros(0)))

    @pytest.mark.parametrize("c", [-1000.0, 0.0, 1000.0])
    def test_shift_identity(self, c, rng):
        x = rng.normal(size=7)
        base = log_sum_exp(Tensor(x)).item()
        shifted = log_sum_exp(Tensor(x + c)).item()
        assert shifted - base == pytest.approx(c, abs=1e-12 * max(1.0, abs(c)))


class TestBackward:
    def test_linear_sum(self):
        x = Tensor([1.0, 2.0, 3.0])
        with Tape() as tape:
            loss = sum_all(x)
        (g,) = tape.backward(loss, [x])
        assert np.array_equal(g, [1.0, 1.0, 1.0])

    def test_quadratic(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        (g,) = tape.backward(loss, [x])
        assert np.array_equal(g, [2.0, 4.0])

    def test_two_consumer_accumulation(self):
        # leaf feeds two paths: d/dy (2y + y^2) = 2 + 2y
        y = Tensor([3.0])
        with Tape() as tape:
            a = mul(y, constant(2.0))
            b = mul(y, y)
            loss = add(sum_all(a), sum_all(b))
        (g,) = tape.backward(loss, [y])
        assert np.array_equal(g, [8.0])

    def test_off_path_leaf_gets_zero(self, rng):
        # `unused` is on no node; `other` feeds a recorded node the loss does not come from
        x, unused, other = Tensor([1.0]), Tensor([5.0]), Tensor(rng.normal(size=(2, 3)))
        with Tape() as tape:
            sum_all(mul(other, other))
            loss = sum_all(mul(x, x))
        g_x, g_unused, g_other = tape.backward(loss, [x, unused, other])
        assert np.array_equal(g_x, [2.0])
        assert np.array_equal(g_unused, [0.0])
        assert g_other.shape == (2, 3) and not g_other.any()

    def test_gradients_follow_the_order_of_the_leaves(self):
        x, y = Tensor([2.0]), Tensor([3.0])
        with Tape() as tape:
            loss = sum_all(mul(x, mul(y, y)))
        assert [g.tolist() for g in tape.backward(loss, [y, x, y])] == [[12.0], [9.0], [12.0]]

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            out = mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(out, [x])

    def test_grads_are_fresh_per_backward(self):
        x = Tensor([2.0])
        for _ in range(2):
            with Tape() as tape:
                loss = sum_all(mul(x, x))
            (g,) = tape.backward(loss, [x])
            assert np.array_equal(g, [4.0])

    def test_returned_arrays_are_fresh(self):
        # d/dx (x.x / 2) = x: the node hands back the parameter's own array (its
        # upstream gradient is 1), so writing into a result must reach neither
        # the parameter nor a second backward
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            loss = T.apply(np.asarray(0.5 * x.data @ x.data), (x,), lambda g: (x.data,))
        g, unreached = tape.backward(loss, [x, Tensor([3.0])])
        g[...] = 7.0
        unreached[...] = 7.0
        assert np.array_equal(x.data, [1.0, 2.0])
        again, unreached = tape.backward(loss, [x, Tensor([3.0])])
        assert np.array_equal(again, [1.0, 2.0]) and np.array_equal(unreached, [0.0])

    def test_node_of_constants_only_is_recorded(self):
        with Tape() as tape:
            out = mul(Tensor([2.0]), constant(3.0))
        assert len(tape) == 1
        assert np.array_equal(out.data, [6.0])

    def test_no_node_is_recorded_without_a_tape(self):
        x = Tensor([2.0])
        with Tape() as tape:
            pass
        mul(x, x)
        assert len(tape) == 0

    def test_composite_matches_finite_differences(self, rng):
        w = Tensor(rng.normal(size=(4, 3)))

        def f(t):
            h = elu(matmul(t, w))
            return log_sum_exp(reshape(h, (6,)))

        x = Tensor(rng.normal(size=(2, 4)))
        assert finite_diff_grad_check(f, [x])[0] < 1e-7


class TestFiniteDiffGradCheck:
    def test_known_gradient(self, rng):
        x = Tensor(rng.normal(size=5))
        [err] = finite_diff_grad_check(lambda t: sum_all(mul(t, t)), [x])
        assert err < 1e-7

    def test_constant_function(self, rng):
        x = Tensor(rng.normal(size=4))
        [err] = finite_diff_grad_check(lambda t: sum_all(mul(t, constant(0.0))), [x])
        assert err == 0.0

    def test_error_is_attributed_to_the_leaf_whose_gradient_is_wrong(self, rng):
        def product(a, b):
            # sum(a * b), with a backward that doubles b's gradient only
            return T.apply(np.asarray((a.data * b.data).sum()), (a, b),
                           lambda g: (g * b.data, 2.0 * g * a.data))

        err_a, err_b = finite_diff_grad_check(product, [Tensor(rng.normal(size=(2, 3))),
                                                        Tensor(rng.normal(size=(2, 3)))])
        assert err_a < 1e-7
        assert err_b >= 1e-2

    def test_leaves_are_never_written_and_f_sees_the_others_at_their_values(self, rng):
        leaves = [Tensor(rng.normal(size=s)) for s in [(2, 3), (4,), ()]]
        before = [t.data.tobytes() for t in leaves]
        calls = []

        def f(a, b, c):
            calls.append([a.data.copy(), b.data.copy(), c.data.copy()])
            return add(sum_all(mul(a, a)), sum_all(mul(b, c)))

        errors = finite_diff_grad_check(f, leaves)
        assert len(errors) == 3 and max(errors) < 1e-7
        assert [t.data.tobytes() for t in leaves] == before
        # one base call, then two per coordinate of each leaf, leaf by leaf
        assert len(calls) == 1 + 2 * (6 + 4 + 1)
        moved = [k for k in range(3) for _ in range(2 * leaves[k].size)]
        for seen, k in zip(calls[1:], moved):
            for j, (value, leaf) in enumerate(zip(seen, leaves)):
                if j != k:
                    assert value.tobytes() == leaf.data.tobytes()
            diff = np.abs(seen[k] - leaves[k].data)
            assert np.count_nonzero(diff) == 1
            assert diff.max() == pytest.approx(T.FD_STEP, rel=1e-6)


@pytest.fixture(scope="module")
def primitive_errors():
    # 100 seeded inputs per case, the module-wide gradient contract
    results = run_primitive_checks(n_inputs=100)
    results.update(run_primitive_checks(n_inputs=100, cases=primitive_cases()))
    return results


def test_every_primitive_matches_central_differences(primitive_errors):
    bad = {k: v for k, v in primitive_errors.items() if v >= 1e-6}
    assert not bad, f"primitives above tolerance: {bad}"


def test_elementary_primitives_are_checked_from_the_oracles(primitive_errors):
    elementary = ["add", "add_broadcast", "sub", "mul", "mul_broadcast", "neg", "matmul",
                  "matmul_left", "matvec", "reshape", "sum_all", "mean_all"]
    assert set(elementary) <= {name for name, _, _ in primitive_cases()}
    assert all(primitive_errors[name] < 1e-6 for name in elementary)


def test_bit_determinism_of_ops(rng):
    x = rng.normal(size=(8, 8))
    w = rng.normal(size=(8, 8))
    a = matmul(elu(Tensor(x)), Tensor(w)).data
    b = matmul(elu(Tensor(x)), Tensor(w)).data
    assert np.array_equal(a, b)


def test_masked_lse_rows_matches_manual(rng):
    x = rng.normal(size=(3, 5))
    mask = rng.random((3, 5)) < 0.5
    mask[:, 0] = True
    out = masked_log_sum_exp_rows(Tensor(x), mask).data
    for i in range(3):
        expected = np.log(np.exp(x[i][mask[i]]).sum())
        assert out[i] == pytest.approx(expected, abs=1e-12)


def test_masked_log_sum_exp_skips_a_huge_excluded_entry():
    x = np.array([[0.3, -1.2, 0.3 + 1e4, 0.7], [2.0, 1e4, -0.5, 1.0]])
    mask = np.array([[True, True, False, True], [True, False, True, True]])
    kept = x[mask].reshape(2, 3)
    a, ref = Tensor(x), Tensor(kept)
    with np.errstate(over="raise"), Tape() as tape:
        out = masked_log_sum_exp_rows(a, mask)
        (g_a,) = tape.backward(sum_all(out), [a])
    with Tape() as tape:
        want = masked_log_sum_exp_rows(ref, np.ones(kept.shape, dtype=bool))
        (g_ref,) = tape.backward(sum_all(want), [ref])
    assert np.array_equal(out.data, want.data)
    assert np.array_equal(g_a[mask].reshape(2, 3), g_ref)
    assert np.all(g_a[~mask] == 0.0)


def test_repeat_rows_layout(rng):
    x = rng.normal(size=(2, 3))
    out = repeat_rows(Tensor(x), 2).data
    assert np.array_equal(out, np.repeat(x, 2, axis=0))
