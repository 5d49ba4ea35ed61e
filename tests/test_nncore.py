import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import finite_difference_grads, gradcheck_errors
from gicl import nncore
from gicl.nncore import ParamSet, RowAggregator, Tape, Tensor2, adam_step, backward


def leaf(values, dtype=np.float64):
    return Tensor2(np.array(values, dtype=dtype))


class TestLinear:
    def test_identity_weights(self):
        tape = Tape()
        x = leaf([[1.0, 2.0], [3.0, 4.0]])
        w = leaf(np.eye(2))
        out = nncore.linear(tape, x, w)
        assert np.array_equal(out.data, x.data)

    def test_forced_arithmetic_with_bias(self):
        tape = Tape()
        x = leaf([[1.0, 2.0]])
        w = leaf(np.eye(2))
        b = leaf([[1.0, 1.0]])
        out = nncore.linear(tape, x, w, b)
        assert out.data.tolist() == [[2.0, 3.0]]

    def test_matches_triple_loop_matmul(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        tape = Tape()
        out = nncore.linear(tape, leaf(a), leaf(b))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ValueError, match="cols"):
            nncore.linear(tape, leaf(np.ones((2, 3))), leaf(np.ones((4, 2))))


class TestMeanRows:
    # groups in CSR form: group g averages rows targets[offsets[g]:offsets[g + 1]]
    def test_singleton_groups_are_identity(self):
        tape = Tape()
        x = leaf([[1.0, 2.0], [3.0, 4.0]])
        out = nncore.mean_rows(tape, x, RowAggregator(np.array([0, 1, 2]), [0, 1], 2))
        assert np.array_equal(out.data, x.data)

    def test_pair_mean(self):
        tape = Tape()
        x = leaf([[1.0, 3.0], [3.0, 1.0]])
        out = nncore.mean_rows(tape, x, RowAggregator(np.array([0, 2]), [0, 1], 2))
        assert out.data.tolist() == [[2.0, 2.0]]

    def test_empty_group_gives_zero_row(self):
        tape = Tape()
        x = leaf([[5.0, 5.0]])
        out = nncore.mean_rows(tape, x, RowAggregator(np.array([0, 0, 1]), [0], 1))
        assert out.data.tolist() == [[0.0, 0.0], [5.0, 5.0]]

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            RowAggregator(np.array([0, 2]), [0, 7], 2)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="expects 2 rows"):
            nncore.mean_rows(Tape(), leaf(np.ones((3, 2))), RowAggregator(np.array([0, 1]), [0], 2))

    @pytest.mark.parametrize("offsets, targets, problem", [
        (np.array([[0, 1]]), [0], "must be 1-D"),
        (np.array([], dtype=np.int64), [], "are empty"),
        (np.array([1, 1]), [], "must start at 0"),
        (np.array([0, 2, 1, 2]), [0, 0], "must not decrease"),
        (np.array([0, 1]), [0, 0], "must end at the 2 targets"),
    ], ids=["not-1d", "empty", "first-not-0", "decreasing", "last-not-n-targets"])
    def test_malformed_offsets_are_refused(self, offsets, targets, problem):
        with pytest.raises(ValueError, match=f"offsets {problem}"):
            RowAggregator(offsets, targets, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_apply_is_a_sequential_float64_loop_bit_for_bit(self, data):
        n_in = data.draw(st.integers(1, 6))
        sizes = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=8))  # 0: an empty group
        targets = data.draw(st.lists(st.integers(0, n_in - 1), min_size=sum(sizes), max_size=sum(sizes)))
        x = data.draw(arrays(np.float64, (n_in, data.draw(st.integers(0, 3))),
                             elements=st.floats(-1e6, 1e6, allow_nan=False)))
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        expected = np.zeros((len(sizes), x.shape[1]))
        for g, size in enumerate(sizes):
            for j in targets[offsets[g]:offsets[g + 1]]:  # in group order, repeats included
                expected[g] = expected[g] + (1.0 / size) * x[j]
        assert RowAggregator(offsets, targets, n_in).apply(x).tobytes() == expected.tobytes()


class TestElementwise:
    def test_relu(self):
        tape = Tape()
        out = nncore.relu(tape, leaf([[-1.0, 0.0, 2.0]]))
        assert out.data.tolist() == [[0.0, 0.0, 2.0]]

    def test_l2_normalize_three_four_five(self):
        tape = Tape()
        out = nncore.l2_normalize_rows(tape, leaf([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-12)

    def test_l2_normalize_zero_row_passes_through(self):
        tape = Tape()
        out = nncore.l2_normalize_rows(tape, leaf([[0.0, 0.0], [1.0, 0.0]]))
        assert out.data[0].tolist() == [0.0, 0.0]

    def test_l2_rows_unit_or_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 5))
        x[7] = 0.0
        tape = Tape()
        out = nncore.l2_normalize_rows(tape, leaf(x))
        norms = np.linalg.norm(out.data, axis=1)
        assert norms[7] == 0.0
        np.testing.assert_allclose(np.delete(norms, 7), 1.0, atol=1e-12)


class TestSoftmaxXent:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 5, 9):
            tape = Tape()
            logits = leaf(np.zeros((4, c)))
            loss = nncore.softmax_xent(tape, logits, [0] * 4)
            assert math.isclose(loss.item(), math.log(c), rel_tol=0, abs_tol=1e-15)

    def test_large_gap_hand_value(self):
        # log(1 + e^-20) evaluated through the softmax path keeps ~7 digits:
        # the 2e-9 term sits at the bottom of 1.0's double precision
        tape = Tape()
        loss = nncore.softmax_xent(tape, leaf([[10.0, -10.0]]), [0])
        assert math.isclose(loss.item(), math.log1p(math.exp(-20)), rel_tol=1e-6)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((3, 4))
        tape = Tape()
        logits = leaf(z)
        loss = nncore.softmax_xent(tape, logits, [1, 3, 0])
        backward(tape, loss)
        ez = np.exp(z - z.max(axis=1, keepdims=True))
        probs = ez / ez.sum(axis=1, keepdims=True)
        probs[np.arange(3), [1, 3, 0]] -= 1
        np.testing.assert_allclose(logits.grad, probs / 3, atol=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tape = Tape()
            loss = nncore.softmax_xent(
                tape, leaf(rng.standard_normal((5, 3)) * 10), rng.integers(0, 3, 5)
            )
            assert loss.item() >= 0

    def test_invalid_target(self):
        tape = Tape()
        with pytest.raises(ValueError):
            nncore.softmax_xent(tape, leaf(np.zeros((2, 3))), [0, 3])


class TestListwiseXent:
    def test_singleton_segment_is_exactly_zero(self):
        tape = Tape()
        scores = leaf([[3.7]])
        loss = nncore.listwise_xent(tape, scores, [1], np.array([1.0]))
        assert loss.item() == 0.0

    def test_two_candidate_hand_value(self):
        tape = Tape()
        scores = leaf([[1.0], [0.0]])
        loss = nncore.listwise_xent(tape, scores, [2], np.array([1.0, 0.0]))
        assert math.isclose(loss.item(), math.log(1 + math.exp(-1)), rel_tol=1e-12)

    def test_all_positive_mode_permutation_invariant(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal(6)
        perm = rng.permutation(6)
        for order in (np.arange(6), perm):
            tape = Tape()
            loss = nncore.listwise_xent(
                tape, leaf(s[order].reshape(-1, 1)), [6], np.ones(6)
            )
            if order is perm:
                assert math.isclose(loss.item(), first, rel_tol=1e-12)
            else:
                first = loss.item()

    def test_requires_positive_weight(self):
        tape = Tape()
        with pytest.raises(ValueError):
            nncore.listwise_xent(tape, leaf([[1.0], [2.0]]), [2], np.zeros(2))

    @pytest.mark.parametrize("sizes", [[1], [2, 1], [], [0, 2]])
    def test_segments_must_cover_the_scores(self, sizes):
        with pytest.raises(ValueError, match="segment"):
            nncore.listwise_xent(Tape(), leaf([[1.0], [2.0]]), sizes, np.ones(2))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        tape = Tape()
        x = leaf(np.arange(6.0).reshape(2, 3))
        loss = nncore.sum_all(tape, x)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_matmul_weight_gradient_closed_form(self):
        rng = np.random.default_rng(7)
        xv = rng.standard_normal((4, 3))
        tape = Tape()
        x = leaf(xv)
        w = leaf(rng.standard_normal((3, 2)))
        loss = nncore.sum_all(tape, nncore.linear(tape, x, w))
        backward(tape, loss)
        np.testing.assert_allclose(w.grad, xv.T @ np.ones((4, 2)), atol=1e-12)

    def test_loss_seed_is_one(self):
        tape = Tape()
        x = leaf([[2.0]])
        loss = nncore.sum_all(tape, x)
        backward(tape, loss)
        assert loss.grad.tolist() == [[1.0]]

    def test_loss_not_on_tape_rejected(self):
        tape = Tape()
        stray = leaf([[1.0]])
        with pytest.raises(ValueError, match="tape"):
            backward(tape, stray)

    def test_params_get_zero_grads_when_unused(self):
        params = ParamSet(dtype=np.float64)
        used = params.add("used", np.ones((1, 2)))
        params.add("unused", np.ones((2, 2)))
        tape = Tape()
        loss = nncore.sum_all(tape, nncore.scale(tape, used, 3.0))
        grads = backward(tape, loss, params)
        assert np.array_equal(grads["used"], np.full((1, 2), 3.0))
        assert np.array_equal(grads["unused"], np.zeros((2, 2)))


def _loss_builders():
    """One loss-building closure per primitive; each takes (tape, params)."""
    segments = [2, 3]
    seg_weights = np.array([1.0, 0.0, 1.0, 0.5, 0.0])

    def quadratic_readout(tape, out):
        # squares before summing so the loss is sensitive to every entry sign
        return nncore.sum_all(tape, nncore.rowwise_dot(tape, out, out))

    return {
        "linear": lambda t, p: quadratic_readout(t, nncore.linear(t, p["x"], p["w"])),
        "linear_bias": lambda t, p: quadratic_readout(t, nncore.linear(t, p["x"], p["w"], p["b"])),
        "mean_rows": lambda t, p: quadratic_readout(
            t, nncore.mean_rows(t, p["x"], RowAggregator(np.array([0, 2, 3, 3, 6]), [0, 1, 2, 3, 4, 0], 5))
        ),
        "relu": lambda t, p: quadratic_readout(t, nncore.relu(t, p["x"])),
        "l2_normalize": lambda t, p: quadratic_readout(
            t, nncore.l2_normalize_rows(t, nncore.linear(t, p["x"], p["w"]))
        ),
        "gather": lambda t, p: quadratic_readout(
            t, nncore.gather_rows(t, p["x"], [0, 2, 2, 4])
        ),
        "gather_increasing": lambda t, p: quadratic_readout(
            t, nncore.gather_rows(t, p["x"], [1, 2, 4])
        ),
        "rowwise_dot": lambda t, p: nncore.sum_all(t, nncore.rowwise_dot(t, p["x"], p["y"])),
        "softmax_xent": lambda t, p: nncore.softmax_xent(t, p["x"], [0, 3, 1, 2, 0]),
        "listwise_xent": lambda t, p: nncore.listwise_xent(
            t, nncore.rowwise_dot(t, p["x"], p["y"]), segments, seg_weights
        ),
        "scale_add": lambda t, p: quadratic_readout(
            t, nncore.add(t, nncore.scale(t, p["x"], 2.5), p["x"])
        ),
        "dropout": lambda t, p: quadratic_readout(
            t, nncore.dropout(t, p["x"], 0.5, np.random.default_rng(99))
        ),
        "sum_all": lambda t, p: nncore.sum_all(t, p["x"]),
        "gram_pairs": lambda t, p: quadratic_readout(
            t, nncore.gram_pairs(t, p["x"], [0, 2, 2, 4, 1], [1, 2, 3, 0, 1], 0.7)
        ),
    }


@pytest.mark.parametrize("which", sorted(_loss_builders()))
def test_gradcheck_each_primitive(which):
    """Reverse-mode gradients match central finite differences (<= 1e-4)."""
    rng = np.random.default_rng(abs(hash(which)) % 2**31)
    params = ParamSet(dtype=np.float64)
    # keep entries away from the ReLU kink so the differences are smooth
    x = rng.standard_normal((5, 4))
    x += np.sign(x) * 0.05
    params.add("x", x)
    params.add("w", rng.standard_normal((4, 4)))
    params.add("b", rng.standard_normal((1, 4)))
    params.add("y", rng.standard_normal((5, 4)))
    build = _loss_builders()[which]

    numeric = finite_difference_grads(lambda: build(Tape(), params).item(), params)
    tape = Tape()
    analytic = backward(tape, build(tape, params), params)
    assert gradcheck_errors(analytic, numeric) <= 1e-4


class TestGramPairs:
    @staticmethod
    def both_paths(x, left, right, tau, weights):
        """(value, x.grad) of sum_j weights[j] * pair_j, through gram_pairs
        and through gather_rows -> rowwise_dot -> scale."""

        def gram(tape, leaf):
            return nncore.gram_pairs(tape, leaf, left, right, 1.0 / tau)

        def gathered(tape, leaf):
            dots = nncore.rowwise_dot(
                tape, nncore.gather_rows(tape, leaf, left), nncore.gather_rows(tape, leaf, right)
            )
            return nncore.scale(tape, dots, 1.0 / tau)

        results = []
        for pairs in (gram, gathered):
            tape = Tape()
            x_leaf = leaf(x)
            out = pairs(tape, x_leaf)
            weighted = nncore.rowwise_dot(tape, out, Tensor2(weights.reshape(-1, 1)))
            backward(tape, nncore.sum_all(tape, weighted))
            results.append((out.data, x_leaf.grad))
        return results

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=9),
        d=st.integers(min_value=1, max_value=6),
        ids=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=25),
        tau=st.floats(min_value=0.05, max_value=20.0).filter(lambda t: t != 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_gather_dot_scale(self, n, d, ids, tau, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        left = [a % n for a, _ in ids]
        right = [b % n for _, b in ids]
        weights = rng.standard_normal(len(ids))
        (gram_out, gram_grad), (ref_out, ref_grad) = self.both_paths(x, left, right, tau, weights)
        np.testing.assert_allclose(gram_out, ref_out, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gram_grad, ref_grad, rtol=1e-10, atol=1e-10)

    def test_length_mismatch_and_range(self):
        x = leaf(np.ones((3, 2)))
        with pytest.raises(ValueError):
            nncore.gram_pairs(Tape(), x, [0, 1], [0])
        with pytest.raises(IndexError):
            nncore.gram_pairs(Tape(), x, [0, 3], [0, 1])


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = ParamSet()
        params.add("w", np.ones((2, 2)))
        before = params["w"].data.copy()
        adam_step(params, {"w": np.zeros((2, 2))}, lr=0.1)
        assert np.array_equal(params["w"].data, before)

    def test_first_step_is_signed_lr(self):
        params = ParamSet(dtype=np.float64)
        params.add("w", np.zeros((1, 3)))
        g = np.array([[0.5, -2.0, 1e-3]])
        adam_step(params, {"w": g}, lr=0.1)
        np.testing.assert_allclose(params["w"].data, -0.1 * np.sign(g), rtol=1e-4)

    def test_quadratic_converges_and_matches_scalar_recurrence(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w_ref, m, v = 1.0, 0.0, 0.0
        params = ParamSet(dtype=np.float64)
        params.add("w", np.array([[1.0]]))
        for t in range(1, 101):
            g = 2 * w_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w_ref -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            adam_step(params, {"w": np.array([[2 * params["w"].data[0, 0]]])}, lr=lr)
        assert math.isclose(params["w"].data[0, 0], w_ref, rel_tol=1e-9)
        assert abs(params["w"].data[0, 0]) < 0.1

    def test_shape_mismatch(self):
        params = ParamSet()
        params.add("w", np.ones((2, 2)))
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros((1, 2))})

    @pytest.mark.parametrize("grads", [
        {"a": np.ones((1, 2)), "b": np.ones((1, 2))},  # b's shape is wrong
        {"a": np.ones((1, 2))},  # b has no gradient
    ])
    def test_a_refused_step_moves_no_state(self, grads):
        params = ParamSet()
        params.add("a", np.ones((1, 2)))
        params.add("b", np.ones((2, 1)))
        adam_step(params, {"a": np.full((1, 2), 0.5), "b": np.full((2, 1), -0.5)})
        before = (params.step, params.flat.tobytes(), params.m.tobytes(), params.v.tobytes())
        with pytest.raises(ValueError, match="'b'"):
            adam_step(params, grads)
        assert (params.step, params.flat.tobytes(), params.m.tobytes(), params.v.tobytes()) == before
        assert params["a"].data.tobytes() + params["b"].data.tobytes() == before[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fifty_steps_are_the_per_tensor_textbook_update_bit_for_bit(self, dtype):
        rng = np.random.default_rng(3)
        shapes = {"w1": (4, 3), "b1": (1, 3), "still": (2, 2), "head": (3, 1)}
        params = ParamSet(dtype=dtype)
        ref = {}
        for name, shape in shapes.items():
            params.add(name, rng.standard_normal(shape))
            ref[name] = [params[name].data.copy(), np.zeros(shape, dtype), np.zeros(shape, dtype)]
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 51):
            grads = {name: (rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 2)).astype(dtype)
                     for name, shape in shapes.items()}
            grads["still"][:] = 0  # a parameter the loss never touches
            adam_step(params, grads, lr=lr)
            for name, (p, m, v) in ref.items():
                g = grads[name]
                m[:] = m * b1 + (1 - b1) * g
                v[:] = v * b2 + (1 - b2) * g * g
                p -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        for name, (p, _, _) in ref.items():
            assert params[name].data.dtype == dtype
            assert params[name].data.tobytes() == p.tobytes(), name
        assert params["still"].data.tobytes() == ref["still"][0].tobytes()
        assert params.step == 50


class TestTapeAndParamSet:
    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(11)
        xv = rng.standard_normal((6, 5)).astype(np.float32)
        wv = rng.standard_normal((5, 4)).astype(np.float32)

        def run() -> bytes:
            tape = Tape()
            x = Tensor2(xv)
            w = Tensor2(wv)
            h = nncore.relu(tape, nncore.linear(tape, x, w))
            out = nncore.l2_normalize_rows(tape, h)
            return out.data.tobytes()

        assert run() == run()

    def test_non_finite_op_output_raises(self):
        tape = Tape()
        big = leaf(np.array([[1e308]]))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            nncore.add(tape, big, big)

    def test_paramset_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        params = ParamSet()
        params.add("a.w", rng.standard_normal((3, 2)).astype(np.float32))
        params.add("a.b", rng.standard_normal((1, 2)).astype(np.float32))
        params.step = 17
        params.save(tmp_path / "p.bin")
        back = ParamSet.load(tmp_path / "p.bin")
        assert back.names() == params.names()
        assert back.step == 17
        for name in params.names():
            assert np.array_equal(back[name].data, params[name].data)

    def test_every_tensor_is_a_view_of_the_buffer(self, tmp_path):
        params = ParamSet()
        for i, shape in enumerate(((3, 2), (1, 2), (2, 4))):
            params.add(f"p{i}", np.full(shape, float(i)))
            for name in params.names():  # adding rebinds the tensors added before
                assert np.shares_memory(params[name].data, params.flat), name
        assert params.flat.tolist() == [0.0] * 6 + [1.0] * 2 + [2.0] * 8
        assert params.m.shape == params.v.shape == params.flat.shape
        params.save(tmp_path / "p.bin")
        back = ParamSet.load(tmp_path / "p.bin")
        for name in back.names():
            assert np.shares_memory(back[name].data, back.flat), name
        assert back.flat.tobytes() == params.flat.tobytes()

    def test_save_writes_the_bytes_of_existing_files(self, tmp_path):
        params = ParamSet()
        params.add("mlp.w1", np.arange(6, dtype=np.float64).reshape(2, 3) / 7)
        params.add("mlp.b1", np.array([[-1.5, 0.25, 3.0]]))
        params.add("head.w", np.full((3, 1), 1e-3))
        params.step = 42
        params.save(tmp_path / "p.bin")
        digest = hashlib.sha256((tmp_path / "p.bin").read_bytes()).hexdigest()
        assert digest == "b32b99969a396f601474db7affeb7df55f22aaeb74582a16501477336254a5fd"

    def test_duplicate_param_name_rejected(self):
        params = ParamSet()
        params.add("w", np.ones((1, 1)))
        with pytest.raises(ValueError):
            params.add("w", np.ones((1, 1)))

    def test_truncated_param_file_detected(self, tmp_path):
        params = ParamSet()
        params.add("w", np.ones((8, 8), np.float32))
        params.save(tmp_path / "p.bin")
        data = (tmp_path / "p.bin").read_bytes()
        (tmp_path / "short.bin").write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            ParamSet.load(tmp_path / "short.bin")
