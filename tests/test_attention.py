"""Attention ops against a brute-force formula oracle plus the exact
identity cases (single token, forced choice, zero values, full mask)."""

import math

import numpy as np
import pytest

import dualseg.autodiff as ad
from dualseg.attention import (AttentionMask, AttentionWeights, TokenSeq,
                               build_patch_mask, cross_fuse, project_qkv,
                               scaled_dot_attention, self_attention)
from dualseg.autodiff import Tensor
from dualseg.errors import DimensionError, InvalidMaskError
from dualseg.tiling import plan_grid


# ---------------------------------------------------------------------------
# oracle: direct formula evaluation with scalar loops


def attention_oracle(q, k, v, allowed=None):
    """Returns (output, attention matrix) computed entry by entry."""
    n_q, d_k = q.shape
    n_k = k.shape[0]
    att = np.zeros((n_q, n_k))
    out = np.zeros((n_q, v.shape[1]))
    for i in range(n_q):
        scores = []
        for j in range(n_k):
            s = 0.0
            for t in range(d_k):
                s += q[i, t] * k[j, t]
            s /= math.sqrt(d_k)
            if allowed is not None:
                row = allowed[0] if allowed.shape[0] == 1 else allowed[i]
                if not row[j]:
                    s = -1e9
            scores.append(s)
        mx = max(scores)
        e = [math.exp(s - mx) for s in scores]
        z = sum(e)
        for j in range(n_k):
            att[i, j] = e[j] / z
            out[i] += att[i, j] * v[j]
    return out, att


def fuse_oracle(q_g, k_l, v_l, q_l, k_g, v_g, allowed_gl=None, allowed_lg=None):
    og, _ = attention_oracle(q_g, k_l, v_l, allowed_gl)
    ol, _ = attention_oracle(q_l, k_g, v_g, allowed_lg)
    return og + q_g, ol + q_l


def seq(tokens, spatial=None):
    t = np.asarray(tokens, dtype=np.float64)
    if spatial is None:
        spatial = (t.shape[0], 1)
    return TokenSeq(Tensor(t), spatial)


class TestMaskType:
    def test_rejects_empty_row(self):
        with pytest.raises(InvalidMaskError):
            AttentionMask(np.array([[True, False], [False, False]]))

    def test_reports_offending_rows(self):
        with pytest.raises(InvalidMaskError, match=r"\[1\]"):
            AttentionMask(np.array([[True, True], [False, False]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionError):
            AttentionMask(np.array([True, False]))

    def test_accepts_broadcast_row(self):
        m = AttentionMask(np.array([[True, False, True]]))
        assert m.shape == (1, 3)


class TestProjectQKV:
    def test_identity_projections(self):
        f = seq(np.arange(6.0).reshape(2, 3))
        w = AttentionWeights(3, 3, rng=np.random.default_rng(0))
        for m in (w.w_q, w.w_k, w.w_v):
            m.data[:] = np.eye(3)
        q, k, v = project_qkv(f, w)
        for m in (q, k, v):
            np.testing.assert_array_equal(m.data, f.tokens.data)

    def test_zero_tokens(self):
        f = seq(np.zeros((4, 3)), spatial=(2, 2))
        w = AttentionWeights(3, 2, rng=np.random.default_rng(1))
        q, k, v = project_qkv(f, w)
        for m in (q, k, v):
            np.testing.assert_array_equal(m.data, 0.0)

    def test_matches_matmul(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((2, 3))
        w = AttentionWeights(3, 2, rng=rng)
        q, _, _ = project_qkv(seq(t), w)
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for u in range(3):
                    expected[i, j] += t[i, u] * w.w_q.data[u, j]
        np.testing.assert_allclose(q.data, expected, atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            project_qkv(seq(np.ones((2, 4))), AttentionWeights(3, 2))


class TestScaledDotAttention:
    def test_single_token_returns_value_exactly(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.standard_normal((1, 4)))
        k = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((1, 5)))
        out = scaled_dot_attention(q, k, v)
        np.testing.assert_array_equal(out.data, v.data)

    def test_forced_choice_mask_selects_value_row(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.standard_normal((3, 4)))
        k = Tensor(rng.standard_normal((5, 4)))
        v = Tensor(rng.standard_normal((5, 2)))
        pick = [2, 0, 4]
        allowed = np.zeros((3, 5), dtype=bool)
        for i, j in enumerate(pick):
            allowed[i, j] = True
        out = scaled_dot_attention(q, k, v, AttentionMask(allowed))
        np.testing.assert_array_equal(out.data, v.data[pick])

    def test_two_key_case_hand_evaluated(self):
        q = Tensor([[1.0, 0.0]])
        k = Tensor([[1.0, 0.0], [0.0, 1.0]])
        v = Tensor([[1.0, 0.0], [0.0, 1.0]])
        out = scaled_dot_attention(q, k, v)
        e0, e1 = math.exp(1 / math.sqrt(2)), math.exp(0.0)
        w0, w1 = e0 / (e0 + e1), e1 / (e0 + e1)
        np.testing.assert_allclose(out.data, [[w0, w1]], atol=1e-12)

    def test_matches_oracle_unmasked(self):
        rng = np.random.default_rng(5)
        for n_q, n_k, d_k, d_v in [(2, 3, 4, 2), (5, 5, 3, 3), (1, 7, 2, 6)]:
            q = rng.standard_normal((n_q, d_k))
            k = rng.standard_normal((n_k, d_k))
            v = rng.standard_normal((n_k, d_v))
            got = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
            want, _ = attention_oracle(q, k, v)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_matches_oracle_masked(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((6, 3))
        v = rng.standard_normal((6, 2))
        allowed = rng.random((4, 6)) > 0.4
        allowed[:, 0] = True
        got = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                                   AttentionMask(allowed)).data
        want, _ = attention_oracle(q, k, v, allowed)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_broadcast_mask_row(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((3, 2))
        k = rng.standard_normal((4, 2))
        v = rng.standard_normal((4, 2))
        allowed = np.array([[True, False, True, False]])
        got = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                                   AttentionMask(allowed)).data
        want, _ = attention_oracle(q, k, v, allowed)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_rows_normalise_over_allowed_keys(self):
        # with V = identity the output rows are the attention weights
        rng = np.random.default_rng(8)
        q = rng.standard_normal((5, 3)) * 4
        k = rng.standard_normal((5, 3)) * 4
        allowed = rng.random((5, 5)) > 0.5
        allowed[:, 2] = True
        att = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(np.eye(5)),
                                   AttentionMask(allowed)).data
        np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-9)
        assert att[~allowed].max() < 1e-200
        np.testing.assert_allclose(att[allowed].reshape(-1).sum(), 5.0, atol=1e-9)

    def test_all_true_mask_is_bitwise_noop(self):
        rng = np.random.default_rng(9)
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((6, 3))
        v = rng.standard_normal((6, 5))
        plain = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
        masked = scaled_dot_attention(
            Tensor(q), Tensor(k), Tensor(v),
            AttentionMask(np.ones((4, 6), dtype=bool))).data
        assert (plain == masked).all()
        assert plain.tobytes() == masked.tobytes()

    def test_permuting_keys_and_values_together(self):
        rng = np.random.default_rng(10)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 2))
        allowed = rng.random((3, 6)) > 0.3
        allowed[:, 1] = True
        perm = rng.permutation(6)
        base = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                                    AttentionMask(allowed)).data
        shuffled = scaled_dot_attention(Tensor(q), Tensor(k[perm]), Tensor(v[perm]),
                                        AttentionMask(allowed[:, perm])).data
        np.testing.assert_allclose(shuffled, base, atol=1e-12)

    def test_no_silent_renormalisation_under_scaling(self):
        rng = np.random.default_rng(11)
        q = rng.standard_normal((3, 3))
        k = rng.standard_normal((4, 3))
        v = rng.standard_normal((4, 2))
        c = 2.5
        got = scaled_dot_attention(Tensor(q * c), Tensor(k * c), Tensor(v)).data
        want, _ = attention_oracle(q * c, k * c, v)  # scores scale by c^2
        np.testing.assert_allclose(got, want, atol=1e-10)
        base, _ = attention_oracle(q, k, v)
        assert not np.allclose(got, base, atol=1e-3)

    def test_shape_errors(self):
        q, k, v = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones((4, 2)))
        with pytest.raises(DimensionError):
            scaled_dot_attention(q, k, v)
        k2, v2 = Tensor(np.ones((4, 3))), Tensor(np.ones((5, 2)))
        with pytest.raises(DimensionError):
            scaled_dot_attention(q, k2, v2)
        with pytest.raises(DimensionError):
            scaled_dot_attention(q, k2, Tensor(np.ones((4, 2))),
                                 AttentionMask(np.ones((3, 4), dtype=bool)))


class TestSelfAttention:
    def test_single_token_returns_value_projection(self):
        rng = np.random.default_rng(12)
        f = seq(rng.standard_normal((1, 3)))
        w = AttentionWeights(3, 3, rng=rng)
        out = self_attention(f, w)
        np.testing.assert_allclose(out.tokens.data,
                                   f.tokens.data @ w.w_v.data, atol=1e-12)

    def test_identical_tokens_give_identical_rows(self):
        f = seq(np.tile([[0.3, -1.2, 0.7]], (2, 1)))
        w = AttentionWeights(3, 3, rng=np.random.default_rng(13))
        out = self_attention(f, w).tokens.data
        np.testing.assert_array_equal(out[0], out[1])

    def test_identity_projections_match_oracle(self):
        rng = np.random.default_rng(14)
        t = rng.standard_normal((4, 3))
        w = AttentionWeights(3, 3, rng=rng)
        for m in (w.w_q, w.w_k, w.w_v):
            m.data[:] = np.eye(3)
        out = self_attention(seq(t, spatial=(2, 2)), w).tokens.data
        want, _ = attention_oracle(t, t, t)
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_preserves_sequence_metadata(self):
        f = seq(np.ones((4, 3)), spatial=(2, 2))
        out = self_attention(f, AttentionWeights(3, 3))
        assert out.spatial == (2, 2)


class TestCrossFuse:
    def _random_inputs(self, rng, n_g=3, n_l=4, d=3):
        return (rng.standard_normal((n_g, d)), rng.standard_normal((n_l, d)),
                rng.standard_normal((n_l, d)), rng.standard_normal((n_l, d)),
                rng.standard_normal((n_g, d)), rng.standard_normal((n_g, d)))

    def test_zero_local_values_leave_global_queries_unchanged(self):
        rng = np.random.default_rng(15)
        q_g, k_l, v_l, q_l, k_g, v_g = self._random_inputs(rng)
        fg, _ = cross_fuse(Tensor(q_g), Tensor(k_l), Tensor(np.zeros_like(v_l)),
                           Tensor(q_l), Tensor(k_g), Tensor(v_g))
        np.testing.assert_array_equal(fg.data, q_g)

    def test_zero_global_values_leave_local_queries_unchanged(self):
        rng = np.random.default_rng(16)
        q_g, k_l, v_l, q_l, k_g, v_g = self._random_inputs(rng)
        _, fl = cross_fuse(Tensor(q_g), Tensor(k_l), Tensor(v_l),
                           Tensor(q_l), Tensor(k_g), Tensor(np.zeros_like(v_g)))
        np.testing.assert_array_equal(fl.data, q_l)

    def test_single_token_case(self):
        rng = np.random.default_rng(17)
        q_g, k_l, v_l, q_l, k_g, v_g = self._random_inputs(rng, n_g=1, n_l=1)
        fg, fl = cross_fuse(*(Tensor(x) for x in (q_g, k_l, v_l, q_l, k_g, v_g)))
        np.testing.assert_allclose(fg.data, v_l + q_g, atol=1e-12)
        np.testing.assert_allclose(fl.data, v_g + q_l, atol=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(18)
        inputs = self._random_inputs(rng, n_g=2, n_l=2)
        fg, fl = cross_fuse(*(Tensor(x) for x in inputs))
        want_g, want_l = fuse_oracle(*inputs)
        np.testing.assert_allclose(fg.data, want_g, atol=1e-10)
        np.testing.assert_allclose(fl.data, want_l, atol=1e-10)

    def test_masked_directions_match_oracle(self):
        rng = np.random.default_rng(19)
        inputs = self._random_inputs(rng, n_g=3, n_l=5)
        allowed_gl = rng.random((3, 5)) > 0.3
        allowed_gl[:, 0] = True
        allowed_lg = np.ones((1, 3), dtype=bool)
        allowed_lg[0, 2] = False
        fg, fl = cross_fuse(*(Tensor(x) for x in inputs),
                            mask_gl=AttentionMask(allowed_gl),
                            mask_lg=AttentionMask(allowed_lg))
        want_g, want_l = fuse_oracle(*inputs, allowed_gl, allowed_lg)
        np.testing.assert_allclose(fg.data, want_g, atol=1e-10)
        np.testing.assert_allclose(fl.data, want_l, atol=1e-10)

    def test_rejects_residual_width_mismatch(self):
        rng = np.random.default_rng(20)
        with pytest.raises(DimensionError):
            cross_fuse(Tensor(rng.random((2, 3))), Tensor(rng.random((4, 3))),
                       Tensor(rng.random((4, 2))), Tensor(rng.random((4, 3))),
                       Tensor(rng.random((2, 3))), Tensor(rng.random((2, 3))))

    def test_gradients_of_full_fusion(self):
        rng = np.random.default_rng(21)
        tg = rng.standard_normal((4, 3)) * 0.5
        tl = rng.standard_normal((4, 3)) * 0.5
        ws = [rng.standard_normal((3, 3)) * 0.5 for _ in range(6)]
        allowed = np.ones((1, 4), dtype=bool)
        allowed[0, 3] = False
        mask = AttentionMask(allowed)

        def f(tgt, tlt, wq_g, wk_g, wv_g, wq_l, wk_l, wv_l):
            q_g = ad.matmul(tgt, wq_g)
            k_g = ad.matmul(tgt, wk_g)
            v_g = ad.matmul(tgt, wv_g)
            q_l = ad.matmul(tlt, wq_l)
            k_l = ad.matmul(tlt, wk_l)
            v_l = ad.matmul(tlt, wv_l)
            fg, fl = cross_fuse(q_g, k_l, v_l, q_l, k_g, v_g, mask_lg=mask)
            return ad.add(ad.sum_all(fg), ad.sum_all(fl))

        assert ad.gradcheck(f, [tg, tl] + ws) < 1e-5


class TestBuildPatchMask:
    def test_full_coverage_tile_allows_everything(self):
        grid = plan_grid(32, 32, 32, 8)
        mask = build_patch_mask(grid, 0, (4, 4))
        assert mask.allowed.all()
        assert mask.shape == (1, 16)

    def test_quadrant_tile_with_dilation(self):
        grid = plan_grid(64, 64, 32, 0)
        mask = build_patch_mask(grid, 0, (2, 2))
        assert mask.allowed.all()  # one cell plus right/down/diagonal neighbours

    def test_quadrant_tile_without_dilation(self):
        grid = plan_grid(64, 64, 32, 0)
        mask = build_patch_mask(grid, 0, (2, 2), dilation=0)
        np.testing.assert_array_equal(mask.allowed[0], [True, False, False, False])

    def test_disjoint_tiles_have_disjoint_undilated_sets(self):
        grid = plan_grid(64, 64, 32, 0)
        m0 = build_patch_mask(grid, 0, (4, 4), dilation=0).allowed[0]
        m3 = build_patch_mask(grid, 3, (4, 4), dilation=0).allowed[0]
        assert not (m0 & m3).any()

    def test_every_tile_gets_nonempty_mask(self):
        grid = plan_grid(100, 70, 32, 8)
        for i in range(grid.n_tiles):
            mask = build_patch_mask(grid, i, (5, 5))
            assert mask.allowed.any()

    def test_rejects_bad_index(self):
        grid = plan_grid(64, 64, 32, 0)
        with pytest.raises(DimensionError):
            build_patch_mask(grid, 99, (2, 2))
