import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from frustumbox import tensor as T
from frustumbox.checkpoint import load_checkpoint, save_checkpoint
from frustumbox.errors import CheckpointError, ConfigError, DataError
from frustumbox.model import (
    LOG_EXTENT_CAP,
    BoxAnnotator,
    ModelConfig,
    decode_prediction,
    direction_score,
    export_attention,
)
from frustumbox.geometry import DIRECTION_BACK, DIRECTION_FRONT, Box3D
from frustumbox.loss import total_loss
from frustumbox.train import TrainConfig
from oracles import every_node_backward, full_rows_forward


def tiny_config(**kw):
    base = dict(d=16, n_points=8, n_local_layers=1, n_global_layers=1,
                n_decoder_layers=1, heads=2, head_hidden=8)
    base.update(kw)
    return ModelConfig(**base)


def make_model(seed=0, **kw):
    return BoxAnnotator(tiny_config(**kw), rng=np.random.default_rng(seed))


# stage toggles of the ablation variants (``evaluate.ablation_config``)
VARIANTS = {
    "A": dict(n_global_layers=0, n_decoder_layers=0, pos_mode="none"),
    "B": dict(n_global_layers=1, n_decoder_layers=0, pos_mode="none"),
    "C": dict(n_global_layers=1, n_decoder_layers=1, pos_mode="none"),
    "full": dict(n_global_layers=1, n_decoder_layers=1, pos_mode="mlp"),
}


def rand_points(rng, b, n):
    return rng.normal(size=(b, n, 3))


# a unit box at the frustum centre, heading 0
UNIT_ROW = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0])


class TestConfig:
    def test_desk_preset(self):
        cfg = ModelConfig.desk()
        assert cfg.d == 64 and cfg.n_points == 128
        assert cfg.n_local_layers == 2 and cfg.n_global_layers == 1
        assert cfg.n_decoder_layers == 1

    def test_invalid_pos_mode(self):
        with pytest.raises(ConfigError, match="pos_mode must be one of"):
            ModelConfig(pos_mode="fourier")

    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="embed width 10 not divisible by 3 heads"):
            ModelConfig(d=10, heads=3)

    @pytest.mark.parametrize("bad", [{"heads": 0}, {"heads": -1}, {"d": -1}, {"d": 0},
                                     {"n_points": 0}, {"head_hidden": -1}])
    def test_widths_and_heads_checked_before_divisibility(self, bad):
        with pytest.raises(ConfigError, match="widths, point counts and heads must be >= 1"):
            ModelConfig.desk(**bad)

    def test_roundtrip_dict(self):
        cfg = ModelConfig.desk(n_global_layers=0, pos_mode="sine")
        assert ModelConfig.from_dict(dataclasses.asdict(cfg)) == cfg

    def test_frozen_once_validated(self):
        # a field set after construction would skip __post_init__'s checks
        cfg = ModelConfig.desk()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.heads = 3

    def test_eight_fields_no_stage_flags(self):
        keys = dataclasses.asdict(ModelConfig())
        assert len(keys) == 8
        assert "use_global" not in keys and "use_decoder" not in keys

    def test_negative_layer_counts_rejected(self):
        with pytest.raises(ConfigError, match="layer counts must be >= 0"):
            ModelConfig.desk(n_global_layers=-1)
        with pytest.raises(ConfigError, match="layer counts must be >= 0"):
            ModelConfig.desk(n_decoder_layers=-1)
        with pytest.raises(ConfigError, match="at least one local layer"):
            ModelConfig.desk(n_local_layers=0)

    def test_stage_flags_of_older_dicts_map_to_zero_layers(self):
        old = dict(dataclasses.asdict(ModelConfig.desk()), use_global=False, use_decoder=True)
        assert ModelConfig.from_dict(old) == ModelConfig.desk(n_global_layers=0)
        old = dict(dataclasses.asdict(ModelConfig.desk()), use_global=True, use_decoder=False)
        assert ModelConfig.from_dict(old) == ModelConfig.desk(n_decoder_layers=0)


class TestEmbedPoints:
    def test_shape(self):
        m = make_model()
        out = m.embed_points(np.zeros((1, 4, 3)))
        assert out.shape == (1, 4, 16)

    def test_duplicate_points_duplicate_rows(self):
        m = make_model()
        rng = np.random.default_rng(1)
        pts = rand_points(rng, 1, 6)
        pts[0, 3] = pts[0, 1]
        out = m.embed_points(pts).data
        assert (out[0, 3] == out[0, 1]).all()

    def test_permutation_equivariance(self):
        m = make_model()
        rng = np.random.default_rng(2)
        pts = rand_points(rng, 1, 6)
        perm = rng.permutation(6)
        out = m.embed_points(pts).data
        out_p = m.embed_points(pts[:, perm]).data
        np.testing.assert_array_equal(out[:, perm], out_p)


class TestPositionalEncoding:
    def test_mlp_mode_identical_coords(self):
        m = make_model(pos_mode="mlp")
        pts = np.zeros((1, 3, 3))
        pts[0, 0] = pts[0, 2] = [1.0, 2.0, 3.0]
        out = m.positional_encode(pts).data
        assert (out[0, 0] == out[0, 2]).all()

    def test_sine_mode_shape_and_determinism(self):
        m = make_model(pos_mode="sine")
        rng = np.random.default_rng(3)
        pts = rand_points(rng, 2, 5)
        a = m.positional_encode(pts).data
        b = m.positional_encode(pts).data
        assert a.shape == (2, 5, 16)
        assert (a == b).all()

    def test_none_mode_raises_on_direct_call(self):
        m = make_model(pos_mode="none")
        with pytest.raises(ConfigError, match="requested with pos_mode='none'"):
            m.positional_encode(np.zeros((1, 2, 3)))

    def test_none_mode_forward_ignores_positions(self):
        # without positional encoding the model is coordinate-MLP only; the
        # forward must still run and produce the contracted shapes
        m = make_model(pos_mode="none")
        out = m.forward(np.zeros((2, 8, 3)))
        assert out.boxes.shape == (2, 7)

    def test_pos_mode_gradient_reaches_encoder(self):
        m = make_model(pos_mode="mlp")
        rng = np.random.default_rng(4)
        pts = rand_points(rng, 2, 8)
        out = m.forward(pts)
        T.backward(T.tsum(out.boxes))
        g = m.params["pos.l0.w"].grad
        assert g is not None and np.abs(g).max() > 0


class TestForwardLocal:
    def test_sequence_length(self):
        m = make_model()
        emb = m.embed_points(np.zeros((2, 8, 3)))
        out = m.forward_local(emb)
        assert out.shape == (2, 15, 16)

    def test_point_permutation_moves_point_rows_fixes_tokens(self):
        m = make_model()
        rng = np.random.default_rng(5)
        pts = rand_points(rng, 1, 8)
        perm = rng.permutation(8)
        emb = m.embed_points(pts)
        emb_p = m.embed_points(pts[:, perm])
        out = m.forward_local(emb)
        out_p = m.forward_local(emb_p)
        np.testing.assert_allclose(out_p.data[:, :7], out.data[:, :7], atol=1e-9)
        np.testing.assert_allclose(out_p.data[:, 7:], out.data[:, 7 + perm], atol=1e-9)

    def test_zeroed_output_projections_residual_identity(self):
        m = make_model(n_local_layers=1)
        for name in ("local.0.attn.o.w", "local.0.attn.o.b",
                     "local.0.mlp.l2.w", "local.0.mlp.l2.b"):
            m.params[name].data[:] = 0.0
        rng = np.random.default_rng(6)
        emb = m.embed_points(rand_points(rng, 2, 8))
        seq = T.concat([m.box_token_sequence(2), emb], axis=1)
        out = m.forward_local(emb)
        np.testing.assert_array_equal(out.data, seq.data)


class TestForwardGlobal:
    def test_single_object_attends_to_self(self, monkeypatch):
        m = make_model()
        emb = m.embed_points(np.random.default_rng(7).normal(size=(1, 8, 3)))
        x = m.forward_local(emb)
        maps = []
        core = T.attention_core

        def capturing(Q, K, V, scale, capture=False):
            ctx, weights = core(Q, K, V, scale, True)
            maps.append(weights)
            return ctx, None

        monkeypatch.setattr(T, "attention_core", capturing)
        out = m.forward_global(x)
        # the global maps are (S, H, B, B); B=1 forces 1.0
        assert len(maps) == 1 and maps[0].shape == (15, 2, 1, 1)
        assert (maps[0].data == 1.0).all()
        assert out.shape == x.shape

    def test_batch_permutation_equivariance_bit_exact(self):
        m = make_model()
        rng = np.random.default_rng(8)
        pts = rand_points(rng, 5, 8)
        perm = rng.permutation(5)
        out = m.forward(pts)
        out_p = m.forward(pts[perm])
        assert (out.boxes.data[perm] == out_p.boxes.data).all()
        assert (out.direction_logits.data[perm] == out_p.direction_logits.data).all()

    def test_twin_objects_and_traces_under_permutation(self):
        m = make_model(n_global_layers=2)
        rng = np.random.default_rng(14)
        pts = rand_points(rng, 6, 8)
        pts[4] = pts[1]  # byte-identical twins tie in the canonical order
        perm = rng.permutation(6)
        out = m.forward(pts)
        out_p = m.forward(pts[perm])
        assert (out.boxes.data[perm] == out_p.boxes.data).all()
        assert (out.direction_logits.data[perm] == out_p.direction_logits.data).all()
        assert (out.boxes.data[1] == out.boxes.data[4]).all()
        assert (out.direction_logits.data[1] == out.direction_logits.data[4]).all()

    def test_cross_object_information_flow(self):
        m = make_model()
        rng = np.random.default_rng(9)
        pts = rand_points(rng, 3, 8)
        base = m.forward(pts).boxes.data.copy()
        bumped = pts.copy()
        bumped[2] += 0.5
        moved = m.forward(bumped).boxes.data
        # object 0 must feel object 2's change through the global stage
        assert np.abs(moved[0] - base[0]).max() > 0

    def test_no_cross_object_flow_when_global_off(self):
        m = make_model(n_global_layers=0)
        rng = np.random.default_rng(10)
        pts = rand_points(rng, 3, 8)
        base = m.forward(pts).boxes.data.copy()
        bumped = pts.copy()
        bumped[2] += 0.5
        moved = m.forward(bumped).boxes.data
        np.testing.assert_array_equal(moved[:2], base[:2])
        assert np.abs(moved[2] - base[2]).max() > 0


class TestForwardDecoder:
    def test_output_shape(self):
        m = make_model()
        rng = np.random.default_rng(11)
        x = m.forward_local(m.embed_points(rand_points(rng, 2, 8)))
        q = m.forward_decoder(x)
        assert q.shape == (2, 7, 16)

    def test_point_feature_permutation_invariance(self):
        m = make_model()
        rng = np.random.default_rng(12)
        x = m.forward_local(m.embed_points(rand_points(rng, 1, 8)))
        data = x.data.copy()
        perm = rng.permutation(8)
        permuted = data.copy()
        permuted[:, 7:] = data[:, 7 + perm]
        q1 = m.forward_decoder(T.Tensor(data))
        q2 = m.forward_decoder(T.Tensor(permuted))
        np.testing.assert_allclose(q1.data, q2.data, atol=1e-9)

    def test_decoder_off_reads_encoder_tokens(self):
        m = make_model(n_decoder_layers=0)
        assert not any(name.startswith("dec.") for name in m.params)
        out = m.forward(np.zeros((2, 8, 3)))
        assert out.boxes.shape == (2, 7)


class TestHeads:
    def test_shapes(self):
        m = make_model()
        rng = np.random.default_rng(13)
        decoded = T.Tensor(rng.normal(size=(3, 7, 16)))
        assert m.regress_box(decoded).shape == (3, 7)
        assert m.classify_direction(decoded).shape == (3, 2)

    def test_readout_normalized_once(self):
        m = make_model()
        out = m.forward(rand_points(np.random.default_rng(14), 2, 8))
        nodes, seen, stack = [], set(), [out.boxes, out.direction_logits]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        gain = m.params["head.norm.gain"]
        assert sum(any(p is gain for p in n._parents) for n in nodes) == 1

    def _dim_head_outputs(self, value):
        """Box rows of a model whose extent head outputs `value` everywhere."""
        m = make_model()
        m.params["head.dim.l2.w"].data[:] = 0.0
        m.params["head.dim.l2.b"].data[:] = value
        tokens = T.Tensor(np.random.default_rng(13).normal(size=(3, 7, m.config.d)))
        return m.regress_box(tokens).data

    def test_log_dimension_decoding(self):
        # a zero log extent is a unit extent, exactly
        assert (self._dim_head_outputs(0.0)[:, 3:6] == 1.0).all()

    def test_extent_decode_is_bounded(self):
        # huge head outputs decode to the bound, finite and positive
        assert (self._dim_head_outputs(1e6)[:, 3:6] == math.exp(LOG_EXTENT_CAP)).all()
        assert (self._dim_head_outputs(-1e6)[:, 3:6] == math.exp(-LOG_EXTENT_CAP)).all()

    def test_decode_reads_the_row_extents(self):
        box = decode_prediction([0.1, 0.2, 0.3, 1.6, 3.9, 1.5, 0.4], np.array([1.0, 0.0]))
        assert (box.width, box.length, box.height) == (1.6, 3.9, 1.5)
        assert (box.cx, box.cy, box.cz) == (0.1, 0.2, 0.3)

    def test_direction_flip_adds_pi(self):
        front = decode_prediction(UNIT_ROW, np.array([5.0, 0.0]))
        back = decode_prediction(UNIT_ROW, np.array([0.0, 5.0]))
        assert front.yaw == pytest.approx(0.0)
        assert abs(back.yaw) == pytest.approx(math.pi)

    def test_yaw_wrapped_to_half_circle_before_flip(self):
        row = UNIT_ROW.copy()
        row[6] = 2.0  # outside [-pi/2, pi/2)
        box = decode_prediction(row, np.array([5.0, 0.0]))
        assert -math.pi / 2 <= box.yaw < math.pi / 2

    def test_direction_score_is_max_softmax(self):
        assert direction_score(np.array([0.0, 0.0])) == pytest.approx(0.5)
        assert direction_score(np.array([10.0, 0.0])) == pytest.approx(1.0, abs=1e-4)


class TestForward:
    def test_output_shapes(self):
        m = make_model()
        out = m.forward(np.zeros((3, 8, 3)))
        assert out.boxes.shape == (3, 7)
        assert out.direction_logits.shape == (3, 2)

    @pytest.mark.parametrize(
        "toggles",
        [
            dict(n_global_layers=0, n_decoder_layers=0, pos_mode="none"),  # A
            dict(n_global_layers=1, n_decoder_layers=0, pos_mode="none"),  # B
            dict(n_global_layers=1, n_decoder_layers=1, pos_mode="none"),  # C
            dict(n_global_layers=1, n_decoder_layers=1, pos_mode="sine"),  # D
            dict(n_global_layers=1, n_decoder_layers=1, pos_mode="mlp"),   # full
        ],
    )
    def test_all_toggle_configurations_run(self, toggles):
        m = make_model(**toggles)
        rng = np.random.default_rng(14)
        out = m.forward(rand_points(rng, 2, 8))
        assert np.isfinite(out.boxes.data).all()
        assert np.isfinite(out.direction_logits.data).all()

    def test_determinism(self):
        rng = np.random.default_rng(15)
        pts = rand_points(rng, 2, 8)
        m = make_model(seed=3)
        a = m.forward(pts)
        b = m.forward(pts)
        assert (a.boxes.data == b.boxes.data).all()
        assert (a.direction_logits.data == b.direction_logits.data).all()

    def test_point_permutation_leaves_boxes_unchanged(self):
        m = make_model()
        rng = np.random.default_rng(16)
        pts = rand_points(rng, 2, 8)
        perm = rng.permutation(8)
        a = m.forward(pts)
        b = m.forward(pts[:, perm])
        np.testing.assert_allclose(a.boxes.data, b.boxes.data, atol=1e-9)
        np.testing.assert_allclose(
            a.direction_logits.data, b.direction_logits.data, atol=1e-9
        )

    @pytest.mark.parametrize("variant", ["A", "B", "C", "full"])
    def test_capture_leaves_outputs_byte_identical(self, variant, monkeypatch):
        # capturing maps is local_attention's graph-free recompute: it builds
        # no graph, and a forward and backward after it give the same bytes
        m = make_model(n_local_layers=2, **VARIANTS[variant])
        pts = rand_points(np.random.default_rng(19), 3, 8)

        def forward_and_grads():
            T.zero_grads(m.params.values())
            out = m.forward(pts)
            T.backward(T.tsum(out.boxes) + T.tsum(out.direction_logits))
            grads = {name: p.grad.tobytes() for name, p in m.params.items()}
            return out.boxes.data.tobytes(), out.direction_logits.data.tobytes(), grads

        before = forward_and_grads()
        graph = []
        core = T.attention_core

        def spy(Q, K, V, *args):
            graph.append(Q.requires_grad or K.requires_grad or V.requires_grad)
            return core(Q, K, V, *args)

        monkeypatch.setattr(T, "attention_core", spy)
        maps = [m.local_attention(pts, layer) for layer in (0, 1, -2, -1)]
        monkeypatch.undo()
        assert graph == [False] * 6  # each map's layer and the layers before it
        # every local map keeps all N+7 query rows, the row-pruned last layer's too
        assert all(w.shape == (3, 2, 15, 15) for w in maps)
        assert maps[0].tobytes() == maps[2].tobytes() and maps[1].tobytes() == maps[3].tobytes()
        assert forward_and_grads() == before

    def test_no_weights_built_without_capture(self, monkeypatch):
        m = make_model()
        seen = []
        core = T.attention_core

        def spy(*args, **kwargs):
            ctx, weights = core(*args, **kwargs)
            seen.append(weights)
            return ctx, weights

        monkeypatch.setattr(T, "attention_core", spy)
        m.forward(rand_points(np.random.default_rng(20), 2, 8))
        # local, global, decoder self- and cross-attention
        assert len(seen) == 4 and all(w is None for w in seen)

    @pytest.mark.parametrize("variant", ["A", "B", "C", "full"])
    def test_attention_rows_per_layer(self, variant, monkeypatch):
        # a decoder-less model computes the box-token rows only from the last
        # local layer on; with a decoder every encoder layer computes them all
        stages = dict(VARIANTS[variant])
        stages["n_global_layers"] *= 2
        m = make_model(n_local_layers=2, **stages)
        seen = []
        core = T.attention_core

        def spy(Q, K, V, *args, **kwargs):
            seen.append((Q.shape, K.shape))
            return core(Q, K, V, *args, **kwargs)

        monkeypatch.setattr(T, "attention_core", spy)
        m.forward(rand_points(np.random.default_rng(22), 3, 8))
        rows = 15 if m.config.n_decoder_layers else 7
        expected = [((3, 2, 15, 8), (3, 2, 15, 8)), ((3, 2, rows, 8), (3, 2, 15, 8))]
        expected += [((rows, 2, 3, 8), (rows, 2, 3, 8))] * m.config.n_global_layers
        expected += [((3, 2, 7, 8), (3, 2, 7, 8)),
                     ((3, 2, 7, 8), (3, 2, 8, 8))] * m.config.n_decoder_layers
        assert seen == expected

    def test_encoder_layer_is_twenty_nodes(self):
        m = make_model()
        x = T.Tensor(np.random.default_rng(21).normal(size=(2, 15, 16)), requires_grad=True)
        out = m._encoder_layer(x, "local.0")
        ops, seen, stack = 0, set(), [out]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                ops += node._grad_fn is not None
                stack.extend(node._parents)
        # layer norm and linear are one node each, attention's core is one
        assert ops <= 20, ops

    def test_gradient_reaches_all_heads(self):
        m = make_model()
        rng = np.random.default_rng(17)
        pts = rand_points(rng, 2, 8)
        gts = [Box3D(0.1, -0.2, 0.0, 1.5, 3.0, 1.4, 0.3),
               Box3D(-0.3, 0.4, 0.1, 1.6, 3.5, 1.5, -1.2)]
        out = m.forward(pts)
        breakdown = total_loss(out.boxes, out.direction_logits, gts,
                               TrainConfig().lambda_box)
        T.backward(breakdown.total)
        for head in ("loc", "dim", "yaw", "dir"):
            g = m.params[f"head.{head}.l2.w"].grad
            assert g is not None and np.abs(g).max() > 0, head


class TestDecoderlessRows:
    """Without a decoder the encoders compute only the box-token rows; the
    oracle computes every row in every layer and slices before the heads."""

    @pytest.mark.parametrize("b", [1, 4])
    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_equals_full_rows_oracle(self, variant, b):
        m = BoxAnnotator(ModelConfig.desk(**VARIANTS[variant]), rng=np.random.default_rng(0))
        rng = np.random.default_rng(23 + b)
        pts = rng.normal(size=(b, m.config.n_points, 3))
        weights = rng.normal(size=(b, 7)), rng.normal(size=(b, 2))

        def grads(boxes, logits):
            T.zero_grads(m.params.values())
            T.backward(T.tsum(boxes * weights[0]) + T.tsum(logits * weights[1]))
            return {name: p.grad for name, p in m.params.items()}

        want_boxes, want_logits, want_maps = full_rows_forward(m, pts, capture=True)
        want = grads(want_boxes, want_logits)
        out = m.forward(pts)
        got = grads(out.boxes, out.direction_logits)
        assert out.boxes.data.tobytes() == want_boxes.data.tobytes()
        assert out.direction_logits.data.tobytes() == want_logits.data.tobytes()
        assert len(want_maps) == m.config.n_local_layers
        for i, w_want in enumerate(want_maps):
            assert m.local_attention(pts, i).tobytes() == w_want.data.tobytes()
        # the gradient into ln1's output adds its query, key and value parts
        # in another order; the key biases' exact gradient is 0, so their
        # rounding noise is measured against the model's largest gradient
        scale = max(np.abs(g).max() for g in want.values())
        for name, g in want.items():
            np.testing.assert_allclose(got[name], g, rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=name)


class TestAttentionExport:
    def _maps(self):
        return make_model().local_attention(rand_points(np.random.default_rng(18), 2, 8), -1)

    def test_full_permutation_when_topk_is_sequence(self):
        exp = export_attention(self._maps(), 0, 2, top_k=15)
        assert sorted(exp.indices.tolist()) == list(range(15))

    def test_scores_non_increasing(self):
        exp = export_attention(self._maps(), 1, 5, top_k=10)
        assert (np.diff(exp.scores) <= 0).all()

    def test_rows_sum_to_one(self):
        exp = export_attention(self._maps(), 0, 0, top_k=15)
        assert exp.full_row.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(exp.token_rows.sum(axis=1), 1.0, atol=1e-9)

    def test_index_errors(self):
        maps = self._maps()
        with pytest.raises(DataError, match="object 9 outside batch"):
            export_attention(maps, 9, 0, top_k=5)
        with pytest.raises(DataError, match="point 99 outside"):
            export_attention(maps, 0, 99, top_k=5)
        with pytest.raises(DataError, match="top_k 99 outside"):
            export_attention(maps, 0, 0, top_k=99)
        m, pts = make_model(), np.zeros((1, 8, 3))
        for layer in (1, -2):
            with pytest.raises(DataError, match=f"layer {layer} outside the 1 local layers"):
                m.local_attention(pts, layer)


class TestPersistence:
    def test_checkpoint_roundtrip(self, tmp_path):
        m = make_model(seed=5)
        path = m.save(tmp_path / "model.ckpt", extras={"note": 1})
        loaded = BoxAnnotator.from_checkpoint(load_checkpoint(path))
        assert loaded.config == m.config
        for name, p in m.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)
        ckpt = load_checkpoint(path)
        assert ckpt.extras == {"note": 1}

    def test_checkpoint_with_stage_flag_loads_as_zero_layers(self, tmp_path):
        # a header written while the model config still carried use_global:
        # use_global=False beside n_global_layers=1 built no global stack
        direct = make_model(seed=5, n_global_layers=0)
        header = dict(dataclasses.asdict(direct.config), use_global=False, use_decoder=True,
                      n_global_layers=1)
        path = save_checkpoint(tmp_path / "older.ckpt", {"model": header},
                               direct.state_arrays())
        loaded = BoxAnnotator.from_checkpoint(load_checkpoint(path))
        assert loaded.config == direct.config and loaded.config.n_global_layers == 0
        pts = rand_points(np.random.default_rng(21), 3, 8)
        a, b = loaded.forward(pts), direct.forward(pts)
        assert a.boxes.data.tobytes() == b.boxes.data.tobytes()
        assert a.direction_logits.data.tobytes() == b.direction_logits.data.tobytes()

    @pytest.mark.parametrize("bad", [{"bogus": 1}, {"heads": 3}, {"heads": 0},
                                     {"pos_mode": "bogus"}, {"n_local_layers": 0}])
    def test_invalid_model_header_is_checkpoint_mismatch(self, tmp_path, bad):
        m = make_model(seed=5)
        header = dict(dataclasses.asdict(m.config), **bad)
        path = save_checkpoint(tmp_path / "bad.ckpt", {"model": header}, m.state_arrays())
        with pytest.raises(CheckpointError, match="checkpoint model config"):
            BoxAnnotator.from_checkpoint(load_checkpoint(path))

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        a = make_model(seed=6).save(tmp_path / "a.ckpt")
        b = make_model(seed=6).save(tmp_path / "b.ckpt")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_interrupted_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        from frustumbox import checkpoint

        path = make_model(seed=6).save(tmp_path / "model.ckpt")
        before = path.read_bytes()
        real_open = open

        class DiskFull:
            """A file that takes the first write, then fails like a full disk."""

            def __init__(self, *args):
                self.fh = real_open(*args)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(checkpoint, "open", DiskFull, raising=False)
        with pytest.raises(OSError):
            make_model(seed=7).save(path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    def test_name_mismatch_fails_loudly(self, tmp_path):
        m = make_model()
        path = m.save(tmp_path / "model.ckpt")
        other = make_model(n_global_layers=0)
        ckpt = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="parameter names disagree"):
            other.load_state(ckpt.params)

    def test_shape_mismatch_fails_loudly(self):
        m = make_model()
        arrays = m.state_arrays()
        arrays["embed.l0.w"] = np.zeros((3, 99))
        with pytest.raises(CheckpointError, match="shape of 'embed.l0.w'"):
            m.load_state(arrays)

    def test_parameter_count_stable(self):
        a = make_model(seed=0).num_parameters()
        b = make_model(seed=9).num_parameters()
        assert a == b

    def test_full_scale_parameter_count_frozen(self):
        # regression pin for the full-scale configuration
        m = BoxAnnotator(ModelConfig(), rng=np.random.default_rng(0))
        assert m.num_parameters() == 35_496_965


class TestGraphMemory:
    @pytest.mark.parametrize("b", [5, 8])
    def test_no_attention_weights_outlive_the_forward(self, b, monkeypatch):
        # the core rebuilds its (Lq, Lk) weights block by block in the
        # backward, so no array of a core call's weights, (..., Lq, Lk) or
        # its flattened (slabs, Lq, Lk), stays in the graph. Where Lk equals
        # dh (the global stack at B=8) the weights have the shape of the
        # core's operands, so B=5 checks the global stack.
        m = BoxAnnotator(ModelConfig.desk(), rng=np.random.default_rng(0))
        weights_shapes = set()
        core = T.attention_core

        def spy(Q, K, V, *args, **kwargs):
            *lead, lq, dh = Q.shape
            lk = K.shape[-2]
            if lk != dh:
                weights_shapes.update({(*lead, lq, lk), (math.prod(lead), lq, lk)})
            return core(Q, K, V, *args, **kwargs)

        monkeypatch.setattr(T, "attention_core", spy)
        out = m.forward(np.random.default_rng(23).normal(size=(b, m.config.n_points, 3)))
        assert len(weights_shapes) == (8 if b == 5 else 6)
        arrays, seen, stack = [], set(), [out.boxes, out.direction_logits]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node._parents)
            if node._grad_fn is None:
                continue
            cells = [c.cell_contents for c in node._grad_fn.__closure__ or ()]
            while cells:
                value = cells.pop()
                if isinstance(value, (list, tuple)):
                    cells.extend(value)
                elif isinstance(value, T.Tensor):
                    arrays.append(value.data)
                elif isinstance(value, np.ndarray):
                    arrays.append(value)
        assert len(seen) > 100 and arrays
        held = [a.shape for a in arrays
                if a.shape in weights_shapes or a.shape[-2:] == (135, 135)]
        assert not held, held


    @staticmethod
    def desk_graph(b=8):
        """A desk full model's forward plus ``total_loss`` at batch `b`."""
        m = BoxAnnotator(ModelConfig.desk(), rng=np.random.default_rng(0))
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(b, m.config.n_points, 3))
        gts = [Box3D(*rng.uniform(-0.5, 0.5, 3), 1.7, 4.0, 1.5, rng.uniform(-3, 3))
               for _ in range(b)]
        return m, pts, gts

    def test_unread_intermediates_die_with_the_forward(self, monkeypatch):
        # no backward rule reads a q/k/v projection or a pre-activation MLP
        # output, so the graph lets them go once the forward drops them
        m, pts, gts = self.desk_graph()
        refs = {}
        linear, relu, leaky_relu = T.linear, T.relu, T.leaky_relu

        def linear_spy(x, weight, bias):
            out = linear(x, weight, bias)
            if weight.name.endswith((".q.w", ".k.w", ".v.w")):
                refs.setdefault("qkv", []).append(weakref.ref(out.data))
            return out

        def activation_spy(fn):
            def spy(a):
                refs.setdefault(fn.__name__, []).append(weakref.ref(a.data))
                return fn(a)
            return spy

        monkeypatch.setattr(T, "linear", linear_spy)
        monkeypatch.setattr(T, "relu", activation_spy(relu))
        monkeypatch.setattr(T, "leaky_relu", activation_spy(leaky_relu))
        out = m.forward(pts)
        monkeypatch.undo()
        total = total_loss(out.boxes, out.direction_logits, gts, TrainConfig().lambda_box).total
        assert sorted(refs) == ["leaky_relu", "qkv", "relu"]
        assert total.requires_grad
        live = {kind: sum(r() is not None for r in rs) for kind, rs in refs.items()}
        assert live == dict.fromkeys(refs, 0), live

    def test_graph_holds_what_backward_reads(self):
        # the desk full model's B=8 forward+loss graph held 49.3 MB while
        # each node kept its output Tensor; its backward rules read 25.2 MB
        m, pts, gts = self.desk_graph()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = m.forward(pts)
            total = total_loss(out.boxes, out.direction_logits, gts,
                               TrainConfig().lambda_box).total
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert total.requires_grad
        assert held <= 27e6, held


class TestLeafOnlyBackward:
    """``tensor.backward`` stores gradients on leaves only; the oracle stores
    one on every node, as the engine did before, in the same order."""

    @pytest.mark.parametrize("b", [1, 4, 16])
    @pytest.mark.parametrize("variant", ["A", "B", "C", "full"])
    def test_parameter_gradients_equal_every_node_oracle(self, variant, b):
        m = BoxAnnotator(ModelConfig.desk(**VARIANTS[variant]), rng=np.random.default_rng(0))
        rng = np.random.default_rng(31 + b)
        pts = rng.normal(size=(b, m.config.n_points, 3))
        gts = [Box3D(*rng.uniform(-0.5, 0.5, 3), 1.7, 4.0, 1.5, rng.uniform(-3, 3))
               for _ in range(b)]

        def step(backward):
            T.zero_grads(m.params.values())
            out = m.forward(pts)
            total = total_loss(out.boxes, out.direction_logits, gts,
                               TrainConfig().lambda_box).total
            backward(total)
            return total, {name: p.grad.tobytes() for name, p in m.params.items()}

        total, want = step(every_node_backward)
        assert total.grad is not None  # the oracle keeps intermediate gradients
        total, got = step(T.backward)
        assert got == want
        nodes, stack = {}, [total]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        intermediates = [n for n in nodes.values() if n._grad_fn is not None]
        assert intermediates and all(n.grad is None for n in intermediates)
