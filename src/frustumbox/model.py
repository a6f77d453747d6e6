"""The box-annotation network.

Pipeline per forward pass: pointwise embedding MLP, optional positional
encoding, seven learned box tokens prepended to the point sequence, a
per-object (local) pre-norm transformer stack, a cross-object (global) stack
that attends along the batch axis, a decoder whose queries are the box-token
features, and small MLP heads that emit one box row per object (center
offset, extents, yaw; the extents bounded by one smooth decode) plus
front/back logits. The global stack and the decoder are optional: a layer
count of 0 leaves the stage out.

Each stage computes only the rows a later stage reads. Without a decoder the
heads read only the seven box-token rows, so the last local layer computes
just those rows (its keys and values still span every row) and the global
stack runs on the seven token positions.

All learned state lives in a flat name-to-Parameter mapping so the
optimizer and checkpoints stay structure-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint, save_checkpoint
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .geometry import DIRECTION_BACK, wrap_angle, Box3D
from .tensor import Parameter, Tensor


POS_MODES = ("none", "sine", "mlp")
N_BOX_TOKENS = 7
SINE_FREQS = 8  # fixed frequencies 2^0 .. 2^7 per coordinate

# The extent head's output carries a smoothly bounded log extent:
# extent = exp(CAP * tanh(raw / CAP)). Near zero this is exp(raw); the bound
# (extents in [e^-2, e^2] meters, a car-scale bound) removes the degenerate optimum where an
# unbounded box inflates the penalty's enclosing-diagonal denominator.
LOG_EXTENT_CAP = 2.0


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters, validated once on construction.

    Defaults are the full-scale configuration; ``desk()`` is the small
    preset used by the test and acceptance suites. ``n_global_layers=0`` or
    ``n_decoder_layers=0`` switches that stage off (the ablation toggles).
    """

    d: int = 512
    n_points: int = 1024
    n_local_layers: int = 8
    n_global_layers: int = 3
    n_decoder_layers: int = 3
    heads: int = 8
    head_hidden: int = 1024
    pos_mode: str = "mlp"

    def __post_init__(self):
        if self.pos_mode not in POS_MODES:
            raise ConfigError(f"pos_mode must be one of {POS_MODES}, got {self.pos_mode!r}")
        if min(self.d, self.n_points, self.head_hidden, self.heads) < 1:
            raise ConfigError("widths, point counts and heads must be >= 1")
        if self.n_local_layers < 1:
            raise ConfigError("at least one local layer is required")
        if self.n_global_layers < 0 or self.n_decoder_layers < 0:
            raise ConfigError("layer counts must be >= 0")
        if self.d % self.heads != 0:
            raise ConfigError(f"embed width {self.d} not divisible by {self.heads} heads")

    @classmethod
    def desk(cls, **overrides):
        base = dict(
            d=64,
            n_points=128,
            n_local_layers=2,
            n_global_layers=1,
            n_decoder_layers=1,
            heads=8,
            head_hidden=128,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def from_dict(cls, d):
        """Build from a checkpoint header's ``asdict``. A header written
        before the layer counts switched the stages may carry ``use_global``
        and ``use_decoder``; False there means 0 layers of that stage."""
        d = dict(d)
        for flag, count in (("use_global", "n_global_layers"),
                            ("use_decoder", "n_decoder_layers")):
            if not d.pop(flag, True):
                d[count] = 0
        return cls(**d)


@dataclass
class ForwardOutput:
    boxes: Tensor  # (B, 7) rows (cx, cy, cz, w, l, h, yaw), centred frustum frame
    direction_logits: Tensor  # (B, 2) front/back


@dataclass
class AttentionExport:
    """One reference row of a local-encoder attention map, ranked."""

    indices: np.ndarray  # sequence positions, descending score
    scores: np.ndarray
    token_rows: np.ndarray  # (7, N+7) box-token rows, head-averaged
    full_row: np.ndarray  # the un-truncated reference row


class BoxAnnotator:
    """Frustum sub-clouds in, 3D box rows and direction logits out."""

    def __init__(self, config: ModelConfig, rng):
        self.config = config
        self.params: dict[str, Parameter] = {}
        self._build(rng)

    # -- parameter construction -------------------------------------------
    def _add(self, name, data):
        p = Parameter(data, name=name)
        self.params[name] = p
        return p

    def _add_linear(self, rng, prefix, fan_in, fan_out, scale=1.0):
        w = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out))
        self._add(f"{prefix}.w", w * scale)
        self._add(f"{prefix}.b", np.zeros(fan_out))

    def _add_layer_norm(self, prefix):
        self._add(f"{prefix}.gain", np.ones(self.config.d))
        self._add(f"{prefix}.bias", np.zeros(self.config.d))

    # Residual-branch output projections start damped so every block opens
    # near the identity; training grows a branch only where it earns its keep.
    RESIDUAL_SCALE = 0.01

    def _add_attention(self, rng, prefix):
        d = self.config.d
        for part in ("q", "k", "v"):
            self._add_linear(rng, f"{prefix}.{part}", d, d)
        self._add_linear(rng, f"{prefix}.o", d, d, scale=self.RESIDUAL_SCALE)

    def _add_encoder_layer(self, rng, prefix):
        d = self.config.d
        self._add_layer_norm(f"{prefix}.ln1")
        self._add_attention(rng, f"{prefix}.attn")
        self._add_layer_norm(f"{prefix}.ln2")
        self._add_linear(rng, f"{prefix}.mlp.l1", d, 2 * d)
        self._add_linear(rng, f"{prefix}.mlp.l2", 2 * d, d, scale=self.RESIDUAL_SCALE)

    def _build(self, rng):
        cfg = self.config
        d = cfg.d
        self._add_linear(rng, "embed.l0", 3, d)
        self._add_linear(rng, "embed.l1", d, d)
        self._add_linear(rng, "embed.l2", d, d)
        if cfg.pos_mode == "mlp":
            self._add_linear(rng, "pos.l0", 3, d)
            self._add_linear(rng, "pos.l1", d, d)
        elif cfg.pos_mode == "sine":
            self._add_linear(rng, "pos.proj", 6 * SINE_FREQS, d)
        self._add("tokens.box", rng.normal(0.0, 0.02, size=(N_BOX_TOKENS, d)))
        for i in range(cfg.n_local_layers):
            self._add_encoder_layer(rng, f"local.{i}")
        for i in range(cfg.n_global_layers):
            self._add_encoder_layer(rng, f"global.{i}")
        for i in range(cfg.n_decoder_layers):
            self._add_layer_norm(f"dec.{i}.ln1")
            self._add_attention(rng, f"dec.{i}.self")
            self._add_layer_norm(f"dec.{i}.ln2")
            self._add_attention(rng, f"dec.{i}.cross")
            self._add_layer_norm(f"dec.{i}.ln3")
            self._add_linear(rng, f"dec.{i}.mlp.l1", d, 2 * d)
            self._add_linear(rng, f"dec.{i}.mlp.l2", 2 * d, d)
        # the pre-norm residual stream is scale-free, so the readout gets one
        # shared normalization before the head MLPs
        self._add_layer_norm("head.norm")
        for head in ("loc", "dim", "yaw"):
            self._add_linear(rng, f"head.{head}.l1", d, cfg.head_hidden)
            self._add_linear(rng, f"head.{head}.l2", cfg.head_hidden, 1)
        self._add_linear(rng, "head.dir.l1", d, cfg.head_hidden)
        self._add_linear(rng, "head.dir.l2", cfg.head_hidden, 2)

    def num_parameters(self):
        return sum(p.data.size for p in self.params.values())

    # -- small helpers ------------------------------------------------------
    def _p(self, name):
        return self.params[name]

    def _linear(self, x, prefix):
        return T.linear(x, self._p(f"{prefix}.w"), self._p(f"{prefix}.b"))

    def _attn_params(self, prefix):
        """The wq, bq, ..., wo, bo mapping ``multi_head_attention`` reads."""
        return {f"{w}{part}": self._p(f"{prefix}.{part}.{w}") for part in "qkvo" for w in "wb"}

    def _layer_norm(self, x, prefix):
        return T.layer_norm(x, self._p(f"{prefix}.gain"), self._p(f"{prefix}.bias"))

    def _encoder_layer(self, x, prefix, rows=None):
        """One pre-norm encoder layer over x (B, L, d).

        With ``rows`` set, only the first ``rows`` rows are computed: they
        query the keys and values of all L rows, and the layer returns
        (B, rows, d).
        """
        h = self._layer_norm(x, f"{prefix}.ln1")
        q, x = (h, x) if rows is None else (h[:, :rows], x[:, :rows])
        x = x + T.multi_head_attention(q, h, h, self.config.heads,
                                       self._attn_params(f"{prefix}.attn"))
        h = self._layer_norm(x, f"{prefix}.ln2")
        return x + self._linear(T.relu(self._linear(h, f"{prefix}.mlp.l1")), f"{prefix}.mlp.l2")

    # -- forward components --------------------------------------------------
    def embed_points(self, points):
        """Pointwise MLP with two hidden layers: (B, N, 3) -> (B, N, d)."""
        x = T.as_tensor(points)
        if x.ndim != 3 or x.shape[-1] != 3:
            raise NumericError(f"embed_points expects (B, N, 3), got {x.shape}")
        x = T.relu(self._linear(x, "embed.l0"))
        x = T.relu(self._linear(x, "embed.l1"))
        return self._linear(x, "embed.l2")

    def positional_encode(self, points):
        """Coordinate-based positional features: (B, N, 3) -> (B, N, d)."""
        mode = self.config.pos_mode
        pts = T.as_tensor(points)
        if mode == "mlp":
            h = T.relu(self._linear(pts, "pos.l0"))
            return self._linear(h, "pos.l1")
        if mode == "sine":
            feats = _sine_features(pts.data)
            return self._linear(Tensor(feats), "pos.proj")
        raise ConfigError(f"positional encoding requested with pos_mode={mode!r}")

    def box_token_sequence(self, batch_size):
        """The learned box tokens broadcast to (B, 7, d)."""
        tok = self._p("tokens.box")
        return T.broadcast_to(
            T.reshape(tok, (1, N_BOX_TOKENS, self.config.d)),
            (batch_size, N_BOX_TOKENS, self.config.d),
        )

    def point_features(self, points):
        """Embedding plus, unless ``pos_mode`` is none, positional
        encoding: (B, N, 3) -> (B, N, d), the local stack's point rows."""
        pts = T.as_tensor(points)
        emb = self.embed_points(pts)
        if self.config.pos_mode != "none":
            emb = emb + self.positional_encode(pts)
        return emb

    def forward_local(self, embeddings):
        """Box tokens prepended, then the per-object encoder stack.

        embeddings: (B, N, d). Returns (B, N+7, d), or (B, 7, d) when no
        decoder follows: the heads then read only the box tokens, so the
        last layer computes only their rows.
        """
        B = embeddings.shape[0]
        x = T.concat([self.box_token_sequence(B), embeddings], axis=1)
        last = self.config.n_local_layers - 1
        rows = None if self.config.n_decoder_layers else N_BOX_TOKENS
        for i in range(self.config.n_local_layers):
            x = self._encoder_layer(x, f"local.{i}", rows if i == last else None)
        return x

    def local_attention(self, points, layer):
        """Attention weights (B, H, N+7, N+7) of local layer ``layer``, every
        query row included; a negative ``layer`` counts from the last.

        The maps are recomputed rather than kept by the forward (the
        recompute-for-memory trade of Chen et al., arXiv:1604.06174): one
        graph-free pass builds the layer's input with the forward's own ops
        (embedding, positional encoding, box tokens, the layers before it
        on all rows), then this layer's weights from its Q and K alone.
        """
        n = self.config.n_local_layers
        if not -n <= layer < n:
            raise DataError(f"layer {layer} outside the {n} local layers")
        layer %= n
        with T.no_grad():
            x = self.point_features(points)
            x = T.concat([self.box_token_sequence(x.shape[0]), x], axis=1)
            for i in range(layer):
                x = self._encoder_layer(x, f"local.{i}")
            h = self._layer_norm(x, f"local.{layer}.ln1")
            return T.attention_weights(h, h, self.config.heads,
                                       self._attn_params(f"local.{layer}.attn"))

    def forward_global(self, features):
        """Cross-object encoder: attends along the batch axis per position.

        The batch is first sorted into a canonical order, by the bytes of
        each object's feature rows, so the stack sees the same batch however
        the caller ordered it: permuting the batch permutes the output
        bit-exactly. Objects that tie are byte-identical and get identical
        rows, so which of them takes which sorted slot does not matter.
        features: (B, S, d), the local stack's output: S = N+7 when a decoder
        follows, S = 7 box tokens when none does. The sorted sequence is
        transposed to (S, B, d) so each position sees its batch of peer
        objects as the attention axis. A position's output reads only that
        position, and the 7-row sort key is a prefix of the N+7-row one, so
        the token rows come out the same whichever S runs. The output
        (B, S, d) comes back in the caller's order.
        """
        features = T.as_tensor(features)
        order = sorted(range(features.shape[0]), key=lambda b: features.data[b].tobytes())
        x = T.swapaxes(T.permute(features, order), 0, 1)
        for i in range(self.config.n_global_layers):
            x = self._encoder_layer(x, f"global.{i}")
        return T.permute(T.swapaxes(x, 0, 1), np.argsort(order))

    def forward_decoder(self, encoder_out):
        """Box-token queries attend to point features: -> (B, 7, d)."""
        q = encoder_out[:, :N_BOX_TOKENS]
        mem = encoder_out[:, N_BOX_TOKENS:]
        heads = self.config.heads
        for i in range(self.config.n_decoder_layers):
            h = self._layer_norm(q, f"dec.{i}.ln1")
            q = q + T.multi_head_attention(h, h, h, heads, self._attn_params(f"dec.{i}.self"))
            h = self._layer_norm(q, f"dec.{i}.ln2")
            q = q + T.multi_head_attention(h, mem, mem, heads,
                                           self._attn_params(f"dec.{i}.cross"))
            h = self._layer_norm(q, f"dec.{i}.ln3")
            q = q + self._linear(T.relu(self._linear(h, f"dec.{i}.mlp.l1")), f"dec.{i}.mlp.l2")
        return q

    def _head(self, x, prefix):
        h = T.leaky_relu(self._linear(x, f"{prefix}.l1"))
        return self._linear(h, f"{prefix}.l2")

    def regress_box(self, x):
        """Three tokenwise heads on the (B, 7, d) box tokens after
        ``head.norm``: location from tokens 0-2, extents from tokens 3-5,
        yaw from token 6. Returns (B, 7) box rows; each extent is
        exp(LOG_EXTENT_CAP * tanh(raw / LOG_EXTENT_CAP)) of its head's raw
        output, so it lies in [e^-CAP, e^CAP]."""
        loc = T.reshape(self._head(x[:, 0:3], "head.loc"), (x.shape[0], 3))
        dim = T.reshape(self._head(x[:, 3:6], "head.dim"), (x.shape[0], 3))
        yaw = T.reshape(self._head(x[:, 6:7], "head.yaw"), (x.shape[0], 1))
        extent = T.exp(T.tanh(dim * (1.0 / LOG_EXTENT_CAP)) * LOG_EXTENT_CAP)
        return T.concat([loc, extent, yaw], axis=1)

    def classify_direction(self, x):
        """Front/back logits from the yaw token of the (B, 7, d) box tokens
        after ``head.norm``: (B, 2).

        The yaw token is kept as a length-1 sequence axis so the product
        stays batched per object; collapsing to a bare (B, d) matrix would
        let the BLAS micro-kernel's row tiling make results depend on an
        object's position in the batch at the last-bit level.
        """
        out = self._head(x[:, 6:7], "head.dir")
        return T.reshape(out, (x.shape[0], 2))

    def forward(self, points):
        """Full pass: embed, encode, decode, regress.

        points: (B, N, 3) array or Tensor of centroid-normalized
        coordinates. The global stack and the decoder run only when their
        layer count is positive; without a decoder the encoders emit only
        the (B, 7, d) box-token rows, and the heads read those. Returns a
        ForwardOutput.
        """
        x = self.forward_local(self.point_features(points))
        if self.config.n_global_layers:
            x = self.forward_global(x)
        if self.config.n_decoder_layers:
            x = self.forward_decoder(x)
        tokens = self._layer_norm(x, "head.norm")
        return ForwardOutput(
            boxes=self.regress_box(tokens),
            direction_logits=self.classify_direction(tokens),
        )

    # -- persistence ----------------------------------------------------------
    def state_arrays(self):
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, arrays):
        """Install parameter values; name set and shapes must match exactly."""
        mine, theirs = set(self.params), set(arrays)
        if mine != theirs:
            missing = sorted(mine - theirs)
            unexpected = sorted(theirs - mine)
            raise CheckpointError(
                f"parameter names disagree; missing={missing}, unexpected={unexpected}"
            )
        for name, p in self.params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise CheckpointError(
                    f"shape of {name!r}: checkpoint {arr.shape} vs model {p.data.shape}"
                )
        for name, p in self.params.items():
            p.data = np.array(arrays[name], dtype=np.float64)

    def save(self, path, extras=None, extra_arrays=None):
        config = {"model": asdict(self.config)}
        return save_checkpoint(path, config, self.state_arrays(), extras, extra_arrays)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint):
        model = cls(checkpoint_model_config(ckpt), rng=np.random.default_rng(0))
        model.load_state(ckpt.params)
        return model


def checkpoint_model_config(ckpt):
    """The ModelConfig a checkpoint's header stores. A key that
    ``ModelConfig.from_dict`` does not read, or a value it rejects, is a
    CheckpointError: the file, not the run's configuration, is at fault."""
    stored = ckpt.config["model"]
    try:
        return ModelConfig.from_dict(stored)
    except (TypeError, ValueError, ConfigError) as err:
        raise CheckpointError(f"checkpoint model config {stored}: {err}") from err


def _sine_features(points):
    """Fixed sinusoidal features of raw coordinates: (..., 3) -> (..., 6*F)."""
    freqs = 2.0 ** np.arange(SINE_FREQS)
    scaled = points[..., None] * freqs  # (..., 3, F)
    feats = np.concatenate([np.sin(scaled), np.cos(scaled)], axis=-1)  # (..., 3, 2F)
    return feats.reshape(points.shape[:-1] + (6 * SINE_FREQS,))


def decode_prediction(row, logits, centroid=None):
    """One box row and its direction logits to a Box3D in the frustum (or,
    given the centroid, the original) frame.

    The regressed yaw is wrapped to [-pi/2, pi/2); the direction classifier
    then flips it by pi when the back label wins, restoring the full circle
    that the direction-invariant box objective cannot see.
    """
    row = np.asarray(row, dtype=np.float64).reshape(7)
    logits = np.asarray(logits, dtype=np.float64).reshape(2)
    yaw = (row[6] + math.pi / 2) % math.pi - math.pi / 2
    if int(np.argmax(logits)) == DIRECTION_BACK:
        yaw = wrap_angle(yaw + math.pi)
    center = row[:3] if centroid is None else row[:3] + np.asarray(centroid, dtype=np.float64)
    w, l, h = row[3:6]
    return Box3D(center[0], center[1], center[2], w, l, h, yaw)


def direction_score(logits):
    """Max softmax probability of the direction head; the export confidence."""
    logits = np.asarray(logits, dtype=np.float64).reshape(2)
    e = np.exp(logits - logits.max())
    return float(e.max() / e.sum())


def ranked(row, top_k):
    """Indices of the ``top_k`` largest entries of ``row``, descending; ties
    keep index order."""
    return np.argsort(-row, kind="stable")[:top_k]


def export_attention(weights, object_index, reference_point_index, top_k):
    """Rank one local-encoder attention row for export.

    weights: one local layer's (B, H, N+7, N+7) map
    (``BoxAnnotator.local_attention``). The row belongs to the chosen
    reference point (sequence position 7 + point index), head-averaged.
    Returns its descending ranking plus the head-averaged box-token rows
    of the same object.
    """
    B, _, S, _ = weights.shape
    if not 0 <= object_index < B:
        raise DataError(f"object {object_index} outside batch of {B}")
    n_points = S - N_BOX_TOKENS
    if not 0 <= reference_point_index < n_points:
        raise DataError(f"point {reference_point_index} outside 0..{n_points - 1}")
    if not 1 <= top_k <= S:
        raise DataError(f"top_k {top_k} outside 1..{S}")
    heads = weights[object_index]
    row = heads[:, N_BOX_TOKENS + reference_point_index].mean(axis=0)
    order = ranked(row, top_k)
    return AttentionExport(
        indices=order,
        scores=row[order],
        token_rows=heads[:, :N_BOX_TOKENS].mean(axis=0),
        full_row=row,
    )
