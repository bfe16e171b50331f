"""Differential suite: compiled inference plans vs the Tensor forward.

The compiled fast path is only allowed to exist because it is
*indistinguishable* from the Tensor path for the same chunking — every
probability and every flattened probe compares equal (``==``, NaNs in the
same positions, same dtypes). These tests pin that contract across the
model zoo, hypothesis-generated conv/pool geometries, degenerate batches,
and input dtypes, plus the routing rules around it: transparent fallback
for unlowerable models, call-time weight reads, recompile-on-structure-
change, and per-thread workspace isolation under concurrent serving.

Run with ``pytest -q -m infer`` (tier-2 entry point; also exercised under
``REPRO_STRICT=1`` in CI).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import infer
from repro.autograd import im2col as im2col_module
from repro.autograd.im2col import conv_block_rows
from repro.autograd.tensor import Tensor
from repro.infer.plan import ConvStep
from repro.nn import (
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ProbedSequential,
    ReLU,
    Sequential,
    Softmax,
)
from repro.nn.module import Module
from repro.zoo.architectures import densenet, mnist_cnn, svhn_cnn

pytestmark = pytest.mark.infer


def assert_paths_identical(model, images, batch_size=256):
    """Probs and every probe equal (values, NaN positions, dtypes)."""
    probs_t, reps_t = model.hidden_representations(
        images, batch_size=batch_size, compiled=False
    )
    probs_p, reps_p = model.hidden_representations(
        images, batch_size=batch_size, compiled=True
    )
    assert probs_p.dtype == probs_t.dtype
    np.testing.assert_array_equal(probs_p, probs_t)
    assert len(reps_p) == len(reps_t)
    for rep_p, rep_t in zip(reps_p, reps_t):
        assert rep_p.dtype == rep_t.dtype
        assert rep_p.shape == rep_t.shape
        np.testing.assert_array_equal(rep_p, rep_t)
    np.testing.assert_array_equal(
        model.predict_proba(images, batch_size=batch_size, compiled=True),
        model.predict_proba(images, batch_size=batch_size, compiled=False),
    )


@pytest.fixture(scope="module")
def zoo():
    rng = np.random.default_rng(7)
    return {
        "mnist": (mnist_cnn(width=2), rng.standard_normal((19, 1, 28, 28))),
        "svhn": (svhn_cnn(width=2), rng.standard_normal((19, 3, 32, 32))),
        "densenet": (
            densenet(growth=2, block_layers=2, initial_channels=2),
            rng.standard_normal((9, 3, 32, 32)),
        ),
    }


class TestZooIdentity:
    @pytest.mark.parametrize("name", ["mnist", "svhn", "densenet"])
    def test_identical_at_default_chunking(self, zoo, name):
        model, images = zoo[name]
        assert_paths_identical(model, images.astype(np.float32))

    @pytest.mark.parametrize("name", ["mnist", "svhn", "densenet"])
    def test_identical_with_uneven_chunks(self, zoo, name):
        # batch_size=4 over 19 (or 9) images: full chunks plus a short tail,
        # exercising per-shape workspace buffers within one stream.
        model, images = zoo[name]
        assert_paths_identical(model, images.astype(np.float32), batch_size=4)

    @pytest.mark.parametrize("name", ["mnist", "svhn", "densenet"])
    def test_single_image(self, zoo, name):
        model, images = zoo[name]
        assert_paths_identical(model, images[:1].astype(np.float32))

    def test_empty_batch(self, zoo):
        model, images = zoo["mnist"]
        empty = images[:0].astype(np.float32)
        probs, reps = model.hidden_representations(empty, compiled=True)
        assert probs.shape[0] == 0
        assert all(rep.shape[0] == 0 for rep in reps)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8, np.int32])
    def test_non_float32_inputs_cast_once_and_match(self, zoo, dtype):
        # Both paths cast to float32 up front; integer and double inputs
        # must land on identical bits.
        model, images = zoo["mnist"]
        cast = (np.abs(images) * 40).astype(dtype)
        assert_paths_identical(model, cast, batch_size=5)

    def test_nan_inputs_propagate_identically(self, zoo):
        model, images = zoo["mnist"]
        poisoned = images.astype(np.float32).copy()
        poisoned[::3] = np.nan
        assert_paths_identical(model, poisoned, batch_size=7)


class TestGeometryProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        channels=st.integers(1, 3),
        filters=st.integers(1, 4),
        kernel=st.integers(1, 4),
        stride=st.integers(1, 2),
        pad=st.integers(0, 2),
        pool=st.integers(2, 3),
        size=st.integers(9, 14),
        batch=st.integers(1, 5),
        # Column block budgets from one output row per block up to the
        # whole column matrix in one block.
        budget=st.sampled_from([1, 2048, 16384, im2col_module.COLUMN_BLOCK_BYTES]),
        data=st.data(),
    )
    def test_conv_pool_geometries(
        self, channels, filters, kernel, stride, pad, pool, size, batch, budget, data
    ):
        padded = size + 2 * pad
        if padded < kernel:
            return
        conv_out = (padded - kernel) // stride + 1
        if conv_out < pool:
            return
        pool_out = (conv_out - pool) // pool + 1
        model = ProbedSequential(
            [
                (
                    "conv",
                    Sequential(
                        Conv2d(
                            channels,
                            filters,
                            kernel=kernel,
                            stride=stride,
                            pad=pad,
                            rng=0,
                        ),
                        ReLU(),
                        MaxPool2d(pool),
                    ),
                ),
                (
                    "head",
                    Sequential(
                        Flatten(),
                        Dense(filters * pool_out * pool_out, 3, rng=1),
                        Softmax(),
                    ),
                ),
            ]
        )
        images = data.draw(
            st.integers(0, 2**32 - 1).map(
                lambda seed: np.random.default_rng(seed)
                .standard_normal((batch, channels, size, size))
                .astype(np.float32)
            )
        )
        with mock.patch.object(im2col_module, "COLUMN_BLOCK_BYTES", budget):
            assert_paths_identical(model, images, batch_size=3)


def conv_model(channels, filters, kernel, stride, pad, size):
    """One conv stage (conv, relu) and a dense softmax head."""
    out = (size + 2 * pad - kernel) // stride + 1
    return ProbedSequential(
        [
            (
                "conv",
                Sequential(
                    Conv2d(channels, filters, kernel=kernel, stride=stride, pad=pad, rng=0),
                    ReLU(),
                ),
            ),
            ("head", Sequential(Flatten(), Dense(filters * out * out, 3, rng=1), Softmax())),
        ]
    )


#: (channels, filters, kernel, stride, pad, size): output heights 7, 11, 8,
#: 9 and 2, so two and three rows per block leave a short last block. Each
#: has at least 32 column rows (channels * kernel**2), where this BLAS's
#: results start to depend on how the GEMM's columns are split.
BLOCK_GEOMETRIES = {
    "strided": (4, 4, 3, 2, 0, 15),
    "padded": (4, 3, 3, 1, 1, 11),
    "strided_padded": (2, 5, 4, 2, 2, 14),
    "pointwise": (40, 3, 1, 1, 0, 9),
    "one_filter": (8, 1, 3, 2, 0, 5),
}


class TestRowBlocks:
    """Convs whose forward GEMM spans several row blocks stay bit-identical."""

    # The tiny synth-mnist model (mnist_cnn width 4): per conv, (in
    # channels, kernel, out_h, out_w).
    TINY_CONVS = {
        "conv1": (1, 5, 24, 24),
        "conv2": (4, 3, 22, 22),
        "conv3": (4, 3, 9, 9),
        "conv4": (8, 2, 8, 8),
    }

    @pytest.mark.parametrize("batch", [100, 256])
    def test_tiny_model_wide_batches(self, batch):
        model = mnist_cnn(width=4)
        for name in ("conv1", "conv2"):
            channels, kernel, out_h, out_w = self.TINY_CONVS[name]
            rows = conv_block_rows(channels, kernel, out_w, batch, 4, out_h)
            assert out_h // rows >= 8, name
        images = np.random.default_rng(11).standard_normal((batch, 1, 28, 28))
        assert_paths_identical(model, images.astype(np.float32))

    @pytest.mark.parametrize("batch", [1, 8])
    def test_narrow_batches(self, batch):
        # Every conv is one block, except conv2 at batch 8: its 557 KB of
        # columns split into a 20-row and a short 2-row block.
        blocks = {
            name: -(-out_h // conv_block_rows(channels, kernel, out_w, batch, 4, out_h))
            for name, (channels, kernel, out_h, out_w) in self.TINY_CONVS.items()
        }
        assert blocks == {"conv1": 1, "conv2": 1 if batch == 1 else 2, "conv3": 1, "conv4": 1}
        model = mnist_cnn(width=4)
        images = np.random.default_rng(batch).standard_normal((batch, 1, 28, 28))
        assert_paths_identical(model, images.astype(np.float32))

    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    @pytest.mark.parametrize("name", sorted(BLOCK_GEOMETRIES))
    def test_geometries_by_rows_per_block(self, monkeypatch, name, rows):
        channels, filters, kernel, stride, pad, size = BLOCK_GEOMETRIES[name]
        batch = 6
        out = (size + 2 * pad - kernel) // stride + 1
        if rows is not None:
            row_bytes = channels * kernel * kernel * out * batch * 4
            monkeypatch.setattr(im2col_module, "COLUMN_BLOCK_BYTES", rows * row_bytes)
            assert conv_block_rows(channels, kernel, out, batch, 4, out) == min(rows, out)
        model = conv_model(channels, filters, kernel, stride, pad, size)
        images = np.random.default_rng(5).standard_normal((batch, channels, size, size))
        assert_paths_identical(model, images.astype(np.float32))

    @pytest.mark.parametrize("kernel", [1, 2])
    def test_single_filter_narrow_blocks(self, monkeypatch, kernel):
        # Blocks a few columns wide of a one-filter conv run as BLAS
        # matrix-vector products, whose results depend on the operand's row
        # stride. So the Tensor path copies each block contiguous, as the
        # plan builds it, except for 1x1 convs, where both slice the source.
        monkeypatch.setattr(im2col_module, "COLUMN_BLOCK_BYTES", 1)
        channels, size = (4, 3) if kernel == 1 else (1, 4)
        model = conv_model(channels, 1, kernel, 1, 0, size)
        for seed in range(5):
            images = np.random.default_rng(seed).standard_normal((1, channels, size, size))
            assert_paths_identical(model, images.astype(np.float32))

    @pytest.mark.parametrize("budget", [1, 4096, 65536])
    def test_densenet_pointwise_transitions(self, zoo, monkeypatch, budget):
        # Transitions are float64 1x1 convs whose blocks are zero-copy
        # slices of the source; dense layers are padded 3x3 convs.
        monkeypatch.setattr(im2col_module, "COLUMN_BLOCK_BYTES", budget)
        model, images = zoo["densenet"]
        assert_paths_identical(model, images.astype(np.float32))

    def test_workspace_holds_one_block_and_stages_only_the_input(self):
        model = mnist_cnn(width=4)
        images = np.random.default_rng(12).standard_normal((256, 1, 28, 28))
        model.hidden_representations(images.astype(np.float32), compiled=True)
        plan = infer.plan_for(model, require=True)
        buffers = plan.workspace.buffers()
        convs = {
            name: step
            for name, steps in plan.stages
            for step in steps
            if isinstance(step, ConvStep)
        }
        assert sorted(convs) == sorted(self.TINY_CONVS)
        for name, step in convs.items():
            channels, kernel, out_h, out_w = self.TINY_CONVS[name]
            rows = conv_block_rows(channels, kernel, out_w, 256, 4, out_h)
            assert rows < out_h, name
            cols = [buf for (key, _, _), buf in buffers.items() if key == (step.key, "cols")]
            assert max(buf.nbytes for buf in cols) <= rows * channels * kernel**2 * out_w * 256 * 4
        staged = {key[0] for key, _, _ in buffers if key[-1] == "chwn"}
        assert staged == {convs["conv1"].key}


class UnlowerableModule(Module):
    """A module the plan compiler has no lowering for."""

    def forward(self, x: Tensor) -> Tensor:
        return x * Tensor.as_tensor(2.0)


class TestRoutingAndFallback:
    def _mixed_model(self):
        return ProbedSequential(
            [
                ("weird", UnlowerableModule()),
                ("head", Sequential(Flatten(), Dense(12, 3, rng=0), Softmax())),
            ]
        )

    def test_plan_for_returns_none_for_unsupported(self):
        assert infer.plan_for(self._mixed_model()) is None

    def test_compiled_true_raises_for_unsupported(self):
        model = self._mixed_model()
        images = np.zeros((2, 3, 2, 2), np.float32)
        with pytest.raises(infer.UnsupportedModuleError):
            list(model.iter_hidden_representations(images, compiled=True))

    def test_unsupported_model_falls_back_transparently(self):
        model = self._mixed_model()
        images = np.random.default_rng(0).standard_normal((5, 3, 2, 2))
        probs_auto, reps_auto = model.hidden_representations(images)
        probs_t, reps_t = model.hidden_representations(images, compiled=False)
        np.testing.assert_array_equal(probs_auto, probs_t)
        for a, b in zip(reps_auto, reps_t):
            np.testing.assert_array_equal(a, b)

    def test_kill_switch_disables_plan(self, zoo):
        model, _ = zoo["mnist"]
        try:
            infer.set_plan_enabled(False)
            assert infer.plan_for(model) is None
        finally:
            infer.set_plan_enabled(None)

    def test_plan_is_cached_per_model(self, zoo):
        model, _ = zoo["mnist"]
        assert infer.plan_for(model) is infer.plan_for(model)


class TestStructureAndWeights:
    def test_inplace_weight_updates_are_visible(self):
        # Optimizers mutate param.data in place; plans read weights at call
        # time, so no recompile (and no staleness) may occur.
        model = mnist_cnn(width=2)
        images = np.random.default_rng(3).standard_normal((4, 1, 28, 28)).astype(
            np.float32
        )
        plan_before = infer.plan_for(model)
        assert_paths_identical(model, images)
        conv = model.stage("conv1")[0]
        conv.weight.data *= 1.5
        conv.bias.data += 0.25
        assert infer.plan_for(model) is plan_before
        assert_paths_identical(model, images)

    def test_stage_replacement_recompiles(self):
        model = mnist_cnn(width=2)
        plan_before = infer.plan_for(model)
        assert plan_before is not None
        model.conv1 = Sequential(Conv2d(1, 2, kernel=5, rng=9), ReLU())
        plan_after = infer.plan_for(model)
        assert plan_after is not None
        assert plan_after is not plan_before
        images = np.random.default_rng(4).standard_normal((4, 1, 28, 28)).astype(
            np.float32
        )
        assert_paths_identical(model, images)


class TestChunkOwnership:
    def test_yielded_arrays_never_alias_workspace(self, zoo):
        # Consumers hold chunk outputs across the stream (the engine
        # accumulates then concatenates); a later chunk must not overwrite
        # an earlier chunk's probs or probes.
        model, images = zoo["mnist"]
        images = images.astype(np.float32)
        chunks = list(
            model.iter_hidden_representations(images, batch_size=4, compiled=True)
        )
        first_probs = chunks[0][1].copy()
        first_reps = [rep.copy() for rep in chunks[0][2]]
        # Re-run the plan over different data; earlier outputs must survive.
        list(
            model.iter_hidden_representations(
                images[::-1].copy(), batch_size=4, compiled=True
            )
        )
        np.testing.assert_array_equal(chunks[0][1], first_probs)
        for rep, saved in zip(chunks[0][2], first_reps):
            np.testing.assert_array_equal(rep, saved)


@pytest.mark.serve
class TestConcurrentWorkspaces:
    def test_shared_plan_is_thread_safe(self, zoo):
        # Serving workers share one compiled plan; per-thread workspaces
        # must keep concurrent forwards from tearing each other's scratch.
        model, images = zoo["mnist"]
        inputs = [
            np.random.default_rng(seed).standard_normal((11, 1, 28, 28)).astype(
                np.float32
            )
            for seed in range(8)
        ]
        expected = [
            model.hidden_representations(x, batch_size=4, compiled=True)
            for x in inputs
        ]

        def worker(x):
            return model.hidden_representations(x, batch_size=4, compiled=True)

        for _ in range(3):
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(worker, inputs))
            for (probs, reps), (want_probs, want_reps) in zip(results, expected):
                np.testing.assert_array_equal(probs, want_probs)
                for rep, want in zip(reps, want_reps):
                    np.testing.assert_array_equal(rep, want)


class TestEndToEndScoring:
    def test_engine_scores_identical_plan_on_and_off(self, trained_tiny_model):
        from repro.core.validator import DeepValidator, ValidatorConfig

        model, train_x, train_y, test_x, _ = trained_tiny_model
        validator = DeepValidator(model, ValidatorConfig(max_per_class=40))
        validator.fit(train_x, train_y)
        engine = validator.engine()
        try:
            infer.set_plan_enabled(False)
            preds_t, scores_t = engine.discrepancies(test_x[:32].copy())
            infer.set_plan_enabled(True)
            preds_p, scores_p = engine.discrepancies(test_x[:32].copy())
        finally:
            infer.set_plan_enabled(None)
        np.testing.assert_array_equal(preds_p, preds_t)
        # Both paths hand the scorer byte-identical contiguous reps, so
        # even the layout-sensitive last bits of the scoring GEMMs agree.
        np.testing.assert_array_equal(scores_p, scores_t)
