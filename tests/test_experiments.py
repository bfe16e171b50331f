"""Tests for the experiment harness (tables and figures)."""

import numpy as np
import pytest

from repro.experiments import (
    run_figure2,
    run_figure3,
    run_figure4,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
)
from repro.experiments.context import (
    VALIDATOR_SOURCES,
    rear_layer_indices,
    validator_source_key,
)
from repro.experiments.run import EXPERIMENTS, run_experiment


class TestContextHelpers:
    def test_rear_layer_indices(self):
        assert rear_layer_indices(10, 6) == [4, 5, 6, 7, 8, 9]
        assert rear_layer_indices(4, 6) == [0, 1, 2, 3]

    def test_context_contents(self, mnist_context):
        assert mnist_context.dataset_name == "synth-mnist"
        assert len(mnist_context.clean_images) > 0
        assert mnist_context.validated_layer_names() == mnist_context.model.probe_names

    def test_cifar_context_uses_rear_layers(self, cifar_context):
        probe_count = len(cifar_context.model.probe_names)
        assert cifar_context.validator.layer_indices == rear_layer_indices(probe_count)


class TestValidatorSourceKey:
    """Cached contexts are keyed on the bytes of the validator sources."""

    @staticmethod
    def _copy_sources(target):
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        copied = []
        for pattern in VALIDATOR_SOURCES:
            for path in sorted(root.glob(pattern)):
                destination = target / path.relative_to(root)
                destination.parent.mkdir(parents=True, exist_ok=True)
                destination.write_bytes(path.read_bytes())
                copied.append(destination)
        return copied

    def test_copy_keys_like_the_package(self, tmp_path):
        copied = self._copy_sources(tmp_path)
        assert {p.name for p in copied} >= {"fitting.py", "validator.py", "engine.py", "packed.py"}
        assert validator_source_key(tmp_path) == validator_source_key()

    def test_changing_any_listed_source_changes_the_key(self, tmp_path):
        copied = self._copy_sources(tmp_path)
        before = validator_source_key(tmp_path)
        for path in copied:
            original = path.read_bytes()
            path.write_bytes(original + b"\n_edited = True\n")
            assert validator_source_key(tmp_path) != before, path.name
            path.write_bytes(original)
        assert validator_source_key(tmp_path) == before

    @staticmethod
    def _edit(path, old, new):
        source = path.read_text()
        assert old in source
        path.write_text(source.replace(old, new, 1))

    def test_docstring_only_edit_keeps_the_key(self, tmp_path):
        self._copy_sources(tmp_path)
        before = validator_source_key(tmp_path)
        self._edit(
            tmp_path / "core" / "fitting.py",
            '"""Memory-bounded fitting pipeline',
            '"""A reworded, memory-bounded fitting pipeline',
        )
        self._edit(
            tmp_path / "core" / "validator.py",
            '"""Per-sample discrepancy',
            '"""The per-sample discrepancy',
        )
        assert validator_source_key(tmp_path) == before

    def test_one_token_code_edit_changes_the_key(self, tmp_path):
        self._copy_sources(tmp_path)
        before = validator_source_key(tmp_path)
        self._edit(tmp_path / "svm" / "oneclass.py", "alpha > 1e-12", "alpha >= 1e-12")
        assert validator_source_key(tmp_path) != before

    def test_unlisted_sources_do_not_change_the_key(self, tmp_path):
        self._copy_sources(tmp_path)
        before = validator_source_key(tmp_path)
        (tmp_path / "core" / "monitor.py").write_text("# serving code\n")
        assert validator_source_key(tmp_path) == before


class TestTables:
    def test_table2_lists_seven_stages(self, svhn_context):
        result = run_table2("tiny")
        assert len(result.rows) == 7
        assert "Conv2d" in result.render()

    def test_table3_accuracies_reasonable(self, mnist_context, svhn_context, cifar_context):
        result = run_table3("tiny")
        assert result.accuracy("synth-mnist") > 0.9
        assert result.accuracy("synth-svhn") > 0.6
        assert result.accuracy("synth-cifar") > 0.6
        assert "Table III" in result.render()

    def test_table4_static_rows(self):
        result = run_table4()
        assert len(result.rows) == 7
        assert "rotation" in result.render()

    def test_table5_rows_complete(self, mnist_context):
        result = run_table5("synth-mnist", "tiny")
        names = [row[0] for row in result.rows]
        assert names[-1] == "combined"
        assert len(names) == 8

    def test_table5_viable_rates_above_30pct(self, mnist_context):
        result = run_table5("synth-mnist", "tiny")
        for name, config, success, confidence in result.rows:
            if config != "-":
                assert success > 0.3

    def test_table6_shapes(self, mnist_context):
        result = run_table6("synth-mnist", "tiny")
        layers = len(mnist_context.model.probe_names)
        transforms = len(mnist_context.suite.viable_transformations)
        assert result.single_auc.shape == (layers, transforms)
        assert len(result.joint_auc) == transforms

    def test_table6_auc_in_range(self, mnist_context):
        result = run_table6("synth-mnist", "tiny")
        assert np.all(result.single_auc >= 0.0) and np.all(result.single_auc <= 1.0)
        assert 0.0 <= result.joint_overall <= 1.0

    def test_table6_joint_beats_best_single_overall(self, mnist_context):
        # The paper's headline claim on MNIST: the joint validator achieves
        # the best overall ROC-AUC.
        result = run_table6("synth-mnist", "tiny")
        assert result.joint_overall >= result.best_single_overall - 1e-9
        assert result.joint_overall > 0.95

    def test_table6_best_specific_dominates_singles(self, mnist_context):
        result = run_table6("synth-mnist", "tiny")
        assert np.all(result.best_specific >= result.single_auc.max(axis=0) - 1e-12)

    def test_table7_ordering_matches_paper(self, mnist_context):
        # Deep Validation must beat feature squeezing on corner cases.
        result = run_table7("synth-mnist", "tiny")
        assert result.auc("Deep Validation") > result.auc("Feature Squeezing")
        assert result.auc("Deep Validation") > 0.95

    def test_table7_svhn_margin(self, svhn_context):
        # The paper highlights the large margin over feature squeezing on
        # the noisy SVHN dataset.
        result = run_table7("synth-svhn", "tiny")
        assert result.auc("Deep Validation") - result.auc("Feature Squeezing") > 0.1


class TestFigures:
    def test_figure2_panels(self, mnist_context):
        result = run_figure2("synth-mnist", "tiny")
        assert result.panels[0][0] == "original seed"
        rendered = result.render()
        assert "Figure 2" in rendered

    def test_figure3_distributions_separate(self, mnist_context):
        result = run_figure3("synth-mnist", "tiny")
        assert result.scc_centroid > result.clean_centroid
        assert result.overlap < 0.3
        assert result.clean_histogram.sum() == len(result.clean_scores)
        assert "Figure 3" in result.render()

    def test_figure3_normalised_to_unit_interval(self, mnist_context):
        result = run_figure3("synth-mnist", "tiny")
        assert np.abs(result.clean_scores).max() <= 1.0 + 1e-9
        assert np.abs(result.scc_scores).max() <= 1.0 + 1e-9

    def test_figure4_shape_claims(self, mnist_context):
        result = run_figure4("synth-mnist", "tiny")
        assert "Figure 4" in result.render()
        severe = [p for p in result.points if p.ratio <= 0.5 or p.ratio >= 1.8]
        # Deep Validation detects nearly all SCCs at severe distortion.
        for point in severe:
            if point.dv_scc_rate is not None:
                assert point.dv_scc_rate > 0.9


class TestRunner:
    def test_experiment_registry(self):
        assert "table6" in EXPERIMENTS
        assert "figure4" in EXPERIMENTS

    def test_run_experiment_unknown(self):
        with pytest.raises(ValueError):
            run_experiment("table99", None, "tiny", 0)

    def test_run_single_table(self, mnist_context):
        output = run_experiment("table5", "synth-mnist", "tiny", 0)
        assert "Table V" in output
