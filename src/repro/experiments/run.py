"""Command-line runner for the experiment harness.

Usage::

    python -m repro.experiments.run --experiment table6 --dataset synth-mnist
    python -m repro.experiments.run --all --profile bench

Every completed experiment's rendered report is journaled (crash-safely,
under the checkpoint store), so a run killed at experiment 7/10 loses
nothing: rerunning with ``--resume`` replays the journaled reports and
continues from the first experiment that never finished. The in-flight
artifact builds (classifier training, validator fitting) checkpoint
themselves independently and resume bit-identically — see
``docs/checkpointing.md``.
"""

from __future__ import annotations

import argparse

from repro.data.datasets import DATASET_NAMES
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
    run_table8,
)
from repro.utils.cache import CheckpointStore, default_checkpoint_store

_PER_DATASET = {
    "table5": run_table5,
    "table6": run_table6,
    "table7": run_table7,
    "figure2": run_figure2,
    "figure3": run_figure3,
}

def _run_extension_studies(profile: str, seed: int):
    """The beyond-paper studies, bundled for the CLI."""
    from repro.experiments.context import get_context
    from repro.experiments.extensions import (
        run_tradeoff_study,
        run_weighting_study,
    )
    from repro.utils.tables import format_table

    class _Bundle:
        def render(self) -> str:
            mnist = get_context("synth-mnist", profile, seed)
            svhn = get_context("synth-svhn", profile, seed)
            parts = [
                run_weighting_study(svhn).render(),
                run_tradeoff_study(mnist).render(),
            ]
            return "\n\n".join(parts)

    return _Bundle()


_GLOBAL = {
    "table2": lambda profile, seed: run_table2(profile, seed),
    "table3": lambda profile, seed: run_table3(profile, seed),
    "table4": lambda profile, seed: run_table4(),
    "table8": lambda profile, seed: run_table8("synth-mnist", profile, seed),
    "figure4": lambda profile, seed: run_figure4("synth-mnist", profile, seed),
    "extensions": _run_extension_studies,
}

EXPERIMENTS = sorted(list(_PER_DATASET) + list(_GLOBAL))


def run_experiment(name: str, dataset: str | None, profile: str, seed: int) -> str:
    """Run one experiment and return its rendered report."""
    if name in _GLOBAL:
        return _GLOBAL[name](profile, seed).render()
    if name in _PER_DATASET:
        datasets = [dataset] if dataset else list(DATASET_NAMES)
        return "\n\n".join(
            _PER_DATASET[name](ds, profile, seed).render() for ds in datasets
        )
    raise ValueError(f"unknown experiment {name!r}; available: {EXPERIMENTS}")


def _run_journal(checkpoint_dir: str | None, dataset: str | None, profile: str, seed: int):
    """The per-run journal of completed experiment reports."""
    store = (
        CheckpointStore(checkpoint_dir)
        if checkpoint_dir is not None
        else default_checkpoint_store()
    )
    scope = dataset if dataset is not None else "all"
    return store.journal(f"run-{profile}-{scope}-seed{seed}")


def main(argv: list[str] | None = None) -> None:
    """CLI entry point; see the module docstring for usage."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment", choices=EXPERIMENTS, help="which table/figure to run")
    parser.add_argument("--dataset", choices=DATASET_NAMES, default=None)
    parser.add_argument("--profile", default="tiny", choices=("tiny", "bench"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay experiments already completed by an interrupted run of "
        "the same profile/dataset/seed, then continue with the rest",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint store root (default: $REPRO_CHECKPOINT_DIR or "
        ".checkpoints/ under the artifact cache)",
    )
    args = parser.parse_args(argv)

    names = EXPERIMENTS if args.all else [args.experiment]
    if names == [None]:
        parser.error("provide --experiment or --all")
    journal = _run_journal(args.checkpoint_dir, args.dataset, args.profile, args.seed)
    completed: dict[str, str] = {}
    if args.resume:
        completed = dict(journal.replay())
    else:
        journal.clear()  # a fresh run must not inherit a stale journal
    for name in names:
        if name in completed:
            output = completed[name]
        else:
            output = run_experiment(name, args.dataset, args.profile, args.seed)
            journal.append((name, output))
        print(output)
        print()


if __name__ == "__main__":
    main()
