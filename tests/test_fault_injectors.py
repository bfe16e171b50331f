"""The seam every fault injector patches through.

Table-driven over every instance-patching injector in
:mod:`repro.testing.faults`, against a stand-in owner that carries every
method they patch:

* restoring — after exit, ``vars(owner)`` is exactly what it was before,
  for one injector and for two stacked, with and without a pre-existing
  instance attribute (a shadowed class method must be uncovered by
  deletion, never re-set on the instance);
* stats — each injector yields the stats dict with its documented keys;
* the call window — with many threads calling at once, every call is
  counted exactly and a window fires on exactly calls ``nth ..
  nth+count-1``.
"""

from __future__ import annotations

import re
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core import fitting
from repro.obs.tracing import ManualClock
from repro.testing import faults
from repro.utils.cache import CheckpointStore, cache_key

pytestmark = pytest.mark.faults


class Owner:
    """Stands in for a model, layer validator, monitor, server, batcher
    and trainer: the class methods every instance patch shadows."""

    layer_name = "conv1"

    def iter_hidden_representations(self, images, batch_size=256):
        yield 0, images, [images, images]

    def discrepancy_batched(self, representations, predicted, **kwargs):
        return "class"

    def classify(self, images):
        return "class"

    def _process(self, batch):
        return "class"

    def next_batch(self):
        return "class"

    def _begin_epoch(self, epoch):
        return "class"


@dataclass(frozen=True)
class Injector:
    attr: str
    make: Callable  # (owner, nth, count) -> context manager
    keys: frozenset
    args: tuple = ()  # one call's arguments
    calls: str = "calls"
    fired: str | None = None
    raises: type | None = None

    @property
    def windowed(self) -> bool:
        return self.fired is not None


INJECTORS = {
    "nan_activations": Injector(
        "iter_hidden_representations",
        lambda owner, nth, count: faults.nan_activations(owner, 1),
        frozenset(),
    ),
    "fail_packed_scorer": Injector(
        "discrepancy_batched",
        lambda owner, nth, count: faults.fail_packed_scorer(owner, nth, count),
        frozenset({"calls", "failures"}),
        args=(None, None),
        fired="failures",
        raises=faults.InjectedScorerError,
    ),
    "slow_layer": Injector(
        "discrepancy_batched",
        lambda owner, nth, count: faults.slow_layer(owner, 1.0, ManualClock()),
        frozenset({"calls"}),
        args=(None, None),
    ),
    "slow_classify": Injector(
        "classify",
        lambda owner, nth, count: faults.slow_classify(owner, 1.0, ManualClock()),
        frozenset({"calls"}),
        args=(None,),
    ),
    "hang_classify": Injector(
        "classify",
        lambda owner, nth, count: faults.hang_classify(owner, nth, count),
        frozenset({"calls", "hangs", "release"}),
        args=(None,),
        fired="hangs",
    ),
    "kill_worker": Injector(
        "_process",
        lambda owner, nth, count: faults.kill_worker(owner, nth, count),
        frozenset({"batches", "kills"}),
        args=(None,),
        calls="batches",
        fired="kills",
        raises=faults.InjectedWorkerDeath,
    ),
    "raise_in_batcher": Injector(
        "next_batch",
        lambda owner, nth, count: faults.raise_in_batcher(owner, nth, count),
        frozenset({"calls", "raises"}),
        fired="raises",
        raises=faults.InjectedBatcherError,
    ),
    "crash_at_epoch": Injector(
        "_begin_epoch",
        lambda owner, nth, count: faults.crash_at_epoch(owner, 3),
        frozenset({"crashed"}),
    ),
}

NAMES = sorted(INJECTORS)
COUNTING = [name for name in NAMES if INJECTORS[name].calls in INJECTORS[name].keys]
WINDOWED = [name for name in NAMES if INJECTORS[name].windowed]
PREEXISTING_IDS = ["shadowing", "instance"]
SAME_ATTR_PAIRS = [(name, name) for name in NAMES] + [
    ("fail_packed_scorer", "slow_layer"),
    ("slow_classify", "hang_classify"),
]


def _instance_attr(*args, **kwargs):
    return "instance"


def _owner(attr: str, preexisting: bool) -> Owner:
    owner = Owner()
    if preexisting:
        setattr(owner, attr, _instance_attr)
    return owner


def _enter(name: str, owner: Owner, nth: int = 1, count: int = 1):
    return INJECTORS[name].make(owner, nth, count)


class TestRestoring:
    @pytest.mark.parametrize("preexisting", [False, True], ids=PREEXISTING_IDS)
    @pytest.mark.parametrize("name", NAMES)
    def test_one_injector_leaves_vars_as_found(self, name, preexisting):
        attr = INJECTORS[name].attr
        owner = _owner(attr, preexisting)
        before = dict(vars(owner))
        with _enter(name, owner):
            assert vars(owner)[attr] is not before.get(attr)  # patched in place
            assert vars(Owner)[attr] is getattr(Owner, attr)  # class untouched
        assert vars(owner) == before
        if preexisting:
            assert vars(owner)[attr] is _instance_attr
        else:
            assert attr not in vars(owner)  # deleted, not re-set

    @pytest.mark.parametrize("preexisting", [False, True], ids=PREEXISTING_IDS)
    @pytest.mark.parametrize("outer, inner", SAME_ATTR_PAIRS)
    def test_two_stacked_unwind_in_order(self, outer, inner, preexisting):
        attr = INJECTORS[outer].attr
        owner = _owner(attr, preexisting)
        before = dict(vars(owner))
        with _enter(outer, owner):
            between = dict(vars(owner))
            with _enter(inner, owner):
                assert vars(owner)[attr] is not between[attr]
            assert vars(owner) == between  # the outer patch is back
        assert vars(owner) == before

    def test_module_function_is_restored(self):
        original = vars(fitting)["_record_solution"]
        with faults.crash_at_task(2) as stats:
            assert fitting._record_solution is not original
        assert vars(fitting)["_record_solution"] is original
        assert set(stats) == {"recorded", "crashed"}


class TestStats:
    @pytest.mark.parametrize("name", NAMES)
    def test_each_injector_yields_its_stats_keys(self, name):
        with _enter(name, Owner()) as stats:
            assert set(stats) == INJECTORS[name].keys
            assert not any(v for k, v in stats.items() if k != "release")

    @pytest.mark.parametrize(
        "injector", [faults.corrupt_artifact, faults.corrupt_bundle]
    )
    def test_file_injectors_yield_an_empty_dict_and_restore(self, injector, tmp_path):
        store = CheckpointStore(tmp_path)
        store.get_or_build("entry", {"k": 1}, lambda: list(range(64)))
        path = store.path_for(cache_key("entry", {"k": 1}))
        original = path.read_bytes()
        if injector is faults.corrupt_bundle:

            class BundleFile:  # stands in for a BundleStore holding one file
                def path_for(self, name, version):
                    return path

            corrupted = injector(BundleFile(), "entry", 1, mode="truncate")
        else:
            corrupted = injector(store, "entry", {"k": 1}, mode="truncate")
        with corrupted as stats:
            assert stats == {}
            assert path.read_bytes() != original
        assert path.read_bytes() == original


class TestCallWindow:
    THREADS = 8
    CALLS = 5000

    def _hammer(self, name: str, nth: int, count: int):
        """Call the patched method THREADS x CALLS times at once; return the
        stats and the call numbers the raised faults name."""
        row = INJECTORS[name]
        owner = Owner()
        barrier = threading.Barrier(self.THREADS, timeout=30.0)
        raised: list[int] = []
        tally = threading.Lock()

        def caller():
            barrier.wait()
            mine = []
            for _ in range(self.CALLS):
                try:
                    getattr(owner, row.attr)(*row.args)
                except (row.raises or ()) as exc:  # the fault names its call
                    mine.append(int(re.search(r"\d+", str(exc)).group()))
            with tally:
                raised.extend(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with _enter(name, owner, nth, count) as stats:
                if "release" in stats:
                    stats["release"].set()  # hangs count, then pass through
                threads = [threading.Thread(target=caller) for _ in range(self.THREADS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        return stats, raised

    @pytest.mark.parametrize("name", COUNTING)
    def test_every_concurrent_call_is_counted(self, name):
        stats, _ = self._hammer(name, nth=1, count=-1)
        assert stats[INJECTORS[name].calls] == self.THREADS * self.CALLS

    @pytest.mark.parametrize("nth, count", [(5, 7), (1, 0), (3, -1)])
    @pytest.mark.parametrize("name", WINDOWED)
    def test_window_fires_exactly_count_times(self, name, nth, count):
        row = INJECTORS[name]
        total = self.THREADS * self.CALLS
        stats, raised = self._hammer(name, nth, count)
        window = range(nth, total + 1) if count < 0 else range(nth, nth + count)
        assert stats[row.calls] == total
        assert stats[row.fired] == len(window)
        if row.raises is not None:
            assert sorted(raised) == list(window)  # each window call fired once
