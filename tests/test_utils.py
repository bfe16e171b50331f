"""Tests for shared utilities."""

import numpy as np
import pytest

from repro.utils import (
    ArtifactCache,
    check_positive,
    check_probability,
    check_shape,
    format_table,
    hash_array,
    new_rng,
    spawn_rngs,
)


class TestRng:
    def test_new_rng_from_int_deterministic(self):
        assert new_rng(5).random() == new_rng(5).random()

    def test_new_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert new_rng(gen) is gen

    def test_spawn_rngs_independent(self):
        a, b = spawn_rngs(0, 2)
        assert a.random() != b.random()

    def test_spawn_count(self):
        assert len(spawn_rngs(0, 5)) == 5
        assert spawn_rngs(0, 0) == []

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(3)
        children = spawn_rngs(gen, 2)
        assert len(children) == 2

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn_rngs(7, 3)]
        b = [g.random() for g in spawn_rngs(7, 3)]
        assert a == b


class TestCache:
    def test_get_or_build_builds_once(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def build():
            calls.append(1)
            return {"x": 42}

        first = cache.get_or_build("thing", {"a": 1}, build)
        second = cache.get_or_build("thing", {"a": 1}, build)
        assert first == second == {"x": 42}
        assert len(calls) == 1

    def test_different_configs_different_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("thing", {"a": 1}, "one")
        cache.store("thing", {"a": 2}, "two")
        assert cache.load("thing", {"a": 1}) == "one"
        assert cache.load("thing", {"a": 2}) == "two"

    def test_contains(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert not cache.contains("x", {})
        cache.store("x", {}, 1)
        assert cache.contains("x", {})

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("x", {}, 1)
        cache.store("y", {}, 2)
        assert cache.clear() == 2
        assert not cache.contains("x", {})

    def test_numpy_values_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        value = np.arange(10.0)
        cache.store("arr", {"k": 1}, value)
        np.testing.assert_allclose(cache.load("arr", {"k": 1}), value)

    def test_config_key_order_irrelevant(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.path_for("n", {"a": 1, "b": 2}) == cache.path_for("n", {"b": 2, "a": 1})

    def test_corrupt_entry_rebuilt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.path_for("thing", {"a": 1}).write_bytes(b"\x05not a pickle")
        calls = []

        def build():
            calls.append(1)
            return "rebuilt"

        assert cache.get_or_build("thing", {"a": 1}, build) == "rebuilt"
        assert calls == [1]
        # The rebuilt value replaced the corrupt file and loads cleanly now.
        assert cache.get_or_build("thing", {"a": 1}, build) == "rebuilt"
        assert calls == [1]

    def test_truncated_entry_rebuilt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("thing", {}, list(range(100)))
        path = cache.path_for("thing", {})
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get_or_build("thing", {}, lambda: "fresh") == "fresh"

    def test_discard(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert not cache.discard("x", {})
        cache.store("x", {}, 1)
        assert cache.discard("x", {})
        assert not cache.contains("x", {})

    def test_interleaved_stores_both_land_intact(self, tmp_path):
        # Two writers racing on the same artifact: writer A starts pickling,
        # writer B stores completely, then A finishes. With a shared
        # ``.tmp`` staging name B would truncate A's half-written file and
        # one replace could promote garbage; per-write unique temp names
        # keep both writes intact (last replace wins).
        import threading

        cache = ArtifactCache(tmp_path)
        a_started = threading.Event()
        b_done = threading.Event()
        errors: list[Exception] = []

        class StallsMidPickle:
            def __init__(self, tag):
                self.tag = tag

            def __reduce__(self):
                a_started.set()
                b_done.wait(timeout=10)
                return (str, (self.tag,))

        def writer_a_body():
            try:
                cache.store("thing", {"k": 1}, StallsMidPickle("A"))
            except Exception as exc:  # with a shared tmp, A's replace dies
                errors.append(exc)

        writer_a = threading.Thread(target=writer_a_body)
        writer_a.start()
        assert a_started.wait(timeout=10)
        cache.store("thing", {"k": 1}, "B")  # completes while A is mid-write
        assert cache.load("thing", {"k": 1}) == "B"
        b_done.set()
        writer_a.join(timeout=10)
        assert not errors  # both stores completed
        # A's replace ran last; its value must load cleanly — not a
        # truncated or interleaved pickle.
        assert cache.load("thing", {"k": 1}) == "A"
        assert not list(tmp_path.glob("*.tmp"))  # staging files consumed

    def test_failed_store_cleans_up_staging_file(self, tmp_path):
        cache = ArtifactCache(tmp_path)

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            cache.store("bad", {}, Unpicklable())
        assert not list(tmp_path.glob("*.tmp"))
        assert not cache.contains("bad", {})


class TestStableHash:
    def test_distinct_types_with_same_str_hash_differently(self):
        # Regression: default=str collapsed any non-JSON value to its
        # string form, so configs differing only in an opaque object's
        # *type* keyed the same artifact.
        from repro.utils.cache import _stable_hash

        class Width:
            def __repr__(self):
                return "5"

        class Height:
            def __repr__(self):
                return "5"

        assert _stable_hash({"v": Width()}) != _stable_hash({"v": Height()})
        # And neither collides with the honest JSON scalar.
        assert _stable_hash({"v": Width()}) != _stable_hash({"v": 5})
        assert _stable_hash({"v": Width()}) != _stable_hash({"v": "5"})

    def test_pure_json_configs_hash_stably(self):
        # The opaque-encoding fix must not perturb plain-JSON keys —
        # existing on-disk artifacts stay addressable.
        from repro.utils.cache import _stable_hash

        config = {"nu": 0.1, "layers": ["conv1", "fc1"], "strict": True, "pad": None}
        assert _stable_hash(config) == _stable_hash(dict(reversed(config.items())))
        assert _stable_hash(config) != _stable_hash({**config, "nu": 0.2})

    def test_opaque_values_hash_deterministically(self):
        from repro.utils.cache import _stable_hash

        config = {"dtype": np.float32}
        assert _stable_hash(config) == _stable_hash({"dtype": np.float32})
        assert _stable_hash(config) != _stable_hash({"dtype": np.float64})


class TestArtifactIntegrity:
    def test_store_writes_checksum_sidecar(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("thing", {"a": 1}, [1, 2, 3])
        sidecar = cache.checksum_path_for("thing", {"a": 1})
        assert sidecar.exists()
        import hashlib

        payload = cache.path_for("thing", {"a": 1}).read_bytes()
        assert sidecar.read_text().strip() == hashlib.sha256(payload).hexdigest()

    def test_bit_flipped_pickle_rebuilt_and_quarantined(self, tmp_path):
        # Regression for the blind spot where only unpickling errors
        # triggered a rebuild: a single flipped bit usually still
        # unpickles — into silently wrong data.
        cache = ArtifactCache(tmp_path)
        cache.store("thing", {"a": 1}, {"weights": list(range(64))})
        path = cache.path_for("thing", {"a": 1})
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0x01
        path.write_bytes(bytes(payload))
        assert cache.get_or_build("thing", {"a": 1}, lambda: "rebuilt") == "rebuilt"
        quarantined = list((tmp_path / ArtifactCache.QUARANTINE_DIR).iterdir())
        assert any(p.name.startswith("thing-") and ".pkl." in p.name for p in quarantined)
        # The rebuilt entry carries a fresh, matching sidecar.
        assert cache.load("thing", {"a": 1}) == "rebuilt"

    def test_missing_sidecar_treated_as_stale(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("thing", {}, "value")
        cache.checksum_path_for("thing", {}).unlink()
        assert cache.get_or_build("thing", {}, lambda: "rebuilt") == "rebuilt"

    def test_stale_sidecar_treated_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("thing", {}, "old")
        sidecar = cache.checksum_path_for("thing", {})
        stale = sidecar.read_text()
        cache.path_for("thing", {}).write_bytes(
            cache.path_for("thing", {}).read_bytes() + b" "
        )
        assert sidecar.read_text() == stale
        assert cache.get_or_build("thing", {}, lambda: "rebuilt") == "rebuilt"

    def test_load_without_verify_trusts_bytes(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("thing", {}, "value")
        cache.checksum_path_for("thing", {}).unlink()
        assert cache.load("thing", {}, verify=False) == "value"

    def test_discard_removes_sidecar(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("thing", {}, "value")
        cache.discard("thing", {})
        assert not cache.checksum_path_for("thing", {}).exists()

    def test_clear_removes_sidecars_but_not_quarantine(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("a", {}, 1)
        cache.store("b", {}, 2)
        cache.path_for("a", {}).write_bytes(b"\x05junk")
        with pytest.raises(Exception):
            cache.load("a", {})
        assert cache.clear() == 1  # only b's pickle remained
        assert not list(tmp_path.glob("*.sha256"))
        assert list((tmp_path / ArtifactCache.QUARANTINE_DIR).iterdir())

    def test_quarantine_missing_entry_returns_none(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.quarantine("ghost", {}) is None


class TestHashArray:
    def test_content_sensitivity(self):
        a = np.arange(6.0)
        assert hash_array(a) == hash_array(a.copy())
        assert hash_array(a) != hash_array(a + 1)

    def test_shape_and_dtype_sensitivity(self):
        a = np.arange(6.0)
        assert hash_array(a) != hash_array(a.reshape(2, 3))
        assert hash_array(a) != hash_array(a.astype(np.float32))

    def test_multiple_arrays(self):
        a, b = np.arange(3.0), np.arange(4.0)
        assert hash_array(a, b) != hash_array(b, a)

    def test_non_contiguous_view_hashes_like_its_copy(self):
        a = np.arange(12.0).reshape(3, 4)
        view = a[:, ::2]
        assert hash_array(view) == hash_array(view.copy())


class TestTables:
    def test_basic_rendering(self):
        table = format_table(["A", "B"], [[1, 2.5], ["x", None]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "2.5000" in table
        assert "-" in lines[-1]

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["A"], [[1, 2]])

    def test_empty_rows_ok(self):
        table = format_table(["A", "B"], [])
        assert "A" in table


class TestValidationHelpers:
    def test_check_positive(self):
        check_positive("x", 1.0)
        with pytest.raises(ValueError):
            check_positive("x", 0.0)

    def test_check_probability(self):
        check_probability("p", 0.5)
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                check_probability("p", bad)

    def test_check_shape(self):
        check_shape("a", np.zeros((2, 3)), (2, 3))
        check_shape("a", np.zeros((2, 3)), (None, 3))
        with pytest.raises(ValueError):
            check_shape("a", np.zeros((2, 3)), (3, 3))
        with pytest.raises(ValueError):
            check_shape("a", np.zeros((2, 3)), (2, 3, 1))
