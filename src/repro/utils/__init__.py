"""Shared utilities: seeded RNG plumbing, the artifact cache and checkpoint
store, table rendering."""

from repro.utils.cache import (
    CheckpointIntegrityError,
    CheckpointStore,
    TaskJournal,
    default_cache,
    default_checkpoint_store,
    hash_array,
)
from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.tables import format_table
from repro.utils.validation import check_positive, check_probability, check_shape
from repro.utils.warnings_ import emit_warning, strict_mode

__all__ = [
    "CheckpointIntegrityError",
    "CheckpointStore",
    "TaskJournal",
    "default_checkpoint_store",
    "emit_warning",
    "strict_mode",
    "default_cache",
    "hash_array",
    "new_rng",
    "spawn_rngs",
    "format_table",
    "check_positive",
    "check_probability",
    "check_shape",
]
