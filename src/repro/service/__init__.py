"""Batch archive service: manifest-driven compression jobs over a corpus.

The step from "compressor library" to "compression service" (ROADMAP north
star): a TOML/JSON manifest describes many fields (dataset refs or raw files,
per-field error bounds, codec/tile overrides), :class:`BatchRunner` runs them
through the shared task core (:mod:`repro.service.tasks`: LPT-first across
the serial/threads/processes executors, per-field failure isolation and
resume-from-archive), and :class:`ArchiveStore` keeps
the resulting frames behind a random-access index with per-tile partial
decompression.  ``repro batch`` / ``repro archive {ls,get,verify}`` expose
the same machinery on the command line.
"""

from .archive import ArchiveCorruption, ArchiveEntry, ArchiveError, ArchiveNotFound, ArchiveStore
from .manifest import (
    FieldSpec,
    JobSpec,
    ManifestError,
    jobspec_to_doc,
    load_manifest,
    parse_manifest,
)
from .runner import REPORT_SCHEMA, BatchReport, BatchRunner, FieldResult
from .tasks import estimate_field_cost

__all__ = [
    "ArchiveCorruption",
    "ArchiveEntry",
    "ArchiveError",
    "ArchiveNotFound",
    "ArchiveStore",
    "FieldSpec",
    "JobSpec",
    "ManifestError",
    "jobspec_to_doc",
    "load_manifest",
    "parse_manifest",
    "BatchReport",
    "BatchRunner",
    "FieldResult",
    "REPORT_SCHEMA",
    "estimate_field_cost",
]
