"""Content-addressed on-disk cache of candidate evaluation results.

Layout (under the cache directory)::

    <digest[:2]>/<digest>.json

where ``digest`` is the SHA-256 of the candidate spec's canonical JSON
(:meth:`CandidateSpec.digest`).  Each entry stores the spec echo, the
:class:`EvaluationResult` fields, the result's stable hash and the
original evaluation wall-time, so warm re-runs can report what they
skipped, and the action-language semantics version
(:data:`repro.uml.semantics.SEMANTICS_VERSION`) the result was computed
under.  Entries are published with
:func:`repro.util.fsio.write_json_atomic` (temp file + ``os.replace``) so
concurrent explorations sharing a cache directory never read torn JSON;
unreadable or schema-mismatched entries, and entries of another semantics
version, are treated as misses: the candidate is re-evaluated and its
entry overwritten.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Tuple

from repro.exploration.objectives import EvaluationResult
from repro.exploration.spec import CandidateSpec
from repro.uml.semantics import SEMANTICS_VERSION
from repro.util.fsio import write_json_atomic

#: Bump when the entry format changes incompatibly.
CACHE_SCHEMA = 1


class ResultCache:
    """A directory of content-addressed evaluation results."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def path_for(self, digest: str) -> str:
        """The entry path of a spec digest (which need not exist yet)."""
        return os.path.join(self.directory, digest[:2], digest + ".json")

    def load(self, spec: CandidateSpec) -> Optional[Tuple[EvaluationResult, float]]:
        """The cached ``(result, original elapsed seconds)``, or None."""
        digest = spec.digest()
        if digest is None:
            return None
        path = self.path_for(digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA
            or entry.get("semantics") != SEMANTICS_VERSION
        ):
            return None
        try:
            result = EvaluationResult.from_dict(entry["result"])
        except (KeyError, TypeError):
            return None
        return result, float(entry.get("elapsed_s", 0.0))

    def store(
        self, spec: CandidateSpec, result: EvaluationResult, elapsed_s: float
    ) -> Optional[str]:
        """Write one entry; returns its path (None for unhashable specs)."""
        digest = spec.digest()
        if digest is None:
            return None
        path = self.path_for(digest)
        entry = {
            "schema": CACHE_SCHEMA,
            "semantics": SEMANTICS_VERSION,
            "digest": digest,
            "spec": spec.to_json_dict(),
            "result": result.to_dict(),
            "result_hash": result.stable_hash(),
            "elapsed_s": elapsed_s,
        }
        write_json_atomic(path, entry)
        return path

    def __len__(self) -> int:
        count = 0
        for _, _, names in os.walk(self.directory):
            count += sum(1 for name in names if name.endswith(".json"))
        return count
