"""Content-hashed, atomically-written snapshot store.

Layout (one directory per checkpoint *tag*, one JSON file per snapshot)::

    <root>/
      <tag>/
        000000000042-1f2e3d4c5b6a.json
        000000000137-a0b1c2d3e4f5.json

The file name embeds the snapshot's position (events dispatched, zero
padded so names sort chronologically) and a prefix of its state hash, so
re-saving an identical state is a no-op and re-saving a *different* state
at an already-checkpointed position is caught as replay divergence.

Files are published with :func:`repro.util.fsio.write_json_atomic` (a
temp file + ``os.replace``) so a crash mid-write never leaves a truncated
snapshot; readers either see the old complete file or the new complete
file.  Snapshot payloads use the shared CLI JSON envelope
(``repro.checkpoint/1``) — ``repro checkpoint inspect`` and any external
tool can dispatch on the ``schema`` field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.errors import CheckpointError
from repro.checkpoint.state import diff_states, state_hash
from repro.util.fsio import write_json_atomic
from repro.util.jsonout import envelope, schema_id

#: Payload kind of snapshot files (full schema id: ``repro.checkpoint/1``).
SNAPSHOT_KIND = "checkpoint"

#: Hex digits of the state hash embedded in snapshot file names.
_NAME_HASH_LEN = 12


@dataclass(frozen=True)
class Snapshot:
    """One captured simulation state, ready to persist or restore."""

    tag: str
    now_ps: int
    dispatched: int
    state: dict
    digest: str

    @staticmethod
    def capture(tag: str, simulation) -> "Snapshot":
        """Snapshot ``simulation`` (a :class:`SystemSimulation`) now."""
        state = simulation.state_dict()
        return Snapshot(
            tag=tag,
            now_ps=simulation.kernel.now_ps,
            dispatched=simulation.kernel.dispatched,
            state=state,
            digest=state_hash(state),
        )

    @property
    def position(self) -> tuple:
        """Chronological sort key: (simulated time, events dispatched)."""
        return (self.now_ps, self.dispatched)


class CheckpointStore:
    """Reads and writes :class:`Snapshot` files under one root directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def save(self, snapshot: Snapshot) -> Path:
        """Persist ``snapshot`` atomically; returns the snapshot path.

        Saving the same state twice is a cheap no-op.  Saving a
        *different* state at an already-checkpointed position raises
        :class:`CheckpointError` — the replay diverged from the run that
        wrote the original snapshot."""
        directory = self.root / snapshot.tag
        stem = f"{snapshot.dispatched:012d}"
        path = directory / f"{stem}-{snapshot.digest[:_NAME_HASH_LEN]}.json"
        if path.exists():
            return path
        rivals = sorted(directory.glob(f"{stem}-*.json"))
        if rivals:
            original = self.load(rivals[0])
            lines = diff_states(original.state, snapshot.state)
            preview = "; ".join(lines[:5]) or "(hash-only difference)"
            raise CheckpointError(
                f"replay diverged at {snapshot.dispatched} events "
                f"({snapshot.now_ps} ps): snapshot hash {snapshot.digest[:12]} "
                f"!= recorded {original.digest[:12]}; first differences: "
                f"{preview}"
            )
        payload = envelope(
            SNAPSHOT_KIND,
            {
                "tag": snapshot.tag,
                "now_ps": snapshot.now_ps,
                "dispatched": snapshot.dispatched,
                "state_hash": snapshot.digest,
                "state": snapshot.state,
            },
        )
        write_json_atomic(path, payload, indent=2)
        return path

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def load(self, path) -> Snapshot:
        """Read one snapshot file; strict — any defect raises.

        Rejects non-JSON files, envelopes of the wrong kind, snapshots
        written by a *newer* schema version, and payloads whose recorded
        state hash does not match the state (bit rot / hand edits)."""
        path = Path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise CheckpointError(f"cannot read snapshot {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"snapshot {path} is not valid JSON: {exc}"
            ) from exc
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema != schema_id(SNAPSHOT_KIND):
            raise CheckpointError(
                f"snapshot {path} has schema {schema!r}, expected "
                f"{schema_id(SNAPSHOT_KIND)!r} (newer or foreign files are "
                "not restorable)"
            )
        results = payload.get("results")
        try:
            snapshot = Snapshot(
                tag=results["tag"],
                now_ps=int(results["now_ps"]),
                dispatched=int(results["dispatched"]),
                state=results["state"],
                digest=results["state_hash"],
            )
        except (TypeError, KeyError) as exc:
            raise CheckpointError(
                f"snapshot {path} is missing field {exc}"
            ) from exc
        actual = state_hash(snapshot.state)
        if actual != snapshot.digest:
            raise CheckpointError(
                f"snapshot {path} is corrupt: state hashes to {actual[:12]}, "
                f"file records {snapshot.digest[:12]}"
            )
        return snapshot

    def list(self, tag: Optional[str] = None) -> List[Path]:
        """Snapshot paths, oldest first (all tags unless one is given)."""
        if tag is not None:
            directories = [self.root / tag]
        elif self.root.is_dir():
            directories = sorted(d for d in self.root.iterdir() if d.is_dir())
        else:
            directories = []
        paths: List[Path] = []
        for directory in directories:
            if directory.is_dir():
                paths.extend(sorted(directory.glob("*.json")))
        return paths

    def latest(self, tag: str) -> Optional[Snapshot]:
        """The most advanced restorable snapshot for ``tag`` (or None).

        Unreadable files are skipped — a half-written or corrupted
        snapshot must not block resuming from the previous good one."""
        best: Optional[Snapshot] = None
        for path in self.list(tag):
            try:
                snapshot = self.load(path)
            except CheckpointError:
                continue
            if best is None or snapshot.position > best.position:
                best = snapshot
        return best

    def prune(self, tag: str) -> int:
        """Delete every snapshot of ``tag``; returns the number removed."""
        removed = 0
        for path in self.list(tag):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        directory = self.root / tag
        try:
            directory.rmdir()
        except OSError:
            pass
        return removed
