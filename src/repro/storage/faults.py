"""Fault injection for the durable storage backend.

A :class:`FaultPlan` is a first-class description of *where a process
dies* and *what the operating system did to the tail of the files* when
it died.  The :mod:`repro.storage.durable` backend consults the plan at
every hazardous step — WAL appends, fsyncs, checkpoint writes — so the
crash-matrix suite, the ``repro recover`` CLI and the durability perf
probe all exercise recovery through exactly the hooks production code
runs, not through test-only monkeypatching.

Crash points
------------
``crash_after_appends=N``
    the process dies immediately after the N-th WAL record append (commit
    markers are appends too, so a crash can land on the marker itself);
``crash_in_checkpoint="mid_write"``
    the process dies halfway through writing the checkpoint's temporary
    page file (the live page file is untouched — atomic replace);
``crash_in_checkpoint="before_truncate"``
    the process dies after the new page file is atomically installed but
    before the WAL is reset (recovery must skip the already-checkpointed
    WAL prefix by sequence number).

Tail policies — what the OS page cache did at the crash
-------------------------------------------------------
``tail="keep"``
    every written byte survives (the OS happened to flush everything);
``tail="drop_unsynced"``
    bytes after the last *completed* fsync are lost (the honest model of
    a power cut; combine with ``drop_fsync=True`` to model an fsync that
    lies);
``tail="torn"``
    like ``keep``, but the final WAL record is cut mid-record at
    ``torn_fraction`` of its bytes — the torn-write case recovery's
    CRC scan must detect and discard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError

__all__ = ["FaultPlan", "TAIL_DROP_UNSYNCED", "TAIL_KEEP", "TAIL_TORN"]

TAIL_KEEP = "keep"
TAIL_DROP_UNSYNCED = "drop_unsynced"
TAIL_TORN = "torn"

_TAILS = (TAIL_KEEP, TAIL_DROP_UNSYNCED, TAIL_TORN)
_CHECKPOINT_STAGES = ("mid_write", "before_truncate")


def _number(kind: type, token: str, value: str) -> Any:
    """``kind(value)``, or a :class:`ReproError` naming the bad token."""
    try:
        return kind(value)
    except ValueError:
        raise ReproError(f"bad fault token {token!r}") from None


@dataclass
class FaultPlan:
    """An injectable crash scenario for a durable store.

    A plan fires *at most one* crash (``fired`` latches); a store whose
    plan fired is dead and must be reopened through recovery.  A default
    plan never crashes and never drops an fsync, so passing one is
    always safe.
    """

    #: Crash after this many WAL record appends (None = never).
    crash_after_appends: int | None = None
    #: Crash inside a checkpoint at the named stage (None = never).
    crash_in_checkpoint: str | None = None
    #: What survives of the WAL tail when the crash fires.
    tail: str = TAIL_KEEP
    #: Cut point of the final record under ``tail="torn"`` (0 < f < 1).
    torn_fraction: float = 0.5
    #: When True, fsync calls are silently dropped (never reach disk).
    drop_fsync: bool = False

    #: WAL appends observed so far (runtime state, not configuration).
    appends_seen: int = field(default=0, compare=False)
    #: Latches once a crash point has fired.
    fired: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.tail not in _TAILS:
            raise ReproError(
                f"unknown tail policy {self.tail!r}; one of {_TAILS}"
            )
        if (
            self.crash_in_checkpoint is not None
            and self.crash_in_checkpoint not in _CHECKPOINT_STAGES
        ):
            raise ReproError(
                f"unknown checkpoint stage {self.crash_in_checkpoint!r}; "
                f"one of {_CHECKPOINT_STAGES}"
            )
        if not 0.0 < self.torn_fraction < 1.0:
            raise ReproError(
                f"torn_fraction must be in (0, 1), got {self.torn_fraction}"
            )
        if self.crash_after_appends is not None and self.crash_after_appends < 1:
            raise ReproError(
                f"crash_after_appends must be >= 1, "
                f"got {self.crash_after_appends}"
            )

    # ------------------------------------------------------------------
    # Hooks consulted by the durable backend
    # ------------------------------------------------------------------

    def note_append(self) -> bool:
        """Record one WAL append; True when the crash point fires now."""
        self.appends_seen += 1
        if (
            not self.fired
            and self.crash_after_appends is not None
            and self.appends_seen >= self.crash_after_appends
        ):
            self.fired = True
            return True
        return False

    def note_fsync(self) -> bool:
        """Whether an fsync should actually reach disk."""
        return not self.drop_fsync

    def note_checkpoint(self, stage: str) -> bool:
        """Record reaching a checkpoint stage; True when the crash fires."""
        if not self.fired and self.crash_in_checkpoint == stage:
            self.fired = True
            return True
        return False

    # ------------------------------------------------------------------
    # CLI surface
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact CLI spec.

        Comma-separated tokens: ``after-appends=N``,
        ``checkpoint=mid-write|before-truncate``,
        ``tail=keep|drop|torn``, ``torn-fraction=F``, ``drop-fsync``.

        >>> FaultPlan.parse("after-appends=40,tail=torn").crash_after_appends
        40
        """
        kwargs: dict[str, Any] = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            key, _, value = token.partition("=")
            if key == "after-appends":
                kwargs["crash_after_appends"] = _number(int, token, value)
            elif key == "checkpoint":
                kwargs["crash_in_checkpoint"] = value.replace("-", "_")
            elif key == "tail":
                kwargs["tail"] = {
                    "keep": TAIL_KEEP,
                    "drop": TAIL_DROP_UNSYNCED,
                    "drop_unsynced": TAIL_DROP_UNSYNCED,
                    "torn": TAIL_TORN,
                }.get(value, value)
            elif key == "torn-fraction":
                kwargs["torn_fraction"] = _number(float, token, value)
            elif key == "drop-fsync":
                kwargs["drop_fsync"] = True
            else:
                raise ReproError(f"unknown fault token {token!r}")
        return cls(**kwargs)

    def describe(self) -> str:
        """A one-line human summary of the configured crash points."""
        parts = []
        if self.crash_after_appends is not None:
            parts.append(f"crash after {self.crash_after_appends} WAL appends")
        if self.crash_in_checkpoint is not None:
            parts.append(f"crash in checkpoint ({self.crash_in_checkpoint})")
        if not parts:
            parts.append("no crash point")
        parts.append(f"tail={self.tail}")
        if self.tail == TAIL_TORN:
            parts.append(f"torn_fraction={self.torn_fraction}")
        if self.drop_fsync:
            parts.append("fsync dropped")
        return ", ".join(parts)
