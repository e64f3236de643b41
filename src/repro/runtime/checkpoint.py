"""Model checkpoint/restart (§IV-C's mitigation strategy), hardened.

The paper splits epochs into separate runs "at which we checkpoint/restart
the model state" when scheduler limits preclude long jobs; fault-tolerant
data-parallel KARMA likewise relaunches from a checkpoint with a smaller
worker pool (§II-B).  Checkpoints capture parameters, non-trainable buffers
(BN statistics), optional extras (host-optimizer slots), and the training
step, in a single ``.npz`` archive.

Hardening for the elastic runtime (``repro.elastic``):

* every archive carries a **content digest** (SHA-256 over each entry's
  name, dtype, shape, and bytes) that is re-verified on load — a torn or
  bit-flipped file surfaces as a typed :class:`CheckpointCorruptError`
  instead of an opaque zipfile traceback;
* writes are atomic (tmp + ``os.replace``), so a kill mid-write never
  replaces the last good checkpoint with a partial one;
* :class:`CheckpointManager` adds **periodic asynchronous** checkpointing:
  arrays are snapshotted synchronously (a consistent view of the step) and
  written on a background thread so training never stalls on storage, with
  bounded rotation and last-good tracking for the recovery controller.
"""

from __future__ import annotations

import hashlib
import os
import queue
import re
import threading
import time
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.build import ExecutableModel
from ..obs.metrics import METRICS

__all__ = [
    "CheckpointCorruptError",
    "CheckpointClosedError",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_full",
    "checkpoint_digest",
    "CheckpointManager",
]

#: Archive key holding the content digest (excluded from its own hash).
_DIGEST_KEY = "__digest__"


class CheckpointClosedError(RuntimeError):
    """:meth:`CheckpointManager.save` on a closed asynchronous manager.

    Its writer thread has stopped, so the archive would never be written
    and :meth:`CheckpointManager.wait` would block forever on it.
    """


class CheckpointCorruptError(RuntimeError):
    """The checkpoint file is truncated, unreadable, or fails its digest.

    Raised instead of the underlying ``zipfile``/``OSError`` so recovery
    code can tell *data loss* (fall back to an older checkpoint, or give
    up with a typed failure) apart from programming errors.
    """


def checkpoint_digest(payload: Dict[str, np.ndarray]) -> str:
    """SHA-256 hex digest of a checkpoint payload.

    Covers each entry's key, dtype, shape, and raw bytes in sorted key
    order; the digest entry itself is excluded.  Stable across processes
    and interpreter restarts for identical array contents.
    """
    h = hashlib.sha256()
    for key in sorted(payload):
        if key == _DIGEST_KEY:
            continue
        arr = np.ascontiguousarray(payload[key])
        h.update(key.encode("utf-8"))
        h.update(str(arr.dtype).encode("utf-8"))
        h.update(str(arr.shape).encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


def _collect_payload(model: ExecutableModel, step: int,
                     extra: Optional[Dict[str, np.ndarray]],
                     *, copy: bool = False) -> Dict[str, np.ndarray]:
    """Flatten model state (+ extras) into the archive's key space."""
    payload: Dict[str, np.ndarray] = {"__step__": np.asarray(step)}
    for lname, pname, arr in model.parameters():
        payload[f"param/{lname}/{pname}"] = arr.copy() if copy else arr
    for spec in model.graph:
        module = model.modules[spec.name]
        for bname, arr in module.buffers.items():
            payload[f"buffer/{spec.name}/{bname}"] = (arr.copy() if copy
                                                      else arr)
    for key, val in (extra or {}).items():
        arr = np.asarray(val)
        payload[f"extra/{key}"] = arr.copy() if copy else arr
    return payload


def _write_payload(payload: Dict[str, np.ndarray], path: str) -> None:
    """Atomically write a digested archive to ``path``."""
    payload = dict(payload)
    payload[_DIGEST_KEY] = np.frombuffer(
        checkpoint_digest(payload).encode("ascii"), dtype=np.uint8).copy()
    tmp = f"{path}.tmp.npz"
    np.savez(tmp, **payload)
    os.replace(tmp, path)


def save_checkpoint(model: ExecutableModel, path: str, *,
                    step: int = 0,
                    extra: Optional[Dict[str, np.ndarray]] = None) -> None:
    """Write model parameters + buffers (+ optional extras) to ``path``.

    Args:
        model: the executable model whose state is captured.
        path: destination file (conventionally ``*.npz``); the write is
            atomic — a crash mid-write leaves any previous file intact.
        step: training step recorded alongside the state.
        extra: additional named arrays (host-optimizer slots, RNG state);
            restored by :func:`load_checkpoint_full`.
    """
    _write_payload(_collect_payload(model, step, extra), path)


def load_checkpoint_full(model: ExecutableModel, path: str
                         ) -> Tuple[int, Dict[str, np.ndarray]]:
    """Restore parameters/buffers in place; returns ``(step, extras)``.

    Verifies the archive's content digest before touching the model, so a
    corrupt file never leaves it half-restored.  Raises
    :class:`CheckpointCorruptError` for truncated/unreadable archives or
    digest mismatches, :class:`KeyError`/:class:`ValueError` for archives
    that are intact but belong to a different model.
    """
    try:
        with np.load(path) as data:
            entries = {key: data[key] for key in data.files}
    except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is unreadable (truncated or corrupt "
            f"archive): {exc}") from exc
    digest_arr = entries.pop(_DIGEST_KEY, None)
    if digest_arr is not None:
        stored = bytes(digest_arr.tobytes()).decode("ascii",
                                                    errors="replace")
        actual = checkpoint_digest(entries)
        if stored != actual:
            raise CheckpointCorruptError(
                f"checkpoint {path!r} failed its content digest "
                f"(stored {stored[:16]}..., computed {actual[:16]}...): "
                "the file was corrupted after writing")
    if "__step__" not in entries:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} has no __step__ entry: not a checkpoint "
            "archive")
    for lname, pname, arr in model.parameters():
        key = f"param/{lname}/{pname}"
        if key not in entries:
            raise KeyError(f"checkpoint missing {key!r}")
        if entries[key].shape != arr.shape:
            raise ValueError(f"shape mismatch for {key!r}: checkpoint "
                             f"{entries[key].shape} vs model {arr.shape}")
    for lname, pname, arr in model.parameters():
        arr[...] = entries[f"param/{lname}/{pname}"]
    for spec in model.graph:
        module = model.modules[spec.name]
        for bname, arr in module.buffers.items():
            key = f"buffer/{spec.name}/{bname}"
            if key in entries:
                arr[...] = entries[key]
    extras = {key[len("extra/"):]: val for key, val in entries.items()
              if key.startswith("extra/")}
    return int(entries["__step__"]), extras


def load_checkpoint(model: ExecutableModel, path: str) -> int:
    """Restore parameters/buffers in place; returns the saved step.

    Thin wrapper over :func:`load_checkpoint_full` for callers that do
    not carry extras (the seed API).
    """
    step, _ = load_checkpoint_full(model, path)
    return step


class _Pending:
    """One queued asynchronous write (payload already snapshotted)."""

    __slots__ = ("payload", "path", "step")

    def __init__(self, payload: Dict[str, np.ndarray], path: str,
                 step: int) -> None:
        self.payload = payload
        self.path = path
        self.step = step


class CheckpointManager:
    """Periodic, asynchronous, digest-verified checkpointing.

    The manager owns a directory of ``ckpt_<step>.npz`` archives.  On
    :meth:`save`, the model's arrays are *snapshotted synchronously* (so
    the archive is a consistent view of that step even while training
    mutates the live arrays) and written on a background thread; the
    caller only pays the copy.  ``keep`` bounds on-disk rotation and
    :attr:`last_good` always names the newest fully-written archive — the
    recovery controller restarts from it.

    Args:
        directory: checkpoint directory (created if missing).
        interval: :meth:`maybe_save` checkpoints every ``interval`` steps
            (``0`` disables periodic saves; explicit :meth:`save` always
            works).
        keep: archives retained on disk (older ones are unlinked).
        asynchronous: write on a background thread (default); ``False``
            writes inline, which tests use for determinism.
    """

    _STOP = object()

    def __init__(self, directory: str, *, interval: int = 0, keep: int = 2,
                 asynchronous: bool = True) -> None:
        if interval < 0:
            raise ValueError("interval must be >= 0")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.interval = interval
        self.keep = keep
        self.asynchronous = asynchronous
        self._history: List[Tuple[int, Path]] = []
        self._lock = threading.Lock()
        self._error: Optional[BaseException] = None
        self._closed = False
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        if asynchronous:
            self._thread = threading.Thread(target=self._writer,
                                            daemon=True,
                                            name="checkpoint-writer")
            self._thread.start()

    # -- saving ------------------------------------------------------------

    def path_for(self, step: int) -> Path:
        """The archive path used for ``step``."""
        return self.directory / f"ckpt_{step:08d}.npz"

    def maybe_save(self, model: ExecutableModel, step: int, *,
                   extra: Optional[Dict[str, np.ndarray]] = None
                   ) -> Optional[Path]:
        """Checkpoint when ``step`` hits the periodic interval.

        Returns the archive path when a save was scheduled, else None.
        """
        if self.interval and step > 0 and step % self.interval == 0:
            return self.save(model, step, extra=extra)
        return None

    def save(self, model: ExecutableModel, step: int, *,
             extra: Optional[Dict[str, np.ndarray]] = None) -> Path:
        """Snapshot the model now; write (possibly asynchronously).

        Raises any error a *previous* asynchronous write hit, so storage
        failures surface at the next checkpoint instead of silently
        dropping archives, and :class:`CheckpointClosedError` when an
        asynchronous manager is already closed.
        """
        self._raise_pending_error()
        payload = _collect_payload(model, step, extra, copy=True)
        path = self.path_for(step)
        if self.asynchronous:
            # check and enqueue under the lock close() takes, so no write
            # can land behind the writer's stop marker
            with self._lock:
                if self._closed:
                    raise CheckpointClosedError(
                        f"checkpoint manager for {self.directory} is "
                        f"closed; step {step} was not saved")
                self._queue.put(_Pending(payload, str(path), step))
        else:
            self._write(_Pending(payload, str(path), step))
        return path

    def wait(self) -> None:
        """Block until every queued write has landed; re-raise errors."""
        if self.asynchronous:
            self._queue.join()
        self._raise_pending_error()

    def close(self) -> None:
        """Finish pending writes and stop the writer thread.

        Idempotent and safe to call from several threads at once: the
        first caller queues the stop marker, and every caller returns
        only after the writer has drained the queue and exited.
        """
        with self._lock:
            first, self._closed = not self._closed, True
            if first and self._thread is not None:
                self._queue.put(self._STOP)
        if self._thread is not None:
            self._thread.join()
        self._raise_pending_error()

    def __enter__(self) -> "CheckpointManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- recovery side -----------------------------------------------------

    @property
    def last_good(self) -> Optional[Tuple[int, Path]]:
        """``(step, path)`` of the newest fully-written archive, if any."""
        with self._lock:
            return self._history[-1] if self._history else None

    def discover(self) -> Optional[Tuple[int, Path]]:
        """Scan the directory for the newest archive (cold restart).

        Seeds :attr:`last_good` from disk — a relaunched controller that
        did not write the archives itself still finds them.
        """
        best: Optional[Tuple[int, Path]] = None
        for path in sorted(self.directory.glob("ckpt_*.npz")):
            match = re.fullmatch(r"ckpt_(\d+)\.npz", path.name)
            if match is None:
                continue
            step = int(match.group(1))
            if best is None or step > best[0]:
                best = (step, path)
        if best is not None:
            with self._lock:
                if best not in self._history:
                    self._history.append(best)
                    self._history.sort()
        return best

    def restore_latest(self, model: ExecutableModel
                       ) -> Tuple[int, Dict[str, np.ndarray]]:
        """Load the newest archive into ``model``; returns (step, extras).

        Walks backwards through the retained archives: a corrupt newest
        file falls back to the previous one (counted in
        ``elastic.checkpoint_fallbacks``).  Raises
        :class:`CheckpointCorruptError` when none survive.
        """
        with self._lock:
            candidates = list(reversed(self._history))
        if not candidates:
            found = self.discover()
            candidates = [found] if found is not None else []
        last_error: Optional[BaseException] = None
        for step, path in candidates:
            try:
                loaded_step, extras = load_checkpoint_full(model, str(path))
                return loaded_step, extras
            except CheckpointCorruptError as exc:
                METRICS.counter("elastic.checkpoint_fallbacks").inc()
                last_error = exc
        from ..obs.flight import FLIGHT

        FLIGHT.dump("checkpoint_corrupt",
                    detail={"archives": len(candidates),
                            "error": str(last_error) if last_error else
                            "none were ever written"})
        raise CheckpointCorruptError(
            "no loadable checkpoint: "
            + (str(last_error) if last_error else "none were ever written"))

    # -- internals ---------------------------------------------------------

    def _raise_pending_error(self) -> None:
        with self._lock:
            err, self._error = self._error, None
        if err is not None:
            raise err

    def _write(self, pending: _Pending) -> None:
        t0 = time.perf_counter()
        _write_payload(pending.payload, pending.path)
        METRICS.counter("elastic.checkpoints_written").inc()
        METRICS.histogram("elastic.checkpoint_write_s").observe(
            time.perf_counter() - t0)
        METRICS.gauge("elastic.last_checkpoint_step").set(pending.step)
        with self._lock:
            self._history.append((pending.step, Path(pending.path)))
            self._history.sort()
            while len(self._history) > self.keep:
                _, old = self._history.pop(0)
                try:
                    old.unlink()
                except OSError:  # already gone: rotation is best-effort
                    pass

    def _writer(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is self._STOP:
                    return
                assert isinstance(item, _Pending)
                self._write(item)
            except BaseException as exc:  # noqa: BLE001 - surfaced on save
                with self._lock:
                    self._error = exc
            finally:
                self._queue.task_done()
