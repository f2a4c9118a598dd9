"""Append-only journal of completed CV folds.

The protocol entry points (:mod:`repro.eval.protocol`) journal every
finished fold as one JSON line; on restart the journal tells them which
folds are already done, so an interrupted 10-fold run re-computes only
the missing folds.  Because every fold runs from its own up-front
spawned seed, a journaled result is bitwise what a fresh run would have
produced — resuming changes nothing but wall clock.

Robustness properties:

* Each ``record`` is a single ``write`` of one line followed by flush +
  fsync, so a crash can tear at most the final line.
* ``load`` ignores a torn / unparsable trailing line (and any line whose
  fold index is malformed) instead of failing the resume.
* The journal is keyed by a *run fingerprint* directory (see
  ``protocol.py``): a journal can only ever be replayed into the exact
  dataset/protocol configuration that wrote it.

Float values survive the JSON round trip exactly (``repr`` ↔ parse is
lossless for IEEE doubles), which is what keeps resumed accuracies
bitwise-identical to uninterrupted runs.

**Claims** (:class:`FoldClaims`) extend the journal for *concurrent*
writers: the journal records what finished, claims arbitrate who may
run a fold in the first place.  A claim is a file published with an
atomic ``os.link`` — the filesystem's own mutual exclusion, safe across
unrelated processes and (on a shared filesystem) across hosts — holding
the owner id, pid, and a heartbeat timestamp the owner refreshes while
it works.  A claim
whose heartbeat has gone stale (owner died mid-fold) is *stolen* by
renaming it aside, and only by the one contender that wins an
``O_EXCL`` steal marker for that exact file generation, so even the
takeover is single-winner.  The dist coordinator claims a fold
before dispatching it and releases on completion; two coordinators (or
a coordinator and a straggler) can therefore never double-run a fold —
the exactly-once prerequisite.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.obs.events import jsonable

__all__ = ["FoldJournal", "FoldClaims", "DEFAULT_CLAIM_TTL_S"]

#: Heartbeat staleness (seconds) after which a claim may be stolen.
DEFAULT_CLAIM_TTL_S = 30.0


class FoldJournal:
    """One ``folds.jsonl`` file of ``{"fold": k, "result": {...}}`` lines."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    def load(self) -> dict[int, dict]:
        """Completed folds on disk: ``{fold_index: result_dict}``.

        Later lines for the same fold win (a retried fold re-journals);
        torn or malformed lines are skipped.
        """
        if not self.path.exists():
            return {}
        completed: dict[int, dict] = {}
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    fold = int(entry["fold"])
                    result = entry["result"]
                except (ValueError, KeyError, TypeError):
                    continue  # torn tail or foreign garbage: not fatal
                if isinstance(result, dict):
                    completed[fold] = result
        return completed

    def record(self, fold: int, result: dict) -> None:
        """Append one completed fold (single write + flush + fsync)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"fold": int(fold), "result": jsonable(result)})
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        obs.counter("folds_journaled_total").inc()

    def reset(self) -> None:
        """Forget any previous run (non-resume starts)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def claims(
        self, owner: str, ttl_s: float = DEFAULT_CLAIM_TTL_S
    ) -> "FoldClaims":
        """A :class:`FoldClaims` arbitrating this journal's folds."""
        return FoldClaims(self.path.parent / "claims", owner, ttl_s=ttl_s)

    def __repr__(self) -> str:
        return f"FoldJournal({self.path})"


class FoldClaims:
    """Exclusive, heartbeat-leased fold ownership via linked claim files.

    One file per fold under ``directory``; the fully-written body is
    published under the claim name with ``os.link`` — the atomic acquire
    (exactly one process can create the name, whatever host or process
    tree it belongs to, and the name never exists half-written).  The file body
    is JSON — ``{"owner", "pid", "ts"}`` — and the owner rewrites it
    (tmp + ``os.replace``, atomic for readers) as its heartbeat.  When a
    contender finds an existing claim that has been neither published
    nor heartbeated within ``ttl_s``, the owner is presumed dead: the
    contender that wins the steal marker for that claim file renames it
    to a unique tombstone and retries the acquire (see
    :meth:`_try_steal`).  A live owner's refresh keeps the claim fresh,
    so only actually-dead owners are ever evicted.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        owner: str,
        ttl_s: float = DEFAULT_CLAIM_TTL_S,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        self.directory = Path(directory)
        self.owner = str(owner)
        self.ttl_s = float(ttl_s)
        self._steals = 0

    def _path(self, fold: int) -> Path:
        return self.directory / f"fold-{int(fold):04d}.claim"

    def _body(self) -> bytes:
        return json.dumps(
            {"owner": self.owner, "pid": os.getpid(), "ts": time.time()}
        ).encode()

    # -- acquire ---------------------------------------------------------
    def claim(self, fold: int) -> bool:
        """Try to acquire ``fold``; True iff this owner now holds it.

        The body is written (and fsynced) to a hidden temp file first and
        the claim name is published with an atomic :func:`os.link`.  The
        name therefore never exists with a partial body — a contender that
        loses the race can't misread a mid-write claim as torn/stale and
        steal it back, which would mint two winners.
        """
        path = self._path(fold)
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".claim-")
        try:
            try:
                os.write(fd, self._body())
                os.fsync(fd)
            finally:
                os.close(fd)
            while True:
                try:
                    os.link(tmp, path)  # atomic: exactly one link wins
                except FileExistsError:
                    if not self._try_steal(fold):
                        obs.counter("fold_claims_contended_total").inc()
                        return False
                    continue  # stale claim evicted: retry the acquire
                obs.counter("fold_claims_acquired_total").inc()
                return True
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _try_steal(self, fold: int) -> bool:
        """Evict a stale claim; True iff the caller should retry claiming.

        A steal may only evict the *generation* it judged stale — the
        claim file's ``(inode, mtime)``, read from the same open file as
        the body.  Contenders that judged one generation stale race to
        create its steal marker with ``O_EXCL``; only the winner renames
        the claim aside.  Without the marker, a contender acting on an
        old read could rename away the fresh claim the winner had just
        linked, and both would then hold the fold.  The winner also
        checks that the tombstone is still the judged generation; if a
        newer claim slipped in, it is linked back and the steal
        abandoned.

        A claim is live while its heartbeat ``ts`` *or* its publication
        (the inode change time that ``os.link`` and the heartbeat's
        ``os.replace`` stamp) is within ``ttl_s``: the lease runs from
        when the claim appeared, not from when its body was written, so
        an owner delayed between writing and linking does not publish
        an already-expired claim.  An unreadable claim file (torn write)
        is treated as stale — its writer cannot be heartbeating it.
        """
        path = self._path(fold)
        claim = self._read_claim(fold)
        if claim is None:
            return True  # vanished (released/stolen) meanwhile: retry
        st, holder = claim
        ts = holder.get("ts")
        if isinstance(ts, (int, float)) and not self._expired(max(ts, st.st_ctime)):
            return False  # live heartbeat: respect the claim
        generation = (st.st_ino, st.st_mtime_ns)
        marker = path.with_suffix(".steal-{}-{}".format(*generation))
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            if self._marker_abandoned(marker):
                return True  # its stealer died mid-steal: retry afresh
            return False  # another contender is evicting this generation
        tombstone = path.with_suffix(f".stale-{os.getpid()}-{self._steals}")
        self._steals += 1
        try:
            os.rename(path, tombstone)
        except OSError:
            return True  # vanished meanwhile: retry acquire
        try:
            evicted = os.stat(tombstone)
            if (evicted.st_ino, evicted.st_mtime_ns) != generation:
                try:
                    os.link(tombstone, path)  # not ours to evict: restore
                except FileExistsError:
                    pass
                return False
        finally:
            try:
                os.unlink(tombstone)
            except OSError:
                pass
        obs.counter("fold_claims_stolen_total").inc()
        return True

    def _expired(self, stamp: float) -> bool:
        return time.time() - stamp > self.ttl_s

    def _marker_abandoned(self, marker: Path) -> bool:
        """Drop a steal marker older than the TTL (its stealer died)."""
        try:
            if not self._expired(os.stat(marker).st_mtime):
                return False
            os.unlink(marker)
        except OSError:
            pass  # removed meanwhile: the steal moved on
        return True

    # -- lease maintenance ----------------------------------------------
    def refresh(self, fold: int) -> None:
        """Re-stamp the heartbeat on a claim this owner holds."""
        path = self._path(fold)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".hb-")
        try:
            os.write(fd, self._body())
            os.fsync(fd)
        finally:
            os.close(fd)
        try:
            os.replace(tmp, path)  # atomic: readers see old or new, never torn
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def release(self, fold: int) -> None:
        """Drop a claim (done or abandoned); missing file is fine.

        Steal markers of the fold's earlier generations go with it.
        """
        path = self._path(fold)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        for marker in self.directory.glob(f"{path.stem}.steal-*"):
            try:
                os.unlink(marker)
            except OSError:
                pass

    # -- introspection ---------------------------------------------------
    def holder(self, fold: int) -> dict | None:
        """The claim body for ``fold``, or ``None`` if unclaimed.

        An unreadable/torn body reports as ``{"owner": None, "ts": None}``
        rather than raising — contenders treat it as stale.
        """
        claim = self._read_claim(fold)
        return None if claim is None else claim[1]

    def _read_claim(self, fold: int) -> tuple[os.stat_result, dict] | None:
        """``(stat, body)`` of the claim, both from one open file."""
        try:
            with open(self._path(fold), "rb") as fh:
                st = os.fstat(fh.fileno())
                raw = fh.read()
        except OSError:
            return None
        try:
            body = json.loads(raw)
            if not isinstance(body, dict):
                raise ValueError(body)
        except ValueError:
            body = {"owner": None, "pid": None, "ts": None}
        return st, body

    def __repr__(self) -> str:
        return f"FoldClaims({self.directory}, owner={self.owner!r})"
