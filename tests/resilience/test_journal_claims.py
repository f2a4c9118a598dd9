"""Fold claims: atomic mutual exclusion, heartbeats, stale-claim stealing.

The exactly-once prerequisite for distributed CV: two concurrent
coordinators (or a coordinator and a straggler) must never both run the
same fold.  The race tests use real separate processes synchronized on a
barrier, so the atomic link-publish acquire is exercised under genuine
concurrency.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.parallel import fork_available
from repro.resilience.journal import FoldClaims, FoldJournal

pytestmark = pytest.mark.dist

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


# ----------------------------------------------------------------------
# Single-process semantics
# ----------------------------------------------------------------------

def test_claim_release_cycle(tmp_path):
    claims = FoldClaims(tmp_path / "claims", owner="a")
    assert claims.claim(3) is True
    holder = claims.holder(3)
    assert holder["owner"] == "a"
    assert holder["pid"] == os.getpid()
    claims.release(3)
    assert claims.holder(3) is None
    assert claims.claim(3) is True  # reacquirable after release


def test_second_owner_is_refused_while_heartbeat_is_live(tmp_path):
    a = FoldClaims(tmp_path / "claims", owner="a", ttl_s=60.0)
    b = FoldClaims(tmp_path / "claims", owner="b", ttl_s=60.0)
    assert a.claim(0) is True
    assert b.claim(0) is False
    assert b.holder(0)["owner"] == "a"


def test_refresh_keeps_a_claim_alive(tmp_path):
    a = FoldClaims(tmp_path / "claims", owner="a", ttl_s=0.3)
    b = FoldClaims(tmp_path / "claims", owner="b", ttl_s=0.3)
    assert a.claim(0) is True
    for _ in range(3):
        time.sleep(0.15)
        a.refresh(0)
        assert b.claim(0) is False  # heartbeat stays fresh, no steal
    assert a.holder(0)["owner"] == "a"


def test_stale_claim_is_stolen(tmp_path):
    a = FoldClaims(tmp_path / "claims", owner="a", ttl_s=0.1)
    b = FoldClaims(tmp_path / "claims", owner="b", ttl_s=0.1)
    assert a.claim(0) is True
    time.sleep(0.25)  # let a's heartbeat go stale (a "died")
    assert b.claim(0) is True
    assert b.holder(0)["owner"] == "b"


def test_torn_claim_body_reads_as_stale(tmp_path):
    claims = FoldClaims(tmp_path / "claims", owner="b", ttl_s=60.0)
    path = tmp_path / "claims" / "fold-0000.claim"
    path.parent.mkdir(parents=True)
    path.write_bytes(b'{"owner": "a", "pi')  # torn mid-write
    assert claims.holder(0) == {"owner": None, "pid": None, "ts": None}
    assert claims.claim(0) is True  # unreadable = unheartbeatable = stealable


def test_release_is_idempotent(tmp_path):
    claims = FoldClaims(tmp_path / "claims", owner="a")
    claims.release(7)  # never claimed: no error
    assert claims.claim(7) is True
    claims.release(7)
    claims.release(7)


def test_journal_claims_share_the_run_directory(tmp_path):
    journal = FoldJournal(tmp_path / "runkey" / "folds.jsonl")
    claims = journal.claims(owner="coord")
    assert claims.claim(0) is True
    assert (tmp_path / "runkey" / "claims" / "fold-0000.claim").exists()


def test_invalid_ttl_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        FoldClaims(tmp_path, owner="a", ttl_s=0.0)


# ----------------------------------------------------------------------
# Steal generations (the interleavings, replayed deterministically)
# ----------------------------------------------------------------------

def _torn_claim(directory):
    """A claim file no heartbeat can vouch for: stale whatever the TTL."""
    path = directory / "fold-0000.claim"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b'{"owner": "dead", "pi')
    return path


def test_steal_acting_on_an_old_read_cannot_evict_the_new_claim(
    tmp_path, monkeypatch
):
    """B judges the dead claim stale; A steals it and links its own; B
    then acts on its old read.  B must lose, and A keep the fold."""
    directory = tmp_path / "claims"
    _torn_claim(directory)
    a = FoldClaims(directory, owner="a", ttl_s=60.0)
    b = FoldClaims(directory, owner="b", ttl_s=60.0)
    old_read = b._read_claim(0)
    assert a.claim(0) is True
    monkeypatch.setattr(b, "_read_claim", lambda fold: old_read)
    assert b._try_steal(0) is False
    assert a.holder(0)["owner"] == "a"


def test_steal_that_renamed_a_newer_claim_puts_it_back(tmp_path, monkeypatch):
    """With the marker gone, the tombstone check still catches it."""
    directory = tmp_path / "claims"
    path = _torn_claim(directory)
    a = FoldClaims(directory, owner="a", ttl_s=60.0)
    b = FoldClaims(directory, owner="b", ttl_s=60.0)
    old_read = b._read_claim(0)
    assert a.claim(0) is True
    for marker in directory.glob("fold-0000.steal-*"):
        marker.unlink()
    inode = os.stat(path).st_ino
    monkeypatch.setattr(b, "_read_claim", lambda fold: old_read)
    assert b._try_steal(0) is False
    assert os.stat(path).st_ino == inode
    assert a.holder(0)["owner"] == "a"
    assert not list(directory.glob("*.stale-*"))  # no tombstone left over


def test_abandoned_steal_marker_does_not_wedge_the_fold(tmp_path):
    directory = tmp_path / "claims"
    path = _torn_claim(directory)
    st = os.stat(path)
    marker = directory / f"fold-0000.steal-{st.st_ino}-{st.st_mtime_ns}"
    marker.touch()
    os.utime(marker, (0, 0))  # its stealer died long ago
    assert FoldClaims(directory, owner="b", ttl_s=60.0).claim(0) is True


def test_release_clears_steal_markers(tmp_path):
    directory = tmp_path / "claims"
    _torn_claim(directory)
    claims = FoldClaims(directory, owner="b", ttl_s=60.0)
    assert claims.claim(0) is True
    assert list(directory.glob("fold-0000.steal-*"))
    claims.release(0)
    assert sorted(p.name for p in directory.iterdir()) == []


def test_lease_runs_from_publication(tmp_path, monkeypatch):
    """An owner delayed between writing its body and linking it must not
    publish a claim that is already stealable."""
    a = FoldClaims(tmp_path / "claims", owner="a", ttl_s=5.0)
    b = FoldClaims(tmp_path / "claims", owner="b", ttl_s=5.0)
    monkeypatch.setattr(
        a,
        "_body",
        lambda: json.dumps(
            {"owner": "a", "pid": os.getpid(), "ts": time.time() - 60.0}
        ).encode(),
    )
    assert a.claim(0) is True
    assert b.claim(0) is False
    assert b.holder(0)["owner"] == "a"


# ----------------------------------------------------------------------
# Multi-process races
# ----------------------------------------------------------------------

def _race_acquire(directory, owner, barrier, fold, queue):
    claims = FoldClaims(directory, owner=owner, ttl_s=60.0)
    barrier.wait()  # all contenders hit O_CREAT|O_EXCL together
    queue.put((owner, claims.claim(fold)))


@needs_fork
@pytest.mark.slow
def test_exactly_one_process_wins_the_claim(tmp_path):
    """N processes race the same fold; exactly one acquire succeeds."""
    ctx = multiprocessing.get_context("fork")
    contenders = 4
    for fold in range(5):  # repeat: a race that passes once proves little
        barrier = ctx.Barrier(contenders)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_acquire,
                args=(tmp_path / "claims", f"owner-{i}", barrier, fold, queue),
            )
            for i in range(contenders)
        ]
        for p in procs:
            p.start()
        outcomes = [queue.get(timeout=30) for _ in procs]
        for p in procs:
            p.join(timeout=30)
        winners = [owner for owner, won in outcomes if won]
        assert len(winners) == 1, outcomes
        # The file on disk names exactly the winning owner.
        body = json.loads(
            (tmp_path / "claims" / f"fold-{fold:04d}.claim").read_text()
        )
        assert body["owner"] == winners[0]


def _race_steal(directory, owner, barrier, queue):
    claims = FoldClaims(directory, owner=owner, ttl_s=0.05)
    barrier.wait()
    queue.put((owner, claims.claim(0)))


@needs_fork
@pytest.mark.slow
def test_exactly_one_process_wins_a_steal(tmp_path):
    """Contenders racing to evict the same stale claim get one winner."""
    ctx = multiprocessing.get_context("fork")
    stale = FoldClaims(tmp_path / "claims", owner="dead", ttl_s=0.05)
    assert stale.claim(0) is True
    time.sleep(0.15)  # the "dead" owner stops heartbeating
    contenders = 4
    barrier = ctx.Barrier(contenders)
    queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_race_steal,
            args=(tmp_path / "claims", f"thief-{i}", barrier, queue),
        )
        for i in range(contenders)
    ]
    for p in procs:
        p.start()
    outcomes = [queue.get(timeout=30) for _ in procs]
    for p in procs:
        p.join(timeout=30)
    winners = [owner for owner, won in outcomes if won]
    assert len(winners) == 1, outcomes
    assert json.loads(
        (tmp_path / "claims" / "fold-0000.claim").read_text()
    )["owner"] == winners[0]
