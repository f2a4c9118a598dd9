"""Deterministic fault injection for the resilience test harness.

A *fault plan* is a comma-separated list of specs, each of the form::

    <mode>@<point>:<match>[x<fires>]

* ``mode`` — ``raise`` (raise :class:`InjectedFault`), ``kill``
  (``os._exit``: an abrupt, un-catchable process death), or ``corrupt``
  (the instrumented write point damages the artifact it just produced
  and carries on).
* ``point`` — the name of an injection point; the library currently
  instruments ``epoch`` (trainer epoch boundary), ``fold`` (inside a CV
  fold, i.e. mid-fold in a worker process), ``cache_write``
  (:meth:`repro.cache.FeatureMapCache.put`) and ``checkpoint_write``
  (:meth:`repro.resilience.checkpoint.CheckpointManager.save`).
* ``match`` — the integer coordinate at which to fire (epoch number,
  fold number, nth write — whatever the point reports).
* ``fires`` — how many times the spec triggers before it is spent
  (default 1, so an interrupted-and-resumed run does not die twice).

Plans come from :func:`install` (tests) or the ``REPRO_FAULTS``
environment variable (subprocess / CLI runs).  Because a ``kill`` fault
dies *inside a worker process*, the parent's in-memory spent count never
learns about it; set ``REPRO_FAULTS_STATE`` (or pass ``state_dir=``) to
a directory and fire counts are kept in marker files shared by every
process of the run — that is what makes "kill the worker once, then the
bounded retry succeeds" deterministic.

Injection points call :func:`check`; with no plan installed the call is
a dict lookup and an early return, so production runs pay nothing.

:class:`InjectedFault` deliberately subclasses :class:`BaseException`
(like ``KeyboardInterrupt``): the library's defensive ``except
Exception`` blocks — the cache's "never crash the run" writes, the
executor's traceback capture — must not swallow an injected fault, or
the harness could not prove those paths recover from a *real* crash.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FAULTS_ENV",
    "FAULTS_STATE_ENV",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "parse_plan",
    "install",
    "install_from_env",
    "clear",
    "active_plan",
    "check",
]

#: Environment variable carrying a fault plan (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: Environment variable naming a directory for cross-process fire counts.
FAULTS_STATE_ENV = "REPRO_FAULTS_STATE"

_MODES = ("raise", "kill", "corrupt")

#: Exit code used by ``kill`` faults, chosen to be recognisable in tests.
KILL_EXIT_CODE = 70


class InjectedFault(BaseException):
    """Raised by ``raise``-mode faults.

    A ``BaseException`` so that broad ``except Exception`` recovery code
    under test cannot accidentally absorb the injection itself.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``mode@point:match[xN]`` clause."""

    mode: str
    point: str
    match: int
    fires: int = 1

    @property
    def spec_id(self) -> str:
        """Stable identifier used for spent-marker files."""
        return f"{self.mode}@{self.point}:{self.match}x{self.fires}"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.spec_id


class FaultPlan:
    """A set of :class:`FaultSpec` with per-spec fire accounting.

    ``state_dir`` (optional) persists fire counts as one marker file per
    spec, each fire appending one byte, so counts survive process death
    and are visible across fork boundaries.
    """

    def __init__(
        self, specs: list[FaultSpec], state_dir: str | os.PathLike | None = None
    ) -> None:
        self.specs = list(specs)
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._memory_fires: dict[str, int] = {}
        self.by_point: dict[str, list[FaultSpec]] = {}
        for spec in self.specs:
            self.by_point.setdefault(spec.point, []).append(spec)

    # -- fire accounting ------------------------------------------------
    def _marker(self, spec: FaultSpec) -> Path:
        assert self.state_dir is not None
        return self.state_dir / f"{spec.spec_id}.fired"

    def fired(self, spec: FaultSpec) -> int:
        """How many times ``spec`` has triggered so far (all processes)."""
        if self.state_dir is not None:
            try:
                return self._marker(spec).stat().st_size
            except OSError:
                return 0
        return self._memory_fires.get(spec.spec_id, 0)

    def _record_fire(self, spec: FaultSpec) -> None:
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            # One appended byte per fire; append is atomic at this size
            # and the marker must hit the disk *before* the fault acts
            # (a kill fault never returns).
            with open(self._marker(spec), "ab") as fh:
                fh.write(b"x")
                fh.flush()
                os.fsync(fh.fileno())
        else:
            self._memory_fires[spec.spec_id] = self._memory_fires.get(spec.spec_id, 0) + 1

    # -- matching -------------------------------------------------------
    def trigger(self, point: str, index: int) -> str | None:
        """Fire the first live spec matching ``(point, index)``, if any.

        Returns the action the caller must take: ``None`` (nothing),
        ``"corrupt"`` (damage the artifact just written), or never — a
        ``raise`` spec raises :class:`InjectedFault` and a ``kill`` spec
        terminates the process.
        """
        for spec in self.by_point.get(point, ()):
            if spec.match != int(index) or self.fired(spec) >= spec.fires:
                continue
            self._record_fire(spec)
            _count_injection(point, spec.mode)
            if spec.mode == "raise":
                raise InjectedFault(f"injected fault {spec.spec_id} at {point}={index}")
            if spec.mode == "kill":
                os._exit(KILL_EXIT_CODE)
            return "corrupt"
        return None


def parse_plan(
    text: str, state_dir: str | os.PathLike | None = None
) -> FaultPlan:
    """Parse ``"kill@fold:2x3,raise@epoch:1"`` into a :class:`FaultPlan`."""
    specs: list[FaultSpec] = []
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        try:
            mode, rest = clause.split("@", 1)
            point, coord = rest.split(":", 1)
            if "x" in coord:
                match_s, fires_s = coord.split("x", 1)
                match, fires = int(match_s), int(fires_s)
            else:
                match, fires = int(coord), 1
        except ValueError:
            raise ValueError(
                f"bad fault spec {clause!r}; expected mode@point:match[xN]"
            ) from None
        mode = mode.strip().lower()
        if mode not in _MODES:
            raise ValueError(f"unknown fault mode {mode!r}; choose from {_MODES}")
        if fires < 1:
            raise ValueError(f"fault fire count must be >= 1, got {fires}")
        specs.append(FaultSpec(mode=mode, point=point.strip(), match=match, fires=fires))
    return FaultPlan(specs, state_dir=state_dir)


# ----------------------------------------------------------------------
# Process-wide plan
# ----------------------------------------------------------------------

_plan: FaultPlan | None = None
_env_loaded = False


def install(
    plan: FaultPlan | str, state_dir: str | os.PathLike | None = None
) -> FaultPlan:
    """Install ``plan`` (a :class:`FaultPlan` or spec string) process-wide."""
    global _plan, _env_loaded
    if isinstance(plan, str):
        plan = parse_plan(plan, state_dir=state_dir)
    elif state_dir is not None:
        plan.state_dir = Path(state_dir)
    _plan = plan
    _env_loaded = True  # an explicit install wins over the environment
    return plan


def install_from_env() -> FaultPlan | None:
    """(Re)load the plan from ``REPRO_FAULTS`` / ``REPRO_FAULTS_STATE``."""
    global _plan, _env_loaded
    _env_loaded = True
    text = os.environ.get(FAULTS_ENV, "").strip()
    if not text:
        _plan = None
        return None
    state = os.environ.get(FAULTS_STATE_ENV, "").strip() or None
    _plan = parse_plan(text, state_dir=state)
    return _plan


def clear() -> None:
    """Remove any installed plan (tests)."""
    global _plan, _env_loaded
    _plan = None
    _env_loaded = False


def active_plan() -> FaultPlan | None:
    """The currently installed plan (loading the env on first use)."""
    global _env_loaded
    if not _env_loaded:
        install_from_env()
    return _plan


def check(point: str, index: int) -> str | None:
    """Injection-point hook: fire any live fault matching ``(point, index)``.

    Returns ``"corrupt"`` when the caller should damage the artifact it
    just wrote, ``None`` otherwise.  ``raise`` faults raise and ``kill``
    faults never return.  With no plan installed this is a near-free
    early return, safe to call on hot paths.
    """
    plan = active_plan()
    if plan is None or point not in plan.by_point:
        return None
    return plan.trigger(point, index)


def _count_injection(point: str, mode: str) -> None:
    from repro import obs

    obs.counter("faults_injected_total").inc()
    obs.event("fault_injected", point=point, mode=mode)
