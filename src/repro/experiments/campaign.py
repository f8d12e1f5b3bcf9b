"""Crash-safe campaign engine: journaled, fault-tolerant trial execution.

The paper's methodology (Section V-B) and the reliability campaigns turn
every question into a large sweep -- 30 seeds x schedulers x a parameter
grid -- and the execution layer must survive the sweep's own weather: a
pool worker killed by the OS, a trial that raises, a trial that hangs, a
driver interrupted halfway through a multi-hour campaign.  The bare
``pool.map`` the experiments used to run on loses the whole batch to any
of those; this module replaces it with a :class:`CampaignEngine` that
treats each trial as an individually tracked unit of work:

* **Per-trial futures, bounded retries, backoff.**  Each trial is
  dispatched to a dedicated worker process over its own pipe, so the
  engine always knows *which* trial a dead worker was running.  A worker
  killed by the OS (``kill -9``, OOM) or a trial exceeding its wall-clock
  ``trial_timeout`` costs one attempt and a requeue with exponential
  backoff -- never the batch.  A trial that exhausts its budget becomes a
  **typed failed-trial row** (:class:`TrialFailure`): ``failed`` when the
  trial itself raised, ``quarantined`` when it repeatedly killed or hung
  workers (the trial is suspect, not the fleet).
* **Write-ahead journal.**  With a ``journal_path``, every terminal trial
  outcome is appended to a JSONL journal before it is reported: an
  fsynced, self-verifying line carrying the trial's canonical spec hash
  and the sha256 of its canonical payload JSON.  A crash can tear at most
  the final line (which resume detects and ignores); every earlier line
  replays.  Re-running over an existing journal skips finished trials, so
  an interrupted-then-resumed campaign produces a report bit-identical to
  an uninterrupted one -- fresh payloads are normalised through the same
  canonical JSON round-trip that journal replay performs.
* **Checkpointing interrupts.**  SIGINT/SIGTERM stop dispatch, drain the
  trials already in flight, journal them, and raise
  :class:`CampaignInterrupted`; the CLI maps that to exit code 5.  A
  second signal aborts hard.
* **Result cache.**  With a :class:`~repro.experiments.cache.ResultCache`,
  finished trials are stored content-addressed by (canonical spec hash,
  code version) with sha256 payload verification; a later campaign
  containing the same trial gets it for free, and a corrupted entry is
  quarantined and recomputed, never deserialised into a report.

Journaling and caching require the runner's payload to be canonical-JSON
serialisable (digest/telemetry runners are; raw
:class:`~repro.mapreduce.metrics.SimulationResult` runners are not --
those still get worker fault tolerance, just not persistence).

On top of the engine sits the campaign spine every multi-trial report is
built from (DESIGN.md section 14.4): one trial payload
(:func:`trial_telemetry`), one grid-order merge (:func:`merge_trials`), one
report envelope (:func:`run_grid`).  The ``repro campaign`` sweep is its
plainest user: a :class:`SweepSpec` (base config x schedulers x seeds,
schema ``repro.campaign/v1``) run by :func:`run_sweep` into a
``repro.campaign-report/v1`` document; the tournament and reliability
Phase B add their own columns to the same rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.core.scheduler import POLICIES
from repro.experiments.cache import (
    ResultCache,
    canonical_json,
    code_version,
    payload_sha256,
)
from repro.faults.errors import JobFailedError
from repro.mapreduce.config import SimulationConfig
from repro.mapreduce.serialization import config_from_dict, config_to_dict
from repro.mapreduce.simulation import check_requested, run_simulation
from repro.obs.digest import LatencyDigest

#: Schema tags for the journal lines, the sweep spec, and the sweep report.
JOURNAL_SCHEMA = "repro.campaign-journal/v1"
SPEC_SCHEMA = "repro.campaign/v1"
REPORT_SCHEMA = "repro.campaign-report/v1"

#: How long (seconds) shutdown waits for a worker to exit before killing it.
_SHUTDOWN_GRACE = 2.0

#: Driver poll interval (seconds) while waiting for worker results.
_POLL = 0.05


class CampaignError(RuntimeError):
    """Base class for campaign-engine failures."""


class CampaignInterrupted(CampaignError):
    """The campaign checkpointed and stopped on SIGINT/SIGTERM.

    In-flight trials were drained and journaled first; ``remaining`` is
    the number of submitted trials with no terminal outcome yet.  Resume
    with the same journal to pick up exactly where this run stopped.
    """

    def __init__(self, remaining: int, counters: "CampaignCounters") -> None:
        super().__init__(
            f"campaign interrupted: {counters.done} trial(s) journaled, "
            f"{remaining} remaining"
        )
        self.remaining = remaining
        self.counters = counters


class CampaignTrialError(CampaignError):
    """A trial exhausted its retry budget (raise-mode terminal failure)."""

    def __init__(self, failure: "TrialFailure") -> None:
        super().__init__(
            f"trial {failure.index} {failure.status} after "
            f"{failure.attempts} attempt(s) [{failure.kind}]: {failure.message}"
        )
        self.failure = failure


class CampaignPayloadError(CampaignError):
    """A journaled/cached campaign got a non-JSON-serialisable payload."""


class StaleJournalError(CampaignError):
    """A journal written by another code version was opened to append to.

    Its rows can never be replayed by this code, and rows appended under
    its header could never be replayed by any, so the journal is refused.
    """


@dataclass(frozen=True)
class CampaignPolicy:
    """Execution policy: retries, timeouts, backoff, pool width.

    ``retries`` counts re-attempts after the first try (so a trial runs at
    most ``retries + 1`` times).  ``trial_timeout`` is wall-clock seconds
    per attempt; exceeding it kills the worker (enforced only in the
    process-pool path -- a serial in-process trial cannot be preempted).
    ``on_error`` selects what a trial-raised exception does: ``"raise"``
    propagates it immediately (the historical ``run_many`` contract, which
    the sanitizer's :class:`~repro.check.InvariantViolationError` relies
    on); ``"collect"`` retries it like a lost worker and records a typed
    :class:`TrialFailure` row when the budget runs out.
    """

    retries: int = 2
    trial_timeout: float | None = None
    backoff: float = 0.5
    workers: int | None = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ValueError(
                f"trial_timeout must be positive, got {self.trial_timeout}"
            )
        if self.backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {self.backoff}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.on_error not in ("raise", "collect"):
            raise ValueError(
                f"on_error must be 'raise' or 'collect', got {self.on_error!r}"
            )


@dataclass(frozen=True)
class TrialFailure:
    """The typed terminal record of a trial that never produced a result."""

    index: int
    spec: str
    #: What went wrong on the last attempt: ``error`` (the trial raised),
    #: ``worker-lost`` (the worker process died), or ``timeout``.
    kind: str
    #: ``failed`` for trial-raised errors, ``quarantined`` for trials that
    #: repeatedly killed or hung workers.
    status: str
    attempts: int
    message: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "spec": self.spec,
            "kind": self.kind,
            "status": self.status,
            "attempts": self.attempts,
            "message": self.message,
        }


@dataclass
class CampaignCounters:
    """Complete accounting of one engine run.

    The engine guarantees ``done + failed + quarantined == submitted`` on
    normal completion (:meth:`consistent`); an interrupted run leaves the
    difference as the remaining work.  ``cached`` and ``replayed`` are
    subsets of ``done`` (cache hits and journal replays); ``retried``
    counts requeues.
    """

    submitted: int = 0
    done: int = 0
    cached: int = 0
    replayed: int = 0
    failed: int = 0
    quarantined: int = 0
    retried: int = 0

    def consistent(self) -> bool:
        return self.done + self.failed + self.quarantined == self.submitted

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "done": self.done,
            "cached": self.cached,
            "replayed": self.replayed,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "retried": self.retried,
        }


@dataclass
class CampaignOutcome:
    """What :meth:`CampaignEngine.run` returns.

    ``results`` is aligned with the submitted configs; a trial with a
    terminal failure holds ``None`` and has a row in ``failures``.
    """

    results: list
    failures: list[TrialFailure]
    counters: CampaignCounters


# -- trial spec hashing -------------------------------------------------------


def runner_spec(runner) -> object:
    """A canonical, JSON-safe description of a trial runner.

    Module-level callables are named by ``module.qualname``; dataclass
    wrapper runners (e.g. :class:`~repro.check.fuzz.FaultyRunner`)
    contribute their class name plus their fields, recursing into callable
    fields.
    """
    if dataclasses.is_dataclass(runner) and not isinstance(runner, type):
        spec: dict = {"kind": _qualname(type(runner))}
        for fld in dataclasses.fields(runner):
            value = getattr(runner, fld.name)
            spec[fld.name] = runner_spec(value) if callable(value) else value
        return spec
    return _qualname(runner)


def _qualname(obj) -> str:
    return f"{getattr(obj, '__module__', '?')}.{getattr(obj, '__qualname__', repr(obj))}"


def trial_spec_hash(config: SimulationConfig, runner) -> str:
    """The canonical content hash of one (config, runner) trial.

    Check mode (:func:`~repro.mapreduce.simulation.check_requested`) is
    part of the spec when on, so a journal row or cache entry computed
    unchecked never stands in for a sanitized trial; unchecked trials hash
    as if the field did not exist.
    """
    spec = {"config": config_to_dict(config), "runner": runner_spec(runner)}
    if check_requested():
        spec["check"] = True
    return hashlib.sha256(canonical_json(spec).encode()).hexdigest()


# -- the write-ahead journal --------------------------------------------------


@dataclass
class JournalState:
    """What a journal replay recovered: verified done/terminal rows."""

    #: spec hash -> verified record (last occurrence wins).
    records: dict[str, dict] = field(default_factory=dict)
    #: Unparseable or integrity-failing lines, skipped (their trials rerun).
    corrupt_lines: int = 0
    #: Whether a valid header for the current code version was seen.
    valid: bool = False
    #: Code version named by a header from another version, if any.
    written_by: str | None = None
    #: Rows journaled by that other version: ignored, but not corrupt.
    stale_lines: int = 0


class Journal:
    """Append-only JSONL write-ahead log of terminal trial outcomes.

    Appends are flushed and fsynced line by line, so a crash tears at most
    the final line; :meth:`load` skips any line that fails to parse or
    whose ``payload_sha256`` does not verify, and the affected trials are
    simply recomputed.  The first line is a header binding the journal to
    the code version (:func:`~repro.experiments.cache.code_version`);
    :meth:`load` ignores rows journaled by a different version wholesale
    (results are a function of code version too), and opening such a
    journal to append to raises :class:`StaleJournalError`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        if not fresh:
            self._refuse_other_version(path)
        self._handle = open(path, "a")
        if fresh:
            self._append(
                {
                    "kind": "header",
                    "schema": JOURNAL_SCHEMA,
                    "code_version": code_version(),
                }
            )

    @staticmethod
    def _refuse_other_version(path: str) -> None:
        with open(path) as handle:
            first = handle.readline()
        try:
            header = json.loads(first)
        except ValueError:
            return  # a torn header: load() already skips what follows it
        if not isinstance(header, dict) or header.get("kind") != "header":
            return
        written_by = header.get("code_version")
        if written_by != code_version():
            raise StaleJournalError(
                f"journal {path} was written by code version {written_by}, "
                f"but this is code version {code_version()}: its trials cannot "
                "be replayed, so finish it with the code that wrote it or "
                "start a new journal"
            )

    def _append(self, record: dict) -> None:
        self._handle.write(canonical_json(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_done(self, spec: str, attempts: int, payload) -> None:
        self._append(
            {
                "kind": "trial",
                "spec": spec,
                "status": "done",
                "attempts": attempts,
                "payload_sha256": payload_sha256(payload),
                "payload": payload,
            }
        )

    def append_failure(self, failure: TrialFailure) -> None:
        self._append(
            {
                "kind": "trial",
                "spec": failure.spec,
                "status": failure.status,
                "attempts": failure.attempts,
                "failure": {"kind": failure.kind, "message": failure.message},
            }
        )

    def close(self) -> None:
        self._handle.close()

    @staticmethod
    def load(path: str) -> JournalState:
        """Replay a journal from disk, verifying every line."""
        state = JournalState()
        try:
            with open(path) as handle:
                lines = handle.read().splitlines()
        except OSError:
            return state
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                state.corrupt_lines += 1
                continue
            if not isinstance(record, dict):
                state.corrupt_lines += 1
                continue
            if record.get("kind") == "header":
                written_by = record.get("code_version")
                state.valid = (
                    record.get("schema") == JOURNAL_SCHEMA
                    and written_by == code_version()
                )
                state.written_by = None if written_by == code_version() else written_by
                continue
            if not state.valid or record.get("kind") != "trial":
                if state.written_by is not None:
                    state.stale_lines += 1
                else:
                    state.corrupt_lines += 1
                continue
            spec = record.get("spec")
            status = record.get("status")
            if not isinstance(spec, str) or status not in (
                "done",
                "failed",
                "quarantined",
            ):
                state.corrupt_lines += 1
                continue
            if status == "done":
                try:
                    digest = payload_sha256(record["payload"])
                except (KeyError, TypeError, ValueError):
                    state.corrupt_lines += 1
                    continue
                if digest != record.get("payload_sha256"):
                    state.corrupt_lines += 1
                    continue
            state.records[spec] = record
        return state


def journal_status(path: str) -> dict:
    """Summarise a journal for ``repro campaign status``.

    A journal written by another code version is reported ``stale``, naming
    that version (``written_by``) and counting its rows as ``stale_lines``:
    they are intact, just not replayable by this code.
    """
    state = Journal.load(path)
    by_status: dict[str, int] = {"done": 0, "failed": 0, "quarantined": 0}
    for record in state.records.values():
        by_status[record["status"]] += 1
    status = {
        "path": path,
        "trials": len(state.records),
        "corrupt_lines": state.corrupt_lines,
        "stale": state.written_by is not None,
        **by_status,
    }
    if state.written_by is not None:
        status["written_by"] = state.written_by
        status["stale_lines"] = state.stale_lines
    return status


# -- worker pool plumbing -----------------------------------------------------


def _worker_main(conn, runner) -> None:
    """One pool worker: receive (index, config), ship back pickled outcomes.

    Workers ignore SIGINT/SIGTERM -- checkpointing is the driver's job; a
    worker only dies when killed outright (which the driver detects) or
    told to stop.  Results travel back over the worker's **own** duplex
    pipe, never a shared queue: a shared ``multiprocessing.Queue`` has a
    cross-process feeder lock, and SIGKILLing a worker whose feeder thread
    holds it deadlocks every other worker's ``put`` -- with per-worker
    pipes a killed worker tears only its own channel, which the driver's
    liveness sweep already treats as worker loss.  ``Pipe.send`` pickles
    in the calling thread, so an unpicklable payload is caught here and
    reported as a typed error instead of silently hanging the trial.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, config = message
        try:
            value = runner(config)
            status = "ok"
        except BaseException as error:  # noqa: BLE001 -- everything is data here
            value = error
            status = "error"
        try:
            conn.send((index, status, value))
        except (BrokenPipeError, OSError):
            return
        except Exception as error:
            try:
                conn.send(
                    (
                        index,
                        "error",
                        CampaignPayloadError(
                            f"trial {index} produced an unpicklable {status} "
                            f"payload: {error}"
                        ),
                    )
                )
            except (BrokenPipeError, OSError):
                return


class _Worker:
    """Driver-side handle: the process, its pipe, and its current trial."""

    __slots__ = ("process", "conn", "index", "started_at")

    def __init__(self, context, runner) -> None:
        parent_conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, runner),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.index: int | None = None
        self.started_at = 0.0

    @property
    def idle(self) -> bool:
        return self.index is None

    def assign(self, index: int, config) -> bool:
        """Dispatch a trial; False when the worker is already dead."""
        try:
            self.conn.send((index, config))
        except (BrokenPipeError, OSError):
            return False
        self.index = index
        self.started_at = time.monotonic()
        return True

    def stop(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.process.join(timeout=_SHUTDOWN_GRACE)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.process.close()

    def kill(self) -> None:
        self.process.kill()
        self.process.join()
        self.process.close()
        self.conn.close()


# -- the engine ---------------------------------------------------------------


class CampaignEngine:
    """Fault-tolerant executor for a batch of independent trials.

    One engine instance runs one batch (:meth:`run` is not reentrant).
    Construction wires the policy, the optional write-ahead journal, and
    the optional verified result cache; ``run`` executes the batch with
    per-trial retries/timeouts/quarantine and full accounting.
    """

    def __init__(
        self,
        runner=run_simulation,
        policy: CampaignPolicy | None = None,
        journal_path: str | None = None,
        cache: ResultCache | None = None,
        progress=None,
    ) -> None:
        self.runner = runner
        self.policy = policy if policy is not None else CampaignPolicy()
        self.journal_path = journal_path
        self.cache = cache
        self.progress = progress
        self.counters = CampaignCounters()
        self._persistent = journal_path is not None or cache is not None
        self._stop_requested = False
        self._journal: Journal | None = None

    # -- public control ------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the engine to checkpoint and stop (what SIGINT triggers)."""
        self._stop_requested = True

    # -- helpers -------------------------------------------------------------

    def _normalize(self, index: int, payload):
        """Canonical-JSON round-trip for persisted payloads.

        This is what makes resumed and fresh trials indistinguishable: a
        fresh payload passes through exactly the encode/decode a journal
        replay performs, so reports built from either are bit-identical.
        """
        if not self._persistent:
            return payload
        try:
            return json.loads(canonical_json(payload))
        except (TypeError, ValueError) as error:
            raise CampaignPayloadError(
                f"trial {index}: runner {_qualname(self.runner)} returned a "
                f"payload that is not canonical-JSON-serialisable ({error}); "
                "journaling/caching requires a digesting runner"
            ) from None

    def _record_done(
        self, index: int, spec: str | None, payload, attempts: int, *, how: str
    ) -> None:
        self.counters.done += 1
        if how == "cached":
            self.counters.cached += 1
        elif how == "replayed":
            self.counters.replayed += 1
        if spec is not None and how != "replayed" and self._journal is not None:
            self._journal.append_done(spec, attempts, payload)
        if spec is not None and how == "fresh" and self.cache is not None:
            self.cache.put(self.cache.key_for(spec), payload)
        if self.progress is not None:
            self.progress(index, "done", attempts)

    def _record_failure(self, failure: TrialFailure) -> None:
        if failure.status == "quarantined":
            self.counters.quarantined += 1
        else:
            self.counters.failed += 1
        if self._journal is not None:
            self._journal.append_failure(failure)
        if self.progress is not None:
            self.progress(failure.index, failure.status, failure.attempts)

    def _terminal_failure(
        self, index: int, spec: str | None, kind: str, attempts: int, message: str
    ) -> TrialFailure:
        status = "failed" if kind == "error" else "quarantined"
        return TrialFailure(
            index=index,
            spec=spec or "",
            kind=kind,
            status=status,
            attempts=attempts,
            message=message,
        )

    def _backoff_delay(self, attempts: int) -> float:
        return self.policy.backoff * (2.0 ** max(0, attempts - 1))

    # -- the run loop --------------------------------------------------------

    def run(self, configs: list[SimulationConfig]) -> CampaignOutcome:
        """Execute the batch; see the module docstring for the contract."""
        self.counters = CampaignCounters(submitted=len(configs))
        results: list = [None] * len(configs)
        failures: list[TrialFailure] = []
        specs: list[str | None] = [None] * len(configs)
        pending: list[int] = []

        replayed = (
            Journal.load(self.journal_path)
            if self.journal_path is not None and os.path.exists(self.journal_path)
            else JournalState()
        )
        if self.journal_path is not None:
            self._journal = Journal(self.journal_path)
        try:
            for index, config in enumerate(configs):
                if self._persistent:
                    specs[index] = trial_spec_hash(config, self.runner)
                record = replayed.records.get(specs[index]) if specs[index] else None
                if record is not None and record["status"] == "done":
                    results[index] = record["payload"]
                    self._record_done(
                        index,
                        specs[index],
                        record["payload"],
                        record.get("attempts", 1),
                        how="replayed",
                    )
                    continue
                if self.cache is not None:
                    payload = self.cache.get(self.cache.key_for(specs[index]))
                    if payload is not None:
                        results[index] = payload
                        self._record_done(
                            index, specs[index], payload, 1, how="cached"
                        )
                        continue
                pending.append(index)

            workers = self.policy.workers or _default_workers()
            previous_handlers = self._install_signal_handlers()
            try:
                if len(pending) <= 2 or workers == 1:
                    self._run_serial(configs, specs, pending, results, failures)
                elif pending:
                    self._run_pool(
                        configs, specs, pending, results, failures, workers
                    )
            finally:
                self._restore_signal_handlers(previous_handlers)
        finally:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

        failures.sort(key=lambda failure: failure.index)
        return CampaignOutcome(
            results=results, failures=failures, counters=self.counters
        )

    # -- signals -------------------------------------------------------------

    def _install_signal_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, self._on_signal)
        return previous

    def _restore_signal_handlers(self, previous) -> None:
        if previous is None:
            return
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    def _on_signal(self, signum, frame) -> None:
        if self._stop_requested:
            # A second signal means "now": abort without draining.
            raise KeyboardInterrupt
        self.request_stop()

    # -- serial execution ----------------------------------------------------

    def _run_serial(self, configs, specs, pending, results, failures) -> None:
        """In-process execution (small batches / one worker).

        No subprocesses means no worker-loss or timeout enforcement --
        trials run to completion -- but retries for raised trials (collect
        mode), journaling, caching, and checkpointed interrupts all behave
        identically to the pool path.
        """
        interrupted_at: int | None = None
        for position, index in enumerate(pending):
            if self._stop_requested:
                interrupted_at = position
                break
            attempts = 0
            while True:
                attempts += 1
                try:
                    payload = self.runner(configs[index])
                except Exception as error:
                    if self.policy.on_error == "raise":
                        raise
                    if attempts <= self.policy.retries:
                        self.counters.retried += 1
                        continue
                    failure = self._terminal_failure(
                        index, specs[index], "error", attempts, repr(error)
                    )
                    failures.append(failure)
                    self._record_failure(failure)
                    break
                payload = self._normalize(index, payload)
                results[index] = payload
                self._record_done(index, specs[index], payload, attempts, how="fresh")
                break
        if interrupted_at is not None:
            raise CampaignInterrupted(
                len(pending) - interrupted_at, self.counters
            )
        if self._stop_requested:
            raise CampaignInterrupted(0, self.counters)

    # -- pooled execution ----------------------------------------------------

    def _run_pool(self, configs, specs, pending, results, failures, workers) -> None:
        """Process-pool execution with per-trial tracking.

        Each worker owns a pipe and runs one trial at a time, so worker
        death and per-trial deadlines map unambiguously onto trials.  The
        dispatch queue is ordered (index, then backoff eligibility); a
        retried trial re-enters it with exponential backoff.
        """
        import multiprocessing
        from multiprocessing.connection import wait as wait_ready

        context = multiprocessing.get_context()
        attempts: dict[int, int] = {index: 0 for index in pending}
        # (eligible_at, index): dispatch lowest index among the eligible.
        todo: list[tuple[float, int]] = [(0.0, index) for index in pending]
        unresolved = set(pending)
        pool: list[_Worker] = []
        raised: BaseException | None = None

        def resolve_done(index: int, payload) -> None:
            payload = self._normalize(index, payload)
            results[index] = payload
            unresolved.discard(index)
            self._record_done(
                index, specs[index], payload, attempts[index], how="fresh"
            )

        def resolve_attempt_failure(index: int, kind: str, message: str, error=None):
            """Retry or terminally fail one attempt; returns an exception
            to raise (raise-mode) or None."""
            if kind == "error" and self.policy.on_error == "raise":
                unresolved.discard(index)
                return error if error is not None else CampaignError(message)
            if attempts[index] <= self.policy.retries and not self._stop_requested:
                self.counters.retried += 1
                todo.append(
                    (
                        time.monotonic() + self._backoff_delay(attempts[index]),
                        index,
                    )
                )
                return None
            failure = self._terminal_failure(
                index, specs[index], kind, attempts[index], message
            )
            unresolved.discard(index)
            if self.policy.on_error == "raise":
                return CampaignTrialError(failure)
            failures.append(failure)
            self._record_failure(failure)
            return None

        def dispatch() -> None:
            if self._stop_requested or raised is not None:
                return
            now = time.monotonic()
            for worker in pool:
                if not worker.idle:
                    continue
                todo.sort()
                chosen = None
                for position, (eligible_at, index) in enumerate(todo):
                    if eligible_at <= now:
                        chosen = position
                        break
                if chosen is None:
                    return
                _eligible_at, index = todo.pop(chosen)
                attempts[index] += 1
                if not worker.assign(index, configs[index]):
                    # Dead before dispatch: requeue the trial un-charged,
                    # the liveness sweep below replaces the worker.
                    attempts[index] -= 1
                    todo.append((0.0, index))

        def in_flight() -> list[int]:
            return [worker.index for worker in pool if worker.index is not None]

        try:
            for _ in range(min(workers, len(pending))):
                pool.append(_Worker(context, self.runner))

            while unresolved and raised is None:
                if self._stop_requested and not in_flight():
                    break
                dispatch()
                busy = {worker.conn: worker for worker in pool if not worker.idle}
                got_result = False
                for conn in wait_ready(list(busy), timeout=_POLL):
                    worker = busy[conn]
                    try:
                        index, status, value = conn.recv()
                    except (EOFError, OSError):
                        # Torn pipe: the worker died; the liveness sweep
                        # below charges the trial and replaces the worker.
                        continue
                    got_result = True
                    if worker.index == index:
                        worker.index = None
                    if index in unresolved:
                        if status == "ok":
                            resolve_done(index, value)
                        elif isinstance(value, CampaignPayloadError):
                            raised = value
                            unresolved.discard(index)
                        else:
                            raised = resolve_attempt_failure(
                                index,
                                "error",
                                repr(value),
                                error=value,
                            )
                if got_result:
                    continue

                now = time.monotonic()
                for position, worker in enumerate(pool):
                    if (
                        worker.index is not None
                        and self.policy.trial_timeout is not None
                        and now - worker.started_at > self.policy.trial_timeout
                    ):
                        index = worker.index
                        worker.kill()
                        pool[position] = _Worker(context, self.runner)
                        raised = raised or resolve_attempt_failure(
                            index,
                            "timeout",
                            f"trial exceeded --trial-timeout "
                            f"{self.policy.trial_timeout:g}s",
                        )
                    elif not worker.process.is_alive():
                        index = worker.index
                        worker.kill()
                        pool[position] = _Worker(context, self.runner)
                        if index is not None:
                            raised = raised or resolve_attempt_failure(
                                index,
                                "worker-lost",
                                "worker process died mid-trial "
                                "(killed or crashed)",
                            )
        finally:
            for worker in pool:
                worker.stop()

        if raised is not None:
            raise raised
        if self._stop_requested and unresolved:
            raise CampaignInterrupted(len(unresolved), self.counters)
        if self._stop_requested:
            raise CampaignInterrupted(0, self.counters)


def _default_workers() -> int:
    from repro.experiments.common import max_workers

    return max_workers()


# -- the campaign spine: trial payload, grid-order merge, report envelope ------
#
# Every multi-trial unit (the ``repro campaign`` sweep, the tournament,
# reliability Phase B) is the paper's Section V-B shape: a grid of seeded
# trials reduced to one row per policy.  The pieces below are that shape,
# once; the three reports add only their own columns.


def run_or_partial(config: SimulationConfig):
    """Run one trial; a failed job is an observation, not a crash.

    A :class:`JobFailedError` (retry budget, data unavailable) yields its
    partial result -- ``None`` when the trial refused at build time because
    a stripe was already unrecoverable.  Invariant violations propagate.
    """
    try:
        return run_simulation(config)
    except JobFailedError as error:
        return error.result


def trial_telemetry(result) -> dict:
    """One trial folded into O(1)-size JSON: job counters plus digests.

    Pool workers ship this instead of the task trace, so memory and pipe
    traffic per trial are constant, and the payload can be journaled and
    cached.
    """
    import math

    # Looked up at call time: the e2e tracer rebinds ``digest_result``.
    from repro.obs.digest import digest_result

    failed = sum(
        1 for job in result.jobs.values() if job.failed or math.isnan(job.finish_time)
    )
    return {
        "jobs": {
            "submitted": len(result.jobs),
            "completed": len(result.jobs) - failed,
            "failed": failed,
        },
        "digests": {
            name: digest.to_dict() for name, digest in digest_result(result).items()
        },
    }


def sweep_trial(config: SimulationConfig) -> dict:
    """One sweep/tournament trial (module-level: journals hash its name)."""
    result = run_or_partial(config)
    if result is None:
        return {"refused": True, "jobs": None, "digests": None}
    return {"refused": False, **trial_telemetry(result)}


def merge_trials(payloads) -> tuple[dict, dict[str, LatencyDigest]]:
    """Fold one report row's trial payloads **in the order given**.

    Callers pass grid order: ``total`` is a float sum, so the order is what
    keeps serial, pooled and resumed campaigns bit-identical.  A ``None``
    payload (terminal failure) counts as a trial but not ``done``; a
    ``refused`` one is ``done`` and contributes nothing.  Returns the
    fields every report row shares plus the merged digests, from which
    callers derive their own columns.
    """
    merged = {name: LatencyDigest() for name in ("degraded_read", "sojourn", "makespan")}
    trials = done = refused = 0
    jobs = {"submitted": 0, "completed": 0, "failed": 0}
    for payload in payloads:
        trials += 1
        if payload is None:
            continue
        done += 1
        if payload.get("refused"):
            refused += 1
            continue
        for name in jobs:
            jobs[name] += payload["jobs"][name]
        for name, digest in merged.items():
            digest.merge(LatencyDigest.from_dict(payload["digests"][name]))
    row = {
        "trials": trials,
        "done": done,
        "refused": refused,
        "jobs": jobs,
        "degraded_read_seconds": merged["degraded_read"].percentiles(),
        "makespan_seconds": merged["makespan"].percentiles(),
        "telemetry": {name: digest.to_dict() for name, digest in merged.items()},
    }
    return row, merged


def run_grid(spec, policy, journal_path, cache, progress):
    """Run ``spec.grid()`` of :func:`sweep_trial`; returns (keys, outcome, envelope).

    The envelope (``accounting``, ``failures``) holds only what is a pure
    function of the spec and the terminal trial outcomes -- never cache
    hits, retries or journal replays -- so an interrupted-then-resumed
    campaign emits byte-identical report JSON.
    """
    if policy is None:
        policy = CampaignPolicy(on_error="collect")
    configs, keys = spec.grid()
    outcome = CampaignEngine(
        runner=sweep_trial,
        policy=policy,
        journal_path=journal_path,
        cache=cache,
        progress=progress,
    ).run(configs)
    counters = outcome.counters
    envelope = {
        "accounting": {
            "submitted": counters.submitted,
            "done": counters.done,
            "failed": counters.failed,
            "quarantined": counters.quarantined,
        },
        "failures": [failure.to_dict() for failure in outcome.failures],
    }
    return keys, outcome, envelope


def report_to_json(report: dict) -> str:
    """Canonical, strict JSON of any campaign-shaped report."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def degraded_read_text(latency: dict) -> str:
    """The degraded-read tail clause of a text report row."""
    if not latency["count"]:
        return "degraded reads: none observed"
    return (
        f"degraded reads n={latency['count']}"
        f" p50={latency['p50']:.2f}s p95={latency['p95']:.2f}s"
        f" p99={latency['p99']:.2f}s"
    )


def failure_lines(report: dict) -> list[str]:
    """One text line per terminally failed trial of a report."""
    return [
        f"  FAILED trial {failure['index']} [{failure['kind']}] "
        f"after {failure['attempts']} attempt(s): {failure['message']}"
        for failure in report["failures"]
    ]


# -- the sweep (``repro campaign``) -------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A declarative campaign: base config x schedulers x seeds."""

    base: SimulationConfig = field(default_factory=SimulationConfig)
    schedulers: tuple[str, ...] = ("LF", "BDF", "EDF")
    seeds: tuple[int, ...] = tuple(range(5))

    def __post_init__(self) -> None:
        if not self.schedulers:
            raise ValueError("campaign needs at least one scheduler")
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        # Canonical registered names, matched case-insensitively; an unknown
        # name is refused here rather than when the grid is built.
        object.__setattr__(
            self, "schedulers", tuple(POLICIES.resolve(name) for name in self.schedulers)
        )

    def grid(self) -> tuple[list[SimulationConfig], list[tuple[str, int]]]:
        """The trial grid plus its (scheduler, seed) keys, in canonical
        order (seed-major, then scheduler)."""
        configs: list[SimulationConfig] = []
        keys: list[tuple[str, int]] = []
        for seed in self.seeds:
            for scheduler in self.schedulers:
                configs.append(self.base.with_scheduler(scheduler).with_seed(seed))
                keys.append((scheduler, seed))
        return configs, keys

    def to_dict(self) -> dict:
        return {
            "schema": SPEC_SCHEMA,
            "base": config_to_dict(self.base),
            "schedulers": list(self.schedulers),
            "seeds": list(self.seeds),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        if payload.get("schema") != SPEC_SCHEMA:
            raise ValueError(
                f"campaign spec must carry schema {SPEC_SCHEMA!r}, "
                f"got {payload.get('schema')!r}"
            )
        seeds = payload.get("seeds", 5)
        if isinstance(seeds, int):
            seeds = list(range(seeds))
        return cls(
            base=config_from_dict(payload.get("base", {})),
            schedulers=tuple(payload.get("schedulers", ("LF", "BDF", "EDF"))),
            seeds=tuple(int(seed) for seed in seeds),
        )

    @classmethod
    def load(cls, path: str) -> "SweepSpec":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def run_sweep(
    spec: SweepSpec,
    policy: CampaignPolicy | None = None,
    journal_path: str | None = None,
    cache: ResultCache | None = None,
    progress=None,
) -> tuple[dict, CampaignOutcome]:
    """Run (or resume) a sweep; returns (``repro.campaign-report/v1``, outcome)."""
    keys, outcome, envelope = run_grid(spec, policy, journal_path, cache, progress)
    rows = {
        scheduler: merge_trials(
            payload
            for (key_scheduler, _seed), payload in zip(keys, outcome.results)
            if key_scheduler == scheduler
        )[0]
        for scheduler in spec.schedulers
    }
    report = {
        "schema": REPORT_SCHEMA,
        "campaign": spec.to_dict(),
        **envelope,
        "schedulers": rows,
    }
    return report, outcome


def render_sweep_report(report: dict) -> str:
    """Human-readable sweep summary (the CLI's default output)."""
    accounting = report["accounting"]
    lines = [
        "== campaign ==",
        f"trials: {accounting['submitted']} submitted, {accounting['done']} done,"
        f" {accounting['failed']} failed, {accounting['quarantined']} quarantined",
    ]
    for scheduler, row in report["schedulers"].items():
        makespan = row["makespan_seconds"]
        head = (
            f"makespan p50={makespan['p50']:.1f}s" if makespan["count"] else "no data"
        )
        lines.append(
            f"  {scheduler:>3}: {row['done']}/{row['trials']} trial(s); {head}; "
            + degraded_read_text(row["degraded_read_seconds"])
        )
    return "\n".join(lines + failure_lines(report))
