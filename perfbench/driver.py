"""One benchmark run: set-up, saturating and paced phases, gate, metrics.

A run of workload *W* with seed *s* and ``--seconds`` *T*:

1. **Inputs.**  *W* generates, from *s* alone, a warm-up of
   ``WARMUP`` events, a saturating phase of
   ``nominal_eps * T * (1 - paced_share)`` events and a paced phase of
   ``paced_eps * T * paced_share`` events, each with a fixed simulated
   timestamp.  The input size therefore depends on the seed
   and ``T`` only, never on how fast the code under test is.
2. **Set-up** (``setup_s``).  ``W.setup_reps`` times: untimed staging,
   ``gc.collect()``, then the timed set-up.  The last node is the one
   measured; ``setup_s`` is the median.
3. **Warm-up**, untimed, so lazy set-up finishes before timing.  A full
   ``gc.collect()`` precedes each timed phase, so that whether a full
   collection of the whole heap falls inside a phase does not depend on
   what happened before it.
4. **Saturating phase** (``throughput_eps``), closed loop: a batch is
   handed over only after the previous one has been handled.  The phase
   is timed on the busy clock, batch by batch; the metric is its events
   over the sum of its batches' times, each divided by its speed factor
   (:class:`SpeedProbe`), as is each set-up time.
5. **Paced phase** (``latency_p50_ms`` / ``latency_p99_ms``), open loop:
   batch *j* is due at ``start + j * batch / paced_eps`` seconds of the
   busy clock (``busy``) and is handed over then, or at once if the driver
   is late.  Each input's
   latency runs from its batch's due time to the moment a handler
   registered on the node after the engine sees it handled, divided by
   its batch's speed factor.  ``latency_p99_ms`` is the median p99 of
   windows of ``P99_WINDOW`` samples.
6. **Gate.**  The simulation is flushed and the workload's correctness
   gate runs; any mismatch raises :class:`GateFailure`.

Handing over an input means ``sim.run_until(t)`` for its timestamp *t*
followed by the workload's entry point; a batch ends with a
``run_until`` of its last timestamp, so every input of the batch has been
handled when the hand-over returns.  Everything runs in this one process
and thread.
"""

from __future__ import annotations

import array
import bisect
import collections
import gc
import resource
import signal
import statistics
import time

from repro.errors import ReproError

from tracing import Tracer
from workloads import WORKLOADS

#: The saturating phase is timed in this many equal stretches, whose
#: rates the result keeps (``detail.raw``), so that a drift within the
#: phase shows.  ``throughput_eps`` is taken over all of them: on ``cep``,
#: whose mix changes half-way, their median picked one side or the other
#: and spread 0.11 over ten seeds, against 0.09 for the whole phase.
SAT_CHUNKS = 9
#: Latency samples per window of ``latency_p99_ms`` (see window_p99s).
P99_WINDOW = 1000

#: A timed stretch's speed factor is the median of the probes taken
#: during it and of this many probes on each side of it.
PROBES_AROUND = 10

#: Inputs handed over, untimed, before the first timed phase.
WARMUP = 100
#: Seconds of timed code between two speed probes taken inside it.
SAMPLE_INTERVAL = 0.02

#: Simulated seconds added at the end so that in-flight messages and
#: wake-ups are delivered before the gate looks.
FLUSH = 30.0


def _probe_work() -> int:
    """Interpreter-bound work on a working set that stays in the CPU's
    first-level caches: tuple walks, ``isinstance`` checks, dict updates,
    small allocations."""
    table: dict = {}
    total = 0
    for i in range(400):
        key = ("k", i & 63)
        node = (key, i, (i, i + 1))
        if isinstance(node[1], int):
            table[key] = table.get(key, 0) + node[2][1]
        total += len(str(i))
    return total + len(table)


#: The clock every timed figure is read from: the seconds this thread ran
#: on a CPU.  The shared machines this benchmark runs on take the CPU away
#: from the guest now and then (*steal*): for a minute or two at a time,
#: 10-20% of every second, in stretches of tens of milliseconds, while the
#: speed probe's median does not move.  A wall clock then times the other
#: guests, and the latency tail of one seed doubled from run to run.  This
#: clock stops while the CPU is taken away.  The driver never sleeps while
#: it measures (it runs speed probes, or spins, until a batch is due), so
#: apart from steal this clock runs at the wall clock's rate.  It also
#: leaves out the time ``fsync`` waits for the disk, which is the host's
#: too: with those waits counted, one ``orders`` run in such a spell still
#: built a 40 ms backlog.
busy = time.thread_time


class SpeedProbe:
    """How fast the host runs Python at the moment.

    The shared machines this benchmark runs on change speed by up to 2x,
    from one tenth of a second to the next.  The driver runs this fixed
    probe under the same sustained load as the timed code: before every
    batch of the saturating phase, while it waits for each batch of the
    paced phase, around each set-up, and every ``SAMPLE_INTERVAL`` seconds
    of timed code (:class:`Sampler`).  Every probe is logged with its start.
    A timed stretch is divided by its *speed factor*, ``(median probe time
    / REFERENCE_S) ** EXPONENT`` over the probes taken during it and
    ``PROBES_AROUND`` on each side of it, which gives about its time on the
    reference machine.  The
    probe does not run the code under test, and its working set is tiny,
    so what that code leaves in the caches moves it by about 3%: the factor
    follows the machine, not the code.  Unscaled figures are kept in the
    result's ``detail.raw``.
    """

    #: Median probe seconds on the reference machine (2 vCPU, Python
    #: 3.11, not boosted), taken between batches as the driver takes them.
    REFERENCE_S = 0.34e-3
    #: How steeply the workloads' times follow the probe's: within a run,
    #: the slope of log batch time on log probe time was 0.6-1.1, about
    #: 0.8 on every workload.
    EXPONENT = 0.8

    def __init__(self) -> None:
        # Arrays, so that the log neither adds objects for the garbage
        # collector nor grows the heap with the number of probes.
        self.starts = array.array("d")
        self.times = array.array("d")

    def measure(self) -> "tuple[float, float]":
        """One probe, not logged: its start and its seconds."""
        started = time.perf_counter()
        _probe_work()
        return started, time.perf_counter() - started

    def log(self, started: float, took: float) -> None:
        self.starts.append(started)
        self.times.append(took)

    def __call__(self) -> float:
        """One probe, logged; returns its seconds."""
        started, took = self.measure()
        self.log(started, took)
        return took

    def factor(self, start: float, seconds: float,
               exponent: float = EXPONENT) -> float:
        """The speed factor of the stretch from *start* lasting *seconds*."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, start + seconds, lo=first)
        times = self.times[max(0, first - PROBES_AROUND):last + PROBES_AROUND]
        return (statistics.median(times) / self.REFERENCE_S) ** exponent


class Sampler:
    """Runs the speed probe every ``SAMPLE_INTERVAL`` seconds of timed code.

    Inside ``with sampler:`` a ``SIGALRM`` handler runs the probe between
    two bytecodes of the code under test, and ``spent`` adds up the seconds
    the handler took on the busy clock, which the driver takes off
    the timed stretch.  The
    interval timer pauses outside the ``with`` blocks, so the probes are
    spread evenly over the timed code however it is cut into stretches.
    A disabled sampler does nothing."""

    def __init__(self, probe: SpeedProbe, enabled: bool = True) -> None:
        self.probe = probe
        self.enabled = enabled
        self.spent = 0.0
        self._left = SAMPLE_INTERVAL
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        started = busy()
        self.probe()
        self.spent += busy() - started

    def __enter__(self) -> "Sampler":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self._left, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            left, _interval = signal.setitimer(signal.ITIMER_REAL, 0)
            self._left = left or SAMPLE_INTERVAL
            signal.signal(signal.SIGALRM, self._previous)


class GateFailure(Exception):
    """The node's outputs differ from the workload's reference."""

    def __init__(self, problems: "list[str]") -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


class Observer:
    """The handler registered after the engine: counts handled inputs and
    times them, on the busy clock, against the due time of the batch in
    flight."""

    def __init__(self, labels: frozenset, sampler: Sampler) -> None:
        self.labels = labels
        self.sampler = sampler
        self.handled = 0
        self.due: "float | None" = None
        self.spent_at_due = 0.0
        self.samples: list = []

    def __call__(self, event) -> None:
        if event.term.label in self.labels:
            self.handled += 1
            if self.due is not None:
                self.samples.append(
                    busy() - self.due
                    - (self.sampler.spent - self.spent_at_due))


class Feed:
    """Hands a workload's inputs to one set-up node, in order."""

    def __init__(self, workload, setup, start: int,
                 sample: bool = True) -> None:
        self.workload = workload
        self.setup = setup
        self.next = start
        self.offered = 0
        self.refused = 0
        self.errors = 0
        self.probe = SpeedProbe()
        self.sampler = Sampler(self.probe, sample)
        self.observer = Observer(workload.labels, self.sampler)
        setup.node.on_event(self.observer)

    def _advance(self, until: float) -> None:
        try:
            self.setup.sim.run_until(until)
        except ReproError:
            self.errors += 1

    def take(self, count: int) -> list:
        """The next *count* inputs as ``(time, Data term)``, built before
        any timing starts."""
        workload = self.workload
        batch = [(at, workload.term(spec))
                 for at, spec in workload.inputs[self.next:self.next + count]]
        self.next += len(batch)
        return batch

    def hand_over(self, batch: list) -> None:
        """Offer *batch* and run until every input in it is handled."""
        workload, setup = self.workload, self.setup
        for at, term in batch:
            self._advance(at)
            try:
                if not workload.offer(setup, term):
                    self.refused += 1
            except ReproError:
                self.errors += 1
        self.offered += len(batch)
        self._advance(batch[-1][0])

    def closed_loop(self, count: int, chunks: int = 1
                    ) -> "list[tuple[int, float, float]]":
        """Offer *count* inputs batch by batch, with a speed probe before
        each batch, timing *chunks* equal stretches of batches on the busy
        clock; returns ``(events handled, seconds, scaled seconds)`` per
        stretch, where each batch's time is divided by its speed factor."""
        size = self.workload.batch
        starts = list(range(0, count, size))
        chunks = min(chunks, len(starts))
        probe = self.probe
        stretches = []
        for part in range(chunks):
            mine = starts[len(starts) * part // chunks:
                          len(starts) * (part + 1) // chunks]
            handled = self.observer.handled
            batches = []
            for first in mine:
                batch = self.take(min(size, count - first))
                probe()
                with self.sampler as sampler:
                    spent = sampler.spent
                    started, ran = time.perf_counter(), busy()
                    self.hand_over(batch)
                    wall = time.perf_counter() - started
                    ran = busy() - ran - (sampler.spent - spent)
                batches.append((started, wall, ran))
            stretches.append((self.observer.handled - handled, batches))
        for _ in range(PROBES_AROUND):
            probe()
        return [(handled, sum(took for _s, _w, took in batches),
                 sum(took / probe.factor(started, wall)
                     for started, wall, took in batches))
                for handled, batches in stretches]

    def open_loop(self, count: int, rate: float
                  ) -> "tuple[list[float], list[tuple[int, float]]]":
        """Offer *count* inputs in batches due at *rate* events per second
        of the busy clock.  Returns how late each batch was handed over
        (seconds) and, per batch, ``(index of its first latency sample,
        speed factor)``.

        The driver waits for a due time by running speed probes, and spins
        through the last stretch shorter than two probes, so that the
        process stays under the same sustained load as in the saturating
        phase, the busy clock keeps the wall clock's rate, and each batch
        has probes of the machine's speed on both sides of it."""
        size = self.workload.batch
        interval = size / rate
        observer = self.observer
        probe = self.probe
        late = []
        batches = []
        last = probe()
        start = busy() + interval
        for j, first in enumerate(range(0, count, size)):
            batch = self.take(min(size, count - first))
            due = start + j * interval
            # Only the probes next to a batch count towards its factor, so
            # a long wait logs its first and last PROBES_AROUND probes, and
            # the log's size does not depend on the machine's speed.
            recent = collections.deque(maxlen=PROBES_AROUND)
            waited = 0
            while due - busy() > 2 * last:
                if waited < PROBES_AROUND:
                    last = probe()
                else:
                    recent.append(probe.measure())
                    last = recent[-1][1]
                waited += 1
            for started, took in recent:
                probe.log(started, took)
            while busy() < due:
                pass
            late.append(busy() - due)
            sample = len(observer.samples)
            with self.sampler as sampler:
                observer.spent_at_due = sampler.spent
                observer.due = due
                started = time.perf_counter()
                self.hand_over(batch)
                wall = time.perf_counter() - started
            batches.append((sample, started, wall))
        observer.due = None
        for _ in range(PROBES_AROUND):
            probe()
        return late, [(sample, probe.factor(started, wall))
                      for sample, started, wall in batches]

    def flush(self) -> None:
        self._advance(self.workload.inputs[self.next - 1][0] + FLUSH)


def percentile(values: "list[float]", q: int) -> float:
    """The *q*-th percentile (1..99) of *values*, by ``statistics``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def phase_sizes(workload, seconds: float) -> "dict[str, int]":
    def whole_batches(events: float) -> int:
        return max(1, round(events / workload.batch)) * workload.batch

    paced_seconds = seconds * workload.paced_share
    return {
        "warmup": WARMUP,
        "saturating": whole_batches(workload.nominal_eps
                                    * (seconds - paced_seconds)),
        "paced": whole_batches(workload.paced_eps * paced_seconds),
    }


def timed_setups(workload, workdir: str, reps: int):
    """Set up *reps* times; returns the last setup and, per set-up,
    ``(seconds on the busy clock, speed factor)``.  The seconds leave out
    the probes taken during the set-up."""
    probe = SpeedProbe()
    timings = []
    setup = None
    for rep in range(reps):
        if setup is not None:
            setup.node.close()
            setup = None
        workload.stage(workdir, rep)
        gc.collect()
        for _ in range(PROBES_AROUND):
            probe()
        with Sampler(probe) as sampler:
            started, ran = time.perf_counter(), busy()
            setup = workload.setup(workdir, rep)
            wall = time.perf_counter() - started
            ran = busy() - ran - sampler.spent
        for _ in range(PROBES_AROUND):
            probe()
        timings.append((ran, probe.factor(started, wall)))
    return setup, timings


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workload(name: str, seed: int, seconds: float, workdir: str,
                  smoke: bool = False):
    """The prepared workload, with its inputs generated for every phase,
    and the phase sizes."""
    workload = WORKLOADS[name](seed, smoke)
    workload.prepare(workdir)
    sizes = phase_sizes(workload, seconds)
    for phase in ("warmup", "saturating", "paced"):
        workload.extend_phase(sizes[phase])
    return workload, sizes


def plain_run(workload, sizes: dict, workdir: str, reps: int) -> dict:
    """Set-up, warm-up, saturating and paced phases, gate; untraced."""
    setup, setup_times = timed_setups(workload, workdir, reps)
    feed = Feed(workload, setup, workload.first_input)
    feed.closed_loop(sizes["warmup"])
    gc.collect()
    stretches = feed.closed_loop(sizes["saturating"], SAT_CHUNKS)
    refused_before = feed.refused + feed.errors
    gc.collect()
    late, paced_factors = feed.open_loop(sizes["paced"], workload.paced_eps)
    paced_shed = feed.refused + feed.errors - refused_before
    feed.flush()
    problems = workload.gate(setup, feed.next)
    stats = setup.node.stats
    ingest = stats.ingest
    result = {
        "setup_times": setup_times,
        "stretches": stretches,
        "latency_samples": feed.observer.samples,
        "paced_factors": paced_factors,
        "late": late,
        "offered": feed.offered,
        "handled": feed.observer.handled,
        "refused": feed.refused,
        "paced_shed": paced_shed,
        "errors": feed.errors,
        "ingest_refused": 0 if ingest is None else (
            ingest.rejected + ingest.rate_limited + ingest.dropped
            + ingest.malformed),
        "inbox_peak": stats.inbox_peak,
        "problems": problems,
    }
    setup.node.close()
    return result


def window_p99s(samples: "list[float]") -> "list[float]":
    """The p99s of consecutive windows of at least ``P99_WINDOW`` samples
    (each with at least ten samples beyond its p99)."""
    windows = max(1, len(samples) // P99_WINDOW)
    return [percentile(samples[len(samples) * w // windows:
                               len(samples) * (w + 1) // windows], 99)
            for w in range(windows)]


def scaled_latencies(samples: "list[float]",
                     factors: "list[tuple[int, float]]") -> "list[float]":
    """Each latency sample divided by its batch's speed factor (*factors*
    as :meth:`Feed.open_loop` returns them)."""
    scaled = []
    ends = [first for first, _f in factors[1:]] + [len(samples)]
    for (first, factor), end in zip(factors, ends):
        scaled.extend(s / factor for s in samples[first:end])
    return scaled


def throughput(stretches: list, scaled: bool = True) -> float:
    """Events per second over all the stretches :meth:`Feed.closed_loop`
    returns."""
    events = sum(handled for handled, _s, _r in stretches)
    return events / sum(ref if scaled else seconds
                        for _h, seconds, ref in stretches)


def end_to_end(plain: dict) -> "tuple[dict, dict]":
    """The end-to-end metrics and the raw figures they were scaled from.
    Every timed figure is divided by the speed factor of the probes taken
    during and around it (see :class:`SpeedProbe`)."""
    raw_ms = [s * 1e3 for s in plain["latency_samples"]]
    samples_ms = scaled_latencies(raw_ms, plain["paced_factors"])
    stretches = plain["stretches"]
    metrics = {
        "setup_s": (statistics.median(s / f for s, f in plain["setup_times"]),
                    "s"),
        "throughput_eps": (throughput(stretches), "events/s"),
        "latency_p50_ms": (statistics.median(samples_ms), "ms"),
        # The median window, so that one stall does not decide the tail.
        "latency_p99_ms": (statistics.median(window_p99s(samples_ms)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {
        "setup_s": statistics.median(s for s, _f in plain["setup_times"]),
        "throughput_eps": throughput(stretches, scaled=False),
        "latency_p50_ms": statistics.median(raw_ms),
        "latency_p99_ms": statistics.median(window_p99s(raw_ms)),
        "setup_factors": [f for _s, f in plain["setup_times"]],
        "saturating_rates": [events / seconds
                             for events, seconds, _r in stretches],
        "saturating_factors": [seconds / ref
                               for _e, seconds, ref in stretches],
        "paced_factors_median": statistics.median(
            f for _i, f in plain["paced_factors"]),
    }
    return metrics, raw


def traced_run(workload, sizes: dict, workdir: str, tracer) -> dict:
    """A fresh set-up and the saturating phase again, under *tracer*."""
    with tracer:
        workload.stage(workdir, workload.setup_reps)
        gc.collect()
        tracer.phase = "setup"
        setup = workload.setup(workdir, workload.setup_reps)
        tracer.phase = None
        feed = Feed(workload, setup, workload.first_input, sample=False)
        feed.closed_loop(sizes["warmup"])
        before = setup.node.stats
        messages = setup.sim.stats.messages
        handled = feed.observer.handled
        gc.collect()
        tracer.phase = "run"
        started = time.perf_counter()
        stretches = feed.closed_loop(sizes["saturating"], SAT_CHUNKS)
        wall = time.perf_counter() - started
        tracer.phase = None
        after = setup.node.stats
        result = {
            "wall": wall,
            "stretches": stretches,
            "events": feed.observer.handled - handled,
            "messages": setup.sim.stats.messages - messages,
            "rules": len(setup.node.rules()),
        }
        for key in ("candidates_considered", "index_probes", "rule_firings",
                    "wakeups"):
            result[key] = getattr(after, key) - getattr(before, key)
    feed.flush()
    result["problems"] = workload.gate(setup, feed.next)
    setup.node.close()
    return result


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(plain: dict, traced: dict, tracer) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    events = traced["events"]
    run = lambda *names: tracer.stat("run", *names)  # noqa: E731
    setup = lambda *names: tracer.stat("setup", *names)  # noqa: E731
    us = 1e6
    parse = setup("lang.parse")
    install = setup("core.install")
    condition = run("core.condition")
    action = run("core.action")
    on_event = run("events.on_event")
    advance = run("events.advance")
    matcher = run("terms.event_match")
    terms_parse = tracer.stat("setup", "terms.parse")
    terms_parse_run = run("terms.parse")
    commits = run("updates.commit").count
    rollbacks = run("updates.rollback").count
    store_commit = run("store.commit")
    checkpoint = run("store.checkpoint")
    untraced_eps = throughput(plain["stretches"])
    traced_eps = throughput(traced["stretches"])
    return {
        "failed_share": (_per(plain["offered"] - plain["handled"],
                              plain["offered"]), "share"),
        "ingest.send_us": (_per(run("ingest.send").total * us, events), "us/ev"),
        "ingest.offer_self_us": (_per(run("ingest.offer").self * us, events),
                                 "us/ev"),
        "ingest.refused": (plain["ingest_refused"], "count"),
        "lang.parse_ms": (parse.total * 1e3, "ms"),
        "web.drive_self_us": (_per(run("web.drive").self * us, events), "us/ev"),
        "web.inbox_peak": (plain["inbox_peak"], "events"),
        "web.messages_per_event": (_per(traced["messages"], events),
                                   "messages/ev"),
        "core.handle_self_us": (_per(run("core.handle").self * us, events),
                                "us/ev"),
        "core.candidates_per_event": (
            _per(traced["candidates_considered"], events), "candidates/ev"),
        "core.index_probes_per_event": (_per(traced["index_probes"], events),
                                        "probes/ev"),
        "core.firing_yield": (_per(traced["rule_firings"],
                                   traced["candidates_considered"]), "share"),
        "core.install_us": (_per((install.total - parse.total) * us,
                                 traced["rules"]), "us/rule"),
        "core.condition_us": (_per(condition.total * us, condition.count),
                              "us/call"),
        "core.condition_calls": (condition.count, "count"),
        "core.action_self_us": (_per(action.self * us, action.count),
                                "us/action"),
        "core.actions": (action.count, "count"),
        "events.on_event_self_us": (_per(on_event.self * us, on_event.count),
                                    "us/call"),
        "events.on_event_calls": (on_event.count, "count"),
        "events.advance_us": (_per(advance.total * us, advance.count),
                              "us/call"),
        "events.advances": (advance.count, "count"),
        "events.wakeups": (traced["wakeups"], "count"),
        "events.answers_per_call": (
            _per(on_event.extra + advance.extra,
                 on_event.count + advance.count), "answers/call"),
        "terms.event_match_us": (_per(matcher.total * us, matcher.count),
                                 "us/call"),
        "terms.matcher_calls_per_event": (_per(matcher.count, events),
                                          "calls/ev"),
        "terms.match_hit_ratio": (_per(matcher.extra, matcher.count), "share"),
        "terms.query_match_us": (
            _per(run("terms.query_match").total * us,
                 run("terms.query_match").count), "us/call"),
        "terms.parse_us": (
            _per((terms_parse.total + terms_parse_run.total) * us,
                 terms_parse.count + terms_parse_run.count), "us/call"),
        "updates.apply_us": (_per(run("updates.apply").total * us,
                                  run("updates.apply").count), "us/call"),
        "updates.tx_commit_ratio": (_per(commits, commits + rollbacks),
                                    "share"),
        "store.commit_us": (_per(store_commit.total * us, store_commit.count),
                            "us/commit"),
        "store.commits": (store_commit.count, "count"),
        "store.bytes_per_commit": (
            _per(store_commit.extra + checkpoint.extra, store_commit.count),
            "B/commit"),
        "store.checkpoint_ms": (_per(checkpoint.total * 1e3, checkpoint.count),
                                "ms"),
        "store.checkpoints": (checkpoint.count, "count"),
        "store.recover_ms": (setup("store.recover").total * 1e3, "ms"),
        "driver.late_p99_ms": (percentile([x * 1e3 for x in plain["late"]],
                                          99), "ms"),
        "trace.overhead": (untraced_eps / traced_eps - 1.0, "share"),
        "trace.coverage": (_per(tracer.top_level.get("run", 0.0),
                                traced["wall"]), "share"),
    }


def coverage_check(traced: dict, tracer, tolerance: float = 0.05) -> dict:
    """Layer self times plus uncovered driver time against traced wall time.

    The self times of all spans in the traced phase and the wall time no
    span covers must add up to the phase's wall time; a difference beyond
    *tolerance* (a share of the wall time) means spans were lost or
    double-counted."""
    wall = traced["wall"]
    layers = tracer.self_total("run")
    uncovered = wall - tracer.top_level.get("run", 0.0)
    error = _per(abs(layers + uncovered - wall), wall)
    return {"wall_s": wall, "layers_self_s": layers,
            "uncovered_s": uncovered, "error": error,
            "ok": error <= tolerance and uncovered >= 0}


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  workdir: str, smoke: bool = False,
                  trace_path: "str | None" = None) -> dict:
    """One run; returns the result (raises :class:`GateFailure`).

    With *trace* false the metrics are the end-to-end ones; with *trace*
    true the per-layer ones, from an untraced run (one set-up) followed by
    a traced set-up and saturating phase on the same inputs."""
    workload, sizes = make_workload(name, seed, seconds, workdir, smoke)
    plain = plain_run(workload, sizes, workdir,
                      1 if trace else workload.setup_reps)
    if plain["problems"]:
        raise GateFailure(plain["problems"])
    detail = {
        "events": sizes,
        "paced_eps": workload.paced_eps,
        "batch": workload.batch,
        "setup_times_s": [s for s, _f in plain["setup_times"]],
        "latency_samples": len(plain["latency_samples"]),
        "paced_shed": plain["paced_shed"],
        "refused": plain["refused"],
        "errors": plain["errors"],
        "late_p99_ms": percentile([x * 1e3 for x in plain["late"]], 99),
        "p99_windows_ms": window_p99s([s * 1e3
                                       for s in plain["latency_samples"]]),
    }
    if trace:
        tracer = Tracer()
        traced = traced_run(workload, sizes, workdir, tracer)
        if traced["problems"]:
            raise GateFailure(traced["problems"])
        check = coverage_check(traced, tracer)
        if not check["ok"]:
            raise GateFailure([f"trace: layer self times {check['layers_self_s']:.4f} s "
                               f"+ uncovered {check['uncovered_s']:.4f} s != wall "
                               f"{check['wall_s']:.4f} s"])
        detail["coverage_check"] = check
        detail["spans"] = len(tracer.spans)
        if trace_path is not None:
            tracer.dump(trace_path)
        metrics = per_layer(plain, traced, tracer)
    else:
        metrics, detail["raw"] = end_to_end(plain)
    return {
        "correct": True,
        "attempted": plain["offered"],
        "failed": plain["offered"] - plain["handled"],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
        "detail": detail,
    }
