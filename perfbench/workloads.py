"""The benchmark's three workloads: inputs, set-up, and correctness gates.

Each workload is one :class:`repro.Simulation` holding one reactive node
(built through the public ``ReactiveNode`` facade in its default
configuration) and one plain sink node that receives whatever the rules
``RAISE``.  A workload owns four things:

- its **inputs** — a seeded list of ``(simulated time, spec)`` pairs, where
  a spec is a tuple of plain values that :meth:`Workload.term` turns into
  the ``Data`` term the node receives, just before it is handed over; the
  program under test only ever sees those terms.  (Tuples of plain values
  are not tracked by the garbage collector, so the inputs the benchmark
  holds for the whole run do not lengthen the program's collections.);
- its **set-up** — what :func:`Workload.setup` does between an empty
  ``Simulation`` and a node that is ready for events (the part
  ``setup_s`` times);
- its **entry point** — how one term is handed to the node
  (:meth:`Workload.offer`);
- its **gate** — :meth:`Workload.reference` computes the expected outcome
  of the first *n* inputs without the code under test (or, for ``cep``,
  with the naive oracle evaluator), :meth:`Workload.observe` reads what
  the node actually did, and :meth:`Workload.compare` lists every
  difference.  A non-empty list fails the run.

Why these three (the event / condition-state / action axes of reaction
rules): ``ticker`` loads ingest, rule parsing, the discrimination trie,
the event matcher and network actions; ``cep`` loads the composite-event
evaluators and absence wake-ups; ``orders`` loads interpreted condition
queries over a large document, transactional updates and the durable
write-ahead log.
"""

from __future__ import annotations

import collections
import os
import random
import shutil

from repro import EngineConfig, IngestConfig, Simulation, StoreConfig, d, u

SINK = "http://sink.example"


class Setup:
    """One set-up node: the simulation, the reactive node and the sink.

    ``sink`` keeps only what the workload's gate needs from the events the
    sink node receives (keeping every term would grow the heap, and with it
    the garbage collector's pauses, with the run's length)."""

    def __init__(self, workload: "Workload", sim, node) -> None:
        self.sim = sim
        self.node = node
        self.sink = workload.new_sink()
        self.sink_events = 0
        self.client = None  # ticker: the loopback ingestion client
        self.path = None  # orders: the store directory
        record = workload.record

        def receive(event) -> None:
            self.sink_events += 1
            record(self.sink, event)

        sim.node(SINK).on_event(receive)


class Workload:
    """Shared shape of a workload; subclasses fill in the specifics."""

    name = ""
    uri = ""
    #: Saturating rate of the seed code on the reference machine; sizes the
    #: saturating phase so that it lasts about half of ``--seconds``.
    nominal_eps = 1.0
    #: The paced phase's fixed offered rate: 30-40% of nominal_eps, low
    #: enough that a few seconds of a machine slowed down by a third do not
    #: build a backlog that decides the run's latencies.
    paced_eps = 1.0
    #: Share of ``--seconds`` given to the paced phase; the rest sizes the
    #: saturating phase.
    paced_share = 0.5
    #: Events per hand-over, in both phases.
    batch = 10
    #: Set-ups timed per run; ``setup_s`` is their median.
    setup_reps = 3
    #: Labels of input events (anything else the node sees is not counted).
    labels: frozenset = frozenset()
    #: Mean simulated seconds between two input events.
    gap = 0.001
    #: Index of the first input offered to a set-up node (earlier inputs
    #: are history the node recovers instead).
    first_input = 0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}-{seed}")
        self.clock = 0.0
        self.inputs: list = []
        self.rules_text = ""

    # -- inputs ---------------------------------------------------------------

    def extend(self, n: int) -> None:
        """Generate inputs until there are *n* of them."""
        while len(self.inputs) < n:
            self.clock += self.rng.expovariate(1.0 / self.gap)
            self.inputs.append((self.clock, self.next_spec(len(self.inputs))))

    def extend_phase(self, n: int) -> None:
        """Generate the *n* inputs of the next phase."""
        self.extend(len(self.inputs) + n)

    def next_spec(self, index: int) -> tuple:
        raise NotImplementedError

    def term(self, spec: tuple):
        """The ``Data`` term of one input."""
        raise NotImplementedError

    def program(self) -> str:
        raise NotImplementedError

    # -- set-up and entry point -----------------------------------------------

    def prepare(self, workdir: str) -> None:
        """Untimed work done once before the timed set-ups."""
        self.rules_text = self.program()

    def stage(self, workdir: str, rep: int) -> None:
        """Untimed work done before each timed set-up."""

    def setup(self, workdir: str, rep: int) -> Setup:
        raise NotImplementedError

    def offer(self, setup: Setup, term) -> bool:
        setup.node.raise_local(term)
        return True

    def new_sink(self):
        """What the sink keeps, fresh for one set-up."""
        return None

    def record(self, sink, event) -> None:
        """Keep what the gate needs from one event the sink received."""

    # -- gate -----------------------------------------------------------------

    def reference(self, n: int):
        raise NotImplementedError

    def observe(self, setup: Setup, n: int):
        raise NotImplementedError

    def compare(self, expected, observed) -> list[str]:
        raise NotImplementedError

    def gate(self, setup: Setup, n: int) -> list[str]:
        """Mismatches between the node and the reference after *n* inputs."""
        return self.compare(self.reference(n), self.observe(setup, n))


# ---------------------------------------------------------------------------
# ticker: thousands of simple rules on one hot label, events over the wire
# ---------------------------------------------------------------------------


class Ticker(Workload):
    """~5k rules ``stock@{sym, venue}{{ price, vol }}`` with a price
    threshold each; events enter through the wire-codec loopback client."""

    name = "ticker"
    uri = "http://ticker.example"
    nominal_eps = 1000.0
    paced_eps = 300.0
    paced_share = 0.6
    labels = frozenset({"stock"})
    gap = 0.001
    thresholds = (20, 40, 60, 80, 100)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.syms, self.venues = (10, 4) if smoke else (100, 10)

    def rule_name(self, sym: int, venue: int, k: int) -> str:
        return f"t{sym}-{venue}-{k}"

    def program(self) -> str:
        rules = []
        for sym in range(self.syms):
            for venue in range(self.venues):
                for k, threshold in enumerate(self.thresholds):
                    name = self.rule_name(sym, venue, k)
                    rules.append(
                        f'RULE {name}\n'
                        f'ON stock@{{sym="S{sym}", venue="V{venue}"}}'
                        f'{{{{ price[var P], vol[var V] }}}}\n'
                        f'IF var P > {threshold}\n'
                        f'DO RAISE TO "{SINK}" alert{{ rule["{name}"], '
                        f'price[var P], vol[var V] }}\n')
        return "\n".join(rules)

    def next_spec(self, index: int) -> tuple:
        rng = self.rng
        return (rng.randrange(self.syms), rng.randrange(self.venues),
                rng.randrange(0, 121), rng.randrange(1, 1000))

    def term(self, spec: tuple):
        sym, venue, price, vol = spec
        return u("stock", d("price", price), d("vol", vol),
                 sym=f"S{sym}", venue=f"V{venue}")

    def setup(self, workdir: str, rep: int) -> Setup:
        sim = Simulation()
        node = sim.reactive_node(self.uri,
                                 EngineConfig(ingest=IngestConfig()))
        setup = Setup(self, sim, node)
        node.install(self.rules_text)
        setup.client = node.loopback(codec="wire")
        return setup

    def offer(self, setup: Setup, term) -> bool:
        return setup.client.send(term)

    def new_sink(self):
        return collections.Counter()

    def record(self, sink, event) -> None:
        sink[event.term.first("rule").value] += 1

    def reference(self, n: int):
        alerts: collections.Counter = collections.Counter()
        for _time, (sym, venue, price, _vol) in self.inputs[:n]:
            for k, threshold in enumerate(self.thresholds):
                if price > threshold:
                    alerts[self.rule_name(sym, venue, k)] += 1
        return {"alerts": alerts,
                "firings": n * len(self.thresholds)}

    def observe(self, setup: Setup, n: int):
        return {"alerts": setup.sink,
                "firings": setup.node.stats.rule_firings}

    def compare(self, expected, observed) -> list[str]:
        problems = []
        if observed["firings"] != expected["firings"]:
            problems.append(f"ticker: {observed['firings']} rule firings, "
                            f"expected {expected['firings']}")
        got, want = observed["alerts"], expected["alerts"]
        if sum(got.values()) != sum(want.values()):
            problems.append(f"ticker: sink got {sum(got.values())} alerts, "
                            f"expected {sum(want.values())}")
        wrong = sorted(name for name in set(got) | set(want)
                       if got[name] != want[name])
        if wrong:
            problems.append(f"ticker: per-rule alert counts differ for "
                            f"{len(wrong)} rules, e.g. {wrong[0]}: "
                            f"{got[wrong[0]]} != {want[wrong[0]]}")
        return problems


# ---------------------------------------------------------------------------
# cep: composite event queries with a label mix that drifts half-way
# ---------------------------------------------------------------------------


class Cep(Workload):
    """~80 composite rules (sequence, absence, count, conjunction) over six
    labels keyed by user and item; the label mix drifts from uniform to
    skewed half-way through the stream."""

    name = "cep"
    uri = "http://cep.example"
    nominal_eps = 1600.0
    paced_eps = 500.0
    paced_share = 0.6
    #: Wake-up bursts at absence deadlines make single inputs' latencies
    #: swing with the seed; batches of 20 make the tail mostly batch
    #: service time, which they do not.
    batch = 20
    labels = frozenset({"view", "like", "cart", "purchase", "search", "login"})
    gap = 0.05
    cats = 4
    users = 40
    items = 20
    #: Skewed mix: one hot first member (view), rare closing members.
    skew = {"view": 50, "like": 2, "cart": 12, "purchase": 2,
            "search": 20, "login": 14}
    #: Inputs the naive oracle replays for the gate.
    oracle_prefix = 300

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self._skewed = range(0)  # input indexes drawn from the skewed mix
        self._labels = sorted(self.labels)
        self._weights = [self.skew[label] for label in self._labels]

    def extend_phase(self, n: int) -> None:
        """Each phase starts uniform and turns skewed half-way through."""
        start = len(self.inputs)
        self._skewed = range(start + n // 2, start + n)
        self.extend(start + n)

    def program(self) -> str:
        keyed = "{{ user[var U], item[var I] }}"
        rules = []

        def rule(name: str, event: str, keys: str) -> None:
            rules.append(f'RULE {name}\nON {event}\n'
                         f'DO RAISE TO "{SINK}" hit{{ rule["{name}"], {keys} }}\n')

        both = "user[var U], item[var I]"
        for p, (a, b) in enumerate((("view", "like"), ("search", "view"),
                                    ("view", "cart"), ("login", "search"),
                                    ("cart", "purchase"))):
            for c in range(self.cats):
                rule(f"seq{p}-{c}",
                     f'WITHIN {2 + p} ( {a}@{{cat="c{c}"}}{keyed} '
                     f'THEN {b}@{{cat="c{c}"}}{keyed} )', both)
        for w in range(5):
            for c in range(self.cats):
                rule(f"abs{w}-{c}",
                     f'WITHIN {2 + w} ( cart@{{cat="c{c}"}}{keyed} '
                     f'THEN NOT purchase@{{cat="c{c}"}}{keyed} )', both)
        for k, label in enumerate(("view", "search", "like", "login", "cart")):
            for c in range(self.cats):
                rule(f"cnt{k}-{c}",
                     f'COUNT {3 + k % 3} OF {label}@{{cat="c{c}"}}'
                     f'{{{{ user[var U] }}}} WITHIN {3 + k} BY [U]',
                     "user[var U]")
        for p, (a, b) in enumerate((("view", "like"), ("cart", "like"),
                                    ("search", "cart"), ("login", "view"),
                                    ("like", "purchase"))):
            for c in range(self.cats):
                rule(f"and{p}-{c}",
                     f'WITHIN {2 + p} ( {a}@{{cat="c{c}"}}{keyed} '
                     f'AND {b}@{{cat="c{c}"}}{keyed} )', both)
        return "\n".join(rules)

    def next_spec(self, index: int) -> tuple:
        rng = self.rng
        if index in self._skewed:
            label = rng.choices(self._labels, weights=self._weights)[0]
        else:
            label = rng.choice(self._labels)
        return (label, rng.randrange(self.users), rng.randrange(self.items),
                rng.randrange(self.cats))

    def term(self, spec: tuple):
        label, user, item, cat = spec
        return u(label, d("user", f"u{user}"), d("item", f"i{item}"),
                 cat=f"c{cat}")

    def setup(self, workdir: str, rep: int, config=None) -> Setup:
        sim = Simulation()
        node = sim.reactive_node(self.uri, config)
        setup = Setup(self, sim, node)
        node.install(self.rules_text)
        return setup

    def _prefix(self, n: int) -> "tuple[int, float]":
        count = min(n, self.oracle_prefix)
        return count, self.inputs[count - 1][0]

    def new_sink(self):
        self._until = self._prefix(len(self.inputs))[1]
        return []

    def record(self, sink, event) -> None:
        if event.occurrence <= self._until:
            sink.append((event.occurrence, event.term))

    def reference(self, n: int):
        """The naive oracle's sink sequence on the stream's first inputs."""
        count, until = self._prefix(n)
        oracle = self.setup("", 0, EngineConfig(evaluator="naive"))
        for at, spec in self.inputs[:count]:
            oracle.sim.run_until(at)
            oracle.node.raise_local(self.term(spec))
        oracle.sim.run_until(until + oracle.sim.network.latency)
        return {"prefix": [hit for hit in oracle.sink if hit[0] <= until]}

    def observe(self, setup: Setup, n: int):
        _count, until = self._prefix(n)
        return {"prefix": [hit for hit in setup.sink if hit[0] <= until],
                "firings": (setup.node.stats.rule_firings,
                            setup.sink_events)}

    def compare(self, expected, observed) -> list[str]:
        problems = []
        want, got = expected["prefix"], observed["prefix"]
        if got != want:
            first = next((i for i, (a, b) in enumerate(zip(got, want))
                          if a != b), min(len(got), len(want)))
            problems.append(
                f"cep: firing sequence differs from the naive oracle at "
                f"position {first} ({len(got)} vs {len(want)} firings)")
        firings, hits = observed["firings"]
        if firings != hits:
            problems.append(f"cep: {firings} rule firings but {hits} sink hits")
        return problems


# ---------------------------------------------------------------------------
# orders: condition queries over a catalogue, atomic writes to a durable WAL
# ---------------------------------------------------------------------------


class Orders(Workload):
    """A few rules over a WAL-backed node: each order reads a catalogue of
    a few hundred items, then atomically appends to one of a pool of
    bounded order books and bumps a ledger counter.  A seeded share of
    orders take the ``ELSE`` branch (not enough stock) and a seeded share
    roll back by design (a ledger this node does not own)."""

    name = "orders"
    uri = "http://shop.example"
    nominal_eps = 130.0
    paced_eps = 50.0
    #: The slow workload needs most of the run to reach 1000 latency samples.
    paced_share = 0.8
    labels = frozenset({"order"})
    gap = 0.01
    remote_ledger = "http://bank.example/ledger"
    else_share = 0.1
    rollback_share = 0.05

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.items = 40 if smoke else 300
        self.books = 8
        self.ring = 30
        self.ledgers = 4
        self.history = self.first_input = 30 if smoke else 360
        self.catalogue = {f"K{i:03d}": self.rng.randrange(10, 60)
                          for i in range(self.items)}
        self._rings = [collections.deque() for _ in range(self.books)]

    def program(self) -> str:
        entry = "id[var N], sku[var S], qty[var K]"
        trim = "ALSO DELETE entry{{ id[var E] }} FROM var B"
        return f'''
RULE place-order
ON order{{{{ id[var N], sku[var S], qty[var K], book[var B], drop[var E],
             ledger[var L] }}}}
IF IN "{self.uri}/stock" : stock{{{{ item{{{{ sku[var S], qty[var Q] }}}} }}}}
   AND var Q >= var K
DO TRY
     SEQUENCE
       PERSIST entry{{ {entry}, kind["placed"] }} INTO var B ROOT book
       {trim}
       ALSO REPLACE sold[var Z] IN var L BY sold[add(var Z, var K)]
     END
   ELSETRY
     SEQUENCE
       PERSIST entry{{ {entry}, kind["refused"] }} INTO var B ROOT book
       {trim}
     END
   END
ELSE SEQUENCE
       PERSIST entry{{ {entry}, kind["backorder"] }} INTO var B ROOT book
       {trim}
       ALSO RAISE TO "{SINK}" backorder{{ id[var N], sku[var S] }}
     END
'''

    def next_spec(self, index: int) -> tuple:
        rng = self.rng
        sku = f"K{rng.randrange(self.items):03d}"
        roll = rng.random()
        if roll < self.else_share:
            qty = self.catalogue[sku] + rng.randrange(1, 5)
        else:
            qty = rng.randrange(1, 6)
        if roll >= 1.0 - self.rollback_share:
            ledger = self.remote_ledger
        else:
            ledger = f"{self.uri}/ledger-{rng.randrange(self.ledgers)}"
        book = rng.randrange(self.books)
        ring = self._rings[book]
        drop = ring.popleft() if len(ring) == self.ring else -1
        ring.append(index)
        return index, sku, qty, f"{self.uri}/book-{book}", drop, ledger

    def term(self, spec: tuple):
        index, sku, qty, book, drop, ledger = spec
        return d("order", d("id", index), d("sku", sku), d("qty", qty),
                 d("book", book), d("drop", drop), d("ledger", ledger),
                 ordered=False)

    def initial_documents(self) -> dict:
        docs = {f"{self.uri}/stock": u("stock", *(
            u("item", d("sku", sku), d("qty", qty))
            for sku, qty in self.catalogue.items()))}
        for book in range(self.books):
            docs[f"{self.uri}/book-{book}"] = u("book")
        for ledger in range(self.ledgers):
            docs[f"{self.uri}/ledger-{ledger}"] = u("ledger", d("sold", 0))
        return docs

    def _config(self, path: str) -> EngineConfig:
        return EngineConfig(store=StoreConfig(backend="wal", path=path))

    def prepare(self, workdir: str) -> None:
        """Write the seeded history through the code under test."""
        super().prepare(workdir)
        self.extend(self.history)
        setup = self._open(os.path.join(workdir, "history"), seed_docs=True)
        for at, spec in self.inputs[:self.history]:
            setup.sim.run_until(at)
            setup.node.raise_local(self.term(spec))
        setup.sim.run_until(self.inputs[self.history - 1][0] + 1.0)
        setup.node.close()

    def _open(self, path: str, seed_docs: bool = False) -> Setup:
        sim = Simulation()
        node = sim.reactive_node(self.uri, self._config(path))
        setup = Setup(self, sim, node)
        if seed_docs:
            for uri, root in self.initial_documents().items():
                node.put(uri, root)
        node.install(self.rules_text)
        setup.path = path
        return setup

    def stage(self, workdir: str, rep: int) -> None:
        path = os.path.join(workdir, f"node-{rep}")
        shutil.rmtree(path, ignore_errors=True)
        shutil.copytree(os.path.join(workdir, "history"), path)

    def setup(self, workdir: str, rep: int) -> Setup:
        """Reopen (recover) a copy of the history store, install, and
        deliver the replayed commits, as a restarted node does."""
        setup = self._open(os.path.join(workdir, f"node-{rep}"))
        setup.node.deliver_replayed()
        return setup

    def reference(self, n: int):
        """The expected documents after the first *n* inputs (history
        included), computed from the inputs alone."""
        books = [[] for _ in range(self.books)]
        sold = collections.Counter()
        backorders = 0
        for _at, (index, sku, qty, book_uri, drop, ledger) in self.inputs[:n]:
            book = int(book_uri.rsplit("-", 1)[1])
            if self.catalogue[sku] < qty:
                kind = "backorder"
                backorders += index >= self.history
            elif ledger == self.remote_ledger:
                kind = "refused"
            else:
                kind = "placed"
                sold[ledger] += qty
            books[book] = [e for e in books[book] if e[0] != drop]
            books[book].append((index, sku, qty, kind))
        docs = self.initial_documents()
        for book, entries in enumerate(books):
            docs[f"{self.uri}/book-{book}"] = u("book", *(
                u("entry", d("id", n_), d("sku", s), d("qty", q), d("kind", k))
                for n_, s, q, k in entries))
        for ledger in range(self.ledgers):
            uri = f"{self.uri}/ledger-{ledger}"
            docs[uri] = u("ledger", d("sold", sold[uri]))
        return {"documents": docs, "backorders": backorders}

    def observe(self, setup: Setup, n: int):
        live = {uri: setup.node.get(uri) for uri in self.initial_documents()}
        setup.node.close()
        reopened = self._open(setup.path)
        recovered = {uri: reopened.node.get(uri)
                     for uri in self.initial_documents()}
        reopened.node.close()
        return {"live": live, "recovered": recovered,
                "backorders": setup.sink_events}

    def compare(self, expected, observed) -> list[str]:
        problems = []
        want = expected["documents"]
        for view in ("live", "recovered"):
            wrong = sorted(uri for uri in want
                           if observed[view].get(uri) != want[uri])
            if wrong:
                problems.append(f"orders: {view} documents differ from the "
                                f"reference ledger: {', '.join(wrong)}")
        if observed["backorders"] != expected["backorders"]:
            problems.append(f"orders: sink got {observed['backorders']} "
                            f"backorders, expected {expected['backorders']}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Ticker, Cep, Orders)}
