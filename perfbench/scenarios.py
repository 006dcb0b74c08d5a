"""The four benchmark workloads: their inputs and the systems they drive.

Inputs are generated from the seed before any timing starts.  The
system is then driven only through its public entry points:
``SaseSystem.process_tick`` for the retail workloads and
``ComplexEventProcessor.feed_batch`` for the keyed ones.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.plan import PlanConfig
from repro.persist.config import PersistenceConfig
from repro.rfid.layout import AreaKind
from repro.rfid.noise import NoiseModel
from repro.rfid.tags import decode_epc, is_valid_epc
from repro.sharding.config import ShardingConfig
from repro.system.processor import ComplexEventProcessor
from repro.system.sase import SaseSystem
from repro.workloads.retail import (
    LOCATION_UPDATE_RULE,
    MISPLACED_INVENTORY_QUERY,
    SHOPLIFTING_QUERY,
    RetailConfig,
    RetailScenario,
)
from repro.workloads.synthetic import SyntheticConfig, SyntheticStream

#: The noisy readers of the E20a / ``repro demo`` shape.
RETAIL_NOISE = NoiseModel(miss_rate=0.1, duplicate_rate=0.1,
                          truncate_rate=0.02, ghost_rate=0.01)
READING_TYPES = ("SHELF_READING", "COUNTER_READING", "EXIT_READING")

KEYED_QUERIES = (
    ("pair", "EVENT SEQ(A x, B y) WHERE x.id = y.id WITHIN 10 "
     "RETURN x.id"),
    ("kleene", "EVENT SEQ(A a, B+ b) WHERE a.id = b.id WITHIN 10 "
     "RETURN a.id, COUNT(b)"),
)
KEYED_BATCH = 64
#: The store day of the retail workloads: E20a's scenario.  A day's cost
#: and latency tail hinge on when its five shoplifters pick their items,
#: so the day is fixed and ``--seed`` draws the readers' noise.
RETAIL_STORE_SEED = 7
#: The keyed input lasts this share of ``--seconds`` at the offered rate.
KEYED_PACED_SHARE = 0.12


@dataclass
class Inputs:
    """A run's pre-generated input units.  ``sizes`` counts items per
    unit (readings or events); ``unit_end`` is the last event timestamp
    of each keyed batch, for locating a result's last contributing event;
    ``truth`` holds the tags each retail query should detect, and
    ``track`` the result attribute naming the tag."""

    payloads: list
    sizes: list[int]
    source: Any                # the RetailScenario, or the keyed registry
    record: dict[str, int]
    unit_end: list[float] | None = None
    truth: dict[str, set] = field(default_factory=dict)
    track: dict[str, str] = field(default_factory=dict)

    def locate(self, result: Any, delivered: int) -> int:
        """The unit carrying *result*'s last contributing event."""
        return min(bisect.bisect_left(self.unit_end, result.end), delivered)


class Harness:
    """One built system and the calls the benchmark makes on it."""

    def __init__(self, processor: ComplexEventProcessor,
                 system: SaseSystem | None = None):
        self.processor = processor
        self.system = system
        # Looked up on every call, so span recorders installed on the
        # instances after construction see these calls too.
        if system is not None:
            self.ingest: Callable[[Any], list] = \
                lambda payload: system.process_tick(*payload)
        else:
            self.ingest = lambda batch: processor.feed_batch(batch)

    def finish(self) -> list:
        """End of stream: flush, and seal the logs when durable."""
        pairs = self.processor.flush()
        persistence = self.system.persistence \
            if self.system is not None else None
        if persistence is not None:
            pairs = pairs + persistence.finalize()
        return pairs

    def close(self) -> None:
        (self.system or self.processor).close()


@dataclass(frozen=True)
class Workload:
    name: str
    rate: float                 # offered items per second, paced pass
    keyed: bool
    durable: bool = False
    sharded: bool = False
    reference: str | None = None   # workload whose output must match

    def generate(self, seed: int, seconds: int) -> Inputs:
        if self.keyed:
            return _keyed_inputs(seed, int(self.rate * seconds
                                           * KEYED_PACED_SHARE))
        return _retail_inputs(seed)

    def build(self, inputs: Inputs, data_dir: str) -> Harness:
        """Build the system and register its queries (and recover the
        empty data directory when durable)."""
        if self.keyed:
            sharding = ShardingConfig(
                shards=2, backend="process", transport="ring",
                batch_size=KEYED_BATCH) if self.sharded else None
            processor = ComplexEventProcessor(
                inputs.source, config=PlanConfig(), sharding=sharding)
            for name, text in KEYED_QUERIES:
                processor.register(name, text)
            return Harness(processor)
        scenario = inputs.source
        persistence = PersistenceConfig(data_dir=data_dir) \
            if self.durable else None
        system = SaseSystem(scenario.layout, scenario.ons,
                            persistence=persistence)
        system.register_monitoring_query("shoplifting", SHOPLIFTING_QUERY)
        system.register_monitoring_query("misplaced",
                                         MISPLACED_INVENTORY_QUERY)
        for event_type in READING_TYPES:
            system.register_archiving_rule(f"loc_{event_type}",
                                           LOCATION_UPDATE_RULE(event_type))
        if persistence is not None:
            os.makedirs(data_dir, exist_ok=True)
            system.recover()
        return Harness(system.processor, system)


def _retail_inputs(seed: int) -> Inputs:
    scenario = RetailScenario.generate(RetailConfig(
        n_products=60, n_shoppers=20, n_shoplifters=5, n_misplacements=5,
        seed=RETAIL_STORE_SEED))
    simulator = scenario.simulator(RETAIL_NOISE, seed=seed)
    ticks = [(readings, now) for now, readings
             in simulator.run_script(scenario.script, until=scenario.end_time)]
    sizes = [len(readings) for readings, _ in ticks]
    truth = observable_truth(scenario, ticks)
    lost = len(truth["shoplifting"] ^ scenario.truth.shoplifted_tags()) \
        + len(truth["misplaced"] ^ scenario.truth.misplaced_tags())
    return Inputs(
        payloads=ticks, sizes=sizes, source=scenario,
        record={"ticks": len(ticks), "readings": sum(sizes),
                "incidents_without_evidence": lost},
        truth=truth,
        track={"shoplifting": "x_TagId", "misplaced": "x_TagId"})


def observable_truth(scenario: RetailScenario, ticks: list) \
        -> dict[str, set]:
    """The scenario's ground truth, as far as the readings kept the
    evidence.  The noisy readers can lose every read of an item at a
    place: a purchase whose counter reads were all missed or truncated
    is, in the input, a shoplifting, and a shoplifter whose exit reads
    were all lost never left.  Each incident counts only when a valid
    read shows it."""
    layout = scenario.layout
    seen: dict[int, set[AreaKind]] = {}
    wrong_shelf: set[int] = set()
    home = {record.tag_id: record.home_area_id for record in scenario.ons}
    for readings, _ in ticks:
        for reading in readings:
            if not is_valid_epc(reading.epc):
                continue
            tag = decode_epc(reading.epc)
            area = layout.area_of_reader(reading.reader_id)
            seen.setdefault(tag, set()).add(area.kind)
            if area.kind is AreaKind.SHELF and tag in home \
                    and area.area_id != home[tag]:
                wrong_shelf.add(tag)
    truth = scenario.truth
    candidates = truth.shoplifted_tags() | truth.purchased_tags()
    return {
        "shoplifting": {tag for tag in candidates
                        if AreaKind.EXIT in seen.get(tag, ())
                        and AreaKind.COUNTER not in seen[tag]},
        "misplaced": truth.misplaced_tags() & wrong_shelf,
    }


def _keyed_inputs(seed: int, n_events: int) -> Inputs:
    stream = SyntheticStream.generate(SyntheticConfig(
        n_events=n_events, n_types=3, id_domain=64, v_domain=10,
        mean_gap=1.0, seed=seed))
    events = stream.events
    batches = [events[start:start + KEYED_BATCH]
               for start in range(0, len(events), KEYED_BATCH)]
    return Inputs(
        payloads=batches, sizes=[len(batch) for batch in batches],
        source=stream.registry,
        record={"batches": len(batches), "events": len(events)},
        unit_end=[batch[-1].timestamp for batch in batches])


WORKLOADS = {workload.name: workload for workload in (
    Workload("retail", rate=5_000.0, keyed=False),
    Workload("retail-durable", rate=5_000.0, keyed=False, durable=True,
             reference="retail"),
    Workload("keyed", rate=15_000.0, keyed=True),
    Workload("keyed-sharded", rate=15_000.0, keyed=True, sharded=True,
             reference="keyed"),
)}
