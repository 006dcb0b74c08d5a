"""Tests for the simulated physical device layer."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.rfid import (
    MovementScript,
    NoiseModel,
    RfidSimulator,
    decode_epc,
    default_retail_layout,
    encode_epc,
    is_valid_epc,
)
from repro.rfid.layout import AreaKind, StoreLayout
from repro.rfid.tags import EPC_MEMO_SIZE, parse_epc


class TestEpc:
    @given(st.integers(min_value=0, max_value=9_999_999_999))
    def test_roundtrip(self, tag_id):
        epc = encode_epc(tag_id)
        assert is_valid_epc(epc)
        assert decode_epc(epc) == tag_id

    @given(st.integers(min_value=0, max_value=9_999_999),
           st.integers(min_value=1, max_value=14))
    def test_truncation_detected(self, tag_id, cut):
        epc = encode_epc(tag_id)
        truncated = epc[:len(epc) - cut]
        assert not is_valid_epc(truncated)

    def test_corrupted_digit_usually_detected(self):
        epc = encode_epc(1234)
        # flip one serial digit; the positional checksum must notice
        corrupted = epc[:5] + ("9" if epc[5] != "9" else "1") + epc[6:]
        assert not is_valid_epc(corrupted)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_epc(-1)
        with pytest.raises(ValueError):
            encode_epc(10**10)

    def test_decode_invalid_raises(self):
        with pytest.raises(ValueError):
            decode_epc("garbage")


class TestEpcMemo:
    def test_malformed_reads_never_grow_the_memo_past_its_bound(self):
        parse_epc.cache_clear()
        for index in range(EPC_MEMO_SIZE + 500):
            truncated = f"EPC{index:09d}"      # one serial digit short
            bad_check = f"EPC{index:010d}99"   # checksums are mod 97
            assert parse_epc(truncated) is None
            assert parse_epc(bad_check) is None
            assert parse_epc.cache_info().currsize <= EPC_MEMO_SIZE
        assert parse_epc.cache_info().currsize == EPC_MEMO_SIZE

    def test_memo_answers_like_the_parser(self):
        parse_epc.cache_clear()
        rng = random.Random(5)
        noise = NoiseModel(truncate_rate=0.5)
        for tag_id in range(300):
            epc = encode_epc(tag_id * 7919)
            for variant in (epc, epc[:-1], noise.corrupt_epc(epc, rng),
                            epc.replace("EPC", "XPC")):
                for _ in range(2):   # first call fills, second hits
                    assert parse_epc(variant) == \
                        parse_epc.__wrapped__(variant)
        assert parse_epc.cache_info().hits >= 4 * 300


class TestLayout:
    def test_default_retail_layout(self):
        layout = default_retail_layout()
        assert len(layout.areas) == 4
        assert len(layout.readers) == 4
        assert layout.shelf_ids() == [1, 2]
        assert layout.area_of_reader("R4").kind is AreaKind.EXIT

    def test_redundant_reader(self):
        layout = default_retail_layout(redundant_exit_reader=True)
        assert len(layout.readers_in_area(4)) == 2

    def test_duplicate_area_rejected(self):
        layout = StoreLayout()
        layout.add_area(1, AreaKind.SHELF, "s")
        with pytest.raises(SimulationError):
            layout.add_area(1, AreaKind.EXIT, "e")

    def test_reader_needs_existing_area(self):
        layout = StoreLayout()
        with pytest.raises(SimulationError, match="unknown area"):
            layout.add_reader("R1", 5)

    def test_unknown_reader(self):
        with pytest.raises(SimulationError, match="unknown reader"):
            default_retail_layout().area_of_reader("R99")


class TestNoiseModel:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(miss_rate=1.5)

    def test_perfect_never_fires(self):
        noise = NoiseModel.perfect()
        rng = random.Random(0)
        assert not any(noise.drops_reading(rng) or
                       noise.duplicates_reading(rng) or
                       noise.truncates_id(rng) or noise.emits_ghost(rng)
                       for _ in range(200))

    def test_corrupt_epc_is_invalid(self):
        noise = NoiseModel.harsh()
        rng = random.Random(1)
        for _ in range(20):
            assert not is_valid_epc(noise.corrupt_epc(encode_epc(5), rng))


class TestSimulator:
    def test_scan_reads_present_tags(self):
        simulator = RfidSimulator(default_retail_layout())
        simulator.place(100, 1)
        simulator.place(101, 3)
        readings = simulator.scan(5.0)
        observed = {(decode_epc(r.epc), r.reader_id) for r in readings}
        assert observed == {(100, "R1"), (101, "R3")}
        assert all(r.time == 5.0 for r in readings)

    def test_remove_stops_readings(self):
        simulator = RfidSimulator(default_retail_layout())
        simulator.place(100, 1)
        simulator.remove(100)
        assert simulator.scan(1.0) == []
        assert simulator.position_of(100) is None

    def test_place_unknown_area(self):
        simulator = RfidSimulator(default_retail_layout())
        with pytest.raises(SimulationError):
            simulator.place(100, 99)

    def test_script_moves_applied_in_order(self):
        script = MovementScript()
        script.move(0.0, 100, 1)
        script.move(2.0, 100, 3)
        script.remove(4.0, 100)
        simulator = RfidSimulator(default_retail_layout())
        by_time = {}
        for time, readings in simulator.run_script(script, until=5.0):
            by_time[time] = {(decode_epc(r.epc), r.reader_id)
                             for r in readings}
        assert by_time[0.0] == {(100, "R1")}
        assert by_time[1.0] == {(100, "R1")}
        assert by_time[2.0] == {(100, "R3")}
        assert by_time[4.0] == set()

    def test_script_end_time(self):
        script = MovementScript()
        script.move(3.0, 1, 1)
        assert script.end_time == 3.0
        assert len(script) == 1

    def test_duplicates_from_redundant_readers(self):
        layout = default_retail_layout(redundant_exit_reader=True)
        simulator = RfidSimulator(layout)
        simulator.place(100, 4)
        readings = simulator.scan(1.0)
        assert len(readings) == 2  # both exit antennas

    def test_noise_produces_invalid_epcs(self):
        simulator = RfidSimulator(
            default_retail_layout(),
            NoiseModel(miss_rate=0, duplicate_rate=0, truncate_rate=1.0,
                       ghost_rate=0), seed=3)
        simulator.place(100, 1)
        readings = simulator.scan(1.0)
        assert readings and not is_valid_epc(readings[0].epc)

    def test_scan_interval_validation(self):
        with pytest.raises(SimulationError):
            RfidSimulator(default_retail_layout(), scan_interval=0)

    def test_deterministic_with_seed(self):
        def run(seed):
            simulator = RfidSimulator(default_retail_layout(),
                                      NoiseModel.harsh(), seed=seed)
            simulator.place(100, 1)
            return [(r.epc, r.reader_id) for r in simulator.scan(1.0)]
        assert run(5) == run(5)
