"""Column-backed traces: every producer returns checked columns, and a
trace builds its ``Request`` list only when something reads it."""

from __future__ import annotations

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.sim import build_policy, simulate
from repro.traces import packed as packed_module
from repro.traces import (
    PackedTrace,
    Request,
    Trace,
    generate_production_trace,
    irm_trace,
    syn_one_trace,
    syn_two_trace,
)
from repro.traces.loader import load_trace_csv, save_trace_csv
from repro.workloads.scenarios import ScenarioConfig, generate_trace


def digest(trace: Trace) -> str:
    """Times, ids, sizes and indices (values and Python types), name and
    metadata of ``trace``, read through its ``Request`` records."""
    h = hashlib.sha256()
    requests = list(trace)
    for field, dtype in (
        ("time", np.float64),
        ("obj_id", np.int64),
        ("size", np.int64),
        ("index", np.int64),
    ):
        values = [getattr(req, field) for req in requests]
        h.update(np.array(values, dtype=dtype).tobytes())
        h.update(repr(sorted({type(v).__name__ for v in values})).encode())
    h.update(repr(trace.name).encode())
    h.update(json.dumps(trace.metadata, sort_keys=True, default=repr).encode())
    return h.hexdigest()[:20]


def _csv_round_trip(tmp_path) -> Trace:
    path = tmp_path / "rt.csv"
    save_trace_csv(generate_production_trace("cdn-b", scale=0.001, seed=8), path)
    return load_trace_csv(path, name="csv-rt")


PRODUCERS = {
    **{
        f"{spec}-{scale}-{seed}": (
            lambda tmp, spec=spec, scale=scale, seed=seed: generate_production_trace(
                spec, scale=scale, seed=seed
            )
        )
        for spec in ("cdn-a", "cdn-b", "cdn-c", "wiki")
        for scale in (0.001, 0.004)
        for seed in (1, 2)
    },
    "irm": lambda tmp: irm_trace(2000, 300, alpha=0.8, seed=3),
    "irm-equal": lambda tmp: irm_trace(
        1500, 100, equal_size=4096, seed=4, name="irm-eq"
    ),
    "syn-one": lambda tmp: syn_one_trace(3000, 200, requests_per_state=700, seed=5),
    "syn-two": lambda tmp: syn_two_trace(3000, 200, requests_per_state=500, seed=6),
    "scenario": lambda tmp: generate_trace(ScenarioConfig.make("flash-crowd", 3000, 7)),
    "csv": _csv_round_trip,
}

#: ``digest`` of each producer's trace, recorded when every producer still
#: built its ``Request`` list one request at a time.
ORACLE = {
    "cdn-a-0.001-1": "e9382eedd5ae5850cf0e",
    "cdn-a-0.001-2": "0c9dae6320b5e421a182",
    "cdn-a-0.004-1": "7add657c1485dff15897",
    "cdn-a-0.004-2": "0c48acd8b291f637ff4f",
    "cdn-b-0.001-1": "629159ec9c97656ec79f",
    "cdn-b-0.001-2": "c3add3583f0d31c98833",
    "cdn-b-0.004-1": "674d44cc7290475f99cb",
    "cdn-b-0.004-2": "7ee795b3a21d4c223e8a",
    "cdn-c-0.001-1": "d5215c51f94938ae4e69",
    "cdn-c-0.001-2": "8aed317b1d2dc98f4071",
    "cdn-c-0.004-1": "b4e793c1951763cade05",
    "cdn-c-0.004-2": "a6fcde84b53dd7768746",
    "wiki-0.001-1": "5fe80851482281c7e476",
    "wiki-0.001-2": "58a0fa35fddd265fbbb0",
    "wiki-0.004-1": "754cb1931fed8f1831b8",
    "wiki-0.004-2": "f644354cfadfc3dbcaa1",
    "irm": "bbba8ae13dc6c8c260b9",
    "irm-equal": "20203168097971ec9d84",
    "syn-one": "ef6bea5d57c1ef6cc0f0",
    "syn-two": "0d99e99a77f9ce4fdd4b",
    "scenario": "c55a880c654bf6694913",
    "csv": "10e84f9c04b42465c522",
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_producer_matches_oracle(name, tmp_path):
    trace = PRODUCERS[name](tmp_path)
    assert trace.columns is not None, "producers return an unread trace"
    assert digest(trace) == ORACLE[name]
    assert trace.columns is None


def _fresh() -> Trace:
    return generate_production_trace("cdn-a", scale=0.002, seed=5)


def _listed() -> Trace:
    """The same trace, read as requests."""
    trace = _fresh()
    trace.requests
    assert trace.columns is None
    return trace


class TestUnreadReplay:
    @pytest.mark.parametrize("policy", ["lru", "lhr"])
    def test_simulate_leaves_the_trace_unread(self, policy):
        trace = _fresh()
        capacity = max(trace.unique_bytes() // 20, 1)
        result = simulate(build_policy(policy, capacity), trace)
        assert trace.columns is not None
        reference = simulate(build_policy(policy, capacity), _listed())
        assert result.counters() == reference.counters()

    def test_from_trace_hands_back_the_columns_unchecked(self, monkeypatch):
        trace = _fresh()
        held = trace.columns
        monkeypatch.setattr(
            packed_module, "checked_columns", pytest.fail, raising=True
        )
        packed = PackedTrace.from_trace(trace)
        assert trace.columns is held
        for column in ("times", "obj_ids", "sizes"):
            assert getattr(packed, column) is getattr(held, column)
        assert (packed.name, packed.metadata) == (trace.name, trace.metadata)
        assert packed.metadata is not trace.metadata

    def test_from_trace_of_unread_equals_packing_its_list(self):
        unread = PackedTrace.from_trace(_fresh())
        listed = PackedTrace.from_trace(_listed())
        for column in ("times", "obj_ids", "sizes"):
            left, right = getattr(unread, column), getattr(listed, column)
            assert left.dtype == right.dtype
            np.testing.assert_array_equal(left, right)
        assert (unread.name, unread.metadata) == (listed.name, listed.metadata)

    def test_from_trace_follows_name_and_metadata_edits(self):
        trace = _fresh()
        trace.name = "renamed"
        trace.metadata["note"] = 1
        packed = PackedTrace.from_trace(trace)
        assert packed.name == "renamed" and packed.metadata["note"] == 1
        assert trace.columns is not None


class TestReadTrace:
    def test_edited_list_is_what_packs(self):
        trace = _fresh()
        first = trace.requests[0]
        trace.requests[0] = Request(first.time, 10**9, 123, 0)
        trace.requests.append(Request(trace.requests[-1].time + 1.0, 7, 9, len(trace)))
        packed = PackedTrace.from_trace(trace)
        assert len(packed) == len(trace) == 1 + len(_fresh())
        assert (packed.obj_ids[0], packed.sizes[0]) == (10**9, 123)
        assert (packed.obj_ids[-1], packed.sizes[-1]) == (7, 9)

    def test_assigned_list_is_what_packs(self):
        trace = _fresh()
        trace.requests = [Request(0.0, 1, 5, 0), Request(1.0, 2, 6, 1)]
        assert trace.columns is None
        assert PackedTrace.from_trace(trace).sizes.tolist() == [5, 6]

    @pytest.mark.parametrize(
        "read",
        [
            lambda t: t.requests,
            lambda t: list(t),
            lambda t: t[0],
            lambda t: t[1:3],
            lambda t: t == _listed(),
        ],
        ids=["requests", "iter", "index", "slice", "eq-with-list"],
    )
    def test_each_read_builds_the_list_once(self, read):
        trace = _fresh()
        read(trace)
        assert trace.columns is None
        requests = trace.requests
        assert requests is trace.requests
        assert [req.index for req in requests] == list(range(len(trace)))


class TestQueriesReadColumns:
    @pytest.mark.parametrize(
        "query",
        [
            len,
            lambda t: t.duration,
            lambda t: t.total_bytes(),
            lambda t: list(t.unique_contents().items()),
            lambda t: t.unique_bytes(),
            lambda t: (t.name, t.metadata),
        ],
        ids=[
            "len", "duration", "total_bytes", "unique_contents", "unique_bytes", "meta"
        ],
    )
    def test_agrees_with_the_list_path(self, query):
        trace = _fresh()
        assert query(trace) == query(_listed())
        assert trace.columns is not None

    def test_unique_contents_keeps_first_order_and_last_size(self):
        trace = PackedTrace.from_arrays(
            [0.0, 1.0, 2.0, 3.0], [5, 3, 5, 9], [10, 20, 30, 40]
        ).unpack()
        assert list(trace.unique_contents().items()) == [(5, 30), (3, 20), (9, 40)]
        assert trace.unique_bytes() == 90
        assert trace.columns is not None

    def test_total_bytes_does_not_wrap(self):
        trace = PackedTrace.from_arrays([0.0, 1.0], [1, 2], [2**62, 2**62]).unpack()
        assert trace.total_bytes() == 2**63
        assert trace.unique_bytes() == 2**63
        assert trace.columns is not None

    @pytest.mark.parametrize("count", [0, 1])
    def test_short_trace_duration(self, count):
        ones = [1] * count
        trace = PackedTrace.from_arrays([5.0] * count, ones, ones).unpack()
        assert trace.duration == 0.0
        assert len(trace) == count

    def test_pickle_ships_columns(self):
        trace = _fresh()
        clone = pickle.loads(pickle.dumps(trace))
        assert trace.columns is not None and clone.columns is not None
        assert clone == trace
        assert clone.columns is not None
        assert clone == _listed()
        listed_clone = pickle.loads(pickle.dumps(_listed()))
        assert listed_clone.columns is None and listed_clone == _listed()

    def test_eq_between_unread_traces_reads_columns(self):
        left, right = _fresh(), _fresh()
        assert left == right
        assert left.columns is not None and right.columns is not None
        times = right.columns.times.copy()
        times[-1] += 1.0
        moved = PackedTrace(
            times, right.columns.obj_ids, right.columns.sizes, right.name,
            dict(right.metadata),
        ).unpack()
        assert left != moved
        renamed = _fresh()
        renamed.name = "other"
        assert left != renamed
        assert left.columns is not None

    def test_eq_with_other_types(self):
        assert _fresh() != list(_listed())
        assert (_fresh() == object()) is False

    def test_repr_reads_nothing(self):
        trace = _fresh()
        assert repr(trace).startswith("Trace(name='cdn-a', requests=")
        assert trace.columns is not None
