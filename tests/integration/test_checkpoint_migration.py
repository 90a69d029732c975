"""Format-4 checkpoints written by the previous build still boot.

``tests/fixtures/checkpoint_v4`` holds what the format-4 build wrote:
one plain JSON document per algorithm (its ``save_sampler`` output),
and a process-backend state dir (2 shards, WSD-H/triangle, slabbed
vertices) whose shard files are frame-1 JSON. ``expected.json`` records
that build's own continuation of each after the cut, so a restore here
must continue bit-identically — and the first checkpoint after the
migration writes format 5.
"""

import json
import shutil
import struct
import zlib
from pathlib import Path

import pytest

from repro.graph.generators import powerlaw_cluster
from repro.graph.stream import EventBlock
from repro.samplers.checkpoint import (
    load_sampler,
    restore_sampler,
    state_from_wire,
)
from repro.streams.scenarios import light_deletion_stream
from repro.streams.service import StreamSession
from repro.weights.heuristic import GPSHeuristicWeight

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "checkpoint_v4"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())


def _document_stream(name: str) -> list:
    edges = powerlaw_cluster(80, m=3, triangle_probability=0.7, rng=11)
    events = light_deletion_stream(edges, beta_l=0.3, rng=12)
    if name == "gps-triangle":
        return [e for e in events if e.is_insertion]
    return list(events)


def _weight_fn(name: str):
    return GPSHeuristicWeight() if name.startswith("gps") else None


def _frame_v1(payload: bytes) -> bytes:
    return struct.pack(
        "<4sBxxxIQ", b"RPCK", 1, zlib.crc32(payload), len(payload)
    ) + payload


@pytest.mark.parametrize("name", sorted(EXPECTED["documents"]))
class TestFormat4Documents:
    def _continue(self, sampler, name):
        events = _document_stream(name)
        for event in events[EXPECTED["cut"]:]:
            sampler.process(event)
        expected = EXPECTED["documents"][name]
        assert sampler.estimate == float.fromhex(expected["estimate"])
        assert sampler.time == expected["time"]
        assert sampler.sample_size == expected["sample_size"]

    def test_json_file_continues_bit_identically(self, name):
        sampler = load_sampler(FIXTURES / f"{name}.json", _weight_fn(name))
        self._continue(sampler, name)

    def test_frame_1_continues_bit_identically(self, name):
        payload = (FIXTURES / f"{name}.json").read_bytes()
        state = state_from_wire(_frame_v1(payload))
        assert state["format"] == 5
        self._continue(restore_sampler(state, _weight_fn(name)), name)


def test_documents_cover_the_format_4_features():
    docs = EXPECTED["documents"]
    assert docs["wsd-l-wedge"]["learned"]
    assert docs["wsd-l-wedge"]["light_inv"] > 0
    assert docs["gps-a-triangle"]["tagged"] > 0
    assert any(doc["slabbed"] > 0 for doc in docs.values())


class TestFormat4StateDir:
    def test_process_state_dir_continues_and_rewrites_as_format_5(
        self, tmp_path
    ):
        shutil.copytree(FIXTURES / "state-dir", tmp_path, dirs_exist_ok=True)
        edges = powerlaw_cluster(60, m=3, triangle_probability=0.6, rng=5)
        events = light_deletion_stream(edges, beta_l=0.2, rng=6)
        info = EXPECTED["state_dir"]
        assert all(count > 0 for count in info["slabbed"])
        session = StreamSession.restore("mig", tmp_path)
        try:
            assert session.options.backend == "process"
            assert session.clock == info["cut"]
            session.ingest(EventBlock.from_events(events[info["cut"]:]))
            assert session.queries.estimate() == float.fromhex(
                info["estimate"]
            )
            session.checkpoint()
        finally:
            session.close()
        directory = tmp_path / "mig"
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["generation"] == 2
        for fname in manifest["shard_files"]:
            blob = (directory / fname).read_bytes()
            assert blob[4] == 2  # frame version 2: format-5 columns
            assert state_from_wire(blob)["format"] == 5
