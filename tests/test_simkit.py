"""Broadcast channel: propagation, causality, trace export."""
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdbsim import simkit
from gdbsim.core import SPEED_OF_LIGHT, load_scenario
from gdbsim.proto.base import start_run
from gdbsim.proto.runner import run_scenario
from gdbsim.scenarios import on_circle, oneway_scenario
from gdbsim.simkit import PHASES, BroadcastChannel, CausalityViolation

POSITIONS = {1: (0.0, 0.0), 2: (300.0, 0.0), 3: (0.0, 400.0)}


def make_channel(offsets=None):
    return BroadcastChannel(POSITIONS, c=SPEED_OF_LIGHT, offsets=offsets)


def test_arrival_is_distance_over_c():
    chan = make_channel()
    em = chan.broadcast(1, 0.0, "beacon", "pre")
    assert chan.arrival_true(em.seq, 2) == pytest.approx(300.0 / SPEED_OF_LIGHT, rel=0, abs=1e-18)
    assert chan.arrival_true(em.seq, 3) == pytest.approx(400.0 / SPEED_OF_LIGHT, rel=0, abs=1e-18)


def test_sender_does_not_hear_itself():
    chan = make_channel()
    em = chan.broadcast(1, 0.0, "beacon", "pre")
    with pytest.raises(KeyError):
        chan.arrival_true(em.seq, 1)


def test_local_readings_add_offset():
    chan = make_channel(offsets={1: 0.0, 2: 0.25, 3: 0.0})
    em = chan.broadcast(1, 0.0, "beacon", "pre")
    true_t = chan.arrival_true(em.seq, 2)
    assert chan.arrival_local(em.seq, 2) == pytest.approx(true_t + 0.25)


def test_tof_is_symmetric():
    chan = make_channel()
    assert chan.tof(2, 3) == chan.tof(3, 2)
    assert chan.dist(2, 3) == pytest.approx(500.0)


def test_unknown_phase_rejected():
    chan = make_channel()
    with pytest.raises(ValueError, match="phase"):
        chan.broadcast(1, 0.0, "beacon", "setup")


def test_reply_before_arrival_is_a_violation():
    chan = make_channel()
    em = chan.broadcast(1, 0.0, "challenge", "rapid")
    too_soon = chan.arrival_true(em.seq, 2) * 0.5
    with pytest.raises(CausalityViolation):
        chan.broadcast(2, too_soon, "response", "rapid", after=em.seq)


def test_reply_at_arrival_is_allowed():
    chan = make_channel()
    em = chan.broadcast(1, 0.0, "challenge", "rapid")
    t = chan.arrival_true(em.seq, 2)
    chan.broadcast(2, t, "response", "rapid", after=em.seq)


def test_allow_early_bypasses_the_check():
    # adversarial sends opt out explicitly; the trace still records truth
    chan = make_channel()
    em = chan.broadcast(1, 0.0, "challenge", "rapid")
    early = chan.arrival_true(em.seq, 2) * 0.5
    em2 = chan.broadcast(2, early, "response", "rapid", after=em.seq, allow_early=True)
    assert em2.t_send == early


def test_own_sends_must_not_go_backwards():
    chan = make_channel()
    chan.broadcast(1, 1.0, "beacon", "pre")
    with pytest.raises(CausalityViolation):
        chan.broadcast(1, 0.5, "beacon", "pre")


def test_in_order_holds_a_send_back_to_the_last_one():
    chan = make_channel()
    assert chan.in_order(1, 0.5) == 0.5
    chan.broadcast(1, 1.0, "beacon", "pre")
    assert chan.in_order(1, 0.5) == 1.0
    assert chan.in_order(1, 1.0 - 1e-16) == 1.0 - 1e-16  # inside the float slack
    assert chan.in_order(2, 0.5) == 0.5


def test_trace_counts_by_phase_and_kind():
    chan = make_channel()
    chan.broadcast(1, 0.0, "commit", "pre")
    chan.broadcast(1, 1.0, "challenge", "rapid")
    chan.broadcast(2, 2.0, "response", "rapid")
    chan.broadcast(1, 3.0, "open", "post")
    assert chan.trace.count() == 4
    assert chan.trace.count(phase="rapid") == 2
    assert chan.trace.count(phase="rapid", kind="response") == 1
    assert chan.trace.count(kind="commit") == 1


def test_records_are_json_safe_and_ordered():
    chan = make_channel()
    chan.broadcast(1, 0.0, "beacon", "pre", payload=b"x")
    chan.broadcast(2, 5e-7, "beacon", "pre")
    rows = [json.loads(line) for line in chan.trace.to_jsonl().splitlines()[1:]]
    # 2 sends + 2 arrivals each
    assert len(rows) == 6
    times = [r["t_send"] if r["t_arrive"] is None else r["t_arrive"] for r in rows]
    assert times == sorted(times)
    for r in rows:
        assert type(r["t_send"]) is float


def test_jsonl_repeats_exactly():
    s = oneway_scenario(n=3, seed=12)

    def dump() -> str:
        return run_scenario(s).trace.to_jsonl()

    first = dump()
    assert dump() == first
    meta = json.loads(first.splitlines()[0])
    assert meta["kind"] == "meta"
    assert meta["node_ids"] == [1, 2]


def test_different_seed_different_trace():
    a = run_scenario(oneway_scenario(n=3, seed=1)).trace.to_jsonl()
    b = run_scenario(oneway_scenario(n=3, seed=2)).trace.to_jsonl()
    assert a != b


def test_run_channel_uses_config_speed():
    s = oneway_scenario()
    chan = start_run(s).channel
    assert chan.dist(1, 2) == pytest.approx(90.0)
    assert chan.tof(1, 2) == pytest.approx(90.0 / s.config.c)


def reference_jsonl(trace) -> str:
    """The export as one dict per emission and per arrival, sorted, then dumped."""
    rows = []
    for em in trace.emissions:
        common = {
            "payload_digest": hashlib.sha256(em.payload).hexdigest(),
            "seq": em.seq,
            "sender": em.sender,
            "t_send": em.t_send,
        }
        rows.append(((em.t_send, em.seq, 0, 0),
                     {**common, "kind": em.kind, "receiver": None, "t_arrive": None}))
        for r in trace.node_ids:
            if r != em.sender:
                t = trace.arrival_true(em.seq, r)
                rows.append(((t, em.seq, 1, r),
                             {**common, "kind": "arrival", "receiver": r, "t_arrive": t}))
    rows.sort(key=lambda row: row[0])
    meta = {
        "kind": "meta",
        "node_ids": list(trace.node_ids),
        "offsets": {str(k): v for k, v in sorted(trace.offsets.items())},
    }
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in [meta] + [r for _, r in rows])


# With c = 1 the integer layouts have exact flight times, so sends on the
# shared instants below tie with each other and with arrivals.
TIE_LAYOUTS = (
    [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],      # square
    [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)],      # collinear, equal spacing
    [on_circle(k, 6, 1.0) for k in range(6)],              # regular hexagon
    [(0.0, 0.0), (0.0, 0.0), (3.0, 4.0)],                  # zero flight time
)
INSTANTS = (0.0, 0.5, 1.0, 2.0, 3.0)


@st.composite
def tied_traces(draw):
    pts = draw(st.sampled_from(TIE_LAYOUTS))
    ids = draw(st.lists(st.integers(-3, 40), min_size=len(pts), max_size=len(pts), unique=True))
    offsets = {i: draw(st.sampled_from((0.0, 0.25, -1e-9))) for i in ids}
    chan = BroadcastChannel(dict(zip(ids, pts)), c=1.0, offsets=offsets)
    for _ in range(draw(st.integers(0, 10))):
        sender = draw(st.sampled_from(chan.node_ids))
        if chan.trace.emissions and draw(st.booleans()):
            # send at the instant an earlier message arrives somewhere
            prev = draw(st.sampled_from(chan.trace.emissions))
            at = draw(st.sampled_from([r for r in chan.node_ids if r != prev.sender]))
            t = chan.arrival_true(prev.seq, at)
        else:
            t = draw(st.sampled_from(INSTANTS))
        chan.broadcast(sender, t, draw(st.sampled_from(("beacon", "challenge", "response"))),
                       draw(st.sampled_from(PHASES)), payload=draw(st.binary(max_size=3)),
                       allow_early=True)
    return chan.trace


@settings(max_examples=300, deadline=None)
@example(trace=BroadcastChannel({1: (0.0, 0.0), 2: (1.0, 0.0)}, c=1.0).trace)
@given(trace=tied_traces())
def test_jsonl_matches_reference_export(trace):
    text = trace.to_jsonl()
    assert text == reference_jsonl(trace)
    assert text.count("\n") == 1 + len(trace.emissions) * len(trace.node_ids)


@pytest.fixture(scope="module")
def mpnv_8x8_trace():
    path = Path(__file__).parent / "golden" / "mpnv_8x8.json"
    return run_scenario(load_scenario(str(path))).trace


@pytest.mark.parametrize("chunk_lines", [1, 2, 7, simkit.EXPORT_CHUNK_LINES])
def test_export_is_the_same_at_every_chunk_size(mpnv_8x8_trace, monkeypatch, chunk_lines):
    trace = mpnv_8x8_trace
    monkeypatch.setattr(simkit, "EXPORT_CHUNK_LINES", chunk_lines)
    chunks = list(trace.jsonl_chunks())
    lines = len(trace.emissions) * len(trace.node_ids)
    assert lines > chunk_lines    # every setting crosses a chunk boundary
    assert len(chunks) == 1 + -(-lines // chunk_lines)    # the meta line, then the lines
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert [chunk.count("\n") for chunk in chunks[1:-1]] == [chunk_lines] * (len(chunks) - 2)
    assert "".join(chunks) == trace.to_jsonl() == reference_jsonl(trace)
