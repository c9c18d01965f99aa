"""Broadcast channel: propagation, causality, trace export and read-back."""
import json
import math
import pickle
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from trace_oracle import assert_same_trace, reference_jsonl

from gdbsim.core import SPEED_OF_LIGHT, load_scenario
from gdbsim.proto.base import start_run
from gdbsim.proto.runner import run_scenario
from gdbsim.scenarios import on_circle, oneway_scenario
from gdbsim.simkit import (
    PHASES,
    SEND_SLACK_S,
    BroadcastChannel,
    CausalityViolation,
    Emission,
    Trace,
    TraceFormatError,
)
from gdbsim.threat import GuessAhead

GOLDEN = Path(__file__).parent / "golden"

POSITIONS = {1: (0.0, 0.0), 2: (300.0, 0.0), 3: (0.0, 400.0)}


def make_channel(offsets=None):
    return BroadcastChannel(POSITIONS, c=SPEED_OF_LIGHT, offsets=offsets)


def test_arrival_is_distance_over_c():
    chan = make_channel()
    seq = chan.broadcast(1, 0.0, "beacon", "pre")
    assert chan.arrival_true(seq, 2) == pytest.approx(300.0 / SPEED_OF_LIGHT, rel=0, abs=1e-18)
    assert chan.arrival_true(seq, 3) == pytest.approx(400.0 / SPEED_OF_LIGHT, rel=0, abs=1e-18)


def test_sender_does_not_hear_itself():
    chan = make_channel()
    seq = chan.broadcast(1, 0.0, "beacon", "pre")
    with pytest.raises(KeyError):
        chan.arrival_true(seq, 1)


def test_local_readings_add_offset():
    chan = make_channel(offsets={1: 0.0, 2: 0.25, 3: 0.0})
    seq = chan.broadcast(1, 0.0, "beacon", "pre")
    true_t = chan.arrival_true(seq, 2)
    assert chan.trace.offsets[2] == 0.25
    assert chan.trace.local_arrivals([seq], [2])[0, 0] == true_t + 0.25


def test_tof_is_symmetric():
    chan = make_channel()
    assert chan.tof(2, 3) == chan.tof(3, 2)
    assert chan.tof(2, 3) * SPEED_OF_LIGHT == pytest.approx(500.0)


coords = st.floats(min_value=-1e4, max_value=1e4, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(coords, coords), min_size=3, max_size=257),
       c=st.sampled_from([SPEED_OF_LIGHT, 1.0, 7.0]) | st.floats(1e-3, 1e9))
def test_every_flight_is_hypot_over_c_to_the_bit(points, c):
    """Every Trace.tof entry is math.hypot(xa - xb, ya - yb) / c, compared by float.hex,
    and the diagonal is 0.0; placements may repeat."""
    chan = BroadcastChannel({k + 1: p for k, p in enumerate(points)}, c=c)
    tof = chan.trace.tof
    want = [[0.0 if a == b else math.hypot(xa - xb, ya - yb) / c
             for b, (xb, yb) in enumerate(points)] for a, (xa, ya) in enumerate(points)]
    assert [list(map(float.hex, row)) for row in tof] == [list(map(float.hex, row))
                                                          for row in want]


def test_unknown_phase_rejected():
    chan = make_channel()
    with pytest.raises(ValueError, match="phase"):
        chan.broadcast(1, 0.0, "beacon", "setup")


def asked(prover_policy=None):
    """A one-way run's context and the seq of node 1's challenge, at 0.0, to node 2."""
    ctx = start_run(oneway_scenario(prover_policy=prover_policy))
    return ctx, ctx.channel.trace.append(1, 0.0, "challenge", "rapid", b"", 1)


def reply(ctx, seq, t, t_trigger, guess=False):
    """Node 2's reply to message seq, timed at t through emit: the t_send of its row."""
    return ctx.channel.trace.t_send[
        ctx.emit(2, t, "response", b"", 1, seq, t_trigger, guess=guess)]


def test_reply_before_arrival_is_a_violation():
    ctx, seq = asked()
    t_trigger = ctx.channel.arrival_true(seq, 2)
    with pytest.raises(CausalityViolation):
        reply(ctx, seq, t_trigger * 0.5, t_trigger)
    assert ctx.channel.trace.count() == 1 and 2 not in ctx.channel.last_send


def test_reply_to_its_own_message_is_a_key_error():
    """A node reading its own message's arrival, as a reply's trigger, gets a KeyError."""
    chan = make_channel()
    seq = chan.broadcast(1, 0.0, "challenge", "rapid")
    with pytest.raises(KeyError) as got:
        chan.trace.arrival_true(seq, 1)
    assert got.value.args == ("node 1 sent message 0, it does not receive it",)
    assert len(chan.trace.emissions) == 1


def test_causality_slack_is_exact_to_the_ulp():
    """A reply may precede its trigger's arrival by SEND_SLACK_S and no more;
    a refused one writes no row and no last send."""
    ctx, seq = asked()
    t_trigger = ctx.channel.arrival_true(seq, 2)
    too_soon = math.nextafter(t_trigger - SEND_SLACK_S, -math.inf)
    with pytest.raises(CausalityViolation) as got:
        reply(ctx, seq, too_soon, t_trigger)
    assert str(got.value) == f"node 2 sends at {too_soon} before message 0 arrives at {t_trigger}"
    assert 2 not in ctx.channel.last_send
    assert ctx.channel.trace.count() == 1
    assert reply(ctx, seq, t_trigger - SEND_SLACK_S, t_trigger) == t_trigger - SEND_SLACK_S
    assert ctx.channel.last_send[2] == t_trigger - SEND_SLACK_S


def test_reply_at_arrival_is_allowed():
    ctx, seq = asked()
    t = ctx.channel.arrival_true(seq, 2)
    assert reply(ctx, seq, t, t) == t


def test_a_guessed_reply_skips_the_trigger_check():
    # a guessing prover answers before the challenge arrives; its row carries the true time
    ctx, seq = asked(GuessAhead(p_rounds=1, advance_s=1e-7))
    t_trigger = ctx.channel.arrival_true(seq, 2)
    assert reply(ctx, seq, t_trigger, t_trigger, True) == t_trigger - 1e-7


def test_own_sends_must_not_go_backwards():
    chan = make_channel()
    chan.broadcast(1, 1.0, "beacon", "pre")
    with pytest.raises(CausalityViolation):
        chan.broadcast(1, 0.5, "beacon", "pre")


def test_broadcast_returns_the_seq_as_an_int():
    chan = make_channel()
    seqs = [chan.broadcast(1, 0.0, "commit", "pre"), chan.broadcast(2, 1.0, "commit", "pre")]
    assert seqs == [0, 1] and all(type(seq) is int for seq in seqs)
    assert [em.seq for em in chan.trace.emissions] == seqs


def test_reach_is_the_numpy_row_max_for_every_node():
    chan = BroadcastChannel({1: (0.0, 0.0), 2: (3.0, 4.0), 3: (-6.0, 8.0), 4: (3.0, 4.0)}, c=7.0)
    for k, node in enumerate(chan.trace.node_ids):
        want = float(chan.trace.tof_array[k].max())
        assert chan.reach(node) == want
        assert chan.reach(node) == want  # memoised, same value
    assert chan.reach() == float(chan.trace.tof_array.max())


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
    chan.trace.append(1, 0.0, "beacon", "pre", b"x", None)
    chan.trace.append(2, 5e-7, "beacon", "pre", b"", 3)
    lines = chan.trace.to_jsonl().splitlines()
    rows = [json.loads(line) for line in lines]
    # the meta line, then one line per emission in seq order; no arrival lines
    assert len(rows) == 3
    assert [json.dumps(r, sort_keys=True) for r in rows] == lines
    assert rows[0]["trace_format"] == 2
    assert rows[0]["tof"] == chan.trace.tof
    assert rows[1:] == [
        {"kind": "beacon", "payload": "78", "phase": "pre", "round_index": None,
         "sender": 1, "seq": 0, "t_send": 0.0},
        {"kind": "beacon", "payload": "", "phase": "pre", "round_index": 3,
         "sender": 2, "seq": 1, "t_send": 5e-7},
    ]
    for r in rows[1:]:
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
    assert chan.tof(1, 2) * s.config.c == pytest.approx(90.0)
    assert chan.tof(1, 2) == pytest.approx(90.0 / s.config.c)


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
        sender = draw(st.sampled_from(chan.trace.node_ids))
        if chan.trace.sender and draw(st.booleans()):
            # send at the instant an earlier message arrives somewhere
            prev = draw(st.integers(0, len(chan.trace.sender) - 1))
            at = draw(st.sampled_from([r for r in chan.trace.node_ids
                                       if r != chan.trace.sender[prev]]))
            t = chan.arrival_true(prev, at)
        else:
            t = draw(st.sampled_from(INSTANTS))
        chan.trace.append(sender, t, draw(st.sampled_from(("beacon", "challenge", "response"))),
                          draw(st.sampled_from(PHASES)), draw(st.binary(max_size=3)), None)
    return chan.trace


@settings(max_examples=300, deadline=None)
@example(trace=BroadcastChannel({1: (0.0, 0.0), 2: (1.0, 0.0)}, c=1.0).trace)
@given(trace=tied_traces())
def test_jsonl_matches_reference_export(trace):
    text = trace.to_jsonl()
    assert text.count("\n") == 1 + len(trace.emissions)
    copy = Trace.from_jsonl(text)
    assert_same_trace(copy, trace)
    assert reference_jsonl(copy) == reference_jsonl(trace)
    assert copy.to_jsonl() == text


GOLDEN_NAMES = sorted(p.stem for p in GOLDEN.glob("*.json") if p.name != "digests.json")


@lru_cache(maxsize=None)
def golden_trace(name):
    return run_scenario(load_scenario(str(GOLDEN / f"{name}.json"))).trace


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_trace_reads_back(name):
    trace = golden_trace(name)
    copy = Trace.from_jsonl(trace.to_jsonl())
    assert_same_trace(copy, trace)
    assert reference_jsonl(copy) == reference_jsonl(trace)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_count_equals_a_row_by_row_count(name):
    trace = golden_trace(name)
    for phase in (None, *PHASES):
        for kind in (None, *sorted(set(trace.kind))):
            rows = sum(1 for em in trace.emissions if (phase is None or em.phase == phase)
                       and (kind is None or em.kind == kind))
            assert trace.count(phase, kind) == rows, (phase, kind)


def test_emission_rows_are_a_view_of_the_columns():
    trace = golden_trace("oneway")
    rows = trace.emissions
    n = len(trace.sender)
    assert len(rows) == n == 11
    assert rows[4] == Emission(4, trace.sender[4], trace.t_send[4], trace.kind[4],
                               trace.phase[4], trace.payload[4], trace.round_index[4])
    assert rows[-1] == rows[n - 1] and rows[-1].seq == n - 1 and rows[-n] == rows[0]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[bad]
    assert [em.seq for em in rows] == list(range(n))
    assert list(rows) == [rows[k] for k in range(n)]
    assert rows == list(rows) and rows == Trace.from_jsonl(trace.to_jsonl()).emissions
    assert rows != list(rows)[:-1]
    assert pickle.loads(pickle.dumps(rows)) == rows


def test_emissions_equal_no_non_sequence_and_repr_as_their_list():
    """Against anything but Emissions, a list or a tuple, == defers (NotImplemented) and
    so reads False; repr spells the rows' list."""
    rows = golden_trace("oneway").emissions
    assert rows.__eq__({em.seq: em for em in rows}) is NotImplemented
    assert (rows == 11) is False and (rows != "rows") is True
    assert rows == tuple(rows)
    assert repr(rows) == f"Emissions({list(rows)!r})"
    assert repr(rows).startswith("Emissions([Emission(seq=0, sender=")


bounds = st.none() | st.integers(-12, 12)


@settings(max_examples=200, deadline=None)
@given(trace=tied_traces(), i=st.builds(slice, bounds, bounds,
                                       st.none() | st.integers(-4, 4).filter(bool)))
def test_emissions_slice_as_their_list_does(trace, i):
    """Every slice of Trace.emissions, negative and out-of-range bounds and
    steps included, is the list of rows the same slice of the rows' list is."""
    got = trace.emissions[i]
    assert type(got) is list and all(type(em) is Emission for em in got)
    assert got == list(trace.emissions)[i]


def test_slotted_emissions_pickle_and_read_back_equal():
    trace = run_scenario(load_scenario(str(GOLDEN / "oneway_relay.json"))).trace
    assert not hasattr(trace.emissions[0], "__dict__")
    for copy in (pickle.loads(pickle.dumps(trace)), Trace.from_jsonl(trace.to_jsonl())):
        assert_same_trace(copy, trace)


@pytest.fixture(scope="module")
def golden_lines():
    """The mpnv_8x8 golden trace's format-2 lines: 16 nodes, 536 emissions."""
    trace = run_scenario(load_scenario(str(GOLDEN / "mpnv_8x8.json"))).trace
    return trace.to_jsonl().splitlines()


def _edit(line, **changes):
    return json.dumps({**json.loads(line), **changes}, sort_keys=True)


def _reject(lines, match):
    with pytest.raises(TraceFormatError, match=match):
        Trace.from_jsonl("\n".join(lines) + "\n")


def test_reader_rejects_a_format_1_trace(golden_lines):
    meta = json.loads(golden_lines[0])
    format1 = {k: meta[k] for k in ("kind", "node_ids", "offsets")}
    _reject([json.dumps(format1, sort_keys=True)] + golden_lines[1:],
            r"^line 1: no trace_format, so this is a format-1 trace; "
            r"it holds neither bit-exact flight times nor payloads")


def test_reader_rejects_an_unknown_format(golden_lines):
    _reject([_edit(golden_lines[0], trace_format=3)] + golden_lines[1:],
            r"^line 1: unknown trace_format 3")


def test_reader_rejects_a_seq_out_of_order(golden_lines):
    lines = list(golden_lines)
    lines[5], lines[6] = lines[6], lines[5]
    _reject(lines, r"^line 6: seq 5 where 4 was due")


def test_reader_rejects_a_missing_seq(golden_lines):
    _reject(golden_lines[:9] + golden_lines[10:], r"^line 10: seq 9 where 8 was due")


def test_reader_rejects_a_tof_of_the_wrong_shape(golden_lines):
    meta = json.loads(golden_lines[0])
    short_row = [row[:-1] if i == 2 else row for i, row in enumerate(meta["tof"])]
    for tof in (meta["tof"][:-1], short_row):
        _reject([_edit(golden_lines[0], tof=tof)] + golden_lines[1:],
                r"^line 1: tof is not 16 x 16")


def test_reader_rejects_an_unknown_sender(golden_lines):
    lines = list(golden_lines)
    lines[3] = _edit(lines[3], sender=999)
    _reject(lines, r"^line 4: sender 999 is not in node_ids")


@pytest.fixture(scope="module")
def oneway_lines():
    """The oneway golden trace's format-2 lines: nodes 1, 2 and 9, 11 emissions."""
    return golden_trace("oneway").to_jsonl().splitlines()


@pytest.mark.parametrize("field, value, match", [
    ("t_send", "x", r"t_send 'x' is not a finite number"),
    ("t_send", math.nan, r"t_send nan is not a finite number"),
    ("t_send", math.inf, r"t_send inf is not a finite number"),
    ("phase", "warp", r"phase 'warp' is not one of pre, rapid, post, report"),
    ("kind", 7, r"kind 7 is not a string"),
    ("round_index", "r", r"round_index 'r' is not an integer or null"),
    ("sender", True, r"sender True is not an integer"),
])
def test_reader_rejects_a_wrong_typed_emission_field(oneway_lines, field, value, match):
    lines = list(oneway_lines)
    lines[5] = _edit(lines[5], **{field: value})
    _reject(lines, "^line 6: " + match)


def _meta_edit(lines, edit):
    meta = json.loads(lines[0])
    edit(meta)
    return [json.dumps(meta, sort_keys=True)] + lines[1:]


@pytest.mark.parametrize("edit, match", [
    (lambda meta: meta["offsets"].update({"2": "zero"}),
     r"offset 'zero' of node 2 is not a finite number"),
    (lambda meta: meta["tof"][0].__setitem__(1, "1e-7"),
     r"tof entry '1e-7' is not a finite number"),
    (lambda meta: meta["tof"][2].__setitem__(0, math.nan), r"tof entry nan is not a finite number"),
    (lambda meta: meta["node_ids"].__setitem__(0, True),
     r"node id True in node_ids is not an integer"),
    (lambda meta: meta.update(kind="emission"), r"the first line is not a meta record$"),
    (lambda meta: meta.pop("tof"), r"bad meta record: KeyError\('tof'\)$"),
    (lambda meta: meta.update(offsets=[0.0, 0.0, 0.0]), r"bad meta record: AttributeError"),
    (lambda meta: meta.update(node_ids=7), r"bad meta record: TypeError"),
], ids=["offset-string", "tof-string", "tof-nan", "node-id-bool", "kind-not-meta", "no-tof",
        "offsets-a-list", "node-ids-a-number"])
def test_reader_rejects_a_wrong_typed_meta_field(oneway_lines, edit, match):
    _reject(_meta_edit(oneway_lines, edit), "^line 1: " + match)


def _rekey(old, new):
    """A meta edit that moves node old's offset to the key new."""
    return lambda meta: meta["offsets"].__setitem__(new, meta["offsets"].pop(old))


@pytest.mark.parametrize("edit", [
    lambda meta: meta["offsets"].pop("9"),
    lambda meta: meta["offsets"].update({"4": 0.5}),
    # keys that int() reads as a node id but that are not its decimal text
    lambda meta: meta["offsets"].update({"01": meta["offsets"]["1"]}),
    _rekey("1", "01"),
    _rekey("1", " 1"),
    _rekey("9", "+9"),
], ids=["missing", "extra", "zero-padded-twin", "zero-padded", "space", "plus-sign"])
def test_reader_rejects_offsets_not_naming_every_node(oneway_lines, edit):
    _reject(_meta_edit(oneway_lines, edit),
            r"^line 1: offsets do not name exactly the nodes in node_ids")


def test_integer_flight_times_read_back_as_floats():
    """A meta line's integer flights read back as floats and write back as 0.0 and 1.0."""
    chan = BroadcastChannel({1: (0.0, 0.0), 2: (1.0, 0.0)}, c=1.0)
    chan.broadcast(1, 0.0, "beacon", "pre")
    text = chan.trace.to_jsonl()
    assert '"tof": [[0.0, 1.0], [1.0, 0.0]]' in text
    lines = _meta_edit(text.splitlines(), lambda meta: meta.update(tof=[[0, 1], [1, 0]]))
    assert '"tof": [[0, 1], [1, 0]]' in lines[0]
    copy = Trace.from_jsonl("\n".join(lines) + "\n")
    assert [[(repr(f), type(f)) for f in row] for row in copy.tof] == \
        [[("0.0", float), ("1.0", float)], [("1.0", float), ("0.0", float)]]
    assert copy.to_jsonl() == text
    assert_same_trace(copy, chan.trace)


def test_reader_rejects_a_duplicated_node_id(oneway_lines):
    _reject(_meta_edit(oneway_lines, lambda meta: meta["node_ids"].__setitem__(2, 2)),
            r"^line 1: node id 2 appears twice in node_ids")


def test_reader_rejects_json_nested_too_deep_as_a_bad_line(golden_lines):
    """Nesting past the JSON decoder's recursion limit names its line, as bad JSON does."""
    with pytest.raises(TraceFormatError, match=r"^line 1: not JSON: maximum recursion depth"):
        Trace.from_jsonl("[" * 5000)
    _reject(golden_lines[:2] + ["[" * 5000 + "]" * 5000] + golden_lines[3:],
            r"^line 3: not JSON: maximum recursion depth")


def test_reader_rejects_malformed_lines(golden_lines):
    with pytest.raises(TraceFormatError, match=r"^line 1: not JSON"):
        Trace.from_jsonl("")
    _reject(golden_lines[:2] + ["{"] + golden_lines[3:], r"^line 3: not JSON")
    _reject(golden_lines[:2] + ["[1]"], r"^line 3: not a JSON object")
    lines = list(golden_lines)
    lines[2] = json.dumps({k: v for k, v in json.loads(lines[2]).items() if k != "payload"})
    _reject(lines, r"^line 3: bad emission record")
