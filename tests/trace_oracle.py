"""Trace format 1, kept as a test oracle, and trace equality.

Format 1 wrote a meta line without flight times, then every emission and
every arrival as one JSON object per line, ordered by (time, seq,
receiver) with an emission ahead of its own arrivals and payloads
replaced by their sha256.  gdbsim now writes format 2 (one line per
emission); expanding the trace that format 2 reads back into format 1
must still give the bytes the golden corpus pinned for format 1.
"""
import hashlib
import json


def reference_jsonl(trace) -> str:
    """The format-1 export as one dict per emission and per arrival, sorted, then dumped."""
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


def assert_same_trace(copy, trace) -> None:
    """copy holds trace's nodes, offsets, flight times and emissions, floats bit for bit.

    repr is the shortest text that reads back as the same float, so equal
    reprs mean equal bits, -0.0 apart from 0.0 included; the flight
    times are compared row by row, each entry's repr and type.
    """
    assert copy.node_ids == trace.node_ids
    assert {k: repr(v) for k, v in copy.offsets.items()} == \
        {k: repr(v) for k, v in trace.offsets.items()}
    assert [[(repr(f), type(f)) for f in row] for row in copy.tof] == \
        [[(repr(f), type(f)) for f in row] for row in trace.tof]
    assert copy.emissions == trace.emissions
    assert [repr(em.t_send) for em in copy.emissions] == \
        [repr(em.t_send) for em in trace.emissions]
