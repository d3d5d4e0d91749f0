"""Span recording, self-time arithmetic and Chrome-trace round trips."""

import threading

import pytest

from spans import Tracer, covered, load, self_times


def span(sid, start, end, parent=None, name="s"):
    return (sid, name, start, end, parent, 0, {})


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([(-5, 2)], 0, 10) == 2
    assert covered([(2, 3), (2, 3)], 0, 10) == 1
    assert covered([], 0, 10) == 0


def test_self_time_with_overlapping_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 3.0, 6.0, parent=1),  # overlaps span 2
        span(4, 8.0, 12.0, parent=1),  # runs past the parent's end
        span(5, 1.5, 2.0, parent=2),  # grandchild: not the parent's child
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(0.5)


def test_tracer_nesting_counts_and_round_trip(tmp_path):
    tracer = Tracer()
    outer = tracer.begin("sim.run")
    inner = tracer.begin("inner")
    tracer.bump("sim.run", "events", 5)
    tracer.bump("missing", "events", 1)  # no such open span: ignored
    tracer.end(inner)
    tracer.end(outer)
    tracer.event("serve.admit", ticket=1)
    tracer.meta["import_repro_s"] = 1.5

    seen = []

    def worker():
        handle = tracer.begin("thread")
        seen.append(handle[1])  # parent id in the thread
        tracer.end(handle)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=5)
    assert not t.is_alive()
    assert seen == [None]

    path = tmp_path / "trace.json"
    tracer.write(str(path))
    spans, events, meta = load(str(path))
    by_name = {s[1]: s for s in spans}
    assert by_name["inner"][4] == by_name["sim.run"][0]
    assert by_name["sim.run"][6] == {"events": 5}
    assert by_name["sim.run"][2] <= by_name["inner"][2]
    assert by_name["inner"][3] <= by_name["sim.run"][3]
    assert events[0][1:] == ("serve.admit", {"ticket": 1})
    assert meta == {"import_repro_s": 1.5}
