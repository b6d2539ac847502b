from spans import NullRecorder, Recorder, Span, coverage, self_times, summarise, union_length


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_record_parent_and_self_time():
    clock = Clock()
    rec = Recorder(clock)
    with rec.span("outer", ideal="4:"):
        clock.now = 1.0
        with rec.span("inner"):
            clock.now = 3.0
        clock.now = 4.0
        with rec.span("inner"):
            with rec.span("leaf"):
                clock.now = 4.5
            clock.now = 5.0
        clock.now = 6.0
    outer, first, second, leaf = rec.spans
    assert (outer.parent, first.parent, second.parent, leaf.parent) == (None, 0, 0, 2)
    assert outer.ideal == "4:" and first.ideal is None
    assert self_times(rec.spans) == [3.0, 2.0, 0.5, 0.5]
    table = summarise(rec.spans)
    assert table["inner"] == {"calls": 2, "busy_s": 3.0, "self_s": 2.5}
    assert table["outer"]["self_s"] == 3.0


def test_overlapping_children_are_subtracted_once():
    spans = [
        Span("parent", 0.0, 10.0, None, None),
        Span("a", 1.0, 5.0, 0, None),
        Span("b", 3.0, 7.0, 0, None),
        Span("c", 9.0, 12.0, 0, None),  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_union_and_coverage():
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    assert union_length([]) == 0.0
    spans = [Span("x", 1.0, 2.0, None, None), Span("y", 1.5, 1.8, 0, None), Span("z", 3.0, 4.0, None, None)]
    assert coverage(spans, 0.0, 4.0) == 0.5


def test_call_returns_the_result_and_records_even_on_error():
    rec = Recorder()
    assert rec.call("add", lambda a, b: a + b, 2, 3) == 5
    try:
        rec.call("boom", lambda: 1 / 0)
    except ZeroDivisionError:
        pass
    assert [s.name for s in rec.spans] == ["add", "boom"]
    assert all(s.end >= s.start for s in rec.spans)
    assert NullRecorder().call("add", lambda a, b: a + b, 2, 3) == 5
