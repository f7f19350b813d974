import threading

from spans import Span, SpanRecorder, root_names, self_seconds_by_name, self_times_ns


def test_self_time_subtracts_nested_children():
    spans = [
        Span("pass", 0, 100),
        Span("a", 10, 40, parent=0),
        Span("a.inner", 20, 30, parent=1),
        Span("b", 50, 60, parent=0),
    ]
    assert self_times_ns(spans) == [60, 20, 10, 10]


def test_overlapping_children_are_merged_and_clipped():
    spans = [
        Span("pass", 0, 100),
        Span("client", 10, 60, parent=0),
        Span("client", 40, 90, parent=0),
        Span("late", 95, 120, parent=0),  # runs past its parent
    ]
    assert self_times_ns(spans)[0] == 100 - 80 - 5


def test_self_times_sum_to_the_root_duration():
    rec = SpanRecorder()
    with rec.span("bench.pass", task="t"):
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        with rec.span("other"):
            pass
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]
    assert {s.task for s in rec.spans} == {"t"}
    assert sum(self_times_ns(rec.spans)) == rec.spans[0].duration_ns


def test_layers_are_filtered_by_root():
    spans = [
        Span("bench.setup", 0, 10),
        Span("work", 2, 6, parent=0),
        Span("bench.pass", 20, 40),
        Span("work", 22, 30, parent=2),
    ]
    assert root_names(spans) == ["bench.setup"] * 2 + ["bench.pass"] * 2
    by_name = self_seconds_by_name(spans, under="bench.pass")
    assert by_name == {"bench.pass": 12e-9, "work": 8e-9}


def test_threads_keep_their_own_parent_stack():
    rec = SpanRecorder()
    with rec.span("bench.pass") as root:
        def client():
            with rec.span("request", parent=root):
                with rec.span("child"):
                    pass

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    requests = [i for i, s in enumerate(rec.spans) if s.name == "request"]
    children = [s for s in rec.spans if s.name == "child"]
    assert all(rec.spans[i].parent == root for i in requests)
    assert sorted(c.parent for c in children) == sorted(requests)
