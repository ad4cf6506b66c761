import json
import threading
import time

from tracing import Tracer


def test_self_time_excludes_children_and_threads_keep_their_own_parents(tmp_path):
    tracer = Tracer("t")

    def other_thread():
        with tracer.span("other"):
            pass

    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(5)
        assert not worker.is_alive()
        with tracer.span("inner"):
            time.sleep(0.02)
    totals = tracer.totals()
    count, total, own = totals["outer"]
    inner_count, inner_total, _ = totals["inner"]
    assert (count, inner_count) == (1, 2)
    assert abs(own - (total - inner_total)) < 1e-9
    parents = {name: parent for name, _, _, parent in tracer.spans}
    assert parents == {"outer": None, "inner": 0, "other": None}

    path = tmp_path / "trace.json"
    tracer.write(str(path))
    written = json.loads(path.read_text())
    assert [s["name"] for s in written["spans"]] == ["outer", "inner", "other", "inner"]
    assert {s["run"] for s in written["spans"]} == {"t"}
    assert written["summary"]["inner"]["count"] == 2
