"""In-memory span recorder for the traced benchmark run.

The recorder wraps module and class attributes that one layer calls
another through, so nothing inside the package changes.  Each call
through a wrapper records a span: its name, start, end, the span that
was open when it started, and the census row or classified tuple it
serves (the tuple of the outermost enclosing ``classify`` span).  Spans
live in flat arrays and are written out when the stage ends.

A layer's busy time is the summed duration of its outermost spans (a
recursive call inside a span of the same name is not counted twice);
its self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.row = array("q")
        self.rows: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.busy[name] = 0.0
            self._open[name] = 0
        return self._ids[name]

    def _enter(self, name: str, served) -> int:
        nid = self._id(name)
        index = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        if served is not None and (parent < 0 or self.row[parent] < 0):
            row = len(self.rows)
            self.rows.append(served)
        else:
            row = self.row[parent] if parent >= 0 else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.row.append(row)
        self.end.append(0.0)
        self._stack.append(index)
        self.calls[name] += 1
        self._open[name] += 1
        self.start.append(time.perf_counter())
        return index

    def _exit(self, name: str, index: int) -> None:
        end = time.perf_counter()
        self.end[index] = end
        self._stack.pop()
        self._open[name] -= 1
        if self._open[name] == 0:
            self.busy[name] += end - self.start[index]

    def wrap(self, owner, attribute: str, name: str, *, serves_first_arg: bool = False,
             on_result=None) -> None:
        """Replace ``owner.attribute`` with a recording wrapper.

        ``serves_first_arg`` marks the first positional argument as the
        tuple the span serves; ``on_result(tracer, result)`` observes
        return values (used to count memo hits).
        """
        original = getattr(owner, attribute)
        enter, leave = self._enter, self._exit
        self._id(name)

        def wrapper(*args, **kwargs):
            index = enter(name, args[0] if serves_first_arg and args else None)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(name, index)
            if on_result is not None:
                on_result(self, result)
            return result

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def count(self, counter: str) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + 1

    def unwrap(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def self_times(self) -> array:
        """Self time of every span: its duration minus its children's."""
        durations = array("d", (e - s for s, e in zip(self.start, self.end)))
        own = array("d", durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def self_time_by_name(self) -> dict[str, float]:
        totals = dict.fromkeys(self.names, 0.0)
        for nid, value in zip(self.name, self.self_times()):
            totals[self.names[nid]] += value
        return totals

    def write(self, directory: Path, stem: str) -> None:
        """Write the spans as flat binary arrays plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = {"name": self.name, "start": self.start, "end": self.end,
                  "parent": self.parent, "row": self.row}
        for field, values in fields.items():
            with open(directory / f"{stem}.{field}.bin", "wb") as handle:
                values.tofile(handle)
        index = {
            "names": self.names,
            "spans": len(self.start),
            "typecodes": {field: values.typecode for field, values in fields.items()},
            "rows": self.rows,
        }
        (directory / f"{stem}.json").write_text(json.dumps(index), encoding="utf-8")
