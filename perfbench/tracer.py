"""Spans around every call into a public function of the rfw modules.

The benchmark installs these from outside the library: ``Tracer.install``
replaces each public function of ``rfw.words``, ``rfw.wordset``,
``rfw.inflation``, ``rfw.factors`` and ``rfw.cli`` (and the public methods of
``WordSet``, plus ``Word.parse`` and ``Word.render``) with a wrapper, in every
module that holds a reference to it.  The other ``Word`` and ``PrngHandle``
methods are leaves called tens of millions of times per run; a span there
would cost more than the work, so their time is their caller's self time.

A span records its self time (its wall time minus that of the spans it
encloses), its self CPU time, its calls and the process's RSS high-water mark
when it ends.  A call that re-enters the span it is already in (a method
calling its packed-array helper of the same name) adds to the open span.
Some spans add counts: items in and out of a dedup, bytes of an export,
candidates projected by the F_n window union.
"""

from __future__ import annotations

import functools
import inspect
import resource
from time import perf_counter, process_time

# Public functions whose span is not simply "<module>.<function>".  The
# packed-array helpers share the span of the WordSet method they implement.
ALIASES = {
    "wordset.product_packed": "wordset.product",
    "wordset.union_packed": "wordset.union",
    "wordset.slice_packed": "wordset.slices",
    "wordset.reverse_packed": "wordset.reverse",
    "wordset.WordSet.__init__": "wordset.canonicalize",
    "wordset.WordSet.from_packed": "wordset.canonicalize",
}

WORDSET_METHODS = ("__init__", "from_packed", "union", "intersection", "issubset",
                   "product", "slices", "reverse", "write_text", "read_text",
                   "write_binary", "read_binary")
WORD_METHODS = ("parse", "render")

FN_SPAN = "factors.factor_set_Fn"
_BINARY_HEADER = 10


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- counts recorded by particular spans --------------------------------------
# Each takes (tracer, args, result, wall, counts so far) and returns counts to add.


def _note_canonicalize(tracer, args, result, wall, counts):
    if result is None:  # WordSet.__init__(self, length, words)
        out = len(args[0])
        words = args[2] if len(args) > 2 else ()
        return {"items_in": len(words) if hasattr(words, "__len__") else out,
                "items_out": out}
    return {"items_in": len(args[2]), "items_out": len(result)}  # from_packed(cls, length, packed)


def _note_product(tracer, args, result, wall, counts):
    tracer.add_to_open(FN_SPAN, "candidates", len(args[0]) * len(args[1]))
    return {}


def _note_factor_set(tracer, args, result, wall, counts):
    s, ell = args[0], args[1]
    windows = len(s) * (s.length - ell + 1)
    tracer.add_to_open(FN_SPAN, "candidates", windows)
    return {"items_in": windows, "items_out": len(result)}


def _note_factor_set_Fn(tracer, args, result, wall, counts):
    # Only calls that built the set count; a cache hit projects nothing.
    return {"items_out": len(result)} if counts.get("candidates") else {}


def _note_enumerate(tracer, args, result, wall, counts):
    return {"n9_s" if args[0] == 9 else "le8_s": wall}


def _text_bytes(ws):
    return len(ws) * (ws.length + 1)


_NOTES = {
    "wordset.canonicalize": _note_canonicalize,
    "wordset.product": _note_product,
    "factors.factor_set": _note_factor_set,
    FN_SPAN: _note_factor_set_Fn,
    "inflation.enumerate_A": _note_enumerate,
    "wordset.write_text": lambda t, a, r, w, c: {"bytes": _text_bytes(a[0])},
    "wordset.read_text": lambda t, a, r, w, c: {"bytes": _text_bytes(r)},
    "wordset.write_binary": lambda t, a, r, w, c: {"bytes": _BINARY_HEADER + 8 * len(a[0])},
    "wordset.read_binary": lambda t, a, r, w, c: {"bytes": _BINARY_HEADER + 8 * len(r)},
}


class Tracer:
    """Per-span totals for one process."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        # Open spans, innermost last: [name, child wall, child cpu, counts].
        self.stack: list[list] = []
        # Wall time inside outermost spans.
        self.covered_s = 0.0

    def add_to_open(self, name: str, key: str, value: float) -> None:
        for frame in reversed(self.stack):
            if frame[0] == name:
                frame[3][key] = frame[3].get(key, 0) + value
                return

    def wrap(self, name: str, fn):
        note = _NOTES.get(name)
        stack = self.stack
        skip_canonical = name == "wordset.canonicalize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (stack and stack[-1][0] == name) or (skip_canonical and kwargs.get("canonical")):
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0, {}]
            stack.append(frame)
            t0, c0 = perf_counter(), process_time()
            result = failed = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                wall, cpu = perf_counter() - t0, process_time() - c0
                stack.pop()
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
                else:
                    self.covered_s += wall
                counts = frame[3]
                if note is not None and not failed:
                    counts.update(note(self, args, result, wall, counts))
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = {"s": 0.0, "cpu_s": 0.0, "calls": 0, "rss_mb": 0.0}
                st["s"] += wall - frame[1]
                st["cpu_s"] += cpu - frame[2]
                st["calls"] += 1
                st["rss_mb"] = max(st["rss_mb"], _rss_mb())
                for key, value in counts.items():
                    st[key] = st.get(key, 0) + value

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of the rfw modules wherever they are bound."""
        import rfw
        from rfw import cli, factors, inflation, words, wordset

        modules = {"words": words, "wordset": wordset, "inflation": inflation,
                   "factors": factors, "cli": cli}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = ALIASES.get(f"{short}.{attr}", f"{short}.{attr}")
                if short == "cli" and attr.startswith("cmd_"):
                    name = f"cli.{attr[4:]}"
                wrapped[obj] = self.wrap(name, obj)
        for mod in (*modules.values(), rfw):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for short, cls, methods in (("wordset", wordset.WordSet, WORDSET_METHODS),
                                    ("words", words.Word, WORD_METHODS)):
            for attr in methods:
                raw = vars(cls)[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                qual = f"{short}.{cls.__name__}.{attr}"
                span = self.wrap(ALIASES.get(qual, f"{short}.{attr}"), fn)
                setattr(cls, attr, classmethod(span) if isinstance(raw, classmethod) else span)

    def report(self) -> dict:
        return {"spans": self.stats, "covered_s": self.covered_s}
