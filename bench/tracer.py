"""Spans and counts around the public functions of every facekoszul layer.

`Tracer.install()` replaces each traced function by a wrapper at every place
it is bound: in its own module, in every facekoszul module that imported it
(so `decompose` as bound in `homdims` is caught), and in the package
namespace. A span is (name, start, end, parent); spans live in flat arrays in
memory and are written out once, at the end of a run. Self time is a span's
duration minus the time covered by its child spans.

Counts that say how big the work was (points of an interval, support sizes of
powers, faces found, cache hits) are taken from the wrapped calls' results.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, attribute, span name, post-hook kind)
TARGETS = [
    ("rootsystem", "root_system", "rootsystem.root_system", None),
    ("rootsystem", "to_dominant_signed", "rootsystem.to_dominant_signed", None),
    ("rootsystem", "weyl_dim", "rootsystem.weyl_dim", None),
    ("characters", "irr_character", "characters.irr_character", "distinct"),
    ("characters", "exterior_power", "characters.power", "support"),
    ("characters", "symmetric_power", "characters.power", "support"),
    ("characters", "tensor", "characters.tensor", "support"),
    ("characters", "decompose", "characters.decompose", None),
    ("facegeom", "weight_system", "facegeom.weight_system", None),
    ("facegeom", "lies_on_proper_face", "facegeom.lies_on_proper_face", "face"),
    ("facegeom", "enumerate_face_subsets", "facegeom.enumerate_face_subsets", "faces"),
    ("facegeom", "is_rigid_bruteforce", "facegeom.is_rigid_bruteforce", None),
    ("weightposet", "face_distance", "weightposet.face_distance", None),
    ("weightposet", "face_graded_leq", "weightposet.face_graded_leq", None),
    ("weightposet", "face_interval", "weightposet.face_interval", "points"),
    ("weightposet", "face_downset", "weightposet.face_downset", None),
    ("weightposet", "is_interval_closed", "weightposet.is_interval_closed", None),
    ("weightposet", "interval_coincidence", "weightposet.interval_coincidence", None),
    ("homdims", "ext_dim", "homdims.ext_dim", None),
    ("homdims", "proj_mult", "homdims.proj_mult", None),
    ("homdims", "gldim", "homdims.gldim", None),
    ("homdims", "witness_search", "homdims.witness_search", None),
    ("koszulcheck", "hilbert_projective", "koszulcheck.hilbert_fill", "entries"),
    ("koszulcheck", "hilbert_yoneda_neg", "koszulcheck.hilbert_fill", "entries"),
    ("koszulcheck", "full_report", "koszulcheck.full_report", None),
]
# Methods are bound once, on their class.
METHODS = [
    ("koszulcheck", "PolyMatrix", "matmul", "koszulcheck.matmul", None),
    ("cache", "CharacterCache", "_load", "cache.load", None),
    ("cache", "CharacterCache", "lookup", "cache.lookup", "hit"),
    ("cache", "CharacterCache", "store", "cache.store", None),
    ("cache", "CharacterCache", "flush", "cache.flush", None),
]
# Ext/Hom lookups into homdims' constituent memo, counted but not timed: the
# base of the memo miss ratio. Misses are the calls into `decompose` from homdims.
LOOKUP = "_constituents"


def _modules():
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "facekoszul" or name.startswith("facekoszul."))
    }


class Tracer:
    """The spans and counts of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.distinct: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _post(self, kind, name, args, result) -> None:
        if kind == "distinct":
            self.distinct.add(f"{args[0].key}|{tuple(args[1])}")
        elif kind == "support":
            key = name + ".support_max"
            self.maxima[key] = max(self.maxima.get(key, 0), len(result.mults))
        elif kind == "face":
            self.count(name + ".faces", result is not None)
        elif kind == "faces":
            self.count(name + ".faces", len(result))
        elif kind == "points":
            self.count(name + ".points", len(result))
        elif kind == "entries":
            self.count(name + ".entries", len(result.index) ** 2)
        elif kind == "hit":
            self.count(name + ".hits", result is not None)

    def _wrap(self, fn, name: str, kind, site: str):
        nid = self._id(name)
        stack, names, parents, starts, ends = self._stack, self.name, self.parent, self.start, self.end
        clock = time.perf_counter
        from_homdims = name == "characters.decompose" and site == "facekoszul.homdims"

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if from_homdims:
                self.count("homdims.constituent_misses")
            if kind is not None:
                self._post(kind, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------

    def _set(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        mods = _modules()
        for mod, attr, name, kind in TARGETS:
            orig = getattr(mods["facekoszul." + mod], attr)
            for site, m in mods.items():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, self._wrap(orig, name, kind, site))
        for mod, cls_name, attr, name, kind in METHODS:
            if "facekoszul." + mod not in mods:
                continue
            cls = getattr(mods["facekoszul." + mod], cls_name)
            self._set(cls, attr, self._wrap(vars(cls)[attr], name, kind, mod))
        homdims = mods["facekoszul.homdims"]
        memo = getattr(homdims, LOOKUP)

        def lookup(*args):
            self.count("homdims.constituent_lookups")
            return memo(*args)

        self._set(homdims, LOOKUP, lookup)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    # -- summarising -----------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans before it belong to an earlier phase."""
        return len(self.start)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name: calls, self seconds and longest span, over spans [lo, hi)."""
        return summarize(self.names, self.name, self.parent, self.start, self.end, lo, hi)

    def dump(self, path) -> None:
        """Write the spans, gzipped: a JSON header line (span names, counts,
        maxima, distinct characters), then one line per span:
        name-index parent-index start-us end-us, relative to the tracer's start."""
        header = {"names": self.names, "counts": self.counts, "maxima": self.maxima,
                  "distinct": sorted(self.distinct)}
        t0 = self.t0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name[i]} {self.parent[i]} "
                         f"{round((self.start[i] - t0) * 1e6)} {round((self.end[i] - t0) * 1e6)}\n")


def summarize(names, name, parent, start, end, lo=0, hi=None) -> dict:
    hi = len(start) if hi is None else hi
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            child[p - lo] += end[i] - start[i]
    out: dict[str, dict] = {}
    for i in range(lo, hi):
        dur = end[i] - start[i]
        rec = out.setdefault(names[name[i]], {"calls": 0, "self_s": 0.0, "max_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += dur - child[i - lo]
        rec["max_s"] = max(rec["max_s"], dur)
    return out


def load(path) -> dict:
    """A dumped trace, summarised: span statistics, counts, maxima, distinct."""
    name, parent, start, end = array("i"), array("i"), array("d"), array("d")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        for line in fh:
            n, p, t0, t1 = line.split()
            name.append(int(n))
            parent.append(int(p))
            start.append(int(t0) / 1e6)
            end.append(int(t1) / 1e6)
    return {"spans": summarize(header["names"], name, parent, start, end),
            "counts": header["counts"], "maxima": header["maxima"],
            "distinct": header["distinct"]}
