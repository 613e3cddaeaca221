"""Spans around calls into delone's public functions, recorded from the
benchmark's own files.

``Tracer.install()`` replaces module attributes such as
``netsynth.forbidden_regions`` with timing wrappers; the program's own calls
go through those attributes, so nested calls become child spans of the span
that caused them.  ``remove()`` restores the originals.  A span is
``[name, start, end, parent index, counts]``; spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from delone import circumsphere as cs
from delone import cli, jsonio
from delone import netsynth as nsy
from delone import tessellation as tess


def _annuli(args, res):
    ann = res[0]
    return {"annuli_kept": len(ann.radii), "triples_nondegenerate": ann.count_total}


#: (module, attribute, span name, counter(args, result) -> dict or None)
WRAPPED = (
    (nsy, "synthesize_net", "netsynth.synthesize_net", None),
    (nsy, "forbidden_regions", "netsynth.forbidden_regions", _annuli),
    (nsy, "select_point", "netsynth.select_point", None),
    (nsy, "excluded_volume_fraction", "netsynth.volume_audit", None),
    (nsy, "build_product_structure", "netsynth.product_structure", None),
    (nsy, "certify_family_stability", "netsynth.certify",
     lambda a, r: {"params": len(r.params_checked)}),
    (nsy, "translate_net", "netsynth.translate_net", None),
    (tess, "build_delaunay", "tessellation.build_delaunay",
     lambda a, r: {"top_simplices": len(r.top(a[0].dim))}),
    (tess, "check_duality", "tessellation.check_duality",
     lambda a, r: {"checks": r.checked}),
    (cs, "circumcenter", "circumsphere.circumcenter", None),
    (cs, "circumcenter_batch", "circumsphere.circumcenter_batch",
     lambda a, r: {"rows": len(a[0])}),
    (jsonio, "write", "jsonio.write", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    (jsonio, "read", "jsonio.read", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    (cli, "main", None, None),  # named per command: cli.<command>
)

#: Per-layer metrics, with units, in the order they are reported.
METRICS = (
    ("constants.bundle_s", "s"),
    ("netsynth.synthesize_net_s", "s"),
    ("netsynth.forbidden_regions_s", "s"),
    ("netsynth.forbidden_regions_calls", "count"),
    ("netsynth.annuli_kept", "count"),
    ("netsynth.triples_nondegenerate", "count"),
    ("netsynth.annuli_kept_per_triple", "ratio"),
    ("netsynth.select_point_s", "s"),
    ("netsynth.select_point_calls", "count"),
    ("netsynth.volume_audit_s", "s"),
    ("netsynth.volume_audits", "count"),
    ("netsynth.front_upkeep_s", "s"),
    ("netsynth.product_structure_s", "s"),
    ("netsynth.certify_s", "s"),
    ("netsynth.certify_params", "count"),
    ("netsynth.certify_rebuild_s", "s"),
    ("netsynth.certify_rebuilds", "count"),
    ("netsynth.translate_net_s", "s"),
    ("tessellation.build_delaunay_s", "s"),
    ("tessellation.build_delaunay_calls", "count"),
    ("tessellation.top_simplices", "count"),
    ("tessellation.check_duality_s", "s"),
    ("tessellation.duality_checks", "count"),
    ("circumsphere.circumcenter_s", "s"),
    ("circumsphere.circumcenter_calls", "count"),
    ("circumsphere.circumcenter_batch_s", "s"),
    ("circumsphere.circumcenter_batch_rows", "count"),
    ("jsonio.write_s", "s"),
    ("jsonio.read_s", "s"),
    ("jsonio.bytes_written", "bytes"),
    ("jsonio.bytes_read", "bytes"),
    ("cli.constants_s", "s"),
    ("cli.synthesize_s", "s"),
    ("cli.triangulate_s", "s"),
    ("cli.certify_s", "s"),
    ("cli.duality_check_s", "s"),
    ("cli.render_s", "s"),
    ("trace.overhead_s", "s"),
    ("calibration.kernel_s", "s"),
)

#: The direct children of synthesize_net whose time is not front upkeep.
_SYNTH_CHILDREN = ("netsynth.forbidden_regions", "netsynth.select_point",
                   "netsynth.volume_audit")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._saved: list = []

    def _wrap(self, fn, name, counter):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            label = name or "cli." + str(args[0][0]).replace("-", "_")
            span = [label, 0.0, 0.0, open_[-1] if open_ else -1, None]
            idx = len(spans)
            spans.append(span)
            open_.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, name, counter in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def remove(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def round_metrics(self, lo: int) -> dict:
        """Per-layer metrics of the spans recorded since index lo."""
        return layer_metrics(self.spans, lo, len(self.spans))

    @staticmethod
    def report(rounds: list, bundle_s: float, kernel_s: float, overhead_s: float) -> dict:
        """``{metric: (value, unit)}``: the median of each layer metric over the
        traced rounds, plus the set-up bundle time, the calibration kernel's
        median time and the tracing overhead.  Layer times are not scaled."""
        values = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        values["constants.bundle_s"] = bundle_s
        values["calibration.kernel_s"] = kernel_s
        values["trace.overhead_s"] = overhead_s
        return {name: (values[name], unit) for name, unit in METRICS}

    def dump(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, f)


def layer_metrics(spans: list, lo: int, hi: int) -> dict:
    """Per-layer times and counts of the spans lo..hi-1 (one traced round)."""
    time_of: dict = {}
    calls: dict = {}
    counts: dict = {}
    child_time: dict = {}
    for name, t0, t1, parent, cnt in spans[lo:hi]:
        dt = t1 - t0
        time_of[name] = time_of.get(name, 0.0) + dt
        calls[name] = calls.get(name, 0) + 1
        for k, v in (cnt or {}).items():
            counts[(name, k)] = counts.get((name, k), 0) + v
        if parent >= 0 and name in _SYNTH_CHILDREN:
            child_time[parent] = child_time.get(parent, 0.0) + dt

    def under(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    rebuilds = [spans[i] for i in range(lo, hi)
                if spans[i][0] == "tessellation.build_delaunay"
                and under(i, "netsynth.certify")]
    upkeep = sum(spans[i][2] - spans[i][1] - child_time.get(i, 0.0)
                 for i in range(lo, hi) if spans[i][0] == "netsynth.synthesize_net")
    kept = counts.get(("netsynth.forbidden_regions", "annuli_kept"), 0)
    triples = counts.get(("netsynth.forbidden_regions", "triples_nondegenerate"), 0)
    t = time_of.get
    c = calls.get
    return {
        "netsynth.synthesize_net_s": t("netsynth.synthesize_net", 0.0),
        "netsynth.forbidden_regions_s": t("netsynth.forbidden_regions", 0.0),
        "netsynth.forbidden_regions_calls": c("netsynth.forbidden_regions", 0),
        "netsynth.annuli_kept": kept,
        "netsynth.triples_nondegenerate": triples,
        "netsynth.annuli_kept_per_triple": kept / triples if triples else 0.0,
        "netsynth.select_point_s": t("netsynth.select_point", 0.0),
        "netsynth.select_point_calls": c("netsynth.select_point", 0),
        "netsynth.volume_audit_s": t("netsynth.volume_audit", 0.0),
        "netsynth.volume_audits": c("netsynth.volume_audit", 0),
        "netsynth.front_upkeep_s": upkeep,
        "netsynth.product_structure_s": t("netsynth.product_structure", 0.0),
        "netsynth.certify_s": t("netsynth.certify", 0.0),
        "netsynth.certify_params": counts.get(("netsynth.certify", "params"), 0),
        "netsynth.certify_rebuild_s": sum(s[2] - s[1] for s in rebuilds),
        "netsynth.certify_rebuilds": len(rebuilds),
        "netsynth.translate_net_s": t("netsynth.translate_net", 0.0),
        "tessellation.build_delaunay_s": t("tessellation.build_delaunay", 0.0),
        "tessellation.build_delaunay_calls": c("tessellation.build_delaunay", 0),
        "tessellation.top_simplices": counts.get(
            ("tessellation.build_delaunay", "top_simplices"), 0),
        "tessellation.check_duality_s": t("tessellation.check_duality", 0.0),
        "tessellation.duality_checks": counts.get(
            ("tessellation.check_duality", "checks"), 0),
        "circumsphere.circumcenter_s": t("circumsphere.circumcenter", 0.0),
        "circumsphere.circumcenter_calls": c("circumsphere.circumcenter", 0),
        "circumsphere.circumcenter_batch_s": t("circumsphere.circumcenter_batch", 0.0),
        "circumsphere.circumcenter_batch_rows": counts.get(
            ("circumsphere.circumcenter_batch", "rows"), 0),
        "jsonio.write_s": t("jsonio.write", 0.0),
        "jsonio.read_s": t("jsonio.read", 0.0),
        "jsonio.bytes_written": counts.get(("jsonio.write", "bytes"), 0),
        "jsonio.bytes_read": counts.get(("jsonio.read", "bytes"), 0),
        "cli.constants_s": t("cli.constants", 0.0),
        "cli.synthesize_s": t("cli.synthesize", 0.0),
        "cli.triangulate_s": t("cli.triangulate", 0.0),
        "cli.certify_s": t("cli.certify", 0.0),
        "cli.duality_check_s": t("cli.duality_check", 0.0),
        "cli.render_s": t("cli.render", 0.0),
    }
