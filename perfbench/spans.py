"""Span tracing around the public calls of each genreps module.

While installed, the tracer replaces the public functions of genreps (in
every module namespace that refers to them) and a few ScerIndex/TreeView
methods with wrappers that record one span per call: name, start, end,
parent span and job id, plus the attributes the per-layer metrics need
(relation, counts).  Spans stay in memory; `write` dumps them at exit.
Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from jobs import RELATIONS

MIRROR = {"ct_suffix": "ct"}  # relation of a reversed index -> forward relation


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: int
    job: int
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _rel(relation: str) -> str:
    return MIRROR.get(relation, relation)


def _rel_arg(i):
    return lambda a, kw, r: {"rel": _rel(a[i] if len(a) > i else kw["relation"])}


def _index_rel(a, kw, r):
    return {"rel": _rel(a[0].relation)}


# (module, attribute, span name, attrs(args, kwargs, result) -> dict or None)
FUNCTIONS = [
    ("text", "parse_text", "text.parse", None),
    ("encodings", "make_encoder", "encodings.encoder", _rel_arg(1)),
    ("encodings", "profiles", "encodings.profiles", None),
    ("counting", "reversed_index", "index.build_rev", _index_rel),
    ("counting", "right_nonextendible", "counting.rne",
     lambda a, kw, r: {"rel": _rel(a[0].relation), "pairs": len(r)}),
    ("counting", "right_nonshiftable", "counting.rns",
     lambda a, kw, r: {"rel": _rel(a[0].relation), "pairs": len(r)}),
    ("counting", "nonshiftable_sets", "counting.table", _index_rel),
    ("counting", "squares_table", "counting.table",
     lambda a, kw, r: {"rel": _rel(r.relation), "size": r.size}),
    ("counting", "sweep_count", "counting.sweep", lambda a, kw, r: {"rel": _rel(a[0].relation)}),
    ("counting", "count_nonequivalent", "counting.sweep", _rel_arg(1)),
    ("counting", "count_distinct", "counting.sweep", _rel_arg(1)),
    ("psquares", "candidate_intervals", "psquares.candidates",
     lambda a, kw, r: {"pieces": sum(len(v) for v in r.values())}),
    ("psquares", "verify_intervals", "psquares.verify",
     lambda a, kw, r: {"pieces": sum(len(v) for v in r.values())}),
    ("psquares", "report_nonequivalent", "psquares.report",
     lambda a, kw, r: {"occurrences": len(r.occurrences)}),
    ("psquares", "report_distinct", "psquares.report",
     lambda a, kw, r: {"occurrences": len(r.occurrences)}),
    ("repeats", "k_runs", "repeats.kruns", lambda a, kw, r: {"records": len(r)}),
    ("repeats", "uniform_k_runs", "repeats.uniform", lambda a, kw, r: {"records": len(r)}),
    ("repeats", "uniform_start_intervals", "repeats.uniform", None),
    ("repeats", "count_uniform_k_runs", "repeats.count_uniform", None),
    ("repeats", "mgrs", "repeats.mgr", lambda a, kw, r: {"records": len(r)}),
    ("repeats", "generalised_runs", "repeats.gruns", lambda a, kw, r: {"records": len(r)}),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self.job = 0

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, perf_counter(), parent.sid if parent else -1, self.job)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def wrap(self, fn, name: str, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def cli_main(self, main):
        """Wrap the CLI entry point: each call is one job."""

        def run(argv):
            self.job += 1
            return self.wrap(main, "cli")(argv)

        return run

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import genreps  # noqa: F401  (loads every submodule)
        from genreps import cli, index

        modules = [m for name, m in sys.modules.items() if name.startswith("genreps.")]
        for modname, attr, name, attrs in FUNCTIONS:
            orig = getattr(sys.modules[f"genreps.{modname}"], attr)
            wrapped = self.wrap(orig, name, attrs)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
        # cli builds a ParamEncoder itself for psquares' classes column
        self._set(cli, "ParamEncoder", self.wrap(cli.ParamEncoder, "encodings.encoder",
                                                 lambda a, kw, r: {"rel": "param"}))
        cls = index.ScerIndex
        init = cls.__init__
        self._set(cls, "__init__", self.wrap(init, "index.build",
                                             lambda a, kw, r: {"rel": _rel(a[0].relation)}))
        self._set(cls, "lpf", self.wrap(cls.lpf, "index.lpf", _index_rel))
        tree_init = index.TreeView.__init__
        self._set(index.TreeView, "__init__", self.wrap(
            tree_init, "index.tree",
            lambda a, kw, r: {"rel": _rel(a[1].relation), "nodes": len(a[0].weight)}))
        rmq_get = cls.rmq.fget
        timed_get = self.wrap(rmq_get, "index.rmq", _index_rel)

        def rmq(ix):
            # only the first access builds the table; later ones are lookups
            return timed_get(ix) if ix._rmq is None else ix._rmq

        self._set(cls, "rmq", property(rmq))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\tattrs\n")
            for s in self.spans:
                attrs = ",".join(f"{k}={v}" for k, v in s.attrs.items())
                fh.write(f"{s.sid}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent}\t{s.job}\t{attrs}\n")


# --------------------------------------------------------------------------
# per-layer metrics


def layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    out = [("text.parse_s", "s"), ("encodings.encoder_s", "s"), ("encodings.profiles_s", "s")]
    for base, unit in (("build_s", "s"), ("build_rev_s", "s"), ("tree_s", "s"),
                       ("tree_nodes", "count"), ("rmq_s", "s"), ("lpf_s", "s")):
        out += [(f"index.{base}.{r}", unit) for r in RELATIONS]
    for base, unit in (("rne_s", "s"), ("rne_pairs", "count"), ("rns_s", "s"),
                       ("rns_pairs", "count"), ("rns_per_rne", "ratio"), ("table_s", "s"),
                       ("table_size", "count"), ("sweep_s", "s")):
        out += [(f"counting.{base}.{r}", unit) for r in RELATIONS]
    out += [
        ("psquares.candidates_s", "s"), ("psquares.candidate_pieces", "count"),
        ("psquares.verify_s", "s"), ("psquares.verified_pieces", "count"),
        ("psquares.verified_per_candidate", "ratio"), ("psquares.report_s", "s"),
        ("psquares.occurrences", "count"),
        ("repeats.kruns_s", "s"), ("repeats.uniform_s", "s"), ("repeats.count_uniform_s", "s"),
        ("repeats.mgr_s", "s"), ("repeats.gruns_s", "s"), ("repeats.records", "count"),
        ("cli.self_s", "s"), ("trace.overhead_s", "s"),
    ]
    return out


RATIOS = {
    **{f"counting.rns_per_rne.{r}": (f"counting.rns_pairs.{r}", f"counting.rne_pairs.{r}")
       for r in RELATIONS},
    "psquares.verified_per_candidate": ("psquares.verified_pieces", "psquares.candidate_pieces"),
}


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Summed self times and counts per per-layer metric over `spans`."""
    by_id = {s.sid: s for s in spans}
    tot: dict[str, float] = defaultdict(float)
    for s in spans:
        rel = s.attrs.get("rel")
        name = s.name
        if name == "index.build" and s.parent in by_id and by_id[s.parent].name == "index.build_rev":
            name = "index.build_rev"
        key = {
            "text.parse": "text.parse_s",
            "encodings.encoder": "encodings.encoder_s",
            "encodings.profiles": "encodings.profiles_s",
            "cli": "cli.self_s",
        }.get(name)
        if key is None:
            layer = name.split(".")[0]
            key = f"{name}_s" if layer in ("psquares", "repeats") else f"{name}_s.{rel}"
        tot[key] += s.self_s
        if name == "index.tree":
            tot[f"index.tree_nodes.{rel}"] += s.attrs["nodes"]
        elif name in ("counting.rne", "counting.rns"):
            tot[f"{name}_pairs.{rel}"] += s.attrs["pairs"]
        elif name == "counting.table" and "size" in s.attrs:
            tot[f"counting.table_size.{rel}"] += s.attrs["size"]
        elif name == "psquares.candidates":
            tot["psquares.candidate_pieces"] += s.attrs["pieces"]
        elif name == "psquares.verify":
            tot["psquares.verified_pieces"] += s.attrs["pieces"]
        elif name == "psquares.report":
            tot["psquares.occurrences"] += s.attrs["occurrences"]
        elif "records" in s.attrs:
            tot["repeats.records"] += s.attrs["records"]
    return dict(tot)
