"""One benchmark operation, run inside a fresh interpreter.

    python3 perfbench/child.py '<job as JSON>'

The parent (``run.py``) starts this file once per operation, with ``src`` on
``PYTHONPATH``, so every operation pays confab's cold cost: factor closures,
``datum()`` and the punctured-torus cache are empty when it starts.  Jobs:

- ``{"kind": "table", "tag": "U5", "traced": false}``: the user route,
  ``datum(tag)`` then ``conf_ab_table(d, 2)``, plus ``shortcut_dims`` when the
  datum has a catalog.
- ``{"kind": "table", "tag": "U5", "traced": true}``: the same table built
  stage by stage through the public names, every stage inside a span.
- ``{"kind": "cli", "argv": [...], "traced": bool}``: ``confab.cli.main(argv)``
  in process, its stdout captured.

The last line of stdout is one JSON object with the results.  Spans and
counts are kept in memory and returned in that object; nothing is written to
disk here.
"""

from __future__ import annotations

import io
import json
import sys
import time

# public functions wrapped in a span by the traced run, by home module; the
# wrapper replaces every reference a confab module holds, so calls made inside
# confab (verify_all calling conf_ab_table, conf2_torus calling kunneth) are
# traced too
SPANNED = {
    "confab.weyl": {
        "parse_tag": "weyl.parse_tag",
        "flag_character": "weyl.flag",
        "torus_character": "weyl.torus",
        "kunneth": "weyl.kunneth",
        "invariant_dims": "weyl.invariants",
    },
    "confab.groups": {"decompose": "groups.decompose"},
    "confab.torusconf": {
        "conf2_torus": "torusconf.conf2",
        "conf3_torus_rank2": "torusconf.conf3",
    },
    "confab.rings": {
        "hilbert_series": "rings.series",
        "invariant_subring_dims": "rings.series",
    },
    "confab.tables": {
        "unordered_conf2_dims": "rings.series",
        "conf_ab_table": "tables.table",
        "shortcut_dims": "tables.shortcut",
        "verify_all": "tables.verify_all",
    },
}


class Tracer:
    """Spans as ``[name, start, end, parent index]`` plus two call counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {"exact.qmatrix_mul_calls": 0, "exact.char_poly_calls": 0}
        self.data: list[tuple[int, int]] = []  # (|W|, classes) per WeylDatum

    def enter(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        record = [name, 0.0, 0.0, parent]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def leave(self, record: list) -> None:
        record[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        def spanned(*args, **kwargs):
            record = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(record)

        return spanned

    def install(self) -> None:
        from confab import exact, weyl

        modules = [
            module
            for key, module in sys.modules.items()
            if key == "confab" or key.startswith("confab.")
        ]
        for home, names in SPANNED.items():
            for attr, span_name in names.items():
                original = getattr(sys.modules[home], attr)
                wrapped = self.wrap(span_name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

        counts = self.counts
        mul = exact.QMatrix.mul

        def counted_mul(matrix, other):
            counts["exact.qmatrix_mul_calls"] += 1
            return mul(matrix, other)

        exact.QMatrix.mul = counted_mul

        char_poly = weyl.char_matrix_poly

        def counted_char_poly(*args, **kwargs):
            counts["exact.char_poly_calls"] += 1
            return char_poly(*args, **kwargs)

        weyl.char_matrix_poly = counted_char_poly

        init = weyl.WeylDatum.__init__
        datum_init = self.wrap("weyl.datum", init)
        data = self.data

        def traced_init(d, *args, **kwargs):
            datum_init(d, *args, **kwargs)
            data.append((d.group.order, len(d.group.classes)))

        weyl.WeylDatum.__init__ = traced_init

    def payload(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(
                self.counts,
                **{
                    "groups.order_total": sum(o for o, _ in self.data),
                    "groups.class_total": sum(c for _, c in self.data),
                },
            ),
        }


def table_untraced(tag: str) -> dict:
    from confab.tables import conf_ab_table, shortcut_dims
    from confab.weyl import datum

    start = time.perf_counter()
    d = datum(tag)
    dims = conf_ab_table(d, 2).dims()
    shortcut = shortcut_dims(d, 2) if d.catalog is not None else None
    solve_s = time.perf_counter() - start
    return {"solve_s": solve_s, "dims": dims, "shortcut": shortcut, "d": d}


def table_traced(tag: str, tracer: Tracer) -> dict:
    # the stages of conf_ab_table, called one by one through public names
    from confab import groups, tables, torusconf, weyl

    op = tracer.enter("op")
    table = tracer.enter("tables.table")
    d = weyl.WeylDatum(weyl.parse_tag(tag))
    flag = weyl.flag_character(d, "derived")
    conf = torusconf.conf2_torus(d)
    total = weyl.kunneth(flag, conf)
    inv = weyl.invariant_dims(total)
    top = max(deg for deg, dim in inv.items() if dim > 0)
    dims = tuple(inv[deg] for deg in range(top + 1))
    if d.catalog is not None:
        for degree in range(top + 1):
            groups.decompose(total.piece(degree), d.catalog)
    tracer.leave(table)
    shortcut = tables.shortcut_dims(d, 2) if d.catalog is not None else None
    tracer.leave(op)
    return {
        "solve_s": op[2] - op[1],
        "dims": dims,
        "shortcut": shortcut,
        "d": d,
    }


def run_table(job: dict, tracer: Tracer | None) -> dict:
    from confab.tables import RankTooSmall, first_cohomology_dim

    if tracer is None:
        out = table_untraced(job["tag"])
    else:
        out = table_traced(job["tag"], tracer)
    d = out.pop("d")
    try:
        out["h1"] = first_cohomology_dim(d, 2)
    except RankTooSmall:
        out["h1"] = None
    out["has_catalog"] = d.catalog is not None
    return out


def run_cli(job: dict, tracer: Tracer | None) -> dict:
    from confab.cli import main

    sink = io.StringIO()
    saved = sys.stdout
    sys.stdout = sink
    record = tracer.enter("cli.main") if tracer else None
    start = time.perf_counter()
    try:
        code = main(list(job["argv"]))
    except SystemExit as exit_:
        code = exit_.code
    finally:
        main_s = time.perf_counter() - start
        if record is not None:
            tracer.leave(record)
        sys.stdout = saved
    return {"solve_s": main_s, "code": code, "stdout": sink.getvalue()}


def main() -> None:
    job = json.loads(sys.argv[1])
    start = time.perf_counter()
    import confab.cli  # noqa: F401  (the import a user's `confab` pays)

    import_ms = (time.perf_counter() - start) * 1000
    tracer = Tracer() if job.get("traced") else None
    if tracer is not None:
        tracer.install()
    runner = {"table": run_table, "cli": run_cli}[job["kind"]]
    out = runner(job, tracer)
    out["import_ms"] = import_ms
    if tracer is not None:
        out.update(tracer.payload())
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
