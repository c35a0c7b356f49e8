"""Spans around the calls the CLI makes into each gaborface module.

Tracing is done from outside the package: `install` replaces a module
attribute with a wrapper at the place where its caller looks the name up
(for example `gaborface.gabor.compute_jet`, which the CLI calls as
`gabor.compute_jet`, or `gaborface.nmds.isotonic_fit`, which `embed` calls
as a module global).  Nothing under `src/` changes.

A span is a dict with name, start, end (monotonic seconds), parent (index
of the enclosing span, or None) and run id, plus call-specific fields.
Spans stay in memory and are written out by the caller at the end;
`layer_metrics` turns one traced iteration's spans into the per-layer
metrics.  Warnings issued inside a wrapped call are kept on its span; the
run's warning counts are in its record (checks.warning_counts).
"""

import functools
import statistics
import time

from checks import NODES, STAGES


class Tracer:
    """Spans of one process.  The CLI runs with --threads 1, so calls nest
    on one stack."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.log = None  # warnings recorded during the open stage
        self._stack = []

    def begin(self, name):
        span = {"name": name, "start": time.monotonic(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return self._stack[-1]

    def end(self, index):
        span = self.spans[index]
        span["end"] = time.monotonic()
        self._stack.pop()
        return span

    def wrap(self, module, attr, name, label=None, after=None):
        """Replace module.attr by a traced wrapper.

        label(args, kwargs) -> suffix of the span name; after(span, args,
        kwargs, result) adds fields to the finished span.  Warnings issued
        during the call are recorded on the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(args, kwargs)}"
            log = self.log
            seen = len(log) if log is not None else 0
            index = self.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = self.end(index)
                if log is not None and len(log) > seen:
                    span["warnings"] = [str(w.message) for w in log[seen:]]
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(module, attr, traced)


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def install(tracer):
    """Wrap every layer boundary the CLI stages cross."""
    from gaborface import cli, gabor, grid, nmds, rank_stats, ratings

    def pair_count(span, args, kwargs, result):
        n = len(result.item_ids)
        span["pairs"] = n * (n - 1) // 2

    def embed_info(span, args, kwargs, result):
        span["n"] = len(result.item_ids)
        span["iterations"] = result.iterations

    def isotonic_size(span, args, kwargs, result):
        span["m"] = len(result.values)

    def permutations(span, args, kwargs, result):
        span["permutations"] = int(_arg(args, kwargs, 2, "permutations") or 0)

    tracer.wrap(gabor, "compute_jet", "gabor.compute_jet")
    tracer.wrap(gabor, "read_pgm", "gabor.read_pgm")
    tracer.wrap(gabor, "parse_jet_document", "gabor.parse_jet_document")
    tracer.wrap(grid, "load_grid", "grid.load_grid")
    tracer.wrap(grid, "geometry_vector", "grid.geometry_vector")
    tracer.wrap(cli, "pairwise_matrix", "similarity.pairwise_matrix",
                label=lambda a, k: _arg(a, k, 1, "measure"), after=pair_count)
    tracer.wrap(ratings, "load_ratings", "ratings.load_ratings")
    tracer.wrap(ratings, "semantic_matrix", "ratings.semantic_matrix",
                after=pair_count)
    tracer.wrap(rank_stats, "correlate_model_with_ratings", "rank_stats.correlate")
    tracer.wrap(rank_stats, "significance", "rank_stats.significance",
                after=permutations)
    tracer.wrap(nmds, "embed", "nmds.embed", after=embed_info)
    tracer.wrap(nmds, "classical_init", "nmds.classical_init")
    tracer.wrap(nmds, "isotonic_fit", "nmds.isotonic_fit", after=isotonic_size)
    tracer.wrap(nmds, "procrustes_align", "nmds.procrustes_align")
    tracer.wrap(cli, "render_scatter", "cli.render_scatter")


def layer_metrics(it, n_images, untraced_wall):
    """Per-layer metrics from one traced iteration (run.Iteration)."""
    spans = it.report["spans"]
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name.get(name, ())]

    def total(name):
        return sum(durations(name), 0.0)

    def quantile(values, q):
        if not values:
            return 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
            if len(values) > 1 else values[0]

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    jet = durations("gabor.compute_jet")
    jet_s = total("gabor.compute_jet")
    samples = len(jet) * it.report["kernel_samples_per_jet"]
    put("gabor.compute_jet.calls", len(jet), "count")
    put("gabor.compute_jet.total_s", jet_s, "s")
    put("gabor.compute_jet.p50_us", 1e6 * quantile(jet, 50), "us")
    put("gabor.compute_jet.p99_us", 1e6 * quantile(jet, 99), "us")
    put("gabor.kernel_samples", samples, "count")
    put("gabor.kernel_samples_per_s", samples / jet_s if jet else 0.0, "1/s")
    pgm_calls = len(durations("gabor.read_pgm"))
    put("gabor.read_pgm.calls", pgm_calls, "count")
    put("gabor.read_pgm.total_s", total("gabor.read_pgm"), "s")
    put("gabor.read_pgm.per_image", pgm_calls / n_images, "ratio")
    put("gabor.parse_jet_document.calls",
        len(durations("gabor.parse_jet_document")), "count")
    put("gabor.parse_jet_document.total_s", total("gabor.parse_jet_document"), "s")

    put("grid.load_grid.calls", len(durations("grid.load_grid")), "count")
    put("grid.load_grid.total_s", total("grid.load_grid"), "s")
    put("grid.geometry_vector.total_s", total("grid.geometry_vector"), "s")

    gabor_pairs = sum(s["pairs"] for s in by_name.get("similarity.pairwise_matrix.gabor", ()))
    put("similarity.pairwise_matrix.gabor.total_s",
        total("similarity.pairwise_matrix.gabor"), "s")
    put("similarity.pairwise_matrix.geometry.total_s",
        total("similarity.pairwise_matrix.geometry"), "s")
    put("similarity.pairs", gabor_pairs, "count")
    put("similarity.jet_comparisons", gabor_pairs * NODES, "count")

    put("ratings.load_ratings.total_s", total("ratings.load_ratings"), "s")
    put("ratings.semantic_matrix.total_s", total("ratings.semantic_matrix"), "s")

    put("rank_stats.correlate.total_s", total("rank_stats.correlate"), "s")
    put("rank_stats.significance.total_s", total("rank_stats.significance"), "s")
    put("rank_stats.permutations",
        sum(s["permutations"] for s in by_name.get("rank_stats.significance", ())),
        "count")

    embeds = durations("nmds.embed")
    embed_s = total("nmds.embed")
    iso = total("nmds.isotonic_fit")
    put("nmds.embed.calls", len(embeds), "count")
    put("nmds.embed.total_s", embed_s, "s")
    put("nmds.embed.p50_ms", 1e3 * quantile(embeds, 50), "ms")
    put("nmds.embed.iterations",
        sum(s["iterations"] for s in by_name.get("nmds.embed", ())), "count")
    put("nmds.isotonic_fit.calls", len(durations("nmds.isotonic_fit")), "count")
    put("nmds.isotonic_fit.total_s", iso, "s")
    put("nmds.isotonic_fit.share_of_embed", iso / embed_s if embeds else 0.0,
        "ratio")
    put("nmds.classical_init.total_s", total("nmds.classical_init"), "s")
    put("nmds.procrustes_align.total_s", total("nmds.procrustes_align"), "s")

    for stage in STAGES:
        wall = total(f"cli.{stage}")
        parents = {i for i, s in enumerate(spans) if s["name"] == f"cli.{stage}"}
        put(f"cli.{stage}.wall_s", wall, "s")
        put(f"cli.{stage}.self_s", wall - children_time(spans, parents), "s")
    put("cli.render_scatter.total_s", total("cli.render_scatter"), "s")
    put("cli.files_written", it.files_written, "count")
    put("cli.bytes_written", it.bytes_written, "B")
    put("trace.overhead_s", it.span(0, len(it.records) - 1) - untraced_wall, "s")
    return m


def children_time(spans, parents):
    """Time spent in the direct children of the spans at indices `parents`."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] in parents)
