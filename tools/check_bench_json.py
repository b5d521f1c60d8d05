#!/usr/bin/env python3
"""Validate bench JSON output against the documented schema.

Checks the schema_version-11 files produced by the benches:

  * ``micro_pipeline --json BENCH_pipeline.json`` (the checked-in
    ``BENCH_pipeline.json`` at the repo root),
  * ``micro_similarity --json BENCH_similarity.json`` (the checked-in
    edit-distance kernel comparison at the repo root), and
  * ``fig5_scalability --json fig5.json``.

The file kind is auto-detected from the top-level ``bench`` field.
Beyond shape/type checks this cross-validates the invariants the
observability layer guarantees, e.g. that the legacy ``comparisons``
field equals the registry's ``sw.unique_comparisons`` counter and that
histogram quantiles are monotone.

With ``--explain-schema`` the arguments are instead decision-provenance
NDJSON logs (``<observability explain="...">``, see
docs/OBSERVABILITY.md): every record is checked for its type's required
fields, provenance tags against the enum, scores against [0, 1], and
the per-candidate merge lineage against the set of accepted pairs.

With ``--telemetry-schema`` the arguments are live-telemetry NDJSON
streams (``<observability telemetry="...">``): one header record, then
samples with non-decreasing timestamps, strictly sequential ``seq``,
monotone counters, well-formed memory accounting, CPU utilization
(``cpu_user_pct`` / ``cpu_sys_pct`` / ``threads``), and exactly one
``final`` sample in last position.

With ``--profile-folded-schema`` the arguments are folded-stack CPU
profiles (``<observability profile="...">``): every line must be
``root;child;leaf COUNT`` with non-empty frames and a non-negative
integer count (self CPU in microseconds), and the file must contain at
least one stack.

Usage:
  tools/check_bench_json.py [--min-gk-rows N] FILE [FILE ...]
  tools/check_bench_json.py --explain-schema LOG [LOG ...]
  tools/check_bench_json.py --telemetry-schema STREAM [STREAM ...]
  tools/check_bench_json.py --profile-folded-schema FOLDED [FOLDED ...]

``--min-gk-rows N`` additionally requires each fig5 file to carry an
``out_of_core`` block covering at least N generated-key rows — the
opt-in `bench_scale` ctest uses it to pin the >= 1M-row point.

Exits 0 when every file validates, 1 otherwise (one message per
violation on stderr). See docs/BENCHMARKS.md for the schema.
"""

import json
import sys

SCHEMA_VERSION = 11

# Counters the engine always registers (values may legitimately be 0).
# Version 3 added the kernel fast-path counters: kg.od_pool_* (OD value
# interning), sw.verdict_cache_hits / sw.interned_equal (cross-pass
# verdict cache and interned-equality shortcut), and text.myers_words
# (bit-parallel edit-distance kernel work). Version 4 added the
# sw.similarity histogram (combined-score distribution of owned kernel
# invocations). Version 5 added the DAG-compression / batched-scoring
# layer: kg.subtree_pool_* (hash-consed subtree DAG), sw.dag_equal
# (whole-candidate subtree-id shortcut) and sw.batch_rejects (SoA
# pre-filter rejections). Version 6 added the live-telemetry progress
# family: kg.rows_done / sw.pairs_done / tc.edges_done counters, the
# progress.phase / kg.rows_total / sw.pairs_planned_total /
# cache.verdict_occupancy gauges, and the telemetry-overhead block.
# Version 7 added the checkpoint/resume block: snapshot size and
# write/load cost at two corpus scales, the every-pass checkpointing
# overhead ceiling (5%), and the persist.* counters of a fault-injected
# interrupt + resume. Version 8 added the out-of-core layer: the fig5
# `out_of_core` block (external-sort spill + key-range sharded passes)
# with its RSS-ceiling, spill/merge floors, and shards=1-vs-N identity
# sub-check; pipeline/similarity files carry the bump only. Version 9
# added the in-process sampling profiler: the pipeline `profile` A/B
# block (profiling-on wall-clock overhead <= 3% over profiling-off,
# bit-identical detection, and the span-attributed sample table whose
# top self-CPU span must be non-empty); telemetry samples additionally
# carry cpu_user_pct / cpu_sys_pct / threads; similarity/fig5 files
# carry the bump only. Version 10 removed the comparison shortcuts of
# versions 3 and 5 (cross-pass verdict cache, subtree DAG, batched
# pre-filter) together with their counters, the cache.verdict_occupancy
# gauge, the pipeline engines' dag / batch_scoring flags, the
# serial_dag_batch engine, the pipeline `repeated_subtree` A/B block and
# the similarity `filters` section. Version 11 replaced the sampling
# profiler with exact per-span CPU time: the pipeline `profile` block
# drops hz / backend / samples / dropped_samples and the spans'
# self_samples / total_samples, and reports cpu_us, attributed_us and
# per-span self_us / total_us; similarity/fig5 files carry the bump
# only. Within version 11, the pipeline engines' fast_paths flag stopped
# being required when the unbounded comparison kernel it selected was
# removed (files that still carry it validate unchanged).
REQUIRED_COUNTERS = [
    "kg.rows",
    "kg.rows_done",
    "kg.keys_emitted",
    "kg.od_values",
    "kg.od_normalize_us",
    "kg.od_pool_strings",
    "kg.od_pool_bytes",
    "sw.pairs_windowed",
    "sw.pairs_done",
    "sw.prepass_skips",
    "sw.comparisons",
    "sw.hits",
    "sw.ed_bailouts",
    "sw.desc_jaccard",
    "sw.desc_short_circuits",
    "sw.interned_equal",
    "sw.unique_comparisons",
    "sw.unique_duplicates",
    "text.myers_words",
    "tc.pairs",
    "tc.edges_done",
    "tc.union_ops",
    "tc.clusters",
]
REQUIRED_GAUGES = [
    "engine.num_threads",
    "engine.num_candidates",
    "progress.phase",
    "kg.rows_total",
    "sw.pairs_planned_total",
]
REQUIRED_HISTOGRAMS = ["sw.pass_seconds", "sw.similarity", "tc.cluster_size"]
HISTOGRAM_FIELDS = ["count", "sum", "p50", "p90", "p99"]
PHASE_FIELDS = [
    "key_generation_s",
    "sliding_window_s",
    "transitive_closure_s",
    "duplicate_detection_s",
]


class Checker:
    def __init__(self, path, min_gk_rows=0):
        self.path = path
        self.min_gk_rows = min_gk_rows
        self.errors = []

    def error(self, where, message):
        self.errors.append(f"{self.path}: {where}: {message}")

    def require(self, obj, key, types, where):
        """Check obj[key] exists and has one of `types`; return it or None."""
        if not isinstance(obj, dict) or key not in obj:
            self.error(where, f"missing required field '{key}'")
            return None
        value = obj[key]
        # bool is an int subclass in Python; reject it unless asked for.
        if isinstance(value, bool) and bool not in types:
            self.error(where, f"'{key}' must be {types}, got bool")
            return None
        if not isinstance(value, tuple(types)):
            self.error(
                where, f"'{key}' must be {types}, got {type(value).__name__}")
            return None
        return value

    def check_nonneg(self, obj, key, where, types=(int,)):
        value = self.require(obj, key, types, where)
        if value is not None and value < 0:
            self.error(where, f"'{key}' must be non-negative, got {value}")
        return value

    def check_phases(self, phases, where):
        for field in PHASE_FIELDS:
            self.check_nonneg(phases, field, where, types=(int, float))

    def check_metrics(self, metrics, where):
        counters = self.require(metrics, "counters", (dict,), where)
        if counters is not None:
            for name in REQUIRED_COUNTERS:
                self.check_nonneg(counters, name, f"{where}.counters")
        gauges = self.require(metrics, "gauges", (dict,), where)
        if gauges is not None:
            for name in REQUIRED_GAUGES:
                self.require(gauges, name, (int, float), f"{where}.gauges")
        histograms = self.require(metrics, "histograms", (dict,), where)
        if histograms is not None:
            for name in REQUIRED_HISTOGRAMS:
                hist = self.require(histograms, name, (dict,),
                                    f"{where}.histograms")
                if hist is not None:
                    self.check_histogram(hist, f"{where}.histograms.{name}")
        return counters

    def check_degradation(self, deg, where, counters=None):
        """Validate the optional per-engine governance block.

        Present since the resource-governance layer: totals of shed work
        plus the reason. An undegraded run must report zero everywhere,
        and when the robust.* counters are in the metrics registry they
        must agree with these totals.
        """
        degraded = self.require(deg, "degraded", (bool,), where)
        reason = self.require(deg, "reason", (str,), where)
        self.check_nonneg(deg, "comparison_budget", where)
        totals = {}
        for key in ("passes_skipped", "passes_shrunk", "rows_skipped",
                    "pairs_elided"):
            totals[key] = self.check_nonneg(deg, key, where)
        if degraded is False:
            if reason is not None and reason != "OK":
                self.error(where,
                           f"undegraded run must have reason OK, got {reason}")
            for key, value in totals.items():
                if isinstance(value, int) and value != 0:
                    self.error(where,
                               f"undegraded run must shed nothing, "
                               f"'{key}' is {value}")
        elif degraded is True and reason == "OK":
            self.error(where, "degraded run must name a non-OK reason")
        if isinstance(counters, dict) and "robust.degraded" in counters:
            if degraded is not None:
                flagged = counters.get("robust.degraded")
                if isinstance(flagged, int) and bool(flagged) != degraded:
                    self.error(where,
                               "'degraded' disagrees with counter "
                               f"robust.degraded: {degraded} != {flagged}")
            for key, value in totals.items():
                counter = counters.get(f"robust.{key}")
                if isinstance(value, int) and isinstance(counter, int) \
                        and value != counter:
                    self.error(where,
                               f"'{key}' disagrees with counter "
                               f"robust.{key}: {value} != {counter}")

    def check_histogram(self, hist, where):
        for field in HISTOGRAM_FIELDS:
            self.check_nonneg(hist, field, where, types=(int, float))
        quantiles = [hist.get(q) for q in ("p50", "p90", "p99")]
        if all(isinstance(q, (int, float)) for q in quantiles):
            if not (quantiles[0] <= quantiles[1] <= quantiles[2]):
                self.error(where, f"quantiles not monotone: {quantiles}")

    # --- micro_pipeline ---------------------------------------------------

    def check_pipeline(self, doc):
        dataset = self.require(doc, "dataset", (dict,), "top-level")
        if dataset is not None:
            self.require(dataset, "generator", (str,), "dataset")
            for key in ("clean_movies", "window", "repeats"):
                self.check_nonneg(dataset, key, "dataset")
        self.check_nonneg(doc, "hardware_threads", "top-level")

        engines = self.require(doc, "engines", (list,), "top-level")
        if not engines:
            if engines == []:
                self.error("engines", "must not be empty")
            return
        detected = set()  # (comparisons, pairs) must agree across engines
        for i, engine in enumerate(engines):
            where = f"engines[{i}]"
            if not isinstance(engine, dict):
                self.error(where, "must be an object")
                continue
            name = self.require(engine, "name", (str,), where)
            if name:
                where = f"engines[{i}] ({name})"
            self.check_nonneg(engine, "num_threads", where)
            phases = self.require(engine, "phases", (dict,), where)
            if phases is not None:
                self.check_phases(phases, f"{where}.phases")
            comparisons = self.check_nonneg(engine, "comparisons", where)
            pairs = self.check_nonneg(engine, "movie_duplicate_pairs", where)
            if comparisons is not None and pairs is not None:
                detected.add((comparisons, pairs))
            metrics = self.require(engine, "metrics", (dict,), where)
            if metrics is None:
                continue
            counters = self.check_metrics(metrics, f"{where}.metrics")
            if "degradation" in engine:  # optional governance block
                deg = self.require(engine, "degradation", (dict,), where)
                if deg is not None:
                    self.check_degradation(deg, f"{where}.degradation",
                                           counters)
            if counters is None or comparisons is None:
                continue
            unique = counters.get("sw.unique_comparisons")
            if isinstance(unique, int) and unique != comparisons:
                self.error(where,
                           "'comparisons' disagrees with counter "
                           f"sw.unique_comparisons: {comparisons} != {unique}")
            windowed = counters.get("sw.pairs_windowed")
            kernel = counters.get("sw.comparisons")
            skips = counters.get("sw.prepass_skips")
            if all(isinstance(v, int) for v in (windowed, kernel, skips)):
                if windowed != kernel + skips:
                    self.error(
                        where,
                        "sw.pairs_windowed != sw.comparisons + "
                        f"sw.prepass_skips: {windowed} != {kernel} + {skips}")
            # Progress-counter closures (version 6): the live-progress
            # counters batch their adds but flush at the same completion
            # points as their post-hoc twins, so on an ungoverned bench
            # run the totals must agree exactly.
            for live, twin in (("kg.rows_done", "kg.rows"),
                               ("sw.pairs_done", "sw.pairs_windowed"),
                               ("tc.edges_done", "tc.pairs")):
                done = counters.get(live)
                total = counters.get(twin)
                if isinstance(done, int) and isinstance(total, int) \
                        and done != total:
                    self.error(where,
                               f"progress counter {live} disagrees with "
                               f"{twin}: {done} != {total}")
        if len(detected) > 1:
            self.error("engines",
                       "engines disagree on (comparisons, "
                       f"movie_duplicate_pairs): {sorted(detected)} — "
                       "threading must not change detection")
        self.check_telemetry_overhead(doc)
        self.check_checkpoint(doc)
        self.check_profile(doc)

    def check_telemetry_overhead(self, doc):
        """Validate the live-telemetry A/B block (schema version 6).

        Telemetry must be performance-isolated: the same full run with
        the sampler streaming at the default interval may cost at most
        2% over telemetry-off, and detection must be bit-identical.
        """
        block = self.require(doc, "telemetry", (dict,), "top-level")
        if block is None:
            return
        where = "telemetry"
        interval = self.check_nonneg(block, "interval_ms", where,
                                     types=(int, float))
        if interval == 0:
            self.error(where, "interval_ms must be positive")
        repeats = self.check_nonneg(block, "repeats", where)
        if repeats == 0:
            self.error(where, "repeats must be positive")
        self.check_nonneg(block, "clean_movies", where)
        self.check_nonneg(block, "window", where)
        samples = self.check_nonneg(block, "samples", where)
        if samples == 0:
            self.error(where,
                       "samples is 0 — the sampler never ticked (at "
                       "minimum the final sample must land)")
        off_s = self.check_nonneg(block, "telemetry_off_s", where,
                                  types=(int, float))
        on_s = self.check_nonneg(block, "telemetry_on_s", where,
                                 types=(int, float))
        overhead = self.require(block, "overhead_pct", (int, float), where)
        pairs_off = self.check_nonneg(block, "duplicate_pairs_off", where)
        pairs_on = self.check_nonneg(block, "duplicate_pairs_on", where)
        if None not in (pairs_off, pairs_on) and pairs_off != pairs_on:
            self.error(where,
                       "telemetry must not change detection: "
                       f"duplicate_pairs_off {pairs_off} != "
                       f"duplicate_pairs_on {pairs_on}")
        if None in (off_s, on_s, overhead) or off_s <= 0:
            return
        expected = (on_s - off_s) / off_s * 100.0
        # The seconds in the file are rounded for printing, so allow a
        # small absolute slack on top of the relative tolerance (the
        # ceiling below is 2.0, so 0.05 points cannot mask a breach).
        if abs(overhead - expected) > max(0.05, 1e-3 * abs(expected)):
            self.error(where,
                       f"'overhead_pct' inconsistent: {overhead} != "
                       f"({on_s} - {off_s}) / {off_s} * 100")
        if overhead > 2.0:
            self.error(where,
                       "telemetry overhead must stay within 2% at the "
                       f"default interval, got {overhead:.2f}%")

    def check_checkpoint(self, doc):
        """Validate the checkpoint/resume block (schema version 7).

        Three sub-blocks: `snapshots` records snapshot size and
        write/load cost at two corpus scales; `overhead` proves
        every-pass checkpointing costs at most 5% wall-clock over the
        same run cold; `resume` proves a fault-interrupted run, resumed
        from its durable snapshot, reproduces the cold run's output and
        reports the persist.* counters.
        """
        block = self.require(doc, "checkpoint", (dict,), "top-level")
        if block is None:
            return
        snapshots = self.require(block, "snapshots", (list,), "checkpoint")
        if snapshots is not None:
            if len(snapshots) < 2:
                self.error("checkpoint.snapshots",
                           "must record at least two corpus scales, got "
                           f"{len(snapshots)}")
            for i, snap in enumerate(snapshots):
                where = f"checkpoint.snapshots[{i}]"
                if not isinstance(snap, dict):
                    self.error(where, "must be an object")
                    continue
                for key in ("clean_movies", "snapshot_bytes", "frames"):
                    value = self.check_nonneg(snap, key, where)
                    if value == 0:
                        self.error(where, f"{key} must be positive")
                for key in ("write_ms", "load_ms"):
                    self.check_nonneg(snap, key, where, types=(int, float))

        overhead_block = self.require(block, "overhead", (dict,),
                                      "checkpoint")
        if overhead_block is not None:
            where = "checkpoint.overhead"
            self.check_nonneg(overhead_block, "clean_movies", where)
            repeats = self.check_nonneg(overhead_block, "repeats", where)
            if repeats == 0:
                self.error(where, "repeats must be positive")
            off_s = self.check_nonneg(overhead_block, "checkpoint_off_s",
                                      where, types=(int, float))
            on_s = self.check_nonneg(overhead_block, "checkpoint_on_s",
                                     where, types=(int, float))
            overhead = self.require(overhead_block, "overhead_pct",
                                    (int, float), where)
            pairs_off = self.check_nonneg(overhead_block,
                                          "duplicate_pairs_off", where)
            pairs_on = self.check_nonneg(overhead_block,
                                         "duplicate_pairs_on", where)
            if None not in (pairs_off, pairs_on) and pairs_off != pairs_on:
                self.error(where,
                           "checkpointing must not change detection: "
                           f"duplicate_pairs_off {pairs_off} != "
                           f"duplicate_pairs_on {pairs_on}")
            if None not in (off_s, on_s, overhead) and off_s > 0:
                expected = (on_s - off_s) / off_s * 100.0
                if abs(overhead - expected) > max(0.05,
                                                  1e-3 * abs(expected)):
                    self.error(where,
                               f"'overhead_pct' inconsistent: {overhead} "
                               f"!= ({on_s} - {off_s}) / {off_s} * 100")
                if overhead > 5.0:
                    self.error(where,
                               "every-pass checkpointing overhead must "
                               "stay within 5% of the cold run, got "
                               f"{overhead:.2f}%")

        resume = self.require(block, "resume", (dict,), "checkpoint")
        if resume is not None:
            where = "checkpoint.resume"
            self.check_nonneg(resume, "clean_movies", where)
            cold = self.check_nonneg(resume, "duplicate_pairs_cold", where)
            resumed = self.check_nonneg(resume, "duplicate_pairs_resumed",
                                        where)
            if None not in (cold, resumed) and cold != resumed:
                self.error(where,
                           "resumed run must reproduce the cold run: "
                           f"duplicate_pairs_cold {cold} != "
                           f"duplicate_pairs_resumed {resumed}")
            counters = self.require(resume, "counters", (dict,), where)
            if counters is not None:
                for name, floor in (("persist.resume_loads", 1),
                                    ("persist.resume_levels_restored", 1),
                                    ("persist.snapshot_writes", 1),
                                    ("persist.snapshot_bytes_total", 1)):
                    value = self.check_nonneg(counters, name,
                                              f"{where}.counters")
                    if value is not None and value < floor:
                        self.error(f"{where}.counters",
                                   f"{name} must be >= {floor} (the block "
                                   "records a real fault-injected resume), "
                                   f"got {value}")

    def check_profile(self, doc):
        """Validate the CPU-profiling A/B block (schema version 11).

        The same full run profiled and unprofiled: profiling must be
        performance-isolated (<= 3% wall-clock overhead) and must not
        change detection. The block also records the profiled run's
        exact per-span CPU table (microseconds); its top self-CPU span
        proves CPU was charged to real engine spans, not just the
        scaffolding.
        """
        block = self.require(doc, "profile", (dict,), "top-level")
        if block is None:
            return
        where = "profile"
        repeats = self.check_nonneg(block, "repeats", where)
        if repeats == 0:
            self.error(where, "repeats must be positive")
        self.check_nonneg(block, "clean_movies", where)
        self.check_nonneg(block, "window", where)
        cpu_us = self.check_nonneg(block, "cpu_us", where)
        if cpu_us == 0:
            self.error(where,
                       "cpu_us is 0 — a profiled run must account for "
                       "the CPU it burned")
        attributed = self.check_nonneg(block, "attributed_us", where)
        if None not in (cpu_us, attributed) and attributed > cpu_us:
            self.error(where,
                       "span-attributed CPU exceeds the process CPU: "
                       f"attributed_us {attributed} > cpu_us {cpu_us}")
        off_s = self.check_nonneg(block, "profile_off_s", where,
                                  types=(int, float))
        on_s = self.check_nonneg(block, "profile_on_s", where,
                                 types=(int, float))
        overhead = self.require(block, "overhead_pct", (int, float), where)
        pairs_off = self.check_nonneg(block, "duplicate_pairs_off", where)
        pairs_on = self.check_nonneg(block, "duplicate_pairs_on", where)
        if None not in (pairs_off, pairs_on) and pairs_off != pairs_on:
            self.error(where,
                       "profiling must not change detection: "
                       f"duplicate_pairs_off {pairs_off} != "
                       f"duplicate_pairs_on {pairs_on}")
        spans = self.require(block, "top_spans", (list,), where)
        if spans is not None:
            if not spans:
                self.error(f"{where}.top_spans",
                           "must not be empty — the profile must "
                           "attribute CPU to spans")
            prev_self = None
            for i, span in enumerate(spans):
                swhere = f"{where}.top_spans[{i}]"
                if not isinstance(span, dict):
                    self.error(swhere, "must be an object")
                    continue
                path = self.require(span, "path", (str,), swhere)
                if path == "":
                    self.error(swhere, "path must be non-empty")
                self_us = self.check_nonneg(span, "self_us", swhere)
                total = self.check_nonneg(span, "total_us", swhere)
                if None not in (self_us, total) and self_us > total:
                    self.error(swhere,
                               "self_us exceeds total_us: "
                               f"{self_us} > {total}")
                if None not in (total, cpu_us) and total > cpu_us:
                    self.error(swhere,
                               f"total_us {total} exceeds the process "
                               f"CPU cpu_us {cpu_us}")
                if isinstance(self_us, int):
                    if isinstance(prev_self, int) and self_us > prev_self:
                        self.error(swhere,
                                   "top_spans must be sorted by self_us "
                                   "descending")
                    prev_self = self_us
            if spans and isinstance(spans[0], dict):
                top_self = spans[0].get("self_us")
                if isinstance(top_self, int) and top_self == 0:
                    self.error(f"{where}.top_spans[0]",
                               "the top span must have self CPU — a "
                               "profile with no self CPU anywhere "
                               "attributed nothing")
        if None in (off_s, on_s, overhead) or off_s <= 0:
            return
        expected = (on_s - off_s) / off_s * 100.0
        # Seconds are rounded for printing; allow absolute slack well
        # below the 3.0 ceiling.
        if abs(overhead - expected) > max(0.05, 1e-3 * abs(expected)):
            self.error(where,
                       f"'overhead_pct' inconsistent: {overhead} != "
                       f"({on_s} - {off_s}) / {off_s} * 100")
        if overhead > 3.0:
            self.error(where,
                       "CPU-profiling overhead must stay within 3%, "
                       f"got {overhead:.2f}%")

    # --- fig5_scalability -------------------------------------------------

    def check_fig5(self, doc):
        self.check_nonneg(doc, "window", "top-level")
        self.check_nonneg(doc, "seed", "top-level")
        for panel in ("clean", "few_duplicates", "many_duplicates"):
            rows = self.require(doc, panel, (list,), "top-level")
            if rows is None:
                continue
            if not rows:
                self.error(panel, "must not be empty")
                continue
            for i, row in enumerate(rows):
                where = f"{panel}[{i}]"
                if not isinstance(row, dict):
                    self.error(where, "must be an object")
                    continue
                self.check_nonneg(row, "clean_movies", where)
                self.check_nonneg(row, "movie_instances", where)
                phases = self.require(row, "phases", (dict,), where)
                if phases is not None:
                    self.check_phases(phases, f"{where}.phases")
                unique = self.check_nonneg(row, "comparisons", where)
                kernel = self.check_nonneg(row, "kernel_comparisons", where)
                windowed = self.check_nonneg(row, "pairs_windowed", where)
                bailouts = self.check_nonneg(row, "ed_bailouts", where)
                if None in (unique, kernel, windowed, bailouts):
                    continue
                if unique > kernel:
                    self.error(where,
                               "unique comparisons exceed kernel invocations: "
                               f"{unique} > {kernel}")
                if kernel > windowed:
                    self.error(where,
                               "kernel invocations exceed windowed pairs: "
                               f"{kernel} > {windowed}")
                if bailouts > kernel:
                    self.error(where,
                               "ed_bailouts exceed kernel invocations: "
                               f"{bailouts} > {kernel}")
        self.check_out_of_core(doc)

    def check_out_of_core(self, doc):
        """Validate the out-of-core block (schema version 8, optional —
        written by ``fig5_scalability --scale-movies``).

        The block records one sharded run with external-sort spilling
        under a memory budget: the spill path must actually fire
        (spilled_runs / merge_fanin floors), the process's peak RSS
        must stay within ``memory_budget_bytes * rss_slack``, and the
        embedded identity sub-check must prove shards=1 and shards=N
        detect the same duplicates.
        """
        block = doc.get("out_of_core")
        if block is None:
            if self.min_gk_rows:
                self.error("top-level",
                           "--min-gk-rows requires an out_of_core block, "
                           "rerun fig5_scalability with --scale-movies")
            return
        where = "out_of_core"
        if not isinstance(block, dict):
            self.error(where, "must be an object")
            return
        for key in ("clean_movies", "movie_instances"):
            value = self.check_nonneg(block, key, where)
            if value == 0:
                self.error(where, f"{key} must be positive")
        gk_rows = self.check_nonneg(block, "gk_rows", where)
        if gk_rows == 0:
            self.error(where, "gk_rows must be positive")
        if self.min_gk_rows and isinstance(gk_rows, int) \
                and gk_rows < self.min_gk_rows:
            self.error(where,
                       f"gk_rows must cover at least {self.min_gk_rows} "
                       f"generated-key rows, got {gk_rows}")
        shards = self.check_nonneg(block, "shards", where)
        if shards is not None and shards < 2:
            self.error(where,
                       f"the sharded run must use >= 2 shards, got {shards}")
        budget = self.check_nonneg(block, "memory_budget_bytes", where)
        if budget == 0:
            self.error(where, "memory_budget_bytes must be positive "
                              "(0 disables spilling)")
        peak = self.check_nonneg(block, "peak_rss_bytes", where)
        slack = self.require(block, "rss_slack", (int, float), where)
        if slack is not None and slack < 1.0:
            self.error(where, f"rss_slack must be >= 1, got {slack}")
        if None not in (peak, budget, slack) and budget > 0 \
                and peak > budget * slack:
            self.error(where,
                       "peak RSS breaches the memory budget: "
                       f"{peak} > {budget} * {slack}")
        spilled = self.check_nonneg(block, "spilled_runs", where)
        if spilled is not None and spilled < 1:
            self.error(where,
                       "spilled_runs must be >= 1 — the run must "
                       "actually exercise the external-sort spill path")
        spill_bytes = self.check_nonneg(block, "spill_bytes", where)
        if spill_bytes is not None and spilled and spill_bytes < 1:
            self.error(where, "spilled runs must account spill_bytes > 0")
        fanin = self.check_nonneg(block, "merge_fanin_max", where)
        if fanin is not None and fanin < 2:
            self.error(where,
                       "merge_fanin_max must be >= 2 — at least one "
                       f"pass must merge multiple runs, got {fanin}")
        self.check_nonneg(block, "overlap_rows", where)
        self.check_nonneg(block, "duplicate_pairs", where)
        phases = self.require(block, "phases", (dict,), where)
        if phases is not None:
            self.check_phases(phases, f"{where}.phases")

        identity = self.require(block, "identity", (dict,), where)
        if identity is None:
            return
        where = "out_of_core.identity"
        self.check_nonneg(identity, "clean_movies", where)
        self.check_nonneg(identity, "shards", where)
        single = self.check_nonneg(identity, "duplicate_pairs_single", where)
        sharded = self.check_nonneg(identity, "duplicate_pairs_sharded",
                                    where)
        if None not in (single, sharded) and single != sharded:
            self.error(where,
                       "sharding must not change detection: "
                       f"duplicate_pairs_single {single} != "
                       f"duplicate_pairs_sharded {sharded}")
        comp_single = self.check_nonneg(identity, "comparisons_single", where)
        comp_sharded = self.check_nonneg(identity, "comparisons_sharded",
                                         where)
        if None not in (comp_single, comp_sharded) \
                and comp_single != comp_sharded:
            self.error(where,
                       "sharding must not change the comparison count: "
                       f"comparisons_single {comp_single} != "
                       f"comparisons_sharded {comp_sharded}")
        identical = self.require(identity, "identical", (bool,), where)
        if identical is False:
            self.error(where,
                       "the bench's own shards=1 vs shards=N comparison "
                       "failed — sharded detection is not bit-identical")

    # --- micro_similarity -------------------------------------------------

    def check_similarity(self, doc):
        """Edit-distance kernel comparison: classic row DP vs Myers.

        The checked-in file must demonstrate the bit-parallel kernel's
        advantage; the floor here (2x on 16..64-char strings) is set
        below the expected ~3-5x so reruns on slower CI machines still
        validate.
        """
        self.check_nonneg(doc, "repeats", "top-level")
        kernels = self.require(doc, "kernels", (list,), "top-level")
        if kernels is None:
            return
        if not kernels:
            self.error("kernels", "must not be empty")
            return
        for i, row in enumerate(kernels):
            where = f"kernels[{i}]"
            if not isinstance(row, dict):
                self.error(where, "must be an object")
                continue
            length = self.check_nonneg(row, "length", where)
            if length is not None:
                where = f"kernels[{i}] (len {length})"
            classic = self.check_nonneg(row, "classic_dp_ns", where,
                                        types=(int, float))
            myers = self.check_nonneg(row, "myers_ns", where,
                                      types=(int, float))
            speedup = self.check_nonneg(row, "speedup", where,
                                        types=(int, float))
            match = self.require(row, "distances_match", (bool,), where)
            if match is False:
                self.error(where,
                           "kernels disagree on distances — the Myers "
                           "kernel must be exact")
            if None in (classic, myers, speedup) or myers <= 0:
                continue
            expected = classic / myers
            if abs(speedup - expected) > 1e-3 * max(expected, 1.0):
                self.error(where,
                           f"'speedup' inconsistent: {speedup} != "
                           f"{classic} / {myers}")
            if length is not None and 16 <= length <= 64 and speedup < 2.0:
                self.error(where,
                           "bit-parallel kernel must be at least 2x the "
                           f"classic DP on {length}-char strings, "
                           f"got {speedup:.2f}x")

    # --- entry point ------------------------------------------------------

    def check(self, doc):
        if not isinstance(doc, dict):
            self.error("top-level", "document must be a JSON object")
            return
        bench = self.require(doc, "bench", (str,), "top-level")
        version = self.require(doc, "schema_version", (int,), "top-level")
        if version is not None and version != SCHEMA_VERSION:
            self.error("top-level",
                       f"schema_version must be {SCHEMA_VERSION}, "
                       f"got {version}")
        if bench == "micro_pipeline":
            self.check_pipeline(doc)
        elif bench == "micro_similarity":
            self.check_similarity(doc)
        elif bench == "fig5_scalability":
            self.check_fig5(doc)
        elif bench is not None:
            self.error("top-level", f"unknown bench kind '{bench}'")


# --- decision-provenance NDJSON (--explain-schema) ------------------------

PROVENANCE_ENUM = ("owned", "prepass")

# type -> (field, allowed python types); bool before int matters nowhere
# here because require() rejects bools unless asked for.
EXPLAIN_REQUIRED = {
    "candidate": [("candidate", (str,)), ("depth", (int,)),
                  ("instances", (int,)), ("keys", (int,)),
                  ("window", (int,)), ("window_policy", (str,)),
                  ("threshold", (int, float))],
    "instance": [("candidate", (str,)), ("ordinal", (int,)),
                 ("eid", (int,)), ("keys", (list,)), ("ranks", (list,))],
    "pair": [("candidate", (str,)), ("pass", (int,)), ("a", (int,)),
             ("b", (int,)), ("eid_a", (int,)), ("eid_b", (int,)),
             ("window_distance", (int,)), ("provenance", (str,)),
             ("verdict", (bool,))],
    "shed": [("candidate", (str,)), ("pass", (int,)),
             ("provenance", (str,)), ("skipped", (bool,)),
             ("window_configured", (int,)), ("window_used", (int,)),
             ("rows", (int,)), ("pairs_planned", (int,)),
             ("pairs_elided", (int,))],
    "merge": [("candidate", (str,)), ("a", (int,)), ("b", (int,)),
              ("root_a", (int,)), ("root_b", (int,)), ("root", (int,)),
              ("merged", (bool,))],
    "cluster": [("candidate", (str,)), ("cluster", (int,)),
                ("members", (list,))],
}

OWNED_DETAIL_FIELDS = [("components", (list,)), ("descendants", (list,)),
                       ("theory_equal", (bool,)), ("od_valid", (bool,)),
                       ("od_sim", (int, float)), ("desc_valid", (bool,)),
                       ("desc_sim", (int, float)), ("score", (int, float)),
                       ("threshold", (int, float))]


class ExplainChecker(Checker):
    """Validates one explain NDJSON log (shares Checker's plumbing)."""

    def check_unit(self, obj, key, where):
        value = self.require(obj, key, (int, float), where)
        if value is not None and not 0.0 <= value <= 1.0:
            self.error(where, f"'{key}' must be within [0, 1], got {value}")
        return value

    def check_pair(self, record, where):
        provenance = record.get("provenance")
        if provenance not in PROVENANCE_ENUM:
            self.error(where, f"provenance must be one of {PROVENANCE_ENUM}, "
                              f"got {provenance!r}")
        a, b = record.get("a"), record.get("b")
        if isinstance(a, int) and isinstance(b, int) and not a < b:
            self.error(where, f"pair must be ordered a < b, got ({a}, {b})")
        pass_index = record.get("pass")
        if isinstance(pass_index, int):
            if provenance == "prepass" and pass_index != -1:
                self.error(where, "prepass records must carry pass -1, "
                                  f"got {pass_index}")
            if provenance != "prepass" and pass_index < 0:
                self.error(where, f"pass must be >= 0, got {pass_index}")
        if provenance != "owned":
            if "score" in record:
                self.error(where, f"{provenance} records carry the verdict "
                                  "only and must not carry a scoring "
                                  "breakdown")
            return
        for field, types in OWNED_DETAIL_FIELDS:
            self.require(record, field, types, where)
        for field in ("od_sim", "desc_sim", "score", "threshold"):
            if isinstance(record.get(field), (int, float)):
                self.check_unit(record, field, where)
        for j, component in enumerate(record.get("components") or []):
            cwhere = f"{where}.components[{j}]"
            if not isinstance(component, dict):
                self.error(cwhere, "must be an object")
                continue
            self.require(component, "index", (int,), cwhere)
            self.require(component, "comparable", (bool,), cwhere)
            self.check_unit(component, "sim", cwhere)
            distance = self.require(component, "edit_distance", (int,), cwhere)
            if distance is not None and distance < -1:
                self.error(cwhere, f"edit_distance must be >= -1, "
                                   f"got {distance}")

    def check(self, lines):
        accepted = {}  # candidate -> set of accepted (a, b)
        merged = {}    # candidate -> set of merge-record (a, b)
        seen_events = set()  # (candidate, pass, a, b) must be unique
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where = f"line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                self.error(where, f"invalid JSON: {e}")
                continue
            if not isinstance(record, dict):
                self.error(where, "record must be a JSON object")
                continue
            kind = record.get("type")
            if kind not in EXPLAIN_REQUIRED:
                self.error(where, f"unknown record type {kind!r}")
                continue
            where = f"line {lineno} ({kind})"
            for field, types in EXPLAIN_REQUIRED[kind]:
                self.require(record, field, types, where)
            candidate = record.get("candidate")
            if kind == "candidate":
                self.check_unit(record, "threshold", where)
            elif kind == "pair":
                self.check_pair(record, where)
                event = (candidate, record.get("pass"), record.get("a"),
                         record.get("b"))
                if event in seen_events:
                    self.error(where, "duplicate classification event "
                                      f"{event}")
                seen_events.add(event)
                if record.get("verdict") is True:
                    accepted.setdefault(candidate, set()).add(
                        (record.get("a"), record.get("b")))
            elif kind == "shed":
                if record.get("provenance") != "shed":
                    self.error(where, "shed records must carry "
                                      "provenance \"shed\"")
            elif kind == "merge":
                merged.setdefault(candidate, set()).add(
                    (record.get("a"), record.get("b")))
            elif kind == "cluster":
                members = record.get("members")
                if isinstance(members, list) and len(members) < 2:
                    self.error(where, "clusters in the log are non-trivial "
                                      f"(>= 2 members), got {members}")
        # The merge lineage replays exactly the deduplicated accepted
        # pairs — no invented merges, no dropped accepts.
        for candidate in sorted(set(accepted) | set(merged)):
            got = merged.get(candidate, set())
            want = accepted.get(candidate, set())
            if got != want:
                self.error(f"candidate '{candidate}'",
                           "merge lineage disagrees with accepted pairs: "
                           f"{len(got)} merge record(s) vs "
                           f"{len(want)} accepted pair(s)")


# --- live-telemetry NDJSON (--telemetry-schema) ---------------------------

# Progress metrics every stream must carry: the detector registers them
# up front, so even a first-tick sample has the whole family.
TELEMETRY_REQUIRED_COUNTERS = ["kg.rows_done", "sw.pairs_done",
                               "tc.edges_done", "sw.comparisons"]
TELEMETRY_REQUIRED_GAUGES = ["progress.phase", "kg.rows_total",
                             "sw.pairs_planned_total"]
# setup, kg, sw, tc, done, external sort (v8; samples during the spill
# + merge stage of an out-of-core run).
TELEMETRY_PHASES = (0, 1, 2, 3, 4, 5)


class TelemetryChecker(Checker):
    """Validates one telemetry NDJSON stream (shares Checker's plumbing).

    The stream is wall-clock-driven, so sample *count* and mid-run
    values are run-dependent; this checks structure and the invariants
    that hold regardless: header first, sequential seq, non-decreasing
    time, monotone counters, one final sample in last position.
    """

    def check_sample(self, record, where, prev):
        seq = self.check_nonneg(record, "seq", where)
        t_ms = self.check_nonneg(record, "t_ms", where, types=(int, float))
        self.require(record, "final", (bool,), where)
        phase = self.require(record, "phase", (int,), where)
        if phase is not None and phase not in TELEMETRY_PHASES:
            self.error(where, f"phase must be in {TELEMETRY_PHASES}, "
                              f"got {phase}")
        self.require(record, "phase_name", (str,), where)
        progress = self.require(record, "progress", (int, float), where)
        if progress is not None and not (progress == -1
                                         or 0.0 <= progress <= 1.0):
            self.error(where, "progress must be -1 (unknown) or within "
                              f"[0, 1], got {progress}")
        eta = self.require(record, "eta_s", (int, float), where)
        if eta is not None and eta < 0 and eta != -1:
            self.error(where, f"eta_s must be -1 (unknown) or >= 0, "
                              f"got {eta}")
        mem = self.require(record, "mem", (dict,), where)
        if mem is not None:
            self.require(mem, "sampled", (bool,), f"{where}.mem")
            for field in ("rss_bytes", "peak_rss_bytes", "vm_bytes"):
                self.check_nonneg(mem, field, f"{where}.mem")
        # CPU utilization (v9): getrusage deltas over the sample window,
        # clamped to >= 0. 100% means one saturated core, so parallel
        # phases legitimately exceed 100.
        self.check_nonneg(record, "cpu_user_pct", where, types=(int, float))
        self.check_nonneg(record, "cpu_sys_pct", where, types=(int, float))
        self.check_nonneg(record, "threads", where)
        self.require(record, "cpu_sampled", (bool,), where)
        counters = self.require(record, "counters", (dict,), where)
        if counters is not None:
            for name in TELEMETRY_REQUIRED_COUNTERS:
                self.check_nonneg(counters, name, f"{where}.counters")
            for name, value in counters.items():
                if isinstance(value, bool) or not isinstance(value, int) \
                        or value < 0:
                    self.error(f"{where}.counters",
                               f"'{name}' must be a non-negative integer, "
                               f"got {value!r}")
        gauges = self.require(record, "gauges", (dict,), where)
        if gauges is not None:
            for name in TELEMETRY_REQUIRED_GAUGES:
                self.require(gauges, name, (int, float), f"{where}.gauges")
        rates = self.require(record, "rates", (dict,), where)
        if rates is not None:
            for name, value in rates.items():
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)) or value < 0:
                    self.error(f"{where}.rates",
                               f"'{name}' must be a non-negative number, "
                               f"got {value!r}")
        histograms = self.require(record, "histograms", (dict,), where)
        if histograms is not None:
            for name, value in histograms.items():
                hwhere = f"{where}.histograms.{name}"
                if not isinstance(value, dict):
                    self.error(hwhere, "must be an object")
                    continue
                self.check_nonneg(value, "count", hwhere)
                self.check_nonneg(value, "sum", hwhere, types=(int, float))

        if prev is not None:
            if isinstance(seq, int) and seq != prev.get("seq", -1) + 1:
                self.error(where, f"seq must be sequential, got {seq} "
                                  f"after {prev.get('seq')}")
            prev_t = prev.get("t_ms")
            if isinstance(t_ms, (int, float)) \
                    and isinstance(prev_t, (int, float)) and t_ms < prev_t:
                self.error(where, f"t_ms went backwards: {t_ms} < {prev_t}")
            if prev.get("final") is True:
                self.error(where, "no samples may follow the final sample")
            prev_counters = prev.get("counters")
            if isinstance(counters, dict) and isinstance(prev_counters, dict):
                for name, value in prev_counters.items():
                    now = counters.get(name)
                    if isinstance(now, int) and isinstance(value, int) \
                            and now < value:
                        self.error(f"{where}.counters",
                                   f"'{name}' went backwards: "
                                   f"{now} < {value}")
        elif isinstance(seq, int) and seq != 0:
            self.error(where, f"first sample must have seq 0, got {seq}")

    def check(self, lines):
        header = None
        prev = None
        saw_final = False
        sample_count = 0
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where = f"line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                self.error(where, f"invalid JSON: {e}")
                continue
            if not isinstance(record, dict):
                self.error(where, "record must be a JSON object")
                continue
            kind = record.get("type")
            if header is None:
                if kind != "header":
                    self.error(where, "stream must start with a header "
                                      f"record, got {kind!r}")
                    return
                header = record
                version = self.require(record, "version", (int,), where)
                if version is not None and version != 1:
                    self.error(where, f"header version must be 1, "
                                      f"got {version}")
                interval = self.check_nonneg(record, "interval_ms", where,
                                             types=(int, float))
                if interval == 0:
                    self.error(where, "interval_ms must be positive")
                # pid (v8): optional — streams from older engines lack
                # it; when present it must be a positive process id.
                if "pid" in record:
                    pid = self.check_nonneg(record, "pid", where)
                    if pid == 0:
                        self.error(where, "pid must be positive")
                continue
            if kind != "sample":
                self.error(where, f"unknown record type {kind!r}")
                continue
            self.check_sample(record, f"line {lineno} (sample)", prev)
            saw_final = saw_final or record.get("final") is True
            sample_count += 1
            prev = record
        if header is None:
            self.error("top-level", "stream is empty (no header record)")
        elif sample_count == 0:
            self.error("top-level", "stream has no samples")
        elif not saw_final:
            self.error("top-level",
                       "stream never quiesced: no final sample (the run "
                       "may have crashed mid-write — acceptable for a "
                       "live tail, not for a checked-in stream)")


# --- folded-stack profiles (--profile-folded-schema) ----------------------


class FoldedChecker(Checker):
    """Validates one folded-stack CPU profile (flamegraph.pl format)."""

    def check(self, lines):
        stacks = 0
        for lineno, line in enumerate(lines, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            where = f"line {lineno}"
            head, sep, count_text = line.rpartition(" ")
            if not sep or not head:
                self.error(where, f"expected 'path COUNT', got {line!r}")
                continue
            try:
                count = int(count_text)
            except ValueError:
                self.error(where, f"CPU count {count_text!r} is not an "
                                  "integer")
                continue
            if count < 0:
                self.error(where, f"negative CPU count {count}")
            frames = head.split(";")
            for frame in frames:
                if not frame:
                    self.error(where, f"empty frame in path {head!r}")
                elif any(c in frame for c in " \t"):
                    self.error(where, f"unescaped whitespace in frame "
                                      f"{frame!r}")
            stacks += 1
        if stacks == 0:
            self.error("top-level", "profile has no stacks")


def check_folded_files(paths):
    failed = False
    for path in paths:
        checker = FoldedChecker(path)
        try:
            with open(path, encoding="utf-8") as f:
                checker.check(f)
        except OSError as e:
            checker.error("top-level", f"cannot load: {e}")
        if checker.errors:
            failed = True
            for error in checker.errors:
                print(error, file=sys.stderr)
        else:
            print(f"{path}: OK (folded-stack profile)")
    return 1 if failed else 0


def check_telemetry_files(paths):
    failed = False
    for path in paths:
        checker = TelemetryChecker(path)
        try:
            with open(path, encoding="utf-8") as f:
                checker.check(f)
        except OSError as e:
            checker.error("top-level", f"cannot load: {e}")
        if checker.errors:
            failed = True
            for error in checker.errors:
                print(error, file=sys.stderr)
        else:
            print(f"{path}: OK (telemetry NDJSON)")
    return 1 if failed else 0


def check_explain_files(paths):
    failed = False
    for path in paths:
        checker = ExplainChecker(path)
        try:
            with open(path, encoding="utf-8") as f:
                checker.check(f)
        except OSError as e:
            checker.error("top-level", f"cannot load: {e}")
        if checker.errors:
            failed = True
            for error in checker.errors:
                print(error, file=sys.stderr)
        else:
            print(f"{path}: OK (explain NDJSON)")
    return 1 if failed else 0


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[1] == "--explain-schema":
        if len(argv) < 3:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        return check_explain_files(argv[2:])
    if argv[1] == "--telemetry-schema":
        if len(argv) < 3:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        return check_telemetry_files(argv[2:])
    if argv[1] == "--profile-folded-schema":
        if len(argv) < 3:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        return check_folded_files(argv[2:])
    min_gk_rows = 0
    if argv[1] == "--min-gk-rows":
        if len(argv) < 4:
            print(__doc__.strip(), file=sys.stderr)
            return 2
        try:
            min_gk_rows = int(argv[2])
        except ValueError:
            print(f"--min-gk-rows: not an integer: {argv[2]}",
                  file=sys.stderr)
            return 2
        argv = argv[:1] + argv[3:]
    failed = False
    for path in argv[1:]:
        checker = Checker(path, min_gk_rows=min_gk_rows)
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            checker.error("top-level", f"cannot load: {e}")
            doc = None
        if doc is not None:
            checker.check(doc)
        if checker.errors:
            failed = True
            for error in checker.errors:
                print(error, file=sys.stderr)
        else:
            print(f"{path}: OK ({doc['bench']}, "
                  f"schema_version {doc['schema_version']})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
