"""Spans and counts around calls into airylink's modules, kept in memory.

The package is not modified. `Instruments` swaps module attributes of the
imported package for wrappers inside a `with` block and restores them on
exit. Each wrapper is installed where the caller looks the name up, e.g.
`evaluation.wcm_channel` is the channel-module function as seen by
`evaluation.calibrated_wave_channels`, so the span sits on the boundary
between the two modules. A span's layer is the module named before the
first dot of its name.

Per-slot `search.measure_slot` and per-codeword beam synthesis are not
spanned: a span each would dominate the traced run. Their time is part of
the enclosing search or codebook span, and slots are counted from each
search result's overhead. Attributes of `airylink.beam` other than
`render_field_map` stay unpatched for the same reason: the beam module's
own helpers call `airy_beam_vector` once per codeword.

With no tracer, only the five search entry points are wrapped, to capture
the selected beam of every search for the correctness check; nothing is
timed.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Bytes of one complex128 hop-matrix entry.
ENTRY_BYTES = 16

SEARCHES = ("exhaustive_search", "hierarchical_search", "low_complexity_search",
            "farfield_steering_search", "nearfield_focusing_search")


class Tracer:
    """Spans as [id, name, start, end, parent id, point id], plus counters."""

    def __init__(self):
        self.spans: list = []
        self.point = "setup"
        self.counts: Counter = Counter()
        self.channel_keys: list = []
        self.codebook_keys: list = []
        self.largest_hop = 0
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.point]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover.

        Calls are sequential in one thread, so children never overlap and
        their union is their sum.
        """
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[sid]
                for sid, _, start, end, _, _ in self.spans]

    def layer_busy(self) -> Counter:
        busy: Counter = Counter()
        for rec, own in zip(self.spans, self.self_times()):
            busy[rec[1].split(".")[0]] += own
        return busy

    def total(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _, _ in self.spans if n == name)

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "point")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def _ratio(keys: list) -> float:
    """Distinct keys over keys; 1.0 when nothing was built (nothing wasted)."""
    return len(set(keys)) / len(keys) if keys else 1.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the traced run, as (value, unit) pairs."""
    busy = tracer.layer_busy()
    c = tracer.counts
    slots = c["search.slots"]
    return {
        "channel.busy_s": (busy["channel"], "s"),
        "channel.calls": (c["channel.calls"], "count"),
        "channel.kernel_entries": (c["channel.kernel_entries"], "count"),
        "channel.kernel_bytes": (ENTRY_BYTES * tracer.largest_hop, "B_computed"),
        "channel.distinct_ratio": (_ratio(tracer.channel_keys), "ratio"),
        "codebook.busy_s": (busy["codebook"], "s"),
        "codebook.words": (c["codebook.words"], "count"),
        "codebook.distinct_ratio": (_ratio(tracer.codebook_keys), "ratio"),
        "codebook.plan_s": (tracer.total("codebook.solve_sampling_plan"), "s"),
        "cli.config_s": (tracer.total("cli.load_config"), "s"),
        "search.busy_s": (busy["search"], "s"),
        "search.slots": (slots, "count"),
        "search.us_per_slot": (1e6 * busy["search"] / slots if slots else 0.0, "us"),
        "evaluation.busy_s": (busy["evaluation"], "s"),
        "evaluation.se_evals": (c["evaluation.se_evals"], "count"),
        "beam.render_s": (tracer.total("beam.render_field_map"), "s"),
        "beam.columns": (c["beam.columns"], "count"),
        "gridio.busy_s": (busy["gridio"], "s"),
        "gridio.bytes": (c["gridio.bytes"], "B_computed"),
    }


# --------------------------------------------------------------- counters


def _hops(scenario, use_blockage: bool, model: str) -> list:
    """(n_src, n_dst) of every hop one channel build evaluates."""
    n_t, n_r = scenario.tx.num_elements, scenario.rx.num_elements
    if model == "gcm" or scenario.blockage is None:
        return [(n_t, n_r)]
    va = scenario.with_virtual_defaults().virtual_arrays
    v = va.elements_per_array
    return [(n_t, v)] + [(v, v)] * (va.count - 1) + [(v, n_r)]


def _channel_key(scenario, use_blockage: bool, model: str) -> tuple:
    """What a build depends on. An unblocked build ignores the blockage's
    vertical extent: its mask is all ones and the planes do not move."""
    geometry = (scenario.tx, scenario.rx, scenario.carrier, scenario.link_distance)
    blk = scenario.blockage
    if model == "gcm" and not use_blockage:
        return (model, False, geometry)
    if not use_blockage and blk is not None:
        return (model, False, geometry, blk.distance_from_tx,
                blk.width_along_axis, scenario.virtual_arrays)
    return (model, use_blockage, geometry, blk, scenario.virtual_arrays)


def _on_channel(model):
    def after(tracer, result, args, kwargs):
        scenario = args[0]
        use_blockage = kwargs.get("use_blockage", args[1] if len(args) > 1 else True)
        hops = _hops(scenario, use_blockage, model)
        tracer.counts["channel.calls"] += 1
        tracer.counts["channel.kernel_entries"] += sum(a * b for a, b in hops)
        tracer.largest_hop = max(tracer.largest_hop, *(a * b for a, b in hops))
        tracer.channel_keys.append(_channel_key(scenario, use_blockage, model))
        return result
    return after


def _book_key(name, plan, scenario) -> tuple:
    # No builder reads the blockage; everything else they read is here.
    return (name, id(plan), scenario.tx, scenario.rx, scenario.carrier,
            scenario.link_distance)


def _count_book(tracer, key, book) -> None:
    tracer.counts["codebook.words"] += len(book)
    tracer.codebook_keys.append(key)


def _on_book(name, plan_arg, scenario_arg):
    def after(tracer, book, args, kwargs):
        plan = args[plan_arg] if len(args) > plan_arg else kwargs.get("plan")
        _count_book(tracer, _book_key(name, plan, args[scenario_arg]), book)
        return book
    return after


def _on_two_stage(name, plan_arg, scenario_arg):
    """Count stage 1, and wrap the stage-2 factory so its books are spanned."""
    def after(tracer, result, args, kwargs):
        stage1, factory = result
        plan, scenario = args[plan_arg], args[scenario_arg]
        _count_book(tracer, _book_key(name, plan, scenario), stage1)

        def stage2(r_f, theta_f):
            with tracer.span(f"codebook.{name}.stage2"):
                book = factory(r_f, theta_f)
            key = _book_key(f"{name}.stage2", plan, scenario) + (r_f, theta_f)
            _count_book(tracer, key, book)
            return book
        return stage1, stage2
    return after


def _on_search(name, captured):
    def after(tracer, result, args, kwargs):
        p = result.selected_params
        captured.append([name, p.curving, p.focus_distance, p.focus_angle,
                         result.overhead])
        if tracer is not None:
            tracer.counts["search.slots"] += result.overhead
        return result
    return after


def _on_evaluate(tracer, result, args, kwargs):
    tracer.counts["evaluation.se_evals"] += 1
    return result


def _on_write(tracer, result, args, kwargs):
    tracer.counts["gridio.bytes"] += Path(args[0]).stat().st_size
    return result


def _on_render(tracer, result, args, kwargs):
    tracer.counts["beam.columns"] += result.power_db.shape[1]
    return result


def _passthrough(tracer, result, args, kwargs):
    return result


# ----------------------------------------------------------------- patches


def _targets(m, captured) -> list:
    """(owner, attribute, span name, after-hook) for every traced boundary."""
    cli, ev, srch = m["cli"], m["evaluation"], m["search"]
    t = [
        (cli, "load_config", "cli.load_config", _passthrough),
        (cli, "build_channel_set", "cli.build_channel_set", _passthrough),
        (cli, "resolve_training", "cli.resolve_training", _passthrough),
        (cli, "solve_plan", "cli.solve_plan", _passthrough),
        (cli, "calibrated_wave_channels", "evaluation.calibrated_wave_channels",
         _passthrough),
        (cli, "noise_for_target_se", "evaluation.noise_for_target_se", _passthrough),
        (cli, "solve_sampling_plan", "codebook.solve_sampling_plan", _passthrough),
        (ev, "run_sweep", "evaluation.run_sweep", _passthrough),
        (ev, "gcm_channel", "channel.gcm_channel", _on_channel("gcm")),
        (ev, "wcm_channel", "channel.wcm_channel", _on_channel("wcm")),
        (ev, "calibrate", "channel.calibrate", _passthrough),
        (ev, "apply_calibration", "channel.apply_calibration", _passthrough),
        (ev, "build_exhaustive_codebook", "codebook.build_exhaustive_codebook",
         _on_book("exhaustive", 0, 1)),
        (ev, "build_hierarchical_codebooks", "codebook.build_hierarchical_codebooks",
         _on_two_stage("hierarchical", 0, 1)),
        (ev, "build_low_complexity_codebooks",
         "codebook.build_low_complexity_codebooks", _on_two_stage("low_complexity", 1, 0)),
        (srch, "build_farfield_codebook", "codebook.build_farfield_codebook",
         _on_book("farfield", 1, 0)),
        (srch, "build_nearfield_codebook", "codebook.build_nearfield_codebook",
         _on_book("nearfield", 1, 0)),
        (ev, "build_scheme_beamformers", "evaluation.build_scheme_beamformers",
         _passthrough),
        (ev.Beamformers, "evaluate", "evaluation.evaluate", _on_evaluate),
        (ev, "airy_beam_vector", "beam.airy_beam_vector", _passthrough),
        (m["beam"], "render_field_map", "beam.render_field_map", _on_render),
    ]
    for name in ("write_sweep_csv", "write_field_map_csv", "write_field_map_binary"):
        t.append((m["gridio"], name, f"gridio.{name}", _on_write))
    for name in SEARCHES:
        t.append((ev, name, f"search.{name}", _on_search(name, captured)))
    return t


def _wrap(fn, name, tracer, after):
    if tracer is None:
        def plain(*args, **kwargs):
            return after(None, fn(*args, **kwargs), args, kwargs)
        return plain

    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        return after(tracer, result, args, kwargs)
    return traced


class Instruments:
    """Install the wrappers for the duration of a `with` block.

    `modules` maps module names ("cli", "evaluation", ...) to the imported
    modules. Selected beams of every search are appended to `captured`.
    """

    def __init__(self, modules: dict, tracer: Tracer | None, captured: list):
        targets = _targets(modules, captured)
        if tracer is None:
            targets = [t for t in targets if t[2].startswith("search.")]
        self._patches = [(owner, attr, getattr(owner, attr),
                          _wrap(getattr(owner, attr), name, tracer, after))
                         for owner, attr, name, after in targets]

    def __enter__(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        return False
