"""The benchmark's workloads: generated configs, one point each, and checks.

Each workload drives airylink from outside, through the calls the
`airylink sweep` and `airylink fieldmap` commands make. The seed sets the
blockage heights, the training-noise seeds and the beams; the library sees
only the generated YAML config and the per-point sweep specs. Why each
workload exists, and what a point is, is in README.md next to this file.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

# The acceptance test's shadowing range for a screen at 0.9 m (metres).
HEIGHT_RANGE = (0.0042, 0.0114)
# Long enough that no run exhausts it; a point index wraps around.
MAX_POINTS = 256

# Relative tolerance on spectral efficiency against the committed reference.
SE_RTOL = 1e-9
# Tolerance on field-map dB values: relative, and absolute below 1 dB.
DB_TOL = 1e-6
# Searched schemes may not beat perfect CSI by more than this (bits/s/Hz).
PERFECT_SLACK = 1e-9
# Every FIELD_STRIDE-th cell of a field map goes into the reference.
FIELD_STRIDE = 199

SEARCHED = ("exhaustive", "hierarchical", "low_complexity", "farfield", "nearfield")
SEARCH_SCHEME = {"exhaustive_search": "exhaustive",
                 "hierarchical_search": "hierarchical",
                 "low_complexity_search": "low_complexity",
                 "farfield_steering_search": "farfield",
                 "nearfield_focusing_search": "nearfield"}


def _config(tx: int, height: float, seed: int, sweep: str = "") -> str:
    return f"""\
scenario:
  frequency_hz: 140.0e9
  link_distance_m: 1.0
  tx_elements: {tx}
  rx_elements: 16
  virtual_planes: 8
  blockage:
    distance_from_tx_m: 0.9
    width_m: 0.02
    extent_above_m: {height!r}
    extent_below_m: 0.5
codebook:
  targets: [0.4, 0.15, 0.0]
  curving_range: 10.0
  r_min_m: 0.14
training:
  transmit_power: 1.0
  target_se_bps_hz: 15.0
  rng_seed: {seed}
{sweep}"""


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


class Workload:
    """One named workload. `mods` maps module names to airylink's modules."""

    name = ""
    tx = 0
    trace_points = 1

    def __init__(self, seed: int, mods: dict):
        self.seed = seed
        self.mods = mods
        rng = random.Random(f"{self.name}:{seed}")
        self.height = rng.uniform(*HEIGHT_RANGE)
        self.heights = [rng.uniform(*HEIGHT_RANGE) for _ in range(MAX_POINTS)]
        self.point_seeds = [rng.getrandbits(32) for _ in range(MAX_POINTS)]

    def config_text(self) -> str:
        raise NotImplementedError

    def setup(self, config_path: Path) -> None:
        """What the CLI does before its first sweep point; timed as setup."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Untimed: expected sizes the invariant checks compare against."""

    def point(self, i: int, out: Path):
        raise NotImplementedError

    def check(self, i: int, output, captured: list, out: Path) -> list:
        raise NotImplementedError

    def reference_entry(self, output, captured: list):
        raise NotImplementedError

    def compare(self, entry, ref) -> list:
        raise NotImplementedError

    def size(self) -> dict:
        raise NotImplementedError


class _Sweep(Workload):
    """Shared set-up, output and checks of the two sweep workloads."""

    schemes: tuple = ()

    def setup(self, config_path):
        cli = self.mods["cli"]
        self.cfg = cli.load_config(config_path)
        self.channels = cli.build_channel_set(self.cfg)
        self.train = cli.resolve_training(self.cfg, self.channels)
        self.plan = cli.solve_plan(self.cfg)

    def prepare_checks(self):
        cb = self.mods["codebook"]
        sc, plan = self.cfg.scenario, self.plan
        j, k, v = plan.counts
        self.book_sizes = {
            "exhaustive": j * k * v,
            "hierarchical": len(cb.build_los_region_points(sc, plan)) + j,
            "low_complexity": len(cb.build_low_complexity_codebooks(sc, plan)[0]) + j,
            "farfield": v,
            "nearfield": sc.rx.num_elements,
            "perfect_csi": 0,
            "non_blocked": 0,
        }

    def _run(self, spec, builder, out):
        rows = self.mods["evaluation"].run_sweep(
            spec, self.cfg.scenario, self.plan, self.train, channel_builder=builder)
        out.mkdir(parents=True, exist_ok=True)
        self.mods["gridio"].write_sweep_csv(out / "sweep.csv", rows)
        return rows

    def _check_searches(self, captured: list) -> list:
        problems = []
        for fn, *_, overhead in captured:
            want = self.book_sizes[SEARCH_SCHEME[fn]]
            if overhead != want:
                problems.append(f"{fn}: overhead {overhead} != codebook size {want}")
        return problems

    def reference_entry(self, rows, captured):
        return {"rows": [[r.scheme, r.value, r.spectral_efficiency_bps_hz,
                          r.overhead_slots] for r in rows],
                "searches": captured}

    def compare(self, entry, ref):
        problems = []
        if entry["searches"] != ref["searches"]:
            problems.append(f"selected beams {entry['searches']} != reference "
                            f"{ref['searches']}")
        if len(entry["rows"]) != len(ref["rows"]):
            return problems + ["row count differs from reference"]
        for got, want in zip(entry["rows"], ref["rows"]):
            if (got[0], got[1], got[3]) != (want[0], want[1], want[3]):
                problems.append(f"row {got} != reference {want}")
            elif not _close(got[2], want[2], SE_RTOL):
                problems.append(f"{got[0]} at {got[1]!r}: SE {got[2]!r} != "
                                f"reference {want[2]!r}")
        return problems


class HeightSweep(_Sweep):
    """Spectral efficiency versus blockage height, one height per point."""

    name = "height_sweep"
    tx = 256
    trace_points = 2
    schemes = ("perfect_csi", "non_blocked", "hierarchical", "low_complexity",
               "farfield", "nearfield")

    def config_text(self):
        sweep = ("sweep:\n  variable: height\n"
                 f"  grid: [{', '.join(repr(h) for h in self.heights)}]\n"
                 f"  schemes: [{', '.join(self.schemes)}]\n")
        return _config(self.tx, self.height, self.seed, sweep)

    def point(self, i, out):
        ev, cli = self.mods["evaluation"], self.mods["cli"]
        grid = self.cfg.sweep.grid
        spec = ev.SweepSpec(ev.SweptVariable.BLOCKAGE_HEIGHT, (grid[i % len(grid)],),
                            tuple(ev.BeamformingScheme(s) for s in self.cfg.sweep.schemes),
                            base_seed=self.point_seeds[i % MAX_POINTS])
        return self._run(spec, lambda sc: cli.build_channel_set(self.cfg, sc), out)

    def check(self, i, rows, captured, out):
        problems = self._check_searches(captured)
        if [r.scheme for r in rows] != list(self.schemes):
            return problems + [f"schemes {[r.scheme for r in rows]}"]
        se = {r.scheme: r.spectral_efficiency_bps_hz for r in rows}
        for r in rows:
            if not math.isfinite(r.spectral_efficiency_bps_hz):
                problems.append(f"{r.scheme}: non-finite SE")
            if r.overhead_slots != self.book_sizes[r.scheme]:
                problems.append(f"{r.scheme}: overhead {r.overhead_slots} != "
                                f"codebook size {self.book_sizes[r.scheme]}")
            if r.scheme in SEARCHED and (r.spectral_efficiency_bps_hz
                                         > se["perfect_csi"] + PERFECT_SLACK):
                problems.append(f"{r.scheme} beats perfect CSI")
        return problems

    def size(self):
        return {"tx_elements": self.tx, "rx_elements": 16, "virtual_planes": 8,
                "screen_x_m": 0.9, "height_range_m": list(HEIGHT_RANGE),
                "schemes": list(self.schemes), "point": "one height, all schemes",
                "traced_points": self.trace_points}


class TrainingOverhead(_Sweep):
    """Spectral efficiency versus training budget, one repetition per point."""

    name = "training_overhead"
    tx = 128
    trace_points = 8
    schemes = SEARCHED
    # 1..8382 slots; 20, 127, 221 and 8382 are the lowc, ff, hier and
    # exhaustive totals at this size, so each scheme's full search is a row.
    budgets = (1, 2, 4, 8, 16, 20, 32, 64, 127, 128, 221, 256, 512, 1024, 2048,
               4096, 8382)

    def config_text(self):
        sweep = ("sweep:\n  variable: overhead\n"
                 f"  grid: [{', '.join(str(b) for b in self.budgets)}]\n"
                 f"  schemes: [{', '.join(self.schemes)}]\n")
        return _config(self.tx, self.height, self.seed, sweep)

    def setup(self, config_path):
        super().setup(config_path)
        # cmd_sweep hands run_sweep a builder that builds the set again.
        self.point_channels = self.mods["cli"].build_channel_set(self.cfg, self.cfg.scenario)

    def prepare_checks(self):
        super().prepare_checks()
        ev, ch = self.mods["evaluation"], self.point_channels
        bf = ev.build_scheme_beamformers(ev.BeamformingScheme.PERFECT_CSI,
                                         design_channel=ch.blocked)
        self.perfect_se = bf.evaluate(ch.blocked, self.train.transmit_power,
                                      self.train.noise_power)

    def point(self, i, out):
        ev = self.mods["evaluation"]
        spec = ev.SweepSpec(ev.SweptVariable.OVERHEAD, self.cfg.sweep.grid,
                            tuple(ev.BeamformingScheme(s) for s in self.cfg.sweep.schemes),
                            base_seed=self.point_seeds[i % MAX_POINTS])
        return self._run(spec, lambda sc: self.point_channels, out)

    def check(self, i, rows, captured, out):
        problems = self._check_searches(captured)
        n = len(self.budgets)
        if [r.scheme for r in rows] != [s for s in self.schemes for _ in range(n)]:
            return problems + ["rows are not one per scheme and budget"]
        for s, scheme in enumerate(self.schemes):
            prev = -math.inf
            for budget, r in zip(self.budgets, rows[s * n:(s + 1) * n]):
                se = r.spectral_efficiency_bps_hz
                want = min(budget, self.book_sizes[scheme])
                if r.overhead_slots != want:
                    problems.append(f"{scheme} at {budget}: overhead "
                                    f"{r.overhead_slots} != {want}")
                if not math.isfinite(se):
                    problems.append(f"{scheme} at {budget}: non-finite SE")
                elif se < prev:
                    problems.append(f"{scheme} at {budget}: SE decreased")
                elif se > self.perfect_se + PERFECT_SLACK:
                    problems.append(f"{scheme} at {budget}: beats perfect CSI")
                prev = se
        return problems

    def size(self):
        return {"tx_elements": self.tx, "rx_elements": 16, "virtual_planes": 8,
                "screen_x_m": 0.9, "budgets": list(self.budgets),
                "schemes": list(self.schemes), "point": "one repetition",
                "traced_points": self.trace_points}


class FieldmapRender(Workload):
    """200x200 field maps of curved beams through the blocked scenario."""

    name = "fieldmap_render"
    tx = 128
    trace_points = 3
    nx = ny = 200

    def config_text(self):
        return _config(self.tx, self.height, self.seed)

    def setup(self, config_path):
        cli, beam = self.mods["cli"], self.mods["beam"]
        self.cfg = cli.load_config(config_path)
        self.plan = cli.solve_plan(self.cfg)
        sc = self.cfg.scenario
        # The grid `airylink fieldmap` renders by default.
        half = max(abs(sc.tx.span[0]), abs(sc.tx.span[1]),
                   abs(sc.rx.span[0]), abs(sc.rx.span[1]))
        self.grid = beam.GridSpec(sc.link_distance / self.nx, sc.link_distance,
                                  self.nx, -1.5 * half, 1.5 * half, self.ny)
        # Beams cycle through the plan's curving values in a seeded order.
        self.curvings = [float(a) for a in self.plan.curving_values]
        random.Random(self.point_seeds[0]).shuffle(self.curvings)

    def point(self, i, out):
        beam, gridio = self.mods["beam"], self.mods["gridio"]
        sc = self.cfg.scenario
        params = beam.BeamParams(self.curvings[i % len(self.curvings)],
                                 sc.link_distance, 0.0)
        fmap = beam.render_field_map(beam.airy_beam_vector(params, sc.tx, sc.carrier),
                                     sc, self.grid)
        out.mkdir(parents=True, exist_ok=True)
        gridio.write_field_map_csv(out / "fieldmap.csv", fmap)
        gridio.write_field_map_binary(out / "fieldmap.bin", fmap)
        return params.curving, fmap

    def check(self, i, output, captured, out):
        # Imported here: numpy must load after airylink applies its thread cap.
        import numpy as np

        _, fmap = output
        db = fmap.power_db
        problems = []
        if db.shape != (self.ny, self.nx):
            problems.append(f"map shape {db.shape}")
        if not np.all(np.isfinite(db)):
            problems.append("non-finite dB values")
        elif db.max() != 0.0 or db.min() < fmap.DB_FLOOR:
            problems.append(f"dB range [{db.min()}, {db.max()}]")
        back = self.mods["gridio"].read_field_map_binary(out / "fieldmap.bin")
        if not np.array_equal(back.power_db, db):
            problems.append("binary map does not read back equal")
        with open(out / "fieldmap.csv", "rb") as f:
            lines = sum(1 for _ in f)
        if lines != self.nx * self.ny + 1:
            problems.append(f"CSV has {lines} lines")
        return problems

    def reference_entry(self, output, captured):
        curving, fmap = output
        db = fmap.power_db
        return {"curving": curving, "peak": list(fmap.peak()),
                "mean_db": float(db.mean()),
                "sample_db": [float(v) for v in db.ravel()[::FIELD_STRIDE]]}

    def compare(self, entry, ref):
        problems = []
        if (entry["curving"], entry["peak"]) != (ref["curving"], ref["peak"]):
            problems.append(f"beam/peak {entry['curving']}, {entry['peak']} != "
                            f"reference {ref['curving']}, {ref['peak']}")
        pairs = [(entry["mean_db"], ref["mean_db"])]
        pairs += list(zip(entry["sample_db"], ref["sample_db"]))
        bad = sum(not _close(a, b, DB_TOL) for a, b in pairs)
        if bad or len(entry["sample_db"]) != len(ref["sample_db"]):
            problems.append(f"{bad} field-map dB values differ from reference")
        return problems

    def size(self):
        return {"tx_elements": self.tx, "rx_elements": 16, "virtual_planes": 8,
                "screen_x_m": 0.9, "map_grid": [self.nx, self.ny],
                "beams": "the plan's curving values, seeded order",
                "point": "one beam: render, write CSV and binary",
                "traced_points": self.trace_points}


WORKLOADS = {w.name: w for w in (HeightSweep, TrainingOverhead, FieldmapRender)}
