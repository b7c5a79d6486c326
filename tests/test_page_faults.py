"""Warm hot loops fault in little new memory: minor page faults per call.

A temporary of hundreds of KiB that glibc's malloc hands back to the kernel
on free is faulted in again, page by page, on the next call. The sounding
draws its noise through one small buffer per call and a field map forms its
columns in buffers allocated once per render, so a warm call takes few
minor faults. Each count is taken in a fresh interpreter, since malloc's
thresholds depend on what the process freed before. Linux only:
`ru_minflt` counts minor faults there.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import airylink
from airylink.beam import BeamParams, GridSpec, airy_beam_vector, render_field_map
from airylink.codebook import build_exhaustive_codebook, solve_sampling_plan
from airylink.evaluation import calibrated_wave_channels, noise_for_target_se
from airylink.gridio import write_field_map_csv
from airylink.scenario import (
    BlockageGeometry,
    CarrierConfig,
    ScenarioConfig,
    half_wavelength_array,
)
from airylink.search import TrainingConfig, exhaustive_search

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="minor page faults are counted on Linux")

CAR = CarrierConfig(140e9)


def _readme_link():
    """The README link at 128 Tx, the benchmark's training and field-map size."""
    return ScenarioConfig(half_wavelength_array(128, CAR), half_wavelength_array(16, CAR),
                          CAR, 1.0, blockage=BlockageGeometry(0.9, 0.02, 0.005, 0.5)
                          ).with_virtual_defaults(8)


def _third_call_faults(call) -> int:
    """Minor page faults of the third of three calls."""
    call()
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def sounding_faults(_) -> int:
    sc = _readme_link()
    plan = solve_sampling_plan((0.4, 0.15, 0.0), sc, curving_range=(-10.0, 10.0),
                               r_min=0.14)
    book = build_exhaustive_codebook(plan, sc)
    assert len(book) == 8382
    channels = calibrated_wave_channels(sc)
    cfg = TrainingConfig(1.0, noise_for_target_se(channels.non_blocked, 1.0, 15.0),
                         rng_seed=3)
    return _third_call_faults(lambda: exhaustive_search(book, channels.blocked, cfg))


def field_map_faults(out_dir) -> int:
    sc = _readme_link()
    # the grid `airylink fieldmap` renders by default
    half = 1.5 * max(abs(v) for v in (*sc.tx.span, *sc.rx.span))
    grid = GridSpec(1.0 / 200, 1.0, 200, -half, half, 200)
    beam = airy_beam_vector(BeamParams(2.0, 1.0, 0.0), sc.tx, CAR)
    return _third_call_faults(lambda: write_field_map_csv(
        Path(out_dir) / "fieldmap.csv", render_field_map(beam, sc, grid)))


def _in_fresh_interpreter(name: str, arg) -> int:
    """`name(arg)` of this module, called in a new Python process."""
    src = str(Path(airylink.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import test_page_faults as t; print(t.{name}({str(arg)!r}))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return int(run.stdout.split()[-1])


def test_warm_noisy_exhaustive_sounding_faults_in_no_new_memory():
    # 933 faults when each 8,192-slot block drew its 2 MiB of noise whole
    assert _in_fresh_interpreter("sounding_faults", None) < 100


def test_warm_field_map_render_and_csv_fault_in_little_new_memory(tmp_path):
    # about 8,700 when every column allocated its distances, kernel values
    # and K, and the CSV was formed whole before it was written
    assert _in_fresh_interpreter("field_map_faults", tmp_path) < 3000
