"""The benchmark pool: 6 NPB + 29 SPEC CPU2006 + 6 PARSEC profiles.

The paper uses three benchmark groups (Section II.B):

* the **25-benchmark characterization set** — 6 NPB + 6 PARSEC parallel
  programs and 13 SPEC CPU2006 single-thread programs — for the Vmin and
  energy studies (Figs. 3-12);
* the **35-program evaluation pool** — all 29 SPEC CPU2006 plus the
  6 NPB programs — from which the server-workload generator draws
  (Section VI.B);
* the **Fig. 11/12 subset** — namd, EP (most CPU-intensive) and milc,
  CG, FT (most memory-intensive).

Profile values are calibrated, not measured: they are chosen so the
paper's published behaviours fall out of the models — CG/FT collapse
under full-chip contention while namd/EP do not (Fig. 8), the 3 K
L3C-per-1M-cycles threshold separates the same programs the paper
separates (Fig. 9), and clustered-vs-spreaded energy differences span
roughly -10 %..+14 % (Fig. 7).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from .profiles import BenchmarkProfile, Suite

# (name, parallel, ref_time_s, mem_fraction, l3_rate, bw_gbs,
#  l2_sensitivity, activity, vmin_delta_mv, spec_class)
_NPB_ROWS = (
    ("CG", True, 60.0, 0.8, 14000.0, 8.0, 0.70, 0.85, -6.0, ""),
    ("EP", True, 50.0, 0.03, 60.0, 0.05, 0.05, 1.25, 8.0, ""),
    ("FT", True, 80.0, 0.72, 10500.0, 7.0, 0.60, 0.90, -4.0, ""),
    ("IS", True, 30.0, 0.68, 9000.0, 6.5, 0.50, 0.80, -10.0, ""),
    ("LU", True, 90.0, 0.38, 2500.0, 2.5, 0.45, 1.05, 2.0, ""),
    ("MG", True, 70.0, 0.62, 7500.0, 5.5, 0.55, 0.90, -2.0, ""),
)

_PARSEC_ROWS = (
    ("swaptions", True, 55.0, 0.04, 90.0, 0.08, 0.05, 1.20, 12.0, ""),
    ("blackscholes", True, 40.0, 0.08, 250.0, 0.20, 0.10, 1.15, 10.0, ""),
    ("fluidanimate", True, 65.0, 0.33, 2600.0, 1.8, 0.40, 1.00, 0.0, ""),
    ("canneal", True, 75.0, 0.65, 6800.0, 4.5, 0.50, 0.75, -8.0, ""),
    ("bodytrack", True, 60.0, 0.18, 900.0, 0.70, 0.25, 1.10, 6.0, ""),
    ("dedup", True, 45.0, 0.42, 2850.0, 3.0, 0.50, 0.95, -5.0, ""),
)

_SPEC_ROWS = (
    # SPEC CPU2006 INT
    ("perlbench", False, 160.0, 0.15, 800.0, 0.60, 0.30, 1.10, 5.0, "INT"),
    ("bzip2", False, 120.0, 0.25, 1700.0, 1.20, 0.35, 1.00, 4.0, "INT"),
    ("gcc", False, 110.0, 0.32, 2900.0, 2.00, 0.45, 1.00, 1.0, "INT"),
    ("mcf", False, 150.0, 0.78, 12500.0, 7.50, 0.65, 0.70, -12.0, "INT"),
    ("gobmk", False, 130.0, 0.10, 450.0, 0.30, 0.20, 1.15, 9.0, "INT"),
    ("hmmer", False, 100.0, 0.05, 150.0, 0.10, 0.10, 1.20, 14.0, "INT"),
    ("sjeng", False, 140.0, 0.08, 300.0, 0.25, 0.15, 1.15, 11.0, "INT"),
    ("libquantum", False, 135.0, 0.72, 9800.0, 6.80, 0.55, 0.80, -9.0, "INT"),
    ("h264ref", False, 125.0, 0.12, 600.0, 0.40, 0.20, 1.20, 7.0, "INT"),
    ("omnetpp", False, 145.0, 0.55, 5200.0, 3.50, 0.50, 0.90, -3.0, "INT"),
    ("astar", False, 120.0, 0.35, 2200.0, 2.20, 0.40, 1.00, 0.0, "INT"),
    ("xalancbmk", False, 115.0, 0.36, 2300.0, 2.40, 0.45, 0.95, -1.0, "INT"),
    # SPEC CPU2006 FP
    ("bwaves", False, 170.0, 0.58, 6000.0, 4.20, 0.50, 0.90, -4.0, "FP"),
    ("gamess", False, 150.0, 0.04, 120.0, 0.09, 0.08, 1.25, 15.0, "FP"),
    ("milc", False, 140.0, 0.74, 11000.0, 7.20, 0.60, 0.80, -11.0, "FP"),
    ("zeusmp", False, 130.0, 0.4, 2700.0, 2.70, 0.45, 1.00, 1.0, "FP"),
    ("gromacs", False, 110.0, 0.09, 350.0, 0.28, 0.15, 1.20, 10.0, "FP"),
    ("cactusADM", False, 160.0, 0.52, 4800.0, 3.30, 0.50, 0.95, -2.0, "FP"),
    ("leslie3d", False, 150.0, 0.62, 6500.0, 4.60, 0.50, 0.85, -6.0, "FP"),
    ("namd", False, 120.0, 0.02, 100.0, 0.07, 0.05, 1.30, 16.0, "FP"),
    ("dealII", False, 115.0, 0.24, 1900.0, 1.30, 0.35, 1.05, 3.0, "FP"),
    ("soplex", False, 135.0, 0.6, 6200.0, 4.40, 0.55, 0.85, -7.0, "FP"),
    ("povray", False, 105.0, 0.03, 80.0, 0.06, 0.05, 1.25, 13.0, "FP"),
    ("calculix", False, 125.0, 0.11, 500.0, 0.35, 0.20, 1.15, 8.0, "FP"),
    ("GemsFDTD", False, 155.0, 0.66, 7800.0, 5.20, 0.55, 0.85, -8.0, "FP"),
    ("tonto", False, 140.0, 0.14, 700.0, 0.50, 0.25, 1.10, 6.0, "FP"),
    ("lbm", False, 120.0, 0.76, 13000.0, 8.20, 0.60, 0.75, -13.0, "FP"),
    ("wrf", False, 150.0, 0.34, 2100.0, 2.10, 0.40, 1.00, 0.0, "FP"),
    ("sphinx3", False, 130.0, 0.36, 2350.0, 2.40, 0.45, 0.95, -2.0, "FP"),
)


def _build_registry() -> Dict[str, BenchmarkProfile]:
    registry: Dict[str, BenchmarkProfile] = {}
    for suite, rows in (
        (Suite.NPB, _NPB_ROWS),
        (Suite.PARSEC, _PARSEC_ROWS),
        (Suite.SPEC_CPU2006, _SPEC_ROWS),
    ):
        for row in rows:
            (name, parallel, ref_s, memf, l3, bw, l2s, act, vd, cls) = row
            registry[name] = BenchmarkProfile(
                name=name,
                suite=suite,
                parallel=parallel,
                ref_time_s=ref_s,
                mem_fraction=memf,
                l3_rate_per_mcycles=l3,
                bandwidth_gbs=bw,
                l2_sensitivity=l2s,
                activity=act,
                vmin_delta_mv=vd,
                spec_class=cls,
            )
    return registry


_REGISTRY = _build_registry()

#: The 13 SPEC CPU2006 programs of the 25-benchmark characterization set.
CHARACTERIZATION_SPEC: Tuple[str, ...] = (
    "namd", "milc", "mcf", "lbm", "libquantum", "soplex", "leslie3d",
    "gcc", "hmmer", "h264ref", "gobmk", "povray", "gamess",
)

#: The five benchmarks shown in Figs. 11/12, ordered from the most
#: CPU-intensive to the most memory-intensive (paper Section V.A).
FIGURE11_SET: Tuple[str, ...] = ("namd", "EP", "milc", "CG", "FT")


def get_benchmark(name: str) -> BenchmarkProfile:
    """Look up one benchmark profile by name (case-sensitive)."""
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; see all_benchmarks()"
        )
    return _REGISTRY[name]


def suite_benchmarks(suite: Suite) -> List[BenchmarkProfile]:
    """Profiles of one suite."""
    return [p for p in _REGISTRY.values() if p.suite is suite]


def characterization_set() -> List[BenchmarkProfile]:
    """The paper's 25-benchmark characterization set (Section II.B)."""
    npb = suite_benchmarks(Suite.NPB)
    parsec = suite_benchmarks(Suite.PARSEC)
    spec = [get_benchmark(name) for name in CHARACTERIZATION_SPEC]
    return npb + parsec + spec


def evaluation_pool() -> List[BenchmarkProfile]:
    """The 35-program pool of the workload generator (Section VI.B):
    all 29 SPEC CPU2006 programs plus the 6 NPB programs."""
    return suite_benchmarks(Suite.SPEC_CPU2006) + suite_benchmarks(Suite.NPB)


def figure11_set() -> List[BenchmarkProfile]:
    """The five benchmarks of Figs. 11/12, CPU-intensive first."""
    return [get_benchmark(name) for name in FIGURE11_SET]
