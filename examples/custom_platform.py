#!/usr/bin/env python3
"""Run the whole pipeline on a platform you define yourself.

The library is not hard-wired to the paper's two chips: describe your
own machine in a spec file (datasheet, ground-truth Vmin surface, power
and thermal constants), register it, then characterize it, build its
policy table and run the daemon — exactly as for the X-Genes.

This example registers a fictive 16-core "Hydra-16" ARM server (8 PMDs,
2.6 GHz, 920 mV nominal) from ``hydra16.toml`` next to this script and
reproduces the paper's headline comparison on it.

Run:  python examples/custom_platform.py
"""

from pathlib import Path

from repro.allocation import Allocation
from repro.core import VminPolicyTable, run_evaluation
from repro.platform.registry import load_platform_file, register_model
from repro.platform.specs import get_spec
from repro.vmin import VminCampaign


def main() -> None:
    key = register_model(
        load_platform_file(Path(__file__).with_name("hydra16.toml"))
    )
    spec = get_spec(key)
    print(f"Registered custom platform {spec.name!r} as {key!r}.\n")

    print("Characterizing (Section III protocol) ...")
    campaign = VminCampaign(spec)
    for nthreads, allocation in (
        (16, Allocation.CLUSTERED),
        (8, Allocation.SPREADED),
        (8, Allocation.CLUSTERED),
    ):
        point = campaign.point(
            "CG", nthreads, allocation, spec.fmax_hz
        )
        measured = campaign.measure_safe_vmin(point, mode="trials")
        print(
            f"  {point.label():<24} safe Vmin {measured.safe_vmin_mv} mV "
            f"(guardband {measured.guardband_mv:.0f} mV)"
        )

    policy = VminPolicyTable.from_characterization(spec)
    print(
        f"\nPolicy table built; full-chip level at fmax: "
        f"{policy.safe_voltage_mv(spec.n_pmds, spec.fmax_hz)} mV.\n"
    )

    print("Replaying a 10-minute workload under all four configurations:")
    evaluation = run_evaluation(key, duration_s=600.0, seed=3)
    for row in evaluation.rows():
        print(
            f"  {row.config:<10} energy {row.energy_j:9.1f} J  "
            f"saved {row.energy_savings_pct:5.1f}%  "
            f"violations {row.violations}"
        )
    print(
        "\nThe paper's methodology transfers: characterization, the "
        "policy table and the daemon run unchanged on the new machine."
    )


if __name__ == "__main__":
    main()
