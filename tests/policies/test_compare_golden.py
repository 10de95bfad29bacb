"""``repro policy compare`` of every registered policy against its golden.

``tests/golden/policy_compare_xgene2.txt`` and
``policy_compare_xgene3_xl.txt`` pin ``repro policy compare --duration
900 --platform P`` over all eleven keys in ``repro policy list`` order:
per policy the makespan, energy, ED²P, violations and decision
counters. The daemon family's monitor ticks fold into quiet-tick
horizons, so these tables check every policy's replay, folded or not,
end to end on a paper chip and on the spec-file chip.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.policies.registry import policy_keys

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


@pytest.mark.parametrize(
    "platform, golden",
    [
        ("xgene2", "policy_compare_xgene2.txt"),
        ("xgene3-xl", "policy_compare_xgene3_xl.txt"),
    ],
)
def test_compare_matches_golden(capsys, platform, golden):
    keys = policy_keys()
    assert len(keys) == 11
    code = main(
        [
            "policy", "compare", "--duration", "900",
            "--platform", platform, *keys,
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
