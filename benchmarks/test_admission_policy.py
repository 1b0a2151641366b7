"""Benchmark: admission-policy ablation (README, "Implementation decisions").

Compares the default marginal-efficiency admission against the paper's
literal widest-first sweep across the headline settings, documenting why
the efficiency policy is the default.
"""

from repro.experiments.config import is_full_run
from repro.experiments.runner import run_setting
from repro.experiments.tables import headline_settings
from repro.routing.nfusion import AlgNFusion
from repro.utils.tables import AsciiTable

from conftest import report

LABELS = ("default", "p=0.1", "p=0.2", "q=0.5")


def run_ablation():
    quick = not is_full_run()
    table = AsciiTable(["setting", "efficiency", "widest-first", "ratio"])
    ratios = []
    for label, setting in zip(LABELS, headline_settings(quick)):
        rates = run_setting(
            setting,
            routers=[
                AlgNFusion(name="EFF"),
                AlgNFusion(admission_policy="widest_first", name="WF"),
            ],
        )
        efficiency = rates["EFF"]
        widest = rates["WF"]
        ratio = efficiency / widest if widest > 0 else float("inf")
        ratios.append(ratio)
        table.add_row([label, efficiency, widest, f"{ratio:.2f}x"])
    text = (
        "Admission-policy ablation: marginal-efficiency (default) vs the "
        "paper's literal widest-first sweep\n" + table.render()
    )
    return text, ratios


def test_admission_policy(benchmark):
    text, ratios = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report("admission_policy", text)
    # Efficiency admission should win on aggregate.
    assert sum(ratios) / len(ratios) > 1.0
