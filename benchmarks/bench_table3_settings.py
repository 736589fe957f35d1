"""Table III — NSGA-II and III settings.

The table is reproduced as the library's defaults; the bench verifies
them and measures the cost of one default-budget NSGA-III generation
step at the paper's population size, so changes to the engine's inner
loop show up as regressions here.
"""

from repro import NSGA3, NSGAConfig, PopulationEvaluator
from repro.evaluation import format_table
from benchmarks.conftest import scenario_for
from repro.model import Request


def test_table3_defaults_match_paper(benchmark, capsys):
    config = benchmark.pedantic(
        NSGAConfig, rounds=1, iterations=1, warmup_rounds=0
    )
    rows = [
        ["populationSize", config.population_size, 100],
        ["Number of evaluations", config.max_evaluations, 10_000],
        ["sbx.rate", config.sbx_rate, 0.70],
        ["sbx.distributionIndex", config.sbx_distribution_index, 15.00],
        ["pm.rate", config.pm_rate, 0.20],
        ["pm.distributionIndex", config.pm_distribution_index, 15.00],
    ]
    with capsys.disabled():
        print(
            "\n"
            + format_table(
                ["parameter", "library default", "paper"], rows,
                title="Table III (defaults)",
            )
        )
    for _, ours, paper in rows:
        assert ours == paper


def test_table3_generation_step_cost(benchmark):
    """One NSGA-III generation at the paper's population size."""
    scenario = scenario_for(40, 80, seed=6)
    merged, _ = Request.concatenate(scenario.requests)
    # Population 100 (paper), two generations' worth of evaluations.
    config = NSGAConfig(population_size=100, max_evaluations=300, seed=0)
    engine = NSGA3(config)

    result = benchmark.pedantic(
        lambda: engine.run(
            PopulationEvaluator(scenario.infrastructure, merged)
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert result.evaluations <= 300
    assert len(result.population) == 100
