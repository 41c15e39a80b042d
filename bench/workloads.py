"""The benchmark's workloads: which scenario runs each one makes.

Kept free of heavy imports so that `load` can run in a fresh interpreter
to measure set-up time (see run.py, `setup_s`).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"

#: The five shipped scenarios, in the order cli_rescore rescores them.
SHIPPED = (
    "oval_preset_v15",
    "oval_preset_v20",
    "figure_course_vision_v15",
    "oval_vision_noisy_v20",
    "straight_convergence",
)

#: workload -> [(scenario file stem, controller, takes the workload seed)].
#: Only a run whose outcome does not depend on the noise draw takes the
#: seed: oval_vision_noisy_v20 (proposed) completed in 5911-5931 steps at
#: each of the seeds 0..99. The other two vision runs keep their shipped
#: seeds. Over the seeds 0..15, figure_course_vision_v15 (proposed) times
#: out after 30000 steps at seed 8, and the comparative run does so at 12
#: of the 16 seeds (ROADMAP 4(b)). Seeding them would make the pass time
#: depend on the seed rather than on the code.
ITEMS = {
    "preset_laps": [
        ("oval_preset_v15", "proposed", False),
        ("oval_preset_v15", "comparative", False),
        ("oval_preset_v20", "proposed", False),
    ],
    "vision_laps": [
        ("figure_course_vision_v15", "proposed", False),
        ("oval_vision_noisy_v20", "proposed", True),
        ("oval_vision_noisy_v20", "comparative", False),
    ],
    "cli_rescore": [(name, "proposed", False) for name in SHIPPED],
}


def use_checkout() -> None:
    """Put the checkout's src/ first on sys.path, or exit if it is missing."""
    if not (SRC / "lanetrack" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        sys.exit(f"error: {ROOT} has no src/lanetrack or scenarios/; "
                 "run the benchmark from the root of a lanetrack checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def load(workload: str, seed: int | None = None) -> list[tuple[str, object, bool]]:
    """Import lanetrack and its CLI, then load, validate and build the
    workload's scenarios and tracks.

    Returns [(key, scenario, shipped)]. `shipped` is True when the run is
    the one bench/reference.json records; a seeded item run at another
    seed gets its own key.
    """
    import lanetrack.cli  # noqa: F401  set-up includes the CLI import
    from lanetrack import scenario

    items = []
    for name, controller, seeded in ITEMS[workload]:
        data = scenario.load_scenario_dict(SCENARIOS / f"{name}.json")
        data["controller"] = controller
        shipped = not seeded or seed is None or seed == data["rng_seed"]
        if not shipped:
            data["rng_seed"] = seed
        key = f"{name}/{controller}" + ("" if shipped else f"@{seed}")
        items.append((key, scenario.scenario_from_dict(data), shipped))
    return items
