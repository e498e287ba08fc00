import pytest

from helpers import CONFIG_DIR

from volflow.config import build_scenario, load_config
from volflow.verify import run_theorem_scenario


@pytest.fixture(scope="session")
def shipped_runs():
    """Run every shipped scenario config once; shared across test modules."""
    reports = {}
    for name in ("constant_inflow", "constant_receding", "expansion_outflow",
                 "radial_inflow"):
        cfg = load_config(CONFIG_DIR / f"{name}.cfg")
        reports[name] = run_theorem_scenario(build_scenario(cfg))
    return reports
