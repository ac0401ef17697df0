"""The hypothesis profile a run uses: `fixed` unless the command line names another."""

import subprocess
import sys
from pathlib import Path

from hypothesis import settings


def test_profile_follows_the_command_line(request):
    expected = request.config.getoption("hypothesis_profile") or "fixed"
    assert settings.get_current_profile_name() == expected
    assert settings.default.derandomize == (expected == "fixed")


def test_thorough_profile_is_not_overridden_by_the_default():
    here = Path(__file__)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            f"{here}::test_profile_follows_the_command_line", "--hypothesis-profile", "thorough",
        ],
        capture_output=True, text=True, cwd=here.parents[1],
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
