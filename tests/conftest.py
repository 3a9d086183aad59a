import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_terminal_summary(terminalreporter):
    # Replay the acceptance verdicts where output capture cannot hide them.
    verdicts = getattr(sys.modules.get("test_acceptance"), "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
