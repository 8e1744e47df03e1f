import pytest


@pytest.fixture
def report_criterion(request):
    """Record one ACCEPTANCE line per criterion; printed in the summary.

    The line goes straight into the item's ``user_properties``: the
    ``record_property`` fixture warns when a JUnit XML report in the default
    xunit2 family is written, and warnings are errors in this suite.
    """

    def _report(number: int, description: str, failures: list) -> None:
        ok = not failures
        line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}"
        request.node.user_properties.append(("acceptance_line", line))
        print(line)
        assert ok, (
            f"criterion {number}: {description}; first failures: {failures[:3]}"
        )

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid or getattr(rep, "when", "call") != "call":
                continue
            props = dict(getattr(rep, "user_properties", []) or [])
            line = props.get("acceptance_line")
            if line is None:
                verdict = "PASS" if status == "passed" else "FAIL"
                line = f"ACCEPTANCE {verdict}: {nodeid.split('::')[-1]}"
            lines.append(line)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
