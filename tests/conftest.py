"""Shared test plumbing: acceptance-check verdict lines, output-file layout.

Each acceptance test records one PASS/FAIL line; they are echoed together in
a terminal section at the end of the run so the verdicts are visible even
when pytest captures per-test stdout.
"""

import json
from itertools import zip_longest

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, ok: bool, detail: str) -> bool:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def assert_canonical_layout(path) -> None:
    """Assert that a file the CLI wrote is laid out byte for byte as specified.

    A JSON file is ``json.dumps(data, indent=2, sort_keys=True)`` and a
    newline.  A CSV file is a header line, then rows of floats, each written
    as its shortest round-trip ``repr`` and joined by commas, each row ending
    in a newline.
    """
    text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        pass
    else:
        assert_same_text(text, json.dumps(data, indent=2, sort_keys=True) + "\n", path.name)
        return
    _header, *lines, last = text.split("\n")
    assert lines and last == "", path.name
    for line in lines:
        assert line == ",".join(map(repr, map(float, line.split(",")))), (path.name, line)


def assert_same_text(got: str, want: str, name: str = "") -> None:
    """Assert ``got == want``, reporting ``name`` and the first differing line.

    pytest's own report would diff the whole texts, which takes minutes on
    texts of many megabytes.
    """
    if got != want:
        pairs = zip_longest(got.split("\n"), want.split("\n"))
        line, (a, b) = next((k, ab) for k, ab in enumerate(pairs) if ab[0] != ab[1])
        raise AssertionError(f"{name} line {line}: {a!r} != {b!r}")
