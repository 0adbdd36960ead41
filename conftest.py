"""pytest configuration shared by every test directory.

``--doctest-modules`` (set in ``pyproject.toml``) imports every Python file
pytest collects.  ``bench/setup_probe.py`` is a script that times one
set-up as it is imported, so it is not collected.
"""

collect_ignore = ["bench/setup_probe.py"]
