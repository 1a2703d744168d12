"""dt4vertex depends on the Python standard library alone.  Packages such as
numpy may be installed where it is developed; a stray import of one must
fail here, not first on a machine without it."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run with -I -S: no site-packages, no user site, no PYTHON* variables
PROBE = """
import sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import dt4vertex.cli
rc = dt4vertex.cli.main(["check", "dtpt", "--legs", "[[1]],[],[],[]", "--order", "2"])
new = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(sorted(new - set(sys.stdlib_module_names) - {{"dt4vertex"}}))
sys.exit(rc)
"""


def test_a_check_imports_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE.format(src=str(SRC))],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "check dtpt" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"
