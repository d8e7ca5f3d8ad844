import os
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import pytest

from csocnn import svg


@pytest.mark.parametrize("text", [
    "", "plain", "&", "<", ">", "a & b < c > d", "&amp;", "&lt;&gt;",
    "<<&&>>", "x<y>&z&lt;", "tag <g> & 'q' \"d\"",
])
def test_escape_matches_saxutils(text):
    assert svg.escape(text) == sax_escape(text)


def test_cli_import_leaves_network_modules_out():
    # xml.sax.saxutils imports urllib.request, which brings in http.client,
    # ssl and email: a cost every command pays at start-up for nothing
    code = ("import sys, csocnn.cli; "
            "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl')"
            " if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(svg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
