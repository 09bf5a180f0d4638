"""What a fresh process loads: the library and ``csglab analyze`` need neither
``dataclasses`` (nor the ``inspect`` it imports) nor the generators and the
acceptance suite, which only ``gen`` and ``verify`` run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import csglab
from csglab.instances import two_link
from csglab.io import canonical_json, instance_to_document

NEVER_LOADED = ("dataclasses", "inspect", "csglab.instances", "csglab.verification")


def loaded_after(code: str, *names: str) -> list[str]:
    """Which of ``names`` are in ``sys.modules`` after ``code`` runs in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(csglab.__file__).parent.parent))
    probe = f"{code}\nimport sys\nprint(json.dumps([n for n in {names!r} if n in sys.modules]))"
    done = subprocess.run(
        [sys.executable, "-c", "import json\n" + probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_library_import_loads_no_dataclasses_generators_or_suite():
    code = "import csglab, csglab.io, csglab.analysis, csglab.dynamics"
    assert loaded_after(code, "csglab.game", *NEVER_LOADED) == ["csglab.game"]


def test_analyze_loads_no_generators_or_suite(tmp_path):
    document = tmp_path / "two-link.json"
    document.write_text(canonical_json(instance_to_document(two_link(3))))
    code = f"from csglab.cli import main\nassert main(['analyze', {str(document)!r}, '--out', {os.devnull!r}]) == 0"
    loaded = loaded_after(code, "csglab.analysis", "csglab.io", "csglab.instances", "csglab.verification")
    assert loaded == ["csglab.analysis", "csglab.io"]
