"""Contract linter: per-rule fixtures and suppression semantics.

Every shipped rule (DESIGN.md "Static contracts") gets three fixtures:
a *positive* snippet the rule must flag, the same snippet with an inline
``# contract-ok`` waiver the rule must honor, and a *clean* rewrite the
rule must not flag.  On top of that: the suppression machinery's own
findings (``bad-suppression`` / ``unused-suppression``), the static
shard-payload auditor, and the acceptance check that the shipped
package lints clean.
"""

from __future__ import annotations

import dataclasses
import typing
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import (
    AuditProblem,
    audit_payload,
    audit_payload_class,
    default_rules,
    lint_file,
    run_lint,
)
from repro.analysis.linter import module_tail
from repro.analysis.suppress import parse_suppressions
from repro.errors import ContractViolation
from repro.runtime.executor import SHARD_PAYLOAD_CLASSES, ScanShard


def lint_source(tmp_path: Path, source: str, filename: str = "fixture.py"):
    """Write ``source`` to a temp file and lint it with the full rule set."""
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_file(path, default_rules())


def rules_hit(findings):
    return sorted({f.rule for f in findings})


#: (rule name, positive fixture, clean rewrite).  The positive fixture
#: must produce exactly that rule; the clean rewrite must produce none.
RULE_FIXTURES = [
    (
        "set-iteration",
        "def f():\n"
        "    s = {1, 2, 3}\n"
        "    out = []\n"
        "    for x in s:\n"
        "        out.append(x)\n"
        "    return out\n",
        "def f():\n"
        "    s = {1, 2, 3}\n"
        "    out = []\n"
        "    for x in sorted(s):\n"
        "        out.append(x)\n"
        "    return out\n",
    ),
    (
        "unseeded-rng",
        "import numpy as np\n"
        "def f():\n"
        "    rng = np.random.default_rng()\n"
        "    return rng\n",
        "import numpy as np\n"
        "def f():\n"
        "    rng = np.random.default_rng(7)\n"
        "    return rng\n",
    ),
    (
        "float-reduction",
        "def f(err_rows):\n"
        "    return err_rows.sum()\n",
        "def f(err_rows):\n"
        "    return int(err_rows.sum())\n",
    ),
    (
        "cache-copy",
        "def f(cache, key):\n"
        "    return cache[key]\n",
        "def f(cache, key):\n"
        "    return cache[key].copy()\n",
    ),
    (
        "listing-order",
        "from pathlib import Path\n"
        "def f(root):\n"
        "    return [p.name for p in Path(root).glob('*.py')]\n",
        "from pathlib import Path\n"
        "def f(root):\n"
        "    return [p.name for p in sorted(Path(root).glob('*.py'))]\n",
    ),
    (
        "mutable-default",
        "def f(acc=[]):\n"
        "    return acc\n",
        "def f(acc=None):\n"
        "    return acc or []\n",
    ),
]


@pytest.mark.parametrize(
    "rule,positive,clean",
    RULE_FIXTURES,
    ids=[r for r, _, _ in RULE_FIXTURES],
)
def test_rule_positive_fixture(tmp_path, rule, positive, clean):
    findings = lint_source(tmp_path, positive)
    assert rules_hit(findings) == [rule]
    # Findings carry a DESIGN.md anchor and render as path:line:col.
    for f in findings:
        assert f.anchor.startswith("Static contracts")
        assert f"[{rule}]" in f.render()
        assert "DESIGN.md" in f.render()


@pytest.mark.parametrize(
    "rule,positive,clean",
    RULE_FIXTURES,
    ids=[r for r, _, _ in RULE_FIXTURES],
)
def test_rule_clean_fixture(tmp_path, rule, positive, clean):
    assert lint_source(tmp_path, clean) == []


@pytest.mark.parametrize(
    "rule,positive,clean",
    RULE_FIXTURES,
    ids=[r for r, _, _ in RULE_FIXTURES],
)
def test_rule_suppressed_fixture(tmp_path, rule, positive, clean):
    # Attach a trailing waiver to every flagged line; the file must then
    # lint clean (and no unused-suppression may fire either).
    findings = lint_source(tmp_path, positive)
    flagged = {f.line for f in findings}
    lines = positive.splitlines()
    for ln in flagged:
        lines[ln - 1] += f"  # contract-ok: {rule} -- fixture waiver"
    assert lint_source(tmp_path, "\n".join(lines) + "\n") == []


def test_full_line_suppression_covers_next_line(tmp_path):
    source = (
        "def f():\n"
        "    s = {1, 2}\n"
        "    # contract-ok: set-iteration -- commutative accumulation\n"
        "    for x in s:\n"
        "        print(x)\n"
    )
    assert lint_source(tmp_path, source) == []


def test_bad_suppression_missing_justification(tmp_path):
    source = (
        "def f():\n"
        "    s = {1, 2}\n"
        "    for x in s:  # contract-ok: set-iteration\n"
        "        print(x)\n"
    )
    findings = lint_source(tmp_path, source)
    # The waiver is malformed, so the original finding survives too.
    assert "bad-suppression" in rules_hit(findings)
    assert "set-iteration" in rules_hit(findings)


def test_unused_suppression_is_reported(tmp_path):
    source = (
        "def f():\n"
        "    return 1  # contract-ok: cache-copy -- nothing to waive here\n"
    )
    findings = lint_source(tmp_path, source)
    assert rules_hit(findings) == ["unused-suppression"]


def test_suppression_parses_multiple_rules():
    index = parse_suppressions(
        "x = 1  # contract-ok: cache-copy, set-iteration -- shared waiver\n"
    )
    (sup,) = index.by_line[1]
    assert sup.rules == ("cache-copy", "set-iteration")
    assert sup.justification == "shared waiver"
    assert index.matches("set-iteration", 1)
    assert index.matches("cache-copy", 1)
    assert not index.matches("listing-order", 1)


def test_syntax_error_is_a_finding(tmp_path):
    findings = lint_source(tmp_path, "def f(:\n")
    assert rules_hit(findings) == ["syntax-error"]


def test_module_tail_anchors_at_repro():
    assert module_tail(Path("/x/y/src/repro/core/qor.py")) == "repro/core/qor.py"
    assert module_tail(Path("/tmp/abc123/fixture.py")) == "tmp/abc123/fixture.py"


def test_sanctioned_rng_module_not_flagged(tmp_path):
    # flow.py is the sanctioned RNG construction site; a fixture that
    # *claims* that module tail must pass where a generic one fails.
    repro_dir = tmp_path / "repro"
    repro_dir.mkdir()
    source = (
        "import numpy as np\n"
        "def seed_everything():\n"
        "    return np.random.default_rng()\n"
    )
    assert lint_file(
        _write(repro_dir / "flow.py", source), default_rules()
    ) == []
    assert rules_hit(
        lint_file(_write(repro_dir / "other.py", source), default_rules())
    ) == ["unseeded-rng"]


def _write(path: Path, source: str) -> Path:
    path.write_text(source, encoding="utf-8")
    return path


class TestSearchPackageRngBan:
    """In ``repro/core/search/`` *any* RNG construction is flagged —
    seeded or not.  Searchers must draw from the generator the explorer
    threads in from ``ExplorerConfig.seed``; a private generator, even a
    seeded one, would fork the replay stream."""

    def test_seeded_construction_in_search_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def pick():\n"
            "    rng = np.random.default_rng(7)\n"
            "    return rng.random()\n",
            filename="repro/core/search/custom.py",
        )
        assert rules_hit(findings) == ["unseeded-rng"]
        assert "search package" in findings[0].message

    def test_unseeded_construction_in_search_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng()\n",
            filename="repro/core/search/custom.py",
        )
        assert rules_hit(findings) == ["unseeded-rng"]

    def test_drawing_from_injected_rng_is_clean(self, tmp_path):
        # The sanctioned idiom: use the generator you were handed.
        assert lint_source(
            tmp_path,
            "def propose(candidates, rng):\n"
            "    return candidates[int(rng.integers(len(candidates)))]\n",
            filename="repro/core/search/custom.py",
        ) == []

    def test_seeded_construction_outside_search_still_clean(self, tmp_path):
        assert lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n",
            filename="repro/core/other.py",
        ) == []


def test_shipped_package_lints_clean():
    """Acceptance: ``blasys lint`` is clean on the shipped sources."""
    pkg_dir = Path(repro.__file__).resolve().parent
    findings = run_lint([str(pkg_dir)])
    assert findings == [], "\n".join(f.render() for f in findings)


# ---------------------------------------------------------------------------
# Static shard-payload auditor (the shard-pickle rule's engine).
# ---------------------------------------------------------------------------


def test_registered_payload_classes_audit_clean():
    for cls in SHARD_PAYLOAD_CLASSES:
        assert audit_payload_class(cls) == []


def test_auditor_rejects_function_local_class():
    @dataclasses.dataclass
    class LocalPayload:
        x: int = 0

    problems = audit_payload_class(LocalPayload)
    assert any("function-local" in p.message for p in problems)


def test_auditor_rejects_non_dataclass():
    class Bare:
        pass

    problems = audit_payload_class(Bare)
    assert any("dataclasses" in p.message for p in problems)


def test_auditor_rejects_callable_annotation():
    problems = audit_payload_class(_CallablePayload)
    assert any(
        "Callable" in p.message and p.location.endswith(".fn")
        for p in problems
    )


def test_auditor_rejects_mutable_default_factory():
    problems = audit_payload_class(_FactoryPayload)
    assert any("default_factory" in p.message for p in problems)


def test_auditor_handles_stringized_annotations():
    # Payload classes use ``from __future__ import annotations``, so
    # field.type is a *string* — the auditor must still see through it.
    problems = audit_payload_class(_StringAnnotated)
    assert any(p.location.endswith(".fn") for p in problems)


@dataclasses.dataclass
class _CallablePayload:
    # Unquoted on purpose: ``from __future__ import annotations`` (top of
    # this module) stringizes it, matching the payload classes' style.
    fn: typing.Callable[[int], int] = None  # type: ignore[assignment]


@dataclasses.dataclass
class _FactoryPayload:
    rows: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class _StringAnnotated:
    fn: "Callable[[], int]" = None  # type: ignore[assignment]  # noqa: F821


# ---------------------------------------------------------------------------
# Runtime payload walk: a lambda smuggled into a real ScanShard.
# ---------------------------------------------------------------------------


def make_shard(**overrides) -> ScanShard:
    base = dict(
        chunks=(),
        requests=((0, (np.zeros(2, dtype=np.uint64),)),),
        committed=(),
        metric="mred",
    )
    base.update(overrides)
    return ScanShard(**base)


def test_clean_shard_passes_runtime_audit():
    assert audit_payload(make_shard(), "ScanShard[0]") == []


def test_lambda_in_shard_clone_is_rejected():
    # The static field audit cannot see this: the annotation is a plain
    # tuple, the lambda arrives dynamically.  The deep walk must.
    shard = make_shard(requests=((0, (lambda words: words,)),))
    with pytest.raises(ContractViolation, match="lambda"):
        audit_payload(shard, "ScanShard[0]")
    problems = audit_payload(shard, "ScanShard[0]", strict=False)
    assert any(isinstance(p, AuditProblem) and "lambda" in p.message
               for p in problems)


def test_generator_in_payload_is_rejected():
    shard = make_shard(committed=((0, (w for w in range(3))),))
    with pytest.raises(ContractViolation, match="GeneratorType|generator"):
        audit_payload(shard, "ScanShard[0]")
