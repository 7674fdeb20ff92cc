"""AST-based lint engine specialised for this reproduction.

The engine is deliberately small: it parses and walks every ``*.py``
file under the given paths once, hands the resulting
:class:`ModuleContext` to each enabled :class:`Rule`, collects
:class:`Finding` objects, and then applies that file's
``# repro: noqa[RULE]`` suppression comments.  A rule's ``check(ctx)``
sees one parsed module at a time and reads the node types it inspects
from the context's single walk (``ctx.of(ast.Call)``).  The engine
exists because the usual PyTorch safety nets do not apply to a
hand-rolled numpy autograd stack — RNG discipline, tape hygiene and
dtype policy have to be enforced by our own tooling.

Suppression syntax (always on the flagged line)::

    something_risky()  # repro: noqa[RNG001] justification text
    other_thing()      # repro: noqa  (blanket, suppresses every rule)
    third_thing()      # repro: noqa[RNG002,FLOW-DTYPE] multiple ids

Usage::

    engine = LintEngine()
    report = engine.run(["src/repro"])
    print(report.format_text())
"""

from __future__ import annotations

import ast
import json
import re
import tokenize
from pathlib import Path

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "LintEngine",
    "LintReport",
    "NoqaComment",
    "parse_noqa_comments",
]

# Rule ids may contain hyphens (FLOW-DTYPE), so the id class includes
# ``-`` — ``noqa[RNG002,FLOW-DTYPE]`` parses as two ids.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_\-,\s]+)\])?")


class Finding:
    """A single lint finding anchored to a file and line."""

    __slots__ = ("rule", "path", "line", "col", "message", "severity")

    def __init__(self, rule, path, line, col, message, severity="error"):
        self.rule = rule
        self.path = str(path)
        self.line = int(line)
        self.col = int(col)
        self.message = message
        self.severity = severity

    def to_dict(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }

    def __repr__(self):
        return "Finding(%s %s:%d:%d %s)" % (
            self.rule,
            self.path,
            self.line,
            self.col,
            self.message,
        )


class NoqaComment:
    """A ``# repro: noqa`` comment found in a source file."""

    __slots__ = ("line", "rules", "used")

    def __init__(self, line, rules):
        self.line = int(line)
        self.rules = rules  # frozenset of rule ids, or None for blanket
        self.used = False

    def suppresses(self, rule_id):
        return self.rules is None or rule_id in self.rules

    def names_any(self, rule_ids):
        """True when the comment names one of ``rule_ids`` (a blanket
        comment names every rule)."""
        if self.rules is None:
            return bool(rule_ids)
        return not self.rules.isdisjoint(rule_ids)


def parse_noqa_comments(source):
    """Extract ``# repro: noqa`` comments, keyed by physical line number.

    Uses the tokenizer so that string literals containing the marker are
    not misread as suppressions.  A comment token is source text, so a
    source the marker never matches has none and is not tokenized.
    """
    comments = {}
    if not _NOQA_RE.search(source):
        return comments
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(tok.string)
            if not match:
                continue
            spec = match.group(1)
            if spec is None:
                rules = None
            else:
                rules = frozenset(
                    part.strip().upper() for part in spec.split(",") if part.strip()
                )
            comments[tok.start[0]] = NoqaComment(tok.start[0], rules)
    except tokenize.TokenError:  # repro: noqa[RES002] unterminated source still lints; it just loses noqa handling
        pass
    return comments


class ModuleContext:
    """Everything a rule needs to inspect one parsed module.

    The tree is walked once, here, and its nodes are indexed by type:
    a rule reads the nodes it inspects from :meth:`of` instead of
    walking the module itself.
    """

    def __init__(self, path, source, tree):
        self.path = str(path)
        self.source = source
        self.tree = tree
        self.noqa = parse_noqa_comments(source)
        self._nodes = list(ast.walk(tree))
        self._by_type = {}
        for node in self._nodes:
            self._by_type.setdefault(type(node), []).append(node)

    def of(self, *types):
        """The module's nodes of exactly these types, in ``ast.walk``
        order (several types come merged in that order)."""
        if len(types) == 1:
            return self._by_type.get(types[0], ())
        return [node for node in self._nodes if type(node) in types]

    def finding(self, rule, node, message, severity="error"):
        """Build a Finding anchored at an AST node (or (line, col) pair)."""
        if isinstance(node, tuple):
            line, col = node
        else:
            line, col = node.lineno, getattr(node, "col_offset", 0)
        return Finding(rule, self.path, line, col, message, severity)


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` / ``name`` / ``description`` and implement
    :meth:`check`, yielding :class:`Finding` objects.
    """

    id = "RULE000"
    name = "base-rule"
    description = ""
    severity = "error"

    def check(self, ctx):
        raise NotImplementedError

    def finding(self, ctx, node, message):
        return ctx.finding(self.id, node, message, severity=self.severity)


class LintReport:
    """Findings plus bookkeeping from one engine run."""

    def __init__(self, findings, suppressed, files_checked):
        self.findings = findings
        self.suppressed = suppressed
        self.files_checked = files_checked

    @property
    def error_count(self):
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warning_count(self):
        return sum(1 for f in self.findings if f.severity == "warning")

    def exit_code(self, strict=False):
        """0 when clean; 1 when errors (or, under --strict, any finding)."""
        if self.error_count:
            return 1
        if strict and self.findings:
            return 1
        return 0

    def format_text(self):
        lines = []
        for f in self.findings:
            lines.append(
                "%s:%d:%d: %s [%s] %s"
                % (f.path, f.line, f.col, f.severity, f.rule, f.message)
            )
        summary = "%d file(s) checked: %d error(s), %d warning(s), %d suppressed" % (
            self.files_checked,
            self.error_count,
            self.warning_count,
            len(self.suppressed),
        )
        lines.append(summary)
        return "\n".join(lines)

    def format_json(self):
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "errors": self.error_count,
                "warnings": self.warning_count,
                "suppressed": len(self.suppressed),
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )


def _spec_matches(spec, rule_id):
    """True when a --select/--ignore spec names this rule.

    A spec is either an exact rule id (``RNG001``, ``FLOW-DTYPE``) or a
    family prefix: ``FLOW`` matches every ``FLOW-*`` rule, ``RNG``
    matches ``RNG001``/``RNG002``.
    """
    if rule_id == spec:
        return True
    if rule_id.startswith(spec + "-"):
        return True
    return rule_id.startswith(spec) and rule_id[len(spec):].isdigit()


class LintEngine:
    """Run a set of rules over python files.

    Parameters
    ----------
    rules:
        Iterable of Rule instances.  Defaults to the full registry from
        :mod:`repro.analysis.rules`.
    select / ignore:
        Optional iterables of rule ids or family prefixes enabling or
        disabling rules (``FLOW`` selects every ``FLOW-*`` analysis).
        ``select`` wins when both are given.  NOQA001 does not judge a
        suppression that names a disabled rule (a blanket one, if any
        rule is disabled).
    """

    def __init__(self, rules=None, select=None, ignore=None):
        if rules is None:
            from .rules import all_rules

            rules = all_rules()
        rules = list(rules)
        known = {r.id for r in rules}
        for spec in (select or ()), (ignore or ()):
            for rid in spec:
                if not any(_spec_matches(rid, k) for k in known):
                    raise ValueError("unknown rule id %r (known: %s)"
                                     % (rid, ", ".join(sorted(known))))
        if select:
            wanted = list(select)
            rules = [r for r in rules
                     if any(_spec_matches(s, r.id) for s in wanted)]
        elif ignore:
            unwanted = list(ignore)
            rules = [r for r in rules
                     if not any(_spec_matches(s, r.id) for s in unwanted)]
        self.rules = rules
        self.disabled = known - {r.id for r in rules}

    # ------------------------------------------------------------------
    @staticmethod
    def collect_files(paths):
        """The ``.py`` files under ``paths``, each once: the first
        mention of a resolved path, in order."""
        files = {}
        for path in paths:
            p = Path(path)
            if p.is_dir():
                found = sorted(p.rglob("*.py"))
            elif p.suffix == ".py":
                found = [p]
            else:
                raise FileNotFoundError("not a python file or directory: %s" % path)
            for file in found:
                files.setdefault(file.resolve(), file)
        return list(files.values())

    def check_source(self, source, path="<string>"):
        """Lint one in-memory module; returns its findings, before noqa
        suppression, and its noqa comments.  Raises SyntaxError when the
        source does not parse."""
        tree = ast.parse(source, filename=str(path))
        ctx = ModuleContext(path, source, tree)
        findings = []
        for rule in self.rules:
            findings.extend(rule.check(ctx))
        return findings, ctx.noqa

    # ------------------------------------------------------------------
    def run(self, paths):
        """Lint every file under ``paths`` and return a :class:`LintReport`."""
        files = self.collect_files(paths)
        judge_noqa = any(r.id == "NOQA001" for r in self.rules)
        findings, suppressed = [], []
        for path in files:
            source = path.read_text(encoding="utf-8")
            try:
                raw, noqa = self.check_source(source, path)
            except SyntaxError as exc:
                findings.append(Finding(
                    "SYNTAX", path, exc.lineno or 1, exc.offset or 0,
                    "syntax error: %s" % exc.msg,
                ))
                continue
            for f in raw:
                comment = noqa.get(f.line)
                if comment is not None and comment.suppresses(f.rule):
                    comment.used = True
                    suppressed.append(f)
                else:
                    findings.append(f)
            if not judge_noqa:
                continue
            for comment in noqa.values():
                # A noqa naming a rule this run disabled may still
                # suppress something: its finding was not looked for.
                if not comment.used and not comment.names_any(self.disabled):
                    findings.append(
                        Finding(
                            "NOQA001",
                            path,
                            comment.line,
                            0,
                            "unused suppression: no finding on this line "
                            "matches this noqa comment",
                            severity="warning",
                        )
                    )
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return LintReport(findings, suppressed, len(files))
